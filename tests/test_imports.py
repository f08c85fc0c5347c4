"""Standard-library modules the package imports only on the paths that use
them: ``fractions`` and ``csv`` for stats and ``argparse`` for the CLI
parser.  ``hashlib`` (and with it OpenSSL's ``_hashlib``) is imported on no
path: deterministic STIX ids and catalog checksums hash with the
interpreter's built-in ``_sha1`` and ``_sha2``/``_sha256`` modules, and
stats queries hash nothing."""
from __future__ import annotations

import __future__
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import types
from importlib import resources
from pathlib import Path

from conftest import FIXTURE_IDS, FIXTURES

import taxidma
from taxidma import cli
from taxidma.catalog import BUNDLED_CATALOG_RESOURCE

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("_hashlib", "hashlib", "argparse", "fractions", "csv")

# Runs in a fresh interpreter; prints which DEFERRED modules each stage left
# loaded, and the stats query's stdout.
_PROBE = """
import contextlib, io, json, sys
from taxidma import (Corpus, EmissionOptions, from_stix, load_bundled_catalog,
                     read_record, serialize_bundle, to_stix, validate_bundle,
                     validate_record)
from taxidma import cli

deferred, fixtures, root, ids = sys.argv[1].split(","), sys.argv[2], \\
    sys.argv[3], sys.argv[4:]
def loaded():
    return [name for name in deferred if name in sys.modules]

stages = {}
catalog = load_bundled_catalog()
corpus = Corpus(root)
for record_id in ids:
    with open(f"{fixtures}/{record_id}.taxidma.json", "rb") as file:
        record = read_record(file.read())
    assert validate_record(record, catalog).ok
    bundle = json.loads(serialize_bundle(to_stix(record, catalog)))
    assert validate_bundle(bundle) == []
    back, residue = from_stix(bundle, catalog)
    assert residue == [] and validate_record(back, catalog).ok
    corpus.store(back)
stages["ingest"] = loaded()
checksum = catalog.checksum
stages["checksum"] = loaded()
to_stix(record, catalog, EmissionOptions(deterministic_ids=True))
stages["deterministic"] = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(["stats", root, "--format", "csv"])
stages["stats"] = loaded()
print(json.dumps({"stages": stages, "code": code, "stdout": out.getvalue(),
                  "checksum": checksum}))
"""


def test_ingest_and_export_paths_load_no_deferred_module(tmp_path):
    root = tmp_path / "corpus"
    # -S: no site .pth file can preload a module before the probe looks.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, ",".join(DEFERRED),
         str(FIXTURES), str(root), *FIXTURE_IDS],
        capture_output=True, env=env, timeout=120, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    stages = result["stages"]
    assert stages["ingest"] == stages["checksum"] == []
    assert stages["deterministic"] == []
    # The stats query read and parsed every file: no summary existed yet.
    assert stages["stats"] == ["argparse", "fractions", "csv"]
    assert (root / ".taxidma-summary").is_file()
    data = (resources.files("taxidma") / "data" /
            BUNDLED_CATALOG_RESOURCE).read_bytes()
    assert result["checksum"] == hashlib.sha256(data).hexdigest()

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["stats", str(root), "--format", "csv"])
    assert (result["code"], result["stdout"]) == (code, out.getvalue())
    assert code == 0 and len(out.getvalue().splitlines()) > 1


def test_all_names_exactly_the_public_names_the_package_binds():
    """``__init__`` lists each public name in its imports and again in
    ``__all__``; the two lists must agree."""
    public = {name for name, value in vars(taxidma).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)
              and value is not __future__.annotations}
    assert len(set(taxidma.__all__)) == len(taxidma.__all__)
    assert set(taxidma.__all__) == public | {"__version__"}
