"""Standard-library modules the package imports only on the paths that use
them: ``hashlib`` (and with it OpenSSL) for stats queries, deterministic
STIX ids and catalog checksums, ``fractions`` and ``csv`` for stats, and
``argparse`` for the CLI parser."""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURE_IDS, FIXTURES

from taxidma import cli

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
to_stix(record, catalog, EmissionOptions(deterministic_ids=True))
stages["deterministic"] = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(["stats", root, "--format", "csv"])
stages["stats"] = loaded()
print(json.dumps({"stages": stages, "code": code, "stdout": out.getvalue()}))
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
    assert stages["ingest"] == []
    assert "hashlib" in stages["deterministic"]
    assert stages["stats"] == list(DEFERRED)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["stats", str(root), "--format", "csv"])
    assert (result["code"], result["stdout"]) == (code, out.getvalue())
    assert code == 0 and len(out.getvalue().splitlines()) > 1
