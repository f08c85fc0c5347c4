"""Command-line behaviour: output, exit codes, wizard scripting, piping."""
from __future__ import annotations

import io
import json
import re
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES, FIXTURE_IDS, load_fixture_record, scope_groups
from taxidma import cli
from taxidma.cli import run
from taxidma.record import (
    BACKGROUND,
    add_selection,
    new_record,
    read_record,
    write_record,
)
from taxidma.stix import mapped_selections, validate_bundle
from test_catalog import make_doc

CANVA = str(FIXTURES / "canva-2019.taxidma.json")


def scripted(*lines):
    iterator = iter(lines)

    def feed():
        try:
            return next(iterator)
        except StopIteration:
            raise EOFError from None  # what input() does on closed stdin
    return feed


# -- name / list / check-catalog ------------------------------------------------


def test_name_prints_the_full_display_name(capsys):
    assert run(["name", "BG.I.A.1"]) == 0
    assert capsys.readouterr().out == \
        "Background Identity Authenticity Impostor\n"


def test_name_handles_several_codes(capsys):
    assert run(["name", "UE.K.B.1.2", "IoT:SI.K.G.6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("End-Users Attack Pattern")
    assert out[1].startswith("Internet of Things Service Identities")


def test_name_unknown_code_exits_one(capsys):
    assert run(["name", "BG.I.A.1", "BG.Z"]) == 1
    captured = capsys.readouterr()
    assert "Impostor" in captured.out
    assert "BG.Z" in captured.err


def test_name_lenient_folds_case(capsys):
    assert run(["name", "bg.i.a.1"]) == 1
    assert run(["name", "--lenient", "bg.i.a.1"]) == 0
    assert "Impostor" in capsys.readouterr().out


def test_list_shows_the_authenticity_item(capsys):
    assert run(["list", "BG.I.A"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "BG.I.A.1  Impostor",
        "BG.I.A.2  New Account",
        "BG.I.A.3  Compromised Account",
        "BG.I.A.4  None",
        "BG.I.A.0  Others",
    ]


def test_list_everything_is_large(capsys):
    assert run(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 300
    assert all("  " in line for line in lines)


def test_list_rejects_unknown_prefix(capsys):
    assert run(["list", "BG.Z"]) == 1
    assert "BG.Z" in capsys.readouterr().err


def test_check_catalog_is_clean(capsys):
    assert run(["check-catalog"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("catalog OK:")
    assert "4 taxonomies" in out


def test_check_catalog_reports_violations(tmp_path, capsys):
    doc = json.loads(make_doc())
    # make the catch-all leaf number nonzero; the minimal document also
    # lacks most items the content rules name
    item = doc["taxonomies"][0]["categories"][0]["items"][0]
    for leaf in item["leaves"]:
        if leaf["n"] == 0:
            leaf["n"] = 9
    path = tmp_path / "broken.catalog.json"
    path.write_text(json.dumps(doc))
    assert run(["--catalog", str(path), "check-catalog"]) == 1
    assert capsys.readouterr().out == (
        "category-set: BG: categories ['A'] != ['A', 'I', 'K', 'T']\n"
        "leaf-numbering: BG.A.T: numbers [1, 9] not contiguous from 1\n"
        "others-is-zero: BG.A.T.9: Others numbered 9\n"
        "bg-capabilities-items: BG.A.C: item missing\n"
        "knowledge-scale: BG.A.C.3: missing\n"
        "time-scale: BG.A.C.4: missing\n"
        "authenticity-leaves: BG.I.A: item missing\n"
        "attack-category-leaves: SI.K.G: item missing\n"
        "attack-category-leaves: IMS.K.G: item missing\n"
        "lifecycle-stages: *: no Lifecycle item anywhere\n"
        "ue-pattern-tree: UE.K.B: item missing\n"
        "ue-pattern-tree: UE.K.B.1: missing\n"
        "ue-identity-types: UE.I.T: item missing\n"
        "ue-brute-force: UE.K.T.1: Brute Force leaf missing\n"
        "iot-target-type: IoT:BG.T.T: item missing\n"
        "iot-domain: IoT:BG.T.S: item missing\n"
        "iot-level: IoT:SI.T.L: item missing\n"
        "iot-characteristics: IoT:SI.T.H: item missing\n"
        "iot-attack-category: IoT:SI.K.G: item missing\n"
        "ssi-level: SSI:SI.T.L: item missing\n"
        "ssi-level: SSI:IMS.T.L: item missing\n"
        "ssi-level: SSI:UE.T.L: item missing\n"
        "ssi-location: SSI:SI.T.O: item missing\n"
        "ssi-location: SSI:IMS.T.O: item missing\n"
        "ssi-location: SSI:UE.T.O: item missing\n"
        "25 violation(s)\n")


def test_unreadable_catalog_exits_three(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert run(["--catalog", str(path), "name", "BG"]) == 3
    assert "bad catalog" in capsys.readouterr().err
    assert run(["--catalog", str(tmp_path / "missing.json"),
                "name", "BG"]) == 3


def _undecodable(tmp_path, name="noise.json"):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{")
    return path


def _one_line(err: str) -> str:
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_undecodable_catalog_exits_three(tmp_path, capsys):
    path = _undecodable(tmp_path)
    assert run(["--catalog", str(path), "name", "BG"]) == 3
    assert _one_line(capsys.readouterr().err).startswith(
        "cannot read catalog: 'utf-8' codec can't decode byte 0xff")


# -- validate -------------------------------------------------------------------


def test_validate_accepts_the_fixtures(capsys):
    files = [str(FIXTURES / f"{rid}.taxidma.json") for rid in FIXTURE_IDS]
    assert run(["validate", *files]) == 0
    out = capsys.readouterr().out
    assert out.count(": OK") == 3


def test_validate_reports_errors_and_exits_one(tmp_path, capsys):
    record = new_record("busted", "broken record", "")
    add_selection(record, BACKGROUND, "BG.I.A.9")
    path = tmp_path / "busted.taxidma.json"
    path.write_text(write_record(record))
    assert run(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error: unresolvable-code" in out
    assert "INVALID" in out


def test_validate_missing_file_exits_three(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "ghost.taxidma.json")]) == 3
    assert "ghost" in capsys.readouterr().err


def test_validate_garbage_file_exits_three(tmp_path, capsys):
    path = tmp_path / "noise.taxidma.json"
    path.write_text("not json at all")
    assert run(["validate", str(path)]) == 3


def test_validate_undecodable_file_exits_three(tmp_path, capsys):
    path = _undecodable(tmp_path)
    assert run(["validate", str(path)]) == 3
    assert _one_line(capsys.readouterr().err).startswith(f"{path}: ")


# -- encode ---------------------------------------------------------------------


def test_encode_writes_a_valid_record(tmp_path, capsys):
    feed = scripted(
        "cli-demo", "Demo incident", "scripted", "",
        "BG.A.T.2.8", "BG.K.R.4", "",
        "UE", "stolen accounts", "ue.k.t.1.4.4", "",
        "")
    assert run(["encode", "-o", str(tmp_path)], input_fn=feed) == 0
    out = capsys.readouterr().out
    assert "Nation-State" in out
    assert "wrote" in out
    record = read_record((tmp_path / "cli-demo.taxidma.json").read_text())
    assert [str(s.code) for s in record.background.selections] == \
        ["BG.A.T.2.8", "BG.K.R.4"]
    assert record.applications[0].instance_label == "stolen accounts"
    assert str(record.applications[0].selections[0].code) == "UE.K.T.1.4.4"


def test_encode_prompts_for_free_text(tmp_path, capsys):
    feed = scripted(
        "cve-demo", "with weakness", "", "",
        "BG.K.Y", "CVE-2024-12345", "bypass in the login flow", "",
        "")
    assert run(["encode", "-o", str(tmp_path)], input_fn=feed) == 0
    record = read_record((tmp_path / "cve-demo.taxidma.json").read_text())
    selection = record.background.selections[0]
    assert selection.free_text == "CVE-2024-12345"
    assert selection.note == "bypass in the login flow"


def test_encode_rejects_bad_codes_and_reprompts(tmp_path, capsys):
    feed = scripted(
        "retry-demo", "title", "", "",
        "BG.NOPE", "BG.A.T.2.5", "",
        "")
    assert run(["encode", "-o", str(tmp_path)], input_fn=feed) == 0
    assert "!" in capsys.readouterr().out
    record = read_record((tmp_path / "retry-demo.taxidma.json").read_text())
    assert len(record.background.selections) == 1


def test_encode_abort_leaves_no_file(tmp_path, capsys):
    assert run(["encode", "-o", str(tmp_path)], input_fn=scripted("q")) == 1
    assert "aborted" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_encode_eof_counts_as_abort(tmp_path, capsys):
    feed = scripted("eof-demo", "title")
    assert run(["encode", "-o", str(tmp_path)], input_fn=feed) == 1
    assert list(tmp_path.iterdir()) == []


def test_encode_text_utf8_cannot_encode_exits_three(tmp_path, capsys):
    feed = scripted("lone", "x\ud800y", "", "", "", "")
    assert run(["encode", "-o", str(tmp_path)], input_fn=feed) == 3
    err = _one_line(capsys.readouterr().err)
    assert "'lone' holds text that UTF-8 cannot encode" in err
    assert list(tmp_path.iterdir()) == []


def test_encode_validation_errors_block_the_write(tmp_path, capsys):
    feed = scripted(
        "mixed-up", "title", "", "",
        "",
        "UE", "victims", "SI.K.G.2", "",
        "")
    assert run(["encode", "-o", str(tmp_path)], input_fn=feed) == 1
    captured = capsys.readouterr()
    assert "selection-taxonomy-mismatch" in captured.out
    assert "not written" in captured.err
    assert list(tmp_path.iterdir()) == []


# -- to-stix / from-stix ----------------------------------------------------------


def test_to_stix_emits_a_clean_bundle(tmp_path, capsys):
    out_file = tmp_path / "bundle.json"
    assert run(["to-stix", CANVA, "--deterministic",
                "-o", str(out_file)]) == 0
    bundle = json.loads(out_file.read_text())
    assert bundle["type"] == "bundle"
    assert validate_bundle(bundle) == []


def test_to_stix_stdout_and_campaign(capsys):
    assert run(["to-stix", CANVA, "--campaign"]) == 0
    bundle = json.loads(capsys.readouterr().out)
    assert any(obj["type"] == "campaign" for obj in bundle["objects"])


def test_to_stix_refuses_invalid_records(tmp_path, capsys):
    record = new_record("nogood", "broken", "")
    add_selection(record, BACKGROUND, "BG.I.A.9")
    path = tmp_path / "nogood.taxidma.json"
    path.write_text(write_record(record))
    assert run(["to-stix", str(path)]) == 1
    assert "unresolvable-code" in capsys.readouterr().err


def test_to_stix_undecodable_file_exits_three(tmp_path, capsys):
    path = _undecodable(tmp_path)
    assert run(["to-stix", str(path)]) == 3
    assert _one_line(capsys.readouterr().err).startswith(f"{path}: ")


def test_to_stix_missing_file_exits_three(tmp_path):
    assert run(["to-stix", str(tmp_path / "none.taxidma.json")]) == 3


def test_unwritable_output_exits_three(tmp_path, capsys):
    bundle_file = tmp_path / "bundle.json"
    assert run(["to-stix", CANVA, "-o", str(bundle_file)]) == 0
    capsys.readouterr()
    target = tmp_path / "missing" / "dir" / "x.json"
    for argv in (["to-stix", CANVA], ["from-stix", str(bundle_file)]):
        assert run([*argv, "-o", str(target)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line(captured.err).startswith(f"cannot write {target}: ")
        assert not target.parent.exists()


@pytest.mark.parametrize("command", ["to-stix", "from-stix"])
def test_output_utf8_cannot_encode_exits_three(tmp_path, capsys, command):
    # JSON escapes a lone surrogate as \ud800; nothing can encode it back.
    if command == "to-stix":
        document = json.loads(Path(CANVA).read_text())
        document["title"] = "x\ud800y"
    else:
        assert run(["to-stix", CANVA, "--deterministic"]) == 0
        document = json.loads(capsys.readouterr().out)
        for obj in document["objects"]:
            if obj["type"] == "incident":
                obj["name"] = "x\ud800y"
    source = tmp_path / "input.json"
    source.write_text(json.dumps(document))
    target = tmp_path / "out.json"
    for output in ([], ["-o", str(target)]):
        assert run([command, str(source), *output]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _one_line(captured.err).startswith("cannot encode output: ")
        assert not target.exists()


def test_from_stix_reads_stdin(monkeypatch, capsys, tmp_path,
                               bundled_catalog):
    out_file = tmp_path / "bundle.json"
    assert run(["to-stix", CANVA, "--deterministic",
                "-o", str(out_file)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out_file.read_text()))
    assert run(["from-stix", "-"]) == 0
    captured = capsys.readouterr()
    rebuilt = read_record(captured.out)
    assert rebuilt.title == "Canva credential breach"
    assert captured.err == ""


def test_cli_round_trip_preserves_mapped_selections(tmp_path, capsys,
                                                    bundled_catalog):
    bundle_file = tmp_path / "bundle.json"
    record_file = tmp_path / "back.taxidma.json"
    for record_id in FIXTURE_IDS:
        source = str(FIXTURES / f"{record_id}.taxidma.json")
        assert run(["to-stix", source, "-o", str(bundle_file)]) == 0
        assert run(["from-stix", str(bundle_file),
                    "-o", str(record_file)]) == 0
        original = load_fixture_record(record_id)
        rebuilt = read_record(record_file.read_text())
        assert scope_groups(mapped_selections(rebuilt, bundled_catalog)) == \
            scope_groups(mapped_selections(original, bundled_catalog))


def test_from_stix_reports_residue_on_stderr(tmp_path, capsys):
    assert run(["to-stix", CANVA, "-o", str(tmp_path / "b.json")]) == 0
    bundle = json.loads((tmp_path / "b.json").read_text())
    bundle["objects"].append({
        "type": "malware", "spec_version": "2.1",
        "id": "malware--11111111-2222-3333-4444-555555555555",
        "created": "2019-05-24T00:00:00.000Z",
        "modified": "2019-05-24T00:00:00.000Z",
        "name": "loader", "is_family": False,
    })
    (tmp_path / "b.json").write_text(json.dumps(bundle))
    assert run(["from-stix", str(tmp_path / "b.json")]) == 0
    captured = capsys.readouterr()
    assert "residue: malware" in captured.err
    read_record(captured.out)  # stdout still carries a well-formed record


def test_from_stix_rejects_non_bundles(tmp_path, capsys):
    path = tmp_path / "not-a-bundle.json"
    path.write_text('{"type": "report"}')
    assert run(["from-stix", str(path)]) == 3

    path.write_text("{broken")
    assert run(["from-stix", str(path)]) == 3
    assert run(["from-stix", str(tmp_path / "missing.json")]) == 3


def test_from_stix_undecodable_file_is_not_json(tmp_path, capsys):
    path = _undecodable(tmp_path)
    assert run(["from-stix", str(path)]) == 3
    assert _one_line(capsys.readouterr().err).startswith(
        f"{path}: not JSON: ")


def test_from_stix_reports_nesting_too_deep_as_not_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert run(["from-stix", str(path)]) == 3
    assert "not JSON" in capsys.readouterr().err


# -- stats ------------------------------------------------------------------------


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for record_id in FIXTURE_IDS:
        name = f"{record_id}.taxidma.json"
        shutil.copy(FIXTURES / name, root / name)
    return root


def test_stats_table_output(corpus_dir, capsys):
    assert run(["stats", str(corpus_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["code", "name", "count", "share"]
    assert any("0.666667" in line for line in lines)


def test_stats_csv_and_json(corpus_dir, capsys):
    assert run(["stats", str(corpus_dir), "--format", "csv",
                "--group-by", "leaf"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("code,name,count,share\n")
    assert run(["stats", str(corpus_dir), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 3


def test_stats_missing_directory_exits_three(tmp_path, capsys):
    assert run(["stats", str(tmp_path / "void")]) == 3


def test_stats_malformed_record_exits_three(corpus_dir, capsys):
    (corpus_dir / "rot.taxidma.json").write_text("{rot")
    assert run(["stats", str(corpus_dir)]) == 3
    assert "rot.taxidma.json" in capsys.readouterr().err


def test_stats_undecodable_record_exits_three(corpus_dir, capsys):
    _undecodable(corpus_dir, "rot.taxidma.json")
    assert run(["stats", str(corpus_dir)]) == 3
    assert _one_line(capsys.readouterr().err).startswith(
        "rot.taxidma.json: not a JSON document: 'utf-8' codec")


def test_stamp_outside_the_utc_range_exits_three(corpus_dir, capsys):
    fixture = corpus_dir / f"{FIXTURE_IDS[0]}.taxidma.json"
    doc = json.loads(fixture.read_text())
    doc["created"] = "0001-01-01T00:00:00+05:00"
    fixture.write_text(json.dumps(doc))
    message = "record.created: bad timestamp '0001-01-01T00:00:00+05:00'\n"
    assert run(["validate", str(fixture)]) == 3
    assert _one_line(capsys.readouterr().err) == f"{fixture}: {message}"
    assert run(["stats", str(corpus_dir)]) == 3
    assert _one_line(capsys.readouterr().err) == f"{fixture.name}: {message}"


# -- plumbing ----------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["stats"]) == 2
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "taxidma" in out


@pytest.fixture
def fresh_parser_cache():
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


_STAMPS = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-"
                     r"[0-9a-f]{12}|\d{4}-\d\d-\d\dT[0-9:.]+Z")


def test_a_reused_parser_answers_as_a_fresh_one(corpus_dir, capsys,
                                                 fresh_parser_cache):
    calls = [["stats", str(corpus_dir)],
             ["stats", str(corpus_dir), "--group-by", "leaf"],
             ["stats", str(corpus_dir), "--format", "csv"],
             ["stats", str(corpus_dir), "--group-by", "category",
              "--format", "json"],
             ["stats", str(corpus_dir)],
             ["to-stix", CANVA, "--deterministic"],
             ["to-stix", CANVA],
             ["--version"], ["--help"], ["stats", "--help"],
             ["stats", str(corpus_dir), "--group-by", "nope"],
             ["stats"], []]

    def answer(argv):
        status = run(argv)
        out, err = capsys.readouterr()
        if argv == ["to-stix", CANVA]:  # random ids and the current time
            out = _STAMPS.sub("*", out)
        return status, out, err

    reused = [answer(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._shared_parser.cache_clear()
        fresh.append(answer(argv))
    assert reused == fresh
    assert [status for status, _, _ in reused] == \
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2]
    deterministic, random_ids = reused[5][1], reused[6][1]
    assert random_ids != deterministic
    assert _STAMPS.sub("*", deterministic) == random_ids


def test_stats_calls_build_the_parser_once(corpus_dir, capsys, monkeypatch,
                                           fresh_parser_cache):
    build_parser, built = cli.build_parser, []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for group_by in ("item", "leaf", "category"):
        assert run(["stats", str(corpus_dir), "--group-by", group_by]) == 0
    assert len(built) == 1
    capsys.readouterr()
