"""Record construction, validation, naming, and file round-trip tests."""
from __future__ import annotations

import json
import random
from collections import Counter
from datetime import datetime, timezone

import pytest

from taxidma import record as record_module
from taxidma.codes import format_code
from taxidma.errors import (
    BackgroundNotApplicableError,
    CodeSyntaxError,
    InvalidIdentifierError,
    InvalidRecordError,
    MalformedFileError,
    UnknownApplicationError,
    UnknownPathError,
)
from taxidma.record import (
    BACKGROUND,
    add_selection,
    apply_taxonomy,
    new_record,
    read_record,
    resolve_names,
    validate_record,
    write_record,
)

import record_gen
from conftest import FIXTURE_IDS


@pytest.fixture
def catalog(bundled_catalog):
    return bundled_catalog


def build_minimal(catalog):
    record = new_record("unit-0001", "unit record", "for unit tests",
                        created=datetime(2024, 6, 1, tzinfo=timezone.utc))
    add_selection(record, BACKGROUND, "BG.K.R.4")
    return record


def test_new_record_defaults(catalog):
    record = new_record("abc-123", "t", "d")
    assert record.background.taxonomy.taxonomy == "BG"
    assert record.background.instance_label == "background"
    assert record.applications == []
    assert record.created.tzinfo is not None
    assert record.created.microsecond == 0


def test_new_record_rejects_bad_ids():
    for bad in ("", "has space", "slash/inside", "back\\slash", ".hidden",
                "tab\there"):
        with pytest.raises(InvalidIdentifierError):
            new_record(bad, "t", "d")


def test_apply_taxonomy_and_selection_flow(catalog):
    record = build_minimal(catalog)
    ref = apply_taxonomy(record, catalog, "UE", "user accounts")
    assert ref == 0
    add_selection(record, ref, "UE.K.B.1.2")
    second = apply_taxonomy(record, catalog, "SSI:IMS", "wallet backend")
    assert second == 1
    add_selection(record, second, "SSI:IMS.T.L.4")
    report = validate_record(record, catalog)
    assert report.ok
    assert report.errors == []


def test_background_is_not_repeatable(catalog):
    record = build_minimal(catalog)
    with pytest.raises(BackgroundNotApplicableError):
        apply_taxonomy(record, catalog, "BG")
    with pytest.raises(BackgroundNotApplicableError):
        apply_taxonomy(record, catalog, "IoT:BG")


def test_apply_taxonomy_rejects_unresolvable(catalog):
    record = build_minimal(catalog)
    with pytest.raises(UnknownPathError):
        apply_taxonomy(record, catalog, "WA")


def test_add_selection_checks_reference(catalog):
    record = build_minimal(catalog)
    with pytest.raises(UnknownApplicationError):
        add_selection(record, 0, "UE.K.B.1")
    with pytest.raises(UnknownApplicationError):
        add_selection(record, 5, "UE.K.B.1")


def test_add_selection_requires_parseable_code(catalog):
    record = build_minimal(catalog)
    with pytest.raises(CodeSyntaxError):
        add_selection(record, BACKGROUND, "BG..A")


def test_unresolvable_selection_is_deferred_to_validation(catalog):
    record = build_minimal(catalog)
    # Adding is fine; validation reports it.
    add_selection(record, BACKGROUND, "BG.K.T.9.9")
    report = validate_record(record, catalog)
    assert any(v.rule == "unresolvable-code" for v in report.errors)


def test_taxonomy_mismatch_is_an_error(catalog):
    record = build_minimal(catalog)
    ref = apply_taxonomy(record, catalog, "UE")
    add_selection(record, ref, "SI.K.G.2")
    report = validate_record(record, catalog)
    assert any(v.rule == "selection-taxonomy-mismatch" for v in report.errors)


def test_profile_counts_for_taxonomy_identity(catalog):
    record = new_record("p-1", "t", "d", background_taxonomy="IoT:BG")
    add_selection(record, BACKGROUND, "BG.K.R.4")  # base code, IoT background
    report = validate_record(record, catalog)
    assert any(v.rule == "selection-taxonomy-mismatch" for v in report.errors)


def test_iot_background_accepts_qualified_codes(catalog):
    record = new_record("p-2", "t", "d", background_taxonomy="IoT:BG")
    add_selection(record, BACKGROUND, "IoT:BG.I.O.1")
    add_selection(record, BACKGROUND, "IoT:BG.K.R.4")
    report = validate_record(record, catalog)
    assert report.errors == []


def test_selection_too_shallow(catalog):
    record = build_minimal(catalog)
    add_selection(record, BACKGROUND, "BG.K")
    report = validate_record(record, catalog)
    assert any(v.rule == "selection-too-shallow" for v in report.errors)


def test_free_text_rules(catalog):
    record = build_minimal(catalog)
    add_selection(record, BACKGROUND, "BG.K.Y")  # missing required text
    add_selection(record, BACKGROUND, "BG.K.R.5",
                  free_text="not allowed here")
    report = validate_record(record, catalog)
    rules = [v.rule for v in report.errors]
    assert "free-text-required" in rules
    assert "free-text-not-allowed" in rules


def test_vulnerability_with_text_is_clean(catalog):
    record = build_minimal(catalog)
    add_selection(record, BACKGROUND, "BG.K.Y", free_text="CVE-2021-26855")
    report = validate_record(record, catalog)
    assert report.errors == []


def test_empty_background_warning(catalog):
    record = new_record("w-1", "t", "d")
    report = validate_record(record, catalog)
    rules = [v.rule for v in report.warnings]
    assert "empty-background" in rules
    assert "background-missing-attack" not in rules
    assert report.ok  # warnings only


def test_background_missing_attack_warning(catalog):
    record = new_record("w-2", "t", "d")
    add_selection(record, BACKGROUND, "BG.I.A.1")
    report = validate_record(record, catalog)
    assert any(v.rule == "background-missing-attack"
               for v in report.warnings)


def test_empty_application_warning(catalog):
    record = build_minimal(catalog)
    apply_taxonomy(record, catalog, "SI", "bare")
    report = validate_record(record, catalog)
    assert any(v.rule == "empty-application" for v in report.warnings)


def test_item_level_selection_warning(catalog):
    record = build_minimal(catalog)
    add_selection(record, BACKGROUND, "BG.I.A")
    report = validate_record(record, catalog)
    assert any(v.rule == "item-level-selection" for v in report.warnings)
    assert report.ok


def test_redundant_and_duplicate_selection_warnings(catalog):
    record = build_minimal(catalog)
    ref = apply_taxonomy(record, catalog, "UE", "u")
    add_selection(record, ref, "UE.K.B.1")
    add_selection(record, ref, "UE.K.B.1.2")
    add_selection(record, ref, "UE.K.B.1.2")
    report = validate_record(record, catalog)
    rules = Counter(v.rule for v in report.warnings)
    assert rules["redundant-selection"] == 2  # prefix pairs (1,2) and (1,3)
    assert rules["duplicate-selection"] == 1


def test_validation_is_permutation_invariant(catalog):
    rng = random.Random(99)
    record = build_minimal(catalog)
    ref = apply_taxonomy(record, catalog, "UE", "u")
    for code in ("UE.K.B.1", "UE.K.B.1.2", "UE.I.E", "UE.K.T.9.9",
                 "UE.K.B.1.2", "SI.K.G.2"):
        add_selection(record, ref, code)
    baseline = Counter((v.severity, v.rule, v.message)
                       for v in validate_record(record, catalog).violations)
    for _ in range(10):
        rng.shuffle(record.applications[0].selections)
        shuffled = Counter((v.severity, v.rule, v.message)
                           for v in validate_record(record, catalog).violations)
        assert shuffled == baseline


def test_adding_valid_selections_never_removes_errors(catalog):
    record = build_minimal(catalog)
    add_selection(record, BACKGROUND, "BG.K.T.9.9")
    before = {(v.rule, v.path) for v in
              validate_record(record, catalog).errors}
    add_selection(record, BACKGROUND, "BG.K.D.1")
    after = {(v.rule, v.path) for v in validate_record(record, catalog).errors}
    assert before <= after


def test_resolve_names_annotates_every_selection(catalog):
    record = build_minimal(catalog)
    ref = apply_taxonomy(record, catalog, "UE", "accounts")
    add_selection(record, ref, "UE.K.B.1.2", note="seen in logs")
    resolved = resolve_names(record, catalog)
    total = len(record.background.selections) + sum(
        len(a.selections) for a in record.applications)
    assert len(resolved) == total
    assert resolved[0].code == "BG.K.R.4"
    assert resolved[0].full_name == "Background Attack Results Theft"
    assert resolved[0].scope == BACKGROUND
    last = resolved[-1]
    assert last.scope == 0
    assert last.instance_label == "accounts"
    assert last.full_name == \
        "End-Users Attack Pattern Identity Theft Account Takeover"
    assert last.note == "seen in logs"


def test_resolve_names_requires_clean_record(catalog):
    record = build_minimal(catalog)
    add_selection(record, BACKGROUND, "BG.K.T.9.9")
    with pytest.raises(InvalidRecordError) as exc:
        resolve_names(record, catalog)
    assert exc.value.report is not None


# -- file format --------------------------------------------------------------


def test_write_then_read_round_trip(catalog):
    record = build_minimal(catalog)
    ref = apply_taxonomy(record, catalog, "IoT:SI", "sensor net")
    add_selection(record, ref, "IoT:SI.T.V.2", note="edge sensor")
    add_selection(record, BACKGROUND, "BG.K.Y", free_text="CVE-2024-0001")
    text = write_record(record)
    loaded = read_record(text)
    assert loaded.record_id == record.record_id
    assert loaded.created == record.created
    assert format_code(loaded.applications[0].taxonomy) == "IoT:SI"
    assert write_record(loaded) == text


def test_record_file_shape(catalog):
    record = build_minimal(catalog)
    doc = json.loads(write_record(record))
    assert list(doc) == ["record_id", "title", "description", "sources",
                         "created", "background", "applications"]
    assert doc["created"] == "2024-06-01T00:00:00Z"
    assert doc["background"]["selections"][0] == {"code": "BG.K.R.4"}


def test_fixture_records_load_and_validate(catalog, fixture_records):
    assert set(fixture_records) == set(FIXTURE_IDS)
    for record_id, record in fixture_records.items():
        report = validate_record(record, catalog)
        assert report.errors == [], (record_id, report.errors)
        assert report.warnings == [], (record_id, report.warnings)


def test_read_record_rejects_garbage():
    with pytest.raises(MalformedFileError):
        read_record("not json at all")
    with pytest.raises(MalformedFileError):
        read_record("[]")
    with pytest.raises(MalformedFileError):
        read_record("{}")


def test_read_record_rejects_unknown_taxonomy_token(catalog):
    record = build_minimal(catalog)
    text = write_record(record).replace('"BG.K.R.4"', '"XX.K.R.4"')
    with pytest.raises(MalformedFileError):
        read_record(text)


def test_parser_bugs_are_not_reported_as_malformed_files(catalog,
                                                        monkeypatch):
    text = write_record(build_minimal(catalog))

    def parse_code(text, lenient=False):
        raise RuntimeError("bug in the parser")

    monkeypatch.setattr(record_module, "parse_code", parse_code)
    with pytest.raises(RuntimeError, match="bug in the parser"):
        read_record(text)


def test_overlong_leaf_number_is_a_malformed_file(catalog):
    text = write_record(build_minimal(catalog)).replace(
        '"BG.K.R.4"', '"BG.K.R.4' + "0" * 5000 + '"')
    with pytest.raises(MalformedFileError, match="leaf number too long"):
        read_record(text)


def test_read_record_rejects_bad_timestamp(catalog):
    record = build_minimal(catalog)
    text = write_record(record).replace("2024-06-01T00:00:00Z", "yesterday")
    with pytest.raises(MalformedFileError):
        read_record(text)


def test_read_record_requires_all_fields(catalog):
    record = build_minimal(catalog)
    doc = json.loads(write_record(record))
    for key in list(doc):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(MalformedFileError):
            read_record(json.dumps(broken))


def test_generated_records_validate_and_round_trip(catalog):
    for record in record_gen.record_batch(catalog, seed=0xFEED, count=40):
        report = validate_record(record, catalog)
        assert report.errors == [], report.errors
        text = write_record(record)
        again = read_record(text)
        assert write_record(again) == text
        assert len(resolve_names(record, catalog)) == \
            len(record.background.selections) + \
            sum(len(a.selections) for a in record.applications)
