"""Record construction, validation, naming, and file round-trip tests."""
from __future__ import annotations

import ast
import enum
import json
import random
import re
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxidma import record as record_module
from taxidma.catalog import Catalog
from taxidma.codes import TaxonomyCode, format_code, parse_code
from taxidma.errors import (
    BackgroundNotApplicableError,
    CodeSyntaxError,
    InvalidCodeError,
    InvalidIdentifierError,
    InvalidRecordError,
    MalformedFileError,
    UnknownApplicationError,
    UnknownPathError,
)
from taxidma.record import (
    BACKGROUND,
    Selection,
    TaxonomyApplication,
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


def _nests(a, b):
    """True when ``b`` lies in the subtree rooted at ``a``, field by field."""
    if (a.profile, a.taxonomy) != (b.profile, b.taxonomy):
        return False
    for mine, theirs in ((a.category, b.category), (a.item, b.item)):
        if mine is None or mine != theirs:
            return mine is None
    return b.leaf_path[:len(a.leaf_path)] == a.leaf_path


def _pairwise_warnings(application):
    """The duplicate and redundant warnings of one scope as an all-pairs
    comparison of its renderable codes gives them, in that order.  Codes
    are compared by value: a list ``leaf_path`` counts as its tuple."""
    codes = []
    for selection in application.selections:
        try:
            text = format_code(selection.code)
        except InvalidCodeError:
            continue
        codes.append(parse_code(text))
    out = []
    for i, a in enumerate(codes):
        for b in codes[i + 1:]:
            if a == b:
                out.append(("duplicate-selection",
                            f"{format_code(a)} is selected more than once"))
            elif _nests(a, b) or _nests(b, a):
                shallow, deep = (a, b) if _nests(a, b) else (b, a)
                out.append(("redundant-selection",
                            f"{format_code(shallow)} is already implied by "
                            f"{format_code(deep)}"))
    return out


def _nesting_records(catalog):
    """Generated records, the same with repeats and parents of their codes
    mixed in, and hand-made scopes of near misses."""
    rng = random.Random(20)
    records = record_gen.record_batch(catalog, seed=20, count=150)
    for record in record_gen.record_batch(catalog, seed=21, count=150):
        for application in (record.background, *record.applications):
            picks = [s.code for s in application.selections]
            for code in rng.sample(picks, k=min(3, len(picks))):
                extra = code.parent() if rng.random() < 0.5 else code
                application.selections.insert(
                    rng.randint(0, len(application.selections)),
                    Selection(extra or code))
        records.append(record)
    hand = build_minimal(catalog)
    ref = apply_taxonomy(hand, catalog, "UE", "u")
    for code in ("UE.K.B.1", "UE.K.B.10", "UE.K.B.1.2", "UE.K.B.1",
                 "UE.K.B", "UE.K", "UE", "IoT:UE.K.B.1.2",
                 TaxonomyCode("UE", "K", "B", [1]),  # a list leaf_path
                 TaxonomyCode("UE", "K", "B", [1, 2]),
                 TaxonomyCode("UE", "K", "B", (-1,)),  # does not render
                 "UE.K.BA", "UE.K.BA.1", "IoT", "IoT:UE"):
        hand.applications[ref].selections.append(Selection(
            code if isinstance(code, TaxonomyCode) else parse_code(code)))
    for code in ("BG.K.R.4", "BG.K.R", "BG.K.R.40", "BG.K.R.4.1"):
        hand.background.selections.append(Selection(parse_code(code)))
    return records + [hand]


def test_nesting_warnings_match_the_all_pairs_comparison(catalog):
    nested = 0
    for record in _nesting_records(catalog):
        expected = [warning
                    for application in (record.background,
                                        *record.applications)
                    for warning in _pairwise_warnings(application)]
        got = [(v.rule, v.message)
               for v in validate_record(record, catalog).violations
               if v.rule in ("duplicate-selection", "redundant-selection")]
        assert got == expected, record.record_id
        nested += bool(expected)
    assert nested > 150


def test_a_list_leaf_path_is_compared_by_value(catalog):
    # format_code renders [4] as it renders (4,), but [4] != (4,).
    for leaf_path, warning in (
            ([4], ("duplicate-selection",
                   "BG.K.R.4 is selected more than once")),
            ([4, 1], ("redundant-selection",
                      "BG.K.R.4 is already implied by BG.K.R.4.1"))):
        record = build_minimal(catalog)  # selects BG.K.R.4
        record.background.selections.append(
            Selection(TaxonomyCode("BG", "K", "R", leaf_path)))
        warnings = [(v.rule, v.message)
                    for v in validate_record(record, catalog).warnings
                    if v.rule in ("duplicate-selection",
                                  "redundant-selection")]
        assert warnings == [warning]


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


def test_read_record_rejects_nesting_too_deep_to_decode():
    with pytest.raises(MalformedFileError):
        read_record("[" * 100000)


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


@pytest.mark.parametrize("number, message", [
    (10 ** 5000, "leaf number too long"),  # beyond str()'s digit limit
    (-1, "bad leaf number"),
], ids=["overlong", "negative"])
def test_in_memory_code_breaking_the_grammar_is_reported(catalog, number,
                                                         message):
    record = build_minimal(catalog)
    broken = TaxonomyCode("BG", "I", "A", (number,))
    record.background.selections += [Selection(broken), Selection(broken)]
    report = validate_record(record, catalog)
    assert [(v.rule, v.path) for v in report.errors] == [
        ("invalid-code", "background.selections[1]"),
        ("invalid-code", "background.selections[2]")]
    assert all(message in v.message for v in report.errors)
    with pytest.raises(InvalidCodeError, match=message):
        format_code(broken)
    with pytest.raises(InvalidCodeError, match=message):
        write_record(record)


@pytest.mark.parametrize("scope, taxonomy, message", [
    (BACKGROUND, TaxonomyCode("bg"), "bad taxonomy token 'bg'"),
    (BACKGROUND, TaxonomyCode("BG", profile="iot"), "unknown profile 'iot'"),
    (0, TaxonomyCode("si"), "bad taxonomy token 'si'"),
    (0, TaxonomyCode("SI", "k"), "bad category 'k'"),
    (0, TaxonomyCode(5), "bad taxonomy token 5"),
    (0, TaxonomyCode("SI", ["K"]), "bad category ['K']"),
    (0, TaxonomyCode("SI", "K", "T", 5), "bad leaf path 5"),
], ids=["background", "background-profile", "application", "deeper",
        "taxonomy-not-a-string", "category-not-a-string",
        "leaf-path-not-a-sequence"])
def test_application_taxonomy_breaking_the_grammar_is_reported(
        catalog, scope, taxonomy, message):
    record = build_minimal(catalog)
    if scope == BACKGROUND:
        record.background.taxonomy = taxonomy
        path = "background"
    else:
        record.applications.append(TaxonomyApplication(taxonomy, "", []))
        path = f"applications[{scope}]"
    report = validate_record(record, catalog)
    assert [(v.rule, v.path, v.message) for v in report.violations] == [
        ("invalid-code", path, message)]
    with pytest.raises(InvalidCodeError, match=re.escape(message)):
        write_record(record)


@pytest.mark.parametrize("code, message", [
    (TaxonomyCode("BG", "K", ("x",)), "bad item code ('x',)"),
    (TaxonomyCode("BG", 1, "T"), "bad category 1"),
    (TaxonomyCode(["BG"], "K", "T"), "bad taxonomy token ['BG']"),
    (TaxonomyCode("BG", "K", "T", 5), "bad leaf path 5"),
    (TaxonomyCode("BG", "K", "T", None), "bad leaf path None"),
], ids=["item", "category", "taxonomy", "leaf-path", "no-leaf-path"])
def test_selection_code_with_a_field_of_the_wrong_type_is_reported(
        catalog, code, message):
    record = build_minimal(catalog)
    record.background.selections.append(Selection(code))
    report = validate_record(record, catalog)
    assert [(v.rule, v.path, v.message) for v in report.errors] == [
        ("invalid-code", "background.selections[1]", message)]


def _malformed_message(doc) -> str:
    with pytest.raises(MalformedFileError) as excinfo:
        read_record(json.dumps(doc))
    return str(excinfo.value)


def test_malformed_file_messages_name_the_location(catalog):
    doc = json.loads(write_record(build_minimal(catalog)))
    doc["applications"] = [
        {"taxonomy": "SI", "instance_label": "", "selections": []}]

    def broken(scope, change):
        copy = json.loads(json.dumps(doc))
        change(copy["background"] if scope is None
               else copy["applications"][scope])
        return _malformed_message(copy)

    def select(raw_selection):
        return lambda app: app["selections"].append(raw_selection)

    assert broken(None, lambda app: app.update(taxonomy=5)) == \
        "background.taxonomy: code must be a string"
    assert broken(0, lambda app: app.update(taxonomy="SI..K")) == \
        "applications[0].taxonomy: expected category letter (offset 3)"
    assert broken(0, select({"note": "no code"})) == \
        "applications[0].selections[0]: missing code"
    assert broken(None, lambda app: app["selections"].__setitem__(0, [])) \
        == "background.selections[0]: missing code"
    assert broken(0, select({"code": "SI.K.G.1", "free_text": 1})) == \
        "applications[0].selections[0].free_text: must be a string"
    assert broken(None, lambda app: app["selections"][0].update(note=[])) \
        == "background.selections[0].note: must be a string"
    assert broken(0, select({"code": None})) == \
        "applications[0].selections[0].code: code must be a string"
    assert broken(None, select({"code": "BG..K"})) == \
        "background.selections[1].code: expected category letter (offset 3)"
    assert broken(0, select({"code": "XX.K.R.4"})) == \
        "applications[0].selections[0].code: unknown taxonomy token 'XX' " \
        "in 'XX.K.R.4'"


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


# -- the indented JSON writer -------------------------------------------------

_indented_json = record_module._indented_json


def _reference(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


def _outcome(write, value):
    """The text ``write`` produces, or its exception type and message."""
    try:
        return write(value)
    except Exception as exc:
        return type(exc), str(exc)


_json_strings = st.text(
    st.sampled_from('aZ0 "\\/\n\r\t\b\f\x00\x1f\x7f\x80é中\u2028𝄞\ud800'),
    max_size=6) | st.text(max_size=6)
_json_scalars = (
    st.none() | st.booleans() | _json_strings
    | st.integers(-2 ** 70, 2 ** 70)
    | st.sampled_from([10 ** 100, -10 ** 100, 0.0, -0.0, 1e300, -1e-300,
                       5e-324, 1.5, float("nan"), float("inf"),
                       float("-inf")])
    | st.floats())
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_strings, children, max_size=4),
    max_leaves=24)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_json_trees)
def test_indented_json_equals_json_dumps(value):
    assert _indented_json(value) == _reference(value)


class _Text(str):
    pass


class _Number(enum.IntEnum):
    ONE = 1


def _cyclic_dict():
    value = {"a": []}
    value["a"].append(value)
    return value


def _cyclic_list():
    value = []
    value.append(value)
    return value


@pytest.mark.parametrize("value", [
    {1: "a", 2.5: "b", True: [], None: {}},
    {(1, 2): "tuple key"},
    ("a", [1, (2.5, None)], ()),
    {"e": _Number.ONE, "t": _Text("sub"), _Text("key"): [_Text("x")]},
    {"big": 10 ** 5000},
    {"nan": float("nan"), "inf": [float("inf"), float("-inf")]},
    {"set": {1}},
    [object()],
    _cyclic_dict(),
    _cyclic_list(),
], ids=["non-str-keys", "tuple-key", "tuples", "subclasses", "huge-int",
        "nan", "set", "object", "cyclic-dict", "cyclic-list"])
def test_indented_json_matches_json_dumps_outside_plain_json(value):
    assert _outcome(_indented_json, value) == _outcome(_reference, value)


def test_indented_json_on_nesting_beyond_the_recursion_limit():
    value: list = []
    for _ in range(5000):
        value = [value]
    with pytest.raises(RecursionError):
        _reference(value)
    with pytest.raises(RecursionError):
        _indented_json(value)


def test_only_the_writer_calls_the_indenting_encoder():
    """``json.dumps`` with ``indent`` runs CPython's pure-Python encoder;
    every indented dump in the package goes through ``_indented_json``,
    whose fallback is the one call allowed."""
    calls = []
    for path in sorted(Path(record_module.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or \
                    not any(k.arg == "indent" for k in node.keywords):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name != "dumps":
                continue
            owners = [f.name for f in functions
                      if f.lineno <= node.lineno <= f.end_lineno]
            calls.append((path.name, owners))
    assert calls == [("record.py", ["_indented_json"])]


def test_only_the_catalog_reads_its_private_attributes(bundled_catalog):
    """Other modules reach the catalog through its methods: none of them
    reads an ``_``-prefixed attribute that a ``Catalog`` instance or class
    defines, so the index stays the one per-code table."""
    bundled_catalog.full_name("BG")  # builds the lazy attributes as well
    private = {name for name in (*vars(Catalog), *vars(bundled_catalog))
               if name.startswith("_") and not name.startswith("__")}
    assert {"_index", "_full_names"} <= private
    uses = []
    for path in sorted(Path(record_module.__file__).parent.glob("*.py")):
        if path.name == "catalog.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        uses += [(path.name, node.lineno, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in private]
    assert uses == []
