"""The per-code memo and tables: the strict-parse memo in ``codes`` and the
STIX plan memo on each catalog's vocabulary tables.

They must change no output, whether cold or warm, stay bounded on any
input, and spare the warm paths the work they were built to skip.
"""
from __future__ import annotations

import hashlib
import json
import sys
import threading
from collections import Counter
from dataclasses import astuple
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_IDS, FIXTURES, load_fixture_record
from record_gen import record_batch
from taxidma import codes
from taxidma.catalog import BUNDLED_CATALOG_RESOURCE, Catalog, load_catalog
from taxidma.codes import TaxonomyCode, format_code, parse_code
from taxidma.errors import (
    CodeSyntaxError,
    InvalidCodeError,
    InvalidRecordError,
    MalformedFileError,
)
from taxidma.record import (
    BACKGROUND,
    Selection,
    TaxonomyApplication,
    add_selection,
    new_record,
    read_record,
    record_to_dict,
    validate_record,
    write_record,
)
from taxidma.stix import (
    EmissionOptions,
    mapped_selections,
    serialize_bundle,
    to_stix,
)

DETERMINISTIC = EmissionOptions(deterministic_ids=True)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty strict-parse memo for the test, the global one untouched."""
    memo: dict = {}
    monkeypatch.setattr(codes, "_MEMO", memo)
    return memo


def _fresh_catalog() -> Catalog:
    return load_catalog((resources.files("taxidma") / "data" /
                         BUNDLED_CATALOG_RESOURCE).read_bytes())


def _applications(record):
    return [record.background, *record.applications]


# -- mutants ------------------------------------------------------------------


def _drop_free_text(record):
    for application in _applications(record):
        for selection in application.selections:
            if selection.free_text is not None:
                selection.free_text = None
                return
    add_selection(record, BACKGROUND,
                  f"{record.background.taxonomy.taxonomy_key}.K.Y")


def _add_free_text(record):
    record.background.selections[0].free_text = "added text"


def _foreign_code(record):
    if not record.applications:
        add_selection(record, BACKGROUND, "SI.K.G.1")
        return
    foreign = "UE.K.T.1" if record.applications[-1].taxonomy.taxonomy == \
        "SI" else "SI.T.L.1"
    add_selection(record, len(record.applications) - 1, foreign)


def _above_item(record):
    if record.applications:
        ref, application = 0, record.applications[0]
    else:
        ref, application = BACKGROUND, record.background
    add_selection(record, ref, f"{application.taxonomy.taxonomy_key}.K")


def _unknown_leaf(record):
    add_selection(record, BACKGROUND,
                  f"{record.background.taxonomy.taxonomy_key}.I.A.9")


def _shared_text(record):
    # The same code text in the background and in an application.
    text = format_code(record.background.selections[0].code)
    if not record.applications:
        record.applications.append(
            TaxonomyApplication(TaxonomyCode("SI"), "shared"))
    add_selection(record, 0, text)


def _whole_item(record):
    # Valid: an item with leaves selected whole, beside one of its leaves.
    code = record.background.selections[0].code
    add_selection(record, BACKGROUND, TaxonomyCode(
        code.taxonomy, code.category, code.item, profile=code.profile))


def _duplicate(record):
    # Valid: one code selected twice in the same scope.
    add_selection(record, BACKGROUND, record.background.selections[-1].code)


MUTATIONS = (_drop_free_text, _add_free_text, _foreign_code, _above_item,
             _unknown_leaf, _shared_text, _whole_item, _duplicate)


def _mutants(catalog):
    """record_batch(seed=7, count=300), each record followed by one mutant
    per mutation."""
    for record in record_batch(catalog, seed=7, count=300):
        yield record
        for mutate in MUTATIONS:
            mutant = read_record(write_record(record))
            mutate(mutant)
            yield mutant


def _observe(record, catalog) -> list[str]:
    """Every finding; for a record without errors, also its mapped
    selections and bundle text."""
    report = validate_record(record, catalog)
    seen = [str(v) for v in report.violations]
    if report.ok:
        seen.append(repr(mapped_selections(record, catalog)))
        seen.append(serialize_bundle(to_stix(record, catalog, DETERMINISTIC)))
    return seen


# sha256 over _observe of every record of _mutants(bundled catalog), each
# entry followed by a newline; taken from the code before the tables existed.
PINNED_OBSERVATIONS_DIGEST = \
    "996ab5044c8f0705b6fdc4554004686de83838b6e4f6c62efd189b19484cbcd7"


def _digest(records, catalog) -> tuple[str, list[bool]]:
    digest, valid = hashlib.sha256(), []
    for record in records:
        seen = _observe(record, catalog)
        valid.append(validate_record(record, catalog).ok)
        for entry in seen:
            digest.update(entry.encode() + b"\n")
    return digest.hexdigest(), valid


def test_tables_change_no_output_cold_or_warm(bundled_catalog, fresh_memo):
    records = list(_mutants(bundled_catalog))
    catalog = _fresh_catalog()
    plans = catalog.vocabulary._plans
    assert plans == {}
    cold, valid = _digest(records, catalog)
    warm, _ = _digest(records, catalog)
    assert cold == warm == PINNED_OBSERVATIONS_DIGEST
    assert 0 < sum(valid) < len(records)
    # Records with errors are refused before any plan is made for them.
    for record, ok in zip(records, valid):
        if not ok:
            with pytest.raises(InvalidRecordError):
                mapped_selections(record, catalog)
            with pytest.raises(InvalidRecordError):
                to_stix(record, catalog, DETERMINISTIC)
    # Plans are kept only for resolvable codes, at most one per scope kind.
    assert plans
    per_text = Counter(text for _, text in plans)
    assert set(per_text) <= set(catalog._index)
    assert max(per_text.values()) <= 2


# -- warm paths ---------------------------------------------------------------


def test_warm_emission_builds_no_code_and_adds_no_plan(bundled_catalog,
                                                       monkeypatch):
    records = [load_fixture_record(rid) for rid in FIXTURE_IDS]
    bundles = [to_stix(record, bundled_catalog, DETERMINISTIC)
               for record in records]  # fills the plan memo
    plans = dict(bundled_catalog.vocabulary._plans)
    init, built = TaxonomyCode.__init__, []

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TaxonomyCode, "__init__", counting_init)
    assert [to_stix(record, bundled_catalog, DETERMINISTIC)
            for record in records] == bundles
    assert built == []
    assert bundled_catalog.vocabulary._plans == plans


def test_warm_read_record_builds_no_code(fresh_memo, monkeypatch):
    texts = [(FIXTURES / f"{rid}.taxidma.json").read_text()
             for rid in FIXTURE_IDS]
    for text in texts:
        read_record(text)
    init, built = TaxonomyCode.__init__, []

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TaxonomyCode, "__init__", counting_init)
    for text in texts:
        read_record(text)
    assert built == []


# -- the memo -----------------------------------------------------------------


def test_parse_memo_returns_the_same_code(fresh_memo):
    first = parse_code("IoT:SI.K.G.2")
    assert parse_code("IoT:SI.K.G.2") is first
    assert fresh_memo == {"IoT:SI.K.G.2": first}


class _Text(str):
    pass


def test_parse_memo_leaves_other_parses_alone(fresh_memo):
    lenient = parse_code("bg.i.a.1", lenient=True)
    assert parse_code("bg.i.a.1", lenient=True) is not lenient
    sub = parse_code(_Text("BG.I.A.1"))
    assert parse_code(_Text("BG.I.A.1")) is not sub
    for text in ("bg.i", "IOT:SI.K", "BG.I.A.01", "BG..I"):
        errors = []
        for _ in range(2):
            with pytest.raises(CodeSyntaxError) as excinfo:
                parse_code(text)
            errors.append((str(excinfo.value), excinfo.value.offset))
        assert errors[0] == errors[1]
    assert fresh_memo == {}


def test_parse_memo_stays_bounded(fresh_memo):
    for number in range(codes._MEMO_SIZE + 10):
        parse_code(f"BG.I.A.{number}")
    long_text = "BG.I.A" + ".1" * 100_000
    assert parse_code(long_text).leaf_path == (1,) * 100_000
    assert parse_code(long_text) is not parse_code(long_text)
    assert 0 < len(fresh_memo) <= codes._MEMO_SIZE
    assert max(map(len, fresh_memo)) <= codes._MEMO_TEXT_MAX


def test_parse_memo_bound_holds_across_threads(fresh_memo, monkeypatch):
    # A small bound puts a thread at the full memo often: without the lock,
    # two threads can both see room for one more entry.
    monkeypatch.setattr(codes, "_MEMO_SIZE", 8)
    texts = [f"SI.K.G.{number}" for number in range(6000)]
    workers, sizes = 4, []

    def parse_share(offset):
        for text in texts[offset::workers]:
            parse_code(text)

    def watch():
        while any(thread.is_alive() for thread in threads):
            sizes.append(len(fresh_memo))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_share, args=(offset,))
                   for offset in range(workers)]
        for thread in threads:
            thread.start()
        watcher = threading.Thread(target=watch)
        watcher.start()
        for thread in (*threads, watcher):
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in (*threads, watcher))
    finally:
        sys.setswitchinterval(interval)
    assert max(sizes + [len(fresh_memo)]) <= codes._MEMO_SIZE


_code_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12)
    | st.text("BGSIMUEKTAoW.:0123", max_size=14)
    | st.sampled_from(["BG.I.A.1", "IoT:SI.K.G.2", "UE.K.T.1.4.4", "WA",
                       "IOT:SI", "BG.I.A.01", "SSI", "BG.I.A.1." + "9" * 40,
                       "BG.I.A" + ".1" * 50]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)


def _read_outcome(text: str):
    try:
        record = read_record(text)
    except MalformedFileError as exc:
        return "malformed", str(exc)
    return "read", record_to_dict(record)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_code_values)
def test_any_json_selection_code_reads_or_is_malformed(value):
    doc = json.loads((FIXTURES / "canva-2019.taxidma.json").read_text())
    doc["applications"][0]["selections"][1]["code"] = value
    text = json.dumps(doc)
    first = _read_outcome(text)
    assert _read_outcome(text) == first


_SAMPLE_CODES = [parse_code(text) for text in (
    "BG", "SI.K", "BG.I.A.1", "IoT:SI.K.G.2", "UE.K.T.1.4.4")]


@st.composite
def _in_memory_codes(draw):
    """A parsed code with up to two of its five fields replaced by any
    value: most break the grammar, and a few still render."""
    fields = list(astuple(draw(st.sampled_from(_SAMPLE_CODES))))
    for index in draw(st.sets(st.integers(0, 4), max_size=2)):
        fields[index] = draw(_code_values)
    return TaxonomyCode(*fields)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_in_memory_codes())
def test_any_in_memory_code_renders_or_is_invalid(bundled_catalog, code):
    try:
        text = format_code(code)
    except InvalidCodeError:
        pass
    else:
        assert format_code(parse_code(text)) == text
    record = new_record("any-code", "any code", "")
    record.background.selections.append(Selection(code))
    record.applications.append(TaxonomyApplication(code, "", []))
    validate_record(record, bundled_catalog)  # must not raise
