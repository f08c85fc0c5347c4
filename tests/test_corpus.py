"""Corpus storage and statistics, checked against the counting oracle."""
from __future__ import annotations

import csv
import io
import json
import random
import shutil

import pytest

import counting_oracle as oracle
from conftest import FIXTURES, FIXTURE_IDS
from record_gen import record_batch
from taxidma.codes import TaxonomyCode
from taxidma.corpus import (
    Corpus,
    GROUPINGS,
    LOCK_NAME,
    co_occurrence,
    compute_stats,
    render_csv,
    render_json,
    render_table,
)
from taxidma.errors import (
    InvalidCodeError,
    InvalidIdentifierError,
    MalformedFileError,
    RecordNotFoundError,
    StorageFailureError,
)
from taxidma.record import (
    BACKGROUND,
    Selection,
    add_selection,
    new_record,
    read_record,
    write_record,
)


@pytest.fixture
def fixture_corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for record_id in FIXTURE_IDS:
        name = f"{record_id}.taxidma.json"
        shutil.copy(FIXTURES / name, root / name)
    return Corpus(root)


# -- storage ------------------------------------------------------------------


def test_store_and_load_round_trip(tmp_path, bundled_catalog):
    corpus = Corpus(tmp_path / "fresh")
    record = new_record("first-record", "A title", "words")
    path = corpus.store(record)
    assert path.name == "first-record.taxidma.json"
    assert path.read_text() == write_record(record)
    loaded = corpus.load("first-record")
    assert loaded == record
    assert corpus.record_ids() == ["first-record"]
    assert len(corpus) == 1
    assert not (corpus.root / LOCK_NAME).exists()


def test_store_replaces_existing_file(tmp_path):
    corpus = Corpus(tmp_path)
    record = new_record("twice", "first", "")
    corpus.store(record)
    corpus.store(new_record("twice", "second", ""))
    assert corpus.load("twice").title == "second"
    assert corpus.record_ids() == ["twice"]


def test_iteration_is_sorted_by_record_id(tmp_path):
    corpus = Corpus(tmp_path)
    for record_id in ("zebra", "alpha", "midway"):
        corpus.store(new_record(record_id, record_id, ""))
    assert [record.record_id for record in corpus] == \
        ["alpha", "midway", "zebra"]


def test_missing_record_raises(tmp_path):
    assert Corpus(tmp_path / "nowhere").record_ids() == []
    with pytest.raises(RecordNotFoundError):
        Corpus(tmp_path).load("ghost")


def test_corrupt_file_names_the_culprit(tmp_path):
    (tmp_path / "junk.taxidma.json").write_text("{nope")
    with pytest.raises(MalformedFileError) as excinfo:
        Corpus(tmp_path).load("junk")
    assert "junk.taxidma.json" in str(excinfo.value)


def test_unrelated_files_are_ignored(tmp_path):
    corpus = Corpus(tmp_path)
    corpus.store(new_record("real", "real", ""))
    (tmp_path / "README.txt").write_text("not a record")
    (tmp_path / ".hidden.taxidma.json.tmp").write_text("{}")
    assert corpus.record_ids() == ["real"]


def test_held_lock_blocks_writes_then_clears(tmp_path):
    corpus = Corpus(tmp_path)
    (tmp_path / LOCK_NAME).write_text("")
    with pytest.raises(StorageFailureError) as excinfo:
        corpus.store(new_record("blocked", "blocked", ""))
    assert "locked" in str(excinfo.value)
    assert corpus.record_ids() == []
    (tmp_path / LOCK_NAME).unlink()
    corpus.store(new_record("unblocked", "ok", ""))
    assert corpus.record_ids() == ["unblocked"]


@pytest.mark.parametrize("record_id", ["../escaped", ""])
def test_store_rejects_ids_that_escape_or_hide_in_the_root(tmp_path,
                                                           record_id):
    text = write_record(new_record("placeholder", "t", ""))
    record = read_record(text.replace('"placeholder"', json.dumps(record_id)))
    with pytest.raises(InvalidIdentifierError):
        Corpus(tmp_path / "corpus").store(record)
    assert list(tmp_path.rglob("*")) == []


# -- statistics ---------------------------------------------------------------


def test_item_frequency_over_the_fixture_corpus(fixture_corpus,
                                                bundled_catalog):
    report = compute_stats(fixture_corpus, bundled_catalog)
    assert report.group_by == "item"
    assert report.total == 3
    by_code = {entry.code: entry for entry in report.entries}
    # every fixture opens with attacker-type selections
    assert by_code["BG.A.T"].count == 3
    assert float(by_code["BG.A.T"].share) == 1.0
    # two of the three describe end-user credential attacks
    assert by_code["UE.K.T"].count == 2
    assert by_code["UE.K.T"].share.numerator == 2
    assert by_code["UE.K.T"].share.denominator == 3
    assert by_code["UE.K.T"].name == "End-Users Attack Type"


def test_share_renders_with_six_decimals(fixture_corpus, bundled_catalog):
    report = compute_stats(fixture_corpus, bundled_catalog)
    text = render_csv(report)
    row = next(line for line in text.splitlines()
               if line.startswith("UE.K.T,"))
    assert row.endswith(",0.666667")
    full = next(line for line in text.splitlines()
                if line.startswith("BG.A.T,"))
    assert full.endswith(",1.000000")


@pytest.mark.parametrize("group_by", GROUPINGS)
@pytest.mark.parametrize("merge_profiles", [False, True])
@pytest.mark.parametrize("count_selections", [False, True])
def test_counts_match_the_oracle(fixture_corpus, bundled_catalog, tmp_path,
                                 group_by, merge_profiles, count_selections):
    corpus = fixture_corpus
    for record in record_batch(bundled_catalog, seed=2024, count=30):
        corpus.store(record)
    docs = oracle.load_docs(corpus.root)
    expected = oracle.frequencies(docs, group_by,
                                  merge_profiles=merge_profiles,
                                  count_selections=count_selections)
    report = compute_stats(corpus, bundled_catalog, group_by,
                           count_selections=count_selections,
                           merge_profiles=merge_profiles)
    assert {e.code: e.count for e in report.entries} == expected
    expected_total = sum(expected.values()) if count_selections else len(docs)
    if count_selections:
        assert report.total == sum(
            len(oracle.record_codes(d, group_by, merge_profiles))
            for d in docs)
    else:
        assert report.total == expected_total
    for entry in report.entries:
        assert f"{float(entry.share):.6f}" == \
            oracle.share_text(entry.count, report.total)


def test_storage_order_does_not_change_reports(tmp_path, bundled_catalog):
    records = record_batch(bundled_catalog, seed=5, count=12)
    forward, backward = Corpus(tmp_path / "a"), Corpus(tmp_path / "b")
    for record in records:
        forward.store(record)
    shuffled = records[:]
    random.Random(9).shuffle(shuffled)
    for record in shuffled:
        backward.store(record)
    for group_by in GROUPINGS:
        first = compute_stats(forward, bundled_catalog, group_by)
        second = compute_stats(backward, bundled_catalog, group_by)
        assert first == second


def test_co_occurrence_diagonal_matches_frequency(fixture_corpus,
                                                  bundled_catalog):
    pairs = co_occurrence(fixture_corpus, "item")
    report = compute_stats(fixture_corpus, bundled_catalog, "item")
    for entry in report.entries:
        assert pairs[(entry.code, entry.code)] == entry.count
    docs = oracle.load_docs(fixture_corpus.root)
    assert pairs == oracle.pair_counts(docs, "item")
    for (left, right), count in pairs.items():
        assert left <= right
        assert count <= min(pairs[(left, left)], pairs[(right, right)])


def test_csv_sorts_by_count_then_code(fixture_corpus, bundled_catalog):
    report = compute_stats(fixture_corpus, bundled_catalog, "category")
    text = render_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["code", "name", "count", "share"]
    counts = [int(row[2]) for row in rows[1:]]
    assert counts == sorted(counts, reverse=True)
    for earlier, later in zip(rows[1:], rows[2:]):
        if earlier[2] == later[2]:
            assert earlier[0] < later[0]
    # parses back to the same numbers
    for row in rows[1:]:
        entry = next(e for e in report.entries if e.code == row[0])
        assert entry.count == int(row[2])
        assert f"{float(entry.share):.6f}" == row[3]


def test_json_rendering_is_loadable(fixture_corpus, bundled_catalog):
    report = compute_stats(fixture_corpus, bundled_catalog)
    payload = json.loads(render_json(report))
    assert payload["group_by"] == "item"
    assert payload["total"] == 3
    assert len(payload["entries"]) == len(report.entries)
    assert all(set(e) == {"code", "name", "count", "share"}
               for e in payload["entries"])


def test_table_rendering_aligns_columns(fixture_corpus, bundled_catalog):
    report = compute_stats(fixture_corpus, bundled_catalog)
    text = render_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["code", "name", "count", "share"]
    assert len(lines) == len(report.entries) + 1
    assert any("End-Users Attack Type" in line for line in lines)


def test_empty_corpus_stats(tmp_path, bundled_catalog):
    report = compute_stats(Corpus(tmp_path / "empty"), bundled_catalog)
    assert report.total == 0
    assert report.entries == ()
    assert render_csv(report) == "code,name,count,share\n"


def test_unknown_grouping_is_rejected(fixture_corpus, bundled_catalog):
    with pytest.raises(ValueError):
        compute_stats(fixture_corpus, bundled_catalog, "paragraph")
    with pytest.raises(ValueError):
        co_occurrence(fixture_corpus, "chapter")


def test_leaf_grouping_keeps_first_leaf_only(fixture_corpus, bundled_catalog):
    report = compute_stats(fixture_corpus, bundled_catalog, "leaf")
    codes = {entry.code for entry in report.entries}
    assert "UE.K.T.1" in codes          # deep selections fold to first leaf
    assert "UE.K.T.1.4" not in codes
    assert all(code.count(".") <= 3 for code in codes)


def test_merge_profiles_folds_qualified_codes(tmp_path, bundled_catalog):
    corpus = Corpus(tmp_path)
    for record in record_batch(bundled_catalog, seed=31, count=25):
        corpus.store(record)
    merged = compute_stats(corpus, bundled_catalog, merge_profiles=True)
    assert all(":" not in entry.code for entry in merged.entries)
    plain = compute_stats(corpus, bundled_catalog)
    assert any(":" in entry.code for entry in plain.entries)


@pytest.mark.parametrize("group_by", GROUPINGS)
@pytest.mark.parametrize("merge_profiles", [False, True])
def test_every_group_code_is_named(fixture_corpus, bundled_catalog, group_by,
                                   merge_profiles):
    corpus = fixture_corpus
    for record in record_batch(bundled_catalog, seed=7, count=47):
        corpus.store(record)
    report = compute_stats(corpus, bundled_catalog, group_by,
                           merge_profiles=merge_profiles)
    assert {e.code: e.count for e in report.entries} == oracle.frequencies(
        oracle.load_docs(corpus.root), group_by, merge_profiles=merge_profiles)
    assert [e.code for e in report.entries if not e.name] == []
    names = {e.code: e.name for e in report.entries}
    if merge_profiles and group_by == "item":
        # Only profiles declare these; IoT comes first in the catalog.
        for code in ("BG.I.O", "SI.T.H"):
            assert names[code] == bundled_catalog.full_name(f"IoT:{code}")


def test_unresolvable_codes_get_blank_names(bundled_catalog):
    record = new_record("r1", "t", "d")
    add_selection(record, BACKGROUND, "BG.Z.Q.1")
    report = compute_stats([record], bundled_catalog, group_by="leaf")
    assert [(e.code, e.name) for e in report.entries] == \
        [("BG.Z.Q.1", "")]


def test_programming_errors_in_naming_propagate():
    class BrokenCatalog:
        def full_name(self, code):
            raise TypeError("broken catalog")

    record = new_record("r1", "t", "d")
    add_selection(record, BACKGROUND, "BG.I.A.1")
    with pytest.raises(TypeError):
        compute_stats([record], BrokenCatalog())


_DEPTH_MIX = ("BG.K", "BG.K.R", "BG.K.R.4", "UE.K.T.1.4.4", "IoT:SI.K",
              "IoT:SI.K.G", "IoT:SI.K.G.2", "SSI:UE.K.T.1.4")


@pytest.mark.parametrize("group_by", GROUPINGS)
@pytest.mark.parametrize("merge_profiles", [False, True])
def test_grouping_cuts_codes_of_every_depth(bundled_catalog, group_by,
                                            merge_profiles):
    # Codes shallower than the grouping (an item under "leaf", a category
    # under "item") count as themselves; deeper ones are cut.
    record = new_record("r1", "t", "d")
    for text in _DEPTH_MIX:
        add_selection(record, BACKGROUND, text)
    add_selection(record, BACKGROUND,
                  TaxonomyCode("UE", "K", "T", (1, 4), "IoT"))  # never parsed
    report = compute_stats([record], bundled_catalog, group_by,
                           count_selections=True,
                           merge_profiles=merge_profiles)
    expected: dict[str, int] = {}
    for text in (*_DEPTH_MIX, "IoT:UE.K.T.1.4"):
        code = oracle.prune(text, group_by, merge_profiles)
        expected[code] = expected.get(code, 0) + 1
    assert {entry.code: entry.count for entry in report.entries} == expected
    pairs = co_occurrence([record], group_by, merge_profiles=merge_profiles)
    assert {a for a, _ in pairs} == set(expected)


@pytest.mark.parametrize("group_by", GROUPINGS)
def test_in_memory_code_breaking_the_grammar_raises(bundled_catalog,
                                                    group_by):
    # The group code is cut from the canonical text, so a code that has
    # none is an error even where the cut would drop the bad leaf.
    record = new_record("r1", "t", "d")
    record.background.selections.append(
        Selection(TaxonomyCode("BG", "I", "A", (-1,))))
    with pytest.raises(InvalidCodeError):
        compute_stats([record], bundled_catalog, group_by)
    with pytest.raises(InvalidCodeError):
        co_occurrence([record], group_by)
