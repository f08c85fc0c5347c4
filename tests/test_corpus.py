"""Corpus storage and statistics, checked against the counting oracle."""
from __future__ import annotations

import csv
import errno
import io
import json
import os
import random
import shutil
import threading
from datetime import datetime, timezone

import pytest

import counting_oracle as oracle
from conftest import FIXTURES, FIXTURE_IDS, load_fixture_record
from record_gen import record_batch
from taxidma import corpus as corpus_module
from taxidma.catalog import (
    Catalog,
    Category,
    Item,
    Leaf,
    Override,
    Profile,
    Taxonomy,
)
from taxidma.codes import TaxonomyCode
from taxidma.corpus import (
    Corpus,
    GROUPINGS,
    _full_name,
    co_occurrence,
    compute_stats,
    render_csv,
    render_json,
    render_table,
)
from taxidma.errors import (
    CodeSyntaxError,
    InvalidCodeError,
    InvalidIdentifierError,
    InvalidRecordError,
    MalformedFileError,
    RecordNotFoundError,
    StorageFailureError,
    UnknownPathError,
)
from taxidma.record import (
    BACKGROUND,
    Selection,
    add_selection,
    apply_taxonomy,
    new_record,
    read_record,
    write_record,
)
from taxidma.stix import EmissionOptions, from_stix, to_stix


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
    assert [p.name for p in corpus.root.iterdir()] == [path.name]


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


@pytest.mark.parametrize("name", ["a b", ".ab", "ab\u00e9"])
def test_files_named_by_no_valid_id_are_not_records(tmp_path,
                                                    bundled_catalog, name):
    # One record per file name: before, "a b.taxidma.json" holding record
    # "ab" was listed as "a b", and a store of "ab" made it count twice.
    record = new_record("ab", "t", "")
    add_selection(record, BACKGROUND, "BG.K.R.4")
    corpus = Corpus(tmp_path)
    (tmp_path / f"{name}.taxidma.json").write_text(write_record(record))
    corpus.store(record)
    assert corpus.record_ids() == ["ab"]
    assert [loaded.record_id for loaded in corpus] == ["ab"]
    assert compute_stats(corpus, bundled_catalog).total == 1


def test_unlistable_root_raises_storage_failure(tmp_path, monkeypatch):
    def refuse(path):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    corpus = Corpus(tmp_path)
    corpus.store(new_record("x", "t", ""))
    monkeypatch.setattr(os, "scandir", refuse)
    with pytest.raises(StorageFailureError) as excinfo:
        corpus.record_ids()
    assert str(excinfo.value) == \
        f"cannot list {tmp_path}: [Errno {errno.EACCES}] Permission " \
        f"denied: '{tmp_path}'"


def test_leftover_lock_file_blocks_nothing(tmp_path):
    # Earlier versions took this lock file around each store; a writer that
    # died while holding it blocked every later store.
    corpus = Corpus(tmp_path)
    (tmp_path / ".taxidma-lock").write_text("")
    corpus.store(new_record("unblocked", "ok", ""))
    assert corpus.record_ids() == ["unblocked"]


def test_failed_store_leaves_no_temp_file_and_the_old_record(tmp_path,
                                                             monkeypatch):
    corpus = Corpus(tmp_path)
    old = new_record("kept", "old", "")
    corpus.store(old)

    def interrupt(src, dst):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(corpus_module.os, "replace", interrupt)
    with pytest.raises(RuntimeError, match="interrupted"):
        corpus.store(new_record("kept", "new", ""))
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["kept.taxidma.json"]
    assert corpus.load("kept") == old


def _plant(tmp_path, name: str, target_exists: bool):
    """A corpus root holding a symlink called ``name`` to a path outside
    it, which holds ``keep`` if ``target_exists``."""
    root = tmp_path / "corpus"
    root.mkdir()
    victim = tmp_path / "victim"
    if target_exists:
        victim.write_text("keep")
    (root / name).symlink_to(victim)
    return Corpus(root), victim


def _assert_untouched(victim, target_exists: bool):
    if target_exists:
        assert victim.read_text() == "keep"
    else:
        assert not victim.exists()


@pytest.mark.parametrize("target_exists", [True, False])
def test_store_never_writes_through_a_fixed_temp_name(tmp_path,
                                                      target_exists):
    corpus, victim = _plant(tmp_path, ".x.taxidma.json.tmp", target_exists)
    record = new_record("x", "t", "")
    path = corpus.store(record)
    _assert_untouched(victim, target_exists)
    assert path.is_file() and not path.is_symlink()
    assert path.read_text() == write_record(record)


@pytest.mark.parametrize("target_exists", [True, False])
def test_store_refuses_a_symlink_at_its_temp_name(tmp_path, monkeypatch,
                                                  target_exists):
    # Pin the temp name that random bytes would give.
    monkeypatch.setattr(corpus_module.os, "urandom", lambda n: bytes(n))
    planted = f"x.taxidma.json.{bytes(8).hex()}.tmp"
    corpus, victim = _plant(tmp_path, planted, target_exists)
    with pytest.raises(StorageFailureError, match="cannot write"):
        corpus.store(new_record("x", "t", ""))
    _assert_untouched(victim, target_exists)
    assert [p.name for p in corpus.root.iterdir()] == [planted]


def test_overlapping_stores_of_one_id_leave_one_whole_record(tmp_path):
    corpus = Corpus(tmp_path)
    records = [new_record("shared", f"writer {n}", "") for n in range(4)]
    failures = []

    def store_repeatedly(record):
        try:
            for _ in range(50):
                corpus.store(record)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=store_repeatedly, args=(record,))
               for record in records]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert [p.name for p in tmp_path.iterdir()] == ["shared.taxidma.json"]
    assert corpus.load("shared") in records


def test_text_utf8_cannot_encode_is_refused_before_any_write(tmp_path,
                                                             bundled_catalog):
    # A lone surrogate escape is valid JSON, so from_stix takes it in.
    bundle = to_stix(load_fixture_record("canva-2019"), bundled_catalog,
                     EmissionOptions(deterministic_ids=True))
    for obj in bundle["objects"]:
        if obj["type"] == "incident":
            obj["name"] = "x\ud800y"
    record, _ = from_stix(bundle, bundled_catalog)
    with pytest.raises(InvalidRecordError) as excinfo:
        Corpus(tmp_path / "corpus").store(record)
    assert str(excinfo.value) == \
        f"record {record.record_id!r} holds text that UTF-8 cannot encode"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("record_id", ["../escaped", ""])
def test_store_rejects_ids_that_escape_or_hide_in_the_root(tmp_path,
                                                           record_id):
    text = write_record(new_record("placeholder", "t", ""))
    record = read_record(text.replace('"placeholder"', json.dumps(record_id)))
    with pytest.raises(InvalidIdentifierError):
        Corpus(tmp_path / "corpus").store(record)
    assert list(tmp_path.rglob("*")) == []


@pytest.mark.parametrize("record_id", ["../outside", "a/b", "a\x00b"])
def test_load_rejects_ids_that_leave_the_root(tmp_path, record_id):
    Corpus(tmp_path).store(new_record("outside", "t", ""))
    (tmp_path / "corpus" / "a").mkdir(parents=True)
    Corpus(tmp_path / "corpus" / "a").store(new_record("b", "t", ""))
    with pytest.raises(InvalidIdentifierError):
        Corpus(tmp_path / "corpus").load(record_id)


def test_stored_records_before_year_1000_load_and_count(tmp_path,
                                                       bundled_catalog):
    record = new_record("old", "t", "", created=datetime(
        999, 3, 4, tzinfo=timezone.utc))
    add_selection(record, BACKGROUND, "BG.K.R.4")
    corpus = Corpus(tmp_path)
    corpus.store(record)
    assert corpus.load("old") == record
    assert compute_stats(corpus, bundled_catalog).total == 1


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


def test_stats_over_a_one_shot_iterator_match_a_list(bundled_catalog):
    records = record_batch(bundled_catalog, seed=5, count=12)
    for count_selections in (False, True):
        for source in (records, []):
            report = compute_stats(iter(source), bundled_catalog,
                                   count_selections=count_selections)
            assert report == compute_stats(
                source, bundled_catalog, count_selections=count_selections)
    assert compute_stats(iter(records), bundled_catalog).total == 12


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


def _profile_loop_name(catalog, code_text: str, merge_profiles: bool) -> str:
    """A group code's name as a loop over the catalog's profiles finds it:
    the base code's full name, else (when merging) the full name under the
    first profile in catalog order whose qualified code resolves."""
    try:
        return catalog.full_name(code_text)
    except (CodeSyntaxError, UnknownPathError):
        if not merge_profiles:
            return ""
    for profile in catalog.profiles:
        try:
            return catalog.full_name(f"{profile.code}:{code_text}")
        except (CodeSyntaxError, UnknownPathError):
            pass
    return ""


def _naming_texts(catalog) -> list[str]:
    """Every prefix of every indexed text without its profile, plus codes
    that nothing declares."""
    texts = {"BG.Z.Q.1", "XX", "SI.T.H.99", "WA.K"}
    for text in catalog._index:
        parts = text.rpartition(":")[2].split(".")
        texts.update(".".join(parts[:n]) for n in range(1, len(parts) + 1))
    return sorted(texts)


def _two_profile_catalog() -> Catalog:
    # T is a base item that SSI also overrides; R is declared by both
    # profiles, S only by the second, and P only by a repeated IoT profile,
    # which the first IoT profile shadows.
    def overrides(prefix, *codes):
        return tuple(Override("BG", "A", code, Item(code, f"{prefix} {code}",
                                                    leaves=(Leaf(1, "One"),)))
                     for code in codes)
    tree = Taxonomy("BG", "Background", (Category("A", "Attacker", (
        Item("T", "Type", leaves=(Leaf(1, "One"),)),)),))
    profiles = (Profile("IoT", "Things", overrides("Things", "Q", "R")),
                Profile("SSI", "Self", overrides("Self", "T", "R", "S")),
                Profile("IoT", "Again", overrides("Again", "P", "S")))
    return Catalog("x", (tree,), profiles, "0")


def test_merged_names_follow_catalog_order():
    catalog = _two_profile_catalog()
    assert {text: catalog.merged_name(text) for text in (
        "BG.A.T", "BG.A.Q.1", "BG.A.R", "BG.A.S.1", "BG.A.P", "BG.Z")} == {
        "BG.A.T": "Background Attacker Type",
        "BG.A.Q.1": "Things Background Attacker Things Q One",
        "BG.A.R": "Things Background Attacker Things R",
        "BG.A.S.1": "Self Background Attacker Self S One",
        "BG.A.P": "",
        "BG.Z": "",
    }


@pytest.mark.parametrize("merge_profiles", [False, True])
def test_naming_matches_a_loop_over_profiles(bundled_catalog, merge_profiles):
    texts = _naming_texts(bundled_catalog)
    assert len(texts) == 436
    assert sum(1 for text in texts if bundled_catalog.merged_name(text)
               and not _profile_loop_name(bundled_catalog, text, False)) == 35
    for catalog in (bundled_catalog, _two_profile_catalog()):
        mismatches = [
            text for text in _naming_texts(catalog)
            if _full_name(catalog, text, merge_profiles)
            != _profile_loop_name(catalog, text, merge_profiles)
            or (merge_profiles and catalog.merged_name(text)
                != _profile_loop_name(catalog, text, True))]
        assert mismatches == []


def test_merged_names_never_explain_a_miss(fixture_corpus, bundled_catalog,
                                           monkeypatch):
    record = new_record("profile-only", "t", "d")
    add_selection(record, BACKGROUND, "IoT:BG.I.O.2")
    things = apply_taxonomy(record, bundled_catalog, "IoT:SI")
    add_selection(record, things, "IoT:SI.T.H.2")
    fixture_corpus.store(record)
    misses = []
    explain = Catalog._miss

    def counted(self, *args):
        misses.append(args)
        return explain(self, *args)
    monkeypatch.setattr(Catalog, "_miss", counted)
    for group_by, codes in (("item", ("BG.I.O", "SI.T.H")),
                            ("leaf", ("BG.I.O.2", "SI.T.H.2"))):
        names = {entry.code: entry.name for entry in compute_stats(
            fixture_corpus, bundled_catalog, group_by,
            merge_profiles=True).entries}
        assert [names[code] for code in codes] == \
            [bundled_catalog.full_name(f"IoT:{code}") for code in codes]
    assert misses == []


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
