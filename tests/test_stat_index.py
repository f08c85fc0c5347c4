"""The stat data in the summary's entries: a warm query stats each record
file instead of reading and hashing it, and trusts a signature only under
the racy-clean rule.  Whatever the history of the files and the summary,
outputs stay those of the records loaded afresh."""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_IDS, load_fixture_record
from record_gen import record_batch
from taxidma import corpus as corpus_module
from taxidma.corpus import (
    GROUPINGS,
    SUMMARY_NAME,
    Corpus,
    co_occurrence,
    compute_stats,
)
from taxidma.record import BACKGROUND, RECORD_FILE_SUFFIX, add_selection, \
    new_record
from test_summary import _summary, corpus_texts, outputs

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def corpus(tmp_path, bundled_catalog):
    store = Corpus(tmp_path / "corpus")
    for record in [*map(load_fixture_record, FIXTURE_IDS),
                   *record_batch(bundled_catalog, seed=7, count=9)]:
        store.store(record)
    return store


@pytest.fixture
def reads(monkeypatch) -> list[str]:
    """The record ids ``Corpus._read_bytes`` reads, in order."""
    seen = []
    read = Corpus._read_bytes

    def counted(self, record_id, path):
        seen.append(record_id)
        return read(self, record_id, path)

    monkeypatch.setattr(Corpus, "_read_bytes", counted)
    return seen


def _fs_now(root: Path) -> int:
    """The file system's time: the mtime of a file created in ``root``."""
    probe = root / ".clock-probe"
    probe.touch(exist_ok=False)
    try:
        return os.stat(probe).st_mtime_ns
    finally:
        probe.unlink()


def _wait_past_changes(root: Path) -> None:
    """Return once the file system's clock is past every ctime in ``root``,
    so that a summary stamped from then on trusts every file there."""
    latest = max((os.stat(path).st_ctime_ns for path in root.iterdir()),
                 default=0)
    deadline = time.monotonic() + 10
    while _fs_now(root) <= latest:
        assert time.monotonic() < deadline, "the file system clock stands"
        time.sleep(0.001)


def _settle(corpus: Corpus, catalog) -> None:
    """One query that writes a summary trusting every current file."""
    _wait_past_changes(corpus.root)
    compute_stats(corpus, catalog)


def _fresh(corpus: Corpus) -> list:
    return [corpus.load(record_id) for record_id in corpus.record_ids()]


def _answers(source, catalog) -> dict:
    """compute_stats in every grouping with both flags, and co_occurrence
    in every grouping both ways."""
    out = {}
    for group_by in GROUPINGS:
        for merge_profiles in (False, True):
            for count_selections in (False, True):
                out[group_by, merge_profiles, count_selections] = \
                    compute_stats(source, catalog, group_by,
                                  count_selections=count_selections,
                                  merge_profiles=merge_profiles)
            out[group_by, merge_profiles] = co_occurrence(
                source, group_by, merge_profiles=merge_profiles)
    return out


def _check_index(corpus: Corpus) -> None:
    """The summary holds one well-formed entry per current file, in record
    order, matching the file as it is and the texts a fresh parse gives."""
    payload = json.loads(_summary(corpus).read_bytes())
    assert list(payload) == ["format", "records"]
    ids = corpus.record_ids()
    assert list(payload["records"]) == ids
    for record_id, texts in zip(ids, corpus_texts(_fresh(corpus))):
        path = corpus.path_for(record_id)
        status = os.stat(path)
        entry = payload["records"][record_id]
        assert entry == [hashlib.sha256(path.read_bytes()).hexdigest(),
                         status.st_ino, status.st_size, status.st_mtime_ns,
                         status.st_ctime_ns, texts]
        assert all(type(field) is int for field in entry[1:5])


_SWAPPABLE = re.compile(rb'"BG\.I\.A\.([123])"')


def _swap_corpus(root: Path, variants=(0, 1, 2, 0, 1)) -> Corpus:
    """Records r0, r1, ... each holding one ``BG.I.A.n`` code, which an
    in-place rewrite can change without changing the file's size."""
    corpus = Corpus(root)
    for index, variant in enumerate(variants):
        corpus.store(_swap_record(index, variant))
    return corpus


def _swap_record(index: int, variant: int):
    record = new_record(f"r{index}", "t", "d")
    add_selection(record, BACKGROUND, f"BG.I.A.{variant % 3 + 1}")
    if variant % 2:
        add_selection(record, BACKGROUND, "BG.K.R.4")
    return record


def _rewrite_in_place(path: Path) -> None:
    """Change the file's ``BG.I.A.n`` leaf in place, keeping its size, and
    restore its mtime."""
    before = os.stat(path)
    data = path.read_bytes()
    match = _SWAPPABLE.search(data)
    leaf = b"%d" % (int(match.group(1)) % 3 + 1)
    with open(path, "r+b") as file:
        file.seek(match.start(1))
        file.write(leaf)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == \
        (before.st_ino, before.st_size, before.st_mtime_ns)


# -- a warm query reads no record file ----------------------------------------


def test_warm_queries_open_no_record_file(corpus, bundled_catalog, reads,
                                          monkeypatch):
    expected = outputs(_fresh(corpus), bundled_catalog)
    _settle(corpus, bundled_catalog)
    reads.clear()
    opened = []
    real_open = os.open

    def counting_open(path, *args, **kwargs):
        if os.fspath(path).endswith(RECORD_FILE_SUFFIX):
            opened.append(path)
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    assert outputs(corpus, bundled_catalog) == expected  # API and CLI
    assert reads == []
    assert opened == []


def test_a_store_makes_the_next_query_read_that_file_alone(
        corpus, bundled_catalog, reads):
    _settle(corpus, bundled_catalog)
    record = corpus.load("canva-2019")
    record.title = "changed"
    corpus.store(record)
    _wait_past_changes(corpus.root)
    reads.clear()
    report = compute_stats(corpus, bundled_catalog)
    assert reads == ["canva-2019"]
    reads.clear()
    pairs = co_occurrence(corpus)
    assert reads == []
    assert (report, pairs) == (compute_stats(_fresh(corpus), bundled_catalog),
                               co_occurrence(_fresh(corpus)))


_PROBE = """
import contextlib, io, json, sys
from taxidma import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(["stats", sys.argv[1], "--format", "csv"])
print(json.dumps({"code": code, "stdout": out.getvalue(), "loaded": [
    name for name in ("hashlib", "_hashlib") if name in sys.modules]}))
"""


def test_a_warm_stats_process_imports_no_hashlib(corpus, bundled_catalog):
    _settle(corpus, bundled_catalog)
    # -S: no site .pth file can preload a module before the probe looks.
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(corpus.root)],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120, text=True)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded"] == []
    expected = outputs(_fresh(corpus), bundled_catalog)["cli", "item", "csv"]
    assert (result["code"], result["stdout"]) == (0, expected)


# -- the trust rule -----------------------------------------------------------


def test_a_summary_stamped_ahead_still_sees_an_in_place_rewrite(
        tmp_path, bundled_catalog):
    corpus = _swap_corpus(tmp_path)
    _settle(corpus, bundled_catalog)
    ahead = time.time_ns() + 60 * 10**9
    os.utime(_summary(corpus), ns=(ahead, ahead))
    # The ctime gives the rewrite away, though size and mtime are kept.
    _rewrite_in_place(corpus.path_for("r0"))
    assert _answers(corpus, bundled_catalog) == \
        _answers(_fresh(corpus), bundled_catalog)
    leaves = compute_stats(corpus, bundled_catalog, "leaf").entries
    assert {entry.code: entry.count for entry in leaves} == \
        {"BG.I.A.1": 1, "BG.I.A.2": 3, "BG.I.A.3": 1, "BG.K.R.4": 2}


def test_a_summary_stamped_before_the_files_reads_every_file(
        corpus, bundled_catalog, reads):
    expected = outputs(_fresh(corpus), bundled_catalog)
    _settle(corpus, bundled_catalog)
    earliest = min(os.stat(corpus.path_for(record_id)).st_ctime_ns
                   for record_id in corpus.record_ids())

    def stamp_back():
        os.utime(_summary(corpus), ns=(earliest - 1, earliest - 1))

    stamp_back()
    reads.clear()
    compute_stats(corpus, bundled_catalog)
    assert reads == corpus.record_ids()
    # That query stamped a new summary, which trusts every file again.
    reads.clear()
    compute_stats(corpus, bundled_catalog)
    assert reads == []
    assert outputs(corpus, bundled_catalog, stamp_back) == expected


def test_a_file_rewritten_during_a_query_is_read_again(
        tmp_path, bundled_catalog, monkeypatch):
    corpus = _swap_corpus(tmp_path)
    _wait_past_changes(corpus.root)
    read = Corpus._read_bytes
    rewritten = []

    def racing(self, record_id, path):
        result = read(self, record_id, path)
        if record_id == "r0" and not rewritten:
            _rewrite_in_place(Path(path))
            rewritten.append(record_id)
        return result

    monkeypatch.setattr(Corpus, "_read_bytes", racing)
    compute_stats(corpus, bundled_catalog)
    monkeypatch.undo()
    assert rewritten == ["r0"]
    assert _answers(corpus, bundled_catalog) == \
        _answers(_fresh(corpus), bundled_catalog)
    _check_index(corpus)


def _entry_fields_as_floats(entries: dict) -> None:
    entry = entries[next(iter(entries))]
    entry[1:5] = map(float, entry[1:5])


def _entry_field_as_text(entries: dict) -> None:
    entry = entries[next(iter(entries))]
    entry[2] = str(entry[2])


MALFORMED_INDEXES = {
    "not-a-dict": lambda payload: payload.update(
        records=list(payload["records"].values())),
    "short-entry": lambda payload: payload["records"].update(
        {key: entry[:5] for key, entry in payload["records"].items()}),
    "entry-not-a-list": lambda payload: payload["records"].update(
        {next(iter(payload["records"])): {"ino": 1}}),
    "float-fields": lambda payload: _entry_fields_as_floats(
        payload["records"]),
    "text-field": lambda payload: _entry_field_as_text(payload["records"]),
    "key-not-a-string": lambda payload: payload["records"][
        next(iter(payload["records"]))].__setitem__(0, 5),
    "texts-not-a-list": lambda payload: payload["records"][
        next(iter(payload["records"]))].__setitem__(5, {"BG.A.T": 1}),
    "text-not-a-string": lambda payload: payload["records"][
        next(iter(payload["records"]))][5].append(7),
    "id-with-no-file": lambda payload: payload["records"].update(
        ghost=next(iter(payload["records"].values()))),
    "malformed-entry-with-no-file": lambda payload: payload["records"].update(
        ghost=[1]),
}


@pytest.mark.parametrize("case", MALFORMED_INDEXES)
def test_a_malformed_stat_index_is_ignored(corpus, bundled_catalog, case):
    expected = outputs(corpus, bundled_catalog,
                       lambda: _summary(corpus).unlink(missing_ok=True))
    _settle(corpus, bundled_catalog)
    payload = json.loads(_summary(corpus).read_bytes())
    MALFORMED_INDEXES[case](payload)
    malformed = json.dumps(payload).encode()

    def plant():
        _summary(corpus).write_bytes(malformed)

    assert outputs(corpus, bundled_catalog, plant) == expected
    plant()
    compute_stats(corpus, bundled_catalog)
    _check_index(corpus)


def test_a_format_1_summary_is_read_anew_and_replaced(
        corpus, bundled_catalog, reads):
    expected = outputs(_fresh(corpus), bundled_catalog)
    # The summary as format 1 wrote it: texts keyed by the sha256 of each
    # file, and a stat index whose signatures match the files, stamped
    # after every change so that format 1 would trust each of them.
    records, index = {}, {}
    for record_id, texts in zip(corpus.record_ids(),
                                corpus_texts(_fresh(corpus))):
        path = corpus.path_for(record_id)
        key = hashlib.sha256(path.read_bytes()).hexdigest()
        status = os.stat(path)
        records[key] = texts
        index[record_id] = [key, status.st_ino, status.st_size,
                            status.st_mtime_ns, status.st_ctime_ns]
    _wait_past_changes(corpus.root)
    _summary(corpus).write_text(json.dumps(
        {"format": "taxidma-summary 1", "records": records, "stat": index}))
    reads.clear()
    report = compute_stats(corpus, bundled_catalog)
    assert reads == corpus.record_ids()
    assert report == expected["stats", "item", False, False]
    assert json.loads(_summary(corpus).read_bytes())["format"] == \
        "taxidma-summary 2"
    _check_index(corpus)
    reads.clear()
    assert outputs(corpus, bundled_catalog) == expected
    assert reads == []


def test_without_posix_ctimes_every_query_reads_every_file(
        corpus, bundled_catalog, reads, monkeypatch):
    monkeypatch.setattr(corpus_module, "_TRUST_STAT", False)
    expected = outputs(_fresh(corpus), bundled_catalog)
    _settle(corpus, bundled_catalog)
    written = os.stat(_summary(corpus))
    for _ in range(2):
        reads.clear()
        compute_stats(corpus, bundled_catalog)
        assert reads == corpus.record_ids()
    assert outputs(corpus, bundled_catalog) == expected
    kept = os.stat(_summary(corpus))
    assert (kept.st_ino, kept.st_mtime_ns) == \
        (written.st_ino, written.st_mtime_ns)


def test_racy_files_a_new_stamp_cannot_settle_write_nothing(
        corpus, bundled_catalog, reads, monkeypatch):
    # A file system clock behind the files' ctimes (a clock stepped back,
    # say): a rewrite would leave every file racy, so reading them is all
    # a query can do.
    _settle(corpus, bundled_catalog)
    earliest = min(os.stat(corpus.path_for(record_id)).st_ctime_ns
                   for record_id in corpus.record_ids())
    monkeypatch.setattr(corpus_module, "_fs_clock",
                        lambda summary_path: earliest - 1)
    record = corpus.load("canva-2019")
    record.title = "changed"
    corpus.store(record)
    compute_stats(corpus, bundled_catalog)  # records the changed file
    written = os.stat(_summary(corpus))
    assert written.st_mtime_ns == earliest - 1
    for _ in range(2):
        reads.clear()
        compute_stats(corpus, bundled_catalog)
        assert reads == corpus.record_ids()
        kept = os.stat(_summary(corpus))
        assert (kept.st_ino, kept.st_mtime_ns, kept.st_ctime_ns) == \
            (written.st_ino, written.st_mtime_ns, written.st_ctime_ns)
    assert outputs(corpus, bundled_catalog) == \
        outputs(_fresh(corpus), bundled_catalog)
    _check_index(corpus)


def test_a_rewritten_summary_is_stamped_when_reading_began(
        tmp_path, bundled_catalog, monkeypatch):
    corpus = _swap_corpus(tmp_path)
    read = Corpus._read_bytes
    first_read = []

    def noting(self, record_id, path):
        if not first_read:
            first_read.append(_fs_now(corpus.root))
        return read(self, record_id, path)

    monkeypatch.setattr(Corpus, "_read_bytes", noting)
    before = _fs_now(corpus.root)
    compute_stats(corpus, bundled_catalog)
    stamp = os.stat(_summary(corpus)).st_mtime_ns
    assert before <= stamp <= first_read[0]
    assert sorted(path.name for path in corpus.root.iterdir()) == \
        sorted([SUMMARY_NAME, *(f"r{n}.taxidma.json" for n in range(5))])


# -- any history --------------------------------------------------------------


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("store"), st.integers(0, 4), st.integers(0, 5)),
    st.tuples(st.just("rewrite"), st.integers(0, 4)),
    st.tuples(st.just("unlink"), st.integers(0, 4)),
    st.tuples(st.just("summary"), st.sampled_from(["delete", "truncate"])),
    st.tuples(st.just("tick")),
    st.tuples(st.just("query")),
), max_size=8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(steps=_STEPS)
def test_queries_over_any_history_match_a_fresh_load(bundled_catalog,
                                                      steps):
    with tempfile.TemporaryDirectory() as root:
        corpus = _swap_corpus(Path(root))
        for step in [*steps, ("query",)]:
            kind, *args = step
            summary = _summary(corpus)
            if kind == "store":
                corpus.store(_swap_record(*args))
            elif kind == "rewrite":
                if corpus.path_for(f"r{args[0]}").exists():
                    _rewrite_in_place(corpus.path_for(f"r{args[0]}"))
            elif kind == "unlink":
                corpus.path_for(f"r{args[0]}").unlink(missing_ok=True)
            elif kind == "summary" and summary.exists():
                if args == ["delete"]:
                    summary.unlink()
                else:
                    summary.write_bytes(summary.read_bytes()[:40])
            elif kind == "tick":
                _wait_past_changes(corpus.root)
            elif kind == "query":
                assert _answers(corpus, bundled_catalog) == \
                    _answers(_fresh(corpus), bundled_catalog)
                if corpus.record_ids():
                    _check_index(corpus)
