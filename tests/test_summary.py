"""The corpus summary: a per-record cache that statistics read instead of
parsing every record file.  Whatever state it is in, outputs stay those of
a corpus without one."""
from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from collections.abc import Iterable
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import FIXTURE_IDS, FIXTURES, load_fixture_record
from record_gen import record_batch
from taxidma import corpus as corpus_module
from taxidma.cli import run
from taxidma.codes import format_code
from taxidma.corpus import (
    GROUPINGS,
    SUMMARY_NAME,
    Corpus,
    co_occurrence,
    compute_stats,
    render_csv,
    render_json,
    render_table,
)
from taxidma.errors import (
    MalformedFileError,
    RecordNotFoundError,
    StorageFailureError,
)
from taxidma.record import (
    BACKGROUND,
    AttackRecord,
    add_selection,
    new_record,
    read_record,
    write_record,
)

FORMATS = {"table": render_table, "csv": render_csv, "json": render_json}
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def records(bundled_catalog):
    batch = [load_fixture_record(rid) for rid in FIXTURE_IDS]
    batch.extend(record_batch(bundled_catalog, seed=7, count=47))
    return batch


@pytest.fixture
def corpus(tmp_path, records):
    store = Corpus(tmp_path / "corpus")
    for record in records:
        store.store(record)
    return store


def outputs(source, catalog, before_each=lambda: None) -> dict:
    """Every statistic over ``source``: reports for each grouping and flag,
    pair counts, and, for a corpus, ``taxidma stats`` stdout in every
    format.  ``before_each`` runs ahead of every single query."""
    out = {}
    for group_by in GROUPINGS:
        for count_selections in (False, True):
            for merge_profiles in (False, True):
                before_each()
                out["stats", group_by, count_selections, merge_profiles] = \
                    compute_stats(source, catalog, group_by,
                                  count_selections=count_selections,
                                  merge_profiles=merge_profiles)
        for merge_profiles in (False, True):
            before_each()
            out["pairs", group_by, merge_profiles] = co_occurrence(
                source, group_by, merge_profiles=merge_profiles)
        for fmt, render in FORMATS.items():
            if isinstance(source, Corpus):
                before_each()
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    status = run(["stats", str(source.root), "--group-by",
                                  group_by, "--format", fmt])
                assert status == 0
                out["cli", group_by, fmt] = stdout.getvalue()
            else:
                out["cli", group_by, fmt] = render(
                    compute_stats(source, catalog, group_by))
    return out


def _summary(corpus: Corpus) -> Path:
    return corpus.root / SUMMARY_NAME


def _delete(corpus: Corpus) -> None:
    path = _summary(corpus)
    if path.is_dir():
        path.rmdir()
    path.unlink(missing_ok=True)


def _wrong_shapes(valid: bytes) -> bytes:
    payload = json.loads(valid)
    keys = sorted(payload["records"])
    payload["records"][keys[0]] = 5
    payload["records"][keys[1]] = ["BG.A.T", 7]
    payload["records"][keys[2]] = None
    payload["records"][keys[3]] = {"BG.A.T": 1}
    return json.dumps(payload).encode()


def _wrong_format(valid: bytes) -> bytes:
    payload = json.loads(valid)
    payload["format"] = "taxidma-summary 0"
    return json.dumps(payload).encode()


# Each state is set up from the bytes of a valid summary.
STATES = {
    "valid": lambda valid: valid,
    "deleted": None,
    "truncated": lambda valid: valid[: len(valid) // 2],
    "garbage": lambda valid: b"\xff\xfe\x00 not a summary \x80",
    "wrong-format": _wrong_format,
    "wrong-shaped-entries": _wrong_shapes,
    "records-not-an-object": lambda valid: json.dumps(
        {"format": json.loads(valid)["format"], "records": []}).encode(),
    "not-an-object": lambda valid: b"[1, 2, 3]",
    "directory": "directory",
}


@pytest.mark.parametrize("state", STATES)
def test_outputs_do_not_depend_on_the_summary(corpus, records,
                                              bundled_catalog, state):
    expected = outputs(records, bundled_catalog)
    assert outputs(corpus, bundled_catalog, lambda: _delete(corpus)) == \
        expected
    valid = _summary(corpus).read_bytes()
    make = STATES[state]

    def set_up():
        _delete(corpus)
        if make == "directory":
            _summary(corpus).mkdir()
        elif make is not None:
            _summary(corpus).write_bytes(make(valid))

    assert outputs(corpus, bundled_catalog, set_up) == expected
    # A query from any state leaves a valid summary behind, except where a
    # directory stands in its way; no temp file is left either way.
    set_up()
    compute_stats(corpus, bundled_catalog)
    if make == "directory":
        assert _summary(corpus).is_dir()
    else:
        assert _summary(corpus).read_bytes() == valid
    assert sorted(p.name for p in corpus.root.iterdir()
                  if not p.name.endswith(".taxidma.json")) == [SUMMARY_NAME]


def test_malformed_record_fails_the_same_with_a_summary(corpus,
                                                        bundled_catalog):
    (corpus.root / "rot.taxidma.json").write_text("{rot")
    with pytest.raises(MalformedFileError) as no_summary:
        compute_stats(corpus, bundled_catalog)
    assert not _summary(corpus).exists()
    (corpus.root / "rot.taxidma.json").unlink()
    compute_stats(corpus, bundled_catalog)
    assert _summary(corpus).is_file()
    (corpus.root / "rot.taxidma.json").write_text("{rot")
    for query in (lambda: compute_stats(corpus, bundled_catalog),
                  lambda: co_occurrence(corpus),
                  lambda: corpus.load("rot")):
        with pytest.raises(MalformedFileError) as with_summary:
            query()
        assert str(with_summary.value) == str(no_summary.value)
    assert str(no_summary.value).startswith("rot.taxidma.json: ")


def test_misses_decode_like_read_text(tmp_path, bundled_catalog):
    # Path.read_text turns \r\n and \r into \n; a miss must report decode
    # errors at the same positions as reading the file as text would.
    corpus = Corpus(tmp_path)
    path = tmp_path / "crlf.taxidma.json"
    path.write_bytes(b'{\r\n  "record_id": "x",\r  \r\n  nope}')
    with pytest.raises(MalformedFileError) as direct:
        read_record(path.read_text(encoding="utf-8"))
    for query in (lambda: corpus.load("crlf"),
                  lambda: compute_stats(corpus, bundled_catalog)):
        with pytest.raises(MalformedFileError) as excinfo:
            query()
        assert str(excinfo.value) == f"crlf.taxidma.json: {direct.value}"


def test_undecodable_record_names_the_file(tmp_path, bundled_catalog):
    (tmp_path / "bom.taxidma.json").write_bytes(b"\xff\xfe{")
    corpus = Corpus(tmp_path)
    for query in (lambda: corpus.load("bom"),
                  lambda: compute_stats(corpus, bundled_catalog),
                  lambda: co_occurrence(corpus)):
        with pytest.raises(MalformedFileError) as excinfo:
            query()
        assert str(excinfo.value).startswith("bom.taxidma.json: ")


def _swap_record(tmp_path) -> Corpus:
    corpus = Corpus(tmp_path)
    for index, code in enumerate(("BG.I.A.1", "BG.I.A.3", "BG.K.R.4")):
        record = new_record(f"r{index}", "t", "d")
        add_selection(record, BACKGROUND, code)
        corpus.store(record)
    return corpus


def _leaf_counts(corpus, catalog) -> dict[str, int]:
    report = compute_stats(corpus, catalog, "leaf")
    return {entry.code: entry.count for entry in report.entries}


def test_summary_is_keyed_on_content(tmp_path, bundled_catalog):
    corpus = _swap_record(tmp_path)
    assert _leaf_counts(corpus, bundled_catalog) == \
        {"BG.I.A.1": 1, "BG.I.A.3": 1, "BG.K.R.4": 1}
    path = corpus.path_for("r0")
    before = os.stat(path)
    data = path.read_bytes()
    assert data.count(b'"BG.I.A.1"') == 1
    path.write_bytes(data.replace(b'"BG.I.A.1"', b'"BG.I.A.2"'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)
    assert _leaf_counts(corpus, bundled_catalog) == \
        {"BG.I.A.2": 1, "BG.I.A.3": 1, "BG.K.R.4": 1}


def test_summary_keeps_one_entry_per_current_file(tmp_path, bundled_catalog):
    corpus = _swap_record(tmp_path)
    for record in record_batch(bundled_catalog, seed=3, count=6):
        corpus.store(record)

    def entries() -> dict:
        payload = json.loads(_summary(corpus).read_bytes())
        return payload["records"]

    compute_stats(corpus, bundled_catalog)
    assert len(entries()) == 9
    for record_id in ("r1", "gen-0002", "gen-0005"):
        corpus.path_for(record_id).unlink()
    co_occurrence(corpus)
    assert list(entries()) == corpus.record_ids()
    assert len(entries()) == 6
    for record_id, texts in zip(corpus.record_ids(), corpus_texts(corpus)):
        status = os.stat(corpus.path_for(record_id))
        assert entries()[record_id] == [status.st_ino, status.st_size,
                                        status.st_mtime_ns,
                                        status.st_ctime_ns, texts]


def corpus_texts(records: Iterable[AttackRecord]) -> list[list[str]]:
    """Each record's selection codes in record order, parsed afresh."""
    return [[format_code(selection.code)
             for application in (record.background, *record.applications)
             for selection in application.selections]
            for record in records]


def test_summary_entries_keep_order_and_duplicates(tmp_path, bundled_catalog):
    corpus = Corpus(tmp_path)
    record = new_record("dup", "t", "d")
    for code in ("BG.K.R.4", "BG.I.A.1", "BG.K.R.4", "BG.I.A"):
        add_selection(record, BACKGROUND, code)
    corpus.store(record)
    report = compute_stats(corpus, bundled_catalog, "leaf",
                           count_selections=True)
    assert report.total == 4
    (entry,) = json.loads(_summary(corpus).read_bytes())["records"].values()
    assert entry[4] == ["BG.K.R.4", "BG.I.A.1", "BG.K.R.4", "BG.I.A"]
    assert compute_stats(corpus, bundled_catalog, "leaf",
                         count_selections=True) == report


def test_no_summary_for_a_corpus_without_records(tmp_path, bundled_catalog):
    assert compute_stats(Corpus(tmp_path / "nowhere"), bundled_catalog) \
        .total == 0
    assert not (tmp_path / "nowhere").exists()
    assert co_occurrence(Corpus(tmp_path)) == {}
    assert list(tmp_path.iterdir()) == []


def test_failed_summary_writes_change_nothing(corpus, records,
                                              bundled_catalog, monkeypatch):
    expected = outputs(records, bundled_catalog)

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(corpus_module.os, "replace", refuse)
    assert outputs(corpus, bundled_catalog) == expected
    names = sorted(p.name for p in corpus.root.iterdir())
    assert names == sorted(f"{r.record_id}.taxidma.json" for r in records)


def test_listing_never_shows_the_summary_or_its_temp_file(corpus, records,
                                                          bundled_catalog):
    compute_stats(corpus, bundled_catalog)
    assert _summary(corpus).is_file()
    stray = corpus.root / f"{SUMMARY_NAME}.4242.tmp"
    stray.write_text("{")
    ids = sorted(record.record_id for record in records)
    assert corpus.record_ids() == ids
    assert len(corpus) == len(records)
    assert [record.record_id for record in corpus] == ids


def test_planted_temp_file_is_never_written_through(corpus, records,
                                                     bundled_catalog,
                                                     tmp_path, monkeypatch):
    # Pin the temp name that random bytes would give, and plant a symlink
    # there: to a file outside the corpus, and to a path that is not there.
    expected = outputs(records, bundled_catalog)
    monkeypatch.setattr(corpus_module.os, "urandom", lambda n: bytes(n))
    planted = corpus.root / f"{SUMMARY_NAME}.{bytes(8).hex()}.tmp"
    victim = tmp_path / "victim"
    for target_exists in (True, False):
        _delete(corpus)
        victim.unlink(missing_ok=True)
        if target_exists:
            victim.write_text("keep")
        planted.unlink(missing_ok=True)
        planted.symlink_to(victim)
        assert outputs(corpus, bundled_catalog, lambda: _delete(corpus)) == \
            expected
        assert planted.is_symlink()
        assert not _summary(corpus).exists()
        if target_exists:
            assert victim.read_text() == "keep"
        else:
            assert not victim.exists()


def _query_in_thread(corpus, catalog):
    """``compute_stats`` over ``corpus``, or None if it has not returned
    within 30 seconds."""
    result = []
    worker = threading.Thread(
        target=lambda: result.append(compute_stats(corpus, catalog)),
        daemon=True)
    worker.start()
    worker.join(30)
    return result[0] if result else None


def test_summary_must_be_a_regular_file(corpus, records, bundled_catalog,
                                        tmp_path):
    expected = compute_stats(records, bundled_catalog)
    compute_stats(corpus, bundled_catalog)
    valid = _summary(corpus).read_bytes()
    # A FIFO would block a plain open until some writer came along.
    _summary(corpus).unlink()
    os.mkfifo(_summary(corpus))
    report = _query_in_thread(corpus, bundled_catalog)
    if report is None:
        # Release the blocked reader before failing.
        os.close(os.open(_summary(corpus), os.O_WRONLY | os.O_NONBLOCK))
    assert report == expected
    assert _summary(corpus).read_bytes() == valid
    # A symlink, even to a valid summary, is ignored, and the rewrite
    # replaces the link instead of writing through it.
    elsewhere = tmp_path / "elsewhere"
    elsewhere.write_bytes(valid)
    _summary(corpus).unlink()
    _summary(corpus).symlink_to(elsewhere)
    assert _query_in_thread(corpus, bundled_catalog) == expected
    assert not _summary(corpus).is_symlink()
    assert _summary(corpus).read_bytes() == valid
    assert elsewhere.read_bytes() == valid


# One record file per edge of what the parser accepts: CRLF lines, bare
# taxonomy and category codes, profile and reserved tokens, a long leaf,
# a duplicate, an offset timestamp, an unknown field and non-ASCII text.
EDGE_RECORD = (
    '{"record_id": "edge", "title": "Zürich – edge", '
    '"description": "", "sources": [], '
    '"created": "2020-02-29T23:30:00+02:00", "extra": {"kept": false},\r\n'
    ' "background": {"taxonomy": "BG", "instance_label": "", "selections": '
    '[{"code": "BG"}, {"code": "BG.A"}, {"code": "BG.A.T"}, '
    '{"code": "BG.K.R.4", "free_text": "x", "note": null}, '
    '{"code": "BG.K.R.4"}]},\r\n'
    ' "applications": [{"taxonomy": "IoT:SI", "instance_label": "fleet", '
    '"selections": [{"code": "IoT:SI.K.G.2"}, {"code": "SSI"}, '
    '{"code": "WA.X.YZ.0.10"}, {"code": "IMS.K.T.12345678901234567890"}]}, '
    '{"taxonomy": "UE", "instance_label": "users", "selections": []}]}\r\n'
).encode()

# sha256 of the summary written for the fixture files and EDGE_RECORD, by
# summary format.  Entries hold what parsing and canonical texts gave when
# they were written, so a change to either must come with a new
# corpus._SUMMARY_FORMAT and a new line here; never edit an existing line.
PINNED_SUMMARIES = {
    "taxidma-summary 1":
        "204d84a8b8cc149a92e80968fa6713dd65aaa0eb2efafc8f0113b2890ccf6fb8",
    "taxidma-summary 2":
        "d0d6ad5a7d717a9f17aeebe0408835bd0c84bf13454019c0ab94fb5c3c29b88f",
    "taxidma-summary 3":
        "d8192e1293b6aaa59d1503cb2755cd9175b8ab220ffee993fae9007a256b0fb0",
}


def test_summary_format_pins_parsing_and_texts(tmp_path, bundled_catalog):
    corpus = Corpus(tmp_path)
    for record_id in FIXTURE_IDS:
        name = f"{record_id}.taxidma.json"
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    (tmp_path / "edge.taxidma.json").write_bytes(EDGE_RECORD)
    compute_stats(corpus, bundled_catalog)
    # Each entry's stat fields hold inode numbers and times, which differ
    # from run to run, so the pin covers the summary as dumped without them.
    payload = json.loads(_summary(corpus).read_bytes())
    entries = payload["records"]
    assert list(entries) == sorted([*FIXTURE_IDS, "edge"])
    for record_id, (*fields, texts) in entries.items():
        assert len(fields) == 4
        assert all(type(field) is int for field in fields)
        entries[record_id] = [texts]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert PINNED_SUMMARIES.get(corpus_module._SUMMARY_FORMAT) == digest


def test_warm_summary_queries_parse_no_code(corpus, bundled_catalog,
                                            monkeypatch):
    import taxidma
    _wait_past_changes(corpus.root)  # so that the summary trusts each file
    compute_stats(corpus, bundled_catalog)  # writes the summary
    parse_code, parsed = taxidma.codes.parse_code, []

    def counting_parse_code(*args, **kwargs):
        parsed.append(args)
        return parse_code(*args, **kwargs)

    for module in vars(taxidma).values():
        if getattr(module, "parse_code", None) is parse_code:
            monkeypatch.setattr(module, "parse_code", counting_parse_code)
    # Merging profiles can cut a code that only a profile declares down to
    # a base code with no name; such misses parse, so they are left out.
    for group_by in GROUPINGS:
        report = compute_stats(corpus, bundled_catalog, group_by)
        assert all(entry.name for entry in report.entries)
    assert parsed == []


def test_no_stats_query_hashes(corpus, records, bundled_catalog,
                               monkeypatch):
    import taxidma
    digest, calls = taxidma.catalog._digest, []

    def counting_digest(*args):
        calls.append(args)
        return digest(*args)

    patched = [module for module in vars(taxidma).values()
               if getattr(module, "_digest", None) is digest]
    assert patched
    for module in patched:
        monkeypatch.setattr(module, "_digest", counting_digest)

    def cli_stats():
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["stats", str(corpus.root)]) == 0

    for query in (lambda: compute_stats(corpus, bundled_catalog),
                  lambda: co_occurrence(corpus), cli_stats):
        _delete(corpus)
        query()  # cold: reads every file
        query()  # warm
        corpus.store(records[0])
        query()  # reads the stored file
    assert calls == []


def test_summary_survives_across_processes(corpus):
    # The cold run writes the summary; the warm run answers from it without
    # rewriting it, and both print the same bytes.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    command = [sys.executable, "-m", "taxidma.cli", "stats",
               str(corpus.root), "--format", "json"]
    cold = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert cold.returncode == 0, cold.stderr
    written = os.stat(_summary(corpus))
    warm = subprocess.run(command, capture_output=True, env=env, timeout=60)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert cold.stderr == warm.stderr == b""
    kept = os.stat(_summary(corpus))
    assert (kept.st_ino, kept.st_mtime_ns) == \
        (written.st_ino, written.st_mtime_ns)
    assert json.loads(cold.stdout)["total"] == 50


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


def _listed_then(corpus: Corpus, monkeypatch, change) -> None:
    """Make ``corpus`` list its files as they are, then run ``change`` on
    ``x.taxidma.json`` before any file is read."""
    def listed():
        ids = Corpus.record_ids(corpus)
        change(corpus.root / "x.taxidma.json")
        return ids

    monkeypatch.setattr(corpus, "record_ids", listed)


def _make_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("root_form", ["absolute", "dot", "trailing-slash"])
def test_read_errors_keep_their_types_and_texts(tmp_path, bundled_catalog,
                                                monkeypatch, root_form):
    record = new_record("x", "t", "d")
    add_selection(record, BACKGROUND, "BG.K.R.4")
    Corpus(tmp_path).store(record)
    compute_stats(Corpus(tmp_path), bundled_catalog)  # later reads hit
    root, shown, listed = {
        "absolute": (tmp_path, str(tmp_path), f"{tmp_path}/x.taxidma.json"),
        "dot": (".", ".", "x.taxidma.json"),
        "trailing-slash": (f"{tmp_path}/", str(tmp_path),
                           f"{tmp_path}/x.taxidma.json"),
    }[root_form]
    monkeypatch.chdir(tmp_path)
    corpus = Corpus(root)
    queries = (lambda: compute_stats(corpus, bundled_catalog),
               lambda: co_occurrence(corpus))

    _listed_then(corpus, monkeypatch, Path.unlink)
    for query in queries:
        corpus.store(record)
        with pytest.raises(RecordNotFoundError) as gone:
            query()
        assert str(gone.value) == f"no record 'x' in {shown}"

    _listed_then(corpus, monkeypatch, _make_directory)
    for query in queries:
        corpus.store(record)
        with pytest.raises(StorageFailureError) as directory:
            query()
        assert str(directory.value) == f"cannot read {listed}: [Errno " \
            f"{errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{listed}'"
        (tmp_path / "x.taxidma.json").rmdir()


def _reference_pairs(texts_per_record, group_by: str,
                     merge_profiles: bool) -> dict[tuple[str, str], int]:
    """Pair counts as a nested loop over each record's sorted group codes
    inserts them."""
    depth = 2 + GROUPINGS.index(group_by)
    pairs: dict[tuple[str, str], int] = {}
    for texts in texts_per_record:
        codes = set()
        for text in texts:
            if merge_profiles:
                text = text[text.find(":") + 1:]
            codes.add(".".join(text.split(".", depth)[:depth]))
        present = sorted(codes)
        for i, left in enumerate(present):
            for right in present[i:]:
                pairs[left, right] = pairs.get((left, right), 0) + 1
    return pairs


def test_result_shapes(corpus, records, bundled_catalog):
    for group_by in GROUPINGS:
        for merge_profiles in (False, True):
            for source in (corpus, records):
                expected = _reference_pairs(corpus_texts(source), group_by,
                                            merge_profiles)
                pairs = co_occurrence(source, group_by,
                                      merge_profiles=merge_profiles)
                assert type(pairs) is dict
                assert list(pairs.items()) == list(expected.items())
            for count_selections in (False, True):
                report = compute_stats(corpus, bundled_catalog, group_by,
                                       count_selections=count_selections,
                                       merge_profiles=merge_profiles)
                assert report.entries
                for entry in report.entries:
                    assert type(entry.share) is Fraction
                    assert entry.share == Fraction(entry.count, report.total)


def test_warm_queries_build_no_path_per_record(tmp_path, records,
                                               bundled_catalog, monkeypatch):
    corpora = []
    for size in (10, 50):
        corpus = Corpus(tmp_path / str(size))
        for record in records[:size]:
            corpus.store(record)
        compute_stats(corpus, bundled_catalog)  # writes the summary
        corpora.append(corpus)
    calls = []

    def counting(name, method):
        def counted(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return counted

    for cls, name in ((pathlib.PurePath, "__truediv__"),
                      (pathlib.PurePath, "joinpath"),
                      (pathlib.PurePath, "with_name"),
                      (pathlib.Path, "open"),
                      (pathlib.Path, "read_bytes"),
                      (pathlib.Path, "read_text")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    counts = []
    for corpus in corpora:
        calls.clear()
        for group_by in GROUPINGS:
            compute_stats(corpus, bundled_catalog, group_by)
            co_occurrence(corpus, group_by)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


def _reference_cut(text: str, depth: int, merge_profiles: bool) -> str:
    if merge_profiles:
        text = text[text.find(":") + 1:]
    return ".".join(text.split(".", depth)[:depth])


def test_cut_memo_agrees_with_a_split_and_join(bundled_catalog):
    texts = list(bundled_catalog._index)
    for (depth, merge_profiles), memo in corpus_module._CUT_MEMOS.items():
        memo.clear()
        for _ in range(2):  # a miss, then a hit
            assert list(map(memo.__getitem__, texts)) == [
                _reference_cut(text, depth, merge_profiles)
                for text in texts]


def test_cut_memo_is_bounded():
    bound = corpus_module._CUT_MEMO_SIZE
    memo = corpus_module._CutMemo(3, True)
    texts = [f"IoT:BG.K.R.{n}" for n in range(bound + 1)]
    for text in texts:
        assert memo[text] == "BG.K.R"
        assert len(memo) <= bound
    assert len(memo) == 1  # the last text, after emptying the full memo
    assert [memo[text] for text in texts[:3]] == ["BG.K.R"] * 3


def test_warm_queries_cut_each_text_once_per_process(corpus, bundled_catalog,
                                                     monkeypatch):
    compute_stats(corpus, bundled_catalog)  # writes the summary
    for memo in corpus_module._CUT_MEMOS.values():
        memo.clear()
    calls = []

    def counting_cut(*args):
        calls.append(args)
        return cut(*args)

    cut = corpus_module._cut
    monkeypatch.setattr(corpus_module, "_cut", counting_cut)
    per_round = []
    for _ in range(3):
        before = len(calls)
        for group_by in GROUPINGS:
            for merge_profiles in (False, True):
                compute_stats(corpus, bundled_catalog, group_by,
                              merge_profiles=merge_profiles)
                co_occurrence(corpus, group_by,
                              merge_profiles=merge_profiles)
        per_round.append(len(calls) - before)
    assert len(calls) == len(set(calls))
    distinct = {text for texts in corpus_texts(corpus) for text in texts}
    assert per_round == [6 * len(distinct), 0, 0]


def test_files_larger_than_a_read_chunk(tmp_path, bundled_catalog):
    record = new_record("big", "t", "d")
    add_selection(record, BACKGROUND, "BG.K.R.4", note="n" * 100_000)
    assert len(write_record(record)) > 2 * corpus_module._READ_CHUNK
    corpus = Corpus(tmp_path)
    corpus.store(record)
    assert corpus.load("big") == read_record(write_record(record))
    cold, warm = (outputs(corpus, bundled_catalog) for _ in range(2))
    assert _summary(corpus).exists()
    assert cold == warm == outputs([record], bundled_catalog)
    # A FIFO reports no size, so every byte comes through the chunked reads.
    fifo = tmp_path / "fifo" / "big.taxidma.json"
    fifo.parent.mkdir()
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text,
                              args=(write_record(record),), daemon=True)
    writer.start()
    assert Corpus(fifo.parent).load("big") == record
    writer.join(10)
    assert not writer.is_alive()
