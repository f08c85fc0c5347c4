"""Record storage and corpus-level statistics.

A corpus is a flat directory of ``<record_id>.taxidma.json`` files.  Records
and the summary are written to a temp file with a random name, created
exclusively, then renamed into place (``_replace``).  No lock is taken: a
dead writer blocks nothing, and of overlapping stores of one id the last wins.

Statistics over a corpus read a summary file, ``.taxidma-summary``, beside
the records.  It maps the sha256 of each record file's bytes to that
record's selection codes as canonical texts, so a query hashes each file
and parses only the files whose hash it does not find.  Because an entry is
keyed on content it never goes stale; a rewritten record simply misses.  A
warm query, one that finds every file's hash, reads each file with bare
``os.open``/``os.read`` calls and hashes it once, parses nothing and writes
nothing, and cuts each distinct code text to its group code once per
process (``_CUT_MEMOS``).  The summary is
only a cache: a missing, unreadable or malformed one, one that is not a
regular file, or a malformed entry is ignored and the files are parsed, and
deleting it changes no output.  Readers keep it up to date, not writers: a
query that parsed any file, or found entries for files that are gone,
rewrites the whole summary and ignores any failure to write it.

Statistics count *records* by default: a code (pruned to the requested
grouping depth) scores one per record that selects it anywhere, which keeps
heavily annotated records from drowning out the rest.  Shares are exact
fractions of the record total and only the renderers round them (to six
decimal places).

Storing and loading records import none of ``hashlib``, ``fractions`` and
``csv``.  Each is imported on first use: ``hashlib`` (and with it OpenSSL)
by a query over a :class:`Corpus`, for the summary keys, ``fractions`` by
:func:`compute_stats` and ``csv`` by :func:`render_csv`.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import Catalog
from .codes import format_code
from .errors import (
    CodeSyntaxError,
    InvalidIdentifierError,
    InvalidRecordError,
    MalformedFileError,
    RecordNotFoundError,
    StorageFailureError,
    UnknownPathError,
)
from .record import (
    RECORD_FILE_SUFFIX,
    AttackRecord,
    _check_record_id,
    _indented_json,
    read_record,
    write_record,
)

if TYPE_CHECKING:  # imported by compute_stats, its only user
    from fractions import Fraction

SUMMARY_NAME = ".taxidma-summary"
# Bump when parsing or canonical texts change, so old summaries are ignored;
# tests/test_summary.py pins the summary each format writes.
_SUMMARY_FORMAT = "taxidma-summary 1"
_SUMMARY_READ_FLAGS = (os.O_RDONLY | getattr(os, "O_NOFOLLOW", 0)
                       | getattr(os, "O_NONBLOCK", 0))
_READ_CHUNK = 16 * 1024  # reads after the first, which fstat sizes
# Characters no file name holds, so Corpus.load never reads outside the root.
_UNSAFE_ID_CHARS = frozenset(("/", "\x00", os.altsep or "/"))
GROUPINGS = ("category", "item", "leaf")


class Corpus:
    """A directory of record files."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, record_id: str) -> Path:
        return self.root / f"{record_id}{RECORD_FILE_SUFFIX}"

    def record_ids(self) -> list[str]:
        if not self.root.is_dir():
            return []
        with os.scandir(self.root) as entries:
            return sorted(
                entry.name[: -len(RECORD_FILE_SUFFIX)]
                for entry in entries
                if entry.name.endswith(RECORD_FILE_SUFFIX)
                and entry.is_file())

    def __len__(self) -> int:
        return len(self.record_ids())

    def __iter__(self) -> Iterator[AttackRecord]:
        for record_id in self.record_ids():
            yield self.load(record_id)

    def load(self, record_id: str) -> AttackRecord:
        """The record stored as ``record_id``.  An id holding a path
        separator or NUL raises :class:`InvalidIdentifierError` before
        anything is read."""
        if not _UNSAFE_ID_CHARS.isdisjoint(str(record_id)):
            raise InvalidIdentifierError(
                f"record id {record_id!r} holds a path separator or NUL")
        path = self.path_for(record_id)
        return _parse_file(path, self._read_bytes(record_id, str(path)))

    def _read_bytes(self, record_id: str, path: str) -> bytes:
        """The bytes of the file at ``path``, which is ``path_for``'s text
        for ``record_id``, read to its end with bare syscalls."""
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                return _read_all(fd)
            finally:
                os.close(fd)
        except FileNotFoundError:
            raise RecordNotFoundError(
                f"no record {record_id!r} in {self.root}") from None
        except OSError as exc:
            exc.filename = path  # os.read names no file, open() did
            raise StorageFailureError(f"cannot read {path}: {exc}") from exc

    def _selection_texts(self) -> list[list[str]]:
        """Each record's selection codes as canonical texts, in record
        order, served from the summary where a file's hash is in it."""
        import hashlib
        summary = self._read_summary()
        # The text path_for would give for any name: "x" is cut off again.
        prefix = str(self.root / "x")[:-1]
        fresh: dict[str, list[str]] = {}
        out = []
        missed = False
        for record_id in self.record_ids():
            path = f"{prefix}{record_id}{RECORD_FILE_SUFFIX}"
            data = self._read_bytes(record_id, path)
            key = hashlib.sha256(data).hexdigest()
            texts = summary.get(key)
            if type(texts) is not list or \
                    not all(map(str.__instancecheck__, texts)):
                texts = _record_texts(_parse_file(Path(path), data))
                missed = True
            fresh[key] = texts
            out.append(texts)
        if missed or len(fresh) != len(summary):
            self._write_summary(fresh)
        return out

    def _read_summary(self) -> dict:
        """The summary's entries, or none unless it is a regular file in
        the current format.  Opening follows no symlink and does not wait
        on a FIFO."""
        try:
            fd = os.open(self.root / SUMMARY_NAME, _SUMMARY_READ_FLAGS)
        except OSError:
            return {}
        try:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                return {}
            payload = json.loads(_read_all(fd))
        except (OSError, ValueError, RecursionError):
            return {}
        finally:
            os.close(fd)
        if type(payload) is dict and \
                payload.get("format") == _SUMMARY_FORMAT and \
                type(payload.get("records")) is dict:
            return payload["records"]
        return {}

    def _write_summary(self, entries: dict[str, list[str]]) -> None:
        """Replace the summary, or leave it be on any failure."""
        with contextlib.suppress(OSError):
            _replace(self.root / SUMMARY_NAME, json.dumps(
                {"format": _SUMMARY_FORMAT, "records": entries}).encode())

    def store(self, record: AttackRecord) -> Path:
        """Write (or replace) one record atomically.  An id ``new_record``
        would refuse (:class:`InvalidIdentifierError`) or text UTF-8 cannot
        encode (:class:`InvalidRecordError`) raises before any write."""
        _check_record_id(record.record_id)
        path = self.path_for(record.record_id)
        try:
            data = write_record(record).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidRecordError(
                f"record {record.record_id!r} holds text that UTF-8 cannot "
                "encode") from exc
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageFailureError(
                f"cannot create corpus root {self.root}: {exc}") from exc
        try:
            _replace(path, data)
        except OSError as exc:
            raise StorageFailureError(f"cannot write {path}: {exc}") from exc
        return path


def _read_all(fd: int) -> bytes:
    """``fd``'s bytes to its end, so a FIFO or a growing file reads whole."""
    # Sized by fstat: shrinking a larger buffer raised peak RSS.
    chunks = [os.read(fd, os.fstat(fd).st_size + 1)]
    while chunk := os.read(fd, _READ_CHUNK):
        chunks.append(chunk)
    return b"".join(chunks)


def _replace(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via a temp file beside it, created
    exclusively under a random name, so nothing planted is written through."""
    scratch = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(scratch, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "wb") as file:
            file.write(data)
        os.replace(scratch, path)
    except BaseException:
        with contextlib.suppress(OSError):
            scratch.unlink()
        raise


def _parse_file(path: Path, data: bytes) -> AttackRecord:
    """Parse a record file's bytes as ``Path.read_text`` would decode them,
    newline translation included, so error positions read the same."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFileError(
            f"{path.name}: not a JSON document: {exc}") from exc
    try:
        return read_record(text.replace("\r\n", "\n").replace("\r", "\n"))
    except MalformedFileError as exc:
        raise MalformedFileError(f"{path.name}: {exc}") from exc


# -- statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class StatsEntry:
    code: str
    name: str
    count: int
    share: Fraction


@dataclass(frozen=True)
class StatsReport:
    group_by: str
    total: int  # records (or selections with count_selections)
    entries: tuple[StatsEntry, ...]


def _cut(text: str, depth: int, merge_profiles: bool) -> str:
    """A canonical code text cut to its first ``depth`` segments (all of
    them when it is shallower), without the profile if merging."""
    if merge_profiles:
        text = text[text.find(":") + 1:]
    parts = text.split(".", depth)
    if len(parts) > depth:
        return text[:-len(parts[depth]) - 1]
    return text


_CUT_MEMO_SIZE = 2048  # distinct texts kept per memo; the catalog has 1,173


class _CutMemo(dict):
    """Canonical text -> its group code at one depth and merge flag.  A
    miss empties a full memo, then keeps the cut text, interned so that
    every memo shares one string per group code (less peak memory)."""

    def __init__(self, depth: int, merge_profiles: bool):
        super().__init__()
        self.args = depth, merge_profiles

    def __missing__(self, text: str) -> str:
        if len(self) >= _CUT_MEMO_SIZE:
            self.clear()
        code = self[text] = sys.intern(_cut(text, *self.args))
        return code


_CUT_MEMOS = {(depth, merge): _CutMemo(depth, merge)  # see _group_depth
              for depth in range(2, 2 + len(GROUPINGS))
              for merge in (False, True)}


def _group_depth(group_by: str) -> int:
    if group_by not in GROUPINGS:
        raise ValueError(
            f"group_by must be one of {', '.join(GROUPINGS)}; "
            f"got {group_by!r}")
    # Dot-separated segments a group code keeps: TAX.CAT, TAX.CAT.ITEM and
    # TAX.CAT.ITEM.n.
    return 2 + GROUPINGS.index(group_by)


def _record_texts(record: AttackRecord) -> list[str]:
    return [format_code(selection.code)
            for application in (record.background, *record.applications)
            for selection in application.selections]


def _group_codes(records: Iterable[AttackRecord], depth: int,
                 merge_profiles: bool) -> Iterator[list[str]]:
    """Each record's group codes, one per selection.  A :class:`Corpus`
    answers from its summary; other records render their codes."""
    if isinstance(records, Corpus):
        per_record = records._selection_texts()
    else:
        per_record = map(_record_texts, records)
    cut = _CUT_MEMOS[depth, merge_profiles].__getitem__
    for texts in per_record:
        yield list(map(cut, texts))


def _full_name(catalog: Catalog, code_text: str, merge_profiles: bool) -> str:
    if merge_profiles:
        return catalog.merged_name(code_text)
    try:
        return catalog.full_name(code_text)
    except (CodeSyntaxError, UnknownPathError):
        return ""


def compute_stats(records: Iterable[AttackRecord], catalog: Catalog,
                  group_by: str = "item", *, count_selections: bool = False,
                  merge_profiles: bool = False) -> StatsReport:
    """Frequency of taxonomy codes across a corpus.

    ``records`` may be a :class:`Corpus` or any iterable of records.  Each
    record contributes one count per distinct group code unless
    ``count_selections`` switches to raw selection counts.
    ``merge_profiles`` folds profile-qualified codes into their base
    taxonomy; a code only profiles declare then takes its full name under
    the first of them in catalog order, and a code nothing declares gets
    ``""``.  Entries come back sorted by count (descending), then code.

    Group codes are cut from each selection's canonical text, so a
    selection whose code breaks the grammar (an in-memory code with leaf
    ``-1``, say) raises :class:`InvalidCodeError` at any grouping depth.
    """
    import fractions
    depth = _group_depth(group_by)
    counts: Counter[str] = Counter()
    record_total = 0
    selection_total = 0
    for codes in _group_codes(records, depth, merge_profiles):
        record_total += 1
        selection_total += len(codes)
        counts.update(codes if count_selections else set(codes))
    total = selection_total if count_selections else record_total
    # A total of 0 leaves no counts, so no share divides by it.
    shares = {count: fractions.Fraction(count, total)
              for count in set(counts.values())}
    ordered = sorted(counts.items())
    ordered.sort(key=itemgetter(1), reverse=True)  # stable: ties by code
    entries = tuple(
        StatsEntry(code, _full_name(catalog, code, merge_profiles), count,
                   shares[count])
        for code, count in ordered)
    return StatsReport(group_by=group_by, total=total, entries=entries)


def co_occurrence(records: Iterable[AttackRecord],
                  group_by: str = "item", *, merge_profiles: bool = False
                  ) -> dict[tuple[str, str], int]:
    """Record-level pair counts.

    Key ``(a, b)`` with ``a <= b`` counts records selecting both codes; the
    diagonal ``(a, a)`` equals the plain frequency.
    """
    depth = _group_depth(group_by)
    pairs: Counter[tuple[str, str]] = Counter()
    for codes in _group_codes(records, depth, merge_profiles):
        pairs.update(combinations_with_replacement(sorted(set(codes)), 2))
    return dict(pairs)


# -- renderers ----------------------------------------------------------------


def _share_text(share: Fraction) -> str:
    return f"{float(share):.6f}"


def render_csv(report: StatsReport) -> str:
    import csv
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["code", "name", "count", "share"])
    for entry in report.entries:
        writer.writerow([entry.code, entry.name, entry.count,
                         _share_text(entry.share)])
    return out.getvalue()


def render_json(report: StatsReport) -> str:
    payload = {
        "group_by": report.group_by,
        "total": report.total,
        "entries": [
            {"code": entry.code, "name": entry.name, "count": entry.count,
             "share": _share_text(entry.share)}
            for entry in report.entries],
    }
    return _indented_json(payload) + "\n"


def render_table(report: StatsReport) -> str:
    rows = [(entry.code, entry.name, str(entry.count),
             _share_text(entry.share)) for entry in report.entries]
    header = ("code", "name", "count", "share")
    line = "{:<%d}  {:<%d}  {:>%d}  {:>%d}" % tuple(
        max(map(len, column)) for column in zip(header, *rows))
    return "\n".join(line.format(*row).rstrip()
                     for row in (header, *rows)) + "\n"
