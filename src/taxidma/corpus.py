"""Record storage and corpus-level statistics.

A corpus is a flat directory of ``<record_id>.taxidma.json`` files, one
record per file name.  A name whose id ``new_record`` would refuse is not
listed, and ``Corpus.load`` refuses that id before reading.  Records
and the summary are written to a temp file with a random name, created
exclusively, then renamed into place (``_replace``).  No lock is taken: a
dead writer blocks nothing, and of overlapping stores of one id the last wins.

Statistics over a corpus read a summary file, ``.taxidma-summary``, beside
the records.  Its ``records`` member maps each record id, in record order,
to one entry: the sha256 of the file's bytes, the file's ``st_ino``,
``st_size``, ``st_mtime_ns`` and ``st_ctime_ns``, and the record's
selection codes as canonical texts.  A query stats each file and takes its
texts without opening the file only when the signature matches and the
file's ctime is strictly older than the summary's own mtime: git's
racy-clean rule, applied to ctime because ``os.utime`` can restore an mtime
but not a ctime.  Any other file is read and hashed, and parsed only if its
hash differs from its entry's.  A writer sets the summary's mtime to the
file system's time from before its first read (the mtime of a scratch file
created and removed beside the summary), so a change that lands after
reading began leaves a ctime no older than the summary and is read again:
an entry never goes stale.  Off POSIX, where ``st_ctime`` is not the inode
change time, every file is read.  Like git, this trusts the file system's
stat data; on NFS a client's attribute cache can lag behind another
client's writes, and until it catches up a query there can miss such a
write.

A warm query, one that trusts every file, makes one ``os.stat`` per file,
parses nothing and writes nothing.  Each distinct code text is cut to its
group code once per process (``_CUT_MEMOS``), and one ``Counter`` counts
all records.  The summary is only a cache: a missing, unreadable or
malformed one, one that is not a regular file, or a malformed entry is
ignored and the files are read, and deleting it changes no output.
Readers keep it up to date, not writers: a query that read a file whose
entry is new or changed, read a racy file that its new summary would
settle, or found entries for files that are gone rewrites the whole
summary and ignores any failure to write it.

Statistics count *records* by default: a code (pruned to the requested
grouping depth) scores one per record that selects it anywhere, which keeps
heavily annotated records from drowning out the rest.  Shares are exact
fractions of the record total and only the renderers round them (to six
decimal places).

Storing and loading records import none of ``hashlib``, ``fractions`` and
``csv``.  Each is imported on first use: ``hashlib`` (and with it OpenSSL)
by a query over a :class:`Corpus` that reads a record file, for the
summary keys, ``fractions`` by
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
from itertools import chain, combinations_with_replacement, count, repeat
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

from .catalog import Catalog
from .codes import format_code
from .errors import (
    CodeSyntaxError,
    InvalidRecordError,
    MalformedFileError,
    RecordNotFoundError,
    StorageFailureError,
    UnknownPathError,
)
from .record import (
    RECORD_FILE_SUFFIX,
    _RECORD_ID_RE,
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
_SUMMARY_FORMAT = "taxidma-summary 2"
_SUMMARY_READ_FLAGS = (os.O_RDONLY | getattr(os, "O_NOFOLLOW", 0)
                       | getattr(os, "O_NONBLOCK", 0))
_READ_CHUNK = 16 * 1024  # reads after the first, which fstat sizes
# Whether st_ctime is the inode change time, which the stat index needs.
_TRUST_STAT = os.name == "posix"
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
        try:
            with os.scandir(self.root) as entries:
                return sorted(filter(_RECORD_ID_RE.match, (
                    entry.name[: -len(RECORD_FILE_SUFFIX)] for entry in entries
                    if entry.name.endswith(RECORD_FILE_SUFFIX)
                    and entry.is_file())))
        except OSError as exc:
            raise StorageFailureError(
                f"cannot list {self.root}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.record_ids())

    def __iter__(self) -> Iterator[AttackRecord]:
        for record_id in self.record_ids():
            yield self.load(record_id)

    def load(self, record_id: str) -> AttackRecord:
        """The record stored as ``record_id``.  An id ``new_record`` would
        refuse raises :class:`InvalidIdentifierError` before anything is
        read."""
        _check_record_id(record_id)
        path = self.path_for(record_id)
        return _parse_file(path, self._read_bytes(record_id, str(path))[0])

    def _read_bytes(self, record_id: str, path: str
                    ) -> tuple[bytes, os.stat_result]:
        """The bytes of the file at ``path``, which is ``path_for``'s text
        for ``record_id``, read to its end with bare syscalls, and the
        file's ``fstat`` from before the read."""
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                status = os.fstat(fd)
                return _read_all(fd, status), status
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
        order, served from the summary: by stat signature where the rule in
        the module docstring trusts it, else by the hash of the file."""
        # The text path_for would give for any name: "x" is cut off again.
        prefix = str(self.root / "x")[:-1]
        summary_path = prefix + SUMMARY_NAME
        # A summary with malformed entries is rewritten whatever happens.
        entries, stamp, rewrite = _read_summary(summary_path)
        kept: dict[str, list] = {}
        out = []
        # The new summary's mtime: the old one's, or once a file is read the
        # file system's time from before that read (None if unknown).
        began = stamp
        reading = False
        for record_id in self.record_ids():
            path = f"{prefix}{record_id}{RECORD_FILE_SUFFIX}"
            old = entries.get(record_id)
            entry = old if _TRUST_STAT else None
            if entry is not None:
                try:
                    status = os.stat(path)
                except OSError:
                    entry = None
                else:
                    if status.st_ctime_ns >= stamp or \
                            entry[1:5] != _signature(status):
                        entry = None
            if entry is None:
                if not reading:
                    import hashlib
                    reading = True
                    began = _fs_clock(summary_path)
                data, status = self._read_bytes(record_id, path)
                key = hashlib.sha256(data).hexdigest()
                if old is not None and old[0] == key:
                    texts = old[5]
                else:
                    texts = _record_texts(_parse_file(Path(path), data))
                entry = [key, *_signature(status), texts]
                # Record a new or changed entry, or a racy file that a
                # summary stamped ``began`` would trust (a file changed at
                # or after it, or under a clock stepped back, stays racy).
                rewrite = rewrite or entry != old or (
                    _TRUST_STAT and began is not None
                    and status.st_ctime_ns < began)
            kept[record_id] = entry
            out.append(entry[5])
        if began is not None and (rewrite or len(kept) != len(entries)):
            _write_summary(summary_path, kept, began)
        return out

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


def _signature(status: os.stat_result) -> list[int]:
    return [status.st_ino, status.st_size, status.st_mtime_ns,
            status.st_ctime_ns]


def _read_summary(path: str) -> tuple[dict[str, list], int | None, bool]:
    """``(entries, stamp, malformed)`` from the summary at ``path``: its
    well-formed entries by record id, its mtime in ns and whether any entry
    was dropped as malformed.  A file that is not a regular one in the
    current format gives no entries.  Opening follows no symlink and does
    not wait on a FIFO."""
    try:
        fd = os.open(path, _SUMMARY_READ_FLAGS)
    except OSError:
        return {}, None, False
    try:
        status = os.fstat(fd)
        payload = json.loads(_read_all(fd, status)) \
            if stat.S_ISREG(status.st_mode) else None
    except (OSError, ValueError, RecursionError):
        payload = None
    finally:
        os.close(fd)
    if type(payload) is not dict or \
            payload.get("format") != _SUMMARY_FORMAT or \
            type(payload.get("records")) is not dict:
        return {}, None, False
    entries = {record_id: entry
               for record_id, entry in payload["records"].items()
               if type(entry) is list and len(entry) == 6
               and type(entry[0]) is str
               and all(type(field) is int for field in entry[1:5])
               and type(entry[5]) is list
               and all(map(str.__instancecheck__, entry[5]))}
    return entries, status.st_mtime_ns, \
        len(entries) < len(payload["records"])


def _write_summary(path: str, entries: dict[str, list], mtime_ns: int
                   ) -> None:
    """Replace the summary, with its mtime set to ``mtime_ns``, or leave it
    be on any failure."""
    with contextlib.suppress(OSError):
        _replace(path, json.dumps(
            {"format": _SUMMARY_FORMAT, "records": entries},
            separators=(",", ":")).encode(), mtime_ns)


def _fs_clock(summary_path: str) -> int | None:
    """The file system's time now: the mtime of a scratch file created
    beside the summary and removed at once, or None if that fails."""
    scratch = _scratch_name(summary_path)
    try:
        fd = os.open(scratch, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        try:
            return os.fstat(fd).st_mtime_ns
        finally:
            os.close(fd)
            os.unlink(scratch)
    except OSError:
        return None


def _read_all(fd: int, status: os.stat_result) -> bytes:
    """``fd``'s bytes to its end, so a FIFO or a growing file reads whole;
    ``status`` is its ``fstat``."""
    # Sized by fstat: shrinking a larger buffer raised peak RSS.
    chunks = [os.read(fd, status.st_size + 1)]
    while chunk := os.read(fd, _READ_CHUNK):
        chunks.append(chunk)
    return b"".join(chunks)


def _scratch_name(path: str | Path) -> str:
    """A random name beside ``path`` for a temp file."""
    return f"{path}.{os.urandom(8).hex()}.tmp"


def _replace(path: str | Path, data: bytes, mtime_ns: int | None = None
             ) -> None:
    """Replace ``path`` with ``data`` via a temp file beside it, created
    exclusively under a random name, so nothing planted is written through.
    A given ``mtime_ns`` becomes the new file's atime and mtime."""
    scratch = _scratch_name(path)
    fd = os.open(scratch, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "wb") as file:
            file.write(data)
            if mtime_ns is not None:
                file.flush()
                os.utime(fd if os.utime in os.supports_fd else scratch,
                         ns=(mtime_ns, mtime_ns))
        os.replace(scratch, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(scratch)
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
                 merge_profiles: bool, kind: type) -> Iterator:
    """Each record's group codes, made into a ``kind``: a list holds one
    per selection, a set each distinct one.  A :class:`Corpus` answers from
    its summary; other records render their codes."""
    if isinstance(records, Corpus):
        per_record = records._selection_texts()
    else:
        per_record = map(_record_texts, records)
    cut = _CUT_MEMOS[depth, merge_profiles].__getitem__
    for texts in per_record:
        yield kind(map(cut, texts))


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
    groups = _group_codes(records, _group_depth(group_by), merge_profiles,
                          list if count_selections else set)
    # zip stops at the end of groups before it draws from tally, so tally's
    # next value is the record total; the records stream through.
    tally = count()
    counts = Counter(chain.from_iterable(map(itemgetter(0),
                                             zip(groups, tally))))
    total = counts.total() if count_selections else next(tally)
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
    groups = _group_codes(records, _group_depth(group_by), merge_profiles,
                          set)
    return dict(Counter(chain.from_iterable(map(
        combinations_with_replacement, map(sorted, groups), repeat(2)))))


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
