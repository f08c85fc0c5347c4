"""Record storage and corpus-level statistics.

A corpus is a flat directory of ``<record_id>.taxidma.json`` files.  Writes
go through a temp file plus atomic rename and are serialized by a
``.taxidma-lock`` file, so concurrent writers fail loudly instead of
corrupting each other.

Statistics count *records* by default: a code (pruned to the requested
grouping depth) scores one per record that selects it anywhere, which keeps
heavily annotated records from drowning out the rest.  Shares are exact
fractions of the record total and only the renderers round them (to six
decimal places).
"""
from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .catalog import Catalog
from .codes import TaxonomyCode, format_code, parse_code
from .errors import (
    CodeSyntaxError,
    MalformedFileError,
    RecordNotFoundError,
    StorageFailureError,
    UnknownPathError,
)
from .record import (
    RECORD_FILE_SUFFIX,
    AttackRecord,
    read_record,
    write_record,
)

LOCK_NAME = ".taxidma-lock"
GROUPINGS = ("category", "item", "leaf")
# Dot-separated segments a group code keeps: TAX.CAT, TAX.CAT.ITEM and
# TAX.CAT.ITEM.n.
_GROUP_DEPTHS = {group_by: 2 + level
                 for level, group_by in enumerate(GROUPINGS)}


class Corpus:
    """A directory of record files."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, record_id: str) -> Path:
        return self.root / f"{record_id}{RECORD_FILE_SUFFIX}"

    def record_ids(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name[: -len(RECORD_FILE_SUFFIX)]
            for entry in self.root.iterdir()
            if entry.is_file() and entry.name.endswith(RECORD_FILE_SUFFIX))

    def __len__(self) -> int:
        return len(self.record_ids())

    def __iter__(self) -> Iterator[AttackRecord]:
        for record_id in self.record_ids():
            yield self.load(record_id)

    def load(self, record_id: str) -> AttackRecord:
        path = self.path_for(record_id)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise RecordNotFoundError(
                f"no record {record_id!r} in {self.root}") from None
        except OSError as exc:
            raise StorageFailureError(f"cannot read {path}: {exc}") from exc
        try:
            return read_record(text)
        except MalformedFileError as exc:
            raise MalformedFileError(f"{path.name}: {exc}") from exc

    def store(self, record: AttackRecord) -> Path:
        """Write (or replace) one record, atomically and under the corpus
        lock."""
        path = self.path_for(record.record_id)
        text = write_record(record)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageFailureError(
                f"cannot create corpus root {self.root}: {exc}") from exc
        lock = self.root / LOCK_NAME
        try:
            lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StorageFailureError(
                f"corpus {self.root} is locked by another writer "
                f"(stale {LOCK_NAME}?)") from None
        except OSError as exc:
            raise StorageFailureError(
                f"cannot lock corpus {self.root}: {exc}") from exc
        try:
            scratch = path.with_name(f".{path.name}.tmp")
            try:
                scratch.write_text(text, encoding="utf-8")
                os.replace(scratch, path)
            except OSError as exc:
                scratch.unlink(missing_ok=True)
                raise StorageFailureError(
                    f"cannot write {path}: {exc}") from exc
        finally:
            os.close(lock_fd)
            lock.unlink(missing_ok=True)
        return path


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


def _group_code(code: TaxonomyCode, depth: int,
                merge_profiles: bool) -> str:
    """The code's canonical text cut to its first ``depth`` segments (all
    of them when it is shallower), without the profile if merging."""
    text = format_code(code)
    if merge_profiles:
        text = text[text.find(":") + 1:]
    return ".".join(text.split(".", depth)[:depth])


def _group_depth(group_by: str) -> int:
    if group_by not in GROUPINGS:
        raise ValueError(
            f"group_by must be one of {', '.join(GROUPINGS)}; "
            f"got {group_by!r}")
    return _GROUP_DEPTHS[group_by]


def _record_codes(record: AttackRecord, depth: int,
                  merge_profiles: bool) -> list[str]:
    return [_group_code(selection.code, depth, merge_profiles)
            for application in (record.background, *record.applications)
            for selection in application.selections]


def _full_name(catalog: Catalog, code_text: str) -> str:
    try:
        return catalog.full_name(parse_code(code_text))
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
    taxonomy.  Entries come back sorted by count (descending), then code.

    Group codes are cut from each selection's canonical text, so a
    selection whose code breaks the grammar (an in-memory code with leaf
    ``-1``, say) raises :class:`InvalidCodeError` at any grouping depth.
    """
    depth = _group_depth(group_by)
    counts: dict[str, int] = {}
    record_total = 0
    selection_total = 0
    for record in records:
        record_total += 1
        codes = _record_codes(record, depth, merge_profiles)
        selection_total += len(codes)
        if not count_selections:
            codes = sorted(set(codes))
        for code in codes:
            counts[code] = counts.get(code, 0) + 1
    total = selection_total if count_selections else record_total
    entries = tuple(sorted(
        (StatsEntry(code, _full_name(catalog, code), count,
                    Fraction(count, total) if total else Fraction(0))
         for code, count in counts.items()),
        key=lambda entry: (-entry.count, entry.code)))
    return StatsReport(group_by=group_by, total=total, entries=entries)


def co_occurrence(records: Iterable[AttackRecord],
                  group_by: str = "item", *, merge_profiles: bool = False
                  ) -> dict[tuple[str, str], int]:
    """Record-level pair counts.

    Key ``(a, b)`` with ``a <= b`` counts records selecting both codes; the
    diagonal ``(a, a)`` equals the plain frequency.
    """
    depth = _group_depth(group_by)
    pairs: dict[tuple[str, str], int] = {}
    for record in records:
        present = sorted(set(_record_codes(record, depth, merge_profiles)))
        for i, left in enumerate(present):
            for right in present[i:]:
                key = (left, right)
                pairs[key] = pairs.get(key, 0) + 1
    return pairs


# -- renderers ----------------------------------------------------------------


def _share_text(share: Fraction) -> str:
    return f"{float(share):.6f}"


def render_csv(report: StatsReport) -> str:
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
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def render_table(report: StatsReport) -> str:
    rows = [(entry.code, entry.name, str(entry.count),
             _share_text(entry.share)) for entry in report.entries]
    header = ("code", "name", "count", "share")
    widths = [max(len(row[column]) for row in (header, *rows))
              for column in range(4)]
    lines = []
    for row in (header, *rows):
        lines.append("  ".join(
            row[c].ljust(widths[c]) if c < 2 else row[c].rjust(widths[c])
            for c in range(4)).rstrip())
    return "\n".join(lines) + "\n"
