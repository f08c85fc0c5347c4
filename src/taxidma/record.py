"""Attack records: one background application plus repeatable taxonomy
applications, each holding code selections.

Construction is permissive — selections are recorded as given and checked as
a whole by :func:`validate_record`, so callers can build records in any
order.  Findings carry a severity: errors make a record unusable for
downstream operations, warnings are lint.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Final

from .catalog import Catalog
from .codes import KNOWN_TAXONOMIES, TaxonomyCode, format_code, parse_code
from .errors import (
    BackgroundNotApplicableError,
    CodeSyntaxError,
    InvalidCodeError,
    InvalidIdentifierError,
    InvalidRecordError,
    MalformedFileError,
    UnknownApplicationError,
    UnknownPathError,
)

#: Application reference addressing the background block.
BACKGROUND: Final[int] = -1

RECORD_FILE_SUFFIX = ".taxidma.json"

_RECORD_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


@dataclass
class Selection:
    """One taxonomy code picked for a record, with optional annotations."""

    code: TaxonomyCode
    free_text: str | None = None
    note: str | None = None


@dataclass
class TaxonomyApplication:
    """A taxonomy applied to a record (the background is one of these too)."""

    taxonomy: TaxonomyCode
    instance_label: str = ""
    selections: list[Selection] = field(default_factory=list)


@dataclass
class AttackRecord:
    record_id: str
    title: str
    description: str
    sources: list[str] = field(default_factory=list)
    created: datetime = field(
        default_factory=lambda: datetime.now(timezone.utc))
    background: TaxonomyApplication = field(
        default_factory=lambda: TaxonomyApplication(TaxonomyCode("BG"),
                                                    "background"))
    applications: list[TaxonomyApplication] = field(default_factory=list)


@dataclass(frozen=True)
class RecordViolation:
    severity: str  # "error" | "warning"
    rule: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.rule}: {self.path}: {self.message}"


@dataclass
class ValidationReport:
    record_id: str
    violations: list[RecordViolation] = field(default_factory=list)

    @property
    def errors(self) -> list[RecordViolation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list[RecordViolation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class ResolvedSelection:
    """A selection annotated with its display name; scope -1 = background."""

    scope: int
    instance_label: str
    code: str
    full_name: str
    free_text: str | None
    note: str | None


def _check_record_id(record_id: str) -> None:
    if not isinstance(record_id, str) or not _RECORD_ID_RE.match(record_id):
        raise InvalidIdentifierError(
            f"record id {record_id!r} must be non-empty and use only "
            "letters, digits, dot, underscore, or hyphen")


def _as_taxonomy_code(value: TaxonomyCode | str) -> TaxonomyCode:
    code = parse_code(value) if isinstance(value, str) else value
    if code.depth != 0:
        raise InvalidCodeError(
            f"{format_code(code)} names a deeper node, not a taxonomy")
    return code


def new_record(record_id: str, title: str, description: str, *,
               background_taxonomy: TaxonomyCode | str = "BG",
               sources: list[str] | None = None,
               created: datetime | None = None) -> AttackRecord:
    """A fresh record with an empty background block."""
    _check_record_id(record_id)
    bg_code = _as_taxonomy_code(background_taxonomy)
    if created is None:
        created = datetime.now(timezone.utc)
    created = created.astimezone(timezone.utc).replace(microsecond=0)
    return AttackRecord(
        record_id=record_id,
        title=title,
        description=description,
        sources=list(sources or []),
        created=created,
        background=TaxonomyApplication(bg_code, "background"),
    )


def apply_taxonomy(record: AttackRecord, catalog: Catalog,
                   taxonomy: TaxonomyCode | str,
                   instance_label: str = "") -> int:
    """Append a taxonomy application; returns its reference for
    :func:`add_selection`.

    The background taxonomy is not repeatable
    (:class:`BackgroundNotApplicableError`), and the code must resolve to a
    taxonomy node in the catalog.
    """
    code = _as_taxonomy_code(taxonomy)
    if code.taxonomy == "BG":
        raise BackgroundNotApplicableError(
            "the background taxonomy is part of every record; "
            "it cannot be applied again")
    catalog.resolve(code)  # raises UnknownPathError for WA etc.
    record.applications.append(TaxonomyApplication(code, instance_label))
    return len(record.applications) - 1


def _application(record: AttackRecord, ref: int) -> TaxonomyApplication:
    if ref == BACKGROUND:
        return record.background
    if not isinstance(ref, int) or not 0 <= ref < len(record.applications):
        raise UnknownApplicationError(
            f"no application with reference {ref!r}")
    return record.applications[ref]


def add_selection(record: AttackRecord, ref: int,
                  code: TaxonomyCode | str, free_text: str | None = None,
                  note: str | None = None) -> Selection:
    """Record a selection under the referenced application (or
    ``BACKGROUND``).  The code only needs to parse here; resolution and
    consistency are checked by :func:`validate_record`."""
    application = _application(record, ref)
    parsed = parse_code(code) if isinstance(code, str) else code
    format_code(parsed)  # reject structurally broken TaxonomyCode values
    selection = Selection(parsed, free_text, note)
    application.selections.append(selection)
    return selection


def _scope_path(scope: int, index: int | None = None) -> str:
    base = "background" if scope == BACKGROUND else f"applications[{scope}]"
    if index is None:
        return base
    return f"{base}.selections[{index}]"


def _validate_application(catalog: Catalog, scope: int,
                          application: TaxonomyApplication,
                          out: list[RecordViolation]) -> None:
    def err(rule: str, path: str, message: str) -> None:
        out.append(RecordViolation("error", rule, path, message))

    def warn(rule: str, path: str, message: str) -> None:
        out.append(RecordViolation("warning", rule, path, message))

    taxonomy = application.taxonomy
    tax_ok = True
    if taxonomy.depth != 0:
        err("application-taxonomy", _scope_path(scope),
            f"{format_code(taxonomy)} is not taxonomy-granularity")
        tax_ok = False
    else:
        try:
            catalog.resolve(taxonomy)
        except UnknownPathError as exc:
            err("application-taxonomy", _scope_path(scope), str(exc))
            tax_ok = False
    if scope == BACKGROUND:
        if taxonomy.taxonomy != "BG":
            err("background-taxonomy", _scope_path(scope),
                f"background must use BG, got {format_code(taxonomy)}")
    elif taxonomy.taxonomy == "BG":
        err("application-taxonomy", _scope_path(scope),
            "BG is the background taxonomy; it is not repeatable")

    for index, selection in enumerate(application.selections):
        path = _scope_path(scope, index)
        code_text = format_code(selection.code)
        if tax_ok and (selection.code.profile, selection.code.taxonomy) != (
                taxonomy.profile, taxonomy.taxonomy):
            err("selection-taxonomy-mismatch", path,
                f"{code_text} does not belong to {format_code(taxonomy)}")
            continue
        if selection.code.depth < 2:
            err("selection-too-shallow", path,
                f"{code_text} stops above item granularity")
            continue
        try:
            _, _, item, chain = catalog.resolve(selection.code)
        except UnknownPathError as exc:
            err("unresolvable-code", path, str(exc))
            continue
        needs_text = item.kind in ("free_text", "external_reference")
        if needs_text and not selection.free_text:
            err("free-text-required", path,
                f"{code_text} is a {item.kind} item; free_text is required")
        if not needs_text and selection.free_text is not None:
            err("free-text-not-allowed", path,
                f"{code_text} enumerates fixed leaves; free_text is not "
                "allowed")
        if not chain and item.leaves and item.kind == "enumerated":
            warn("item-level-selection", path,
                 f"{code_text} selects a whole item that has leaves; "
                 "pick a leaf when one fits")

    for i, first in enumerate(application.selections):
        for second in application.selections[i + 1:]:
            a, b = first.code, second.code
            if a == b:
                warn("duplicate-selection", _scope_path(scope),
                     f"{format_code(a)} is selected more than once")
            elif a.is_prefix_of(b) or b.is_prefix_of(a):
                shallow, deep = (a, b) if a.is_prefix_of(b) else (b, a)
                warn("redundant-selection", _scope_path(scope),
                     f"{format_code(shallow)} is already implied by "
                     f"{format_code(deep)}")

    if scope == BACKGROUND:
        if not application.selections:
            warn("empty-background", _scope_path(scope),
                 "the background has no selections")
        elif not any(s.code.category == "K" for s in application.selections):
            warn("background-missing-attack", _scope_path(scope),
                 "the background does not describe the attack (K)")
    elif not application.selections:
        warn("empty-application", _scope_path(scope),
             f"{format_code(taxonomy)} application has no selections")


def validate_record(record: AttackRecord, catalog: Catalog) -> ValidationReport:
    """Check the whole record; never raises for content problems."""
    report = ValidationReport(record.record_id)
    if not isinstance(record.record_id, str) or \
            not _RECORD_ID_RE.match(record.record_id or ""):
        report.violations.append(RecordViolation(
            "error", "record-id", "record_id",
            f"unusable record id {record.record_id!r}"))
    _validate_application(catalog, BACKGROUND, record.background,
                          report.violations)
    for scope, application in enumerate(record.applications):
        _validate_application(catalog, scope, application, report.violations)
    return report


def resolve_names(record: AttackRecord,
                  catalog: Catalog) -> list[ResolvedSelection]:
    """Pair every selection with its full display name, in record order.

    Requires an error-free record (:class:`InvalidRecordError` otherwise).
    """
    report = validate_record(record, catalog)
    if not report.ok:
        raise InvalidRecordError(
            f"record {record.record_id} has {len(report.errors)} validation "
            "error(s); resolve them first", report)
    out: list[ResolvedSelection] = []
    scopes = [(BACKGROUND, record.background)]
    scopes += list(enumerate(record.applications))
    for scope, application in scopes:
        for selection in application.selections:
            out.append(ResolvedSelection(
                scope=scope,
                instance_label=application.instance_label,
                code=format_code(selection.code),
                full_name=catalog.full_name(selection.code),
                free_text=selection.free_text,
                note=selection.note,
            ))
    return out


# -- file format --------------------------------------------------------------


def _selection_to_dict(selection: Selection) -> dict:
    out: dict = {"code": format_code(selection.code)}
    if selection.free_text is not None:
        out["free_text"] = selection.free_text
    if selection.note is not None:
        out["note"] = selection.note
    return out


def _application_to_dict(application: TaxonomyApplication) -> dict:
    return {
        "taxonomy": format_code(application.taxonomy),
        "instance_label": application.instance_label,
        "selections": [_selection_to_dict(s) for s in application.selections],
    }


def record_to_dict(record: AttackRecord) -> dict:
    return {
        "record_id": record.record_id,
        "title": record.title,
        "description": record.description,
        "sources": list(record.sources),
        "created": record.created.astimezone(timezone.utc)
                                 .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "background": _application_to_dict(record.background),
        "applications": [_application_to_dict(a)
                         for a in record.applications],
    }


def write_record(record: AttackRecord) -> str:
    """Serialize to the record file format (stable key order, trailing
    newline)."""
    return json.dumps(record_to_dict(record), indent=2, ensure_ascii=False) \
        + "\n"


def _parse_created(value, where: str) -> datetime:
    if not isinstance(value, str):
        raise MalformedFileError(f"{where}: created must be a string")
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise MalformedFileError(f"{where}: bad timestamp {value!r}") from exc
    if stamp.tzinfo is None:
        raise MalformedFileError(f"{where}: timestamp {value!r} lacks a zone")
    return stamp.astimezone(timezone.utc)


def _parse_file_code(text, where: str) -> TaxonomyCode:
    if not isinstance(text, str):
        raise MalformedFileError(f"{where}: code must be a string")
    try:
        code = parse_code(text)
    except CodeSyntaxError as exc:
        raise MalformedFileError(f"{where}: {exc}") from exc
    if code.taxonomy not in KNOWN_TAXONOMIES:
        raise MalformedFileError(
            f"{where}: unknown taxonomy token {code.taxonomy!r} in {text!r}")
    return code


def _application_from_dict(raw, where: str) -> TaxonomyApplication:
    if not isinstance(raw, dict):
        raise MalformedFileError(f"{where}: expected an object")
    for key in ("taxonomy", "selections"):
        if key not in raw:
            raise MalformedFileError(f"{where}: missing field {key!r}")
    taxonomy = _parse_file_code(raw["taxonomy"], f"{where}.taxonomy")
    label = raw.get("instance_label", "")
    if not isinstance(label, str):
        raise MalformedFileError(f"{where}.instance_label: must be a string")
    if not isinstance(raw["selections"], list):
        raise MalformedFileError(f"{where}.selections: must be a list")
    selections = []
    for i, raw_sel in enumerate(raw["selections"]):
        swhere = f"{where}.selections[{i}]"
        if not isinstance(raw_sel, dict) or "code" not in raw_sel:
            raise MalformedFileError(f"{swhere}: missing code")
        free_text = raw_sel.get("free_text")
        note = raw_sel.get("note")
        for name, val in (("free_text", free_text), ("note", note)):
            if val is not None and not isinstance(val, str):
                raise MalformedFileError(f"{swhere}.{name}: must be a string")
        selections.append(Selection(
            _parse_file_code(raw_sel["code"], f"{swhere}.code"),
            free_text, note))
    return TaxonomyApplication(taxonomy, label, selections)


def record_from_dict(raw: dict) -> AttackRecord:
    if not isinstance(raw, dict):
        raise MalformedFileError("record: expected a JSON object")
    for key in ("record_id", "title", "description", "sources", "created",
                "background", "applications"):
        if key not in raw:
            raise MalformedFileError(f"record: missing field {key!r}")
    for key in ("record_id", "title", "description"):
        if not isinstance(raw[key], str):
            raise MalformedFileError(f"record.{key}: must be a string")
    if not isinstance(raw["sources"], list) or \
            any(not isinstance(s, str) for s in raw["sources"]):
        raise MalformedFileError("record.sources: must be a list of strings")
    if not isinstance(raw["applications"], list):
        raise MalformedFileError("record.applications: must be a list")
    return AttackRecord(
        record_id=raw["record_id"],
        title=raw["title"],
        description=raw["description"],
        sources=list(raw["sources"]),
        created=_parse_created(raw["created"], "record.created"),
        background=_application_from_dict(raw["background"], "background"),
        applications=[
            _application_from_dict(a, f"applications[{i}]")
            for i, a in enumerate(raw["applications"])],
    )


def read_record(text: str | bytes) -> AttackRecord:
    """Parse a record file's contents.  Raises
    :class:`MalformedFileError` for anything that is not a well-formed
    record document (content problems are left to validation)."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFileError(f"not a JSON document: {exc}") from exc
    return record_from_dict(raw)
