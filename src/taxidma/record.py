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
from json.encoder import encode_basestring as _quote
from typing import Final

from .catalog import TEXT_KINDS, Catalog
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


def _utc(created: datetime) -> datetime:
    try:
        return created.astimezone(timezone.utc)
    except OverflowError:
        raise InvalidRecordError(f"created {created.isoformat()} is outside "
                                 f"the UTC range") from None


def _utc_stamp(created: datetime, timespec: str) -> str:
    """``created`` in UTC as ISO 8601 text ending in ``Z``."""
    return _utc(created).isoformat(timespec=timespec)[:-6] + "Z"


def new_record(record_id: str, title: str, description: str, *,
               background_taxonomy: TaxonomyCode | str = "BG",
               sources: list[str] | None = None,
               created: datetime | None = None) -> AttackRecord:
    """A fresh record with an empty background block."""
    _check_record_id(record_id)
    bg_code = _as_taxonomy_code(background_taxonomy)
    if created is None:
        created = datetime.now(timezone.utc)
    created = _utc(created).replace(microsecond=0)
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
    # ``index`` is a selection's position, or None for the whole scope.
    def err(rule: str, index: int | None, message: str) -> None:
        out.append(RecordViolation("error", rule, _scope_path(scope, index),
                                   message))

    def warn(rule: str, index: int | None, message: str) -> None:
        out.append(RecordViolation("warning", rule,
                                   _scope_path(scope, index), message))

    taxonomy = application.taxonomy
    tax_ok = False
    renders = True  # a taxonomy code that breaks the grammar has no text
    try:
        tax_text = format_code(taxonomy)  # depth needs a sound leaf_path
        if taxonomy.depth != 0:
            err("application-taxonomy", None,
                f"{tax_text} is not taxonomy-granularity")
        else:
            catalog.resolve(taxonomy)
            tax_ok = True
    except UnknownPathError as exc:
        err("application-taxonomy", None, str(exc))
    except InvalidCodeError as exc:
        err("invalid-code", None, str(exc))
        renders = False
    if scope == BACKGROUND:
        if taxonomy.taxonomy != "BG" and renders:
            err("background-taxonomy", None,
                f"background must use BG, got {format_code(taxonomy)}")
    elif taxonomy.taxonomy == "BG":
        err("application-taxonomy", None,
            "BG is the background taxonomy; it is not repeatable")

    texts: list[str] = []  # canonical texts of the selection codes that render
    profile, tax = taxonomy.profile, taxonomy.taxonomy
    for index, selection in enumerate(application.selections):
        code = selection.code
        try:
            code_text = format_code(code)
        except InvalidCodeError as exc:
            err("invalid-code", index, str(exc))
            continue
        texts.append(code_text)
        if tax_ok and (code.taxonomy != tax or code.profile != profile):
            err("selection-taxonomy-mismatch", index,
                f"{code_text} does not belong to {format_code(taxonomy)}")
            continue
        if code.item is None:  # depth < 2, as the code renders
            err("selection-too-shallow", index,
                f"{code_text} stops above item granularity")
            continue
        try:
            _, _, item, chain = catalog.resolve(code_text)
        except UnknownPathError as exc:
            err("unresolvable-code", index, str(exc))
            continue
        kind = item.kind
        if kind in TEXT_KINDS:
            if not selection.free_text:
                err("free-text-required", index,
                    f"{code_text} is a {kind} item; free_text is required")
            continue
        if selection.free_text is not None:
            err("free-text-not-allowed", index,
                f"{code_text} enumerates fixed leaves; free_text is not "
                "allowed")
        if kind == "enumerated" and not chain and item.leaves:
            warn("item-level-selection", index,
                 f"{code_text} selects a whole item that has leaves; "
                 "pick a leaf when one fits")

    # Two codes are equal, or nested, when their texts are equal or one
    # text is the other's '.'-bounded prefix; sorted, such a pair stands
    # side by side.  Only then can the pairwise checks warn.
    ordered = sorted(texts)
    if any(b == a or b.startswith(a + ".")
           for a, b in zip(ordered, ordered[1:])):
        for i, a in enumerate(texts):
            for b in texts[i + 1:]:
                if a == b:
                    warn("duplicate-selection", None,
                         f"{a} is selected more than once")
                elif b.startswith(a + ".") or a.startswith(b + "."):
                    shallow, deep = sorted((a, b), key=len)
                    warn("redundant-selection", None,
                         f"{shallow} is already implied by {deep}")

    if scope == BACKGROUND:
        if not application.selections:
            warn("empty-background", None,
                 "the background has no selections")
        elif not any(s.code.category == "K" for s in application.selections):
            warn("background-missing-attack", None,
                 "the background does not describe the attack (K)")
    elif not application.selections and renders:
        warn("empty-application", None,
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
        "created": _utc_stamp(record.created, "seconds"),
        "background": _application_to_dict(record.background),
        "applications": [_application_to_dict(a)
                         for a in record.applications],
    }


class _NotPlainJSON(Exception):
    """A value :func:`_indented_json` leaves to ``json.dumps``."""


def _indented_json(value) -> str:
    """Exactly ``json.dumps(value, indent=2, ensure_ascii=False)``.

    With ``indent`` set, CPython's ``json`` falls back to its pure-Python
    encoder; this walker builds the same text with less work per value.
    It handles what the package writes (records, bundles and stats
    payloads): a ``dict`` or ``list`` holding only values of type
    ``dict``, ``list``, ``str`` and ``int``, checked by exact type.
    Anything else (a top-level string, a float, a bool, ``None``, a
    subclass, a tuple, an unserialisable object, a non-string key, a
    cycle) is handed to ``json.dumps`` itself, so such input gets the same
    text or the same exception.
    """
    try:
        return _json_text(value, "\n")
    except (_NotPlainJSON, TypeError, RecursionError):
        return json.dumps(value, indent=2, ensure_ascii=False)


def _json_text(value, newline: str) -> str:
    # ``newline`` is the line break plus the indent of ``value``'s own line.
    # Strings, by far the most common values, are quoted in the loops
    # without a call of their own; a non-string key makes ``_quote`` raise
    # ``TypeError``.
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        parts = []
        for key, item in value.items():
            parts.append(f"{_quote(key)}: {_quote(item)}"
                         if type(item) is str else
                         f"{_quote(key)}: {_json_text(item, inner)}")
        return f"{{{inner}{(',' + inner).join(parts)}{newline}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        parts = []
        for item in value:
            parts.append(_quote(item) if type(item) is str
                         else _json_text(item, inner))
        return f"[{inner}{(',' + inner).join(parts)}{newline}]"
    if kind is int:
        # json's own call: past the digit limit it raises the same
        # ValueError json.dumps would.
        return int.__repr__(value)
    raise _NotPlainJSON


def write_record(record: AttackRecord) -> str:
    """Serialize to the record file format (stable key order, trailing
    newline)."""
    return _indented_json(record_to_dict(record)) + "\n"


def _parse_created(value, where: str) -> datetime:
    if not isinstance(value, str):
        raise MalformedFileError(f"{where}: created must be a string")
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is not None:
            return stamp.astimezone(timezone.utc)  # OverflowError too
    except (ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{where}: bad timestamp {value!r}") from exc
    raise MalformedFileError(f"{where}: timestamp {value!r} lacks a zone")


def _code_location(where: str, index: int | None) -> str:
    if index is None:
        return f"{where}.taxonomy"
    return f"{where}.selections[{index}].code"


def _parse_file_code(text, where: str, index: int | None) -> TaxonomyCode:
    """The code of application ``where``: its taxonomy when ``index`` is
    None, else selection ``index``.  The location in error messages is only
    built when one is raised."""
    if not isinstance(text, str):
        raise MalformedFileError(
            f"{_code_location(where, index)}: code must be a string")
    try:
        code = parse_code(text)
    except CodeSyntaxError as exc:
        raise MalformedFileError(
            f"{_code_location(where, index)}: {exc}") from exc
    if code.taxonomy not in KNOWN_TAXONOMIES:
        raise MalformedFileError(
            f"{_code_location(where, index)}: unknown taxonomy token "
            f"{code.taxonomy!r} in {text!r}")
    return code


def _application_from_dict(raw, where: str) -> TaxonomyApplication:
    if not isinstance(raw, dict):
        raise MalformedFileError(f"{where}: expected an object")
    for key in ("taxonomy", "selections"):
        if key not in raw:
            raise MalformedFileError(f"{where}: missing field {key!r}")
    taxonomy = _parse_file_code(raw["taxonomy"], where, None)
    label = raw.get("instance_label", "")
    if not isinstance(label, str):
        raise MalformedFileError(f"{where}.instance_label: must be a string")
    if not isinstance(raw["selections"], list):
        raise MalformedFileError(f"{where}.selections: must be a list")
    selections = []
    for i, raw_sel in enumerate(raw["selections"]):
        if not isinstance(raw_sel, dict) or "code" not in raw_sel:
            raise MalformedFileError(f"{where}.selections[{i}]: missing code")
        free_text = raw_sel.get("free_text")
        note = raw_sel.get("note")
        if free_text is not None and not isinstance(free_text, str):
            raise MalformedFileError(
                f"{where}.selections[{i}].free_text: must be a string")
        if note is not None and not isinstance(note, str):
            raise MalformedFileError(
                f"{where}.selections[{i}].note: must be a string")
        selections.append(Selection(
            _parse_file_code(raw_sel["code"], where, i), free_text, note))
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
    except (ValueError, RecursionError) as exc:
        raise MalformedFileError(f"not a JSON document: {exc}") from exc
    return record_from_dict(raw)
