"""STIX 2.1 interchange for attack records.

``to_stix`` renders a record into a bundle built around one extension
definition (named exactly ``taxidma v2``) that declares property extensions
for existing SDO types, three new SDO types (targeted-organization, device,
identity-management-category), and two new SCO types (social-engineering,
osint).  ``from_stix`` inverts the mapping and reports anything it could not
claim as residue.  ``validate_bundle`` checks bundle well-formedness and the
extension schema without touching the network.

One slot table, ``_SLOTS``, maps selections to object properties location
by location; emission, inversion and the extension schema are all derived
from it.  Leaf display names become lowercase hyphenated vocabulary tokens.
Locations without a row stay record-file-only and are excluded from the
round-trip contract: delivery (K.D), attack vector (K.V), target type
(T.T), target identity (T.I), identity type (I.T), permissions (I.P), the
IoT background's identity location (I.O) and IoT characteristics (T.H),
plus attacker amount (A.T.1), since attacker type maps only its profile
subtree.
"""
from __future__ import annotations

import re
import uuid
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .catalog import TEXT_KINDS, Catalog, _digest
from .codes import TaxonomyCode, format_code, parse_code
from .errors import (
    CodeSyntaxError,
    InvalidCodeError,
    InvalidRecordError,
    MalformedBundleError,
    UnknownExtensionVersionError,
    UnknownPathError,
)
from .record import (
    AttackRecord,
    Selection,
    TaxonomyApplication,
    _as_taxonomy_code,
    _indented_json,
    _utc_stamp,
    validate_record,
)

# Fixed project namespace: uuid5(NAMESPACE_DNS, "taxidma.dev").
TAXIDMA_NAMESPACE = uuid.UUID("40a0c143-a316-5052-b363-2cdd1c501205")
_NAMESPACE_BYTES = TAXIDMA_NAMESPACE.bytes
EXTENSION_NAME = "taxidma v2"
# uuid5(TAXIDMA_NAMESPACE, EXTENSION_NAME)
EXTENSION_DEFINITION_ID = \
    "extension-definition--a51e152c-67ff-531e-b988-f34913034e41"
# uuid5(TAXIDMA_NAMESPACE, "taxidma project")
CREATOR_ID = "identity--91c6cd69-1cd2-595e-8cae-fa6ead52d2c1"
SPEC_VERSION = "2.1"
KILL_CHAIN_NAME = "mitre-attack"
EXTERNAL_SOURCE_NAME = "TaxIdMA"
PATTERN_TYPE = "taxidma-code"
UNSPECIFIED = "unspecified"

_EXTENSION_CREATED = "2024-01-01T00:00:00.000Z"

STIX_ID_RE = re.compile(
    r"\A[a-z][a-z0-9-]*--[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-"
    r"[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\Z")
_TIMESTAMP_RE = re.compile(
    r"\A\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?Z\Z")
_CVE_RE = re.compile(r"\ACVE-\d{4}-\d{4,}\Z")

# The eleven account-type values STIX 2.1 ships with, plus the four this
# extension adds.
_NATIVE_ACCOUNT_TYPES = (
    "facebook", "ldap", "nis", "openid", "radius", "skype", "tacacs",
    "twitter", "unix", "windows-local", "windows-domain",
)
_ADDED_ACCOUNT_TYPES = ("microsoft", "linux", "iot", "mobile")

# The two SCO types this extension introduces, each derived from the
# attack-type token that triggers it.
_DERIVED_SCOS = {"social-engineering": "social-engineering",
                 "osint": "osint-based"}

_SCO_TYPES = {
    "artifact", "autonomous-system", "directory", "domain-name", "email-addr",
    "email-message", "file", "ipv4-addr", "ipv6-addr", "mac-addr", "mutex",
    "network-traffic", "process", "software", "url", "user-account",
    "windows-registry-key", "x509-certificate", *_DERIVED_SCOS,
}

COMMON_PROPS = {
    "type", "spec_version", "id", "created", "modified", "created_by_ref",
    "revoked", "labels", "confidence", "lang", "external_references",
    "object_marking_refs", "granular_markings", "extensions", "name",
    "description", "defanged",
}

# -- the slot table -----------------------------------------------------------

_BG, _APP = "background", "application"


@dataclass(frozen=True, eq=False)
class _Slot:
    """Where the selections under one catalog location travel in STIX.

    A selection in one of ``scopes`` whose code lies under (category, item,
    leaf ``prefix``) becomes a vocabulary token in ``prop`` of the scope's
    ``object_type`` object, inside the extension payload when ``nested``.
    ``prop`` holds a list, unless ``overflow`` is set: then it holds the
    first token and ``overflow`` (placed by ``overflow_nested``) the rest.
    """

    scopes: tuple[str, ...]
    category: str
    item: str
    prefix: tuple[int, ...]
    object_type: str
    prop: str
    nested: bool = False
    overflow: str | None = None
    overflow_nested: bool = False

    def placements(self) -> tuple[tuple[str, bool], ...]:
        """(property, inside the extension) for each property filled."""
        if self.overflow is None:
            return ((self.prop, self.nested),)
        return ((self.prop, self.nested),
                (self.overflow, self.overflow_nested))


# Rows of one object type are in property order: serialize_bundle keeps
# insertion order, so this order is the emitted key order.
_SLOTS = (
    _Slot((_BG,), "A", "T", (2,), "threat-actor", "threat_actor_types"),
    _Slot((_BG,), "A", "C", (1,), "threat-actor", "primary_motivation",
          overflow="secondary_motivations"),
    _Slot((_BG,), "A", "C", (2,), "threat-actor", "resource_level",
          overflow="additional_resource_levels", overflow_nested=True),
    _Slot((_BG,), "A", "C", (3,), "threat-actor", "sophistication",
          overflow="additional_sophistications", overflow_nested=True),
    # Named "domain" instead where the item's display name is Domain.
    _Slot((_BG,), "T", "S", (), "targeted-organization", "sector"),
    _Slot((_BG,), "A", "C", (4,), "intrusion-set", "capabilities",
          nested=True),
    _Slot((_BG,), "K", "M", (), "intrusion-set", "impact", nested=True),
    _Slot((_BG,), "K", "R", (), "intrusion-set", "results", nested=True),
    _Slot((_APP,), "I", "E", (), "identity", "completeness", nested=True),
    _Slot((_APP,), "I", "S", (), "identity", "timeliness", nested=True),
    _Slot((_APP,), "I", "N", (), "identity", "directness", nested=True),
    _Slot((_APP,), "I", "U", (), "identity", "amount", nested=True),
    _Slot((_BG,), "I", "A", (), "identity", "authenticity", nested=True),
    _Slot((_BG, _APP), "K", "T", (), "attack-pattern", "attack_type",
          nested=True),
    _Slot((_APP,), "K", "B", (), "attack-pattern", "identity_pattern",
          nested=True),
    # Each token wrapped as a kill-chain phase.
    _Slot((_APP,), "I", "L", (), "attack-pattern", "kill_chain_phases"),
    _Slot((_APP,), "K", "G", (), "indicator", "attack_category",
          nested=True),
    _Slot((_APP,), "T", "L", (), "device", "level"),
    _Slot((_APP,), "T", "O", (), "device", "location"),
    _Slot((_APP,), "T", "V", (), "device", "device_category"),
)

# (scope, category, item) -> the rows there; object type -> its rows.
_SLOTS_AT: dict[tuple[str, str, str], list[_Slot]] = {}
_SLOTS_OF: dict[str, list[_Slot]] = {}
for _slot in _SLOTS:
    for _where in _slot.scopes:
        _SLOTS_AT.setdefault((_where, _slot.category, _slot.item),
                             []).append(_slot)
    _SLOTS_OF.setdefault(_slot.object_type, []).append(_slot)


def _schema(object_type: str, new_sdo: bool, *extra: str) -> frozenset[str]:
    """The properties this extension allows a type where the type keeps
    them: top-level beside the common ones on a new SDO type, in the payload
    beside ``extension_type`` otherwise.  They are the table's properties
    placed there, the scope markers (``taxonomy``, and ``application_index``
    when an application scope can fill the type) and ``extra``."""
    slots = _SLOTS_OF.get(object_type, ())
    markers = ("taxonomy", "application_index") if any(
        _APP in slot.scopes for slot in slots) else ("taxonomy",)
    return frozenset((
        *(COMMON_PROPS if new_sdo else ("extension_type",)),
        *(prop for slot in slots for prop, inside in slot.placements()
          if inside != new_sdo), *markers, *extra))


_NAME, _BARE = ("name",), frozenset(("extension_type",))

# What each object type may carry: (required properties, allowed top-level
# properties or None when unchecked, allowed payload properties of this
# extension or None when the type takes none, the extension type the
# object must declare or None).  ``taxonomy`` and ``application_index``
# tie an object back to the record structure.
_KINDS: dict[str, tuple] = {
    "attack-pattern": (_NAME, None, _schema("attack-pattern", False), None),
    "campaign": (_NAME, None, None, None),
    "identity": (_NAME, None, _schema("identity", False), None),
    "incident": (_NAME, None, None, None),
    "indicator": (("pattern", "pattern_type", "valid_from"), None,
                  _schema("indicator", False), None),
    "intrusion-set": (_NAME, None, _schema("intrusion-set", False), None),
    "threat-actor": (_NAME, None, _schema("threat-actor", False), None),
    "vulnerability": (_NAME, None, _schema("vulnerability", False, "code"),
                      None),
    "relationship": (("relationship_type", "source_ref", "target_ref"),
                     None, None, None),
    "extension-definition": (("name", "schema", "version", "extension_types",
                              "created_by_ref"), None, None, None),
    # "domain" is the renamed sector, the rest is never emitted, and the
    # category object has no rows but is emitted per application.
    "targeted-organization": (_NAME, _schema(
        "targeted-organization", True, "domain", "description", "size"),
        _BARE, "new-sdo"),
    "device": (_NAME, _schema("device", True), _BARE, "new-sdo"),
    "identity-management-category": (_NAME, _schema(
        "identity-management-category", True, "description", "vendor",
        "protocol", "version", "indicator", "cpe", "swid", "languages",
        "kill_chain_phase", "application_index"), _BARE, "new-sdo"),
    **dict.fromkeys(_DERIVED_SCOS, (("value",), None, _BARE, "new-sco")),
}
_NO_KIND = ((), None, None, None)

# Taxidma vocabulary properties that must never sit top-level on a standard
# STIX type: in flagging order, and as a set for the common all-clear.
_NESTED_ONLY_PROPS = tuple(dict.fromkeys(
    prop for slot in _SLOTS for prop, inside in slot.placements()
    if inside))
_NESTED_ONLY = frozenset(_NESTED_ONLY_PROPS)

_IDENTITY_CLASS = {"BG": "unknown", "SI": "system", "IMS": "system",
                   "UE": "individual"}

_EXTENSION_TYPES = frozenset((
    "new-sdo", "new-sco", "new-sro", "property-extension",
    "toplevel-property-extension"))
_ACCOUNT_TYPES = frozenset(_NATIVE_ACCOUNT_TYPES + _ADDED_ACCOUNT_TYPES)


@dataclass
class EmissionOptions:
    """Knobs for :func:`to_stix`.

    ``deterministic_ids`` derives every identifier from the record id so two
    runs emit byte-identical bundles; the default mints random UUIDs.
    ``campaign`` additionally wraps the record in a campaign object.
    """

    deterministic_ids: bool = False
    campaign: bool = False


@dataclass(frozen=True)
class BundleViolation:
    rule: str
    object_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.object_id}: {self.message}"


@dataclass(frozen=True)
class ResidueEntry:
    object_id: str
    object_type: str
    reason: str


def extended_account_type_vocabulary() -> list[str]:
    """The account-type open vocabulary including this extension's values."""
    return list(_NATIVE_ACCOUNT_TYPES) + list(_ADDED_ACCOUNT_TYPES)


def extension_definition() -> dict:
    """The constant extension-definition object every bundle embeds."""
    return {
        "type": "extension-definition",
        "spec_version": SPEC_VERSION,
        "id": EXTENSION_DEFINITION_ID,
        "created_by_ref": CREATOR_ID,
        "created": _EXTENSION_CREATED,
        "modified": _EXTENSION_CREATED,
        "name": EXTENSION_NAME,
        "description": "Identity-attack taxonomy properties, three SDO "
                       "types for targets, and two observable types for "
                       "attack techniques.",
        "schema": "https://taxidma.dev/schemas/taxidma-v2.json",
        "version": "2.0",
        "extension_types": ["new-sdo", "new-sco", "property-extension"],
    }


# -- value vocabulary ---------------------------------------------------------


def _hyphenate(name: str) -> str:
    return name.lower().replace(" ", "-")


class VocabularyTables:
    """Per-location token tables with parent-prefix disambiguation.

    A location's table reads its subtree of the catalog index
    (:meth:`Catalog.subtree`): code texts from the keys, leaf names from
    each entry's chain.  One instance lives on each catalog, as
    :attr:`Catalog.vocabulary`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._cache: dict[tuple, tuple[dict, dict]] = {}
        # (scope kind, canonical text) -> plan, filled by ``_plan``.
        self._plans: dict[tuple[str, str], object] = {}

    def _build(self, tax_key: str, category: str, item_code: str,
               prefix: tuple[int, ...]) -> tuple[dict, dict]:
        profile, _, tax = tax_key.rpartition(":")
        # As a code, so a bad marker raises InvalidCodeError or UnknownPathError.
        (base, (*_, top)), *run = self.catalog.subtree(TaxonomyCode(
            tax, category, item_code, prefix, profile or None))
        tokens = {code: _hyphenate(chain[-1].name) for code, (*_, chain) in run}
        # The leaf tokens between each code and the location, nearest last.
        parents = {code: [_hyphenate(leaf.name)
                          for leaf in chain[len(top):-1]]
                   for code, (*_, chain) in run}
        while True:
            counts = Counter(tokens.values())
            clashing = [code for code, token in tokens.items()
                        if counts[token] > 1 or token == UNSPECIFIED]
            if not clashing:
                break
            if not any(parents[code] for code in clashing):
                raise InvalidRecordError(
                    f"cannot derive distinct vocabulary tokens under {base}")
            for code in clashing:
                if parents[code]:
                    tokens[code] = f"{parents[code].pop()}-{tokens[code]}"

        code_to_token = {base: UNSPECIFIED, **tokens}
        return code_to_token, {t: c for c, t in code_to_token.items()}

    def _tables(self, *key) -> tuple[dict, dict]:
        tables = self._cache.get(key)
        if tables is None:
            tables = self._cache[key] = self._build(*key)
        return tables

    def code_for(self, tax_key: str, category: str, item_code: str,
                 prefix: tuple[int, ...], token: str) -> str | None:
        return self._tables(tax_key, category, item_code, prefix)[1].get(token)


# -- scopes -------------------------------------------------------------------


@dataclass
class _Scope:
    """Mapped values collected for the background or one application."""

    tag: str  # "background" or "app<N>"
    index: int | None  # None for the background
    tax_key: str
    label: str
    is_ims: bool = False
    values: dict[_Slot, list[str]] = field(default_factory=dict)
    filled: set[str] = field(default_factory=set)  # types with values
    vulnerabilities: list[Selection] = field(default_factory=list)
    # (scope tag, taxonomy key, canonical code, free_text)
    mapped: list[tuple[str, str, str, str | None]] = field(
        default_factory=list)
    # The first mapped attack-category (K.G) code: the indicator's pattern.
    indicator_code: str | None = None


# What a selection becomes in STIX: one of these two, or (slot, token).
_UNMAPPED, _VULNERABILITY = "unmapped", "vulnerability"


def _plan(catalog: Catalog, where: str, tax_key: str, code: TaxonomyCode,
          text: str):
    """The STIX plan of a selection of a valid record, memoized on the
    catalog's vocabulary tables.  In a valid record the canonical text
    already fixes the taxonomy key."""
    vocabulary = catalog.vocabulary
    plan = vocabulary._plans.get((where, text))
    if plan is not None:
        return plan
    _, _, item, _ = catalog.resolve(text)
    if item.kind in TEXT_KINDS:
        plan = _VULNERABILITY if where == _BG and code.category == "K" \
            else _UNMAPPED
    else:
        slot = next((slot for slot in _SLOTS_AT.get(
            (where, code.category, code.item), ())
            if code.leaf_path[:len(slot.prefix)] == slot.prefix), None)
        plan = _UNMAPPED if slot is None else (
            slot, vocabulary._tables(tax_key, code.category, code.item,
                                     slot.prefix)[0][text])
    vocabulary._plans[where, text] = plan
    return plan


def _collect_scope(catalog: Catalog, scope_index: int | None,
                   application: TaxonomyApplication) -> _Scope:
    tax_key = application.taxonomy.taxonomy_key
    is_background = scope_index is None
    scope = _Scope(
        tag="background" if is_background else f"app{scope_index}",
        index=scope_index,
        tax_key=tax_key,
        label=application.instance_label or
        ("background" if is_background else f"application {scope_index}"),
        is_ims=application.taxonomy.taxonomy == "IMS",
    )
    where = _BG if is_background else _APP
    for selection in application.selections:
        code = selection.code
        text = format_code(code)
        plan = _plan(catalog, where, tax_key, code, text)
        if plan is _UNMAPPED:
            continue
        if plan is _VULNERABILITY:
            scope.vulnerabilities.append(selection)
        else:
            slot, token = plan
            scope.values.setdefault(slot, []).append(token)
            scope.filled.add(slot.object_type)
        scope.mapped.append((scope.tag, tax_key, text, selection.free_text))
        if scope.indicator_code is None and (code.category, code.item) == (
                "K", "G"):
            scope.indicator_code = text
    return scope


def _checked_scopes(catalog: Catalog, record: AttackRecord,
                    problem: str) -> list[_Scope]:
    """The background's scope, then one per application, of a record that
    validates; :class:`InvalidRecordError` saying ``problem`` otherwise."""
    report = validate_record(record, catalog)
    if not report.ok:
        raise InvalidRecordError(
            f"record {record.record_id} {problem} with "
            f"{len(report.errors)} validation error(s)", report)
    return [_collect_scope(catalog, None, record.background)] + [
        _collect_scope(catalog, index, application)
        for index, application in enumerate(record.applications)]


def mapped_selections(record: AttackRecord, catalog: Catalog
                      ) -> list[tuple[str, str, str, str | None]]:
    """(scope tag, taxonomy key, code, free_text) for every selection the
    STIX mapping carries; everything else is record-file-only.  The
    round-trip contract is over this list grouped by scope tag: the same
    scopes (up to application renumbering) holding the same multisets of
    (taxonomy key, code, free_text).

    Raises :class:`InvalidRecordError` when the record has validation
    errors.
    """
    return [entry for scope in _checked_scopes(
        catalog, record, "cannot be mapped") for entry in scope.mapped]


# -- emission -----------------------------------------------------------------


def _uuid5_text(name: str) -> str:
    """``str(uuid.uuid5(TAXIDMA_NAMESPACE, name))`` (RFC 4122 section 4.3),
    without building a ``uuid.UUID``."""
    digest = bytearray(_digest("sha1")(
        _NAMESPACE_BYTES + name.encode("utf-8"),
        usedforsecurity=False).digest()[:16])
    digest[6] = digest[6] & 0x0F | 0x50  # version 5
    digest[8] = digest[8] & 0x3F | 0x80  # RFC 4122 variant
    text = digest.hex()
    return f"{text[:8]}-{text[8:12]}-{text[12:16]}-{text[16:20]}-{text[20:]}"


def _base_object(object_type: str, object_id: str, stamp: str,
                 name: str | None = None) -> dict:
    out = {
        "type": object_type,
        "spec_version": SPEC_VERSION,
        "id": object_id,
        "created": stamp,
        "modified": stamp,
    }
    if name is not None:
        out["name"] = name
    return out


def _attach(obj: dict, payload: dict) -> dict:
    obj["extensions"] = {EXTENSION_DEFINITION_ID: payload}
    return obj


def _build(object_type: str, object_id: str, stamp: str, name: str,
           scope: _Scope, rename: dict[str, str], extras: dict) -> dict:
    """An object of a table-mapped type, filled from ``scope``.

    The type's top-level slot properties come first, in row order (with
    ``rename`` applied), then ``extras``.  A new SDO type then takes the
    scope markers top-level and a bare new-sdo extension; an existing type
    takes them, followed by its extension-placed slot properties, in a
    property extension.
    """
    obj = _base_object(object_type, object_id, stamp, name)
    nested: dict = {}
    for slot in _SLOTS_OF.get(object_type, ()):
        tokens = scope.values.get(slot)
        if not tokens:
            continue
        values = (tokens[0], tokens[1:]) if slot.overflow else (tokens,)
        for (prop, inside), value in zip(slot.placements(), values):
            if value:
                (nested if inside else obj)[rename.get(prop, prop)] = value
    obj.update(extras)
    markers: dict = {"taxonomy": scope.tax_key}
    if scope.index is not None:
        markers["application_index"] = scope.index
    if _KINDS[object_type][3] == "new-sdo":
        obj.update(markers)
        return _attach(obj, {"extension_type": "new-sdo"})
    return _attach(obj, {"extension_type": "property-extension", **markers,
                         **nested})


def to_stix(record: AttackRecord, catalog: Catalog,
            options: EmissionOptions | None = None) -> dict:
    """Render a validated record as a STIX 2.1 bundle (a plain dict).

    Raises :class:`InvalidRecordError` when the record has validation
    errors.
    """
    options = options or EmissionOptions()
    scopes = _checked_scopes(catalog, record, "cannot be serialized")
    background = scopes[0]

    def mint(object_type: str, tag: str, ordinal: int = 0) -> str:
        if options.deterministic_ids:
            return f"{object_type}--" + _uuid5_text(
                f"{record.record_id}|{object_type}|{tag}|{ordinal}")
        return f"{object_type}--{uuid.uuid4()}"

    stamp = _utc_stamp(record.created, "milliseconds")
    objects: list[dict] = [extension_definition()]

    incident = _base_object("incident", mint("incident", "record"), stamp,
                            record.title)
    incident["description"] = record.description
    objects.append(incident)

    relationships: list[tuple[str, str, str]] = []

    def relate(source: str | None, rel_type: str, target: str | None):
        if source and target:
            relationships.append((source, rel_type, target))

    def emit(object_type: str, scope: _Scope, tag: str, name: str,
             rename: dict[str, str] | None = None, **extras) -> dict:
        obj = _build(object_type, mint(object_type, tag), stamp, name,
                     scope, rename or {}, extras)
        objects.append(obj)
        return obj

    # Record-scoped objects, fed by the background scope.
    actor_id = org_id = set_id = campaign_id = None
    if "threat-actor" in background.filled:
        actor_id = emit("threat-actor", background, "record",
                        record.title)["id"]
    if "targeted-organization" in background.filled:
        org_id = emit("targeted-organization", background, "record",
                      record.title,
                      {"sector": catalog.resolve(
                          f"{background.tax_key}.T.S")[2].name.lower()})["id"]
    if "intrusion-set" in background.filled:
        set_id = emit("intrusion-set", background, "record",
                      record.title)["id"]

    if options.campaign:
        campaign_id = mint("campaign", "record")
        campaign = _base_object("campaign", campaign_id, stamp, record.title)
        campaign["description"] = record.description
        objects.append(campaign)
        relate(campaign_id, "attributed-to", set_id)

    vulnerability_ids = []
    for ordinal, selection in enumerate(background.vulnerabilities):
        vul_id = mint("vulnerability", "record", ordinal)
        vulnerability_ids.append(vul_id)
        vul = _base_object("vulnerability", vul_id, stamp,
                           selection.free_text)
        if selection.note:
            vul["description"] = selection.note
        if _CVE_RE.match(selection.free_text or ""):
            vul["external_references"] = [{
                "source_name": "cve",
                "external_id": selection.free_text,
            }]
        objects.append(_attach(vul, {
            "extension_type": "property-extension",
            "taxonomy": background.tax_key,
            "code": format_code(selection.code)}))

    # Scope-local objects: identity, attack-pattern, indicator, device,
    # identity-management-category, derived observables.
    for scope in scopes:
        identity_id = pattern_id = None
        if "identity" in scope.filled:
            _, _, tax = scope.tax_key.rpartition(":")
            identity_id = emit(
                "identity", scope, scope.tag, scope.label,
                identity_class=_IDENTITY_CLASS.get(tax, "unknown"))["id"]
            relate(actor_id, "targets", identity_id)

        if "attack-pattern" in scope.filled:
            pattern = emit("attack-pattern", scope, scope.tag, scope.label,
                           external_references=[{
                               "source_name": EXTERNAL_SOURCE_NAME,
                               "external_id": scope.tax_key,
                           }])
            if "kill_chain_phases" in pattern:
                pattern["kill_chain_phases"] = [
                    {"kill_chain_name": KILL_CHAIN_NAME, "phase_name": token}
                    for token in pattern["kill_chain_phases"]]
            pattern_id = pattern["id"]
            relate(actor_id, "uses", pattern_id)
            relate(pattern_id, "targets", identity_id)
            if scope.index is None:
                for vul_id in vulnerability_ids:
                    relate(pattern_id, "targets", vul_id)
            relate(campaign_id, "uses", pattern_id)

        if "indicator" in scope.filled:
            indicator = emit("indicator", scope, scope.tag, scope.label,
                             pattern=scope.indicator_code,
                             pattern_type=PATTERN_TYPE, valid_from=stamp)
            relate(indicator["id"], "indicates", pattern_id)

        if "device" in scope.filled:
            device = emit("device", scope, scope.tag, scope.label)
            relate(pattern_id, "targets", device["id"])

        if scope.is_ims:
            category = emit("identity-management-category", scope,
                            scope.tag, scope.label)
            relate(pattern_id, "targets", category["id"])

        attack_tokens = next((tokens for slot, tokens in scope.values.items()
                              if slot.prop == "attack_type"), [])
        for sco_type, value in _DERIVED_SCOS.items():
            if value in attack_tokens:
                sco_id = mint(sco_type, scope.tag)
                objects.append(_attach(
                    {"type": sco_type, "id": sco_id, "value": value},
                    {"extension_type": "new-sco"}))
                relate(sco_id, "related-to", identity_id or pattern_id)

    relate(actor_id, "targets", org_id)

    for source, rel_type, target in relationships:
        rel_id = mint("relationship",
                      f"{rel_type}|{source}|{target}")
        rel = _base_object("relationship", rel_id, stamp)
        rel["relationship_type"] = rel_type
        rel["source_ref"] = source
        rel["target_ref"] = target
        objects.append(rel)

    return {
        "type": "bundle",
        "id": mint("bundle", "record"),
        "objects": objects,
    }


def serialize_bundle(bundle: dict) -> str:
    """Canonical text form (stable key order, two-space indent)."""
    return _indented_json(bundle) + "\n"


# -- inversion ----------------------------------------------------------------


def _taxidma_extension(obj: dict) -> dict | None:
    extensions = obj.get("extensions")
    if isinstance(extensions, dict):
        payload = extensions.get(EXTENSION_DEFINITION_ID)
        if isinstance(payload, dict):
            return payload
    return None


def _scope_markers(obj: dict, payload: dict) -> tuple[str | None, int | None]:
    """(taxonomy key, application index), from ``payload`` or else ``obj``."""
    taxonomy = payload.get("taxonomy", obj.get("taxonomy"))
    index = payload.get("application_index", obj.get("application_index"))
    if not isinstance(taxonomy, str):
        taxonomy = None
    if not isinstance(index, int) or isinstance(index, bool):
        index = None
    return taxonomy, index


def _parse_stamp(value) -> datetime | None:
    """The instant a STIX timestamp names, or None for anything else: the
    text must match the RFC 3339 UTC pattern and name a real date and time.
    A leap second (``:60``) is refused, since ``datetime`` cannot hold it."""
    if not isinstance(value, str) or not _TIMESTAMP_RE.match(value):
        return None
    text = value[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text).astimezone(timezone.utc)
    except ValueError:
        return None


def _parse_tax_key(value: str | None, default: str = "BG"
                   ) -> TaxonomyCode | None:
    try:
        return _as_taxonomy_code(parse_code(
            default if value is None else value))
    except (CodeSyntaxError, InvalidCodeError):
        return None


class _Inverter:
    """Accumulates selections per scope while consuming bundle objects."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        # application index (None: the background) -> [first taxonomy
        # marker, first name, selections]
        self.scopes: dict[int | None, list] = {}
        self.residue: list[ResidueEntry] = []

    def reject(self, obj: dict, reason: str) -> None:
        """Record ``obj`` (or one of its values) as residue."""
        self.residue.append(ResidueEntry(
            str(obj.get("id")), str(obj.get("type")), reason))

    def _target(self, obj: dict, payload: dict) -> tuple[str, list[Selection]]:
        taxonomy, index = _scope_markers(obj, payload)
        scope = self.scopes.setdefault(index, [None, None, []])
        if scope[0] is None and taxonomy:
            scope[0] = taxonomy
        if scope[1] is None and isinstance(obj.get("name"), str):
            scope[1] = obj["name"]
        return scope[0] or ("BG" if index is None else "SI"), scope[2]

    def _decode(self, obj: dict, tax_key: str, slot: _Slot, tokens,
                sink: list[Selection]):
        if isinstance(tokens, str):
            tokens = [tokens]
        if not isinstance(tokens, list):
            return
        code_for = self.catalog.vocabulary.code_for
        for token in tokens:
            code_text = None
            if isinstance(token, str):
                try:
                    code_text = code_for(
                        tax_key, slot.category, slot.item, slot.prefix, token)
                except (InvalidCodeError, UnknownPathError,
                        InvalidRecordError):
                    pass  # an unusable taxonomy marker: residue below
            if code_text is None:
                self.reject(obj, f"value {token!r} has no {tax_key}."
                                 f"{slot.category}.{slot.item} equivalent")
                continue
            sink.append(Selection(parse_code(code_text)))

    def consume(self, obj: dict) -> bool:
        """True when the object contributed to the record."""
        obj_type = obj["type"]
        if obj_type == "campaign":
            return True  # emission option marker; carries no selections
        payload = _taxidma_extension(obj)
        _, _, allowed, declares = _KINDS.get(obj_type, _NO_KIND)
        if payload is None or allowed is None:
            # Without our extension, or bearing it on a type we do not
            # map: residue.
            return False
        if declares == "new-sco":
            return True  # derived from attack_type; nothing to recover
        # Every other type at least marks its scope (an
        # identity-management-category object carries nothing else).
        tax_key, sink = self._target(obj, payload)
        if obj_type == "vulnerability":
            self._take_vulnerability(obj, payload, sink)
        for slot in _SLOTS_OF.get(obj_type, ()):
            tokens = _slot_tokens(obj, payload, slot)
            if tokens is not None:  # an absent property decodes to nothing
                self._decode(obj, tax_key, slot, tokens, sink)
        return True

    def _take_vulnerability(self, obj: dict, payload: dict,
                            sink: list[Selection]) -> None:
        code_text = payload.get("code")
        try:
            code = parse_code(code_text)
            self.catalog.resolve(code)
        except (CodeSyntaxError, InvalidCodeError, UnknownPathError):
            self.reject(obj, f"unusable code marker {code_text!r}")
            return
        name, note = obj.get("name"), obj.get("description")
        for field_name, value in (("name", name), ("description", note)):
            if value is not None and not isinstance(value, str):
                self.reject(obj, f"{field_name} is not a string")
                return
        if not name:  # the code's free-text item requires a name
            self.reject(obj, "name is missing or empty")
            return
        sink.append(Selection(code, free_text=name, note=note))


def _slot_tokens(obj: dict, payload: dict, slot: _Slot):
    """What ``slot``'s properties hold on ``obj``, as _decode takes it."""
    if slot.prop == "sector":
        return obj.get("sector", obj.get("domain"))
    if slot.prop == "kill_chain_phases":
        phases = obj.get("kill_chain_phases")
        if not isinstance(phases, list):
            return None
        return [phase.get("phase_name") for phase in phases
                if isinstance(phase, dict)]
    value = (payload if slot.nested else obj).get(slot.prop)
    if slot.overflow is None:
        return value
    extra = (payload if slot.overflow_nested else obj).get(slot.overflow)
    return ([value] if isinstance(value, str) else []) + \
        (extra if isinstance(extra, list) else [])


def from_stix(bundle: dict, catalog: Catalog
              ) -> tuple[AttackRecord, list[ResidueEntry]]:
    """Rebuild a record from a bundle.

    Returns the record and the residue: objects (or single values) that
    carried no recoverable taxonomy content.  Structural problems raise
    :class:`MalformedBundleError`; a bundle that names the extension under a
    different id raises :class:`UnknownExtensionVersionError`.
    """
    if not isinstance(bundle, dict) or bundle.get("type") != "bundle":
        raise MalformedBundleError("not a STIX bundle object")
    bundle_id = bundle.get("id")
    if not isinstance(bundle_id, str) or not STIX_ID_RE.match(bundle_id):
        raise MalformedBundleError(f"bad bundle id {bundle_id!r}")
    objects = bundle.get("objects")
    if not isinstance(objects, list):
        raise MalformedBundleError("bundle.objects must be a list")
    for position, obj in enumerate(objects):
        if not isinstance(obj, dict) or not isinstance(obj.get("type"), str) \
                or not isinstance(obj.get("id"), str):
            raise MalformedBundleError(
                f"objects[{position}]: not a STIX object")

    inverter = _Inverter(catalog)
    consumed_ids: set[str] = set()
    relationships: list[dict] = []
    incident: dict | None = None

    for obj in objects:
        obj_type = obj["type"]
        if obj_type == "extension-definition":
            if obj.get("name") == EXTENSION_NAME:
                if obj.get("id") != EXTENSION_DEFINITION_ID:
                    raise UnknownExtensionVersionError(
                        f"extension {EXTENSION_NAME!r} declared under "
                        f"{obj.get('id')!r}; this reader supports only "
                        f"{EXTENSION_DEFINITION_ID}")
                consumed_ids.add(obj["id"])
            else:
                inverter.reject(obj, "foreign extension definition")
            continue
        if obj_type == "relationship":
            relationships.append(obj)
            continue
        if obj_type == "incident" and incident is None:
            incident = obj
            consumed_ids.add(obj["id"])
            continue
        if inverter.consume(obj):
            consumed_ids.add(obj["id"])
        else:
            inverter.reject(obj, "no taxonomy content")

    for rel in relationships:
        source, target = rel.get("source_ref"), rel.get("target_ref")
        if isinstance(source, str) and source in consumed_ids and \
                isinstance(target, str) and target in consumed_ids:
            continue
        inverter.reject(
            rel, "references an object that is not part of the record")

    record_id = f"stix-{bundle_id.split('--', 1)[1]}"
    created = None
    if incident is not None:
        created = _parse_stamp(incident.get("created"))
    if created is None:
        for obj in objects:
            created = _parse_stamp(obj.get("created"))
            if created:
                break
    taxonomy, _, selections = inverter.scopes.pop(None, (None, None, []))
    background_code = _parse_tax_key(taxonomy)
    if background_code is None or background_code.taxonomy != "BG":
        background_code = TaxonomyCode("BG")

    texts = {}  # the incident's name and description, or their fallbacks
    for prop, fallback in (("name", "imported STIX bundle"),
                           ("description", "")):
        value = (incident or {}).get(prop)
        if value is not None and not isinstance(value, str):
            inverter.reject(incident, f"{prop} is not a string")
            value = None
        texts[prop] = value or fallback

    record = AttackRecord(
        record_id=record_id,
        title=texts["name"],
        description=texts["description"],
        sources=[],
        created=created or datetime.now(timezone.utc).replace(microsecond=0),
        background=TaxonomyApplication(background_code, "background",
                                       selections),
    )
    for index in sorted(inverter.scopes):
        taxonomy, label, selections = inverter.scopes[index]
        tax_code = _parse_tax_key(taxonomy, default="SI") or TaxonomyCode("SI")
        record.applications.append(TaxonomyApplication(
            tax_code, label or f"application {index}", selections))
    return record, inverter.residue


# -- validation ---------------------------------------------------------------


def validate_bundle(bundle) -> list[BundleViolation]:
    """Well-formedness and extension-schema checks; empty list = clean."""
    out: list[BundleViolation] = []

    def flag(rule: str, object_id: str, message: str) -> None:
        out.append(BundleViolation(rule, object_id, message))

    if not isinstance(bundle, dict) or bundle.get("type") != "bundle":
        return [BundleViolation("bundle-shape", "<bundle>",
                                "not a bundle object")]
    bundle_id = bundle.get("id")
    if not isinstance(bundle_id, str) or not STIX_ID_RE.match(bundle_id) \
            or not bundle_id.startswith("bundle--"):
        flag("bundle-shape", str(bundle_id), "bad bundle id")
    objects = bundle.get("objects")
    if not isinstance(objects, list):
        flag("bundle-shape", str(bundle_id), "objects must be a list")
        return out

    seen_ids: dict[str, int] = {}  # id -> position of its first object
    stamps: set[str] = set()  # timestamps already parsed in this call
    relationships: list[tuple[str, dict]] = []
    uses_extension = False

    for position, obj in enumerate(objects):
        oid = obj.get("id") if isinstance(obj, dict) else None
        label = str(oid or f"objects[{position}]")
        if not isinstance(obj, dict):
            flag("object-shape", label, "not an object")
            continue
        obj_type = obj.get("type")
        if not isinstance(obj_type, str) or not obj_type:
            flag("object-shape", label, "missing type")
            continue
        if not isinstance(oid, str) or not STIX_ID_RE.match(oid):
            flag("id-grammar", label, f"bad id {oid!r}")
        else:
            if not oid.startswith(obj_type + "--"):
                flag("id-grammar", oid,
                     f"id prefix does not match type {obj_type!r}")
            if oid in seen_ids:
                flag("duplicate-id", oid,
                     f"already used at objects[{seen_ids[oid]}]")
            else:
                seen_ids[oid] = position
        if obj_type == "relationship":
            relationships.append((label, obj))

        is_sco = obj_type in _SCO_TYPES
        if not is_sco:
            for prop in ("spec_version", "created", "modified"):
                if prop not in obj:
                    flag("required-common", label, f"missing {prop}")
            for prop in ("created", "modified"):
                value = obj.get(prop)
                if prop not in obj or type(value) is str and value in stamps:
                    continue
                if _parse_stamp(value) is None:  # what from_stix refuses
                    flag("timestamp-format", label, f"{prop} {value!r} "
                         "is not an RFC 3339 UTC stamp")
                else:
                    stamps.add(value)

        required, allowed_top, allowed, declares = _KINDS.get(obj_type,
                                                              _NO_KIND)
        for prop in required:
            if prop not in obj:
                flag("required-props", label,
                     f"{obj_type} requires {prop!r}")

        extensions = obj.get("extensions")
        own = None  # this extension's payload on the object
        if extensions is not None and not isinstance(extensions, dict):
            flag("extension-declared", label, "extensions must be a map")
        elif extensions:
            for ext_id, payload in extensions.items():
                if ext_id != EXTENSION_DEFINITION_ID and (
                        not isinstance(ext_id, str)
                        or not STIX_ID_RE.match(ext_id)
                        or not ext_id.startswith("extension-definition--")):
                    flag("extension-declared", label,
                         f"bad extension key {ext_id!r}")
                    continue
                if not isinstance(payload, dict):
                    flag("extension-declared", label,
                         "extension payload must be an object")
                    continue
                ext_type = payload.get("extension_type")
                if not isinstance(ext_type, str) or \
                        ext_type not in _EXTENSION_TYPES:
                    flag("extension-declared", label,
                         f"bad extension_type {ext_type!r}")
                if ext_id == EXTENSION_DEFINITION_ID:
                    uses_extension = True
                    own = payload
                    if allowed is None:
                        flag("taxidma-properties", label,
                             f"{obj_type} takes no taxidma extension")
                    elif not allowed.issuperset(payload):
                        for key in payload:
                            if key not in allowed:
                                flag("taxidma-properties", label,
                                     f"unknown extension property {key!r}")

        if allowed_top is not None:
            for key in obj:
                if key not in allowed_top:
                    flag("taxidma-properties", label,
                         f"unknown property {key!r} on {obj_type}")
        if declares is not None:
            if own is None or own.get("extension_type") != declares:
                flag("extension-not-declared", label,
                     f"{obj_type} must declare the {declares} extension")
        elif not _NESTED_ONLY.isdisjoint(obj):
            for key in _NESTED_ONLY_PROPS:
                if key in obj:
                    flag("extension-not-declared", label,
                         f"{key!r} must live inside the extension payload")

        if obj_type == "user-account":
            account_type = obj.get("account_type")
            if account_type is not None and (
                    not isinstance(account_type, str)
                    or account_type not in _ACCOUNT_TYPES):
                flag("account-type-vocab", label,
                     f"unknown account_type {account_type!r}")

    for label, obj in relationships:
        for end in ("source_ref", "target_ref"):
            ref = obj.get(end)
            if isinstance(ref, str):
                if ref not in seen_ids:
                    flag("relationship-refs", label,
                         f"{end} {ref!r} does not resolve in this bundle")
            elif end in obj:
                flag("relationship-refs", label,
                     f"{end} {ref!r} is not a string")

    if uses_extension and EXTENSION_DEFINITION_ID not in seen_ids:
        flag("extension-definition-present", EXTENSION_DEFINITION_ID,
             "objects use the extension but the bundle does not carry its "
             "definition")

    return out
