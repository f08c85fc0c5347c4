"""STIX 2.1 interchange for attack records.

``to_stix`` renders a record into a bundle built around one extension
definition (named exactly ``taxidma v2``) that declares property extensions
for existing SDO types, three new SDO types (targeted-organization, device,
identity-management-category), and two new SCO types (social-engineering,
osint).  ``from_stix`` inverts the mapping and reports anything it could not
claim as residue.  ``validate_bundle`` checks bundle well-formedness and the
extension schema without touching the network.

Selections map to object properties location by location; leaf display
names become lowercase hyphenated vocabulary tokens.  Locations with no
sensible STIX slot (delivery, attack vector, head-count, target/identity
types, IoT characteristics and identity location) stay record-file-only and
are excluded from the round-trip contract.
"""
from __future__ import annotations

import json
import re
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .catalog import Catalog, Leaf
from .codes import TaxonomyCode, format_code, parse_code
from .errors import (
    InvalidRecordError,
    MalformedBundleError,
    UnknownExtensionVersionError,
)
from .record import (
    AttackRecord,
    Selection,
    TaxonomyApplication,
    validate_record,
)

# Fixed project namespace: uuid5(NAMESPACE_DNS, "taxidma.dev").
TAXIDMA_NAMESPACE = uuid.UUID("40a0c143-a316-5052-b363-2cdd1c501205")
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

_SCO_TYPES = {
    "artifact", "autonomous-system", "directory", "domain-name", "email-addr",
    "email-message", "file", "ipv4-addr", "ipv6-addr", "mac-addr", "mutex",
    "network-traffic", "process", "software", "url", "user-account",
    "windows-registry-key", "x509-certificate", "social-engineering", "osint",
}

COMMON_PROPS = {
    "type", "spec_version", "id", "created", "modified", "created_by_ref",
    "revoked", "labels", "confidence", "lang", "external_references",
    "object_marking_refs", "granular_markings", "extensions", "name",
    "description", "defanged",
}

# Schemas of the three SDO types this extension introduces.  ``taxonomy``
# and ``application_index`` tie an object back to the record structure.
NEW_SDO_PROPERTIES = {
    "targeted-organization": {
        "required": ("name",),
        "optional": ("sector", "domain", "description", "size", "taxonomy"),
    },
    "device": {
        "required": ("name",),
        "optional": ("level", "location", "device_category", "taxonomy",
                     "application_index"),
    },
    "identity-management-category": {
        "required": ("name",),
        "optional": ("description", "vendor", "protocol", "version",
                     "indicator", "cpe", "swid", "languages",
                     "kill_chain_phase", "taxonomy", "application_index"),
    },
}

NEW_SCO_TYPES = ("social-engineering", "osint")

# Extension payload properties allowed per existing object type.
_EXTENSION_PROPS = {
    "threat-actor": {"taxonomy", "additional_resource_levels",
                     "additional_sophistications"},
    "identity": {"taxonomy", "application_index", "completeness",
                 "timeliness", "directness", "amount", "authenticity"},
    "attack-pattern": {"taxonomy", "application_index", "attack_type",
                       "identity_pattern"},
    "indicator": {"taxonomy", "application_index", "attack_category"},
    "intrusion-set": {"taxonomy", "capabilities", "impact", "results"},
    "vulnerability": {"taxonomy", "code"},
    "social-engineering": set(),
    "osint": set(),
    "targeted-organization": set(),
    "device": set(),
    "identity-management-category": set(),
}

# Taxidma vocabulary properties that must never sit top-level on a standard
# STIX type.
_NESTED_ONLY_PROPS = {
    "attack_type", "identity_pattern", "attack_category", "completeness",
    "timeliness", "directness", "amount", "authenticity", "capabilities",
    "impact", "results", "additional_resource_levels",
    "additional_sophistications",
}

_IDENTITY_CLASS = {"BG": "unknown", "SI": "system", "IMS": "system",
                   "UE": "individual"}

_REQUIRED_BY_TYPE = {
    "attack-pattern": ("name",),
    "campaign": ("name",),
    "identity": ("name",),
    "incident": ("name",),
    "indicator": ("pattern", "pattern_type", "valid_from"),
    "intrusion-set": ("name",),
    "threat-actor": ("name",),
    "vulnerability": ("name",),
    "relationship": ("relationship_type", "source_ref", "target_ref"),
    "extension-definition": ("name", "schema", "version", "extension_types",
                             "created_by_ref"),
    "targeted-organization": ("name",),
    "device": ("name",),
    "identity-management-category": ("name",),
    "social-engineering": ("value",),
    "osint": ("value",),
}


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

    One instance lives on each catalog, as :attr:`Catalog.vocabulary`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._cache: dict[tuple, tuple[dict, dict]] = {}

    def _build(self, tax_key: str, category: str, item_code: str,
               prefix: tuple[int, ...]) -> tuple[dict, dict]:
        profile, _, tax = tax_key.rpartition(":")
        base = TaxonomyCode(tax, category, item_code, prefix,
                            profile or None)
        _, _, item, chain = self.catalog.resolve(base)
        roots: tuple[Leaf, ...] = chain[-1].children if chain else item.leaves

        entries: list[tuple[str, str, list[str]]] = []  # code, token, parents

        def walk(code: TaxonomyCode, leaves: tuple[Leaf, ...],
                 parents: list[str]):
            for leaf in leaves:
                deeper = code.with_leaf(leaf.number)
                entries.append((format_code(deeper), _hyphenate(leaf.name),
                                list(parents)))
                walk(deeper, leaf.children, [leaf.name] + parents)

        walk(base, roots, [])

        tokens = {code: token for code, token, _ in entries}
        chains = {code: parents for code, _, parents in entries}
        while True:
            groups: dict[str, list[str]] = {}
            for code, token in tokens.items():
                groups.setdefault(token, []).append(code)
            clashing = {t: cs for t, cs in groups.items() if len(cs) > 1
                        or t == UNSPECIFIED}
            if not clashing:
                break
            progress = False
            for codes in clashing.values():
                for code in codes:
                    if chains[code]:
                        parent = chains[code].pop(0)
                        tokens[code] = f"{_hyphenate(parent)}-{tokens[code]}"
                        progress = True
            if not progress:
                raise InvalidRecordError(
                    f"cannot derive distinct vocabulary tokens under "
                    f"{format_code(base)}")

        code_to_token = {format_code(base): UNSPECIFIED}
        code_to_token.update(tokens)
        token_to_code = {token: code for code, token in code_to_token.items()}
        return code_to_token, token_to_code

    def token_for(self, tax_key: str, category: str, item_code: str,
                  prefix: tuple[int, ...], code: str) -> str:
        key = (tax_key, category, item_code, prefix)
        if key not in self._cache:
            self._cache[key] = self._build(*key)
        return self._cache[key][0][code]

    def code_for(self, tax_key: str, category: str, item_code: str,
                 prefix: tuple[int, ...], token: str) -> str | None:
        key = (tax_key, category, item_code, prefix)
        if key not in self._cache:
            self._cache[key] = self._build(*key)
        return self._cache[key][1].get(token)


# -- mapping rows -------------------------------------------------------------


@dataclass(frozen=True)
class _Row:
    category: str
    item: str
    prefix: tuple[int, ...]
    slot: str  # bucket key, e.g. "actor.threat_actor_types"


_BACKGROUND_ROWS = (
    _Row("A", "T", (2,), "actor.threat_actor_types"),
    _Row("A", "C", (1,), "actor.motivations"),
    _Row("A", "C", (2,), "actor.resource_levels"),
    _Row("A", "C", (3,), "actor.sophistications"),
    _Row("A", "C", (4,), "set.capabilities"),
    _Row("T", "S", (), "org.area"),
    _Row("I", "A", (), "identity.authenticity"),
    _Row("K", "T", (), "pattern.attack_type"),
    _Row("K", "R", (), "set.results"),
    _Row("K", "M", (), "set.impact"),
)

_APPLICATION_ROWS = (
    _Row("T", "L", (), "device.level"),
    _Row("T", "O", (), "device.location"),
    _Row("T", "V", (), "device.device_category"),
    _Row("I", "L", (), "pattern.kill_chain"),
    _Row("I", "E", (), "identity.completeness"),
    _Row("I", "S", (), "identity.timeliness"),
    _Row("I", "N", (), "identity.directness"),
    _Row("I", "U", (), "identity.amount"),
    _Row("K", "G", (), "indicator.attack_category"),
    _Row("K", "T", (), "pattern.attack_type"),
    _Row("K", "B", (), "pattern.identity_pattern"),
)


def _match_row(rows: tuple[_Row, ...], code: TaxonomyCode) -> _Row | None:
    for row in rows:
        if (row.category, row.item) != (code.category, code.item):
            continue
        if len(code.leaf_path) < len(row.prefix):
            continue
        if code.leaf_path[: len(row.prefix)] == row.prefix:
            return row
    return None


@dataclass
class _Scope:
    """Mapped values collected for the background or one application."""

    tag: str  # "background" or "app<N>"
    index: int | None  # None for the background
    tax_key: str
    label: str
    is_ims: bool = False
    values: dict[str, list[str]] = field(default_factory=dict)
    vulnerabilities: list[Selection] = field(default_factory=list)
    # (scope tag, taxonomy key, canonical code, free_text)
    mapped: list[tuple[str, str, str, str | None]] = field(
        default_factory=list)
    # The first mapped attack-category (K.G) code: the indicator's pattern.
    indicator_code: str | None = None

    def map(self, code: TaxonomyCode, free_text: str | None) -> None:
        text = format_code(code)
        self.mapped.append((self.tag, self.tax_key, text, free_text))
        if self.indicator_code is None and (code.category, code.item) == (
                "K", "G"):
            self.indicator_code = text

    def add(self, slot: str, token: str) -> None:
        self.values.setdefault(slot, []).append(token)

    def get(self, slot: str) -> list[str]:
        return self.values.get(slot, [])


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
    rows = _BACKGROUND_ROWS if is_background else _APPLICATION_ROWS
    for selection in application.selections:
        code = selection.code
        _, _, item, _ = catalog.resolve(code)
        if item.kind in ("free_text", "external_reference"):
            if is_background and code.category == "K":
                scope.vulnerabilities.append(selection)
                scope.map(code, selection.free_text)
            continue
        row = _match_row(rows, code)
        if row is None:
            continue
        token = catalog.vocabulary.token_for(tax_key, code.category, code.item,
                                             row.prefix, format_code(code))
        scope.add(row.slot, token)
        scope.map(code, selection.free_text)
    return scope


def mapped_selections(record: AttackRecord, catalog: Catalog
                      ) -> list[tuple[str, str, str, str | None]]:
    """(scope tag, taxonomy key, code, free_text) for every selection the
    STIX mapping carries; everything else is record-file-only.  The
    round-trip contract is over this list grouped by scope tag: the same
    scopes (up to application renumbering) holding the same multisets of
    (taxonomy key, code, free_text)."""
    out: list[tuple[str, str, str, str | None]] = []
    out.extend(_collect_scope(catalog, None, record.background).mapped)
    for index, application in enumerate(record.applications):
        out.extend(_collect_scope(catalog, index, application).mapped)
    return out


# -- emission -----------------------------------------------------------------


def _stamp(created: datetime) -> str:
    return created.astimezone(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.%f")[:-3] + "Z"


class _IdMint:
    def __init__(self, record_id: str, deterministic: bool):
        self.record_id = record_id
        self.deterministic = deterministic

    def __call__(self, object_type: str, tag: str, ordinal: int = 0) -> str:
        if self.deterministic:
            value = uuid.uuid5(
                TAXIDMA_NAMESPACE,
                f"{self.record_id}|{object_type}|{tag}|{ordinal}")
        else:
            value = uuid.uuid4()
        return f"{object_type}--{value}"


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


def _extension_payload(extension_type: str, tax_key: str | None = None,
                       index: int | None = None, **props) -> dict:
    payload: dict = {"extension_type": extension_type}
    if tax_key is not None:
        payload["taxonomy"] = tax_key
    if index is not None:
        payload["application_index"] = index
    for key, value in props.items():
        if value not in (None, [], ""):
            payload[key] = value
    return payload


def _attach(obj: dict, payload: dict) -> dict:
    obj["extensions"] = {EXTENSION_DEFINITION_ID: payload}
    return obj


def to_stix(record: AttackRecord, catalog: Catalog,
            options: EmissionOptions | None = None) -> dict:
    """Render a validated record as a STIX 2.1 bundle (a plain dict).

    Raises :class:`InvalidRecordError` when the record has validation
    errors.
    """
    options = options or EmissionOptions()
    report = validate_record(record, catalog)
    if not report.ok:
        raise InvalidRecordError(
            f"record {record.record_id} cannot be serialized with "
            f"{len(report.errors)} validation error(s)", report)

    mint = _IdMint(record.record_id, options.deterministic_ids)
    stamp = _stamp(record.created)
    objects: list[dict] = [extension_definition()]

    incident = _base_object("incident", mint("incident", "record"), stamp,
                            record.title)
    incident["description"] = record.description
    objects.append(incident)

    background = _collect_scope(catalog, None, record.background)
    scopes = [background]
    for index, application in enumerate(record.applications):
        scopes.append(_collect_scope(catalog, index, application))

    relationships: list[tuple[str, str, str]] = []

    def relate(source: str | None, rel_type: str, target: str | None):
        if source and target:
            relationships.append((source, rel_type, target))

    # Record-scoped objects, fed by the background scope.
    actor_id = None
    actor_slots = ("actor.threat_actor_types", "actor.motivations",
                   "actor.resource_levels", "actor.sophistications")
    if any(background.get(slot) for slot in actor_slots):
        actor_id = mint("threat-actor", "record")
        actor = _base_object("threat-actor", actor_id, stamp, record.title)
        types = background.get("actor.threat_actor_types")
        if types:
            actor["threat_actor_types"] = types
        motivations = background.get("actor.motivations")
        if motivations:
            actor["primary_motivation"] = motivations[0]
            if motivations[1:]:
                actor["secondary_motivations"] = motivations[1:]
        resources = background.get("actor.resource_levels")
        if resources:
            actor["resource_level"] = resources[0]
        sophistication = background.get("actor.sophistications")
        if sophistication:
            actor["sophistication"] = sophistication[0]
        _attach(actor, _extension_payload(
            "property-extension", background.tax_key,
            additional_resource_levels=resources[1:] if resources else None,
            additional_sophistications=(sophistication[1:]
                                        if sophistication else None)))
        objects.append(actor)

    org_id = None
    area = background.get("org.area")
    if area:
        org_id = mint("targeted-organization", "record")
        org = _base_object("targeted-organization", org_id, stamp,
                           record.title)
        # The item's display name picks the property: Sector or Domain.
        profile, _, tax = background.tax_key.rpartition(":")
        sector_item = catalog.lookup(TaxonomyCode(tax, "T", "S",
                                                  profile=profile or None))
        org[sector_item.name.lower()] = area
        org["taxonomy"] = background.tax_key
        _attach(org, _extension_payload("new-sdo"))
        objects.append(org)

    set_id = None
    if any(background.get(s) for s in ("set.capabilities", "set.impact",
                                       "set.results")):
        set_id = mint("intrusion-set", "record")
        intrusion = _base_object("intrusion-set", set_id, stamp, record.title)
        _attach(intrusion, _extension_payload(
            "property-extension", background.tax_key,
            capabilities=background.get("set.capabilities"),
            impact=background.get("set.impact"),
            results=background.get("set.results")))
        objects.append(intrusion)

    campaign_id = None
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
        _attach(vul, _extension_payload(
            "property-extension", background.tax_key,
            code=format_code(selection.code)))
        objects.append(vul)

    # Scope-local objects: identity, attack-pattern, indicator, device,
    # identity-management-category, derived observables.
    attack_pattern_ids: list[str] = []
    for scope in scopes:
        identity_id = None
        identity_slots = ("identity.completeness", "identity.timeliness",
                          "identity.directness", "identity.amount",
                          "identity.authenticity")
        if any(scope.get(slot) for slot in identity_slots):
            identity_id = mint("identity", scope.tag)
            _, _, tax = scope.tax_key.rpartition(":")
            identity = _base_object("identity", identity_id, stamp,
                                    scope.label)
            identity["identity_class"] = _IDENTITY_CLASS.get(tax, "unknown")
            _attach(identity, _extension_payload(
                "property-extension", scope.tax_key, scope.index,
                completeness=scope.get("identity.completeness"),
                timeliness=scope.get("identity.timeliness"),
                directness=scope.get("identity.directness"),
                amount=scope.get("identity.amount"),
                authenticity=scope.get("identity.authenticity")))
            objects.append(identity)
            relate(actor_id, "targets", identity_id)

        pattern_id = None
        if (scope.get("pattern.attack_type") or
                scope.get("pattern.identity_pattern") or
                scope.get("pattern.kill_chain")):
            pattern_id = mint("attack-pattern", scope.tag)
            attack_pattern_ids.append(pattern_id)
            pattern = _base_object("attack-pattern", pattern_id, stamp,
                                   scope.label)
            phases = scope.get("pattern.kill_chain")
            if phases:
                pattern["kill_chain_phases"] = [
                    {"kill_chain_name": KILL_CHAIN_NAME, "phase_name": token}
                    for token in phases]
            pattern["external_references"] = [{
                "source_name": EXTERNAL_SOURCE_NAME,
                "external_id": scope.tax_key,
            }]
            _attach(pattern, _extension_payload(
                "property-extension", scope.tax_key, scope.index,
                attack_type=scope.get("pattern.attack_type"),
                identity_pattern=scope.get("pattern.identity_pattern")))
            objects.append(pattern)
            relate(actor_id, "uses", pattern_id)
            relate(pattern_id, "targets", identity_id)
            if scope.index is None:
                for vul_id in vulnerability_ids:
                    relate(pattern_id, "targets", vul_id)
            if campaign_id:
                relate(campaign_id, "uses", pattern_id)

        categories = scope.get("indicator.attack_category")
        if categories:
            indicator_id = mint("indicator", scope.tag)
            indicator = _base_object("indicator", indicator_id, stamp,
                                     scope.label)
            indicator["pattern"] = scope.indicator_code
            indicator["pattern_type"] = PATTERN_TYPE
            indicator["valid_from"] = stamp
            _attach(indicator, _extension_payload(
                "property-extension", scope.tax_key, scope.index,
                attack_category=categories))
            objects.append(indicator)
            relate(indicator_id, "indicates", pattern_id)

        device_slots = ("device.level", "device.location",
                        "device.device_category")
        if any(scope.get(slot) for slot in device_slots):
            device_id = mint("device", scope.tag)
            device = _base_object("device", device_id, stamp, scope.label)
            for slot, prop in (("device.level", "level"),
                               ("device.location", "location"),
                               ("device.device_category", "device_category")):
                if scope.get(slot):
                    device[prop] = scope.get(slot)
            device["taxonomy"] = scope.tax_key
            if scope.index is not None:
                device["application_index"] = scope.index
            _attach(device, _extension_payload("new-sdo"))
            objects.append(device)
            relate(pattern_id, "targets", device_id)

        if scope.is_ims:
            imc_id = mint("identity-management-category", scope.tag)
            imc = _base_object("identity-management-category", imc_id, stamp,
                               scope.label)
            imc["taxonomy"] = scope.tax_key
            if scope.index is not None:
                imc["application_index"] = scope.index
            _attach(imc, _extension_payload("new-sdo"))
            objects.append(imc)
            relate(pattern_id, "targets", imc_id)

        attack_tokens = scope.get("pattern.attack_type")
        derived = []
        if "social-engineering" in attack_tokens:
            derived.append("social-engineering")
        if "osint-based" in attack_tokens:
            derived.append("osint")
        for sco_type in derived:
            sco_id = mint(sco_type, scope.tag)
            sco = {
                "type": sco_type,
                "id": sco_id,
                "value": "social-engineering" if
                         sco_type == "social-engineering" else "osint-based",
            }
            _attach(sco, _extension_payload("new-sco"))
            objects.append(sco)
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
    return json.dumps(bundle, indent=2, ensure_ascii=False) + "\n"


# -- inversion ----------------------------------------------------------------


def _taxidma_extension(obj: dict) -> dict | None:
    extensions = obj.get("extensions")
    if isinstance(extensions, dict):
        payload = extensions.get(EXTENSION_DEFINITION_ID)
        if isinstance(payload, dict):
            return payload
    return None


def _scope_markers(obj: dict) -> tuple[str | None, int | None]:
    """(taxonomy key, application index) wherever the object carries them."""
    payload = _taxidma_extension(obj) or {}
    taxonomy = payload.get("taxonomy", obj.get("taxonomy"))
    index = payload.get("application_index", obj.get("application_index"))
    if not isinstance(taxonomy, str):
        taxonomy = None
    if not isinstance(index, int) or isinstance(index, bool):
        index = None
    return taxonomy, index


def _parse_stamp(value) -> datetime | None:
    if not isinstance(value, str) or not _TIMESTAMP_RE.match(value):
        return None
    text = value[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text).astimezone(timezone.utc)
    except ValueError:
        return None


def _parse_tax_key(value: str | None, default: str = "BG"
                   ) -> TaxonomyCode | None:
    if value is None:
        value = default
    try:
        code = parse_code(value)
    except Exception:
        return None
    return code if code.depth == 0 else None


class _Inverter:
    """Accumulates selections per scope while consuming bundle objects."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.background: list[Selection] = []
        self.background_tax: str | None = None
        self.apps: dict[int, dict] = {}
        self.residue: list[ResidueEntry] = []

    def _app(self, index: int) -> dict:
        return self.apps.setdefault(index, {"taxonomy": None, "label": None,
                                            "selections": []})

    def _target(self, obj: dict) -> tuple[str, list[Selection]]:
        taxonomy, index = _scope_markers(obj)
        if index is None:
            if taxonomy:
                self.background_tax = self.background_tax or taxonomy
            return self.background_tax or taxonomy or "BG", self.background
        app = self._app(index)
        if taxonomy and app["taxonomy"] is None:
            app["taxonomy"] = taxonomy
        if app["label"] is None and isinstance(obj.get("name"), str):
            app["label"] = obj["name"]
        return app["taxonomy"] or "SI", app["selections"]

    def _decode(self, obj: dict, tax_key: str, category: str, item: str,
                prefix: tuple[int, ...], tokens, sink: list[Selection]):
        if tokens is None:
            return
        if isinstance(tokens, str):
            tokens = [tokens]
        if not isinstance(tokens, list):
            return
        for token in tokens:
            code_text = None
            if isinstance(token, str):
                try:
                    code_text = self.catalog.vocabulary.code_for(
                        tax_key, category, item, prefix, token)
                except Exception:
                    code_text = None
            if code_text is None:
                self.residue.append(ResidueEntry(
                    str(obj.get("id")), str(obj.get("type")),
                    f"value {token!r} has no {tax_key}.{category}.{item} "
                    "equivalent"))
                continue
            sink.append(Selection(parse_code(code_text)))

    def consume(self, obj: dict) -> bool:
        """True when the object contributed to the record."""
        obj_type = obj.get("type")
        payload = _taxidma_extension(obj)
        handler = getattr(self, f"_take_{str(obj_type).replace('-', '_')}",
                          None)
        if payload is None and obj_type not in ("campaign",):
            return False
        if handler is None:
            # Bears our extension but maps to nothing we know: residue.
            return False
        handler(obj, payload or {})
        return True

    # Individual object handlers ------------------------------------------

    def _take_threat_actor(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        self._decode(obj, tax_key, "A", "T", (2,),
                     obj.get("threat_actor_types"), sink)
        motivations = []
        if isinstance(obj.get("primary_motivation"), str):
            motivations.append(obj["primary_motivation"])
        if isinstance(obj.get("secondary_motivations"), list):
            motivations.extend(obj["secondary_motivations"])
        self._decode(obj, tax_key, "A", "C", (1,), motivations, sink)
        resources = []
        if isinstance(obj.get("resource_level"), str):
            resources.append(obj["resource_level"])
        extra = payload.get("additional_resource_levels")
        if isinstance(extra, list):
            resources.extend(extra)
        self._decode(obj, tax_key, "A", "C", (2,), resources, sink)
        sophistication = []
        if isinstance(obj.get("sophistication"), str):
            sophistication.append(obj["sophistication"])
        extra = payload.get("additional_sophistications")
        if isinstance(extra, list):
            sophistication.extend(extra)
        self._decode(obj, tax_key, "A", "C", (3,), sophistication, sink)

    def _take_intrusion_set(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        self._decode(obj, tax_key, "A", "C", (4,),
                     payload.get("capabilities"), sink)
        self._decode(obj, tax_key, "K", "M", (), payload.get("impact"), sink)
        self._decode(obj, tax_key, "K", "R", (), payload.get("results"), sink)

    def _take_targeted_organization(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        area = obj.get("sector", obj.get("domain"))
        self._decode(obj, tax_key, "T", "S", (), area, sink)

    def _take_identity(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        self._decode(obj, tax_key, "I", "E", (),
                     payload.get("completeness"), sink)
        self._decode(obj, tax_key, "I", "S", (),
                     payload.get("timeliness"), sink)
        self._decode(obj, tax_key, "I", "N", (),
                     payload.get("directness"), sink)
        self._decode(obj, tax_key, "I", "U", (), payload.get("amount"), sink)
        self._decode(obj, tax_key, "I", "A", (),
                     payload.get("authenticity"), sink)

    def _take_attack_pattern(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        self._decode(obj, tax_key, "K", "T", (),
                     payload.get("attack_type"), sink)
        self._decode(obj, tax_key, "K", "B", (),
                     payload.get("identity_pattern"), sink)
        phases = obj.get("kill_chain_phases")
        if isinstance(phases, list):
            tokens = [p.get("phase_name") for p in phases
                      if isinstance(p, dict)]
            self._decode(obj, tax_key, "I", "L", (), tokens, sink)

    def _take_indicator(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        self._decode(obj, tax_key, "K", "G", (),
                     payload.get("attack_category"), sink)

    def _take_vulnerability(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        code_text = payload.get("code")
        try:
            code = parse_code(code_text)
            self.catalog.resolve(code)
        except Exception:
            self.residue.append(ResidueEntry(
                str(obj.get("id")), "vulnerability",
                f"unusable code marker {code_text!r}"))
            return
        note = obj.get("description")
        sink.append(Selection(code, free_text=obj.get("name"),
                              note=note if isinstance(note, str) else None))

    def _take_device(self, obj: dict, payload: dict) -> None:
        tax_key, sink = self._target(obj)
        self._decode(obj, tax_key, "T", "L", (), obj.get("level"), sink)
        self._decode(obj, tax_key, "T", "O", (), obj.get("location"), sink)
        self._decode(obj, tax_key, "T", "V", (),
                     obj.get("device_category"), sink)

    def _take_identity_management_category(self, obj: dict,
                                           payload: dict) -> None:
        # Marks its application as IMS; carries no selections itself.
        self._target(obj)

    def _take_social_engineering(self, obj: dict, payload: dict) -> None:
        pass  # derived from attack_type; nothing to recover

    def _take_osint(self, obj: dict, payload: dict) -> None:
        pass

    def _take_campaign(self, obj: dict, payload: dict) -> None:
        pass  # emission option marker; carries no selections


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
                inverter.residue.append(ResidueEntry(
                    obj["id"], obj_type, "foreign extension definition"))
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
            inverter.residue.append(ResidueEntry(
                obj["id"], obj_type, "no taxonomy content"))

    for rel in relationships:
        if rel.get("source_ref") in consumed_ids and \
                rel.get("target_ref") in consumed_ids:
            continue
        inverter.residue.append(ResidueEntry(
            rel["id"], "relationship",
            "references an object that is not part of the record"))

    record_id = f"stix-{bundle_id.split('--', 1)[1]}"
    created = None
    if incident is not None:
        created = _parse_stamp(incident.get("created"))
    if created is None:
        for obj in objects:
            created = _parse_stamp(obj.get("created"))
            if created:
                break
    background_code = _parse_tax_key(inverter.background_tax)
    if background_code is None or background_code.taxonomy != "BG":
        background_code = TaxonomyCode("BG")

    record = AttackRecord(
        record_id=record_id,
        title=(incident or {}).get("name") or "imported STIX bundle",
        description=(incident or {}).get("description") or "",
        sources=[],
        created=created or datetime.now(timezone.utc).replace(microsecond=0),
        background=TaxonomyApplication(background_code, "background",
                                       inverter.background),
    )
    for index in sorted(inverter.apps):
        app = inverter.apps[index]
        tax_code = _parse_tax_key(app["taxonomy"], default="SI")
        if tax_code is None:
            tax_code = TaxonomyCode("SI")
        record.applications.append(TaxonomyApplication(
            tax_code, app["label"] or f"application {index}",
            app["selections"]))
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

    seen_ids: dict[str, int] = {}
    ids: set[str] = set()
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
            seen_ids.setdefault(oid, position)
            ids.add(oid)

        is_sco = obj_type in _SCO_TYPES
        if not is_sco:
            for prop in ("spec_version", "created", "modified"):
                if prop not in obj:
                    flag("required-common", label, f"missing {prop}")
            for prop in ("created", "modified"):
                value = obj.get(prop)
                if isinstance(value, str) and not _TIMESTAMP_RE.match(value):
                    flag("timestamp-format", label,
                         f"{prop} {value!r} is not an RFC 3339 UTC stamp")

        for prop in _REQUIRED_BY_TYPE.get(obj_type, ()):
            if prop not in obj:
                flag("required-props", label,
                     f"{obj_type} requires {prop!r}")

        extensions = obj.get("extensions")
        if extensions is not None and not isinstance(extensions, dict):
            flag("extension-declared", label, "extensions must be a map")
            extensions = None
        if isinstance(extensions, dict):
            for ext_id, payload in extensions.items():
                if not isinstance(ext_id, str) or not STIX_ID_RE.match(ext_id) \
                        or not ext_id.startswith("extension-definition--"):
                    flag("extension-declared", label,
                         f"bad extension key {ext_id!r}")
                    continue
                if not isinstance(payload, dict):
                    flag("extension-declared", label,
                         "extension payload must be an object")
                    continue
                ext_type = payload.get("extension_type")
                if ext_type not in ("new-sdo", "new-sco", "new-sro",
                                    "property-extension",
                                    "toplevel-property-extension"):
                    flag("extension-declared", label,
                         f"bad extension_type {ext_type!r}")
                if ext_id == EXTENSION_DEFINITION_ID:
                    uses_extension = True
                    allowed = _EXTENSION_PROPS.get(obj_type)
                    if allowed is None:
                        flag("taxidma-properties", label,
                             f"{obj_type} takes no taxidma extension")
                    else:
                        for key in payload:
                            if key != "extension_type" and key not in allowed:
                                flag("taxidma-properties", label,
                                     f"unknown extension property {key!r}")

        if obj_type in NEW_SDO_PROPERTIES:
            schema = NEW_SDO_PROPERTIES[obj_type]
            allowed_top = COMMON_PROPS | set(schema["required"]) | \
                set(schema["optional"])
            for key in obj:
                if key not in allowed_top:
                    flag("taxidma-properties", label,
                         f"unknown property {key!r} on {obj_type}")
            payload = _taxidma_extension(obj)
            if payload is None or payload.get("extension_type") != "new-sdo":
                flag("extension-not-declared", label,
                     f"{obj_type} must declare the new-sdo extension")
        elif obj_type in NEW_SCO_TYPES:
            payload = _taxidma_extension(obj)
            if payload is None or payload.get("extension_type") != "new-sco":
                flag("extension-not-declared", label,
                     f"{obj_type} must declare the new-sco extension")
        else:
            for key in _NESTED_ONLY_PROPS:
                if key in obj:
                    flag("extension-not-declared", label,
                         f"{key!r} must live inside the extension payload")

        if obj_type == "user-account":
            account_type = obj.get("account_type")
            if account_type is not None and \
                    account_type not in extended_account_type_vocabulary():
                flag("account-type-vocab", label,
                     f"unknown account_type {account_type!r}")

    for position, obj in enumerate(objects):
        if not isinstance(obj, dict) or obj.get("type") != "relationship":
            continue
        label = str(obj.get("id") or f"objects[{position}]")
        for end in ("source_ref", "target_ref"):
            ref = obj.get(end)
            if isinstance(ref, str) and ref not in ids:
                flag("relationship-refs", label,
                     f"{end} {ref!r} does not resolve in this bundle")

    if uses_extension and EXTENSION_DEFINITION_ID not in ids:
        flag("extension-definition-present", EXTENSION_DEFINITION_ID,
             "objects use the extension but the bundle does not carry its "
             "definition")

    return out
