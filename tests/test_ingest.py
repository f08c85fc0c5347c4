"""Ingest outputs over seeded mutated bundles, pinned by one digest.

Each bundle is a deterministic emission of a fixture or generated record,
then mutated: values set, deleted or replaced (with wrong types, unhashable
lists and dicts, bad ids), objects duplicated or replaced by non-objects.
The digest covers what ``validate_bundle``, ``from_stix`` and
``validate_record`` make of each one, so any change to those outputs shows.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from datetime import datetime

from conftest import FIXTURE_IDS, load_fixture_record
from record_gen import record_batch
from taxidma.errors import MalformedBundleError, UnknownExtensionVersionError
from taxidma.record import validate_record, write_record
from taxidma.stix import (
    EmissionOptions,
    from_stix,
    serialize_bundle,
    to_stix,
    validate_bundle,
)

BUNDLES = 2000
SEED = 13
# Taken with the residue of incident text that is not a string and of a
# vulnerability without a name in place; it holds while no output changes.
PINNED_INGEST_DIGEST = \
    "8486fe94c53de7375f762fd7edd94fe7635ab22cd6abd1b55ea134836a4985a0"

_STAMP = "2020-02-02T02:02:02.000Z"
_STAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?Z")
# Values a mutation puts in place of another: wrong types, unhashable
# containers, near-miss stamps and ids, and tokens the vocabulary knows.
_VALUES = (
    None, True, 0, 7, -1, 2.5, "", "x", "unspecified", "impostor",
    "credential-stuffing", "nation-state", "new-sdo", "property-extension",
    "unix", "relationship", "device",
    "BG", "SI", "IoT:SI", "XYZ", "a:b:c", "BG.K.Y", "BG.I.A.1", "CVE-2020-1",
    _STAMP, "2020-02-30T00:00:00Z", "2020-02-02 02:02:02", [], ["x"],
    ["impostor", 3], [{"phase_name": "x"}], {}, {"a": 1}, [[1]], {"x": []},
    "identity--00000000-0000-0000-0000-000000000000", "identity--1", "--",
    "extension-definition--00000000-0000-0000-0000-000000000000",
)
_KEYS = (
    "type", "id", "created", "modified", "spec_version", "name",
    "description", "extensions", "taxonomy", "application_index",
    "source_ref", "target_ref", "relationship_type", "account_type",
    "extension_type", "code", "sector", "domain", "kill_chain_phases",
    "threat_actor_types", "primary_motivation", "secondary_motivations",
    "resource_level", "capabilities", "completeness", "attack_type",
    "level", "pattern", "value", "objects",
)
_NON_OBJECTS = ("x", 5, None, [], ["identity"], True)
_FIXED_CREATED = datetime.fromisoformat("2000-01-01T00:00:00+00:00")


def _base_texts(catalog) -> list[str]:
    records = [load_fixture_record(rid) for rid in FIXTURE_IDS]
    records += record_batch(catalog, seed=SEED, count=12)
    return [serialize_bundle(to_stix(record, catalog, EmissionOptions(
        deterministic_ids=True, campaign=position % 4 == 0)))
            for position, record in enumerate(records)]


def _containers(bundle) -> list:
    """The bundle, its dict objects, and their extension payloads."""
    out = [bundle]
    for obj in bundle["objects"]:
        if isinstance(obj, dict):
            out.append(obj)
            extensions = obj.get("extensions")
            if isinstance(extensions, dict):
                out += [payload for payload in extensions.values()
                        if isinstance(payload, dict)]
    return out


def _mutate(bundle: dict, rng: random.Random) -> None:
    objects = bundle.get("objects")
    if not isinstance(objects, list) or not objects:
        return
    kind = rng.randrange(8)
    target = rng.choice(_containers(bundle))
    if kind == 0:  # set a known key, present or not
        target[rng.choice(_KEYS)] = rng.choice(_VALUES)
    elif kind == 1 and target:  # replace an existing value
        target[rng.choice(list(target))] = rng.choice(_VALUES)
    elif kind == 2 and target:  # delete a key
        del target[rng.choice(list(target))]
    elif kind == 3:  # an id of the wrong grammar, type or another object
        other = rng.choice(objects)
        target["id"] = rng.choice((
            rng.choice(_VALUES), "malware--" + str(target.get("id"))[-36:],
            other.get("id") if isinstance(other, dict) else other))
    elif kind == 4:  # a duplicated object
        objects.insert(rng.randrange(len(objects) + 1),
                       json.loads(json.dumps(rng.choice(objects))))
    elif kind == 5:  # a non-object in place of an object
        objects[rng.randrange(len(objects))] = rng.choice(_NON_OBJECTS)
    elif kind == 6:  # another type, with an account type of any kind
        target["type"] = rng.choice(("user-account", "osint", "malware"))
        target["account_type"] = rng.choice(_VALUES)
    else:  # one element of a list value replaced
        lists = [value for value in target.values()
                 if isinstance(value, list) and value]
        if lists:
            values = rng.choice(lists)
            values[rng.randrange(len(values))] = rng.choice(_VALUES)


def _stamped(bundle: dict) -> bool:
    """Whether from_stix finds a creation stamp (else it takes the time)."""
    for obj in bundle["objects"]:
        value = obj.get("created")
        if isinstance(value, str) and _STAMP_RE.fullmatch(value):
            try:
                datetime.fromisoformat(value[:-1] + "+00:00")
            except ValueError:
                continue
            return True
    return False


def test_ingest_outputs_over_mutated_bundles_are_pinned(bundled_catalog):
    rng = random.Random(SEED)
    texts = _base_texts(bundled_catalog)
    digest = hashlib.sha256()
    outcomes = {"raised": 0, "returned": 0}
    for _ in range(BUNDLES):
        bundle = json.loads(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            _mutate(bundle, rng)
        violations = validate_bundle(bundle)  # never raises
        digest.update(repr([(v.rule, v.object_id, v.message)
                            for v in violations]).encode())
        try:
            record, residue = from_stix(bundle, bundled_catalog)
        except (MalformedBundleError, UnknownExtensionVersionError) as exc:
            outcomes["raised"] += 1
            digest.update(repr((type(exc).__name__, str(exc))).encode())
            continue
        outcomes["returned"] += 1
        if not _stamped(bundle):
            record.created = _FIXED_CREATED
        digest.update(write_record(record).encode())
        digest.update(repr([(e.object_id, e.object_type, e.reason)
                            for e in residue]).encode())
        digest.update(repr([(v.severity, v.rule, v.path, v.message) for v in
                            validate_record(record, bundled_catalog).violations
                            ]).encode())
    assert min(outcomes.values()) > BUNDLES // 20, outcomes
    assert digest.hexdigest() == PINNED_INGEST_DIGEST
