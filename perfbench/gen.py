"""Seeded inputs and independent oracles for the taxidma benchmark.

Inputs are plain record-file documents (dicts in the layout ``write_record``
produces) built from code strings, so the oracles below can work on the
generator's own strings instead of on anything the package computes.  The
catalog's code pools are enumerated once per process.
"""
from __future__ import annotations

import json
import random
import uuid
from datetime import datetime, timedelta, timezone

BACKGROUND_KEYS = ("BG", "IoT:BG")
APP_KEYS = ("SI", "IMS", "UE", "IoT:SI", "SSI:SI", "SSI:IMS", "SSI:UE")
GROUPINGS = ("category", "item", "leaf")

INVALID_SHARE = 0.05   # export: records that must be rejected
FOREIGN_SHARE = 0.2    # ingest: bundles that also carry foreign objects
ZIPF_EXPONENT = 1.0    # export: code popularity within each pool

_BASE_TIME = datetime(2024, 1, 1, tzinfo=timezone.utc)
_STAMP = "%Y-%m-%dT%H:%M:%SZ"

# Locations the STIX mapping carries, as (category, item, leaf prefix), per
# the README's "STIX 2.1 interchange" section.  Written out here, not read
# from taxidma.stix, so the ingest round-trip check has its own source.
# Free-text attack items in the background (K.Y) travel as vulnerabilities.
BACKGROUND_SLOTS = (
    ("A", "T", (2,)), ("A", "C", (1,)), ("A", "C", (2,)), ("A", "C", (3,)),
    ("A", "C", (4,)), ("T", "S", ()), ("I", "A", ()), ("K", "T", ()),
    ("K", "R", ()), ("K", "M", ()),
)
APPLICATION_SLOTS = (
    ("T", "L", ()), ("T", "O", ()), ("T", "V", ()), ("I", "L", ()),
    ("I", "E", ()), ("I", "S", ()), ("I", "N", ()), ("I", "U", ()),
    ("K", "G", ()), ("K", "T", ()), ("K", "B", ()),
)


def code_pools(catalog) -> dict[str, list[str]]:
    """Leaf-granularity code strings per taxonomy key, enumerated once."""
    from taxidma import format_code
    return {key: [format_code(code) for code in catalog.enumerate_codes(key)]
            for key in BACKGROUND_KEYS + APP_KEYS}


class UniformDraw:
    """Distinct codes, every code of a pool equally likely."""

    def __init__(self, pools: dict[str, list[str]]):
        self.pools = pools

    def __call__(self, rng: random.Random, key: str, k: int) -> list[str]:
        pool = self.pools[key]
        return rng.sample(pool, min(k, len(pool)))


class ZipfDraw:
    """Distinct codes with Zipf-skewed popularity: the code of rank r is
    drawn with weight 1 / r**ZIPF_EXPONENT.  The ranking is fixed (not
    seeded), so every seed favours the same few codes, as a real corpus
    favours the same few attack types."""

    def __init__(self, pools: dict[str, list[str]]):
        self.ranked: dict[str, list[str]] = {}
        self.cum_weights: dict[str, list[float]] = {}
        for key, pool in pools.items():
            ranked = list(pool)
            random.Random(f"popularity {key}").shuffle(ranked)
            total, cum = 0.0, []
            for rank in range(1, len(ranked) + 1):
                total += 1.0 / rank ** ZIPF_EXPONENT
                cum.append(total)
            self.ranked[key] = ranked
            self.cum_weights[key] = cum

    def __call__(self, rng: random.Random, key: str, k: int) -> list[str]:
        ranked, cum = self.ranked[key], self.cum_weights[key]
        chosen: list[str] = []
        while len(chosen) < min(k, len(ranked)):
            code = rng.choices(ranked, cum_weights=cum)[0]
            if code not in chosen:
                chosen.append(code)
        return chosen


def record_doc(rng: random.Random, draw, index: int,
               app_weights: list[float] | None = None) -> dict:
    """One valid record document of about ten selections."""
    bg_key = "IoT:BG" if rng.random() < 0.3 else "BG"
    background = [{"code": code}
                  for code in draw(rng, bg_key, rng.randint(1, 8))]
    if rng.random() < 0.35:
        weakness = {"code": f"{bg_key}.K.Y",
                    "free_text": f"CVE-2024-{10000 + index}"}
        if rng.random() < 0.5:
            weakness["note"] = "synthetic weakness"
        background.append(weakness)
    applications = []
    for position in range(rng.randint(0, 3)):
        key = rng.choices(APP_KEYS, weights=app_weights)[0]
        selections = []
        for code in draw(rng, key, rng.randint(1, 6)):
            selection = {"code": code}
            if rng.random() < 0.2:
                selection["note"] = "observed"
            selections.append(selection)
        applications.append({"taxonomy": key,
                             "instance_label": f"instance {position} ({key})",
                             "selections": selections})
    created = _BASE_TIME + timedelta(days=index % 365, hours=index % 24)
    return {
        "record_id": f"bench-{index:05d}",
        "title": f"benchmark incident {index}",
        "description": f"synthetic record number {index}",
        "sources": [f"benchmark case {index}"],
        "created": created.strftime(_STAMP),
        "background": {"taxonomy": bg_key, "instance_label": "background",
                       "selections": background},
        "applications": applications,
    }


def record_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# -- export -------------------------------------------------------------------


def _break(doc: dict, kind: int, pools: dict[str, list[str]]) -> None:
    """Make a document fail validation in one of three ways."""
    background = doc["background"]
    bg_key = background["taxonomy"]
    if kind == 0:    # leaf 97 exists under no item: unresolvable-code
        background["selections"].append({"code": f"{bg_key}.A.T.97"})
    elif kind == 1:  # a free-text item without its text: free-text-required
        background["selections"].append({"code": f"{bg_key}.K.Y"})
    else:            # an SI code in the background: taxonomy mismatch
        background["selections"].append({"code": pools["SI"][0]})


def export_inputs(pools: dict[str, list[str]], seed: int, count: int
                  ) -> tuple[list[str], list[int]]:
    """Record-file texts with Zipf-skewed codes, and the sorted indexes of
    the records that were made invalid."""
    rng = random.Random(seed)
    draw = ZipfDraw(pools)
    docs = [record_doc(rng, draw, index) for index in range(count)]
    invalid = sorted(rng.sample(range(count), round(count * INVALID_SHARE)))
    for kind, index in enumerate(invalid):
        _break(docs[index], kind % 3, pools)
    return [record_text(doc) for doc in docs], invalid


# -- ingest -------------------------------------------------------------------


def _foreign_object(rng: random.Random, stamp: str) -> dict:
    object_type = rng.choice(("malware", "tool", "x-bench-sighting"))
    object_uuid = uuid.UUID(int=rng.getrandbits(128), version=4)
    obj = {
        "type": object_type,
        "spec_version": "2.1",
        "id": f"{object_type}--{object_uuid}",
        "created": stamp,
        "modified": stamp,
        "name": f"foreign {object_type}",
    }
    if object_type == "malware":
        obj["is_family"] = False
    return obj


def _mapped(code: str, slots, background: bool) -> bool:
    parts = code.split(":")[-1].split(".")
    category, item = parts[1], parts[2]
    if background and (category, item) == ("K", "Y"):
        return True
    leaves = tuple(int(n) for n in parts[3:])
    return any((category, item) == (c, i) and leaves[:len(prefix)] == prefix
               for c, i, prefix in slots)


def scope_groups(scopes) -> list:
    """Scope-order-free form of ``[[(taxonomy key, code, free_text), ...],
    ...]``: each scope's selections sorted, empty scopes dropped, and the
    scopes sorted, as plain lists so that it survives JSON."""
    groups = (sorted([key, code, text or ""] for key, code, text in scope)
              for scope in scopes)
    return sorted(group for group in groups if group)


def mapped_groups(doc: dict) -> list:
    """The selections, grouped by scope, that a STIX round trip must
    preserve."""
    scopes = [(doc["background"], BACKGROUND_SLOTS, True)]
    scopes += [(app, APPLICATION_SLOTS, False) for app in doc["applications"]]
    return scope_groups(
        [(scope["taxonomy"], s["code"], s.get("free_text"))
         for s in scope["selections"] if _mapped(s["code"], slots, background)]
        for scope, slots, background in scopes)


def ingest_inputs(catalog, pools: dict[str, list[str]], seed: int,
                  count: int) -> list[dict]:
    """Bundle texts made from uniformly drawn records, each with the
    mapped selection groups and the (id, type) of every foreign object
    injected into it."""
    from taxidma import EmissionOptions, read_record, serialize_bundle, \
        to_stix

    rng = random.Random(seed)
    draw = UniformDraw(pools)
    # Weighting application taxonomies by pool size makes every leaf about
    # equally likely across the whole catalog, not only within its pool.
    weights = [len(pools[key]) for key in APP_KEYS]
    options = EmissionOptions(deterministic_ids=True)
    out = []
    for index in range(count):
        doc = record_doc(rng, draw, index, weights)
        bundle = to_stix(read_record(record_text(doc)), catalog, options)
        foreign = []
        if rng.random() < FOREIGN_SHARE:
            stamp = bundle["objects"][1]["created"]
            foreign = [_foreign_object(rng, stamp)
                       for _ in range(rng.randint(1, 2))]
            bundle["objects"].extend(foreign)
        out.append({
            "text": serialize_bundle(bundle),
            "groups": mapped_groups(doc),
            "residue": sorted([obj["id"], obj["type"]] for obj in foreign),
        })
    return out


# -- stats --------------------------------------------------------------------


def prune(code: str, group_by: str) -> str:
    """A code cut to the grouping depth, profile qualifier kept."""
    head, colon, body = code.rpartition(":")
    keep = {"category": 2, "item": 3, "leaf": 4}[group_by]
    return head + colon + ".".join(body.split(".")[:keep])


def _doc_codes(doc: dict, group_by: str) -> list[str]:
    blocks = [doc["background"], *doc["applications"]]
    return [prune(s["code"], group_by)
            for block in blocks for s in block["selections"]]


def frequencies(docs: list[dict], group_by: str) -> dict[str, int]:
    """Records selecting each pruned code, counted by brute force."""
    counts: dict[str, int] = {}
    for doc in docs:
        seen: list[str] = []
        for code in _doc_codes(doc, group_by):
            if code not in seen:
                seen.append(code)
                counts[code] = counts.get(code, 0) + 1
    return counts


def pair_counts(docs: list[dict], group_by: str) -> dict[str, int]:
    """Records selecting both codes of each pair ``a <= b``, keyed
    ``"a b"``."""
    pairs: dict[str, int] = {}
    for doc in docs:
        codes = sorted(set(_doc_codes(doc, group_by)))
        for a in codes:
            for b in codes:
                if a <= b:
                    pairs[f"{a} {b}"] = pairs.get(f"{a} {b}", 0) + 1
    return pairs


def stats_inputs(pools: dict[str, list[str]], seed: int,
                 sizes: tuple[int, ...]) -> list[dict]:
    """One corpus of record-file texts per size, each with the oracle's
    expected counts per grouping."""
    rng = random.Random(seed)
    draw = UniformDraw(pools)
    corpora, index = [], 0
    for size in sizes:
        docs = [record_doc(rng, draw, index + n) for n in range(size)]
        index += size
        corpora.append({
            "texts": [record_text(doc) for doc in docs],
            "expected": {group_by: {"frequencies": frequencies(docs, group_by),
                                    "pairs": pair_counts(docs, group_by)}
                         for group_by in GROUPINGS},
        })
    return corpora
