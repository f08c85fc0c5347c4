"""Independent leaf counter over raw catalog JSON.

Walks the document with plain nested loops — no taxidma imports — so the
enumeration tests have a second opinion on how many codes exist and what
they are.
"""
from __future__ import annotations

import json


def _count_leaves(leaves) -> int:
    total = 0
    for leaf in leaves:
        total += 1 + _count_leaves(leaf.get("children", []))
    return total


def _leaf_codes(prefix: str, leaves) -> list[str]:
    out = []
    for leaf in leaves:
        code = f"{prefix}.{leaf['n']}"
        out.append(code)
        out.extend(_leaf_codes(code, leaf.get("children", [])))
    return out


def _effective_items(doc, profile_code: str | None, tax, cat):
    """Base items with the profile's overrides applied (replace or append)."""
    items = [dict(i) for i in cat["items"]]
    if profile_code is None:
        return items
    profile = next(p for p in doc["profiles"] if p["code"] == profile_code)
    for ov in profile["overrides"]:
        if ov["taxonomy"] != tax["code"] or ov["category"] != cat["code"]:
            continue
        for pos, existing in enumerate(items):
            if existing["code"] == ov["item"]:
                items[pos] = ov["definition"]
                break
        else:
            items.append(ov["definition"])
    return items


def profile_pairs(doc) -> list[tuple[str, str]]:
    pairs = []
    for profile in doc["profiles"]:
        touched = {ov["taxonomy"] for ov in profile["overrides"]}
        for tax in doc["taxonomies"]:
            if tax["code"] in touched:
                pairs.append((profile["code"], tax["code"]))
    return pairs


def all_leaf_codes(doc) -> list[str]:
    """Every leaf-granularity code the catalog names, base then profiles."""
    out: list[str] = []
    jobs: list[tuple[str | None, dict]] = [(None, t) for t in doc["taxonomies"]]
    jobs += [(p, next(t for t in doc["taxonomies"] if t["code"] == tc))
             for p, tc in profile_pairs(doc)]
    for profile_code, tax in jobs:
        qualifier = f"{profile_code}:" if profile_code else ""
        for cat in tax["categories"]:
            for item in _effective_items(doc, profile_code, tax, cat):
                prefix = f"{qualifier}{tax['code']}.{cat['code']}.{item['code']}"
                out.extend(_leaf_codes(prefix, item.get("leaves", [])))
    return out


def leaf_count(doc) -> int:
    return len(all_leaf_codes(doc))


def subtree_codes(doc, prefix: str, codes: list[str] | None = None
                  ) -> list[str]:
    """Leaf codes under a dotted prefix (taxonomy/category/item/leaf level).

    ``codes`` is ``all_leaf_codes(doc)``, for a caller that already has it.
    A profile/taxonomy pair the profile leaves unchanged has no codes of
    its own there: under it, the base subtree carries the qualifier.
    """
    if codes is None:
        codes = all_leaf_codes(doc)
    profile, colon, rest = prefix.partition(":")
    if colon and (profile, rest.partition(".")[0]) not in profile_pairs(doc):
        return [f"{profile}:{code}" for code in subtree_codes(doc, rest, codes)]
    return [code for code in codes
            if code == prefix or code.startswith(prefix + ".")]


def load(path) -> dict:
    with open(path, "rb") as fh:
        return json.load(fh)
