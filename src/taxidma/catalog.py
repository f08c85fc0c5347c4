"""Catalog model: taxonomy trees, profile overrides, lookup and verification.

A catalog document is JSON with this shape::

    {"version": "...",
     "taxonomies": [{"code", "name", "categories": [
         {"code", "name", "items": [
             {"code", "name", "kind", "leaves": [
                 {"n", "name", "children": [...]}]}]}]}],
     "profiles": [{"code", "name", "overrides": [
         {"taxonomy", "category", "item", "definition": <item>}]}]}

Loading is permissive about tree content (verification is a separate pass)
but strict about structure, duplicate codes, and profile references.  It
keeps the document's bytes and hashes them on the first read of
``Catalog.checksum``, so loading hashes nothing.  Every hash in the package
comes from ``_digest``, which takes the interpreter's built-in sha1 and
sha256 modules, so no path imports ``hashlib`` and with it OpenSSL.

Verification runs named rules over a loaded catalog.  Most content rules
pin a fixed leaf set (attack categories, lifecycle stages, IoT domains,
SSI levels, ...); those are rows of one table, ``_CONTENT_TABLE``, all
checked by ``_check_leaf_set``.  A row's target is a base item path
(``BG.I.A``), a profile override path (``IoT:SI.K.G``, read from the
override itself) or an item display name (``Lifecycle``, every item so
named).  Rules of other shapes (subset checks, sub-leaf scales, category
presence) stay functions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property, partial
from importlib import import_module, resources
from typing import Callable, Iterator, NamedTuple

from .codes import TaxonomyCode, format_code, is_leaf_number, parse_code
from .errors import (
    DanglingProfileReferenceError,
    DuplicateCodeError,
    InvalidCodeError,
    MalformedDocumentError,
    UnknownPathError,
)

BUNDLED_CATALOG_RESOURCE = "taxidma-v2.catalog.json"

# Item kinds whose selections carry free text instead of a leaf.
TEXT_KINDS = ("free_text", "external_reference")
ITEM_KINDS = ("enumerated", *TEXT_KINDS)

# Item display names whose code letter is fixed convention-wide.
FIXED_ITEM_CODES = {
    "Type": "T",
    "Capabilities": "C",
    "Identity": "I",
    "Permissions": "P",
    "Authenticity": "A",
    "Delivery": "D",
    "Results": "R",
    "Impact": "M",
    "Vulnerability": "Y",
    "Category": "G",
    "Pattern": "B",
}


@dataclass(frozen=True)
class Leaf:
    number: int
    name: str
    children: tuple["Leaf", ...] = ()


@dataclass(frozen=True)
class Item:
    code: str
    name: str
    kind: str = "enumerated"
    leaves: tuple[Leaf, ...] = ()


@dataclass(frozen=True)
class Category:
    code: str
    name: str
    items: tuple[Item, ...] = ()


@dataclass(frozen=True)
class Taxonomy:
    code: str
    name: str
    categories: tuple[Category, ...] = ()


@dataclass(frozen=True)
class Override:
    taxonomy: str
    category: str
    item: str
    definition: Item


@dataclass(frozen=True)
class Profile:
    code: str
    name: str
    overrides: tuple[Override, ...] = ()


@dataclass(frozen=True)
class CatalogNode:
    """What :meth:`Catalog.lookup` returns for any resolvable code."""

    code: TaxonomyCode
    name: str
    kind: str  # taxonomy | category | item | leaf
    children_count: int
    item_kind: str | None = None  # value kind of the owning item, if any


@dataclass(frozen=True)
class CatalogViolation:
    rule: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.path}: {self.message}"


def _checked_text(code: TaxonomyCode) -> str | None:
    """The canonical text of ``code``, or None if the grammar rejects it."""
    try:
        return format_code(code)
    except InvalidCodeError:
        return None


@cache
def _digest(name: str) -> Callable:
    """``hashlib``'s ``sha1`` or ``sha256`` constructor, taken from the
    interpreter's built-in module as ``random`` takes its sha512, because
    ``hashlib`` loads OpenSSL: 3.7 MB more RSS per process under CPython
    3.10-3.13 on x86-64 Linux.  The sha256 module is ``_sha2`` from 3.12
    and ``_sha256`` before."""
    for module in ("_sha1",) if name == "sha1" else ("_sha2", "_sha256"):
        try:
            return getattr(import_module(module), name)
        except ImportError:
            pass
    import hashlib  # a build without the built-in modules
    return getattr(hashlib, name)


def _first_by_code(nodes) -> dict:
    """Code -> the first node declaring it, in declaration order."""
    by_code = {}
    for node in nodes:
        by_code.setdefault(node.code, node)
    return by_code


class Catalog:
    """An immutable, indexed catalog."""

    def __init__(self, version: str, taxonomies: tuple[Taxonomy, ...],
                 profiles: tuple[Profile, ...], checksum: str):
        self.version = version
        self.taxonomies = taxonomies
        self.profiles = profiles
        # load_catalog puts the document's bytes here, hashed on first read.
        self._checksum: str | bytes = checksum
        self._tax_by_code = _first_by_code(taxonomies)
        self._profile_by_code = _first_by_code(profiles)
        # Canonical code text -> (taxonomy, category, item, leaf_chain).
        self._index: dict[str, tuple] = {}
        self._build_index()

    @property
    def checksum(self) -> str:
        """The sha256 hex digest of the loaded document's bytes, or the
        string given when the catalog was built directly."""
        checksum = self._checksum
        if type(checksum) is bytes:
            checksum = self._checksum = _digest("sha256")(checksum).hexdigest()
        return checksum

    # -- basic access ------------------------------------------------------

    def taxonomy(self, code: str) -> Taxonomy | None:
        return self._tax_by_code.get(code)

    def profile(self, code: str) -> Profile | None:
        return self._profile_by_code.get(code)

    def effective_items(self, profile: str | None, taxonomy: str,
                        category: str) -> tuple[Item, ...]:
        """The items of the first ``taxonomy.category`` declared, as
        ``profile`` (None: the base) sees them: its first override of an
        item replaces it in place or is appended.  ``()`` when the category
        or the profile is unknown."""
        found = next((cat for tax in self.taxonomies if tax.code == taxonomy
                      for cat in tax.categories if cat.code == category), None)
        owner = None if profile is None else self.profile(profile)
        if found is None or owner is None and profile is not None:
            return ()
        items = list(found.items)
        overridden: set[str] = set()
        for ov in owner.overrides if owner is not None else ():
            if ov.taxonomy != taxonomy or ov.category != category \
                    or ov.item in overridden:
                continue
            overridden.add(ov.item)
            pos = next((pos for pos, item in enumerate(items)
                        if item.code == ov.item), len(items))
            items[pos:pos + 1] = [ov.definition]  # at len(items): appended
        return tuple(items)

    @cached_property
    def vocabulary(self):
        """The STIX vocabulary token tables of this catalog, built as used."""
        from .stix import VocabularyTables  # stix imports this module
        return VocabularyTables(self)

    def profile_pairs(self) -> list[tuple[str, str]]:
        """(profile, taxonomy) pairs where the profile changes the taxonomy."""
        return [(profile.code, taxonomy.code) for profile in self.profiles
                for taxonomy in self.taxonomies if any(
                    ov.taxonomy == taxonomy.code for ov in profile.overrides)]

    # -- resolution --------------------------------------------------------

    def _build_index(self) -> None:
        """Map the canonical text of every resolvable code to its node chain.

        Covers every taxonomy plain and under every profile, depth first.
        Where a directly built catalog repeats a code (of siblings, of
        taxonomies or of profiles), the first declaration wins, as the code
        names it; nodes whose tokens break the grammar are left out.
        """
        index = self._index
        for profile in (None, *self._profile_by_code):
            for tax_code, taxonomy in self._tax_by_code.items():
                if tax_code in self._profile_by_code:
                    continue  # a profile token never resolves as a taxonomy
                tax_text = _checked_text(TaxonomyCode(tax_code, profile=profile))
                if tax_text is None:
                    continue
                index[tax_text] = (taxonomy, None, None, ())
                for category in taxonomy.categories:
                    cat_text = _checked_text(TaxonomyCode(
                        tax_code, category.code, profile=profile))
                    if cat_text is None or cat_text in index:
                        continue
                    index[cat_text] = (taxonomy, category, None, ())
                    for item in self.effective_items(profile, tax_code,
                                                     category.code):
                        item_text = _checked_text(TaxonomyCode(
                            tax_code, category.code, item.code,
                            profile=profile))
                        if item_text is None or item_text in index:
                            continue
                        index[item_text] = (taxonomy, category, item, ())
                        self._index_leaves(item_text, (taxonomy, category, item),
                                           (), item.leaves)

    def _index_leaves(self, parent_text: str, nodes: tuple,
                      chain: tuple[Leaf, ...], leaves: tuple[Leaf, ...]) -> None:
        for leaf in leaves:
            if not is_leaf_number(leaf.number):
                continue
            text = f"{parent_text}.{leaf.number:d}"
            if text in self._index:
                continue
            deeper = chain + (leaf,)
            self._index[text] = (*nodes, deeper)
            self._index_leaves(text, nodes, deeper, leaf.children)

    def resolve(self, code: TaxonomyCode | str):
        """Resolve a code to its node chain.

        Returns ``(taxonomy, category, item, leaf_chain)`` where the later
        elements are None/empty for shallow codes.  Raises
        :class:`InvalidCodeError` for a structurally broken code and
        :class:`UnknownPathError` carrying the longest prefix that resolved.
        A canonical text, or a code that renders to one, is one index read;
        anything else is parsed only to explain the miss.
        """
        entry = self._index.get(
            code if isinstance(code, str) else format_code(code))
        if entry is None:
            parsed = parse_code(code) if isinstance(code, str) else code
            raise self._miss(parsed, format_code(parsed))
        return entry

    def _miss(self, code: TaxonomyCode, text: str) -> UnknownPathError:
        """Explain why a well-formed code is not in the index."""
        missing, prefix = code, code.parent()
        while prefix is not None:
            prefix_text = format_code(prefix)
            if prefix_text in self._index:
                if missing.item is None:
                    detail = f"no category {missing.category!r}"
                elif not missing.leaf_path:
                    detail = f"no item {missing.item!r}"
                else:
                    detail = f"no leaf numbered {missing.leaf_path[-1]}"
                return UnknownPathError(text, prefix_text, detail)
            missing, prefix = prefix, prefix.parent()
        if code.profile is not None and self.profile(code.profile) is None:
            detail = f"unknown profile {code.profile!r}"
        elif code.taxonomy in self._profile_by_code:
            detail = (f"{code.taxonomy!r} is a profile token; qualify a "
                      f"taxonomy as {code.taxonomy}:<TAX>")
        elif code.taxonomy == "WA":
            detail = "reserved token"
        else:
            detail = "unknown taxonomy"
        return UnknownPathError(text, "", detail)

    def lookup(self, code: TaxonomyCode | str) -> CatalogNode:
        """Resolve a code and describe the node it names."""
        parsed = parse_code(code) if isinstance(code, str) else code
        taxonomy, category, item, chain = self.resolve(parsed)
        if category is None:
            return CatalogNode(parsed, taxonomy.name, "taxonomy",
                               len(taxonomy.categories))
        if item is None:
            items = self.effective_items(parsed.profile, parsed.taxonomy,
                                         parsed.category)
            return CatalogNode(parsed, category.name, "category", len(items))
        if not chain:
            return CatalogNode(parsed, item.name, "item", len(item.leaves),
                               item.kind)
        leaf = chain[-1]
        return CatalogNode(parsed, leaf.name, "leaf", len(leaf.children),
                           item.kind)

    @cached_property
    def _full_names(self) -> dict[str, str]:
        """Canonical code text -> full name, derived from the index as
        used."""
        names = {}
        for text, (taxonomy, category, item, chain) in self._index.items():
            profile = text.rpartition(":")[0]
            parts = [self._profile_by_code[profile].name] if profile else []
            parts += [node.name for node in (taxonomy, category, item)
                      if node is not None]
            names[text] = " ".join([*parts, *(leaf.name for leaf in chain)])
        return names

    def full_name(self, code: TaxonomyCode | str) -> str:
        """Human-readable name: one display-name segment per code segment.

        One lookup for a canonical text or a code that renders to one;
        anything else is not in the index, and resolving it raises."""
        text = code if isinstance(code, str) else format_code(code)
        name = self._full_names.get(text)
        if name is None:
            self.resolve(code)  # raises the error that explains the miss
        return name

    @cached_property
    def _merged_names(self) -> dict[str, str]:
        """Profile-free code text -> :meth:`merged_name`, from the index."""
        merged = {}
        for text, name in self._full_names.items():  # base codes come first
            merged.setdefault(text.rpartition(":")[2], name)
        return merged

    def merged_name(self, text: str) -> str:
        """The full name of a profile-free code text with profiles merged
        into their base taxonomies: the base code's own, else the one under
        the first profile in catalog order that declares it, else ``""``."""
        return self._merged_names.get(text, "")

    # -- subtrees and enumeration ----------------------------------------

    @cached_property
    def _positions(self) -> tuple[list, dict[str, int]]:
        """The index entries in order, and each text's position among them."""
        entries = list(self._index.items())
        return entries, {text: pos for pos, (text, _) in enumerate(entries)}

    def subtree(self, code: TaxonomyCode | str) -> list[tuple[str, tuple]]:
        """``(text, resolve(text))`` for ``code`` and every indexed code
        under it, in index order: one run of the index, which is filled
        depth first.  An unknown code raises what :meth:`resolve` raises."""
        entries, positions = self._positions
        text = code if isinstance(code, str) else format_code(code)
        start = positions.get(text)
        if start is None:
            self.resolve(code)  # raises the error that explains the miss
        end, inside = start + 1, text + "."
        while end < len(entries) and entries[end][0].startswith(inside):
            end += 1
        return entries[start:end]

    def enumerate_codes(self, prefix: TaxonomyCode | str | None = None
                        ) -> Iterator[TaxonomyCode]:
        """Yield every leaf-granularity code, depth first, in index order.

        With a prefix, yields the leaf codes of its :meth:`subtree` (a leaf
        prefix yields itself and its descendants).  Without one, covers the
        base taxonomies followed by every profile/taxonomy pair the profile
        actually changes.
        """
        if prefix is None:
            roots = {taxonomy.code for taxonomy in self.taxonomies}
            roots.update(f"{p}:{t}" for p, t in self.profile_pairs())
            entries = [(text, entry) for text, entry in self._index.items()
                       if text.partition(".")[0] in roots]
        else:
            entries = self.subtree(prefix)
        for text, (_, _, _, chain) in entries:
            if chain:
                yield parse_code(text)


# -- loading ----------------------------------------------------------------


def _require(mapping, key, expected, where):
    if not isinstance(mapping, dict):
        raise MalformedDocumentError(f"{where}: expected an object")
    if key not in mapping:
        raise MalformedDocumentError(f"{where}: missing field {key!r}")
    value = mapping[key]
    if not isinstance(value, expected):
        raise MalformedDocumentError(f"{where}.{key}: wrong type")
    return value


def _optional_list(mapping, key, where) -> list:
    value = mapping.get(key, [])
    if not isinstance(value, list):
        raise MalformedDocumentError(f"{where}.{key}: wrong type")
    return value


def _claim(positions: dict, key, where: str, code: str) -> None:
    """Record ``key`` as declared at ``where``; a second declaration of it
    raises :class:`DuplicateCodeError` naming ``code`` and both places."""
    if key in positions:
        raise DuplicateCodeError(code, positions[key], where)
    positions[key] = where


def _parse_leaf(raw, where) -> Leaf:
    number = _require(raw, "n", int, where)
    if isinstance(number, bool) or number < 0:
        raise MalformedDocumentError(f"{where}.n: must be a non-negative integer")
    name = _require(raw, "name", str, where)
    children = tuple(_parse_leaf(child, f"{where}.children[{i}]")
                     for i, child in enumerate(
                         _optional_list(raw, "children", where)))
    _check_sibling_numbers(children, f"{where}.children")
    return Leaf(number, name, children)


def _check_sibling_numbers(leaves: tuple[Leaf, ...], where: str) -> None:
    seen: dict[int, str] = {}
    for pos, leaf in enumerate(leaves):
        _claim(seen, leaf.number, f"{where}[{pos}]", f"leaf number {leaf.number}")


def _parse_item(raw, where) -> Item:
    code = _require(raw, "code", str, where)
    name = _require(raw, "name", str, where)
    kind = raw.get("kind", "enumerated")
    if kind not in ITEM_KINDS:
        raise MalformedDocumentError(f"{where}.kind: unknown kind {kind!r}")
    leaves = tuple(_parse_leaf(leaf, f"{where}.leaves[{i}]")
                   for i, leaf in enumerate(_optional_list(raw, "leaves", where)))
    _check_sibling_numbers(leaves, f"{where}.leaves")
    return Item(code, name, kind, leaves)


def load_catalog(source: bytes | str) -> Catalog:
    """Parse and index a catalog document.

    Raises :class:`MalformedDocumentError` for structural problems,
    :class:`DuplicateCodeError` when one code is declared twice at a level,
    and :class:`DanglingProfileReferenceError` for overrides that target
    nothing.
    """
    try:
        data = source.encode("utf-8") if isinstance(source, str) else source
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedDocumentError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocumentError("top level: expected an object")

    version = _require(doc, "version", str, "document")
    taxonomies_raw = _require(doc, "taxonomies", list, "document")
    profiles_raw = _optional_list(doc, "profiles", "document")

    taxonomies: list[Taxonomy] = []
    # Taxonomy and profile codes share one namespace.
    code_positions: dict[str, str] = {}
    for ti, raw_tax in enumerate(taxonomies_raw):
        where = f"taxonomies[{ti}]"
        code = _require(raw_tax, "code", str, where)
        name = _require(raw_tax, "name", str, where)
        _claim(code_positions, code, where, code)
        categories: list[Category] = []
        cat_positions: dict[str, str] = {}
        for ci, raw_cat in enumerate(_require(raw_tax, "categories", list, where)):
            cwhere = f"{where}.categories[{ci}]"
            ccode = _require(raw_cat, "code", str, cwhere)
            cname = _require(raw_cat, "name", str, cwhere)
            _claim(cat_positions, ccode, cwhere, f"{code}.{ccode}")
            items: list[Item] = []
            item_positions: dict[str, str] = {}
            for ii, raw_item in enumerate(_require(raw_cat, "items", list, cwhere)):
                iwhere = f"{cwhere}.items[{ii}]"
                parsed = _parse_item(raw_item, iwhere)
                _claim(item_positions, parsed.code, iwhere,
                       f"{code}.{ccode}.{parsed.code}")
                items.append(parsed)
            categories.append(Category(ccode, cname, tuple(items)))
        taxonomies.append(Taxonomy(code, name, tuple(categories)))

    tax_index = {t.code: t for t in taxonomies}
    profiles: list[Profile] = []
    for pi, raw_profile in enumerate(profiles_raw):
        where = f"profiles[{pi}]"
        pcode = _require(raw_profile, "code", str, where)
        pname = _require(raw_profile, "name", str, where)
        _claim(code_positions, pcode, where, pcode)
        overrides: list[Override] = []
        seen_targets: dict[tuple[str, str, str], str] = {}
        for oi, raw_ov in enumerate(
                _optional_list(raw_profile, "overrides", where)):
            owhere = f"{where}.overrides[{oi}]"
            ov_tax = _require(raw_ov, "taxonomy", str, owhere)
            ov_cat = _require(raw_ov, "category", str, owhere)
            ov_item = _require(raw_ov, "item", str, owhere)
            definition = _parse_item(_require(raw_ov, "definition", dict,
                                              owhere), f"{owhere}.definition")
            if ov_tax not in tax_index:
                raise DanglingProfileReferenceError(
                    f"{owhere}: taxonomy {ov_tax!r} does not exist")
            target_tax = tax_index[ov_tax]
            if ov_cat not in {c.code for c in target_tax.categories}:
                raise DanglingProfileReferenceError(
                    f"{owhere}: category {ov_tax}.{ov_cat} does not exist")
            if definition.code != ov_item:
                raise MalformedDocumentError(
                    f"{owhere}: definition code {definition.code!r} does not "
                    f"match item {ov_item!r}")
            _claim(seen_targets, (ov_tax, ov_cat, ov_item), owhere,
                   f"{pcode}:{ov_tax}.{ov_cat}.{ov_item}")
            overrides.append(Override(ov_tax, ov_cat, ov_item, definition))
        profiles.append(Profile(pcode, pname, tuple(overrides)))

    catalog = Catalog(version, tuple(taxonomies), tuple(profiles), "")
    catalog._checksum = bytes(data)  # a copy only of a mutable source
    return catalog


@cache
def load_bundled_catalog() -> Catalog:
    """The catalog shipped inside the package (cached)."""
    return load_catalog((resources.files("taxidma") / "data" /
                         BUNDLED_CATALOG_RESOURCE).read_bytes())


# -- verification ------------------------------------------------------------


def _walk_all_leaves(item: Item):
    """Yield (path_string_suffix, leaf) for every leaf of an item."""
    def walk(prefix: str, leaves: tuple[Leaf, ...]):
        for leaf in leaves:
            path = f"{prefix}.{leaf.number}"
            yield path, leaf
            yield from walk(path, leaf.children)
    yield from walk("", item.leaves)


def _iter_items(catalog: Catalog):
    """Yield (path, item) for base items and profile override definitions."""
    for taxonomy in catalog.taxonomies:
        for category in taxonomy.categories:
            for item in category.items:
                yield f"{taxonomy.code}.{category.code}.{item.code}", item
    for profile in catalog.profiles:
        for ov in profile.overrides:
            yield (f"{profile.code}:{ov.taxonomy}.{ov.category}.{ov.item}",
                   ov.definition)


def _item_at(catalog: Catalog, path: str) -> Item | None:
    """The base item at ``TAX.CAT.ITEM``, or the definition of the override
    at ``PROFILE:TAX.CAT.ITEM`` (never the base item it replaces)."""
    profile, _, rest = path.rpartition(":")
    tax, cat, code = rest.split(".")
    if profile:
        p = catalog.profile(profile)
        return next((ov.definition for ov in (p.overrides if p else ())
                     if (ov.taxonomy, ov.category, ov.item) == (tax, cat, code)),
                    None)
    return next((item for item in catalog.effective_items(None, tax, cat)
                 if item.code == code), None)


def _sub_leaf(item: Item | None, number: int) -> Leaf | None:
    if item is None:
        return None
    return next((l for l in item.leaves if l.number == number), None)


def _v(rule: str, path: str, message: str) -> CatalogViolation:
    return CatalogViolation(rule, path, message)


# Each rule inspects the whole catalog and returns violations.
RuleFn = Callable[[Catalog], list[CatalogViolation]]


def _rule_taxonomy_codes(catalog: Catalog) -> list[CatalogViolation]:
    known = {"BG", "SI", "IMS", "UE"}
    return [_v("taxonomy-codes", t.code, f"unexpected taxonomy {t.code!r}")
            for t in catalog.taxonomies if t.code not in known]


def _rule_bg_has_attacker(catalog: Catalog) -> list[CatalogViolation]:
    bg = catalog.taxonomy("BG")
    if bg is None:
        return [_v("BG-has-attacker", "BG", "taxonomy BG missing")]
    if not any(c.code == "A" for c in bg.categories):
        return [_v("BG-has-attacker", "BG", "no Attacker category")]
    return []


def _rule_category_sets(catalog: Catalog) -> list[CatalogViolation]:
    out = []
    for taxonomy in catalog.taxonomies:
        have = {c.code for c in taxonomy.categories}
        want = {"A", "T", "I", "K"} if taxonomy.code == "BG" else {"T", "I", "K"}
        if have != want:
            out.append(_v("category-set", taxonomy.code,
                          f"categories {sorted(have)} != {sorted(want)}"))
    return out


def _rule_fixed_item_codes(catalog: Catalog) -> list[CatalogViolation]:
    out = []
    for path, item in _iter_items(catalog):
        want = FIXED_ITEM_CODES.get(item.name)
        if want is not None and item.code != want:
            out.append(_v("fixed-item-codes", path,
                          f"item named {item.name!r} must use code {want!r}"))
    return out


def _rule_others_is_zero(catalog: Catalog) -> list[CatalogViolation]:
    out = []
    for path, item in _iter_items(catalog):
        for suffix, leaf in _walk_all_leaves(item):
            where = path + suffix
            if leaf.name == "Others" and leaf.number != 0:
                out.append(_v("others-is-zero", where,
                              f"Others numbered {leaf.number}"))
            if leaf.number == 0 and leaf.name != "Others":
                out.append(_v("others-is-zero", where,
                              f"number 0 used for {leaf.name!r}"))
    return out


def _rule_leaf_numbering(catalog: Catalog) -> list[CatalogViolation]:
    out = []
    for path, item in _iter_items(catalog):
        groups: dict[str, tuple[Leaf, ...]] = {"": item.leaves}
        for suffix, leaf in _walk_all_leaves(item):
            if leaf.children:
                groups[suffix] = leaf.children
        for suffix, siblings in groups.items():
            nonzero = sorted(l.number for l in siblings if l.number != 0)
            if nonzero != list(range(1, len(nonzero) + 1)):
                out.append(_v("leaf-numbering", path + suffix,
                              f"numbers {nonzero} not contiguous from 1"))
            if sum(1 for l in siblings if l.number == 0) > 1:
                out.append(_v("leaf-numbering", path + suffix,
                              "more than one leaf numbered 0"))
    return out


def _rule_kind_leaves(catalog: Catalog) -> list[CatalogViolation]:
    out = []
    for path, item in _iter_items(catalog):
        if item.kind not in ITEM_KINDS:
            out.append(_v("kind-leaves", path, f"unknown kind {item.kind!r}"))
        elif item.kind != "enumerated" and item.leaves:
            out.append(_v("kind-leaves", path,
                          f"{item.kind} item must not declare leaves"))
    return out


def _rule_item_codes_unique(catalog: Catalog) -> list[CatalogViolation]:
    out = []
    scopes = [(None, t.code, c.code) for t in catalog.taxonomies
              for c in t.categories]
    scopes += [(p.code, t.code, c.code) for p in catalog.profiles
               for t in catalog.taxonomies for c in t.categories]
    for profile, tax, cat in scopes:
        seen: set[str] = set()
        prefix = f"{profile}:{tax}" if profile else tax
        for item in catalog.effective_items(profile, tax, cat):
            if item.code in seen:
                out.append(_v("item-code-unique", f"{prefix}.{cat}.{item.code}",
                              "item code appears twice"))
            seen.add(item.code)
    return out


def _rule_knowledge_scale(catalog: Catalog) -> list[CatalogViolation]:
    leaf = _sub_leaf(_item_at(catalog, "BG.A.C"), 3)
    want = ["None", "Minimal", "Intermediate", "Advanced", "Expert",
            "Innovator", "Strategic"]
    if leaf is None:
        return [_v("knowledge-scale", "BG.A.C.3", "missing")]
    got = [c.name for c in leaf.children]
    if got != want or [c.number for c in leaf.children] != list(range(1, 8)):
        return [_v("knowledge-scale", "BG.A.C.3", f"scale {got} != {want}")]
    return []


def _rule_time_scale(catalog: Catalog) -> list[CatalogViolation]:
    leaf = _sub_leaf(_item_at(catalog, "BG.A.C"), 4)
    if leaf is None:
        return [_v("time-scale", "BG.A.C.4", "missing")]
    got = [c.name for c in leaf.children]
    if got != ["Little", "Medium", "Much"]:
        return [_v("time-scale", "BG.A.C.4", f"scale {got}")]
    return []


def _rule_ue_identity_types(catalog: Catalog) -> list[CatalogViolation]:
    item = _item_at(catalog, "UE.I.T")
    if item is None:
        return [_v("ue-identity-types", "UE.I.T", "item missing")]
    names = {l.name for l in item.leaves}
    want = {"Financial", "Employment", "State", "Phone", "Insurance",
            "Online Social Network", "Online Shopping", "Email", "Others"}
    out = []
    missing = want - names
    if missing:
        out.append(_v("ue-identity-types", "UE.I.T",
                      f"missing {sorted(missing)}"))
    for number, label, need in (
            (1, "Financial", {"Credit Card", "Bank"}),
            (3, "State", {"Tax", "eID", "Social Security Number"})):
        leaf = next((l for l in item.leaves if l.name == label), None)
        if leaf is None or need - {c.name for c in leaf.children}:
            out.append(_v("ue-identity-types", f"UE.I.T.{number}",
                          f"{label} sub-leaves incomplete"))
    return out


def _rule_ue_brute_force(catalog: Catalog) -> list[CatalogViolation]:
    item = _item_at(catalog, "UE.K.T")
    active = _sub_leaf(item, 1)
    brute = None
    if active is not None:
        brute = next((c for c in active.children if c.name == "Brute Force"),
                     None)
    if brute is None:
        return [_v("ue-brute-force", "UE.K.T.1", "Brute Force leaf missing")]
    names = {c.name for c in brute.children}
    want = {"OSINT-Based", "Hybrid", "Password Spraying", "Credential Stuffing",
            "Dictionary", "Rainbow Table"}
    missing = want - names
    if missing:
        return [_v("ue-brute-force", "UE.K.T.1", f"missing {sorted(missing)}")]
    return []


# Per-target checks that ride along a leaf-set row, run right after that
# target's own leaf-set check: (rule, path, item or None) -> violations.
def _theft_children(rule: str, path: str, item: Item | None):
    theft = _sub_leaf(item, 1)
    if theft is None:
        return [_v(rule, f"{path}.1", "missing")]
    out = []
    got = [c.name for c in theft.children if c.number != 0]
    if got != ["New Account Fraud", "Account Takeover"]:
        out.append(_v(rule, f"{path}.1", f"children {got}"))
    if not any(c.number == 0 for c in theft.children):
        out.append(_v(rule, f"{path}.1", "Others missing"))
    return out


def _named_domain(rule: str, path: str, item: Item | None):
    if item is not None and item.name != "Domain":
        return [_v(rule, path, f"item named {item.name!r}, expected Domain")]
    return []


def _no_user_categories(rule: str, path: str, item: Item | None):
    names = {l.name for l in item.leaves} if item is not None else set()
    return [_v(rule, path, f"{gone!r} must not survive the override")
            for gone in ("User Management", "User Repository") if gone in names]


def _ssi_sub_levels(rule: str, path: str, item: Item | None):
    if item is None:
        return []
    out = []
    for number, label, want in ((2, "Network", ["Normal", "Decentralized"]),
                                (3, "System", ["Server", "Client"])):
        leaf = _sub_leaf(item, number)
        if leaf is None or [c.name for c in leaf.children] != want:
            out.append(_v(rule, f"{path}.{number}",
                          f"{label} sub-leaves wrong"))
    return out


class _LeafSet(NamedTuple):
    """One fixed leaf set: leaves 1..k of every target carry exactly
    ``names`` in order, and an Others leaf (number 0) exists iff ``others``.

    A target with a dot is a path read by :func:`_item_at`; one without
    is a display name selecting every item of that name.  ``each`` runs
    after each target's check; ``absent`` is reported when a display name
    matches no item at all.
    """

    targets: tuple[str, ...]
    names: list[str]
    others: bool = True
    each: Callable[[str, str, Item | None],
                   list[CatalogViolation]] | None = None
    absent: str | None = None


def _check_leaf_set(rule: str, row: _LeafSet,
                    catalog: Catalog) -> list[CatalogViolation]:
    out = []
    for target in row.targets:
        if "." in target:
            found = [(target, _item_at(catalog, target))]
        else:
            found = [(path, item) for path, item in _iter_items(catalog)
                     if item.name == target]
            if not found and row.absent:
                out.append(_v(rule, "*", row.absent))
        for path, item in found:
            if item is None:
                out.append(_v(rule, path, "item missing"))
            else:
                got = [l.name for l in sorted(item.leaves,
                                              key=lambda l: l.number)
                       if l.number != 0]
                if got != row.names:
                    out.append(_v(rule, path, f"leaves {got} != {row.names}"))
                if any(l.number == 0 for l in item.leaves) != row.others:
                    state = "missing" if row.others else "unexpected"
                    out.append(_v(rule, path, f"Others leaf {state}"))
            if row.each is not None:
                out.extend(row.each(rule, path, item))
    return out


# Every content rule in report order: a bespoke function, or a row of the
# fixed leaf-set table that _check_leaf_set checks.
_CONTENT_TABLE: tuple[tuple[str, RuleFn | _LeafSet], ...] = (
    ("BG-has-attacker", _rule_bg_has_attacker),
    ("others-is-zero", _rule_others_is_zero),
    ("bg-capabilities-items", _LeafSet(
        ("BG.A.C",), ["Motivation", "Resources", "Knowledge", "Time"],
        others=False)),
    ("knowledge-scale", _rule_knowledge_scale),
    ("time-scale", _rule_time_scale),
    ("authenticity-leaves", _LeafSet(
        ("BG.I.A",), ["Impostor", "New Account", "Compromised Account",
                      "None"])),
    ("attack-category-leaves", _LeafSet(
        ("SI.K.G", "IMS.K.G"),
        ["Identification", "Authentication", "Authorization", "Trust",
         "Governance", "User Management", "User Repository", "Information"])),
    ("lifecycle-stages", _LeafSet(
        ("Lifecycle",),
        ["Reconnaissance", "Resource Development", "Initial Access",
         "Persistence", "Privilege Escalation", "Defense Evasion",
         "Credential Access", "Discovery", "Lateral Movement", "Collection",
         "Command and Control"], absent="no Lifecycle item anywhere")),
    ("ue-pattern-tree", _LeafSet(
        ("UE.K.B",), ["Identity Theft", "Identity Manipulation",
                      "De-anonymization"], each=_theft_children)),
    ("ue-identity-types", _rule_ue_identity_types),
    ("ue-brute-force", _rule_ue_brute_force),
    ("amount-leaves", _LeafSet(
        ("Amount",), ["Single", "Selected", "All"], others=False)),
    ("timeliness-leaves", _LeafSet(
        ("Timeliness",), ["Temporary", "Recoverable"], others=False)),
    ("completeness-leaves", _LeafSet(
        ("Completeness",), ["Full", "Partial"], others=False)),
    ("directness-leaves", _LeafSet(
        ("Directness",), ["Direct", "Indirect"], others=False)),
    ("iot-target-type", _LeafSet(
        ("IoT:BG.T.T",), ["Consumer", "Commercial", "Industrial"])),
    ("iot-domain", _LeafSet(
        ("IoT:BG.T.S",), ["Smart Home", "Health Care", "Transportation",
                          "Industry 4.0"], each=_named_domain)),
    ("iot-level", _LeafSet(
        ("IoT:SI.T.L",), ["Physical", "Logical", "Application"])),
    ("iot-characteristics", _LeafSet(
        ("IoT:SI.T.H",), ["Automation", "Intelligence", "Storage", "Sensing",
                          "Processing"])),
    ("iot-attack-category", _LeafSet(
        ("IoT:SI.K.G",), ["Identification", "Authentication", "Authorization",
                          "Trust", "Governance", "Management", "Information"],
        each=_no_user_categories)),
    ("ssi-level", _LeafSet(
        ("SSI:SI.T.L", "SSI:IMS.T.L", "SSI:UE.T.L"),
        ["Service", "Network", "System", "Wallet", "Agent", "User"],
        each=_ssi_sub_levels)),
    ("ssi-location", _LeafSet(
        ("SSI:SI.T.O", "SSI:IMS.T.O", "SSI:UE.T.O"),
        ["Issuer", "Holder", "Verifier", "TTP", "Decentralized Storage",
         "User Device", "Transmission"])),
)


STRUCTURAL_RULES: dict[str, RuleFn] = {
    "taxonomy-codes": _rule_taxonomy_codes,
    "category-set": _rule_category_sets,
    "fixed-item-codes": _rule_fixed_item_codes,
    "leaf-numbering": _rule_leaf_numbering,
    "kind-leaves": _rule_kind_leaves,
    "item-code-unique": _rule_item_codes_unique,
}

CONTENT_RULES: dict[str, RuleFn] = {
    name: partial(_check_leaf_set, name, rule)
    if isinstance(rule, _LeafSet) else rule
    for name, rule in _CONTENT_TABLE}

ALL_RULES: dict[str, RuleFn] = {**STRUCTURAL_RULES, **CONTENT_RULES}


def verify_catalog(catalog: Catalog) -> list[CatalogViolation]:
    """Run every named rule; an empty list means the catalog is sound."""
    out: list[CatalogViolation] = []
    for rule in ALL_RULES.values():
        out.extend(rule(catalog))
    return out
