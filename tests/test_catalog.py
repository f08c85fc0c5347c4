"""Catalog loading, lookup, enumeration, naming, and verification tests."""
from __future__ import annotations

import hashlib
import json
import re
from importlib import resources

import pytest

from taxidma.catalog import (
    ALL_RULES,
    CONTENT_RULES,
    Catalog,
    Category,
    Item,
    Leaf,
    Override,
    Profile,
    Taxonomy,
    load_bundled_catalog,
    load_catalog,
    verify_catalog,
)
from taxidma.codes import TaxonomyCode, canonicalize, format_code, parse_code
from taxidma.errors import (
    DanglingProfileReferenceError,
    DuplicateCodeError,
    InvalidCodeError,
    MalformedDocumentError,
    UnknownPathError,
)

import doc_walker

CATALOG_PATH = "src/taxidma/data/taxidma-v2.catalog.json"


@pytest.fixture(scope="module")
def catalog():
    return load_bundled_catalog()


@pytest.fixture(scope="module")
def doc():
    import taxidma
    from pathlib import Path
    root = Path(taxidma.__file__).parent
    return doc_walker.load(root / "data" / "taxidma-v2.catalog.json")


def make_doc(**kwargs):
    """A minimal syntactically complete document, overridable per test."""
    base = {
        "version": "2.0",
        "taxonomies": [
            {"code": "BG", "name": "Background", "categories": [
                {"code": "A", "name": "Attacker", "items": [
                    {"code": "T", "name": "Type", "kind": "enumerated",
                     "leaves": [{"n": 1, "name": "Solo", "children": []},
                                {"n": 0, "name": "Others", "children": []}]},
                ]},
            ]},
        ],
        "profiles": [],
    }
    base.update(kwargs)
    return json.dumps(base)


def test_bundled_catalog_loads(catalog):
    assert catalog.version == "2.0"
    assert [t.code for t in catalog.taxonomies] == ["BG", "SI", "IMS", "UE"]
    assert [p.code for p in catalog.profiles] == ["IoT", "SSI"]
    assert re.fullmatch(r"[0-9a-f]{64}", catalog.checksum)


def test_checksum_is_stable_and_input_sensitive(catalog):
    text = make_doc()
    first = load_catalog(text)
    second = load_catalog(text)
    assert first.checksum == second.checksum
    changed = load_catalog(text.replace("Solo", "Duo"))
    assert changed.checksum != first.checksum
    assert catalog.checksum != first.checksum


def test_bundled_catalog_verifies_clean(catalog):
    assert verify_catalog(catalog) == []


def test_content_rule_registry_is_complete(catalog):
    assert len(CONTENT_RULES) >= 14
    for name, rule in CONTENT_RULES.items():
        assert rule(catalog) == [], f"rule {name} fired on the bundled catalog"


def test_lookup_leaf(catalog):
    node = catalog.lookup("BG.I.A.1")
    assert node.name == "Impostor"
    assert node.kind == "leaf"
    assert node.children_count == 0
    assert node.item_kind == "enumerated"


def test_lookup_item_and_category(catalog):
    item = catalog.lookup("BG.I.A")
    assert item.kind == "item"
    assert item.name == "Authenticity"
    assert item.children_count == 5
    category = catalog.lookup("BG.I")
    assert category.kind == "category"
    assert category.name == "Identity"
    taxonomy = catalog.lookup("BG")
    assert taxonomy.kind == "taxonomy"
    assert taxonomy.name == "Background"
    assert taxonomy.children_count == 4


def test_lookup_free_text_item(catalog):
    node = catalog.lookup("BG.K.Y")
    assert node.item_kind == "free_text"
    assert node.children_count == 0
    assert node.name == "Vulnerability"


def test_profile_override_replaces_item(catalog):
    node = catalog.lookup("IoT:SI.K.G")
    assert node.kind == "item"
    assert node.name == "Category"
    names = [catalog.lookup(code).name
             for code in catalog.enumerate_codes("IoT:SI.K.G")]
    assert "Management" in names
    assert "User Repository" not in names
    assert "User Management" not in names
    # The base taxonomy is untouched.
    base_names = [catalog.lookup(code).name
                  for code in catalog.enumerate_codes("SI.K.G")]
    assert "User Repository" in base_names


def test_profile_override_adds_item(catalog):
    node = catalog.lookup("IoT:BG.I.O")
    assert node.name == "Location"
    assert catalog.lookup("IoT:BG.I.O.1").name == "Producer"
    with pytest.raises(UnknownPathError):
        catalog.lookup("BG.I.O")


def test_unqualified_profile_taxonomy_falls_back(catalog):
    # IoT does not touch UE, but qualified codes still resolve to base content.
    assert catalog.lookup("IoT:UE.K.B.1").name == "Identity Theft"


def test_unknown_path_reports_longest_prefix(catalog):
    with pytest.raises(UnknownPathError) as exc:
        catalog.lookup("BG.Z")
    assert exc.value.resolved_prefix == "BG"
    with pytest.raises(UnknownPathError) as exc:
        catalog.lookup("BG.I.A.9")
    assert exc.value.resolved_prefix == "BG.I.A"
    with pytest.raises(UnknownPathError) as exc:
        catalog.lookup("IoT:SI.T.H.9.1")
    assert exc.value.resolved_prefix == "IoT:SI.T.H"
    with pytest.raises(UnknownPathError) as exc:
        catalog.lookup("IoT:SI.Z.T.1")
    assert exc.value.resolved_prefix == "IoT:SI"
    assert "no category 'Z'" in str(exc.value)
    without_profiles = load_catalog(make_doc())
    with pytest.raises(UnknownPathError) as exc:
        without_profiles.lookup("IoT:BG.A.T.1")
    assert exc.value.resolved_prefix == ""
    assert "unknown profile 'IoT'" in str(exc.value)


def test_reserved_and_profile_tokens_do_not_resolve(catalog):
    with pytest.raises(UnknownPathError) as exc:
        catalog.lookup("WA")
    assert exc.value.resolved_prefix == ""
    with pytest.raises(UnknownPathError):
        catalog.lookup("IoT")
    with pytest.raises(UnknownPathError):
        catalog.lookup("SSI.T.L")


def test_bool_and_negative_leaf_numbers_are_invalid(catalog):
    for leaf_path in ((True,), (-1,)):
        code = TaxonomyCode("BG", "I", "A", leaf_path)
        with pytest.raises(InvalidCodeError):
            catalog.resolve(code)
        with pytest.raises(InvalidCodeError):
            catalog.lookup(code)


def test_list_leaf_path_resolves_like_a_tuple(catalog):
    listed = TaxonomyCode("BG", "I", "A", [1])
    assert catalog.resolve(listed) == catalog.resolve("BG.I.A.1")
    assert catalog.lookup(listed).name == "Impostor"
    with pytest.raises(UnknownPathError) as exc:
        catalog.resolve(TaxonomyCode("BG", "I", "A", [9]))
    assert exc.value.resolved_prefix == "BG.I.A"


def test_codes_resolve_alike_as_text_and_as_fresh_code(catalog):
    for code in catalog.enumerate_codes():
        text = format_code(code)
        fresh = TaxonomyCode(code.taxonomy, code.category, code.item,
                             tuple(code.leaf_path), code.profile)
        by_text = catalog.resolve(text)
        by_code = catalog.resolve(fresh)
        assert len(by_text) == len(by_code) == 4
        assert all(a is b for a, b in zip(by_text[:3], by_code[:3])), text
        assert [id(leaf) for leaf in by_text[3]] == \
            [id(leaf) for leaf in by_code[3]], text


def test_first_of_repeated_siblings_wins_in_a_directly_built_catalog():
    # The loader rejects repeats; a hand-built catalog resolves the first.
    first = Item("T", "First", leaves=(
        Leaf(1, "One"), Leaf(1, "Again", (Leaf(1, "Deep"),))))
    second = Item("T", "Second", leaves=(Leaf(1, "Uno"), Leaf(2, "Two")))
    tree = Taxonomy("BG", "Background",
                    (Category("A", "Attacker", (first, second)),
                     Category("A", "Repeat", (first, second))))
    built = Catalog("x", (tree,), (), "0")
    assert built.lookup("BG.A").name == "Attacker"
    assert built.lookup("BG.A.T").name == "First"
    assert built.lookup("BG.A.T.1").name == "One"
    for text, prefix in (("BG.A.T.2", "BG.A.T"), ("BG.A.T.1.1", "BG.A.T.1")):
        with pytest.raises(UnknownPathError) as exc:
            built.resolve(text)
        assert exc.value.resolved_prefix == prefix
    # Enumeration reads the index too: no repeats, no unresolvable codes.
    enumerated = [format_code(c) for c in built.enumerate_codes()]
    assert enumerated == ["BG.A.T.1"]
    for text in enumerated:
        built.resolve(text)
    # Repeated taxonomy and profile codes: the first declaration wins too,
    # with the items it declares or overrides.
    again = Taxonomy("BG", "Second", (Category("A", "Other", (second,)),))
    profiles = tuple(Profile("IoT", name, (Override(
        "BG", "A", "T", Item("T", f"{name} Item", leaves=(Leaf(7, name),))),))
        for name in ("One", "Two"))
    built = Catalog("x", (tree, again), profiles, "0")
    assert built.lookup("BG").name == "Background"
    assert built.taxonomy("BG") is tree
    assert built.profile("IoT") is profiles[0]
    assert built.effective_items(None, "BG", "A") == (first, second)
    assert built.lookup("BG.A.T.1").name == "One"
    assert built.full_name("IoT:BG") == "One Background"
    assert built.full_name("IoT:BG.A.T.7") == \
        "One Background Attacker One Item One"
    assert [format_code(c) for c in built.enumerate_codes()] == \
        ["BG.A.T.1", "IoT:BG.A.T.7"]
    assert [text for text, _ in built.subtree("BG")] == \
        ["BG", "BG.A", "BG.A.T", "BG.A.T.1"]


def test_first_of_repeated_overrides_wins_in_a_directly_built_catalog():
    # The loader rejects repeated overrides; a hand-built catalog keeps the
    # first per (profile, taxonomy, category, item), replaced or appended.
    tree = Taxonomy("BG", "Background", (Category("A", "Attacker", (
        Item("T", "Type", leaves=(Leaf(1, "One"),)),)),))
    overrides = tuple(Override("BG", "A", code, Item(code, name))
                      for code, name in (("T", "First ov"), ("T", "Second ov"),
                                         ("Q", "First add"),
                                         ("Q", "Second add")))
    built = Catalog("x", (tree,), (Profile("IoT", "IoT", overrides),), "0")
    assert built.lookup("IoT:BG.A.T").name == "First ov"
    assert built.lookup("IoT:BG.A.Q").name == "First add"
    assert [item.name for item in built.effective_items("IoT", "BG", "A")] \
        == ["First ov", "First add"]
    assert built.lookup("BG.A.T").name == "Type"


def test_lenient_parse_renders_canonical_text():
    assert format_code(parse_code("iot:si.k.g.2", lenient=True)) == \
        "IoT:SI.K.G.2"


def test_full_name_examples(catalog):
    assert catalog.full_name("BG.I.A.1") == \
        "Background Identity Authenticity Impostor"
    assert catalog.full_name("IoT:SI.K.G.6") == \
        "Internet of Things Service Identities Attack Category Management"
    assert catalog.full_name("UE.K.T.1.4.4") == \
        "End-Users Attack Type Active Brute Force Credential Stuffing"
    assert catalog.full_name("SSI:IMS.T.O.4") == \
        "Self-Sovereign Identities Identity Management Systems Target " \
        "Location TTP"


def test_full_name_extends_parent_name(catalog):
    for text in ("UE.K.T.1.4.4", "IoT:BG.I.O.1", "BG.T.S.13.2"):
        code = parse_code(text)
        node = code.parent()
        child_name = catalog.full_name(code)
        while node is not None:
            parent_name = catalog.full_name(node)
            assert child_name.startswith(parent_name)
            node = node.parent()


def _name_from_chain(catalog, text):
    """The full name built from the node chain that resolution returns."""
    code = parse_code(text)
    taxonomy, category, item, chain = catalog.resolve(code)
    parts = [catalog.profile(code.profile).name] if code.profile else []
    parts += [node.name for node in (taxonomy, category, item) if node]
    return " ".join(parts + [leaf.name for leaf in chain])


def test_full_name_table_matches_parsed_lookup():
    fresh = load_catalog(resources.files("taxidma").joinpath(
        "data", "taxidma-v2.catalog.json").read_bytes())
    assert "_full_names" not in vars(fresh)  # built as used, not at load
    for text in fresh._index:
        name = fresh.full_name(text)
        assert name == fresh.full_name(parse_code(text)), text
        assert name == _name_from_chain(fresh, text), text
    assert fresh.full_name(TaxonomyCode("BG", "I", "A", [1])) == \
        fresh.full_name("BG.I.A.1")


# Each miss raises what it raised when full_name, resolve and lookup parsed
# every argument before reading the index.
@pytest.mark.parametrize("code, error, message", [
    ("bg.i.a.1", "CodeSyntaxError", "expected taxonomy token (offset 0)"),
    ("BG.I.A.01", "CodeSyntaxError",
     "leading zero in leaf number (offset 7)"),
    ("WA.K", "UnknownPathError", "WA.K: reserved token"),
    ("XX:BG", "CodeSyntaxError", "unknown profile 'XX' (offset 0)"),
    ("", "EmptyInputError", "empty code string (offset 0)"),
    ("IoT:BG.I.A.99", "UnknownPathError",
     "IoT:BG.I.A.99: no leaf numbered 99 (resolved up to 'IoT:BG.I.A')"),
    ("IoT", "UnknownPathError",
     "IoT: 'IoT' is a profile token; qualify a taxonomy as IoT:<TAX>"),
    ("BG.I.A.1 ", "CodeSyntaxError", "expected '.' before ' ' (offset 8)"),
    (TaxonomyCode("BG", "I", "A", (99,)), "UnknownPathError",
     "BG.I.A.99: no leaf numbered 99 (resolved up to 'BG.I.A')"),
    (TaxonomyCode("bg"), "InvalidCodeError", "bad taxonomy token 'bg'"),
    (TaxonomyCode("BG", "I", "A", (-1,)), "InvalidCodeError",
     "bad leaf number -1"),
    (5, "AttributeError", "'int' object has no attribute 'profile'"),
    (None, "AttributeError", "'NoneType' object has no attribute 'profile'"),
    (b"BG", "AttributeError", "'bytes' object has no attribute 'profile'"),
    (["BG"], "AttributeError", "'list' object has no attribute 'profile'"),
])
def test_full_name_misses_raise_as_before(catalog, code, error, message):
    for method in (catalog.full_name, catalog.resolve, catalog.lookup):
        with pytest.raises(Exception) as exc:
            method(code)
        assert (type(exc.value).__name__, str(exc.value)) == \
            (error, message), method.__name__


def test_enumerate_item_order(catalog):
    got = [format_code(c) for c in catalog.enumerate_codes("BG.I.A")]
    assert got == ["BG.I.A.1", "BG.I.A.2", "BG.I.A.3", "BG.I.A.4", "BG.I.A.0"]


def test_enumerate_leaf_prefix_includes_itself(catalog):
    got = [format_code(c) for c in catalog.enumerate_codes("UE.K.B.1")]
    assert got == ["UE.K.B.1", "UE.K.B.1.1", "UE.K.B.1.2", "UE.K.B.1.0"]
    assert [format_code(c)
            for c in catalog.enumerate_codes("BG.I.A.1")] == ["BG.I.A.1"]


def test_enumeration_matches_document_walker(catalog, doc):
    mine = [format_code(c) for c in catalog.enumerate_codes()]
    oracle = doc_walker.all_leaf_codes(doc)
    assert mine == oracle
    assert len(mine) == doc_walker.leaf_count(doc)
    assert len(mine) == len(set(mine))


def test_subtree_enumeration_matches_document_walker(catalog, doc):
    codes = doc_walker.all_leaf_codes(doc)
    for prefix in ("BG", "UE.K", "SI.T.L", "IoT:SI.T", "SSI:UE.T.L",
                   "BG.A.T.2", "IMS.I", *catalog._index):
        mine = [format_code(c) for c in catalog.enumerate_codes(prefix)]
        assert mine == doc_walker.subtree_codes(doc, prefix, codes), prefix
    # Under a pair the profile leaves unchanged, the base subtree qualified.
    for profile, tax in (("IoT", "IMS"), ("IoT", "UE"), ("SSI", "BG")):
        assert (profile, tax) not in doc_walker.profile_pairs(doc)
        base = doc_walker.subtree_codes(doc, tax, codes)
        qualified = doc_walker.subtree_codes(doc, f"{profile}:{tax}", codes)
        assert base and qualified == [f"{profile}:{code}" for code in base]


def test_enumerated_codes_all_resolve_and_canonicalize(catalog):
    seen = 0
    for code in catalog.enumerate_codes():
        text = format_code(code)
        assert canonicalize(text) == text
        node = catalog.lookup(text)
        assert node.kind == "leaf"
        seen += 1
    assert seen > 300


def test_prefix_enumeration_is_subset_of_full(catalog):
    full = {format_code(c) for c in catalog.enumerate_codes()}
    for prefix in ("BG.K", "UE", "IoT:BG", "SSI:IMS.T", "SI.K.T.1"):
        subset = {format_code(c) for c in catalog.enumerate_codes(prefix)}
        assert subset <= full


def test_enumerate_unknown_prefix_raises(catalog):
    with pytest.raises(UnknownPathError):
        list(catalog.enumerate_codes("BG.Q"))


def test_enumeration_is_deterministic(catalog):
    first = [format_code(c) for c in catalog.enumerate_codes()]
    second = [format_code(c) for c in catalog.enumerate_codes()]
    assert first == second


# -- loader errors -----------------------------------------------------------


def test_load_rejects_non_json():
    with pytest.raises(MalformedDocumentError):
        load_catalog(b"\x00\x01not json")
    with pytest.raises(MalformedDocumentError):
        load_catalog("[1, 2, 3]")


def test_load_requires_version_and_taxonomies():
    with pytest.raises(MalformedDocumentError):
        load_catalog(json.dumps({"taxonomies": []}))
    with pytest.raises(MalformedDocumentError):
        load_catalog(json.dumps({"version": "2.0"}))


def test_duplicate_taxonomy_reports_both_positions():
    doc = json.loads(make_doc())
    doc["taxonomies"].append(json.loads(json.dumps(doc["taxonomies"][0])))
    with pytest.raises(DuplicateCodeError) as exc:
        load_catalog(json.dumps(doc))
    assert exc.value.first == "taxonomies[0]"
    assert exc.value.second == "taxonomies[1]"


def test_duplicate_item_code_rejected():
    doc = json.loads(make_doc())
    items = doc["taxonomies"][0]["categories"][0]["items"]
    items.append(dict(items[0]))
    with pytest.raises(DuplicateCodeError) as exc:
        load_catalog(json.dumps(doc))
    assert "BG.A.T" in str(exc.value)


def test_duplicate_leaf_number_rejected():
    doc = json.loads(make_doc())
    leaves = doc["taxonomies"][0]["categories"][0]["items"][0]["leaves"]
    leaves.append({"n": 1, "name": "Again", "children": []})
    with pytest.raises(DuplicateCodeError):
        load_catalog(json.dumps(doc))


def test_dangling_override_taxonomy():
    doc = json.loads(make_doc())
    doc["profiles"] = [{"code": "IoT", "name": "Internet of Things",
                        "overrides": [
                            {"taxonomy": "ZZ", "category": "A", "item": "T",
                             "definition": {"code": "T", "name": "Type",
                                            "kind": "enumerated",
                                            "leaves": []}}]}]
    with pytest.raises(DanglingProfileReferenceError):
        load_catalog(json.dumps(doc))


def test_dangling_override_category():
    doc = json.loads(make_doc())
    doc["profiles"] = [{"code": "IoT", "name": "Internet of Things",
                        "overrides": [
                            {"taxonomy": "BG", "category": "K", "item": "T",
                             "definition": {"code": "T", "name": "Type",
                                            "kind": "enumerated",
                                            "leaves": []}}]}]
    with pytest.raises(DanglingProfileReferenceError):
        load_catalog(json.dumps(doc))


def test_override_definition_code_must_match():
    doc = json.loads(make_doc())
    doc["profiles"] = [{"code": "IoT", "name": "Internet of Things",
                        "overrides": [
                            {"taxonomy": "BG", "category": "A", "item": "T",
                             "definition": {"code": "X", "name": "Type",
                                            "kind": "enumerated",
                                            "leaves": []}}]}]
    with pytest.raises(MalformedDocumentError):
        load_catalog(json.dumps(doc))


def test_unknown_item_kind_rejected():
    doc = json.loads(make_doc())
    doc["taxonomies"][0]["categories"][0]["items"][0]["kind"] = "fancy"
    with pytest.raises(MalformedDocumentError):
        load_catalog(json.dumps(doc))


def test_load_rejects_nesting_too_deep_to_decode():
    with pytest.raises(MalformedDocumentError):
        load_catalog("[" * 100000)


@pytest.mark.parametrize("overrides", [5, None, {"taxonomy": "BG"}])
def test_non_list_overrides_rejected(overrides):
    doc = json.loads(make_doc())
    doc["profiles"] = [{"code": "IoT", "name": "I", "overrides": overrides}]
    with pytest.raises(MalformedDocumentError,
                       match=r"^profiles\[0\]\.overrides: wrong type$"):
        load_catalog(json.dumps(doc))


def _override(item="T"):
    return {"taxonomy": "BG", "category": "A", "item": item,
            "definition": {"code": item, "name": "Type", "leaves": []}}


def _duplicate_category(doc):
    cats = doc["taxonomies"][0]["categories"]
    cats.append(json.loads(json.dumps(cats[0])))


def _duplicate_item(doc):
    items = doc["taxonomies"][0]["categories"][0]["items"]
    items.append(json.loads(json.dumps(items[0])))


def _duplicate_leaf(doc):
    leaves = doc["taxonomies"][0]["categories"][0]["items"][0]["leaves"]
    leaves.append({"n": 1, "name": "Again"})


def _duplicate_child(doc):
    leaf = doc["taxonomies"][0]["categories"][0]["items"][0]["leaves"][0]
    leaf["children"] = [{"n": 2, "name": "A"}, {"n": 2, "name": "B"}]


def _duplicate_profile(doc):
    doc["profiles"] = [{"code": "IoT", "name": "I"},
                       {"code": "IoT", "name": "J"}]


def _profile_named_like_taxonomy(doc):
    doc["profiles"] = [{"code": "BG", "name": "B"}]


def _duplicate_override(doc):
    doc["profiles"] = [{"code": "IoT", "name": "I",
                        "overrides": [_override(), _override()]}]


@pytest.mark.parametrize("mutate, expected", [
    (_duplicate_category,
     ("BG.A", "taxonomies[0].categories[0]", "taxonomies[0].categories[1]")),
    (_duplicate_item,
     ("BG.A.T", "taxonomies[0].categories[0].items[0]",
      "taxonomies[0].categories[0].items[1]")),
    (_duplicate_leaf,
     ("leaf number 1", "taxonomies[0].categories[0].items[0].leaves[0]",
      "taxonomies[0].categories[0].items[0].leaves[2]")),
    (_duplicate_child,
     ("leaf number 2",
      "taxonomies[0].categories[0].items[0].leaves[0].children[0]",
      "taxonomies[0].categories[0].items[0].leaves[0].children[1]")),
    (_duplicate_profile, ("IoT", "profiles[0]", "profiles[1]")),
    (_profile_named_like_taxonomy, ("BG", "taxonomies[0]", "profiles[0]")),
    (_duplicate_override,
     ("IoT:BG.A.T", "profiles[0].overrides[0]", "profiles[0].overrides[1]")),
])
def test_duplicate_declarations_name_the_code_and_both_places(mutate,
                                                              expected):
    doc = json.loads(make_doc())
    mutate(doc)
    with pytest.raises(DuplicateCodeError) as exc:
        load_catalog(json.dumps(doc))
    assert (exc.value.code_path, exc.value.first, exc.value.second) == expected


# -- verification findings ---------------------------------------------------


def test_verify_flags_missing_attacker_category():
    doc = json.loads(make_doc())
    doc["taxonomies"][0]["categories"][0]["code"] = "T"
    doc["taxonomies"][0]["categories"][0]["name"] = "Target"
    catalog = load_catalog(json.dumps(doc))
    rules = {v.rule for v in verify_catalog(catalog)}
    assert "BG-has-attacker" in rules


def test_verify_flags_misnumbered_others():
    doc = json.loads(make_doc())
    leaves = doc["taxonomies"][0]["categories"][0]["items"][0]["leaves"]
    leaves[1] = {"n": 3, "name": "Others", "children": []}
    catalog = load_catalog(json.dumps(doc))
    findings = [v for v in verify_catalog(catalog) if v.rule == "others-is-zero"]
    assert findings and "BG.A.T.3" in findings[0].path


def test_verify_flags_gap_in_numbering():
    doc = json.loads(make_doc())
    leaves = doc["taxonomies"][0]["categories"][0]["items"][0]["leaves"]
    leaves[0]["n"] = 5
    catalog = load_catalog(json.dumps(doc))
    assert any(v.rule == "leaf-numbering" for v in verify_catalog(catalog))


def test_verify_flags_wrong_fixed_item_code():
    doc = json.loads(make_doc())
    doc["taxonomies"][0]["categories"][0]["items"][0]["code"] = "X"
    catalog = load_catalog(json.dumps(doc))
    assert any(v.rule == "fixed-item-codes" for v in verify_catalog(catalog))


def test_verify_flags_leaves_on_free_text_item():
    doc = json.loads(make_doc())
    doc["taxonomies"][0]["categories"][0]["items"][0]["kind"] = "free_text"
    catalog = load_catalog(json.dumps(doc))
    assert any(v.rule == "kind-leaves" for v in verify_catalog(catalog))


# -- golden verification over mutated copies of the bundled document ----------


def _raw_item(doc, path):
    """The raw item at ``TAX.CAT.ITEM`` or an override's ``P:TAX.CAT.ITEM``."""
    profile, _, rest = path.rpartition(":")
    tax, cat, code = rest.split(".")
    if profile:
        prof = next(p for p in doc["profiles"] if p["code"] == profile)
        return next(ov["definition"] for ov in prof["overrides"]
                    if (ov["taxonomy"], ov["category"], ov["item"])
                    == (tax, cat, code))
    taxonomy = next(t for t in doc["taxonomies"] if t["code"] == tax)
    category = next(c for c in taxonomy["categories"] if c["code"] == cat)
    return next(i for i in category["items"] if i["code"] == code)


def _raw_leaf(doc, path, *numbers):
    leaf = _raw_item(doc, path)
    for number in numbers:
        leaf = next(l for l in leaf["leaves" if "code" in leaf else "children"]
                    if l["n"] == number)
    return leaf


def _drop_item(doc, path):
    profile, _, rest = path.rpartition(":")
    tax, cat, code = rest.split(".")
    if profile:
        prof = next(p for p in doc["profiles"] if p["code"] == profile)
        prof["overrides"] = [ov for ov in prof["overrides"]
                             if (ov["taxonomy"], ov["category"], ov["item"])
                             != (tax, cat, code)]
        return
    taxonomy = next(t for t in doc["taxonomies"] if t["code"] == tax)
    category = next(c for c in taxonomy["categories"] if c["code"] == cat)
    category["items"] = [i for i in category["items"] if i["code"] != code]


def _rename_first(doc, path):
    _raw_leaf(doc, path, 1)["name"] = "Renamed"


def _drop_last(doc, path):
    leaves = _raw_item(doc, path)["leaves"]
    last = max(l["n"] for l in leaves)
    leaves[:] = [l for l in leaves if l["n"] != last]


def _toggle_others(doc, path):
    leaves = _raw_item(doc, path)["leaves"]
    if any(l["n"] == 0 for l in leaves):
        leaves[:] = [l for l in leaves if l["n"] != 0]
    else:
        leaves.append({"n": 0, "name": "Others", "children": []})


def _swap_first_two(doc, path):
    first, second = _raw_leaf(doc, path, 1), _raw_leaf(doc, path, 2)
    first["name"], second["name"] = second["name"], first["name"]


def _rename_lifecycles(doc):
    for path in ("SI.I.L", "IMS.I.L"):
        _raw_item(doc, path)["name"] = "Stage"


def _mutations():
    """(label, mutate) pairs; every mutated copy still loads."""
    base_targets = ("BG.A.C", "BG.I.A", "SI.K.G", "IMS.K.G", "SI.I.L",
                    "IMS.I.L", "UE.K.B", "UE.I.T", "UE.K.T", "SI.I.U",
                    "IMS.I.S", "UE.I.E", "SI.I.N")
    override_targets = ("IoT:BG.T.T", "IoT:BG.T.S", "IoT:BG.I.T",
                        "IoT:BG.I.O", "IoT:SI.T.L", "IoT:SI.T.O",
                        "IoT:SI.T.V", "IoT:SI.T.H", "IoT:SI.K.G",
                        "SSI:SI.T.L", "SSI:SI.T.O", "SSI:IMS.T.L",
                        "SSI:IMS.T.O", "SSI:UE.T.L", "SSI:UE.T.O")
    leaf_edits = (_rename_first, _drop_last, _toggle_others, _swap_first_two)
    out = []
    for path in base_targets:
        for edit in leaf_edits:
            out.append((f"{edit.__name__} {path}",
                        lambda d, e=edit, p=path: e(d, p)))
        out.append((f"drop {path}", lambda d, p=path: _drop_item(d, p)))
    for path in override_targets:
        out.append((f"drop {path}", lambda d, p=path: _drop_item(d, p)))
    for path in ("IoT:BG.T.T", "IoT:BG.T.S", "IoT:SI.T.L", "IoT:SI.T.H",
                 "IoT:SI.K.G", "SSI:SI.T.L", "SSI:UE.T.O"):
        for edit in (_rename_first, _toggle_others):
            out.append((f"{edit.__name__} {path}",
                        lambda d, e=edit, p=path: e(d, p)))
    for code in ("IoT", "SSI"):
        out.append((f"drop profile {code}", lambda d, c=code: d.update(
            profiles=[p for p in d["profiles"] if p["code"] != c])))

    def set_name(path, numbers, name):
        return lambda d: _raw_leaf(d, path, *numbers).update(name=name)

    def set_children(path, numbers, names):
        return lambda d: _raw_leaf(d, path, *numbers).update(children=[
            {"n": n, "name": name, "children": []}
            for n, name in enumerate(names, start=1)])

    def add_leaf(path, name):
        return lambda d: _raw_item(d, path)["leaves"].append(
            {"n": 9, "name": name, "children": []})

    out += [
        ("no Lifecycle item", _rename_lifecycles),
        ("BG attacker recoded", lambda d: d["taxonomies"][0]["categories"][0]
         .update(code="X")),
        ("Others renumbered", lambda d: _raw_leaf(d, "BG.I.A", 0)
         .update(n=9)),
        ("knowledge child", set_name("BG.A.C", (3, 2), "Some")),
        ("time child", set_name("BG.A.C", (4, 3), "Lots")),
        ("theft child", set_name("UE.K.B", (1, 2), "Takeover")),
        ("theft Others", lambda d: _raw_leaf(d, "UE.K.B", 1).update(
            children=[l for l in _raw_leaf(d, "UE.K.B", 1)["children"]
                      if l["n"] != 0])),
        ("financial children", set_children("UE.I.T", (1,), ["Bank"])),
        ("state renamed", set_name("UE.I.T", (3,), "Nation")),
        ("brute force child", set_name("UE.K.T", (1, 4, 2), "Guessing")),
        ("brute force renamed", lambda d: next(
            c for c in _raw_leaf(d, "UE.K.T", 1)["children"]
            if c["name"] == "Brute Force").update(name="Force")),
        ("domain renamed", lambda d: _raw_item(d, "IoT:BG.T.S")
         .update(name="Sector")),
        ("user management survives", add_leaf("IoT:SI.K.G", "User Management")),
        ("network children", set_children("SSI:SI.T.L", (2,), ["Normal"])),
        ("system children", set_children("SSI:IMS.T.L", (3,),
                                          ["Client", "Server"])),
        ("override named Timeliness", lambda d: _raw_item(d, "IoT:BG.I.T")
         .update(name="Timeliness")),
    ]
    return out


def _lines(violations):
    return "".join(f"{v}\n" for v in violations)


# sha256 of the verify_catalog and per-rule output over every mutated copy.
GOLDEN_VERIFY_SHA256 = (
    "b43a084a307eff7a51f310e2bd13c17810ca1f6ab397dd58c1e5de7008ecbdb1")


def test_rule_registry_names_and_order_are_pinned():
    assert list(ALL_RULES) == [
        "taxonomy-codes", "category-set", "fixed-item-codes",
        "leaf-numbering", "kind-leaves", "item-code-unique",
        "BG-has-attacker", "others-is-zero", "bg-capabilities-items",
        "knowledge-scale", "time-scale", "authenticity-leaves",
        "attack-category-leaves", "lifecycle-stages", "ue-pattern-tree",
        "ue-identity-types", "ue-brute-force", "amount-leaves",
        "timeliness-leaves", "completeness-leaves", "directness-leaves",
        "iot-target-type", "iot-domain", "iot-level", "iot-characteristics",
        "iot-attack-category", "ssi-level", "ssi-location"]
    assert list(ALL_RULES)[6:] == list(CONTENT_RULES)


def test_verification_output_on_mutated_catalogs_is_pinned():
    source = (resources.files("taxidma") / "data"
              / "taxidma-v2.catalog.json").read_text(encoding="utf-8")
    digest = hashlib.sha256()
    fired: set[str] = set()
    for label, mutate in _mutations():
        doc = json.loads(source)
        mutate(doc)
        catalog = load_catalog(json.dumps(doc))
        digest.update(f"== {label}\n{_lines(verify_catalog(catalog))}"
                      .encode("utf-8"))
        for name, rule in CONTENT_RULES.items():
            found = rule(catalog)
            if found:
                fired.add(name)
            digest.update(f"-- {name}\n{_lines(found)}".encode("utf-8"))
    assert sorted(set(CONTENT_RULES) - fired) == []
    assert digest.hexdigest() == GOLDEN_VERIFY_SHA256
