"""Catalog loading, lookup, enumeration, naming, and verification tests."""
from __future__ import annotations

import json
import re

import pytest

from taxidma.catalog import (
    CONTENT_RULES,
    Catalog,
    Category,
    Item,
    Leaf,
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
    for prefix in ("BG", "UE.K", "SI.T.L", "IoT:SI.T", "SSI:UE.T.L",
                   "BG.A.T.2", "IMS.I"):
        mine = [format_code(c) for c in catalog.enumerate_codes(prefix)]
        assert mine == doc_walker.subtree_codes(doc, prefix), prefix


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
