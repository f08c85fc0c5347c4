"""STIX interchange: emission shape, inversion, residue, bundle checks."""
from __future__ import annotations

import copy
import json
import uuid

import pytest

from conftest import FIXTURE_IDS, load_fixture_record, scope_groups
from record_gen import record_batch
from taxidma import stix
from taxidma.catalog import (
    BUNDLED_CATALOG_RESOURCE,
    load_bundled_catalog,
    load_catalog,
)
from taxidma.errors import (
    InvalidRecordError,
    MalformedBundleError,
    UnknownExtensionVersionError,
)
from taxidma.record import (
    BACKGROUND,
    add_selection,
    apply_taxonomy,
    new_record,
    read_record,
    validate_record,
    write_record,
)
from taxidma.stix import (
    CREATOR_ID,
    EXTENSION_DEFINITION_ID,
    EXTENSION_NAME,
    TAXIDMA_NAMESPACE,
    EmissionOptions,
    extended_account_type_vocabulary,
    extension_definition,
    from_stix,
    mapped_selections,
    serialize_bundle,
    to_stix,
    validate_bundle,
)

DETERMINISTIC = EmissionOptions(deterministic_ids=True)


def taxidma_ext(obj):
    return obj.get("extensions", {}).get(EXTENSION_DEFINITION_ID, {})


def only(bundle, object_type, **markers):
    found = [
        obj for obj in bundle["objects"] if obj["type"] == object_type
        and all(taxidma_ext(obj).get(k, obj.get(k)) == v
                for k, v in markers.items())
    ]
    assert len(found) == 1, f"{object_type} {markers}: {len(found)} matches"
    return found[0]


def fixture_bundle(record_id, **kwargs):
    catalog = load_bundled_catalog()
    record = load_fixture_record(record_id)
    return record, to_stix(record, catalog,
                           EmissionOptions(deterministic_ids=True, **kwargs))


# -- constants ----------------------------------------------------------------


def test_identifier_constants_are_derived_from_the_namespace():
    assert str(uuid.uuid5(uuid.NAMESPACE_DNS, "taxidma.dev")) == \
        str(TAXIDMA_NAMESPACE)
    assert EXTENSION_DEFINITION_ID == \
        f"extension-definition--{uuid.uuid5(TAXIDMA_NAMESPACE, EXTENSION_NAME)}"
    assert CREATOR_ID == \
        f"identity--{uuid.uuid5(TAXIDMA_NAMESPACE, 'taxidma project')}"


def test_extension_definition_object_is_stable():
    definition = extension_definition()
    assert definition == extension_definition()
    assert definition["id"] == EXTENSION_DEFINITION_ID
    assert definition["name"] == "taxidma v2"
    assert definition["version"] == "2.0"
    assert definition["created_by_ref"] == CREATOR_ID
    assert definition["extension_types"] == \
        ["new-sdo", "new-sco", "property-extension"]
    assert definition["schema"].startswith("https://")


def test_account_type_vocabulary_extends_the_native_eleven():
    vocabulary = extended_account_type_vocabulary()
    assert len(vocabulary) == 15
    assert len(set(vocabulary)) == 15
    for value in ("unix", "windows-domain", "openid"):  # native
        assert value in vocabulary
    for value in ("microsoft", "linux", "iot", "mobile"):  # added
        assert value in vocabulary


# -- emission shape -----------------------------------------------------------


def test_minimal_record_emits_definition_and_incident(bundled_catalog):
    record = new_record("r-min", "Empty case", "nothing selected yet")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    assert [obj["type"] for obj in bundle["objects"]] == \
        ["extension-definition", "incident"]
    incident = bundle["objects"][1]
    assert incident["name"] == "Empty case"
    assert incident["description"] == "nothing selected yet"
    assert validate_bundle(bundle) == []


def test_credential_attack_tokens_on_the_user_application():
    _, bundle = fixture_bundle("canva-2019")
    pattern = only(bundle, "attack-pattern", application_index=0)
    ext = taxidma_ext(pattern)
    assert ext["attack_type"] == ["credential-stuffing", "credential-cracking"]
    assert ext["identity_pattern"] == ["account-takeover"]
    assert ext["taxonomy"] == "UE"
    assert pattern["external_references"] == \
        [{"source_name": "TaxIdMA", "external_id": "UE"}]


def test_nation_state_actor_with_overflow_lists():
    _, bundle = fixture_bundle("solarwinds-2020")
    actor = only(bundle, "threat-actor")
    assert "nation-state" in actor["threat_actor_types"]
    # Single-valued native slots take the first value; the extension keeps
    # the rest.
    assert isinstance(actor.get("resource_level"), str)
    assert isinstance(actor.get("sophistication"), str)
    ext = taxidma_ext(actor)
    assert set(ext) <= {"extension_type", "taxonomy",
                        "additional_resource_levels",
                        "additional_sophistications"}


def test_free_text_weakness_becomes_a_vulnerability():
    record, bundle = fixture_bundle("solarwinds-2020")
    vulnerability = only(bundle, "vulnerability")
    assert vulnerability["name"] == "CVE-2020-10148"
    assert vulnerability["external_references"] == \
        [{"source_name": "cve", "external_id": "CVE-2020-10148"}]
    assert vulnerability["description"]  # the note travels along
    assert taxidma_ext(vulnerability)["code"] == "BG.K.Y"


def test_ims_application_gets_a_category_object():
    record, bundle = fixture_bundle("solarwinds-2020")
    ims_index = next(i for i, app in enumerate(record.applications)
                     if app.taxonomy.taxonomy == "IMS")
    category = only(bundle, "identity-management-category")
    assert category["application_index"] == ims_index
    assert category["taxonomy"] == "IMS"
    assert category["name"] == record.applications[ims_index].instance_label
    assert taxidma_ext(category) == {"extension_type": "new-sdo"}


def test_indicator_carries_category_tokens_and_a_code_pattern():
    record, bundle = fixture_bundle("solarwinds-2020")
    ims_index = next(i for i, app in enumerate(record.applications)
                     if app.taxonomy.taxonomy == "IMS")
    indicator = only(bundle, "indicator", application_index=ims_index)
    assert indicator["pattern"] == "IMS.K.G.2"
    assert indicator["pattern_type"] == "taxidma-code"
    assert indicator["valid_from"] == indicator["created"]
    assert taxidma_ext(indicator)["attack_category"] == ["authentication"]


def test_indicator_pattern_is_the_first_category_selection(bundled_catalog):
    record = new_record("two-categories", "Two categories", "d")
    add_selection(record, BACKGROUND, "BG.A.T.2.5")
    app = apply_taxonomy(record, bundled_catalog, "SI", "portal")
    for code in ("SI.K.T.1", "SI.K.G.3", "SI.K.G.2"):
        add_selection(record, app, code)
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    indicator = only(bundle, "indicator", application_index=app)
    assert indicator["pattern"] == "SI.K.G.3"


def test_lifecycle_selections_become_kill_chain_phases(bundled_catalog):
    record, bundle = fixture_bundle("solarwinds-2020")
    ims_index = next(i for i, app in enumerate(record.applications)
                     if app.taxonomy.taxonomy == "IMS")
    pattern = only(bundle, "attack-pattern", application_index=ims_index)
    phases = pattern["kill_chain_phases"]
    lifecycle = [s.code for s in record.applications[ims_index].selections
                 if (s.code.category, s.code.item) == ("I", "L")]
    assert len(phases) == len(lifecycle) == 2
    for phase, code in zip(phases, lifecycle):
        assert phase["kill_chain_name"] == "mitre-attack"
        leaf_name = bundled_catalog.lookup(code).name
        assert phase["phase_name"] == leaf_name.lower().replace(" ", "-")


def test_identity_scale_values_match_leaf_names(bundled_catalog):
    record, bundle = fixture_bundle("canva-2019")
    identity = only(bundle, "identity", application_index=0)
    assert identity["identity_class"] == "individual"
    ext = taxidma_ext(identity)
    by_item = {"E": "completeness", "S": "timeliness", "N": "directness",
               "U": "amount"}
    for selection in record.applications[0].selections:
        code = selection.code
        prop = by_item.get(code.item) if code.category == "I" else None
        if prop is None or not code.leaf_path:
            continue
        token = bundled_catalog.lookup(code).name.lower().replace(" ", "-")
        assert token in ext[prop]


def test_device_collects_target_level_and_location():
    _, bundle = fixture_bundle("canva-2019")
    device = only(bundle, "device", application_index=0)
    assert device["taxonomy"] == "UE"
    assert len(device["level"]) == 1
    assert len(device["location"]) == 1
    assert taxidma_ext(device) == {"extension_type": "new-sdo"}


def test_sector_property_follows_the_item_name(bundled_catalog):
    plain = new_record("r-sector", "plain", "")
    add_selection(plain, BACKGROUND, "BG.T.S.1")
    bundle = to_stix(plain, bundled_catalog, DETERMINISTIC)
    organization = only(bundle, "targeted-organization")
    assert "sector" in organization and "domain" not in organization

    embedded = new_record("r-domain", "embedded", "",
                          background_taxonomy="IoT:BG")
    add_selection(embedded, BACKGROUND, "IoT:BG.T.S.1")
    bundle = to_stix(embedded, bundled_catalog, DETERMINISTIC)
    organization = only(bundle, "targeted-organization")
    assert organization["domain"] == ["smart-home"]
    assert "sector" not in organization
    assert organization["taxonomy"] == "IoT:BG"


def test_social_engineering_and_osint_observables(bundled_catalog):
    record = new_record("r-sco", "crafted", "")
    index = apply_taxonomy(record, bundled_catalog, "UE", "victims")
    add_selection(record, index, "UE.K.T.1.1")      # social engineering
    add_selection(record, index, "UE.K.T.1.4.1")    # OSINT-based guessing
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    social = only(bundle, "social-engineering")
    osint = only(bundle, "osint")
    assert social["value"] == "social-engineering"
    assert osint["value"] == "osint-based"
    for sco in (social, osint):
        assert "created" not in sco and "spec_version" not in sco
        assert taxidma_ext(sco) == {"extension_type": "new-sco"}
        assert any(rel["source_ref"] == sco["id"]
                   and rel["relationship_type"] == "related-to"
                   for rel in bundle["objects"]
                   if rel["type"] == "relationship")
    assert validate_bundle(bundle) == []


def test_item_level_selection_maps_to_unspecified(bundled_catalog):
    record = new_record("r-item", "coarse", "")
    index = apply_taxonomy(record, bundled_catalog, "SI", "api")
    add_selection(record, index, "SI.K.T")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    pattern = only(bundle, "attack-pattern", application_index=index)
    assert taxidma_ext(pattern)["attack_type"] == ["unspecified"]
    rebuilt, residue = from_stix(bundle, bundled_catalog)
    assert residue == []
    assert [str(s.code) for s in rebuilt.applications[0].selections] == \
        ["SI.K.T"]


def test_sibling_others_tokens_are_disambiguated(bundled_catalog):
    record = new_record("r-others", "all the catch-alls", "")
    index = apply_taxonomy(record, bundled_catalog, "UE", "users")
    for code in ("UE.K.T.0", "UE.K.T.1.0", "UE.K.T.1.3.0",
                 "UE.K.T.1.4.0", "UE.K.T.2.0"):
        add_selection(record, index, code)
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    pattern = only(bundle, "attack-pattern", application_index=index)
    assert taxidma_ext(pattern)["attack_type"] == [
        "others", "active-others", "web-others", "brute-force-others",
        "passive-others"]
    rebuilt, residue = from_stix(bundle, bundled_catalog)
    assert residue == []
    assert scope_groups(mapped_selections(rebuilt, bundled_catalog)) == \
        scope_groups(mapped_selections(record, bundled_catalog))


def test_campaign_option_adds_campaign_and_relationships():
    record, bundle = fixture_bundle("solarwinds-2020", campaign=True)
    campaign = only(bundle, "campaign")
    assert campaign["name"] == record.title
    intrusion = only(bundle, "intrusion-set")
    relationships = [obj for obj in bundle["objects"]
                     if obj["type"] == "relationship"]
    assert any(rel["relationship_type"] == "attributed-to"
               and rel["source_ref"] == campaign["id"]
               and rel["target_ref"] == intrusion["id"]
               for rel in relationships)
    patterns = {obj["id"] for obj in bundle["objects"]
                if obj["type"] == "attack-pattern"}
    used = {rel["target_ref"] for rel in relationships
            if rel["source_ref"] == campaign["id"]
            and rel["relationship_type"] == "uses"}
    assert used == patterns
    assert validate_bundle(bundle) == []


def test_mapped_selections_skips_record_file_only_locations(bundled_catalog):
    record = new_record("r-partial", "partial", "")
    add_selection(record, BACKGROUND, "BG.A.T.2.5")   # mapped
    add_selection(record, BACKGROUND, "BG.T.T.3")     # record-file-only
    add_selection(record, BACKGROUND, "BG.K.D.2")     # record-file-only
    mapped = mapped_selections(record, bundled_catalog)
    assert [(code, tax) for _, tax, code, _ in mapped] == \
        [("BG.A.T.2.5", "BG")]


def test_unvalidated_records_are_refused(bundled_catalog):
    record = new_record("r-bad", "broken", "")
    add_selection(record, BACKGROUND, "BG.I.A.9")  # no such leaf
    with pytest.raises(InvalidRecordError) as excinfo:
        to_stix(record, bundled_catalog, DETERMINISTIC)
    assert excinfo.value.report is not None
    assert not excinfo.value.report.ok


# -- determinism --------------------------------------------------------------


def test_deterministic_mode_is_byte_identical():
    _, first = fixture_bundle("canva-2019")
    _, second = fixture_bundle("canva-2019")
    assert serialize_bundle(first) == serialize_bundle(second)


def test_vocabulary_tables_belong_to_their_catalog():
    import taxidma
    from pathlib import Path
    data = (Path(taxidma.__file__).parent / "data" /
            BUNDLED_CATALOG_RESOURCE).read_bytes()
    first, second = load_catalog(data), load_catalog(data)
    assert first.checksum == second.checksum
    assert first.vocabulary is first.vocabulary
    assert first.vocabulary is not second.vocabulary
    assert first.vocabulary.catalog is first
    record = load_fixture_record("canva-2019")
    assert serialize_bundle(to_stix(record, first, DETERMINISTIC)) == \
        serialize_bundle(to_stix(record, second, DETERMINISTIC))


def test_default_mode_mints_fresh_identifiers(bundled_catalog):
    record = load_fixture_record("canva-2019")
    first = to_stix(record, bundled_catalog)
    second = to_stix(record, bundled_catalog)
    assert first["id"] != second["id"]
    assert validate_bundle(first) == []


# -- round trips --------------------------------------------------------------


@pytest.mark.parametrize("record_id", FIXTURE_IDS)
@pytest.mark.parametrize("campaign", [False, True])
def test_fixture_round_trips(bundled_catalog, record_id, campaign):
    record = load_fixture_record(record_id)
    options = EmissionOptions(deterministic_ids=True, campaign=campaign)
    bundle = to_stix(record, bundled_catalog, options)
    assert validate_bundle(bundle) == []
    rebuilt, residue = from_stix(bundle, bundled_catalog)
    assert residue == []
    assert rebuilt.record_id.startswith("stix-")
    assert rebuilt.title == record.title
    assert rebuilt.created == record.created
    assert scope_groups(mapped_selections(rebuilt, bundled_catalog)) == \
        scope_groups(mapped_selections(record, bundled_catalog))


def test_generated_records_round_trip(bundled_catalog):
    for record in record_batch(bundled_catalog, seed=123, count=150):
        bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
        assert validate_bundle(bundle) == []
        rebuilt, residue = from_stix(bundle, bundled_catalog)
        assert residue == []
        assert scope_groups(mapped_selections(rebuilt, bundled_catalog)) == \
            scope_groups(mapped_selections(record, bundled_catalog)), \
            record.record_id


def test_serialized_bundles_parse_back(bundled_catalog):
    record = load_fixture_record("tmobile-2021")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    text = serialize_bundle(bundle)
    assert text.endswith("\n")
    assert json.loads(text) == bundle


# -- inversion edges ----------------------------------------------------------


def test_foreign_objects_land_in_residue(bundled_catalog):
    record = load_fixture_record("canva-2019")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    malware_id = f"malware--{uuid.uuid4()}"
    bundle["objects"].append({
        "type": "malware", "spec_version": "2.1", "id": malware_id,
        "created": "2019-05-24T00:00:00.000Z",
        "modified": "2019-05-24T00:00:00.000Z",
        "name": "loader", "is_family": False,
    })
    identity_id = only(bundle, "identity", application_index=0)["id"]
    bundle["objects"].append({
        "type": "relationship", "spec_version": "2.1",
        "id": f"relationship--{uuid.uuid4()}",
        "created": "2019-05-24T00:00:00.000Z",
        "modified": "2019-05-24T00:00:00.000Z",
        "relationship_type": "targets",
        "source_ref": malware_id, "target_ref": identity_id,
    })
    rebuilt, residue = from_stix(bundle, bundled_catalog)
    assert {entry.object_type for entry in residue} == \
        {"malware", "relationship"}
    assert scope_groups(mapped_selections(rebuilt, bundled_catalog)) == \
        scope_groups(mapped_selections(record, bundled_catalog))


def test_plain_sdo_without_the_extension_is_residue(bundled_catalog):
    record = load_fixture_record("canva-2019")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    bundle["objects"].append({
        "type": "identity", "spec_version": "2.1",
        "id": f"identity--{uuid.uuid4()}",
        "created": "2019-05-24T00:00:00.000Z",
        "modified": "2019-05-24T00:00:00.000Z",
        "name": "bystander", "identity_class": "individual",
    })
    _, residue = from_stix(bundle, bundled_catalog)
    assert [entry.object_type for entry in residue] == ["identity"]
    assert residue[0].reason == "no taxonomy content"


def test_foreign_extension_definition_is_residue(bundled_catalog):
    record = load_fixture_record("canva-2019")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    bundle["objects"].append({
        "type": "extension-definition", "spec_version": "2.1",
        "id": f"extension-definition--{uuid.uuid4()}",
        "created": "2019-05-24T00:00:00.000Z",
        "modified": "2019-05-24T00:00:00.000Z",
        "created_by_ref": f"identity--{uuid.uuid4()}",
        "name": "someone else's extension", "schema": "https://example.org",
        "version": "1.0", "extension_types": ["property-extension"],
    })
    _, residue = from_stix(bundle, bundled_catalog)
    assert [entry.object_type for entry in residue] == ["extension-definition"]


def test_same_name_different_id_extension_is_rejected(bundled_catalog):
    record = load_fixture_record("canva-2019")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    definition = bundle["objects"][0]
    assert definition["type"] == "extension-definition"
    definition["id"] = f"extension-definition--{uuid.uuid4()}"
    with pytest.raises(UnknownExtensionVersionError):
        from_stix(bundle, bundled_catalog)


@pytest.mark.parametrize("broken", [
    None,
    [],
    {"type": "report", "id": f"bundle--{uuid.uuid4()}", "objects": []},
    {"type": "bundle", "id": "bundle", "objects": []},
    {"type": "bundle", "id": f"bundle--{uuid.uuid4()}", "objects": {}},
    {"type": "bundle", "id": f"bundle--{uuid.uuid4()}", "objects": ["x"]},
    {"type": "bundle", "id": f"bundle--{uuid.uuid4()}",
     "objects": [{"id": "identity--123"}]},
])
def test_malformed_bundles_raise(bundled_catalog, broken):
    with pytest.raises(MalformedBundleError):
        from_stix(broken, bundled_catalog)


def test_imported_record_identity(bundled_catalog):
    record = load_fixture_record("solarwinds-2020")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    rebuilt, _ = from_stix(bundle, bundled_catalog)
    assert rebuilt.record_id == f"stix-{bundle['id'].split('--', 1)[1]}"
    assert rebuilt.title == record.title
    assert rebuilt.description == record.description
    assert rebuilt.created == record.created
    assert [app.taxonomy.taxonomy_key for app in rebuilt.applications] == \
        [app.taxonomy.taxonomy_key for app in record.applications]
    assert [app.instance_label for app in rebuilt.applications] == \
        [app.instance_label for app in record.applications]


@pytest.mark.parametrize("field_name", ["name", "description"])
@pytest.mark.parametrize("value", [42, ["CVE-2020-10148"], {"id": 1}])
def test_non_string_vulnerability_text_is_residue(bundled_catalog,
                                                  field_name, value):
    record = load_fixture_record("solarwinds-2020")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    vulnerability = only(bundle, "vulnerability")
    vulnerability[field_name] = value
    rebuilt, residue = from_stix(bundle, bundled_catalog)
    assert [(entry.object_id, entry.object_type, entry.reason)
            for entry in residue] == \
        [(vulnerability["id"], "vulnerability",
          f"{field_name} is not a string")]
    assert all(selection.code.item != "Y"
               for selection in rebuilt.background.selections)
    # Whatever from_stix returns survives validate, emit, write and read.
    validate_record(rebuilt, bundled_catalog)
    to_stix(rebuilt, bundled_catalog, DETERMINISTIC)
    assert read_record(write_record(rebuilt)) == rebuilt


def _parse_code_failing_on(monkeypatch, failing_text):
    real = stix.parse_code

    def parse_code(text, lenient=False):
        if text == failing_text:
            raise RuntimeError(f"bug while parsing {text!r}")
        return real(text, lenient)

    monkeypatch.setattr(stix, "parse_code", parse_code)


def test_parser_bug_in_vulnerability_marker_propagates(bundled_catalog,
                                                       monkeypatch):
    record = load_fixture_record("solarwinds-2020")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    marker = taxidma_ext(only(bundle, "vulnerability"))["code"]
    _parse_code_failing_on(monkeypatch, marker)
    with pytest.raises(RuntimeError, match="bug while parsing"):
        from_stix(bundle, bundled_catalog)


def test_parser_bug_in_taxonomy_marker_propagates(bundled_catalog,
                                                  monkeypatch):
    record = load_fixture_record("canva-2019")
    bundle = to_stix(record, bundled_catalog, DETERMINISTIC)
    _parse_code_failing_on(monkeypatch, "UE")  # the application's taxonomy
    with pytest.raises(RuntimeError, match="bug while parsing"):
        from_stix(bundle, bundled_catalog)


# -- bundle validation --------------------------------------------------------


def clean_bundle():
    catalog = load_bundled_catalog()
    record = load_fixture_record("solarwinds-2020")
    return to_stix(record, catalog, EmissionOptions(deterministic_ids=True))


def rules_of(violations):
    return {violation.rule for violation in violations}


def test_fixture_bundles_validate_clean():
    for record_id in FIXTURE_IDS:
        _, bundle = fixture_bundle(record_id)
        assert validate_bundle(bundle) == [], record_id


def test_duplicate_and_mismatched_ids_are_flagged():
    bundle = clean_bundle()
    bundle["objects"].append(copy.deepcopy(bundle["objects"][1]))
    assert "duplicate-id" in rules_of(validate_bundle(bundle))

    bundle = clean_bundle()
    actor = next(o for o in bundle["objects"] if o["type"] == "threat-actor")
    actor["id"] = f"identity--{uuid.uuid4()}"
    rules = rules_of(validate_bundle(bundle))
    assert "id-grammar" in rules


def test_dangling_relationship_reference_is_flagged():
    bundle = clean_bundle()
    relationship = next(o for o in bundle["objects"]
                        if o["type"] == "relationship")
    relationship["target_ref"] = f"identity--{uuid.uuid4()}"
    assert "relationship-refs" in rules_of(validate_bundle(bundle))


def test_taxidma_property_outside_the_extension_is_flagged():
    bundle = clean_bundle()
    pattern = next(o for o in bundle["objects"]
                   if o["type"] == "attack-pattern")
    pattern["attack_type"] = ["active"]
    assert "extension-not-declared" in rules_of(validate_bundle(bundle))


def test_unknown_extension_property_is_flagged():
    bundle = clean_bundle()
    identity = next(o for o in bundle["objects"] if o["type"] == "identity")
    taxidma_ext(identity)["favourite_colour"] = "green"
    assert "taxidma-properties" in rules_of(validate_bundle(bundle))


def test_unknown_property_on_a_new_sdo_is_flagged():
    bundle = clean_bundle()
    device = next(o for o in bundle["objects"] if o["type"] == "device")
    device["serial_number"] = "x1"
    assert "taxidma-properties" in rules_of(validate_bundle(bundle))


def test_new_sdo_must_declare_the_extension():
    bundle = clean_bundle()
    device = next(o for o in bundle["objects"] if o["type"] == "device")
    del device["extensions"]
    assert "extension-not-declared" in rules_of(validate_bundle(bundle))


def test_missing_required_properties_are_flagged():
    bundle = clean_bundle()
    indicator = next(o for o in bundle["objects"] if o["type"] == "indicator")
    del indicator["pattern"]
    assert "required-props" in rules_of(validate_bundle(bundle))

    bundle = clean_bundle()
    del bundle["objects"][2]["created"]
    assert "required-common" in rules_of(validate_bundle(bundle))


def test_bad_timestamps_are_flagged():
    bundle = clean_bundle()
    bundle["objects"][1]["modified"] = "24/05/2019"
    assert "timestamp-format" in rules_of(validate_bundle(bundle))


def test_missing_extension_definition_object_is_flagged():
    bundle = clean_bundle()
    bundle["objects"] = [o for o in bundle["objects"]
                         if o["type"] != "extension-definition"]
    assert "extension-definition-present" in rules_of(validate_bundle(bundle))


def test_account_type_checked_against_the_extended_vocabulary():
    bundle = clean_bundle()
    account = {"type": "user-account", "id": f"user-account--{uuid.uuid4()}",
               "account_login": "svc-orion", "account_type": "iot"}
    bundle["objects"].append(account)
    assert validate_bundle(bundle) == []
    account["account_type"] = "commodore-64"
    assert "account-type-vocab" in rules_of(validate_bundle(bundle))


def test_violations_render_with_rule_and_object():
    bundle = clean_bundle()
    bundle["objects"][1]["modified"] = "sometime"
    violation = validate_bundle(bundle)[0]
    assert violation.rule in str(violation)
    assert violation.object_id in str(violation)
