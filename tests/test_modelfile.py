import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wspolicy import (
    DomainSchema,
    ServiceDecl,
    ServiceModel,
    emit_wsdl,
    modelfile,
    parse_model,
    parse_wsdl,
    serialize_model,
    write_canonical,
)
from wspolicy.errors import ModelSchemaError, ModelSyntaxError
from wspolicy.reader import MAX_POLICY_DEPTH

import model_faults
from corpus import deep_model, travel_agency_bytes, travel_agency_json, travel_agency_model
from randgen import rand_model

DOCS = Path(__file__).parents[1] / "docs" / "model-format.md"
# Recorded outputs of the model-file code.  Not in tests/golden, which holds
# exactly the files `generate` writes for the fixture.
EXPECTED = Path(__file__).parent / "expected"


def test_parse_corpus_fixture():
    model = parse_model(travel_agency_bytes())
    assert model.model_name == "TravelAgency"
    assert len(model.services) == 1
    (service,) = model.services
    assert [e.name for e in service.endpoints] == ["TravelAgencyEndpoint"]


def test_parse_minimal_document():
    data = b'{"formatVersion": "1.0", "modelName": "m", "targetNamespace": "http://x/"}'
    model = parse_model(data)
    assert model == ServiceModel("m", "http://x/")
    assert model.domains == ()
    assert model.attachments == ()


def test_bad_address_names_offending_path():
    doc = travel_agency_json()
    doc["services"][0]["endpoints"][0]["address"] = "not a uri"
    with pytest.raises(ModelSchemaError) as err:
        parse_model(json.dumps(doc).encode())
    assert err.value.path == "services[0].endpoints[0].address"


def test_unknown_keys_are_rejected():
    doc = travel_agency_json()
    doc["domains"][0]["assertions"][0]["asertion"] = True
    with pytest.raises(ModelSchemaError) as err:
        parse_model(json.dumps(doc).encode())
    assert "asertion" in str(err.value)

    doc = travel_agency_json()
    doc["extra"] = 1
    with pytest.raises(ModelSchemaError):
        parse_model(json.dumps(doc).encode())


def test_missing_required_field():
    with pytest.raises(ModelSchemaError) as err:
        parse_model(b'{"formatVersion": "1.0", "modelName": "m"}')
    assert "targetNamespace" in str(err.value)


def test_unrecognized_format_version():
    with pytest.raises(ModelSchemaError) as err:
        parse_model(b'{"formatVersion": "2.0", "modelName": "m", "targetNamespace": "http://x/"}')
    assert err.value.path == "formatVersion"


def test_malformed_json_reports_position():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(b'{"formatVersion": "1.0",\n  "modelName" }')
    assert err.value.line == 2


def test_not_utf8():
    with pytest.raises(ModelSyntaxError):
        parse_model(b"\xff\xfe{}")


def test_duplicate_attachment_subject_rejected_at_ingest():
    doc = travel_agency_json()
    doc["attachments"].append(json.loads(json.dumps(doc["attachments"][0])))
    with pytest.raises(ModelSchemaError) as err:
        parse_model(json.dumps(doc).encode())
    assert "pre-merge" in str(err.value)


def test_roundtrip_corpus():
    model = travel_agency_model()
    assert parse_model(serialize_model(model)) == model


def test_serialize_is_canonical_fixed_point():
    first = serialize_model(parse_model(travel_agency_bytes()))
    second = serialize_model(parse_model(first))
    assert first == second


def test_serialize_empty_model_has_only_header_fields():
    data = serialize_model(ServiceModel("m", "http://x/"))
    doc = json.loads(data.decode("utf-8"))
    assert sorted(doc) == ["formatVersion", "modelName", "targetNamespace"]


def test_serialize_writes_empty_assertions_and_endpoints():
    # Unlike every other optional collection, these two are written when empty.
    model = ServiceModel("m", "http://x/", domains=(DomainSchema("d", "http://x/d", "d"),),
                         services=(ServiceDecl("S", "I"),))
    doc = json.loads(serialize_model(model))
    assert doc["domains"] == [{"name": "d", "targetNamespace": "http://x/d", "prefix": "d",
                               "assertions": []}]
    assert doc["services"] == [{"name": "S", "interface": "I", "endpoints": []}]
    assert parse_model(serialize_model(model)) == model


def test_serialize_deterministic():
    model = travel_agency_model()
    assert serialize_model(model) == serialize_model(model)


def test_roundtrip_random_models():
    rng = random.Random(2718281)
    for _ in range(30):
        model = rand_model(rng)
        assert parse_model(serialize_model(model)) == model


def test_parameter_values_survive_roundtrip_typed():
    doc = travel_agency_json()
    doc["attachments"][0]["policy"]["policy"][0]["assertion"]["parameters"] = [
        {"name": "retries", "value": 3},
        {"name": "ratio", "value": 2.5},
        {"name": "audit", "value": True},
        {"name": "label", "value": "x y"},
    ]
    data = json.dumps(doc).encode()
    model = parse_model(data)
    again = parse_model(serialize_model(model))
    assert again == model
    ref = again.attachments[0].policy.children[0]
    assert ("retries", 3) in ref.parameters
    assert ("ratio", 2.5) in ref.parameters
    assert ("audit", True) in ref.parameters


@given(st.binary(max_size=200))
def test_parser_raises_only_model_errors(data):
    try:
        parse_model(data)
    except (ModelSyntaxError, ModelSchemaError):
        pass


def test_serialize_matches_golden():
    golden = (EXPECTED / "travel_agency.model.json").read_bytes()
    assert serialize_model(travel_agency_model()) == golden
    assert parse_model(golden) == travel_agency_model()


def test_single_fault_corpus_matches_record():
    record = json.loads((EXPECTED / "model_faults.json").read_text(encoding="utf-8"))
    seen = {case_id: model_faults.outcome(data) for case_id, data in model_faults.cases()}
    assert list(seen) == list(record)
    differing = {case_id: (record[case_id], got)
                 for case_id, got in seen.items() if got != record[case_id]}
    assert not differing, differing


def _depth_path(levels: int, nested_policies: bool) -> str:
    """The path of the policy-expression object at the given level of deep_model."""
    path = "attachments[0].policy"
    for level in range(2, levels + 1):
        if not nested_policies:
            path += ".policy[0]" if level == 2 else ".all[0]"
        else:
            path += ".policy[0]" if level % 2 == 0 else ".assertion.nested"
    return path


@pytest.mark.parametrize("nested_policies", [False, True])
def test_parse_caps_policy_depth(nested_policies):
    # Counted as the XML reader counts: the root policy object is level 1.
    parse_model(deep_model(MAX_POLICY_DEPTH, nested_policies))
    with pytest.raises(ModelSchemaError) as err:
        parse_model(deep_model(MAX_POLICY_DEPTH + 1, nested_policies))
    assert err.value.path == _depth_path(MAX_POLICY_DEPTH + 1, nested_policies)
    assert str(err.value).endswith(f": policy nested deeper than {MAX_POLICY_DEPTH} levels")


def test_policy_at_depth_cap_reads_back_from_generated_wsdl():
    model = parse_model(deep_model(MAX_POLICY_DEPTH))
    files = {name: write_canonical(doc) for name, doc in emit_wsdl(model)}
    parsed = parse_wsdl(files["TravelAgency.wsdl"], [files["ws-semanticsecuritypolicy.xsd"]])
    assert [a.policy for a in parsed.attachments] == [a.policy for a in model.attachments]


def test_deeply_nested_json_raises_only_model_errors():
    # Around the recursion limit json.loads succeeds but formatting the bad
    # value's repr into the message may not; neither may escape as RecursionError.
    limit = sys.getrecursionlimit()
    for depth in [*range(limit - 100, limit + 10, 3), 3000]:
        doc = travel_agency_json()
        doc["domains"][0]["assertions"][0]["annotation"]["modelReference"] = "@value@"
        data = json.dumps(doc).replace('"@value@"', "[" * depth + '"http://x/"' + "]" * depth)
        with pytest.raises((ModelSchemaError, ModelSyntaxError)):
            parse_model(data.encode())
    with pytest.raises(ModelSyntaxError, match="nested too deeply"):
        parse_model(deep_model(600))


# Each key table of docs/model-format.md, by the heading above it.
DOC_TABLES = {
    "Top level": "_MODEL",
    "`externalNamespaces[]`": "_EXTERNAL_NAMESPACE",
    "QName values": "_QNAME",
    "Domains": "_DOMAIN",
    "`assertions[]`": "_ASSERTION",
    "`attributes[]`": "_ATTRIBUTE",
    "`annotation`": "_ANNOTATION",
    "`interfaces[]`": "_INTERFACE",
    "`operations[]`": "_OPERATION",
    "`inputs[]` and `outputs[]`": "_MESSAGE_REF",
    "`faults[]`": "_FAULT",
    "`bindings[]`": "_BINDING",
    "`services[]`": "_SERVICE",
    "`endpoints[]`": "_ENDPOINT",
    "`attachments[]`": "_ATTACHMENT",
    "`subject`": "_SUBJECT",
    "`assertion`": "_ASSERTION_REF",
    "`parameters[]`": "_PARAMETER",
}


def doc_key_tables() -> dict[str, list[tuple[str, bool]]]:
    """heading -> [(key, required)] for every table with a key/required header."""
    tables: dict[str, list[tuple[str, bool]]] = {}
    heading = None
    rows = None
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            heading, rows = line.lstrip("#").strip(), None
        elif line.startswith("| key | required |"):
            assert heading not in tables, f"two key tables under {heading!r}"
            rows = tables[heading] = []
        elif rows is not None and line.startswith("|") and not line.startswith("| ---"):
            key, required = [cell.strip() for cell in line.strip("|").split("|")][:2]
            assert required in ("yes", "no"), line
            rows.append((re.fullmatch(r"`(\w+)`", key).group(1), required == "yes"))
        elif not line.startswith("|"):
            rows = None
    return tables


def test_docs_key_tables_match_field_tables():
    tables = doc_key_tables()
    assert sorted(tables) == sorted(DOC_TABLES)
    field_tables = {name for name, value in vars(modelfile).items()
                    if isinstance(value, modelfile._Table)}
    assert field_tables == set(DOC_TABLES.values())
    for heading, name in DOC_TABLES.items():
        fields = [(f.key, f.presence == modelfile.REQUIRED) for f in getattr(modelfile, name).fields]
        if name == "_MODEL":
            fields.insert(0, ("formatVersion", True))
        assert tables[heading] == fields, heading
