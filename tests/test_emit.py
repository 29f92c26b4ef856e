import random
from collections import Counter

import pytest

import wspolicy.algebra
import wspolicy.emit
import wspolicy.model

from wspolicy import (
    AssertionDecl,
    AssertionRef,
    AttributeDecl,
    DomainSchema,
    ExactlyOne,
    Policy,
    QName,
    SemanticAnnotation,
    emit_domain_xsd,
    emit_policy_element,
    emit_wsdl,
    expand_optional,
    normalize,
    parse_policy_element,
    policy_document,
    validate_model,
    write_canonical,
)
from wspolicy.errors import GenerationError
from wspolicy.names import SAWSDL_NS, WSDL_NS, WSP_NS, XS_NS
from wspolicy.xmltree import parse_xml

from corpus import (
    GOLDEN,
    SEC_NS,
    endpoint_policy,
    model_from_json,
    sp,
    travel_agency_json,
    travel_agency_model,
    wide_optional_json,
)
from randgen import rand_model

XS_ELEMENT = QName(XS_NS, "element")
MODEL_REF = QName(SAWSDL_NS, "modelReference")


def emitted_files(model):
    return {name: write_canonical(doc) for name, doc in emit_wsdl(model)}


def security_domain():
    return travel_agency_model().domains[0]


# --- domain XSD --------------------------------------------------------------

def test_security_domain_has_four_annotated_elements():
    doc = emit_domain_xsd(security_domain())
    elements = doc.root.find_all(XS_ELEMENT)
    assert [e.attr("name") for e in elements] == [
        "HashPassword", "NoPassword", "UsernameToken", "WssUsernameToken10",
    ]
    for element in elements:
        assert element.attr(MODEL_REF) == (
            f"http://example.org/sec-onto#{element.attr('name')}"
        )


def test_empty_domain_emits_no_element_declarations():
    doc = emit_domain_xsd(DomainSchema("void", "http://example.org/void", "v"))
    assert doc.root.find_all(XS_ELEMENT) == []
    assert doc.root.attr("targetNamespace") == "http://example.org/void"
    assert doc.root.attr("elementFormDefault") == "qualified"


def test_lifting_and_lowering_schema_attributes():
    domain = DomainSchema(
        "qos", "http://example.org/qos", "q",
        (
            AssertionDecl(
                "ResponseTime", "simple",
                simple_type=QName(XS_NS, "int"),
                annotation=SemanticAnnotation(
                    ("http://example.org/onto#ResponseTime",),
                    lowering_schema="http://example.org/lower.xq",
                    lifting_schema="http://example.org/lift.xq",
                ),
            ),
        ),
    )
    (element,) = emit_domain_xsd(domain).root.find_all(XS_ELEMENT)
    assert element.attr(QName(SAWSDL_NS, "liftingSchemaMapping")) == "http://example.org/lift.xq"
    assert element.attr(QName(SAWSDL_NS, "loweringSchemaMapping")) == "http://example.org/lower.xq"
    assert element.attr("type") == "xs:int"


def test_simple_assertion_defaults_to_xs_string():
    domain = DomainSchema(
        "d", "http://example.org/d", "d", (AssertionDecl("Level", "simple"),)
    )
    (element,) = emit_domain_xsd(domain).root.find_all(XS_ELEMENT)
    assert element.attr("type") == "xs:string"


def test_complex_assertion_with_attributes():
    domain = DomainSchema(
        "d", "http://example.org/d", "d",
        (
            AssertionDecl(
                "Token", "complex",
                attributes=(
                    AttributeDecl(
                        "issuer", QName(XS_NS, "string"),
                        SemanticAnnotation(("http://example.org/onto#Issuer",)),
                    ),
                ),
            ),
        ),
    )
    (element,) = emit_domain_xsd(domain).root.find_all(XS_ELEMENT)
    complex_type = element.find(QName(XS_NS, "complexType"))
    (attribute,) = complex_type.find_all(QName(XS_NS, "attribute"))
    assert attribute.attr("name") == "issuer"
    assert attribute.attr(MODEL_REF) == "http://example.org/onto#Issuer"
    # No nestable children, so no wildcard content slot.
    assert complex_type.find(QName(XS_NS, "sequence")) is None


def test_invalid_domain_refuses_generation():
    broken = DomainSchema("d", "http://example.org/d", "d", (AssertionDecl("Hollow", "complex"),))
    with pytest.raises(GenerationError):
        emit_domain_xsd(broken)


# --- policy fragments --------------------------------------------------------

def names_in_order(element, out=None):
    out = [] if out is None else out
    out.append(element.name)
    for child in element.element_children():
        names_in_order(child, out)
    return out


def test_corpus_policy_fragment_shape_is_verbatim():
    fragment = emit_policy_element(endpoint_policy())
    assert names_in_order(fragment) == [
        QName(WSP_NS, "Policy"),
        sp("UsernameToken"),
        QName(WSP_NS, "Policy"),
        QName(WSP_NS, "ExactlyOne"),
        QName(WSP_NS, "All"),
        sp("NoPassword"),
        sp("WssUsernameToken10"),
        QName(WSP_NS, "All"),
        sp("HashPassword"),
        sp("WssUsernameToken10"),
    ]


def test_empty_policy_is_a_self_closed_element():
    payload = write_canonical(policy_document(Policy()))
    last = payload.decode().splitlines()[-1]
    assert last.startswith("<wsp:Policy") and last.endswith("/>")
    root = parse_xml(payload).root
    assert root.name == QName(WSP_NS, "Policy")
    assert root.children == []


def test_optional_flag_is_emitted_not_expanded():
    expr = Policy(AssertionRef(sp("HashPassword"), optional=True))
    fragment = emit_policy_element(expr)
    (ref,) = fragment.element_children()
    assert ref.attr(QName(WSP_NS, "Optional")) == "true"
    payload = write_canonical(policy_document(expr))
    assert normalize(parse_policy_element(payload)) == normalize(expand_optional(expr))


def test_unsatisfiable_policy_refused():
    with pytest.raises(GenerationError):
        emit_policy_element(Policy(ExactlyOne()))


def test_parameters_become_attributes():
    expr = Policy(AssertionRef(sp("HashPassword"), parameters=(("level", 3), ("with space", "x"))))
    with pytest.raises(ValueError):
        write_canonical(policy_document(expr))  # parameter names must be XML names
    ok = Policy(AssertionRef(sp("HashPassword"), parameters=(("level", 3),)))
    payload = write_canonical(policy_document(ok))
    (ref,) = parse_xml(payload).root.element_children()
    assert ref.attr("level") == "3"


# --- WSDL --------------------------------------------------------------------

def test_travel_agency_wsdl_strings():
    files = emitted_files(travel_agency_model())
    assert set(files) == {"TravelAgency.wsdl", "ws-semanticsecuritypolicy.xsd"}
    wsdl = files["TravelAgency.wsdl"].decode()
    assert 'targetNamespace="http://emi/TravelAgency.wsdl20"' in wsdl
    assert 'namespace="http://emi/ws-semanticsecuritypolicy.xsd"' in wsdl
    assert 'schemaLocation="ws-semanticsecuritypolicy.xsd"' in wsdl
    assert 'name="TravelAgencyEndpoint"' in wsdl
    assert 'binding="TravelAgencyBinding"' in wsdl
    assert 'address="http://emi/TravelAgencyService"' in wsdl


def test_golden_files():
    files = emitted_files(travel_agency_model())
    for name, payload in files.items():
        assert payload == (GOLDEN / name).read_bytes(), name


def test_no_attachments_no_policy_no_imports():
    doc = travel_agency_json()
    doc["attachments"] = []
    files = emit_wsdl(model_from_json(doc))
    wsdl_doc = dict(files)["TravelAgency.wsdl"]
    payload = write_canonical(wsdl_doc).decode()
    assert "wsp:Policy" not in payload
    assert "xs:import" not in payload
    # The domain XSD is still part of the file set.
    assert set(dict(files)) == {"TravelAgency.wsdl", "ws-semanticsecuritypolicy.xsd"}


def test_only_referenced_domains_are_imported():
    doc = travel_agency_json()
    doc["domains"].append(
        {
            "name": "pricing",
            "targetNamespace": "http://example.org/pricing.xsd",
            "prefix": "pr",
            "assertions": [{"name": "Currency", "typeKind": "empty"}],
        }
    )
    files = dict(emit_wsdl(model_from_json(doc)))
    assert set(files) == {
        "TravelAgency.wsdl",
        "ws-semanticsecuritypolicy.xsd",
        "ws-semanticpricingpolicy.xsd",
    }
    wsdl = write_canonical(files["TravelAgency.wsdl"]).decode()
    assert wsdl.count("<xs:import") == 1
    assert 'namespace="http://emi/ws-semanticsecuritypolicy.xsd"' in wsdl


def test_unknown_assertion_qname_refused():
    doc = travel_agency_json()
    doc["attachments"][0]["policy"]["policy"][0]["assertion"]["qname"]["local"] = "Ghost"
    with pytest.raises(GenerationError) as err:
        emit_wsdl(model_from_json(doc))
    assert "Ghost" in str(err.value)
    assert [d.code for d in err.value.diagnostics] == ["assertion-undeclared"]


def test_validation_errors_refuse_generation():
    doc = travel_agency_json()
    doc["services"][0]["endpoints"][0]["binding"] = "Nowhere"
    with pytest.raises(GenerationError):
        emit_wsdl(model_from_json(doc))


def forbid_normalize(monkeypatch):
    """Make every normalize binding generation could reach raise."""
    def refuse(expr):
        raise AssertionError("generation expanded a policy")

    monkeypatch.setattr(wspolicy.algebra, "normalize", refuse)
    monkeypatch.setattr(wspolicy.emit, "normalize", refuse)


def test_emit_wsdl_checks_each_attachment_and_domain_once(monkeypatch):
    rng = random.Random(31337)
    models = [travel_agency_model()] + [rand_model(rng, require_satisfiable_policies=True)
                                        for _ in range(5)]
    forbid_normalize(monkeypatch)
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((wspolicy.emit, "validate_model"), (wspolicy.emit, "validate_domain"),
                         (wspolicy.model, "validate_domain")):
        count(module, name)
    for model in models:
        calls.clear()
        emit_wsdl(model)
        # validate_domain runs only inside validate_model, once per domain.
        assert calls == Counter({
            ("wspolicy.emit", "validate_model"): 1,
            ("wspolicy.model", "validate_domain"): len(model.domains),
        })


def test_wide_optional_policy_validates_and_emits_without_expansion(monkeypatch):
    model = model_from_json(wide_optional_json(40))   # 2**40 alternatives
    forbid_normalize(monkeypatch)
    assert validate_model(model) == []
    wsdl = emitted_files(model)["TravelAgency.wsdl"]
    assert wsdl.count(b'wsp:Optional="true"') == 40


def test_emission_is_byte_deterministic():
    model = travel_agency_model()
    assert emitted_files(model) == emitted_files(model)
    rng = random.Random(8086)
    for _ in range(10):
        random_model = rand_model(rng, require_satisfiable_policies=True)
        assert emitted_files(random_model) == emitted_files(random_model)


def test_every_assertion_appears_exactly_once_in_its_xsd():
    rng = random.Random(24601)
    for _ in range(10):
        model = rand_model(rng)
        for domain in model.domains:
            doc = emit_domain_xsd(domain)
            names = [e.attr("name") for e in doc.root.find_all(XS_ELEMENT)]
            assert names == [a.name for a in domain.assertions]
            payload = write_canonical(doc).decode()
            for decl in domain.assertions:
                if decl.annotation is not None:
                    for uri in decl.annotation.model_reference:
                        assert uri in payload


def test_namespace_soundness_every_prefix_resolves():
    rng = random.Random(1234)
    for _ in range(10):
        model = rand_model(rng, require_satisfiable_policies=True)
        for _name, doc in emit_wsdl(model):
            parse_xml(write_canonical(doc))  # unbound prefixes would fail


def test_policy_subjects_other_than_endpoint():
    doc = travel_agency_json()
    doc["attachments"] = [
        {
            "subject": {"kind": "binding", "path": ["TravelAgencyBinding"]},
            "policy": {"policy": [{"assertion": {"qname": {
                "namespace": SEC_NS, "local": "NoPassword"}}}]},
        },
        {
            "subject": {"kind": "operation", "path": ["TravelAgencyInterface", "bookTrip"]},
            "policy": {"policy": [{"assertion": {"qname": {
                "namespace": SEC_NS, "local": "HashPassword"}}}]},
        },
        {
            "subject": {"kind": "interface", "path": ["TravelAgencyInterface"]},
            "policy": {"policy": []},
        },
        {
            "subject": {"kind": "service", "path": ["TravelAgencyService"]},
            "policy": {"policy": []},
        },
    ]
    files = dict(emit_wsdl(model_from_json(doc)))
    root = files["TravelAgency.wsdl"].root
    interface = root.find(QName(WSDL_NS, "interface"))
    assert interface.element_children()[0].name == QName(WSP_NS, "Policy")
    operation = interface.find(QName(WSDL_NS, "operation"))
    assert operation.element_children()[0].name == QName(WSP_NS, "Policy")
    binding = root.find(QName(WSDL_NS, "binding"))
    assert binding.element_children()[0].name == QName(WSP_NS, "Policy")
    service = root.find(QName(WSDL_NS, "service"))
    assert service.element_children()[0].name == QName(WSP_NS, "Policy")
