import gc
import random
import sys
from collections import Counter

import pytest

import wspolicy.algebra
import wspolicy.emit
import wspolicy.model
import wspolicy.modelfile

from wspolicy import (
    AssertionDecl,
    All,
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
    normalize,
    parse_model,
    parse_policy_element,
    parse_wsdl,
    policy_document,
    validate_model,
    write_canonical,
)
from wspolicy.errors import GenerationError, ModelSchemaError, ModelSyntaxError
from wspolicy.names import SAWSDL_NS, WSDL_NS, WSP_NS, XML_NS, XS_NS
from wspolicy.xmltree import XmlElement, parse_xml

from corpus import (
    GOLDEN,
    SEC_NS,
    endpoint_policy,
    model_from_json,
    sp,
    travel_agency_bytes,
    travel_agency_json,
    travel_agency_model,
    wide_optional_json,
)
from randgen import rand_model
from reference import expand_optional

XS_ELEMENT = QName(XS_NS, "element")
MODEL_REF = QName(SAWSDL_NS, "modelReference")


def emitted_files(model):
    return {name: write_canonical(doc) for name, doc in emit_wsdl(model)}


def security_domain():
    return travel_agency_model().domains[0]


# --- domain XSD --------------------------------------------------------------

def test_security_domain_has_four_annotated_elements():
    doc = emit_domain_xsd(security_domain())
    elements = doc.find_all(XS_ELEMENT)
    assert [e.attr("name") for e in elements] == [
        "HashPassword", "NoPassword", "UsernameToken", "WssUsernameToken10",
    ]
    for element in elements:
        assert element.attr(MODEL_REF) == (
            f"http://example.org/sec-onto#{element.attr('name')}"
        )


def test_empty_domain_emits_no_element_declarations():
    doc = emit_domain_xsd(DomainSchema("void", "http://example.org/void", "v"))
    assert doc.find_all(XS_ELEMENT) == []
    assert doc.attr("targetNamespace") == "http://example.org/void"
    assert doc.attr("elementFormDefault") == "qualified"


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
    doc = emit_domain_xsd(domain)
    (element,) = doc.find_all(XS_ELEMENT)
    assert element.attr(QName(SAWSDL_NS, "liftingSchemaMapping")) == "http://example.org/lift.xq"
    assert element.attr(QName(SAWSDL_NS, "loweringSchemaMapping")) == "http://example.org/lower.xq"
    assert element.attr("type") == QName(XS_NS, "int")
    assert b'type="xs:int"' in write_canonical(doc)


def test_simple_assertion_defaults_to_xs_string():
    domain = DomainSchema(
        "d", "http://example.org/d", "d", (AssertionDecl("Level", "simple"),)
    )
    doc = emit_domain_xsd(domain)
    (element,) = doc.find_all(XS_ELEMENT)
    assert element.attr("type") == QName(XS_NS, "string")
    assert b'type="xs:string"' in write_canonical(doc)


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
    (element,) = emit_domain_xsd(domain).find_all(XS_ELEMENT)
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
    for child in element.children:
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
    root = parse_xml(payload)
    assert root.name == QName(WSP_NS, "Policy")
    assert root.children == []


def test_optional_flag_is_emitted_not_expanded():
    expr = Policy(AssertionRef(sp("HashPassword"), optional=True))
    fragment = emit_policy_element(expr)
    (ref,) = fragment.children
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
    (ref,) = parse_xml(payload).children
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


def emitted_nodes(expr, root=True) -> int:
    """The elements emission builds for a policy tree: one per node, plus the
    wsp:Policy wrapped around a root or nested policy that is no Policy."""
    own = 1 + (root and not isinstance(expr, Policy))
    if isinstance(expr, AssertionRef):
        return own + (0 if expr.nested is None else emitted_nodes(expr.nested))
    return own + sum(emitted_nodes(child, False) for child in expr.children)


def test_emission_walks_each_policy_once(monkeypatch):
    """Validation walks each attachment once (``_check_policy``), iter_refs
    does not run, and the element builder runs once per node: namespaces are
    collected while building."""
    calls = Counter()
    iter_refs = wspolicy.algebra.iter_refs

    def counted_iter_refs(expr):
        calls["iter_refs"] += 1
        return iter_refs(expr)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wspolicy" and getattr(module, "iter_refs", None) is iter_refs:
            monkeypatch.setattr(module, "iter_refs", counted_iter_refs)
    check_policy = wspolicy.model._check_policy

    def counted_check_policy(*args):
        calls["_check_policy"] += 1
        return check_policy(*args)

    monkeypatch.setattr(wspolicy.model, "_check_policy", counted_check_policy)
    policy_node = wspolicy.emit._policy_node

    def counted_policy_node(*args):
        calls["_policy_node"] += 1
        return policy_node(*args)

    monkeypatch.setattr(wspolicy.emit, "_policy_node", counted_policy_node)
    rng = random.Random(4242)
    models = [travel_agency_model()] + [rand_model(rng, require_satisfiable_policies=True)
                                        for _ in range(5)]
    for model in models:
        calls.clear()
        emit_wsdl(model)
        assert calls["_check_policy"] == len(model.attachments)
        assert calls["iter_refs"] == 0
        assert calls["_policy_node"] == sum(emitted_nodes(a.policy) for a in model.attachments)
    nested_in_all = All(AssertionRef(sp("UsernameToken"), nested=All(AssertionRef(sp("NoPassword")))))
    for expr in (endpoint_policy(), nested_in_all, Policy()):
        calls.clear()
        policy_document(expr)
        assert calls == Counter({"_policy_node": emitted_nodes(expr)})


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
            names = [e.attr("name") for e in doc.find_all(XS_ELEMENT)]
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


RESERVED_NAME_EDITS = {
    "domain prefix xmlns": lambda doc: doc["domains"][0].update(prefix="xmlns"),
    "domain prefix xml": lambda doc: doc["domains"][0].update(prefix="xml"),
    "external prefix xml": lambda doc: doc["externalNamespaces"][0].update(prefix="xml"),
    "targetNamespace is the XML namespace": lambda doc: doc.update(targetNamespace=XML_NS),
}


@pytest.mark.parametrize("edit", sorted(RESERVED_NAME_EDITS))
def test_reserved_prefixes_are_bound_only_as_xml_allows(edit):
    doc = travel_agency_json()
    RESERVED_NAME_EDITS[edit](doc)
    model = model_from_json(doc)
    files = emit_wsdl(model)
    for _name, emitted in files:
        assert "xmlns" not in emitted.nsmap
        assert emitted.nsmap.get("xml", XML_NS) == XML_NS
    payloads = {name: write_canonical(emitted) for name, emitted in files}
    for payload in payloads.values():
        parse_xml(payload)  # a reserved prefix bound wrongly would fail here
    wsdl = payloads.pop("TravelAgency.wsdl")
    (attachment,) = parse_wsdl(wsdl, list(payloads.values())).attachments
    assert normalize(attachment.policy) == normalize(model.attachments[0].policy)


@pytest.mark.parametrize("dialect", [WSDL_NS, XS_NS, SAWSDL_NS, WSP_NS, XML_NS])
def test_domain_in_a_dialect_namespace_is_refused_or_reads_back(dialect):
    # Either validation refuses the model, or what is written reads back as
    # the model's attachments, normal form for normal form.
    model = parse_model(travel_agency_bytes().replace(SEC_NS.encode(), dialect.encode()))
    if any(d.severity == "error" for d in validate_model(model)):
        assert dialect == WSP_NS
        return
    payloads = {name: write_canonical(root) for name, root in emit_wsdl(model)}
    parsed = parse_wsdl(payloads.pop("TravelAgency.wsdl"), list(payloads.values()))
    assert {a.subject: normalize(a.policy) for a in parsed.attachments} == {
        a.subject: normalize(a.policy) for a in model.attachments}


def test_colliding_preferred_prefixes_are_numbered():
    # Two domains both prefer "sec": the first namespace in order keeps it and
    # the second gets "sec1".  A namespace that prefers "xml" gets "ns".
    sec2 = "http://emi/ws-semanticsecuritypolicy2.xsd"
    types = "http://emi/TravelAgencyTypes.xsd"
    doc = travel_agency_json()
    doc["domains"][0]["prefix"] = "sec"
    doc["domains"].append({"name": "security2", "targetNamespace": sec2, "prefix": "sec",
                           "assertions": [{"name": "Extra", "typeKind": "empty"}]})
    doc["attachments"].append({
        "subject": {"kind": "binding", "path": ["TravelAgencyBinding"]},
        "policy": {"policy": [{"assertion": {"qname": {"namespace": sec2, "local": "Extra"}}}]},
    })
    doc["externalNamespaces"][0]["prefix"] = "xml"
    wsdl = dict(emit_wsdl(model_from_json(doc)))["TravelAgency.wsdl"]
    assert wsdl.nsmap == {
        "ns": types, "sawsdl": SAWSDL_NS, "sec": SEC_NS, "sec1": sec2,
        "tns": "http://emi/TravelAgency.wsdl20", "wsdl": WSDL_NS, "wsp": WSP_NS, "xs": XS_NS,
    }
    text = write_canonical(wsdl).decode()
    assert '<sec1:Extra/>' in text and 'element="ns:bookTripRequest"' in text


QNAME_VALUED = {
    (QName(WSDL_NS, "fault"), "element"), (QName(WSDL_NS, "input"), "element"),
    (QName(WSDL_NS, "output"), "element"), (XS_ELEMENT, "type"), (QName(XS_NS, "attribute"), "type"),
}


def _element_pairs(built, parsed):
    yield built, parsed
    assert len(built.children) == len(parsed.children)
    for pair in zip(built.children, parsed.children):
        yield from _element_pairs(*pair)


def test_qname_values_are_spelled_by_the_writer():
    """Emitted trees hold the four QName-valued attributes as QNames; the
    writer spells each under its document's table, and refuses one whose
    namespace the table lacks or whose local part is not an NCName."""
    types = "http://emi/TravelAgencyTypes.xsd"
    doc = travel_agency_json()
    doc["interfaces"][0]["faults"] = [
        {"name": "bookingFault", "elementType": {"namespace": types, "local": "bookingFault"}}]
    doc["domains"][0]["assertions"] += [
        {"name": "Level", "typeKind": "simple", "simpleType": {"namespace": XS_NS, "local": "int"}},
        {"name": "Token", "typeKind": "complex", "attributes": [
            {"name": "issuer", "simpleType": {"namespace": "", "local": "issuerType"}},
            {"name": "realm", "simpleType": {"namespace": XS_NS, "local": "anyURI"}}]},
    ]
    files = emit_wsdl(model_from_json(doc))
    spelled = Counter()
    for _name, emitted in files:
        prefix_of = {uri: prefix for prefix, uri in emitted.nsmap.items()}
        parsed = parse_xml(write_canonical(emitted))
        for built, reparsed in _element_pairs(emitted, parsed):
            for name, value in built.attributes:
                if (built.name, name.local) not in QNAME_VALUED:
                    assert value.__class__ is str
                    continue
                assert value.__class__ is QName
                want = f"{prefix_of[value.namespace]}:{value.local}" if value.namespace else value.local
                assert reparsed.attr(name) == want
                spelled[want] += 1
    assert spelled == Counter({"ta:bookTripRequest": 1, "ta:bookTripResponse": 1,
                               "ta:bookingFault": 1, "xs:int": 1, "issuerType": 1,
                               "xs:anyURI": 1})
    wsdl = files[0][1]
    undeclared = {prefix: uri for prefix, uri in wsdl.nsmap.items() if uri != types}
    with pytest.raises(ValueError, match=f"^namespace not declared on the document: '{types}'$"):
        write_canonical(XmlElement(wsdl.name, wsdl.attributes, wsdl.children, nsmap=undeclared))
    bad = XmlElement(XS_ELEMENT, [(QName("", "type"), QName(XS_NS, "1int"))], nsmap={"xs": XS_NS})
    with pytest.raises(ValueError, match="^not a valid XML name: '1int'$"):
        write_canonical(bad)


def test_policy_document_binds_only_the_xml_namespace_to_xml():
    other = "http://example.org/other"
    expr = Policy(AssertionRef(QName(XML_NS, "Foo")), AssertionRef(QName(other, "Bar")))
    doc = policy_document(expr, prefix_hints={XML_NS: "x", other: "xml"})
    assert doc.nsmap == {"ns": other, "wsp": WSP_NS, "xml": XML_NS}
    assert normalize(parse_policy_element(write_canonical(doc))) == normalize(expr)


def test_policy_document_falls_back_from_a_prefix_hint_that_is_not_an_ncname():
    ns = "http://x/a"
    expr = Policy(AssertionRef(QName(ns, "A")))
    for hint in ("1 bad", "a:b", ""):
        doc = policy_document(expr, prefix_hints={ns: hint})
        assert doc.nsmap == {"ns": ns, "wsp": WSP_NS}
        payload = write_canonical(doc)
        assert parse_xml(payload).nsmap == doc.nsmap
        assert normalize(parse_policy_element(payload)) == normalize(expr)

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
    root = files["TravelAgency.wsdl"]
    interface = root.find(QName(WSDL_NS, "interface"))
    assert interface.children[0].name == QName(WSP_NS, "Policy")
    operation = interface.find(QName(WSDL_NS, "operation"))
    assert operation.children[0].name == QName(WSP_NS, "Policy")
    binding = root.find(QName(WSDL_NS, "binding"))
    assert binding.children[0].name == QName(WSP_NS, "Policy")
    service = root.find(QName(WSDL_NS, "service"))
    assert service.children[0].name == QName(WSP_NS, "Policy")


# --- the paused collector ------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_parse_and_emit_pause_the_collector_and_leave_it_as_found(collector, enabled, monkeypatch):
    good = travel_agency_model()
    doc = travel_agency_json()
    doc["services"][0]["endpoints"][0]["binding"] = "Nowhere"
    unemittable = model_from_json(doc)
    calls = [
        (lambda: parse_model(travel_agency_bytes()), None),
        (lambda: parse_model(b"{"), ModelSyntaxError),
        (lambda: parse_model(b"{}"), ModelSchemaError),
        (lambda: emit_wsdl(good), None),
        (lambda: emit_wsdl(unemittable), GenerationError),
    ]
    during = []

    def spy(module, name):
        original = getattr(module, name)

        def recorded(*args):
            during.append(gc.isenabled())
            return original(*args)

        monkeypatch.setattr(module, name, recorded)

    spy(wspolicy.modelfile, "_check_version")
    spy(wspolicy.emit, "validate_model")
    collector(enabled)
    for call, raises in calls:
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert gc.isenabled() is enabled
    assert during == [False] * 4   # b"{" fails before the version check
