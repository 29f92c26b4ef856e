import ast
import dataclasses
import random
from pathlib import Path

import pytest

from wspolicy import (
    AssertionDecl,
    AssertionRef,
    AttributeDecl,
    BindingDecl,
    Diagnostic,
    DomainSchema,
    Endpoint,
    FaultDecl,
    GenerationError,
    InterfaceDecl,
    MessageRef,
    ModelSchemaError,
    OperationDecl,
    Policy,
    PolicyAttachment,
    QName,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
    VocabularyError,
    assertion_vocabulary,
    emit_domain_xsd,
    emit_wsdl,
    normalize,
    parse_model,
    resolve_subject,
    serialize_model,
    validate_domain,
    validate_model,
    write_canonical,
)
import wspolicy.model
from wspolicy.algebra import All, ExactlyOne, iter_refs
from wspolicy.names import Value, XMLNS_NS, XS_NS, is_absolute_uri
from wspolicy.xmltree import parse_xml

from corpus import (
    SEC_NS,
    conflicting_security_domain,
    model_from_json,
    sp,
    travel_agency_json,
    travel_agency_model,
)
from randgen import rand_model


def codes(diagnostics):
    return [d.code for d in diagnostics]


def test_corpus_model_is_valid():
    assert validate_model(travel_agency_model()) == []


def test_empty_model_is_vacuously_valid():
    assert validate_model(ServiceModel("m", "http://x/")) == []


def test_unresolved_attachment_subject():
    doc = travel_agency_json()
    doc["attachments"][0]["subject"]["path"] = ["TravelAgencyService", "Missing"]
    diagnostics = validate_model(model_from_json(doc))
    assert codes(diagnostics) == ["subject-unresolved"]
    assert diagnostics[0].severity == "error"


def test_resolve_subject_endpoint():
    model = travel_agency_model()
    subject = SubjectRef("endpoint", ("TravelAgencyService", "TravelAgencyEndpoint"))
    endpoint = resolve_subject(model, subject)
    assert endpoint is not None
    assert endpoint.name == "TravelAgencyEndpoint"
    assert endpoint.binding_ref == "TravelAgencyBinding"
    assert endpoint.address == "http://emi/TravelAgencyService"


def test_resolve_subject_empty_path_and_missing():
    model = travel_agency_model()
    assert resolve_subject(model, SubjectRef("endpoint", ())) is None
    assert resolve_subject(model, SubjectRef("binding", ("NoSuchBinding",))) is None
    assert resolve_subject(model, SubjectRef("binding", ("TravelAgencyBinding",))) is not None
    assert resolve_subject(model, SubjectRef("operation", ("TravelAgencyInterface", "bookTrip"))) is not None


def test_resolution_agrees_with_validation():
    # resolve_subject returns a value iff no subject-unresolved error was reported.
    doc = travel_agency_json()
    doc["attachments"][0]["subject"] = {"kind": "binding", "path": ["Nowhere"]}
    model = model_from_json(doc)
    diagnostics = validate_model(model)
    assert "subject-unresolved" in codes(diagnostics)
    assert resolve_subject(model, model.attachments[0].subject) is None

    good = travel_agency_model()
    assert validate_model(good) == []
    for attachment in good.attachments:
        assert resolve_subject(good, attachment.subject) is not None


def test_assertion_vocabulary_of_corpus():
    vocab = assertion_vocabulary(travel_agency_model().domains)
    assert len(vocab) == 4
    assert sp("UsernameToken") in vocab
    assert vocab[sp("HashPassword")].annotation.model_reference == (
        "http://example.org/sec-onto#HashPassword",
    )


def test_assertion_vocabulary_empty_and_two_domains():
    assert assertion_vocabulary(ServiceModel("m", "http://x/").domains) == {}
    two = ServiceModel(
        "m",
        "http://x/",
        domains=(
            DomainSchema("d1", "http://d1/", "d1",
                         tuple(AssertionDecl(f"A{i}") for i in range(2))),
            DomainSchema("d2", "http://d2/", "d2",
                         tuple(AssertionDecl(f"B{i}") for i in range(3))),
        ),
    )
    assert len(assertion_vocabulary(two.domains)) == 5


def test_assertion_vocabulary_accepts_repeats_and_refuses_conflicts():
    (domain,) = travel_agency_model().domains
    assert assertion_vocabulary([domain, domain]) == assertion_vocabulary([domain])
    with pytest.raises(VocabularyError) as err:
        assertion_vocabulary([domain, conflicting_security_domain()])
    assert str(err.value) == f"conflicting declarations for {sp('UsernameToken')}"


def test_named_lookups_match_a_linear_scan():
    # A repeated name, absent names between entries, before the first and
    # after the last; the leftmost of equal names wins, as in a linear scan.
    names = ("b", "d", "d", "f")
    interfaces = [InterfaceDecl(n, (OperationDecl(f"op{i}"),)) for i, n in enumerate(names)]
    bindings = [BindingDecl(n, f"I{i}", "http://t/") for i, n in enumerate(names)]
    services = [ServiceDecl(n, f"I{i}") for i, n in enumerate(names)]
    operations = [OperationDecl(n, fault_refs=(f"f{i}",)) for i, n in enumerate(names)]
    endpoints = [Endpoint(n, f"B{i}", "http://a/") for i, n in enumerate(names)]
    assertions = [AssertionDecl(n, "simple", QName("http://t/", f"T{i}")) for i, n in enumerate(names)]
    model = ServiceModel("m", "http://x/", interfaces=interfaces, bindings=bindings,
                         services=services)
    cases = [
        (model.interface, interfaces),
        (model.binding, bindings),
        (model.service, services),
        (InterfaceDecl("I", operations).operation, operations),
        (ServiceDecl("S", "I", endpoints).endpoint, endpoints),
        (DomainSchema("d", "http://d/", "d", assertions).assertion, assertions),
    ]
    for lookup, items in cases:
        for query in "abcdefg":
            expected = next((item for item in items if item.name == query), None)
            assert lookup(query) is expected, (lookup, query)
        assert lookup("d") is items[1]


def test_validate_is_deterministic():
    doc = travel_agency_json()
    doc["services"][0]["endpoints"][0]["binding"] = "Nowhere"
    doc["bindings"][0]["interface"] = "AlsoNowhere"
    model = model_from_json(doc)
    assert validate_model(model) == validate_model(model)


def test_dangling_references_reported():
    doc = travel_agency_json()
    doc["services"][0]["endpoints"][0]["binding"] = "Nowhere"
    assert "binding-unresolved" in codes(validate_model(model_from_json(doc)))

    doc = travel_agency_json()
    doc["bindings"][0]["interface"] = "Nowhere"
    got = codes(validate_model(model_from_json(doc)))
    # The service's interface still resolves; only the binding reference breaks
    # (plus the endpoint binding/interface pairing).
    assert "interface-unresolved" in got
    assert "binding-interface-mismatch" in got


def test_duplicate_names_reported():
    doc = travel_agency_json()
    doc["bindings"].append(dict(doc["bindings"][0]))
    assert "duplicate-name" in codes(validate_model(model_from_json(doc)))


def test_service_without_endpoints():
    doc = travel_agency_json()
    doc["services"][0]["endpoints"] = []
    doc["attachments"] = []
    assert codes(validate_model(model_from_json(doc))) == ["no-endpoints"]


def test_namespace_collision_and_duplicate_qname():
    doc = travel_agency_json()
    doc["domains"][0]["targetNamespace"] = doc["targetNamespace"]
    assert "namespace-collision" in codes(validate_model(model_from_json(doc)))

    doc = travel_agency_json()
    second = {
        "name": "securitytwo",
        "targetNamespace": SEC_NS,
        "prefix": "sp2",
        "assertions": [{"name": "HashPassword", "typeKind": "empty"}],
    }
    doc["domains"].append(second)
    assert "duplicate-qname" in codes(validate_model(model_from_json(doc)))


def test_assertion_repeated_in_one_domain_is_one_duplicate_name():
    doc = travel_agency_json()
    doc["domains"][0]["assertions"].append({"name": "HashPassword", "typeKind": "empty"})
    assert validate_model(model_from_json(doc)) == [Diagnostic(
        "error", "duplicate-name", "domains[security].assertions[HashPassword]",
        "duplicate assertion name 'HashPassword'")]


XMLNS_EDITS = {
    "targetNamespace": lambda doc: doc.update(targetNamespace=XMLNS_NS),
    "externalNamespaces[0]": lambda doc: doc["externalNamespaces"][0].update(namespace=XMLNS_NS),
    "domains[security].targetNamespace":
        lambda doc: doc["domains"][0].update(targetNamespace=XMLNS_NS),
}


@pytest.mark.parametrize("path", sorted(XMLNS_EDITS))
def test_xmlns_namespace_is_reserved(path):
    doc = travel_agency_json()
    XMLNS_EDITS[path](doc)
    model = model_from_json(doc)
    reserved = [d for d in validate_model(model) if d.code == "namespace-reserved"]
    assert [d.subject_path for d in reserved] == [path]
    for domain in model.domains:
        assert codes(validate_domain(domain)) == (["namespace-reserved"] if "domains" in path else [])


def test_assertion_shape_rules():
    bad = ServiceModel(
        "m",
        "http://x/",
        domains=(
            DomainSchema(
                "d", "http://d/", "d",
                (
                    AssertionDecl("Plain", "empty",
                                  attributes=(AttributeDecl("a", QName("http://www.w3.org/2001/XMLSchema", "string")),)),
                    AssertionDecl("Hollow", "complex"),
                    AssertionDecl("Odd", "empty", simple_type=QName("http://www.w3.org/2001/XMLSchema", "string")),
                ),
            ),
        ),
    )
    got = codes(validate_model(bad))
    assert got.count("assertion-shape") == 3


def test_lifting_on_attribute_annotation_rejected():
    annotation = SemanticAnnotation(
        ("http://example.org/onto#a",), lifting_schema="http://example.org/lift"
    )
    model = ServiceModel(
        "m",
        "http://x/",
        domains=(
            DomainSchema(
                "d", "http://d/", "d",
                (
                    AssertionDecl(
                        "WithAttr", "complex",
                        attributes=(AttributeDecl("a", QName("http://www.w3.org/2001/XMLSchema", "string"), annotation),),
                    ),
                ),
            ),
        ),
    )
    assert "annotation-placement" in codes(validate_model(model))


def test_nestable_unknown_and_fault_unresolved():
    doc = travel_agency_json()
    doc["domains"][0]["assertions"][2]["nestableChildren"].append("Ghost")
    assert "nestable-unknown" in codes(validate_model(model_from_json(doc)))

    doc = travel_agency_json()
    doc["interfaces"][0]["operations"][0]["faultRefs"] = ["ghostFault"]
    assert "fault-unresolved" in codes(validate_model(model_from_json(doc)))


def test_message_namespace_must_be_declared():
    doc = travel_agency_json()
    doc["interfaces"][0]["operations"][0]["inputs"][0]["elementType"]["namespace"] = (
        "http://nowhere/"
    )
    assert "namespace-undeclared" in codes(validate_model(model_from_json(doc)))


def test_duplicate_attachment_flagged_on_hand_built_models():
    model = travel_agency_model()
    doubled = ServiceModel(model.model_name, model.target_namespace, model.domains,
                           model.interfaces, model.bindings, model.services,
                           model.attachments + model.attachments, model.external_namespaces)
    assert "duplicate-attachment" in codes(validate_model(doubled))


def test_model_types_are_immutable():
    model = travel_agency_model()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.model_name = "другое"
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.domains[0].prefix = "x"


def test_random_models_validate_cleanly():
    rng = random.Random(5150)
    for _ in range(25):
        assert validate_model(rand_model(rng, require_satisfiable_policies=True)) == []
    # Unfiltered, a model's only faults are its attachments without alternatives.
    rng = random.Random(5150)
    unsatisfiable = 0
    for _ in range(100):
        model = rand_model(rng)
        expected = sorted(
            (unsatisfiable_diagnostic(a.subject.path_string())
             for a in model.attachments if not normalize(a.policy).satisfiable),
            key=lambda d: d.subject_path,
        )
        assert validate_model(model) == expected
        unsatisfiable += len(expected)
    assert unsatisfiable > 0


ENDPOINT = "endpoint/TravelAgencyService/TravelAgencyEndpoint"


def unsatisfiable_diagnostic(subject: str) -> Diagnostic:
    return Diagnostic("error", "policy-unsatisfiable", f"attachments[{subject}]",
                      "policy is unsatisfiable (no alternatives)")


def test_undeclared_assertion_flagged():
    doc = travel_agency_json()
    policy = doc["attachments"][0]["policy"]["policy"]
    policy[0]["assertion"]["qname"]["local"] = "Ghost"
    # The least undeclared QName sits in the nested policy.
    policy[0]["assertion"]["nested"]["policy"].append(
        {"assertion": {"qname": {"namespace": SEC_NS, "local": "Banshee"}}})
    assert validate_model(model_from_json(doc)) == [
        Diagnostic("error", "assertion-undeclared", f"attachments[{ENDPOINT}]",
                   f"policy references an assertion declared in no domain: {sp('Banshee')}")
    ]


def test_unsatisfiable_attachment_flagged():
    doc = travel_agency_json()
    doc["attachments"][0]["policy"]["policy"].append({"exactlyOne": []})
    assert validate_model(model_from_json(doc)) == [unsatisfiable_diagnostic(ENDPOINT)]
    doc["attachments"][0]["policy"]["policy"][0]["assertion"]["qname"]["local"] = "Ghost"
    assert codes(validate_model(model_from_json(doc))) == [
        "assertion-undeclared", "policy-unsatisfiable"]


# --- hand-built models that emit_wsdl could not write ---------------------------
#
# parse_model refuses most of these in a model file; validate_model must refuse
# them all, so that a model it passes is one emit_wsdl writes.

def _rebuilt(value, **changes):
    """``value`` built again through its constructor with some fields changed."""
    return type(value)(**{**{name: getattr(value, name) for name in value._fields}, **changes})


def _with_parameters(*parameters):
    model = travel_agency_model()
    (attachment,) = model.attachments
    policy = Policy(AssertionRef(sp("HashPassword"), parameters=parameters))
    return _rebuilt(model, attachments=[PolicyAttachment(attachment.subject, policy)])


def _with_message_type(element_type):
    model = travel_agency_model()
    (iface,) = model.interfaces
    (op,) = iface.operations
    op = _rebuilt(op, inputs=[MessageRef("bookTripRequest", element_type)])
    return _rebuilt(model, interfaces=[_rebuilt(iface, operations=[op])])


def _with_fault_type(element_type):
    model = travel_agency_model()
    (iface,) = model.interfaces
    return _rebuilt(model, interfaces=[_rebuilt(iface, faults=[FaultDecl("f", element_type)])])


def _with_assertions(*assertions):
    model = travel_agency_model()
    (domain,) = model.domains
    domain = _rebuilt(domain, assertions=domain.assertions + assertions)
    return _rebuilt(model, domains=[domain])


def _with_service_interface(interface_ref):
    model = travel_agency_model()
    (service,) = model.services
    return _rebuilt(model, services=[_rebuilt(service, interface_ref=interface_ref)])


def _with_subject(subject):
    model = travel_agency_model()
    (attachment,) = model.attachments
    return _rebuilt(model, attachments=[PolicyAttachment(subject, attachment.policy)])


IFACE = "interfaces[TravelAgencyInterface]"
PARAMS = f"attachments[{ENDPOINT}].{sp('HashPassword')}.parameters"
ASSERTIONS = "domains[security].assertions"
SERVICE = "services[TravelAgencyService]"
UNWRITABLE = [
    # A model file cannot carry the first, second or fifth of these:
    # parse_model refuses the empty annotation and each unknown kind itself.
    (_with_assertions(AssertionDecl("Tagged", annotation=SemanticAnnotation(()))),
     [("annotation-empty", f"{ASSERTIONS}[Tagged].annotation",
       "modelReference must list at least one URI")]),
    (_with_assertions(AssertionDecl("Odd", "weird")),
     [("assertion-shape", f"{ASSERTIONS}[Odd]", "unknown typeKind 'weird'")]),
    (_with_assertions(AssertionDecl("Plain", "empty", nestable_children=["NoPassword"])),
     [("assertion-shape", f"{ASSERTIONS}[Plain]",
       "nestableChildren require typeKind complex, not 'empty'")]),
    (_with_service_interface("Ghost"),
     [("binding-interface-mismatch", f"{SERVICE}.endpoints[TravelAgencyEndpoint].binding",
       "binding 'TravelAgencyBinding' is bound to interface 'TravelAgencyInterface', "
       "not 'Ghost'"),
      ("interface-unresolved", f"{SERVICE}.interface", "interface 'Ghost' is not declared")]),
    (_with_subject(SubjectRef("port", ("TravelAgencyService", "TravelAgencyEndpoint"))),
     [("subject-unresolved", "attachments[port/TravelAgencyService/TravelAgencyEndpoint]",
       "unknown subject kind 'port'")]),
    (_with_message_type(QName(SEC_NS, "1 bad")),
     [("bad-identifier", f"{IFACE}.operations[bookTrip].inputs[0].elementType",
       "local part must be an NCName, got '1 bad'")]),
    (_with_fault_type(QName(SEC_NS, "a:b")),
     [("bad-identifier", f"{IFACE}.faults[f].elementType",
       "local part must be an NCName, got 'a:b'")]),
    (_with_assertions(AssertionDecl("Level", "simple", QName(XS_NS, "1int"))),
     [("bad-identifier", f"{ASSERTIONS}[Level].simpleType",
       "local part must be an NCName, got '1int'")]),
    (_with_assertions(AssertionDecl("Sized", "complex", attributes=[
        AttributeDecl("size", QName(XS_NS, "")), AttributeDecl("unit", QName(XS_NS, "token"))])),
     [("bad-identifier", f"{ASSERTIONS}[Sized].attributes[size].simpleType",
       "local part must be an NCName, got ''")]),
    (_with_parameters(("a", "1"), ("a", "2")),
     [("duplicate-name", f"{PARAMS}[a]", "duplicate parameter name 'a'")]),
    (_with_parameters(("1x", 3), ("ok", True)),
     [("bad-identifier", f"{PARAMS}[1x]", "parameter name must be an NCName, got '1x'")]),
    (_with_parameters(("level", "a\x01b"), ("other", 1.5)),
     [("bad-character", f"{PARAMS}[level]",
       "parameter value: character U+0001 is not allowed in XML 1.0")]),
    (_with_assertions(AssertionDecl("Level", "simple", QName("not a uri", "string"))),
     [("bad-uri", f"{ASSERTIONS}[Level].simpleType", "not an absolute URI: 'not a uri'")]),
    (_with_assertions(AssertionDecl("Sized", "complex", attributes=[
        AttributeDecl("size", QName("not a uri", "token"))])),
     [("bad-uri", f"{ASSERTIONS}[Sized].attributes[size].simpleType",
       "not an absolute URI: 'not a uri'")]),
    (_with_assertions(AssertionDecl("Level", "simple", QName(XMLNS_NS, "string"))),
     [("namespace-reserved", f"{ASSERTIONS}[Level].simpleType",
       f"{XMLNS_NS} is reserved for namespace declarations; no prefix may be bound to it")]),
    (_with_assertions(AssertionDecl("Sized", "complex", attributes=[
        AttributeDecl("size", QName(XMLNS_NS, "token"))])),
     [("namespace-reserved", f"{ASSERTIONS}[Sized].attributes[size].simpleType",
       f"{XMLNS_NS} is reserved for namespace declarations; no prefix may be bound to it")]),
    (_with_assertions(AssertionDecl("Level", "simple", QName("a\x01b", "string"))),
     [("bad-uri", f"{ASSERTIONS}[Level].simpleType", "not an absolute URI: 'a\\x01b'")]),
]


@pytest.mark.parametrize("model, expected", UNWRITABLE, ids=[
    "annotation-empty", "unknown-type-kind", "nestable-on-empty", "service-interface",
    "subject-kind", "message-type", "fault-type", "simple-type", "attribute-type",
    "repeated-parameter", "parameter-name", "parameter-value", "simple-type-uri", "attribute-type-uri",
    "simple-type-xmlns", "attribute-type-xmlns", "simple-type-character"])
def test_unwritable_hand_built_models_are_refused(model, expected):
    diagnostics = validate_model(model)
    assert [(d.severity, d.code, d.subject_path, d.message) for d in diagnostics] == [
        ("error", *row) for row in expected]
    with pytest.raises(GenerationError, match="model failed validation"):
        emit_wsdl(model)


def _with_binding(**changes):
    model = travel_agency_model()
    (binding,) = model.bindings
    return _rebuilt(model, bindings=[_rebuilt(binding, **changes)])


ENCODING = "bindings[TravelAgencyBinding].messageEncoding"
REFUSED_BY_THE_MODEL_FILE = [
    (_with_parameters(("level", None)), "bad-value", f"{PARAMS}[level]",
     "parameter value: expected a string, number or boolean, got NoneType"),
    (_with_parameters(("level", [1])), "bad-value", f"{PARAMS}[level]",
     "parameter value: expected a string, number or boolean, got list"),
    (_with_parameters(("level", b"x")), "bad-value", f"{PARAMS}[level]",
     "parameter value: expected a string, number or boolean, got bytes"),
    (_with_parameters(("level", float("nan"))), "bad-value", f"{PARAMS}[level]",
     "parameter value: parameter values must be finite"),
    (_with_parameters(("level", float("inf"))), "bad-value", f"{PARAMS}[level]",
     "parameter value: parameter values must be finite"),
    (_with_parameters(("level", float("-inf"))), "bad-value", f"{PARAMS}[level]",
     "parameter value: parameter values must be finite"),
    (_with_binding(message_encoding=""), "bad-value", ENCODING, "must be a non-empty token"),
    (_with_binding(message_encoding="a\x01"), "bad-character", ENCODING,
     "character U+0001 is not allowed in XML 1.0"),
]


@pytest.mark.parametrize("model, code, path, message", REFUSED_BY_THE_MODEL_FILE, ids=[
    "none", "list", "bytes", "nan", "inf", "-inf", "empty-encoding", "encoding-character"])
def test_values_the_model_file_refuses_are_refused(model, code, path, message):
    # Each passed validation before, and then failed to be written or to be
    # read back.  The model file refuses each one with the same words.
    diagnostics = validate_model(model)
    assert [(d.severity, d.code, d.subject_path, d.message) for d in diagnostics] == [
        ("error", code, path, message)]
    with pytest.raises(GenerationError, match="model failed validation"):
        emit_wsdl(model)
    try:
        data = serialize_model(model)
    except TypeError:  # JSON has no bytes
        return
    with pytest.raises(ModelSchemaError) as refused:
        parse_model(data)
    assert str(refused.value).endswith(": " + message.removeprefix("parameter value: "))


def test_hand_built_parameter_values_the_model_file_accepts_are_written():
    # Booleans, ints, floats and XML strings: validated, written and read back.
    values = (("a", True), ("b", 10**400), ("c", -0.5), ("d", "x y"))
    model = _with_parameters(*values)
    assert validate_model(model) == []
    for _name, doc in emit_wsdl(model):
        write_canonical(doc)
    assert parse_model(serialize_model(model)) == model


# --- simple-type namespaces -----------------------------------------------------
#
# The model file takes any string as a QName's namespace, and the domain schema
# binds a prefix to a simple type's, so validation refuses one a prefix may not
# be bound to (the cases above, in UNWRITABLE) but not the empty namespace.

def test_simple_type_refused_with_a_non_xml_character_fails_the_domain_too():
    model = UNWRITABLE[-1][0]
    (domain,) = model.domains
    assert codes(validate_domain(domain)) == ["bad-uri"]
    with pytest.raises(GenerationError, match="domain 'security' failed validation"):
        emit_domain_xsd(domain)


def test_simple_type_in_no_namespace_is_written_unprefixed():
    model = _with_assertions(
        AssertionDecl("Level", "simple", QName("", "string")),
        AssertionDecl("Sized", "complex", attributes=[AttributeDecl("size", QName("", "token"))]))
    assert validate_model(model) == []
    schema = write_canonical(dict(emit_wsdl(model))["ws-semanticsecuritypolicy.xsd"])
    assert b' type="string"' in schema and b' type="token"' in schema


# --- validate_model is the one gate before writing --------------------------------

def _substitute(value, old, new):
    """``value`` rebuilt with the object ``old`` (by identity) replaced by ``new``."""
    if value is old:
        return new
    if isinstance(value, tuple):
        return tuple(_substitute(item, old, new) for item in value)
    if isinstance(value, (Policy, All, ExactlyOne)):
        return type(value)(*(_substitute(child, old, new) for child in value.children))
    if isinstance(value, Value) and not isinstance(value, QName):
        return _rebuilt(value, **{name: _substitute(getattr(value, name), old, new)
                                  for name in value._fields})
    return value


def _one_value_edits(model, bad):
    """(old, new) pairs: each element type and simple type with ``bad`` as its
    local part or namespace, and each assertion reference with ``bad`` as one
    parameter name or string parameter value."""
    def qnames(qname):
        return QName(qname.namespace, bad), QName(bad, qname.local)

    for domain in model.domains:
        for decl in domain.assertions:
            if decl.simple_type is not None:
                for qname in qnames(decl.simple_type):
                    yield decl, _rebuilt(decl, simple_type=qname)
            for attr in decl.attributes:
                for qname in qnames(attr.simple_type):
                    yield attr, _rebuilt(attr, simple_type=qname)
    for iface in model.interfaces:
        for fault in iface.faults:
            if fault.element_type is not None:
                for qname in qnames(fault.element_type):
                    yield fault, _rebuilt(fault, element_type=qname)
        for op in iface.operations:
            for ref in op.inputs + op.outputs:
                for qname in qnames(ref.element_type):
                    yield ref, _rebuilt(ref, element_type=qname)
    for attachment in model.attachments:
        for ref in iter_refs(attachment.policy):
            for i, (name, value) in enumerate(ref.parameters):
                edits = [(bad, value)] + ([(name, bad)] if isinstance(value, str) else [])
                for edit in edits:
                    parameters = ref.parameters[:i] + (edit,) + ref.parameters[i + 1:]
                    yield ref, _rebuilt(ref, parameters=parameters)


def test_what_validate_model_passes_is_written_and_what_it_refuses_is_not():
    rng = random.Random(0x6A7E)
    outcomes = {"written": 0, "refused": 0}
    for _ in range(60):
        model = rand_model(rng, require_satisfiable_policies=True)
        assert validate_model(model) == []
        for bad in ("1 bad", "not a uri", XMLNS_NS, "a\x01b"):
            for old, new in _one_value_edits(model, bad):
                edited = _substitute(model, old, new)
                assert edited != model
                if any(d.severity == "error" for d in validate_model(edited)):
                    with pytest.raises(GenerationError, match="model failed validation"):
                        emit_wsdl(edited)
                    outcomes["refused"] += 1
                    continue
                for _name, doc in emit_wsdl(edited):
                    declared = parse_xml(write_canonical(doc)).namespaces.values()
                    assert declared and all(is_absolute_uri(uri) for uri in declared)
                outcomes["written"] += 1
    assert min(outcomes.values()) > 20, outcomes


# --- the documented rules ---------------------------------------------------------

def test_docs_name_every_validation_code():
    """Each code that model.py reports through ``out.error`` is named, in
    backquotes, in docs/model-format.md's list of the rules validate checks."""
    source = Path(wspolicy.model.__file__).read_text(encoding="utf-8")
    codes_reported = {
        node.args[0].value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "error" and getattr(node.func.value, "id", None) == "out"
    }
    doc = (Path(__file__).parents[1] / "docs" / "model-format.md").read_text(encoding="utf-8")
    rules = doc.split("Rules checked by `validate`", 1)[1].split("\n## ", 1)[0]
    assert len(codes_reported) >= 21
    assert sorted(code for code in codes_reported if f"`{code}`" not in rules) == []
