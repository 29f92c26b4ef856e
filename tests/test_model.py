import dataclasses
import random

import pytest

from wspolicy import (
    AssertionDecl,
    AttributeDecl,
    BindingDecl,
    Diagnostic,
    DomainSchema,
    Endpoint,
    InterfaceDecl,
    OperationDecl,
    QName,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
    VocabularyError,
    assertion_vocabulary,
    normalize,
    resolve_subject,
    validate_domain,
    validate_model,
)
from wspolicy.names import XMLNS_NS

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
