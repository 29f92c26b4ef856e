"""Shared fixtures: the TravelAgency corpus and the alias-vocabulary fixtures."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from wspolicy import (
    All,
    AssertionDecl,
    AssertionRef,
    DomainSchema,
    ExactlyOne,
    Policy,
    QName,
    SemanticAnnotation,
    ServiceModel,
    parse_model,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

MODEL_NS = "http://emi/TravelAgency.wsdl20"
SEC_NS = "http://emi/ws-semanticsecuritypolicy.xsd"
ONTO = "http://example.org/sec-onto#"
ACME_NS = "http://example.org/acme-security.xsd"


def sp(local: str) -> QName:
    return QName(SEC_NS, local)


def acme(local: str) -> QName:
    return QName(ACME_NS, local)


def travel_agency_bytes() -> bytes:
    return (FIXTURES / "travel_agency.json").read_bytes()


def travel_agency_model() -> ServiceModel:
    return parse_model(travel_agency_bytes())


def travel_agency_json() -> dict:
    """A mutable copy of the fixture document, for building broken variants."""
    return json.loads(travel_agency_bytes().decode("utf-8"))


def model_from_json(doc: dict) -> ServiceModel:
    return parse_model(json.dumps(doc).encode("utf-8"))


def endpoint_policy():
    """The endpoint policy of the corpus: UsernameToken with a nested choice
    between (NoPassword, WssUsernameToken10) and (HashPassword, WssUsernameToken10)."""
    model = travel_agency_model()
    assert len(model.attachments) == 1
    return model.attachments[0].policy


def wide_optional_json(count: int) -> dict:
    """The fixture with ``count`` optional HashPassword assertions appended to
    its endpoint policy, told apart by a parameter: 2**count alternatives."""
    doc = travel_agency_json()
    doc["attachments"][0]["policy"]["policy"] += [
        {"assertion": {"qname": {"namespace": SEC_NS, "local": "HashPassword"},
                       "optional": True, "parameters": [{"name": "level", "value": i}]}}
        for i in range(count)
    ]
    return doc


def conflicting_security_domain() -> DomainSchema:
    """The corpus security domain with UsernameToken annotated differently."""
    (domain,) = travel_agency_model().domains
    return dataclasses.replace(domain, assertions=tuple(
        dataclasses.replace(d, annotation=SemanticAnnotation(("http://example.org/other#T",)))
        if d.name == "UsernameToken" else d
        for d in domain.assertions
    ))


def acme_domain() -> DomainSchema:
    """An alias vocabulary: different QNames, same ontology concepts."""
    return DomainSchema(
        domain_name="acmesecurity",
        target_namespace=ACME_NS,
        prefix="acme",
        assertions=(
            AssertionDecl(
                "HashedPwd", "empty",
                annotation=SemanticAnnotation((ONTO + "HashPassword",)),
            ),
            AssertionDecl(
                "UserToken", "complex",
                nestable_children=("HashedPwd", "Wss10Token"),
                annotation=SemanticAnnotation((ONTO + "UsernameToken",)),
            ),
            AssertionDecl(
                "Wss10Token", "empty",
                annotation=SemanticAnnotation((ONTO + "WssUsernameToken10",)),
            ),
        ),
    )


def acme_requester_policy():
    """A requester wanting hashed passwords, phrased in the alias vocabulary."""
    return Policy(
        AssertionRef(
            acme("UserToken"),
            nested=Policy(
                ExactlyOne(
                    All(AssertionRef(acme("HashedPwd")), AssertionRef(acme("Wss10Token")))
                )
            ),
        )
    )


def deep_policy(levels: int, nested_policies: bool = False) -> bytes:
    """A wsp:Policy document ``levels`` element levels deep, root included.

    The chain below the root is wsp:All operators ending in one assertion,
    or, with ``nested_policies``, assertions and nested wsp:Policy elements
    in turn.
    """
    names = ["wsp:Policy"]
    for level in range(2, levels + 1):
        if nested_policies:
            names.append("sp:A" if level % 2 == 0 else "wsp:Policy")
        else:
            names.append("sp:A" if level == levels else "wsp:All")
    opening = "".join(f"<{name}>" for name in names[1:])
    closing = "".join(f"</{name}>" for name in reversed(names[1:]))
    return (
        f'<wsp:Policy xmlns:wsp="http://www.w3.org/ns/ws-policy" xmlns:sp="{SEC_NS}">'
        f"{opening}{closing}</wsp:Policy>"
    ).encode()


def deep_model(levels: int, nested_policies: bool = False) -> bytes:
    """The fixture with an endpoint policy ``levels`` levels deep, root included.

    Levels count as in ``deep_policy``: the root policy object is 1 and every
    policy-expression object below it adds one; the chain has the same shape.
    The text is built directly, since ``json.dumps`` itself recurses.
    """
    qname = json.dumps({"namespace": SEC_NS, "local": "HashPassword"})
    if nested_policies and levels % 2:
        inner = '{"policy": []}'
    else:
        inner = '{"assertion": {"qname": %s}}' % qname
    for level in range(levels - 1, 1, -1):
        if not nested_policies:
            inner = '{"all": [%s]}' % inner
        elif level % 2:
            inner = '{"policy": [%s]}' % inner
        else:
            inner = '{"assertion": {"qname": %s, "nested": %s}}' % (qname, inner)
    doc = travel_agency_json()
    doc["attachments"][0]["policy"] = "@policy@"
    return json.dumps(doc).replace('"@policy@"', '{"policy": [%s]}' % inner).encode()


def wsdl_with_second_endpoint_policy() -> bytes:
    """The golden WSDL with an unsatisfiable second wsp:Policy on its endpoint."""
    wsdl = (GOLDEN / "TravelAgency.wsdl").read_bytes()
    closing = b"    </wsdl:endpoint>"
    assert wsdl.count(closing) == 1
    return wsdl.replace(
        closing, b"      <wsp:Policy><wsp:ExactlyOne/></wsp:Policy>\n" + closing
    )


def wsdl_with_deep_documentation(levels: int, stray_policy: bool = False) -> bytes:
    """The golden WSDL with a chain of ``levels`` nested wsdl:documentation
    elements as its last child, ending in a wsp:Policy with ``stray_policy``."""
    wsdl = (GOLDEN / "TravelAgency.wsdl").read_bytes()
    closing = b"</wsdl:description>"
    assert wsdl.count(closing) == 1
    chain = (b"<wsdl:documentation>" * levels + (b"<wsp:Policy/>" if stray_policy else b"")
             + b"</wsdl:documentation>" * levels)
    return wsdl.replace(closing, chain + closing)
