import random

import pytest

from wspolicy import (
    AssertionInstance,
    NormalForm,
    Policy,
    QName,
    emit_domain_xsd,
    emit_wsdl,
    normalize,
    parse_domain_xsd,
    parse_policy_element,
    parse_wsdl,
    policy_document,
    write_canonical,
)
from wspolicy.errors import PolicyXmlError, XmlParseError
from wspolicy.model import Diagnostic
from wspolicy.reader import MAX_POLICY_DEPTH

from corpus import (
    SEC_NS,
    deep_policy,
    endpoint_policy,
    model_from_json,
    sp,
    travel_agency_json,
    travel_agency_model,
    wsdl_with_second_endpoint_policy,
)
from randgen import rand_model, rand_policy_expr

WSP = "http://www.w3.org/ns/ws-policy"


def emitted_corpus():
    files = dict(emit_wsdl(travel_agency_model()))
    wsdl = write_canonical(files["TravelAgency.wsdl"])
    xsd = write_canonical(files["ws-semanticsecuritypolicy.xsd"])
    return wsdl, xsd


def corpus_nested_nf() -> NormalForm:
    return NormalForm.of(
        [
            [AssertionInstance(sp("NoPassword")), AssertionInstance(sp("WssUsernameToken10"))],
            [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))],
        ]
    )


# --- whole WSDL --------------------------------------------------------------

def test_roundtrip_travel_agency():
    wsdl, xsd = emitted_corpus()
    parsed = parse_wsdl(wsdl, [xsd])
    assert parsed.warnings == ()
    assert [d.domain_name for d in parsed.domains] == ["security"]
    (attachment,) = parsed.attachments
    assert attachment.subject.kind == "endpoint"
    assert attachment.subject.path == ("TravelAgencyService", "TravelAgencyEndpoint")
    nf = normalize(attachment.policy)
    (alt,) = nf.alternatives
    (token,) = alt
    assert token.qname == sp("UsernameToken")
    assert token.nested == corpus_nested_nf()
    assert normalize(attachment.policy) == normalize(endpoint_policy())

    service = parsed.service_model.service("TravelAgencyService")
    assert service is not None
    assert service.endpoint("TravelAgencyEndpoint").address == "http://emi/TravelAgencyService"
    assert parsed.service_model.binding("TravelAgencyBinding").interface_ref == "TravelAgencyInterface"
    iface = parsed.service_model.interface("TravelAgencyInterface")
    assert [o.name for o in iface.operations] == ["bookTrip"]
    (op,) = iface.operations
    assert op.inputs[0].element_type == QName("http://emi/TravelAgencyTypes.xsd", "bookTripRequest")


def test_wsdl_without_policies():
    doc = travel_agency_json()
    doc["attachments"] = []
    files = dict(emit_wsdl(model_from_json(doc)))
    parsed = parse_wsdl(write_canonical(files["TravelAgency.wsdl"]))
    assert parsed.attachments == ()


def test_missing_companion_schema_warns_but_parses_policy():
    wsdl, _xsd = emitted_corpus()
    parsed = parse_wsdl(wsdl, [])
    warning_codes = {w.code for w in parsed.warnings}
    assert "domain-unresolved" in warning_codes
    assert "assertion-unresolved" in warning_codes
    (attachment,) = parsed.attachments
    assert normalize(attachment.policy) == normalize(endpoint_policy())
    unresolved = {w.subject_path for w in parsed.warnings if w.code == "assertion-unresolved"}
    assert str(sp("UsernameToken")) in unresolved


def test_stray_policy_is_an_error():
    payload = (
        '<wsdl:description xmlns:wsdl="http://www.w3.org/ns/wsdl" '
        f'xmlns:wsp="{WSP}" targetNamespace="http://x/">'
        "<wsdl:types><wsp:Policy/></wsdl:types>"
        "</wsdl:description>"
    ).encode()
    with pytest.raises(XmlParseError):
        parse_wsdl(payload)


def test_second_policy_on_one_subject_is_an_error():
    # Both policies apply to the endpoint; reading only the first would drop
    # the second, here an unsatisfiable one.
    with pytest.raises(XmlParseError, match="second wsp:Policy for subject "
                                            "'endpoint/TravelAgencyService/TravelAgencyEndpoint'"):
        parse_wsdl(wsdl_with_second_endpoint_policy())

    # Two elements addressing one subject, each with a policy, are refused too.
    payload = (
        '<wsdl:description xmlns:wsdl="http://www.w3.org/ns/wsdl" '
        f'xmlns:wsp="{WSP}" targetNamespace="http://x/">'
        '<wsdl:binding name="B" interface="I" type="http://x/t"><wsp:Policy/></wsdl:binding>'
        '<wsdl:binding name="B" interface="I" type="http://x/t"><wsp:Policy/></wsdl:binding>'
        "</wsdl:description>"
    ).encode()
    with pytest.raises(XmlParseError, match="second wsp:Policy for subject 'binding/B'"):
        parse_wsdl(payload)


def test_unknown_description_child_warns():
    payload = (
        '<wsdl:description xmlns:wsdl="http://www.w3.org/ns/wsdl" '
        'xmlns:x="http://x/ext" targetNamespace="http://x/">'
        "<x:extension/>"
        "</wsdl:description>"
    ).encode()
    parsed = parse_wsdl(payload)
    assert [w.code for w in parsed.warnings] == ["extension-skipped"]


def test_non_wsdl_root_rejected():
    with pytest.raises(XmlParseError):
        parse_wsdl(b'<r xmlns="http://x/"/>')


# --- policy fragments --------------------------------------------------------

def test_parse_empty_policy():
    expr = parse_policy_element(f'<wsp:Policy xmlns:wsp="{WSP}"/>'.encode())
    assert expr == Policy()


def test_parse_reference_fragment_bytes():
    payload = f"""<wsp:Policy xmlns:sp="{SEC_NS}" xmlns:wsp="{WSP}">
      <sp:UsernameToken>
        <wsp:Policy>
          <wsp:ExactlyOne>
            <wsp:All><sp:NoPassword/><sp:WssUsernameToken10/></wsp:All>
            <wsp:All><sp:HashPassword/><sp:WssUsernameToken10/></wsp:All>
          </wsp:ExactlyOne>
        </wsp:Policy>
      </sp:UsernameToken>
    </wsp:Policy>""".encode()
    nf = normalize(parse_policy_element(payload))
    (alt,) = nf.alternatives
    (token,) = alt
    assert token.nested == corpus_nested_nf()


def test_parse_rejects_unknown_wsp_children():
    payload = f'<wsp:Policy xmlns:wsp="{WSP}"><wsp:Ignorable/></wsp:Policy>'.encode()
    with pytest.raises(PolicyXmlError):
        parse_policy_element(payload)


def test_parse_rejects_non_policy_root():
    with pytest.raises(PolicyXmlError):
        parse_policy_element(f'<wsp:All xmlns:wsp="{WSP}"/>'.encode())


def test_parse_rejects_double_nested_policy():
    payload = (
        f'<wsp:Policy xmlns:wsp="{WSP}" xmlns:sp="{SEC_NS}">'
        "<sp:UsernameToken><wsp:Policy/><wsp:Policy/></sp:UsernameToken>"
        "</wsp:Policy>"
    ).encode()
    with pytest.raises(PolicyXmlError):
        parse_policy_element(payload)


def test_parse_rejects_text_and_foreign_attributes():
    with pytest.raises(PolicyXmlError):
        parse_policy_element(
            f'<wsp:Policy xmlns:wsp="{WSP}" xmlns:sp="{SEC_NS}">'
            "<sp:NoPassword>hello</sp:NoPassword></wsp:Policy>".encode()
        )
    with pytest.raises(PolicyXmlError):
        parse_policy_element(
            f'<wsp:Policy xmlns:wsp="{WSP}" xmlns:sp="{SEC_NS}">'
            '<sp:NoPassword sp:x="1"/></wsp:Policy>'.encode()
        )


@pytest.mark.parametrize("nested_policies", [False, True])
def test_parse_caps_policy_depth(nested_policies):
    # Operators and nested assertion policies both count toward the cap.
    at_cap = parse_policy_element(deep_policy(MAX_POLICY_DEPTH, nested_policies))
    assert normalize(at_cap).satisfiable
    with pytest.raises(PolicyXmlError, match=f"nested deeper than {MAX_POLICY_DEPTH} levels"):
        parse_policy_element(deep_policy(MAX_POLICY_DEPTH + 1, nested_policies))


def test_optional_attribute_forms():
    for value, expected in (("true", True), ("1", True), ("false", False), ("0", False)):
        payload = (
            f'<wsp:Policy xmlns:wsp="{WSP}" xmlns:sp="{SEC_NS}">'
            f'<sp:NoPassword wsp:Optional="{value}"/></wsp:Policy>'
        ).encode()
        (ref,) = parse_policy_element(payload).children
        assert ref.optional is expected
    with pytest.raises(PolicyXmlError):
        parse_policy_element(
            f'<wsp:Policy xmlns:wsp="{WSP}" xmlns:sp="{SEC_NS}">'
            '<sp:NoPassword wsp:Optional="yes"/></wsp:Policy>'.encode()
        )


def test_random_policies_roundtrip_through_xml():
    rng = random.Random(60601)
    for _ in range(150):
        expr = rand_policy_expr(rng)
        if not normalize(expr).satisfiable:
            continue
        payload = write_canonical(policy_document(expr))
        assert normalize(parse_policy_element(payload)) == normalize(expr)


def test_random_models_roundtrip_attachment_normal_forms():
    rng = random.Random(505050)
    for _ in range(10):
        model = rand_model(rng, require_satisfiable_policies=True)
        files = dict(emit_wsdl(model))
        wsdl_name = next(name for name in files if name.endswith(".wsdl"))
        schemas = [write_canonical(doc) for name, doc in files.items() if name != wsdl_name]
        parsed = parse_wsdl(write_canonical(files[wsdl_name]), schemas)
        assert len(parsed.attachments) == len(model.attachments)
        by_subject = {
            (a.subject.kind, a.subject.path): a.policy for a in parsed.attachments
        }
        for attachment in model.attachments:
            key = (attachment.subject.kind, attachment.subject.path)
            assert normalize(by_subject[key]) == normalize(attachment.policy)


# --- domain XSD --------------------------------------------------------------

def test_domain_roundtrip_corpus():
    domain = travel_agency_model().domains[0]
    payload = write_canonical(emit_domain_xsd(domain))
    assert parse_domain_xsd(payload) == domain


def test_domain_roundtrip_random():
    rng = random.Random(171717)
    for _ in range(25):
        model = rand_model(rng)
        for domain in model.domains:
            payload = write_canonical(emit_domain_xsd(domain))
            assert parse_domain_xsd(payload) == domain


def test_empty_schema_parses_to_empty_domain():
    payload = (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" '
        'targetNamespace="http://example.org/none"/>'
    ).encode()
    domain = parse_domain_xsd(payload)
    assert domain.assertions == ()
    assert domain.target_namespace == "http://example.org/none"
    assert domain.prefix == "tns"
    assert domain.domain_name == "domain"


def test_top_level_non_elements_are_skipped_with_warning():
    payload = (
        '<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" '
        'targetNamespace="http://example.org/none">'
        '<xs:complexType name="T"/>'
        '<xs:element name="Keep"><xs:complexType/></xs:element>'
        "</xs:schema>"
    ).encode()
    warnings: list[Diagnostic] = []
    domain = parse_domain_xsd(payload, warnings)
    assert [a.name for a in domain.assertions] == ["Keep"]
    assert [w.code for w in warnings] == ["schema-component-skipped"]


def test_schema_without_target_namespace_rejected():
    with pytest.raises(XmlParseError):
        parse_domain_xsd(b'<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>')
