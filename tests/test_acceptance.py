"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import random
import shutil
import subprocess
import time
from contextlib import contextmanager

import pytest

from wspolicy import (
    All,
    AssertionInstance,
    ExactlyOne,
    MatchMode,
    NormalForm,
    Policy,
    QName,
    assertion_vocabulary,
    denormalize,
    emit_wsdl,
    intersect,
    normalize,
    parse_model,
    parse_policy_element,
    parse_wsdl,
    policy_document,
    serialize_model,
    write_canonical,
)
from wspolicy.algebra import alternatives_compatible
from wspolicy.names import WSP_NS
from wspolicy.xmltree import parse_xml

from corpus import (
    GOLDEN,
    acme_domain,
    acme_requester_policy,
    endpoint_policy,
    sp,
    travel_agency_bytes,
    travel_agency_model,
)
from randgen import default_pool, rand_model, rand_normal_form, rand_policy_expr
from reference import enumerate_alternatives_oracle


@contextmanager
def criterion(number: int, description: str, limit_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


@pytest.fixture(scope="module")
def policy_corpus():
    """Random policy trees: depth <= 4, <= 6 distinct assertions, optional
    flags allowed; grown until 1000 of them are satisfiable."""
    rng = random.Random(0xACCE97)
    trees = []
    satisfiable = []
    while len(satisfiable) < 1000:
        expr = rand_policy_expr(rng, max_depth=4, pool=default_pool(6))
        trees.append(expr)
        if normalize(expr).satisfiable:
            satisfiable.append(expr)
    assert len(trees) >= 1000
    return trees, satisfiable


def test_criterion_1_reference_wsdl_reproduction():
    with criterion(1, "reference WSDL strings and golden-file byte equality", 1.0):
        files = {n: write_canonical(d) for n, d in emit_wsdl(travel_agency_model())}
        wsdl = files["TravelAgency.wsdl"]
        for name, payload in files.items():
            assert payload == (GOLDEN / name).read_bytes(), f"golden mismatch: {name}"
        text = wsdl.decode("utf-8")
        for verbatim in (
            'targetNamespace="http://emi/TravelAgency.wsdl20"',
            'namespace="http://emi/ws-semanticsecuritypolicy.xsd"',
            'schemaLocation="ws-semanticsecuritypolicy.xsd"',
            'name="TravelAgencyEndpoint"',
            'binding="TravelAgencyBinding"',
            'address="http://emi/TravelAgencyService"',
        ):
            assert verbatim in text, verbatim

        def chain(element, out):
            out.append(element.name)
            for child in element.children:
                chain(child, out)
            return out

        root = parse_xml(wsdl)
        endpoint = root.children[-1].children[-1]
        names = chain(endpoint.children[0], [])
        assert names == [
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


def test_criterion_2_security_schema_reproduction():
    with criterion(2, "security XSD: 4 annotated top-level element declarations", 1.0):
        files = dict(emit_wsdl(travel_agency_model()))
        root = files["ws-semanticsecuritypolicy.xsd"]
        elements = root.find_all(QName("http://www.w3.org/2001/XMLSchema", "element"))
        assert sorted(e.attr("name") for e in elements) == [
            "HashPassword",
            "NoPassword",
            "UsernameToken",
            "WssUsernameToken10",
        ]
        for element in elements:
            ref = element.attr(QName("http://www.w3.org/ns/sawsdl", "modelReference"))
            assert ref, element.attr("name")


def test_criterion_3_normalize_equals_oracle(policy_corpus):
    trees, _ = policy_corpus
    with criterion(3, f"normalize == enumeration oracle on {len(trees)} random trees", 30.0):
        for expr in trees:
            assert normalize(expr) == enumerate_alternatives_oracle(expr)


def test_criterion_4_idempotence_and_xml_roundtrip(policy_corpus):
    _, satisfiable = policy_corpus
    with criterion(
        4, f"idempotence and emit/parse round-trip on {len(satisfiable)} satisfiable trees", 30.0
    ):
        for expr in satisfiable:
            nf = normalize(expr)
            assert normalize(denormalize(nf)) == nf
            payload = write_canonical(policy_document(expr))
            assert normalize(parse_policy_element(payload)) == nf


def test_criterion_5_intersection_properties():
    rng = random.Random(0x1235813)
    pool = default_pool(6)
    pairs = [(rand_normal_form(rng, pool), rand_normal_form(rng, pool)) for _ in range(1000)]
    with criterion(5, "intersection commutativity/soundness on 1000 pairs + the provider/requester case", 30.0):
        for p, q in pairs:
            pq = intersect(p, q)
            assert pq == intersect(q, p)
            for alt in pq.alternatives:
                members = set(alt)
                assert any(members.issuperset(a) for a in p.alternatives)
                assert any(members.issuperset(b) for b in q.alternatives)

        provider = NormalForm.of(
            [
                [AssertionInstance(sp("NoPassword")), AssertionInstance(sp("WssUsernameToken10"))],
                [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))],
            ]
        )
        requester = NormalForm.of(
            [[AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))]]
        )
        assert intersect(provider, requester, MatchMode.STRICT) == requester


def test_criterion_6_semantic_widening():
    with criterion(6, "alias vocabulary: strict empty, semantic non-empty; strict => semantic"):
        vocab = assertion_vocabulary(travel_agency_model().domains + (acme_domain(),))

        provider_nf = normalize(endpoint_policy())
        requester_nf = normalize(acme_requester_policy())
        strict = intersect(provider_nf, requester_nf, MatchMode.STRICT, vocab)
        semantic = intersect(provider_nf, requester_nf, MatchMode.SEMANTIC, vocab)
        assert not strict.satisfiable
        assert semantic.satisfiable

        rng = random.Random(0xCAFE)
        pool = sorted(vocab)
        for _ in range(400):
            p = rand_normal_form(rng, pool, allow_nested=False)
            q = rand_normal_form(rng, pool, allow_nested=False)
            for alt_a in p.alternatives:
                for alt_b in q.alternatives:
                    if alternatives_compatible(alt_a, alt_b, MatchMode.STRICT, vocab):
                        assert alternatives_compatible(
                            alt_a, alt_b, MatchMode.SEMANTIC, vocab
                        )
            strict_nf = intersect(p, q, MatchMode.STRICT, vocab)
            semantic_nf = intersect(p, q, MatchMode.SEMANTIC, vocab)
            assert set(strict_nf.alternatives) <= set(semantic_nf.alternatives)


def test_criterion_7_model_roundtrip_and_deterministic_emission():
    with criterion(7, "model round-trip over fixture + 100 random models; byte-stable emission"):
        fixture = parse_model(travel_agency_bytes())
        assert parse_model(serialize_model(fixture)) == fixture
        assert serialize_model(fixture) == serialize_model(fixture)

        rng = random.Random(0xD15EA5E)
        emitted_checked = 0
        for index in range(100):
            model = rand_model(rng, require_satisfiable_policies=True)
            assert parse_model(serialize_model(model)) == model
            if index % 10 == 0:
                first = {n: write_canonical(d) for n, d in emit_wsdl(model)}
                second = {n: write_canonical(d) for n, d in emit_wsdl(model)}
                assert first == second
                emitted_checked += 1
        assert emitted_checked == 10
        fixture_files = {n: write_canonical(d) for n, d in emit_wsdl(fixture)}
        assert fixture_files == {n: write_canonical(d) for n, d in emit_wsdl(fixture)}


def test_criterion_8_external_conformance(tmp_path):
    with criterion(8, "emitted files well-formed, namespaces declared; S4S left to CI"):
        files = {n: write_canonical(d) for n, d in emit_wsdl(travel_agency_model())}
        for name, payload in files.items():
            parsed = parse_xml(payload)  # rejects undeclared prefixes outright
            assert parsed is not None
            (tmp_path / name).write_bytes(payload)

        xmllint = shutil.which("xmllint")
        if xmllint is None:
            print("ACCEPTANCE 8 NOTE: xmllint not on PATH here; "
                  "Schema-for-Schemas validation runs in CI (see README)")
            return
        xsd = tmp_path / "ws-semanticsecuritypolicy.xsd"
        instance = tmp_path / "instance.xml"
        instance.write_text(
            '<sp:NoPassword xmlns:sp="http://emi/ws-semanticsecuritypolicy.xsd"/>'
        )
        done = subprocess.run(
            [xmllint, "--noout", "--schema", str(xsd), str(instance)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr


def test_acceptance_wsdl_roundtrip_normal_forms():
    # Parsing the emitted corpus back must reproduce the attachment normal forms.
    model = travel_agency_model()
    files = {n: write_canonical(d) for n, d in emit_wsdl(model)}
    parsed = parse_wsdl(
        files["TravelAgency.wsdl"], [files["ws-semanticsecuritypolicy.xsd"]]
    )
    assert len(parsed.attachments) == len(model.attachments)
    by_subject = {(a.subject.kind, a.subject.path): a.policy for a in parsed.attachments}
    for attachment in model.attachments:
        key = (attachment.subject.kind, attachment.subject.path)
        assert normalize(by_subject[key]) == normalize(attachment.policy)
