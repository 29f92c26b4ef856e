"""The value classes: repr, equality, hashing, copying, pickling and
immutability, pinned field by field against the field lists they have always
had, on the parsed fixture model and on seeded random values."""
import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from wspolicy import (
    AssertionDecl,
    AssertionInstance,
    AttributeDecl,
    BindingDecl,
    Diagnostic,
    DomainSchema,
    Endpoint,
    ExternalNamespace,
    FaultDecl,
    InterfaceDecl,
    MessageRef,
    NormalForm,
    OperationDecl,
    ParsedArtifacts,
    PolicyAttachment,
    QName,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
    XmlDocument,
    emit_wsdl,
    normalize,
    parse_model,
    parse_wsdl,
    validate_model,
    write_canonical,
)

from corpus import travel_agency_bytes
from randgen import default_pool, rand_model, rand_normal_form

EXPECTED_REPR = Path(__file__).parent / "expected" / "travel_agency.model.repr"

# Every value class and its fields, in constructor and repr order.
FIELDS = {
    QName: ("namespace", "local"),
    AssertionInstance: ("qname", "parameters", "nested"),
    NormalForm: ("alternatives",),
    SemanticAnnotation: ("model_reference", "lowering_schema", "lifting_schema"),
    AttributeDecl: ("name", "simple_type", "annotation"),
    AssertionDecl: ("name", "type_kind", "simple_type", "attributes", "nestable_children",
                    "annotation"),
    DomainSchema: ("domain_name", "target_namespace", "prefix", "assertions"),
    MessageRef: ("name", "element_type"),
    FaultDecl: ("name", "element_type"),
    OperationDecl: ("name", "inputs", "outputs", "fault_refs"),
    InterfaceDecl: ("name", "operations", "faults"),
    BindingDecl: ("name", "interface_ref", "transport_protocol", "message_encoding"),
    Endpoint: ("name", "binding_ref", "address"),
    ServiceDecl: ("name", "interface_ref", "endpoints"),
    SubjectRef: ("kind", "path"),
    PolicyAttachment: ("subject", "policy"),
    ExternalNamespace: ("namespace", "prefix"),
    Diagnostic: ("severity", "code", "subject_path", "message"),
    ServiceModel: ("model_name", "target_namespace", "domains", "interfaces", "bindings",
                   "services", "attachments", "external_namespaces"),
    ParsedArtifacts: ("service_model", "domains", "attachments", "warnings"),
    XmlDocument: ("root", "namespaces"),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


def _walk(value):
    """``value`` and every value class instance in its fields, depth first."""
    if type(value) in FIELDS:
        yield value
        if not isinstance(value, XmlDocument):
            for field in _fields(value):
                yield from _walk(field)
    elif isinstance(value, tuple):
        for item in value:
            yield from _walk(item)


def _values(seed: int) -> list:
    """Values of every class, the same ones for the same seed."""
    rng = random.Random(seed)
    model = parse_model(travel_agency_bytes()) if seed % 3 == 0 else rand_model(rng)
    out = list(_walk(model))
    out += [normalize(attachment.policy) for attachment in model.attachments]
    out += _walk(rand_normal_form(rng, default_pool(4), max_nesting=2))
    out += validate_model(ServiceModel("1bad", "not a uri"))
    if not [d for d in validate_model(model) if d.severity == "error"]:
        files = dict(emit_wsdl(model))
        out += files.values()
        wsdl = next(doc for name, doc in files.items() if name.endswith(".wsdl"))
        schemas = [write_canonical(doc) for doc in files.values() if doc is not wsdl]
        out += _walk(parse_wsdl(write_canonical(wsdl), schemas))
    return out


@pytest.fixture(scope="module")
def pool() -> dict:
    """Values by class; each seed is built twice, so equal values that are
    distinct objects are common."""
    by_class: dict = {cls: [] for cls in FIELDS}
    for seed in [*range(12), *range(12)]:
        for value in _values(seed):
            by_class[type(value)].append(value)
    return by_class


def test_every_value_class_is_covered(pool):
    assert {cls for cls, values in pool.items() if not values} == set()


def test_fixture_model_repr_is_unchanged():
    model = parse_model(travel_agency_bytes())
    assert repr(model) == EXPECTED_REPR.read_text(encoding="utf-8")


def test_repr_lists_the_fields_in_order(pool):
    for cls, values in pool.items():
        for value in values[:40]:
            inner = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
            assert repr(value) == f"{cls.__name__}({inner})"


def test_equal_exactly_when_same_class_and_equal_fields(pool):
    rng = random.Random(4)
    everything = [value for values in pool.values() for value in values]
    equal_distinct = 0
    for cls, values in pool.items():
        for _ in range(300):
            a, b = rng.choice(values), rng.choice(values)
            same = _fields(a) == _fields(b)
            assert (a == b) is same and (a != b) is not same
            if same and cls is not XmlDocument:
                assert hash(a) == hash(b)
            equal_distinct += same and a is not b
    assert equal_distinct > 1000
    for _ in range(3000):
        a, b = rng.choice(everything), rng.choice(everything)
        if type(a) is not type(b):
            assert a != b and not a == b
    # Two classes with the same fields and the same field values differ.
    q = QName("urn:a", "x")
    assert MessageRef("m", q) != FaultDecl("m", q)


def _copies_equal(value, twin) -> bool:
    if isinstance(value, XmlDocument):
        # Elements compare by identity, so a copied document is compared by
        # what it writes.
        return (twin.namespaces, write_canonical(twin)) == (value.namespaces, write_canonical(value))
    return twin == value and hash(twin) == hash(value)


def test_copies_and_pickles_are_equal(pool):
    for values in pool.values():
        for value in values[:40]:
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value) and _copies_equal(value, twin)


def test_fields_cannot_be_set_or_deleted(pool):
    for cls, values in pool.items():
        value = values[0]
        before = repr(value)
        for name in FIELDS[cls] + ("other",):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert repr(value) == before
