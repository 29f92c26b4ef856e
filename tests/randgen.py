"""Seeded random generators for the property-style corpora.

These are deliberately plain random builders (not hypothesis strategies) so
the large acceptance corpora are fast, reproducible and exactly sized.
"""
from __future__ import annotations

import random

from wspolicy import (
    All,
    AssertionDecl,
    AssertionInstance,
    AssertionRef,
    AttributeDecl,
    BindingDecl,
    DomainSchema,
    Endpoint,
    ExactlyOne,
    ExternalNamespace,
    FaultDecl,
    InterfaceDecl,
    MessageRef,
    NormalForm,
    OperationDecl,
    Policy,
    PolicyAttachment,
    PolicyExpr,
    QName,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
)
from wspolicy.names import XS_NS

TEST_NS = "http://example.org/test-policy.xsd"

_PARAM_VALUES = ("fast", "slow", 1, 2, 2.5, True, False, "x y", "a&b<c>")


def default_pool(distinct: int = 6) -> list[QName]:
    return [QName(TEST_NS, f"A{i}") for i in range(distinct)]


def rand_policy_expr(
    rng: random.Random,
    max_depth: int = 4,
    pool: list[QName] | None = None,
    allow_optional: bool = True,
    max_refs: int = 12,
) -> PolicyExpr:
    """A random operator tree staying within the oracle's size limit."""
    qnames = pool if pool is not None else default_pool()
    budget = [max_refs]

    def ref(depth: int) -> PolicyExpr:
        if not qnames or budget[0] <= 0:
            return All()
        budget[0] -= 1
        parameters = ()
        if rng.random() < 0.25:
            parameters = (("level", rng.choice(_PARAM_VALUES)),)
        nested = None
        if depth < max_depth and budget[0] > 0 and rng.random() < 0.15:
            nested = Policy(node(max_depth - 1))
        return AssertionRef(
            rng.choice(qnames),
            optional=allow_optional and rng.random() < 0.3,
            parameters=parameters,
            nested=nested,
        )

    def node(depth: int) -> PolicyExpr:
        if depth >= max_depth or rng.random() < 0.45:
            return ref(depth)
        ctor = rng.choice((All, ExactlyOne, Policy))
        return ctor(*(node(depth + 1) for _ in range(rng.randint(0, 3))))

    return Policy(node(0))


def rand_normal_form(
    rng: random.Random,
    pool: list[QName] | None = None,
    allow_nested: bool = True,
    max_nesting: int = 1,
) -> NormalForm:
    qnames = pool if pool is not None else default_pool()

    def instance(depth: int) -> AssertionInstance:
        parameters = ()
        if rng.random() < 0.2:
            parameters = (("level", rng.choice(_PARAM_VALUES)),)
        nested = None
        if allow_nested and depth < max_nesting and rng.random() < 0.25:
            nested = form(depth + 1)
        return AssertionInstance(rng.choice(qnames), parameters, nested)

    def form(depth: int) -> NormalForm:
        alternatives = []
        for _ in range(rng.randint(0, 3)):
            alternatives.append([instance(depth) for _ in range(rng.randint(0, 3))])
        return NormalForm.of(alternatives)

    if not qnames:
        return NormalForm.of([[]])
    return form(0)


def _maybe_annotation(rng: random.Random, concept: str) -> SemanticAnnotation | None:
    if rng.random() < 0.3:
        return None
    lifting = f"http://example.org/lift/{concept}" if rng.random() < 0.3 else None
    lowering = f"http://example.org/lower/{concept}" if rng.random() < 0.3 else None
    return SemanticAnnotation(
        (f"http://example.org/onto#{concept}",), lowering_schema=lowering, lifting_schema=lifting
    )


def _rand_domain(rng: random.Random, index: int) -> DomainSchema:
    names = [f"Assert{index}x{i}" for i in range(rng.randint(1, 3))]
    assertions = []
    for i, name in enumerate(names):
        kind = rng.choice(("empty", "simple", "complex"))
        if kind == "empty":
            decl = AssertionDecl(name, "empty", annotation=_maybe_annotation(rng, name))
        elif kind == "simple":
            simple_type = rng.choice((None, QName(XS_NS, "string"), QName(XS_NS, "int")))
            decl = AssertionDecl(name, "simple", simple_type=simple_type,
                                 annotation=_maybe_annotation(rng, name))
        else:
            attributes = tuple(
                AttributeDecl(f"attr{j}", QName(XS_NS, "string"),
                              annotation=(
                                  SemanticAnnotation((f"http://example.org/onto#{name}.attr{j}",))
                                  if rng.random() < 0.4 else None
                              ))
                for j in range(rng.randint(0, 2))
            )
            nestable = tuple(sorted(rng.sample(names, k=rng.randint(0, len(names)))))
            if not attributes and not nestable:
                attributes = (AttributeDecl("attr0", QName(XS_NS, "string")),)
            decl = AssertionDecl(name, "complex", attributes=attributes,
                                 nestable_children=nestable,
                                 annotation=_maybe_annotation(rng, name))
        assertions.append(decl)
    return DomainSchema(
        domain_name=f"domain{index}",
        target_namespace=f"http://example.org/domain{index}.xsd",
        prefix=f"d{index}",
        assertions=tuple(assertions),
    )


def rand_model(rng: random.Random, require_satisfiable_policies: bool = False) -> ServiceModel:
    """A random service model.  validate_model finds no errors in it, except
    one policy-unsatisfiable per attachment without alternatives, which
    ``require_satisfiable_policies`` leaves out."""
    from wspolicy import normalize

    ext = ExternalNamespace("http://example.org/types.xsd", "t")
    domains = tuple(_rand_domain(rng, i) for i in range(rng.randint(0, 2)))

    interfaces = []
    for i in range(rng.randint(1, 2)):
        faults = tuple(
            FaultDecl(
                f"fault{i}x{j}",
                QName(ext.namespace, f"Fault{i}x{j}") if rng.random() < 0.7 else None,
            )
            for j in range(rng.randint(0, 1))
        )
        operations = []
        for j in range(rng.randint(0, 2)):
            inputs = tuple(
                MessageRef(f"in{k}", QName(ext.namespace, f"In{i}x{j}x{k}"))
                for k in range(rng.randint(0, 2))
            )
            outputs = tuple(
                MessageRef(f"out{k}", QName(ext.namespace, f"Out{i}x{j}x{k}"))
                for k in range(rng.randint(0, 2))
            )
            fault_refs = tuple(f.name for f in faults if rng.random() < 0.5)
            operations.append(OperationDecl(f"op{i}x{j}", inputs, outputs, fault_refs))
        interfaces.append(InterfaceDecl(f"Interface{i}", tuple(operations), faults))

    bindings = []
    for i, iface in enumerate(interfaces):
        bindings.append(
            BindingDecl(
                f"Binding{i}",
                iface.name,
                "http://www.w3.org/ns/wsdl/soap",
                "application/soap+xml",
            )
        )

    services = []
    for i in range(rng.randint(0, 2)):
        binding = rng.choice(bindings)
        endpoints = tuple(
            Endpoint(f"Endpoint{i}x{j}", binding.name, f"http://example.org/svc{i}/{j}")
            for j in range(rng.randint(1, 2))
        )
        services.append(ServiceDecl(f"Service{i}", binding.interface_ref, endpoints))

    subjects: list[SubjectRef] = [SubjectRef("interface", (i.name,)) for i in interfaces]
    subjects += [SubjectRef("binding", (b.name,)) for b in bindings]
    for service in services:
        subjects.append(SubjectRef("service", (service.name,)))
        subjects += [SubjectRef("endpoint", (service.name, e.name)) for e in service.endpoints]
    for iface in interfaces:
        subjects += [SubjectRef("operation", (iface.name, o.name)) for o in iface.operations]

    pool = [QName(d.target_namespace, a.name) for d in domains for a in d.assertions]
    attachments = []
    if pool:
        rng.shuffle(subjects)
        for subject in subjects[: rng.randint(0, min(3, len(subjects)))]:
            policy = rand_policy_expr(rng, max_depth=3, pool=pool, max_refs=6)
            if require_satisfiable_policies:
                for _ in range(20):
                    if normalize(policy).satisfiable:
                        break
                    policy = rand_policy_expr(rng, max_depth=3, pool=pool, max_refs=6)
                else:
                    continue
            attachments.append(PolicyAttachment(subject, policy))

    return ServiceModel(
        model_name=f"Model{rng.randint(0, 999)}",
        target_namespace="http://example.org/model.wsdl20",
        domains=domains,
        interfaces=tuple(interfaces),
        bindings=tuple(bindings),
        services=tuple(services),
        attachments=tuple(attachments),
        external_namespaces=(ext,),
    )
