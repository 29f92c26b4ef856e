"""Transformation rules: service models to WSDL 2.0 documents with embedded
policies, and non-functional domains to SAWSDL-annotated XSD files.

All emission is deterministic.  Two pieces of tool metadata ride along in
standard xs:appinfo slots so emitted schemas parse back losslessly: the domain
name and, per complex assertion, the list of assertions admissible inside its
nested policy (the lax wildcard slot cannot express that list).
"""
from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .algebra import (
    All,
    AssertionRef,
    ExactlyOne,
    Policy,
    PolicyExpr,
    lexical_value,
    normalize,  # unused here; benchmarks/spans.py wraps emit.normalize
    satisfiable,
)
from .errors import GenerationError
from .model import (
    AssertionDecl,
    DomainSchema,
    ServiceModel,
    validate_domain,
    validate_model,
)
from .names import (
    ATTR_ADDRESS, ATTR_BINDING, ATTR_ELEMENT, ATTR_ELEMENT_FORM_DEFAULT, ATTR_INTERFACE,
    ATTR_MESSAGE_LABEL, ATTR_MIN_OCCURS, ATTR_NAME, ATTR_NAMESPACE, ATTR_PATTERN,
    ATTR_PROCESS_CONTENTS, ATTR_REF, ATTR_SCHEMA_LOCATION, ATTR_SOURCE, ATTR_TARGET_NAMESPACE,
    ATTR_TYPE, DOMAIN_NAME_APPINFO, MEP_IN_ONLY, MEP_IN_OUT, MEP_OUT_ONLY, NESTABLE_APPINFO,
    QName, SAWSDL_LIFTING, SAWSDL_LOWERING, SAWSDL_MODEL_REFERENCE, SAWSDL_NS, WSDL_BINDING,
    WSDL_DESCRIPTION, WSDL_ENDPOINT, WSDL_FAULT, WSDL_INPUT, WSDL_INTERFACE, WSDL_NS,
    WSDL_OPERATION, WSDL_OUTFAULT, WSDL_OUTPUT, WSDL_SERVICE, WSDL_TYPES, WSP_ALL,
    WSP_EXACTLY_ONE, WSP_NS, WSP_OPTIONAL, WSP_POLICY, XML_NS, XMLNS_NS, XS_ANNOTATION, XS_ANY,
    XS_APPINFO, XS_ATTRIBUTE, XS_COMPLEX_TYPE, XS_ELEMENT, XS_IMPORT, XS_NS, XS_SCHEMA,
    XS_SEQUENCE, is_ncname, nogc,
)
from .xmltree import XmlElement

XSD_FILE_NAME = "ws-semantic{domain}policy.xsd"

_BUILTIN_PREFIXES = {WSDL_NS: "wsdl", XS_NS: "xs", WSP_NS: "wsp", SAWSDL_NS: "sawsdl"}

_WSP_OPERATORS = {Policy: WSP_POLICY, All: WSP_ALL, ExactlyOne: WSP_EXACTLY_ONE}


def _xsd_file_name(domain: DomainSchema) -> str:
    return XSD_FILE_NAME.format(domain=domain.domain_name)


def _assign_prefixes(uris: Iterable[str], preferred: Mapping[str, str]) -> dict[str, str]:
    """Deterministic prefix -> URI table covering every given namespace but the
    empty one; the writer spells names and QName values under it.  The XML
    namespace gets ``xml``; no other gets ``xml`` or ``xmlns``, even if it
    prefers it.  The xmlns namespace may have no prefix at all, so it is
    refused.  A preferred prefix that is not an NCName falls back to ``ns``
    like those two."""
    uris = set(uris)
    if XMLNS_NS in uris:
        raise GenerationError(f"{XMLNS_NS} is reserved for namespace declarations; "
                              "no prefix may be bound to it")
    table: dict[str, str] = {"xml": XML_NS} if XML_NS in uris else {}
    for uri in sorted(uris - {XML_NS, ""}):
        want = preferred.get(uri)
        if want in ("xml", "xmlns") or not is_ncname(want or ""):
            want = "ns"
        candidate = want
        counter = 0
        while candidate in table:
            counter += 1
            candidate = f"{want}{counter}"
        table[candidate] = uri
    return table


def _preferred_prefixes(model: ServiceModel) -> dict[str, str]:
    preferred = dict(_BUILTIN_PREFIXES)
    preferred[model.target_namespace] = "tns"
    for domain in model.domains:
        preferred.setdefault(domain.target_namespace, domain.prefix)
    for i, ext in enumerate(model.external_namespaces):
        preferred.setdefault(ext.namespace, ext.prefix or f"ns{i}")
    return preferred


def _appinfo(source: str, text: str) -> XmlElement:
    appinfo = XmlElement(XS_APPINFO, [(ATTR_SOURCE, source)], text=text)
    return XmlElement(XS_ANNOTATION, (), [appinfo])


def _sawsdl_attrs(decl) -> list[tuple[QName, str]]:
    annotation = decl.annotation
    if annotation is None:
        return []
    attrs = [(SAWSDL_MODEL_REFERENCE, " ".join(annotation.model_reference))]
    if annotation.lifting_schema is not None:
        attrs.append((SAWSDL_LIFTING, annotation.lifting_schema))
    if annotation.lowering_schema is not None:
        attrs.append((SAWSDL_LOWERING, annotation.lowering_schema))
    return attrs


def _assertion_element(decl: AssertionDecl, used: set[str]) -> XmlElement:
    """The xs:element for an assertion; adds each type's namespace to ``used``."""
    attrs: list[tuple[QName, str | QName]] = [(ATTR_NAME, decl.name)]
    attrs.extend(_sawsdl_attrs(decl))
    children: list[XmlElement] = []
    if decl.type_kind == "simple":
        used.add(decl.simple_type.namespace)
        attrs.append((ATTR_TYPE, decl.simple_type))
    elif decl.type_kind == "empty":
        children.append(XmlElement(XS_COMPLEX_TYPE))
    else:
        if decl.nestable_children:
            children.append(_appinfo(NESTABLE_APPINFO, " ".join(decl.nestable_children)))
        content: list[XmlElement] = []
        if decl.nestable_children:
            wildcard = XmlElement(
                XS_ANY,
                [
                    (ATTR_MIN_OCCURS, "0"),
                    (ATTR_NAMESPACE, "##other"),
                    (ATTR_PROCESS_CONTENTS, "lax"),
                ],
            )
            content.append(XmlElement(XS_SEQUENCE, (), [wildcard]))
        for attr_decl in decl.attributes:
            used.add(attr_decl.simple_type.namespace)
            xs_attr = XmlElement(
                XS_ATTRIBUTE,
                [(ATTR_NAME, attr_decl.name), (ATTR_TYPE, attr_decl.simple_type)]
                + _sawsdl_attrs(attr_decl),
            )
            content.append(xs_attr)
        children.append(XmlElement(XS_COMPLEX_TYPE, (), content))
    return XmlElement(XS_ELEMENT, attrs, children)


def emit_domain_xsd(domain: DomainSchema) -> XmlElement:
    """One xs:schema root per domain, its prefix table as ``nsmap``: a top-level
    element per assertion, each carrying its SAWSDL annotation attributes."""
    problems = [d for d in validate_domain(domain) if d.severity == "error"]
    if problems:
        raise GenerationError(
            f"domain {domain.domain_name!r} failed validation: {problems[0]}"
        )
    return _domain_xsd(domain)


def _domain_xsd(domain: DomainSchema) -> XmlElement:
    used = {XS_NS, SAWSDL_NS, domain.target_namespace}
    children = [_appinfo(DOMAIN_NAME_APPINFO, domain.domain_name)]
    children.extend(_assertion_element(decl, used) for decl in domain.assertions)
    preferred = dict(_BUILTIN_PREFIXES)
    preferred[domain.target_namespace] = domain.prefix
    return XmlElement(
        XS_SCHEMA,
        [
            (ATTR_ELEMENT_FORM_DEFAULT, "qualified"),
            (ATTR_TARGET_NAMESPACE, domain.target_namespace),
        ],
        children,
        nsmap=_assign_prefixes(used, preferred),
    )


def emit_policy_element(expr: PolicyExpr) -> XmlElement:
    """The wsp:Policy fragment for a policy tree, emitted verbatim; its ``nsmap`` is empty.

    Operators map to wsp:Policy / wsp:All / wsp:ExactlyOne, references map to
    elements in their own namespace with parameters as attributes; optional
    flags become wsp:Optional="true" rather than being pre-expanded.
    """
    return _satisfiable_root(expr, set())


def _satisfiable_root(expr: PolicyExpr, used: set[str]) -> XmlElement:
    """_policy_root into an empty ``used``, refusing an assertion in the
    WS-Policy namespace, which would read back as a policy operator."""
    if not satisfiable(expr):
        raise GenerationError("refusing to emit an unsatisfiable policy (no alternatives)")
    root = _policy_root(expr, used)
    if WSP_NS in used:
        raise GenerationError(f"refusing to emit an assertion in the WS-Policy namespace {WSP_NS}; "
                              "it would read back as a policy operator")
    return root


def _policy_root(expr: PolicyExpr, used: set[str]) -> XmlElement:
    """The wsp:Policy element; adds each assertion's namespace to ``used``."""
    return _policy_node(expr if isinstance(expr, Policy) else Policy(expr), used)


def _policy_node(expr: PolicyExpr, used: set[str]) -> XmlElement:
    if isinstance(expr, AssertionRef):
        used.add(expr.qname.namespace)
        attrs: list[tuple[QName, str]] = [
            (QName("", name), lexical_value(value)) for name, value in expr.parameters
        ]
        if expr.optional:
            attrs.append((WSP_OPTIONAL, "true"))
        nested = () if expr.nested is None else (_policy_root(expr.nested, used),)
        return XmlElement(expr.qname, attrs, nested)
    return XmlElement(
        _WSP_OPERATORS[type(expr)], (), [_policy_node(child, used) for child in expr.children]
    )


def policy_document(
    expr: PolicyExpr, prefix_hints: Optional[Mapping[str, str]] = None
) -> XmlElement:
    """emit_policy_element's fragment as a root, its prefix table as ``nsmap``."""
    preferred = dict(_BUILTIN_PREFIXES)
    if prefix_hints:
        preferred.update(prefix_hints)
    used: set[str] = set()
    children = _satisfiable_root(expr, used).children
    return XmlElement(WSP_POLICY, (), children, nsmap=_assign_prefixes(used | {WSP_NS}, preferred))


def _mep_for(op) -> str:
    if op.inputs and not op.outputs:
        return MEP_IN_ONLY
    if op.outputs and not op.inputs:
        return MEP_OUT_ONLY
    return MEP_IN_OUT


@nogc
def emit_wsdl(model: ServiceModel) -> list[tuple[str, XmlElement]]:
    """The full file set for a model: one WSDL root plus one XSD root per
    domain, each with its prefix table as ``nsmap``.

    The WSDL imports exactly the domains whose assertions appear in attached
    policies; each attachment is embedded as the first wsp:Policy child of its
    subject element.  validate_model is the one check: a model it passes is
    emitted without checking again, and one it fails raises GenerationError
    carrying its error diagnostics.  The cyclic garbage collector is paused
    while it runs (see ``names.nogc``).
    """
    problems = [d for d in validate_model(model) if d.severity == "error"]
    if problems:
        raise GenerationError(f"model failed validation: {problems[0]}", tuple(problems))

    used: set[str] = set()
    attached = {
        (a.subject.kind, a.subject.path): _policy_root(a.policy, used) for a in model.attachments
    }
    imported = [d for d in model.domains if d.target_namespace in used]
    used.update((WSDL_NS, XS_NS, SAWSDL_NS, WSP_NS, model.target_namespace))

    def policy_child(kind: str, *path: str) -> list[XmlElement]:
        element = attached.get((kind, tuple(path)))
        return [element] if element is not None else []

    children: list[XmlElement] = []
    if imported:
        imports = [
            XmlElement(
                XS_IMPORT,
                [
                    (ATTR_NAMESPACE, d.target_namespace),
                    (ATTR_SCHEMA_LOCATION, _xsd_file_name(d)),
                ],
            )
            for d in imported
        ]
        children.append(XmlElement(WSDL_TYPES, (), imports))

    for iface in model.interfaces:
        iface_children = policy_child("interface", iface.name)
        for fault in iface.faults:
            attrs = [(ATTR_NAME, fault.name)]
            if fault.element_type is not None:
                used.add(fault.element_type.namespace)
                attrs.append((ATTR_ELEMENT, fault.element_type))
            iface_children.append(XmlElement(WSDL_FAULT, attrs))
        for op in iface.operations:
            op_children = policy_child("operation", iface.name, op.name)
            for role, refs in ((WSDL_INPUT, op.inputs), (WSDL_OUTPUT, op.outputs)):
                for ref in refs:
                    used.add(ref.element_type.namespace)
                    op_children.append(
                        XmlElement(
                            role, [(ATTR_ELEMENT, ref.element_type), (ATTR_MESSAGE_LABEL, ref.name)]
                        )
                    )
            for fault_ref in op.fault_refs:
                op_children.append(XmlElement(WSDL_OUTFAULT, [(ATTR_REF, fault_ref)]))
            iface_children.append(
                XmlElement(
                    WSDL_OPERATION,
                    [(ATTR_NAME, op.name), (ATTR_PATTERN, _mep_for(op))],
                    op_children,
                )
            )
        children.append(XmlElement(WSDL_INTERFACE, [(ATTR_NAME, iface.name)], iface_children))

    for binding in model.bindings:
        children.append(
            XmlElement(
                WSDL_BINDING,
                [
                    (ATTR_INTERFACE, binding.interface_ref),
                    (ATTR_NAME, binding.name),
                    (ATTR_TYPE, binding.transport_protocol),
                ],
                policy_child("binding", binding.name),
            )
        )

    for service in model.services:
        service_children = policy_child("service", service.name)
        for ep in service.endpoints:
            service_children.append(
                XmlElement(
                    WSDL_ENDPOINT,
                    [
                        (ATTR_ADDRESS, ep.address),
                        (ATTR_BINDING, ep.binding_ref),
                        (ATTR_NAME, ep.name),
                    ],
                    policy_child("endpoint", service.name, ep.name),
                )
            )
        children.append(
            XmlElement(
                WSDL_SERVICE,
                [(ATTR_INTERFACE, service.interface_ref), (ATTR_NAME, service.name)],
                service_children,
            )
        )

    root = XmlElement(
        WSDL_DESCRIPTION,
        [(ATTR_TARGET_NAMESPACE, model.target_namespace)],
        children,
        nsmap=_assign_prefixes(used, _preferred_prefixes(model)),
    )
    return [(f"{model.model_name}.wsdl", root)] + [
        (_xsd_file_name(domain), _domain_xsd(domain)) for domain in model.domains
    ]
