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
    iter_refs,
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
    MEP_IN_ONLY,
    MEP_IN_OUT,
    MEP_OUT_ONLY,
    QName,
    SAWSDL_NS,
    WSDL_NS,
    WSP_NS,
    XS_NS,
)
from .xmltree import XmlDocument, XmlElement

DOMAIN_NAME_APPINFO = "urn:x-wspolicy:domain-name"
NESTABLE_APPINFO = "urn:x-wspolicy:nestable-assertions"
XSD_FILE_NAME = "ws-semantic{domain}policy.xsd"

_BUILTIN_PREFIXES = {WSDL_NS: "wsdl", XS_NS: "xs", WSP_NS: "wsp", SAWSDL_NS: "sawsdl"}

# Every fixed element and attribute name, built once: one model's emission
# writes them tens of thousands of times.  Parameter names are the model's own
# data and are built per call.
_XS_ANNOTATION = QName(XS_NS, "annotation")
_XS_ANY = QName(XS_NS, "any")
_XS_APPINFO = QName(XS_NS, "appinfo")
_XS_ATTRIBUTE = QName(XS_NS, "attribute")
_XS_COMPLEX_TYPE = QName(XS_NS, "complexType")
_XS_ELEMENT = QName(XS_NS, "element")
_XS_IMPORT = QName(XS_NS, "import")
_XS_SCHEMA = QName(XS_NS, "schema")
_XS_SEQUENCE = QName(XS_NS, "sequence")

_WSDL_BINDING = QName(WSDL_NS, "binding")
_WSDL_DESCRIPTION = QName(WSDL_NS, "description")
_WSDL_ENDPOINT = QName(WSDL_NS, "endpoint")
_WSDL_FAULT = QName(WSDL_NS, "fault")
_WSDL_INPUT = QName(WSDL_NS, "input")
_WSDL_INTERFACE = QName(WSDL_NS, "interface")
_WSDL_OPERATION = QName(WSDL_NS, "operation")
_WSDL_OUTFAULT = QName(WSDL_NS, "outfault")
_WSDL_OUTPUT = QName(WSDL_NS, "output")
_WSDL_SERVICE = QName(WSDL_NS, "service")
_WSDL_TYPES = QName(WSDL_NS, "types")

_WSP_OPTIONAL = QName(WSP_NS, "Optional")
_WSP_OPERATORS = {
    Policy: QName(WSP_NS, "Policy"),
    All: QName(WSP_NS, "All"),
    ExactlyOne: QName(WSP_NS, "ExactlyOne"),
}

_SAWSDL_MODEL_REFERENCE = QName(SAWSDL_NS, "modelReference")
_SAWSDL_LIFTING = QName(SAWSDL_NS, "liftingSchemaMapping")
_SAWSDL_LOWERING = QName(SAWSDL_NS, "loweringSchemaMapping")

_ATTR_ADDRESS = QName("", "address")
_ATTR_BINDING = QName("", "binding")
_ATTR_ELEMENT = QName("", "element")
_ATTR_ELEMENT_FORM_DEFAULT = QName("", "elementFormDefault")
_ATTR_INTERFACE = QName("", "interface")
_ATTR_MESSAGE_LABEL = QName("", "messageLabel")
_ATTR_MIN_OCCURS = QName("", "minOccurs")
_ATTR_NAME = QName("", "name")
_ATTR_NAMESPACE = QName("", "namespace")
_ATTR_PATTERN = QName("", "pattern")
_ATTR_PROCESS_CONTENTS = QName("", "processContents")
_ATTR_REF = QName("", "ref")
_ATTR_SCHEMA_LOCATION = QName("", "schemaLocation")
_ATTR_SOURCE = QName("", "source")
_ATTR_TARGET_NAMESPACE = QName("", "targetNamespace")
_ATTR_TYPE = QName("", "type")


def _xsd_file_name(domain: DomainSchema) -> str:
    return XSD_FILE_NAME.format(domain=domain.domain_name)


def _assign_prefixes(
    uris: Iterable[str], preferred: Mapping[str, str]
) -> dict[str, str]:
    """Deterministic prefix -> URI table covering every given namespace."""
    table: dict[str, str] = {}
    taken: set[str] = set()
    for uri in sorted(set(uris)):
        want = preferred.get(uri) or "ns"
        candidate = want
        counter = 0
        while candidate in taken:
            counter += 1
            candidate = f"{want}{counter}"
        table[candidate] = uri
        taken.add(candidate)
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
    appinfo = XmlElement(_XS_APPINFO, [(_ATTR_SOURCE, source)], [text])
    return XmlElement(_XS_ANNOTATION, (), [appinfo])


def _sawsdl_attrs(decl) -> list[tuple[QName, str]]:
    annotation = decl.annotation
    if annotation is None:
        return []
    attrs = [(_SAWSDL_MODEL_REFERENCE, " ".join(annotation.model_reference))]
    if annotation.lifting_schema is not None:
        attrs.append((_SAWSDL_LIFTING, annotation.lifting_schema))
    if annotation.lowering_schema is not None:
        attrs.append((_SAWSDL_LOWERING, annotation.lowering_schema))
    return attrs


def _assertion_element(decl: AssertionDecl, qname_str) -> XmlElement:
    attrs: list[tuple[QName, str]] = [(_ATTR_NAME, decl.name)]
    attrs.extend(_sawsdl_attrs(decl))
    children: list[XmlElement] = []
    if decl.type_kind == "simple":
        attrs.append((_ATTR_TYPE, qname_str(decl.simple_type)))
    elif decl.type_kind == "empty":
        children.append(XmlElement(_XS_COMPLEX_TYPE))
    else:
        if decl.nestable_children:
            children.append(_appinfo(NESTABLE_APPINFO, " ".join(decl.nestable_children)))
        content: list[XmlElement] = []
        if decl.nestable_children:
            wildcard = XmlElement(
                _XS_ANY,
                [
                    (_ATTR_MIN_OCCURS, "0"),
                    (_ATTR_NAMESPACE, "##other"),
                    (_ATTR_PROCESS_CONTENTS, "lax"),
                ],
            )
            content.append(XmlElement(_XS_SEQUENCE, (), [wildcard]))
        for attr_decl in decl.attributes:
            xs_attr = XmlElement(
                _XS_ATTRIBUTE,
                [
                    (_ATTR_NAME, attr_decl.name),
                    (_ATTR_TYPE, qname_str(attr_decl.simple_type)),
                ]
                + _sawsdl_attrs(attr_decl),
            )
            content.append(xs_attr)
        children.append(XmlElement(_XS_COMPLEX_TYPE, (), content))
    return XmlElement(_XS_ELEMENT, attrs, children)


def emit_domain_xsd(domain: DomainSchema) -> XmlDocument:
    """One xs:schema per domain: a top-level element per assertion, each
    carrying its SAWSDL annotation attributes."""
    problems = [d for d in validate_domain(domain) if d.severity == "error"]
    if problems:
        raise GenerationError(
            f"domain {domain.domain_name!r} failed validation: {problems[0]}"
        )
    return _domain_xsd(domain)


def _domain_xsd(domain: DomainSchema) -> XmlDocument:
    used = {XS_NS, SAWSDL_NS, domain.target_namespace}
    for decl in domain.assertions:
        if decl.simple_type is not None:
            used.add(decl.simple_type.namespace)
        for attr_decl in decl.attributes:
            used.add(attr_decl.simple_type.namespace)
    used.discard("")
    preferred = dict(_BUILTIN_PREFIXES)
    preferred[domain.target_namespace] = domain.prefix
    namespaces = _assign_prefixes(used, preferred)
    uri_to_prefix = {uri: prefix for prefix, uri in namespaces.items()}

    def qname_str(qname: QName) -> str:
        if not qname.namespace:
            return qname.local
        return f"{uri_to_prefix[qname.namespace]}:{qname.local}"

    children: list[XmlElement] = [_appinfo(DOMAIN_NAME_APPINFO, domain.domain_name)]
    for decl in domain.assertions:
        children.append(_assertion_element(decl, qname_str))
    root = XmlElement(
        _XS_SCHEMA,
        [
            (_ATTR_ELEMENT_FORM_DEFAULT, "qualified"),
            (_ATTR_TARGET_NAMESPACE, domain.target_namespace),
        ],
        children,
    )
    return XmlDocument(root, namespaces)


def emit_policy_element(expr: PolicyExpr) -> XmlElement:
    """The wsp:Policy fragment for a policy tree, emitted verbatim.

    Operators map to wsp:Policy / wsp:All / wsp:ExactlyOne, references map to
    elements in their own namespace with parameters as attributes; optional
    flags become wsp:Optional="true" rather than being pre-expanded.
    """
    if not satisfiable(expr):
        raise GenerationError("refusing to emit an unsatisfiable policy (no alternatives)")
    return _policy_root(expr)


def _policy_root(expr: PolicyExpr) -> XmlElement:
    return _policy_node(expr if isinstance(expr, Policy) else Policy(expr))


def _policy_node(expr: PolicyExpr) -> XmlElement:
    if isinstance(expr, AssertionRef):
        attrs: list[tuple[QName, str]] = [
            (QName("", name), lexical_value(value)) for name, value in expr.parameters
        ]
        if expr.optional:
            attrs.append((_WSP_OPTIONAL, "true"))
        children = []
        if expr.nested is not None:
            children.append(_policy_root(expr.nested))
        return XmlElement(expr.qname, attrs, children)
    return XmlElement(
        _WSP_OPERATORS[type(expr)], (), [_policy_node(child) for child in expr.children]
    )


def policy_document(
    expr: PolicyExpr, prefix_hints: Optional[Mapping[str, str]] = None
) -> XmlDocument:
    """A standalone document wrapping emit_policy_element's fragment."""
    preferred = dict(_BUILTIN_PREFIXES)
    if prefix_hints:
        preferred.update(prefix_hints)
    root = emit_policy_element(expr)
    used = {WSP_NS}.union(ref.qname.namespace for ref in iter_refs(expr))
    used.discard("")
    return XmlDocument(root, _assign_prefixes(used, preferred))


def _mep_for(op) -> str:
    if op.inputs and not op.outputs:
        return MEP_IN_ONLY
    if op.outputs and not op.inputs:
        return MEP_OUT_ONLY
    return MEP_IN_OUT


def emit_wsdl(model: ServiceModel) -> list[tuple[str, XmlDocument]]:
    """The full file set for a model: one WSDL document plus one XSD per domain.

    The WSDL imports exactly the domains whose assertions appear in attached
    policies; each attachment is embedded as the first wsp:Policy child of its
    subject element.  validate_model is the one check: a model it passes is
    emitted without checking again, and one it fails raises GenerationError
    carrying its error diagnostics.
    """
    problems = [d for d in validate_model(model) if d.severity == "error"]
    if problems:
        raise GenerationError(f"model failed validation: {problems[0]}", tuple(problems))

    used_namespaces = {
        ref.qname.namespace for a in model.attachments for ref in iter_refs(a.policy)
    }
    used_namespaces.discard(WSP_NS)

    imported = [d for d in model.domains if d.target_namespace in used_namespaces]

    declared = {WSDL_NS, XS_NS, SAWSDL_NS, WSP_NS, model.target_namespace}
    declared.update(d.target_namespace for d in imported)
    for iface in model.interfaces:
        for fault in iface.faults:
            if fault.element_type is not None and fault.element_type.namespace:
                declared.add(fault.element_type.namespace)
        for op in iface.operations:
            for ref in op.inputs + op.outputs:
                if ref.element_type.namespace:
                    declared.add(ref.element_type.namespace)

    namespaces = _assign_prefixes(declared, _preferred_prefixes(model))
    uri_to_prefix = {uri: prefix for prefix, uri in namespaces.items()}

    def qname_str(qname: QName) -> str:
        if not qname.namespace:
            return qname.local
        return f"{uri_to_prefix[qname.namespace]}:{qname.local}"

    attached: dict[tuple[str, tuple[str, ...]], PolicyExpr] = {
        (a.subject.kind, a.subject.path): a.policy for a in model.attachments
    }

    def policy_child(kind: str, *path: str) -> list[XmlElement]:
        policy = attached.get((kind, tuple(path)))
        return [_policy_root(policy)] if policy is not None else []

    children: list[XmlElement] = []
    if imported:
        imports = [
            XmlElement(
                _XS_IMPORT,
                [
                    (_ATTR_NAMESPACE, d.target_namespace),
                    (_ATTR_SCHEMA_LOCATION, _xsd_file_name(d)),
                ],
            )
            for d in imported
        ]
        children.append(XmlElement(_WSDL_TYPES, (), imports))

    for iface in model.interfaces:
        iface_children = policy_child("interface", iface.name)
        for fault in iface.faults:
            attrs = [(_ATTR_NAME, fault.name)]
            if fault.element_type is not None:
                attrs.append((_ATTR_ELEMENT, qname_str(fault.element_type)))
            iface_children.append(XmlElement(_WSDL_FAULT, attrs))
        for op in iface.operations:
            op_children = policy_child("operation", iface.name, op.name)
            for role, refs in ((_WSDL_INPUT, op.inputs), (_WSDL_OUTPUT, op.outputs)):
                for ref in refs:
                    op_children.append(
                        XmlElement(
                            role,
                            [
                                (_ATTR_ELEMENT, qname_str(ref.element_type)),
                                (_ATTR_MESSAGE_LABEL, ref.name),
                            ],
                        )
                    )
            for fault_ref in op.fault_refs:
                op_children.append(XmlElement(_WSDL_OUTFAULT, [(_ATTR_REF, fault_ref)]))
            iface_children.append(
                XmlElement(
                    _WSDL_OPERATION,
                    [(_ATTR_NAME, op.name), (_ATTR_PATTERN, _mep_for(op))],
                    op_children,
                )
            )
        children.append(XmlElement(_WSDL_INTERFACE, [(_ATTR_NAME, iface.name)], iface_children))

    for binding in model.bindings:
        children.append(
            XmlElement(
                _WSDL_BINDING,
                [
                    (_ATTR_INTERFACE, binding.interface_ref),
                    (_ATTR_NAME, binding.name),
                    (_ATTR_TYPE, binding.transport_protocol),
                ],
                policy_child("binding", binding.name),
            )
        )

    for service in model.services:
        service_children = policy_child("service", service.name)
        for ep in service.endpoints:
            service_children.append(
                XmlElement(
                    _WSDL_ENDPOINT,
                    [
                        (_ATTR_ADDRESS, ep.address),
                        (_ATTR_BINDING, ep.binding_ref),
                        (_ATTR_NAME, ep.name),
                    ],
                    policy_child("endpoint", service.name, ep.name),
                )
            )
        children.append(
            XmlElement(
                _WSDL_SERVICE,
                [(_ATTR_INTERFACE, service.interface_ref), (_ATTR_NAME, service.name)],
                service_children,
            )
        )

    root = XmlElement(
        _WSDL_DESCRIPTION,
        [(_ATTR_TARGET_NAMESPACE, model.target_namespace)],
        children,
    )
    files: list[tuple[str, XmlDocument]] = [
        (f"{model.model_name}.wsdl", XmlDocument(root, namespaces))
    ]
    for domain in model.domains:
        files.append((_xsd_file_name(domain), _domain_xsd(domain)))
    return files
