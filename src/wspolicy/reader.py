"""Parsing emitted WSDL, domain XSD and policy XML back into model types.

The reader targets the dialect this package emits, plus wsp:Optional.  WSDL
extension content it does not understand is skipped with a warning; policy
fragments are parsed strictly, since silently dropping policy content would
corrupt matching.
"""
from __future__ import annotations

from .algebra import MAX_POLICY_DEPTH, All, AssertionRef, ExactlyOne, Policy, PolicyExpr, iter_refs
from .errors import PolicyXmlError, XmlParseError
from .model import (
    AssertionDecl,
    AttributeDecl,
    BindingDecl,
    Diagnostic,
    DomainSchema,
    Endpoint,
    FaultDecl,
    InterfaceDecl,
    MessageRef,
    OperationDecl,
    PolicyAttachment,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
)
from .names import (
    ATTR_ADDRESS, ATTR_BINDING, ATTR_ELEMENT, ATTR_INTERFACE, ATTR_MESSAGE_LABEL, ATTR_NAME,
    ATTR_NAMESPACE, ATTR_REF, ATTR_SOURCE, ATTR_TARGET_NAMESPACE, ATTR_TYPE, DOMAIN_NAME_APPINFO,
    NESTABLE_APPINFO, QName, SAWSDL_LIFTING, SAWSDL_LOWERING, SAWSDL_MODEL_REFERENCE, UNTYPED,
    WSDL_BINDING, WSDL_DESCRIPTION, WSDL_ENDPOINT, WSDL_FAULT, WSDL_FAULT_REFS, WSDL_INTERFACE,
    WSDL_MESSAGES, WSDL_OPERATION, WSDL_SERVICE, WSDL_TYPES, WSP_ALL, WSP_EXACTLY_ONE, WSP_NS,
    WSP_OPTIONAL, WSP_POLICY, Value, XS_ANNOTATION, XS_APPINFO, XS_ATTRIBUTE, XS_COMPLEX_TYPE,
    XS_ELEMENT, XS_IMPORT, XS_SCHEMA, XS_SEQUENCE, XS_STRING, is_ncname,
)
from .xmltree import XmlElement, parse_xml

_OPERATORS = {WSP_POLICY: Policy, WSP_ALL: All, WSP_EXACTLY_ONE: ExactlyOne}
_set = object.__setattr__


class ParsedArtifacts(Value):
    """What came back out of a WSDL file and its companion schemas."""

    __slots__ = ("service_model", "domains", "attachments", "warnings")

    def __init__(self, service_model: ServiceModel, domains: tuple[DomainSchema, ...],
                 attachments: tuple[PolicyAttachment, ...], warnings: tuple[Diagnostic, ...]):
        _set(self, "service_model", service_model)
        _set(self, "domains", domains)
        _set(self, "attachments", attachments)
        _set(self, "warnings", warnings)


def _resolve_qname(value: str, nsmap: dict[str, str]) -> QName:
    value = value.strip()
    if ":" in value:
        prefix, local = value.split(":", 1)
        uri = nsmap.get(prefix)
        if uri is None:
            raise XmlParseError(f"undeclared prefix {prefix!r} in QName {value!r}")
        return QName(uri, local)
    return QName(nsmap.get("", ""), value)


def _local_ref(value: str) -> str:
    # Reference attributes are emitted as bare local names; tolerate prefixes.
    return value.split(":", 1)[1] if ":" in value else value


def _root(source) -> XmlElement:
    """The root element of XML bytes, or an element that is already parsed."""
    return source if isinstance(source, XmlElement) else parse_xml(source).root


def parse_policy_element(source) -> PolicyExpr:
    """Inverse of emit_policy_element up to normalization.

    Accepts bytes or an already-parsed element; the root must be wsp:Policy.
    """
    element = _root(source)
    if element.name != WSP_POLICY:
        raise PolicyXmlError(f"expected a wsp:Policy root, got {element.name}")
    return _parse_operator(element, 1)


def _parse_operator(element: XmlElement, depth: int) -> PolicyExpr:
    ctor = _OPERATORS[element.name]
    if element.text().strip():
        raise PolicyXmlError(f"unexpected text content inside {element.name}")
    return ctor(*(_parse_policy_child(child, depth + 1) for child in element.element_children()))


def _parse_policy_child(element: XmlElement, depth: int) -> PolicyExpr:
    if depth > MAX_POLICY_DEPTH:
        raise PolicyXmlError(
            f"policy nested deeper than {MAX_POLICY_DEPTH} levels at {element.name}"
        )
    if element.name.namespace == WSP_NS:
        if element.name in _OPERATORS:
            return _parse_operator(element, depth)
        raise PolicyXmlError(f"unsupported policy construct {element.name}")
    return _parse_assertion_ref(element, depth)


def _parse_assertion_ref(element: XmlElement, depth: int) -> AssertionRef:
    optional = False
    parameters: list[tuple[str, str]] = []
    for qname, value in element.attributes:
        if qname == WSP_OPTIONAL:
            flag = value.strip(" \t\r\n")  # xs:boolean collapses XML whitespace
            if flag not in ("true", "1", "false", "0"):
                raise PolicyXmlError(f"bad wsp:Optional value {value!r} on {element.name}")
            optional = flag in ("true", "1")
        elif not qname.namespace:
            parameters.append((qname.local, value))
        else:
            raise PolicyXmlError(
                f"unsupported qualified attribute {qname} on assertion {element.name}"
            )
    if element.text().strip():
        raise PolicyXmlError(f"unsupported text content inside assertion {element.name}")
    nested: PolicyExpr | None = None
    for child in element.element_children():
        if child.name == WSP_POLICY:
            if nested is not None:
                raise PolicyXmlError(f"assertion {element.name} has two nested policies")
            nested = _parse_policy_child(child, depth + 1)
        else:
            raise PolicyXmlError(
                f"unsupported content {child.name} inside assertion {element.name}"
            )
    return AssertionRef(element.name, optional=optional, parameters=tuple(parameters), nested=nested)


def _appinfo_text(element: XmlElement, source: str) -> str | None:
    for annotation in element.find_all(XS_ANNOTATION):
        for appinfo in annotation.find_all(XS_APPINFO):
            if appinfo.attr(ATTR_SOURCE) == source:
                return appinfo.text().strip()
    return None


def _parse_sawsdl(element: XmlElement) -> SemanticAnnotation | None:
    refs = element.attr(SAWSDL_MODEL_REFERENCE)
    lifting = element.attr(SAWSDL_LIFTING)
    lowering = element.attr(SAWSDL_LOWERING)
    if refs is None and lifting is None and lowering is None:
        return None
    return SemanticAnnotation(
        model_reference=tuple(refs.split()) if refs else (),
        lowering_schema=lowering,
        lifting_schema=lifting,
    )


def parse_domain_xsd(data: bytes, warnings: list[Diagnostic] | None = None) -> DomainSchema:
    """Recover a DomainSchema from an emitted (or compatible) schema document.

    Top-level components other than xs:element are skipped with a warning,
    appended to ``warnings`` when it is given.
    """
    warnings = [] if warnings is None else warnings
    doc = parse_xml(data)
    root = doc.root
    if root.name != XS_SCHEMA:
        raise XmlParseError(f"expected an xs:schema root, got {root.name}")
    target = root.attr(ATTR_TARGET_NAMESPACE)
    if not target:
        raise XmlParseError("domain schema has no targetNamespace")

    prefixes = sorted(p for p, uri in root.nsmap.items() if p and uri == target)
    prefix = prefixes[0] if prefixes else "tns"
    name = _appinfo_text(root, DOMAIN_NAME_APPINFO)
    if not name or not is_ncname(name):
        name = "domain"

    assertions: list[AssertionDecl] = []
    for child in root.element_children():
        if child.name == XS_ANNOTATION:
            continue
        if child.name != XS_ELEMENT:
            warnings.append(Diagnostic("warning", "schema-component-skipped", str(child.name),
                                       "only top-level element declarations are read"))
            continue
        decl = _parse_assertion_decl(child, warnings)
        if decl is not None:
            assertions.append(decl)
    return DomainSchema(name, target, prefix, tuple(assertions))


def _parse_assertion_decl(element: XmlElement, warnings: list[Diagnostic]) -> AssertionDecl | None:
    name = element.attr(ATTR_NAME)
    if not name:
        warnings.append(Diagnostic("warning", "schema-component-skipped", str(element.name),
                                   "element declaration without a name"))
        return None
    annotation = _parse_sawsdl(element)
    type_attr = element.attr(ATTR_TYPE)
    if type_attr is not None:
        return AssertionDecl(
            name, "simple",
            simple_type=_resolve_qname(type_attr, element.nsmap),
            annotation=annotation,
        )
    nestable_text = _appinfo_text(element, NESTABLE_APPINFO)
    nestable = tuple(nestable_text.split()) if nestable_text else ()
    complex_type = element.find(XS_COMPLEX_TYPE)
    attributes: list[AttributeDecl] = []
    has_content = False
    if complex_type is not None:
        for part in complex_type.element_children():
            if part.name == XS_ATTRIBUTE:
                attr_name = part.attr(ATTR_NAME) or ""
                attr_type = part.attr(ATTR_TYPE)
                attributes.append(
                    AttributeDecl(
                        attr_name,
                        _resolve_qname(attr_type, part.nsmap) if attr_type else XS_STRING,
                        _parse_sawsdl(part),
                    )
                )
            elif part.name == XS_SEQUENCE:
                has_content = True
    if attributes or has_content or nestable:
        return AssertionDecl(
            name, "complex", attributes=tuple(attributes),
            nestable_children=nestable, annotation=annotation,
        )
    return AssertionDecl(name, "empty", annotation=annotation)


def parse_wsdl(data, companion_schemas=()) -> ParsedArtifacts:
    """Reconstruct interfaces, bindings, services, endpoints and embedded
    policies; companion schemas are matched to xs:import by targetNamespace.
    The WSDL is bytes or a parsed root element, each companion bytes or a
    DomainSchema already read (whose warnings are then the caller's)."""
    warnings: list[Diagnostic] = []
    domains = tuple(s if isinstance(s, DomainSchema) else parse_domain_xsd(s, warnings)
                    for s in companion_schemas)
    domain_ns = {d.target_namespace for d in domains}

    root = _root(data)
    if root.name != WSDL_DESCRIPTION:
        raise XmlParseError(f"expected a wsdl:description root, got {root.name}")
    target = root.attr(ATTR_TARGET_NAMESPACE) or ""

    interfaces: list[InterfaceDecl] = []
    bindings: list[BindingDecl] = []
    services: list[ServiceDecl] = []
    attachments: list[PolicyAttachment] = []
    consumed: set[int] = set()
    attached: set[SubjectRef] = set()

    def take_policy(element: XmlElement, kind: str, *path: str):
        subject = SubjectRef(kind, tuple(path))
        for child in element.find_all(WSP_POLICY):
            # One policy per subject, as in the model format.
            if subject in attached:
                raise XmlParseError(
                    f"second wsp:Policy for subject {subject.path_string()!r}; "
                    "pre-merge policies instead"
                )
            attached.add(subject)
            consumed.add(id(child))
            attachments.append(PolicyAttachment(subject, parse_policy_element(child)))

    for section in root.element_children():
        if section.name == WSDL_TYPES:
            for item in section.element_children():
                if item.name == XS_IMPORT:
                    namespace = item.attr(ATTR_NAMESPACE) or ""
                    if namespace not in domain_ns:
                        warnings.append(Diagnostic("warning", "domain-unresolved", namespace,
                                                   "imported namespace has no companion schema"))
                else:
                    warnings.append(Diagnostic("warning", "types-component-skipped", str(item.name),
                                               "only xs:import is read from wsdl:types"))
        elif section.name == WSDL_INTERFACE:
            interfaces.append(_parse_interface(section, take_policy))
        elif section.name == WSDL_BINDING:
            name = section.attr(ATTR_NAME) or ""
            take_policy(section, "binding", name)
            interface = _local_ref(section.attr(ATTR_INTERFACE) or "")
            bindings.append(BindingDecl(name, interface, section.attr(ATTR_TYPE) or ""))
        elif section.name == WSDL_SERVICE:
            services.append(_parse_service(section, take_policy))
        else:
            warnings.append(Diagnostic("warning", "extension-skipped", str(section.name),
                                       "unrecognized wsdl:description child"))

    _reject_stray_policies(root, consumed)

    model = ServiceModel(
        model_name="",
        target_namespace=target,
        domains=domains,
        interfaces=tuple(interfaces),
        bindings=tuple(bindings),
        services=tuple(services),
        attachments=tuple(attachments),
    )

    declared = {QName(d.target_namespace, a.name) for d in domains for a in d.assertions}
    unresolved: set[QName] = set()
    for attachment in attachments:
        unresolved.update(ref.qname for ref in iter_refs(attachment.policy)
                          if ref.qname not in declared)
    for qname in sorted(unresolved):
        warnings.append(Diagnostic("warning", "assertion-unresolved", str(qname),
                                   "assertion QName has no declaration in the supplied schemas"))

    return ParsedArtifacts(model, domains, tuple(attachments), tuple(warnings))


def _reject_stray_policies(root: XmlElement, consumed: set[int]):
    # An explicit stack, as in algebra.iter_refs: WSDL content outside any
    # policy has no depth cap, so recursion could exhaust interpreter frames.
    stack = [root]
    while stack:
        for child in stack.pop().element_children():
            if id(child) in consumed:
                continue
            if child.name == WSP_POLICY:
                raise XmlParseError(
                    "wsp:Policy attached to an element that is not a policy subject"
                )
            stack.append(child)


def _parse_interface(section: XmlElement, take_policy) -> InterfaceDecl:
    name = section.attr(ATTR_NAME) or ""
    take_policy(section, "interface", name)
    faults: list[FaultDecl] = []
    operations: list[OperationDecl] = []
    for child in section.element_children():
        if child.name == WSDL_FAULT:
            element_attr = child.attr(ATTR_ELEMENT)
            element = _resolve_qname(element_attr, child.nsmap) if element_attr else None
            faults.append(FaultDecl(child.attr(ATTR_NAME) or "", element))
        elif child.name == WSDL_OPERATION:
            op_name = child.attr(ATTR_NAME) or ""
            take_policy(child, "operation", name, op_name)
            inputs: list[MessageRef] = []
            outputs: list[MessageRef] = []
            fault_refs: list[str] = []
            for part in child.element_children():
                if part.name in WSDL_MESSAGES:
                    bucket = inputs if part.name.local == "input" else outputs
                    element_attr = part.attr(ATTR_ELEMENT)
                    label = part.attr(ATTR_MESSAGE_LABEL) or f"{part.name.local}{len(bucket)}"
                    element = _resolve_qname(element_attr, part.nsmap) if element_attr else UNTYPED
                    bucket.append(MessageRef(label, element))
                elif part.name in WSDL_FAULT_REFS:
                    fault_refs.append(_local_ref(part.attr(ATTR_REF) or ""))
            operations.append(
                OperationDecl(op_name, tuple(inputs), tuple(outputs), tuple(fault_refs)))
    return InterfaceDecl(name, tuple(operations), tuple(faults))


def _parse_service(section: XmlElement, take_policy) -> ServiceDecl:
    name = section.attr(ATTR_NAME) or ""
    take_policy(section, "service", name)
    endpoints: list[Endpoint] = []
    for child in section.find_all(WSDL_ENDPOINT):
        ep_name = child.attr(ATTR_NAME) or ""
        take_policy(child, "endpoint", name, ep_name)
        binding = _local_ref(child.attr(ATTR_BINDING) or "")
        endpoints.append(Endpoint(ep_name, binding, child.attr(ATTR_ADDRESS) or ""))
    return ServiceDecl(name, _local_ref(section.attr(ATTR_INTERFACE) or ""), tuple(endpoints))
