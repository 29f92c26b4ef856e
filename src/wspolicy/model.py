"""Service-model domain types and whole-model consistency checking.

All types are immutable after construction and never validate themselves;
``validate_model`` reports every violated invariant as a diagnostic instead of
raising, so a broken model can be inspected as a whole.  Named collections are
sorted at construction, which makes structural equality canonical and keeps
serialization deterministic.
"""
from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Optional

from .algebra import (
    MAX_POLICY_DEPTH, AssertionRef, Policy, PolicyExpr, check_param_value, satisfiable,
)
from .errors import VocabularyError
from .names import (
    QName, Value, WSP_NS, XMLNS_NS, XS_NS, XS_STRING, check_xml_chars, is_absolute_uri, is_ncname,
)

TYPE_KINDS = ("empty", "simple", "complex")
SUBJECT_KINDS = ("binding", "endpoint", "interface", "operation", "service")

_NAME = attrgetter("name")
_SUBJECT_KEY = attrgetter("subject.kind", "subject.path")
_set = object.__setattr__


def _by_name(items: tuple, name: str):
    """The first element of a name-sorted tuple with the given name, or None."""
    i = bisect_left(items, name, key=_NAME)
    return items[i] if i < len(items) and items[i].name == name else None


class SemanticAnnotation(Value):
    """modelReference URIs plus optional lifting/lowering mapping URIs."""

    __slots__ = ("model_reference", "lowering_schema", "lifting_schema")

    def __init__(self, model_reference: Iterable[str], lowering_schema: Optional[str] = None,
                 lifting_schema: Optional[str] = None):
        _set(self, "model_reference", tuple(model_reference))
        _set(self, "lowering_schema", lowering_schema)
        _set(self, "lifting_schema", lifting_schema)


class AttributeDecl(Value):
    __slots__ = ("name", "simple_type", "annotation")

    def __init__(self, name: str, simple_type: QName,
                 annotation: Optional[SemanticAnnotation] = None):
        _set(self, "name", name)
        _set(self, "simple_type", simple_type)
        _set(self, "annotation", annotation)


class AssertionDecl(Value):
    """One assertion of a non-functional domain, declared as a schema element.

    ``simple_type`` is only meaningful for type kind "simple" and defaults to
    xs:string there; ``nestable_children`` names the sibling assertions allowed
    inside this assertion's nested policy.
    """

    __slots__ = ("name", "type_kind", "simple_type", "attributes", "nestable_children",
                 "annotation")

    def __init__(self, name: str, type_kind: str = "empty", simple_type: Optional[QName] = None,
                 attributes: Iterable[AttributeDecl] = (), nestable_children: Iterable[str] = (),
                 annotation: Optional[SemanticAnnotation] = None):
        if type_kind == "simple" and simple_type is None:
            simple_type = XS_STRING
        _set(self, "name", name)
        _set(self, "type_kind", type_kind)
        _set(self, "simple_type", simple_type)
        _set(self, "attributes", tuple(attributes))
        _set(self, "nestable_children", tuple(sorted(nestable_children)))
        _set(self, "annotation", annotation)


class DomainSchema(Value):
    """A non-functional domain: a namespace of annotated assertion declarations."""

    __slots__ = ("domain_name", "target_namespace", "prefix", "assertions")

    def __init__(self, domain_name: str, target_namespace: str, prefix: str,
                 assertions: Iterable[AssertionDecl] = ()):
        _set(self, "domain_name", domain_name)
        _set(self, "target_namespace", target_namespace)
        _set(self, "prefix", prefix)
        _set(self, "assertions", tuple(sorted(assertions, key=_NAME)))

    def assertion(self, name: str) -> Optional[AssertionDecl]:
        return _by_name(self.assertions, name)


class MessageRef(Value):
    __slots__ = ("name", "element_type")

    def __init__(self, name: str, element_type: QName):
        _set(self, "name", name)
        _set(self, "element_type", element_type)


class FaultDecl(Value):
    __slots__ = ("name", "element_type")

    def __init__(self, name: str, element_type: Optional[QName] = None):
        _set(self, "name", name)
        _set(self, "element_type", element_type)


class OperationDecl(Value):
    __slots__ = ("name", "inputs", "outputs", "fault_refs")

    def __init__(self, name: str, inputs: Iterable[MessageRef] = (),
                 outputs: Iterable[MessageRef] = (), fault_refs: Iterable[str] = ()):
        _set(self, "name", name)
        _set(self, "inputs", tuple(inputs))
        _set(self, "outputs", tuple(outputs))
        _set(self, "fault_refs", tuple(fault_refs))


class InterfaceDecl(Value):
    __slots__ = ("name", "operations", "faults")

    def __init__(self, name: str, operations: Iterable[OperationDecl] = (),
                 faults: Iterable[FaultDecl] = ()):
        _set(self, "name", name)
        _set(self, "operations", tuple(sorted(operations, key=_NAME)))
        _set(self, "faults", tuple(sorted(faults, key=_NAME)))

    def operation(self, name: str) -> Optional[OperationDecl]:
        return _by_name(self.operations, name)


class BindingDecl(Value):
    __slots__ = ("name", "interface_ref", "transport_protocol", "message_encoding")

    def __init__(self, name: str, interface_ref: str, transport_protocol: str,
                 message_encoding: str = ""):
        _set(self, "name", name)
        _set(self, "interface_ref", interface_ref)
        _set(self, "transport_protocol", transport_protocol)
        _set(self, "message_encoding", message_encoding)


class Endpoint(Value):
    __slots__ = ("name", "binding_ref", "address")

    def __init__(self, name: str, binding_ref: str, address: str):
        _set(self, "name", name)
        _set(self, "binding_ref", binding_ref)
        _set(self, "address", address)


class ServiceDecl(Value):
    __slots__ = ("name", "interface_ref", "endpoints")

    def __init__(self, name: str, interface_ref: str, endpoints: Iterable[Endpoint] = ()):
        _set(self, "name", name)
        _set(self, "interface_ref", interface_ref)
        _set(self, "endpoints", tuple(sorted(endpoints, key=_NAME)))

    def endpoint(self, name: str) -> Optional[Endpoint]:
        return _by_name(self.endpoints, name)


class SubjectRef(Value):
    """Addresses one policy subject: a kind plus a path of identifiers.

    Paths: binding/interface/service take one name; operation takes
    (interface, operation); endpoint takes (service, endpoint).
    """

    __slots__ = ("kind", "path")

    def __init__(self, kind: str, path: Iterable[str]):
        _set(self, "kind", kind)
        _set(self, "path", tuple(path))

    def path_string(self) -> str:
        return "/".join((self.kind,) + self.path)


class PolicyAttachment(Value):
    __slots__ = ("subject", "policy")

    def __init__(self, subject: SubjectRef, policy: PolicyExpr):
        _set(self, "subject", subject)
        _set(self, "policy", policy)


class ExternalNamespace(Value):
    """A namespace usable by message element types, with an optional preferred prefix."""

    __slots__ = ("namespace", "prefix")

    def __init__(self, namespace: str, prefix: Optional[str] = None):
        _set(self, "namespace", namespace)
        _set(self, "prefix", prefix)


class Diagnostic(Value):
    __slots__ = ("severity", "code", "subject_path", "message")

    def __init__(self, severity: str, code: str, subject_path: str, message: str):
        _set(self, "severity", severity)  # "error" | "warning"
        _set(self, "code", code)
        _set(self, "subject_path", subject_path)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.severity} {self.code} {self.subject_path}: {self.message}"


class ServiceModel(Value):
    """The full declarative input for generation."""

    __slots__ = ("model_name", "target_namespace", "domains", "interfaces", "bindings",
                 "services", "attachments", "external_namespaces")

    def __init__(self, model_name: str, target_namespace: str,
                 domains: Iterable[DomainSchema] = (), interfaces: Iterable[InterfaceDecl] = (),
                 bindings: Iterable[BindingDecl] = (), services: Iterable[ServiceDecl] = (),
                 attachments: Iterable[PolicyAttachment] = (),
                 external_namespaces: Iterable[ExternalNamespace] = ()):
        _set(self, "model_name", model_name)
        _set(self, "target_namespace", target_namespace)
        _set(self, "domains", tuple(sorted(domains, key=attrgetter("domain_name"))))
        _set(self, "interfaces", tuple(sorted(interfaces, key=_NAME)))
        _set(self, "bindings", tuple(sorted(bindings, key=_NAME)))
        _set(self, "services", tuple(sorted(services, key=_NAME)))
        _set(self, "attachments", tuple(sorted(attachments, key=_SUBJECT_KEY)))
        _set(self, "external_namespaces",
             tuple(sorted(external_namespaces, key=attrgetter("namespace"))))

    def interface(self, name: str) -> Optional[InterfaceDecl]:
        return _by_name(self.interfaces, name)

    def binding(self, name: str) -> Optional[BindingDecl]:
        return _by_name(self.bindings, name)

    def service(self, name: str) -> Optional[ServiceDecl]:
        return _by_name(self.services, name)

    def namespace_table(self) -> frozenset[str]:
        """Namespaces message element types may reference."""
        table = {self.target_namespace, XS_NS}
        table.update(d.target_namespace for d in self.domains)
        table.update(n.namespace for n in self.external_namespaces)
        return frozenset(table)


def resolve_subject(model: ServiceModel, subject: SubjectRef):
    """The unique element a subject addresses, or None.  Total, side-effect free."""
    path = subject.path
    if subject.kind == "interface" and len(path) == 1:
        return model.interface(path[0])
    if subject.kind == "binding" and len(path) == 1:
        return model.binding(path[0])
    if subject.kind == "service" and len(path) == 1:
        return model.service(path[0])
    if subject.kind == "operation" and len(path) == 2:
        iface = model.interface(path[0])
        return iface.operation(path[1]) if iface is not None else None
    if subject.kind == "endpoint" and len(path) == 2:
        service = model.service(path[0])
        return service.endpoint(path[1]) if service is not None else None
    return None


def assertion_vocabulary(domains: Iterable[DomainSchema]) -> dict[QName, AssertionDecl]:
    """Map every assertion QName (domain namespace + name) to its declaration.

    A QName declared again identically is accepted, since one domain may
    arrive from more than one source; a differing declaration raises
    VocabularyError.
    """
    vocab: dict[QName, AssertionDecl] = {}
    for domain in domains:
        for decl in domain.assertions:
            qname = QName(domain.target_namespace, decl.name)
            if vocab.setdefault(qname, decl) != decl:
                raise VocabularyError(f"conflicting declarations for {qname}")
    return vocab


class _Collector:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def error(self, code: str, path: str, message: str):
        self.diagnostics.append(Diagnostic("error", code, path, message))


def _check_annotation(
    out: _Collector, path: str, annotation: Optional[SemanticAnnotation], on_attribute: bool
):
    if annotation is None:
        return
    if not annotation.model_reference:
        out.error("annotation-empty", path, "modelReference must list at least one URI")
    for i, uri in enumerate(annotation.model_reference):
        _check_uri(out, f"{path}.modelReference[{i}]", uri)
    for name, uri in (
        ("loweringSchema", annotation.lowering_schema),
        ("liftingSchema", annotation.lifting_schema),
    ):
        if uri is None:
            continue
        _check_uri(out, f"{path}.{name}", uri)
        if on_attribute:
            out.error(
                "annotation-placement",
                f"{path}.{name}",
                f"{name} is not emittable on an attribute declaration",
            )


def _check_identifier(out: _Collector, path: str, value: str, what: str = "identifier"):
    if not is_ncname(value):
        out.error("bad-identifier", path, f"{what} must be an NCName, got {value!r}")


def _check_uri(out: _Collector, path: str, uri: str) -> bool:
    if is_absolute_uri(uri):
        return True
    out.error("bad-uri", path, f"not an absolute URI: {uri!r}")
    return False


def _check_namespace(out: _Collector, path: str, uri: str):
    if _check_uri(out, path, uri) and uri == XMLNS_NS:
        out.error("namespace-reserved", path,
                  f"{uri} is reserved for namespace declarations; no prefix may be bound to it")


def validate_model(model: ServiceModel) -> list[Diagnostic]:
    """Every violated invariant as a diagnostic; empty means generation-ready.

    Deterministic: diagnostics are sorted by subject path, then code.
    """
    out = _Collector()

    _check_identifier(out, "modelName", model.model_name, "model name")
    _check_namespace(out, "targetNamespace", model.target_namespace)

    for i, ext in enumerate(model.external_namespaces):
        _check_namespace(out, f"externalNamespaces[{i}]", ext.namespace)
        if ext.prefix is not None:
            _check_identifier(out, f"externalNamespaces[{i}].prefix", ext.prefix, "prefix")

    declared = _check_domains(out, model)
    _check_interfaces(out, model)
    _check_bindings(out, model)
    _check_services(out, model)
    _check_attachments(out, model, declared)

    return sorted(out.diagnostics, key=lambda d: (d.subject_path, d.code, d.message))


def _check_unique(out: _Collector, seen: set[str], name: str, path: str, kind: str):
    if name in seen:
        out.error("duplicate-name", path, f"duplicate {kind} name {name!r}")
    seen.add(name)


def _named(out: _Collector, items: tuple, path: str, kind: str):
    """Each item of a named collection with its path, once its name is
    checked: unique in the collection, and an NCName."""
    seen: set[str] = set()
    what = f"{kind} name"
    for item in items:
        ipath = f"{path}[{item.name}]"
        _check_unique(out, seen, item.name, ipath, kind)
        _check_identifier(out, ipath, item.name, what)
        yield item, ipath


def validate_domain(domain: DomainSchema) -> list[Diagnostic]:
    """Diagnostics for one domain in isolation (no cross-domain checks)."""
    out = _Collector()
    path = f"domains[{domain.domain_name}]"
    _check_identifier(out, path, domain.domain_name, "domain name")
    _check_identifier(out, f"{path}.prefix", domain.prefix, "prefix")
    _check_namespace(out, f"{path}.targetNamespace", domain.target_namespace)
    if domain.target_namespace == WSP_NS:
        out.error("namespace-reserved", f"{path}.targetNamespace",
                  f"{WSP_NS} is the WS-Policy namespace; its elements read as policy operators")
    for decl, apath in _named(out, domain.assertions, f"{path}.assertions", "assertion"):
        _check_assertion_shape(out, apath, decl)
        _check_qname(out, apath, "simpleType", decl.simple_type)
        _check_annotation(out, f"{apath}.annotation", decl.annotation, on_attribute=False)
        for attr, attr_path in _named(out, decl.attributes, f"{apath}.attributes", "attribute"):
            _check_qname(out, attr_path, "simpleType", attr.simple_type)
            _check_annotation(out, f"{attr_path}.annotation", attr.annotation, on_attribute=True)
        for child in decl.nestable_children:
            if domain.assertion(child) is None:
                out.error("nestable-unknown", f"{apath}.nestableChildren",
                          f"nestable child {child!r} is not declared in domain "
                          f"{domain.domain_name!r}")
    return sorted(out.diagnostics, key=lambda d: (d.subject_path, d.code, d.message))


def _check_domains(out: _Collector, model: ServiceModel) -> set[QName]:
    """Checks every domain; returns the set of declared assertion QNames.  Only
    a QName that an earlier domain declared is a ``duplicate-qname``."""
    domain_names: set[str] = set()
    qnames: set[QName] = set()
    for domain in model.domains:
        path = f"domains[{domain.domain_name}]"
        _check_unique(out, domain_names, domain.domain_name, path, "domain")
        out.diagnostics.extend(validate_domain(domain))
        if (
            is_absolute_uri(domain.target_namespace)
            and domain.target_namespace == model.target_namespace
        ):
            out.error("namespace-collision", f"{path}.targetNamespace",
                      "domain namespace must differ from the model targetNamespace")
        own = {QName(domain.target_namespace, decl.name) for decl in domain.assertions}
        for qname in own & qnames:
            out.error("duplicate-qname", f"{path}.assertions[{qname.local}]",
                      f"assertion QName declared twice: {qname}")
        qnames |= own
    return qnames


def _check_assertion_shape(out: _Collector, path: str, decl: AssertionDecl):
    if decl.type_kind not in TYPE_KINDS:
        out.error("assertion-shape", path, f"unknown typeKind {decl.type_kind!r}")
        return
    if decl.type_kind != "simple" and decl.simple_type is not None:
        out.error("assertion-shape", path, "simpleType is only allowed with typeKind simple")
    if decl.type_kind != "complex":
        if decl.attributes:
            out.error("assertion-shape", path,
                      f"attributes require typeKind complex, not {decl.type_kind!r}")
        if decl.nestable_children:
            out.error("assertion-shape", path,
                      f"nestableChildren require typeKind complex, not {decl.type_kind!r}")
    elif not decl.attributes and not decl.nestable_children:
        out.error("assertion-shape", path,
                  "complex assertion must declare attributes or nestableChildren")


def _check_qname(out: _Collector, path: str, field: str, qname: Optional[QName],
                 table: Optional[frozenset] = None):
    """A QName the writer spells as ``prefix:local``, at ``path.field``: its
    local part must be an NCName.  An element type's namespace must be in the
    model's namespace ``table``; a simple type's (no table) must be empty or
    one a prefix may be bound to.  The path is built only for a fault."""
    if qname is None:
        return
    if not is_ncname(qname.local):
        _check_identifier(out, f"{path}.{field}", qname.local, "local part")
    if table is not None:
        if qname.namespace not in table:
            out.error("namespace-undeclared", f"{path}.{field}",
                      f"namespace not in the model namespace table: {qname.namespace!r}")
    elif qname.namespace:
        _check_namespace(out, f"{path}.{field}", qname.namespace)


def _check_interfaces(out: _Collector, model: ServiceModel):
    table = model.namespace_table()
    for iface, path in _named(out, model.interfaces, "interfaces", "interface"):
        for fault, fpath in _named(out, iface.faults, f"{path}.faults", "fault"):
            _check_qname(out, fpath, "elementType", fault.element_type, table)
        for op, opath in _named(out, iface.operations, f"{path}.operations", "operation"):
            for role, refs in (("inputs", op.inputs), ("outputs", op.outputs)):
                for i, ref in enumerate(refs):
                    rpath = f"{opath}.{role}[{i}]"
                    _check_identifier(out, rpath, ref.name, "message name")
                    _check_qname(out, rpath, "elementType", ref.element_type, table)
            for fref in op.fault_refs:
                if _by_name(iface.faults, fref) is None:
                    out.error("fault-unresolved", f"{opath}.faultRefs",
                              f"fault {fref!r} is not declared on interface {iface.name!r}")


def _check_bindings(out: _Collector, model: ServiceModel):
    for binding, path in _named(out, model.bindings, "bindings", "binding"):
        if model.interface(binding.interface_ref) is None:
            out.error("interface-unresolved", f"{path}.interface",
                      f"interface {binding.interface_ref!r} is not declared")
        _check_uri(out, f"{path}.transportProtocol", binding.transport_protocol)
        encoding, epath = binding.message_encoding, f"{path}.messageEncoding"
        if not isinstance(encoding, str) or not encoding:
            out.error("bad-value", epath, "must be a non-empty token")
        else:
            try:
                check_xml_chars(encoding)
            except ValueError as exc:
                out.error("bad-character", epath, str(exc))


def _check_services(out: _Collector, model: ServiceModel):
    for service, path in _named(out, model.services, "services", "service"):
        if model.interface(service.interface_ref) is None:
            out.error("interface-unresolved", f"{path}.interface",
                      f"interface {service.interface_ref!r} is not declared")
        if not service.endpoints:
            out.error("no-endpoints", path, "a service needs at least one endpoint")
        for ep, epath in _named(out, service.endpoints, f"{path}.endpoints", "endpoint"):
            _check_uri(out, f"{epath}.address", ep.address)
            binding = model.binding(ep.binding_ref)
            if binding is None:
                out.error("binding-unresolved", f"{epath}.binding",
                          f"binding {ep.binding_ref!r} is not declared")
            elif binding.interface_ref != service.interface_ref:
                out.error("binding-interface-mismatch", f"{epath}.binding",
                          f"binding {binding.name!r} is bound to interface "
                          f"{binding.interface_ref!r}, not {service.interface_ref!r}")


def _check_attachments(out: _Collector, model: ServiceModel, declared: set[QName]):
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for attachment in model.attachments:
        subject = attachment.subject
        path = f"attachments[{subject.path_string()}]"
        _check_policy(out, path, attachment.policy, declared)
        if subject.kind not in SUBJECT_KINDS:
            out.error("subject-unresolved", path, f"unknown subject kind {subject.kind!r}")
            continue
        key = (subject.kind, subject.path)
        if key in seen:
            out.error("duplicate-attachment", path,
                      "one attachment per subject; pre-merge policies with merge()")
        seen.add(key)
        if resolve_subject(model, subject) is None:
            out.error("subject-unresolved", path,
                      f"subject does not resolve: {subject.path_string()}")


def _check_policy(out: _Collector, path: str, policy: PolicyExpr, declared: set[QName]):
    """One walk over an attached policy, a level at a time and without
    recursion, counting levels as the readers do: the root policy is level 1,
    and each operator, assertion and nested policy below it adds one.  The
    root and every nested policy use the policy form, no node lies deeper
    than MAX_POLICY_DEPTH (nodes past it are not walked), every assertion is
    declared and its parameters are writable.  Only a tree within the cap is
    asked whether it is satisfiable, as that check recurses."""
    undeclared: set[QName] = set()
    nested_forms: set[QName] = set()
    level, nodes = 1, [policy]
    while nodes and level <= MAX_POLICY_DEPTH:
        below: list[PolicyExpr] = []
        for node in nodes:
            if isinstance(node, AssertionRef):
                if node.qname not in declared:
                    undeclared.add(node.qname)
                if node.parameters:
                    _check_parameters(out, path, node)
                if node.nested is not None:
                    if not isinstance(node.nested, Policy):
                        nested_forms.add(node.qname)
                    below.append(node.nested)
            else:
                below.extend(node.children)
        level, nodes = level + 1, below
    if undeclared:
        out.error("assertion-undeclared", path, "policy references an assertion "
                  f"declared in no domain: {min(undeclared)}")
    if not isinstance(policy, Policy):
        out.error("policy-form", path, "an attachment policy must use the 'policy' form at the root")
    if nested_forms:
        out.error("policy-form", path, "nested policies must use the 'policy' form, "
                  f"unlike the one in {min(nested_forms)}")
    if nodes:
        out.error("policy-depth", path, f"policy nested deeper than {MAX_POLICY_DEPTH} levels")
    elif not satisfiable(policy):
        out.error("policy-unsatisfiable", path, "policy is unsatisfiable (no alternatives)")


def _check_parameters(out: _Collector, path: str, ref: AssertionRef):
    """An assertion's parameters are written as attributes: each name a unique
    NCName, each value one that the model file and XML 1.0 can carry."""
    seen: set[str] = set()
    for name, value in ref.parameters:
        ppath = f"{path}.{ref.qname}.parameters[{name}]"
        _check_unique(out, seen, name, ppath, "parameter")
        _check_identifier(out, ppath, name, "parameter name")
        try:
            check_param_value(value)
        except ValueError as exc:
            if isinstance(value, str):
                out.error("bad-character", ppath, f"parameter value: {exc}")
            else:
                out.error("bad-value", ppath, f"parameter value: {exc}")
