"""Service-model domain types and whole-model consistency checking.

All types are immutable after construction and never validate themselves;
``validate_model`` reports every violated invariant as a diagnostic instead of
raising, so a broken model can be inspected as a whole.  Named collections are
sorted at construction, which makes structural equality canonical and keeps
serialization deterministic.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

from .algebra import PolicyExpr, iter_refs, satisfiable
from .errors import VocabularyError
from .names import QName, XS_NS, is_absolute_uri, is_ncname

TYPE_KINDS = ("empty", "simple", "complex")
SUBJECT_KINDS = ("binding", "endpoint", "interface", "operation", "service")

_NAME = attrgetter("name")


def _by_name(items: tuple, name: str):
    """The first element of a name-sorted tuple with the given name, or None."""
    i = bisect_left(items, name, key=_NAME)
    return items[i] if i < len(items) and items[i].name == name else None


@dataclass(frozen=True)
class SemanticAnnotation:
    """modelReference URIs plus optional lifting/lowering mapping URIs."""

    model_reference: tuple[str, ...]
    lowering_schema: Optional[str] = None
    lifting_schema: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "model_reference", tuple(self.model_reference))


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    simple_type: QName
    annotation: Optional[SemanticAnnotation] = None


@dataclass(frozen=True)
class AssertionDecl:
    """One assertion of a non-functional domain, declared as a schema element.

    ``simple_type`` is only meaningful for type kind "simple" and defaults to
    xs:string there; ``nestable_children`` names the sibling assertions allowed
    inside this assertion's nested policy.
    """

    name: str
    type_kind: str = "empty"
    simple_type: Optional[QName] = None
    attributes: tuple[AttributeDecl, ...] = ()
    nestable_children: tuple[str, ...] = ()
    annotation: Optional[SemanticAnnotation] = None

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "nestable_children", tuple(sorted(self.nestable_children)))
        if self.type_kind == "simple" and self.simple_type is None:
            object.__setattr__(self, "simple_type", QName(XS_NS, "string"))


@dataclass(frozen=True)
class DomainSchema:
    """A non-functional domain: a namespace of annotated assertion declarations."""

    domain_name: str
    target_namespace: str
    prefix: str
    assertions: tuple[AssertionDecl, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "assertions", tuple(sorted(self.assertions, key=lambda a: a.name))
        )

    def assertion(self, name: str) -> Optional[AssertionDecl]:
        return _by_name(self.assertions, name)


@dataclass(frozen=True)
class MessageRef:
    name: str
    element_type: QName


@dataclass(frozen=True)
class FaultDecl:
    name: str
    element_type: Optional[QName] = None


@dataclass(frozen=True)
class OperationDecl:
    name: str
    inputs: tuple[MessageRef, ...] = ()
    outputs: tuple[MessageRef, ...] = ()
    fault_refs: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "fault_refs", tuple(self.fault_refs))


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    operations: tuple[OperationDecl, ...] = ()
    faults: tuple[FaultDecl, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "operations", tuple(sorted(self.operations, key=lambda o: o.name))
        )
        object.__setattr__(self, "faults", tuple(sorted(self.faults, key=lambda f: f.name)))

    def operation(self, name: str) -> Optional[OperationDecl]:
        return _by_name(self.operations, name)


@dataclass(frozen=True)
class BindingDecl:
    name: str
    interface_ref: str
    transport_protocol: str
    message_encoding: str = ""


@dataclass(frozen=True)
class Endpoint:
    name: str
    binding_ref: str
    address: str


@dataclass(frozen=True)
class ServiceDecl:
    name: str
    interface_ref: str
    endpoints: tuple[Endpoint, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "endpoints", tuple(sorted(self.endpoints, key=lambda e: e.name))
        )

    def endpoint(self, name: str) -> Optional[Endpoint]:
        return _by_name(self.endpoints, name)


@dataclass(frozen=True)
class SubjectRef:
    """Addresses one policy subject: a kind plus a path of identifiers.

    Paths: binding/interface/service take one name; operation takes
    (interface, operation); endpoint takes (service, endpoint).
    """

    kind: str
    path: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(self.path))

    def path_string(self) -> str:
        return "/".join((self.kind,) + self.path)


@dataclass(frozen=True)
class PolicyAttachment:
    subject: SubjectRef
    policy: PolicyExpr


@dataclass(frozen=True)
class ExternalNamespace:
    """A namespace usable by message element types, with an optional preferred prefix."""

    namespace: str
    prefix: Optional[str] = None


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    subject_path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity} {self.code} {self.subject_path}: {self.message}"


@dataclass(frozen=True)
class ServiceModel:
    """The full declarative input for generation."""

    model_name: str
    target_namespace: str
    domains: tuple[DomainSchema, ...] = ()
    interfaces: tuple[InterfaceDecl, ...] = ()
    bindings: tuple[BindingDecl, ...] = ()
    services: tuple[ServiceDecl, ...] = ()
    attachments: tuple[PolicyAttachment, ...] = ()
    external_namespaces: tuple[ExternalNamespace, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "domains", tuple(sorted(self.domains, key=lambda d: d.domain_name))
        )
        object.__setattr__(
            self, "interfaces", tuple(sorted(self.interfaces, key=lambda i: i.name))
        )
        object.__setattr__(
            self, "bindings", tuple(sorted(self.bindings, key=lambda b: b.name))
        )
        object.__setattr__(
            self, "services", tuple(sorted(self.services, key=lambda s: s.name))
        )
        object.__setattr__(
            self,
            "attachments",
            tuple(sorted(self.attachments, key=lambda a: (a.subject.kind, a.subject.path))),
        )
        object.__setattr__(
            self,
            "external_namespaces",
            tuple(sorted(self.external_namespaces, key=lambda n: n.namespace)),
        )

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
        if not is_absolute_uri(uri):
            out.error("bad-uri", f"{path}.modelReference[{i}]", f"not an absolute URI: {uri!r}")
    for name, uri in (
        ("loweringSchema", annotation.lowering_schema),
        ("liftingSchema", annotation.lifting_schema),
    ):
        if uri is None:
            continue
        if not is_absolute_uri(uri):
            out.error("bad-uri", f"{path}.{name}", f"not an absolute URI: {uri!r}")
        if on_attribute:
            out.error(
                "annotation-placement",
                f"{path}.{name}",
                f"{name} is not emittable on an attribute declaration",
            )


def _check_identifier(out: _Collector, path: str, value: str, what: str = "identifier"):
    if not is_ncname(value):
        out.error("bad-identifier", path, f"{what} must be an NCName, got {value!r}")


def validate_model(model: ServiceModel) -> list[Diagnostic]:
    """Every violated invariant as a diagnostic; empty means generation-ready.

    Deterministic: diagnostics are sorted by subject path, then code.
    """
    out = _Collector()

    _check_identifier(out, "modelName", model.model_name, "model name")
    if not is_absolute_uri(model.target_namespace):
        out.error("bad-uri", "targetNamespace", f"not an absolute URI: {model.target_namespace!r}")

    for i, ext in enumerate(model.external_namespaces):
        if not is_absolute_uri(ext.namespace):
            out.error("bad-uri", f"externalNamespaces[{i}]", f"not an absolute URI: {ext.namespace!r}")
        if ext.prefix is not None:
            _check_identifier(out, f"externalNamespaces[{i}].prefix", ext.prefix, "prefix")

    _check_domains(out, model)
    _check_interfaces(out, model)
    _check_bindings(out, model)
    _check_services(out, model)
    _check_attachments(out, model)

    return sorted(out.diagnostics, key=lambda d: (d.subject_path, d.code, d.message))


def _check_unique(out: _Collector, seen: set[str], name: str, path: str, kind: str):
    if name in seen:
        out.error("duplicate-name", path, f"duplicate {kind} name {name!r}")
    seen.add(name)


def validate_domain(domain: DomainSchema) -> list[Diagnostic]:
    """Diagnostics for one domain in isolation (no cross-domain checks)."""
    out = _Collector()
    path = f"domains[{domain.domain_name}]"
    _check_identifier(out, path, domain.domain_name, "domain name")
    _check_identifier(out, f"{path}.prefix", domain.prefix, "prefix")
    if not is_absolute_uri(domain.target_namespace):
        out.error("bad-uri", f"{path}.targetNamespace",
                  f"not an absolute URI: {domain.target_namespace!r}")
    assertion_names: set[str] = set()
    for decl in domain.assertions:
        apath = f"{path}.assertions[{decl.name}]"
        _check_unique(out, assertion_names, decl.name, apath, "assertion")
        _check_identifier(out, apath, decl.name, "assertion name")
        _check_assertion_shape(out, apath, decl)
        _check_annotation(out, f"{apath}.annotation", decl.annotation, on_attribute=False)
        attr_names: set[str] = set()
        for attr in decl.attributes:
            attr_path = f"{apath}.attributes[{attr.name}]"
            _check_unique(out, attr_names, attr.name, attr_path, "attribute")
            _check_identifier(out, attr_path, attr.name, "attribute name")
            _check_annotation(out, f"{attr_path}.annotation", attr.annotation, on_attribute=True)
        for child in decl.nestable_children:
            if domain.assertion(child) is None:
                out.error("nestable-unknown", f"{apath}.nestableChildren",
                          f"nestable child {child!r} is not declared in domain "
                          f"{domain.domain_name!r}")
    return sorted(out.diagnostics, key=lambda d: (d.subject_path, d.code, d.message))


def _check_domains(out: _Collector, model: ServiceModel):
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
        for decl in domain.assertions:
            qname = QName(domain.target_namespace, decl.name)
            if qname in qnames:
                out.error("duplicate-qname", f"{path}.assertions[{decl.name}]",
                          f"assertion QName declared twice: {qname}")
            qnames.add(qname)


def _check_assertion_shape(out: _Collector, path: str, decl: AssertionDecl):
    if decl.type_kind not in TYPE_KINDS:
        out.error("assertion-shape", path, f"unknown typeKind {decl.type_kind!r}")
        return
    if decl.type_kind != "complex":
        if decl.attributes:
            out.error("assertion-shape", path,
                      f"attributes require typeKind complex, not {decl.type_kind!r}")
        if decl.nestable_children:
            out.error("assertion-shape", path,
                      f"nestableChildren require typeKind complex, not {decl.type_kind!r}")
    if decl.type_kind == "complex":
        if decl.simple_type is not None:
            out.error("assertion-shape", path, "simpleType is only allowed with typeKind simple")
        if not decl.attributes and not decl.nestable_children:
            out.error("assertion-shape", path,
                      "complex assertion must declare attributes or nestableChildren")
    if decl.type_kind == "empty" and decl.simple_type is not None:
        out.error("assertion-shape", path, "simpleType is only allowed with typeKind simple")


def _check_interfaces(out: _Collector, model: ServiceModel):
    table = model.namespace_table()
    names: set[str] = set()
    for iface in model.interfaces:
        path = f"interfaces[{iface.name}]"
        _check_unique(out, names, iface.name, path, "interface")
        _check_identifier(out, path, iface.name, "interface name")
        fault_names: set[str] = set()
        for fault in iface.faults:
            fpath = f"{path}.faults[{fault.name}]"
            _check_unique(out, fault_names, fault.name, fpath, "fault")
            _check_identifier(out, fpath, fault.name, "fault name")
            if fault.element_type is not None and fault.element_type.namespace not in table:
                out.error("namespace-undeclared", f"{fpath}.elementType",
                          f"namespace not in the model namespace table: "
                          f"{fault.element_type.namespace!r}")
        op_names: set[str] = set()
        for op in iface.operations:
            opath = f"{path}.operations[{op.name}]"
            _check_unique(out, op_names, op.name, opath, "operation")
            _check_identifier(out, opath, op.name, "operation name")
            for role, refs in (("inputs", op.inputs), ("outputs", op.outputs)):
                for i, ref in enumerate(refs):
                    rpath = f"{opath}.{role}[{i}]"
                    _check_identifier(out, rpath, ref.name, "message name")
                    if ref.element_type.namespace not in table:
                        out.error("namespace-undeclared", f"{rpath}.elementType",
                                  f"namespace not in the model namespace table: "
                                  f"{ref.element_type.namespace!r}")
            for fref in op.fault_refs:
                if _by_name(iface.faults, fref) is None:
                    out.error("fault-unresolved", f"{opath}.faultRefs",
                              f"fault {fref!r} is not declared on interface {iface.name!r}")


def _check_bindings(out: _Collector, model: ServiceModel):
    names: set[str] = set()
    for binding in model.bindings:
        path = f"bindings[{binding.name}]"
        _check_unique(out, names, binding.name, path, "binding")
        _check_identifier(out, path, binding.name, "binding name")
        if model.interface(binding.interface_ref) is None:
            out.error("interface-unresolved", f"{path}.interface",
                      f"interface {binding.interface_ref!r} is not declared")
        if not is_absolute_uri(binding.transport_protocol):
            out.error("bad-uri", f"{path}.transportProtocol",
                      f"not an absolute URI: {binding.transport_protocol!r}")


def _check_services(out: _Collector, model: ServiceModel):
    names: set[str] = set()
    for service in model.services:
        path = f"services[{service.name}]"
        _check_unique(out, names, service.name, path, "service")
        _check_identifier(out, path, service.name, "service name")
        if model.interface(service.interface_ref) is None:
            out.error("interface-unresolved", f"{path}.interface",
                      f"interface {service.interface_ref!r} is not declared")
        if not service.endpoints:
            out.error("no-endpoints", path, "a service needs at least one endpoint")
        endpoint_names: set[str] = set()
        for ep in service.endpoints:
            epath = f"{path}.endpoints[{ep.name}]"
            _check_unique(out, endpoint_names, ep.name, epath, "endpoint")
            _check_identifier(out, epath, ep.name, "endpoint name")
            if not is_absolute_uri(ep.address):
                out.error("bad-uri", f"{epath}.address", f"not an absolute URI: {ep.address!r}")
            binding = model.binding(ep.binding_ref)
            if binding is None:
                out.error("binding-unresolved", f"{epath}.binding",
                          f"binding {ep.binding_ref!r} is not declared")
            elif binding.interface_ref != service.interface_ref:
                out.error("binding-interface-mismatch", f"{epath}.binding",
                          f"binding {binding.name!r} is bound to interface "
                          f"{binding.interface_ref!r}, not {service.interface_ref!r}")


def _check_attachments(out: _Collector, model: ServiceModel):
    declared = {QName(d.target_namespace, a.name) for d in model.domains for a in d.assertions}
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for attachment in model.attachments:
        subject = attachment.subject
        path = f"attachments[{subject.path_string()}]"
        undeclared = {ref.qname for ref in iter_refs(attachment.policy)} - declared
        if undeclared:
            out.error("assertion-undeclared", path, "policy references an assertion "
                      f"declared in no domain: {min(undeclared)}")
        if not satisfiable(attachment.policy):
            out.error("policy-unsatisfiable", path, "policy is unsatisfiable (no alternatives)")
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
