"""Parsing and serialization of the declarative service-model file.

The format is JSON (UTF-8), version "1.0"; docs/model-format.md is the
normative key reference.  Parsing is strict: unknown keys, missing required
fields and malformed URIs are schema errors naming the offending path.
Serialization is canonical (fixed key order, 2-space indent, named collections
sorted) so parse and serialize invert each other exactly.

Each JSON object type is one ``_Table`` of fields in canonical key order.  A
field names its JSON key, the model attribute it fills, the codec that reads
and writes its value, and its presence; ``parse_model`` and
``serialize_model`` both walk these tables; each table builds its parse plan
once, at import.  One builder, ``_checked``, makes every codec of a string
that must be an NCName, an absolute URI or a fixed choice, list items and
prefixes included.  Only the policy-expression form (one key naming the
operator), ``formatVersion`` and the uniqueness checks on lists are written
out by hand.
"""
from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple, Optional

from .algebra import (
    MAX_POLICY_DEPTH, All, AssertionRef, ExactlyOne, ParamValue, Policy, PolicyExpr,
    check_param_value,
)
from .errors import ModelSchemaError, ModelSyntaxError
from .model import (
    AssertionDecl,
    AttributeDecl,
    BindingDecl,
    DomainSchema,
    Endpoint,
    ExternalNamespace,
    FaultDecl,
    InterfaceDecl,
    MessageRef,
    OperationDecl,
    PolicyAttachment,
    SemanticAnnotation,
    ServiceDecl,
    ServiceModel,
    SubjectRef,
    SUBJECT_KINDS,
    TYPE_KINDS,
)
from .names import QName, check_xml_chars, is_absolute_uri, is_ncname, nogc

FORMAT_VERSION = "1.0"

# Field presence.  Absent optional fields take the model's default; when
# serializing, an empty optional value (None, False or an empty collection)
# is omitted, while required and ``WRITTEN`` fields are always written.
REQUIRED = "required"
OPTIONAL = "optional"
WRITTEN = "written"   # optional when parsing, written even when empty


class _Fault(Exception):
    """A schema violation on its way out to ``parse_model``.

    The check that finds it raises it bare; every enclosing field and list
    position appends its path segment (``.key`` or ``[i]``) as it unwinds, so
    no path is built unless something is wrong.
    """

    def __init__(self, message: str, *segments: str):
        super().__init__(message)
        self.message = message
        self.segments = list(segments)   # innermost first

    def error(self) -> ModelSchemaError:
        return ModelSchemaError("".join(reversed(self.segments)).lstrip("."), self.message)


class _Codec(NamedTuple):
    """How one field value is read from JSON and written back."""

    parse: Callable[[Any, int], Any]   # (JSON value, policy depth) -> model value
    dump: Callable[[Any], Any]
    missing: Optional[str] = None      # reported at the key itself when a required key is absent


class _Field(NamedTuple):
    key: str
    attr: str
    codec: Any   # a _Codec or a _Table
    presence: str = OPTIONAL


def _absent(field: _Field) -> Optional[tuple]:
    """The ``_Fault`` arguments for a required field's absent key; None if optional."""
    if field.presence is not REQUIRED:
        return None
    if field.codec.missing is None:
        return (f"missing required field {field.key!r}",)
    return (field.codec.missing, "." + field.key)


class _Table:
    """One JSON object type: its fields in canonical order and the class it
    builds; ``plan`` holds each field's key, attribute, parse function and
    ``_absent`` fault."""

    missing = None

    def __init__(self, cls, *fields: _Field):
        self.cls = cls
        self.fields = fields
        self.keys = frozenset(field.key for field in fields)
        self.plan = tuple((f.key, f.attr, f.codec.parse, _absent(f)) for f in fields)

    def parse(self, raw, depth: int):
        if not isinstance(raw, dict):
            raise _Fault(f"expected an object, got {type(raw).__name__}")
        if not self.keys.issuperset(raw):
            raise _Fault("unknown key", "." + next(k for k in raw if k not in self.keys))
        values = {}
        for key, attr, parse, missing in self.plan:
            if key in raw:
                try:
                    values[attr] = parse(raw[key], depth)
                except _Fault as fault:
                    fault.segments.append("." + key)
                    raise
            elif missing:
                raise _Fault(*missing)
        return self.cls(**values)

    def dump(self, obj) -> dict:
        out = {}
        for key, attr, codec, presence in self.fields:
            value = getattr(obj, attr)
            if value or presence is not OPTIONAL:
                out[key] = codec.dump(value)
        return out


def _as_is(value):
    return value


def _string(raw, depth: int) -> str:
    """A string that XML can carry: every character in XML 1.0's Char production."""
    if not isinstance(raw, str):
        raise _Fault(f"expected a string, got {type(raw).__name__}")
    try:
        return check_xml_chars(raw)
    except ValueError as exc:
        raise _Fault(str(exc)) from None


def _checked(accepts: Callable[[str], bool], message: str, item: bool = False) -> _Codec:
    """The codec of a string that ``accepts`` must approve; ``message`` formats
    the refused string's repr.  A field's non-string value is reported by its
    type, a list item's or prefix's (``item``) by its repr, like a refused
    string.  ``accepts`` refuses non-XML characters itself."""
    def parse(raw, depth: int) -> str:
        if isinstance(raw, str):
            if accepts(raw):
                return raw
        elif not item:
            raise _Fault(f"expected a string, got {type(raw).__name__}")
        raise _Fault(message.format(raw))

    return _Codec(parse, _as_is)


def _one_of(choices: tuple[str, ...]) -> _Codec:
    return _checked(choices.__contains__, f"expected one of {choices}, got {{!r}}")


def _token(raw, depth: int) -> str:
    if not _string(raw, depth):
        raise _Fault("must be a non-empty token")
    return raw


def _boolean(raw, depth: int) -> bool:
    if not isinstance(raw, bool):
        raise _Fault("expected a boolean")
    return raw


_NCNAME = _checked(is_ncname, "not an NCName: {!r}")
_URI = _checked(is_absolute_uri, "not an absolute URI: {!r}")
_NCNAME_ITEM = _checked(is_ncname, "not an NCName: {!r}", item=True)
_URI_ITEM = _checked(is_absolute_uri, "not an absolute URI: {!r}", item=True)
_VERSION = _checked(FORMAT_VERSION.__eq__,
                    f"unrecognized version {{!r}}, expected {FORMAT_VERSION!r}")


def _prefix(raw, depth: int) -> Optional[str]:
    return None if raw is None else _NCNAME_ITEM.parse(raw, depth)


def _param_value(raw, depth: int) -> ParamValue:
    try:
        return check_param_value(raw)
    except ValueError as exc:
        raise _Fault(str(exc)) from None


def _items(raw: list, parse, depth: int) -> tuple:
    out = []
    try:
        for value in raw:
            out.append(parse(value, depth))
    except _Fault as fault:
        fault.segments.append(f"[{len(out)}]")
        raise
    return tuple(out)


def _list_of(item) -> _Codec:
    def parse(raw, depth: int) -> tuple:
        if not isinstance(raw, list):
            raise _Fault(f"expected a list, got {type(raw).__name__}")
        return _items(raw, item.parse, depth)

    return _Codec(parse, lambda values: [item.dump(value) for value in values])


def _distinct(item: _Table, key, message) -> _Codec:
    """A list of objects in which no two share ``key(obj)``."""
    listed = _list_of(item)

    def parse(raw, depth: int) -> tuple:
        values = listed.parse(raw, depth)
        seen = set()
        for i, value in enumerate(values):
            if key(value) in seen:
                raise _Fault(message(value), f"[{i}]")
            seen.add(key(value))
        return values

    return _Codec(parse, listed.dump)


def _uris(raw, depth: int) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise _Fault(_URIS.missing)
    return _items(raw, _URI_ITEM.parse, depth)


def _identifiers(raw, depth: int) -> tuple:
    if not isinstance(raw, list) or not all(isinstance(part, str) for part in raw):
        raise _Fault(_IDENTIFIERS.missing)
    return _items(raw, _string, depth)


_STRING = _Codec(_string, _as_is)
_URIS = _Codec(_uris, list, "expected a non-empty list of URIs")
_IDENTIFIERS = _Codec(_identifiers, list, "expected a list of identifiers")


# --- policy expressions ------------------------------------------------------
#
# A policy expression is an object with exactly one key, which names its form.

_FORMS = {"policy": Policy, "all": All, "exactlyOne": ExactlyOne, "assertion": AssertionRef}
_FORM_KEYS = {form: key for key, form in _FORMS.items()}
_ONE_FORM = "expected exactly one of " + ", ".join(map(repr, _FORMS))


def _policy_expr(raw, depth: int) -> PolicyExpr:
    """Parse one expression object at the given level; the root policy is level 1."""
    if depth > MAX_POLICY_DEPTH:
        raise _Fault(f"policy nested deeper than {MAX_POLICY_DEPTH} levels")
    if not isinstance(raw, dict):
        raise _Fault(f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in _FORMS:
            raise _Fault("unknown key", "." + key)
    if len(raw) != 1:
        raise _Fault(_ONE_FORM)
    ((key, body),) = raw.items()
    form = _FORMS[key]
    try:
        if form is AssertionRef:
            return _ASSERTION_REF.parse(body, depth)
        if not isinstance(body, list):
            raise _Fault(f"expected a list, got {type(body).__name__}")
        return form(*_items(body, _policy_expr, depth + 1))
    except _Fault as fault:
        fault.segments.append("." + key)
        raise


def _policy_json(expr: PolicyExpr) -> dict:
    """Inverse of _policy_expr."""
    key = _FORM_KEYS[type(expr)]
    if isinstance(expr, AssertionRef):
        return {key: _ASSERTION_REF.dump(expr)}
    return {key: [_policy_json(child) for child in expr.children]}


def _root_policy(raw, depth: int) -> Policy:
    policy = _policy_expr(raw, depth + 1)
    if not isinstance(policy, Policy):
        raise _Fault("an attachment policy must use the 'policy' form at the root")
    return policy


def _nested_policy(raw, depth: int) -> Policy:
    if not isinstance(raw, dict):
        raise _Fault(f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key != _FORM_KEYS[Policy]:
            raise _Fault("unknown key", "." + key)
    if not raw:
        raise _Fault("nested policies must use the 'policy' form")
    return _policy_expr(raw, depth + 1)


class _Parameter(NamedTuple):
    name: str
    value: ParamValue


# --- the field tables ---------------------------------------------------------

_QNAME = _Table(
    QName,
    _Field("namespace", "namespace", _STRING, REQUIRED),
    _Field("local", "local", _NCNAME, REQUIRED),
)
_ANNOTATION = _Table(
    SemanticAnnotation,
    _Field("modelReference", "model_reference", _URIS, REQUIRED),
    _Field("loweringSchema", "lowering_schema", _URI),
    _Field("liftingSchema", "lifting_schema", _URI),
)
_ATTRIBUTE = _Table(
    AttributeDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("simpleType", "simple_type", _QNAME, REQUIRED),
    _Field("annotation", "annotation", _ANNOTATION),
)
_ASSERTION = _Table(
    AssertionDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("typeKind", "type_kind", _one_of(TYPE_KINDS), REQUIRED),
    _Field("simpleType", "simple_type", _QNAME),
    _Field("attributes", "attributes", _list_of(_ATTRIBUTE)),
    _Field("nestableChildren", "nestable_children", _list_of(_NCNAME_ITEM)),
    _Field("annotation", "annotation", _ANNOTATION),
)
_DOMAIN = _Table(
    DomainSchema,
    _Field("name", "domain_name", _NCNAME, REQUIRED),
    _Field("targetNamespace", "target_namespace", _URI, REQUIRED),
    _Field("prefix", "prefix", _NCNAME, REQUIRED),
    _Field("assertions", "assertions", _list_of(_ASSERTION), WRITTEN),
)
_MESSAGE_REF = _Table(
    MessageRef,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("elementType", "element_type", _QNAME, REQUIRED),
)
_FAULT = _Table(
    FaultDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("elementType", "element_type", _QNAME),
)
_OPERATION = _Table(
    OperationDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("inputs", "inputs", _list_of(_MESSAGE_REF)),
    _Field("outputs", "outputs", _list_of(_MESSAGE_REF)),
    _Field("faultRefs", "fault_refs", _list_of(_STRING)),
)
_INTERFACE = _Table(
    InterfaceDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("operations", "operations", _list_of(_OPERATION)),
    _Field("faults", "faults", _list_of(_FAULT)),
)
_BINDING = _Table(
    BindingDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("interface", "interface_ref", _STRING, REQUIRED),
    _Field("transportProtocol", "transport_protocol", _URI, REQUIRED),
    _Field("messageEncoding", "message_encoding", _Codec(_token, _as_is), REQUIRED),
)
_ENDPOINT = _Table(
    Endpoint,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("binding", "binding_ref", _STRING, REQUIRED),
    _Field("address", "address", _URI, REQUIRED),
)
_SERVICE = _Table(
    ServiceDecl,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("interface", "interface_ref", _STRING, REQUIRED),
    _Field("endpoints", "endpoints", _list_of(_ENDPOINT), WRITTEN),
)
_PARAMETER = _Table(
    _Parameter,
    _Field("name", "name", _NCNAME, REQUIRED),
    _Field("value", "value", _Codec(_param_value, _as_is), REQUIRED),
)
_PARAMETERS = _distinct(
    _PARAMETER, lambda p: p.name, lambda p: f"duplicate parameter name {p.name!r}"
)
_ASSERTION_REF = _Table(
    AssertionRef,
    _Field("qname", "qname", _QNAME, REQUIRED),
    _Field("optional", "optional", _Codec(_boolean, _as_is)),
    # AssertionRef holds its parameters as plain (name, value) pairs.
    _Field("parameters", "parameters",
           _Codec(_PARAMETERS.parse, lambda pairs: _PARAMETERS.dump(map(_Parameter._make, pairs)))),
    _Field("nested", "nested", _Codec(_nested_policy, _policy_json)),
)
_SUBJECT = _Table(
    SubjectRef,
    _Field("kind", "kind", _one_of(SUBJECT_KINDS), REQUIRED),
    _Field("path", "path", _IDENTIFIERS, REQUIRED),
)
_ATTACHMENT = _Table(
    PolicyAttachment,
    _Field("subject", "subject", _SUBJECT, REQUIRED),
    _Field("policy", "policy", _Codec(_root_policy, _policy_json), REQUIRED),
)
_EXTERNAL_NAMESPACE = _Table(
    ExternalNamespace,
    _Field("namespace", "namespace", _URI, REQUIRED),
    _Field("prefix", "prefix", _Codec(_prefix, _as_is)),
)
_MODEL = _Table(
    ServiceModel,
    _Field("modelName", "model_name", _STRING, REQUIRED),
    _Field("targetNamespace", "target_namespace", _URI, REQUIRED),
    _Field("externalNamespaces", "external_namespaces", _list_of(_EXTERNAL_NAMESPACE)),
    _Field("domains", "domains", _list_of(_DOMAIN)),
    _Field("interfaces", "interfaces", _list_of(_INTERFACE)),
    _Field("bindings", "bindings", _list_of(_BINDING)),
    _Field("services", "services", _list_of(_SERVICE)),
    _Field("attachments", "attachments", _distinct(
        _ATTACHMENT,
        lambda a: a.subject,
        lambda a: f"second attachment for subject {a.subject.path_string()!r}; "
                  "pre-merge policies instead",
    )),
)
_MODEL.keys |= {"formatVersion"}


def _check_version(doc: dict) -> None:
    if "formatVersion" not in doc:
        raise _Fault("missing required field 'formatVersion'")
    try:
        _VERSION.parse(doc["formatVersion"], 0)
    except _Fault as fault:
        fault.segments.append(".formatVersion")
        raise


@nogc
def parse_model(data: bytes) -> ServiceModel:
    """Parse a model document into a fully linked ServiceModel.

    Reference checking is validate_model's job; this only enforces the file
    schema (types, required fields, unknown keys, URI syntax, policy depth,
    one attachment per subject).  The cyclic garbage collector is paused
    while it runs (see ``names.nogc``).
    """
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
        if isinstance(doc, dict):
            _check_version(doc)
        return _MODEL.parse(doc, 0)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        # json.loads, or the repr of a deeply nested value in a message.
        raise ModelSyntaxError("document nested too deeply to parse") from None
    except _Fault as fault:
        raise fault.error() from None


def serialize_model(model: ServiceModel) -> bytes:
    """Canonical document bytes; empty optional collections are omitted."""
    doc = {"formatVersion": FORMAT_VERSION, **_MODEL.dump(model)}
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
