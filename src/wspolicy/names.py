"""Qualified names, namespace constants, name and URI helpers shared by every layer."""
from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from functools import lru_cache, wraps
from urllib.parse import urlsplit, urlunsplit

XS_NS = "http://www.w3.org/2001/XMLSchema"
WSDL_NS = "http://www.w3.org/ns/wsdl"
WSP_NS = "http://www.w3.org/ns/ws-policy"
SAWSDL_NS = "http://www.w3.org/ns/sawsdl"
# Reserved by Namespaces in XML: the first is bound to ``xml`` only, the second to no prefix.
XML_NS = "http://www.w3.org/XML/1998/namespace"
XMLNS_NS = "http://www.w3.org/2000/xmlns/"

MEP_IN_OUT = "http://www.w3.org/ns/wsdl/in-out"
MEP_IN_ONLY = "http://www.w3.org/ns/wsdl/in-only"
MEP_OUT_ONLY = "http://www.w3.org/ns/wsdl/out-only"

# xs:appinfo sources of the schema annotations written by emit and read back by reader.
DOMAIN_NAME_APPINFO = "urn:x-wspolicy:domain-name"
NESTABLE_APPINFO = "urn:x-wspolicy:nestable-assertions"


@dataclass(frozen=True, order=True)
class QName:
    """A (namespace URI, local name) pair.

    Prefixes are presentation-only and assigned when documents are written;
    ordering is lexicographic on (namespace, local).
    """

    namespace: str
    local: str
    _hash = 0  # not a field: kept from the first __hash__, as most are never hashed

    def __hash__(self) -> int:
        if not self._hash:
            object.__setattr__(self, "_hash", hash((self.namespace, self.local)))
        return self._hash

    def __eq__(self, other: object) -> bool:  # identity first, and no tuples: dict lookups run it
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.local == other.local and self.namespace == other.namespace

    def sort_key(self) -> tuple[str, str]:
        return (self.namespace, self.local)

    def __reduce__(self):  # never carry a hash to a process with another hash seed
        return QName, (self.namespace, self.local)

    def __str__(self) -> str:
        if self.namespace:
            return "{%s}%s" % (self.namespace, self.local)
        return self.local


# Every fixed element and attribute name of the generated dialect, built once at
# import: emit writes them, and reader and cli read them back.
XS_ANNOTATION = QName(XS_NS, "annotation")
XS_ANY = QName(XS_NS, "any")
XS_APPINFO = QName(XS_NS, "appinfo")
XS_ATTRIBUTE = QName(XS_NS, "attribute")
XS_COMPLEX_TYPE = QName(XS_NS, "complexType")
XS_ELEMENT = QName(XS_NS, "element")
XS_IMPORT = QName(XS_NS, "import")
XS_SCHEMA = QName(XS_NS, "schema")
XS_SEQUENCE = QName(XS_NS, "sequence")
XS_STRING = QName(XS_NS, "string")

WSDL_BINDING = QName(WSDL_NS, "binding")
WSDL_DESCRIPTION = QName(WSDL_NS, "description")
WSDL_ENDPOINT = QName(WSDL_NS, "endpoint")
WSDL_FAULT = QName(WSDL_NS, "fault")
WSDL_INPUT = QName(WSDL_NS, "input")
WSDL_INTERFACE = QName(WSDL_NS, "interface")
WSDL_OPERATION = QName(WSDL_NS, "operation")
WSDL_OUTFAULT = QName(WSDL_NS, "outfault")
WSDL_OUTPUT = QName(WSDL_NS, "output")
WSDL_SERVICE = QName(WSDL_NS, "service")
WSDL_TYPES = QName(WSDL_NS, "types")
WSDL_MESSAGES = (WSDL_INPUT, WSDL_OUTPUT)
WSDL_FAULT_REFS = (QName(WSDL_NS, "infault"), WSDL_OUTFAULT)
UNTYPED = QName("", "untyped")  # the element of a message that names none

WSP_POLICY = QName(WSP_NS, "Policy")
WSP_ALL = QName(WSP_NS, "All")
WSP_EXACTLY_ONE = QName(WSP_NS, "ExactlyOne")
WSP_OPTIONAL = QName(WSP_NS, "Optional")

SAWSDL_MODEL_REFERENCE = QName(SAWSDL_NS, "modelReference")
SAWSDL_LIFTING = QName(SAWSDL_NS, "liftingSchemaMapping")
SAWSDL_LOWERING = QName(SAWSDL_NS, "loweringSchemaMapping")

# Unqualified attribute names; parameter names are the model's own data.
ATTR_ADDRESS = QName("", "address")
ATTR_BINDING = QName("", "binding")
ATTR_ELEMENT = QName("", "element")
ATTR_ELEMENT_FORM_DEFAULT = QName("", "elementFormDefault")
ATTR_INTERFACE = QName("", "interface")
ATTR_MESSAGE_LABEL = QName("", "messageLabel")
ATTR_MIN_OCCURS = QName("", "minOccurs")
ATTR_NAME = QName("", "name")
ATTR_NAMESPACE = QName("", "namespace")
ATTR_PATTERN = QName("", "pattern")
ATTR_PROCESS_CONTENTS = QName("", "processContents")
ATTR_REF = QName("", "ref")
ATTR_SCHEMA_LOCATION = QName("", "schemaLocation")
ATTR_SOURCE = QName("", "source")
ATTR_TARGET_NAMESPACE = QName("", "targetNamespace")
ATTR_TYPE = QName("", "type")


# Pragmatic NCName: a letter or underscore, then letters/digits/._- (no colon).
_NCNAME_RE = re.compile(r"^[^\W\d][\w.\-]*$", re.UNICODE)

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*$")

# Code points outside XML 1.0's Char production, as a regex class body: no
# escape can carry them, so no string written to XML may hold one.
NON_XML_CHARS = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_NON_XML_CHAR_RE = re.compile(f"[{NON_XML_CHARS}]")

# Whitespace (str.isspace), a C0 control character or a non-XML character:
# never inside a URI.
_URI_BAD_CHAR_RE = re.compile(f"[\\s\x00-\x1f{NON_XML_CHARS}]")

_PERCENT_ESCAPE_RE = re.compile("%[0-9A-Fa-f]{2}")

_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)


# Distinct strings whose answers each memoized name predicate keeps.
NAME_CACHE_SIZE = 4096


def _str_memo(predicate):
    """``predicate`` with its answers for ``str`` arguments kept in a bounded
    cache; any other value reaches ``predicate`` itself, as before."""
    cached = lru_cache(maxsize=NAME_CACHE_SIZE)(predicate)

    @wraps(predicate)
    def check(s):
        if s.__class__ is str:
            return cached(s)
        return predicate(s)

    check.cache_info = cached.cache_info
    return check


@_str_memo
def is_ncname(s: str) -> bool:
    return bool(s) and ":" not in s and bool(_NCNAME_RE.match(s))


def check_xml_chars(text: str) -> str:
    """``text`` itself; ValueError naming its first non-XML character, if any."""
    bad = _NON_XML_CHAR_RE.search(text)
    if bad is not None:
        raise ValueError(f"character U+{ord(bad.group()):04X} is not allowed in XML 1.0")
    return text


@_str_memo
def is_absolute_uri(s: str) -> bool:
    """True for absolute URI references: a scheme is required, a fragment is allowed."""
    if not s:
        return False
    if _URI_BAD_CHAR_RE.search(s):
        return False
    try:
        parts = urlsplit(s)
    except ValueError:
        return False
    if not parts.scheme or not _SCHEME_RE.match(parts.scheme):
        return False
    return bool(parts.netloc or parts.path or parts.query or parts.fragment)


def _percent_escape(match: re.Match) -> str:
    decoded = chr(int(match[0][1:], 16))
    return decoded if decoded in _UNRESERVED else match[0].upper()


def _normalize_percent(text: str) -> str:
    # Uppercase percent-escape hex digits; decode escapes of unreserved characters.
    return _PERCENT_ESCAPE_RE.sub(_percent_escape, text)


def _remove_dot_segments(path: str) -> str:
    rest = path
    output: list[str] = []
    while rest:
        if rest.startswith("../"):
            rest = rest[3:]
        elif rest.startswith("./"):
            rest = rest[2:]
        elif rest.startswith("/./"):
            rest = "/" + rest[3:]
        elif rest == "/.":
            rest = "/"
        elif rest.startswith("/../"):
            rest = "/" + rest[4:]
            if output:
                output.pop()
        elif rest == "/..":
            rest = "/"
            if output:
                output.pop()
        elif rest in (".", ".."):
            rest = ""
        else:
            cut = rest.find("/", 1) if rest.startswith("/") else rest.find("/")
            if cut == -1:
                output.append(rest)
                rest = ""
            else:
                output.append(rest[:cut])
                rest = rest[cut:]
    return "".join(output)


def normalize_uri(s: str) -> str:
    """RFC 3986 syntax-based normalization.

    Lowercases the scheme and host, uppercases percent-escapes, decodes
    escaped unreserved characters and removes dot segments.  No scheme-based
    steps (default ports are kept).
    """
    try:
        parts = urlsplit(s)
    except ValueError:
        return s
    scheme = parts.scheme.lower()
    netloc = parts.netloc
    if netloc:
        userinfo, sep, hostport = netloc.rpartition("@")
        netloc = _normalize_percent(userinfo) + sep + _normalize_percent(hostport.lower())
    path = _normalize_percent(parts.path)
    if netloc or scheme:
        path = _remove_dot_segments(path)
    query = _normalize_percent(parts.query)
    fragment = _normalize_percent(parts.fragment)
    return urlunsplit((scheme, netloc, path, query, fragment))


def nogc(fn):
    """``fn`` run with the cyclic garbage collector paused, if it was running.

    For calls that build large trees of acyclic objects that all stay
    reachable, which the collector would scan again and again for nothing.
    The collector is process-wide: a caller that disabled it, or a call nested
    in another paused one, finds it stopped and leaves it so.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
