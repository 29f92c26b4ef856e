"""Qualified names, namespace constants and URI helpers shared by every layer."""
from __future__ import annotations

import re
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit

XS_NS = "http://www.w3.org/2001/XMLSchema"
WSDL_NS = "http://www.w3.org/ns/wsdl"
WSP_NS = "http://www.w3.org/ns/ws-policy"
SAWSDL_NS = "http://www.w3.org/ns/sawsdl"

MEP_IN_OUT = "http://www.w3.org/ns/wsdl/in-out"
MEP_IN_ONLY = "http://www.w3.org/ns/wsdl/in-only"
MEP_OUT_ONLY = "http://www.w3.org/ns/wsdl/out-only"


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

    def sort_key(self) -> tuple[str, str]:
        return (self.namespace, self.local)

    def __reduce__(self):  # never carry a hash to a process with another hash seed
        return QName, (self.namespace, self.local)

    def __str__(self) -> str:
        if self.namespace:
            return "{%s}%s" % (self.namespace, self.local)
        return self.local


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

_HEX = set("0123456789abcdefABCDEF")

_UNRESERVED = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)


def is_ncname(s: str) -> bool:
    return bool(s) and ":" not in s and bool(_NCNAME_RE.match(s))


def check_xml_chars(text: str) -> str:
    """``text`` itself; ValueError naming its first non-XML character, if any."""
    bad = _NON_XML_CHAR_RE.search(text)
    if bad is not None:
        raise ValueError(f"character U+{ord(bad.group()):04X} is not allowed in XML 1.0")
    return text


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


def _normalize_percent(text: str) -> str:
    # Uppercase percent-escape hex digits; decode escapes of unreserved characters.
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "%" and i + 2 < n and text[i + 1] in _HEX and text[i + 2] in _HEX:
            octet = int(text[i + 1 : i + 3], 16)
            decoded = chr(octet)
            if decoded in _UNRESERVED:
                out.append(decoded)
            else:
                out.append("%" + text[i + 1 : i + 3].upper())
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


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
