"""Namespace-aware XML tree with deterministic canonical serialization.

The writer produces byte-identical output for equal documents: 2-space
indentation, namespace declarations first (sorted by prefix), attributes
sorted by qualified name, empty elements self-closed.  The parser is built on
expat with namespace processing; it refuses DOCTYPE declarations outright, so
no DTD or external entity is ever processed, and it records the in-scope
prefix map on every element for resolving QName-valued attributes.
"""
from __future__ import annotations

import re
import xml.parsers.expat
from typing import Iterable, Optional, Union

from .errors import XmlParseError
from .names import NON_XML_CHARS, QName, Value, check_xml_chars, is_ncname

Child = Union["XmlElement", str]
_set = object.__setattr__


class XmlElement:
    """One element: name, attributes in insertion order, children.

    Treated as a value; nothing in this package mutates an element after
    construction.  ``nsmap`` is the prefix table in scope where the parser saw
    the element (empty for built trees), kept as given: the parser hands an
    element that declares no prefix its parent's table.
    """

    __slots__ = ("name", "attributes", "children", "nsmap")

    def __init__(
        self,
        name: QName,
        attributes: Iterable[tuple[QName, str]] = (),
        children: Iterable[Child] = (),
        nsmap: Optional[dict[str, str]] = None,
    ):
        self.name = name
        self.attributes: list[tuple[QName, str]] = list(attributes)
        self.children: list[Child] = list(children)
        self.nsmap: dict[str, str] = {} if nsmap is None else nsmap

    def attr(self, name: Union[QName, str]) -> Optional[str]:
        if isinstance(name, str):
            name = QName("", name)
        for qname, value in self.attributes:
            if qname == name:
                return value
        return None

    def element_children(self) -> list["XmlElement"]:
        return [c for c in self.children if isinstance(c, XmlElement)]

    def find_all(self, name: QName) -> list["XmlElement"]:
        return [c for c in self.element_children() if c.name == name]

    def find(self, name: QName) -> Optional["XmlElement"]:
        found = self.find_all(name)
        return found[0] if found else None

    def text(self) -> str:
        return "".join(c for c in self.children if isinstance(c, str))

    def __repr__(self) -> str:
        return f"<XmlElement {self.name} attrs={len(self.attributes)} children={len(self.children)}>"


class XmlDocument(Value):
    """A root element plus the namespace declarations written on it."""

    __slots__ = ("root", "namespaces")

    def __init__(self, root: XmlElement, namespaces: Optional[dict[str, str]] = None):
        _set(self, "root", root)
        _set(self, "namespaces", {} if namespaces is None else namespaces)  # prefix -> URI


def _split_expat_name(name: str) -> QName:
    # ParserCreate(namespace_separator="}") yields "uri}local" for qualified names.
    if "}" in name:
        namespace, local = name.rsplit("}", 1)
        return QName(namespace, local)
    return QName("", name)


def parse_xml(data: bytes) -> XmlDocument:
    """Parse into an XmlDocument; whitespace-only text is discarded."""
    parser = xml.parsers.expat.ParserCreate(namespace_separator="}")
    parser.ordered_attributes = True
    parser.buffer_text = True

    root: list[XmlElement] = []
    stack: list[XmlElement] = []
    pending_decls: dict[str, str] = {}
    root_decls: dict[str, str] = {}
    text_parts: list[str] = []

    def flush_text():
        if not text_parts:
            return
        text = "".join(text_parts)
        text_parts.clear()
        if stack and text.strip():
            stack[-1].children.append(text)

    def start_doctype(*_args):
        raise XmlParseError(
            "DOCTYPE declarations are not allowed",
            parser.ErrorLineNumber or parser.CurrentLineNumber,
            parser.ErrorColumnNumber or parser.CurrentColumnNumber,
        )

    def start_ns(prefix, uri):
        pending_decls[prefix or ""] = uri or ""

    def start_element(name, attr_list):
        flush_text()
        nsmap = stack[-1].nsmap if stack else {}
        if pending_decls:
            if not stack:
                root_decls.update(pending_decls)
            nsmap = {**nsmap, **pending_decls}
            pending_decls.clear()
        attributes = []
        for i in range(0, len(attr_list), 2):
            attributes.append((_split_expat_name(attr_list[i]), attr_list[i + 1]))
        element = XmlElement(_split_expat_name(name), attributes, (), nsmap)
        if stack:
            stack[-1].children.append(element)
        else:
            root.append(element)
        stack.append(element)

    def end_element(_name):
        flush_text()
        stack.pop()

    def char_data(text):
        text_parts.append(text)

    parser.StartDoctypeDeclHandler = start_doctype
    parser.StartNamespaceDeclHandler = start_ns
    parser.StartElementHandler = start_element
    parser.EndElementHandler = end_element
    parser.CharacterDataHandler = char_data

    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        # str(exc) already ends in the position, which XmlParseError appends.
        raise XmlParseError(xml.parsers.expat.ErrorString(exc.code), exc.lineno, exc.offset) from exc
    if not root:
        raise XmlParseError("no root element")
    return XmlDocument(root[0], root_decls)


_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ATTR_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "\n": "&#10;",
    "\t": "&#9;",
    "\r": "&#13;",
}
# One search finds any character that needs an escape or must be refused.
_TEXT_SPECIAL_RE = re.compile(f"[&<>\r{NON_XML_CHARS}]")
_ATTR_SPECIAL_RE = re.compile(f'[&<>"\n\t\r{NON_XML_CHARS}]')


def _escape(text: str, special: re.Pattern, table: dict[str, str]) -> str:
    """``text`` with each key of ``table`` replaced; ValueError for a non-XML character."""
    if special.search(text) is None:
        return text
    check_xml_chars(text)
    for raw, escaped in table.items():
        text = text.replace(raw, escaped)
    return text


def write_canonical(doc: XmlDocument) -> bytes:
    """Serialize with a fixed layout; equal documents yield identical bytes.

    Every namespace used by an element or qualified attribute must be declared
    in the document table, and attribute names must be unique per element.
    Text, attribute values and namespace URIs must hold only XML 1.0
    characters: any other code point raises ValueError, as no escape can
    carry it.  Each distinct name is checked and qualified once per call and
    remembered in a dict local to the call; the checks run in document order,
    so the first fault met raises.
    """
    declarations = sorted(doc.namespaces.items())
    prefix_of: dict[str, str] = {}
    for prefix, uri in declarations:
        prefix_of.setdefault(uri, prefix)
    element_names: dict[QName, str] = {}
    attribute_names: dict[QName, str] = {}

    def qualified(name: QName, attribute: bool) -> str:
        if not is_ncname(name.local):
            raise ValueError(f"not a valid XML name: {name.local!r}")
        if not name.namespace:
            result = name.local
        else:
            prefix = prefix_of.get(name.namespace)
            if prefix is None:
                raise ValueError(f"namespace not declared on the document: {name.namespace!r}")
            if prefix == "":
                if attribute:
                    raise ValueError(f"qualified attribute {name} needs an explicit prefix, "
                                     "not the default namespace")
                result = name.local
            else:
                result = f"{prefix}:{name.local}"
        (attribute_names if attribute else element_names)[name] = result
        return result

    lines: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']

    def render(element: XmlElement, indent: str, declare: bool):
        tag = element_names.get(element.name) or qualified(element.name, attribute=False)
        parts = [tag]
        if declare:
            for prefix, uri in declarations:
                attr = f'xmlns:{prefix}' if prefix else "xmlns"
                parts.append(f'{attr}="{_escape(uri, _ATTR_SPECIAL_RE, _ATTR_ESCAPES)}"')
        if element.attributes:
            seen: set[str] = set()
            rendered = []
            for qname, value in element.attributes:
                qualified_name = attribute_names.get(qname) or qualified(qname, attribute=True)
                if qualified_name in seen:
                    raise ValueError(f"duplicate attribute {qualified_name!r} on {element.name}")
                seen.add(qualified_name)
                rendered.append((qualified_name, value))
            rendered.sort()
            for qualified_name, value in rendered:
                value = _escape(value, _ATTR_SPECIAL_RE, _ATTR_ESCAPES)
                parts.append(f'{qualified_name}="{value}"')
        open_tag = " ".join(parts)

        elements: list[XmlElement] = []
        texts: list[str] = []
        for child in element.children:
            if isinstance(child, XmlElement):
                elements.append(child)
            elif isinstance(child, str):
                texts.append(child)
        text = "".join(texts)
        if elements and text.strip():
            raise ValueError(f"mixed content is not supported (element {element.name})")
        if not elements and not text:
            lines.append(f"{indent}<{open_tag}/>")
        elif not elements:
            text = _escape(text, _TEXT_SPECIAL_RE, _TEXT_ESCAPES)
            lines.append(f"{indent}<{open_tag}>{text}</{tag}>")
        else:
            lines.append(f"{indent}<{open_tag}>")
            child_indent = indent + "  "
            for child in elements:
                render(child, child_indent, declare=False)
            lines.append(f"{indent}</{tag}>")

    render(doc.root, "", declare=True)
    return ("\n".join(lines) + "\n").encode("utf-8")
