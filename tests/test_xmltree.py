import random
import re

import pytest

from wspolicy import QName, XmlDocument, XmlElement, parse_xml, write_canonical
from wspolicy.errors import XmlParseError
from wspolicy.names import is_ncname

NS_A = "http://example.org/a"
NS_B = "http://example.org/b"


def doc_with(attrs):
    root = XmlElement(QName(NS_A, "root"), attrs, [XmlElement(QName(NS_A, "leaf"))])
    return XmlDocument(root, {"a": NS_A, "b": NS_B})


def test_write_is_deterministic():
    doc = doc_with([(QName("", "x"), "1"), (QName(NS_B, "y"), "2")])
    assert write_canonical(doc) == write_canonical(doc)


def test_attribute_order_does_not_matter():
    one = doc_with([(QName("", "x"), "1"), (QName(NS_B, "y"), "2")])
    two = doc_with([(QName(NS_B, "y"), "2"), (QName("", "x"), "1")])
    assert write_canonical(one) == write_canonical(two)


def test_layout_is_the_documented_one():
    doc = doc_with([(QName(NS_B, "y"), "2"), (QName("", "x"), "1")])
    assert write_canonical(doc).decode() == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<a:root xmlns:a="http://example.org/a" xmlns:b="http://example.org/b" '
        'b:y="2" x="1">\n'
        "  <a:leaf/>\n"
        "</a:root>\n"
    )


def test_text_content_and_escaping():
    root = XmlElement(
        QName(NS_A, "root"),
        [(QName("", "attr"), 'va"l<&\n')],
        [XmlElement(QName(NS_A, "t"), (), ["a < b & c > d"])],
    )
    payload = write_canonical(XmlDocument(root, {"a": NS_A}))
    parsed = parse_xml(payload)
    assert parsed.root.attr("attr") == 'va"l<&\n'
    assert parsed.root.element_children()[0].text() == "a < b & c > d"


def test_undeclared_namespace_is_an_error():
    root = XmlElement(QName(NS_A, "root"))
    with pytest.raises(ValueError):
        write_canonical(XmlDocument(root, {}))


def test_duplicate_attribute_is_an_error():
    root = XmlElement(QName(NS_A, "r"), [(QName("", "x"), "1"), (QName("", "x"), "2")])
    with pytest.raises(ValueError):
        write_canonical(XmlDocument(root, {"a": NS_A}))


def test_mixed_content_is_an_error():
    root = XmlElement(QName(NS_A, "r"), (), ["text", XmlElement(QName(NS_A, "c"))])
    with pytest.raises(ValueError):
        write_canonical(XmlDocument(root, {"a": NS_A}))


def test_parse_tracks_prefix_scopes():
    payload = (
        b'<r xmlns="http://d/" xmlns:p="http://p/">'
        b'<p:c xmlns:q="http://q/" t="q:name"/></r>'
    )
    doc = parse_xml(payload)
    assert doc.root.name == QName("http://d/", "r")
    child = doc.root.element_children()[0]
    assert child.name == QName("http://p/", "c")
    assert child.nsmap["q"] == "http://q/"
    assert child.nsmap["p"] == "http://p/"
    assert child.nsmap[""] == "http://d/"
    assert doc.namespaces == {"": "http://d/", "p": "http://p/"}


def test_parse_drops_whitespace_only_text():
    doc = parse_xml(b"<r xmlns='http://d/'>\n  <c/>\n</r>")
    assert doc.root.children == doc.root.element_children()


def test_doctype_is_rejected():
    with pytest.raises(XmlParseError):
        parse_xml(b'<!DOCTYPE r [<!ENTITY x "y">]><r>&x;</r>')


def test_unbound_prefix_is_rejected():
    with pytest.raises(XmlParseError) as err:
        parse_xml(b"<p:r/>")
    assert err.value.line is not None


def test_malformed_xml_reports_position():
    with pytest.raises(XmlParseError) as err:
        parse_xml(b"<r><open></r>")
    assert err.value.line == 1


def test_write_parse_write_is_stable():
    doc = doc_with([(QName("", "x"), "1")])
    payload = write_canonical(doc)
    reparsed = parse_xml(payload)
    assert write_canonical(XmlDocument(reparsed.root, reparsed.namespaces)) == payload


# --- the writer against its reference ------------------------------------------
#
# _write_canonical_reference is the writer as it was before names were
# memoized per call and escaping was guarded by one search: it qualifies every
# name where it meets it and runs every replacement on every value.  It has no
# check for non-XML characters, so the random documents below hold none.

_REF_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_REF_ATTR_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    '"': "&quot;",
    "\n": "&#10;",
    "\t": "&#9;",
    "\r": "&#13;",
}


def _ref_escape(text: str, table: dict[str, str]) -> str:
    for raw, escaped in table.items():
        text = text.replace(raw, escaped)
    return text


def _write_canonical_reference(doc: XmlDocument) -> bytes:
    prefix_of: dict[str, str] = {}
    for prefix, uri in sorted(doc.namespaces.items()):
        prefix_of.setdefault(uri, prefix)

    def qualified(name: QName, attribute: bool) -> str:
        if not is_ncname(name.local):
            raise ValueError(f"not a valid XML name: {name.local!r}")
        if not name.namespace:
            return name.local
        prefix = prefix_of.get(name.namespace)
        if prefix is None:
            raise ValueError(f"namespace not declared on the document: {name.namespace!r}")
        if prefix == "":
            if attribute:
                raise ValueError(
                    f"qualified attribute {name} needs an explicit prefix, not the default namespace"
                )
            return name.local
        return f"{prefix}:{name.local}"

    lines: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']

    def render(element: XmlElement, depth: int, declare: bool):
        indent = "  " * depth
        parts = [qualified(element.name, attribute=False)]
        if declare:
            for prefix, uri in sorted(doc.namespaces.items()):
                attr = f'xmlns:{prefix}' if prefix else "xmlns"
                parts.append(f'{attr}="{_ref_escape(uri, _REF_ATTR_ESCAPES)}"')
        seen: set[str] = set()
        rendered = []
        for qname, value in element.attributes:
            qualified_name = qualified(qname, attribute=True)
            if qualified_name in seen:
                raise ValueError(f"duplicate attribute {qualified_name!r} on {element.name}")
            seen.add(qualified_name)
            rendered.append((qualified_name, value))
        for qualified_name, value in sorted(rendered):
            parts.append(f'{qualified_name}="{_ref_escape(value, _REF_ATTR_ESCAPES)}"')
        open_tag = " ".join(parts)

        elements = element.element_children()
        text = element.text()
        if elements and text.strip():
            raise ValueError(f"mixed content is not supported (element {element.name})")
        if not elements and not text:
            lines.append(f"{indent}<{open_tag}/>")
        elif not elements:
            closing = qualified(element.name, attribute=False)
            lines.append(f"{indent}<{open_tag}>{_ref_escape(text, _REF_TEXT_ESCAPES)}</{closing}>")
        else:
            lines.append(f"{indent}<{open_tag}>")
            for child in elements:
                render(child, depth + 1, declare=False)
            lines.append(f"{indent}</{qualified(element.name, attribute=False)}>")

    render(doc.root, 0, declare=True)
    return ("\n".join(lines) + "\n").encode("utf-8")


NS_C = "http://example.org/c"   # declared only by some documents
LOCALS = ("a", "b", "item", "x-1", "_y.z", "\u00e9t\u00e9")
BAD_LOCALS = ("1a", "a:b", "", "a b", "-x")
# Every character either table escapes, plus ordinary and non-ASCII ones.
VALUE_CHARS = 'ab &<>"\n\t\r\'\u00e9\u20ac\U0001f600'
FAULTS = {
    "name": "not a valid XML name",
    "undeclared": "namespace not declared",
    "default-attribute": "needs an explicit prefix, not the default namespace",
    "duplicate": "duplicate attribute",
    "mixed": "mixed content is not supported",
}


def _random_value(rng) -> str:
    return "".join(rng.choice(VALUE_CHARS) for _ in range(rng.randint(0, 6)))


def _random_name(rng, namespaces: list[str], faulty: bool) -> QName:
    if faulty and rng.random() < 0.1:
        return QName(rng.choice(namespaces), rng.choice(BAD_LOCALS))
    if faulty and rng.random() < 0.05:
        return QName(NS_C, rng.choice(LOCALS))   # declared by some documents only
    return QName(rng.choice(namespaces), rng.choice(LOCALS))


def _random_attributes(rng, doc_namespaces: dict[str, str], faulty: bool):
    # Unless faulty, no attribute is in the default namespace: it would need a prefix.
    namespaces = ["", ""] + [uri for uri in (NS_A, NS_B)
                             if faulty or uri != doc_namespaces.get("")]
    names = list({_random_name(rng, namespaces, faulty) for _ in range(rng.randint(0, 4))})
    if faulty and len(names) >= 2 and rng.random() < 0.2:
        names += names[:2]   # two different names, each given twice
    attributes = [(name, _random_value(rng)) for name in names]
    rng.shuffle(attributes)
    return attributes


def _random_element(rng, doc_namespaces: dict[str, str], depth: int, faulty: bool) -> XmlElement:
    attributes = _random_attributes(rng, doc_namespaces, faulty)
    children: list = []
    if depth < 3 and rng.random() < 0.6:
        for _ in range(rng.randint(1, 3)):
            children.append(_random_element(rng, doc_namespaces, depth + 1, faulty))
            if rng.random() < 0.3:
                children.append(rng.choice((" ", "\n  ", "\t")))   # dropped beside elements
        if faulty and rng.random() < 0.1:
            children.insert(rng.randrange(len(children) + 1), "text")
    else:
        children = [_random_value(rng) for _ in range(rng.randint(0, 2))]
    return XmlElement(_random_name(rng, ["", NS_A, NS_B], faulty), attributes, children)


def _random_namespaces(rng) -> dict[str, str]:
    namespaces = {"a": NS_A, "b": NS_B}
    if rng.random() < 0.5:
        namespaces[""] = rng.choice((NS_A, NS_B))   # a default namespace
    if rng.random() < 0.5:
        namespaces["c"] = NS_C
    if rng.random() < 0.2:
        namespaces["a2"] = NS_A                      # a second prefix for one URI
    return namespaces


def _outcome(writer, doc):
    try:
        return writer(doc)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_writer_equals_reference_on_random_documents():
    rng = random.Random(8086)
    written = 0
    faults = dict.fromkeys(FAULTS, 0)
    for i in range(2400):
        namespaces = _random_namespaces(rng)
        doc = XmlDocument(_random_element(rng, namespaces, 0, faulty=i % 2 == 1), namespaces)
        want = _outcome(_write_canonical_reference, doc)
        assert _outcome(write_canonical, doc) == want, doc.root
        if isinstance(want, bytes):
            written += 1
        else:
            faults[next(kind for kind, text in FAULTS.items() if text in want)] += 1
    assert written > 1000
    assert min(faults.values()) >= 20, faults


def test_first_duplicate_in_insertion_order_is_named():
    y, x = QName("", "y"), QName(NS_B, "x")
    root = XmlElement(QName(NS_A, "r"), [(y, "1"), (x, "2"), (x, "3"), (y, "4")])
    message = "duplicate attribute 'b:x' on {http://example.org/a}r"
    for writer in (_write_canonical_reference, write_canonical):
        doc = XmlDocument(root, {"a": NS_A, "b": NS_B})
        assert _outcome(writer, doc) == f"ValueError: {message}"
    # A duplicate met before a bad name is the error, as the checks run in order.
    root = XmlElement(QName(NS_A, "r"), [(y, "1"), (y, "2"), (QName("", "1bad"), "3")])
    for writer in (_write_canonical_reference, write_canonical):
        assert "duplicate attribute 'y'" in _outcome(writer, XmlDocument(root, {"a": NS_A}))


NON_XML = ("\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
           "\ud800", "\udfff", "\ufffe", "\uffff")
XML_EDGES = ("\t", "\n", "\r", " ", "\x7f", "\ud7ff", "\ue000", "\ufffd",
             "\U00010000", "\U0010ffff")


@pytest.mark.parametrize("char", NON_XML)
def test_non_xml_characters_are_refused(char):
    message = re.escape(f"character U+{ord(char):04X} is not allowed in XML 1.0")
    docs = (
        XmlDocument(XmlElement(QName(NS_A, "r"), (), [f"a{char}b"]), {"a": NS_A}),
        XmlDocument(XmlElement(QName(NS_A, "r"), [(QName("", "v"), f"a{char}")]), {"a": NS_A}),
        XmlDocument(XmlElement(QName(NS_A, "r")), {"a": NS_A, "b": f"{NS_B}{char}"}),
    )
    for doc in docs:
        with pytest.raises(ValueError, match=message):
            write_canonical(doc)


def test_xml_characters_at_the_edges_are_written():
    for char in XML_EDGES:
        root = XmlElement(QName(NS_A, "r"), [(QName("", "v"), f"a{char}b")],
                          [XmlElement(QName(NS_A, "t"), (), [f"a{char}b"])])
        payload = write_canonical(XmlDocument(root, {"a": NS_A}))
        parsed = parse_xml(payload).root
        assert parsed.attr("v") == f"a{char}b"
        # The parser normalizes a raw CR in text to LF; the writer escapes it.
        assert parsed.element_children()[0].text() == f"a{char}b"
