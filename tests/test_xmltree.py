import random
import re

import pytest

from wspolicy import QName, XmlElement, parse_xml, write_canonical
from wspolicy.errors import XmlParseError
from wspolicy.names import is_ncname

NS_A = "http://example.org/a"
NS_B = "http://example.org/b"


def doc_with(attrs):
    return XmlElement(QName(NS_A, "root"), attrs, [XmlElement(QName(NS_A, "leaf"))],
                      nsmap={"a": NS_A, "b": NS_B})


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
        [XmlElement(QName(NS_A, "t"), text="a < b & c > d")],
        nsmap={"a": NS_A},
    )
    parsed = parse_xml(write_canonical(root))
    assert parsed.attr("attr") == 'va"l<&\n'
    assert parsed.children[0].text == "a < b & c > d"


def test_undeclared_namespace_is_an_error():
    with pytest.raises(ValueError):
        write_canonical(XmlElement(QName(NS_A, "root")))


def test_qname_values_are_spelled_under_the_document_table():
    def written(value, namespaces):
        root = XmlElement(QName(NS_A, "root"), [(QName("", "ref"), value)], nsmap=namespaces)
        return write_canonical(root).decode().splitlines()[1]

    both = {"": NS_A, "b": NS_B}
    assert written(QName(NS_B, "x"), both).endswith(' ref="b:x"/>')
    assert written(QName(NS_A, "x"), both).endswith(' ref="x"/>')   # the default namespace
    assert written(QName("", "x"), {"a": NS_A}).endswith(' ref="x"/>')
    with pytest.raises(ValueError, match="^name 'x' in no namespace would be read in the default"):
        written(QName("", "x"), both)   # it would read back as {NS_A}x
    assert written(QName(NS_A, "x"), {"a": NS_A, "a2": NS_A}).endswith(' ref="a:x"/>')
    assert written("b:&x", both).endswith(' ref="b:&amp;x"/>')  # a string is written as given
    with pytest.raises(ValueError, match="^namespace not declared on the document"):
        written(QName(NS_B, "x"), {"a": NS_A})
    for local in ("1a", "a:b", "", "a b"):
        with pytest.raises(ValueError, match="^not a valid XML name"):
            written(QName(NS_B, local), both)


def test_duplicate_attribute_is_an_error():
    root = XmlElement(QName(NS_A, "r"), [(QName("", "x"), "1"), (QName("", "x"), "2")],
                      nsmap={"a": NS_A})
    with pytest.raises(ValueError):
        write_canonical(root)


def test_mixed_content_is_an_error():
    root = XmlElement(QName(NS_A, "r"), (), [XmlElement(QName(NS_A, "c"))], "text", {"a": NS_A})
    with pytest.raises(ValueError):
        write_canonical(root)


def test_parse_tracks_prefix_scopes():
    payload = (
        b'<r xmlns="http://d/" xmlns:p="http://p/">'
        b'<p:c xmlns:q="http://q/" t="q:name"/></r>'
    )
    root = parse_xml(payload)
    assert root.name == QName("http://d/", "r")
    child = root.children[0]
    assert child.name == QName("http://p/", "c")
    assert child.nsmap["q"] == "http://q/"
    assert child.nsmap["p"] == "http://p/"
    assert child.nsmap[""] == "http://d/"
    assert root.nsmap == {"": "http://d/", "p": "http://p/"}


def test_parse_drops_whitespace_only_text():
    root = parse_xml(b"<r xmlns='http://d/'>\n  <c/>\n</r>")
    assert root.text == ""
    assert [child.name for child in root.children] == [QName("http://d/", "c")]


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


@pytest.mark.parametrize("data", [
    b"", b" \n\t", b'<?xml version="1.0"?>', b"<!-- c -->", b"<?pi x?>", b"\xef\xbb\xbf",
], ids=["empty", "whitespace", "declaration", "comment", "processing-instruction", "bom"])
def test_rootless_input_is_refused_by_expat(data):
    # expat raises for each of these before parse_xml's own "no root element"
    # check, which stays as a guard on outside input.
    with pytest.raises(XmlParseError, match="^no element found"):
        parse_xml(data)


def test_write_parse_write_is_stable():
    doc = doc_with([(QName("", "x"), "1")])
    payload = write_canonical(doc)
    assert write_canonical(parse_xml(payload)) == payload


def test_no_namespace_name_under_a_default_namespace_is_refused():
    # Written bare under xmlns="urn:x", <b/> would read back as {urn:x}b.
    root = parse_xml(b'<a xmlns="urn:x"><b xmlns=""/></a>')
    assert root.children[0].name == QName("", "b")
    with pytest.raises(ValueError, match="^name 'b' in no namespace would be read"):
        write_canonical(root)
    # Unprefixed attribute names are in no namespace, so they are written.
    payload = write_canonical(parse_xml(b'<a xmlns="urn:x" b="1"/>'))
    assert parse_xml(payload).attributes == [(QName("", "b"), "1")]


# --- the writer against its reference ------------------------------------------
#
# _write_canonical_reference qualifies every name where it meets it and runs
# every replacement on every value: no name is memoized and no search guards
# the escaping.  It has no check for non-XML characters, so the random
# documents below hold none.

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


def _write_canonical_reference(root: XmlElement) -> bytes:
    prefix_of: dict[str, str] = {}
    for prefix, uri in sorted(root.nsmap.items()):
        prefix_of.setdefault(uri, prefix)

    def qualified(name: QName, attribute: bool) -> str:
        if not is_ncname(name.local):
            raise ValueError(f"not a valid XML name: {name.local!r}")
        if not name.namespace:
            # A bare element name would read back in the default namespace.
            if not attribute and root.nsmap.get(""):
                raise ValueError(f"name {name.local!r} in no namespace would be read "
                                 f"in the default namespace {root.nsmap['']!r}")
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
            for prefix, uri in sorted(root.nsmap.items()):
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

        elements, text = element.children, element.text
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

    render(root, 0, declare=True)
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
    "no-namespace-element": "in no namespace would be read in the default namespace",
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
    children: list[XmlElement] = []
    text = ""
    if depth < 3 and rng.random() < 0.6:
        for _ in range(rng.randint(1, 3)):
            children.append(_random_element(rng, doc_namespaces, depth + 1, faulty))
            if rng.random() < 0.3:
                text += rng.choice((" ", "\n  ", "\t"))   # dropped beside elements
        if faulty and rng.random() < 0.1:
            text += "text"
    else:
        text = "".join(_random_value(rng) for _ in range(rng.randint(0, 2)))
    # Unless faulty, no element is in no namespace under a default namespace:
    # written bare, it would read back in the default one.
    namespaces = ["", NS_A, NS_B] if faulty or "" not in doc_namespaces else [NS_A, NS_B]
    return XmlElement(_random_name(rng, namespaces, faulty), attributes, children, text,
                      doc_namespaces if depth == 0 else None)


def _random_namespaces(rng) -> dict[str, str]:
    namespaces = {"a": NS_A, "b": NS_B}
    if rng.random() < 0.5:
        namespaces[""] = rng.choice((NS_A, NS_B))   # a default namespace
    if rng.random() < 0.5:
        namespaces["c"] = NS_C
    if rng.random() < 0.2:
        namespaces["a2"] = NS_A                      # a second prefix for one URI
    return namespaces


def _outcome(writer, root):
    try:
        return writer(root)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _tree(element: XmlElement) -> tuple:
    """What a written element must read back as.  The parser drops
    whitespace-only text, and the writer orders attributes, so neither counts."""
    text = element.text if element.text.strip() else ""
    return (element.name, dict(element.attributes), text,
            [_tree(child) for child in element.children])


def test_writer_equals_reference_on_random_documents():
    rng = random.Random(8086)
    written = 0
    faults = dict.fromkeys(FAULTS, 0)
    for i in range(2400):
        root = _random_element(rng, _random_namespaces(rng), 0, faulty=i % 2 == 1)
        want = _outcome(_write_canonical_reference, root)
        assert _outcome(write_canonical, root) == want, root
        if isinstance(want, bytes):
            written += 1
            assert _tree(parse_xml(want)) == _tree(root), want
        else:
            faults[next(kind for kind, text in FAULTS.items() if text in want)] += 1
    assert written > 1000
    assert min(faults.values()) >= 20, faults


def test_first_duplicate_in_insertion_order_is_named():
    y, x = QName("", "y"), QName(NS_B, "x")
    root = XmlElement(QName(NS_A, "r"), [(y, "1"), (x, "2"), (x, "3"), (y, "4")],
                      nsmap={"a": NS_A, "b": NS_B})
    message = "duplicate attribute 'b:x' on {http://example.org/a}r"
    for writer in (_write_canonical_reference, write_canonical):
        assert _outcome(writer, root) == f"ValueError: {message}"
    # A duplicate met before a bad name is the error, as the checks run in order.
    root = XmlElement(QName(NS_A, "r"), [(y, "1"), (y, "2"), (QName("", "1bad"), "3")],
                      nsmap={"a": NS_A})
    for writer in (_write_canonical_reference, write_canonical):
        assert "duplicate attribute 'y'" in _outcome(writer, root)


NON_XML = ("\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
           "\ud800", "\udfff", "\ufffe", "\uffff")
XML_EDGES = ("\t", "\n", "\r", " ", "\x7f", "\ud7ff", "\ue000", "\ufffd",
             "\U00010000", "\U0010ffff")


@pytest.mark.parametrize("char", NON_XML)
def test_non_xml_characters_are_refused(char):
    message = re.escape(f"character U+{ord(char):04X} is not allowed in XML 1.0")
    roots = (
        XmlElement(QName(NS_A, "r"), text=f"a{char}b", nsmap={"a": NS_A}),
        XmlElement(QName(NS_A, "r"), [(QName("", "v"), f"a{char}")], nsmap={"a": NS_A}),
        XmlElement(QName(NS_A, "r"), nsmap={"a": NS_A, "b": f"{NS_B}{char}"}),
    )
    for root in roots:
        with pytest.raises(ValueError, match=message):
            write_canonical(root)


def test_xml_characters_at_the_edges_are_written():
    for char in XML_EDGES:
        root = XmlElement(QName(NS_A, "r"), [(QName("", "v"), f"a{char}b")],
                          [XmlElement(QName(NS_A, "t"), text=f"a{char}b")], nsmap={"a": NS_A})
        parsed = parse_xml(write_canonical(root))
        assert parsed.attr("v") == f"a{char}b"
        # The parser normalizes a raw CR in text to LF; the writer escapes it.
        assert parsed.children[0].text == f"a{char}b"


def test_declared_prefix_must_be_an_ncname():
    for prefix in ("1 bad", "a:b", "-x"):
        with pytest.raises(ValueError, match=f"^not a valid namespace prefix: {prefix!r}$"):
            write_canonical(XmlElement(QName(NS_A, "r"), nsmap={prefix: NS_A}))
        with pytest.raises(ValueError, match="not a valid namespace prefix"):
            write_canonical(XmlElement(QName(NS_A, "r"), nsmap={"a": NS_A, prefix: NS_B}))
