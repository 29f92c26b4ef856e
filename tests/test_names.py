from wspolicy.names import QName, is_absolute_uri, is_ncname, normalize_uri


def test_ncname_accepts_ordinary_identifiers():
    for name in ("TravelAgency", "sp", "_x", "a-b.c", "HashPassword", "ns0"):
        assert is_ncname(name), name


def test_ncname_rejects_bad_identifiers():
    for name in ("", "9bad", "a:b", "has space", "-x", ".x"):
        assert not is_ncname(name), name


def test_absolute_uri_accepts():
    for uri in (
        "http://emi/TravelAgencyService",
        "http://example.org/sec-onto#HashPassword",
        "urn:x-wspolicy:domain-name",
        "mailto:someone@example.org",
        "http://a/b?c=d#e",
        "http://a/\x7fb",
    ):
        assert is_absolute_uri(uri), uri


def test_absolute_uri_rejects():
    for uri in ("", "not a uri", "//host/path", "relative/path", "#frag", "http://", ":x",
                "http://a/\x1cb", "http://a/\u00a0b", "http://a/\u2028b", "http://a/\u3000b"):
        assert not is_absolute_uri(uri), uri


def test_normalize_uri_cases():
    # Hand-derived per RFC 3986 section 6.2.2.
    assert normalize_uri("HTTP://EMI/a/../b") == "http://emi/b"
    assert normalize_uri("http://example.org/%7euser") == "http://example.org/~user"
    assert normalize_uri("http://example.org/%c3%a9") == "http://example.org/%C3%A9"
    assert normalize_uri("http://User@Example.ORG:8080/x") == "http://User@example.org:8080/x"
    assert normalize_uri("http://a/./b/./c") == "http://a/b/c"
    assert normalize_uri("urn:Example:One") == "urn:Example:One"


def test_normalize_uri_idempotent():
    uris = [
        "HTTP://EMI/a/../b",
        "http://example.org/%7euser?q=%41#f%7E",
        "http://example.org/sec-onto#HashPassword",
        "urn:x-wspolicy:nestable-assertions",
    ]
    for uri in uris:
        once = normalize_uri(uri)
        assert normalize_uri(once) == once


def test_qname_ordering_and_clark_form():
    a = QName("http://a/", "z")
    b = QName("http://b/", "a")
    assert a < b
    assert str(a) == "{http://a/}z"
    assert str(QName("", "local")) == "local"
