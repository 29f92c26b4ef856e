import gc
import random

import pytest

from wspolicy.names import NAME_CACHE_SIZE, QName, is_absolute_uri, is_ncname, nogc, normalize_uri

NCNAMES = ("TravelAgency", "sp", "_x", "a-b.c", "HashPassword", "ns0")
NOT_NCNAMES = ("", "9bad", "a:b", "has space", "-x", ".x")
URIS = (
    "http://emi/TravelAgencyService",
    "http://example.org/sec-onto#HashPassword",
    "urn:x-wspolicy:domain-name",
    "mailto:someone@example.org",
    "http://a/b?c=d#e",
    "http://a/\x7fb",
)
NOT_URIS = ("", "not a uri", "//host/path", "relative/path", "#frag", "http://", ":x",
            "http://a/\x1cb", "http://a/\u00a0b", "http://a/\u2028b", "http://a/\u3000b",
            "http://a/\ud800b", "http://a/\udfffb", "http://a/\ufffeb", "http://a/\uffffb")


def test_ncname_accepts_ordinary_identifiers():
    for name in NCNAMES:
        assert is_ncname(name), name


def test_ncname_rejects_bad_identifiers():
    for name in NOT_NCNAMES:
        assert not is_ncname(name), name


def test_absolute_uri_accepts():
    for uri in URIS:
        assert is_absolute_uri(uri), uri


def test_absolute_uri_rejects():
    for uri in NOT_URIS:
        assert not is_absolute_uri(uri), uri


# --- memoized predicates and the paused collector ------------------------------

def outcome(fn, value):
    try:
        return ("returned", fn(value))
    except Exception as exc:
        return ("raised", type(exc))


def random_strings(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    alphabet = "aZ_9:-./#?%@ \t\x00\u00e9\u2028\ud800\ufffe"
    prefixes = ("", "http://", "urn:", "x:", "_")
    return [rng.choice(prefixes) + "".join(rng.choices(alphabet, k=rng.randrange(8)))
            for _ in range(count)]


class StrSubclass(str):
    pass


NON_STR = (None, 0, 7, 1.5, b"abc", b"http://a/b", [], ["a"], {}, {"a": 1}, (), ("a",),
           frozenset(), StrSubclass("ok"), StrSubclass("a:b"), StrSubclass("http://a/b"))


@pytest.mark.parametrize("predicate", [is_ncname, is_absolute_uri])
def test_memoized_predicates_answer_as_their_originals(predicate):
    original = predicate.__wrapped__
    strings = [*NCNAMES, *NOT_NCNAMES, *URIS, *NOT_URIS, *random_strings(3, 2000)]
    for value in strings + strings:   # the second pass answers from the cache
        assert predicate(value) is original(value), repr(value)
    for value in NON_STR:   # unhashable or not: the original's answer, or its exception
        assert outcome(predicate, value) == outcome(original, value), repr(value)


@pytest.mark.parametrize("predicate", [is_ncname, is_absolute_uri])
def test_memoized_predicates_keep_a_bounded_cache(predicate):
    for value in random_strings(4, 2 * NAME_CACHE_SIZE):
        predicate(value)
    info = predicate.cache_info()
    assert info.maxsize == NAME_CACHE_SIZE
    assert info.currsize <= NAME_CACHE_SIZE


@pytest.mark.parametrize("enabled", [True, False])
def test_nogc_pauses_a_running_collector_and_restores_it(collector, enabled):
    seen = []

    @nogc
    def inner():
        seen.append(("inner", gc.isenabled()))

    @nogc
    def outer(fail: bool):
        seen.append(("outer", gc.isenabled()))
        inner()
        seen.append(("after inner", gc.isenabled()))
        if fail:
            raise KeyError("boom")
        return "done"

    collector(enabled)
    assert outer(False) == "done"
    assert gc.isenabled() is enabled
    with pytest.raises(KeyError):
        outer(True)
    assert gc.isenabled() is enabled
    assert set(seen) == {("outer", False), ("inner", False), ("after inner", False)}


@pytest.mark.parametrize("uri, expected", [
    # RFC 3986 section 5.2.4: each branch of remove_dot_segments.
    ("http://a/b/c/./../../g", "http://a/g"),
    ("foo:mid/content=5/../6", "foo:mid/6"),
    ("http://a/b/c/.", "http://a/b/c/"),
    ("http://a/b/c/..", "http://a/b/"),
    ("http://a/..", "http://a/"),
    ("foo:../x", "foo:x"),
    ("foo:./x", "foo:x"),
    ("foo:..", "foo:"),
])
def test_normalize_uri_removes_dot_segments(uri, expected):
    assert normalize_uri(uri) == expected


def test_normalize_uri_cases():
    # Hand-derived per RFC 3986 section 6.2.2.
    assert normalize_uri("HTTP://EMI/a/../b") == "http://emi/b"
    assert normalize_uri("http://example.org/%7euser") == "http://example.org/~user"
    assert normalize_uri("http://example.org/%c3%a9") == "http://example.org/%C3%A9"
    assert normalize_uri("http://User@Example.ORG:8080/x") == "http://User@example.org:8080/x"
    assert normalize_uri("http://a/./b/./c") == "http://a/b/c"
    assert normalize_uri("urn:Example:One") == "urn:Example:One"
    # Percent escapes: only %XX with two hex digits is one; %7E (~) decodes,
    # %2F (/) keeps its escape with uppercase hex digits.
    assert normalize_uri("http://example.org/a%4") == "http://example.org/a%4"
    assert normalize_uri("http://example.org/%%41") == "http://example.org/%A"
    assert normalize_uri("http://example.org/a%2fb") == "http://example.org/a%2Fb"
    assert normalize_uri("http://example.org/x?q=%7e") == "http://example.org/x?q=~"
    assert normalize_uri("http://example.org/%C3%a9") == "http://example.org/%C3%A9"
    assert normalize_uri("http://example.org/100%") == "http://example.org/100%"


def test_unsplittable_uri_is_no_absolute_uri_and_normalizes_to_itself():
    # urlsplit raises ValueError for an unclosed IPv6 literal.
    assert not is_absolute_uri("http://[::1")
    assert normalize_uri("http://[::1") == "http://[::1"


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
