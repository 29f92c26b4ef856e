import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wspolicy import (
    All,
    AssertionInstance,
    AssertionRef,
    ExactlyOne,
    MatchMode,
    NormalForm,
    Policy,
    PolicyExpr,
    QName,
    denormalize,
    enumerate_alternatives_oracle,
    expand_optional,
    intersect,
    merge,
    normal_forms_equal,
    normalize,
)
from wspolicy import algebra
from wspolicy.algebra import (
    alternatives_compatible,
    assertions_compatible,
    iter_refs,
    satisfiable,
    semantic_match_uris,
)
from wspolicy.errors import OracleLimitError, VocabularyError
from wspolicy.model import AssertionDecl, SemanticAnnotation
from wspolicy.names import normalize_uri

from corpus import endpoint_policy, sp, acme_domain
from randgen import default_pool, rand_normal_form, rand_policy_expr

NS = "http://example.org/test-policy.xsd"
A = AssertionRef(QName(NS, "A"))
B = AssertionRef(QName(NS, "B"))
C = AssertionRef(QName(NS, "C"))
D = AssertionRef(QName(NS, "D"))


def inst(ref: AssertionRef) -> AssertionInstance:
    return AssertionInstance(ref.qname)


def nf(*alternatives) -> NormalForm:
    return NormalForm.of([list(alt) for alt in alternatives])


# --- the oracle, checked by hand first -------------------------------------

def test_oracle_choice_of_conjunctions():
    got = enumerate_alternatives_oracle(ExactlyOne(All(A, B), All(C)))
    assert got == nf([inst(A), inst(B)], [inst(C)])


def test_oracle_cross_product():
    # 2x2 cross product, checkable by hand.
    got = enumerate_alternatives_oracle(All(ExactlyOne(A, B), ExactlyOne(C, D)))
    assert got == nf(
        [inst(A), inst(C)], [inst(A), inst(D)], [inst(B), inst(C)], [inst(B), inst(D)]
    )


def test_oracle_corpus_endpoint_policy():
    got = enumerate_alternatives_oracle(endpoint_policy())
    assert len(got.alternatives) == 1
    (alt,) = got.alternatives
    (token,) = alt
    assert token.qname == sp("UsernameToken")
    assert token.nested == nf(
        [AssertionInstance(sp("NoPassword")), AssertionInstance(sp("WssUsernameToken10"))],
        [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))],
    )


def test_oracle_refuses_large_trees():
    wide = All(*(AssertionRef(QName(NS, f"X{i}")) for i in range(17)))
    with pytest.raises(OracleLimitError):
        enumerate_alternatives_oracle(wide)


def test_iter_refs_in_document_order_with_nested_policies():
    token = AssertionRef(sp("UsernameToken"), nested=Policy(ExactlyOne(All(B, C), All(D))))
    expr = Policy(A, ExactlyOne(token, All()), A)
    assert list(iter_refs(expr)) == [A, token, B, C, D, A]
    assert list(iter_refs(B)) == [B]
    assert list(iter_refs(ExactlyOne())) == []


def test_iter_refs_is_stack_safe():
    expr = A
    for _ in range(5000):
        expr = AssertionRef(B.qname, nested=Policy(expr))
    assert sum(1 for _ in iter_refs(expr)) == 5001


# --- optional expansion ------------------------------------------------------

def test_expand_optional_single_ref():
    optional = AssertionRef(QName(NS, "A"), optional=True)
    assert expand_optional(optional) == ExactlyOne(All(A), All())


def test_expand_optional_identity():
    assert expand_optional(A) == A
    tree = Policy(All(A, ExactlyOne(B, C)))
    assert expand_optional(tree) == tree


def test_expand_optional_inside_all():
    opt_b = AssertionRef(QName(NS, "B"), optional=True)
    expanded = expand_optional(All(A, opt_b))
    assert expanded == All(A, ExactlyOne(All(B), All()))
    assert normalize(All(A, opt_b)) == nf([inst(A), inst(B)], [inst(A)])
    assert normalize(All(A, opt_b)) == enumerate_alternatives_oracle(All(A, opt_b))


def test_expand_optional_reaches_nested_policies():
    nested_opt = AssertionRef(
        QName(NS, "A"), nested=Policy(AssertionRef(QName(NS, "B"), optional=True))
    )
    expanded = expand_optional(nested_opt)
    assert isinstance(expanded, AssertionRef)
    assert expanded.nested == Policy(ExactlyOne(All(B), All()))


# --- normalize ---------------------------------------------------------------

def test_normalize_base_cases():
    assert normalize(Policy()) == nf([])
    assert normalize(ExactlyOne()) == NormalForm.of([])
    assert not normalize(ExactlyOne()).satisfiable
    assert normalize(Policy()).satisfiable


def test_normalize_corpus_policy_matches_oracle_and_shape():
    policy = endpoint_policy()
    assert normalize(policy) == enumerate_alternatives_oracle(policy)
    (alt,) = normalize(policy).alternatives
    (token,) = alt
    assert len(token.nested.alternatives) == 2


def test_normalize_policy_wrapper_equals_all():
    tree_policy = Policy(A, ExactlyOne(B, C))
    tree_all = All(A, ExactlyOne(B, C))
    assert normalize(tree_policy) == normalize(tree_all)


def test_normalize_collapses_duplicates():
    assert normalize(All(A, A)) == nf([inst(A)])
    assert normalize(ExactlyOne(A, A)) == nf([inst(A)])


def test_normalize_random_trees_match_oracle():
    rng = random.Random(20240811)
    for _ in range(300):
        expr = rand_policy_expr(rng)
        assert normalize(expr) == enumerate_alternatives_oracle(expr)


def test_satisfiable_equals_normalize_on_random_trees():
    rng = random.Random(6006)
    unsatisfiable = 0
    for _ in range(3000):
        expr = rand_policy_expr(rng)
        expected = normalize(expr).satisfiable
        assert satisfiable(expr) == expected, expr
        unsatisfiable += not expected
    assert unsatisfiable > 200


def test_satisfiable_base_cases():
    assert satisfiable(Policy()) and satisfiable(All()) and satisfiable(A)
    assert not satisfiable(ExactlyOne())
    assert not satisfiable(Policy(A, ExactlyOne()))
    assert satisfiable(ExactlyOne(ExactlyOne(), All()))
    # An assertion yields an alternative even when its nested policy has none.
    assert satisfiable(AssertionRef(QName(NS, "A"), optional=True, nested=Policy(ExactlyOne())))


def test_parameters_are_canonicalized_lexically():
    ref_int = AssertionRef(QName(NS, "A"), parameters=(("level", 5),))
    ref_str = AssertionRef(QName(NS, "A"), parameters=(("level", "5"),))
    assert normalize(Policy(ref_int)) == normalize(Policy(ref_str))
    ref_bool = AssertionRef(QName(NS, "A"), parameters=(("flag", True),))
    (alt,) = normalize(Policy(ref_bool)).alternatives
    assert alt[0].parameters == (("flag", "true"),)


# --- compatibility -----------------------------------------------------------

def test_strict_compat_is_qname_equality():
    assert assertions_compatible(
        AssertionInstance(sp("HashPassword")), AssertionInstance(sp("HashPassword"))
    )
    assert not assertions_compatible(
        AssertionInstance(sp("NoPassword")), AssertionInstance(sp("HashPassword"))
    )


def test_semantic_compat_via_shared_model_reference():
    shared = "http://example.org/sec-onto#HashedPassword"
    vocab = {
        sp("HashPassword"): AssertionDecl(
            "HashPassword", "empty", annotation=SemanticAnnotation((shared,))
        ),
        QName("http://other/", "HashedPwd"): AssertionDecl(
            "HashedPwd", "empty", annotation=SemanticAnnotation((shared,))
        ),
    }
    a = AssertionInstance(sp("HashPassword"))
    b = AssertionInstance(QName("http://other/", "HashedPwd"))
    assert assertions_compatible(a, b, MatchMode.SEMANTIC, vocab)
    assert not assertions_compatible(a, b, MatchMode.STRICT, vocab)


def test_semantic_compat_requires_declarations():
    a = AssertionInstance(sp("HashPassword"))
    b = AssertionInstance(QName("http://other/", "HashedPwd"))
    with pytest.raises(VocabularyError):
        assertions_compatible(a, b, MatchMode.SEMANTIC, {})
    # Equal QNames never consult the vocabulary.
    assert assertions_compatible(a, a, MatchMode.SEMANTIC, {})


def test_nested_policy_compatibility_conditions():
    nested_x = NormalForm.of([[AssertionInstance(QName(NS, "X"))]])
    nested_y = NormalForm.of([[AssertionInstance(QName(NS, "Y"))]])
    with_x = AssertionInstance(QName(NS, "T"), nested=nested_x)
    with_y = AssertionInstance(QName(NS, "T"), nested=nested_y)
    without = AssertionInstance(QName(NS, "T"))
    assert not assertions_compatible(with_x, without)
    assert not assertions_compatible(with_x, with_y)  # nested forms do not intersect
    assert assertions_compatible(with_x, with_x)


# --- intersection ------------------------------------------------------------

def nested_provider_nf() -> NormalForm:
    return nf(
        [AssertionInstance(sp("NoPassword")), AssertionInstance(sp("WssUsernameToken10"))],
        [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))],
    )


def test_intersect_provider_with_requester():
    requester = nf(
        [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))]
    )
    got = intersect(nested_provider_nf(), requester, MatchMode.STRICT)
    assert got == requester


def test_intersect_with_unsatisfiable_is_empty():
    empty = NormalForm.of([])
    assert intersect(nested_provider_nf(), empty) == empty
    assert intersect(empty, nested_provider_nf()) == empty


def test_empty_alternative_only_matches_empty_alternative():
    only_empty = nf([])
    assert intersect(nf([inst(A)]), only_empty) == NormalForm.of([])
    assert intersect(only_empty, only_empty) == only_empty


def test_intersect_keeps_both_parameterizations():
    p = nf([AssertionInstance(QName(NS, "A"), (("level", "1"),))])
    q = nf([AssertionInstance(QName(NS, "A"), (("level", "2"),))])
    got = intersect(p, q)
    assert len(got.alternatives) == 1
    assert len(got.alternatives[0]) == 2  # parameters are carried, not compared


def test_intersect_commutative_and_sound_random():
    rng = random.Random(777)
    pool = default_pool(4)
    for _ in range(150):
        p = rand_normal_form(rng, pool)
        q = rand_normal_form(rng, pool)
        pq = intersect(p, q)
        qp = intersect(q, p)
        assert normal_forms_equal(pq, qp)
        for alt in pq.alternatives:
            members = set(alt)
            assert any(members.issuperset(a) for a in p.alternatives)
            assert any(members.issuperset(b) for b in q.alternatives)


# --- intersect against the nested-loop reference ----------------------------

def _reference_uris(decl) -> set[str]:
    if decl.annotation is None:
        return set()
    return {normalize_uri(uri) for uri in decl.annotation.model_reference}


def _assertions_compatible_reference(a, b, mode, vocab) -> bool:
    if a.qname != b.qname:
        if mode is MatchMode.STRICT:
            return False
        if vocab is None:
            raise VocabularyError("semantic matching requires an assertion vocabulary")
        for qname in (a.qname, b.qname):
            if qname not in vocab:
                raise VocabularyError(f"no declaration for assertion {qname}")
        if not _reference_uris(vocab[a.qname]) & _reference_uris(vocab[b.qname]):
            return False
    if (a.nested is None) != (b.nested is None):
        return False
    if a.nested is not None:
        return _intersect_reference(a.nested, b.nested, mode, vocab).satisfiable
    return True


def _alternatives_compatible_reference(alt_a, alt_b, mode, vocab) -> bool:
    return all(
        any(_assertions_compatible_reference(a, b, mode, vocab) for b in alt_b) for a in alt_a
    ) and all(
        any(_assertions_compatible_reference(b, a, mode, vocab) for a in alt_a) for b in alt_b
    )


def _intersect_reference(p, q, mode=MatchMode.STRICT, vocab=None) -> NormalForm:
    """Every pair of alternatives tried in order; nested policies recurse here,
    never into ``intersect``."""
    found = []
    for alt_a in p.alternatives:
        for alt_b in q.alternatives:
            if _alternatives_compatible_reference(alt_a, alt_b, mode, vocab):
                found.append(alt_a + alt_b)
    return NormalForm.of(found)


def _outcome(fn, p, q, mode, vocab):
    try:
        return fn(p, q, mode, vocab)
    except VocabularyError as exc:
        return f"VocabularyError: {exc}"


# Spellings of three concepts; the second and fourth normalize to the first
# and to ...#C.
_CONCEPT_URIS = (
    "http://example.org/onto#A",
    "HTTP://Example.ORG/./x/../onto#A",
    "http://example.org/onto#B",
    "http://example.org/onto#%43",
    "http://example.org/onto#C",
)


def _rand_vocab(rng, pool):
    """Declarations for most of the pool: some QNames undeclared, some
    declarations unannotated, the rest annotated with one or two concepts."""
    vocab = {}
    for qname in pool:
        roll = rng.random()
        if roll < 0.1:
            continue
        annotation = None
        if roll > 0.25:
            annotation = SemanticAnnotation(tuple(rng.sample(_CONCEPT_URIS, rng.randint(1, 2))))
        vocab[qname] = AssertionDecl(qname.local, "empty", annotation=annotation)
    return vocab


def test_intersect_equals_reference_on_random_corpus():
    rng = random.Random(5150)
    pool = default_pool(6)
    outcomes = {"empty": 0, "matched": 0, "raised": 0}
    for _ in range(1500):
        p = rand_normal_form(rng, pool, max_nesting=2)
        q = rand_normal_form(rng, pool, max_nesting=2)
        vocab = None if rng.random() < 0.1 else _rand_vocab(rng, pool)
        for mode in MatchMode:
            want = _outcome(_intersect_reference, p, q, mode, vocab)
            assert _outcome(intersect, p, q, mode, vocab) == want, (p, q, mode, vocab)
            if isinstance(want, str):
                outcomes["raised"] += 1
            else:
                outcomes["matched" if want.satisfiable else "empty"] += 1
    # The corpus exercises every outcome, errors included.
    assert min(outcomes.values()) > 100, outcomes


def test_intersect_tries_non_transitive_component_pairs():
    # a~b via u1 and b~c via u2 put a, b and c in one component, yet a and c
    # share no URI: the pair ([a], [c]) is tried and refused.
    a, b, c = (QName(NS, name) for name in ("a", "b", "c"))
    vocab = {
        a: AssertionDecl("a", "empty", annotation=SemanticAnnotation(("urn:u1",))),
        b: AssertionDecl("b", "empty", annotation=SemanticAnnotation(("urn:u1", "urn:u2"))),
        c: AssertionDecl("c", "empty", annotation=SemanticAnnotation(("urn:u2",))),
    }
    p = nf([AssertionInstance(a)], [AssertionInstance(b)])
    q = nf([AssertionInstance(c)])
    got = intersect(p, q, MatchMode.SEMANTIC, vocab)
    assert got == nf([AssertionInstance(b), AssertionInstance(c)])
    assert got == _intersect_reference(p, q, MatchMode.SEMANTIC, vocab)


def test_intersect_raises_for_undeclared_nested_qnames():
    # T and X are declared, the nested U and W are not: the pair's nested
    # intersection raises, although X alone would give the alternatives
    # different top-level signatures.
    t, x, u, w = (QName(NS, name) for name in ("T", "X", "U", "W"))
    vocab = {
        t: AssertionDecl("T", "empty", annotation=SemanticAnnotation(("urn:t",))),
        x: AssertionDecl("X", "empty", annotation=SemanticAnnotation(("urn:x",))),
    }
    p = nf([AssertionInstance(t, nested=nf([AssertionInstance(u)])), AssertionInstance(x)])
    q = nf([AssertionInstance(t, nested=nf([AssertionInstance(w)]))])
    want = _outcome(_intersect_reference, p, q, MatchMode.SEMANTIC, vocab)
    assert want == f"VocabularyError: no declaration for assertion {u}"
    assert _outcome(intersect, p, q, MatchMode.SEMANTIC, vocab) == want


def test_intersect_empty_alternatives_and_forms():
    unsat = NormalForm.of([])
    only_empty = nf([])
    with_x = nf([inst(A)], [])
    for mode in MatchMode:
        for vocab in (None, {}):
            for p in (unsat, only_empty, with_x):
                for q in (unsat, only_empty, with_x):
                    want = _outcome(_intersect_reference, p, q, mode, vocab)
                    assert _outcome(intersect, p, q, mode, vocab) == want
    assert intersect(only_empty, only_empty, MatchMode.SEMANTIC) == only_empty
    assert intersect(only_empty, nf([inst(A)]), MatchMode.SEMANTIC) == unsat


# --- memoized modelReference sets ---------------------------------------------

def test_semantic_match_through_alias_spellings():
    x, y = QName(NS, "X"), QName(NS, "Y")
    vocab = {
        x: AssertionDecl("X", "empty", annotation=SemanticAnnotation(("http://ex.org/ac",))),
        y: AssertionDecl(
            "Y", "empty", annotation=SemanticAnnotation(("HTTP://Ex.ORG/./x/../a%63",))
        ),
    }
    p, q = nf([AssertionInstance(x)]), nf([AssertionInstance(y)])
    for _ in range(2):  # the second round reads the cached sets
        assert semantic_match_uris(x, y, vocab) == ("http://ex.org/ac",)
        assert intersect(p, q, MatchMode.SEMANTIC, vocab) == nf(
            [AssertionInstance(x), AssertionInstance(y)]
        )


def test_semantic_match_follows_each_vocabulary():
    # The same QName declared with different modelReference tuples in two
    # vocabularies: neither call may see the other's URIs.
    x, y = QName(NS, "X"), QName(NS, "Y")

    def vocab(x_uri):
        return {
            x: AssertionDecl("X", "empty", annotation=SemanticAnnotation((x_uri,))),
            y: AssertionDecl("Y", "empty", annotation=SemanticAnnotation(("urn:shared",))),
        }

    p, q = nf([AssertionInstance(x)]), nf([AssertionInstance(y)])
    for first, second in (("urn:shared", "urn:other"), ("urn:other", "urn:shared")):
        results = [intersect(p, q, MatchMode.SEMANTIC, vocab(uri)).satisfiable
                   for uri in (first, second)]
        assert results == [first == "urn:shared", second == "urn:shared"]
        assert semantic_match_uris(x, y, vocab("urn:other")) == ()


def test_strict_implies_semantic_on_fixture_vocab():
    from wspolicy import assertion_vocabulary
    from corpus import travel_agency_model

    vocab = assertion_vocabulary(travel_agency_model().domains + (acme_domain(),))
    pool = sorted(vocab)
    rng = random.Random(31337)
    for _ in range(150):
        p = rand_normal_form(rng, pool, allow_nested=False)
        q = rand_normal_form(rng, pool, allow_nested=False)
        for alt_a in p.alternatives:
            for alt_b in q.alternatives:
                if alternatives_compatible(alt_a, alt_b, MatchMode.STRICT, vocab):
                    assert alternatives_compatible(alt_a, alt_b, MatchMode.SEMANTIC, vocab)


# --- merge -------------------------------------------------------------------

def test_merge_identity_element():
    q = ExactlyOne(All(A, B), All(C))
    assert normalize(merge(Policy(), q)) == normalize(q)


def test_merge_singletons():
    assert normalize(merge(Policy(A), Policy(B))) == nf([inst(A), inst(B)])


def test_merge_matches_oracle_on_random_pairs():
    rng = random.Random(4242)
    for _ in range(100):
        p = rand_policy_expr(rng, max_depth=2, max_refs=4)
        q = rand_policy_expr(rng, max_depth=2, max_refs=4)
        assert normalize(merge(p, q)) == enumerate_alternatives_oracle(All(p, q))


# --- normal-form equality and idempotence ------------------------------------

def test_normal_forms_equal_is_order_insensitive():
    assert normal_forms_equal(nf([inst(A), inst(B)]), nf([inst(B), inst(A)]))
    provider = nested_provider_nf()
    swapped = nf(
        [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))],
        [AssertionInstance(sp("NoPassword")), AssertionInstance(sp("WssUsernameToken10"))],
    )
    assert normal_forms_equal(provider, swapped)
    assert normal_forms_equal(provider, provider)


def test_canonical_order_distinguishes_absent_and_empty_nested():
    # Absent nested policy and present-but-unsatisfiable nested policy are
    # different instances; canonical ordering must not depend on insertion order.
    bare = AssertionInstance(QName(NS, "T"))
    unsat = AssertionInstance(QName(NS, "T"), nested=NormalForm.of([]))
    assert bare != unsat
    one = NormalForm.of([[bare, unsat]])
    other = NormalForm.of([[unsat, bare]])
    assert one == other
    assert one.alternatives[0] == other.alternatives[0]


def test_normalize_denormalize_idempotent_random():
    rng = random.Random(90210)
    for _ in range(200):
        expr = rand_policy_expr(rng)
        once = normalize(expr)
        assert normalize(denormalize(once)) == once


def test_alternative_count_bound():
    rng = random.Random(1009)
    for _ in range(100):
        children = [rand_policy_expr(rng, max_depth=2, max_refs=3) for _ in range(3)]
        bound = 1
        for child in children:
            bound *= max(len(normalize(child).alternatives), 0)
        assert len(normalize(All(*children)).alternatives) <= bound


# --- hypothesis: small structural properties ---------------------------------

_qnames = st.sampled_from(default_pool(4))
_refs = st.builds(
    AssertionRef,
    _qnames,
    optional=st.booleans(),
    parameters=st.one_of(st.just(()), st.just((("p", "1"),))),
)
_trees = st.recursive(
    _refs,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(lambda cs: All(*cs)),
        st.lists(children, max_size=3).map(lambda cs: ExactlyOne(*cs)),
        st.lists(children, max_size=3).map(lambda cs: Policy(*cs)),
    ),
    max_leaves=8,
)


@given(_trees)
def test_hypothesis_normalize_equals_oracle(expr):
    nf = normalize(expr)
    assert nf == enumerate_alternatives_oracle(expr)
    assert satisfiable(expr) == nf.satisfiable


@given(_trees)
def test_hypothesis_expand_optional_preserves_meaning(expr):
    assert normalize(expand_optional(expr)) == normalize(expr)


@given(_trees, _trees)
def test_hypothesis_merge_cross_product(p, q):
    merged = normalize(merge(p, q))
    assert merged == NormalForm.of(
        [a + b for a in normalize(p).alternatives for b in normalize(q).alternatives]
    )


# --- nested chains and the per-call memo ---------------------------------------

def _chain(depth: int, qname_at=lambda level: QName(NS, f"L{level}")) -> PolicyExpr:
    """``depth`` nested policies, one assertion each: the outermost assertion
    is level 0 and the innermost, level ``depth - 1``, has no nested policy."""
    expr = None
    for level in reversed(range(depth)):
        expr = Policy(AssertionRef(qname_at(level), nested=expr))
    return expr


def _chain_vocab(depth: int) -> dict:
    """Declarations for every L<level> and an alias M<level> sharing its URI."""
    return {
        QName(NS, f"{prefix}{level}"): AssertionDecl(
            f"{prefix}{level}", "empty", annotation=SemanticAnnotation((f"urn:level{level}",))
        )
        for level in range(depth)
        for prefix in ("L", "M")
    }


def _count_intersect_calls(monkeypatch, p, q, mode, vocab) -> tuple[NormalForm, int]:
    # Nested intersections call the module global, so wrapping it counts them.
    calls = [0]
    original = algebra.intersect

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra, "intersect", counted)
    try:
        return algebra.intersect(p, q, mode, vocab), calls[0]
    finally:
        monkeypatch.setattr(algebra, "intersect", original)


def test_nested_chain_intersections_grow_linearly(monkeypatch):
    # Without the memo each level checks its pair in both directions and the
    # call count doubles per level: 2^50 at the reader's depth cap.
    alias = lambda level: QName(NS, f"M{level}")  # noqa: E731
    for depth in (10, 20, 50):
        chain = normalize(_chain(depth))
        vocab = _chain_vocab(depth)
        cases = (
            (chain, MatchMode.STRICT, None),
            (chain, MatchMode.SEMANTIC, vocab),
            (normalize(_chain(depth, alias)), MatchMode.SEMANTIC, vocab),
            # Undeclared, so a check could raise; equal QNames never do.
            (chain, MatchMode.SEMANTIC, {}),
            (chain, MatchMode.SEMANTIC, None),
        )
        for other, mode, v in cases:
            got, calls = _count_intersect_calls(monkeypatch, chain, other, mode, v)
            assert got.satisfiable
            assert calls <= depth, (depth, mode, calls)


class _CountingVocab(dict):
    """A vocabulary that counts its lookups, by ``in`` and by key."""

    lookups = 0

    def __contains__(self, qname):
        self.lookups += 1
        return super().__contains__(qname)

    def __getitem__(self, qname):
        self.lookups += 1
        return super().__getitem__(qname)


def test_semantic_chain_vocabulary_lookups_grow_linearly():
    # The top-level call checks every depth for undeclared QNames once; a
    # nested call that walked again made O(depth^2) lookups (52 per level at
    # depth 50 against 12 at depth 10).
    same = lambda level: QName(NS, f"L{level}")  # noqa: E731
    alias = lambda level: QName(NS, f"M{level}")  # noqa: E731
    for other_at in (same, alias):
        per_level = {}
        for depth in (10, 20, 50):
            chain = normalize(_chain(depth))
            other = normalize(_chain(depth, other_at))
            vocab = _CountingVocab(_chain_vocab(depth))
            assert intersect(chain, other, MatchMode.SEMANTIC, vocab).satisfiable
            per_level[depth] = vocab.lookups / depth
        assert per_level[50] <= per_level[10], per_level


def test_nested_chain_with_undeclared_level_raises_like_reference():
    depth, undeclared = 20, QName(NS, "U")
    vocab = _chain_vocab(depth)
    p = normalize(_chain(depth))
    for level in (0, 7, depth - 1):
        q = normalize(_chain(depth, lambda at: undeclared if at == level else QName(NS, f"M{at}")))
        want = _outcome(_intersect_reference, p, q, MatchMode.SEMANTIC, vocab)
        assert want == f"VocabularyError: no declaration for assertion {undeclared}"
        assert _outcome(intersect, p, q, MatchMode.SEMANTIC, vocab) == want
        assert _outcome(intersect, q, p, MatchMode.SEMANTIC, vocab) == want


def _registry_pair():
    """A provider and a query shaped like a registry entry and its query: 3x3
    forms, the query spelling each provider QName Pk as an alias Qk whose
    declaration shares one of its two URIs.  The first instance of each
    carries a nested form, holding NP or NQ."""
    provider, query, vocab = [], [], {}
    for side, out in (("P", provider), ("Q", query)):
        for alt in range(3):
            instances = []
            for slot in range(3):
                k = 3 * alt + slot
                qname = QName(NS, f"{side}{k}")
                uris = ((f"urn:P{k}", f"http://example.org/onto#c{k}") if side == "P"
                        else (f"HTTP://Example.ORG/./onto#c{k}", f"urn:Q{k}"))
                vocab[qname] = AssertionDecl(
                    qname.local, "empty", annotation=SemanticAnnotation(uris))
                nested = None
                if k == 0:
                    inner = QName(NS, f"N{side}")
                    nested = nf([AssertionInstance(inner)])
                    vocab[inner] = AssertionDecl(inner.local, "empty", annotation=SemanticAnnotation(
                        ("urn:inner", f"urn:{side}")))
                instances.append(AssertionInstance(qname, nested=nested))
            out.append(instances)
    return nf(*provider), nf(*query), vocab


def _distinct_qnames(*forms) -> set:
    return {ref.qname for form in forms for ref in iter_refs(denormalize(form))}


def test_semantic_intersect_looks_up_each_qname_once():
    # One vocabulary lookup per distinct QName, at any depth, per top-level
    # call: the pair checks and the nested call read the call's sets.
    p, q, declarations = _registry_pair()
    want = _intersect_reference(p, q, MatchMode.SEMANTIC, declarations)
    assert want.satisfiable
    for left, right in ((p, q), (q, p)):
        vocab = _CountingVocab(declarations)
        assert intersect(left, right, MatchMode.SEMANTIC, vocab) == _intersect_reference(
            left, right, MatchMode.SEMANTIC, declarations)
        assert vocab.lookups == len(_distinct_qnames(p, q)) == 20
    depth = 30
    chain = normalize(_chain(depth))
    for other in (chain, normalize(_chain(depth, lambda level: QName(NS, f"M{level}")))):
        vocab = _CountingVocab(_chain_vocab(depth))
        assert intersect(chain, other, MatchMode.SEMANTIC, vocab).satisfiable
        assert vocab.lookups == len(_distinct_qnames(chain, other))


def test_undeclared_qname_at_any_depth_outcome_equals_reference():
    p, q, declarations = _registry_pair()
    raised = set()
    for missing in ("P4", "Q8", "NP", "NQ"):
        vocab = {k: v for k, v in declarations.items() if k.local != missing}
        for left, right in ((p, q), (q, p), (p, p), (q, q)):
            want = _outcome(_intersect_reference, left, right, MatchMode.SEMANTIC, vocab)
            assert _outcome(intersect, left, right, MatchMode.SEMANTIC, vocab) == want
            if isinstance(want, str):
                raised.add((missing, left is right))
    # An undeclared nested QName raises only where it meets another QName.
    assert raised == {(missing, same) for missing in ("P4", "Q8") for same in (True, False)} | {
        ("NP", False), ("NQ", False)}


# Twelve spellings of eight concepts: the union-find merges components through
# declarations of up to three of them, in whatever order it meets the QNames,
# and chains of such declarations build trees deep enough to halve paths.
_SPELLINGS = _CONCEPT_URIS + (
    "urn:x-concept:D",
    "URN:x-concept:D",
    "http://example.org/onto#E",
    "http://example.org/a/../onto#E",
    "urn:x-concept:F",
    "urn:x-concept:G",
    "urn:x-concept:H",
)


def _wide_form(rng, pool) -> NormalForm:
    """Up to five alternatives of up to four instances, some with a nested form."""
    def nested():
        return rand_normal_form(rng, pool) if rng.random() < 0.2 else None

    return NormalForm.of([
        [AssertionInstance(rng.choice(pool), nested=nested()) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 5))
    ])


def test_semantic_intersect_equals_reference_with_merging_components():
    rng = random.Random(4242)
    outcomes = {"empty": 0, "matched": 0, "raised": 0}
    for _ in range(600):
        pool = default_pool(rng.randint(3, 10))
        vocab = {}
        for i, qname in enumerate(pool):
            roll = rng.random()
            if roll < 0.05:
                continue
            # Overlapping windows of spellings chain the declarations together.
            window = _SPELLINGS[i % 9:i % 9 + 4] if roll < 0.6 else _SPELLINGS
            uris = tuple(rng.sample(window, rng.randint(1, 3))) if roll > 0.12 else None
            vocab[qname] = AssertionDecl(
                qname.local, "empty", annotation=uris and SemanticAnnotation(uris))
        p, q = _wide_form(rng, pool), _wide_form(rng, pool)
        want = _outcome(_intersect_reference, p, q, MatchMode.SEMANTIC, vocab)
        assert _outcome(intersect, p, q, MatchMode.SEMANTIC, vocab) == want, (p, q, vocab)
        if isinstance(want, str):
            outcomes["raised"] += 1
        else:
            outcomes["matched" if want.satisfiable else "empty"] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_cached_qname_sets_stay_out_of_identity():
    rng = random.Random(77)
    pool = default_pool(4)
    for _ in range(300):
        form = rand_normal_form(rng, pool, max_nesting=2)
        before = (hash(form), repr(form), pickle.dumps(form), form.sort_key())
        assert form._deep_qnames == _distinct_qnames(form)
        assert form._qnames == {i.qname for alt in form.alternatives for i in alt}
        fresh = NormalForm.of(form.alternatives)
        assert "_deep_qnames" in vars(form) and "_qnames" not in vars(fresh)
        assert form == fresh and fresh == form and hash(form) == hash(fresh)
        assert (hash(form), repr(form), pickle.dumps(form), form.sort_key()) == before
        for twin in (copy.copy(form), copy.deepcopy(form), pickle.loads(before[2])):
            assert twin == form
            assert not {"_qnames", "_deep_qnames"} & set(vars(twin))


def _declared(*qnames) -> dict:
    """Declarations with one URI of their own each."""
    return {q: AssertionDecl(q.local, "empty", annotation=SemanticAnnotation((f"urn:{q.local}",)))
            for q in qnames}


def test_declared_nested_forms_are_bucketed_under_an_undeclared_qname(monkeypatch):
    # X is undeclared but only ever meets X, so nothing raises.  The top-level
    # pairs share one bucket; the nested intersection of the wide, declared
    # form must still bucket its 20 alternatives (20 checks, not 400).
    a, b, x = QName(NS, "A"), QName(NS, "B"), QName(NS, "X")
    wide_names = [QName(NS, f"W{i}") for i in range(20)]
    vocab = _declared(a, b, *wide_names)
    wide = nf(*([AssertionInstance(w)] for w in wide_names))
    p = nf([AssertionInstance(a, nested=nf([AssertionInstance(x)]))],
           [AssertionInstance(b, nested=wide)])
    calls = [0]
    original = algebra.alternatives_compatible

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra, "alternatives_compatible", counted)
    got = intersect(p, p, MatchMode.SEMANTIC, vocab)
    monkeypatch.setattr(algebra, "alternatives_compatible", original)
    assert got == _intersect_reference(p, p, MatchMode.SEMANTIC, vocab)
    assert calls[0] <= 4 + 1 + len(wide_names), calls[0]


def test_declared_nested_form_does_not_vouch_for_its_sibling():
    # The nested forms under A and B are checked in that order.  The first is
    # declared; the second holds the undeclared X and raises when Y meets X.
    a, b, x, y = (QName(NS, name) for name in ("A", "B", "X", "Y"))
    w = QName(NS, "W")
    vocab = _declared(a, b, y, w)
    declared = nf([AssertionInstance(w)])
    undeclared = nf([AssertionInstance(x), AssertionInstance(y)])
    error = f"VocabularyError: no declaration for assertion {x}"
    for first, second in ((declared, undeclared), (undeclared, declared)):
        p = nf([AssertionInstance(a, nested=first)], [AssertionInstance(b, nested=second)])
        assert _outcome(_intersect_reference, p, p, MatchMode.SEMANTIC, vocab) == error
        assert _outcome(intersect, p, p, MatchMode.SEMANTIC, vocab) == error


def test_reverse_pair_is_not_reused_when_a_check_could_raise():
    # With A1 undeclared, intersect(left, right) matches [A2] with [A2]
    # without raising, while intersect(right, left) first checks A2 against
    # A1 and raises.  A memo that reused the first answer for the reversed
    # pair would hide the error.
    a0, a1, a2, t = (QName(NS, name) for name in ("A0", "A1", "A2", "T"))
    vocab = {q: AssertionDecl(q.local, "empty", annotation=SemanticAnnotation((f"urn:{q.local}",)))
             for q in (a0, a2, t)}
    left = nf([AssertionInstance(a0), AssertionInstance(a1)], [AssertionInstance(a2)])
    right = nf([AssertionInstance(a2)])
    assert _intersect_reference(left, right, MatchMode.SEMANTIC, vocab).satisfiable
    error = f"VocabularyError: no declaration for assertion {a1}"
    assert _outcome(_intersect_reference, right, left, MatchMode.SEMANTIC, vocab) == error
    # The pair's check asks (left, right) first, then (right, left).
    p, q = nf([AssertionInstance(t, nested=left)]), nf([AssertionInstance(t, nested=right)])
    assert _outcome(_intersect_reference, p, q, MatchMode.SEMANTIC, vocab) == error
    assert _outcome(intersect, p, q, MatchMode.SEMANTIC, vocab) == error


def _shared_nesting_form(rng, qnames, pool) -> NormalForm:
    """A random form whose nested policies come from ``pool``, so the same
    pair of nested forms recurs across alternatives and calls."""
    alternatives = []
    for _ in range(rng.randint(0, 4)):
        alternatives.append([
            AssertionInstance(rng.choice(qnames), (), rng.choice(pool) if rng.random() < 0.6 else None)
            for _ in range(rng.randint(0, 3))
        ])
    return NormalForm.of(alternatives)


def _full_vocab(rng, qnames):
    return {
        qname: AssertionDecl(qname.local, "empty", annotation=(
            SemanticAnnotation(tuple(rng.sample(_CONCEPT_URIS, rng.randint(1, 2))))
            if rng.random() < 0.8 else None))
        for qname in qnames
    }


def test_intersect_equals_reference_with_shared_nested_forms():
    rng = random.Random(6021)
    qnames = default_pool(4)
    outcomes = {"empty": 0, "matched": 0, "raised": 0}
    for round_ in range(90):
        # Nesting depth 3: a pool form (max_nesting=2) under a top-level instance.
        pool = [rand_normal_form(rng, qnames, max_nesting=2) for _ in range(3)]
        pool.append(NormalForm.of([[]]))
        for _ in range(10):
            p = _shared_nesting_form(rng, qnames, pool)
            q = _shared_nesting_form(rng, qnames, pool)
            vocab = (_full_vocab(rng, qnames), _rand_vocab(rng, qnames), None)[round_ % 3]
            for mode in MatchMode:
                want = _outcome(_intersect_reference, p, q, mode, vocab)
                assert _outcome(intersect, p, q, mode, vocab) == want, (p, q, mode, vocab)
                if isinstance(want, str):
                    outcomes["raised"] += 1
                else:
                    outcomes["matched" if want.satisfiable else "empty"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_intersect_satisfiability_is_symmetric():
    # The memo shares one result between (a, b) and (b, a).
    rng = random.Random(8088)
    qnames = default_pool(4)
    for _ in range(300):
        pool = [rand_normal_form(rng, qnames, max_nesting=2) for _ in range(3)]
        p = _shared_nesting_form(rng, qnames, pool)
        q = _shared_nesting_form(rng, qnames, pool)
        vocab = _full_vocab(rng, qnames)
        for mode in MatchMode:
            assert intersect(p, q, mode, vocab).satisfiable == intersect(q, p, mode, vocab).satisfiable


def test_semantic_compat_errors_are_unchanged():
    x, y = QName(NS, "X"), QName(NS, "Y")
    a, b = AssertionInstance(x), AssertionInstance(y)
    declared = {x: AssertionDecl("X", "empty", annotation=SemanticAnnotation(("urn:u",)))}
    with pytest.raises(VocabularyError, match="^semantic matching requires an assertion vocabulary$"):
        assertions_compatible(a, b, MatchMode.SEMANTIC, None)
    for vocab in (declared, {y: declared[x]}):
        missing = y if vocab is declared else x
        with pytest.raises(VocabularyError, match=f"^no declaration for assertion {{{NS}}}{missing.local}$"):
            assertions_compatible(a, b, MatchMode.SEMANTIC, vocab)
    both = {x: declared[x], y: AssertionDecl("Y", "empty", annotation=SemanticAnnotation(("urn:v",)))}
    assert not assertions_compatible(a, b, MatchMode.SEMANTIC, both)
    assert semantic_match_uris(x, y, both) == ()


# --- the identity contract ------------------------------------------------------

def _fields_equal(a, b) -> bool:
    """Field-by-field comparison, as the frozen dataclasses compared before
    keys were cached."""
    if type(a) is not type(b):
        return False
    if isinstance(a, QName):
        return (a.namespace, a.local) == (b.namespace, b.local)
    if isinstance(a, AssertionInstance):
        if a.nested is None or b.nested is None:
            nested_equal = a.nested is b.nested
        else:
            nested_equal = _fields_equal(a.nested, b.nested)
        return _fields_equal(a.qname, b.qname) and a.parameters == b.parameters and nested_equal
    return len(a.alternatives) == len(b.alternatives) and all(
        len(x) == len(y) and all(map(_fields_equal, x, y))
        for x, y in zip(a.alternatives, b.alternatives)
    )


def _rand_values(rng):
    """A QName, an instance and a normal form from small spaces, so that
    equal values built separately are common."""
    qnames = [QName(ns, local) for ns in ("", "urn:a", "urn:b") for local in ("x", "y")]
    form = rand_normal_form(rng, qnames, max_nesting=2)
    instances = [i for alt in form.alternatives for i in alt] or [AssertionInstance(qnames[0])]
    return rng.choice(qnames), rng.choice(instances), form


def test_identity_contract_on_random_values():
    values = []
    for seed in range(2000):
        # Each seed twice: equal values that are distinct objects.
        values.append(_rand_values(random.Random(seed % 700)))
    for kind in range(3):
        column = [v[kind] for v in values]
        rng = random.Random(kind)
        for _ in range(2000):
            a, b = rng.choice(column), rng.choice(column)
            same = a == b
            assert same == (a.sort_key() == b.sort_key()) == _fields_equal(a, b)
            if same:
                assert hash(a) == hash(b)
        assert sum(a == b and a is not b for a, b in zip(column, column[700:])) > 100
        # Equality never trusts the hash alone: forge a collision.
        for a, b in zip(column, column[1:100]):
            if a != b:
                forged = copy.copy(b)
                object.__setattr__(forged, "_hash", a._hash)
                assert a != forged and forged != a


def test_qname_order_and_foreign_comparisons():
    rng = random.Random(99)
    qnames = [QName(rng.choice("abc"), rng.choice("xyz")) for _ in range(2000)]
    assert sorted(qnames) == sorted(qnames, key=lambda q: (q.namespace, q.local))
    assert sorted(qnames, key=QName.sort_key) == sorted(qnames)
    # Instances order by QName first, so alternatives list them that way.
    (alt,) = NormalForm.of([[AssertionInstance(q) for q in qnames]]).alternatives
    assert [i.qname for i in alt] == sorted(set(qnames))
    for q in qnames[:50]:
        assert q != (q.namespace, q.local) and q != str(q) and q != q.local
        with pytest.raises(TypeError):
            q < (q.namespace, q.local)  # noqa: B015


def test_values_are_immutable():
    nested = nf([inst(A)])
    instance = AssertionInstance(QName(NS, "T"), (("p", 1),), nested)
    for value, fields in ((QName(NS, "T"), ("namespace", "local")),
                          (instance, ("qname", "parameters", "nested")),
                          (nested, ("alternatives",))):
        for field in fields + ("_key", "_hash"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
    assert repr(QName("urn:a", "x")) == "QName(namespace='urn:a', local='x')"
    assert repr(instance).startswith(
        "AssertionInstance(qname=QName(namespace='http://example.org/test-policy.xsd', "
        "local='T'), parameters=(('p', '1'),), nested=NormalForm(alternatives=((")
    assert copy.deepcopy(instance) == instance and pickle.loads(pickle.dumps(nested)) == nested


_PICKLE_CHILD = """
import pickle, sys
from wspolicy import AssertionInstance, NormalForm, QName
q = QName("urn:a", "x")
i = AssertionInstance(q, (("p", "1"),), NormalForm.of([[AssertionInstance(q)]]))
values = (q, i, NormalForm.of([[i]]))
if sys.argv[1] == "dump":
    [hash(v) for v in values]
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert loaded == values
    assert [hash(v) for v in loaded] == [hash(v) for v in values]
    assert all({v: None for v in values}.keys() >= {v} for v in loaded)
"""


def test_pickled_values_hash_as_fresh_ones_in_another_process():
    # A str hash differs between processes, so a value that carried its cached
    # hash through pickle would miss equal keys in the process that loads it.
    env = {**os.environ, "PYTHONPATH": str(Path(algebra.__file__).parents[1])}
    dumped = subprocess.run([sys.executable, "-c", _PICKLE_CHILD, "dump"], capture_output=True,
                            env={**env, "PYTHONHASHSEED": "1"}, check=True, timeout=60).stdout
    loaded = subprocess.run([sys.executable, "-c", _PICKLE_CHILD, "load"], input=dumped,
                            capture_output=True, env={**env, "PYTHONHASHSEED": "2"}, timeout=60)
    assert loaded.returncode == 0, loaded.stderr.decode()


def test_normalize_output_is_already_canonical():
    rng = random.Random(2718)
    for _ in range(1000):
        got = normalize(rand_policy_expr(rng))
        again = NormalForm.of(got.alternatives)
        assert again.alternatives == got.alternatives
        assert [list(map(id, alt)) for alt in again.alternatives] == [
            list(map(id, alt)) for alt in got.alternatives
        ]
