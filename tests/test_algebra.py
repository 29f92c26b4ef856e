import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
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
    intersect,
    merge,
    normalize,
)
from wspolicy import algebra
from wspolicy.algebra import (
    alternatives_compatible,
    assertions_compatible,
    compatible_pairs,
    iter_refs,
    satisfiable,
)
from wspolicy.errors import VocabularyError
from wspolicy.model import AssertionDecl, SemanticAnnotation
from wspolicy.names import normalize_uri

from corpus import endpoint_policy, sp, acme_domain
from randgen import default_pool, rand_normal_form, rand_policy_expr
from reference import enumerate_alternatives_oracle, expand_optional

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
    with pytest.raises(ValueError):
        enumerate_alternatives_oracle(wide)


@pytest.mark.parametrize("operator", [Policy, All, ExactlyOne])
def test_operator_children_must_be_policy_expressions(operator):
    with pytest.raises(TypeError, match="operator child must be a PolicyExpr, got str"):
        operator(A, "x")


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


def test_normalize_builds_no_tree_nodes_on_an_optional_chain(monkeypatch):
    # Rewriting optional flags into operators before distributing rebuilt the
    # tree below every nested policy again: O(depth^2) nodes on a chain.
    expr = A
    for level in range(50):
        expr = AssertionRef(QName(NS, f"L{level}"), optional=level % 2 == 1, nested=Policy(expr))
    want = normalize(expand_optional(expr))
    built = [0]

    def counting(init):
        def counted(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)
        return counted

    for cls in (AssertionRef, algebra._Operator):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    got = normalize(expr)
    monkeypatch.undo()
    assert built[0] == 0
    assert got == want


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
        assert pq == qp
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
        assert _matches(p, q, MatchMode.SEMANTIC, vocab) == [[(x, y, "http://ex.org/ac")]]
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
    both = nf([AssertionInstance(x), AssertionInstance(y)])
    for first, second in (("urn:shared", "urn:other"), ("urn:other", "urn:shared")):
        results = [intersect(p, q, MatchMode.SEMANTIC, vocab(uri)).satisfiable
                   for uri in (first, second)]
        assert results == [first == "urn:shared", second == "urn:shared"]
        for uri in (first, second):
            want = [(x, y, uri), (y, x, uri)] if uri == "urn:shared" else []
            assert _matches(both, both, MatchMode.SEMANTIC, vocab(uri)) == [want]


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
    assert nf([inst(A), inst(B)]) == nf([inst(B), inst(A)])
    provider = nested_provider_nf()
    swapped = nf(
        [AssertionInstance(sp("HashPassword")), AssertionInstance(sp("WssUsernameToken10"))],
        [AssertionInstance(sp("NoPassword")), AssertionInstance(sp("WssUsernameToken10"))],
    )
    assert provider == swapped
    assert provider == provider


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


def _count_pair_walks(monkeypatch, p, q, mode, vocab) -> tuple[NormalForm, list]:
    """``intersect(p, q, mode, vocab)`` and the ids of each pair of forms the
    join walked, top-level or nested, in order: every walk starts in
    ``_Join.pairs``, so wrapping it counts them."""
    walks = []
    original = algebra._Join.pairs

    def counted(join, left, right, uris):
        walks.append((id(left), id(right)))
        return original(join, left, right, uris)

    monkeypatch.setattr(algebra._Join, "pairs", counted)
    try:
        return intersect(p, q, mode, vocab), walks
    finally:
        monkeypatch.setattr(algebra._Join, "pairs", original)


def test_nested_chain_intersections_grow_linearly(monkeypatch):
    # Without the memo each level checks its pair in both directions and the
    # walk count doubles per level: 2^50 at the reader's depth cap.
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
            got, walks = _count_pair_walks(monkeypatch, chain, other, mode, v)
            assert got.satisfiable
            # The top-level walk and at least one nested walk were counted.
            assert 1 < len(walks) <= depth, (depth, mode, len(walks))


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


def _optional_chain(depth: int, optional=lambda level: level % 2 == 0) -> PolicyExpr:
    """``depth`` levels, each ``L<k>`` (optional where ``optional(k)``)
    holding a nested policy of the level below and an optional X: the
    alternatives of each nested form share the instance of the level below."""
    x, expr = AssertionRef(QName(NS, "X"), optional=True), None
    for level in reversed(range(depth)):
        nested = None if expr is None else Policy(All(expr, x))
        expr = AssertionRef(QName(NS, f"L{level}"), optional=optional(level), nested=nested)
    return Policy(expr)


def _denormalize_reference(nf: NormalForm) -> PolicyExpr:
    """denormalize building every nested form again at each occurrence."""
    def ref_of(instance):
        nested = None if instance.nested is None else _denormalize_reference(instance.nested)
        return AssertionRef(instance.qname, parameters=instance.parameters, nested=nested)
    return Policy(ExactlyOne(*(All(*(ref_of(i) for i in alt)) for alt in nf.alternatives)))


def test_denormalize_builds_each_distinct_nested_form_once(monkeypatch):
    # The chain's normal form holds one distinct nested form per level, each
    # shared by several alternatives above it: built per occurrence, the
    # rebuilt tree doubled in size with every level.  Outputs are compared
    # only on shallow chains, as deep forms built apart compare exponentially.
    for depth in range(1, 11):
        nf = normalize(_optional_chain(depth))
        assert normalize(denormalize(nf)) == normalize(_denormalize_reference(nf))
    depth = 20
    nf = normalize(_optional_chain(depth))
    forms, stack = {}, [nf]
    while stack:
        form = stack.pop()
        if id(form) not in forms:
            forms[id(form)] = form
            stack.extend(i.nested for alt in form.alternatives for i in alt if i.nested is not None)
    assert len(forms) == depth
    built = [0]
    init = algebra._Operator.__init__

    def counted(self, *children):
        built[0] += 1
        init(self, *children)

    monkeypatch.setattr(algebra._Operator, "__init__", counted)
    denormalize(nf)
    # Per distinct form: one Policy, one ExactlyOne and one All per alternative.
    assert built[0] == sum(2 + len(form.alternatives) for form in forms.values()) <= 6 * depth


def test_separately_built_chains_walk_each_nested_pair_once(monkeypatch):
    # Two equal chains built apart hold equal, distinct nested forms.  A memo
    # looked up by value compared them by value, at a cost exponential in
    # depth; keyed by identity, each ordered pair is walked at most once, no
    # two forms are compared, and only the result is built: a nested check
    # builds no NormalForm.  Where a level is optional its nested form offers
    # an empty alternative, which answers the check at once; with none
    # optional, the walk reaches the deepest level.
    depth = 20
    vocab = {**_chain_vocab(depth), **_declared(QName(NS, "X"))}
    builds, compared = [0], [0]
    canonical = NormalForm._canonical

    def counted(form, *args):
        builds[0] += 1
        return canonical(form, *args)

    def compare(form, other):
        compared[0] += form is not other
        return algebra.Keyed.__eq__(form, other)

    for optional, walked in ((lambda level: level % 2 == 0, 3), (lambda level: False, depth)):
        a, b = (normalize(_optional_chain(depth, optional)) for _ in range(2))
        equal = a == b  # a failed assert would print both forms, exponential in depth
        assert equal and a.alternatives[-1][0] is not b.alternatives[-1][0]
        for mode in MatchMode:
            builds[0] = compared[0] = 0
            monkeypatch.setattr(NormalForm, "_canonical", counted)
            monkeypatch.setattr(NormalForm, "__eq__", compare)
            got, walks = _count_pair_walks(monkeypatch, a, b, mode, vocab)
            monkeypatch.undo()
            assert builds[0] == 1, (mode, builds[0])
            assert compared[0] == 0, (mode, compared[0])
            same = got == a  # the result keeps a's instances: compared by identity
            assert same
            assert len(walks) == len(set(walks)) == walked, (mode, len(walks))


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
    # pairs share one bucket; the nested walk over the wide, declared form
    # must still bucket its 20 alternatives (20 checks, not 400).  Against a
    # form holding only the last of them in order, bucketing makes that walk
    # 1 check where a nested loop would make 20; the two X forms are distinct,
    # and without a URI table their reversed pair is walked as well.
    a, b, x = QName(NS, "A"), QName(NS, "B"), QName(NS, "X")
    wide_names = [QName(NS, f"W{i}") for i in range(20)]
    vocab = _declared(a, b, *wide_names)
    wide = nf(*([AssertionInstance(w)] for w in wide_names))

    def form(nested_b):
        return nf([AssertionInstance(a, nested=nf([AssertionInstance(x)]))],
                  [AssertionInstance(b, nested=nested_b)])

    p, last = form(wide), form(nf(wide.alternatives[-1]))
    original = algebra._Join.alternatives
    for q, bound in ((p, 4 + 1 + len(wide_names)), (last, 4 + 2 + 1)):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(algebra._Join, "alternatives", counted)
        got = intersect(p, q, MatchMode.SEMANTIC, vocab)
        monkeypatch.setattr(algebra._Join, "alternatives", original)
        assert got == _intersect_reference(p, q, MatchMode.SEMANTIC, vocab)
        assert 1 <= calls[0] <= bound, calls[0]


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
    pair = nf([a, b])
    assert _matches(pair, pair, MatchMode.SEMANTIC, both) == [[]]


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


# --- the pair order that intersect and --explain share -----------------------

def _pairs_reference(p, q, mode, vocab) -> list:
    """Each compatible pair in nested-loop order, with every two of its
    instances with distinct QNames that match and the least URI both declare,
    each pair's matches decided before the next pair."""
    found = []
    for alt_a in p.alternatives:
        for alt_b in q.alternatives:
            if _alternatives_compatible_reference(alt_a, alt_b, mode, vocab):
                found.append((alt_a, alt_b, [
                    (a.qname, b.qname, min(_reference_uris(vocab[a.qname])
                                           & _reference_uris(vocab[b.qname])))
                    for a in alt_a for b in alt_b
                    if a.qname != b.qname and _assertions_compatible_reference(a, b, mode, vocab)]))
    return found


def _pairs(p, q, mode, vocab) -> list:
    return [(alt_a, alt_b, list(matches))
            for alt_a, alt_b, matches in compatible_pairs(p, q, mode, vocab)]


def _matches(p, q, mode, vocab) -> list:
    """Each compatible pair's matches of distinct QNames."""
    return [matches for *_, matches in _pairs(p, q, mode, vocab)]


def test_compatible_pairs_follow_the_nested_loop_on_random_corpora():
    # The three random corpora above, each with full, partial and no
    # vocabulary, in both modes: the same pairs in the same order, or the
    # same error.
    rng = random.Random(8128)
    outcomes = {(kind, outcome): 0 for kind in ("full", "partial", "none")
                for outcome in ("empty", "matched", "raised")}
    cross = dict.fromkeys(MatchMode, 0)
    qnames = default_pool(4)
    shared = [rand_normal_form(rng, qnames, max_nesting=2) for _ in range(3)] + [nf([])]
    for round_ in range(900):
        kind = ("full", "partial", "none")[round_ % 3]
        corpus = round_ // 3 % 3
        if corpus == 0:
            pool = default_pool(6)
            p, q = (rand_normal_form(rng, pool, max_nesting=2) for _ in range(2))
        elif corpus == 1:
            pool = default_pool(rng.randint(3, 10))
            p, q = _wide_form(rng, pool), _wide_form(rng, pool)
        else:
            pool = qnames
            p, q = (_shared_nesting_form(rng, qnames, shared) for _ in range(2))
        vocab = {"full": _full_vocab, "partial": _rand_vocab}.get(kind, lambda *_: None)(rng, pool)
        for mode in MatchMode:
            want = _outcome(_pairs_reference, p, q, mode, vocab)
            assert _outcome(_pairs, p, q, mode, vocab) == want, (p, q, mode, vocab)
            outcome = "raised" if isinstance(want, str) else "matched" if want else "empty"
            outcomes[kind, outcome] += 1
            if outcome == "matched":
                cross[mode] += sum(len(matches) for *_, matches in want)
    # A full vocabulary never raises; every other cell is reached.
    assert outcomes.pop(("full", "raised")) == 0
    assert min(outcomes.values()) > 20, outcomes
    # Strict mode matches no two distinct QNames; semantic mode matches many.
    assert cross[MatchMode.STRICT] == 0 and cross[MatchMode.SEMANTIC] > 100, cross


# --- the instance table: masks, the semi-join and unused ids ------------------

def _match_keys(instance, mode, vocab) -> set:
    """An instance's match keys: its QName in strict mode, else its
    declaration's normalized URIs, or its QName where there are none."""
    if mode is MatchMode.STRICT:
        return {instance.qname}
    return _reference_uris(vocab[instance.qname]) or {instance.qname}


def _checked_pairs(monkeypatch, p, q, mode, vocab) -> tuple[NormalForm, list]:
    """``intersect(p, q, mode, vocab)`` and the pairs of alternatives that
    reached ``_Join.alternatives``, at the top level or nested."""
    checked = []
    original = algebra._Join.alternatives

    def counted(join, alt_a, alt_b, uris):
        checked.append((alt_a, alt_b))
        return original(join, alt_a, alt_b, uris)

    monkeypatch.setattr(algebra._Join, "alternatives", counted)
    try:
        return intersect(p, q, mode, vocab), checked
    finally:
        monkeypatch.setattr(algebra._Join, "alternatives", original)


def test_dead_alternatives_are_never_checked(monkeypatch):
    # X's only URI is bridged to Y's by D's declaration, so X, D and Y once
    # shared one component and ([X], [Y]) was checked.  Y holds none of X's
    # keys: X is dead, and only ([D], [Y]) reaches the check.
    x, y, d = (QName(NS, name) for name in ("X", "Y", "D"))
    vocab = {
        x: AssertionDecl("X", "empty", annotation=SemanticAnnotation(("urn:u1",))),
        d: AssertionDecl("D", "empty", annotation=SemanticAnnotation(("urn:u1", "urn:u2"))),
        y: AssertionDecl("Y", "empty", annotation=SemanticAnnotation(("urn:u2",))),
    }
    p, q = nf([AssertionInstance(x)], [AssertionInstance(d)]), nf([AssertionInstance(y)])
    got, checked = _checked_pairs(monkeypatch, p, q, MatchMode.SEMANTIC, vocab)
    assert got == _intersect_reference(p, q, MatchMode.SEMANTIC, vocab) == nf(
        [AssertionInstance(d), AssertionInstance(y)])
    assert checked == [((AssertionInstance(d),), (AssertionInstance(y),))]
    # Strict: q holds no D, so only the alternative without D is checked (the
    # nested policy keeps the unchecked shortcut out of the way).
    t = AssertionInstance(QName(NS, "T"), nested=nf([AssertionInstance(QName(NS, "N"))]))
    p, q = nf([t, AssertionInstance(d)], [t]), nf([t])
    got, checked = _checked_pairs(monkeypatch, p, q, MatchMode.STRICT, None)
    assert got == _intersect_reference(p, q) == nf([t]) and checked[0] == ((t,), (t,))
    assert not any(AssertionInstance(d) in alt_a for alt_a, _ in checked)
    # On random forms with a full vocabulary (so no check can raise), no
    # top-level pair that reaches the check holds an instance sharing no key
    # with the other form, in either mode; the results equal the nested loop's.
    rng = random.Random(6174)
    dead = 0
    for _ in range(300):
        pool = default_pool(rng.randint(3, 8))
        vocab = _full_vocab(rng, pool)
        p, q = _wide_form(rng, pool), _wide_form(rng, pool)
        for mode in MatchMode:
            got, checked = _checked_pairs(monkeypatch, p, q, mode, vocab)
            assert got == _intersect_reference(p, q, mode, vocab), (p, q, mode)
            held_p, held_q = (set().union(*(_match_keys(i, mode, vocab)
                                            for alt in form.alternatives for i in alt))
                              for form in (p, q))
            top = [(a, b) for a, b in checked if any(a is alt for alt in p.alternatives)
                   and any(b is alt for alt in q.alternatives)]
            assert all(_match_keys(i, mode, vocab) & held_q for a, _ in top for i in a), top
            assert all(_match_keys(i, mode, vocab) & held_p for _, b in top for i in b), top
            dead += any(not _match_keys(i, mode, vocab) & held_q for alt in p.alternatives for i in alt)
    assert dead > 100, dead


def _top_level_instances(expr) -> set:
    """The instances of the references outside any nested policy."""
    found, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, AssertionRef):
            nested = normalize(node.nested) if node.nested is not None else None
            found.add(AssertionInstance(node.qname, node.parameters, nested))
        else:
            stack.extend(node.children)
    return found


def test_hash_and_equality_hold_where_an_id_is_left_unused():
    # An unsatisfiable branch gives its instances ids that no alternative
    # keeps; the table, and so the hash, must not count them.
    rng = random.Random(1618)
    unused = 0
    for _ in range(600):
        expr = rand_policy_expr(rng)
        if rng.random() < 0.5:
            expr = ExactlyOne(expr, All(rand_policy_expr(rng, max_refs=4), ExactlyOne()))
        got = normalize(expr)
        fresh = NormalForm.of(got.alternatives)
        assert got == fresh and fresh == got and hash(got) == hash(fresh)
        assert got == enumerate_alternatives_oracle(expr)
        kept = {i for alt in got.alternatives for i in alt}
        assert got._table[0] == tuple(sorted(kept, key=AssertionInstance.sort_key))
        unused += kept != _top_level_instances(expr)
    assert unused > 100, unused


def test_masks_wider_than_64_bits():
    qnames = [QName(NS, f"W{k:02d}") for k in range(70)]
    refs = [AssertionRef(q, parameters=(("k", k),)) for k, q in enumerate(qnames)]
    extra = AssertionRef(QName(NS, "Z"), optional=True)
    got = normalize(Policy(All(*refs, extra)))
    base = [AssertionInstance(q, (("k", k),)) for k, q in enumerate(qnames)]
    want = NormalForm.of([base, base + [AssertionInstance(QName(NS, "Z"))]])
    assert got == want and hash(got) == hash(want)
    assert [len(alt) for alt in got.alternatives] == [70, 71]
    # Intersecting two separately built copies joins 142 instance ids.
    other = normalize(Policy(All(*refs, extra)))
    for mode in MatchMode:
        vocab = _declared(*qnames, QName(NS, "Z"))
        assert intersect(got, other, mode, vocab) == _intersect_reference(got, other, mode, vocab) == got


# --- forms that share no key, and the shared empty result ---------------------

def test_a_mode_given_by_its_value_is_coerced():
    # X and Y share a concept, so strict and semantic matching disagree on them.
    x, y = QName(NS, "X"), QName(NS, "Y")
    vocab = {q: AssertionDecl(q.local, "empty", annotation=SemanticAnnotation(("urn:c",)))
             for q in (x, y)}
    ix, iy = AssertionInstance(x), AssertionInstance(y)
    p, q = nf([ix]), nf([iy])
    for mode in MatchMode:
        assert intersect(p, q, mode.value, vocab) == intersect(p, q, mode, vocab)
        assert _pairs(p, q, mode.value, vocab) == _pairs(p, q, mode, vocab)
        assert alternatives_compatible([ix], [iy], mode.value, vocab) is (mode is MatchMode.SEMANTIC)
        assert assertions_compatible(ix, iy, mode.value, vocab) is (mode is MatchMode.SEMANTIC)
    assert intersect(p, q, "strict", vocab) == NormalForm()
    assert intersect(p, q, "semantic", vocab) == nf([ix, iy])
    # Strict matching needs no vocabulary, whichever way the mode is given.
    assert intersect(p, q, "strict") == NormalForm() and not _pairs(p, q, "strict", None)
    for call in (lambda: intersect(p, q, "bogus", vocab), lambda: _pairs(p, q, "bogus", vocab),
                 lambda: alternatives_compatible([ix], [iy], "bogus", vocab),
                 lambda: assertions_compatible(ix, iy, "bogus", vocab)):
        with pytest.raises(ValueError):
            call()


def _disjoint_pair(rng, empty_sides: str) -> tuple[NormalForm, NormalForm, dict]:
    """Random forms over disjoint QName pools, nested instances included, and
    a full vocabulary declaring them over disjoint URI sets (some declarations
    unannotated).  ``empty_sides`` names the forms given an empty alternative;
    the other forms have none."""
    forms, vocab = [], {}
    for side in "pq":
        pool = [QName(f"urn:{side}", f"A{k}") for k in range(4)]
        uris = [f"urn:concept:{side}{k}" for k in range(3)]
        for qname in pool:
            annotated = rng.random() < 0.8
            vocab[qname] = AssertionDecl(qname.local, "empty", annotation=SemanticAnnotation(
                tuple(rng.sample(uris, rng.randint(1, 2)))) if annotated else None)
        alternatives = [alt for alt in rand_normal_form(rng, pool, max_nesting=2).alternatives if alt]
        forms.append(NormalForm.of(alternatives + ([()] if side in empty_sides else [])))
    return forms[0], forms[1], vocab


def test_forms_sharing_no_key_are_decided_from_the_key_sets():
    # Top level and nested under a shared T, with empty alternatives on
    # neither, one or both sides, in both modes: the same result and pairs as
    # the nested loop, and the same error once one QName is undeclared.
    rng = random.Random(2401)
    t = QName(NS, "T")
    outcomes = {"empty": 0, "matched": 0, "raised": 0}
    decided = 0
    for round_ in range(400):
        p, q, vocab = _disjoint_pair(rng, ("", "p", "q", "pq")[round_ % 4])
        for mode in MatchMode:
            join = algebra._Join(mode, vocab, p, q)
            decided += join.components(p, q, join.uris) is None
        if round_ % 8 >= 4:
            # The nested pair shares no key; T and the second alternatives do.
            vocab.update(_declared(t, A.qname))
            p, q = (nf([AssertionInstance(t, nested=form)], [inst(A)]) for form in (p, q))
        undeclared, names = dict(vocab), sorted(_distinct_qnames(p, q))
        if names:
            del undeclared[rng.choice(names)]
        for mode in MatchMode:
            for declarations in (vocab, undeclared, None):
                want = _outcome(_intersect_reference, p, q, mode, declarations)
                assert _outcome(intersect, p, q, mode, declarations) == want, (p, q, mode)
                assert _outcome(_pairs, p, q, mode, declarations) == _outcome(
                    _pairs_reference, p, q, mode, declarations), (p, q, mode)
                if isinstance(want, str):
                    outcomes["raised"] += 1
                else:
                    outcomes["matched" if want.satisfiable else "empty"] += 1
    assert decided == 800 and min(outcomes.values()) > 100, (decided, outcomes)


def test_an_empty_intersection_of_forms_sharing_nothing_builds_no_form(monkeypatch):
    rng = random.Random(31)
    pairs = [_disjoint_pair(rng, "") for _ in range(20)]
    calls = []
    original = NormalForm._canonical

    def counted(form, *args):
        calls.append(form)
        return original(form, *args)

    monkeypatch.setattr(NormalForm, "_canonical", counted)
    for p, q, vocab in pairs:
        for mode in MatchMode:
            assert intersect(p, q, mode, vocab) is intersect(q, p, mode, vocab)
            assert not intersect(p, q, mode, vocab).satisfiable
    assert calls == []


def test_the_shared_empty_result_is_a_plain_unsatisfiable_form():
    p, q = nf([inst(A)]), nf([inst(B)])
    first, second = intersect(p, q), intersect(q, p, MatchMode.SEMANTIC, _declared(A.qname, B.qname))
    fresh = NormalForm()
    assert first is second
    assert first == fresh and fresh == first and hash(first) == hash(fresh)
    assert not first.satisfiable and first.alternatives == ()
    assert repr(first) == repr(fresh) and first.sort_key() == fresh.sort_key()
    before = (hash(first), repr(first), pickle.dumps(first))
    assert first._qnames == first._deep_qnames == frozenset()
    assert (hash(first), repr(first), pickle.dumps(first)) == before
    for twin in (copy.copy(first), copy.deepcopy(first), pickle.loads(before[2])):
        assert twin == first == fresh and hash(twin) == hash(fresh)
        assert not {"_qnames", "_deep_qnames"} & set(vars(twin))
    with pytest.raises(FrozenInstanceError):
        first.alternatives = ((inst(A),),)
    with pytest.raises(FrozenInstanceError):
        del first.alternatives
    assert first == fresh and not first.satisfiable
