"""WS-Policy operator trees, normal forms, and the intersection algebra.

A policy is a finite tree of operators over assertion references.  ``Policy``
and ``All`` mean "everything below applies together"; ``ExactlyOne`` offers a
choice.  Normalization rewrites any tree into the explicit
choice-of-conjunctions shape: a set of alternatives, each alternative a set of
assertion instances.  Intersection computes the alternatives two normalized
policies have in common, either by exact QName matching (strict) or by shared
semantic-concept URIs taken from the assertion vocabulary (semantic).
"""
from __future__ import annotations

import functools
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

from .errors import VocabularyError
from .names import QName, Value, normalize_uri

ParamValue = Union[str, int, float, bool]

# Levels a policy may nest, counting the root policy as 1 and every operator,
# assertion and nested policy below it (in XML, every element).  The readers
# refuse deeper policies: they and the algebra recurse once or more per
# level, so this keeps both far from Python's recursion limit.
MAX_POLICY_DEPTH = 100

_set = object.__setattr__


def lexical_value(value: ParamValue) -> str:
    """XML lexical form of a parameter literal; also the normal-form key."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return value


class PolicyExpr:
    """Base class for policy tree nodes."""

    __slots__ = ()


class _Operator(PolicyExpr):
    __slots__ = ("children",)

    def __init__(self, *children: PolicyExpr):
        for child in children:
            if not isinstance(child, PolicyExpr):
                raise TypeError(
                    f"operator child must be a PolicyExpr, got {type(child).__name__}"
                )
        self.children: tuple[PolicyExpr, ...] = tuple(children)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.children))})"


class Policy(_Operator):
    """Root wrapper node; same meaning as All, emitted as wsp:Policy."""


class All(_Operator):
    pass


class ExactlyOne(_Operator):
    pass


class AssertionRef(PolicyExpr):
    """Reference to one assertion, with optional flag, parameters and an
    optional nested policy tree."""

    __slots__ = ("qname", "optional", "parameters", "nested")

    def __init__(
        self,
        qname: QName,
        optional: bool = False,
        parameters: Iterable[tuple[str, ParamValue]] = (),
        nested: Optional[PolicyExpr] = None,
    ):
        self.qname = qname
        self.optional = bool(optional)
        self.parameters: tuple[tuple[str, ParamValue], ...] = tuple(
            (name, value) for name, value in parameters
        )
        self.nested = nested

    def _key(self):
        return (self.qname, self.optional, self.parameters, self.nested)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AssertionRef) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        flags = []
        if self.optional:
            flags.append("optional=True")
        if self.parameters:
            flags.append(f"parameters={self.parameters!r}")
        if self.nested is not None:
            flags.append(f"nested={self.nested!r}")
        inner = ", ".join([str(self.qname)] + flags)
        return f"AssertionRef({inner})"


class Keyed(Value):
    """Base of values whose equality and hash read a key set by ``_freeze``."""

    __slots__ = ("_key", "_hash")

    def _freeze(self, key: tuple, identity: object) -> None:
        _set(self, "_key", key)
        _set(self, "_hash", hash(identity))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return self._key


class AssertionInstance(Keyed):
    """One assertion occurrence inside an alternative.

    Parameter values are stored in lexical form and sorted by name so equal
    instances compare and hash equal regardless of construction order.
    """

    __slots__ = ("qname", "parameters", "nested")

    def __init__(self, qname: QName, parameters: Iterable[tuple[str, ParamValue]] = (),
                 nested: Optional["NormalForm"] = None):
        canon = tuple(sorted((name, lexical_value(value)) for name, value in parameters))
        _set(self, "qname", qname)
        _set(self, "parameters", canon)
        _set(self, "nested", nested)
        # The presence flag keeps the key injective: an absent nested policy
        # must not collide with a present-but-unsatisfiable one.
        key = (canon, nested is not None, nested.sort_key() if nested is not None else ())
        self._freeze(qname.sort_key() + key, (qname, canon, nested))


Alternative = tuple[AssertionInstance, ...]
Pair = tuple[Alternative, Alternative]


class NormalForm(Keyed):
    """Canonical choice-of-conjunctions.

    Alternatives are kept as sorted tuples of unique instances, themselves
    sorted and de-duplicated, so structural equality is canonical equality.
    """

    # __dict__ holds the two cached QName sets below, which cached_property needs.
    __slots__ = ("alternatives", "__dict__")

    def __init__(self, alternatives: tuple[Alternative, ...] = ()):
        ids: dict[AssertionInstance, int] = {}
        sets = {frozenset(ids.setdefault(i, len(ids)) for i in alt) for alt in alternatives}
        self._canonical(sets, ids)

    def _canonical(self, sets: set[frozenset[int]], ids: dict[AssertionInstance, int]) -> None:
        """Set the alternatives from distinct sets of instance ``ids``, emptying
        ``sets``: sorting them as tuples of ranks orders them by instance keys."""
        by_rank = sorted(ids, key=Keyed.sort_key)
        rank = [0] * len(by_rank)
        for r, instance in enumerate(by_rank):
            rank[ids[instance]] = r
        ranked = sorted(tuple(sorted(map(rank.__getitem__, alt))) for alt in sets)
        sets.clear()  # the id sets of a wide policy are large: free them first
        alternatives = tuple(tuple(map(by_rank.__getitem__, alt)) for alt in ranked)
        _set(self, "alternatives", alternatives)
        self._freeze(alternatives, alternatives)

    def sort_key(self) -> tuple:
        return tuple(tuple(i._key for i in alt) for alt in self.alternatives)

    # Intersect's QName sets, kept on first use: no fields, so in no key or pickle.
    @functools.cached_property
    def _qnames(self) -> frozenset[QName]:
        return frozenset(i.qname for alt in self.alternatives for i in alt)

    @functools.cached_property
    def _deep_qnames(self) -> frozenset[QName]:
        nested = {i.nested for alt in self.alternatives for i in alt if i.nested is not None}
        return self._qnames.union(*(n._deep_qnames for n in nested))

    @staticmethod
    def of(alternatives: Iterable[Iterable[AssertionInstance]]) -> "NormalForm":
        return NormalForm(tuple(tuple(alt) for alt in alternatives))

    @property
    def satisfiable(self) -> bool:
        return bool(self.alternatives)


class MatchMode(Enum):
    STRICT = "strict"
    SEMANTIC = "semantic"


# An assertion vocabulary maps QName -> declaration; declarations only need an
# ``annotation`` attribute exposing ``model_reference`` (see model.AssertionDecl).
Vocabulary = Mapping[QName, Any]


def iter_refs(expr: PolicyExpr) -> Iterator[AssertionRef]:
    """Every assertion reference in a policy tree, nested policies included,
    in document order.  Walks with an explicit stack, so depth costs no
    interpreter frames."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, AssertionRef):
            yield node
            if node.nested is not None:
                stack.append(node.nested)
        else:
            stack.extend(reversed(node.children))


def _instance_of(ref: AssertionRef) -> AssertionInstance:
    nested = normalize(ref.nested) if ref.nested is not None else None
    return AssertionInstance(ref.qname, ref.parameters, nested)


def _distribute(expr: PolicyExpr, ids: dict[AssertionInstance, int]) -> list[frozenset[int]]:
    """Alternatives as sets of the ids ``ids`` gives each distinct instance.
    An optional reference offers two: with its instance and without."""
    if isinstance(expr, AssertionRef):
        one = frozenset((ids.setdefault(_instance_of(expr), len(ids)),))
        return [one, frozenset()] if expr.optional else [one]
    if isinstance(expr, ExactlyOne):
        out: list[frozenset[int]] = []
        for child in expr.children:
            out.extend(_distribute(child, ids))
        return out
    # Policy and All take the pairwise union over the children's alternatives.
    acc: list[frozenset[int]] = [frozenset()]
    for child in expr.children:
        child_alts = _distribute(child, ids)
        acc = [a | b if b else a for a in acc for b in child_alts]
    return acc


def normalize(expr: PolicyExpr) -> NormalForm:
    """Reduce a policy tree to its canonical set of alternatives.

    ``All()`` contributes the single empty alternative, ``ExactlyOne()``
    contributes no alternative at all (the unsatisfiable policy).  Optional
    flags are expanded during distribution, at every depth, as WS-Policy's
    ``ExactlyOne(All(A), All())``; no rewritten tree is built.
    """
    nf, ids = object.__new__(NormalForm), {}
    nf._canonical(set(_distribute(expr, ids)), ids)
    return nf


def satisfiable(expr: PolicyExpr) -> bool:
    """``normalize(expr).satisfiable``, read off the tree without expanding it:
    an assertion always yields an alternative, ExactlyOne needs one
    satisfiable child, and Policy and All need every child satisfiable."""
    if isinstance(expr, AssertionRef):
        return True
    if isinstance(expr, ExactlyOne):
        return any(satisfiable(child) for child in expr.children)
    return all(satisfiable(child) for child in expr.children)


# Distinct modelReference tuples whose normalized sets are kept.  Entries are
# keyed by the URI tuple itself, never by the QName that declared it, so a
# vocabulary that changes a declaration can never meet a stale entry.
URI_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=URI_CACHE_SIZE)
def _normalized_uris(model_reference: tuple[str, ...]) -> frozenset[str]:
    return frozenset(normalize_uri(uri) for uri in model_reference)


def _model_reference_set(decl: Any) -> frozenset[str]:
    annotation = getattr(decl, "annotation", None)
    return _normalized_uris(() if annotation is None else tuple(annotation.model_reference))


def _declared_uris(a: QName, b: QName, vocab: Optional[Vocabulary]):
    """Both declarations' URI sets; raises if one is missing."""
    if vocab is None:
        raise VocabularyError("semantic matching requires an assertion vocabulary")
    for qname in (a, b):
        if qname not in vocab:
            raise VocabularyError(f"no declaration for assertion {qname}")
    return _model_reference_set(vocab[a]), _model_reference_set(vocab[b])


def semantic_match_uris(a: QName, b: QName, vocab: Optional[Vocabulary]) -> tuple[str, ...]:
    """Shared modelReference URIs (normalized, sorted) between two declared
    assertions; raises when either declaration is missing."""
    return tuple(sorted(frozenset.intersection(*_declared_uris(a, b, vocab))))


class _Join:
    """One top-level call's mode, vocabulary, URI table and nested-pair answers.
    The table maps each QName of the two forms, at any depth, to its
    modelReference set: empty in strict mode, None where a check could raise
    (no vocabulary, a QName undeclared, or no forms).  Answers are keyed by
    the nested forms' ids: each stays reachable from the call's arguments
    until it returns, so no id is reused and no lookup compares by value."""

    __slots__ = ("mode", "vocab", "uris", "answers")

    def __init__(self, mode: MatchMode, vocab: Optional[Vocabulary], *forms: NormalForm):
        self.mode, self.vocab, self.answers = mode, vocab, {}
        self.uris = self.table(*forms) if forms else None

    def table(self, p: NormalForm, q: NormalForm) -> Optional[dict]:
        if self.mode is MatchMode.STRICT:
            return {}
        if self.vocab is None:
            return None
        try:
            return {n: _model_reference_set(self.vocab[n]) for n in p._deep_qnames | q._deep_qnames}
        except KeyError:
            return None

    def components(self, p: NormalForm, q: NormalForm, uris) -> Optional[dict[QName, Any]]:
        """Component of every top-level QName of ``p`` and ``q``; None without a table."""
        if uris is None:
            return None
        if self.mode is MatchMode.STRICT:
            return {qname: qname for qname in p._qnames | q._qnames}
        # Union-find joining the URIs of each declaration.  A QName's component is
        # their root; one without URIs is its own (a QName never equals a str).
        parent: dict[str, str] = {}
        heads = []
        for qname in p._qnames | q._qnames:
            head = qname
            for uri in uris[qname]:
                while parent.setdefault(uri, uri) != uri:
                    parent[uri] = uri = parent[parent[uri]]
                parent[uri] = head = uri if head is qname else head
            heads.append((qname, head))
        components = {}
        for qname, head in heads:
            while parent.get(head, head) != head:
                head = parent[head]
            components[qname] = head
        return components

    def pairs(self, p: NormalForm, q: NormalForm, uris) -> Iterator[Pair]:
        """The compatible pairs in nested-loop order, joined as ``intersect`` describes."""
        components = self.components(p, q, uris)

        def signature(alt: Alternative):
            return bool(alt) if components is None else frozenset(components[i.qname] for i in alt)

        def flat(alt: Alternative) -> bool:
            return self.mode is MatchMode.STRICT and all(i.nested is None for i in alt)

        buckets: dict[Any, list[tuple[Alternative, bool]]] = {}
        for alt_b in q.alternatives:
            buckets.setdefault(signature(alt_b), []).append((alt_b, flat(alt_b)))
        for alt_a in p.alternatives:
            flat_a = flat(alt_a)
            for alt_b, flat_b in buckets.get(signature(alt_a), ()):
                if flat_a and flat_b or self.alternatives(alt_a, alt_b, uris):
                    yield alt_a, alt_b

    def alternatives(self, alt_a: Alternative, alt_b: Alternative, uris) -> bool:
        return all(any(self.assertions(a, b, uris) for b in alt_b) for a in alt_a) and all(
            any(self.assertions(b, a, uris) for a in alt_a) for b in alt_b)

    def assertions(self, a: AssertionInstance, b: AssertionInstance, uris) -> bool:
        if a.qname != b.qname:
            if self.mode is MatchMode.STRICT:
                return False
            if uris is None:
                uris_a, uris_b = _declared_uris(a.qname, b.qname, self.vocab)
            else:
                uris_a, uris_b = uris[a.qname], uris[b.qname]
            if uris_a.isdisjoint(uris_b):
                return False
        if a.nested is None or b.nested is None:
            return a.nested is None and b.nested is None
        return self.nested(a.nested, b.nested, uris)

    def nested(self, p: NormalForm, q: NormalForm, uris) -> bool:
        """Whether ``p`` and ``q`` intersect.  Under a table no check can raise,
        so the first compatible pair answers, for the reversed pair too; without
        one every pair is tried, to raise as a nested loop would."""
        key = (id(p), id(q))
        if key not in self.answers:
            uris = self.table(p, q) if uris is None else uris
            found = self.pairs(p, q, uris)
            if uris is None:
                self.answers[key] = bool(list(found))
            else:
                self.answers[key] = self.answers[id(q), id(p)] = next(found, None) is not None
        return self.answers[key]


def assertions_compatible(a: AssertionInstance, b: AssertionInstance,
                          mode: MatchMode = MatchMode.STRICT,
                          vocab: Optional[Vocabulary] = None) -> bool:
    """Instance compatibility.

    Strict: equal QNames.  Semantic: equal QNames, or the two declarations
    share a modelReference URI (annotations are consulted only for distinct
    QNames).  Either way both must lack nested policies or their nested normal
    forms must intersect non-emptily; parameters never participate.
    """
    return _Join(mode, vocab).assertions(a, b, None)


def alternatives_compatible(alt_a: Iterable[AssertionInstance], alt_b: Iterable[AssertionInstance],
                            mode: MatchMode = MatchMode.STRICT,
                            vocab: Optional[Vocabulary] = None) -> bool:
    """Every instance on each side must have a compatible partner on the other."""
    return _Join(mode, vocab).alternatives(tuple(alt_a), tuple(alt_b), None)


def compatible_pairs(p: NormalForm, q: NormalForm, mode: MatchMode = MatchMode.STRICT,
                     vocab: Optional[Vocabulary] = None) -> Iterator[Pair]:
    """Each pair of an alternative of ``p`` and one of ``q`` that
    ``alternatives_compatible`` accepts, in nested-loop order: ``p``'s
    alternatives outermost.  The pairs ``intersect`` joins."""
    join = _Join(mode, vocab, p, q)
    return join.pairs(p, q, join.uris)


def intersect(p: NormalForm, q: NormalForm, mode: MatchMode = MatchMode.STRICT,
              vocab: Optional[Vocabulary] = None) -> NormalForm:
    """Alternatives acceptable to both policies.

    Each compatible pair of alternatives contributes their union, instances
    kept as-is; an empty result means the policies share no behavior.

    Pairs are joined on a signature instead of all being tried.  An
    instance's match keys are its QName and, in semantic mode, the normalized
    modelReference URIs of its declaration; a union-find over both policies
    merges the keys of each instance into components, and an alternative's
    signature is the set of its instances' components.  This is exact: in a
    compatible pair every instance has a partner sharing a key with it, so
    both alternatives have the same signature.  Sharing a URI is not
    transitive, so equal signatures only select the pairs that
    ``alternatives_compatible`` then decides, in the nested-loop order.  In
    strict mode, equal signatures make two alternatives without nested
    policies compatible, unchecked.

    In semantic mode without a vocabulary, or with a QName at any depth of
    ``p`` or ``q`` undeclared, a check may raise VocabularyError.  Then every
    non-empty alternative shares one bucket, so the pairs that can raise are
    tried in the same order as a full nested loop and raise the same error.

    One top-level call decides each ordered pair of nested forms once, and
    where no check can raise it stops at the first compatible pair and lets
    the answer stand for the reversed pair too; when every QName is declared,
    it also reads each from ``vocab`` just once.  Nesting costs time linear in
    depth, not 2^depth.
    """
    return NormalForm.of(a + b for a, b in compatible_pairs(p, q, mode, vocab))


def merge(p: PolicyExpr, q: PolicyExpr) -> PolicyExpr:
    """Conjunction of two policies; normalizes to the cross-product union."""
    return All(p, q)


def normal_forms_equal(p: NormalForm, q: NormalForm) -> bool:
    """Canonical equality, comparing nested normal forms recursively."""
    return p == q


def denormalize(nf: NormalForm) -> PolicyExpr:
    """Rebuild the explicit choice-of-conjunctions tree for a normal form."""

    def ref_of(instance: AssertionInstance) -> AssertionRef:
        nested = denormalize(instance.nested) if instance.nested is not None else None
        return AssertionRef(instance.qname, parameters=instance.parameters, nested=nested)

    return Policy(
        ExactlyOne(*(All(*(ref_of(i) for i in alt)) for alt in nf.alternatives))
    )
