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
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

from .errors import OracleLimitError, VocabularyError
from .names import QName, normalize_uri

ParamValue = Union[str, int, float, bool]

# Levels a policy may nest, counting the root policy as 1 and every operator,
# assertion and nested policy below it (in XML, every element).  The readers
# refuse deeper policies: they and the algebra recurse once or more per
# level, so this keeps both far from Python's recursion limit.
MAX_POLICY_DEPTH = 100


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


class Keyed:
    """Base of frozen dataclasses whose equality and hash read a key set by ``_freeze``."""

    def _freeze(self, key: tuple, identity: object) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(identity))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or (self._hash == other._hash and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return self._key

    def __reduce__(self):  # rebuilt from the fields: a str hash differs between processes
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class AssertionInstance(Keyed):
    """One assertion occurrence inside an alternative.

    Parameter values are stored in lexical form and sorted by name so equal
    instances compare and hash equal regardless of construction order.
    """

    qname: QName
    parameters: tuple[tuple[str, str], ...] = ()
    nested: Optional["NormalForm"] = None

    def __post_init__(self):
        canon = tuple(
            sorted((name, lexical_value(value)) for name, value in self.parameters)
        )
        object.__setattr__(self, "parameters", canon)
        # The presence flag keeps the key injective: an absent nested policy
        # must not collide with a present-but-unsatisfiable one.
        nested = self.nested
        key = (canon, nested is not None, nested.sort_key() if nested is not None else ())
        self._freeze(self.qname.sort_key() + key, (self.qname, canon, nested))


Alternative = tuple[AssertionInstance, ...]


@dataclass(frozen=True, eq=False)
class NormalForm(Keyed):
    """Canonical choice-of-conjunctions.

    Alternatives are kept as sorted tuples of unique instances, themselves
    sorted and de-duplicated, so structural equality is canonical equality.
    """

    alternatives: tuple[Alternative, ...] = ()

    def __post_init__(self):
        ids: dict[AssertionInstance, int] = {}
        sets = {frozenset(ids.setdefault(i, len(ids)) for i in alt) for alt in self.alternatives}
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
        object.__setattr__(self, "alternatives", alternatives)
        self._freeze(alternatives, alternatives)

    def sort_key(self) -> tuple:
        return tuple(tuple(i._key for i in alt) for alt in self.alternatives)

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


def expand_optional(expr: PolicyExpr) -> PolicyExpr:
    """Rewrite away every optional flag.

    An optional reference becomes the two-way choice between an alternative
    containing it and an empty alternative; nested policies are rewritten too.
    """
    if isinstance(expr, AssertionRef):
        nested = expand_optional(expr.nested) if expr.nested is not None else None
        base = AssertionRef(expr.qname, optional=False, parameters=expr.parameters, nested=nested)
        if expr.optional:
            return ExactlyOne(All(base), All())
        return base
    ctor = type(expr)
    return ctor(*(expand_optional(child) for child in expr.children))


def _instance_of(ref: AssertionRef) -> AssertionInstance:
    nested = normalize(ref.nested) if ref.nested is not None else None
    return AssertionInstance(ref.qname, ref.parameters, nested)


def _distribute(expr: PolicyExpr, ids: dict[AssertionInstance, int]) -> list[frozenset[int]]:
    """Alternatives as sets of the ids ``ids`` gives each distinct instance."""
    if isinstance(expr, AssertionRef):
        return [frozenset((ids.setdefault(_instance_of(expr), len(ids)),))]
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
    contributes no alternative at all (the unsatisfiable policy).
    """
    nf, ids = object.__new__(NormalForm), {}
    nf._canonical(set(_distribute(expand_optional(expr), ids)), ids)
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


ORACLE_LIMIT = 16


def _enumerate(expr: PolicyExpr) -> list[list[AssertionInstance]]:
    if isinstance(expr, AssertionRef):
        nested = enumerate_alternatives_oracle(expr.nested) if expr.nested is not None else None
        instance = AssertionInstance(expr.qname, expr.parameters, nested)
        branches = [[instance]]
        if expr.optional:
            branches.append([])
        return branches
    if isinstance(expr, ExactlyOne):
        out: list[list[AssertionInstance]] = []
        for child in expr.children:
            out.extend(_enumerate(child))
        return out
    combos: list[list[AssertionInstance]] = [[]]
    for child in expr.children:
        child_alts = _enumerate(child)
        combos = [a + b for a in combos for b in child_alts]
    return combos


def enumerate_alternatives_oracle(expr: PolicyExpr) -> NormalForm:
    """Test-scale oracle: enumerate alternatives exhaustively, without the
    optional-flag rewrite or any other shortcut used by normalize.

    Refuses trees with more than ORACLE_LIMIT assertion references.
    """
    count = sum(1 for _ in iter_refs(expr))
    if count > ORACLE_LIMIT:
        raise OracleLimitError(
            f"oracle limited to {ORACLE_LIMIT} assertion references, tree has {count}"
        )
    return NormalForm.of(_enumerate(expr))


# Distinct modelReference tuples whose normalized sets are kept.  Entries are
# keyed by the URI tuple itself, never by the QName that declared it, so a
# vocabulary that changes a declaration can never meet a stale entry.
URI_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=URI_CACHE_SIZE)
def _normalized_uris(model_reference: tuple[str, ...]) -> frozenset[str]:
    return frozenset(normalize_uri(uri) for uri in model_reference)


def _model_reference_set(decl: Any) -> frozenset[str]:
    annotation = getattr(decl, "annotation", None)
    if annotation is None:
        return frozenset()
    return _normalized_uris(tuple(annotation.model_reference))


def _declared_uris(a: QName, b: QName, vocab: Optional[Vocabulary]):
    """Both declarations' normalized modelReference sets; raises if one is missing."""
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


def assertions_compatible(
    a: AssertionInstance,
    b: AssertionInstance,
    mode: MatchMode = MatchMode.STRICT,
    vocab: Optional[Vocabulary] = None,
    *, _memo: Optional[dict] = None,
) -> bool:
    """Instance compatibility.

    Strict: equal QNames.  Semantic: equal QNames, or the two declarations
    share a modelReference URI (annotations are consulted only for distinct
    QNames).  Either way both must lack nested policies or their nested normal
    forms must intersect non-emptily; parameters never participate.
    """
    if a.qname != b.qname:
        if mode is MatchMode.STRICT:
            return False
        uris_a, uris_b = _declared_uris(a.qname, b.qname, vocab)
        if uris_a.isdisjoint(uris_b):
            return False
    if a.nested is None or b.nested is None:
        return a.nested is None and b.nested is None
    memo = {} if _memo is None else _memo
    pair = (a.nested, b.nested)
    if pair not in memo:
        memo[pair] = intersect(a.nested, b.nested, mode, vocab, _memo=memo).satisfiable
    return memo[pair]


def alternatives_compatible(
    alt_a: Iterable[AssertionInstance],
    alt_b: Iterable[AssertionInstance],
    mode: MatchMode = MatchMode.STRICT,
    vocab: Optional[Vocabulary] = None,
    *, _memo: Optional[dict] = None,
) -> bool:
    """Every instance on each side must have a compatible partner on the other."""
    alt_a = tuple(alt_a)
    alt_b = tuple(alt_b)
    return all(
        any(assertions_compatible(a, b, mode, vocab, _memo=_memo) for b in alt_b) for a in alt_a
    ) and all(
        any(assertions_compatible(b, a, mode, vocab, _memo=_memo) for a in alt_a) for b in alt_b
    )


def _all_qnames(nf: NormalForm) -> Iterator[QName]:
    for alt in nf.alternatives:
        for instance in alt:
            yield instance.qname
            if instance.nested is not None:
                yield from _all_qnames(instance.nested)


# The memo key under which a top-level intersect call keeps whether every
# QName of its two forms, at every depth, is declared; no pair of forms equals it.
# Every later call on that memo intersects forms nested in those two, so a
# True answer holds for them and spares their walk; after a False answer each
# nested call walks its own forms, and one whose forms are declared still
# buckets its alternatives.
_DECLARED = object()


def _match_components(
    p: NormalForm, q: NormalForm, mode: MatchMode, vocab: Optional[Vocabulary], memo: dict
) -> Optional[dict[QName, Any]]:
    """Component of every top-level QName of ``p`` and ``q``; None when a
    semantic check could raise, i.e. a declaration is missing at any depth of
    the two forms the top-level intersect call was given.

    Nested calls share that call's ``memo``; once the top-level call has found
    every QName declared, they do not walk again."""
    qnames = {i.qname for nf in (p, q) for alt in nf.alternatives for i in alt}
    if mode is MatchMode.STRICT:
        return {qname: qname for qname in qnames}
    if vocab is None:
        return None
    if not memo.get(_DECLARED):
        declared = all(qname in vocab for nf in (p, q) for qname in _all_qnames(nf))
        memo.setdefault(_DECLARED, declared)
        if not declared:
            return None
    # Union-find over URIs, joining the URIs of each declaration.  A QName's
    # component is that of its URIs; one without URIs matches only itself, so
    # its QName is its component (a QName never equals a str).
    parent: dict[str, str] = {}

    def find(uri: str) -> str:
        while parent.setdefault(uri, uri) != uri:
            parent[uri] = parent[parent[uri]]
            uri = parent[uri]
        return uri

    uris = {qname: list(_model_reference_set(vocab[qname])) for qname in qnames}
    for refs in uris.values():
        for uri in refs[1:]:
            parent[find(uri)] = find(refs[0])
    return {qname: find(refs[0]) if refs else qname for qname, refs in uris.items()}


def intersect(
    p: NormalForm,
    q: NormalForm,
    mode: MatchMode = MatchMode.STRICT,
    vocab: Optional[Vocabulary] = None,
    *, _memo: Optional[dict] = None,
) -> NormalForm:
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

    One top-level call intersects each ordered pair of nested forms once and
    keeps the answer until it returns, as a repeat would redo the same checks.
    Where no check can raise, compatibility is symmetric and the answer also
    stands for the reversed pair.  Nesting costs time linear in depth, not 2^depth.
    """
    memo = {} if _memo is None else _memo
    components = _match_components(p, q, mode, vocab, memo)

    def signature(alt: Alternative):
        if components is None:
            return bool(alt)
        return frozenset(components[i.qname] for i in alt)

    def flat(alt: Alternative) -> bool:
        return mode is MatchMode.STRICT and all(i.nested is None for i in alt)

    buckets: dict[Any, list[tuple[Alternative, bool]]] = {}
    for alt_b in q.alternatives:
        buckets.setdefault(signature(alt_b), []).append((alt_b, flat(alt_b)))
    found: list[Alternative] = []
    for alt_a in p.alternatives:
        flat_a = flat(alt_a)
        for alt_b, flat_b in buckets.get(signature(alt_a), ()):
            if flat_a and flat_b or alternatives_compatible(alt_a, alt_b, mode, vocab, _memo=memo):
                found.append(alt_a + alt_b)
    result = NormalForm.of(found)
    if components is not None:
        memo[q, p] = result.satisfiable
    return result


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
