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
import math
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

from .errors import VocabularyError
from .names import QName, Value, check_xml_chars, normalize_uri

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


def check_param_value(value) -> ParamValue:
    """``value`` itself if a parameter can hold it; else ValueError, in the model file's words."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("parameter values must be finite")
    if not isinstance(value, (str, int, float)):  # bool is an int
        raise ValueError(f"expected a string, number or boolean, got {type(value).__name__}")
    return check_xml_chars(value) if isinstance(value, str) else value


class PolicyExpr(Value):
    """Base class for policy tree nodes: immutable values with a compact repr."""

    __slots__ = ()


class _Operator(PolicyExpr):
    __slots__ = ("children",)

    def __init__(self, *children: PolicyExpr):
        for child in children:
            if not isinstance(child, PolicyExpr):
                raise TypeError(
                    f"operator child must be a PolicyExpr, got {type(child).__name__}"
                )
        _set(self, "children", children)

    def __reduce__(self):  # the constructor takes the children one by one
        return type(self), self.children

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
        _set(self, "qname", qname)
        _set(self, "optional", bool(optional))
        _set(self, "parameters", tuple([(n, v) for n, v in parameters]) if parameters else ())
        _set(self, "nested", nested)

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
Match = tuple[QName, QName, str]


class NormalForm(Keyed):
    """Canonical choice-of-conjunctions.

    Alternatives are kept as sorted tuples of unique instances, themselves
    sorted and de-duplicated, so structural equality is canonical equality.
    Behind them a private table holds the distinct instances in rank order
    and each alternative as a tuple of their ranks; the hash is read from it.
    """

    # __dict__ holds the two cached QName sets below, which cached_property needs.
    __slots__ = ("alternatives", "_table", "__dict__")

    def __init__(self, alternatives: tuple[Alternative, ...] = ()):
        ids: dict[AssertionInstance, int] = {}
        self._canonical({sum({1 << ids.setdefault(i, len(ids)) for i in alt})
                         for alt in alternatives}, ids)

    def _canonical(self, masks: set[int], ids: dict[AssertionInstance, int]) -> "NormalForm":
        """Set the alternatives and the table from distinct masks over instance
        ``ids``, bit k for id k, and return the form.  Each mask is decoded to
        ranks once, a set bit at a time; sorting the rank tuples orders the
        alternatives by instance keys.  An id that no mask holds gets no rank."""
        held = functools.reduce(int.__or__, masks, 0)
        by_rank = sorted([i for i, k in ids.items() if held >> k & 1], key=Keyed.sort_key)
        rank_of_bit = {1 << ids[instance]: r for r, instance in enumerate(by_rank)}

        def ranks(mask: int) -> tuple[int, ...]:
            out = []
            while mask:
                low = mask & -mask
                out.append(rank_of_bit[low])
                mask ^= low
            return tuple(sorted(out))

        ranked = tuple(sorted(map(ranks, masks)))
        alternatives = tuple(tuple(map(by_rank.__getitem__, alt)) for alt in ranked)
        _set(self, "alternatives", alternatives)
        _set(self, "_table", (tuple(by_rank), ranked))
        self._freeze(alternatives, self._table)
        return self

    def sort_key(self) -> tuple:
        return tuple(tuple(i._key for i in alt) for alt in self.alternatives)

    # Intersect's QName sets, kept on first use: no fields, so in no key or pickle.
    @functools.cached_property
    def _qnames(self) -> frozenset[QName]:
        return frozenset(i.qname for i in self._table[0])

    @functools.cached_property
    def _deep_qnames(self) -> frozenset[QName]:
        nested = {i.nested for i in self._table[0] if i.nested is not None}
        return self._qnames.union(*(n._deep_qnames for n in nested))

    @staticmethod
    def of(alternatives: Iterable[Iterable[AssertionInstance]]) -> "NormalForm":
        return NormalForm(tuple(tuple(alt) for alt in alternatives))

    @property
    def satisfiable(self) -> bool:
        return bool(self.alternatives)


# The unsatisfiable form, built once: every empty intersection returns it.
_EMPTY = NormalForm()


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


def _distribute(expr: PolicyExpr, ids: dict[AssertionInstance, int]) -> list[int]:
    """Alternatives as masks, bit k for the instance ``ids`` numbers k.  An
    optional reference offers two: with its instance and without."""
    if isinstance(expr, AssertionRef):
        one = 1 << ids.setdefault(_instance_of(expr), len(ids))
        return [one, 0] if expr.optional else [one]
    if isinstance(expr, ExactlyOne):
        out: list[int] = []
        for child in expr.children:
            out.extend(_distribute(child, ids))
        return out
    # Policy and All take the pairwise union over the children's alternatives.
    acc = [0]
    for child in expr.children:
        child_alts = _distribute(child, ids)
        acc = [a | b for a in acc for b in child_alts]
    return acc


def normalize(expr: PolicyExpr) -> NormalForm:
    """Reduce a policy tree to its canonical set of alternatives.

    ``All()`` contributes the single empty alternative, ``ExactlyOne()``
    contributes no alternative at all (the unsatisfiable policy).  Optional
    flags are expanded during distribution, at every depth, as WS-Policy's
    ``ExactlyOne(All(A), All())``; no rewritten tree is built.
    """
    ids: dict[AssertionInstance, int] = {}
    return object.__new__(NormalForm)._canonical(set(_distribute(expr, ids)), ids)


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


class _Join:
    """One top-level call's mode, vocabulary, URI table and nested-pair answers.
    The table maps each QName of the two forms, at any depth, to its
    modelReference set: empty in strict mode, None where a check could raise
    (no vocabulary, a QName undeclared, or no forms).  Answers are keyed by
    the nested forms' ids: each stays reachable from the call's arguments
    until it returns, so no id is reused and no lookup compares by value.
    It joins over the forms' instance tables, keeping only the keys both hold
    (a semi-join); signatures are frozensets of small-int components."""

    __slots__ = ("mode", "vocab", "uris", "answers")

    def __init__(self, mode: MatchMode, vocab: Optional[Vocabulary], *forms: NormalForm):
        self.mode = mode if type(mode) is MatchMode else MatchMode(mode)
        self.vocab, self.answers = vocab, {}
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

    def components(self, p: NormalForm, q: NormalForm, uris) -> Optional[tuple[list, list]]:
        """Each instance's component in ``p`` and in ``q``, by rank: 0 for all
        without a table; None when the forms share no key.  Else None for a
        dead instance, holding no shared key, or the root of a union-find over
        the shared keys joining each instance's, ``~root`` if it nests."""
        if uris is None:
            return [0] * len(p._table[0]), [0] * len(q._table[0])
        strict = self.mode is MatchMode.STRICT
        keys = [[(i.qname,) if strict else uris[i.qname] or (i.qname,) for i in form._table[0]]
                for form in (p, q)]
        shared = set().union(*keys[0]) & set().union(*keys[1])
        if not shared:
            return None
        number = {key: n for n, key in enumerate(shared)}
        live = [[() if shared.isdisjoint(ks) else [n for n in map(number.get, ks) if n is not None]
                 for ks in side] for side in keys]
        parent = list(range(len(number)))

        def root(n: int) -> int:
            while parent[n] != n:
                parent[n] = n = parent[parent[n]]
            return n

        for ns in live[0] + live[1]:
            for n in ns[1:]:
                parent[root(n)] = root(ns[0])
        return tuple([None if not ns else root(ns[0]) if i.nested is None else ~root(ns[0])
                      for ns, i in zip(side, form._table[0])] for side, form in zip(live, (p, q)))

    def pairs(self, p: NormalForm, q: NormalForm, uris) -> Iterator[tuple[int, int]]:
        """Indices of the compatible pairs in nested-loop order, as ``intersect`` joins;
        forms sharing no key pair only their empty alternatives, each ranked first."""
        strict = self.mode is MatchMode.STRICT
        components = self.components(p, q, uris)
        if components is None:
            if p._table[1][:1] == q._table[1][:1] == ((),):
                yield 0, 0
            return
        comp_p, comp_q = components
        buckets: dict[frozenset, list[int]] = {}
        for j, alt in enumerate(q._table[1]):
            signature = frozenset(map(comp_q.__getitem__, alt))
            if None not in signature:
                buckets.setdefault(signature, []).append(j)
        for i, alt in enumerate(p._table[1]):
            signature = frozenset(map(comp_p.__getitem__, alt))
            for j in buckets.get(signature, ()):
                # Strict, and no instance nested on either side: compatible unchecked.
                if strict and min(signature or (0,)) >= 0 or self.alternatives(
                        p.alternatives[i], q.alternatives[j], uris):
                    yield i, j

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

    def matches(self, alt_a: Alternative, alt_b: Alternative, uris) -> Iterator[Match]:
        """Each two instances with distinct QNames that match, ``alt_a``'s
        outermost, with the least URI both declarations hold."""
        for a in alt_a:
            for b in alt_b:
                if a.qname != b.qname and self.assertions(a, b, uris):
                    sets = (_declared_uris(a.qname, b.qname, self.vocab) if uris is None
                            else (uris[a.qname], uris[b.qname]))
                    yield a.qname, b.qname, min(sets[0] & sets[1])

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
                     vocab: Optional[Vocabulary] = None,
                     ) -> Iterator[tuple[Alternative, Alternative, Iterator[Match]]]:
    """Each pair of an alternative of ``p`` and one of ``q`` that
    ``alternatives_compatible`` accepts, in nested-loop order: ``p``'s
    alternatives outermost.  The pairs ``intersect`` joins, each with its
    matches of distinct QNames, decided lazily by the join that found it."""
    join = _Join(mode, vocab, p, q)
    pairs = ((p.alternatives[i], q.alternatives[j]) for i, j in join.pairs(p, q, join.uris))
    return ((a, b, join.matches(a, b, join.uris)) for a, b in pairs)


def intersect(p: NormalForm, q: NormalForm, mode: MatchMode = MatchMode.STRICT,
              vocab: Optional[Vocabulary] = None) -> NormalForm:
    """Alternatives acceptable to both policies.

    Each compatible pair of alternatives contributes their union, instances
    kept as-is; an empty result means the policies share no behavior.

    Pairs are joined on a signature, over each form's instance table (its
    distinct instances in rank order, each alternative as their ranks).  An
    instance's match keys are its QName in strict mode, else the normalized
    modelReference URIs of its declaration, or its QName where it has none.
    A semi-join keeps only keys both forms hold: an instance left with none
    is dead, as no partner can share a key with it, and its alternatives are
    skipped unchecked.  A union-find over the shared keys, numbered as small
    ints, merges each instance's keys into a component; an alternative's
    signature is the frozenset of its instances' components, which also tell
    nested instances apart.  This is exact: in a compatible pair every
    instance has a partner sharing a key and nesting, so both alternatives
    have the same signature.  Sharing a URI is not transitive, so equal
    signatures only select the pairs that ``alternatives_compatible`` then
    decides, in the nested-loop order; in strict mode, two without nested
    policies are compatible unchecked.  Forms sharing no key, at any depth, are
    decided from the key sets alone: only empty alternatives pair.  The pairs'
    masks, ORed over one joint instance table, build the result once; every
    empty result is one unsatisfiable form, built at import and shared.

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
    join = _Join(mode, vocab, p, q)
    found = list(join.pairs(p, q, join.uris))
    if not found:
        return _EMPTY
    ids: dict[AssertionInstance, int] = {}
    bits_p, bits_q = ([1 << ids.setdefault(i, len(ids)) for i in form._table[0]] for form in (p, q))
    masks = {sum(map(bits_p.__getitem__, p._table[1][i]))
             | sum(map(bits_q.__getitem__, q._table[1][j])) for i, j in found}
    return object.__new__(NormalForm)._canonical(masks, ids)


def merge(p: PolicyExpr, q: PolicyExpr) -> PolicyExpr:
    """Conjunction of two policies; normalizes to the cross-product union."""
    return All(p, q)


def denormalize(nf: NormalForm) -> PolicyExpr:
    """Rebuild the explicit choice-of-conjunctions tree for a normal form."""

    def ref_of(instance: AssertionInstance) -> AssertionRef:
        nested = denormalize(instance.nested) if instance.nested is not None else None
        return AssertionRef(instance.qname, parameters=instance.parameters, nested=nested)

    return Policy(
        ExactlyOne(*(All(*(ref_of(i) for i in alt)) for alt in nf.alternatives))
    )
