"""Test-side references for normalization.

``enumerate_alternatives_oracle`` enumerates alternatives exhaustively, and
``expand_optional`` rewrites optional flags into explicit operators; the
tests compare ``normalize`` against both.
"""
from __future__ import annotations

from wspolicy import All, AssertionInstance, AssertionRef, ExactlyOne, NormalForm, PolicyExpr
from wspolicy.algebra import iter_refs

ORACLE_LIMIT = 16


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
    """Test-scale oracle: enumerate alternatives exhaustively, as lists of
    instances, without any shortcut used by normalize.

    Refuses trees with more than ORACLE_LIMIT assertion references.
    """
    count = sum(1 for _ in iter_refs(expr))
    if count > ORACLE_LIMIT:
        raise ValueError(
            f"oracle limited to {ORACLE_LIMIT} assertion references, tree has {count}"
        )
    return NormalForm.of(_enumerate(expr))
