"""Reduction from binary #CSP to the one-zero-pair six-vertex problem.

Every CSP variable becomes a cycle of f-vertices (one per occurrence, in
input order), every clause g(u, w) becomes a single vertex carrying
f(x1,x2,x3,x4) = g(x1,x4) [x1 != x2] [x3 != x4]. Each cycle then has exactly
two surviving configurations, the two cyclic orientations, which encode the
variable's 0/1 value; the f values reproduce the clause weights exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .grid import Port, SignatureGrid
from .scalar import ONE, Scalar, ZERO
from .signature import Signature, SixVertexParams, from_six_vertex

__all__ = [
    "CspInstance",
    "CspError",
    "CspReduction",
    "clause_signature",
    "csp_reduction",
    "csp_brute_force",
]


class CspError(ValueError):
    pass


@dataclass(frozen=True)
class CspInstance:
    variables: tuple
    clauses: tuple[tuple[object, object], ...]

    @classmethod
    def of(cls, variables, clauses) -> CspInstance:
        return cls(tuple(variables), tuple((u, w) for u, w in clauses))


def clause_signature(g: Signature) -> Signature:
    """f = g(x1,x4) [x1!=x2] [x3!=x4], a zero-lambda-pair six-vertex table."""
    if g.arity != 2:
        raise CspError("clause signature needs a binary g")
    g00, g01, g10, g11 = g.values
    return from_six_vertex(SixVertexParams(ZERO, ZERO, g00, g11, g01, g10))


@dataclass(frozen=True)
class CspReduction:
    grid: SignatureGrid
    multiplier: Scalar  # 2 per degree-0 variable


# occurrence roles: first argument uses (x1, x2) as its (left, right) cycle
# ports, second argument uses (x4, x3); then every surviving cycle state has
# right=1, left=0 or the reverse, uniformly around the cycle.
_FIRST_ARG = (0, 1)
_SECOND_ARG = (3, 2)


def csp_reduction(g: Signature, inst: CspInstance) -> CspReduction:
    f = clause_signature(g)
    occurrences: dict[object, list[tuple[int, tuple[int, int]]]] = {
        v: [] for v in inst.variables
    }
    for t, (u, w) in enumerate(inst.clauses):
        if u == w:
            raise CspError(f"clause {t} applies g to ({u},{u}); self-pairs are not supported")
        for var, role in ((u, _FIRST_ARG), (w, _SECOND_ARG)):
            if var not in occurrences:
                raise CspError(f"clause {t} uses undeclared variable {var!r}")
            occurrences[var].append((t, role))
    vertices = {t: f for t in range(len(inst.clauses))}
    edges = []
    multiplier = ONE
    for var in inst.variables:
        occ = occurrences[var]
        if not occ:
            multiplier = multiplier * 2
            continue
        k = len(occ)
        for i in range(k):
            t_i, (_, right) = occ[i]
            t_j, (left, _) = occ[(i + 1) % k]
            edges.append((Port(t_i, right), Port(t_j, left)))
    return CspReduction(SignatureGrid(vertices, tuple(edges)), multiplier)


def csp_brute_force(g: Signature, inst: CspInstance) -> Scalar:
    """Direct sum over variable assignments; the independent oracle."""
    if g.arity != 2:
        raise CspError("csp_brute_force needs a binary g")
    total = ZERO
    n = len(inst.variables)
    index = {v: i for i, v in enumerate(inst.variables)}
    for bits in product((0, 1), repeat=n):
        weight = ONE
        for u, w in inst.clauses:
            val = g[(bits[index[u]] << 1) | bits[index[w]]]
            if not val:
                weight = None
                break
            weight = weight * val
        if weight is not None:
            total = total + weight
    return total
