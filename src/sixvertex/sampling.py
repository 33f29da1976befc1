"""Deterministic random instances for the verification suites.

All generators take an explicit random.Random so every suite is reproducible
from a seed. The scalar pool is the one the acceptance criteria name:
0, +-1, +-2, +-i, 1/2.
"""

from __future__ import annotations

import random

from .grid import Port, SignatureGrid
from .scalar import I_POWERS, Scalar
from .signature import Signature, SixVertexParams

__all__ = [
    "SCALAR_POOL",
    "NONZERO_POOL",
    "random_params",
    "random_grid",
    "random_p_params",
    "random_a_params",
    "random_m_params",
]

SCALAR_POOL = (
    Scalar(0),
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Scalar(-2),
    Scalar(0, 1),
    Scalar(0, -1),
    Scalar("1/2"),
)
NONZERO_POOL = SCALAR_POOL[1:]

def random_params(rng: random.Random, pool=SCALAR_POOL) -> SixVertexParams:
    return SixVertexParams(*(rng.choice(pool) for _ in range(6)))


def random_grid(
    rng: random.Random,
    n_vertices: int,
    signature: Signature | None = None,
    signatures: dict[int, Signature] | None = None,
) -> SignatureGrid:
    """Random 4-regular multigraph on n_vertices by uniform port pairing
    (self-loops and parallel edges allowed)."""
    ports = [Port(v, s) for v in range(n_vertices) for s in range(4)]
    rng.shuffle(ports)
    edges = tuple(
        (ports[2 * i], ports[2 * i + 1]) for i in range(len(ports) // 2)
    )
    if signatures is None:
        signatures = {v: signature for v in range(n_vertices)}
    return SignatureGrid(signatures, edges)


def random_p_params(rng: random.Random) -> SixVertexParams:
    """Product-class parameter tuples: single-pair support, or a two-factor
    form whose pair products match."""
    kind = rng.randrange(3)
    if kind == 0:
        u = rng.choice(NONZERO_POOL)
        v = rng.choice(SCALAR_POOL)
        vals = [Scalar(0)] * 6
        pair = rng.randrange(3)
        vals[2 * pair], vals[2 * pair + 1] = u, v
        return SixVertexParams(*vals)
    g01, g10 = rng.choice(NONZERO_POOL), rng.choice(NONZERO_POOL)
    h01, h10 = rng.choice(NONZERO_POOL), rng.choice(NONZERO_POOL)
    if kind == 1:
        # f = g(x1,x3) h(x2,x4), both neq-supported: zero nu pair, ax = by
        return SixVertexParams.of(
            g01 * h01, g10 * h10, g01 * h10, g10 * h01, 0, 0
        )
    # f = g(x1,x2) h(x3,x4): zero lambda pair, by = cz
    return SixVertexParams.of(0, 0, g01 * h10, g10 * h01, g01 * h01, g10 * h10)


def random_a_params(rng: random.Random) -> SixVertexParams:
    """Affine-class tuples: i-power phases on a pair or a two-pair union."""
    lam = rng.choice(NONZERO_POOL)
    kind = rng.randrange(3)
    if kind == 0:
        vals = [Scalar(0)] * 6
        pair = rng.randrange(3)
        vals[2 * pair] = lam
        vals[2 * pair + 1] = lam * I_POWERS[rng.randrange(4)]
        return SixVertexParams(*vals)
    a1, a2 = rng.randrange(4), rng.randrange(4)
    b12 = rng.randrange(2)
    w = (
        lam,
        lam * I_POWERS[a1],
        lam * I_POWERS[a2],
        lam * I_POWERS[(a1 + a2 + 2 * b12) % 4],
    )
    if kind == 1:
        # support {0011, 1100, 0110, 1001}
        return SixVertexParams.of(w[0], w[1], w[2], w[3], 0, 0)
    # support {0011, 1100, 0101, 1010}
    return SixVertexParams.of(w[0], w[1], 0, 0, w[2], w[3])


def random_m_params(rng: random.Random) -> SixVertexParams:
    """One zero in each pair; occasionally extra zeros."""
    vals = []
    for _ in range(3):
        u = rng.choice(NONZERO_POOL if rng.random() < 0.9 else SCALAR_POOL)
        if rng.random() < 0.5:
            vals.extend((u, Scalar(0)))
        else:
            vals.extend((Scalar(0), u))
    return SixVertexParams(*vals)
