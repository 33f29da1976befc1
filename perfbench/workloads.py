"""The benchmark's workloads: seeded instances, the timed operations on them,
and the checks of every value the program returns.

Instances are plain data (a weight tuple and an edge list, both in the
oracle's terms); `Workload.setup` turns them into the program's grids, and
`Workload.round(clock)` runs every operation once, each through the
`pace.Clock` that times it. A run is a whole number of
rounds, so the attempted and failed counts are fixed multiples of one round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
import oracle as O

W = O.weight
ICE = (W(1),) * 6
RATIONAL = (W(1), W(2), W(3), W("1/2"), W("3/2"))
SQRT2 = (
    W(1, 0, 1),
    W(0, 0, 1),
    W("1/2"),
    W(2, 1),
    W(1, -1),
    W(0, 0, 1, 1),
    W("3/2", 0, "-1/2"),
    W(1, 1, 0, "1/2"),
)


@dataclass
class Instance:
    name: str
    weights: tuple
    vertices: int
    edges: list
    shape: tuple | None = None  # (w, L) for a torus
    expect_class: str | None = None  # tractable class solve(auto) must use
    grid: object = None
    values: list = field(default_factory=list)  # one value per round


def torus(name, w, L, weights, **kw) -> Instance:
    return Instance(name, tuple(weights), w * L, O.torus_edges(w, L), (w, L), **kw)


def _mul(u, v):
    (a, b), (c, d) = u, v
    return (a * c - b * d, a * d + b * c)


def _gauss(z):
    return W(z[0], z[1])


# --------------------------------------------------------- seeded tuples


def sqrt2_tuple(rng):
    return tuple(rng.choice(SQRT2) for _ in range(6))


def one_zero_tuple(rng):
    a, x, b, y, z = (rng.choice(RATIONAL) for _ in range(5))
    return (a, x, b, y, W(0), z)


def two_zero_tuple(rng):
    x, b, c, z = (rng.choice(RATIONAL) for _ in range(4))
    return (W(0), x, b, W(0), c, z)


# Tractable weights are (+-1 +- i) or a unit times one. A product of k such
# weights has both parts nonzero when k is odd and one part zero when k is
# even, whatever the seed, so the exact arithmetic does the same work.
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^0 .. i^3
DIAGONAL = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def product_tuple(rng, zero_pair):
    """g(.)h(.) with neq-supported binary factors, g diagonal, h a unit; the
    zero pair picks the strands: 2 -> N-S/E-W, 0 -> N-E/S-W."""
    g01, g10 = rng.choice(DIAGONAL), rng.choice(DIAGONAL)
    h01, h10 = rng.choice(UNITS), rng.choice(UNITS)
    if zero_pair == 2:
        vals = (_mul(g01, h01), _mul(g10, h10), _mul(g01, h10), _mul(g10, h01))
        return tuple(map(_gauss, vals)) + (W(0), W(0))
    vals = (_mul(g01, h10), _mul(g10, h01), _mul(g01, h01), _mul(g10, h10))
    return (W(0), W(0)) + tuple(map(_gauss, vals))


def affine_tuple(rng, zero_pair):
    """lam * i^(a1 u1 + a2 u2 + 2 b u1 u2) on two pairs, with b chosen so
    that the tuple is not a product (a*x != b*y); zero_pair 2 or 1."""
    lam = rng.choice(DIAGONAL)
    a1, a2 = rng.randrange(4), rng.randrange(4)
    b12 = 1 - a2 % 2
    phases = (0, a1, a2, (a1 + a2 + 2 * b12) % 4)
    w = tuple(_gauss(_mul(lam, UNITS[p])) for p in phases)
    if zero_pair == 2:
        return w + (W(0), W(0))
    return (w[0], w[1], W(0), W(0), w[2], w[3])


def m_tuple(rng):
    """(a, 0, b, 0, c, 0): slot N pinned to 0."""
    return tuple(
        _gauss(rng.choice(DIAGONAL)) if k % 2 == 0 else W(0) for k in range(6)
    )


def random_multigraph(rng, n):
    """Uniform pairing of the 4n ports: self-loops and parallel edges occur."""
    ports = [(v, s) for v in range(n) for s in range(4)]
    rng.shuffle(ports)
    return [(ports[2 * i], ports[2 * i + 1]) for i in range(2 * n)]


def random_ns_ew_multigraph(rng, n):
    """S of v meets N of sigma(v) and E of v meets W of tau(v), for random
    permutations sigma and tau."""
    sigma, tau = list(range(n)), list(range(n))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    return [((v, 2), (sigma[v], 0)) for v in range(n)] + [((v, 1), (tau[v], 3)) for v in range(n)]


# ----------------------------------------------------- program adapters


def program_params(sv, weights):
    return sv.signature.SixVertexParams(
        *(sv.scalar.parse_scalar(O.weight_text(w)) for w in weights)
    )


def build_grid(sv, inst: Instance):
    params = program_params(sv, inst.weights)
    if inst.shape is not None and inst.shape[0] == inst.shape[1]:
        return sv.grid.build_torus(inst.shape[0], params)
    sig = sv.signature.from_six_vertex(params)
    return sv.grid.SignatureGrid.build(
        {v: sig for v in range(inst.vertices)}, inst.edges
    ).assert_valid()


def as_fractions(value):
    """A program Scalar as the oracle's four Fractions."""
    return tuple(
        Fraction(int(q.numerator), int(q.denominator))
        for q in (value.re0, value.im0, value.re1, value.im1)
    )


def values_match(inst: Instance, want) -> bool:
    return bool(inst.values) and all(as_fractions(v) == want for v in inst.values)


# ------------------------------------------------------------ workloads


class Workload:
    """setup() builds the grids; round(clock) runs one round, each timed
    operation through clock; check() compares every recorded
    value with its expected one. attempted/failed count operations over all
    rounds."""

    def __init__(self, sv, seed: int):
        self.sv = sv
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def setup(self):
        for inst in self.instances:
            inst.grid = build_grid(self.sv, inst)


class HardContract(Workload):
    """#P-hard tuples, exact only by contraction. Every instance is also
    given to solve(auto) once a round, outside the timed sum."""

    name = "hard-contract"

    def __init__(self, sv, seed):
        super().__init__(sv, seed)
        rng = random.Random(f"hard-contract/{seed}")
        r2, one, two = sqrt2_tuple(rng), one_zero_tuple(rng), two_zero_tuple(rng)
        self.instances = [
            torus("ice-8x8", 8, 8, ICE),
            torus("sqrt2-7x7", 7, 7, r2),
            torus("sqrt2-6x10", 6, 10, r2),
            torus("onezero-12x12", 12, 12, one),
            torus("onezero-6x24", 6, 24, one),
            torus("twozero-10x10", 10, 10, two),
            torus("twozero-5x20", 5, 20, two),
        ]
        self.auto_values: dict[str, list] = {}

    def round(self, clock):
        solve = self.sv.solvers.solve
        for inst in self.instances:
            inst.values.append(clock(solve, inst.grid, method="contract").value)
        self.attempted += len(self.instances)
        refused = self.sv.evaluate.TooLargeError
        for inst in self.instances:
            self.attempted += 1
            try:
                value = solve(inst.grid).value
            except refused:
                self.failed += 1
            else:
                self.auto_values.setdefault(inst.name, []).append(value)

    def check(self) -> bool:
        ok = True
        for inst in self.instances:
            want = O.torus_tm(*inst.shape, inst.weights)
            ok &= values_match(inst, want)
            ok &= all(as_fractions(v) == want for v in self.auto_values.get(inst.name, []))
        return ok


class TractableSolve(Workload):
    """P, A and M tuples through solve(auto): tori checked against closed
    forms, random multigraphs against strand-cycle sums."""

    name = "tractable-solve"

    def __init__(self, sv, seed):
        super().__init__(sv, seed)
        rng = random.Random(f"tractable-solve/{seed}")
        self.instances = [
            torus("P-40x40", 40, 40, product_tuple(rng, 2), expect_class="P"),
            torus("A-28x28", 28, 28, affine_tuple(rng, 2), expect_class="A"),
            torus("M-96x96", 96, 96, m_tuple(rng), expect_class="M"),
            Instance("P-random-600", product_tuple(rng, 0), 600,
                     random_multigraph(rng, 600), expect_class="P"),
            Instance("A-random-300", affine_tuple(rng, 1), 300,
                     random_multigraph(rng, 300), expect_class="A"),
            Instance("M-random-1500", m_tuple(rng), 1500,
                     random_ns_ew_multigraph(rng, 1500), expect_class="M"),
        ]
        self.classes: dict[str, set] = {}

    def round(self, clock):
        solve = self.sv.solvers.solve
        for inst in self.instances:
            result = clock(solve, inst.grid)
            inst.values.append(result.value)
            self.classes.setdefault(inst.name, set()).add(result.class_used)
        self.attempted += len(self.instances)

    def expected(self, inst: Instance):
        if inst.shape is not None:
            return O.torus_closed_form(*inst.shape, inst.weights)
        return O.strand_cycles(inst.vertices, inst.edges, inst.weights)

    def check(self) -> bool:
        ok = True
        for inst in self.instances:
            ok &= self.classes.get(inst.name) == {inst.expect_class}
            ok &= values_match(inst, self.expected(inst))
        return ok


class Selftest(Workload):
    """run_acceptance(seed): the nine acceptance criteria, one call each,
    with the same random streams as one run_acceptance(seed) call."""

    name = "selftest"

    def __init__(self, sv, seed):
        super().__init__(sv, seed)
        self.instances = []
        self.results = []

    def round(self, clock):
        run = self.sv.acceptance.run_acceptance
        results = []
        for i in range(1, len(self.sv.acceptance.CRITERIA) + 1):
            results += clock(run, self.seed, indices={i})
        self.attempted += len(results)
        self.results.append(results)

    def check(self) -> bool:
        n = len(self.sv.acceptance.CRITERIA)
        return bool(self.results) and all(
            [r.index for r in rs] == list(range(1, n + 1)) and all(r.passed for r in rs)
            for rs in self.results
        )


WORKLOADS = {w.name: w for w in (HardContract, TractableSolve, Selftest)}
