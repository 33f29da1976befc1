import random

import pytest

from sixvertex.gf2 import LinearSystemGF2, QuadraticPhase, gauss_sum
from sixvertex.scalar import I_POWERS, ZERO


def random_phase(rng, nvars):
    """A QuadraticPhase and the raw terms it was built from, with repeated
    cross pairs and u == v cross terms among them."""
    phase = QuadraticPhase()
    const = rng.randrange(4)
    phase.add_const(const)
    linear = [
        (rng.randrange(nvars), rng.randrange(4))
        for _ in range(rng.randrange(2 * nvars))
    ]
    for v, c in linear:
        phase.add_linear(v, c)
    cross = []
    for _ in range(rng.randrange(3 * nvars)):
        u = rng.randrange(nvars)
        v = u if rng.random() < 0.2 else rng.randrange(nvars)
        cross.append((u, v, rng.randrange(4)))
    if cross:
        cross.append(rng.choice(cross))
    for u, v, c in cross:
        phase.add_cross(u, v, c)
    return phase, (const, linear, cross)


def phase_at(terms, x):
    const, linear, cross = terms
    total = const + sum(c * (x >> v & 1) for v, c in linear)
    total += sum(2 * c * (x >> u & 1) * (x >> v & 1) for u, v, c in cross)
    return total % 4


def direct_sum(terms, nvars, solutions=None):
    total = ZERO
    for x in range(1 << nvars):
        if solutions is None or x in solutions:
            total = total + I_POWERS[phase_at(terms, x)]
    return total


@pytest.mark.parametrize("seed", range(4))
def test_gauss_sum_matches_direct_sum(seed):
    rng = random.Random(seed)
    for _ in range(100):
        nvars = rng.randint(1, 8)
        phase, terms = random_phase(rng, nvars)
        assert gauss_sum(phase, range(nvars)) == direct_sum(terms, nvars)


@pytest.mark.parametrize("seed", range(4))
def test_reduce_then_gauss_sum_sums_over_the_solutions(seed):
    rng = random.Random(100 + seed)
    inconsistent = 0
    for _ in range(100):
        nvars = rng.randint(1, 8)
        rows = [
            (rng.randrange(1 << nvars), rng.randrange(2))
            for _ in range(rng.randint(0, nvars + 2))
        ]
        # a redundant row (sum of two), and sometimes its contradiction
        if len(rows) >= 2:
            (ma, ra), (mb, rb) = rng.sample(rows, 2)
            rows.append((ma ^ mb, ra ^ rb ^ (rng.random() < 0.3)))
        system = LinearSystemGF2(nvars)
        for mask, rhs in rows:
            system.add(mask, rhs)
        solutions = {
            x
            for x in range(1 << nvars)
            if all(bin(mask & x).count("1") % 2 == rhs for mask, rhs in rows)
        }
        assert system.consistent == bool(solutions)
        inconsistent += not solutions
        phase, terms = random_phase(rng, nvars)
        value = gauss_sum(phase, system.reduce(phase)) if system.consistent else ZERO
        assert value == direct_sum(terms, nvars, solutions)
    assert inconsistent > 0


def test_reduce_returns_the_free_variables_and_clears_the_pivots():
    system = LinearSystemGF2(5)
    system.add(0b00110, 1)  # x1 + x2 = 1
    system.add(0b10011, 0)  # x0 + x1 + x4 = 0
    system.add(0b01111, 1)  # reduces to a row with pivot x2
    phase = QuadraticPhase()
    for v in range(5):
        phase.add_linear(v, 1)
    phase.add_cross(0, 3, 1)
    assert system.reduce(phase) == [3, 4]
    assert set(phase.lin) <= {3, 4}
    assert all(v in (3, 4) and nb <= {3, 4} for v, nb in phase.nbrs.items() if nb)
