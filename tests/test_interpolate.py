import random
from fractions import Fraction as Q

import pytest

from sixvertex.interpolate import (
    InterpolationError,
    InterpolationInstance,
    LatticeError,
    compute_lattice,
    cone_points,
    interpolation_solve,
    make_observations,
)
from sixvertex.sampling import SCALAR_POOL
from sixvertex.scalar import ONE, SQRT2, Scalar, ZERO

G = Scalar


def solve(inst, phi, psi):
    lattice = compute_lattice(inst.alpha, inst.beta)
    return interpolation_solve(inst, phi, psi, lattice)


class TestLattice:
    def test_acceptance_vectors(self):
        assert compute_lattice(G(2), G(3)).rank == 0
        lat = compute_lattice(G(2), G(Q(1, 2)))
        assert lat.rank == 1 and lat.generator == (1, 1)
        lat = compute_lattice(G(3), G(Q(1, 3)))
        assert lat.rank == 1 and lat.generator == (1, 1)

    def test_unit_condition_enlarges_generator(self):
        lat = compute_lattice(G(2), G(Q(-1, 2)))
        assert lat.rank == 1 and lat.generator == (2, 2)

    def test_rank2_units(self):
        lat = compute_lattice(G(0, 1), G(0, 1))
        assert lat.rank == 2

    def test_membership_brute_force(self):
        cases = [
            (G(2), G(3)),
            (G(2), G(Q(1, 2))),
            (G(2), G(Q(-1, 2))),
            (G(0, 1), G(0, 1)),
            (G(1, 1), G(2)),
            (G(0, 2), G(Q(1, 2))),
        ]
        for alpha, beta in cases:
            lat = compute_lattice(alpha, beta)
            for j in range(-4, 5):
                for k in range(-4, 5):
                    member = alpha**j * beta**k == G(1)
                    assert member == lat.contains(j, k), (alpha, beta, j, k)

    def test_rank1_generator_minimal(self):
        lat = compute_lattice(G(2), G(Q(-1, 2)))
        s, t = lat.generator
        assert lat.contains(s, t)
        # nothing strictly inside
        for n in (1,):
            assert not lat.contains(s // 2, t // 2)

    def test_rejects_zero_and_sqrt2(self):
        with pytest.raises(LatticeError):
            compute_lattice(G(0), G(2))
        with pytest.raises(LatticeError):
            compute_lattice(SQRT2, G(2))
        with pytest.raises(LatticeError):
            compute_lattice(G(2, 3), G(1, 0, 1))
        assert compute_lattice(G(2, 3), G(2, 3)).rank == 1


class TestInterpolationSolve:
    def test_rank0_full_recovery(self):
        alpha, beta = G(2), G(3)
        x = {(0, 0): Scalar(1), (1, 0): Scalar(2), (0, 1): Scalar(3)}
        inst = InterpolationInstance(
            alpha, beta, 1, make_observations(alpha, beta, 1, x)
        )
        assert solve(inst, ONE, ONE) == Scalar(6)

    def test_rank1_weighted_sum(self):
        rng = random.Random(61)
        alpha, beta = G(2), G(Q(1, 2))
        for m in (2, 3):
            x = {pt: rng.choice(SCALAR_POOL) for pt in cone_points(m)}
            inst = InterpolationInstance(
                alpha, beta, m, make_observations(alpha, beta, m, x)
            )
            phi, psi = Scalar(3), Scalar(Q(1, 3))
            want = ZERO
            for (j, k), xv in x.items():
                want = want + phi**j * psi**k * xv
            assert solve(inst, phi, psi) == want

    def test_phi_psi_one_is_plain_sum(self):
        rng = random.Random(62)
        alpha, beta = G(3), G(Q(1, 3))
        x = {pt: rng.choice(SCALAR_POOL) for pt in cone_points(3)}
        inst = InterpolationInstance(
            alpha, beta, 3, make_observations(alpha, beta, 3, x)
        )
        want = ZERO
        for xv in x.values():
            want = want + xv
        assert solve(inst, ONE, ONE) == want

    def test_lattice_condition_enforced(self):
        alpha, beta = G(2), G(Q(1, 2))
        x = {pt: Scalar(1) for pt in cone_points(1)}
        inst = InterpolationInstance(
            alpha, beta, 1, make_observations(alpha, beta, 1, x)
        )
        with pytest.raises(InterpolationError):
            solve(inst, Scalar(3), Scalar(5))

    def test_rank2_rejected(self):
        inst = InterpolationInstance(G(0, 1), G(0, 1), 1, (ONE, ONE, ONE))
        with pytest.raises(InterpolationError):
            solve(inst, ONE, ONE)

    def test_observation_count_checked(self):
        inst = InterpolationInstance(G(2), G(3), 2, (ONE,))
        with pytest.raises(InterpolationError):
            solve(inst, ONE, ONE)

    def test_observation_count_checked_before_the_cone(self, monkeypatch):
        # a huge m with three values must be refused without building the
        # (m+1)(m+2)/2 cone points
        def no_cone(m):
            raise AssertionError(f"cone_points({m}) built before the count check")

        monkeypatch.setattr("sixvertex.interpolate.cone_points", no_cone)
        inst = InterpolationInstance(G(2), G(Q(1, 2)), 20_000, (ONE, ONE, ONE))
        with pytest.raises(InterpolationError, match="need 200030001 observations, got 3"):
            solve(inst, ONE, ONE)

    def test_negative_generator_exponents(self):
        # alpha = 1/2: lattice of (1/2, 2) is generated by (1,1) as well
        alpha, beta = G(Q(1, 2)), G(2)
        lat = compute_lattice(alpha, beta)
        assert lat.rank == 1
        rng = random.Random(63)
        x = {pt: rng.choice(SCALAR_POOL) for pt in cone_points(2)}
        inst = InterpolationInstance(
            alpha, beta, 2, make_observations(alpha, beta, 2, x)
        )
        phi, psi = Scalar(Q(1, 5)), Scalar(5)
        want = ZERO
        for (j, k), xv in x.items():
            want = want + phi**j * psi**k * xv
        assert solve(inst, phi, psi) == want

