import random
from itertools import combinations

import pytest

from sixvertex.classify import (
    ACertificate,
    classify,
    in_A,
    in_P,
    one_zero_each_pair,
    reconstruct_from_a,
    reconstruct_from_p,
    zero_pattern,
)
from sixvertex.sampling import SCALAR_POOL, random_a_params, random_p_params
from sixvertex.scalar import I, I_POWERS, Scalar, ZERO, ratio_power_of_i
from sixvertex.signature import (
    Signature,
    SignatureError,
    SixVertexParams,
    all_permutations,
    from_six_vertex,
    permute_variables,
    six_vertex_params,
)

SV = SixVertexParams.of


class TestInP:
    def test_single_pair_support(self):
        f = from_six_vertex(SV(2, 3, 0, 0, 0, 0))
        report = in_P(f)
        assert report.member
        assert reconstruct_from_p(report, 4) == f

    def test_ice_not_in_p(self):
        assert not in_P(from_six_vertex(SV(1, 1, 1, 1, 1, 1))).member

    def test_unary_always_in_p(self):
        assert in_P(Signature(1, [Scalar(3), Scalar(0)])).member
        assert in_P(Signature(1, [Scalar(3), Scalar(5)])).member

    def test_zero_signature(self):
        report = in_P(Signature(4, [ZERO] * 16))
        assert report.member and report.is_zero
        assert reconstruct_from_p(report, 4).is_zero()

    def test_tensor_product_two_pairs(self):
        # f = g(x1,x3) h(x2,x4): support on lambda/mu pairs with ax = by
        f = from_six_vertex(SV(2, 2, 4, 1, 0, 0))
        report = in_P(f)
        assert report.member
        assert reconstruct_from_p(report, 4) == f
        assert len(report.factors) == 2

    def test_product_constraint_violated(self):
        assert not in_P(from_six_vertex(SV(2, 2, 4, 3, 0, 0))).member

    def test_randomized_p_params(self):
        rng = random.Random(31)
        for _ in range(50):
            f = from_six_vertex(random_p_params(rng))
            report = in_P(f)
            assert report.member
            assert reconstruct_from_p(report, 4) == f

    def test_arity_above_four_unrepresentable(self):
        # the precondition is enforced at the type level
        with pytest.raises(SignatureError):
            Signature(5, [ZERO] * 32)


class TestInA:
    def test_two_pair_constant_phase(self):
        f = from_six_vertex(SV(1, 1, 1, 1, 0, 0))
        report = in_A(f)
        assert report.member
        assert reconstruct_from_a(report.certificate, 4) == f

    def test_ice_not_affine(self):
        report = in_A(from_six_vertex(SV(1, 1, 1, 1, 1, 1)))
        assert not report.member
        assert "power of 2" in report.reason

    def test_single_pair_any_i_phase(self):
        f = from_six_vertex(SV(0, 0, 1, I, 0, 0))
        assert in_A(f).member

    def test_non_i_ratio_rejected(self):
        f = from_six_vertex(SV(0, 0, 2, 3, 0, 0))
        report = in_A(f)
        assert not report.member and "i-power" in report.reason

    def test_odd_cross_term_rejected(self):
        f = from_six_vertex(SV(1, I, I, Scalar(0, -1), 0, 0))
        report = in_A(f)
        assert not report.member

    def test_even_cross_term_accepted(self):
        f = from_six_vertex(SV(1, I, I, Scalar(-1), 0, 0))
        report = in_A(f)
        assert report.member
        assert reconstruct_from_a(report.certificate, 4) == f

    def test_randomized_a_params(self):
        rng = random.Random(32)
        for _ in range(50):
            f = from_six_vertex(random_a_params(rng))
            report = in_A(f)
            assert report.member
            assert reconstruct_from_a(report.certificate, 4) == f

    def test_affine_support_failure(self):
        values = [ZERO] * 16
        for s in (0b0011, 0b1100, 0b0110):
            values[s] = Scalar(1)
        report = in_A(Signature(4, values))
        assert not report.member


def reference_rref(vectors):
    """Reduced echelon basis by elimination, pivots highest bit first."""
    basis: list[int] = []
    for v in vectors:
        cur = v
        for b in basis:
            if cur ^ b < cur:
                cur ^= b
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i != j and basis[i] ^ basis[j] < basis[i]:
                    basis[i] ^= basis[j]
                    changed = True
        basis.sort(reverse=True)
    return basis


def reference_certificate(f):
    support = f.support()
    base = min(support)
    basis = reference_rref([s ^ base for s in support])
    lam = f[base]
    linear = tuple(ratio_power_of_i(f[base ^ b], lam) for b in basis)
    cross = tuple(
        (j, k, (ratio_power_of_i(f[base ^ bj ^ bk], lam) - linear[j] - linear[k]) % 4 // 2)
        for (j, bj), (k, bk) in combinations(enumerate(basis), 2)
    )
    pivots = tuple(f.arity - b.bit_length() for b in basis)
    return ACertificate(base, tuple(basis), pivots, lam, linear, cross)


def span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return frozenset(out)


def affine_supports(arity):
    """Every coset of every subspace of GF(2)^arity."""
    nonzero = range(1, 1 << arity)
    spaces = {span(c) for r in range(arity + 1) for c in combinations(nonzero, r)}
    return {
        frozenset(t ^ x for x in space)
        for space in spaces
        for t in range(1 << arity)
    }


class TestInABasis:
    def test_certificate_matches_reference_rref(self):
        rng = random.Random(71)
        for arity in range(5):
            supports = affine_supports(arity)
            assert len(supports) == (1, 3, 11, 51, 307)[arity]
            for support in supports:
                base = min(support)
                # a random basis of the shifted support, and a random
                # quadratic phase with even cross terms over it
                gens = []
                for x in rng.sample(sorted(support), len(support)):
                    if len(span(gens + [x ^ base])) > len(span(gens)):
                        gens.append(x ^ base)
                lam = rng.choice((Scalar(1), Scalar(-2), Scalar("1/2"), I))
                a = [rng.randrange(4) for _ in gens]
                b = {jk: rng.randrange(2) for jk in combinations(range(len(gens)), 2)}
                values = [ZERO] * (1 << arity)
                for u in range(1 << len(gens)):
                    bits = [(u >> j) & 1 for j in range(len(gens))]
                    s = base
                    for g, bit in zip(gens, bits):
                        s ^= g * bit
                    e = sum(aj * bit for aj, bit in zip(a, bits))
                    e += 2 * sum(bjk for (j, k), bjk in b.items() if bits[j] and bits[k])
                    values[s] = lam * I_POWERS[e % 4]
                f = Signature(arity, values)
                report = in_A(f)
                assert report.member, (arity, sorted(support))
                assert report.certificate == reference_certificate(f)

    def test_non_affine_supports_rejected_with_reason(self):
        one = Scalar(1)
        for arity in range(5):
            affine = {sum(1 << s for s in a) for a in affine_supports(arity)}
            for mask in range(1, 1 << (1 << arity)):
                if mask in affine:
                    continue
                values = [one if (mask >> s) & 1 else ZERO for s in range(1 << arity)]
                report = in_A(Signature(arity, values))
                n = mask.bit_count()
                want = "support size not a power of 2" if n & (n - 1) else "support not affine"
                assert not report.member and report.reason == want, bin(mask)


def test_one_zero_each_pair():
    assert one_zero_each_pair(SV(1, 0, 1, 0, 1, 0))
    assert one_zero_each_pair(SV(1, 0, 0, 0, 0, 1))
    assert not one_zero_each_pair(SV(1, 1, 1, 0, 1, 0))
    assert one_zero_each_pair(SV(0, 0, 0, 0, 0, 0))


def test_zero_pattern():
    assert zero_pattern(SV(0, 0, 1, 0, 1, 1)) == (
        "both_zero",
        "one_zero",
        "no_zero",
    )


class TestClassify:
    @pytest.mark.parametrize(
        "params,verdict,detail",
        [
            ((2, 2, 1, 1, 1, 1), "hard", 2),
            ((1, 1, 5, 5, 4, 4), "hard", 2),
            ((2, 2, 1, 1, -1, -1), "hard", 2),
            ((1, 1, 1, 1, 1, 1), "hard", 2),
            ((1, 2, 3, 4, 5, 0), "hard", 3),
            ((2, 3, 1, 0, 0, 5), "hard", 4),
            ((0, 0, 1, 2, 3, 4), "hard", 1),
            ((1, 0, 1, 0, 1, 0), "tractable", "M"),
            ((2, 3, 0, 0, 0, 0), "tractable", "P"),
            ((0, 0, 0, 0, 0, 0), "tractable", "P"),
            ((0, 0, 2, 2, 2, 2), "tractable", "P"),
        ],
    )
    def test_vectors(self, params, verdict, detail):
        c = classify(SV(*params))
        assert c.verdict == verdict
        if verdict == "hard":
            assert c.hard_case == detail
        else:
            assert c.tractable_class == detail

    def test_m110_is_tractable_in_both_p_and_a(self):
        # spec example labels it A; it is also a product of two disequalities
        # and the specified dispatch order checks P first
        p = SV(1, 1, 1, 1, 0, 0)
        f = from_six_vertex(p)
        assert in_P(f).member and in_A(f).member
        c = classify(p)
        assert c.verdict == "tractable" and c.tractable_class == "P"

    def test_totality_and_exclusivity(self):
        rng = random.Random(33)
        for _ in range(60):
            p = SixVertexParams(*(rng.choice(SCALAR_POOL) for _ in range(6)))
            c = classify(p)
            assert c.verdict in ("tractable", "hard")
            if c.verdict == "tractable":
                assert c.tractable_class in ("P", "A", "M")
                assert c.hard_case is None
            else:
                assert c.hard_case in (1, 2, 3, 4)
                assert c.tractable_class is None

    def test_invariance_s4_and_scaling(self):
        rng = random.Random(34)
        scalars = [Scalar(1), Scalar(-1), Scalar(2), I, Scalar("1/2")]
        for _ in range(20):
            p = SixVertexParams(*(rng.choice(SCALAR_POOL) for _ in range(6)))
            base = classify(p)
            f = from_six_vertex(p)
            for perm in all_permutations():
                q = six_vertex_params(permute_variables(f, perm))
                c = classify(q)
                assert (c.verdict, c.hard_case) == (base.verdict, base.hard_case)
            for k in scalars:
                c = classify(p.scaled(k))
                assert (c.verdict, c.hard_case) == (base.verdict, base.hard_case)

    def test_labeled_class_solver_soundness(self):
        # whatever class the verdict names, that solver must match brute force
        from sixvertex.evaluate import brute_force_eval
        from sixvertex.sampling import random_grid
        from sixvertex.solvers import solve_A, solve_M, solve_P

        solvers = {"P": solve_P, "A": solve_A, "M": solve_M}
        rng = random.Random(35)
        checked = 0
        while checked < 30:
            p = SixVertexParams(*(rng.choice(SCALAR_POOL) for _ in range(6)))
            c = classify(p)
            if c.verdict != "tractable":
                continue
            grid = random_grid(rng, rng.randint(1, 5), from_six_vertex(p))
            want = brute_force_eval(grid).value
            assert solvers[c.tractable_class](grid) == want, (p, c)
            checked += 1

    def test_witness_serializes(self):
        import json

        for params in ((2, 2, 1, 1, 1, 1), (1, 0, 1, 0, 1, 0), (2, 3, 0, 0, 0, 0)):
            payload = classify(SV(*params)).to_json()
            json.dumps(payload)
            assert payload["witness"]["zero_pattern"]
