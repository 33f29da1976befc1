import random
from itertools import product

import pytest

from sixvertex.gadgets import (
    GadgetError,
    chain_D,
    closed_form_D,
    hardness_determinant,
    lambda_matrix,
    mnm_product,
    mnm_product_signature,
    normalize_two_zero,
    normalize_zero_to_b,
    one_zero_chain,
    product_of_views,
    two_zero_product,
)
from sixvertex.sampling import NONZERO_POOL, SCALAR_POOL
from sixvertex.scalar import I, Scalar, ZERO
from sixvertex.signature import (
    SixVertexParams,
    from_six_vertex,
    six_vertex_params,
)

SV = SixVertexParams.of


class TestChain:
    def test_s1_is_identity(self):
        p = SV(1, 1, 2, 2, 3, 3)
        assert chain_D(p, 1) == from_six_vertex(p)
        assert closed_form_D(1, 2, 3, 1) == from_six_vertex(p)

    def test_spec_square(self):
        assert six_vertex_params(chain_D(SV(1, 1, 2, 2, 3, 3), 2)) == SV(
            1, 1, 13, 13, 12, 12
        )

    def test_chain_equals_closed_form(self):
        rng = random.Random(51)
        for _ in range(10):
            a, b, c = (rng.choice(NONZERO_POOL) for _ in range(3))
            p = SV(a, a, b, b, c, c)
            for s in range(1, 6):
                assert chain_D(p, s) == closed_form_D(a, b, c, s), (a, b, c, s)

    def test_rejects_non_twin(self):
        with pytest.raises(GadgetError):
            chain_D(SV(1, 2, 3, 3, 4, 4), 2)
        with pytest.raises(GadgetError):
            chain_D(SV(1, 1, 2, 2, 3, 3), 0)

    def test_lambda_collapse(self):
        for s in range(1, 6):
            lam = lambda_matrix(2, 3, 3, s)  # b = c kills the (b-c)^s slot
            assert all(v == ZERO for v in lam[2])
            lam = lambda_matrix(2, 3, -3, s)  # b = -c kills the (b+c)^s slot
            assert all(v == ZERO for v in lam[1])


class TestMnm:
    def test_ice(self):
        assert mnm_product(SV(1, 1, 1, 1, 1, 1)) == SV(1, 1, 2, 2, 2, 2)

    def test_sign_case_follows_paper_formula(self):
        # 2yz with y=1, z=-1 is -2 (the spec example's +2 is a typo)
        assert mnm_product(SV(1, 1, 1, 1, 1, -1)) == SV(1, 1, 2, -2, 0, 0)

    def test_twin_shape(self):
        rng = random.Random(52)
        for _ in range(20):
            p = SixVertexParams(*(rng.choice(SCALAR_POOL) for _ in range(6)))
            out = mnm_product(p)
            assert out.a == out.x and out.c == out.z

    def test_matches_compose_wiring(self):
        rng = random.Random(53)
        for _ in range(30):
            p = SixVertexParams(*(rng.choice(SCALAR_POOL) for _ in range(6)))
            assert six_vertex_params(mnm_product_signature(p)) == mnm_product(p)


class TestHardnessDeterminant:
    DOMAIN = (ZERO, I, Scalar(0, -1))

    def test_spec_values(self):
        assert hardness_determinant(ZERO, ZERO, ZERO) == Scalar(-2)
        assert hardness_determinant(I, I, I) == Scalar(-2, -4)

    def test_all_27_nonzero(self):
        for a, b, c in product(self.DOMAIN, repeat=3):
            assert hardness_determinant(a, b, c)

    def test_rejects_outside_domain(self):
        with pytest.raises(GadgetError):
            hardness_determinant(Scalar(1), ZERO, ZERO)


class TestOneZeroChain:
    def test_spec_first_product(self):
        res = one_zero_chain(SV(1, 1, 0, 1, 1, 1))
        assert res.branch == "product1"
        assert res.steps[0][1] == SV(1, 1, 1, 2, 1, 1)
        assert all(res.final)

    def test_fallback_branch(self):
        # b=0, z=c, y=+-ic triggers the M N M^T detour
        for y in (I, Scalar(0, -1)):
            res = one_zero_chain(SV(1, 1, 0, y, 1, 1))
            assert res.branch == "mnm_fallback"
            labels = [label for label, _ in res.steps]
            assert labels[-2:] == ["mnm_fallback", "product1_after_fallback"]
            fb = res.steps[-2][1]
            assert fb == SV(1, 1, 0, 2 * y, 1, 1)  # (ax,ax,0,+-2i c^2,c^2,c^2)
            assert all(res.final)

    def test_zero_in_any_position_normalizes(self):
        rng = random.Random(54)
        for pos in range(6):
            vals = [rng.choice(NONZERO_POOL) for _ in range(6)]
            vals[pos] = ZERO
            res = one_zero_chain(SixVertexParams(*vals))
            assert not res.normalized.b
            assert all(res.final)

    def test_steps_match_explicit_wirings(self):
        rng = random.Random(55)
        wirings = {
            "product1": (((1, 2), (4, 3)), ((3, 4), (1, 2))),
            "product2": (((3, 4), (2, 1)), ((4, 3), (1, 2))),
            "product3": (((4, 3), (1, 2)), ((2, 1), (4, 3))),
        }
        for _ in range(15):
            vals = [rng.choice(NONZERO_POOL) for _ in range(6)]
            vals[rng.randrange(6)] = ZERO
            res = one_zero_chain(SixVertexParams(*vals))
            f = from_six_vertex(res.normalized)
            for label, params in res.steps:
                if label in wirings:
                    va, vb = wirings[label]
                    assert six_vertex_params(product_of_views(f, va, f, vb)) == params

    def test_wrong_zero_count_rejected(self):
        with pytest.raises(GadgetError):
            one_zero_chain(SV(1, 1, 1, 1, 1, 1))
        with pytest.raises(GadgetError):
            one_zero_chain(SV(0, 0, 1, 1, 1, 1))


class TestTwoZeroProduct:
    def test_spec_examples(self):
        assert two_zero_product(SV(1, 1, 1, 0, 0, 1)) == SV(1, 1, 1, 1, 1, 1)
        assert two_zero_product(SV(2, 3, 1, 0, 0, 5)) == SV(6, 6, 1, 25, 5, 5)

    def test_normalization_places_zeros_at_c_and_y(self):
        rng = random.Random(56)
        for _ in range(25):
            pairs = [0, 1, 2]
            rng.shuffle(pairs)
            vals = [rng.choice(NONZERO_POOL) for _ in range(6)]
            for pair in pairs[:2]:
                vals[2 * pair + rng.randrange(2)] = ZERO
            p = SixVertexParams(*vals)
            _, q = normalize_two_zero(p)
            assert q.a and q.x and q.b and q.z and not q.c and not q.y
            assert all(two_zero_product(p))

    def test_rejects_zero_pair_and_wrong_counts(self):
        with pytest.raises(GadgetError):
            two_zero_product(SV(0, 0, 1, 1, 1, 1))
        with pytest.raises(GadgetError):
            two_zero_product(SV(0, 1, 1, 1, 1, 1))
        with pytest.raises(GadgetError):
            normalize_zero_to_b(SV(0, 1, 0, 1, 1, 1))
