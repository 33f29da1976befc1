import random

import pytest

from sixvertex.scalar import HALF_SQRT2, I, ONE, SQRT2, Scalar, ZERO
from sixvertex.signature import (
    LAMBDA,
    LAMBDA_BAR,
    MU,
    MU_BAR,
    N_DOUBLE,
    NEQ2_MATRIX,
    NU,
    NU_BAR,
    Signature,
    SignatureError,
    SixVertexParams,
    Z_BASIS,
    all_permutations,
    compose,
    from_six_vertex,
    holographic_transform,
    matrix_view,
    permute_variables,
    signature_from_matrix,
    six_vertex_params,
)

SV = SixVertexParams.of
POOL = (ZERO, ONE, Scalar(-1), Scalar(2), I, SQRT2, Scalar("1/2"))


def random_signature(rng, arity=4):
    return Signature(arity, [rng.choice(POOL) for _ in range(1 << arity)])


def test_from_six_vertex_placement():
    f = from_six_vertex(SV(1, 2, 3, 4, 5, 6))
    assert f[LAMBDA] == Scalar(1)
    assert f[LAMBDA_BAR] == Scalar(2)
    assert f[MU] == Scalar(3)
    assert f[MU_BAR] == Scalar(4)
    assert f[NU] == Scalar(5)
    assert f[NU_BAR] == Scalar(6)
    assert sum(1 for v in f.values if v) == 6


def test_from_six_vertex_degenerate():
    assert from_six_vertex(SV(0, 0, 0, 0, 0, 0)).is_zero()
    f = from_six_vertex(SV(1, 1, 1, 1, 0, 0))
    assert set(f.support()) == {LAMBDA, LAMBDA_BAR, MU, MU_BAR}


def test_canonical_matrix_convention():
    f = from_six_vertex(SV(1, 2, 3, 4, 5, 6))
    m = matrix_view(f, (1, 2), (4, 3))
    # rows x1x2, cols x4x3: [[0,0,0,a],[0,b,c,0],[0,z,y,0],[x,0,0,0]]
    expect = (
        (0, 0, 0, 1),
        (0, 3, 5, 0),
        (0, 6, 4, 0),
        (2, 0, 0, 0),
    )
    for r in range(4):
        for c in range(4):
            assert m[r][c] == Scalar(expect[r][c])


def test_transposed_view_matches_lemma_display():
    f = from_six_vertex(SV(1, 2, 3, 4, 5, 6))
    m = matrix_view(f, (4, 3), (1, 2))
    # [[0,0,0,x],[0,b,z,0],[0,c,y,0],[a,0,0,0]]
    expect = ((0, 0, 0, 2), (0, 3, 6, 0), (0, 5, 4, 0), (1, 0, 0, 0))
    for r in range(4):
        for c in range(4):
            assert m[r][c] == Scalar(expect[r][c])


def test_matrix_view_round_trip_and_errors():
    rng = random.Random(1)
    f = random_signature(rng)
    assert signature_from_matrix(matrix_view(f, (1, 2), (4, 3))) == f
    with pytest.raises(SignatureError):
        matrix_view(f, (1, 2), (3, 2))
    with pytest.raises(SignatureError):
        matrix_view(Signature(2, [1, 0, 0, 1]), (1, 2), (4, 3))


def test_symmetric_view_transpose():
    # symmetric signature: value depends on Hamming weight only
    f = Signature(4, [Scalar(bin(i).count("1")) for i in range(16)])
    m1 = matrix_view(f, (1, 2), (4, 3))
    m2 = matrix_view(f, (4, 3), (1, 2))
    for r in range(4):
        for c in range(4):
            assert m1[r][c] == m2[c][r]


def test_permute_identity_and_action():
    rng = random.Random(2)
    f = random_signature(rng)
    assert permute_variables(f, (1, 2, 3, 4)) == f
    for _ in range(40):
        s1 = rng.choice(all_permutations())
        s2 = rng.choice(all_permutations())
        comp = tuple(s1[s2[i] - 1] for i in range(4))
        assert permute_variables(
            permute_variables(f, s2), s1
        ) == permute_variables(f, comp)


def test_permutation_preserves_six_vertex_support():
    f = from_six_vertex(SV(1, 2, 3, 4, 5, 6))
    for perm in all_permutations():
        assert six_vertex_params(permute_variables(f, perm)) is not None


def block_action(perm):
    """How permute_variables moves the three pairs: the image pair of
    lambda, mu, nu (0, 1, 2), and the image pairs whose strings swapped."""
    f = from_six_vertex(SV(1, 2, 3, 4, 5, 6))
    q = tuple(six_vertex_params(permute_variables(f, perm)))
    slots = [q.index(Scalar(w)) for w in (1, 3, 5)]
    return tuple(s // 2 for s in slots), frozenset(s // 2 for s in slots if s % 2)


def test_block_action_s234_images():
    # {1,(23),(34),(24),(243),(234)} maps onto {1,(AC),(BC),(AB),(ABC),(ACB)}
    assert block_action((1, 2, 3, 4))[0] == (0, 1, 2)
    assert block_action((1, 3, 2, 4))[0] == (2, 1, 0)  # (AC)
    assert block_action((1, 2, 4, 3))[0] == (0, 2, 1)  # (BC)
    assert block_action((1, 4, 3, 2))[0] == (1, 0, 2)  # (AB)


def test_block_action_kernel_and_even_flips():
    for perm in ((2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)):
        assert block_action(perm)[0] == (0, 1, 2)
    for perm in all_permutations():
        assert len(block_action(perm)[1]) % 2 == 0


def test_compose_lemma6_twist():
    # NM' for twins: [[a,0,0,0],[0,b,c,0],[0,c,b,0],[0,0,0,a]]
    f = from_six_vertex(SV(1, 1, 2, 2, 3, 3))
    mprime = matrix_view(f, (2, 1), (4, 3))
    nm = tuple(
        tuple(mprime[3 - r][c] for c in range(4)) for r in range(4)
    )
    expect = ((1, 0, 0, 0), (0, 2, 3, 0), (0, 3, 2, 0), (0, 0, 0, 1))
    for r in range(4):
        for c in range(4):
            assert nm[r][c] == Scalar(expect[r][c])


def test_compose_ice_pair_product():
    ice = from_six_vertex(SV(1, 1, 1, 1, 1, 1))
    g = compose(matrix_view(ice, (1, 2), (4, 3)), matrix_view(ice, (4, 3), (1, 2)))
    assert six_vertex_params(g) == SV(1, 1, 2, 2, 2, 2)


def test_compose_with_zero():
    f = from_six_vertex(SV(1, 2, 3, 4, 5, 6))
    zero = Signature(4, [ZERO] * 16)
    g = compose(matrix_view(f, (1, 2), (4, 3)), matrix_view(zero, (1, 2), (4, 3)))
    assert g.is_zero()


def test_compose_associative_in_chain():
    rng = random.Random(3)
    f = from_six_vertex(
        SV(*(rng.choice(POOL) for _ in range(6)))
    )
    v = ((1, 2), (4, 3))
    ab = compose(matrix_view(f, *v), matrix_view(f, *v))
    left = compose(matrix_view(ab, *v), matrix_view(f, *v))
    bc = compose(matrix_view(f, *v), matrix_view(f, *v))
    right = compose(matrix_view(f, *v), matrix_view(bc, *v))
    assert left == right


def test_holographic_basics():
    # Z^T Z equals the disequality matrix
    zt = tuple(tuple(Z_BASIS[c][r] for c in range(2)) for r in range(2))
    prod = tuple(
        tuple(
            sum((zt[r][k] * Z_BASIS[k][c] for k in range(2)), ZERO)
            for c in range(2)
        )
        for r in range(2)
    )
    assert prod == NEQ2_MATRIX
    rng = random.Random(4)
    f = random_signature(rng)
    ident = ((ONE, ZERO), (ZERO, ONE))
    assert holographic_transform(f, ident) == f


def test_h_is_involution():
    h = ((HALF_SQRT2, HALF_SQRT2), (HALF_SQRT2, -HALF_SQRT2))
    rng = random.Random(5)
    for arity in (1, 2, 3, 4):
        f = random_signature(rng, arity)
        assert holographic_transform(holographic_transform(f, h), h) == f


def test_n_double_is_double_disequality():
    for r in range(4):
        for c in range(4):
            assert N_DOUBLE[r][c] == (ONE if r + c == 3 else ZERO)


def test_hash_is_fixed_at_construction():
    rng = random.Random(29)
    for _ in range(20):
        f = random_signature(rng)
        g = Signature(4, list(f.values))
        assert f == g and f is not g
        assert hash(f) == hash(g) == hash((4, f.values))
    with pytest.raises(AttributeError):
        f._hash = 0
