import random

import pytest

from sixvertex.evaluate import (
    TooLargeError,
    brute_force_eval,
    count_eulerian_orientations,
    eval_bipartite_equality,
    torus_transfer_matrix_value,
)
from sixvertex.grid import (
    GridError,
    Port,
    SignatureGrid,
    build_torus,
    grid_from_json,
    grid_to_json,
    signature_from_json,
    signature_to_json,
    validate,
)
from sixvertex.sampling import SCALAR_POOL, random_grid, random_params
from sixvertex.scalar import ONE, Scalar, ZERO
from sixvertex.signature import (
    Signature,
    SixVertexParams,
    Z_BASIS,
    from_six_vertex,
    holographic_transform,
)

SV = SixVertexParams.of
ICE = SV(1, 1, 1, 1, 1, 1)


def loop_grid(params, pairing):
    sig = from_six_vertex(params)
    edges = tuple((Port(0, a), Port(0, b)) for a, b in pairing)
    return SignatureGrid({0: sig}, edges)


def reference_sum(grid, signatures, second_end_flip):
    """The plain loop over all 2^|E| edge assignments: edge bit b is the
    bit of its first port, b ^ second_end_flip that of its second, and
    slot 0 is the most significant bit of a vertex's table index."""
    tables = [
        (sig.values, [Port(v, s) for s in range(4)])
        for v, sig in signatures.items()
    ]
    total = ZERO
    for assign in range(1 << len(grid.edges)):
        bit = {}
        for e, (p, q) in enumerate(grid.edges):
            bit[p] = (assign >> e) & 1
            bit[q] = bit[p] ^ second_end_flip
        prod = ONE
        for values, (x1, x2, x3, x4) in tables:
            prod = prod * values[bit[x1] << 3 | bit[x2] << 2 | bit[x3] << 1 | bit[x4]]
        total = total + prod
    return total


def _equality_corpus(rng, count):
    """(grid, equality-side signatures) pairs: one vertex with two loops
    and an all-zero signature, the same with ice, then count seeded grids
    of 1..5 vertices (self-loops and parallel edges come with the uniform
    port pairing). Odd grids give each vertex its own tuple. The equality
    side takes, in turn, the Z transform of each vertex's signature (dense),
    random 16-value tables, and the grid's own signatures."""
    zero = Signature(4, [ZERO] * 16)
    yield loop_grid(SV(0, 0, 0, 0, 0, 0), ((0, 2), (1, 3))), {0: zero}
    yield loop_grid(ICE, ((0, 1), (2, 3))), {0: zero}
    for i in range(count):
        n = rng.randint(1, 5)
        if i % 2:
            sigs = {v: from_six_vertex(random_params(rng)) for v in range(n)}
            g = random_grid(rng, n, signatures=sigs)
        else:
            g = random_grid(rng, n, from_six_vertex(random_params(rng)))
        if i % 3 == 0:
            eq = {v: holographic_transform(f, Z_BASIS) for v, f in g.vertices.items()}
        elif i % 3 == 1:
            eq = {
                v: Signature(4, [rng.choice(SCALAR_POOL) for _ in range(16)])
                for v in g.vertices
            }
        else:
            eq = dict(g.vertices)
        yield g, eq


def test_enumerator_matches_the_plain_loop():
    rng = random.Random(20261020)
    shapes = dict.fromkeys(("self-loop", "parallel", "dense", "all-zero"), 0)
    for g, eq in _equality_corpus(rng, 320):
        stats = {"assignments": 1 << len(g.edges)}
        b = brute_force_eval(g)
        assert (b.value, b.method, b.stats) == (
            reference_sum(g, g.vertices, 1), "brute", stats
        )
        e = eval_bipartite_equality(g, eq)
        assert (e.value, e.method, e.stats) == (
            reference_sum(g, eq, 0), "brute-eq", stats
        )
        pairs = [frozenset((p.vertex, q.vertex)) for p, q in g.edges]
        shapes["self-loop"] += any(len(pair) == 1 for pair in pairs)
        shapes["parallel"] += len(set(pairs)) < len(pairs)
        shapes["dense"] += any(sum(map(bool, f.values)) > 6 for f in eq.values())
        shapes["all-zero"] += any(not any(f.values) for f in eq.values())
    assert min(shapes.values()) > 0, shapes


def test_enumerator_depth_is_not_bounded_by_recursion():
    # a ring of n vertices joined by two parallel edges: (2, 3, 0, 0, 0, 0)
    # allows 0011 or 1100 at every vertex, the same at all of them, so the
    # value is 2^n + 3^n; 1,200 levels, deeper than the recursion limit
    n = 600
    edges = []
    for v in range(n):
        edges.append((Port(v, 1), Port((v + 1) % n, 3)))
        edges.append((Port(v, 2), Port((v + 1) % n, 0)))
    sig = from_six_vertex(SV(2, 3, 0, 0, 0, 0))
    ring = SignatureGrid(dict.fromkeys(range(n), sig), tuple(edges))
    assert brute_force_eval(ring, edge_cap=2 * n).value == Scalar(2**n + 3**n)


def test_validate_ok_and_errors():
    g = loop_grid(ICE, ((0, 1), (2, 3)))
    assert validate(g) == []
    assert g.assert_valid() is g
    # the constructor refuses the grid, naming each defect
    with pytest.raises(GridError) as err:
        SignatureGrid(
            {0: from_six_vertex(ICE)},
            ((Port(0, 0), Port(0, 1)), (Port(0, 1), Port(0, 2))),
        )
    assert str(err.value) == (
        "port (v0, slot 1) used by edges 0 and 1; port (v0, slot 3) not on any edge"
    )


def test_torus_without_its_last_edge_cannot_be_built():
    """Dropping an edge leaves two ports bare; such a grid is refused when it
    is built, so no solver sees it (solve_P read it as 16, solve_A failed
    with a KeyError)."""
    t = build_torus(2, SV(1, 1, 1, 1, 0, 0))
    with pytest.raises(GridError, match="not on any edge"):
        SignatureGrid(t.vertices, t.edges[:-1])
    with pytest.raises(GridError, match="not on any edge"):
        SignatureGrid.build(t.vertices, t.edges[:-1])


def test_empty_grid_value_one():
    g = SignatureGrid({}, ())
    assert validate(g) == []
    assert brute_force_eval(g).value == Scalar(1)


def test_brute_force_spec_examples():
    assert brute_force_eval(loop_grid(ICE, ((0, 2), (1, 3)))).value == Scalar(4)
    g = loop_grid(SV(2, 3, 0, 0, 0, 0), ((0, 2), (1, 3)))
    assert brute_force_eval(g).value == Scalar(5)
    zero_any = loop_grid(SV(0, 0, 0, 0, 0, 0), ((0, 2), (1, 3)))
    assert brute_force_eval(zero_any).value == ZERO


def test_brute_force_cap():
    torus = build_torus(4, ICE)  # 32 edges
    with pytest.raises(TooLargeError):
        brute_force_eval(torus)
    with pytest.raises(TooLargeError):
        brute_force_eval(build_torus(2, ICE), edge_cap=7)


def test_torus_shape():
    t = build_torus(2, ICE)
    assert len(t.vertices) == 4 and len(t.edges) == 8
    with pytest.raises(GridError):
        build_torus(1, ICE)
    t3 = build_torus(3, ICE)
    assert len(t3.vertices) == 9 and len(t3.edges) == 18


def test_torus_ice_counts_and_transfer_matrix():
    t2 = build_torus(2, ICE)
    v = brute_force_eval(t2).value
    assert v == Scalar(18)
    assert count_eulerian_orientations(t2) == 18
    assert torus_transfer_matrix_value(2, ICE) == Scalar(18)


def test_transfer_matrix_random_params():
    rng = random.Random(10)
    for _ in range(8):
        p = random_params(rng)
        assert torus_transfer_matrix_value(2, p) == brute_force_eval(
            build_torus(2, p)
        ).value


def test_vertex_relabeling_invariance():
    rng = random.Random(12)
    p = random_params(rng)
    g = random_grid(rng, 4, from_six_vertex(p))
    mapping = {0: 7, 1: 3, 2: 11, 3: 0}
    relabeled = SignatureGrid(
        {mapping[v]: sig for v, sig in g.vertices.items()},
        tuple(
            (Port(mapping[a.vertex], a.slot), Port(mapping[b.vertex], b.slot))
            for a, b in g.edges
        ),
    )
    assert brute_force_eval(g).value == brute_force_eval(relabeled).value


def test_multiplicativity_over_components():
    rng = random.Random(13)
    p1, p2 = random_params(rng), random_params(rng)
    g1 = loop_grid(p1, ((0, 2), (1, 3)))
    g2 = loop_grid(p2, ((0, 1), (2, 3)))
    union = SignatureGrid(
        {0: g1.vertices[0], 1: g2.vertices[0]},
        g1.edges + tuple((Port(1, a.slot), Port(1, b.slot)) for a, b in g2.edges),
    )
    assert (
        brute_force_eval(union).value
        == brute_force_eval(g1).value * brute_force_eval(g2).value
    )


def test_holographic_invariance_and_equality_eval():
    rng = random.Random(14)
    for _ in range(10):
        p = random_params(rng)
        f = from_six_vertex(p)
        g = random_grid(rng, rng.randint(1, 3), f)
        zf = holographic_transform(f, Z_BASIS)
        lhs = brute_force_eval(g).value
        rhs = eval_bipartite_equality(g, {v: zf for v in g.vertices}).value
        assert lhs == rhs
    zero = Signature(4, [ZERO] * 16)
    g = SignatureGrid({0: zero}, tuple((Port(0, a), Port(0, b)) for a, b in ((0, 2), (1, 3))))
    assert eval_bipartite_equality(g).value == ZERO


def test_eulerian_orientation_cross_check():
    rng = random.Random(15)
    for _ in range(5):
        g = random_grid(rng, rng.randint(1, 4), from_six_vertex(ICE))
        assert brute_force_eval(g).value == Scalar(count_eulerian_orientations(g))


def test_grid_json_round_trip():
    t = build_torus(2, SV(1, 2, 3, 4, 5, "1/2"))
    obj = grid_to_json(t)
    back = grid_from_json(obj)
    assert back.edges == t.edges
    assert back.vertices == t.vertices
    # six_vertex short form used when applicable
    assert "six_vertex" in obj["vertices"][0]["signature"]
    f = Signature(2, [1, 0, 0, 1])
    assert signature_from_json(signature_to_json(f)) == f
    with pytest.raises(GridError):
        grid_from_json({"vertices": [{"id": 0}], "edges": []})
