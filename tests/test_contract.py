import random
from itertools import combinations

import pytest

from sixvertex import contract
from sixvertex.contract import (
    ContractionCapError,
    ContractionPlan,
    contract_eval,
    plan_contraction,
    sequential_plan,
)
from sixvertex.evaluate import brute_force_eval
from sixvertex.grid import Port, SignatureGrid, build_torus
from sixvertex.sampling import random_grid, random_params
from sixvertex.scalar import Scalar, parse_scalar
from sixvertex.signature import (
    SixVertexParams,
    from_six_vertex,
    permute_variables,
)

SV = SixVertexParams.of
ICE = SV(1, 1, 1, 1, 1, 1)

# weights with sqrt2 parts and denominators other than 1, so contraction
# runs on all four integer coordinates and each vertex has its own lcm
FRACTIONAL_POOL = tuple(
    parse_scalar(s)
    for s in ("0", "1", "-1/7", "-2/3i", "(1)r2", "1/3+(1/5+i)r2", "3/4-(2/9i)r2")
)


def test_matches_brute_force_randomized():
    rng = random.Random(21)
    for trial in range(60):
        p = random_params(rng)
        g = random_grid(rng, rng.randint(1, 6), from_six_vertex(p))
        assert contract_eval(g).value == brute_force_eval(g).value, trial


def test_empty_grid():
    g = SignatureGrid({}, ())
    assert contract_eval(g).value == Scalar(1)


def test_general_arity4_tables():
    # the engine is not six-vertex specific
    from sixvertex.sampling import SCALAR_POOL
    from sixvertex.signature import Signature

    rng = random.Random(26)
    for _ in range(15):
        sigs = {
            v: Signature(4, [rng.choice(SCALAR_POOL) for _ in range(16)])
            for v in range(rng.randint(1, 4))
        }
        g = random_grid(rng, len(sigs), signatures=sigs)
        assert contract_eval(g).value == brute_force_eval(g).value


def test_fractional_sqrt2_tables_match_brute_force():
    from sixvertex.signature import Signature

    rng = random.Random(27)
    for trial in range(30):
        n = rng.randint(1, 5)
        if trial % 2:
            p = random_params(rng, pool=FRACTIONAL_POOL)
            g = random_grid(rng, n, from_six_vertex(p))
        else:
            sigs = {
                v: Signature(4, [rng.choice(FRACTIONAL_POOL) for _ in range(16)])
                for v in range(n)
            }
            g = random_grid(rng, n, signatures=sigs)
        assert contract_eval(g).value == brute_force_eval(g).value, trial


def test_fractional_sqrt2_torus_against_transfer_matrix():
    from sixvertex.evaluate import torus_transfer_matrix_value

    weights = ("1/3+(1/5+i)r2", "-2/3i", "(1)r2", "-1/7", "1", "1/2")
    p = SV(*map(parse_scalar, weights))
    t4 = build_torus(4, p)
    assert contract_eval(t4).value == torus_transfer_matrix_value(4, p)


# Gaussian, sqrt2 and negative weights run on ints packed mod 2^(4B) + 1,
# rational ones on exact ints (FRACTIONAL_POOL above covers denominators)
KERNEL_POOLS = {
    "gaussian": ("0", "1", "-1", "i", "-i", "1+i", "2-3i", "-1/2i"),
    "sqrt2": ("0", "1", "(1)r2", "-(1)r2", "(1i)r2", "1+(1)r2", "(1-1i)r2"),
    "negative": ("0", "-1", "-2", "-3", "1", "-1-2i", "-(3+1i)r2"),
    "rational": ("0", "1", "-1", "2", "-1/3", "5/2"),
}


@pytest.mark.parametrize("pool", sorted(KERNEL_POOLS))
def test_kernel_exact_on_random_tables(pool):
    """Seeded random grids, general and six-vertex tables, against brute
    force; uniform port pairing makes self-loops and parallel edges."""
    from sixvertex.signature import Signature

    scalars = tuple(map(parse_scalar, KERNEL_POOLS[pool]))
    rng = random.Random(f"kernel/{pool}")
    loops = parallel = 0
    for trial in range(40):
        n = rng.randint(1, 5)
        if trial % 2:
            g = random_grid(rng, n, from_six_vertex(random_params(rng, pool=scalars)))
        else:
            sigs = {v: Signature(4, [rng.choice(scalars) for _ in range(16)]) for v in range(n)}
            g = random_grid(rng, n, signatures=sigs)
        pairs = [frozenset((p.vertex, q.vertex)) for p, q in g.edges]
        loops += any(len(pair) == 1 for pair in pairs)
        parallel += len(set(pairs)) < len(pairs)
        assert contract_eval(g).value == brute_force_eval(g).value, trial
    assert loops and parallel


def test_kernel_exact_on_a_cancelling_grid():
    """Z is exactly 0 through cancelling merges, on the packed path."""
    from sixvertex.signature import Signature

    scalars = tuple(map(parse_scalar, ("1", "-1", "i", "(1)r2", "-(1)r2")))
    rng = random.Random(31)
    for _ in range(500):
        sigs = {v: Signature(4, [rng.choice(scalars) for _ in range(16)]) for v in range(3)}
        g = random_grid(rng, 3, signatures=sigs)
        if not brute_force_eval(g).value:
            break
    else:
        pytest.fail("no grid with Z = 0 in the sample")
    assert contract_eval(g).value == Scalar(0)


def test_kernel_exact_on_negative_coordinates():
    """A grid whose Z has all four coordinates nonzero, and the same grid
    with one table negated: between them every coordinate is negative."""
    from sixvertex.signature import Signature

    scalars = tuple(map(parse_scalar, ("1", "-2", "3i", "(1)r2", "1-(5i)r2")))
    rng = random.Random(32)
    for _ in range(200):
        sigs = {v: Signature(4, [rng.choice(scalars) for _ in range(16)]) for v in range(3)}
        g = random_grid(rng, 3, signatures=sigs)
        z = brute_force_eval(g).value
        if all(z.coords[:4]):
            break
    else:
        pytest.fail("no grid with four nonzero coordinates in the sample")
    negated = dict(g.vertices)
    negated[0] = Signature(4, [-x for x in g.vertices[0].values])
    neg = SignatureGrid(negated, g.edges)
    assert contract_eval(g).value == z
    assert contract_eval(neg).value == -z


def test_kernel_digits_near_the_bound_on_a_4x4_torus(monkeypatch):
    """Six weights with large zeta8 coefficients: the decoded digits use all
    but a few of their B - 1 bits, and Z equals the transfer matrix's."""
    from sixvertex.evaluate import torus_transfer_matrix_value

    weights = (
        "123456789-987654321i+(-55555+77777i)r2",
        "-99999999+(31415926-27182818i)r2",
        "(-424242424242+1i)r2",
        "-7777777i+(1/3)r2",
        "5/7-(100000000i)r2",
        "-1+2i-(3-4i)r2",
    )
    p = SV(*map(parse_scalar, weights))
    seen = []
    unpack = contract._unpack

    def spy(x, b, mod):
        x0, x1, x2, x3 = unpack(x, b, mod)
        seen.append((b, max(abs(c).bit_length() for c in (x0, x2 + x3, x1, x3 - x2))))
        return x0, x1, x2, x3

    monkeypatch.setattr(contract, "_unpack", spy)
    assert contract_eval(build_torus(4, p)).value == torus_transfer_matrix_value(4, p)
    ((b, bits),) = seen
    assert b - 16 <= bits < b


def test_unpack_at_the_digit_limits():
    """Digits of +-(2^(B-1) - 1) and 0 survive packing mod 2^(4B) + 1, and
    exact ints (N None) decode the same way."""
    b = 9
    mod = (1 << 4 * b) + 1
    top = (1 << (b - 1)) - 1
    for c0 in (-top, 0, top):
        for c2 in (-top, top):
            for c1, c3 in ((top, -top), (-top, top), (top - 1, 0), (-top, -top)):
                x = c0 + (c1 << b) + (c2 << 2 * b) + (c3 << 3 * b)
                want = (c0, c2, (c1 - c3) // 2, (c1 + c3) // 2)
                assert contract._unpack(x % mod, b, mod) == want
                assert contract._unpack(x, b, None) == want


def bit_loop(key, dst):
    out = 0
    for src, d in enumerate(dst):
        out |= ((key >> src) & 1) << d
    return out


def test_remap_matches_a_bit_loop():
    rng = random.Random(33)
    assert list(contract._remap({0: "z"}, [])) == [(0, "z")]  # rank 0
    for rank in list(range(1, 33)) + [33, 40]:  # up to four tables, then more
        dst = rng.sample(range(rank + rng.randint(0, 8)), rank)
        keys = {rng.getrandbits(rank) for _ in range(50)} | {0, (1 << rank) - 1}
        if rank > 24:
            keys |= {1 << 24, (1 << rank) - (1 << 24)}
        data = {k: i for i, k in enumerate(keys)}
        want = [(bit_loop(k, dst), v) for k, v in data.items()]
        assert list(contract._remap(data, dst)) == want, rank


def test_ice_torus_8_exact():
    res = contract_eval(build_torus(8, ICE))
    assert res.value == Scalar(2901094068042)
    assert res.stats["peak_rank"] == 16


def test_torus_against_transfer_matrix():
    from sixvertex.evaluate import torus_transfer_matrix_value

    t4 = build_torus(4, ICE)
    assert contract_eval(t4).value == torus_transfer_matrix_value(4, ICE)
    assert contract_eval(t4).value == Scalar(2970)


def test_disconnected_multiplicativity():
    rng = random.Random(22)
    p = random_params(rng)
    sig = from_six_vertex(p)
    g1 = SignatureGrid({0: sig}, ((Port(0, 0), Port(0, 2)), (Port(0, 1), Port(0, 3))))
    both = SignatureGrid(
        {0: sig, 1: sig},
        g1.edges + tuple((Port(1, a.slot), Port(1, b.slot)) for a, b in g1.edges),
    )
    v1 = contract_eval(g1).value
    assert contract_eval(both).value == v1 * v1


def test_plan_is_deterministic_and_replayable():
    rng = random.Random(23)
    g = random_grid(rng, 5, from_six_vertex(ICE))
    p1 = plan_contraction(g)
    p2 = plan_contraction(g)
    assert p1 == p2
    assert contract_eval(g, plan=p1).value == contract_eval(g).value
    seq = sequential_plan(g)
    assert contract_eval(g, plan=seq).value == contract_eval(g).value


def test_bad_plan_rejected():
    rng = random.Random(24)
    g = random_grid(rng, 3, from_six_vertex(ICE))
    other = random_grid(rng, 4, from_six_vertex(ICE))
    plan = plan_contraction(other)
    with pytest.raises(ValueError):
        contract_eval(g, plan=plan)


def test_rank_cap_error_names_step():
    t = build_torus(3, ICE)
    with pytest.raises(ContractionCapError) as err:
        contract_eval(t, rank_cap=4)
    assert "rank" in str(err.value)


def test_refuses_from_the_plan_before_any_arithmetic(monkeypatch):
    t = build_torus(3, ICE)
    plan = plan_contraction(t)
    # a hand-built plan that understates its peak reaches the merge check
    with pytest.raises(ContractionCapError) as at_merge:
        contract_eval(t, plan=ContractionPlan(plan.steps, 0), rank_cap=4)

    def fail(*args):
        raise AssertionError("arithmetic ran before the refusal")

    monkeypatch.setattr(contract, "_vertex_tensor", fail)
    monkeypatch.setattr(contract, "_merge", fail)
    with pytest.raises(ContractionCapError) as up_front:
        contract_eval(t, rank_cap=4)
    assert str(up_front.value) == str(at_merge.value)
    assert "needs rank" in str(up_front.value)


def test_foreign_plan_step_rejected_before_any_arithmetic(monkeypatch):
    t = build_torus(3, ICE)
    steps = plan_contraction(t).steps
    foreign = (frozenset((0,)), frozenset((99,)))

    def fail(*args):
        raise AssertionError("arithmetic ran before the refusal")

    monkeypatch.setattr(contract, "_vertex_tensor", fail)
    monkeypatch.setattr(contract, "_merge", fail)
    with pytest.raises(ValueError, match=r"plan step \(\[0\], \[99\]\) does not match grid"):
        contract_eval(t, plan=ContractionPlan((foreign,) + steps, 0))
    twice = (frozenset((0,)), frozenset((0,)))
    with pytest.raises(ValueError, match=r"plan step \(\[0\], \[0\]\) does not match grid"):
        contract_eval(t, plan=ContractionPlan((twice,) + steps, 0))
    with pytest.raises(ValueError, match="does not contract the grid to one tensor"):
        contract_eval(t, plan=ContractionPlan(steps[:-1], 0))


def reference_greedy(grid):
    """The planner's specification, rescanning every live pair at every
    step (O(V^3)): merge the pair minimizing the resulting open-index count,
    ties broken by lowest vertex ids, earlier-inserted tensor first."""
    live = {}
    for v in grid.vertices:
        live[frozenset((v,))] = {
            e for e, (p, q) in enumerate(grid.edges) if (p.vertex == v) != (q.vertex == v)
        }
    peak = max((len(s) for s in live.values()), default=0)
    steps = []
    while len(live) > 1:
        best = None
        for (ka, ea), (kb, eb) in combinations(live.items(), 2):
            key = (len(ea ^ eb), *sorted((min(ka), min(kb))))
            if best is None or key < best[0]:
                best = (key, ka, kb)
        _, ka, kb = best
        merged = live.pop(ka) ^ live.pop(kb)
        live[ka | kb] = merged
        peak = max(peak, len(merged))
        steps.append((ka, kb))
    return ContractionPlan(tuple(steps), peak)


def relabelled_multigraph(rng, n):
    """Uniform port pairing on n vertices with shuffled, non-contiguous ids,
    inserted in shuffled order."""
    labels = rng.sample(range(-40, 400), n)
    ports = [Port(v, s) for v in labels for s in range(4)]
    rng.shuffle(ports)
    edges = tuple((ports[2 * i], ports[2 * i + 1]) for i in range(2 * n))
    rng.shuffle(labels)
    sig = from_six_vertex(ICE)
    return SignatureGrid({v: sig for v in labels}, edges).assert_valid()


def test_plan_matches_reference_greedy():
    rng = random.Random(28)
    grids = [relabelled_multigraph(rng, rng.randint(1, 30)) for _ in range(80)]
    sig = from_six_vertex(ICE)
    loop = ((Port(7, 0), Port(7, 2)), (Port(7, 1), Port(7, 3)))
    grids.append(SignatureGrid({7: sig}, loop))  # a self-loop-only vertex
    parts = [relabelled_multigraph(rng, 6) for _ in range(3)]
    grids.append(  # a disconnected grid: three components, labels disjoint
        SignatureGrid(
            {v + 1000 * i: s for i, g in enumerate(parts) for v, s in g.vertices.items()},
            tuple(
                (Port(p.vertex + 1000 * i, p.slot), Port(q.vertex + 1000 * i, q.slot))
                for i, g in enumerate(parts)
                for p, q in g.edges
            ),
        )
    )
    for i, g in enumerate(grids):
        assert plan_contraction(g) == reference_greedy(g), i


def rectangular_torus(w, length):
    """w x length torus in the layout of build_torus, which it equals when
    w == length: vertex r*w + c, slots N, E, S, W."""
    edges = []
    for r in range(length):
        for c in range(w):
            v = r * w + c
            edges.append(((v, 1), (r * w + (c + 1) % w, 3)))
            edges.append(((v, 2), (((r + 1) % length) * w + c, 0)))
    sig = from_six_vertex(ICE)
    return SignatureGrid.build({v: sig for v in range(w * length)}, edges).assert_valid()


@pytest.mark.parametrize(
    "w, length, peak",
    [(8, 8, 16), (7, 7, 14), (6, 10, 12), (12, 12, 24), (6, 24, 12), (10, 10, 20), (5, 20, 10)],
)
def test_torus_peak_ranks(w, length, peak):
    g = rectangular_torus(w, length)
    plan = plan_contraction(g)
    assert plan.peak_rank == peak
    assert len(plan.steps) == w * length - 1
    if w * length <= 64:
        assert plan == reference_greedy(g)


def test_s4_rewiring_invariance():
    rng = random.Random(25)
    for trial in range(15):
        p = random_params(rng)
        g = random_grid(rng, rng.randint(2, 4), from_six_vertex(p))
        want = brute_force_eval(g).value
        # rewire vertex 0: replace f by permuted f and route its ports through
        # the inverse slot map
        perm = rng.choice(
            [(2, 1, 3, 4), (1, 3, 2, 4), (4, 2, 3, 1), (2, 3, 4, 1), (3, 4, 1, 2)]
        )
        new_sigs = dict(g.vertices)
        new_sigs[0] = permute_variables(g.vertices[0], perm)

        def move(port):
            # the edge feeding f's argument i now feeds y_{perm(i)}
            if port.vertex == 0:
                return Port(0, perm[port.slot] - 1)
            return port

        rewired = SignatureGrid(
            new_sigs, tuple((move(a), move(b)) for a, b in g.edges)
        )
        assert brute_force_eval(rewired).value == want, (trial, perm)
        assert contract_eval(rewired).value == want


def test_config_rank_cap_default_is_the_contraction_default():
    from sixvertex.cli import build_parser
    from sixvertex.evaluate import DEFAULT_EDGE_CAP

    args = build_parser().parse_args(["selftest"])
    assert args.cap_rank == contract.DEFAULT_RANK_CAP
    assert args.cap_edges == DEFAULT_EDGE_CAP
