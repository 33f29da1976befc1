import random
from itertools import combinations, product

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
    """Six weights with large zeta8 coefficients: every merge's output
    digits fit below 2^(W-1) for that merge's W, some use all but a few of
    those bits, and Z equals the transfer matrix's."""
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

    def spy(data, width):
        out = unpack(data, width)
        bits = max((abs(c).bit_length() for cs in out.values() for c in cs), default=0)
        seen.append((width, bits))
        return out

    monkeypatch.setattr(contract, "_unpack", spy)
    assert contract_eval(build_torus(4, p)).value == torus_transfer_matrix_value(4, p)
    assert len(seen) == 15  # one per merge
    assert all(bits < width for width, bits in seen)
    assert any(width - 16 <= bits for width, bits in seen)


def test_unpack_at_the_digit_limits():
    """Digits of +-(2^(W-1) - 1) and 0 survive _pack and _unpack at several
    widths W, whether the packed int is reduced mod 2^(4W) + 1, left
    unreduced, or off by multiples of the modulus, as a sum of products is;
    a residue of 0 is dropped."""
    for width in (1, 2, 7, 8, 9, 16, 24, 61, 64, 200):
        mod = (1 << 4 * width) + 1
        top = (1 << (width - 1)) - 1
        digits = sorted({-top, 0, top, max(top - 1, 0)})
        data = dict(enumerate(product(digits, repeat=4)))
        want = {k: c for k, c in data.items() if any(c)}
        packed = contract._pack(data, width)
        assert contract._unpack(packed, width) == want, width
        assert contract._unpack({k: x % mod for k, x in packed.items()}, width) == want
        shifted = {k: x + (k - 40) * mod + (mod << 4 * width) for k, x in packed.items()}
        assert contract._unpack(shifted, width) == want, width


# rational tables only, so every merge may take the row path
ROW_POOL = tuple(map(parse_scalar, ("0", "1", "-1", "2", "-3", "1/2", "-5/3", "7")))


def rational_corpus():
    """Seeded rational grids of 1-7 vertices, six-vertex and general tables,
    and the shapes the row path must get right: self-loops, parallel edges,
    negative tables, a grid whose Z cancels to 0 and an all-zero table."""
    from sixvertex.signature import Signature

    rng = random.Random("row-path")
    grids = []
    for trial in range(220):
        n = rng.randint(1, 7)
        if trial % 3 == 0:
            g = random_grid(rng, n, from_six_vertex(random_params(rng, pool=ROW_POOL)))
        else:
            sigs = {v: Signature(4, [rng.choice(ROW_POOL) for _ in range(16)]) for v in range(n)}
            g = random_grid(rng, n, signatures=sigs)
        grids.append(g)
    zero = Signature(4, [Scalar(0)] * 16)
    grids.append(random_grid(rng, 3, signatures={0: zero, 1: grids[5].vertices[0], 2: zero}))
    grids.append(random_grid(rng, 1, signatures={0: zero}))
    signs = tuple(map(parse_scalar, ("1", "-1")))
    for _ in range(500):
        sigs = {v: Signature(4, [rng.choice(signs) for _ in range(16)]) for v in range(4)}
        g = random_grid(rng, 4, signatures=sigs)
        if not brute_force_eval(g).value:
            grids.append(g)
            break
    return grids


@pytest.mark.parametrize("force", [True, False])
def test_row_path_and_dict_path_match_brute_force(monkeypatch, force):
    monkeypatch.setattr(contract, "_row_path_pays", lambda *sizes: force)
    grids = rational_corpus()
    loops = parallel = negative = cancelled = all_zero = packed = 0
    for i, g in enumerate(grids):
        want = brute_force_eval(g).value
        res = contract_eval(g)
        assert res.value == want, i
        packed += res.stats["packed_merges"]
        pairs = [frozenset((p.vertex, q.vertex)) for p, q in g.edges]
        loops += any(len(pair) == 1 for pair in pairs)
        parallel += len(set(pairs)) < len(pairs)
        negative += any(x.coords[0] < 0 for sig in g.vertices.values() for x in sig.values)
        all_zero += any(not any(sig.values) for sig in g.vertices.values())
        cancelled += not want and all(any(sig.values) for sig in g.vertices.values())
    assert len(grids) >= 200
    assert loops and parallel and negative and cancelled and all_zero
    assert (packed > 0) == force


@pytest.mark.parametrize(
    "n_groups, ma, mb, width",
    [
        (7, 31, 151, 16),  # bound 7 * 31 * 151 = 2^15 - 1: sums reach 2^(W-1) - 1
        (3, 85, 257, 24),  # bound 2^16 - 1: the sign bit needs a third byte
    ],
)
def test_row_slots_at_the_width_limits(monkeypatch, n_groups, ma, mb, width):
    """Slot sums of +-max|a| * max|b| * groups, the width bound, and 0
    decode exactly; W is the bound's bit length plus a sign bit, in bytes."""
    monkeypatch.setattr(contract, "_row_path_pays", lambda *sizes: True)
    widths = []
    products = contract._row_products

    def spy(stream, groups, s, sb, width):
        widths.append(width)
        return products(stream, groups, s, sb, width)

    monkeypatch.setattr(contract, "_row_products", spy)
    shared = range(1, n_groups + 1)
    # b: shared edges 10-12 (bits 0-2), out edges 20, 21 (bits 3, 4); slot 2
    # is filled in all groups but the last
    b_data = {}
    for g in shared:
        b_data[g] = mb
        b_data[g | 1 << 3] = -mb
        if g < n_groups:
            b_data[g | 1 << 4] = mb
    b = contract._Tensor((10, 11, 12, 20, 21), b_data)
    # a, streamed: the same shared edges and out edges 30, 31 (bits 3, 4);
    # row 1 alternates sign, rows 2 and 3 negate rows 0 and 1
    a_data = {}
    for g in shared:
        for row, sign in enumerate((1, (-1) ** g, -1, -((-1) ** g))):
            a_data[g | row << 3] = ma * sign
    a = contract._Tensor((10, 11, 12, 30, 31), a_data)
    merged, row_path = contract._merge(a, b, None)
    assert row_path and widths == [width]
    one, top = ma * mb, ma * mb * n_groups
    assert top.bit_length() + 1 <= width < top.bit_length() + 9
    # key bits: 20, 21, then 30, 31; slot 2 of rows 1 and 3 cancels to 0
    assert merged.edges == (20, 21, 30, 31)
    assert merged.data == {
        0: top, 1: -top, 2: top - one, 4: -one, 5: one,
        8: -top, 9: top, 10: one - top, 12: one, 13: -one,
    }


# Q(i, sqrt2) weights, so every merge packs zeta8 coordinates; two have
# coefficients of 30-40 bits
ZETA_POOL = tuple(
    map(
        parse_scalar,
        (
            "0", "1", "-1", "i", "(1)r2", "-(1i)r2", "1/3+(1/5+i)r2",
            "123456789-987654321i+(-55555+77777i)r2", "(-424242424242+1i)r2",
        ),
    )
)


def zeta_corpus():
    """Seeded Q(i, sqrt2) grids of 1-7 vertices, six-vertex and general
    tables, and the shapes a per-merge width must get right: a grid with
    an all-zero table, a grid whose Z cancels to 0, and one whose first
    merge has an empty output (two tables nonzero only at 0000 share an
    edge, which forces a 1 at one end), so the next merge gets an empty
    input."""
    from sixvertex.signature import Signature

    rng = random.Random("zeta-width")
    grids = []
    for trial in range(150):
        n = rng.randint(1, 7)
        if trial % 3 == 0:
            g = random_grid(rng, n, from_six_vertex(random_params(rng, pool=ZETA_POOL)))
        else:
            sigs = {v: Signature(4, [rng.choice(ZETA_POOL) for _ in range(16)]) for v in range(n)}
            g = random_grid(rng, n, signatures=sigs)
        grids.append(g)
    zero = Signature(4, [Scalar(0)] * 16)
    grids.append(random_grid(rng, 3, signatures={0: zero, 1: grids[4].vertices[0], 2: zero}))
    units = tuple(map(parse_scalar, ("1", "-1", "i", "(1)r2", "-(1)r2")))
    for _ in range(500):
        sigs = {v: Signature(4, [rng.choice(units) for _ in range(16)]) for v in range(3)}
        g = random_grid(rng, 3, signatures=sigs)
        if not brute_force_eval(g).value:
            grids.append(g)
            break
    at_0000 = Signature(4, [ZETA_POOL[7]] + [Scalar(0)] * 15)
    pairs = ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2))
    slots = {0: 0, 1: 0, 2: 0}
    edges = []
    for u, v in pairs:
        edges.append(((u, slots[u]), (v, slots[v])))
        slots[u] += 1
        slots[v] += 1
    sigs = {0: at_0000, 1: at_0000, 2: grids[4].vertices[0]}
    grids.append(SignatureGrid.build(sigs, edges).assert_valid())
    return grids


def test_zeta_widths_match_brute_force(monkeypatch):
    merges = []
    merge = contract._merge

    def spy(a, b, width):
        sizes = (len(a.data), len(b.data))
        out, row_path = merge(a, b, width)
        merges.append((*sizes, len(out.data), width))
        return out, row_path

    monkeypatch.setattr(contract, "_merge", spy)
    grids = zeta_corpus()
    loops = parallel = large = cancelled = all_zero = 0
    for i, g in enumerate(grids):
        want = brute_force_eval(g).value
        assert contract_eval(g).value == want, i
        pairs = [frozenset((p.vertex, q.vertex)) for p, q in g.edges]
        loops += any(len(pair) == 1 for pair in pairs)
        parallel += len(set(pairs)) < len(pairs)
        large += any(
            abs(c).bit_length() > 30 for sig in g.vertices.values() for x in sig.values
            for c in x.coords[:4]
        )
        all_zero += any(not any(sig.values) for sig in g.vertices.values())
        cancelled += not want and all(any(sig.values) for sig in g.vertices.values())
    assert len(grids) >= 150
    assert loops and parallel and large and cancelled and all_zero
    assert all(width > 0 for *_, width in merges)
    assert any(la and lb and not out for la, lb, out, _ in merges)  # empty output
    assert any(not (la and lb) for la, lb, *_ in merges)  # empty input


def test_max_width_records_the_widest_merge():
    """max_width is the widest per-merge W: 0 when every table is rational,
    and on a sqrt2 torus at most the one base the old global bound
    prod_v sum_x |c(f_v(x))|_1 gave the whole contraction."""
    from math import prod

    r2 = SV(*map(parse_scalar, ("(1)r2", "1", "2", "1", "1", "1")))
    torus = build_torus(4, r2)
    tensors = [
        contract._vertex_tensor(torus.vertices[v], ends)
        for v, ends in contract._incidence(torus).items()
    ]
    assert contract._lift(tensors)[1]
    bound = prod(sum(sum(map(abs, c)) for c in t.data.values()) for t in tensors)
    width = contract_eval(torus).stats["max_width"]
    assert 0 < width <= bound.bit_length() + 1
    assert contract_eval(build_torus(4, ICE)).stats["max_width"] == 0


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


def test_ice_torus_10_exact():
    res = contract_eval(build_torus(10, ICE))
    assert res.value == Scalar(16178049740086515288)
    assert res.stats["peak_rank"] == 20


def test_packed_merges_counts_the_row_path():
    assert contract_eval(build_torus(8, ICE)).stats["packed_merges"] > 0
    r2 = SV(*map(parse_scalar, ("(1)r2", "1", "2", "1", "1", "1")))
    assert contract_eval(build_torus(4, r2)).stats["packed_merges"] == 0


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
