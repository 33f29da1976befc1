import random
from collections import Counter
from heapq import heapify, heappop, heappush
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
    six_vertex_params,
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
        out, norm = unpack(data, width)
        bits = max((abs(c).bit_length() for cs in out.values() for c in cs), default=0)
        l1 = max((sum(map(abs, c)) for c in out.values()), default=0)
        seen.append((width, bits, norm == l1))
        return out, norm

    monkeypatch.setattr(contract, "_unpack", spy)
    assert contract_eval(build_torus(4, p)).value == torus_transfer_matrix_value(4, p)
    assert len(seen) == 15  # one per merge
    assert all(bits < width and norm_ok for width, bits, norm_ok in seen)
    assert any(width - 16 <= bits for width, bits, _ in seen)


def test_unpack_at_the_digit_limits():
    """Digits of +-(2^(W-1) - 1) and 0 survive _pack and _unpack at several
    widths W, whether the packed int is reduced mod 2^(4W) + 1, left
    unreduced, or off by multiples of the modulus, as a sum of products is;
    a residue of 0 is dropped, and the norm is the largest L1 norm kept."""
    for width in (1, 2, 7, 8, 9, 16, 24, 61, 64, 200):
        mod = (1 << 4 * width) + 1
        top = (1 << (width - 1)) - 1
        digits = sorted({-top, 0, top, max(top - 1, 0)})
        data = dict(enumerate(product(digits, repeat=4)))
        want = {k: c for k, c in data.items() if any(c)}, 4 * top
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
        (3, 85, 257, 32),  # bound 2^16 - 1: the sign bit needs a third byte, so a word of 4
        (3, 1 << 35, 1 << 34, 72),  # bound 3 * 2^69: nine bytes, past a machine word
    ],
)
def test_row_slots_at_the_width_limits(monkeypatch, n_groups, ma, mb, width):
    """Slot sums of +-max|a| * max|b| * groups, the width bound, and 0
    decode exactly; W holds the bound's bit length plus a sign bit, in the
    least machine word of 1, 2, 4 or 8 bytes, or in whole bytes past 8."""
    monkeypatch.setattr(contract, "_row_path_pays", lambda *sizes: True)
    widths = []
    products = contract._row_products

    def spy(stream, groups, s, row_class, classes, group_class, width):
        widths.append(width)
        return products(stream, groups, s, row_class, classes, group_class, width)

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
    merged, how = contract._merge(a, b, None)
    assert how == "row" and widths == [width]
    one, top = ma * mb, ma * mb * n_groups
    assert top.bit_length() + 1 <= width
    # key bits: 20, 21, then 30, 31; slot 2 of rows 1 and 3 cancels to 0
    assert merged.edges == (20, 21, 30, 31)
    assert merged.data == {
        0: top, 1: -top, 2: top - one, 4: -one, 5: one,
        8: -top, 9: top, 10: one - top, 12: one, 13: -one,
    }


# six-vertex weights, zero among them, for the sector-row tests: rational,
# and Q(i, sqrt2) with coefficients of up to 40 bits
SECTOR_POOLS = {
    "rational": ("0", "1", "-1", "2", "-3", "1/2", "-5/3", "7"),
    "zeta": (
        "0", "1", "-1", "i", "(1)r2", "-(1i)r2", "1/3+(1/5+i)r2",
        "123456789-987654321i+(-55555+77777i)r2", "(-424242424242+1i)r2",
    ),
}


@pytest.mark.parametrize("pool", sorted(SECTOR_POOLS))
def test_sector_rows_match_dict_path_and_brute_force(monkeypatch, pool):
    """Seeded random six-vertex grids, one table per vertex, some with one
    or two zero weights: the row path forced on every merge, and never
    taken, both give brute force's Z; some row layouts have several
    classes. Every tensor built is sectored, and popcount(key ^ flip) is
    its charge on each of its keys."""
    scalars = tuple(map(parse_scalar, SECTOR_POOLS[pool]))
    rng = random.Random(f"sector-rows/{pool}")
    merges = []
    merge = contract._merge

    def spy(a, b, width, partner=None):
        out, how = merge(a, b, width, partner)
        merges.append((how, out))
        return out, how

    monkeypatch.setattr(contract, "_merge", spy)
    products = contract._row_products
    layouts = []

    def row_spy(stream, groups, s, row_class, classes, group_class, width):
        layouts.append(len(classes))
        return products(stream, groups, s, row_class, classes, group_class, width)

    monkeypatch.setattr(contract, "_row_products", row_spy)
    loops = parallel = zeros = 0
    rows = {True: 0, False: 0}
    for trial in range(150):
        n = rng.randint(1, 7)
        sigs = {}
        for v in range(n):
            w = [rng.choice(scalars) for _ in range(6)]
            for i in rng.sample(range(6), trial % 3):
                w[i] = Scalar(0)
            sigs[v] = from_six_vertex(SV(*w))
        g = random_grid(rng, n, signatures=sigs)
        want = brute_force_eval(g).value
        for force in (True, False):
            monkeypatch.setattr(contract, "_row_path_pays", lambda *sizes: force)
            merges.clear()
            res = contract_eval(g)
            assert res.value == want, (trial, force)
            assert res.stats["packed_merges"] == sum(how == "row" for how, _ in merges)
            rows[force] += res.stats["packed_merges"]
            for _, out in merges:
                assert out.charge is not None
                assert {(k ^ out.flip).bit_count() for k in out.data} <= {out.charge}
        pairs = [frozenset((p.vertex, q.vertex)) for p, q in g.edges]
        loops += any(len(pair) == 1 for pair in pairs)
        parallel += len(set(pairs)) < len(pairs)
        zeros += any(not x for s in sigs.values() for x in six_vertex_params(s))
    assert loops and parallel and zeros
    assert rows[True] > 0 and rows[False] == 0
    assert max(layouts) > 1  # some row layouts split the keys into classes


def test_general_tables_are_not_sectored():
    """A table nonzero on inputs of two weights has no charge, and neither
    has a merge it takes part in; a six-vertex table has charge 2 less one
    per self-loop, and a merge of two has the sum less one per shared
    edge."""
    from sixvertex.signature import Signature

    general = Signature(4, [Scalar(1)] * 16)
    ice = from_six_vertex(ICE)
    loop = {0: [(0, 0)], 1: [(1, 1)], 2: [(2, 0), (3, 1)]}
    assert contract._vertex_tensor(general, loop).charge is None
    t = contract._vertex_tensor(ice, loop)
    assert t.charge == 1 and t.flip == 1 << 1
    assert {(k ^ t.flip).bit_count() for k in t.data} == {1}
    first = {0: [(0, 0)], 1: [(1, 0)], 5: [(2, 0)], 6: [(3, 0)]}
    second = {0: [(2, 1)], 1: [(3, 1)], 7: [(0, 0)], 8: [(1, 1)]}
    for sig, charge in ((general, None), (ice, 2)):
        a, b = contract._vertex_tensor(sig, first), contract._vertex_tensor(ice, second)
        contract._lift([a, b])
        out, _ = contract._merge(a, b, 0)
        # out edges 7, 8, 5, 6; 8's second end is in the cluster
        assert out.edges == (7, 8, 5, 6) and out.flip == 1 << 1 and out.charge == charge
        if charge is not None:
            assert {(k ^ out.flip).bit_count() for k in out.data} == {charge}


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

    def spy(a, b, width, partner=None):
        sizes = (len(a.data), len(b.data))
        out, how = merge(a, b, width, partner)
        merges.append((*sizes, len(out.data), width))
        return out, how

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


def test_zeta_rows_forced_match_brute_force(monkeypatch):
    """The row path forced on every Z[zeta8] merge of the corpus, general
    tables included, whose rows have one class: Z is brute force's, and
    some merges pack."""
    monkeypatch.setattr(contract, "_row_path_pays", lambda *sizes: True)
    packed = 0
    for i, g in enumerate(zeta_corpus()):
        res = contract_eval(g)
        assert res.value == brute_force_eval(g).value, i
        packed += res.stats["packed_merges"]
    assert packed


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


def prune_corpus():
    """Seeded grids of 1-7 vertices: general and six-vertex tables over the
    rational and Q(i, sqrt2) pools, six-vertex tables with one zero weight
    (w5) and with two (w1, w4), as the hard tuples have, and grids with an
    all-zero table, whose tensor is a partner no entry can meet."""
    from sixvertex.signature import Signature

    rng = random.Random("partner-filter")
    grids = []
    for pool in (ROW_POOL, ZETA_POOL):
        for trial in range(50):
            n = rng.randint(1, 7)
            if trial % 2:
                g = random_grid(rng, n, from_six_vertex(random_params(rng, pool=pool)))
            else:
                sigs = {v: Signature(4, [rng.choice(pool) for _ in range(16)]) for v in range(n)}
                g = random_grid(rng, n, signatures=sigs)
            grids.append(g)
    nonzero = [x for x in ROW_POOL + ZETA_POOL if x]
    for trial in range(80):
        w = [rng.choice(nonzero) for _ in range(6)]
        for i in (4,) if trial % 2 else (0, 3):
            w[i] = Scalar(0)
        grids.append(random_grid(rng, rng.randint(1, 7), from_six_vertex(SV(*w))))
    zero = Signature(4, [Scalar(0)] * 16)
    for n in (3, 4, 5):
        sigs = {v: grids[4 * v + 1].vertices[0] for v in range(n)}
        sigs[n - 1] = zero
        grids.append(random_grid(rng, n, signatures=sigs))
    return grids


def spy_merges(monkeypatch):
    """Record (how, output size) of every _merge."""
    merges = []
    merge = contract._merge

    def spy(a, b, width, partner=None):
        out, how = merge(a, b, width, partner)
        merges.append((how, len(out.data)))
        return out, how

    monkeypatch.setattr(contract, "_merge", spy)
    return merges


def test_partner_filter_is_exact(monkeypatch):
    """With the filter forced on every merge whose partner is built, and
    with it never taken, Z equals brute force on every grid; forced, some
    merge prunes, and some merge's pruning empties its output."""
    merges = spy_merges(monkeypatch)
    grids = prune_corpus()
    sqrt2 = one_zero = two_zero = emptied = pruned = 0
    for i, g in enumerate(grids):
        want = brute_force_eval(g).value
        for force in (True, False):
            monkeypatch.setattr(contract, "_prune_pays", lambda *args: force)
            merges.clear()
            res = contract_eval(g)
            assert res.value == want, (i, force)
            assert res.stats["pruned_merges"] == sum(how == "pruned" for how, _ in merges)
            if force:
                pruned += res.stats["pruned_merges"]
                emptied += any(how == "pruned" and not size for how, size in merges)
            else:
                assert res.stats["pruned_merges"] == 0
        sqrt2 += any(x.coords[2] or x.coords[3] for s in g.vertices.values() for x in s.values)
        # a six-vertex table is zero off the six inputs of weight 2
        zeros = {
            sum(not x for x in s.values)
            for s in g.vertices.values()
            if not any(x for k, x in enumerate(s.values) if k.bit_count() != 2)
        }
        one_zero += 11 in zeros
        two_zero += 12 in zeros
    assert len(grids) >= 180
    assert sqrt2 and one_zero and two_zero
    assert pruned and emptied


@pytest.mark.parametrize(
    "weights",
    [("1/2", "1/2", "3", "3", "0", "2"), ("0", "2", "3", "0", "1/2", "3/2")],
    ids=["one-zero", "two-zero"],
)
def test_partner_filter_on_zero_weight_tori(monkeypatch, weights):
    """4x4 tori against the transfer matrix, and 6x6 tori under the greedy
    and the sequential plan against the run that never prunes, with the
    filter forced on and off."""
    from sixvertex.evaluate import torus_transfer_matrix_value

    p = SV(*map(parse_scalar, weights))
    t4, t6 = build_torus(4, p), build_torus(6, p)
    plans = (plan_contraction(t6), sequential_plan(t6))
    monkeypatch.setattr(contract, "_prune_pays", lambda *args: False)
    want6 = [contract_eval(t6, plan=plan).value for plan in plans]
    assert want6[0] == want6[1] != 0
    pruned = 0
    for force in (True, False):
        monkeypatch.setattr(contract, "_prune_pays", lambda *args: force)
        res = contract_eval(t4)
        assert res.value == torus_transfer_matrix_value(4, p), force
        pruned += res.stats["pruned_merges"]
        for plan, want in zip(plans, want6):
            res = contract_eval(t6, plan=plan)
            assert res.value == want, force
            pruned += res.stats["pruned_merges"]
    assert pruned


def test_pruned_merges_counts_the_partner_filter():
    """Under the measured gate the filter prunes the one-zero 12x12 torus's
    sparse merges and never an ice torus's merge; the row path and the
    peak rank are as they were without it."""
    p = SV(*map(parse_scalar, ("1/2", "1/2", "3", "3", "0", "2")))
    assert contract_eval(build_torus(12, p)).stats["pruned_merges"] > 0
    assert contract_eval(build_torus(8, ICE)).stats == {
        "peak_rank": 16, "packed_merges": 13, "pruned_merges": 0, "max_width": 0,
    }
    assert contract_eval(SignatureGrid({}, ())).stats["pruned_merges"] == 0


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
    assert res.stats["packed_merges"] == 22
    assert res.stats["pruned_merges"] == 0


def test_packed_merges_counts_the_row_path(monkeypatch):
    """Rational and Z[zeta8] merges both take the row path where the gate
    says it pays, and packed_merges counts them; the small merges of a 4x4
    torus do not pay, and with the gate shut no merge packs."""
    assert contract_eval(build_torus(8, ICE)).stats["packed_merges"] > 0
    r2 = SV(*map(parse_scalar, ("(1)r2", "1", "2", "1", "1", "1")))
    assert contract_eval(build_torus(6, r2)).stats["packed_merges"] > 0
    assert contract_eval(build_torus(4, r2)).stats["packed_merges"] == 0
    monkeypatch.setattr(contract, "_row_path_pays", lambda *sizes: False)
    assert contract_eval(build_torus(6, r2)).stats["packed_merges"] == 0


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


def heap_reference(grid, seen=None):
    """The greedy planner with a heap entry for every pair of live tensors,
    adjacent or not, O(V^2 log V); plan_contraction must return its plans.
    seen, if given, counts the steps whose pair shares no edge ("apart")
    and those where another live pair has the same rank, so the tie-break
    on (lo, hi) decides ("tie")."""
    masks = list(contract._open_masks(grid).items())
    keys = [frozenset((v,)) for v, _ in masks]
    low = [v for v, _ in masks]
    live = {t: m for t, (_, m) in enumerate(masks)}
    peak = max((m.bit_count() for m in live.values()), default=0)
    heap = [
        ((ma ^ mb).bit_count(), *sorted((low[a], low[b])), a, b)
        for (a, ma), (b, mb) in combinations(live.items(), 2)
    ]
    heapify(heap)
    steps = []
    while len(live) > 1:
        rank, _, _, a, b = heappop(heap)
        if a not in live or b not in live:
            continue
        if seen is not None:
            seen["apart"] += not live[a] & live[b]
            while heap and (heap[0][3] not in live or heap[0][4] not in live):
                heappop(heap)
            seen["tie"] += bool(heap) and heap[0][0] == rank
        merged = live.pop(a) ^ live.pop(b)
        steps.append((keys[a], keys[b]))
        new = len(keys)
        keys.append(keys[a] | keys[b])
        low.append(min(low[a], low[b]))
        peak = max(peak, rank)
        for t, m in live.items():
            heappush(heap, ((m ^ merged).bit_count(), *sorted((low[t], low[new])), t, new))
        live[new] = merged
    return ContractionPlan(tuple(steps), peak)


def relabelled(grid, rng):
    """grid with its vertices renamed at random and inserted in shuffled
    order."""
    labels = dict(zip(grid.vertices, rng.sample(range(-5000, 5000), len(grid.vertices))))
    order = list(grid.vertices)
    rng.shuffle(order)
    return SignatureGrid(
        {labels[v]: grid.vertices[v] for v in order},
        tuple(
            (Port(labels[p.vertex], p.slot), Port(labels[q.vertex], q.slot))
            for p, q in grid.edges
        ),
    ).assert_valid()


def disjoint_union(parts):
    """The grids side by side, part i's vertex v renamed v + 10000 * i."""
    return SignatureGrid(
        {v + 10000 * i: s for i, g in enumerate(parts) for v, s in g.vertices.items()},
        tuple(
            (Port(p.vertex + 10000 * i, p.slot), Port(q.vertex + 10000 * i, q.slot))
            for i, g in enumerate(parts)
            for p, q in g.edges
        ),
    ).assert_valid()


def test_plan_matches_the_all_pairs_heap():
    """plan_contraction keeps only adjacent pairs in its heap, and returns
    the plans of the all-pairs heap on tori, relabelled tori, relabelled
    multigraphs and disconnected grids with closed tensors; the corpus has
    steps that merge a pair sharing no edge and steps the tie-break
    decides."""
    sig = from_six_vertex(ICE)
    loop_only = SignatureGrid({0: sig}, ((Port(0, 0), Port(0, 2)), (Port(0, 1), Port(0, 3))))
    shapes = [(8, 8), (7, 7), (6, 10), (12, 12), (6, 24), (10, 10), (5, 20)]
    grids = [rectangular_torus(w, length) for w, length in shapes]
    for n in (8, 10, 12, 14, 16):
        for seed in range(3):
            grids.append(relabelled(build_torus(n, ICE), random.Random(f"torus/{n}/{seed}")))
    rng = random.Random(28)
    grids += [relabelled_multigraph(rng, rng.randint(1, 30)) for _ in range(80)]
    for _ in range(20):
        parts = [relabelled_multigraph(rng, rng.randint(1, 8)) for _ in range(rng.randint(1, 3))]
        parts += [loop_only] * rng.randint(1, 2)
        rng.shuffle(parts)
        grids.append(disjoint_union(parts))
    seen = Counter()
    for i, g in enumerate(grids):
        assert plan_contraction(g) == heap_reference(g, seen), i
    assert seen["apart"] and seen["tie"]


def test_heap_receives_a_few_entries_per_edge(monkeypatch):
    """On the 32x32 torus the heap gets at most 4 entries per edge, counting
    the initial heap; the all-pairs heap got V^2/2, about 520,000."""
    g = build_torus(32, ICE)
    entries = []
    monkeypatch.setattr(contract, "heapify", lambda h: (entries.extend(h), heapify(h)))
    monkeypatch.setattr(contract, "heappush", lambda h, x: (entries.append(x), heappush(h, x)))
    plan = plan_contraction(g)
    assert plan.peak_rank == 64 and len(plan.steps) == 32 * 32 - 1
    assert len(entries) <= 4 * len(g.edges)


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
