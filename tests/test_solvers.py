import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from sixvertex.classify import in_A, in_P
from sixvertex.evaluate import (
    TooLargeError,
    brute_force_eval,
    torus_transfer_matrix_value,
)
from sixvertex.grid import GridError, Port, SignatureGrid, build_torus
from sixvertex.sampling import (
    NONZERO_POOL,
    SCALAR_POOL,
    random_a_params,
    random_grid,
    random_m_params,
    random_p_params,
)
from sixvertex.scalar import I, Scalar, ZERO
from sixvertex.signature import Signature, SixVertexParams, bit_of, from_six_vertex
from sixvertex.solvers import (
    MixedChiralityError,
    SolverError,
    _parity_checks,
    solve,
    solve_A,
    solve_M,
    solve_P,
)

SV = SixVertexParams.of


def loop_grid(params, pairing):
    sig = from_six_vertex(params)
    return SignatureGrid(
        {0: sig}, tuple((Port(0, a), Port(0, b)) for a, b in pairing)
    )


def components(nodes, links):
    """The number of connected components of a small multigraph."""
    label = {u: u for u in nodes}
    for _ in label:
        for a, b in links:
            label[a] = label[b] = min(label[a], label[b])
    return len(set(label.values()))


def unary_product(rng):
    """A tensor product of four unaries, each with a nonzero value and some
    with a zero: in P, with single-string factors."""
    parts = []
    for _ in range(4):
        part = [rng.choice(SCALAR_POOL), rng.choice(NONZERO_POOL)]
        rng.shuffle(part)
        parts.append(part)
    values = []
    for idx in range(16):
        prod = Scalar(1)
        for pos in range(4):
            prod = prod * parts[pos][bit_of(idx, pos, 4)]
        values.append(prod)
    return Signature(4, values)


def m_signature(rng, extra_zero):
    """One zero in each pair, at random, so both pin values occur at every
    slot; each other value is an extra zero with probability extra_zero."""
    vals = []
    for _ in range(3):
        u = ZERO if rng.random() < extra_zero else rng.choice(NONZERO_POOL)
        vals.extend((u, ZERO) if rng.random() < 0.5 else (ZERO, u))
    return from_six_vertex(SixVertexParams(*vals))


def pin_of(f):
    """The first slot every support string of f shares, with its bit."""
    s0 = f.support()[0]
    slot = next(
        k for k in range(4)
        if all(bit_of(s, k, 4) == bit_of(s0, k, 4) for s in f.support())
    )
    return slot, bit_of(s0, slot, 4)


def pins_joined_grid(rng, sigs):
    """A random grid whose only edges between vertices of opposite pin
    values join two pins. With one pin value every residual vertex of
    solve_M has two open ports, so a residual of degree 3 needs pins of both
    values, joined to each other."""
    pins = {v: pin_of(f) for v, f in sigs.items()}
    by_val = [[v for v in sigs if pins[v][1] == b] for b in (0, 1)]
    m = min(map(len, by_val)) // 2 * 2  # an even number keeps each side even
    edges = [
        (Port(a, pins[a][0]), Port(b, pins[b][0]))
        for a, b in zip(by_val[0][:m], by_val[1][:m])
    ]
    for side in by_val:
        ports = [
            Port(v, k) for j, v in enumerate(side) for k in range(4)
            if j >= m or k != pins[v][0]
        ]
        rng.shuffle(ports)
        edges += zip(ports[::2], ports[1::2])
    return SignatureGrid(sigs, tuple(edges))


def open_ports_after_propagation(grid):
    """The ports whose bit arc consistency over the vertices' supports leaves
    open, or None when it empties a support. For signatures with three
    support strings (a pin, and a token on one of the other slots) this is
    solve_M's propagation, and the open ports are its residual's."""
    partner = {}
    for p, q in grid.edges:
        partner[p], partner[q] = q, p
    known = {}
    changed = True
    while changed:
        changed = False
        for v, f in grid.vertices.items():
            fits = [
                s for s in f.support()
                if all(known.get(Port(v, k), bit_of(s, k, 4)) == bit_of(s, k, 4)
                       for k in range(4))
            ]
            if not fits:
                return None
            for k in range(4):
                p, b = Port(v, k), bit_of(fits[0], k, 4)
                if p not in known and all(bit_of(s, k, 4) == b for s in fits):
                    if known.get(partner[p], 1 - b) != 1 - b:
                        return None
                    known[p], known[partner[p]] = b, 1 - b
                    changed = True
    return set(partner) - set(known)


class TestSolveP:
    def test_spec_examples(self):
        assert solve_P(loop_grid(SV(2, 3, 0, 0, 0, 0), ((0, 2), (1, 3)))) == Scalar(5)
        assert solve_P(loop_grid(SV(2, 3, 0, 0, 0, 0), ((0, 1), (2, 3)))) == ZERO

    def test_zero_vertex(self):
        assert solve_P(loop_grid(SV(0, 0, 0, 0, 0, 0), ((0, 2), (1, 3)))) == ZERO

    def test_rejects_non_member(self):
        with pytest.raises(SolverError):
            solve_P(loop_grid(SV(1, 1, 1, 1, 1, 1), ((0, 2), (1, 3))))

    def test_randomized(self):
        rng = random.Random(41)
        for _ in range(60):
            grid = random_grid(
                rng, rng.randint(1, 6), from_six_vertex(random_p_params(rng))
            )
            assert solve_P(grid) == brute_force_eval(grid).value

    def test_mixed_signatures(self):
        rng = random.Random(42)
        for _ in range(25):
            n = rng.randint(2, 5)
            sigs = {v: from_six_vertex(random_p_params(rng)) for v in range(n)}
            grid = random_grid(rng, n, signatures=sigs)
            assert solve_P(grid) == brute_force_eval(grid).value

    def test_several_components_with_single_string_blocks(self):
        """Grids whose blocks fall into several components, some of the
        blocks with a single string, against brute force."""
        rng = random.Random(43)
        reached = Counter()
        for _ in range(120):
            n = rng.randint(1, 6)
            sigs = {
                v: unary_product(rng) if rng.random() < 0.5
                else from_six_vertex(random_p_params(rng))
                for v in range(n)
            }
            grid = random_grid(rng, n, signatures=sigs)
            want = brute_force_eval(grid).value
            assert solve_P(grid) == want
            if any(f.is_zero() for f in sigs.values()):
                continue
            block = {}
            for v, f in sigs.items():
                for i, factor in enumerate(in_P(f).factors):
                    for pos in factor.var_positions:
                        block[Port(v, pos)] = (v, i, len(factor.strings))
            links = [(block[p], block[q]) for p, q in grid.edges]
            if components(set(block.values()), links) >= 2 and any(
                b[2] == 1 for b in block.values()
            ):
                reached["zero" if want == ZERO else "nonzero"] += 1
        assert reached["zero"] and reached["nonzero"]


class TestSolveA:
    def test_spec_examples(self):
        assert solve_A(loop_grid(SV(1, 1, 1, 1, 0, 0), ((0, 2), (1, 3)))) == Scalar(4)
        assert solve_A(loop_grid(SV(1, 1, 1, 1, 0, 0), ((0, 1), (2, 3)))) == Scalar(2)

    def test_contradictory_system_returns_zero(self):
        # single pair support forces x1 != x2 patterns; wire against them
        grid = loop_grid(SV(0, 0, 1, 1, 0, 0), ((0, 1), (2, 3)))
        brute = brute_force_eval(grid).value
        assert solve_A(grid) == brute

    def test_parity_checks_match_a_support_scan(self):
        """The checks read off an in_A certificate are, in mask order, the
        masks whose parity is constant on the support: for every member over
        {0, +-1, +-i}^6 and for every affine support in {0,1}^4."""
        sigs = [
            from_six_vertex(SixVertexParams(*vals))
            for vals in product((ZERO, Scalar(1), Scalar(-1), I, -I), repeat=6)
        ]
        supports = set()
        for d in range(5):
            for gens in combinations(range(1, 16), d):
                span = {0}
                for g in gens:
                    span |= {x ^ g for x in span}
                supports |= {frozenset(x ^ base for x in span) for base in range(16)}
        assert len(supports) == 307  # the affine subspaces of {0,1}^4
        sigs += [
            Signature(4, [Scalar(int(s in support)) for s in range(16)])
            for support in supports
        ]
        members = 0
        for f in sigs:
            report = in_A(f)
            if not report.member or report.is_zero:
                continue
            members += 1
            want = []
            for mask in range(1, 16):
                dots = {(mask & s).bit_count() & 1 for s in f.support()}
                if len(dots) == 1:
                    want.append(([k for k in range(4) if bit_of(mask, k, 4)], dots.pop()))
            assert _parity_checks(report.certificate) == want
        assert members == 648 + 307

    def test_rejects_non_member(self):
        with pytest.raises(SolverError):
            solve_A(loop_grid(SV(1, 1, 1, 1, 1, 1), ((0, 2), (1, 3))))

    def test_randomized(self):
        rng = random.Random(43)
        for _ in range(60):
            grid = random_grid(
                rng, rng.randint(1, 6), from_six_vertex(random_a_params(rng))
            )
            assert solve_A(grid) == brute_force_eval(grid).value

    def test_mixed_signatures(self):
        rng = random.Random(44)
        for _ in range(25):
            n = rng.randint(2, 5)
            sigs = {v: from_six_vertex(random_a_params(rng)) for v in range(n)}
            grid = random_grid(rng, n, signatures=sigs)
            assert solve_A(grid) == brute_force_eval(grid).value

    def test_vertex_order_invariance(self):
        # the pivot parameterization is order-dependent; the value is not
        rng = random.Random(45)
        p = random_a_params(rng)
        g = random_grid(rng, 4, from_six_vertex(p))
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        g2 = SignatureGrid(
            {relabel[v]: s for v, s in g.vertices.items()},
            tuple(
                (Port(relabel[a.vertex], a.slot), Port(relabel[b.vertex], b.slot))
                for a, b in g.edges
            ),
        )
        assert solve_A(g) == solve_A(g2)
        # each edge's variable reads its first end: swap the ends and reverse
        # the edge order
        g3 = SignatureGrid(g.vertices, tuple((b, a) for a, b in reversed(g.edges)))
        assert solve_A(g) == solve_A(g3)


class TestSolveM:
    def test_spec_examples_all_loop_pairings(self):
        for pairing in (((0, 2), (1, 3)), ((0, 1), (2, 3)), ((0, 3), (1, 2))):
            grid = loop_grid(SV(1, 0, 1, 0, 1, 0), pairing)
            assert solve_M(grid) == brute_force_eval(grid).value

    def test_torus(self):
        t = build_torus(2, SV(1, 0, 1, 0, 1, 0))
        assert solve_M(t) == brute_force_eval(t).value
        t = build_torus(3, SV(0, 1, 0, 1, 0, 1))
        assert solve_M(t) == brute_force_eval(t, edge_cap=18).value

    def test_pin_contradiction_zero(self):
        # support {0011} only: fully pinned; wiring forces a contradiction
        grid = loop_grid(SV(1, 0, 0, 0, 0, 0), ((0, 1), (2, 3)))
        assert solve_M(grid) == ZERO
        assert brute_force_eval(grid).value == ZERO

    def test_rejects_non_member(self):
        with pytest.raises(SolverError):
            solve_M(loop_grid(SV(1, 1, 1, 1, 0, 0), ((0, 2), (1, 3))))

    def test_randomized(self):
        rng = random.Random(46)
        for _ in range(60):
            grid = random_grid(
                rng, rng.randint(1, 6), from_six_vertex(random_m_params(rng))
            )
            assert solve_M(grid) == brute_force_eval(grid).value

    def test_mixed_same_chirality(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(2, 4)
            sigs = {}
            for v in range(n):
                vals = []
                for _pair in range(3):
                    u = rng.choice((Scalar(1), Scalar(2), Scalar(-1)))
                    vals.extend((u, ZERO))
                sigs[v] = from_six_vertex(SixVertexParams(*vals))
            grid = random_grid(rng, n, signatures=sigs)
            assert solve_M(grid) == brute_force_eval(grid).value

    def test_pins_of_both_values_match_brute_force(self):
        """Random 1-6-vertex grids whose signatures mix pin slots and values,
        some with extra zeros, against brute force; a MixedChiralityError is
        counted, not compared. Where every signature has three support
        strings, the residual is read off open_ports_after_propagation: the
        corpus must reach two or more residual cycles, a residual self-loop
        and a residual degree other than 2, as well as a refusal."""
        rng = random.Random(50)
        reached = Counter()
        for i in range(400):
            n = rng.randint(1, 6)
            if i % 2:
                sigs = {v: m_signature(rng, 0.0) for v in range(n)}
                grid = pins_joined_grid(rng, sigs)
            else:
                extra_zero = rng.choice((0.0, 0.2))
                sigs = {v: m_signature(rng, extra_zero) for v in range(n)}
                grid = random_grid(rng, n, signatures=sigs)
            try:
                value = solve_M(grid)
            except MixedChiralityError:
                reached["refusal"] += 1
                continue
            assert value == brute_force_eval(grid).value
            if any(len(f.support()) != 3 for f in sigs.values()):
                continue
            open_ports = open_ports_after_propagation(grid)
            if not open_ports:
                continue
            degree = Counter(p.vertex for p in open_ports)
            if set(degree.values()) != {2}:
                assert value == ZERO
                reached["degree other than 2"] += 1
                continue
            free = [(p, q) for p, q in grid.edges if p in open_ports]
            if any(p.vertex == q.vertex for p, q in free):
                reached["self-loop"] += 1
            if components(degree, [(p.vertex, q.vertex) for p, q in free]) >= 2:
                reached["two or more cycles"] += 1
        assert set(reached) == {
            "refusal", "degree other than 2", "self-loop", "two or more cycles",
        }, reached

    def test_mixed_chirality_raises_and_auto_falls_back(self):
        v_sig = from_six_vertex(SV(1, 0, 1, 0, 1, 0))
        w_sig = from_six_vertex(SV(0, 1, 0, 1, 0, 1))
        grid = SignatureGrid(
            {0: v_sig, 1: w_sig},
            tuple((Port(0, s), Port(1, s)) for s in range(4)),
        )
        with pytest.raises(MixedChiralityError):
            solve_M(grid)
        result = solve(grid)
        assert result.class_used == "brute"
        assert result.value == brute_force_eval(grid).value


class TestDispatch:
    def test_ice_uses_brute(self):
        r = solve(build_torus(2, SV(1, 1, 1, 1, 1, 1)))
        assert r.class_used == "brute" and r.value == Scalar(18)

    def test_class_paths(self):
        assert solve(build_torus(2, SV(2, 3, 0, 0, 0, 0))).class_used == "P"
        assert solve(build_torus(2, SV(1, 0, 1, 0, 1, 0))).class_used == "M"
        assert solve(build_torus(2, SV(0, 0, 1, "0+1i", 0, 0))).class_used == "P"

    def test_a_path(self):
        # in A but not P: ax = -by needs the cross term, breaks the product form
        p = SV(1, 1, 1, -1, 0, 0)
        from sixvertex.classify import in_A, in_P

        f = from_six_vertex(p)
        assert in_A(f).member and not in_P(f).member
        r = solve(build_torus(2, p))
        assert r.class_used == "A"
        assert r.value == brute_force_eval(build_torus(2, p)).value

    @pytest.mark.parametrize(
        "params,label",
        [
            ((1, 1, 1, 1, 0, 0), "P"),
            ((1, 1, 1, -1, 0, 0), "A"),
            ((1, 0, 1, 0, 1, 0), "M"),
            ((1, 1, 1, 1, 1, 1), "refused"),
        ],
    )
    def test_membership_once_per_signature(self, monkeypatch, params, label):
        import sixvertex.solvers as solvers

        calls = {"in_P": 0, "in_A": 0, "_m_pins": 0}
        for name in calls:
            def counted(f, real=getattr(solvers, name), name=name):
                calls[name] += 1
                return real(f)

            monkeypatch.setattr(solvers, name, counted)
        grid = build_torus(6, SV(*params))
        if label == "refused":
            with pytest.raises(TooLargeError):
                solve(grid)
        else:
            assert solve(grid).class_used == label
        want = {
            "in_P": 1,
            "in_A": 0 if label == "P" else 1,
            "_m_pins": 1 if label in ("M", "refused") else 0,
        }
        assert calls == want

    def test_zero_vertex_does_not_make_a_hard_grid_tractable(self):
        zero = from_six_vertex(SV(0, 0, 0, 0, 0, 0))
        ice = from_six_vertex(SV(1, 1, 1, 1, 1, 1))
        small = random_grid(random.Random(3), 2, signatures={0: zero, 1: ice})
        r = solve(small)
        assert r.class_used == "brute" and r.value == ZERO
        torus = build_torus(6, SV(1, 1, 1, 1, 1, 1))
        large = SignatureGrid({**torus.vertices, 0: zero}, torus.edges)
        with pytest.raises(TooLargeError):
            solve(large)

    def test_zero_vertex_among_product_vertices(self):
        torus = build_torus(6, SV(2, 3, 0, 0, 0, 0))
        zero = from_six_vertex(SV(0, 0, 0, 0, 0, 0))
        r = solve(SignatureGrid({**torus.vertices, 7: zero}, torus.edges))
        assert r.class_used == "P" and r.value == ZERO

    def test_auto_matches_the_membership_rule(self):
        """solve(auto) picks what checking every signature first picks: all
        in P, else all in A, else all with a zero in each pair (unless the
        pins are of mixed chirality), else brute force."""
        from sixvertex.classify import in_A, in_P, one_zero_each_pair
        from sixvertex.sampling import random_params
        from sixvertex.signature import six_vertex_params

        def reference(grid):
            sigs = set(grid.vertices.values())
            if all(in_P(f).member for f in sigs):
                return "P"
            if all(in_A(f).member for f in sigs):
                return "A"
            if all(
                (p := six_vertex_params(f)) is not None and one_zero_each_pair(p)
                for f in sigs
            ):
                try:
                    solve_M(grid)
                    return "M"
                except MixedChiralityError:
                    pass
            return "brute"

        kinds = {
            "P": random_p_params,
            "A": random_a_params,
            "M": random_m_params,
            "hard": random_params,
            "zero": lambda rng: SV(0, 0, 0, 0, 0, 0),
        }
        rng = random.Random(61)
        seen = set()
        for _ in range(150):
            mix = rng.sample(sorted(kinds), rng.randint(1, 2))
            n = rng.randint(1, 5)
            sigs = {
                v: from_six_vertex(kinds[rng.choice(mix)](rng)) for v in range(n)
            }
            grid = random_grid(rng, n, signatures=sigs)
            r = solve(grid)
            assert r.class_used == reference(grid), sigs
            assert r.value == brute_force_eval(grid).value
            seen.add(r.class_used)
        assert seen == {"P", "A", "M", "brute"}

    def test_forced_method(self):
        t = build_torus(2, SV(1, 0, 1, 0, 1, 0))
        want = brute_force_eval(t).value
        for method, label in (("brute", "brute"), ("contract", "contract"), ("m", "M")):
            r = solve(t, method=method)
            assert r.class_used == label and r.value == want

    @staticmethod
    def _count_validate(monkeypatch):
        """Spy on validate under every name it is bound to; returns the calls."""
        import sixvertex.contract as contract
        import sixvertex.evaluate as evaluate
        import sixvertex.grid as grid
        import sixvertex.solvers as solvers

        calls = []
        validate = grid.validate

        def counted(g):
            calls.append(g)
            return validate(g)

        for module in (grid, solvers, contract, evaluate):
            monkeypatch.setattr(module, "validate", counted)
        return calls

    def test_validates_the_grid_once(self, monkeypatch):
        """A grid is checked once, when it is built: no evaluator, solver or
        solve method calls validate again, and an invalid grid cannot be
        built at all."""
        import sixvertex.contract as contract
        import sixvertex.evaluate as evaluate
        import sixvertex.solvers as solvers

        calls = self._count_validate(monkeypatch)
        t = build_torus(2, SV(1, 0, 0, 1, 0, 0))  # in P, A and M
        assert calls == [t]
        evaluate.eval_bipartite_equality(t)
        values = [
            brute_force_eval(t).value,
            contract.contract_eval(t).value,
            solve_P(t),
            solve_A(t),
            solve_M(t),
            *(solve(t, method=method).value for method in solvers.METHODS),
        ]
        assert values == [Scalar(4)] * len(values)
        assert calls == [t]
        with pytest.raises(GridError, match="not on any edge"):
            SignatureGrid(t.vertices, t.edges[:-1])

    def test_auto_falls_back_to_brute_force_validating_once(self, monkeypatch):
        """solve(auto) on a hard tuple hands the grid to brute force, and the
        only check of the grid is the one made when it was built."""
        calls = self._count_validate(monkeypatch)
        t = build_torus(2, SV(1, 1, 1, 1, 1, 1))
        r = solve(t)
        assert r.class_used == "brute" and r.value == Scalar(18)
        assert brute_force_eval(t).value == Scalar(18)
        assert calls == [t]

    def test_hard_above_cap_refused(self):
        t = build_torus(4, SV(1, 1, 1, 1, 1, 1))  # 32 edges, hard params
        with pytest.raises(TooLargeError):
            solve(t)

    def test_solver_value_matches_across_classes(self):
        # tuples passing several solvers must agree everywhere
        p = SV(1, 0, 0, 0, 0, 0)  # in P and M
        t = build_torus(2, p)
        want = brute_force_eval(t).value
        assert solve_P(t) == want
        assert solve_M(t) == want


def test_general_affine_signature_grid():
    # equality-4 with an i phase: support {0000, 1111}, not six-vertex
    from sixvertex.signature import Signature

    sig = Signature(4, [Scalar(1)] + [ZERO] * 14 + [Scalar(0, 1)])
    rng = random.Random(48)
    for _ in range(10):
        grid = random_grid(rng, rng.randint(1, 4), sig)
        assert solve_A(grid) == brute_force_eval(grid).value


def test_general_product_signature_grid():
    # tensor product of four unaries is in P at every bipartition
    from sixvertex.signature import Signature

    parts = ((Scalar(1), Scalar(2)), (Scalar(3), ZERO), (Scalar(1), Scalar(1)), (ZERO, Scalar(5)))
    values = []
    for idx in range(16):
        prod = Scalar(1)
        for pos in range(4):
            prod = prod * parts[pos][(idx >> (3 - pos)) & 1]
        values.append(prod)
    sig = Signature(4, values)
    rng = random.Random(49)
    for _ in range(10):
        grid = random_grid(rng, rng.randint(1, 4), sig)
        assert solve_P(grid) == brute_force_eval(grid).value


def two_pair_torus_value(n, a, x, b, y):
    """Z of the n x n torus for (a, x, b, y, 0, 0):
    sum_k C(n, k) (a^(n-k) y^k + b^(n-k) x^k)^n."""
    return sum(
        (a ** (n - k) * y**k + b ** (n - k) * x**k) ** n * comb(n, k)
        for k in range(n + 1)
    )


def test_two_pair_closed_form_matches_transfer_matrix():
    a, x, b, y = Scalar(-2), Scalar(0, 2), Scalar(0, 2), Scalar(2)
    for n in (2, 3, 4):
        assert two_pair_torus_value(n, a, x, b, y) == torus_transfer_matrix_value(
            n, SV(a, x, b, y, 0, 0)
        )


def test_polynomial_scaling_smoke():
    # 12x12 torus (288 edges) must be quick for every class solver, and the
    # 64x64 A torus (8192 edges) too
    import time

    a, x, b, y = Scalar(-2), Scalar(0, 2), Scalar(0, 2), Scalar(2)
    cases = (
        (12, SV(2, 3, 0, 0, 0, 0), solve_P, None),
        (12, SV(1, 1, 1, 1, 0, 0), solve_A, None),
        (12, SV(1, 0, 1, 0, 1, 0), solve_M, None),
        (64, SV(a, x, b, y, 0, 0), solve_A, two_pair_torus_value(64, a, x, b, y)),
    )
    for n, params, solver, want in cases:
        t = build_torus(n, params)
        start = time.time()
        value = solver(t)
        assert time.time() - start < 10.0
        if want is not None:
            assert value == want
