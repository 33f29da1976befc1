import random
from math import comb

import pytest

from sixvertex.evaluate import (
    TooLargeError,
    brute_force_eval,
    torus_transfer_matrix_value,
)
from sixvertex.grid import GridError, Port, SignatureGrid, build_torus
from sixvertex.sampling import (
    random_a_params,
    random_grid,
    random_m_params,
    random_p_params,
)
from sixvertex.scalar import Scalar, ZERO
from sixvertex.signature import SixVertexParams, from_six_vertex
from sixvertex.solvers import (
    MixedChiralityError,
    SolverError,
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


class TestSolveA:
    def test_spec_examples(self):
        assert solve_A(loop_grid(SV(1, 1, 1, 1, 0, 0), ((0, 2), (1, 3)))) == Scalar(4)
        assert solve_A(loop_grid(SV(1, 1, 1, 1, 0, 0), ((0, 1), (2, 3)))) == Scalar(2)

    def test_contradictory_system_returns_zero(self):
        # single pair support forces x1 != x2 patterns; wire against them
        grid = loop_grid(SV(0, 0, 1, 1, 0, 0), ((0, 1), (2, 3)))
        brute = brute_force_eval(grid).value
        assert solve_A(grid) == brute

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
