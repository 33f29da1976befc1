"""Tests of the benchmark itself: its oracles, its checks and its output.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import sixvertex  # noqa: E402
import sixvertex.acceptance  # noqa: E402
import sixvertex.solvers  # noqa: E402
from sixvertex.evaluate import brute_force_eval, torus_transfer_matrix_value  # noqa: E402

import oracle as O  # noqa: E402
import workloads as WL  # noqa: E402

W = O.weight
POOL = (
    W(0), W(1), W(-1), W(2), W(0, 1), W("1/2"), W(1, 0, 1), W(0, 0, 1),
    W("1/3", 0, 0, "-2/5"), W(2, 1),
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def program_value(grid):
    return WL.as_fractions(sixvertex.solvers.solve(grid, method="contract").value)


def grid_of(weights, vertices, edges):
    return WL.build_grid(sixvertex, WL.Instance("t", tuple(weights), vertices, edges))


def test_ice_2x2_torus_has_18_orientations():
    assert O.torus_tm(2, 2, WL.ICE) == (18, 0, 0, 0)


def test_transfer_matrix_matches_program_oracle_up_to_n4():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            ws = [rng.choice(POOL) for _ in range(6)]
            params = WL.program_params(sixvertex, ws)
            want = WL.as_fractions(torus_transfer_matrix_value(n, params))
            assert O.torus_tm(n, n, ws) == want, (n, ws)


def test_transfer_matrix_matches_contraction_on_rectangles():
    rng = random.Random(8)
    for w, L in ((2, 3), (3, 2), (2, 5), (4, 3)):
        ws = [rng.choice(POOL) for _ in range(6)]
        assert O.torus_tm(w, L, ws) == program_value(
            grid_of(ws, w * L, O.torus_edges(w, L))
        ), (w, L, ws)


def test_closed_forms_match_transfer_matrix():
    rng = random.Random(9)
    for w, L in ((2, 2), (2, 3), (3, 4), (4, 2), (4, 6)):
        ws = [rng.choice(POOL[1:]) for _ in range(6)]
        zp = ws[:4] + [W(0), W(0)]
        assert O.torus_closed_form(w, L, zp) == O.torus_tm(w, L, zp), (w, L, zp)
        pinned = []
        for k in range(3):
            u = rng.choice(POOL[1:])
            pinned += [u, W(0)] if rng.random() < 0.5 else [W(0), u]
        assert O.torus_closed_form(w, L, pinned) == O.torus_tm(w, L, pinned)
    assert O.torus_closed_form(3, 3, WL.ICE) is None
    # the P tuple (2,1,2,1,0,0) on an n x n torus: (2^n + 1)^n * 2^n
    for n in (2, 5, 16):
        want = (2**n + 1) ** n * 2**n
        assert O.torus_closed_form(n, n, [W(2), W(1), W(2), W(1), W(0), W(0)])[0] == want


def test_strand_cycles_match_brute_force():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(1, 5)
        edges = WL.random_multigraph(rng, n)
        ws = [rng.choice(POOL) for _ in range(6)]
        pair = rng.randrange(3)
        ws[2 * pair] = ws[2 * pair + 1] = W(0)
        want = WL.as_fractions(brute_force_eval(grid_of(ws, n, edges)).value)
        assert O.strand_cycles(n, edges, ws) == want, (edges, ws)
    for _ in range(15):
        n = rng.randint(1, 5)
        edges = WL.random_ns_ew_multigraph(rng, n)
        ws = WL.m_tuple(rng)
        want = WL.as_fractions(brute_force_eval(grid_of(ws, n, edges)).value)
        assert O.strand_cycles(n, edges, ws) == want, (edges, ws)
    with pytest.raises(ValueError):
        O.strand_cycles(1, WL.random_multigraph(rng, 1), WL.ICE)


def test_reversal_leaves_z_unchanged():
    # reversing every arrow: (a, x, b, y, c, z) -> (x, a, y, b, z, c)
    rng = random.Random(11)
    for w, L in ((3, 4), (5, 2)):
        a, x, b, y, c, z = (rng.choice(POOL) for _ in range(6))
        assert O.torus_tm(w, L, (a, x, b, y, c, z)) == O.torus_tm(w, L, (x, a, y, b, z, c))


def _perturbed(wl):
    """wl.check() on its recorded values, then with one value off by one."""
    wl.setup()
    wl.round(lambda fn, *args, **kwargs: fn(*args, **kwargs))
    before = wl.check()
    inst = wl.instances[-1]
    inst.values[0] = inst.values[0] + 1
    return before, wl.check()


def test_hard_check_rejects_a_value_off_by_one():
    wl = WL.HardContract(sixvertex, 3)
    wl.instances = [
        WL.torus("ice-4x4", 4, 4, WL.ICE),
        WL.torus("sqrt2-3x5", 3, 5, WL.sqrt2_tuple(random.Random(3))),
    ]
    assert _perturbed(wl) == (True, False)
    assert (wl.attempted, wl.failed) == (4, 2)


def test_tractable_check_rejects_a_value_off_by_one():
    wl = WL.TractableSolve(sixvertex, 3)
    rng = random.Random(3)
    wl.instances = [
        WL.torus("P-6x6", 6, 6, WL.product_tuple(rng, 2), expect_class="P"),
        WL.Instance("A-random-20", WL.affine_tuple(rng, 1), 20,
                    WL.random_multigraph(rng, 20), expect_class="A"),
    ]
    assert _perturbed(wl) == (True, False)


def test_selftest_check_rejects_a_failed_criterion():
    wl = WL.Selftest(sixvertex, 0)
    ok = [
        sixvertex.acceptance.CriterionResult(i, "c", True, "", 0.0) for i in range(1, 10)
    ]
    wl.results = [ok]
    assert wl.check()
    wl.results = [ok[:-1] + [sixvertex.acceptance.CriterionResult(9, "c", False, "", 0.0)]]
    assert not wl.check()


def test_clock_rescales_to_the_reference_speed(monkeypatch):
    import pace

    # the yardstick reads twice its reference time: the machine runs at half speed
    monkeypatch.setattr(pace, "per_unit", lambda budget: 2 * pace.UNIT_S)
    clock = pace.Clock()
    assert clock(sum, [1, 2], start=3) == 6
    assert len(clock.raw) == len(clock.scaled) == 1
    assert clock.scaled[0] == pytest.approx(clock.raw[0] / 2)


def test_traced_run_refuses_a_name_it_cannot_bind(monkeypatch, capsys):
    import bench
    import tracer

    spans = dict(tracer.SPANS, **{"solvers.gone": [("sixvertex.solvers", "no_such_name")]})
    monkeypatch.setattr(tracer, "SPANS", spans)
    argv = ["--workload", "hard-contract", "--seed", "1", "--seconds", "1", "--trace", "1"]
    assert bench.main(argv + ["--t0", "0"]) == 1
    out, err = capsys.readouterr()
    assert "sixvertex.solvers.no_such_name" in err
    assert '"metrics"' not in out


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_line_names_every_metric(trace, section):
    proc = _run(
        ROOT, "--workload", "hard-contract", "--seed", "5", "--seconds", "1", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 * result["failed"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__")
    )
    proc = _run(tmp_path, "--workload", "selftest", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
