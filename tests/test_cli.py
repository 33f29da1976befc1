import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BASE = [sys.executable, "-m", "sixvertex.cli"]
# a child Python does not see pytest's pythonpath setting
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ),
}


def run_cli(*args):
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=CHILD_ENV
    )


def test_classify_hard_case2():
    r = run_cli("classify", "2", "2", "1", "1", "1", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "hard" and payload["case"] == 2


def test_classify_tractable_m():
    r = run_cli("classify", "1", "0", "1", "0", "1", "0")
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "tractable" and payload["class"] == "M"


def test_classify_zero_params():
    payload = json.loads(run_cli("classify", *["0"] * 6).stdout)
    assert payload["verdict"] == "tractable" and payload["class"] == "P"


def assert_input_error(r):
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("input error:") and "Traceback" not in r.stderr


def test_classify_bad_scalar_exit2():
    # a zero denominator is bad input too, also inside a sqrt2 term
    for bad in ("oops", "1/0", "0/0i", "(1/0)r2"):
        assert_input_error(run_cli("classify", "2", "2", "1", "1", "1", bad))


def test_zero_denominator_in_other_commands_exit2(tmp_path):
    grid = tmp_path / "bad.json"
    grid.write_text(json.dumps({
        "vertices": [
            {"id": 0, "signature": {"six_vertex": ["1", "1", "1", "1", "1", "1/0"]}}
        ],
        "edges": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    }))
    assert_input_error(run_cli("eval", str(grid)))
    assert_input_error(run_cli("gadget", "mnm", "--params", "1", "1", "1", "1", "1", "1/0"))
    values = tmp_path / "values.json"
    values.write_text('["1"]')
    assert_input_error(run_cli(
        "interpolate", "--alpha", "1/0", "--beta", "1", "--m", "1",
        "--phi", "1", "--psi", "1", "--values", str(values),
    ))


def test_torus_eval_round_trip(tmp_path):
    grid = tmp_path / "t2.json"
    r = run_cli("torus", "--n", "2", "--params", *["1"] * 6, "-o", str(grid))
    assert r.returncode == 0
    r = run_cli("eval", str(grid))
    assert r.returncode == 0
    assert "value: 18" in r.stdout
    r = run_cli("--json", "eval", str(grid), "--method", "contract")
    payload = json.loads(r.stdout)
    assert payload["value"] == "18" and payload["class_used"] == "contract"


def test_eval_methods_agree(tmp_path):
    grid = tmp_path / "tm.json"
    run_cli("torus", "--n", "2", "--params", "1", "0", "1", "0", "1", "0", "-o", str(grid))
    values = {}
    for method in ("auto", "brute", "contract", "m"):
        r = run_cli("--json", "eval", str(grid), "--method", method)
        assert r.returncode == 0, r.stderr
        values[method] = json.loads(r.stdout)["value"]
    assert len(set(values.values())) == 1


ONES = {"six_vertex": ["1"] * 6}


@pytest.mark.parametrize(
    "signature, edges, message",
    [
        (ONES, [[[0, 0], [0, 2]], [[0, 1], [5, 3]]],
         "edge 1: unknown vertex 5; port (v0, slot 3) not on any edge"),
        (ONES, [[[0, 0], [0, 2]], [[0, 1], [0, 4]]],
         "edge 1: slot 4 out of range for vertex 0 (arity 4); "
         "port (v0, slot 3) not on any edge"),
        (ONES, [[[0, 0], [0, 1]], [[0, 1], [0, 2]]],
         "port (v0, slot 1) used by edges 0 and 1; port (v0, slot 3) not on any edge"),
        (ONES, [[[0, 0], [0, 2]]],
         "port (v0, slot 1) not on any edge; port (v0, slot 3) not on any edge"),
        ({"arity": 3, "values": ["1"] * 8}, [[[0, 0], [0, 2]]],
         "vertex 0: arity 3, grids need 4"),
        (ONES, [[[0, 0], [0, 2]], [[0, 1], [0, 1.9]]],
         "malformed grid json: slot must be a JSON integer, got 1.9"),
        (ONES, [[[0, 0], [0, 2]], [[0, 1], [0, True]]],
         "malformed grid json: slot must be a JSON integer, got true"),
        (ONES, [[[0, 0], [0, 2]], [[0, 1], [0.5, 3]]],
         "malformed grid json: vertex id must be a JSON integer, got 0.5"),
        (ONES, [[[0, 0], [0, 2], [7, 7]], [[0, 1], [0, 3]]],
         "malformed grid json: edge must be a JSON array of 2 items, "
         "got [[0, 0], [0, 2], [7, 7]]"),
        (ONES, [[[0, 0], [0, 2]], [[0, 1, 9], [0, 3]]],
         "malformed grid json: port must be a JSON array of 2 items, got [0, 1, 9]"),
    ],
    ids=[
        "unknown-vertex", "slot-out-of-range", "port-used-twice", "uncovered-port",
        "arity-3", "float-slot", "bool-slot", "float-vertex", "three-port-edge",
        "three-number-port",
    ],
)
def test_eval_malformed_port_exit2(tmp_path, signature, edges, message):
    """Each defect of a grid file is refused with its own message when the
    grid is built, before any method runs."""
    bad = {"vertices": [{"id": 0, "signature": signature}], "edges": edges}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    r = run_cli("eval", str(path))
    assert r.returncode == 2
    assert r.stderr == f"input error: {message}\n" and r.stdout == ""


@pytest.mark.parametrize(
    "vertex",
    [
        {"id": "x", "signature": ONES},
        {"id": 0, "signature": {"arity": 4, "values": ["1"] * 15}},
        {"id": 0.0, "signature": ONES},
        {"id": 0.5, "signature": ONES},
        {"id": False, "signature": ONES},
    ],
    ids=["non-integer-id", "short-values", "float-id", "fractional-id", "bool-id"],
)
def test_eval_malformed_vertex_exit2(tmp_path, vertex):
    bad = {"vertices": [vertex], "edges": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    r = run_cli("eval", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith("input error: malformed grid json")
    assert "Traceback" not in r.stderr


def test_eval_cap_exit1(tmp_path):
    grid = tmp_path / "t4.json"
    run_cli("torus", "--n", "4", "--params", *["1"] * 6, "-o", str(grid))
    r = run_cli("--cap-edges", "8", "eval", str(grid))
    assert r.returncode == 1
    r = run_cli("--cap-rank", "4", "eval", str(grid), "--method", "contract")
    assert r.returncode == 1


def test_ice_small():
    r = run_cli("--json", "ice", "--n-max", "4")
    assert r.returncode == 0
    rows = json.loads(r.stdout)["rows"]
    assert [row["n"] for row in rows] == [2, 4]
    assert rows[1]["Z"] == "2970"


def test_ice_refusal_keeps_the_rows_before_it():
    # the greedy plan peaks at rank 12 on the 6x6 torus
    r = run_cli("--cap-rank", "10", "ice", "--n-max", "8")
    assert r.returncode == 1
    assert [line.split(":")[0] for line in r.stdout.splitlines()] == ["n=2", "n=4"]
    assert "needs rank 12 > cap 10" in r.stderr


def test_ice_prints_each_row_as_it_is_done():
    # a pipe is block-buffered unless the environment says otherwise
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        BASE + ["ice", "--n-max", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        lines = [proc.stdout.readline() for _ in range(4)]
        # unflushed rows would arrive only as the process exits; the 10x10
        # torus takes seconds more
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(timeout=1)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        watchdog.cancel()
    assert [line.split(":")[0] for line in lines] == ["n=2", "n=4", "n=6", "n=8"]

def test_ice_zero_rows():
    for n_max in ("0", "1"):
        r = run_cli("ice", "--n-max", n_max)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.strip() == "input error: --n-max must be >= 2"


def test_gadget_commands():
    r = run_cli("gadget", "chain", "--params", "1", "1", "2", "2", "3", "3", "--s", "2")
    assert r.returncode == 0 and "equal: True" in r.stdout
    r = run_cli("--json", "gadget", "mnm", "--params", *["1"] * 6)
    assert json.loads(r.stdout)["result"] == ["1", "1", "2", "2", "2", "2"]
    r = run_cli("--json", "gadget", "two-zero", "--params", "2", "3", "1", "0", "0", "5")
    assert json.loads(r.stdout)["result"] == ["6", "6", "1", "25", "5", "5"]
    r = run_cli("--json", "gadget", "one-zero", "--params", "1", "1", "0", "1", "1", "1")
    payload = json.loads(r.stdout)
    assert payload["branch"] == "product1"
    r = run_cli("gadget", "det27")
    assert "all_nonzero: True" in r.stdout
    r = run_cli("gadget", "chain", "--params", "1", "2", "3", "3", "4", "4", "--s", "2")
    assert r.returncode == 2  # not a twin


def test_gadget_chain_length_cap():
    from sixvertex.gadgets import MAX_CHAIN_LENGTH

    twin = ("--params", "1", "1", "2", "2", "3", "3")
    t0 = time.perf_counter()
    r = run_cli("gadget", "chain", *twin, "--s", "100000")
    assert time.perf_counter() - t0 < 10
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.strip() == (
        f"refused: chain length 100000 exceeds the cap {MAX_CHAIN_LENGTH}"
    )
    r = run_cli("gadget", "chain", *twin, "--s", str(MAX_CHAIN_LENGTH + 1))
    assert r.returncode == 1
    r = run_cli("gadget", "chain", *twin, "--s", "0")
    assert r.returncode == 2 and "input error" in r.stderr


def test_torus_side_cap_refuses_before_building(tmp_path):
    from sixvertex.cli import MAX_TORUS_N

    out = tmp_path / "big.json"
    for n in ("100000", str(MAX_TORUS_N + 1)):
        r = subprocess.run(
            BASE + ["torus", "--n", n, "--params", *["1"] * 6, "-o", str(out)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=30,
        )
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == f"refused: torus side {n} exceeds the cap {MAX_TORUS_N}\n"
        assert not out.exists()


def test_interpolate_command(tmp_path):
    from fractions import Fraction as Q

    from sixvertex.interpolate import make_observations
    from sixvertex.scalar import Scalar, format_scalar

    alpha, beta = Scalar(2), Scalar(Q(1, 2))
    x = {(0, 0): Scalar(4), (1, 0): Scalar(1), (0, 1): Scalar(2)}
    obs = make_observations(alpha, beta, 1, x)
    values = tmp_path / "vals.json"
    values.write_text(json.dumps([format_scalar(v) for v in obs]))
    r = run_cli(
        "--json",
        "interpolate",
        "--alpha", "2", "--beta", "1/2", "--m", "1",
        "--phi", "3", "--psi", "1/3",
        "--values", str(values),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    # 4 + 3*1 + (1/3)*2 = 23/3
    assert payload["value"] == "23/3"
    assert payload["lattice"] == {"rank": 1, "generator": [1, 1]}
    r = run_cli(
        "interpolate", "--alpha", "0+(1)r2", "--beta", "2", "--m", "1",
        "--phi", "1", "--psi", "1", "--values", str(values),
    )
    assert r.returncode == 2  # sqrt2 outside Q(i)


def test_interpolate_computes_the_lattice_once(tmp_path, monkeypatch, capsys):
    import sixvertex.interpolate
    from sixvertex.cli import main

    calls = []
    valuations = sixvertex.interpolate._valuations

    def counted(alpha, beta):
        calls.append((alpha, beta))
        return valuations(alpha, beta)

    monkeypatch.setattr(sixvertex.interpolate, "_valuations", counted)
    values = tmp_path / "vals.json"
    values.write_text(json.dumps(["7", "17/2", "49/4"]))
    code = main([
        "interpolate", "--alpha", "2", "--beta", "1/2", "--m", "1",
        "--phi", "3", "--psi", "1/3", "--values", str(values),
    ])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "23/3" in out  # the value test_interpolate_command asserts
    assert len(calls) == 1  # alpha and beta, over one coprime base, once


def test_interpolate_lattice_of_a_49_digit_alpha(tmp_path):
    # alpha is a product of two 25-digit primes: factoring its norm is out
    # of reach, the coprime base needs a few Gaussian gcds
    alpha = "3607234252852946013748600651269289747421407597859"
    values = tmp_path / "vals.json"
    values.write_text(json.dumps(["1", "1", "1"]))
    r = subprocess.run(
        BASE + ["--json", "interpolate", "--alpha", alpha, "--beta", "1/2",
                "--m", "1", "--phi", "1", "--psi", "1", "--values", str(values)],
        capture_output=True, text=True, env=CHILD_ENV, timeout=30,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["lattice"] == {"rank": 0, "generator": None}


def test_import_leaves_sympy_and_mpmath_unloaded():
    code = (
        "import sys, sixvertex.cli; "
        "assert not {'sympy', 'mpmath'} & set(sys.modules), sys.modules.keys()"
    )
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV
    )
    assert r.returncode == 0, r.stderr


def test_value_report_past_and_below_the_double_range():
    from fractions import Fraction

    from sixvertex.cli import _value_report
    from sixvertex.scalar import Scalar

    huge, tiny = Fraction(2) ** 1100, Fraction(1, 2**1100)
    for value, re, im in [
        (Scalar(huge, -huge), math.inf, -math.inf),
        (Scalar(tiny, -tiny), 0.0, -0.0),
        (Scalar(0), 0.0, 0.0),
        (Scalar(-tiny, 0, tiny), 0.0, 0.0),  # rounds to 2^-1100 * (sqrt2 - 1)
    ]:
        approx = _value_report(value, 64)["approx"]
        got = (approx["re"], approx["im"])
        assert got == (re, im)
        signs = [math.copysign(1, x) for x in got]
        assert signs == [math.copysign(1, re), math.copysign(1, im)]
    assert json.dumps(_value_report(Scalar(-huge), 64)["approx"]) == (
        '{"re": -Infinity, "im": 0.0}'
    )


def test_torus_output_to_missing_directory_exit2(tmp_path):
    out = tmp_path / "missing" / "x.json"
    r = run_cli("torus", "--n", "3", "--params", *["1"] * 6, "-o", str(out))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("input error:")
    assert not out.exists()


def test_interpolate_negative_m_exit2(tmp_path):
    for values in ([], ["1", "2", "3"]):
        path = tmp_path / "vals.json"
        path.write_text(json.dumps(values))
        r = run_cli(
            "interpolate", "--alpha", "2", "--beta", "1/2", "--m", "-1",
            "--phi", "1", "--psi", "1", "--values", str(path),
        )
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.strip() == "input error: m must be >= 0"


def test_selftest_subset():
    r = run_cli("selftest", "--criteria", "9")
    assert r.returncode == 0
    assert "[PASS] criterion 9" in r.stdout


@pytest.mark.parametrize("criteria", ["x", "1,x", "99", "0", "9,10"])
def test_selftest_bad_criteria_exit2(criteria):
    r = run_cli("selftest", "--criteria", criteria)
    assert r.returncode == 2
    assert r.stderr.startswith("input error: --criteria")
    assert r.stdout == ""


@pytest.mark.parametrize(
    "flag, value",
    [("--cap-edges", "0"), ("--cap-rank", "-1"), ("--precision", "8")],
)
def test_bad_global_flag_exit2(flag, value):
    r = run_cli(flag, value, "classify", *["1"] * 6)
    assert r.returncode == 2
    assert r.stderr.startswith("input error:")
    assert flag in r.stderr
    assert r.stdout == ""


def _file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _grid_file(tmp_path, signature):
    return _file(tmp_path, json.dumps({
        "vertices": [{"id": 0, "signature": signature}],
        "edges": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    }))


def test_precision_ceiling_refuses_at_once(tmp_path):
    """A huge --precision is refused before approx_complex runs at that many
    bits."""
    grid = _grid_file(tmp_path, {"six_vertex": ["1"] * 6})
    r = subprocess.run(
        BASE + ["--precision", "1000000000", "eval", grid],
        capture_output=True, text=True, env=CHILD_ENV, timeout=30,
    )
    assert r.returncode == 2
    assert r.stderr == "input error: --precision must be <= 65536\n"
    assert r.stdout == ""
    r = run_cli("--precision", "65536", "eval", grid)
    assert r.returncode == 0, r.stderr
    assert "value: 4" in r.stdout


def _duplicate_vertex_grid(tmp_path):
    # vertex 0 twice, ice then all-2 weights: the second must not silently
    # replace the first
    return _file(tmp_path, json.dumps({
        "vertices": [
            {"id": 0, "signature": {"six_vertex": ["1"] * 6}},
            {"id": 0, "signature": {"six_vertex": ["2"] * 6}},
        ],
        "edges": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
    }))


def _ice_torus_2x2(tmp_path):
    from sixvertex.grid import build_torus, grid_to_json
    from sixvertex.signature import SixVertexParams

    ice = SixVertexParams.of(1, 1, 1, 1, 1, 1)
    return _file(tmp_path, json.dumps(grid_to_json(build_torus(2, ice))))


def _interpolate(tmp_path, alpha, values):
    return [
        "interpolate", "--alpha", alpha, "--beta", "1", "--m", "1",
        "--phi", "1", "--psi", "1", "--values", _file(tmp_path, values),
    ]


# one real command per class in the CLI's input-error table, with a piece of
# the message that class gives
@pytest.mark.parametrize(
    "make_args, message",
    [
        (lambda tmp: ["eval", str(tmp / "missing.json")], "No such file"),
        (lambda tmp: ["eval", _file(tmp, "not json")], "Expecting value"),
        (lambda tmp: ["torus", "--n", "1", "--params", *["1"] * 6], "torus needs n >= 2"),
        (lambda tmp: ["eval", _ice_torus_2x2(tmp), "--method", "p"],
         "is not in the product class"),
        (lambda tmp: ["gadget", "one-zero", "--params", *["1"] * 6], "need exactly one zero"),
        (lambda tmp: _interpolate(tmp, "1", '["1", "1", "1"]'), "rank-2 lattice"),
        (lambda tmp: _interpolate(tmp, "0", '["1", "1", "1"]'), "nonzero alpha and beta"),
        (lambda tmp: ["eval", _grid_file(tmp, {"six_vertex": [1] * 6})],
         "scalar must be a string, got 1"),
        (lambda tmp: ["eval", _grid_file(tmp, {"arity": 4, "values": [0] * 16})],
         "scalar must be a string, got 0"),
        (lambda tmp: ["eval", _grid_file(tmp, {"six_vertex": "123456"})],
         "six_vertex must hold a JSON list, got str"),
        (lambda tmp: ["eval", _grid_file(tmp, {"arity": 4, "values": "1" * 16})],
         "values must hold a JSON list, got str"),
        (lambda tmp: ["eval", _duplicate_vertex_grid(tmp)], "duplicate vertex id 0"),
        (lambda tmp: _interpolate(tmp, "2", "[1, 2, 3]"), "scalar must be a string, got 1"),
        (lambda tmp: _interpolate(tmp, "2", '"123"'), "--values must hold a JSON list"),
        (lambda tmp: _interpolate(tmp, "2", '{"1": 0, "2": 0, "3": 0}'),
         "--values must hold a JSON list"),
        (lambda tmp: ["classify", *["1"] * 5, "1" * 5000], "digits in '1111"),
    ],
    ids=[
        "OSError", "JSONDecodeError", "GridError", "SolverError", "GadgetError",
        "InterpolationError", "LatticeError", "ScalarParseError-six-vertex",
        "ScalarParseError-values", "GridError-six-vertex-string",
        "GridError-values-string", "GridError-duplicate-id",
        "ScalarParseError-interpolate",
        "InputError-string", "InputError-object", "ScalarParseError-long-number",
    ],
)
def test_input_error_table_exit2(tmp_path, make_args, message):
    r = run_cli(*make_args(tmp_path))
    assert_input_error(r)
    assert message in r.stderr and r.stdout == ""


# negative scalars that argparse alone would take for options
NEGATIVE = ("-1/2", "-i", "-(1)r2", "-3/4+i", "2", "-2")


def test_negative_scalars_are_values(capsys):
    """classify, torus --params and gadget --params read a token that starts
    with "-" and then a digit, "(" or "i" as a scalar."""
    from sixvertex.classify import classify
    from sixvertex.cli import main
    from sixvertex.gadgets import mnm_product
    from sixvertex.scalar import format_scalar, parse_scalar
    from sixvertex.signature import SixVertexParams

    p = SixVertexParams(*map(parse_scalar, NEGATIVE))
    assert main(["classify", *NEGATIVE]) == 0
    assert json.loads(capsys.readouterr().out) == classify(p).to_json()
    assert main(["torus", "--n", "2", "--params", *NEGATIVE]) == 0
    vertices = json.loads(capsys.readouterr().out)["vertices"]
    assert vertices[0]["signature"]["six_vertex"] == [format_scalar(x) for x in p]
    assert main(["--json", "gadget", "mnm", "--params", *NEGATIVE]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == [format_scalar(x) for x in mnm_product(p)]


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "-x", "1", "1", "1", "1", "1"],
        ["classify", "1", "1", "1", "1", "1", "1", "-x"],
        ["torus", "--n", "2", "--params", "-1", "1", "1", "1", "1", "-y"],
        ["gadget", "mnm", "--params", "-x", "1", "1", "1", "1", "1"],
    ],
)
def test_unknown_options_still_exit2_with_usage(capsys, args):
    from sixvertex.cli import main

    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: sixvertex")


def test_python_m_sixvertex_runs_the_cli():
    r = subprocess.run(
        [sys.executable, "-m", "sixvertex", "classify", *["1"] * 6],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verdict"] == "hard"
