import json
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


def test_classify_bad_scalar_exit2():
    r = run_cli("classify", "2", "2", "1", "1", "1", "oops")
    assert r.returncode == 2


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


def test_eval_malformed_port_exit2(tmp_path):
    bad = {
        "vertices": [{"id": 0, "signature": {"six_vertex": ["1"] * 6}}],
        "edges": [[[0, 0], [0, 1]], [[0, 1], [0, 2]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    r = run_cli("eval", str(path))
    assert r.returncode == 2
    assert "slot 1" in r.stderr


@pytest.mark.parametrize(
    "vertex",
    [
        {"id": "x", "signature": {"six_vertex": ["1"] * 6}},
        {"id": 0, "signature": {"arity": 4, "values": ["1"] * 15}},
    ],
    ids=["non-integer-id", "short-values"],
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


def test_interpolate_command(tmp_path):
    from sixvertex.interpolate import make_observations
    from sixvertex.rational import Q
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
