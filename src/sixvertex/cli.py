"""Command-line surface: evaluation, classification, gadget checks,
interpolation, the ice experiment, and the acceptance selftest.

Exit codes: 0 success, 1 computational refusal (resource caps), 2 input
error. Exact scalar strings are always printed next to float approximations.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import CRITERIA, LIEB, run_acceptance
from .classify import classify
from .contract import DEFAULT_RANK_CAP, ContractionCapError, contract_eval
from .evaluate import DEFAULT_EDGE_CAP, TooLargeError
from .gadgets import (
    GadgetError,
    chain_D,
    closed_form_D,
    hardness_determinant,
    mnm_product,
    one_zero_chain,
    two_zero_product,
)
from .grid import GridError, build_torus, grid_to_json, load_grid, save_grid
from .interpolate import (
    InterpolationError,
    InterpolationInstance,
    LatticeError,
    compute_lattice,
    interpolation_solve,
)
from .scalar import (
    Scalar,
    ScalarParseError,
    approx_complex,
    format_scalar,
    parse_scalar,
)
from .signature import SixVertexParams, six_vertex_params
from .solvers import SolverError, solve

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _parse_params(values) -> SixVertexParams:
    if len(values) != 6:
        raise InputError("need exactly 6 scalars (a x b y c z)")
    try:
        return SixVertexParams(*(parse_scalar(v) for v in values))
    except ScalarParseError as exc:
        raise InputError(str(exc)) from exc


def _value_report(value: Scalar, precision: int) -> dict:
    approx = approx_complex(value, precision)
    return {
        "value": format_scalar(value),
        "approx": {"re": float(approx.real), "im": float(approx.imag)},
    }


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=1))
        return
    for key, val in payload.items():
        print(f"{key}: {json.dumps(val) if isinstance(val, (dict, list)) else val}")


def cmd_eval(args) -> int:
    try:
        grid = load_grid(args.grid)
        grid.assert_valid()
    except (OSError, json.JSONDecodeError, GridError, ScalarParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = solve(
            grid,
            method=args.method,
            edge_cap=args.cap_edges,
            rank_cap=args.cap_rank,
        )
    except (TooLargeError, ContractionCapError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except SolverError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = _value_report(result.value, args.precision)
    payload["class_used"] = result.class_used
    _emit(payload, args.json)
    return EXIT_OK


def cmd_classify(args) -> int:
    p = _parse_params(args.params)
    print(json.dumps(classify(p).to_json(), indent=1))
    return EXIT_OK


def cmd_ice(args) -> int:
    if args.n_max < 2:
        raise InputError("--n-max must be >= 2")
    ice = SixVertexParams.of(1, 1, 1, 1, 1, 1)
    rows = []
    for n in range(2, args.n_max + 1, 2):
        torus = build_torus(n, ice)
        try:
            res = contract_eval(torus, rank_cap=args.cap_rank)
        except ContractionCapError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return EXIT_REFUSED
        z = res.value
        z_float = float(approx_complex(z).real)
        w = z_float ** (1.0 / (n * n))
        row = {
            "n": n,
            "Z": format_scalar(z),
            "Z_float": z_float,
            "W": w,
            "reference": LIEB,
            "abs_error": abs(w - LIEB),
        }
        if args.json:
            rows.append(row)
        else:
            # each row as soon as its torus is done, so a refusal or a kill
            # keeps the rows before it
            print(
                f"n={n}: Z={row['Z']}  W={w:.7f}  |W-(4/3)^1.5|={row['abs_error']:.7f}",
                flush=True,
            )
    if args.json:
        print(json.dumps({"rows": rows}, indent=1))
    return EXIT_OK


def cmd_selftest(args) -> int:
    indices = None
    if args.criteria:
        try:
            indices = {int(tok) for tok in args.criteria.split(",")}
        except ValueError as exc:
            raise InputError(f"--criteria: {exc}") from exc
        bad = sorted(i for i in indices if not 1 <= i <= len(CRITERIA))
        if bad:
            raise InputError(
                f"--criteria: no criterion {bad}, valid are 1..{len(CRITERIA)}"
            )
    results = run_acceptance(seed=args.seed, indices=indices)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok = all_ok and r.passed
        print(f"[{status}] criterion {r.index}: {r.name} ({r.seconds:.1f}s) {r.detail}")
    return EXIT_OK if all_ok else EXIT_REFUSED


def cmd_torus(args) -> int:
    p = _parse_params(args.params)
    try:
        grid = build_torus(args.n, p)
    except GridError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output:
        try:
            save_grid(grid, args.output)
        except OSError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"wrote {args.output} ({len(grid.vertices)} vertices, {len(grid.edges)} edges)")
    else:
        print(json.dumps(grid_to_json(grid), indent=1))
    return EXIT_OK


def cmd_gadget(args) -> int:
    kind = args.kind
    if kind == "det27":
        dom = ("0", "0+1i", "0-1i")
        rows = []
        for x in dom:
            for y in dom:
                for z in dom:
                    d = hardness_determinant(
                        parse_scalar(x), parse_scalar(y), parse_scalar(z)
                    )
                    rows.append({"triple": [x, y, z], "det": format_scalar(d)})
        ok = all(r["det"] != "0" for r in rows)
        _emit({"all_nonzero": ok, "rows": rows if args.json else len(rows)}, args.json)
        return EXIT_OK
    p = _parse_params(args.params)
    try:
        if kind == "chain":
            sig = chain_D(p, args.s)
            closed = closed_form_D(p.a, p.b, p.c, args.s)
            payload = {
                "s": args.s,
                "chain": [format_scalar(v) for v in six_vertex_params(sig)],
                "closed_form": [format_scalar(v) for v in six_vertex_params(closed)],
                "equal": sig == closed,
            }
        elif kind == "mnm":
            payload = {
                "result": [format_scalar(v) for v in mnm_product(p)],
            }
        elif kind == "one-zero":
            res = one_zero_chain(p)
            payload = {
                "normalized": [format_scalar(v) for v in res.normalized],
                "branch": res.branch,
                "steps": [
                    {"label": label, "params": [format_scalar(v) for v in q]}
                    for label, q in res.steps
                ],
            }
        else:  # two-zero
            payload = {
                "result": [format_scalar(v) for v in two_zero_product(p)],
            }
    except GadgetError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TooLargeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    _emit(payload, args.json)
    return EXIT_OK


def cmd_interpolate(args) -> int:
    try:
        alpha = parse_scalar(args.alpha)
        beta = parse_scalar(args.beta)
        phi = parse_scalar(args.phi)
        psi = parse_scalar(args.psi)
        with open(args.values) as fh:
            n_values = tuple(parse_scalar(v) for v in json.load(fh))
    except (OSError, json.JSONDecodeError, ScalarParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        lattice = compute_lattice(alpha, beta)
        inst = InterpolationInstance(alpha, beta, args.m, n_values)
        value = interpolation_solve(inst, phi, psi)
    except (LatticeError, InterpolationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = _value_report(value, args.precision)
    payload["lattice"] = {
        "rank": lattice.rank,
        "generator": list(lattice.generator) if lattice.generator else None,
    }
    _emit(payload, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixvertex",
        description="Exact six-vertex / Holant toolkit",
    )
    parser.add_argument(
        "--cap-edges", type=int, default=DEFAULT_EDGE_CAP, help="brute-force edge cap"
    )
    parser.add_argument(
        "--cap-rank", type=int, default=DEFAULT_RANK_CAP, help="contraction rank cap"
    )
    parser.add_argument(
        "--precision", type=int, default=64, help="reporting precision bits"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a grid file")
    p.add_argument("grid")
    p.add_argument(
        "--method",
        choices=("auto", "brute", "contract", "p", "a", "m"),
        default="auto",
    )
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("classify", help="classify six-vertex parameters")
    p.add_argument("params", nargs=6, metavar="SCALAR")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("ice", help="finite-size square-ice constants")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(fn=cmd_ice)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated subset, e.g. 1,8")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("torus", help="emit an n x n torus grid file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", nargs=6, required=True, metavar="SCALAR")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_torus)

    p = sub.add_parser("gadget", help="gadget constructions and checks")
    p.add_argument("kind", choices=("chain", "mnm", "one-zero", "two-zero", "det27"))
    p.add_argument("--params", nargs=6, metavar="SCALAR")
    p.add_argument("--s", type=int, default=2, help="chain length")
    p.set_defaults(fn=cmd_gadget)

    p = sub.add_parser("interpolate", help="coset-grouped Vandermonde solve")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--values", required=True, help="JSON list of N_l scalars")
    p.set_defaults(fn=cmd_interpolate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gadget" and args.kind != "det27" and not args.params:
        parser.error("gadget kinds other than det27 require --params")
    try:
        if args.cap_edges <= 0 or args.cap_rank <= 0:
            raise InputError("--cap-edges and --cap-rank must be positive")
        if args.precision < 24:
            raise InputError("--precision must be >= 24")
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
