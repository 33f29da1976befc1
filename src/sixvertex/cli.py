"""Command-line surface: evaluation, classification, gadget checks,
interpolation, the ice experiment, and the acceptance selftest.

Exit codes: 0 success, 1 computational refusal (resource caps), 2 input
error. The commands raise and main alone maps: TooLargeError (which covers
ContractionCapError) to "refused: ..." and exit 1, the INPUT_ERRORS classes
to "input error: ..." and exit 2. Every scalar is text read by parse_scalar:
the command-line arguments, and in grid and --values files JSON strings,
never JSON numbers. Exact scalar strings are always printed next to float
approximations.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

from .acceptance import CRITERIA, LIEB, run_acceptance
from .classify import classify
from .contract import DEFAULT_RANK_CAP, contract_eval
from .evaluate import DEFAULT_EDGE_CAP, TooLargeError
from .gadgets import (
    DET_DOMAIN,
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
from .solvers import METHODS, SolverError, solve

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2

# approx_complex rounds with ints of about twice --precision bits (isqrt, a
# gcd and a division per part). At this ceiling, eval of a one-vertex grid
# whose value has sqrt2 parts in re and im takes 0.12 s, against 0.11 s at
# the default 64 (best of 5, CPython 3.11, x86-64); past it the cost grows
# without bound
MAX_PRECISION = 65536

# torus --n N builds N^2 vertices in memory and then their JSON text; peak
# RSS measured 332 MB at N = 256 written to stdout (146 MB with -o), and
# 522 MB with -o at N = 512, growing as N^2 (CPython 3.11, x86-64)
MAX_TORUS_N = 256


class InputError(Exception):
    pass


# The one exit-code table: main reports these as "input error: ..." with
# exit 2, and TooLargeError (ContractionCapError too) as "refused: ..." with
# exit 1. Anything else is a bug and keeps its traceback.
INPUT_ERRORS = (
    InputError,
    OSError,
    json.JSONDecodeError,
    GridError,
    ScalarParseError,
    SolverError,
    GadgetError,
    LatticeError,
    InterpolationError,
)


def _parse_params(values) -> SixVertexParams:
    if len(values) != 6:
        raise InputError("need exactly 6 scalars (a x b y c z)")
    return SixVertexParams(*(parse_scalar(v) for v in values))


def _value_report(value: Scalar, precision: int) -> dict:
    re, im = approx_complex(value, precision)
    return {
        "value": format_scalar(value),
        "approx": {"re": _to_float(re), "im": _to_float(im)},
    }


def _to_float(q) -> float:
    """The double nearest the Fraction q: past the double range the infinity
    of q's sign (printed Infinity), below it the zero of q's sign."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=1))
        return
    for key, val in payload.items():
        print(f"{key}: {json.dumps(val) if isinstance(val, (dict, list)) else val}")


def cmd_eval(args) -> int:
    grid = load_grid(args.grid)
    result = solve(
        grid,
        method=args.method,
        edge_cap=args.cap_edges,
        rank_cap=args.cap_rank,
    )
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
        z = contract_eval(build_torus(n, ice), rank_cap=args.cap_rank).value
        z_float = _to_float(approx_complex(z)[0])
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
    if args.n > MAX_TORUS_N:
        raise TooLargeError(f"torus side {args.n} exceeds the cap {MAX_TORUS_N}")
    grid = build_torus(args.n, _parse_params(args.params))
    if args.output:
        save_grid(grid, args.output)
        print(f"wrote {args.output} ({len(grid.vertices)} vertices, {len(grid.edges)} edges)")
    else:
        print(json.dumps(grid_to_json(grid), indent=1))
    return EXIT_OK


def cmd_gadget(args) -> int:
    kind = args.kind
    if kind == "det27":
        rows = [
            {
                "triple": [format_scalar(v) for v in triple],
                "det": format_scalar(hardness_determinant(*triple)),
            }
            for triple in itertools.product(DET_DOMAIN, repeat=3)
        ]
        ok = all(r["det"] != "0" for r in rows)
        _emit({"all_nonzero": ok, "rows": rows if args.json else len(rows)}, args.json)
        return EXIT_OK
    p = _parse_params(args.params)
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
    _emit(payload, args.json)
    return EXIT_OK


def cmd_interpolate(args) -> int:
    alpha = parse_scalar(args.alpha)
    beta = parse_scalar(args.beta)
    phi = parse_scalar(args.phi)
    psi = parse_scalar(args.psi)
    with open(args.values) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise InputError(f"--values must hold a JSON list, got {type(raw).__name__}")
    n_values = tuple(parse_scalar(v) for v in raw)
    lattice = compute_lattice(alpha, beta)
    value = interpolation_solve(
        InterpolationInstance(alpha, beta, args.m, n_values), phi, psi, lattice
    )
    payload = _value_report(value, args.precision)
    payload["lattice"] = {
        "rank": lattice.rank,
        "generator": list(lattice.generator) if lattice.generator else None,
    }
    _emit(payload, args.json)
    return EXIT_OK


# a token that starts with "-" and then a digit, "(" or "i" is a negative
# scalar (-1/2, -(1)r2, -i), never an option
_NEGATIVE_SCALAR = re.compile(r"-[\d(i]")


class _Parser(argparse.ArgumentParser):
    """argparse reads any token that starts with "-" as an option unless it
    is a plain negative number; this parser, and the subcommand parsers
    made from it, read a negative scalar as a value instead. Any other
    token that starts with "-" is still an option, so an unknown one exits
    2 with the usage."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_SCALAR.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        choices=METHODS,
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
        if args.precision > MAX_PRECISION:
            raise InputError(f"--precision must be <= {MAX_PRECISION}")
        return args.fn(args)
    except TooLargeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
