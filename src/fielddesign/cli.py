"""Command-line front end.

Five subcommands: enumerate (orbit census), solve (minimax optimum),
verify (optimality certificate for a design file), efficiency (A/D/E/T
scores for a design file), construct (build an n-block design).  Output
is canonical JSON by default, or a fixed-precision table with
--format table.  Every run echoes its seed and tolerance.

Exit codes: 0 success (verify: optimal), 1 bad input, 2 computation
failed or budget exceeded, 3 verification negative.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .arrays import (
    DEFAULT_ORBIT_BUDGET,
    LabelPool,
    Shape,
    canonical_json,
    classify_labels,
    enumerate_label_matrix,
    grid_text,
    mirror_plot_order,
    normalize_shape,
    orbit_count,
)
from .designs import ExactDesign, construct_exact, efficiencies, measure_of_design
from .model import BoundCov, GeneralCov, bind, sigma_from_json
from .optimality import (
    GAP_TOL,
    SolveResult,
    _number_json,
    solve_closed_form,
    solve_exchange,
    verify_measure,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_NOT_OPTIMAL = 3


class _InputError(Exception):
    """Anything wrong with flags or input files."""


def resolve_sigma(source: str, p: int) -> BoundCov:
    """Turn --sigma into a covariance bound to p plots (model.bind).

    Keywords: "identity", "type-h:X" with X an exact number like 2 or
    3/2 or 0.5.  Anything else is a path to a JSON description or a
    CSV matrix.  The spec must give a positive definite p x p matrix;
    anything else is bad input.
    """
    path = Path(source)
    try:
        if source == "identity":
            sigma = sigma_from_json({"type": "identity"})
        elif source.startswith("type-h:"):
            sigma = sigma_from_json({"type": "type-h", "x": source.split(":", 1)[1]})
        elif not path.exists():
            raise _InputError(
                f"covariance source {source!r} is neither a keyword nor a file")
        elif path.suffix.lower() == ".csv":
            sigma = GeneralCov.from_matrix([[float(v) for v in line.split(",")]
                                            for line in path.read_text().splitlines()
                                            if line.strip()])
        else:
            sigma = sigma_from_json(json.loads(path.read_text()))
        return bind(p, sigma)
    except (OSError, ValueError) as exc:
        raise _InputError(f"bad covariance {source!r}: {exc}")


def _oriented_sigma(cov: BoundCov, shape: Shape, transposed: bool) -> BoundCov:
    """A dense Sigma of a tall grid re-indexed to its mirror's plots; the
    identity family has no plot order."""
    if not transposed or cov.unit is None:
        return cov
    perm = mirror_plot_order(shape)
    return BoundCov(cov.scale, cov.unit[np.ix_(perm, perm)])


def load_design(path: str) -> tuple[ExactDesign, bool]:
    """A design file (bare or {"design": ...}-wrapped JSON) and whether it is tall."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}")
    if isinstance(obj, dict) and "design" in obj and "blocks" not in obj:
        obj = obj["design"]
    try:
        return ExactDesign.from_json(obj), normalize_shape(obj["a"], obj["b"], obj["t"])[1]
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path} is not a valid design: {exc}")


def _shape_from_args(args) -> tuple[Shape, bool]:
    try:
        return normalize_shape(args.a, args.b, args.t)
    except ValueError as exc:
        raise _InputError(str(exc))


def _solve_for(shape: Shape, cov: BoundCov, args) -> SolveResult:
    """Dispatch: closed form when the kernel is the centering projector."""
    if cov.unit is None and not args.force_computational:
        return solve_closed_form(shape, cov)
    if cov.unit is not None and args.tol == 0:
        raise _InputError("--tol 0 cannot be met under a general --sigma: the float exchange "
                          "solve's duality gap stops at rounding error, not at 0; give a "
                          "positive tolerance")
    return solve_exchange(shape, cov, tol=args.tol, max_iter=args.max_iter)


def _design_inputs(args) -> tuple[ExactDesign, bool, object, SolveResult]:
    """The design file, whether it is tall, its covariance and its solve;
    optional --a/--b/--t must all be given and match the file."""
    design, transposed = load_design(args.design)
    given = (args.a, args.b, args.t)
    if given != (None, None, None):
        if None in given:
            raise _InputError("give all of --a --b --t or none")
        expected, _ = _shape_from_args(args)
        if expected != design.shape:
            raise _InputError(f"design file has shape {design.shape}, flags say {expected}")
    sigma = _oriented_sigma(resolve_sigma(args.sigma, design.shape.p), design.shape, transposed)
    return design, transposed, sigma, _solve_for(design.shape, sigma, args)


# -- rendering ---------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator} ({float(v):.4f})"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def _shape_text(shape: Shape, transposed: bool) -> str:
    """The grid as given, not the mirror a tall one is solved as."""
    return f"({shape.b},{shape.a},{shape.t})" if transposed else str(shape)


def _table(rows) -> str:
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {_fmt(v)}\n" for k, v in rows)


def _config(args) -> dict:
    """The resolved invocation, enough to reproduce the run: seed and tol
    always, the other flags only when set."""
    out = {"command": args.command, "seed": args.seed, "tol": args.tol,
           "sigma": args.sigma, "format": args.fmt}
    for key in ("a", "b", "t", "n", "pool", "effort", "design", "out"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _emit(args, doc: dict, rows) -> None:
    config_rows = [("seed", str(args.seed)), ("tol", f"{args.tol:g}")]
    text = _table(rows + config_rows) if args.fmt == "table" else canonical_json(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _class_label(cls: dict) -> str:
    parts = [] if cls["q_index"] is None else [f"Q{cls['q_index']}"]
    parts += [name for name, key in (("Q1*", "q1_strict"), ("Q2*", "q2_strict"),
                                     ("balanced", "balanced")) if cls[key]]
    return " ".join(parts) if parts else "-"


# -- subcommands -------------------------------------------------------

def cmd_enumerate(args) -> int:
    shape, transposed = _shape_from_args(args)
    arrays = shape.t ** shape.p
    orbits = orbit_count(shape)
    doc = {"config": _config(args), "a": shape.a, "b": shape.b, "t": shape.t,
           "arrays": arrays, "orbits": orbits}
    rows = [("shape", _shape_text(shape, transposed)), ("arrays", str(arrays)),
            ("orbits", str(orbits))]
    if args.list:
        pool = LabelPool(shape, enumerate_label_matrix(shape, budget=args.budget))
        sizes = [math.perm(shape.t, m) for m in pool.labels.max(axis=1).tolist()]
        flags = zip(*(f.tolist() for f in classify_labels(shape, pool.labels)))
        classes = [{"q_index": None if q < 0 else q, "q1_strict": q1, "q2_strict": q2,
                    "balanced": bal, "connected": conn} for q, q1, q2, bal, conn in flags]
        if args.fmt == "table":
            rows += [(str(s), f"size {size}  {_class_label(cls)}")
                     for s, size, cls in zip(pool, sizes, classes)]
        else:
            doc["listing"] = [{"array": array, "size": size, "classification": cls}
                              for array, size, cls in zip(pool.to_json(), sizes, classes)]
    _emit(args, doc, rows)
    return EXIT_OK


def cmd_solve(args) -> int:
    shape, transposed = _shape_from_args(args)
    sigma = _oriented_sigma(resolve_sigma(args.sigma, shape.p), shape, transposed)
    result = _solve_for(shape, sigma, args)
    doc = {"config": _config(args), "transposed": transposed}
    doc.update(result.to_json())
    rows = [("shape", _shape_text(shape, transposed)), ("regime", result.regime),
            ("x_star", result.x_star), ("y_star", result.y_star),
            ("gap", result.gap), ("support", result.q_support.describe()),
            ("converged", str(result.converged))]
    _emit(args, doc, rows)
    return EXIT_OK if result.converged else EXIT_COMPUTE


def cmd_verify(args) -> int:
    design, transposed, sigma, solved = _design_inputs(args)
    xi = measure_of_design(design)
    report = verify_measure(xi, sigma, solved.x_star, solved.y_star, tol=args.tol)
    doc = {"config": _config(args),
           "x_star": _number_json(solved.x_star),
           "y_star": _number_json(solved.y_star),
           "n": design.n,
           "report": report.to_json()}
    rows = [("shape", _shape_text(design.shape, transposed)), ("n", str(design.n)),
            ("x_star", solved.x_star), ("y_star", solved.y_star),
            ("balance_residual", float(report.balance_residual)),
            ("slope_residual", float(report.slope_residual)),
            ("support_mass", float(report.support_mass)),
            ("info_residual", float(report.info_residual)),
            ("verdict", report.verdict)]
    _emit(args, doc, rows)
    return EXIT_OK if report.optimal else EXIT_NOT_OPTIMAL


def cmd_efficiency(args) -> int:
    design, transposed, sigma, solved = _design_inputs(args)
    report = efficiencies(design, sigma, y_star=float(solved.y_star))
    doc = {"config": _config(args), "y_star_source": solved.regime}
    doc.update(report.to_json())
    rows = [("shape", _shape_text(design.shape, transposed)), ("n", str(design.n)),
            ("y_star", report.y_star),
            ("eff_A", report.eff_A), ("eff_D", report.eff_D),
            ("eff_E", report.eff_E), ("eff_T", report.eff_T)]
    if report.diagnostic:
        rows.append(("diagnostic", report.diagnostic))
    _emit(args, doc, rows)
    return EXIT_OK


def cmd_construct(args) -> int:
    shape, transposed = _shape_from_args(args)
    sigma = _oriented_sigma(resolve_sigma(args.sigma, shape.p), shape, transposed)
    design, report = construct_exact(shape, args.n, sigma,
                                     seed=args.seed, effort=args.effort)
    written = design.to_json()
    if transposed:  # write a tall grid's blocks in the orientation asked for
        written.update(a=args.a, b=args.b,
                       blocks=[[list(r) for r in zip(*rows)] for rows in written["blocks"]])
    doc = {"config": _config(args), "design": written, "report": report.to_json()}
    rows = [("shape", _shape_text(shape, transposed)), ("n", str(design.n))]
    rows += [(f"block {k + 1}", grid_text(blk)) for k, blk in enumerate(written["blocks"])]
    rows += [("eff_A", report.eff_A), ("eff_D", report.eff_D),
             ("eff_E", report.eff_E), ("eff_T", report.eff_T)]
    _emit(args, doc, rows)
    return EXIT_OK


# -- argument plumbing -------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-9 and -inf are values for the type check, not options
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits with 2 on usage errors; 2 means computation failure here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _at_least(convert, low=0):
    """An argparse type: the flag converted, refusing NaN, infinity and values
    below low.  Every numeric flag but --a/--b/--t (checked by Shape) uses it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"need a finite {convert.__name__} >= {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--sigma", default="identity",
                        help="identity | type-h:X | path to JSON/CSV covariance")
    common.add_argument("--tol", type=_at_least(float), default=GAP_TOL)
    common.add_argument("--seed", type=_at_least(int), default=0)
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument("--format", dest="fmt", choices=("json", "table"),
                        default="json")

    solver = _Parser(add_help=False)
    solver.add_argument("--pool", default=None, choices=("full",),
                        help="full, the default: every orbit of the shape (computational "
                             "path only), exit 2 above the orbit budget")
    solver.add_argument("--force-computational", action="store_true")
    solver.add_argument("--max-iter", type=_at_least(int), default=500)

    parser = _Parser(prog="fielddesign",
                     description="Optimal designs under two-dimensional interference")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def shaped(p, required=True):
        p.add_argument("--a", type=int, required=required)
        p.add_argument("--b", type=int, required=required)
        p.add_argument("--t", type=int, required=required)

    p = sub.add_parser("enumerate", parents=[common], help="orbit census")
    shaped(p)
    p.add_argument("--list", action="store_true", help="list every orbit")
    p.add_argument("--budget", type=_at_least(int), default=DEFAULT_ORBIT_BUDGET)
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("solve", parents=[common, solver], help="minimax optimum")
    shaped(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("verify", parents=[common, solver],
                       help="certify a design file")
    p.add_argument("design", help="design JSON path")
    shaped(p, required=False)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("efficiency", parents=[common, solver],
                       help="A/D/E/T efficiencies of a design file")
    p.add_argument("design", help="design JSON path")
    shaped(p, required=False)
    p.set_defaults(handler=cmd_efficiency)

    p = sub.add_parser("construct", parents=[common],
                       help="build an n-block design")
    shaped(p)
    p.add_argument("--n", type=_at_least(int, 1), required=True)
    p.add_argument("--effort", type=_at_least(int, 1), default=4,
                   help="restarts of the swap search, which a group design "
                        "that fits n skips (as it does --seed)")
    p.set_defaults(handler=cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except (_InputError, ValueError, MemoryError, RuntimeError, ArithmeticError) as exc:
        # anything but bad input is a limit (EnumerationBudgetError is a RuntimeError,
        # a float overflow an ArithmeticError) or a failed computation, in any subcommand
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, _InputError) else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
