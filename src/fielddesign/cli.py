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
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .arrays import (
    DEFAULT_ORBIT_BUDGET,
    Shape,
    canonical_json,
    classify_array,
    enumerate_orbits,
    normalize_shape,
    orbit_count,
)
from .designs import ExactDesign, construct_exact, efficiencies, measure_of_design
from .model import GeneralCov, TypeH, sigma_from_json
from .optimality import (
    GAP_TOL,
    SolveResult,
    full_pool,
    random_pool,
    solve_closed_form,
    solve_exchange,
    support_pool,
    verify_measure,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_NOT_OPTIMAL = 3


class _InputError(Exception):
    """Anything wrong with flags or input files."""


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation; enough to reproduce the run exactly."""

    command: str
    a: int | None = None
    b: int | None = None
    t: int | None = None
    n: int | None = None
    sigma: str = "identity"
    pool: str | None = None
    tol: float = GAP_TOL
    seed: int = 0
    effort: int | None = None
    design: str | None = None
    out: str | None = None
    fmt: str = "json"

    def to_json(self) -> dict:
        # seed and tol are always present, the rest only when set
        out = {"command": self.command, "seed": self.seed, "tol": self.tol,
               "sigma": self.sigma, "format": self.fmt}
        for key in ("a", "b", "t", "n", "pool", "effort", "design", "out"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def resolve_sigma(source: str):
    """Turn --sigma into a covariance spec.

    Keywords: "identity", "type-h:X" with X an exact number like 2 or
    3/2 or 0.5.  Anything else is a path to a JSON description or a
    CSV matrix.
    """
    if source == "identity":
        return sigma_from_json({"type": "identity"})
    if source.startswith("type-h:"):
        try:
            x = Fraction(source.split(":", 1)[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise _InputError(f"bad type-h parameter in {source!r}: {exc}")
        if x <= 0:
            raise _InputError("type-h parameter must be positive")
        return TypeH(x)
    path = Path(source)
    if not path.exists():
        raise _InputError(
            f"covariance source {source!r} is neither a keyword nor a file")
    try:
        if path.suffix.lower() == ".csv":
            rows = [[float(v) for v in line.split(",")]
                    for line in path.read_text().splitlines() if line.strip()]
            return GeneralCov.from_matrix(rows)
        return sigma_from_json(json.loads(path.read_text()))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read covariance from {source}: {exc}")


def resolve_pool(spec, shape: Shape, seed: int):
    """--pool full | q | random:N; None lets the solver pick."""
    if spec is None:
        return None
    if spec == "full":
        return full_pool(shape)
    if spec == "q":
        return support_pool(shape, seed=seed)
    if spec.startswith("random:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            raise _InputError(f"bad pool size in {spec!r}")
        if count < 1:
            raise _InputError("random pool size must be positive")
        return random_pool(shape, count, seed=seed)
    raise _InputError(f"unknown pool strategy {spec!r}")


def load_design(path: str) -> ExactDesign:
    """Read a design file; accepts bare design JSON or a {"design": ...} wrapper."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}")
    if isinstance(obj, dict) and "design" in obj and "blocks" not in obj:
        obj = obj["design"]
    try:
        return ExactDesign.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path} is not a valid design: {exc}")


def _shape_from_args(args) -> tuple[Shape, bool]:
    try:
        return normalize_shape(args.a, args.b, args.t)
    except ValueError as exc:
        raise _InputError(str(exc))


def _check_shape_flags(args, shape: Shape):
    # optional --a/--b/--t on file-driven commands cross-check the file
    given = (args.a, args.b, args.t)
    if all(v is None for v in given):
        return
    if any(v is None for v in given):
        raise _InputError("give all of --a --b --t or none")
    expected, _ = _shape_from_args(args)
    if expected != shape:
        raise _InputError(
            f"design file has shape {shape}, flags say {expected}")


def _solve_for(shape: Shape, sigma, args, cfg: RunConfig) -> SolveResult:
    """Dispatch: closed form when the kernel is the centering projector."""
    if isinstance(sigma, GeneralCov) or getattr(args, "force_computational", False):
        pool = resolve_pool(cfg.pool, shape, cfg.seed)
        return solve_exchange(shape, sigma, pool=pool, tol=cfg.tol,
                              max_iter=args.max_iter)
    return solve_closed_form(shape, sigma)


# -- rendering ---------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator} ({float(v):.4f})"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def _table(rows) -> str:
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {_fmt(v)}\n" for k, v in rows)


def _config_rows(cfg: RunConfig):
    return [("seed", str(cfg.seed)), ("tol", f"{cfg.tol:g}")]


def _emit(cfg: RunConfig, doc: dict, rows) -> None:
    text = _table(rows + _config_rows(cfg)) if cfg.fmt == "table" else canonical_json(doc)
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _class_label(cls) -> str:
    parts = []
    if cls.q_index is not None:
        parts.append(f"Q{cls.q_index}")
    if cls.q1_strict:
        parts.append("Q1*")
    if cls.q2_strict:
        parts.append("Q2*")
    if cls.balanced:
        parts.append("balanced")
    return " ".join(parts) if parts else "-"


# -- subcommands -------------------------------------------------------

def cmd_enumerate(cfg: RunConfig, args) -> int:
    shape, _ = _shape_from_args(args)
    arrays = shape.t ** shape.p
    orbits = orbit_count(shape)
    doc = {"config": cfg.to_json(), "a": shape.a, "b": shape.b, "t": shape.t,
           "arrays": arrays, "orbits": orbits}
    rows = [("shape", str(shape)), ("arrays", str(arrays)), ("orbits", str(orbits))]
    if args.list:
        listing = [(orbit, classify_array(orbit.representative))
                   for orbit in enumerate_orbits(shape, budget=args.budget)]
        doc["listing"] = [
            {"array": o.representative.to_json(), "size": o.size,
             "classification": {
                 "q_index": cls.q_index, "q1_strict": cls.q1_strict,
                 "q2_strict": cls.q2_strict, "balanced": cls.balanced,
                 "connected": cls.connected}}
            for o, cls in listing
        ]
        rows += [(str(o.representative), f"size {o.size}  {_class_label(cls)}")
                 for o, cls in listing]
    _emit(cfg, doc, rows)
    return EXIT_OK


def cmd_solve(cfg: RunConfig, args) -> int:
    shape, transposed = _shape_from_args(args)
    sigma = resolve_sigma(cfg.sigma)
    result = _solve_for(shape, sigma, args, cfg)
    doc = {"config": cfg.to_json(), "transposed": transposed}
    doc.update(result.to_json())
    rows = [("shape", str(shape)), ("regime", result.regime),
            ("x_star", result.x_star), ("y_star", result.y_star),
            ("gap", result.gap), ("support", result.q_support.describe()),
            ("converged", str(result.converged))]
    _emit(cfg, doc, rows)
    return EXIT_OK if result.converged else EXIT_COMPUTE


def cmd_verify(cfg: RunConfig, args) -> int:
    design = load_design(args.design)
    _check_shape_flags(args, design.shape)
    sigma = resolve_sigma(cfg.sigma)
    solved = _solve_for(design.shape, sigma, args, cfg)
    xi = measure_of_design(design)
    report = verify_measure(xi, sigma, solved.x_star, solved.y_star, tol=cfg.tol)
    doc = {"config": cfg.to_json(),
           "x_star": solved.to_json()["x_star"],
           "y_star": solved.to_json()["y_star"],
           "n": design.n,
           "report": report.to_json()}
    rows = [("shape", str(design.shape)), ("n", str(design.n)),
            ("x_star", solved.x_star), ("y_star", solved.y_star),
            ("balance_residual", float(report.balance_residual)),
            ("slope_residual", float(report.slope_residual)),
            ("support_mass", float(report.support_mass)),
            ("info_residual", float(report.info_residual)),
            ("verdict", report.verdict)]
    _emit(cfg, doc, rows)
    return EXIT_OK if report.optimal else EXIT_NOT_OPTIMAL


def cmd_efficiency(cfg: RunConfig, args) -> int:
    design = load_design(args.design)
    _check_shape_flags(args, design.shape)
    sigma = resolve_sigma(cfg.sigma)
    solved = _solve_for(design.shape, sigma, args, cfg)
    report = efficiencies(design, sigma, y_star=float(solved.y_star))
    doc = {"config": cfg.to_json(), "y_star_source": solved.regime}
    doc.update(report.to_json())
    rows = [("shape", str(design.shape)), ("n", str(design.n)),
            ("y_star", report.y_star),
            ("eff_A", report.eff_A), ("eff_D", report.eff_D),
            ("eff_E", report.eff_E), ("eff_T", report.eff_T)]
    if report.diagnostic:
        rows.append(("diagnostic", report.diagnostic))
    _emit(cfg, doc, rows)
    return EXIT_OK


def cmd_construct(cfg: RunConfig, args) -> int:
    if args.n < 1:
        raise _InputError(f"need n >= 1, got {args.n}")
    shape, _ = _shape_from_args(args)
    sigma = resolve_sigma(cfg.sigma)
    design, report = construct_exact(shape, args.n, sigma,
                                     seed=cfg.seed, effort=args.effort)
    doc = {"config": cfg.to_json(), "design": design.to_json(),
           "report": report.to_json()}
    rows = [("shape", str(shape)), ("n", str(design.n))]
    rows += [(f"block {k + 1}", str(blk)) for k, blk in enumerate(design.blocks)]
    rows += [("eff_A", report.eff_A), ("eff_D", report.eff_D),
             ("eff_E", report.eff_E), ("eff_T", report.eff_T)]
    _emit(cfg, doc, rows)
    return EXIT_OK


# -- argument plumbing -------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means computation failure here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--sigma", default="identity",
                        help="identity | type-h:X | path to JSON/CSV covariance")
    common.add_argument("--tol", type=float, default=GAP_TOL)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument("--format", dest="fmt", choices=("json", "table"),
                        default="json")

    solver = _Parser(add_help=False)
    solver.add_argument("--pool", default=None,
                        help="full | q | random:N (computational path only); "
                             "default: every orbit, exit 2 above the orbit budget")
    solver.add_argument("--force-computational", action="store_true")
    solver.add_argument("--max-iter", type=int, default=500)

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
    p.add_argument("--budget", type=int, default=DEFAULT_ORBIT_BUDGET)
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

    p = sub.add_parser("construct", parents=[common, solver],
                       help="build an n-block design")
    shaped(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--effort", type=int, default=4)
    p.set_defaults(handler=cmd_construct)

    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        a=getattr(args, "a", None),
        b=getattr(args, "b", None),
        t=getattr(args, "t", None),
        n=getattr(args, "n", None),
        sigma=args.sigma,
        pool=getattr(args, "pool", None),
        tol=args.tol,
        seed=args.seed,
        effort=getattr(args, "effort", None),
        design=getattr(args, "design", None),
        out=args.out,
        fmt=args.fmt,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        cfg = _config_from_args(args)
        return args.handler(cfg, args)
    except (_InputError, ValueError, MemoryError, RuntimeError) as exc:
        # anything but bad input is a limit (EnumerationBudgetError is a
        # RuntimeError) or a failed computation, in any subcommand
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, _InputError) else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
