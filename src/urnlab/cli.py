"""Command-line front end for the urn laboratory.

Emits exact distance curves, bound tables, regime reports, negative
dependence certificates, and Monte Carlo draws as CSV or JSON.  Every
output opens with a header echoing the resolved configuration and the
package version; identical invocations produce byte-identical output.

Exit codes: 0 success, 2 capacity guard tripped, 3 mathematical invariant
violated (either an implementation bug or a counterexample to a proved
inequality; the message names the inequality), 64 usage error, 65
contradictory declared limits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import dist, mc, negdep, phase
from .model import (
    CapacityError,
    InitialState,
    ModelParams,
    ParamFamily,
    parse_alpha_rule,
    parse_m_rule,
)

EXIT_OK = 0
EXIT_CAPACITY = 2
EXIT_INVARIANT = 3
EXIT_USAGE = 64
EXIT_CONTRADICTION = 65

SANDWICH_TOL = 1e-9
BRUTE_MATCH_TOL = 1e-12


class InvariantViolation(RuntimeError):
    """A proved inequality failed numerically; bug or disproof, never silent."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """17-significant-digit decimal text; round-trips every float exactly."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_text(config: dict, columns: list[str], rows: list[list]) -> str:
    lines = [f"# urnlab {__version__}"]
    lines += [f"# {key} = {_fmt(value)}" for key, value in config.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_json_safe(payload), indent=2, allow_nan=False) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_initial(text: str):
    """Map the --initial flag onto a start-state strategy.

    "corners" and "scan" select the extreme-start maximum and the guarded
    full scan; "r,h" pins one state.
    """
    if text == "corners":
        return "corners"
    if text == "scan":
        return "full_scan"
    left, sep, right = text.partition(",")
    if not sep:
        raise ValueError(
            f"--initial must be 'corners', 'scan' or 'r,h', got {text!r}"
        )
    try:
        return InitialState(int(left), int(right))
    except ValueError as exc:
        raise ValueError(f"--initial components must be integers: {text!r}") from exc


def _time_grid(args) -> list[float]:
    if args.t_points < 1:
        raise ValueError("--t-points must be at least 1")
    if args.t_start < 0.0:
        raise ValueError("--t-start must be non-negative")
    if args.t_points == 1:
        return [float(args.t_start)]
    if args.t_stop is None:
        raise ValueError("--t-stop is required when --t-points > 1")
    if args.t_stop <= args.t_start:
        raise ValueError("--t-stop must exceed --t-start")
    if args.t_spacing == "geometric":
        if args.t_start <= 0.0:
            raise ValueError("geometric spacing needs --t-start > 0")
        grid = np.geomspace(args.t_start, args.t_stop, args.t_points)
    else:
        grid = np.linspace(args.t_start, args.t_stop, args.t_points)
    grid = [float(t) for t in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"--t-points {args.t_points} from --t-start {args.t_start!r} to "
            f"--t-stop {args.t_stop!r} are not strictly increasing in floating "
            "point; widen the range or use fewer points"
        )
    return grid


def _grid_config(args, grid: list[float]) -> dict:
    return {
        "t_start": grid[0],
        "t_stop": grid[-1],
        "t_points": len(grid),
        "t_spacing": args.t_spacing,
    }


def _model_config(params: ModelParams) -> dict:
    return {
        "n_balls": params.total_balls,
        "heavy": params.heavy_count,
        "alpha": params.heavy_rate,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_curve(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    strategy = _parse_initial(args.initial)
    grid = _time_grid(args)
    config = {
        "subcommand": "curve",
        **_model_config(params),
        "initial": args.initial,
        **_grid_config(args, grid),
        "chain": args.chain,
    }
    columns = ["t", "D_obs"] + (["D_chain"] if args.chain else [])
    targets = ["observable", "chain"] if args.chain else ["observable"]
    curves = [dist.distance_curve(params, target, strategy) for target in targets]
    rows = [[t, *(curve(t) for curve in curves)] for t in grid]
    if args.format == "json":
        return _json_text(
            {"schema": "curve/1", "config": config, "columns": columns, "rows": rows}
        )
    return _csv_text(config, columns, rows)


def cmd_bounds(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    strategy = _parse_initial(args.initial)
    grid = _time_grid(args)
    config = {
        "subcommand": "bounds",
        **_model_config(params),
        "initial": args.initial,
        **_grid_config(args, grid),
        "exact": args.exact,
    }
    columns = ["t", "lb_cheb", "lb_kolm", "lb_clt"]
    if args.exact:
        columns.append("exact")
    columns += ["ub_l2", "ub_coupling_raw"]
    # Lower bounds certify the all-right start; comparing them against a
    # user-pinned different start would be meaningless, so the sandwich
    # check on that side needs a dominating strategy.
    lower_applies = isinstance(strategy, str) or strategy == InitialState(0, 0)
    cheb, kolm, clt, l2, coupling = (
        bounds_mod.bound_curve(params, kind, grid)
        for kind in ("chebyshev_lb", "kolmogorov_lb", "clt_lb", "l2_ub", "coupling_ub")
    )
    # only under --exact: building the curve resolves the guarded starts
    if args.exact:
        exact_curve = dist.distance_curve(params, "observable", strategy)
    rows = []
    for i, t in enumerate(grid):
        row = [t, cheb.values[i], kolm.values[i], clt.values[i]]
        if args.exact:
            exact = exact_curve(t)
            lower = max(cheb.values[i], kolm.values[i])
            upper = min(l2.values[i], coupling.values[i])
            if exact > upper + SANDWICH_TOL or (
                lower_applies and exact < lower - SANDWICH_TOL
            ):
                raise InvariantViolation(
                    f"bound sandwich broken at t={t:.17g}: exact={exact:.17g} "
                    f"outside [{lower:.17g}, {upper:.17g}]"
                )
            row.append(exact)
        row += [l2.values[i], coupling.raw_values[i]]
        rows.append(row)
    if args.format == "json":
        return _json_text(
            {"schema": "bounds/1", "config": config, "columns": columns, "rows": rows}
        )
    return _csv_text(config, columns, rows)


def cmd_classify(args) -> str:
    family = ParamFamily(
        m_rule=parse_m_rule(args.m_rule),
        alpha_rule=parse_alpha_rule(args.alpha_rule),
        sizes=tuple(int(s) for s in args.sizes.split(",") if s.strip()),
    )
    declared = None
    if args.mode == "declared":
        if args.gamma_inf is None or args.tilde_gamma_inf is None:
            raise ValueError(
                "declared mode needs --gamma-inf and --tilde-gamma-inf "
                "(and --ell when gamma_inf >= 0)"
            )
        declared = phase.DeclaredLimits(  # each field has a like-named flag
            **{f.name: getattr(args, f.name) for f in fields(phase.DeclaredLimits)}
        )
    report = phase.classify(
        family,
        mode=args.mode,
        declared=declared,
        ratio=args.ratio,
        ratio_epsilon=args.epsilon,
    )
    config = {
        "subcommand": "classify",
        "m_rule": args.m_rule,
        "alpha_rule": args.alpha_rule,
        "sizes": list(family.sizes),
        "mode": args.mode,
        "ratio": args.ratio,
        "epsilon": args.epsilon,
    }
    if declared is not None:
        config.update(asdict(declared))
    body = report.to_json_dict()
    return _json_text(
        {"schema": body.pop("schema"), "config": config, **body}
    )


def cmd_negdep(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    if args.t_start < 0.0:
        raise ValueError("--t-start must be non-negative")
    max_size = args.max_size if args.max_size is not None else params.total_balls
    report = negdep.verify_negative_dependence(
        params, args.t_start, max_size, brute_force=args.brute
    )
    if not report.passed:
        raise InvariantViolation(
            "negative dependence failed: min slack "
            f"{report.min_slack:.17g} below {negdep.SLACK_TOL:.17g} "
            f"(joint moment exceeded the product moment at t={args.t_start:.17g})"
        )
    if report.brute_max_error is not None and report.brute_max_error > BRUTE_MATCH_TOL:
        raise InvariantViolation(
            "closed-form and brute-force joint moments disagree by "
            f"{report.brute_max_error:.17g} (> {BRUTE_MATCH_TOL:.17g})"
        )
    config = {
        "subcommand": "negdep",
        **_model_config(params),
        "t": args.t_start,
        "max_size": max_size,
        "brute": args.brute,
    }
    body = report.to_json_dict()
    return _json_text({"schema": body.pop("schema"), "config": config, **body})


def cmd_simulate(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    init = _parse_initial(args.initial)
    if not isinstance(init, InitialState):
        raise ValueError("simulate needs an explicit --initial r,h start state")
    if args.t_start < 0.0:
        raise ValueError("--t-start must be non-negative")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    batch = mc.sample_batch(
        params, init, args.t_start, args.samples, args.seed, sampler=args.sampler
    )
    config = {
        "subcommand": "simulate",
        **_model_config(params),
        "initial": args.initial,
        "t": args.t_start,
        "samples": args.samples,
        "seed": args.seed,
        "sampler": args.sampler,
    }
    if args.format == "csv":
        columns = ["index", "regular_left", "heavy_left", "total_left"]
        if batch.event_counts is not None:
            columns.append("events")
        rows = []
        for i in range(batch.count):
            r, h = int(batch.outcomes[i, 0]), int(batch.outcomes[i, 1])
            row = [i, r, h, r + h]
            if batch.event_counts is not None:
                row.append(int(batch.event_counts[i]))
            rows.append(row)
        return _csv_text(config, columns, rows)
    totals = batch.outcomes.sum(axis=1)
    empirical = mc.empirical_pmf(batch, projection="total")
    exact = dist.observed_law(params, init, args.t_start)
    payload = {
        "schema": "simulate-summary/1",
        "config": config,
        "empirical_mean": float(totals.mean()),
        "empirical_variance": float(totals.var(ddof=1)) if batch.count > 1 else 0.0,
        "exact_mean": exact.mean(),
        "exact_variance": exact.variance(),
        "tv_to_exact": dist.tv(empirical, exact),
        "tv_bias_note": (
            "the plug-in distance estimate is biased upward by about "
            "sqrt((N + 1) / samples)"
        ),
        "tv_bias_bound": math.sqrt((params.total_balls + 1) / batch.count),
    }
    return _json_text(payload)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_model_flags(parser) -> None:
    parser.add_argument("--n-balls", type=int, required=True, help="total ball count")
    parser.add_argument(
        "--heavy", type=int, required=True, help="number of slow-clock balls"
    )
    parser.add_argument(
        "--alpha", type=float, required=True, help="slow-clock rate in (0, 1]"
    )


def _add_grid_flags(parser) -> None:
    parser.add_argument(
        "--t-start",
        type=float,
        default=0.0,
        help="first grid time (or the single evaluation time)",
    )
    parser.add_argument("--t-stop", type=float, default=None, help="last grid time")
    parser.add_argument(
        "--t-points", type=int, default=1, help="number of grid points"
    )
    parser.add_argument(
        "--t-spacing",
        choices=("linear", "geometric"),
        default="linear",
        help="grid spacing rule",
    )


def _add_output_flags(parser, formats=("csv", "json"), default="csv") -> None:
    if formats:
        parser.add_argument("--format", choices=formats, default=default)
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="urnlab",
        description="Numerical laboratory for the two-species Ehrenfest urn.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    p = sub.add_parser("curve", help="exact distance-to-stationarity curves")
    _add_model_flags(p)
    p.add_argument("--initial", default="corners", help="'corners', 'scan' or 'r,h'")
    _add_grid_flags(p)
    p.add_argument(
        "--chain", action="store_true", help="add the full-chain distance column"
    )
    _add_output_flags(p)
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("bounds", help="certified bound table, optional exact column")
    _add_model_flags(p)
    p.add_argument("--initial", default="corners", help="'corners', 'scan' or 'r,h'")
    _add_grid_flags(p)
    p.add_argument(
        "--exact",
        action="store_true",
        help="add the exact distance column and check the bound sandwich",
    )
    _add_output_flags(p)
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("classify", help="cutoff-regime report for a family")
    p.add_argument("--m-rule", required=True, help="'fixed:c', 'power:b' or 'sqrtexp:c,l'")
    p.add_argument("--alpha-rule", required=True, help="'const:a' or 'invlog:a'")
    p.add_argument("--sizes", required=True, help="comma-separated ball counts")
    p.add_argument("--mode", choices=("extrapolate", "declared"), default="extrapolate")
    p.add_argument("--gamma-inf", type=float, default=None)
    p.add_argument("--tilde-gamma-inf", type=float, default=None)
    p.add_argument("--ell", type=float, default=None, help="finite value or 'inf'")
    p.add_argument("--m-diverges", action="store_true")
    p.add_argument("--ratio", choices=("auto", "never"), default="auto")
    p.add_argument(
        "--epsilon", type=float, default=0.25, help="mixing threshold for the ratio"
    )
    _add_output_flags(p, formats=())
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("negdep", help="negative-dependence certificate table")
    _add_model_flags(p)
    p.add_argument("--t-start", type=float, required=True, help="evaluation time")
    p.add_argument(
        "--max-size", type=int, default=None, help="largest subset size (default N)"
    )
    p.add_argument("--brute", choices=("auto", "never", "always"), default="auto")
    _add_output_flags(p, formats=())
    p.set_defaults(handler=cmd_negdep)

    p = sub.add_parser("simulate", help="Monte Carlo draws or summary")
    _add_model_flags(p)
    p.add_argument("--initial", default="0,0", help="start state 'r,h'")
    p.add_argument("--t-start", type=float, required=True, help="evaluation time")
    p.add_argument("--samples", type=int, required=True, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=("coupled", "ctmc"), default="coupled")
    _add_output_flags(p)
    p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except CapacityError as exc:
        print(f"urnlab: capacity guard: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except phase.ContradictionError as exc:
        print(f"urnlab: contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except InvariantViolation as exc:
        print(
            "urnlab: MATHEMATICAL INVARIANT VIOLATED (an implementation bug "
            f"or a counterexample to a proved inequality): {exc}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"urnlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"urnlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _emit(text, args.out)
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
