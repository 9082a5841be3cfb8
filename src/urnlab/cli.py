"""Command-line front end for the urn laboratory.

Emits exact distance curves, bound tables, regime reports, negative
dependence certificates, and Monte Carlo draws as CSV or JSON.  Every
output opens with a header echoing the resolved configuration and the
package version; identical invocations produce byte-identical output at a
fixed BLAS thread count.

Exit codes: 0 success, 2 capacity guard tripped, 3 mathematical invariant
violated (either an implementation bug or a counterexample to a proved
inequality; the message names the inequality), 64 usage error, 65
contradictory declared limits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import dist, mc, negdep, phase
from .model import (
    CapacityError,
    InitialState,
    ModelParams,
    ParamFamily,
    check_time,
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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(config: dict, columns: list[str], rows) -> str:
    lines = [f"# urnlab {__version__}"]
    lines += [f"# {key} = {_fmt(value)}" for key, value in config.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass type's field names in declaration order, read once per
    type; None for a type that is not a dataclass."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


_quote = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """json's spelling of a float; a non-finite one, which JSON has no number
    for, becomes its repr string ("inf", "-inf", "nan")."""
    text = float.__repr__(value)
    return text if math.isfinite(value) else _quote(text)


# json's text of each scalar type; a subclass (np.float64 is one of float)
# takes its base's entry
_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


@functools.cache
def _object_template(cls: type, newline: str) -> str:
    """A dataclass type's JSON object at the nesting `newline`, one %s per
    field value, its quoted names in declaration order."""
    inner = newline + "  "
    members = (f"{_quote(name)}: %s" for name in _field_names(cls))
    return f"{{{inner}{(',' + inner).join(members)}{newline}}}"


def _json_values(values, newline: str) -> list[str]:
    """Each value's JSON text at the nesting `newline`, scalars looked up."""
    return [
        text(value) if (text := _SCALAR_TEXT.get(type(value))) else _json_value(value, newline)
        for value in values
    ]


def _json_value(obj, newline: str) -> str:
    """obj as json.dumps(obj, indent=2, allow_nan=False) writes it at the
    nesting whose line break and indent is `newline`.

    A dataclass is written as the dict of its fields in declaration order and
    a tuple as a list; scalars take _SCALAR_TEXT's spellings.  A non-str key
    or any other leaf raises TypeError."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is not None:
        return text(obj)
    inner = newline + "  "
    names = _field_names(type(obj))
    if names is not None:
        parts = _json_values(map(obj.__getattribute__, names), inner)
        return _object_template(type(obj), newline) % tuple(parts) if parts else "{}"
    if isinstance(obj, (list, tuple)):
        parts = _json_values(obj, inner)
        return f"[{inner}{(',' + inner).join(parts)}{newline}]" if parts else "[]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        parts = map("{}: {}".format, map(_quote, obj), _json_values(obj.values(), inner))
        return f"{{{inner}{(',' + inner).join(parts)}{newline}}}" if obj else "{}"
    for base in (str, int, float):
        if isinstance(obj, base):
            return _SCALAR_TEXT[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(schema: str, config: dict, body) -> str:
    """The one JSON writer: {"schema", "config", **body}, where body is a dict
    or a report dataclass, whose fields become the keys in declaration order.
    One walk (_json_value) writes the text json.dumps(indent=2) would."""
    names = _field_names(type(body))
    if names is not None:
        body = {name: getattr(body, name) for name in names}
    return _json_value({"schema": schema, "config": config, **body}, "\n") + "\n"


def _table_text(args, schema: str, config: dict, columns: list[str], rows) -> str:
    if args.format == "csv":
        return _csv_text(config, columns, rows)
    return _json_text(schema, config, {"columns": columns, "rows": rows})


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _parse_initial(text: str):
    """Map the --initial flag onto a start-state strategy.

    "corners" and "scan" select the default starts (dist.distance_curve) and
    the guarded full scan; "r,h" pins one state.
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
    check_time(args.t_start, "--t-start")
    if args.t_points == 1:
        if args.t_stop is not None:
            raise ValueError("--t-stop needs --t-points > 1 (one point is --t-start)")
        return [float(args.t_start)]
    if args.t_stop is None:
        raise ValueError("--t-stop is required when --t-points > 1")
    check_time(args.t_stop, "--t-stop")
    if not args.t_stop > args.t_start:
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


def _config(args, **resolved) -> dict:
    """The header: every flag but --format and --out, in declaration order."""
    skip = ("format", "out", "handler")
    flags = {key: value for key, value in vars(args).items() if key not in skip}
    return {**flags, **resolved}  # a resolved value keeps its flag's place


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_curve(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    strategy = _parse_initial(args.initial)
    grid = _time_grid(args)
    columns = ["t", "D_obs"] + (["D_chain"] if args.chain else [])
    targets = ("observable", "chain") if args.chain else ("observable",)
    curve = dist.distance_curve(params, targets, strategy)
    rows = [[t, *curve(t)] for t in grid]
    config = _config(args, t_stop=grid[-1])
    return _table_text(args, "curve/1", config, columns, rows)


def cmd_bounds(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    strategy = _parse_initial(args.initial)
    grid = _time_grid(args)
    # Read through the module, so a wrapper set on its attribute is called.
    # The coupling bound comes raw (it starts at N); lb_clt is asymptotic, so
    # it is printed for reference and enters no check.
    cheb, clt, l2, coupling = (
        [bound(params, t) for t in grid]
        for bound in (
            bounds_mod.chebyshev_lower_bound,
            bounds_mod.clt_lower_bound,
            bounds_mod.l2_upper_bound,
            bounds_mod.coupling_union_bound,
        )
    )
    # lb_kolm certifies the all-right start alone, so it resolves no start;
    # only --exact resolves (and guards) the starts of --initial.  Both
    # columns come from one set of tables per time.
    targets = ("kolmogorov", "observable") if args.exact else ("kolmogorov",)
    curve = dist.distance_curve(params, targets, strategy)
    columns = list(zip(*(curve(t) for t in grid)))
    table = {"t": grid, "lb_cheb": cheb, "lb_kolm": columns[0], "lb_clt": clt}
    if args.exact:
        table["exact"] = columns[1]
        # Lower bounds certify the all-right start; comparing them against a
        # user-pinned different start would be meaningless, so the sandwich
        # check on that side needs a dominating strategy.  lb_kolm is the exact
        # distance from the all-right start, which such a strategy covers, so
        # that side cross-checks two reductions of the same tables: the CDF
        # gap at the likelihood-ratio crossing, found by one bisection, against
        # the mass of the interval {p > pi} less half the mass drift, found by
        # one bisection where it runs past an end of pi's search window, or by
        # bisection on each side of the ratio's peak (a Fibonacci search).
        lower_applies = isinstance(strategy, str) or strategy == InitialState(0, 0)
        for i, (t, exact) in enumerate(zip(grid, table["exact"])):
            lower = max(cheb[i], table["lb_kolm"][i])
            upper = min(l2[i], 1.0, coupling[i])
            if exact > upper + SANDWICH_TOL or (
                lower_applies and exact < lower - SANDWICH_TOL
            ):
                raise InvariantViolation(
                    f"bound sandwich broken at t={t:.17g}: exact={exact:.17g} "
                    f"outside [{lower:.17g}, {upper:.17g}]"
                )
    table["ub_l2"] = l2
    table["ub_coupling_raw"] = coupling
    config = _config(args, t_stop=grid[-1])
    rows = list(zip(*table.values()))
    return _table_text(args, "bounds/1", config, list(table), rows)


def cmd_classify(args) -> str:
    family = ParamFamily(
        m_rule=parse_m_rule(args.m_rule),
        alpha_rule=parse_alpha_rule(args.alpha_rule),
        sizes=tuple(int(s) for s in args.sizes.split(",") if s.strip()),
    )
    # each DeclaredLimits field has a like-named flag
    limits = {f.name: getattr(args, f.name) for f in fields(phase.DeclaredLimits)}
    declared = None
    if args.mode == "declared":
        if args.gamma_inf is None or args.tilde_gamma_inf is None:
            raise ValueError(
                "declared mode needs --gamma-inf and --tilde-gamma-inf "
                "(and --ell when gamma_inf >= 0)"
            )
        declared = phase.DeclaredLimits(**limits)
    else:
        # `is`, not `in`: a declared 0.0 equals False
        given = [name for name, v in limits.items() if v is not None and v is not False]
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValueError(f"declared limits need --mode declared, got {flags}")
    report = phase.classify(
        family, declared=declared, ratio=args.ratio, ratio_epsilon=args.epsilon
    )
    config = _config(args, sizes=list(family.sizes))
    if declared is None:  # the limits echo only in declared mode
        for name in limits:
            del config[name]
    return _json_text("regime-report/1", config, report)


def cmd_negdep(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    check_time(args.t, "--t-start")
    max_size = args.max_size if args.max_size is not None else params.total_balls
    report = negdep.verify_negative_dependence(
        params, args.t, max_size, brute_force=args.brute
    )
    if not report.passed:
        raise InvariantViolation(
            "negative dependence failed: min slack "
            f"{report.min_slack:.17g} below {negdep.SLACK_TOL:.17g} "
            f"(joint moment exceeded the product moment at t={args.t:.17g})"
        )
    if report.brute_max_error is not None and report.brute_max_error > BRUTE_MATCH_TOL:
        raise InvariantViolation(
            "closed-form and brute-force joint moments disagree by "
            f"{report.brute_max_error:.17g} (> {BRUTE_MATCH_TOL:.17g})"
        )
    return _json_text("negdep-report/1", _config(args, max_size=max_size), report)


def cmd_simulate(args) -> str:
    params = ModelParams(args.n_balls, args.heavy, args.alpha)
    init = _parse_initial(args.initial)
    if not isinstance(init, InitialState):
        raise ValueError("simulate needs an explicit --initial r,h start state")
    check_time(args.t, "--t-start")
    batch = mc.sample_batch(
        params, init, args.t, args.samples, args.seed, sampler=args.sampler
    )
    config = _config(args)
    totals = batch.outcomes[:, 0] + batch.outcomes[:, 1]
    if args.format == "csv":
        columns = ["index", "regular_left", "heavy_left", "total_left"]
        parts = [np.arange(batch.count), batch.outcomes, totals]
        if batch.event_counts is not None:
            columns.append("events")
            parts.append(batch.event_counts)
        return _csv_text(config, columns, np.column_stack(parts).tolist())
    empirical = mc.empirical_pmf(batch, projection="total")
    exact = dist.observed_law(params, init, args.t)
    summary = {
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
    return _json_text("simulate-summary/1", config, summary)


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


def _add_output_flags(parser, formats=("csv", "json")) -> None:
    if formats:
        parser.add_argument("--format", choices=formats, default="csv")
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
    p.add_argument("--ratio", choices=("auto", "never"), default="auto")
    p.add_argument(
        "--epsilon", type=float, default=0.25, help="mixing threshold for the ratio"
    )
    # declared limits in DeclaredLimits field order: the header echoes this order
    p.add_argument("--gamma-inf", type=float, default=None)
    p.add_argument("--tilde-gamma-inf", type=float, default=None)
    p.add_argument("--m-diverges", action="store_true")
    p.add_argument("--ell", type=float, default=None, help="finite value or 'inf'")
    _add_output_flags(p, formats=())
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("negdep", help="negative-dependence certificate table")
    _add_model_flags(p)
    p.add_argument(
        "--t-start", dest="t", metavar="T_START", type=float, required=True,
        help="evaluation time",
    )
    p.add_argument(
        "--max-size", type=int, default=None, help="largest subset size (default N)"
    )
    p.add_argument("--brute", choices=("auto", "never", "always"), default="auto")
    _add_output_flags(p, formats=())
    p.set_defaults(handler=cmd_negdep)

    p = sub.add_parser("simulate", help="Monte Carlo draws or summary")
    _add_model_flags(p)
    p.add_argument("--initial", default="0,0", help="start state 'r,h'")
    p.add_argument(
        "--t-start", dest="t", metavar="T_START", type=float, required=True,
        help="evaluation time",
    )
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
