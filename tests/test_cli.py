"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main so exit codes and both output
streams can be asserted exactly.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import urnlab
from oracles import json_text_stdlib
from urnlab import ModelParams, bounds, cli, dist


def run_cli(argv, capsys):
    """Invoke the CLI, normalising argparse SystemExit into a return code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODEL = ["--n-balls", "10", "--heavy", "2", "--alpha", "0.5"]


class TestCurve:
    def test_single_point_at_zero(self, capsys):
        code, out, err = run_cli(["curve", *MODEL], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "# urnlab 0.1.0"
        assert "# subcommand = curve" in lines
        assert "# initial = corners" in lines
        assert "t,D_obs" in lines
        # worst corner at t = 0 sits a single atom away from stationarity
        t_text, d_text = lines[-1].split(",")
        assert t_text == "0"
        assert float(d_text) == pytest.approx(1.0 - 2.0**-10, abs=1e-13)
        assert out.endswith("\n")

    def test_chain_column(self, capsys):
        code, out, _ = run_cli(
            ["curve", *MODEL, "--chain", "--t-start", "0.7"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[lines.index("t,D_obs,D_chain")]
        assert header == "t,D_obs,D_chain"
        t, d_obs, d_chain = lines[-1].split(",")
        assert float(d_obs) <= float(d_chain) + 1e-15

    def test_geometric_single_point_matches_linear(self, capsys):
        base = ["curve", *MODEL, "--t-start", "2", "--t-points", "1"]
        _, out_lin, _ = run_cli([*base, "--t-spacing", "linear"], capsys)
        _, out_geo, _ = run_cli([*base, "--t-spacing", "geometric"], capsys)
        assert out_lin.splitlines()[-1] == out_geo.splitlines()[-1]

    def test_geometric_grid(self, capsys):
        argv = ["curve", *MODEL, "--t-start", "0.5", "--t-stop", "4", "--t-points", "4"]
        code, out, err = run_cli([*argv, "--t-spacing", "geometric"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        rows = [line.split(",") for line in lines[lines.index("t,D_obs") + 1 :]]
        times = [float(t) for t, _ in rows]
        assert times == pytest.approx([0.5, 1.0, 2.0, 4.0], rel=1e-15)
        assert (times[0], times[-1]) == (0.5, 4.0)
        curve = dist.distance_curve(ModelParams(10, 2, 0.5), ("observable",))
        assert [d for _, d in rows] == [format(curve(t)[0], ".17g") for t in times]

    def test_grid_is_monotone_decreasing(self, capsys):
        code, out, _ = run_cli(
            ["curve", *MODEL, "--t-start", "0", "--t-stop", "6", "--t-points", "7"],
            capsys,
        )
        assert code == 0
        data = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "t,"))]
        values = [float(v) for _, v in data]
        assert len(values) == 7
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            ["curve", *MODEL, "--t-start", "1", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "curve/1"
        assert payload["columns"] == ["t", "D_obs"]
        assert payload["config"]["n_balls"] == 10
        assert len(payload["rows"]) == 1

    def test_explicit_initial_state(self, capsys):
        code, out, _ = run_cli(
            ["curve", *MODEL, "--initial", "4,1", "--t-start", "0"], capsys
        )
        assert code == 0
        # starting at the stationary mode (5 of 10 left) leaves far less
        # distance than a corner
        assert float(out.splitlines()[-1].split(",")[1]) < 0.8

    @pytest.mark.parametrize(
        "initial, strategy", [("corners", "corners"), ("scan", "full_scan")]
    )
    def test_columns_equal_distance_curves(self, initial, strategy, capsys):
        argv = ["curve", *MODEL, "--initial", initial, "--chain", "--t-start", "0.2"]
        code, out, err = run_cli([*argv, "--t-stop", "5", "--t-points", "6"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        header = lines.index("t,D_obs,D_chain")
        rows = [line.split(",") for line in lines[header + 1 :]]
        assert len(rows) == 6
        params = ModelParams(10, 2, 0.5)
        observable = dist.distance_curve(params, ("observable",), strategy)
        chain = dist.distance_curve(params, ("chain",), strategy)
        for t_text, d_obs, d_chain in rows:
            t = float(t_text)
            assert d_obs == format(observable(t)[0], ".17g")
            assert d_chain == format(chain(t)[0], ".17g")

    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ["curve", *MODEL, "--t-start", "0.3", "--t-stop", "4", "--t-points", "9"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestCurveErrors:
    def test_zero_points_rejected(self, capsys):
        code, _, err = run_cli(["curve", *MODEL, "--t-points", "0"], capsys)
        assert code == 64
        assert "t-points" in err or "grid" in err

    def test_negative_start_rejected(self, capsys):
        code, _, _ = run_cli(["curve", *MODEL, "--t-start", "-1"], capsys)
        assert code == 64

    def test_multi_point_grid_needs_stop(self, capsys):
        code, _, _ = run_cli(["curve", *MODEL, "--t-points", "5"], capsys)
        assert code == 64

    def test_geometric_needs_positive_start(self, capsys):
        code, _, _ = run_cli(
            [
                "curve",
                *MODEL,
                "--t-start",
                "0",
                "--t-stop",
                "2",
                "--t-points",
                "4",
                "--t-spacing",
                "geometric",
            ],
            capsys,
        )
        assert code == 64

    @pytest.mark.parametrize("stop", ["2", "1"])
    def test_stop_must_exceed_start(self, stop, capsys):
        argv = ["curve", *MODEL, "--t-start", "2", "--t-stop", stop, "--t-points", "3"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (64, "")
        assert "--t-stop must exceed --t-start" in err

    @pytest.mark.parametrize(
        "initial, message",
        [("x", "must be 'corners', 'scan' or 'r,h'"), ("1,a", "must be integers")],
    )
    def test_malformed_initial(self, initial, message, capsys):
        code, out, err = run_cli(["curve", *MODEL, "--initial", initial], capsys)
        assert (code, out) == (64, "")
        assert message in err

    @pytest.mark.parametrize("subcommand", ["curve", "bounds"])
    def test_repeated_grid_times_rejected(self, subcommand, capsys):
        # ten points inside one ulp of t = 1 would print ten rows at one time
        code, out, err = run_cli(
            [
                subcommand,
                "--n-balls",
                "20",
                "--heavy",
                "2",
                "--alpha",
                "0.5",
                "--t-start",
                "1",
                "--t-stop",
                "1.0000000000000004",
                "--t-points",
                "10",
            ],
            capsys,
        )
        assert code == 64
        assert out == ""
        assert all(flag in err for flag in ("--t-points", "--t-start", "--t-stop"))

    @pytest.mark.parametrize("subcommand", ["curve", "bounds"])
    def test_single_point_grid_refuses_t_stop(self, subcommand, capsys):
        # one point evaluates --t-start only, so a --t-stop would be ignored
        code, out, err = run_cli(
            [subcommand, *MODEL, "--t-start", "1", "--t-stop", "5"], capsys
        )
        assert code == 64
        assert out == ""
        assert "--t-stop" in err and "--t-points" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(["curve", *MODEL, "--bogus", "1"], capsys)
        assert code == 64

    def test_bad_alpha(self, capsys):
        code, _, err = run_cli(
            ["curve", "--n-balls", "10", "--heavy", "2", "--alpha", "1.5"], capsys
        )
        assert code == 64
        assert "alpha" in err or "rate" in err

    def test_full_scan_capacity_guard(self, capsys):
        code, _, err = run_cli(
            [
                "curve",
                "--n-balls",
                "2000000",
                "--heavy",
                "3",
                "--alpha",
                "0.7",
                "--initial",
                "scan",
            ],
            capsys,
        )
        assert code == 2
        assert "capacity" in err


class TestBounds:
    ARGS = [
        "bounds",
        "--n-balls",
        "100",
        "--heavy",
        "20",
        "--alpha",
        "0.5",
        "--t-start",
        "0.5",
        "--t-stop",
        "6",
        "--t-points",
        "8",
    ]

    def test_column_order_without_exact(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        assert "t,lb_cheb,lb_kolm,lb_clt,ub_l2,ub_coupling_raw" in out.splitlines()

    def test_exact_column_and_sandwich(self, capsys):
        code, out, _ = run_cli([*self.ARGS, "--exact"], capsys)
        assert code == 0
        lines = out.splitlines()
        header = "t,lb_cheb,lb_kolm,lb_clt,exact,ub_l2,ub_coupling_raw"
        assert header in lines
        start = lines.index(header) + 1
        for line in lines[start:]:
            t, cheb, kolm, clt, exact, l2, raw = map(float, line.split(","))
            assert max(cheb, kolm) <= exact + 1e-9
            assert exact <= min(l2, min(1.0, raw)) + 1e-9

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            [
                "bounds",
                "--n-balls",
                "50",
                "--heavy",
                "10",
                "--alpha",
                "0.4",
                "--t-start",
                "1",
                "--exact",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "bounds/1"
        assert payload["columns"][4] == "exact"

    def test_columns_equal_bound_functions(self, capsys):
        code, out, _ = run_cli([*self.ARGS, "--exact", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        params = ModelParams(100, 20, 0.5)
        functions = {
            "lb_cheb": bounds.chebyshev_lower_bound,
            "lb_kolm": bounds.kolmogorov_lower_bound,
            "lb_clt": bounds.clt_lower_bound,
            "ub_l2": bounds.l2_upper_bound,
            "ub_coupling_raw": bounds.coupling_union_bound,
        }
        assert len(payload["rows"]) == 8
        for row in payload["rows"]:
            t = row[0]
            for column, fn in functions.items():
                assert row[payload["columns"].index(column)] == fn(params, t), column

    def test_calls_the_bound_module_attribute(self, monkeypatch, capsys):
        """A wrapper set on a bounds function's module attribute, as a tracer
        installs one, is what the table calls: once per grid time, with every
        printed byte unchanged."""
        _, plain, _ = run_cli([*self.ARGS, "--format", "json"], capsys)
        calls, l2_upper_bound = [], bounds.l2_upper_bound

        def counting(params, t):
            calls.append(t)
            return l2_upper_bound(params, t)

        monkeypatch.setattr(bounds, "l2_upper_bound", counting)
        code, out, _ = run_cli([*self.ARGS, "--format", "json"], capsys)
        assert code == 0
        assert out == plain  # the ub_l2 column among the rest
        assert calls == [row[0] for row in json.loads(out)["rows"]]
        assert len(calls) == 8

    def test_full_scan_guard_only_under_exact(self, capsys):
        """Without --exact the table needs no start, so a scan the guard
        refuses still prints its bounds; with --exact it exits 2."""
        argv = ["bounds", "--n-balls", "2000000", "--heavy", "3", "--alpha", "0.7"]
        argv += ["--initial", "scan", "--t-start", "5"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert "t,lb_cheb,lb_kolm,lb_clt,ub_l2,ub_coupling_raw" in out.splitlines()
        code, out, err = run_cli([*argv, "--exact"], capsys)
        assert code == 2
        assert out == ""
        assert "capacity guard" in err

    def test_large_n_at_zero_exits_cleanly(self, capsys):
        argv = ["bounds", "--n-balls", "2000", "--heavy", "20", "--alpha", "0.5"]
        code, out, err = run_cli([*argv, "--t-start", "0"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        columns = lines[-2].split(",")
        assert float(lines[-1].split(",")[columns.index("ub_l2")]) == 1.0

    def test_kolmogorov_column_at_most_one(self, capsys):
        argv = ["bounds", "--n-balls", "2000", "--heavy", "20", "--alpha", "0.5"]
        grid = ["--t-start", "0.5", "--t-stop", "5", "--t-points", "3", "--exact"]
        code, out, err = run_cli([*argv, *grid], capsys)
        assert code == 0, err
        lines = out.splitlines()
        header = lines.index("t,lb_cheb,lb_kolm,lb_clt,exact,ub_l2,ub_coupling_raw")
        kolm = [float(line.split(",")[2]) for line in lines[header + 1 :]]
        assert len(kolm) == 3
        assert max(kolm) <= 1.0


    def test_kolmogorov_column_at_most_exact_at_saturated_times(self, capsys):
        """At t = 1e308 every ball has been redrawn: both factor tables are
        their stationary binomials up to rounding and exact reads 0.  The
        absolute CDF gap read 2.2e-16 there; the signed, clamped gap does not
        pass exact."""
        grid = ["--t-start", "0", "--t-stop", "1e308", "--t-points", "3", "--exact"]
        code, out, err = run_cli(["bounds", *MODEL, *grid], capsys)
        assert code == 0, err
        lines = out.splitlines()
        header = lines.index("t,lb_cheb,lb_kolm,lb_clt,exact,ub_l2,ub_coupling_raw")
        rows = [[float(v) for v in line.split(",")] for line in lines[header + 1 :]]
        assert len(rows) == 3
        for row in rows:
            assert row[2] <= row[4]


@pytest.mark.parametrize(
    "argv, tables, stationary",
    [
        (["curve", "--chain"], 2, 3),
        (["bounds", "--exact"], 2, 1),
        (["bounds", "--exact", "--initial", "3,1"], 4, 1),
    ],
    ids=["curve-chain", "bounds-exact", "bounds-exact-pinned"],
)
def test_every_column_reads_one_set_of_tables_per_time(
    argv, tables, stationary, monkeypatch, capsys
):
    """All columns of a time come from one set of factor tables: each
    (count, ones_initial, rate, t) table is built once per time and each
    stationary table once per run.  From the corners the observable, the
    chain and the half-line gap all read (0, 0)'s two tables; a pinned start
    adds its own two.  Binomial(N, 1/2) is shared by D_obs or exact and
    lb_kolm; the chain adds Binomial(n, 1/2) and Binomial(m, 1/2)."""
    laws, binomials = [], []

    def counting_coordinate_law(count, ones_initial, rate, t):
        laws.append((count, ones_initial, rate, t))
        return coordinate_law(count, ones_initial, rate, t)

    def counting_binomial_pmf(trials, success_prob):
        binomials.append((trials, success_prob))
        return binomial_pmf(trials, success_prob)

    coordinate_law, binomial_pmf = dist.coordinate_law, dist.binomial_pmf
    monkeypatch.setattr(dist, "coordinate_law", counting_coordinate_law)
    monkeypatch.setattr(dist, "binomial_pmf", counting_binomial_pmf)
    model = ["--n-balls", "100", "--heavy", "20", "--alpha", "0.5"]
    grid = ["--t-start", "0.5", "--t-stop", "6", "--t-points", "4"]
    code, _, err = run_cli([argv[0], *model, *grid, *argv[1:]], capsys)
    assert code == 0, err
    assert len(laws) == len(set(laws)) == tables * 4
    assert len(binomials) == len(set(binomials))
    assert sum(p == 0.5 for _, p in binomials) == stationary


class TestClassify:
    BASE = ["classify", "--ratio", "never"]

    def _classify(self, capsys, *extra):
        code, out, err = run_cli([*self.BASE, *extra], capsys)
        return code, (json.loads(out) if code == 0 else None), err

    def test_insensitivity_family(self, capsys):
        code, payload, _ = self._classify(
            capsys,
            "--m-rule",
            "power:0.25",
            "--alpha-rule",
            "const:0.9",
            "--sizes",
            "1000,10000,100000",
        )
        assert code == 0
        assert payload["schema"] == "regime-report/1"
        assert payload["observable_regime"] == "Insensitivity"
        assert payload["chain_regime"] == "Insensitivity"
        assert payload["config"]["m_rule"] == "power:0.25"

    def test_delayed_cutoff_family(self, capsys):
        code, payload, _ = self._classify(
            capsys,
            "--m-rule",
            "power:0.75",
            "--alpha-rule",
            "const:0.2",
            "--sizes",
            "1000,10000,100000",
        )
        assert code == 0
        assert payload["observable_regime"] == "DelayedCutoff"
        assert payload["ell"] is None
        assert payload["ell_diverges"] is True

    def test_no_cutoff_family(self, capsys):
        code, payload, _ = self._classify(
            capsys,
            "--m-rule",
            "sqrtexp:1,2",
            "--alpha-rule",
            "invlog:1",
            "--sizes",
            "1000,10000,100000",
        )
        assert code == 0
        assert payload["observable_regime"] == "NoCutoff"
        assert payload["chain_regime"] == "DelayedCutoff"
        assert abs(payload["ell"] - 2.0) < 2e-3

    def test_empty_heavy_family_serialises_infinities(self, capsys):
        # m = 0 pins every exponent at -inf; strict JSON still parses because
        # non-finite floats are emitted as strings
        code, payload, _ = self._classify(
            capsys,
            "--m-rule",
            "fixed:0",
            "--alpha-rule",
            "const:1.0",
            "--sizes",
            "100,1000",
        )
        assert code == 0
        assert payload["gamma_inf"] == "-inf"
        assert payload["samples"][0]["beta"] == "-inf"
        assert payload["observable_regime"] == "Insensitivity"

    def test_declared_mode(self, capsys):
        code, payload, _ = self._classify(
            capsys,
            "--m-rule",
            "power:0.75",
            "--alpha-rule",
            "const:0.2",
            "--sizes",
            "1000,10000",
            "--mode",
            "declared",
            "--gamma-inf",
            "1.5",
            "--tilde-gamma-inf",
            "0.55",
            "--m-diverges",
            "--ell",
            "inf",
        )
        assert code == 0
        assert payload["mode"] == "declared"
        assert payload["observable_regime"] == "DelayedCutoff"
        assert payload["config"]["ell"] == "inf"
        assert list(payload["config"].items())[-4:] == [
            ("gamma_inf", 1.5),
            ("tilde_gamma_inf", 0.55),
            ("m_diverges", True),
            ("ell", "inf"),
        ]

    def test_declared_contradiction_exits_65(self, capsys):
        code, _, err = run_cli(
            [
                *self.BASE,
                "--m-rule",
                "power:0.75",
                "--alpha-rule",
                "const:0.2",
                "--sizes",
                "1000,10000",
                "--mode",
                "declared",
                "--gamma-inf",
                "0.5",
                "--tilde-gamma-inf",
                "-0.1",
                "--m-diverges",
                "--ell",
                "inf",
            ],
            capsys,
        )
        assert code == 65
        assert "contradiction" in err

    def test_declared_mode_needs_limit_flags(self, capsys):
        code, _, err = run_cli(
            [
                *self.BASE,
                "--m-rule",
                "fixed:1",
                "--alpha-rule",
                "const:1.0",
                "--sizes",
                "100,1000",
                "--mode",
                "declared",
            ],
            capsys,
        )
        assert code == 64
        assert "--gamma-inf" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--gamma-inf", "0"], "declared limits need --mode declared, got --gamma-inf"),
            (["--tilde-gamma-inf", "0.5"], "declared limits need --mode declared, got "
             "--tilde-gamma-inf"),
            (["--m-diverges"], "declared limits need --mode declared, got --m-diverges"),
            (["--ell", "2.0"], "declared limits need --mode declared, got --ell"),
            (
                ["--gamma-inf", "1.0", "--tilde-gamma-inf", "0.5", "--m-diverges",
                 "--ell", "2.0"],
                "declared limits need --mode declared, got --gamma-inf, "
                "--tilde-gamma-inf, --m-diverges, --ell",
            ),
            (["--epsilon", "nan"], "ratio_epsilon must lie strictly between 0 and 1"),
            (["--epsilon", "7"], "ratio_epsilon must lie strictly between 0 and 1"),
        ],
        ids=["gamma", "tilde-gamma", "m-diverges", "ell", "all-limits", "epsilon-nan",
             "epsilon-7"],
    )
    def test_refusals_exit_64(self, extra, message, capsys):
        # declared limits outside declared mode would be dropped unechoed, and an
        # --epsilon outside (0, 1) under --ratio never would be echoed as a threshold
        code, _, err = self._classify(capsys, *FAMILY, *extra)
        assert code == 64
        assert err == f"urnlab: error: {message}\n"

    def test_ratio_auto_reports_size(self, capsys):
        code, out, _ = run_cli(
            [
                "classify",
                "--m-rule",
                "fixed:1",
                "--alpha-rule",
                "const:1.0",
                "--sizes",
                "100,1000",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio_size"] == 1000
        assert 3.0 < payload["product_condition_ratio"] < 5.0

    def test_malformed_rule_exits_64(self, capsys):
        code, _, _ = run_cli(
            [
                *self.BASE,
                "--m-rule",
                "cubic:2",
                "--alpha-rule",
                "const:1.0",
                "--sizes",
                "100,1000",
            ],
            capsys,
        )
        assert code == 64


class TestNegdep:
    def test_certificate_passes(self, capsys):
        code, out, err = run_cli(
            [
                "negdep",
                "--n-balls",
                "10",
                "--heavy",
                "3",
                "--alpha",
                "0.7",
                "--t-start",
                "1.0",
            ],
            capsys,
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["schema"] == "negdep-report/1"
        assert payload["passed"] is True
        assert payload["min_slack"] >= -1e-12
        assert len(payload["rows"]) == 10
        # C(10, 3) = 120 is tiny, so auto mode brings the brute check along
        assert all(row["brute"] is not None for row in payload["rows"])
        assert payload["brute_max_error"] <= 1e-12

    def test_iid_species_slack_is_zero(self, capsys):
        code, out, _ = run_cli(
            [
                "negdep",
                "--n-balls",
                "8",
                "--heavy",
                "2",
                "--alpha",
                "1.0",
                "--t-start",
                "0.9",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        for row in payload["rows"]:
            assert abs(row["slack"]) <= 1e-12

    def test_max_size_over_n_rejected(self, capsys):
        code, _, _ = run_cli(
            [
                "negdep",
                "--n-balls",
                "10",
                "--heavy",
                "3",
                "--alpha",
                "0.7",
                "--t-start",
                "1.0",
                "--max-size",
                "11",
            ],
            capsys,
        )
        assert code == 64

    def test_t_start_is_required(self, capsys):
        code, _, _ = run_cli(
            ["negdep", "--n-balls", "10", "--heavy", "3", "--alpha", "0.7"], capsys
        )
        assert code == 64


class TestInvariantExits:
    """Every exit-3 path, driven by a library call replaced with a wrong one."""

    @pytest.mark.parametrize("kolm, exact", [(0.0, 1.5), (0.9, 0.1)], ids=["above", "below"])
    def test_broken_sandwich(self, kolm, exact, monkeypatch, capsys):
        monkeypatch.setattr(
            dist, "distance_curve", lambda params, targets, strategy: lambda t: (kolm, exact)
        )
        code, out, err = run_cli(["bounds", *MODEL, "--t-start", "1", "--exact"], capsys)
        assert (code, out) == (3, "")
        assert "MATHEMATICAL INVARIANT VIOLATED" in err
        assert "bound sandwich broken at t=1" in err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"min_slack": -1e-6, "passed": False}, "negative dependence failed"),
            ({"brute_max_error": 1e-9}, "brute-force joint moments disagree"),
        ],
        ids=["failed", "brute_mismatch"],
    )
    def test_negdep_failures(self, change, message, monkeypatch, capsys):
        real = cli.negdep.verify_negative_dependence
        monkeypatch.setattr(
            cli.negdep,
            "verify_negative_dependence",
            lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), **change),
        )
        code, out, err = run_cli(["negdep", *MODEL, "--t-start", "1"], capsys)
        assert (code, out) == (3, "")
        assert "MATHEMATICAL INVARIANT VIOLATED" in err
        assert message in err

    def test_runtime_error_is_a_numerical_failure(self, monkeypatch, capsys):
        # a chain distance that never falls makes the ratio's mixing search
        # raise NoCrossingError, a RuntimeError
        monkeypatch.setattr(dist, "distance_curve", lambda params, targets: lambda t: (0.5,))
        argv = ["classify", "--m-rule", "power:0.5", "--alpha-rule", "const:0.5"]
        code, out, err = run_cli([*argv, "--sizes", "100,400"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("urnlab: numerical failure: chain distance stayed above 0.25")


@pytest.mark.parametrize(
    "argv",
    [
        ["negdep", *MODEL, "--t-start", "1"],
        ["simulate", *MODEL, "--t-start", "1", "--samples", "5"],
    ],
    ids=["negdep", "simulate"],
)
def test_single_time_subcommands_reject_grid_flags(argv, capsys):
    # these subcommands evaluate one time; a grid flag would be ignored silently
    code, out, _ = run_cli([*argv, "--t-points", "50"], capsys)
    assert code == 64
    assert out == ""


class TestSimulate:
    ARGS = [
        "simulate",
        "--n-balls",
        "30",
        "--heavy",
        "6",
        "--alpha",
        "0.5",
        "--t-start",
        "1.2",
        "--samples",
        "50",
        "--seed",
        "7",
    ]

    def test_repeat_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(self.ARGS, capsys)
        _, second, _ = run_cli(self.ARGS, capsys)
        assert first == second
        assert "index,regular_left,heavy_left,total_left" in first.splitlines()

    def test_csv_rows_are_valid_states(self, capsys):
        code, out, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        data = [
            line.split(",")
            for line in out.splitlines()
            if line and not line.startswith(("#", "index"))
        ]
        assert len(data) == 50
        for i, (idx, r, h, total) in enumerate(data):
            assert int(idx) == i
            assert 0 <= int(r) <= 24
            assert 0 <= int(h) <= 6
            assert int(total) == int(r) + int(h)

    def test_ctmc_adds_event_column(self, capsys):
        code, out, _ = run_cli([*self.ARGS, "--sampler", "ctmc"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert "index,regular_left,heavy_left,total_left,events" in lines
        assert "# sampler = ctmc" in lines

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            [*self.ARGS[:-2], "--samples", "200", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "simulate-summary/1"
        for key in (
            "empirical_mean",
            "empirical_variance",
            "exact_mean",
            "exact_variance",
            "tv_to_exact",
            "tv_bias_note",
            "tv_bias_bound",
        ):
            assert key in payload
        assert payload["tv_bias_bound"] == pytest.approx(math.sqrt(31 / 200))
        assert 0.0 <= payload["tv_to_exact"] <= 1.0

    def test_zero_samples_rejected(self, capsys):
        code, _, _ = run_cli([*self.ARGS[:-4], "--samples", "0"], capsys)
        assert code == 64

    def test_corners_initial_rejected(self, capsys):
        code, _, err = run_cli([*self.ARGS, "--initial", "corners"], capsys)
        assert code == 64
        assert "r,h" in err

    def test_ctmc_past_event_guard_is_refused(self, capsys):
        argv = ["simulate", *MODEL, "--t-start", "1e300", "--samples", "1",
                "--sampler", "ctmc"]
        started = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("urnlab: capacity guard:")


DECLARED = ["--mode", "declared", "--gamma-inf", "1.5", "--tilde-gamma-inf", "0.55"]
FAMILY = ["--m-rule", "power:0.75", "--alpha-rule", "const:0.2", "--sizes", "100,1000"]


@pytest.mark.parametrize(
    "argv",
    [
        ["negdep", *MODEL, "--t-start", "nan"],
        ["simulate", *MODEL, "--t-start", "nan", "--samples", "5"],
        ["curve", *MODEL, "--t-start", "nan"],
        ["bounds", *MODEL, "--t-start", "nan"],
        ["curve", *MODEL, "--t-start", "1", "--t-stop", "nan", "--t-points", "3"],
        ["classify", *FAMILY, "--mode", "declared", "--gamma-inf", "nan",
         "--tilde-gamma-inf", "nan"],
        ["classify", *FAMILY, *DECLARED, "--m-diverges", "--ell", "nan"],
        ["negdep", *MODEL, "--t-start", "inf"],
        ["simulate", *MODEL, "--t-start", "inf", "--samples", "5"],
        ["simulate", *MODEL, "--t-start", "inf", "--samples", "1", "--sampler", "ctmc"],
        ["curve", *MODEL, "--t-start", "inf"],
        ["bounds", *MODEL, "--t-start", "inf"],
        ["curve", *MODEL, "--t-start", "1", "--t-stop", "inf", "--t-points", "3"],
    ],
    ids=[
        "negdep", "simulate", "curve", "bounds", "t-stop", "declared-gamma",
        "declared-ell", "negdep-inf", "simulate-inf", "simulate-ctmc-inf",
        "curve-inf", "bounds-inf", "t-stop-inf",
    ],
)
def test_nan_input_is_a_usage_error(argv, capsys):
    # NaN fails every comparison and an infinite time has no law, so neither
    # may reach a result or a verdict
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == ""
    assert err.startswith("urnlab: error:")


@pytest.mark.parametrize(
    "m_rule",
    ["sqrtexp:1,2000", "power:inf"],
    ids=["overflow", "infinite"],
)
def test_family_rule_overflow_is_a_usage_error(m_rule, capsys):
    # the rule, not the program, is at fault: exit 64, never the invariant exit 3
    argv = ["classify", "--m-rule", m_rule, "--alpha-rule", "const:0.5",
            "--sizes", "100,1000", "--ratio", "never"]
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == ""
    assert err.startswith("urnlab: error: m-rule")


def test_classify_ratio_waits_for_the_relaxation_time(capsys):
    """m = 1, alpha = 0.001: the chain mixes at ln 2 / alpha, past 100 times
    both cutoff scales, so the ratio to the relaxation time is ln 2."""
    argv = ["classify", "--m-rule", "fixed:1", "--alpha-rule", "const:0.001",
            "--sizes", "1000,10000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert json.loads(out)["product_condition_ratio"] == pytest.approx(math.log(2), abs=1e-3)


def _config_keys(out):
    if out.startswith("{"):
        return list(json.loads(out)["config"])
    return [line[2:].split(" = ")[0] for line in out.splitlines()[1:] if line[:2] == "# "]


MODEL_KEYS = ["n_balls", "heavy", "alpha"]
GRID_KEYS = ["initial", "t_start", "t_stop", "t_points", "t_spacing"]
CLASSIFY_KEYS = ["m_rule", "alpha_rule", "sizes", "mode", "ratio", "epsilon"]
SIMULATE = ["simulate", *MODEL, "--t-start", "1", "--samples", "3"]
SIMULATE_KEYS = [*MODEL_KEYS, "initial", "t", "samples", "seed", "sampler"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["curve", *MODEL], [*MODEL_KEYS, *GRID_KEYS, "chain"]),
        (["bounds", *MODEL, "--format", "json"], [*MODEL_KEYS, *GRID_KEYS, "exact"]),
        (["classify", "--ratio", "never", *FAMILY], CLASSIFY_KEYS),
        (
            ["classify", "--ratio", "never", *FAMILY, *DECLARED, "--m-diverges",
             "--ell", "inf"],
            [*CLASSIFY_KEYS, "gamma_inf", "tilde_gamma_inf", "m_diverges", "ell"],
        ),
        (["negdep", *MODEL, "--t-start", "1"], [*MODEL_KEYS, "t", "max_size", "brute"]),
        (SIMULATE, SIMULATE_KEYS),
        ([*SIMULATE, "--format", "json"], SIMULATE_KEYS),
    ],
    ids=[
        "curve-csv", "bounds-json", "classify-extrapolate", "classify-declared",
        "negdep", "simulate-csv", "simulate-json",
    ],
)
def test_header_key_order(argv, keys, capsys):
    # the header echoes the flags in declaration order; a reordered or added
    # flag shows here
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert _config_keys(out) == ["subcommand", *keys]


def test_header_holds_resolved_values(capsys):
    _, out, _ = run_cli(["curve", *MODEL, "--t-start", "2"], capsys)
    assert "# t_stop = 2" in out.splitlines()
    _, out, _ = run_cli(["negdep", *MODEL, "--t-start", "1"], capsys)
    assert json.loads(out)["config"]["max_size"] == 10
    family = [*FAMILY[:4], "--sizes", "100, 1000,"]
    _, out, _ = run_cli(["classify", "--ratio", "never", *family], capsys)
    assert json.loads(out)["config"]["sizes"] == [100, 1000]


class TestOutputFile:
    def test_out_matches_stdout(self, tmp_path, capsys):
        argv = ["curve", *MODEL, "--t-start", "0.4", "--t-stop", "3", "--t-points", "5"]
        _, stdout_text, _ = run_cli(argv, capsys)
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli([*argv, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text


@dataclasses.dataclass(frozen=True)
class _Row:
    size: object
    value: object = None


@dataclasses.dataclass
class _Report:
    rows: object
    flag: object
    nested: object


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     1.7976931348623157e308, 1e16, 0.1, -2.5e-300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_STRINGS = st.one_of(
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f\n\t\r\b\f", "\u00e9\u2028",
                     "\U0001f600", "\ud800", "a\"b\\c"]),
    st.text(),
)
_SCALARS = st.one_of(
    _FLOATS, _STRINGS, st.booleans(), st.none(),
    st.integers(), st.sampled_from([0, -1, 2**63, 2**64, -(2**64), 10**40]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
        st.builds(_Row, children, children),
        st.builds(_Report, children, children, children),
    ),
    max_leaves=20,
)


class TestJsonWriter:
    """cli._json_text against the stdlib route it replaced: the document
    through oracles.json_safe, then json.dumps(indent=2, allow_nan=False)."""

    @given(
        config=st.dictionaries(_STRINGS, _VALUES, max_size=4),
        body=st.one_of(
            st.dictionaries(_STRINGS, _VALUES, max_size=4),
            st.builds(_Report, _VALUES, _VALUES, _VALUES),
        ),
    )
    @example(config={}, body={})
    @example(config={"e": [], "f": (), "g": {}}, body=_Report([], (), {}))
    @example(config={"rows": (_Row(1, -0.0), _Row(2, np.float64("nan")))},
             body={"x": [[[]], {"": {"": ()}}], "schema": "shadowed"})
    @settings(max_examples=150, deadline=None)
    def test_matches_stdlib_encoder(self, config, body):
        assert cli._json_text("test/1", config, body) == json_text_stdlib("test/1", config, body)

    def test_negdep_report_matches_stdlib_encoder(self):
        report = urnlab.verify_negative_dependence(ModelParams(40, 4, 0.2), 1.0, 40, "never")
        config = {"n_balls": 40, "max_size": 40, "brute": "never"}
        text = cli._json_text("negdep-report/1", config, report)
        assert text == json_text_stdlib("negdep-report/1", config, report)

    @pytest.mark.parametrize(
        "body",
        [{"k": {1: 2.0}}, {"k": {None: 1}}, {"k": [{(1, 2): 0}]}, _Row({2.5: "x"})],
        ids=["int", "none", "tuple", "in-dataclass"],
    )
    def test_non_str_key_raises_type_error(self, body):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._json_text("test/1", {}, body)

    @pytest.mark.parametrize(
        "leaf",
        [object(), np.int64(3), np.bool_(True), np.array([1.0]), {1, 2}, b"x", 1j, _Row],
        ids=["object", "int64", "bool_", "ndarray", "set", "bytes", "complex", "class"],
    )
    def test_non_serialisable_leaf_raises_type_error(self, leaf):
        for document in ({"k": leaf}, {"k": [leaf]}, _Row(leaf)):
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._json_text("test/1", {}, document)
            with pytest.raises(TypeError):
                json_text_stdlib("test/1", {}, document)


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert out.strip() == "urnlab 0.1.0"

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 64

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["mixup"], capsys)
        assert code == 64

    @pytest.mark.parametrize("module", ["urnlab", "urnlab.cli"])
    def test_import_loads_no_scipy(self, module):
        """scipy is a test-only oracle; importing scipy.special alone costs
        about 0.3 s of every CLI start.  A fresh interpreter must not load it."""
        src = Path(cli.__file__).resolve().parents[1]
        probe = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        result = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]"

    def test_public_surface(self):
        """The package exports exactly these names: an entry point that was
        removed for want of a caller does not come back unnoticed."""
        assert sorted(urnlab.__all__) == [
            "ALPHA_FLOOR",
            "CapacityError",
            "ContradictionError",
            "DeclaredLimits",
            "FULL_SCAN_LIMIT",
            "FamilySample",
            "InitialState",
            "MixingTimeResult",
            "ModelParams",
            "NegDepReport",
            "NegDepRow",
            "NoCrossingError",
            "ParamFamily",
            "Pmf",
            "PredictedTimes",
            "RegimeReport",
            "SampleBatch",
            "SurvivalPair",
            "__version__",
            "binomial_pmf",
            "brute_force_joint_moment",
            "chain_law",
            "chain_regime",
            "chain_tv",
            "chebyshev_lower_bound",
            "classify",
            "clt_lower_bound",
            "convolve",
            "coupling_union_bound",
            "distance_curve",
            "draw_stream",
            "empirical_pmf",
            "exact_chi_square",
            "factorial_moment_comparison",
            "gamma",
            "joint_moment",
            "kolmogorov_lower_bound",
            "l2_upper_bound",
            "mean_z",
            "mgf_compare",
            "mixing_time",
            "observable_mean_variance",
            "observable_regime",
            "observed_law",
            "observed_tv",
            "parse_alpha_rule",
            "parse_m_rule",
            "predicted_times",
            "product_chain_upper_bound",
            "product_condition_ratio",
            "sample_batch",
            "sample_coupled",
            "stationary_chain",
            "stationary_observed",
            "survival",
            "tilde_gamma",
            "tv",
            "tv_product",
            "validate_declared",
            "verify_negative_dependence",
        ]
        assert all(hasattr(urnlab, name) for name in urnlab.__all__)
