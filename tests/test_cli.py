"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main so exit codes and both output
streams can be asserted exactly.
"""

import json
import math

import pytest

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
        observable = dist.distance_curve(params, "observable", strategy)
        chain = dist.distance_curve(params, "chain", strategy)
        for t_text, d_obs, d_chain in rows:
            t = float(t_text)
            assert d_obs == format(observable(t), ".17g")
            assert d_chain == format(chain(t), ".17g")

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


class TestOutputFile:
    def test_out_matches_stdout(self, tmp_path, capsys):
        argv = ["curve", *MODEL, "--t-start", "0.4", "--t-stop", "3", "--t-points", "5"]
        _, stdout_text, _ = run_cli(argv, capsys)
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli([*argv, "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text


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
