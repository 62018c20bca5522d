import csv
import io
import json
import math
import os

import pytest

from subharnack.cli import parse_and_dispatch
from subharnack.subordinator import StableSubordinator, exp_moment
from subharnack.verify import SweepReport, _report, _unchecked

# the exponential-moment series tolerance loosened a little: CLI smoke
# tests need speed, the numerical accuracy itself is covered elsewhere
FAST = ["--rel-tol", "1e-8"]


def run_cli(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_config_dict():
    return {
        "base": {"kind": "gauss_heat", "d": 1},
        "alphas": [0.75],
        "ts": [1.0],
        "ps": [2.0],
        "point_pairs": [[0.0, 1.0]],
        "functions": [{"kind": "gauss_bump"}],
        "quadrature": {"rel_tol": 1e-8, "abs_tol": 1e-11},
        "checks": ["base_harnack", "subordinated_harnack"],
        "seed": 0,
    }


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(small_config_dict()))
    return str(path)


class TestDensity:
    # (1e-200, 1e-300): the scale t^2 underflows; the density takes it as
    # log t / alpha
    @pytest.mark.parametrize("t, s", [("1", "1"), ("1e-200", "1e-300")])
    def test_levy_value(self, capsys, t, s):
        code, out, _ = run_cli(capsys, "density", "--alpha", "0.5",
                               "--t", t, "--s", s)
        assert code == 0
        t, s = float(t), float(s)
        expect = math.exp(math.log(t) - 1.5 * math.log(s) - 0.5 * math.log(4 * math.pi)
                          - math.exp(2 * math.log(t) - math.log(4 * s)))
        assert math.isclose(float(out), expect, rel_tol=1e-12)

    def test_seventeen_digit_format(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--alpha", "0.5",
                               "--t", "1", "--s", "1")
        # %.17g round-trips doubles exactly; the printed string must be
        # the canonical 17-significant-digit rendering of its own value
        assert out.strip() == f"{float(out):.17g}"
        assert len(out.strip()) >= 17

    @pytest.mark.parametrize("argv", [
        ["density", "--alpha", "0.5", "--t", "1", "--s", "1", "--rel-tol", "1e-8"],
        ["density", "--alpha", "0.5", "--t", "1", "--s", "1", "--abs-tol", "1e-11"],
        ["expmoment", "--alpha", "0.5", "--t", "2", "--delta", "0.5",
         "--abs-tol", "1e-11"],
        ["kernel", "--alpha", "0.5", "--t", "1", "--x", "0", "--y", "0",
         "--rel-tol", "1e-8"],
        ["kernel", "--alpha", "0.5", "--t", "1", "--x", "0", "--y", "0",
         "--abs-tol", "1e-11"],
        # sweeps run serially; no worker count is read
        ["sweep", "--config", "sweep.json", "--threads", "2"],
        ["verify", "--check", "base_harnack", "--config", "sweep.json",
         "--threads", "2"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_tolerance_flags_nothing_reads_are_rejected(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err

    def test_bad_domain_is_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "density", "--alpha", "0.5",
                               "--t", "1", "--s", "-1")
        assert code == 1
        assert "error" in err


class TestMoment:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--alpha", "0.5",
                               "--t", "2", "--r", "1")
        assert code == 0
        assert math.isclose(float(out), 0.5, rel_tol=1e-14)

    def test_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "moment", "--alpha", "1.0",
                               "--t", "2", "--r", "3")
        assert code == 0
        assert math.isclose(float(out), 0.125, rel_tol=1e-14)

    def test_log_domain_past_the_scale_float_range(self, capsys):
        # t**(1/alpha) = 1e320 overflows; the log-domain moment does not
        code, out, _ = run_cli(capsys, "moment", "--alpha", "0.5",
                               "--t", "1e160", "--r", "1")
        assert code == 0
        assert math.isclose(float(out), 2e-320, rel_tol=1e-3)


class TestExpMoment:
    def test_convergent(self, capsys):
        code, out, _ = run_cli(capsys, "expmoment", "--alpha", "0.5",
                               "--t", "2", "--delta", "0.5", *FAST)
        assert code == 0
        assert float(out) > 1.0

    def test_far_peak_converges(self, capsys):
        # log E exp(1/S) = 73505.05: the terms peak at n ~ 404,000, and the
        # value is past float range
        code, out, err = run_cli(capsys, "expmoment", "--alpha", "0.55",
                                 "--t", "0.5", "--delta", "1")
        assert (code, err) == (0, "")
        assert float(out) >= 1.0

    @pytest.mark.parametrize("alpha,t,delta,want", [
        # exp of the float log, to its digits (mpmath: 6.87700572410045e+31922
        # and 1.97007111401705e+434)
        ("0.55", "0.5", "1", "6.877005724e+31922"),
        ("1", "0.01", "10", "1.97007111402e+434"),
    ])
    def test_value_past_float_range_is_printed_from_its_log(
            self, capsys, alpha, t, delta, want):
        code, out, err = run_cli(capsys, "expmoment", "--alpha", alpha,
                                 "--t", t, "--delta", delta)
        assert (code, out, err) == (0, want + "\n", "")
        log_value = exp_moment(StableSubordinator(float(alpha), float(t)),
                               float(delta), 1.0).log_value
        mantissa, exponent = want.split("e+")
        # as many significant digits as the spacing of the float log leaves
        digits = len(mantissa.replace(".", ""))
        assert digits == int(-math.log10(math.ulp(log_value)))
        assert 1.0 <= float(mantissa) < 10.0
        assert int(exponent) == math.floor(log_value / math.log(10.0))
        log_printed = math.log(float(mantissa)) + int(exponent) * math.log(10.0)
        assert abs(log_printed - log_value) <= 10.0 ** (1 - digits)

    def test_divergent_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "expmoment", "--alpha", "0.5",
                               "--t", "1", "--delta", "0.5", *FAST)
        assert code == 2
        assert "diverges" in err

    def test_below_boundary_message(self, capsys):
        code, _, err = run_cli(capsys, "expmoment", "--alpha", "0.4",
                               "--t", "1", "--delta", "0.1", *FAST)
        assert code == 2
        assert "series diverges: alpha below kappa/(kappa+1)" in err

    def test_boundary_message_names_the_ratio(self, capsys):
        code, _, err = run_cli(capsys, "expmoment", "--alpha", "0.5",
                               "--t", "1", "--delta", "0.5", *FAST)
        assert code == 2
        assert "boundary index with geometric term ratio 2 >= 1" in err

    def test_boundary_ratio_past_float_range_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "expmoment", "--alpha", repr(300 / 301),
                                 "--kappa", "300", "--t", "0.001",
                                 "--delta", "1", *FAST)
        assert (code, out) == (2, "")
        assert err == ("series diverges: boundary index with "
                       "geometric term ratio inf >= 1\n")


class TestBound:
    def test_base_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "base-exponent",
                               "--p", "2", "--K", "0", "--t", "1",
                               "--rho-sq", "1")
        assert code == 0
        assert math.isclose(float(out), 0.5, rel_tol=1e-14)

    def test_simplified_vs_intermediate(self, capsys):
        args = ["--p", "2", "--alpha", "0.75", "--t", "1", "--H", "1"]
        _, simp, _ = run_cli(capsys, "bound", "--kind", "simplified", *args)
        _, inter, _ = run_cli(capsys, "bound", "--kind", "intermediate", *args)
        assert float(inter) <= float(simp)

    def test_prop13_fields(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "prop13",
                               "--p", "2", "--t", "2", "--H", "0.5")
        assert code == 0
        assert "valid_domain=true" in out and "exact_ratio=" in out

    def test_prop13_ratio_past_float_range(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--kind", "prop13",
                                 "--kappa", "300", "--t", "0.001")
        assert (code, err) == (0, "")
        assert out == "valid_domain=false factor=inf exact_ratio=inf\n"

    def test_log_harnack_alpha_one(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--kind", "log-harnack",
                               "--alpha", "1", "--t", "2", "--H", "0.25",
                               "--eps", "0")
        assert code == 0
        assert math.isclose(float(out), 0.125, rel_tol=1e-14)

    def test_out_of_domain_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--kind", "simplified",
                               "--alpha", "0.5", "--t", "1")
        assert code == 1


class TestKernel:
    def test_cauchy_value(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--base", "gauss_heat",
                               "--alpha", "0.5", "--t", "1",
                               "--x", "0", "--y", "0")
        assert code == 0
        assert math.isclose(float(out), 1.0 / math.pi, rel_tol=1e-8)

    def test_multidim_point(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--base", "gauss_heat",
                               "--d", "2", "--alpha", "0.5", "--t", "1",
                               "--x", "0", "0", "--y", "1", "0")
        assert code == 0
        expect = 0.5 / math.pi * 1.0 / 2.0 ** 1.5
        assert math.isclose(float(out), expect, rel_tol=1e-8)

    def test_dimension_mismatch_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--base", "gauss_heat",
                               "--alpha", "0.5", "--t", "1",
                               "--x", "0", "0", "--y", "1")
        assert code == 1

    def test_diagonal_past_scale_float_range(self, capsys):
        # the scale t^2 is past float range, the Poisson diagonal 1/(pi t) not
        code, out, _ = run_cli(capsys, "kernel", "--alpha", "0.5",
                               "--t", "1e160", "--x", "0", "--y", "0")
        assert code == 0
        assert math.isclose(float(out), 1.0 / (math.pi * 1e160), rel_tol=1e-12)

    def test_ou_past_scale_float_range_is_stationary(self, capsys):
        # the scale t^2 is past float range; OU's density is then the
        # standard normal density at y
        code, out, _ = run_cli(capsys, "kernel", "--base", "ou1d",
                               "--alpha", "0.5", "--t", "1e160",
                               "--x", "0", "--y", "0.5")
        assert code == 0
        want = math.exp(-0.125) / math.sqrt(2.0 * math.pi)
        assert math.isclose(float(out), want, rel_tol=1e-12)

    def test_off_diagonal_past_float_range_exit_1(self, capsys):
        # rho^2 / (4 t^2) is past float range at t = 1e-200
        code, out, err = run_cli(capsys, "kernel", "--alpha", "0.5",
                                 "--t", "1e-200", "--x", "0", "--y", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "t=1e-200, alpha=0.5" in err


class TestVerify:
    def test_single_check(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "verify", "--check", "base_harnack",
                               "--config", config_path)
        assert code == 0
        line = out.splitlines()[0]
        assert line.startswith("base_harnack:") and line.endswith(" holds")

    @pytest.mark.parametrize("lhs, status, code", [
        (1.0 + 1e-8, "holds", 0),       # above rhs but inside the band
        (1.0 + 1e-6, "violated", 3),    # beyond the band
    ])
    def test_line_status_agrees_with_exit_code(self, capsys, config_path,
                                               monkeypatch, lhs, status, code):
        # the config's rel_tol is 1e-8, so the band is rhs * (1 + 1e-7)
        def fake_run_sweep(config):
            return SweepReport([_report(lhs, 1.0, "closed_form", "",
                                        config.quadrature.rel_tol,
                                        {"check": "base_harnack"})])

        monkeypatch.setattr("subharnack.cli.run_sweep", fake_run_sweep)
        got, out, _ = run_cli(capsys, "verify", "--check", "base_harnack",
                              "--config", config_path)
        assert got == code
        line = out.splitlines()[0]
        assert line.startswith("base_harnack:") and line.endswith(f" {status}")

    @pytest.mark.parametrize("status", ["out_of_domain", "non_converged"])
    def test_unchecked_entry_prints_its_status(self, capsys, config_path,
                                              monkeypatch, status):
        def fake_run_sweep(config):
            return SweepReport([_unchecked(status, "series", "",
                                           {"check": "base_harnack"})])

        monkeypatch.setattr("subharnack.cli.run_sweep", fake_run_sweep)
        code, out, _ = run_cli(capsys, "verify", "--check", "base_harnack",
                               "--config", config_path)
        assert code == 0
        assert out.splitlines()[0].endswith(f" {status}")

    def test_unknown_check_rejected(self, capsys, config_path):
        code, _, _ = run_cli(capsys, "verify", "--check", "harnak",
                             "--config", config_path)
        assert code == 1


class TestSweep:
    def test_json_output(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "sweep", "--config", config_path,
                               "--output", str(out_path))
        assert code == 0, err
        report = json.loads(out_path.read_text())
        assert report["summary"]["violated"] == 0
        assert len(report["entries"]) == 4

    def test_csv_columns(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "sweep", "--config", config_path,
                               "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == ("check,alpha,kappa,p,t,d,x,y,f,mode,"
                          "lhs,rhs,slack,valid_domain,status,method")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert [row["status"] for row in rows] == ["holds"] * 4

    def test_deterministic_output(self, capsys, config_path):
        _, a, _ = run_cli(capsys, "sweep", "--config", config_path)
        _, b, _ = run_cli(capsys, "sweep", "--config", config_path)
        assert a == b

    def test_threads_env_var(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("SUBHARNACK_THREADS", "3")
        _, a, _ = run_cli(capsys, "sweep", "--config", config_path)
        monkeypatch.delenv("SUBHARNACK_THREADS")
        _, b, _ = run_cli(capsys, "sweep", "--config", config_path)
        assert a == b

    def test_seed_moves_the_monte_carlo_streams(self, capsys, tmp_path):
        d = small_config_dict()
        d.update(checks=["laplace_mc"], alphas=[0.6, 0.8], ts=[0.5, 1.0],
                 mc={"n_samples": 500, "seed": 3})
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(d))

        def sweep(*seed):
            code, out, err = run_cli(capsys, "sweep", "--config", str(path),
                                     *seed)
            assert code == 0, err
            return out

        entries = {seed: json.loads(sweep("--seed", seed))["entries"]
                   for seed in ("0", "7")}
        assert all(a["detail"] != b["detail"]
                   for a, b in zip(entries["0"], entries["7"]))
        assert sweep("--seed", "7") == sweep("--seed", "7")
        assert sweep("--seed", "0") == sweep()  # the config's seed is 0

    def test_missing_config_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config",
                               str(tmp_path / "nope.json"))
        assert code == 1

    def test_bad_config_field_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        d = small_config_dict()
        d["tolerence"] = 1e-8
        path.write_text(json.dumps(d))
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert "unknown" in err

    @pytest.mark.parametrize("change, path", [
        ({"base": {"kind": "ou1d"}, "checks": ["prop13"]}, "checks: ['prop13']"),
        ({"base": {"kind": "ou1d"}, "checks": ["ondiag_rate"]},
         "checks: ['ondiag_rate']"),
        ({"ts": [-1.0]}, "config.ts"),
        ({"checks": ["ondiag_rate"], "rate_ts": [1, 2, 3]}, "config.rate_ts"),
        # json writes and reads NaN, which the sweep once took as a slope
        # and reported as violations with lhs = rhs = nan
        ({"functions": [{"kind": "exp_affine", "slope": math.nan}]},
         "config.functions[0]: slope and clip must be finite"),
        # each once ended the sweep with a TypeError traceback from the
        # stream seed or numpy
        *(({"checks": ["laplace_mc"], "mc": {"n_samples": 10, **mc}},
           f"config.mc: {name} must be an integer")
          for mc, name in (({"seed": 1.5}, "seed"), ({"seed": None}, "seed"),
                           ({"seed": [1, 2]}, "seed"),
                           ({"n_samples": 1000.5}, "n_samples"))),
        # 10^400 once ended the sweep with an OverflowError traceback
        ({"functions": [{"kind": "constant", "c": 10.0}], "ps": [400.0]},
         "c ** p is past float range at c=10.0, p=400.0"),
        # a finite slope whose power is not: named, not "must be finite"
        ({"functions": [{"kind": "exp_affine", "slope": 1e307}], "ps": [20.0]},
         "slope * p is past float range at slope=1e+307, p=20.0"),
    ])
    def test_config_a_check_would_abort_on_exit_1(self, capsys, tmp_path,
                                                  change, path):
        d = small_config_dict()
        d.update(change)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "sweep", "--config", str(config))
        assert (code, out) == (1, "")
        assert path in err

    def test_one_monte_carlo_draw_exit_1(self, capsys, tmp_path):
        # a standard error needs two draws
        path = tmp_path / "one_draw.json"
        d = small_config_dict()
        d.update(checks=["laplace_mc"], mc={"n_samples": 1})
        path.write_text(json.dumps(d))
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1 and out == ""
        assert "config.mc" in err and "n_samples" in err


@pytest.mark.parametrize("argv", [
    # an exponential moment is printed from its log, so inf only where
    # the log itself is past float range
    ["expmoment", "--alpha", "1", "--t", "1e-300", "--delta", "1e10"],
    ["moment", "--alpha", "0.1", "--t", "1", "--r", "50"],
    ["moment", "--alpha", "1", "--t", "0.01", "--r", "200"],
    ["bound", "--kind", "log-harnack", "--alpha", "0.5", "--t", "1",
     "--kappa", "300"],
    ["bound", "--kind", "log-harnack", "--alpha", "0.01", "--t", "0.001"],
])
def test_value_past_float_range_prints_inf(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "inf\n"


def test_console_script_installed():
    import shutil

    exe = shutil.which("subharnack")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    import subprocess

    res = subprocess.run([exe, "moment", "--alpha", "0.5", "--t", "2",
                          "--r", "1"], capture_output=True, text=True)
    assert res.returncode == 0
    assert math.isclose(float(res.stdout), 0.5, rel_tol=1e-14)
