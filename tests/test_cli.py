import json
import math
import os

import pytest

from subharnack.cli import parse_and_dispatch
from subharnack.verify import SweepReport, _report

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
    def test_levy_value(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--alpha", "0.5",
                               "--t", "1", "--s", "1")
        assert code == 0
        expect = (4 * math.pi) ** -0.5 * math.exp(-0.25)
        assert math.isclose(float(out), expect, rel_tol=1e-10)

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


class TestExpMoment:
    def test_convergent(self, capsys):
        code, out, _ = run_cli(capsys, "expmoment", "--alpha", "0.5",
                               "--t", "2", "--delta", "0.5", *FAST)
        assert code == 0
        assert float(out) > 1.0

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


class TestVerify:
    def test_single_check(self, capsys, config_path):
        code, out, _ = run_cli(capsys, "verify", "--check", "base_harnack",
                               "--config", config_path)
        assert code == 0
        assert "base_harnack" in out and "ok" in out

    @pytest.mark.parametrize("lhs, status, code", [
        (1.0 + 1e-8, "ok", 0),          # above rhs but inside the band
        (1.0 + 1e-6, "VIOLATED", 3),    # beyond the band
    ])
    def test_line_status_agrees_with_exit_code(self, capsys, config_path,
                                               monkeypatch, lhs, status, code):
        # the config's rel_tol is 1e-8, so the band is rhs * (1 + 1e-7)
        def fake_run_sweep(config, threads=1):
            entry = _report(lhs, 1.0, "closed_form", "",
                            config.quadrature.rel_tol, {"check": "base_harnack"})
            summary = {"holds": 0, "violated": 0, "out_of_domain": 0,
                       "non_converged": 0}
            summary[entry.status] += 1
            return SweepReport(entries=[entry], summary=summary,
                               worst_slack=entry.slack)

        monkeypatch.setattr("subharnack.cli.run_sweep", fake_run_sweep)
        got, out, _ = run_cli(capsys, "verify", "--check", "base_harnack",
                              "--config", config_path)
        assert got == code
        line = out.splitlines()[0]
        assert line.startswith("base_harnack:") and line.endswith(f" {status}")

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
        assert header == ("check,alpha,kappa,p,t,x,y,f,"
                          "lhs,rhs,slack,valid_domain,method")
        assert len(out.splitlines()) == 5

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
