import json
import math
import os
import subprocess
import sys

import pytest

import qgamma.qspecial as qspecial
from qgamma.bounds import INEQUALITY_IDS, thm_mvt_bounds
from qgamma.cli import main
from qgamma.propcheck import EXTRA_CHECK_IDS
from qgamma.qcore import QParam
from qgamma.qspecial import psi_q


def run_cli(*args, env_extra=None, timeout=None):
    """Run the CLI in a subprocess.  Every outcome, failures included, must
    come through the documented exit codes, never an uncaught exception."""
    env = os.environ.copy()
    env.pop("QGAMMA_MAX_TERMS", None)
    if env_extra:
        env.update(env_extra)
    res = subprocess.run(
        [sys.executable, "-m", "qgamma.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert "Traceback" not in res.stderr, res.stderr
    return res


def parse_plain(stdout):
    out = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


class TestEval:
    def test_gamma_q_integer_point(self):
        res = run_cli("eval", "--fn", "gamma_q", "--x", "3", "--q", "0.5")
        assert res.returncode == 0
        fields = parse_plain(res.stdout)
        assert float(fields["value"]) == pytest.approx(1.5, rel=1e-12)
        assert int(fields["terms_used"]) > 0

    def test_psi_q_value(self):
        res = run_cli("eval", "--fn", "psi_q", "--x", "1", "--q", "0.5")
        assert res.returncode == 0
        assert float(parse_plain(res.stdout)["value"]) == pytest.approx(-0.42052903435604578, abs=1e-12)

    def test_classical_functions(self):
        res = run_cli("eval", "--fn", "gamma", "--x", "5")
        assert float(parse_plain(res.stdout)["value"]) == pytest.approx(24.0, rel=1e-7)
        res = run_cli("eval", "--fn", "psi", "--x", "1")
        assert float(parse_plain(res.stdout)["value"]) == pytest.approx(-0.5772156649015329, abs=1e-9)

    def test_psi_q_m_requires_m(self):
        res = run_cli("eval", "--fn", "psi_q_m", "--x", "2", "--q", "0.5", "--m", "2")
        assert res.returncode == 0
        assert float(parse_plain(res.stdout)["value"]) < 0

    def test_domain_rejection_exits_2(self):
        res = run_cli("eval", "--fn", "gamma_q", "--x", "-1", "--q", "0.5")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_overflow_exits_3(self):
        for args in (("--fn", "gamma", "--x", "200"), ("--fn", "gamma_q", "--x", "2000", "--q", "0.5")):
            res = run_cli("eval", *args)
            assert res.returncode == 3, args
            assert res.stderr.startswith("error:"), args

    def test_near_the_pole(self):
        # ln Gamma_q(x) -> -ln(x ln(1/q) / (1-q)) as x -> 0.
        res = run_cli("eval", "--fn", "ln_gamma_q", "--x", "1e-17", "--q", "0.5")
        assert res.returncode == 0, res.stderr
        expected = -math.log(1e-17 * math.log(2.0) / 0.5)
        assert float(parse_plain(res.stdout)["value"]) == pytest.approx(expected, rel=1e-12)
        res = run_cli("eval", "--fn", "gamma_q", "--x", "5e-324", "--q", "0.5")
        assert res.returncode == 3
        assert res.stderr.startswith("error:") and "exceeds the double range" in res.stderr

    def test_psi_q_m_beyond_the_range_exits_3_at_once(self):
        # One summand is about e^50000; the Eulerian coefficients of m = 7000
        # would take far longer than the timeout to build.
        res = run_cli("eval", "--fn", "psi_q_m", "--m", "7000", "--x", "2", "--q", "0.5", timeout=2)
        assert res.returncode == 3
        assert res.stderr.startswith("error:") and "exceeds the double range" in res.stderr

    def test_psi_q_m_at_large_m_underflows_to_zero(self):
        # The true value is below the least double; (9/8)^m alone would
        # overflow from m = 6027.
        res = run_cli("eval", "--fn", "psi_q_m", "--m", "7000", "--x", "1e5", "--q", "0.5", "--format", "json")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["value"] == 0.0

    def test_bad_function_exits_2(self):
        res = run_cli("eval", "--fn", "zeta", "--x", "1", "--q", "0.5")
        assert res.returncode == 2

    def test_round_trip_17_digits(self):
        res = run_cli("eval", "--fn", "psi_q", "--x", "1.7", "--q", "0.37")
        printed = float(parse_plain(res.stdout)["value"])
        assert printed == psi_q(1.7, QParam(0.37)).value

    def test_json_format_matches_plain(self):
        plain = parse_plain(run_cli("eval", "--fn", "psi_q", "--x", "2", "--q", "0.5").stdout)
        blob = json.loads(run_cli("eval", "--fn", "psi_q", "--x", "2", "--q", "0.5",
                                  "--format", "json").stdout)
        assert float(plain["value"]) == blob["value"]

    def test_env_max_terms_causes_non_convergence(self):
        res = run_cli("eval", "--fn", "psi_q", "--x", "0.5", "--q", "0.9",
                      env_extra={"QGAMMA_MAX_TERMS": "5"})
        assert res.returncode == 3

    def test_flag_beats_env(self):
        res = run_cli("eval", "--fn", "psi_q", "--x", "0.5", "--q", "0.9",
                      "--max-terms", "100000", env_extra={"QGAMMA_MAX_TERMS": "5"})
        assert res.returncode == 0


class TestBounds:
    def test_satisfied_point(self):
        res = run_cli("bounds", "--ineq", "thm_mvt", "--x", "2", "--y", "1", "--q", "0.5")
        assert res.returncode == 0
        fields = parse_plain(res.stdout)
        assert fields["satisfied"] == "True"
        assert float(fields["lower"]) <= float(fields["ratio"]) <= float(fields["upper"])

    def test_domain_violation_exits_2(self):
        res = run_cli("bounds", "--ineq", "thm_mvt", "--x", "1", "--y", "2", "--q", "0.5")
        assert res.returncode == 2

    def test_force_allows_out_of_domain(self):
        res = run_cli("bounds", "--ineq", "thm_mvt", "--x", "1", "--y", "2", "--q", "0.5", "--force")
        assert res.returncode == 0

    def test_alpha_collapse_point(self):
        res = run_cli("bounds", "--ineq", "thm_alpha", "--x", "1", "--y", "1",
                      "--alpha", "5", "--q", "0.5")
        fields = parse_plain(res.stdout)
        assert float(fields["lower"]) == float(fields["ratio"]) == float(fields["upper"]) == 1.0

    def test_argument_lost_in_alpha_exits_2(self):
        # 1e16 + 1 rounds to 1e16, so x = 1 would enter the ratio as 0.
        res = run_cli("bounds", "--ineq", "thm_alpha", "--x", "1", "--y", "2",
                      "--alpha", "1e16", "--q", "0.5")
        assert res.returncode == 2
        assert "alpha" in res.stderr

    def test_alpha_below_root_exits_2(self):
        res = run_cli("bounds", "--ineq", "thm_alpha", "--x", "1", "--y", "2",
                      "--alpha", "0.3", "--q", "0.5")
        assert res.returncode == 2

    def test_missing_argument_exits_2(self):
        res = run_cli("bounds", "--ineq", "thm_mvt", "--x", "2", "--q", "0.5")
        assert res.returncode == 2

    # One in-domain point per inequality, as CLI flags.
    POINTS = {
        "thm_main": ("--x", "2.5", "--y", "1.5", "--q", "0.3"),
        "cor_half_shift": ("--x", "0.7", "--q", "0.6"),
        "thm_alpha": ("--x", "1.3", "--y", "2.2", "--alpha", "3", "--q", "0.4"),
        "thm_mvt": ("--x", "2", "--y", "1", "--q", "0.5"),
        "cor_mu_lambda": ("--x", "0.9", "--mu", "2", "--lambda", "0.5", "--q", "0.7"),
        "cor_one_half": ("--x", "3.3", "--q", "0.2"),
        "remark_rearranged": ("--x", "0.4", "--q", "0.9"),
        "keckic_vasic": ("--x", "5", "--y", "2"),
        "zhang_xu_situ": ("--x", "0.5", "--y", "3"),
    }

    def test_every_inequality_plain_matches_json(self, capsys, monkeypatch):
        monkeypatch.delenv("QGAMMA_MAX_TERMS", raising=False)
        assert set(self.POINTS) == set(INEQUALITY_IDS)
        for ineq, flags in self.POINTS.items():
            assert main(["bounds", "--ineq", ineq, *flags]) == 0
            plain = parse_plain(capsys.readouterr().out)
            assert main(["bounds", "--ineq", ineq, *flags, "--format", "json"]) == 0
            blob = json.loads(capsys.readouterr().out)
            assert list(plain) == list(blob), ineq
            assert blob["inequality_id"] == ineq and blob["satisfied"] is True, ineq
            for key, value in blob.items():
                if isinstance(value, float):
                    assert float(plain[key]) == value, (ineq, key)
                else:
                    assert plain[key] == str(value), (ineq, key)

    def test_satisfied_is_the_pass_verdict(self, capsys, monkeypatch):
        seen = []

        def verdict(lower_margin, upper_margin):
            seen.append((lower_margin, upper_margin))
            return False

        monkeypatch.delenv("QGAMMA_MAX_TERMS", raising=False)
        monkeypatch.setattr("qgamma.cli.passes", verdict)
        assert main(["bounds", "--ineq", "thm_mvt", "--x", "2", "--y", "1", "--q", "0.5", "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["satisfied"] is False
        pair = thm_mvt_bounds(2.0, 1.0, QParam(0.5))
        assert seen == [(pair.log_ratio - pair.log_lower, pair.log_upper - pair.log_ratio)]


def test_infinite_x_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.delenv("QGAMMA_MAX_TERMS", raising=False)
    commands = [
        ["eval", "--fn", fn, "--x", "inf", *([] if fn in ("gamma", "psi") else ["--q", "0.5"])]
        for fn in ("gamma_q", "ln_gamma_q", "psi_q", "psi_q_m", "gamma", "psi")
    ]
    for ineq, flags in TestBounds.POINTS.items():
        flags = list(flags)
        flags[flags.index("--x") + 1] = "inf"
        commands.append(["bounds", "--ineq", ineq, *flags])
    assert len(commands) == 6 + len(INEQUALITY_IDS)
    for argv in commands:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite and positive" in err, argv


class TestVerify:
    def test_single_inequality_passes(self):
        res = run_cli("verify", "--ineq", "thm_mvt", "--samples", "150", "--seed", "7")
        assert res.returncode == 0
        assert "n_samples: 150" in res.stdout
        assert "n_pass: 150" in res.stdout

    def test_json_reports(self):
        res = run_cli("verify", "--ineq", "thm_main", "--samples", "50", "--seed", "3",
                      "--format", "json")
        reports = json.loads(res.stdout)
        assert len(reports) == 1
        assert reports[0]["inequality_id"] == "thm_main"
        assert reports[0]["n_pass"] == 50
        assert reports[0]["schema_version"] == 1

    def test_corrupted_bounds_self_test(self):
        res = run_cli("verify", "--ineq", "thm_mvt", "--samples", "100", "--seed", "7",
                      "--corrupt-bounds", "--format", "json")
        assert res.returncode == 1
        report = json.loads(res.stdout)[0]
        assert report["n_pass"] < report["n_samples"]
        assert len(report["failures"]) > 0

    def test_pervasive_evaluation_errors_exit_3(self):
        # Every point errors; more of them than the report's failure list holds.
        res = run_cli("verify", "--ineq", "thm_mvt", "--samples", "1000", "--seed", "1",
                      "--max-terms", "3")
        assert res.returncode == 3
        assert "n_pass: 0" in res.stdout

    def test_evaluation_errors_keep_every_report(self):
        # Slope and limit checks record errors too, so no report is lost.
        from qgamma.propcheck import ALL_CHECK_IDS

        res = run_cli("verify", "--ineq", "all", "--samples", "20", "--seed", "1",
                      "--max-terms", "3", "--format", "json")
        assert res.returncode == 3
        reports = json.loads(res.stdout)
        assert [r["inequality_id"] for r in reports] == list(ALL_CHECK_IDS)

    def test_json_without_evaluated_points_is_valid_json(self):
        # No point evaluates under --max-terms 3, so neither worst margin
        # exists: JSON null, never the non-JSON token Infinity.
        res = run_cli("verify", "--ineq", "thm_alpha", "--samples", "3", "--max-terms", "3",
                      "--format", "json")
        assert res.returncode == 3

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        report = json.loads(res.stdout, parse_constant=reject)[0]
        assert report["n_pass"] == 0
        assert report["worst_lower_margin"] is None and report["worst_upper_margin"] is None

    def test_unknown_id_exits_2(self):
        res = run_cli("verify", "--ineq", "thm_nonexistent", "--samples", "10")
        assert res.returncode == 2

    @pytest.mark.parametrize("check_id", ["thm_main", *EXTRA_CHECK_IDS])
    def test_samples_below_one_exit_2(self, check_id, capsys):
        # One rule for every id, including the checks that do not sample.
        for samples in ("0", "-3"):
            assert main(["verify", "--ineq", check_id, "--samples", samples, "--seed", "1"]) == 2, (check_id, samples)
            captured = capsys.readouterr()
            assert captured.out == "" and "samples must be >= 1" in captured.err, (check_id, samples)

    def test_negative_seed_exits_2(self):
        res = run_cli("verify", "--ineq", "thm_main", "--samples", "5", "--seed", "-1")
        assert res.returncode == 2
        assert "seed" in res.stderr and "Traceback" not in res.stderr

    def test_accuracy_is_not_an_option(self):
        # A looser series tolerance once turned this true theorem into
        # reported violations; the accuracy contract is no longer settable.
        res = run_cli("verify", "--ineq", "thm_mvt", "--samples", "600", "--seed", "42",
                      "--rel-tol", "1e-6")
        assert res.returncode == 2
        assert "--rel-tol" in res.stderr

    def test_all_runs_every_registered_check(self):
        from qgamma.propcheck import ALL_CHECK_IDS

        res = run_cli("verify", "--ineq", "all", "--samples", "20", "--seed", "5",
                      "--format", "json")
        assert res.returncode == 0
        seen = [r["inequality_id"] for r in json.loads(res.stdout)]
        assert seen == list(ALL_CHECK_IDS)

    def test_all_is_determined_by_its_seed(self):
        # Two processes, so that neither run can lean on the other's root cache.
        outputs = []
        for _ in range(2):
            res = run_cli("verify", "--ineq", "all", "--samples", "20", "--seed", "3", "--format", "json")
            assert res.returncode == 0, res.stderr
            reports = json.loads(res.stdout)
            for report in reports:
                assert report.pop("wall_time_s") >= 0.0
            outputs.append(json.dumps(reports))
        assert outputs[0] == outputs[1]


class TestRoot:
    def test_reference_root(self):
        res = run_cli("root", "--q", "0.5")
        assert res.returncode == 0
        fields = parse_plain(res.stdout)
        root = float(fields["root"])
        assert 1.0 < root < 2.0
        assert abs(float(fields["residual"])) <= 1e-10

    @pytest.mark.parametrize("qv", ["1e-300", "0.5", "0.99999"])
    def test_json_bracket_and_residual(self, qv):
        res = run_cli("root", "--q", qv, "--format", "json")
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["bracket_low"] < out["root"] < out["bracket_high"]
        assert abs(out["residual"]) <= 1e-10

    def test_bad_q_exits_2(self):
        assert run_cli("root", "--q", "1.5").returncode == 2

    def test_subnormal_q_exits_2(self, capsys):
        # Below the least normal double the signs that would certify the
        # bracket have lost their bits.
        assert main(["root", "--q", "1e-320"]) == 2
        assert "subnormal" in capsys.readouterr().err

    def test_bracket_failure_exits_3(self, capsys, monkeypatch):
        # psi_q shifted right by 10 has no sign change across [1, x0].
        monkeypatch.setattr(qspecial, "psi_q", lambda x, q, cfg: psi_q(x + 10.0, q, cfg))
        assert main(["root", "--q", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("error: psi_q does not change sign")


class TestTable:
    def test_row_count_and_header(self):
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "x",
                      "--min", "0.1", "--max", "5", "--steps", "3", "--q", "0.5")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        assert lines[0] == "x,lower,ratio,upper,lower_margin,upper_margin"
        assert len(lines) == 4

    def test_rows_satisfy_bounds(self):
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "x",
                      "--min", "0.1", "--max", "5", "--steps", "8", "--q", "0.5")
        for line in res.stdout.strip().split("\n")[1:]:
            _, lower, ratio, upper, *_ = map(float, line.split(","))
            assert lower <= ratio * (1 + 1e-9) and ratio <= upper * (1 + 1e-9)

    def test_json_rows_match_csv(self):
        args = ("--ineq", "cor_one_half", "--var", "x", "--min", "0.5", "--max", "2",
                "--steps", "4", "--q", "0.4")
        csv_out = run_cli("table", *args).stdout.strip().split("\n")[1:]
        json_out = json.loads(run_cli("table", *args, "--format", "json").stdout)
        for line, obj in zip(csv_out, json_out):
            values = list(map(float, line.split(",")))
            assert values == [obj["x"], obj["lower"], obj["ratio"], obj["upper"],
                              obj["lower_margin"], obj["upper_margin"]]

    def test_json_x_values_are_numpy_linspace(self):
        import numpy as np

        res = run_cli("table", "--ineq", "thm_alpha", "--var", "x", "--min", "0.1", "--max", "5",
                      "--steps", "50", "--y", "1.5", "--q", "0.5", "--alpha", "3", "--format", "json")
        assert res.returncode == 0
        assert [row["x"] for row in json.loads(res.stdout)] == np.linspace(0.1, 5.0, 50).tolist()

    def test_malformed_sweep_exits_2(self):
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "x",
                      "--min", "5", "--max", "1", "--steps", "3", "--q", "0.5")
        assert res.returncode == 2
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "x",
                      "--min", "1", "--max", "5", "--steps", "1", "--q", "0.5")
        assert res.returncode == 2

    def test_sweep_variable_must_apply(self):
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "y",
                      "--min", "1", "--max", "5", "--steps", "3", "--q", "0.5")
        assert res.returncode == 2


def test_cli_import_loads_no_numpy():
    # numpy is a test dependency only; the library runs on the standard library.
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, qgamma.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # The value types are NamedTuple records; dataclasses pulls in inspect,
    # about 30 ms of every cold start.
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, qgamma.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
