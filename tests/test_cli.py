import json
import math
import os
import re
import subprocess
import sys

import pytest

import qgamma.cli as cli
import qgamma.qspecial as qspecial
from qgamma import bounds
from qgamma.bounds import INEQUALITIES, INEQUALITY_IDS, keckic_vasic_bounds, thm_mvt_bounds
from qgamma.cli import main
from qgamma.propcheck import EXTRA_CHECK_IDS, SCHEMA_VERSION, report_to_dict, run_check
from qgamma.qcore import QParam
from qgamma.qspecial import psi_q


def run_cli(*args, env_extra=None, timeout=None):
    """Run the CLI in a subprocess.  Every outcome, failures included, must
    come through the documented exit codes, never an uncaught exception."""
    env = os.environ.copy()
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


def reject_constant(token):
    raise ValueError(f"not JSON: {token}")


def parse_plain(stdout):
    out = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def _sample_q_on_the_n_series_side(monkeypatch, ineq, **ranges):
    """Draw the q of ``ineq``'s default domain from (0.5, 0.6), the top of
    psi_q's n-series side (s = -ln q >= _QSERIES_S), where it takes the most
    terms, and any other range given from ``ranges``: that side reads the
    term cap these tests lower, and above q = 0.6126 psi_q takes its
    q-Stirling form, which does not."""
    assert -QParam(0.6).ln_q >= qspecial._QSERIES_S
    row = INEQUALITIES[ineq]
    domain = row.domain._replace(q_range=(0.5, 0.6), **ranges)
    monkeypatch.setitem(INEQUALITIES, ineq, row._replace(domain=domain))


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

    # One valid point per --fn choice, as CLI flags.
    POINTS = {
        "gamma_q": ("--x", "3", "--q", "0.5"),
        "ln_gamma_q": ("--x", "0.7", "--q", "0.9"),
        "psi_q": ("--x", "1.7", "--q", "0.37"),
        "psi_q_m": ("--m", "2", "--x", "2", "--q", "0.5"),
        "euler_gamma_q": ("--q", "0.8"),
        "gamma": ("--x", "5.5"),
        "psi": ("--x", "1.3"),
    }

    def test_every_function_evaluates(self, capsys):
        from qgamma.classical import ln_gamma_classical, psi_classical
        from qgamma.qspecial import euler_gamma_q, gamma_q, ln_gamma_q, psi_q_m

        assert tuple(cli._EVAL_FUNCTIONS) == tuple(self.POINTS)  # the --fn choices
        expected = {
            "gamma_q": gamma_q(3.0, QParam(0.5)).value,
            "ln_gamma_q": ln_gamma_q(0.7, QParam(0.9)).value,
            "psi_q": psi_q(1.7, QParam(0.37)).value,
            "psi_q_m": psi_q_m(2, 2.0, QParam(0.5)).value,
            "euler_gamma_q": euler_gamma_q(QParam(0.8)).value,
            "gamma": math.exp(ln_gamma_classical(5.5).value),
            "psi": psi_classical(1.3).value,
        }
        for fn, flags in self.POINTS.items():
            assert main(["eval", "--fn", fn, *flags, "--format", "json"]) == 0, fn
            blob = json.loads(capsys.readouterr().out)
            assert list(blob) == ["value", "error_estimate", "terms_used"], fn
            assert blob["value"] == expected[fn], fn

    def test_missing_flag_exits_2_naming_it(self, capsys):
        for fn, flags in self.POINTS.items():
            for i in range(0, len(flags), 2):
                flag = flags[i]
                if flag == "--m":
                    continue  # --m defaults to 1
                argv = ["eval", "--fn", fn, *flags[:i], *flags[i + 2:]]
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "", argv
                assert captured.err == f"error: {fn} requires {flag}\n", argv

    def test_flag_not_taken_exits_2_naming_it(self, capsys):
        # Gamma(3) must not print where Gamma_q(3) was asked for.
        extras = {"--x": "3", "--q": "0.5", "--m": "2"}
        for fn, flags in self.POINTS.items():
            for flag, value in extras.items():
                if flag in flags:
                    continue
                argv = ["eval", "--fn", fn, *flags, flag, value]
                assert main(argv) == 2, argv
                captured = capsys.readouterr()
                assert captured.out == "", argv
                assert captured.err == f"error: {fn} does not take {flag}\n", argv

    def test_psi_q_m_takes_m_1_when_omitted(self, capsys):
        from qgamma.qspecial import psi_q_m

        assert main(["eval", "--fn", "psi_q_m", "--x", "2", "--q", "0.5", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == psi_q_m(1, 2.0, QParam(0.5)).value

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

    def test_max_terms_env_changes_nothing(self):
        # QGAMMA_MAX_TERMS used to set the cap, which is fixed now; q = 0.5
        # is on psi_q's n-series side, which reads the cap.
        argv = ("eval", "--fn", "psi_q", "--x", "0.5", "--q", "0.5", "--format", "json")
        res = run_cli(*argv, env_extra={"QGAMMA_MAX_TERMS": "5"})
        assert res.returncode == 0
        assert res.stdout == run_cli(*argv).stdout

    def test_max_terms_flag_exits_2(self, capsys):
        # Every subcommand refuses the flag before any evaluation.
        for argv in (["eval", "--fn", "psi_q", "--x", "1.5", "--q", "0.5"],
                     ["bounds", "--ineq", "thm_main", "--x", "3", "--y", "2", "--q", "0.5"],
                     ["verify", "--ineq", "limits"], ["root", "--q", "0.5"],
                     ["table", "--ineq", "cor_one_half", "--var", "x", "--min", "1", "--max", "2",
                      "--steps", "2", "--q", "0.5"]):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--max-terms", "5"])
            assert info.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "unrecognized arguments: --max-terms 5" in captured.err, argv

    def test_fixed_cap_exits_3(self, capsys):
        # Near q = 1 psi_q' needs more than the fixed cap of 10^6 terms.
        assert main(["eval", "--fn", "psi_q_m", "--m", "1", "--x", "1.5", "--q", "0.99999999999"]) == 3
        assert capsys.readouterr().err.startswith("error: no convergence within 1000000 terms")

    @pytest.mark.parametrize("qv", ["0.99999999999", "0.3"])
    def test_psi_q_exits_0_on_either_side_of_its_split(self, qv, capsys):
        # psi_q takes its q-Stirling form near q = 1 (at most 17 terms, where
        # its n-series once passed the cap) and its n-series at q = 0.3.
        assert main(["eval", "--fn", "psi_q", "--x", "1.5", "--q", qv]) == 0
        assert 0 < int(parse_plain(capsys.readouterr().out)["terms_used"]) <= 17

    def test_gamma_just_below_the_double_range_is_finite(self, capsys):
        # ln Gamma(171.6243) = 709.78232 lies below ln of the largest double,
        # 709.78271, and above the 709.78 that once printed it as overflow;
        # ln Gamma(171.6244) = 709.78283 lies past it.
        assert main(["eval", "--fn", "gamma", "--x", "171.6243"]) == 0
        assert float(parse_plain(capsys.readouterr().out)["value"]) == pytest.approx(1.7970e308, rel=1e-4)
        assert main(["eval", "--fn", "gamma", "--x", "171.6244"]) == 3
        assert "exceeds the double range" in capsys.readouterr().err


def test_printed_exponentials_overflow_where_math_exp_does():
    # A log of 709.782 is below ln of the largest double, 709.78271: its
    # exponential prints finite; 709.79 prints inf.
    pair = bounds._pair(709.782, 709.79, 709.79, False)
    fields = cli._pair_fields(pair)
    assert fields["lower"] == math.exp(709.782) == pytest.approx(1.7964e308, rel=1e-4)
    assert fields["ratio"] == fields["upper"] == math.inf


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

    @pytest.mark.parametrize("extra", [(), ("--force",)])
    def test_nan_alpha_exits_2(self, extra):
        res = run_cli("bounds", "--ineq", "thm_alpha", "--x", "2", "--y", "1",
                      "--alpha", "nan", "--q", "0.5", *extra)
        assert res.returncode == 2
        assert "alpha must be finite" in res.stderr
        assert "lost in" not in res.stderr

    def test_alpha_below_root_exits_2(self):
        res = run_cli("bounds", "--ineq", "thm_alpha", "--x", "1", "--y", "2",
                      "--alpha", "0.3", "--q", "0.5")
        assert res.returncode == 2

    def test_missing_argument_exits_2(self):
        res = run_cli("bounds", "--ineq", "thm_mvt", "--x", "2", "--q", "0.5")
        assert res.returncode == 2

    def test_slot_not_taken_exits_2_naming_it(self, capsys):
        argv = ["bounds", "--ineq", "zhang_xu_situ", "--x", "2", "--y", "1", "--q", "0.5", "--alpha", "7"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: zhang_xu_situ does not take --q, --alpha\n"
        for ineq, flags in self.POINTS.items():
            taken = INEQUALITIES[ineq].args
            for slot in cli._SLOTS:
                if slot in taken:
                    continue
                argv = ["bounds", "--ineq", ineq, *flags, f"--{slot}", "0.5"]
                assert main(argv) == 2, argv
                assert capsys.readouterr().err == f"error: {ineq} does not take --{slot}\n", argv

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

    def test_every_inequality_plain_matches_json(self, capsys):
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

    def test_json_beyond_the_double_range_is_valid_json(self, capsys):
        # Gamma(200) / Gamma(2) overflows: the plain format prints inf and
        # nan, JSON writes null, never the non-JSON tokens Infinity or NaN.
        flags = ["bounds", "--ineq", "keckic_vasic", "--x", "200", "--y", "2"]
        assert main(flags) == 0
        plain = parse_plain(capsys.readouterr().out)
        assert plain["ratio"] == "inf" and float(plain["lower_margin"]) > 0.0
        assert main([*flags, "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert [blob[k] for k in ("lower", "ratio", "upper")] == [None] * 3
        # The margins are log margins, finite where the bounds overflow.
        pair = keckic_vasic_bounds(200.0, 2.0)
        assert [blob["lower_margin"], blob["upper_margin"]] == [pair.lower_margin, pair.upper_margin]
        assert blob["satisfied"] is True

    def test_satisfied_is_the_pass_verdict(self, capsys, monkeypatch):
        seen = []

        def verdict(lower_margin, upper_margin):
            seen.append((lower_margin, upper_margin))
            return False

        monkeypatch.setattr("qgamma.cli.passes", verdict)
        assert main(["bounds", "--ineq", "thm_mvt", "--x", "2", "--y", "1", "--q", "0.5", "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["satisfied"] is False
        pair = thm_mvt_bounds(2.0, 1.0, QParam(0.5))
        assert seen == [(pair.log_ratio - pair.log_lower, pair.log_upper - pair.log_ratio)]


def _exp(z):
    """e^z, inf where it overflows the double range."""
    try:
        return math.exp(z)
    except OverflowError:
        return math.inf


class TestPrintedBounds:
    """`bounds` and `table` print lower, ratio and upper as the exponentials
    of the pair's log fields: inf in plain and CSV, null in JSON, past the
    double range."""

    # Every in-domain point of TestBounds, and Gamma(200)/Gamma(2), all of
    # whose exponentials overflow.
    POINTS = [*TestBounds.POINTS.items(), ("keckic_vasic", ("--x", "200", "--y", "2"))]

    @staticmethod
    def expected(ineq, flags):
        """lower, ratio, upper at the point of ``flags`` (flag name to
        value), from the bounds operation called directly."""
        values = {cli._SLOT_ALIASES.get(flag[2:], flag[2:]): float(v) for flag, v in flags.items()}
        args = [QParam(values[slot]) if slot == "q" else values[slot] for slot in INEQUALITIES[ineq].args]
        pair = getattr(bounds, f"{ineq}_bounds")(*args)
        return [_exp(z) for z in (pair.log_lower, pair.log_ratio, pair.log_upper)]

    def test_bounds_prints_the_exponentials_of_the_logs(self, capsys):
        assert {ineq for ineq, _ in self.POINTS} == set(INEQUALITY_IDS)
        for ineq, flags in self.POINTS:
            expected = self.expected(ineq, dict(zip(flags[::2], flags[1::2])))
            assert main(["bounds", "--ineq", ineq, *flags]) == 0
            plain = parse_plain(capsys.readouterr().out)
            assert [float(plain[key]) for key in ("lower", "ratio", "upper")] == expected, ineq
            assert main(["bounds", "--ineq", ineq, *flags, "--format", "json"]) == 0
            blob = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
            json_expected = [v if math.isfinite(v) else None for v in expected]
            assert [blob[key] for key in ("lower", "ratio", "upper")] == json_expected, ineq

    def test_table_prints_the_exponentials_of_the_logs(self, capsys):
        # Each sweep runs from the point's x to x + 1 in two steps.
        for ineq, flags in self.POINTS:
            fixed = dict(zip(flags[::2], flags[1::2]))
            x = float(fixed.pop("--x"))
            rows = [self.expected(ineq, {**fixed, "--x": value}) for value in (x, x + 1.0)]
            sweep = ["table", "--ineq", ineq, "--var", "x", "--min", repr(x), "--max", repr(x + 1.0), "--steps", "2",
                     *(token for item in fixed.items() for token in item)]
            assert main(sweep) == 0
            csv_rows = capsys.readouterr().out.strip().split("\n")[1:]
            assert [list(map(float, line.split(",")[1:4])) for line in csv_rows] == rows, ineq
            assert main([*sweep, "--format", "json"]) == 0
            blob = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
            json_rows = [[v if math.isfinite(v) else None for v in row] for row in rows]
            assert [[row[key] for key in ("lower", "ratio", "upper")] for row in blob] == json_rows, ineq


def test_infinite_x_is_a_domain_error(capsys):
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
        assert reports[0]["schema_version"] == 2

    def test_corrupted_bounds_self_test(self):
        res = run_cli("verify", "--ineq", "thm_mvt", "--samples", "100", "--seed", "7",
                      "--corrupt-bounds", "--format", "json")
        assert res.returncode == 1
        report = json.loads(res.stdout)[0]
        assert report["n_pass"] < report["n_samples"]
        assert len(report["failures"]) > 0

    @pytest.mark.parametrize("ineq", [*EXTRA_CHECK_IDS, "all"])
    def test_corrupted_bounds_need_an_upper_bound(self, ineq, capsys, monkeypatch):
        # The convexity, slope and limit checks have no upper bound to
        # halve; the self-test must not pass on them without a word.
        ran = []
        monkeypatch.setattr(cli, "run_check", lambda *args, **kwargs: ran.append(args))
        assert main(["verify", "--ineq", ineq, "--samples", "5", "--corrupt-bounds"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        named = EXTRA_CHECK_IDS if ineq == "all" else (ineq,)
        assert captured.err == "error: --corrupt-bounds: no upper bound to halve in " + ", ".join(named) + "\n"

    def test_pervasive_evaluation_errors_exit_3(self, monkeypatch, capsys):
        # Under a 3-term cap most points error, more of them than the
        # report's failure list holds: over half a report's points.
        _sample_q_on_the_n_series_side(monkeypatch, "thm_mvt")
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        assert main(["verify", "--ineq", "thm_mvt", "--samples", "1000", "--seed", "1"]) == 3
        fields = parse_plain(capsys.readouterr().out.split("\nfailure: ")[0])
        assert int(fields["n_errors"]) > int(fields["n_samples"]) / 2 == 500

    def test_evaluation_errors_keep_every_report(self, monkeypatch, capsys):
        # Slope and limit checks record errors too, and so does a psi_q root
        # solve that raises (none is cached, and none converges within 3
        # terms), so no report is lost.
        from qgamma.propcheck import ALL_CHECK_IDS

        monkeypatch.setattr(bounds, "_ROOT_CACHE", {})
        _sample_q_on_the_n_series_side(monkeypatch, "thm_alpha")
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        argv = ["verify", "--ineq", "all", "--samples", "20", "--seed", "1", "--format", "json"]
        assert main(argv) == 3
        reports = {r["inequality_id"]: r for r in json.loads(capsys.readouterr().out, parse_constant=reject_constant)}
        assert list(reports) == list(ALL_CHECK_IDS)
        assert reports["thm_alpha"]["n_errors"] == reports["thm_alpha"]["n_samples"] == 20
        assert reports["convexity_g_thm_alpha"]["n_errors"] > 0
        assert reports["slope_g_thm_alpha"]["n_errors"] > 0

    def test_all_leaves_one_root_cached(self, capsys):
        main(["verify", "--ineq", "all", "--samples", "20", "--seed", "1"])
        assert len(bounds._ROOT_CACHE) <= 1

    @pytest.mark.parametrize("args, code", [
        (("--ineq", "slope_g_thm_alpha", "--samples", "150", "--seed", "1"), 0),
        (("--ineq", "thm_mvt", "--corrupt-bounds"), 1),
    ])
    def test_closed_pipe_keeps_the_exit_code(self, args, code):
        # A reader that closed its end early (`| head`) drops the output,
        # not the verdict.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run([sys.executable, "-m", "qgamma.cli", "verify", *args],
                                 stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert "Traceback" not in res.stderr, res.stderr
        assert res.returncode == code

    def test_json_without_evaluated_points_is_valid_json(self, monkeypatch, capsys):
        # No point evaluates under a 3-term cap, so neither worst margin
        # exists: JSON null, never the non-JSON token Infinity.  At q in
        # (0.5, 0.6) and x, y <= 4 every psi_q call needs a head of
        # K = ceil(sqrt(-ln REL_TOL / -ln q) - x) >= 3 terms, which the cap cuts.
        _sample_q_on_the_n_series_side(monkeypatch, "thm_main", x_range=(1.0, 4.0), y_range=(1.0, 4.0))
        monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
        assert main(["verify", "--ineq", "thm_main", "--samples", "3", "--seed", "1", "--format", "json"]) == 3

        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)[0]
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
        # psi_q shifted right by 10 has no zero that a centre reaches.
        monkeypatch.setattr(qspecial, "psi_q", lambda x, q: psi_q(x + 10.0, q))
        assert main(["root", "--q", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("error: psi_q's zero not certified within 8 centres")


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

    def test_json_beyond_the_double_range_is_valid_json(self):
        args = ("--ineq", "keckic_vasic", "--var", "x", "--min", "100", "--max", "300", "--steps", "3", "--y", "2")
        csv_rows = run_cli("table", *args).stdout.strip().split("\n")[1:]
        pair = keckic_vasic_bounds(200.0, 2.0)
        assert csv_rows[1].split(",")[1:4] == ["inf", "inf", "inf"]
        assert list(map(float, csv_rows[1].split(",")[4:])) == [pair.lower_margin, pair.upper_margin]
        res = run_cli("table", *args, "--format", "json")
        assert res.returncode == 0
        rows = json.loads(res.stdout, parse_constant=reject_constant)
        assert [row["x"] for row in rows] == [100.0, 200.0, 300.0]
        assert rows[0]["ratio"] > 0.0
        assert rows[1] == {"x": 200.0, "lower": None, "ratio": None, "upper": None,
                           "lower_margin": pair.lower_margin, "upper_margin": pair.upper_margin}

    def test_slot_not_taken_exits_2_naming_it(self):
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "x", "--min", "1", "--max", "5",
                      "--steps", "3", "--q", "0.5", "--y", "2")
        assert res.returncode == 2
        assert res.stdout == "" and res.stderr == "error: cor_one_half does not take --y\n"

    @pytest.mark.parametrize("var", ["lam", "lambda"])
    def test_lambda_sweeps_lam(self, var):
        args = ("--ineq", "cor_mu_lambda", "--var", var, "--min", "0.1", "--max", "1", "--steps", "3",
                "--x", "1", "--mu", "2", "--q", "0.5")
        res = run_cli("table", *args)
        assert res.returncode == 0, res.stderr
        assert [float(line.split(",")[0]) for line in res.stdout.strip().split("\n")[1:]] == [0.1, 0.55, 1.0]

    @pytest.mark.parametrize("var, args", [
        ("q", ("--ineq", "cor_one_half", "--var", "q", "--min", "0.1", "--max", "0.9", "--steps", "3",
               "--x", "1")),
        ("lambda", ("--ineq", "cor_mu_lambda", "--var", "lambda", "--min", "0.1", "--max", "1", "--steps", "3",
                    "--x", "1", "--mu", "2", "--q", "0.5")),
    ])
    def test_swept_column_is_named_by_var(self, var, args):
        res = run_cli("table", *args)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.strip().split("\n")
        assert lines[0] == f"{var},lower,ratio,upper,lower_margin,upper_margin"
        sweep = [float(line.split(",")[0]) for line in lines[1:]]
        res = run_cli("table", *args, "--format", "json")
        assert res.returncode == 0, res.stderr
        rows = json.loads(res.stdout)
        assert [list(row) for row in rows] == [[var, *cli._PAIR_FIELDS]] * 3
        assert [row[var] for row in rows] == sweep

    @pytest.mark.parametrize("ineq, var, flags", [
        ("cor_one_half", "x", ("--q", "0.5", "--x", "7")),
        ("thm_alpha", "alpha", ("--x", "2", "--y", "1.5", "--q", "0.5", "--alpha", "3")),
        ("cor_mu_lambda", "lambda", ("--x", "1", "--mu", "2", "--q", "0.5", "--lambda", "0.3")),
        ("cor_mu_lambda", "lam", ("--x", "1", "--mu", "2", "--q", "0.5", "--lambda", "0.3")),
    ])
    def test_point_flag_of_the_swept_variable_exits_2_naming_it(self, capsys, ineq, var, flags):
        # The sweep would overwrite the flag's value on every row.
        argv = ["table", "--ineq", ineq, "--var", var, "--min", "1", "--max", "2", "--steps", "2", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --var {var} sweeps --{var}; drop that flag, which the sweep would overwrite\n"

    def test_sweep_leaves_the_parsed_flags_as_given(self, capsys):
        args = cli._build_parser().parse_args(
            ["table", "--ineq", "thm_alpha", "--var", "y", "--min", "1", "--max", "2", "--steps", "3",
             "--x", "2", "--q", "0.5", "--alpha", "3"])
        given = dict(vars(args))
        assert args.handler(args) == 0
        assert vars(args) == given
        assert len(capsys.readouterr().out.strip().split("\n")) == 4

    def test_sweep_variable_must_apply(self):
        res = run_cli("table", "--ineq", "cor_one_half", "--var", "y",
                      "--min", "1", "--max", "5", "--steps", "3", "--q", "0.5")
        assert res.returncode == 2


def _documented_schema():
    """The top-level keys and the failure shapes (key sets) of the JSON
    report schema block in the cli module docstring."""
    doc = cli.__doc__
    start = doc.index("{", doc.index("JSON report schema"))
    top, shapes, depth = [], [], 0
    for match in re.finditer(r'[{}]|"(\w+)"\s*:', doc[start:]):
        token = match.group(0)
        if token == "{":
            depth += 1
            if depth == 2:
                shapes.append(set())
        elif token == "}":
            depth -= 1
            if depth == 0:
                return top, shapes
        elif depth == 1:
            top.append(match.group(1))
        elif depth == 2:
            shapes[-1].add(match.group(1))
    raise AssertionError("unterminated schema block")


def test_schema_doc_matches_the_reports(monkeypatch):
    top, shapes = _documented_schema()
    report = run_check("thm_mvt", seed=7, samples=30, corrupt_upper=True)
    assert top == list(report_to_dict(report))
    assert shapes == [{"point", "lower_margin", "upper_margin"}, {"point", "error"}]
    assert f'"schema_version": {SCHEMA_VERSION},' in cli.__doc__
    monkeypatch.setattr(qspecial, "MAX_TERMS", 3)
    errored = run_check("thm_mvt", seed=7, samples=30)
    assert errored.n_errors > 0
    for failure in report.failures + errored.failures:
        assert set(failure) in shapes, failure


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
