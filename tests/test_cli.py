"""Command-line interface: argument handling, output formats, exit codes.

Most tests call main() in-process for speed; one subprocess test confirms the
module entry point is wired up.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import pbk.barrier
import pbk.cli
import pbk.grids
import pbk.harmonic
import pbk.pb_core
import pbk.quadrature
import pbk.systems
from pbk.cli import KERNEL_COLUMNS, _kernel_csv, _parse_point_list, main
from pbk.barrier import BarrierParams
from pbk.harmonic import HarmonicParams
from pbk.kernels import KernelTable, kernel_rows, top_mode
from pbk.market import MarketParams

DIAG_FAST = ["--nmax", "4"]
# harmonic markets from narrow eigenfunctions (sigma 0.05, beta -39.5) to wide
# ones (sigma 3); the battery's test set is made of the model's own modes, so
# it scales with them
HARMONIC_MARKETS = ([], ["--sigma", "0.6"], ["--sigma", "1.0"],
                    ["--sigma", "0.1", "--r", "0"], ["--sigma", "0.1"],
                    ["--sigma", "0.1", "--r", "0.1"], ["--sigma", "0.05", "--r", "0.1"],
                    ["--sigma", "1.2"], ["--sigma", "1.5"], ["--sigma", "2"], ["--sigma", "3"])


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "docs" / name, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# point-list parsing


class TestPointList:
    def test_comma_values(self):
        assert _parse_point_list("1.0,2.5,-3") == [1.0, 2.5, -3.0]

    def test_range(self):
        assert _parse_point_list("0:1:5") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_point_range(self):
        assert _parse_point_list("2:9:1") == [2.0]

    def test_bad_range(self):
        with pytest.raises(ValueError, match="lo:hi:count"):
            _parse_point_list("0:1")
        with pytest.raises(ValueError, match="count"):
            _parse_point_list("0:1:0")
        with pytest.raises(ValueError, match="empty"):
            _parse_point_list(",")


# ---------------------------------------------------------------------------
# diagnose


class TestDiagnose:
    def test_harmonic_report_passes_and_validates(self, capsys):
        for market in HARMONIC_MARKETS:
            code, out, err = run_cli(capsys, ["diagnose", "--model", "harmonic", *market]
                                     + DIAG_FAST)
            assert code == 0, (market, out, err)
            report = json.loads(out)
            jsonschema.validate(report, schema("diagnostic_report.schema.json"))
            assert report["all_pass"] is True
            assert report["params_echo"]["model"] == "harmonic"
            assert {c["check"] for c in report["checks"]} >= {"vacua", "ladder", "norm_growth"}

    def test_barrier_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["diagnose", "--model", "barrier", "--a", "0", "--b", "3.14159"] + DIAG_FAST,
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("diagnostic_report.schema.json"))
        assert report["params_echo"]["a"] == 0.0

    def test_barrier_requires_bounds(self, capsys):
        code, _, err = run_cli(capsys, ["diagnose", "--model", "barrier"] + DIAG_FAST)
        assert code == 2
        assert "--a" in err

    def test_beta_zero_note(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["diagnose", "--model", "harmonic", "--r", "0.02"] + DIAG_FAST,
        )
        assert code == 0
        report = json.loads(out)
        assert any("beta = 0" in note for note in report["params_echo"]["notes"])

    def test_grid_route(self, capsys):
        for market in HARMONIC_MARKETS:
            code, out, err = run_cli(
                capsys,
                ["diagnose", "--model", "harmonic", "--route", "grid", *market] + DIAG_FAST,
            )
            assert code == 0, (market, out, err)
            assert json.loads(out)["params_echo"]["route"] == "grid"

    def test_invalid_market_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["diagnose", "--model", "harmonic", "--sigma", "0"] + DIAG_FAST
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("model", [["--model", "harmonic"],
                                       ["--model", "barrier", "--a", "0", "--b", "1"]])
    def test_negative_nmax_exits_2(self, capsys, model):
        code, out, err = run_cli(capsys, ["diagnose", *model, "--nmax", "-1"])
        assert code == 2
        assert out == ""
        assert "--nmax" in err

    def test_narrow_barrier_report(self, capsys):
        """Barriers 80/120: every check passes."""
        code, out, _ = run_cli(capsys, ["diagnose", "--model", "barrier",
                                        "--a", "4.382026634673881",
                                        "--b", "4.787491742782046"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize("width, code, failing", [("10", 0, []),
                                                      ("12", 1, ["quasi_basis"]),
                                                      ("14", 1, ["quasi_basis"])])
    def test_wide_barrier_report(self, capsys, width, code, failing):
        # quasi_basis measures how well 61 tilted modes resolve an untilted
        # sine polynomial; past width 10 it reads 1.96e-6 and 1.19e-5 against 1e-6
        got, out, err = run_cli(capsys, ["diagnose", "--model", "barrier", "--a", "0",
                                         "--b", width] + DIAG_FAST)
        assert got == code, err
        report = json.loads(out)
        jsonschema.validate(report, schema("diagnostic_report.schema.json"))
        assert [c["check"] for c in report["checks"] if not c["pass"]] == failing

    def test_barrier_report_evaluates_no_quadrature_rule(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a quadrature rule was evaluated")

        for owner, attr in ((pbk.quadrature, "legendre_rule"),
                            (pbk.quadrature, "inner_product"),
                            (pbk.barrier, "legendre_rule"),
                            (pbk.systems, "adaptive_inner_product")):
            monkeypatch.setattr(owner, attr, refuse)
        code, out, _ = run_cli(capsys, ["diagnose", "--model", "barrier", "--a", "0",
                                        "--b", "3.14159"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize("module, argv", [
        (pbk.barrier, ["--model", "barrier", "--a", "0", "--b", "3.14159"]),
        (pbk.harmonic, ["--model", "harmonic", "--nmax", "40"]),
    ], ids=["barrier", "harmonic-exact"])
    def test_coefficient_batteries_build_no_mode_table(self, capsys, monkeypatch, module,
                                                       argv):
        # every residual, inner product and Gram matrix is taken from coefficients
        def refuse(*args):
            raise AssertionError("a mode table was built")

        monkeypatch.setattr(module, "mode_table", refuse)
        code, out, err = run_cli(capsys, ["diagnose", *argv])
        assert code == 0, err
        assert json.loads(out)["all_pass"] is True


# ---------------------------------------------------------------------------
# kernel tables


class TestKernel:
    def test_csv_shape_and_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, [
            "kernel", "--model", "barrier", "--a", "0", "--b", "3.141592653589793",
            "--x", "1.0,2.0", "--x-prime", "1.5", "--tau", "0.5",
            "--which", "p1", "--method", "both",
        ])
        assert code == 0
        assert "\r\n" in out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert set(rows[0]) == {"x", "x_prime", "tau", "which", "method", "value",
                                "tail_estimate", "rel_disagreement"}
        # 17 significant digits survive a float round-trip
        spectral = [r for r in rows if r["method"] == "spectral"][0]
        assert float(spectral["value"]) == float(spectral["value"])
        assert float(spectral["rel_disagreement"]) <= 1e-10

    def test_range_syntax_counts(self, capsys):
        code, out, _ = run_cli(capsys, [
            "kernel", "--model", "harmonic", "--x", "0:0.2:3",
            "--x-prime=-0.1,0.1", "--tau", "0.3,0.6",
            "--which", "both", "--method", "spectral",
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 * 2 * 2 * 2
        assert all(r["rel_disagreement"] == "" for r in rows)

    def test_flip_beta_reproduces_p2(self, capsys):
        base = ["kernel", "--model", "harmonic", "--x", "0.1", "--x-prime", "0.0",
                "--tau", "0.5", "--method", "closed"]
        _, flipped_out, _ = run_cli(capsys, base + ["--which", "p1", "--flip-beta"])
        _, plain_out, _ = run_cli(capsys, base + ["--which", "p2"])
        flipped = list(csv.DictReader(io.StringIO(flipped_out)))[0]
        plain = list(csv.DictReader(io.StringIO(plain_out)))[0]
        assert flipped["value"] == plain["value"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, [
            "kernel", "--model", "harmonic", "--x", "0.0", "--x-prime", "0.1",
            "--tau", "0.5", "--out", str(target),
        ])
        assert code == 0
        assert out == ""
        content = target.read_bytes().decode()
        assert content.startswith("x,x_prime,tau")
        assert "\r\n" in content

    @staticmethod
    def csv_writer_text(table):
        """The table written row by row through csv.writer, each float
        formatted on its own, as the rows were written before."""
        def fmt(value):
            if value is None:
                return ""
            if isinstance(value, float):
                return format(value, ".17g")
            return str(value)

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(KERNEL_COLUMNS)
        for i in range(len(table)):
            columns = (getattr(table, name) for name in KERNEL_COLUMNS)
            writer.writerow([fmt(None if c is None else c[i].item()) for c in columns])
        return buffer.getvalue()

    def test_columns_format_as_csv_writer_rows(self, market):
        edge = np.array([-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 0.1, -1 / 3])
        n = edge.size
        synthetic = KernelTable(
            x=edge, x_prime=edge[::-1].copy(), tau=np.full(n, 0.25),
            which=np.array(["p1", "p2"] * (n // 2)),
            method=np.array(["spectral", "closed"] * (n // 2)),
            value=edge * 3.0, tail_estimate=np.abs(edge),
            rel_disagreement=None)
        # repeated x and tau, with -0.0 and 0.0 in one column: each distinct
        # float is formatted once, and each of the two zeros keeps its text
        x = np.array([0.1, -0.0, 0.0, 0.1, -0.0, 2.5, 0.0, 0.1])
        repeated = replace(synthetic, x=x, x_prime=np.full(n, 1 / 3),
                           tau=np.array([0.25, 2.0] * (n // 2)),
                           value=np.array([1e-300, -0.0, 0.0, 1e-300, 5.0, 5.0, -1.5, 5.0]))
        hp = HarmonicParams(market)
        tables = [synthetic, replace(synthetic, rel_disagreement=edge[::-1].copy()), repeated,
                  kernel_rows(hp, [-0.1, 0.0, 0.2], [0.05, 0.1], [0.3, 1.0]),
                  kernel_rows(hp, [0.0], [0.1], [0.5], methods=("spectral",))]
        for table in tables:
            assert _kernel_csv(table).encode() == self.csv_writer_text(table).encode()

    @pytest.mark.parametrize("extra,message", [
        (["--tau", "0"], "tau"),
        (["--tau", "1e-6"], "modes"),
        (["--tau", "0.5", "--x", "3.5"], "outside"),
    ])
    def test_invalid_table_exits_2(self, capsys, extra, message):
        code, out, err = run_cli(capsys, [
            "kernel", "--model", "barrier", "--a", "0", "--b", "3.141592653589793",
            "--x", "1.0", "--x-prime", "1.5", *extra,
        ])
        assert code == 2
        assert out == ""
        assert message in err


# ---------------------------------------------------------------------------
# prices


class TestPrice:
    def test_barrier_price_validates_schema(self, capsys):
        code, out, _ = run_cli(capsys, [
            "price", "--model", "barrier", "--payoff", "call", "--strike", "100",
            "--s0", "100", "--lower", "80", "--upper", "120", "--tau", "0.5",
        ])
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("pricing_result.schema.json"))
        assert payload["result"]["method"] == "spectral-p1"
        assert 0.0 < payload["result"]["value"] < 10.0
        assert "oracle" not in payload

    def test_mc_oracle_z_score(self, capsys):
        code, out, _ = run_cli(capsys, [
            "price", "--model", "barrier", "--strike", "100", "--s0", "100",
            "--lower", "80", "--upper", "120", "--tau", "0.25",
            "--oracle", "mc", "--paths", "20000", "--steps", "128", "--seed", "11",
        ])
        payload = json.loads(out)
        jsonschema.validate(payload, schema("pricing_result.schema.json"))
        assert "z_score" in payload
        assert payload["oracle"]["method"] == "mc-brownian-bridge"
        assert code == (0 if abs(payload["z_score"]) <= 3.0 else 1)
        assert abs(payload["z_score"]) <= 3.0

    def test_odd_path_count_exits_2(self, capsys, tmp_path):
        # paths come in antithetic pairs
        target = tmp_path / "result"
        code, out, err = run_cli(capsys, [
            "price", "--model", "barrier", "--lower", "80", "--upper", "120",
            "--oracle", "mc", "--paths", "20001", "--out", str(target),
        ])
        assert code == 2
        assert out == ""
        assert err == "error: paths must be even and >= 2, got 20001\n"
        assert not target.exists()

    def test_harmonic_rejects_mc_oracle(self, capsys):
        code, _, err = run_cli(capsys, [
            "price", "--model", "harmonic", "--strike", "1", "--oracle", "mc",
        ])
        assert code == 2
        assert "Monte Carlo" in err

    def test_params_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "strike": 100.0, "s0": 100.0,
            "lower": 80.0, "upper": 120.0, "tau": 0.5, "payoff": "call",
        }))
        base = ["price", "--model", "barrier", "--params", str(cfg)]
        code, out, _ = run_cli(capsys, base)
        assert code == 0
        base_value = json.loads(out)["result"]["value"]

        code, out, _ = run_cli(capsys, base + ["--strike", "110"])
        assert code == 0
        overridden = json.loads(out)
        assert overridden["result"]["config_echo"]["strike"] == 110.0
        assert overridden["result"]["value"] < base_value

    def test_flip_beta_price_equals_p2(self, capsys):
        base = ["price", "--model", "barrier", "--strike", "100", "--s0", "100",
                "--lower", "80", "--upper", "120", "--tau", "0.5"]
        _, p2_out, _ = run_cli(capsys, base + ["--which", "p2"])
        _, flip_out, _ = run_cli(capsys, base + ["--which", "p1", "--flip-beta"])
        assert (json.loads(p2_out)["result"]["value"]
                == json.loads(flip_out)["result"]["value"])

    def test_missing_barriers_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["price", "--model", "barrier"])
        assert code == 2
        assert "--lower" in err

    def test_bad_tau_exit_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "price", "--model", "barrier", "--lower", "80", "--upper", "120",
            "--tau", "0",
        ])
        assert code == 2
        assert "tau" in err

    @pytest.mark.parametrize("model", [["--model", "barrier", "--lower", "80",
                                        "--upper", "120"], ["--model", "harmonic"]])
    @pytest.mark.parametrize("n_trunc", ["-1", "201"])
    def test_truncation_outside_cap_exits_2(self, capsys, model, n_trunc):
        # no truncation is taken from the command line any more: the parser
        # refuses the flag itself
        with pytest.raises(SystemExit) as refused:
            main(["price", *model, f"--n-trunc={n_trunc}"])
        out, err = capsys.readouterr()
        assert refused.value.code == 2
        assert out == ""
        assert "unrecognized arguments: --n-trunc" in err

    def test_beta_zero_note_on_price(self, capsys):
        code, out, _ = run_cli(capsys, [
            "price", "--model", "barrier", "--r", "0.02", "--lower", "80",
            "--upper", "120",
        ])
        assert code == 0
        assert any("beta = 0" in n for n in json.loads(out)["notes"])


# ---------------------------------------------------------------------------
# numbers that are not finite, or whose derived constants are not


@pytest.mark.parametrize("argv", [
    ["price", "--model", "harmonic", "--r", "nan"],
    ["price", "--model", "harmonic", "--w", "nan"],
    ["price", "--model", "harmonic", "--x", "inf"],
    ["price", "--model", "barrier", "--lower", "80", "--upper", "inf"],
    ["price", "--model", "barrier", "--lower", "80", "--upper", "120",
     "--payoff", "put", "--strike", "inf"],
    ["kernel", "--model", "harmonic", "--tau", "inf"],
    ["price", "--model", "harmonic", "--sigma", "1e300"],
    ["price", "--model", "harmonic", "--sigma", "1e-200"],
], ids=["r-nan", "w-nan", "x-inf", "upper-inf", "strike-inf", "tau-inf",
        "sigma-overflow", "sigma-underflow"])
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["price", "--model", "harmonic", "--x", "nan"],
     "error: x = nan lies outside the open interval"),
    (["price", "--model", "harmonic", "--tau", "inf"],
     "error: tau must be positive and finite"),
    *((["price", "--model", "barrier", "--lower", "80", "--upper", "120", f"--s0={s0}"],
       f"error: spot {float(s0)} must start strictly inside (80.0, 120.0)")
      for s0 in ("0", "-3", "150")),
    (["price", "--model", "barrier", "--lower", "0", "--upper", "120"],
     "error: need 0 < lower < upper, got (0.0, 120.0)"),
    (["price", "--model", "barrier", "--lower", "120", "--upper", "80"],
     "error: need 0 < lower < upper, got (120.0, 80.0)"),
], ids=["x-nan", "tau-inf", "s0-zero", "s0-negative", "s0-above", "lower-zero",
        "lower-above-upper"])
def test_price_checks_spot_and_tau_before_its_window(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("argv", [
    # a tilt of -9999.5 makes e^{gamma^2 / 2} in the payoff coefficients overflow
    ["price", "--model", "harmonic", "--sigma", "0.01", "--r", "1", "--strike", "1"],
    ["kernel", "--model", "harmonic", "--x", "1e300"],
], ids=["harmonic-overflow", "kernel-x"])
def test_non_finite_results_exit_2(capsys, tmp_path, argv):
    # every input is finite; the result is not, and none is written
    target = tmp_path / "result"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "is not finite" in err
    assert err.count("\n") == 1 and err.endswith("\n")  # the one error line
    assert not target.exists()


def test_harmonic_price_at_huge_tau_is_zero(capsys):
    # e^{-tau E_0} underflows, the true limit; no window of nan nodes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, ["price", "--model", "harmonic", "--tau", "1e300"])
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["value"] == 0.0


@pytest.mark.parametrize("model", ["harmonic", "barrier"])
def test_far_strikes_and_spots_price_or_refuse(capsys, model):
    # a finite price >= 0, or one error line and exit 2; never a traceback
    for x in (-50.0, 0.0, 50.0):
        if model == "harmonic":
            where = [f"--x={x!r}"]
        else:  # barriers 5 either side of the spot, in log-price
            where = ["--s0", repr(math.exp(x)), "--lower", repr(math.exp(x - 5.0)),
                     "--upper", repr(math.exp(x + 5.0))]
        for kind in ("call", "put", "digital_call"):
            for strike in ("1e-300", "1", "1e300"):
                for which in ("p1", "p2"):
                    argv = ["price", "--model", model, *where, "--payoff", kind,
                            "--strike", strike, "--which", which]
                    code, out, err = run_cli(capsys, argv)
                    if code == 0:
                        value = json.loads(out)["result"]["value"]
                        assert math.isfinite(value) and value >= 0.0, argv
                    else:
                        assert code == 2 and out == "", argv
                        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize("argv, modes", [
    (["price", "--model", "harmonic", "--tau", "0.01"], "201 oscillator modes"),
    (["kernel", "--model", "harmonic", "--tau", "0.1", "--method", "spectral"],
     "201 oscillator modes"),
    (["price", "--model", "barrier", "--lower", "20", "--upper", "500", "--tau", "1e-5"],
     "4097 sine modes"),
    (["price", "--model", "barrier", "--lower", "1e-300", "--upper", "1e300"],
     "4097 sine modes"),
    (["price", "--model", "harmonic", "--tau", "5e-324"], "201 oscillator modes"),
    (["kernel", "--model", "barrier", "--a", "0", "--b", "3", "--x", "1",
      "--tau", "5e-324"], "4097 sine modes"),
    (["kernel", "--model", "barrier", "--sigma", "1e-10", "--a=-1e153", "--b", "1e153",
      "--tau", "0.5"], "4097 sine modes"),
], ids=["harmonic-price", "harmonic-kernel", "barrier-price", "barrier-width",
        "tau-overflow", "kernel-tau-overflow", "k-squared-underflow"])
def test_spectral_sum_beyond_the_mode_cap_exits_2(capsys, tmp_path, argv, modes):
    # 36.84 / 5e-324 overflows and sigma 1e-10 on a width of 2e153 makes
    # k^2 underflow to 0; every case is the same one-line refusal
    target = tmp_path / "result"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    tau = argv[argv.index("--tau") + 1] if "--tau" in argv else "0.5"
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: the spectral sum at tau = {float(tau)} needs more "
                          f"than the {modes}")
    assert err.count("\n") == 1 and err.endswith("\n")  # the one error line
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--model", "barrier", "--a=-1e200", "--b", "1e200", "--method", "closed"],
    ["diagnose", "--model", "barrier", "--a=-1e200", "--b", "1e200"],
], ids=["kernel-closed", "diagnose"])
def test_barrier_width_whose_square_overflows_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "result"
    code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: barrier width b - a = 2e+200 is out of range")
    assert err.count("\n") == 1 and err.endswith("\n")  # the one error line
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["diagnose", "--model", "barrier", "--a", "0", "--b", "1e-160"],
     "barrier width b - a = 1e-160 is out of range: k^2 = sigma^2 pi^2 / (2 L^2) "
     "overflows at sigma = 0.2\n"),
    (["kernel", "--model", "barrier", "--a", "0", "--b", "1e-160"],
     "barrier width b - a = 1e-160 is out of range: k^2"),
    (["diagnose", "--model", "barrier", "--a", "0", "--b", "1000"],
     "the quasi_basis check's residual is not finite: nan\n"),
    (["diagnose", "--model", "barrier", "--a", "0", "--b", "900"],
     "the theta_conjugacy check's residual is not finite: nan\n"),
    (["diagnose", "--model", "harmonic", "--sigma", "50"],
     "the ladder check's residual is not finite: nan\n"),
    (["price", "--model", "barrier", "--lower", "80", "--upper", "120", "--oracle", "mc",
      "--paths", "2", "--steps", "1"], "the Monte Carlo value 0.0 has no spread"),
    (["kernel", "--model", "barrier", "--a", "0", "--b", "1e20", "--x", "1", "--x-prime", "2",
      "--tau", "1e-300", "--method", "closed"],
     "tau * k^2 underflows to 0 at tau = 1e-300 and k^2 = 1.973920880217872e-41: "
     "the closed form needs it positive\n"),
], ids=["diagnose-narrow", "kernel-narrow", "diagnose-norm-bound-overflow",
        "diagnose-wide", "diagnose-large-sigma", "price-mc-no-spread",
        "kernel-closed-rate-underflow"])
def test_unusable_numbers_exit_2(capsys, tmp_path, argv, message):
    # no NaN or Infinity in the output, no numpy warning and no traceback
    target = tmp_path / "result"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")  # the one error line
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["--model", "harmonic"],
    ["--model", "harmonic", "--r", "0.02"],
    ["--model", "barrier", "--a", "0", "--b", "3"],
], ids=["harmonic", "harmonic-beta0", "barrier"])
def test_nan_norm_product_exits_2(capsys, monkeypatch, tmp_path, argv):
    # the last norm of each family block is NaN inside the norm check alone;
    # every other inner product of the battery is kept
    check_norm_growth = pbk.pb_core.check_norm_growth

    def inner(f, g):
        out = pbk.grids.inner(f, g)
        if np.ndim(out):
            out = out.copy()
            out[-1] = math.nan
        return out

    def with_nan_norm(system, n_max):
        with monkeypatch.context() as patch:
            patch.setattr(pbk.pb_core, "inner", inner)
            return check_norm_growth(system, n_max)

    monkeypatch.setattr(pbk.pb_core, "check_norm_growth", with_nan_norm)
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, ["diagnose", *argv, *DIAG_FAST, "--out", str(target)])
    assert code == 2
    assert err == "error: the norm_growth check's residual is not finite: nan\n"
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["diagnose", "--model", "barrier", "--a", "0", "--b", "3", "--n-trunc", "64"],
    ["kernel", "--model", "harmonic", "--n-trunc", "64"],
    ["price", "--model", "harmonic", "--nodes", "64"],
    ["price", "--model", "barrier", "--lower", "80", "--upper", "120", "--a", "4"],
    ["price", "--model", "barrier", "--lower", "80", "--upper", "120", "--stri", "100"],
], ids=["diagnose-n-trunc", "kernel-n-trunc", "price-nodes", "price-log-barrier",
        "price-abbreviated-strike"])
def test_truncation_and_node_flags_are_unknown(capsys, argv):
    # the sum stops by its decay rule, and the analysis truncation and the
    # payoff rule are constants (price --n-trunc: test_truncation_outside_cap);
    # price takes its barriers as --lower and --upper; no flag is abbreviated
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


PRICE_BARRIER = ["price", "--model", "barrier", "--lower", "80", "--upper", "120"]


@pytest.mark.parametrize("argv, message", [
    (["price", "--model", "harmonic", "--s0", "120"], "price --model harmonic does not read --s0"),
    (PRICE_BARRIER + ["--x", "1.0"], "price --model barrier does not read --x"),
    (PRICE_BARRIER + ["--w", "0.5"], "price --model barrier does not read --w"),
    (["kernel", "--model", "harmonic", "--a", "1", "--b", "2"],
     "kernel --model harmonic does not read --a"),
    (["kernel", "--model", "barrier", "--a", "0", "--b", "3", "--w", "0.5"],
     "kernel --model barrier does not read --w"),
    (["diagnose", "--model", "barrier", "--a", "0", "--b", "3", "--route", "grid"],
     "diagnose --model barrier does not read --route"),
    (["diagnose", "--model", "harmonic", "--b", "3"], "diagnose --model harmonic does not read --b"),
    (PRICE_BARRIER + ["--paths", "7", "--seed", "3", "--no-bridge"],
     "price --model barrier does not read --paths without --oracle mc"),
    (PRICE_BARRIER + ["--no-bridge"], "price --model barrier does not read --no-bridge "
                                      "without --oracle mc"),
    (["price", "--model", "harmonic", "--steps", "4"],
     "price --model harmonic does not read --steps without --oracle mc"),
    (["price", "--model", "harmonic", "--lower", "80"],
     "price --model harmonic does not read --lower"),
    (["diagnose", "--model", "barrier", "--a", "0", "--b", "3", "--w", "0.5"],
     "diagnose --model barrier does not read --w"),
], ids=["price-harmonic-s0", "price-barrier-x", "price-barrier-w", "kernel-harmonic-a",
        "kernel-barrier-w", "diagnose-barrier-route", "diagnose-harmonic-b",
        "price-mc-flags", "price-no-bridge", "price-harmonic-steps",
        "price-harmonic-lower", "diagnose-barrier-w"])
def test_flags_the_command_never_reads_exit_2(capsys, tmp_path, argv, message):
    target = tmp_path / "result"
    code, out, err = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert out == "" and not target.exists()
    assert err == f"error: {message}\n"


def test_params_file_keys_are_not_refused(capsys, tmp_path):
    # a file written for one model may hold the other model's keys
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"w": 0.5, "x": 1.0, "paths": 7, "route": "grid"}))
    code, _, _ = run_cli(capsys, PRICE_BARRIER + ["--params", str(path)])
    assert code == 0


def test_params_file_must_hold_an_object(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps([0.3, 0.05]))
    code, out, err = run_cli(capsys, PRICE_BARRIER + ["--params", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: --params file must hold a JSON object, got list\n"


@pytest.mark.parametrize("argv, cfg, message", [
    (PRICE_BARRIER + ["--oracle", "mc"], {"bridge": "false", "paths": 2048, "steps": 16},
     "argument --bridge: ignored explicit argument 'false'"),
    (["diagnose", "--model", "harmonic"], {"nmax": 2.7},
     "argument --nmax: invalid int value: '2.7'"),
    (PRICE_BARRIER, {"sigma": True}, "argument --sigma: invalid float value: 'true'"),
    (PRICE_BARRIER + ["--oracle", "mc"], {"paths": 1.9},
     "argument --paths: invalid int value: '1.9'"),
    (PRICE_BARRIER, {"which": "p3"}, "argument --which: invalid choice: 'p3'"),
], ids=["bridge-string", "nmax-float", "sigma-bool", "paths-float", "which-choice"])
def test_params_file_values_are_typed_like_flags(capsys, tmp_path, argv, cfg, message):
    # a file value goes through the parser as --key=value, so it is refused
    # where the written flag would be, not coerced by bool() or int()
    path = tmp_path / "params.json"
    path.write_text(json.dumps(cfg))
    target = tmp_path / "result"
    with pytest.raises(SystemExit) as refused:
        main(argv + ["--params", str(path), "--out", str(target)])
    out, err = capsys.readouterr()
    assert refused.value.code == 2
    assert out == "" and not target.exists()
    assert f"error: {message}" in err


def test_params_file_switches_take_json_booleans(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"bridge": False, "paths": 2048, "steps": 16}))
    argv = PRICE_BARRIER + ["--oracle", "mc", "--params", str(path)]
    for written, bridged in (([], False), (["--bridge"], True)):  # the written flag wins
        code, out, _ = run_cli(capsys, argv + written)
        assert code in (0, 1)
        assert json.loads(out)["oracle"]["config_echo"]["bridge_correction"] is bridged
    flipped = run_cli(capsys, PRICE_BARRIER + ["--flip-beta"])
    for value, expected in ((True, flipped), (False, run_cli(capsys, PRICE_BARRIER))):
        path.write_text(json.dumps({"flip_beta": value}))
        assert run_cli(capsys, PRICE_BARRIER + ["--params", str(path)]) == expected


@pytest.mark.parametrize("argv", [
    ["--model", "harmonic", "--sigma", "0.3", "--r", "0.07", "--w", "0.5", "--route", "grid"],
    ["--model", "harmonic", "--r", "0.02"],
    ["--model", "barrier", "--a=-0.5", "--b", "2.5", "--sigma", "0.25"],
], ids=["harmonic-grid", "harmonic-beta0", "barrier"])
def test_diagnose_echo_reproduces_the_report(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, ["diagnose", *argv, *DIAG_FAST])
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(json.loads(out)["params_echo"]))
    assert run_cli(capsys, ["diagnose", *argv[:2], "--params", str(path)]) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["--model", "harmonic", "--sigma", "0.3", "--r", "0.07", "--w", "0.5", "--x", "0.2",
     "--payoff", "put", "--strike", "1.1", "--tau", "0.7", "--which", "p2"],
    ["--model", "barrier", "--lower", "70", "--upper", "140", "--s0", "95", "--sigma",
     "0.25", "--r", "0.03", "--payoff", "digital_call", "--strike", "105", "--tau", "0.3"],
    ["--model", "barrier", "--lower", "80", "--upper", "120", "--flip-beta"],
], ids=["harmonic", "barrier", "flipped"])
def test_price_echo_reproduces_the_report(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, ["price", *argv])
    assert code == 0
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(json.loads(out)["result"]["config_echo"]))
    assert run_cli(capsys, ["price", *argv[:2], "--params", str(path)]) == (code, out, err)


# ---------------------------------------------------------------------------
# one parser per process


def _exit_of(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as stopped:
        parse(argv)
    out, err = capsys.readouterr()
    return stopped.value.code, out, err


@pytest.mark.parametrize("argv", [
    PRICE_BARRIER + ["--bogus"],
    PRICE_BARRIER + ["--stri", "100"],
    PRICE_BARRIER + ["stray"],
    ["price", "--strike", "100"],
    ["kernel", "--model", "harmonic", "--which", "p3"],
    [],
    ["quote", "--model", "harmonic"],
    ["price", "--help"],
], ids=["unknown-flag", "abbreviated-flag", "stray-positional", "missing-model",
        "bad-choice", "no-command", "unknown-command", "price-help"])
def test_main_parses_as_the_shared_parser(capsys, argv):
    # main parses a command's argv with that command's parser alone; its
    # refusals and help are the shared parser's, usage lines included
    assert (_exit_of(capsys, main, argv)
            == _exit_of(capsys, pbk.cli._PARSER.parse_args, argv))


def test_shared_parser_keeps_no_state(capsys):
    base = ["price", "--model", "barrier", "--lower", "80", "--upper", "120"]
    flagged = base + ["--flip-beta", "--tau", "0.05"]
    first = run_cli(capsys, flagged)
    plain = run_cli(capsys, base)
    assert run_cli(capsys, flagged) == first
    echo = json.loads(plain[1])["result"]["config_echo"]
    box = BarrierParams(MarketParams(0.2, 0.05), math.log(80.0), math.log(120.0))
    assert echo["n_trunc"] == top_mode(box, 0.5)
    assert "beta_override" not in echo
    assert json.loads(first[1])["result"]["config_echo"]["n_trunc"] == top_mode(box, 0.05)
    # an argv refused by the parser, and one refused by the handler
    with pytest.raises(SystemExit) as refused:
        main(flagged + ["--tau", "many"])
    assert refused.value.code == 2
    assert run_cli(capsys, base + ["--flip-beta", "--tau", "0"])[0] == 2
    capsys.readouterr()
    assert run_cli(capsys, base) == plain


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_runs():
    # the child imports pbk from wherever this process does (a checkout's src/)
    proc = subprocess.run(
        [sys.executable, "-m", "pbk.cli", "kernel", "--model", "harmonic",
         "--x", "0.0", "--x-prime", "0.1", "--tau", "0.5", "--method", "closed"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,x_prime,tau")


def test_console_script_name_matches_docs():
    # the packaging exposes the same entry point the README documents
    import importlib.metadata

    eps = importlib.metadata.entry_points(group="console_scripts")
    names = {ep.name: ep.value for ep in eps}
    assert names.get("pbk") == "pbk.cli:main"
