"""Command-line interface: argument handling, output formats, exit codes.

Most tests call main() in-process for speed; one subprocess test confirms the
module entry point is wired up.
"""

import csv
import io
import json
import math
import subprocess
import sys
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import pbk.quadrature
from pbk.cli import KERNEL_COLUMNS, _kernel_csv, _parse_point_list, main
from pbk.barrier import DEFAULT_TRUNCATION
from pbk.harmonic import HarmonicParams
from pbk.kernels import KernelTable, kernel_rows

DIAG_FAST = ["--nmax", "4"]


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
        code, out, _ = run_cli(capsys, ["diagnose", "--model", "harmonic"] + DIAG_FAST)
        assert code == 0
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
        code, out, _ = run_cli(
            capsys,
            ["diagnose", "--model", "harmonic", "--route", "grid"] + DIAG_FAST,
        )
        assert code == 0
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

    @pytest.mark.parametrize("n_trunc", ["2", "-1"])
    def test_barrier_truncation_below_test_modes_exits_2(self, capsys, n_trunc):
        code, out, err = run_cli(capsys, ["diagnose", "--model", "barrier", "--a", "0",
                                          "--b", "3", f"--n-trunc={n_trunc}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_trunc must be at least 4")

    def test_barrier_truncation_above_family_cap_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["diagnose", "--model", "barrier", "--a", "0",
                                          "--b", "3", "--n-trunc", "201"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_trunc must be at least 4") and "at most 200" in err

    def test_narrow_barrier_report(self, capsys):
        """Barriers 80/120: the off-diagonal psi Gram entries never settle, but
        the norm check reads only paired inner products."""
        code, out, _ = run_cli(capsys, ["diagnose", "--model", "barrier",
                                        "--a", "4.382026634673881",
                                        "--b", "4.787491742782046"])
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_unsettled_quadrature_exits_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(pbk.quadrature, "ADAPTIVE_CAP", 128)
        path = tmp_path / "report.json"
        code, out, err = run_cli(capsys, ["diagnose", "--model", "barrier", "--a", "0",
                                          "--b", "3", "--out", str(path)] + DIAG_FAST)
        assert code == 2
        assert out == "" and not path.exists()
        assert err.startswith("error: no convergence at 128 nodes: last=")
        assert "previous=" in err and len(err.splitlines()) == 1


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
        hp = HarmonicParams(market)
        tables = [synthetic, replace(synthetic, rel_disagreement=edge[::-1].copy()),
                  kernel_rows(hp, [-0.1, 0.0, 0.2], [0.05, 0.1], [0.3, 1.0]),
                  kernel_rows(hp, [0.0], [0.1], [0.5], methods=("spectral",))]
        for table in tables:
            assert _kernel_csv(table).encode() == self.csv_writer_text(table).encode()

    @pytest.mark.parametrize("extra,message", [
        (["--tau", "0"], "tau"),
        (["--tau", "0.5", "--n-trunc", "201"], "n_trunc"),
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
        code, out, err = run_cli(capsys, ["price", *model, f"--n-trunc={n_trunc}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_trunc must be in 0..200")

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
], ids=["x-nan", "tau-inf"])
def test_price_checks_spot_and_tau_before_its_window(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("argv", [
    ["price", "--model", "harmonic", "--tau", "1e300"],
    ["price", "--model", "barrier", "--lower", "1e-300", "--upper", "1e300"],
    ["kernel", "--model", "harmonic", "--x", "1e300"],
], ids=["harmonic-tau", "barrier-width", "kernel-x"])
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


# ---------------------------------------------------------------------------
# one parser per process


def test_shared_parser_keeps_no_state(capsys):
    base = ["price", "--model", "barrier", "--lower", "80", "--upper", "120"]
    flagged = base + ["--flip-beta", "--n-trunc", "64"]
    first = run_cli(capsys, flagged)
    plain = run_cli(capsys, base)
    assert run_cli(capsys, flagged) == first
    echo = json.loads(plain[1])["result"]["config_echo"]
    assert echo["n_trunc"] == DEFAULT_TRUNCATION
    assert "beta_override" not in echo
    assert json.loads(first[1])["result"]["config_echo"]["n_trunc"] == 64
    # an argv refused by the parser, and one refused by the handler
    with pytest.raises(SystemExit) as refused:
        main(flagged + ["--n-trunc", "many"])
    assert refused.value.code == 2
    assert run_cli(capsys, base + ["--flip-beta", "--tau", "0"])[0] == 2
    capsys.readouterr()
    assert run_cli(capsys, base) == plain


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pbk.cli", "kernel", "--model", "harmonic",
         "--x", "0.0", "--x-prime", "0.1", "--tau", "0.5", "--method", "closed"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,x_prime,tau")


def test_console_script_name_matches_docs():
    # the packaging exposes the same entry point the README documents
    import importlib.metadata

    eps = importlib.metadata.entry_points(group="console_scripts")
    names = {ep.name: ep.value for ep in eps}
    assert names.get("pbk") == "pbk.cli:main"
