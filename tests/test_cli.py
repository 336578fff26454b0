"""Command-line surface: dispatch, determinism, exit codes, file formats."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import delver as dv
import delver.calibration as cal
from delver.cli import main
from delver.config import load_params, params_from_dict, parse_range

from conftest import run_isolated

REPO = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = str(REPO / "configs" / "reference.json")
# The README's CLI examples on the reference config: argv, the file written
# (None for stdout), and the SHA-256 of that output, which must not change by
# a byte. The atlas digest is what the per-point scalar sweep wrote; the
# others were taken at commit 81c268f, before the bisection loops, the quality
# report and the rework extension were folded into shared code.
# name: (argv, (file written, rows) or None for stdout, SHA-256 of the file or of stdout)
README_GOLDEN = {
    "atlas": (["atlas", "--alpha", "0:1:101", "--beta", "0:1:101", "--out", "atlas.csv"],
              ("atlas.csv", 10201),
              "ffb612b29e7b025b8f872286b49ca361f687ab3b50044879bb4163023f9b8877"),
    "boundary": (["boundary", "--which", "psi_tau", "--beta-range", "0:1:101"],
                 None, "2b3b1d419b342ff4c7afa057616b3907f4c794decb7b2602e68b2e4751176158"),
    "institution": (["intervene", "institution", "--lever", "p_a", "--delta", "0.05",
                     "--alpha-range", "0:1:51", "--beta-range", "0:1:51", "--out", "gains.csv"],
                    ("gains.csv", 2601),
                    "a9bd4f068764e4f6c9160bcdb8fcb6bf9c44483e1542eb8ba6f70175baa0dae7"),
    "rework": (["extend", "rework", "--kappa", "0.8", "--alpha-range", "0:1:21",
                "--beta-range", "0:1:21", "--out", "rework.csv"],
               ("rework.csv", 441),
               "b9f9e7de63157d4d834f6b2ac2dcfef149451b17ef853f519636a68af5825111"),
    "difficulty": (["extend", "difficulty", "--alpha-range", "0.2:1:3", "--beta-range", "0.2:0.9:3"],
                   None, "f01dad3d052a4832f160640dba240381df0a11fa52630df54b3009f8fbe91758"),
    "worker": (["intervene", "worker", "--alpha", "0.05", "--beta", "0.1",
                "--h1", "linear:1", "--h2", "linear:1"],
               None, "9076c63e43f6aa92cb0c2515d75af2da77fc35e9b4894418811b27fd8b4347b1"),
    "minimal": (["intervene", "minimal", "--alpha", "0.05", "--beta", "0.5", "--lever", "alpha"],
                None, "4f639be88664456e7f20ce676a5a62a1bf4a4c66e2327f5ea81b6e87edc64f0a"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_reference_file_loads(self, reference):
        assert load_params(REFERENCE_CONFIG) == reference

    def test_unknown_keys_rejected(self):
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["extra"] = 1
        with pytest.raises(dv.ConfigError):
            params_from_dict(doc)
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["task_profile"]["typo"] = 2
        with pytest.raises(dv.ConfigError):
            params_from_dict(doc)

    def test_missing_keys_rejected(self):
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        del doc["worker"]["p_w"]
        with pytest.raises(dv.ConfigError):
            params_from_dict(doc)

    def test_quadratic_cost_forbids_k(self):
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["functions"]["verification_cost"] = {"family": "linear_quadratic", "k": 2}
        with pytest.raises(dv.ConfigError):
            params_from_dict(doc)

    def test_range_parsing(self):
        assert parse_range("0:1:11") == (0.0, 1.0, 11)
        with pytest.raises(dv.ConfigError):
            parse_range("0:1")
        with pytest.raises(dv.ConfigError):
            parse_range("0:1:0")
        for text in ("nan:1:3", "0:inf:3", "-inf:0:3"):
            with pytest.raises(dv.ConfigError, match="finite"):
                parse_range(text)


class TestExitCodes:
    def test_empty_argv_is_usage_error(self, capsys):
        code, _, _ = run(capsys, *[])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_domain_error_is_one_line_on_stderr(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"task_profile": {}}')
        code, out, err = run(capsys, "solve", "--config", str(bad), "--alpha", "1", "--beta", "1")
        assert code == 1
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(capsys, "solve", "--config", "nope.json", "--alpha", "1", "--beta", "1")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--alpha", "nan", "--beta", "0.5"],
        ["quality", "--alpha", "inf", "--beta", "0.5"],
        ["quality", "--alpha", "0.5", "--beta", "0.5", "--tau", "nan"],
        ["extend", "rework", "--kappa", "nan", "--alpha-range", "0:1:3",
         "--beta-range", "0:1:3", "--out", "grid.csv"],
    ], ids=["solve-alpha", "quality-alpha", "quality-tau", "rework-kappa"])
    def test_non_finite_option_is_rejected(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--config", REFERENCE_CONFIG)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --") and "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("token, message", [
        ("NaN", "non-finite number NaN"), ("Infinity", "non-finite number Infinity"),
        ("-Infinity", "non-finite number -Infinity"), ("1e999", "'tau' must be finite"),
        ("1" + "0" * 400, "'tau' must be finite"),
    ], ids=["nan", "inf", "-inf", "1e999", "big-int"])
    def test_non_finite_config_number_is_rejected(self, capsys, tmp_path, token, message):
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["task_profile"]["tau"] = "TAU"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc).replace('"TAU"', token))
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err
        assert len(err.strip().splitlines()) == 1


class TestSolve:
    def test_verified_delegation_point(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.9", "--beta", "0.9")
        assert code == 0
        assert "regime verified_delegation" in out

    def test_verify_flag_reports_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "solve", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.9", "--beta", "0.9", "--verify")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("analytic_minus_oracle")][0]
        assert float(line.split()[1]) >= -1e-6

    def test_json_round_trips_the_config(self, capsys, reference):
        code, out, _ = run(capsys, "solve", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.9", "--beta", "0.9", "--json")
        assert code == 0
        payload = json.loads(out)
        assert params_from_dict(payload["config"]) == reference
        assert payload["regime"] == "verified_delegation"

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "solve", "--config", REFERENCE_CONFIG,
                          "--alpha", "0.37", "--beta", "0.61", "--json")
        _, second, _ = run(capsys, "solve", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.37", "--beta", "0.61", "--json")
        assert first == second


class TestGridCommands:
    def test_atlas_csv(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.csv"
        code, _, _ = run(capsys, "atlas", "--config", REFERENCE_CONFIG,
                         "--alpha", "0:1:5", "--beta", "0:1:4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,beta,d_star,s_star,regime,q,q0,gap,quality,compliance"
        assert len(lines) == 21

    def test_atlas_is_byte_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "atlas", "--config", REFERENCE_CONFIG,
            "--alpha", "0:1:5", "--beta", "0:1:4", "--out", str(a))
        run(capsys, "atlas", "--config", REFERENCE_CONFIG,
            "--alpha", "0:1:5", "--beta", "0:1:4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", README_GOLDEN)
    def test_readme_command_is_byte_identical(self, capsys, tmp_path, monkeypatch, name):
        argv, written, digest = README_GOLDEN[name]
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--config", REFERENCE_CONFIG)
        assert (code, err) == (0, "")
        if written is None:
            data = out.encode()
        else:
            path, rows = written
            assert out == f"wrote {rows} rows to {path}\n"
            data = (tmp_path / path).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_jobs_flag_is_a_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "atlas", "--config", REFERENCE_CONFIG, "--alpha", "0:1:3",
                         "--beta", "0:1:3", "--out", str(tmp_path / "a.csv"), "--jobs", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["atlas", "--alpha", "nan:1:3", "--beta", "0:1:3", "--out", "grid.csv"],
        ["atlas", "--alpha", "0:inf:3", "--beta", "0:1:3", "--out", "grid.csv"],
        ["boundary", "--which", "psi", "--beta-range", "0:nan:3", "--out", "grid.csv"],
        ["extend", "rework", "--kappa", "0.8", "--alpha-range", "0:1:3",
         "--beta-range=-inf:1:3", "--out", "grid.csv"],
    ], ids=["atlas-nan", "atlas-inf", "boundary", "extend"])
    def test_non_finite_range_is_rejected(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--config", REFERENCE_CONFIG)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "grid.csv").exists()

    def test_invalid_grid_point_writes_nothing_to_stdout(self, capsys, tmp_path):
        code, out, err = run(capsys, "extend", "rework", "--config", REFERENCE_CONFIG,
                             "--kappa", "0.8", "--alpha-range=-1:1:3", "--beta-range", "0:1:3",
                             "--out", str(tmp_path / "grid.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: alpha")
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_out_of_range_delta_writes_no_file_and_no_rows(self, capsys, tmp_path, to_file):
        out_args = ["--out", str(tmp_path / "grid.csv")] if to_file else []
        code, out, err = run(capsys, "intervene", "institution", "--config", REFERENCE_CONFIG,
                             "--lever", "p_a", "--delta", "0.5", "--alpha-range", "0:1:3",
                             "--beta-range", "0:1:3", *out_args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: d_p must lie in")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("family, alpha, beta", [
        ("linear_in_efficiency", "-0.5:1:4", "0:1:3"),
        ("linear_in_efficiency", "0:1:3", "0:1.5:4"),
        ("linear_in_efficiency", "1:-1:3", "-0.5:1:4"),
        ("linear_in_efficiency", "1:-1:3", "0:1.5:4"),
        ("inverse_efficiency", "0:1:3", "2:-1:4"),
        ("inverse_efficiency", "-1:1:3", "0:2:3"),
        ("inverse_efficiency", "1:-1:3", "1:2:3"),
    ])
    def test_invalid_atlas_point_fails_as_the_scalar_path(self, capsys, tmp_path,
                                                          family, alpha, beta):
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["functions"]["execution_cost"]["family"] = family
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        params = params_from_dict(doc)
        expected = None
        for b in np.linspace(*parse_range(beta)):
            for a in np.linspace(*parse_range(alpha)):
                try:
                    dv.evaluate_point(params, dv.Ability(float(a), float(b)))
                except ValueError as exc:
                    expected = str(exc)
                    break
            if expected is not None:
                break
        assert expected is not None
        code, out, err = run(capsys, "atlas", "--config", str(config), f"--alpha={alpha}",
                             f"--beta={beta}", "--out", str(tmp_path / "atlas.csv"))
        assert code == 1
        assert err == f"error: {expected}\n"

    def test_boundary_stdout(self, capsys):
        code, out, _ = run(capsys, "boundary", "--config", REFERENCE_CONFIG,
                           "--which", "psi1", "--beta-range", "0:0.7:8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "beta,alpha"
        assert len(lines) == 9

    def test_extend_rework_grid(self, capsys, tmp_path):
        out_path = tmp_path / "rework.csv"
        code, _, _ = run(capsys, "extend", "rework", "--config", REFERENCE_CONFIG,
                         "--kappa", "0.8", "--alpha-range", "0:1:3",
                         "--beta-range", "0:1:3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("alpha,beta,kappa")
        assert len(lines) == 10

    def test_extend_belief_requires_p_hat(self, capsys):
        code, _, err = run(capsys, "extend", "belief", "--config", REFERENCE_CONFIG,
                           "--alpha-range", "0:1:3", "--beta-range", "0:1:3")
        assert code == 1
        assert "p-hat" in err

    def test_extend_difficulty_pinned(self, capsys, tmp_path):
        out_path = tmp_path / "difficulty.csv"
        code, _, _ = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                         "--hhat", "0.5", "--alpha-range", "0:1:3",
                         "--beta-range", "0:1:3", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 10


class TestInterveneAndOracle:
    @pytest.mark.parametrize("costs", [
        ["--h1", "linear:nan"], ["--h1", "power:1:inf"], ["--h2", "linear:inf", "--json"],
    ], ids=["linear-nan", "power-inf-exponent", "linear-inf-json"])
    def test_non_finite_cost_term_is_rejected(self, capsys, costs):
        code, out, err = run(capsys, "intervene", "worker", "--config", REFERENCE_CONFIG,
                             "--alpha", "0.05", "--beta", "0.1", *costs)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cost ") and "must be finite" in err
        assert len(err.strip().splitlines()) == 1

    def test_worker_upskill_command(self, capsys):
        code, out, _ = run(capsys, "intervene", "worker", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.05", "--beta", "0.1",
                           "--h1", "linear:1", "--h2", "linear:1")
        assert code == 0
        assert "feasible 1" in out

    def test_institution_point_lever(self, capsys):
        code, out, _ = run(capsys, "intervene", "institution", "--config", REFERENCE_CONFIG,
                           "--lever", "p_a", "--delta", "0.05",
                           "--alpha", "0.05", "--beta", "0.75")
        assert code == 0
        gain = float([l for l in out.splitlines() if l.startswith("gain")][0].split()[1])
        assert gain == pytest.approx(-0.925, abs=1e-6)

    def test_minimal_lever_command(self, capsys):
        code, out, _ = run(capsys, "intervene", "minimal", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.05", "--beta", "0.5", "--lever", "alpha")
        assert code == 0
        assert "feasible 1" in out

    def test_oracle_command(self, capsys):
        code, out, _ = run(capsys, "oracle", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.1", "--beta", "0.2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 1.0 and payload["s"] == 0.0


class TestCalibrateCommand:
    def test_fixture_report(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--cases", str(cal.fixture_path()),
                           "--tvmax", "118.1", "--twmax", "262.3",
                           "--tau", "150", "--b-i", "2787.6", "--l-i", "1858.4",
                           "--xi", "0.5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cleaning"]["n_retained"] == 38
        assert payload["worker"]["alpha"] == pytest.approx(0.108, abs=2e-3)
        cls = payload["classification"]
        assert cls["regime"] == "manual"
        assert cls["lever_targets"]["p_a"]["value"] == pytest.approx(0.432, abs=3e-3)

    def test_malformed_cases_fail_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "cases.csv"
        bad.write_text("case_id,worker_correct\nx,1\n")
        code, _, err = run(capsys, "calibrate", "--cases", str(bad),
                           "--tvmax", "100", "--twmax", "200")
        assert code == 1
        assert "error:" in err


class TestSelfcheck:
    def test_reports_thresholds_and_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG)
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.splitlines() if " " in l)
        assert float(lines["t"]) == pytest.approx(0.72, abs=1e-9)
        assert float(lines["t_tau"]) == pytest.approx(4.0 / 15.0, abs=1e-9)
        assert lines["oracle_failures"] == "0"

    def test_threshold_above_8192_finishes(self, tmp_path):
        # p_a close to p_w puts the manual-delegation threshold near 1.19e4,
        # where one ulp of beta is wider than the bisection tolerance
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["functions"]["execution_cost"] = {"family": "inverse_efficiency", "scale": 5}
        doc["ai"]["p_a"] = 0.74997
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = run_isolated(f"from delver.cli import main; main(['selfcheck', '--config', {str(config)!r}])")
        assert out.splitlines()[0] == "t 11904.7619"
