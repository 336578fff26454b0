"""Command-line surface: dispatch, determinism, exit codes, file formats."""

import contextlib
import hashlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
# report and the rework extension were folded into shared code. The boundary
# digest is of the beta,alpha,bracketed schema; its beta,alpha columns are the
# bytes that 81c268f wrote.
# name: (argv, (file written, rows) or None for stdout, SHA-256 of the file or of stdout)
README_GOLDEN = {
    "atlas": (["atlas", "--alpha", "0:1:101", "--beta", "0:1:101", "--out", "atlas.csv"],
              ("atlas.csv", 10201),
              "ffb612b29e7b025b8f872286b49ca361f687ab3b50044879bb4163023f9b8877"),
    "boundary": (["boundary", "--which", "psi_tau", "--beta-range", "0:1:101"],
                 None, "6f1ee49858e59bf3cee40dda8e2809fa436465cb44b8c1feb4465f6c2ed1bc97"),
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


FIXTURE_CASES = ["--cases", str(cal.fixture_path()), "--tvmax", "118.1", "--twmax", "262.3"]
# Every single-result command in text and --json form: argv and the SHA-256 of
# stdout, taken at commit 4ccb96f, before the commands shared one emitter.
# All but calibrate run on the reference config. The text form of
# `intervene worker` is README_GOLDEN's.
SINGLE_RESULT_GOLDEN = {
    "solve": (["solve", "--alpha", "0.9", "--beta", "0.9"],
              "1a301d5c1d33873578aac9002c938014d9346acf688834bfd3ac25106ba5f22d"),
    "solve-json": (["solve", "--alpha", "0.9", "--beta", "0.9", "--json"],
                   "259d88e9f889752972d3f064da8f36696ad4b7678ad654e959ce860f9ea3fc77"),
    "solve-verify": (["solve", "--alpha", "0.37", "--beta", "0.61", "--verify"],
                     "b5e70b0d62001e622b34b34038caef58e70b8068a8507eb56fd2f4ecf3d03f0a"),
    "solve-verify-json": (["solve", "--alpha", "0.37", "--beta", "0.61", "--verify", "--json"],
                          "4fd02f6c17e0d6b0ef3cc084c0802aed12295bc4b51f77669b6c933f5b1323b8"),
    "quality": (["quality", "--alpha", "0.6", "--beta", "0.5"],
                "3dfb4f61787cc25491bee0d3ea053fe2467444eb6045e805c987542b242ba6b5"),
    "quality-json": (["quality", "--alpha", "0.6", "--beta", "0.5", "--json"],
                     "c688adbf9a95137a43f698c41727de2c6bb3674eec3daae864e1025ef3eb6d24"),
    "oracle": (["oracle", "--alpha", "0.7", "--beta", "0.6", "--d-steps", "5", "--s-steps", "101"],
               "ba2ad613e37b7c48df105b6e50ac0720fc1c20531874096c617b2c238f177e1a"),
    "oracle-json": (["oracle", "--alpha", "0.7", "--beta", "0.6", "--d-steps", "5",
                     "--s-steps", "101", "--json"],
                    "61ee8e65f37f0ab9ac7d5eddab53d6e6c0c81eaa32dbfa3c81df9a23003a3fe6"),
    "worker-json": (["intervene", "worker", "--alpha", "0.05", "--beta", "0.1", "--json"],
                    "251dcc091424ab94aac40157e6f101d0e70df36e1a1969518a239163b023085f"),
    # no plan reaches tau = 100: cost inf, feasible 0
    "worker-infeasible": (["intervene", "worker", "--alpha", "0.05", "--beta", "0.1",
                           "--tau", "100"],
                          "227cb5e9d97caa58440211a139ba799fb5636a73226eb6e08a6b17275e0ea417"),
    "worker-infeasible-json": (["intervene", "worker", "--alpha", "0.05", "--beta", "0.1",
                                "--tau", "100", "--json"],
                               "2bc34d22f17cf1d9ae1fa61c4f6ae5276bf7257d4d19efa5d27e723d6ec680a9"),
    "institution": (["intervene", "institution", "--lever", "b_transfer", "--delta", "0.1",
                     "--alpha", "0.5", "--beta", "0.5"],
                    "86788145c9e18ce2aabf2fcc6838d7aadbe43a2c0890c46abdfa2449e4824805"),
    "minimal": (["intervene", "minimal", "--alpha", "0.05", "--beta", "0.5", "--lever", "p_a"],
                "297dec17fc928b675e1dcbe4997af2d7e161264119582b12e739ebcd08eed629"),
    "calibrate": (["calibrate", *FIXTURE_CASES, "--tau", "150", "--b-i", "2787.6",
                   "--l-i", "1858.4", "--xi", "0.5"],
                  "ae0dcdc62a5bb4f288a5997c0fb69554c5bad789cd26adb34a1e319f3b96880e"),
    "calibrate-json": (["calibrate", *FIXTURE_CASES, "--json"],
                       "562b9bb45c36093ba47e59b2f9a3e2ba2af16941b437f1fdd1ed731db8e9a29b"),
    "selfcheck": (["selfcheck"], "540e06d627770652bd7a7506c6255af7d7bfa8f51d96ad4a5ca554fa63760f91"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def inverse_efficiency_config(directory):
    """The reference config with execution cost 5 / beta, written to directory."""
    doc = json.loads(Path(REFERENCE_CONFIG).read_text())
    doc["functions"]["detection"]["family"] = "exponential"
    doc["functions"]["execution_cost"]["family"] = "inverse_efficiency"
    path = Path(directory) / "inverse.json"
    path.write_text(json.dumps(doc))
    return str(path)


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

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--alpha", "1e308", "--beta", "0.5"], "alpha=1e+308 is too large"),
        (["quality", "--alpha", "1e308", "--beta", "0.5"], "alpha=1e+308 is too large"),
        (["oracle", "--alpha", "1e308", "--beta", "0.5"], "alpha=1e+308 is too large"),
        (["extend", "difficulty", "--alpha-range", "1e308:1e308:1", "--beta-range", "0.5:0.5:1",
          "--out", "grid.csv"], "alpha=1e+308 is too large"),
        (["atlas", "--alpha", "1e308:1e308:1", "--beta", "0.5:0.5:1", "--out", "grid.csv"],
         "alpha=1e+308 is too large"),
        (["extend", "rework", "--kappa", "1e308", "--alpha-range", "0.5:0.5:1",
          "--beta-range", "0.1:0.1:1", "--out", "grid.csv"], "kappa=1e+308 is too large"),
        (["solve", "--alpha", "0.5", "--beta", "1e-310", "INVERSE"], "beta=1e-310 is too small"),
        (["boundary", "--which", "psi_tau", "--beta-range", "1e-310:1e-310:1", "INVERSE"],
         "beta=1e-310 is too small"),
    ], ids=["solve", "quality", "oracle", "difficulty", "atlas", "rework-kappa",
            "solve-tiny-beta", "boundary-tiny-beta"])
    def test_overflowing_input_is_rejected(self, capsys, tmp_path, monkeypatch, argv, message):
        # each of these used to exit 0 with nan (or, for boundary, a fake root)
        monkeypatch.chdir(tmp_path)
        config = REFERENCE_CONFIG
        if argv[-1] == "INVERSE":
            argv, config = argv[:-1], inverse_efficiency_config(tmp_path)
        code, out, err = run(capsys, *argv, "--config", config)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
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


    @pytest.mark.parametrize("keys, argv, message", [
        (("b_w", "l_w"), ["solve", "--alpha", "0.5", "--beta", "0.5"], "b_w + l_w must be finite"),
        (("b_i", "l_i"), ["boundary", "--which", "psi", "--beta-range", "0.5:0.9:3"],
         "b_i + l_i must be finite"),
    ], ids=["worker-solve", "institution-boundary"])
    def test_overflowing_stakes_are_rejected(self, capsys, tmp_path, keys, argv, message):
        # solve printed f_w_at_s_dagger nan as verified_delegation; boundary printed
        # alpha 10 flagged as a bracketed root on every row
        doc = json.loads(Path(REFERENCE_CONFIG).read_text())
        doc["task_profile"].update(dict.fromkeys(keys, 1e308))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
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


class TestSingleResultOutput:
    @pytest.mark.parametrize("name", SINGLE_RESULT_GOLDEN)
    def test_command_is_byte_identical(self, capsys, name):
        argv, digest = SINGLE_RESULT_GOLDEN[name]
        config = [] if argv[0] == "calibrate" else ["--config", REFERENCE_CONFIG]
        code, out, err = run(capsys, *argv, *config)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_does_not_stick_to_the_next_call(self, capsys):
        argv = ["quality", "--config", REFERENCE_CONFIG, "--alpha", "0.6", "--beta", "0.5"]
        _, as_json, _ = run(capsys, *argv, "--json")
        _, as_text, _ = run(capsys, *argv)
        assert json.loads(as_json)["quality"] == "improved"
        assert as_text.splitlines()[:2] == ["q 7.67410517", "q0 6.75"]


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
        assert lines[0] == "beta,alpha,bracketed"
        assert len(lines) == 9
        assert {line.rsplit(",", 1)[1] for line in lines[1:]} <= {"0", "1"}

    def test_bracket_cap_is_flagged_not_a_root(self, capsys):
        code, out, _ = run(capsys, "boundary", "--config", REFERENCE_CONFIG, "--which", "psi_tau",
                           "--tau", "1000", "--beta-range", "0:1:3")
        assert code == 0
        assert out == "beta,alpha,bracketed\n0,10240,0\n0.5,10240,0\n1,10240,0\n"

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

    @pytest.mark.parametrize("extra, message", [
        (["--alpha-range", "0:1:3", "--alpha", "0.1", "--beta", "0.1"], ", not both\n"),
        (["--alpha-range", "0:1:3", "--beta-range", "0:1:3", "--alpha", "0.1", "--beta", "0.1"],
         ", not both\n"),
        (["--beta-range", "0:1:3"], "--alpha-range and --beta-range\n"),
        (["--alpha", "0.1"], "--alpha-range and --beta-range\n"),
    ], ids=["lone-range-and-point", "grid-and-point", "lone-range", "lone-point"])
    def test_institution_needs_a_point_or_a_grid(self, capsys, extra, message):
        # a lone range with a point used to print the point's result, and a grid
        # with a point the grid's
        code, out, err = run(capsys, "intervene", "institution", "--config", REFERENCE_CONFIG,
                             "--lever", "p_a", "--delta", "0.05", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("error: need --alpha and --beta") and err.endswith(message)
        assert len(err.strip().splitlines()) == 1

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

    def test_extra_field_in_the_bundled_log_fails_cleanly(self, capsys, tmp_path):
        lines = cal.fixture_path().read_text().splitlines()
        first = next(k for k, line in enumerate(lines) if line.startswith("case_id")) + 1
        lines[first] += ",999"
        bad = tmp_path / "cases.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "calibrate", "--cases", str(bad),
                             "--tvmax", "118.1", "--twmax", "262.3")
        assert (code, out, err) == (1, "", "error: malformed rows: row 2: expected 7 fields\n")


class TestSelfcheck:
    def test_reports_thresholds_and_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG)
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.splitlines() if " " in l)
        assert float(lines["t"]) == pytest.approx(0.72, abs=1e-9)
        assert float(lines["t_tau"]) == pytest.approx(4.0 / 15.0, abs=1e-9)
        assert lines["oracle_failures"] == "0"

    def test_negative_samples_is_rejected(self, capsys):
        code, out, err = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG, "--samples", "-3")
        assert (code, out, err) == (1, "", "error: --samples must be >= 0, got -3\n")

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


# finite floats of every size, including the huge, tiny and subnormal
# values that sample_ability never draws
EXTREME_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5,
                     1e300, 1e307, 1e308, 1.7976931348623157e308]))


def _extreme_argv(command, alpha, beta, tau):
    def point(x):
        return f"{x!r}:{x!r}:1"

    return {
        "solve": ["solve", f"--alpha={alpha!r}", f"--beta={beta!r}"],
        "quality": ["quality", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--tau={tau!r}"],
        "atlas": ["atlas", f"--alpha={point(alpha)}", f"--beta={point(beta)}", f"--tau={tau!r}",
                  "--out", "atlas.csv"],
        "boundary": ["boundary", "--which", "psi_tau", f"--beta-range={point(beta)}",
                     f"--tau={tau!r}"],
        "difficulty": ["extend", "difficulty", f"--alpha-range={point(alpha)}",
                       f"--beta-range={point(beta)}"],
        # rework has no tau; the third draw is its kappa
        "rework": ["extend", "rework", f"--kappa={tau!r}", f"--alpha-range={point(alpha)}",
                   f"--beta-range={point(beta)}"],
    }[command]


def _non_finite_numbers(text):
    numbers = []
    for token in re.split(r"[\s,]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return [x for x in numbers if not math.isfinite(x)]


@pytest.fixture(scope="module")
def extreme_setup(tmp_path_factory):
    directory = tmp_path_factory.mktemp("extreme")
    return directory, [REFERENCE_CONFIG, inverse_efficiency_config(directory)]


class TestExtremeInput:
    @pytest.mark.parametrize("command", ["solve", "quality", "atlas", "boundary",
                                         "difficulty", "rework"])
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(alpha=EXTREME_FLOATS, beta=EXTREME_FLOATS, tau=EXTREME_FLOATS,
           config=st.sampled_from([0, 1]))
    @example(alpha=1e308, beta=0.5, tau=0.5, config=0)
    @example(alpha=1.0, beta=5e-324, tau=1e308, config=1)
    @example(alpha=5e-324, beta=5e-324, tau=5e-324, config=0)
    def test_finite_output_or_one_error_line(self, extreme_setup, command, alpha, beta, tau,
                                             config):
        directory, configs = extreme_setup
        argv = _extreme_argv(command, alpha, beta, tau)
        if command == "atlas":
            argv[-1] = str(directory / "atlas.csv")
            Path(argv[-1]).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + ["--config", configs[config]])
        # a warning would reach the terminal as more lines on stderr
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        if code == 0:
            text = out.getvalue()
            if command == "atlas":
                text += Path(argv[-1]).read_text()
            assert lines == []
            assert _non_finite_numbers(text) == []
        else:
            assert code == 1
            assert len(lines) == 1 and lines[0].startswith("error: ")
