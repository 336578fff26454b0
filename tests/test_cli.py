"""Command-line surface: dispatch, determinism, exit codes, file formats."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import runpy
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import delver as dv
import delver.calibration as cal
from delver.atlas import fmt
from delver import cli
from delver.cli import main
from delver.config import load_params, params_from_dict, params_to_dict, parse_range
from delver.model import phi_coefficients
from delver.sampling import beta_span

from conftest import family_configs, run_isolated

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
    # re-pinned when the lever search took the labels' rule q >= tau, behind
    # TestReachesTau in test_interventions.py: value 0.319797992 became 0.319797993
    "minimal": (["intervene", "minimal", "--alpha", "0.05", "--beta", "0.5", "--lever", "alpha"],
                None, "1a426c4ba9d37f53ac8ef6ee73a31d668a79cad56ca4e40f7916a9c2a364ab34"),
}


# SHA-256 of the stdout of `extend belief --p-hat 0.8 --alpha-range 0:1:5
# --beta-range 0:1:5` on the reference config, taken at commit bb4a676
BELIEF_GRID_DIGEST = "f11aacabdd66deade61a05484bac0ab4b6f89948708bee0446cc2f6a788c9086"

# SHA-256 of the stdout of `extend difficulty --hhat 0.5 --alpha-range 0:2:7
# --beta-range 0:1:6` on the reference config, taken at commit bf8103e, while a
# pinned level was a branch of expected_quality
PINNED_DIFFICULTY_DIGEST = "e21d6395c369b236c1d635bc8538276faf0a72ddc9c45219d5cb72fa10d7c4ba"

# SHA-256 of the file that `intervene institution --lever b_transfer --delta 1
# --alpha-range 0:1:21 --beta-range 0:1:21` writes on the reference config, taken
# at commit e2968f8, while the grid was solved one point at a time
TRANSFER_GRID_DIGEST = "930d7225c61dd0471ad4bd227bec40f5370e5545e5f4b7de74e481ac944aa7d0"

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
    # re-pinned when JSON began to print a non-finite float as null, behind
    # test_json_output_is_strict: "cost": Infinity became "cost": null
    "worker-infeasible-json": (["intervene", "worker", "--alpha", "0.05", "--beta", "0.1",
                                "--tau", "100", "--json"],
                               "79f9c72db7c162ac02bce62f78037b02c67eebb46ba9641a9f962cb8e435dbec"),
    "institution": (["intervene", "institution", "--lever", "b_transfer", "--delta", "0.1",
                     "--alpha", "0.5", "--beta", "0.5"],
                    "86788145c9e18ce2aabf2fcc6838d7aadbe43a2c0890c46abdfa2449e4824805"),
    "minimal": (["intervene", "minimal", "--alpha", "0.05", "--beta", "0.5", "--lever", "p_a"],
                "297dec17fc928b675e1dcbe4997af2d7e161264119582b12e739ebcd08eed629"),
    # re-pinned with README_GOLDEN's minimal: the beta target 0.465698175 became 0.465698176
    "calibrate": (["calibrate", *FIXTURE_CASES, "--tau", "150", "--b-i", "2787.6",
                   "--l-i", "1858.4", "--xi", "0.5"],
                  "85da6fface1d2996f7f15fd972da4f6156229a9e0a147069b23ec54b9fe7e20e"),
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


DROP = object()  # remove the key instead of setting it

# A malformed config, as changes to the reference config (key path -> new value;
# the empty path replaces the root), and the message it fails with. The messages
# are those of commit bfc6fef, except verification-without-family,
# verification-not-object and execution-family-before-keys, which follow the one
# check order of the function sections. A config with two faults reports the one
# checked first: top-level keys, then each section's keys, then the detection,
# verification cost and execution cost functions in turn (each an object, then a
# known family, then exactly that family's keys), then the numbers in ModelParams
# order.
CONFIG_REJECTIONS = {
    "root-array": ({(): []}, "config root must be an object"),
    "extra-section": ({("extra",): 1}, "unknown top-level keys: ['extra']"),
    "missing-section": ({("ai",): DROP}, "missing section 'ai'"),
    "missing-functions": ({("functions",): DROP}, "missing section 'functions'"),
    "section-not-object": ({("worker",): 0.75}, "section 'worker' must be an object"),
    "unknown-key": ({("task_profile", "typo"): 2}, "unknown keys in 'task_profile': ['typo']"),
    "missing-key": ({("worker", "p_w"): DROP}, "missing keys in 'worker': ['p_w']"),
    "string-number": ({("task_profile", "tau"): "6.4"}, "'tau' must be a number, got '6.4'"),
    "bool-number": ({("worker", "p_w"): True}, "'p_w' must be a number, got True"),
    "null-number": ({("ai", "c_a"): None}, "'c_a' must be a number, got None"),
    "huge-int": ({("ai", "c_a"): 10**400},
                 "'c_a' must be finite, got an integer too large for a float"),
    "functions-not-object": ({("functions",): []}, "section 'functions' must be an object"),
    "unknown-detection": ({("functions", "detection", "family"): "logistic"},
                          "unknown detection family 'logistic'"),
    "detection-missing-scale": ({("functions", "detection", "scale"): DROP},
                                "missing keys in 'detection': ['scale']"),
    "detection-not-object": ({("functions", "detection"): "exponential"},
                             "section 'detection' must be an object"),
    "detection-family-list": ({("functions", "detection", "family"): ["exponential"]},
                              "unknown detection family ['exponential']"),
    "unknown-verification": ({("functions", "verification_cost", "family"): "cubic"},
                             "unknown verification cost family 'cubic'"),
    "verification-without-family": ({("functions", "verification_cost"): {"k": 1}},
                                    "missing keys in 'verification_cost': ['family']"),
    "verification-not-object": ({("functions", "verification_cost"): "linear"},
                                "section 'verification_cost' must be an object"),
    "linear-without-k": ({("functions", "verification_cost"): {"family": "linear"}},
                         "missing keys in 'verification_cost': ['k']"),
    "quadratic-with-k": ({("functions", "verification_cost"): {"family": "linear_quadratic", "k": 2}},
                         "unknown keys in 'verification_cost': ['k']"),
    "unknown-execution": ({("functions", "execution_cost", "family"): "quadratic"},
                          "unknown execution cost family 'quadratic'"),
    "execution-extra-key": ({("functions", "execution_cost", "rho"): 2},
                            "unknown keys in 'execution_cost': ['rho']"),
    # the three that the function constructors reject
    "detection-scale-zero": ({("functions", "detection", "scale"): 0},
                             "detection scale must be finite and positive"),
    "verification-k-zero": ({("functions", "verification_cost", "k"): 0},
                            "linear verification cost needs a finite k > 0"),
    "execution-scale-negative": ({("functions", "execution_cost", "scale"): -2},
                                 "execution cost scale must be finite and positive"),
    "p_a-above-one": ({("ai", "p_a"): 1.5}, "p_a must lie in [0, 1]"),
    "xi-negative": ({("task_profile", "xi"): -1}, "xi must be finite and >= 0, got -1.0"),
    "stakes-overflow": ({("task_profile", "b_w"): 1e308, ("task_profile", "l_w"): 1e308},
                        "b_w + l_w must be finite, got inf"),
    "top-level-before-section": ({("extra",): 1, ("ai",): DROP},
                                 "unknown top-level keys: ['extra']"),
    "family-before-number": ({("task_profile", "tau"): "x",
                              ("functions", "detection", "family"): "logistic"},
                             "unknown detection family 'logistic'"),
    "scale-before-b_w": ({("task_profile", "b_w"): "x", ("functions", "detection", "scale"): "y"},
                         "'scale' must be a number, got 'y'"),
    "detection-before-verification": ({("functions", "detection", "scale"): 0,
                                       ("functions", "verification_cost", "family"): "cubic"},
                                      "detection scale must be finite and positive"),
    "execution-before-p_a": ({("functions", "execution_cost", "scale"): -2, ("ai", "p_a"): 2},
                             "execution cost scale must be finite and positive"),
    "execution-family-before-keys": ({("functions", "execution_cost", "family"): "quadratic",
                                      ("functions", "execution_cost", "rho"): 2},
                                     "unknown execution cost family 'quadratic'"),
    "family-before-keys": ({("functions", "verification_cost"): {"family": "cubic", "rho": 2}},
                           "unknown verification cost family 'cubic'"),
}


# the delegated cost c_a + ... overflows at beta 1e-8, where C_w = 1e308
OVERFLOWING_DELEGATION = {("ai", "c_a"): 1.7e308, ("functions", "execution_cost"):
                          {"family": "inverse_efficiency", "scale": 1e300}}


def edited_config(changes):
    """The reference config document with changes applied in order."""
    doc = json.loads(Path(REFERENCE_CONFIG).read_text())
    for path, value in changes.items():
        if not path:
            return value
        *parents, key = path
        target = doc
        for name in parents:
            target = target[name]
        if value is DROP:
            del target[key]
        else:
            target[key] = value
    return doc


class TestConfig:
    def test_reference_file_loads(self, reference):
        assert load_params(REFERENCE_CONFIG) == reference

    @pytest.mark.parametrize("changes, message", CONFIG_REJECTIONS.values(), ids=CONFIG_REJECTIONS)
    def test_malformed_config_is_one_error_line(self, capsys, tmp_path, changes, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited_config(changes)))
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("changes, message", CONFIG_REJECTIONS.values(), ids=CONFIG_REJECTIONS)
    def test_malformed_config_raises_config_error(self, changes, message):
        with pytest.raises(dv.ConfigError) as err:
            params_from_dict(edited_config(changes))
        assert str(err.value) == message

    def test_invalid_json_is_one_error_line(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{")
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert (code, out) == (1, "")
        assert err == (f"error: invalid JSON in {config}: Expecting property name enclosed in "
                       "double quotes: line 1 column 2 (char 1)\n")

    def test_deeply_nested_json_is_one_error_line(self, capsys, tmp_path):
        # json.load raises RecursionError, not JSONDecodeError, past its nesting depth
        config = tmp_path / "deep.json"
        config.write_text("[" * 3000 + "]" * 3000)
        with pytest.raises(dv.ConfigError) as err:
            load_params(config)
        assert str(err.value).startswith(f"invalid JSON in {config}: maximum recursion depth")
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid JSON in {config}: ") and err.count("\n") == 1

    def test_undecodable_config_names_its_file(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff{}")
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert (code, out) == (1, "")
        assert err == (f"error: invalid JSON in {config}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    def test_undecodable_config_gives_the_byte_offset_past_a_byte_order_mark(self, capsys, tmp_path):
        # the file is decoded before the mark is dropped, so the position counts the mark;
        # the utf-8-sig codec counted from after it and gave position 7
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf{" + b" " * 6 + b"\xff}")
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert (code, out) == (1, "")
        assert err == (f"error: invalid JSON in {config}: 'utf-8' codec can't decode byte 0xff "
                       "in position 10: invalid start byte\n")

    @pytest.mark.parametrize("old, new, key", [
        ('"b_w": 8,', '"b_w": 8, "b_w": 80,', "b_w"),
        ('"worker":', '"ai": {"p_a": 0.95, "c_a": 0},\n  "worker":', "ai"),
    ], ids=["number", "section"])
    def test_repeated_config_key_is_one_error_line(self, capsys, tmp_path, old, new, key):
        # json keeps a repeated key's last value: b_w 80 gave q 7.88125 instead of
        # 7.33866011, and the second ai section made the worker delegate, with q 12.7
        config = tmp_path / "config.json"
        config.write_text(Path(REFERENCE_CONFIG).read_text().replace(old, new, 1))
        code, out, err = run(capsys, "quality", "--config", str(config),
                             "--alpha", "0.5", "--beta", "0.5")
        assert (code, out) == (1, "")
        assert err == f"error: key '{key}' appears more than once in {config}\n"

    def test_non_numeric_range_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "boundary", "--config", REFERENCE_CONFIG, "--which", "psi_tau",
                             "--beta-range", "0:1:x")
        assert (code, out) == (1, "")
        assert err == "error: bad range '0:1:x': invalid literal for int() with base 10: 'x'\n"

    def test_linear_quadratic_config_solves(self, capsys, tmp_path, reference):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited_config(
            {("functions", "verification_cost"): {"family": "linear_quadratic"}})))
        assert load_params(config) == replace(
            reference, verification_cost=dv.VerificationCost("linear_quadratic"))
        code, out, err = run(capsys, "solve", "--config", str(config), "--alpha", "0.9", "--beta", "0.9")
        assert (code, err) == (0, "")
        assert "regime " in out

    def test_params_to_dict_round_trips_or_refuses_kappa(self, reference):
        assert params_from_dict(params_to_dict(replace(reference, kappa=1.0))) == reference
        # kappa is not a config key: writing 0.5 used to drop it, and reading gave 1
        with pytest.raises(ValueError, match=r"^kappa is not a config key, so params with kappa "
                                             r"0\.5 cannot be written$"):
            params_to_dict(replace(reference, kappa=0.5))
        # nor is a belief about the AI: reading the file back would give None
        assert params_to_dict(replace(reference, believed_p_a=None)) == params_to_dict(reference)
        with pytest.raises(ValueError, match=r"^believed_p_a is not a config key, so params with "
                                             r"believed_p_a 0\.8 cannot be written$"):
            params_to_dict(replace(reference, believed_p_a=0.8))

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

    @pytest.mark.parametrize("argv", [
        ["atlas", "--alpha", "0:1:1000000000000000", "--beta", "0:1:1"],
        ["boundary", "--which", "psi1", "--beta-range", "0:1:1000000000000000"],
        ["extend", "rework", "--kappa", "0.5", "--alpha-range", "0:1:1000000000000000",
         "--beta-range", "0:1:1"],
    ], ids=["atlas", "boundary", "rework"])
    def test_grid_too_large_to_allocate_is_one_error_line(self, capsys, tmp_path, argv):
        # 10**15 float64s are 7.11 PiB, so numpy's allocation fails at once
        out_file = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--config", REFERENCE_CONFIG, "--out", str(out_file))
        assert (code, out) == (1, "") and not out_file.exists()
        assert err == ("error: Unable to allocate 7.11 PiB for an array with shape "
                       "(1000000000000000,) and data type float64\n")

    @pytest.mark.parametrize("argv", [
        ["boundary", "--which", "psi0", "--beta-range", "0:1"],
        ["selfcheck", "--samples", "-1"],
    ], ids=["boundary-range", "selfcheck-samples"])
    def test_bad_config_is_reported_before_the_commands_own_options(self, capsys, tmp_path, argv):
        # main loads every command's --config before the command reads its own options
        config = tmp_path / "broken.json"
        config.write_text("{")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid JSON in {config}: ") and err.count("\n") == 1

    def test_missing_file_is_an_error(self, capsys):
        code, _, err = run(capsys, "solve", "--config", "nope.json", "--alpha", "1", "--beta", "1")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("argv, code, err", [
        (["quality", "--config", REFERENCE_CONFIG, "--alpha", "0.5", "--beta", "0.5",
          "--tau", "-1e6"], 0, ""),
        (["calibrate", *FIXTURE_CASES, "--tau", "-1e3"], 0, ""),
        (["intervene", "minimal", "--config", REFERENCE_CONFIG, "--alpha", "0.05", "--beta", "0.5",
          "--lever", "p_a", "--tau", "-2.5e-1"], 0, ""),
        (["solve", "--config", REFERENCE_CONFIG, "--beta", "0.5", "--alpha", "-1e-3"], 1,
         "error: alpha must be finite and >= 0, got -0.001\n"),
        (["boundary", "--config", REFERENCE_CONFIG, "--which", "psi", "--beta-range", "-1:1:3"], 1,
         "error: beta must be finite and >= 0, got -1.0\n"),
    ], ids=["quality-tau", "calibrate-tau", "minimal-tau", "solve-alpha", "boundary-range"])
    def test_negative_value_in_any_notation_is_read_as_a_value(self, capsys, argv, code, err):
        # argparse reads only -N and -N.N as negative numbers, so each of these was
        # a usage error (exit 2) spaced, while the same value after "=" worked
        spaced = run(capsys, *argv)
        assert spaced == run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert (spaced[0], spaced[2]) == (code, err)

    @pytest.mark.parametrize("which, betas, message", [
        ("psi1", "0:2:5", "beta=1.5 outside [0, 1] for linear_in_efficiency"),
        ("psi0", "-1:1:5", "beta must be finite and >= 0, got -1.0"),
    ], ids=["psi1-above", "psi0-below"])
    def test_boundary_beta_outside_the_domain_fails(self, capsys, tmp_path, which, betas, message):
        # psi0 and psi1 skipped such betas, as they skip betas on the other side of
        # t, and exited 0: psi1 on 0:2:5 wrote the 2 rows below t = 0.72
        curve = tmp_path / "curve.csv"
        code, out, err = run(capsys, "boundary", "--config", REFERENCE_CONFIG, "--which", which,
                             f"--beta-range={betas}", "--out", str(curve))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not curve.exists()

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
        (["extend", "difficulty", "--alpha-range", "0.5:0.5:1", "--beta-range", "0.5:0.5:1",
          "--nodes", "100000000", "--out", "grid.csv"],
         "nodes must be an integer in [1, 1024], got 100000000"),
        (["oracle", "--alpha", "0.5", "--beta", "0.5", "--s-steps", "95326"],
         "grid has 1048586 cells, more than 1048576"),
    ], ids=["solve", "quality", "oracle", "difficulty", "atlas", "rework-kappa",
            "solve-tiny-beta", "boundary-tiny-beta", "difficulty-nodes", "oracle-steps"])
    def test_overflowing_input_is_rejected(self, capsys, tmp_path, monkeypatch, argv, message):
        # each of these used to exit 0 with nan (or, for boundary, a fake root; for
        # --nodes, a traceback from a 71 PiB allocation in leggauss); --s-steps had
        # no bound, so 1e9 asked for 82 GiB an array
        monkeypatch.chdir(tmp_path)
        config = REFERENCE_CONFIG
        if argv[-1] == "INVERSE":
            argv, config = argv[:-1], inverse_efficiency_config(tmp_path)
        code, out, err = run(capsys, *argv, "--config", config)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("changes, argv", [
        (OVERFLOWING_DELEGATION, ["oracle", "--alpha", "0.5", "--beta", "1e-8"]),
        (OVERFLOWING_DELEGATION, ["solve", "--verify", "--alpha", "0.5", "--beta", "1e-8"]),
        ({("functions", "execution_cost"): {"family": "linear_in_efficiency", "scale": 1e308}},
         ["selfcheck"]),
    ], ids=["oracle", "solve-verify", "selfcheck"])
    def test_oracle_past_its_scale_is_one_error_line(self, capsys, tmp_path, changes, argv):
        # 4 * S overflows, S = b_w + l_w + C_w + max delegated cost: oracle and solve
        # --verify printed u_w nan with two numpy warnings, and selfcheck printed its
        # lines from an unbounded fallback; selfcheck's checks run before any output
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited_config(changes)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out, caught) == (1, "", [])
        assert re.fullmatch(r"error: oracle scale S = .+; 4 \* S must be finite\n", err)

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

    def test_json_output_is_strict(self, capsys, tmp_path):
        # JSON has no Infinity or NaN: an infeasible plan's cost and the alpha of a
        # log where every AI error is caught were printed as Infinity; they are
        # null, and feasible and boundary say why. The text forms keep inf
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        cases = tmp_path / "caught.csv"
        cases.write_text(f"{','.join(cal.CASE_COLUMNS)}\n" + "".join(
            f"{row}\n" for row in ["c0,1,0,1,100,110,0", "c1,1,1,1,100,105,1",
                                   "c2,1,0,1,104,118,0", "c3,1,1,1,96,101,1"]))
        caught = ["calibrate", "--cases", str(cases), "--tvmax", "60", "--twmax", "262.3"]
        runs = {name: [*argv, *([] if argv[0] == "calibrate" else ["--config", REFERENCE_CONFIG])]
                for name, (argv, _) in SINGLE_RESULT_GOLDEN.items()
                if name.endswith("-json") or argv[0] == "calibrate"}
        runs.update({"caught": caught, "caught-json": [*caught, "--json"]})
        payloads = {}
        for name, argv in runs.items():
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), name
            payloads[name] = json.loads(out, parse_constant=refuse)
        assert len(payloads) == 10
        assert payloads["caught"] == payloads["caught-json"]
        worker, plan = payloads["caught"]["worker"], payloads["worker-infeasible-json"]
        assert (worker["alpha"], worker["boundary"]) == (None, True)
        assert (plan["cost"], plan["feasible"]) == (None, False)
        _, text, _ = run(capsys, *SINGLE_RESULT_GOLDEN["worker-infeasible"][0],
                         "--config", REFERENCE_CONFIG)
        assert "cost inf\n" in text

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # editors and spreadsheet exports may start a file with a UTF-8 BOM;
        # load_params and calibrate failed on it
        config, cases = tmp_path / "bom.json", tmp_path / "bom.csv"
        config.write_bytes(b"\xef\xbb\xbf" + Path(REFERENCE_CONFIG).read_bytes())
        cases.write_bytes(b"\xef\xbb\xbf" + cal.fixture_path().read_bytes())
        quality = ["quality", "--alpha", "0.6", "--beta", "0.5", "--config"]
        calibrate = ["calibrate", *FIXTURE_CASES[2:], "--tau", "150", "--cases"]
        for argv, plain, marked in ((quality, REFERENCE_CONFIG, config),
                                    (calibrate, str(cal.fixture_path()), cases)):
            want = run(capsys, *argv, plain)
            assert want[0] == 0 and want[1]
            assert run(capsys, *argv, str(marked)) == want


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
        # finite endpoints, but end - start overflows: linspace's step was nan
        ["atlas", "--alpha=-1e308:1e308:3", "--beta", "0:1:2", "--out", "grid.csv"],
    ], ids=["atlas-nan", "atlas-inf", "boundary", "extend", "atlas-too-wide"])
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

    def test_transfer_grid_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "transfer.csv"
        code, out, err = run(capsys, "intervene", "institution", "--config", REFERENCE_CONFIG,
                             "--lever", "b_transfer", "--delta", "1", "--alpha-range", "0:1:21",
                             "--beta-range", "0:1:21", "--out", str(path))
        assert (code, out, err) == (0, f"wrote 441 rows to {path}\n", "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TRANSFER_GRID_DIGEST

    @pytest.mark.parametrize("triple", sorted(family_configs()), ids="+".join)
    def test_lever_grid_rows_are_the_scalar_levers(self, capsys, tmp_path, triple):
        params = family_configs()[triple]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(params_to_dict(params)))
        alpha, beta = "0:3:7", ":".join(map(repr, beta_span(params))) + ":5"
        for lever, delta, scalar in (("p_a", 0.5 * (1.0 - params.p_a), dv.ai_upgrade_gain),
                                     ("b_transfer", 0.3 * params.b_i, dv.incentive_transfer_gain)):
            code, out, err = run(capsys, "intervene", "institution", "--config", str(config),
                                 "--lever", lever, "--delta", repr(delta),
                                 "--alpha-range", alpha, "--beta-range", beta)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert lines[0] == "alpha,beta,lever,delta,gain,new_q"
            rows = [(a, b) for b in np.linspace(*parse_range(beta))
                    for a in np.linspace(*parse_range(alpha))]
            assert len(lines) == len(rows) + 1
            for line, (a, b) in zip(lines[1:], rows):
                res = scalar(params, dv.Ability(float(a), float(b)), delta)
                assert line == ",".join([fmt(float(a)), fmt(float(b)), res.lever, fmt(delta),
                                         fmt(res.gain), fmt(res.new_q)])

    @pytest.mark.parametrize("lever, value, alpha, beta", [
        # an invalid delta and an invalid first point: the point fails first
        ("p_a", "0.5", "-1:1:3", "0:1:3"),
        ("b_transfer", "20", "0:1:3", "1.5:0:4"),
        # an invalid transfer and an invalid later point: the transfer fails first
        ("b_transfer", "20", "0:1:3", "0:1.5:4"),
        # an invalid later point alone
        ("p_a", "0.05", "0:1:3", "0:1.5:4"),
        ("b_transfer", "1", "0:1e308:3", "0:1:3"),
        ("p_hat", "0.8", "0:1:3", "0:1.5:4"),
        # an invalid belief and an invalid first point: the belief fails first
        ("p_hat", "1.5", "-1:1:3", "0:1:3"),
    ], ids=["delta-and-first-point", "transfer-and-first-point", "transfer-and-later-point",
            "later-point", "later-overflow", "belief-later-point", "p-hat-and-first-point"])
    def test_invalid_lever_or_belief_grid_fails_as_the_per_point_path(self, capsys, tmp_path,
                                                                     lever, value, alpha, beta):
        reference = load_params(REFERENCE_CONFIG)

        def per_point_error():
            """The error of the per-point path: the belief, then each row in order."""
            try:
                if lever == "p_hat":
                    believed = replace(reference, believed_p_a=float(value))
                for b in np.linspace(*parse_range(beta)):
                    for a in np.linspace(*parse_range(alpha)):
                        ability = dv.Ability(float(a), float(b))
                        if lever == "p_hat":
                            dv.evaluate_point(believed, ability)
                        elif lever == "p_a":
                            dv.ai_upgrade_gain(reference, ability, float(value))
                        else:
                            dv.incentive_transfer_gain(reference, ability, float(value))
            except ValueError as exc:
                return str(exc)
            return None

        if lever == "p_hat":
            argv = ["extend", "belief", "--p-hat", value]
        else:
            argv = ["intervene", "institution", "--lever", lever, "--delta", value]
        expected = per_point_error()
        assert expected is not None
        path = tmp_path / "grid.csv"
        code, out, err = run(capsys, *argv, f"--alpha-range={alpha}", f"--beta-range={beta}",
                             "--config", REFERENCE_CONFIG, "--out", str(path))
        assert (code, out, err) == (1, "", f"error: {expected}\n")
        assert not path.exists()

    @pytest.mark.parametrize("lever, delta", [("p_a", "0.9"), ("p_a", "-0.01"),
                                              ("b_transfer", "100")])
    @pytest.mark.parametrize("where", [("--alpha", "0.5", "--beta", "1.5"),
                                       ("--alpha-range", "0:1:2", "--beta-range", "1.5:1.5:1")],
                             ids=["point", "grid"])
    def test_invalid_first_point_fails_before_an_invalid_delta(self, capsys, lever, delta, where):
        # each lever's move checks its own delta, after the first point's quality
        code, out, err = run(capsys, "intervene", "institution", "--config", REFERENCE_CONFIG,
                             "--lever", lever, f"--delta={delta}", *where)
        assert (code, out) == (1, "")
        assert err == "error: beta=1.5 outside [0, 1] for linear_in_efficiency\n"

    @pytest.mark.parametrize("kappa, alpha, beta", [
        # an invalid later point alone
        ("0.8", "1:-1:3", "0:1:3"),
        ("0.8", "0:1:3", "0:1.5:4"),
        # kappa * C_w overflows at a later point (C_w = 2.5) but not at the first (C_w = 0)
        ("1e308", "0:1:3", "1:0:3"),
        # an invalid kappa and an invalid first point: the kappa fails first
        ("-1", "-1:1:3", "0:1:3"),
    ], ids=["later-alpha", "later-beta", "later-overflow", "kappa-and-first-point"])
    def test_invalid_rework_grid_fails_as_the_per_point_path(self, capsys, tmp_path,
                                                            kappa, alpha, beta):
        reference = load_params(REFERENCE_CONFIG)

        def per_point_error():
            """The error of the per-point path: the kappa, then each row in order."""
            try:
                rework = replace(reference, kappa=float(kappa))
                for b in np.linspace(*parse_range(beta)):
                    for a in np.linspace(*parse_range(alpha)):
                        dv.evaluate_point(rework, dv.Ability(float(a), float(b)))
            except ValueError as exc:
                return str(exc)
            return None

        expected = per_point_error()
        assert expected is not None
        path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "extend", "rework", f"--kappa={kappa}",
                             f"--alpha-range={alpha}", f"--beta-range={beta}",
                             "--config", REFERENCE_CONFIG, "--out", str(path))
        assert (code, out, err) == (1, "", f"error: {expected}\n")
        assert not path.exists()

    @pytest.mark.parametrize("argv, message", [
        (["belief", "--p-hat", "1.5"], "believed success probability must lie in [0, 1]"),
        (["rework", "--kappa=-1"], "kappa must be finite and >= 0, got -1.0"),
        (["difficulty", "--hhat", "0"], "difficulty must lie in (0, 1], got 0.0"),
    ], ids=["belief", "rework", "difficulty"])
    def test_extension_option_fails_before_the_ranges(self, capsys, argv, message):
        code, out, err = run(capsys, "extend", *argv, "--config", REFERENCE_CONFIG,
                             "--alpha-range", "x", "--beta-range", "0:1:2")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_boundary_stdout(self, capsys, monkeypatch):
        # psi1 is C_v'(0) / (k_w scale), written with no call of the boundary search
        def refused(fn, guess=None):
            raise AssertionError("psi1 called the boundary search")

        monkeypatch.setattr(dv.atlas, "_bisect_boundary", refused)
        code, out, _ = run(capsys, "boundary", "--config", REFERENCE_CONFIG,
                           "--which", "psi1", "--beta-range", "0:0.7:8")
        assert code == 0
        params, rows = load_params(REFERENCE_CONFIG), ["beta,alpha,bracketed"]
        for beta in np.linspace(0.0, 0.7, 8).tolist():
            k_w = phi_coefficients(params, params.execution_cost.cost(beta))[0]
            root = params.verification_cost.slope(0.0) / (k_w * params.detection.scale)
            rows.append(f"{fmt(beta)},{fmt(root)},1")
        assert out == "".join(row + "\n" for row in rows)

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
        # a usage error, as every other missing required option is
        code, out, err = run(capsys, "extend", "belief", "--config", REFERENCE_CONFIG,
                             "--alpha-range", "0:1:3", "--beta-range", "0:1:3")
        assert (code, out) == (2, "")
        assert err.endswith("delver extend belief: error: the following arguments are "
                            "required: --p-hat\n")

    def test_extend_rework_requires_kappa(self, capsys):
        code, out, err = run(capsys, "extend", "rework", "--config", REFERENCE_CONFIG,
                             "--alpha-range", "0:1:3", "--beta-range", "0:1:3")
        assert (code, out) == (2, "")
        assert err.endswith("delver extend rework: error: the following arguments are "
                            "required: --kappa\n")

    @pytest.mark.parametrize("kind, option", [
        ("difficulty", "--p-hat"), ("difficulty", "--kappa"),
        ("belief", "--hhat"), ("belief", "--nodes"), ("belief", "--kappa"),
        ("rework", "--hhat"), ("rework", "--nodes"), ("rework", "--p-hat")])
    def test_extend_kind_refuses_another_kinds_option(self, capsys, tmp_path, kind, option):
        # while the three kinds shared one parser, each of these was parsed and ignored
        values = {"--hhat": "0.2", "--nodes": "3", "--p-hat": "0.7", "--kappa": "5"}
        needed = {"belief": ["--p-hat", "0.7"], "rework": ["--kappa", "0.8"]}.get(kind, [])
        path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "extend", kind, "--config", REFERENCE_CONFIG, *needed,
                             option, values[option], "--alpha-range", "0:1:3",
                             "--beta-range", "0:1:3", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {option} {values[option]}\n")
        assert not path.exists()

    def test_extend_belief_grid(self, capsys, reference):
        code, out, err = run(capsys, "extend", "belief", "--config", REFERENCE_CONFIG,
                             "--p-hat", "0.8", "--alpha-range", "0:1:5", "--beta-range", "0:1:5")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == BELIEF_GRID_DIGEST
        lines = out.splitlines()
        assert lines[0] == "alpha,beta,p_hat,d_star,s_star,regime,q,q0,gap,quality,compliance"
        assert len(lines) == 26
        believed = replace(reference, believed_p_a=0.8)
        for line in lines[1:]:
            alpha, beta, p_hat, *fields = line.split(",")
            act, rep = dv.evaluate_point(believed, dv.Ability(float(alpha), float(beta)))
            assert p_hat == "0.8"
            assert fields == [str(act.d_star), fmt(act.s_star), act.regime.value, fmt(rep.q),
                              fmt(rep.q0), fmt(rep.gap), rep.quality_label.value,
                              rep.compliance_label.value]

    def test_extend_difficulty_at_zero_names_the_range(self, capsys, tmp_path):
        # this used to fail with "execution cost scale must be finite and positive"
        path = tmp_path / "difficulty.csv"
        code, out, err = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                             "--hhat", "0", "--alpha-range", "0.5:0.5:1",
                             "--beta-range", "0.5:0.5:1", "--out", str(path))
        assert (code, out, err) == (1, "", "error: difficulty must lie in (0, 1], got 0.0\n")
        assert not path.exists()

    def test_extend_difficulty_pinned(self, capsys, tmp_path, reference):
        out_path = tmp_path / "difficulty.csv"
        code, _, _ = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                         "--hhat", "0.5", "--alpha-range", "0:1:3",
                         "--beta-range", "0:1:3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,beta,difficulty,nodes,q,q0,gap,quality,compliance"
        assert len(lines) == 10
        # a pinned level is the base model under difficulty_params
        pinned = dv.difficulty_params(reference, 0.5)
        rows = [(a, b) for b in np.linspace(0, 1, 3) for a in np.linspace(0, 1, 3)]
        for line, (a, b) in zip(lines[1:], rows):
            _, rep = dv.evaluate_point(pinned, dv.Ability(float(a), float(b)))
            assert line == ",".join([fmt(float(a)), fmt(float(b)), "0.5", "64", fmt(rep.q),
                                     fmt(rep.q0), fmt(rep.gap), rep.quality_label.value,
                                     rep.compliance_label.value])

    def test_extend_difficulty_pinned_bytes(self, capsys):
        code, out, err = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                             "--hhat", "0.5", "--alpha-range", "0:2:7", "--beta-range", "0:1:6")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIFFICULTY_DIGEST

    @pytest.mark.parametrize("hhat", [[], ["--hhat", "0.5"]], ids=["integrated", "pinned"])
    @pytest.mark.parametrize("nodes", ["0", "1025", "5000"])
    def test_bad_nodes_fail_before_the_ranges(self, capsys, tmp_path, hhat, nodes):
        # a pinned level uses no nodes, but --nodes is checked all the same,
        # after --hhat and before the ranges
        path = tmp_path / "difficulty.csv"
        code, out, err = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                             *hhat, "--nodes", nodes, "--alpha-range", "x",
                             "--beta-range", "0:1:3", "--out", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: nodes must be an integer in [1, 1024], got {nodes}\n"
        assert not path.exists()
        code, _, err = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                           "--hhat", "2", "--nodes", nodes, "--alpha-range", "x",
                           "--beta-range", "0:1:3")
        assert (code, err) == (1, "error: difficulty must lie in (0, 1], got 2.0\n")

    def test_invalid_difficulty_point_leaves_no_file(self, capsys, tmp_path, reference):
        # the rows before (0, 1.5) are valid; pinned or integrated, the grid
        # fails with that point's one-point message
        path = tmp_path / "difficulty.csv"
        for hhat in (["--hhat", "0.5"], []):
            with pytest.raises(ValueError) as info:
                if hhat:
                    dv.solve_points(dv.difficulty_params(reference, 0.5), [0.0], [1.5])
                else:
                    dv.expected_quality(reference, [0.0], [1.5], 64)
            code, out, err = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                                 *hhat, "--alpha-range", "0:1:3",
                                 "--beta-range", "0:1.5:4", "--out", str(path))
            assert (code, out, err) == (1, "", f"error: {info.value}\n")
            assert not path.exists()

    def test_difficulty_overflow_at_high_hardness_leaves_no_file(self, capsys, tmp_path):
        # C_w = 10 h / 5e-309 overflows above h of about 0.09; the integrated
        # grid is checked at h = 1 and fails with the scalar message there
        path = tmp_path / "difficulty.csv"
        code, out, err = run(capsys, "extend", "difficulty",
                             "--config", inverse_efficiency_config(tmp_path),
                             "--alpha-range", "0.5:0.5:1", "--beta-range", "5e-309:5e-309:1",
                             "--out", str(path))
        assert (code, out) == (1, "")
        assert err == "error: beta=5e-309 is too small: the inverse_efficiency cost must be finite\n"
        assert not path.exists()

    def test_difficulty_grid_is_one_expected_quality_call(self, capsys, tmp_path, monkeypatch):
        # bench/tracing.py wraps cli.expected_quality and times each call as
        # one extend difficulty command's integration, whatever its grid size
        calls, plain = [], cli.expected_quality

        def counting(params, alpha, beta, nodes):
            calls.append(len(alpha))
            return plain(params, alpha, beta, nodes)

        monkeypatch.setattr(cli, "expected_quality", counting)
        for ranges in (["0:1:3", "0.2:0.8:3"], ["0.5:0.5:1", "0.5:0.5:1"]):
            code, _, _ = run(capsys, "extend", "difficulty", "--config", REFERENCE_CONFIG,
                             "--alpha-range", ranges[0], "--beta-range", ranges[1],
                             "--out", str(tmp_path / "difficulty.csv"))
            assert code == 0
        assert calls == [9, 1]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are counted in /proc")
    def test_difficulty_after_a_fork_starts_no_thread(self):
        # OpenBLAS stops its threads at a fork and starts one again at the next
        # LAPACK call, which then spins on another core; numpy's leggauss made
        # that call in the first integrated extend difficulty
        code = f"""
import contextlib, io, os
from delver.cli import main
pid = os.fork()
if pid == 0:
    os._exit(0)
os.waitpid(pid, 0)
before = len(os.listdir("/proc/self/task"))
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["extend", "difficulty", "--config", {REFERENCE_CONFIG!r},
                   "--alpha-range", "0.5:0.5:1", "--beta-range", "0.5:0.5:1"])
print(status, before, len(os.listdir("/proc/self/task")))
"""
        status, before, after = map(int, run_isolated(code).split())
        assert status == 0
        assert after <= before


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

    def test_power_cost_of_exponent_one_is_the_linear_cost(self, capsys):
        point = ["intervene", "worker", "--config", REFERENCE_CONFIG, "--alpha", "0.05",
                 "--beta", "0.1"]
        linear = run(capsys, *point, "--h1", "linear:4", "--h2", "linear:1")
        power = run(capsys, *point, "--h1", "power:4:1", "--h2", "power:1:1")
        assert power == linear and linear[0] == 0

    def test_alpha_cost_off_gives_the_beta_only_plan(self, capsys, reference):
        code, out, err = run(capsys, "intervene", "worker", "--config", REFERENCE_CONFIG,
                             "--alpha", "0.05", "--beta", "0.1", "--h1", "off", "--json")
        assert (code, err) == (0, "")
        plan = dv.worker_upskill(reference, dv.Ability(0.05, 0.1), dv.CostModel(h_alpha=None))
        expected = {name: float(f"{getattr(plan, name):.9g}")
                    for name in ("d_alpha", "d_beta", "cost", "achieved_q")}
        assert json.loads(out) == {**expected, "feasible": True}
        code, out, _ = run(capsys, "intervene", "worker", "--config", REFERENCE_CONFIG,
                           "--alpha", "0.05", "--beta", "0.1", "--h1", "off")
        assert "d_beta 0.620000244\n" in out

    def test_plan_ending_on_the_beta_cap_is_feasible(self, capsys):
        # the plan's radius takes beta one ulp past its cap of 1
        code, out, err = run(capsys, "intervene", "worker", "--config", REFERENCE_CONFIG,
                             "--alpha", "1.6625022172705624", "--beta", "0.1760475257314348",
                             "--tau", "9.547390386200268")
        assert (code, err) == (0, "")
        assert "feasible 1\n" in out

    @pytest.mark.parametrize("costs, message", [
        (["--h1", "off", "--h2", "off"], "at least one cost term must be enabled"),
        (["--h1", "quad:1"], "cost term must be linear:C, power:C:RHO, or off; got 'quad:1'"),
        (["--h1", "linear:abc"],
         "cost term must be linear:C, power:C:RHO, or off; got 'linear:abc'"),
        (["--h2", "power:2:x"], "cost term must be linear:C, power:C:RHO, or off; got 'power:2:x'"),
        (["--h2", "power:2:0.5"], "cost exponent must be finite and >= 1, got 0.5"),
    ], ids=["both-off", "unknown-kind", "non-numeric-coefficient", "non-numeric-exponent",
            "exponent-below-one"])
    def test_bad_cost_model_is_one_error_line(self, capsys, costs, message):
        code, out, err = run(capsys, "intervene", "worker", "--config", REFERENCE_CONFIG,
                             "--alpha", "0.05", "--beta", "0.1", *costs)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_overflowing_cost_term_gives_an_inf_cost(self, capsys):
        # 4.07 ** 1000 overflows a float: the plan costs inf, or the cheapest finite direction
        point = ["intervene", "worker", "--config", REFERENCE_CONFIG, "--alpha", "0",
                 "--beta", "0", "--tau", "9.5", "--h1", "power:1:1000"]
        code, out, err = run(capsys, *point, "--h2", "off")
        assert (code, err) == (0, "") and "\ncost inf\n" in out
        code, out, err = run(capsys, *point, "--h2", "off", "--json")
        assert (code, err) == (0, "") and json.loads(out)["cost"] is None
        code, out, err = run(capsys, *point, "--h2", "linear:1", "--json")
        assert (code, err) == (0, "") and math.isfinite(json.loads(out)["cost"])

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

    def test_institution_point_refuses_out(self, capsys, tmp_path):
        # --out with one point used to print the point's result, write no file and exit 0
        path = tmp_path / "gains.csv"
        code, out, err = run(capsys, "intervene", "institution", "--config", REFERENCE_CONFIG,
                             "--lever", "p_a", "--delta", "0.05", "--alpha", "1", "--beta", "0.5",
                             "--out", str(path))
        assert (code, out, err) == (1, "", "error: --out needs --alpha-range and --beta-range; "
                                           "one point prints to stdout\n")
        assert not path.exists()

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
        # the row is on line 6 of the file, after 4 comment lines and the header
        assert first == 5
        assert (code, out, err) == (1, "", "error: malformed rows: row 6: expected 7 fields\n")

    def test_field_over_the_csv_limit_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "cases.csv"
        bad.write_text(",".join(cal.CASE_COLUMNS) + "\n" + "x" * 200_000 + ",1,0,0,100.0,120.0,0\n")
        code, out, err = run(capsys, "calibrate", "--cases", str(bad),
                             "--tvmax", "118.1", "--twmax", "262.3")
        assert (code, out, err) == (1, "", "error: line 2: field larger than field limit (131072)\n")

    def test_undecodable_log_names_its_file(self, capsys, tmp_path):
        # the log is decoded in one piece before any line is read, so the error names the file
        bad = tmp_path / "cases.csv"
        bad.write_bytes((",".join(cal.CASE_COLUMNS) + "\n").encode() + b"c0,1,0,0,100.0,\xff,0\n")
        code, out, err = run(capsys, "calibrate", "--cases", str(bad),
                             "--tvmax", "118.1", "--twmax", "262.3")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot decode {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
    def test_undecodable_log_gives_the_byte_offset(self, capsys, tmp_path, bom):
        # the file is decoded in one piece, so the position is the bad byte's offset in
        # the file, past a 20,000-byte comment line and any byte-order mark
        data = (bom + b"#" + b"x" * 19_998 + b"\n" + ",".join(cal.CASE_COLUMNS).encode()
                + b"\nc0,1,0,0,100.0,\xff,0\n")
        bad = tmp_path / "cases.csv"
        bad.write_bytes(data)
        code, out, err = run(capsys, "calibrate", "--cases", str(bad),
                             "--tvmax", "118.1", "--twmax", "262.3")
        offset = data.index(b"\xff")
        assert offset == 20_109 + len(bom)
        assert (code, out, err) == (1, "", f"error: cannot decode {bad}: 'utf-8' codec can't decode "
                                    f"byte 0xff in position {offset}: invalid start byte\n")

    @pytest.mark.parametrize("cases, fault", [("./logs", IsADirectoryError),
                                              ("./missing.csv", FileNotFoundError)],
                             ids=["directory", "missing"])
    def test_unreadable_log_is_named_as_given(self, capsys, tmp_path, monkeypatch, cases, fault):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logs").mkdir()
        code, out, err = run(capsys, "calibrate", "--cases", cases,
                             "--tvmax", "118.1", "--twmax", "262.3")
        with pytest.raises(fault) as info:
            open(cases, "rb")
        assert str(info.value).endswith(f": '{cases}'")
        assert (code, out, err) == (1, "", f"error: {info.value}\n")

    def test_zero_verification_time_cap_fails_cleanly(self, capsys, tmp_path):
        # assisted time equals worker time and no AI error is caught, so the
        # implied verification cost is 0, as is --tvmax; this used to divide by 0
        cases = tmp_path / "cases.csv"
        cases.write_text(f"{','.join(cal.CASE_COLUMNS)}\n" + "".join(
            f"c{k},{w},{a},{a},{t},{t},1\n"
            for k, (w, a, t) in enumerate([(1, 1, 100), (0, 1, 120), (1, 0, 110), (0, 0, 90)])))
        code, out, err = run(capsys, "calibrate", "--cases", str(cases),
                             "--tvmax", "0", "--twmax", "200")
        assert (code, out, err) == (1, "", "error: t_v_max must be positive, got 0.0\n")

    def test_huge_calibrated_alpha_reports(self, capsys, tmp_path):
        # the log calibrates to alpha 2.3e11 and s_dagger 1.0e-11; check_assumptions
        # used to probe alpha +- 1e-5, which rounds back to alpha there, and divided by 0
        cases = tmp_path / "cases.csv"
        cases.write_text(f"{','.join(cal.CASE_COLUMNS)}\n" + "".join(
            f"c{k},{int(k < 40)},{int(k < 25)},{int(k < 43)},100,"
            f"{'45.00000005' if k == 0 else '45'},0\n" for k in range(50)))
        code, out, err = run(capsys, "calibrate", "--cases", str(cases),
                             "--tvmax", "100", "--twmax", "300", "--json")
        assert (code, err, len(out.splitlines())) == (0, "", 1)
        worker = json.loads(out)["worker"]
        assert worker["alpha"] == pytest.approx(2.3e11, rel=0.01)
        assert worker["s_dagger"] == pytest.approx(1.0e-11, rel=0.01)


class TestBenchmarkSeams:
    def test_traced_names_are_cli_attributes(self):
        # the benchmark's traced pass swaps these delver.cli names for timed wrappers;
        # run_path executes bench/tracing.py from source and writes nothing under bench/
        layers = runpy.run_path(str(REPO / "bench" / "tracing.py"))["CLI_LAYERS"]
        assert layers
        for name, (span, _, _) in layers.items():
            fn = getattr(cli, name)
            assert callable(fn), name
            # a span is labelled with the module that defines the function; rework_quality
            # is atlas.evaluate_point timed as the rework extension's first-row solve, and
            # keeps its extensions. label until the benchmark renames that seam
            module = "atlas" if name == "rework_quality" else span.split(".")[0]
            assert fn.__module__ == f"delver.{module}", (name, span, fn.__module__)
        assert cli.cal is cal

    def test_deferred_names_resolve_before_any_command(self):
        # the traced pass reads these names before any command has bound them, which
        # only a fresh interpreter shows: in process, earlier commands bind them first
        out = run_isolated(
            "import sys\n"
            "import delver.cli as cli\n"
            "print(sorted(n for ns in cli._LAZY.values() for n in ns if n in vars(cli)))\n"
            "for module, names in cli._LAZY.items():\n"
            "    for name in names:\n"
            "        value = getattr(cli, name)\n"
            "        source = sys.modules[f'delver.{module}']\n"
            "        print(name, value is (source if name == 'cal' else getattr(source, name)))\n"
            "try:\n"
            "    cli.missing\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n")
        bound, *resolved, missing = out.splitlines()
        assert bound == "[]"
        assert resolved == [f"{name} True" for names in cli._LAZY.values() for name in names]
        assert missing == "module 'delver.cli' has no attribute 'missing'"


# what `import delver.cli` loads of the package; calibration, extensions and
# interventions load in the commands that call them
STARTUP_MODULES = ["delver", "delver.atlas", "delver.cli", "delver.config", "delver.model",
                   "delver.sampling", "delver.solver"]
# the names `import delver` offered when it imported every module, by module
PACKAGE_NAMES = {
    "atlas": ["AtlasGrid", "AtlasRow", "ComplianceLabel", "QualityLabel", "QualityReport",
              "RootResult", "boundary_curve", "evaluate_point", "psi", "psi0", "psi1",
              "psi_prime", "psi_tau", "quality", "separatrix_intersection", "solve_points",
              "sweep_grid", "write_atlas_csv"],
    "calibration": ["CalibratedWorker", "CalibrationError", "CaseRecord", "ClassificationResult",
                    "CleaningReport", "InstitutionSpec", "Observables", "calibrate_file",
                    "classify_calibrated", "clean_cases", "estimate_observables", "fixture_path",
                    "infer_ability", "ingest_and_clean", "read_cases"],
    "config": ["ConfigError", "load_params", "params_from_dict", "params_to_dict"],
    "extensions": ["difficulty_params", "expected_quality"],
    "interventions": ["CostModel", "CostTerm", "LeverResult", "LeverTarget", "UpskillPlan",
                      "ai_upgrade_gain", "incentive_transfer_gain", "minimal_lever",
                      "worker_upskill"],
    "model": ["Ability", "Action", "AssumptionReport", "Coefficients", "Detection",
              "ExecutionCost", "ModelParams", "VerificationCost", "check_assumptions",
              "coefficients", "delegation_gain", "detection_probability", "institutional_utility",
              "reference_params", "task_success", "total_cost", "verification_surplus",
              "worker_utility"],
    "solver": ["OptimalAction", "Regime", "ThresholdResult", "brute_force_action",
               "manual_delegation_threshold", "optimal_action", "optimal_verification",
               "qualification_threshold"],
}


class TestStartup:
    def test_commands_load_only_the_modules_they_call(self):
        ranges = ["--config", REFERENCE_CONFIG, "--alpha-range", "0:1:2", "--beta-range", "0:1:2"]
        # extend belief and rework set a ModelParams field; difficulty calls extensions
        runs = [["boundary", "--config", REFERENCE_CONFIG, "--which", "psi0", "--beta-range", "0:1:5"],
                ["selfcheck", "--config", REFERENCE_CONFIG, "--samples", "2"],
                ["extend", "belief", "--p-hat", "0.8", *ranges],
                ["extend", "rework", "--kappa", "0.8", *ranges],
                ["calibrate", *FIXTURE_CASES],
                ["extend", "difficulty", "--hhat", "0.5", *ranges]]
        out = run_isolated(
            "import contextlib, io, json, sys\n"
            "import delver.cli as cli\n"
            "def loaded():\n"
            "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'delver')))\n"
            "loaded()\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    loaded()\n")
        after_import, *after_runs = map(json.loads, out.splitlines())
        assert all(loaded == STARTUP_MODULES for loaded in [after_import, *after_runs[:4]])
        assert after_runs[4] == sorted(STARTUP_MODULES + ["delver.calibration", "delver.interventions"])
        assert after_runs[5] == sorted(STARTUP_MODULES + ["delver.calibration", "delver.extensions",
                                                          "delver.interventions"])

    def test_package_offers_the_same_names(self):
        modules = {module: importlib.import_module(f"delver.{module}") for module in PACKAGE_NAMES}
        for module, names in PACKAGE_NAMES.items():
            for name in names:
                assert getattr(dv, name) is getattr(modules[module], name), name
        assert sorted(dv.__all__) == sorted([*modules, *(n for ns in PACKAGE_NAMES.values() for n in ns)])
        assert set(dv.__all__) <= set(dir(dv))
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            dv.missing

    def test_import_star_loads_the_lazy_names(self):
        out = run_isolated(
            "import sys\n"
            "import delver\n"
            "print('delver.calibration' in sys.modules)\n"
            "from delver import *\n"
            "print(CalibrationError is sys.modules['delver.calibration'].CalibrationError)\n")
        assert out == "False\nTrue\n"

    def test_a_name_set_before_first_use_stays_bound(self):
        # the benchmark's traced pass sets timed wrappers on delver.cli this way
        argv = ["intervene", "worker", "--config", REFERENCE_CONFIG, "--alpha", "0.05", "--beta", "0.1"]
        out = run_isolated(
            "import contextlib, io\n"
            "import delver.cli as cli\n"
            "from delver.interventions import worker_upskill\n"
            "calls = []\n"
            "def spy(*args, **kwargs):\n"
            "    calls.append(args)\n"
            "    return worker_upskill(*args, **kwargs)\n"
            "setattr(cli, 'worker_upskill', spy)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(len(calls), cli.worker_upskill is spy, cli.minimal_lever.__module__)\n")
        assert out == "1 True delver.interventions\n"


class TestSelfcheck:
    def test_reports_thresholds_and_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG)
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.splitlines() if " " in l)
        assert float(lines["t"]) == pytest.approx(0.72, abs=1e-9)
        assert float(lines["t_tau"]) == pytest.approx(4.0 / 15.0, abs=1e-9)
        assert lines["oracle_failures"] == "0"

    def test_spot_checks_leave_numpy_random_unloaded(self):
        # the workers come from random.Random: numpy.random's first use costs about
        # 10 ms per process, and it loads secrets, hmac and OpenSSL's _hashlib
        out = run_isolated(
            "import contextlib, io, sys\n"
            "from delver.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['selfcheck', '--config', {REFERENCE_CONFIG!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n")
        assert out == "False\n"

    def test_violations_are_listed_and_fail(self, capsys, tmp_path):
        # b_i = l_i = 1 breaks institutional dominance; the output is that of commit bfc6fef
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited_config({("task_profile", "b_i"): 1,
                                                    ("task_profile", "l_i"): 1})))
        code, out, err = run(capsys, "selfcheck", "--config", str(config))
        assert (code, err) == (1, "")
        assert out == ("t 0.72\nt_tau 1 (boundary)\ndominance 0\nassumptions_ok 0\n"
                       "violation dominance violated: b_i+l_i=2.0 <= xi*(b_w+l_w)=4.2\n"
                       "oracle_spot_checks 20\noracle_max_shortfall 0\noracle_failures 0\n")

    def test_oracle_above_the_analytic_optimum_fails(self, capsys, monkeypatch):
        oracle = cli.brute_force_action

        def optimistic(*args, **kwargs):
            action, utility = oracle(*args, **kwargs)
            return action, utility + 1.0

        monkeypatch.setattr(cli, "brute_force_action", optimistic)
        code, out, _ = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG)
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert code == 1
        assert lines["oracle_failures"] == "20"

    def test_negative_samples_is_rejected(self, capsys):
        code, out, err = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG, "--samples", "-3")
        assert (code, out, err) == (1, "", "error: --samples must be >= 0, got -3\n")

    def test_negative_seed_is_rejected_before_any_output(self, capsys):
        # the seed used to be refused by numpy after the threshold lines
        code, out, err = run(capsys, "selfcheck", "--config", REFERENCE_CONFIG, "--seed", "-1")
        assert (code, out, err) == (1, "", "error: --seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("family, t_tau", [("linear_in_efficiency", "0"),
                                               ("inverse_efficiency", "1e-12")])
    def test_baseline_flat_at_tau_prints_the_bottom_as_a_boundary(self, capsys, tmp_path,
                                                                  family, t_tau):
        # xi = 0 makes the baseline 7.5 at every efficiency, equal to tau: every
        # efficiency qualifies, and neither the top of the search nor a near-top
        # point may pass for a root
        config = tmp_path / "config.json"
        config.write_text(json.dumps(edited_config({
            ("task_profile", "xi"): 0, ("task_profile", "tau"): 7.5,
            ("functions", "execution_cost"): {"family": family, "scale": 5}})))
        code, out, _ = run(capsys, "selfcheck", "--config", str(config), "--samples", "0")
        lines = dict(line.split(" ", 1) for line in out.splitlines())
        assert lines["t_tau"] == f"{t_tau} (boundary)"

    def test_threshold_above_8192_finishes(self, tmp_path):
        # p_a close to p_w puts the manual-delegation threshold near 1.19e4,
        # where one ulp of beta is wider than 1e-12
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

    at = [f"--alpha={alpha!r}", f"--beta={beta!r}"]
    grid = [f"--alpha-range={point(alpha)}", f"--beta-range={point(beta)}"]
    return {
        "solve": ["solve", *at],
        "quality": ["quality", *at, f"--tau={tau!r}"],
        "atlas": ["atlas", f"--alpha={point(alpha)}", f"--beta={point(beta)}", f"--tau={tau!r}",
                  "--out", "atlas.csv"],
        "boundary": ["boundary", "--which", "psi_tau", f"--beta-range={point(beta)}",
                     f"--tau={tau!r}"],
        "difficulty": ["extend", "difficulty", *grid],
        # rework has no tau; the third draw is its kappa
        "rework": ["extend", "rework", f"--kappa={tau!r}", *grid],
        # belief has no tau either; its p-hat stays inside [0, 1], so that the point varies
        "belief": ["extend", "belief", "--p-hat=0.9", *grid],
        # an infeasible plan costs inf, which --json prints as null (README, "Command line")
        "worker": ["intervene", "worker", *at, f"--tau={tau!r}", "--json"],
        **{f"minimal-{lever}": ["intervene", "minimal", f"--lever={lever}", *at, f"--tau={tau!r}"]
           for lever in ("alpha", "beta", "p_a")},
        # the institution levers have no tau; the third draw is their delta
        **{f"institution-{lever}": ["intervene", "institution", f"--lever={lever}",
                                    f"--delta={tau!r}", *at] for lever in ("p_a", "b_transfer")},
        "institution-grid": ["intervene", "institution", "--lever=p_a", f"--delta={tau!r}", *grid],
        "oracle": ["oracle", *at, "--s-steps=11"],
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
    @pytest.mark.parametrize("command", ["solve", "quality", "atlas", "boundary", "difficulty",
                                         "rework", "belief", "worker", "minimal-alpha",
                                         "minimal-beta", "minimal-p_a", "institution-p_a",
                                         "institution-b_transfer", "institution-grid", "oracle"])
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
