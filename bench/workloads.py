"""Seeded inputs for the three workloads, as delver CLI argument lists.

Configs come from `sampling.sample_params`, stratified so that every seed
draws the same mix: one config per (detection, verification cost,
execution cost) family triple, plus `configs/reference.json`. The
verification family decides closed-form versus golden-section s†, and the
detection family decides whether phi costs a numpy exp per call, so a
free mix would make the run time depend on the seed more than on the
code. Abilities come from `beta_span`, so betas stay inside each config's
execution-cost domain.

Where the amount of search work depends on where a root or frontier falls,
the inputs are placed relative to it (boundary ranges start at the
manual-delegation threshold; upskilling and lever targets sit just above
the current quality of a worker in verified delegation), so each seed does
about the same work.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from delver.atlas import quality
from delver.calibration import fixture_path
from delver.config import load_params, params_to_dict
from delver.model import (
    EXPONENTIAL, INVERSE_EFFICIENCY, INVERSE_LINEAR, LINEAR,
    LINEAR_IN_EFFICIENCY, LINEAR_QUADRATIC, Ability, coefficients,
)
from delver.sampling import beta_span, sample_params
from delver.solver import Regime, manual_delegation_threshold, optimal_action, optimal_verification
from spec import WORKLOADS

NAMES = tuple(WORKLOADS)

STRATA = [(det, vc, ec)
          for det in (EXPONENTIAL, INVERSE_LINEAR)
          for ec in (LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY)
          for vc in (LINEAR, LINEAR_QUADRATIC)]

# Sizes per scale; "tiny" is for the harness self-check. "configs" is the
# number of sampled configs per stratum: root finding and plan searches
# vary more from config to config than point solves do, so they average
# over more configs with less work on each. Sampled configs get 81x81
# atlases, which keeps a grid_sweep pass near 6 s; "ref_atlas" gives the
# reference config's atlas sizes, by the label of their per-layer metrics.
SIZES = {
    "full": {"strata": len(STRATA), "atlas": 81, "grid": 31, "betas": 21,
             "ref_atlas": {"ref101": 101, "ref201": 201},
             "configs": {"grid_sweep": 1, "roots": 2, "plans": 2}},
    "tiny": {"strata": 2, "atlas": 5, "grid": 3, "betas": 3,
             "ref_atlas": {"ref101": 5, "ref201": 7},
             "configs": {"grid_sweep": 1, "roots": 1, "plans": 1}},
}

ALPHA_MAX = 3.0          # upper end of sample_ability's alpha draws
CAP_TAU = 1000.0         # above any reachable quality of the reference config
UPSKILL_STEP = 1e-6      # relative quality increase asked of upskilling plans
CALIBRATE_ARGS = ["--tvmax", "118.1", "--twmax", "262.3", "--tau", "150",
                  "--b-i", "2787.6", "--l-i", "1858.4", "--xi", "0.5", "--json"]


@dataclass
class Command:
    """One CLI invocation and what a correct result looks like."""

    cid: str
    argv: list[str]
    kind: str
    rows: int
    out: str | None = None
    extra: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _range(lo: float, hi: float, n: int) -> str:
    return f"{_num(lo)}:{_num(hi)}:{n}"


def _stratified_params(rng, count, per_stratum):
    out = []
    for det, vc, ec in STRATA[:count] * per_stratum:
        while True:
            params = sample_params(rng, ec)
            if params.detection.kind == det and params.verification_cost.kind == vc:
                out.append(params)
                break
    return out


def write_inputs(workload: str, seed: int, inputs: Path, root: Path, scale: str = "full"):
    """Write config files and the case log into `inputs`; return the commands.

    Argument paths are relative to a pass directory that sits beside
    `inputs`, so outputs and their digests do not depend on where the
    checkout lives.
    """
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[scale]
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    configs = []
    for i, params in enumerate(_stratified_params(rng, size["strata"], size["configs"][workload])):
        name = f"cfg{i}.json"
        (inputs / name).write_text(json.dumps(params_to_dict(params), sort_keys=True))
        configs.append((name, params))
    shutil.copyfile(root / "configs" / "reference.json", inputs / "reference.json")
    configs.append(("reference.json", load_params(inputs / "reference.json")))
    shutil.copyfile(fixture_path(), inputs / "cases.csv")
    build = {"grid_sweep": _grid_sweep, "roots": _roots, "plans": _plans}[workload]
    commands = build(rng, configs, size)
    for i, cmd in enumerate(commands):
        cmd.cid = f"{workload}:{i:02d}"
    return commands


def _cfg_arg(name):
    return ["--config", f"../inputs/{name}"]


def _atlas(name, out, alphas, betas, n, label=None):
    return Command("", ["atlas", *_cfg_arg(name), "--alpha", _range(*alphas, n),
                        "--beta", _range(*betas, n), "--out", out],
                   "atlas", n * n, out, {"label": label} if label else {})


def _grid_sweep(rng, configs, size):
    cmds = []
    n, g = size["atlas"], size["grid"]
    for i, (name, params) in enumerate(configs):
        lo, hi = beta_span(params)
        if name == "reference.json":
            # The README's atlas command and the same grid at twice the
            # resolution. On 2 cores the default process pool was measured
            # slower than a serial sweep at the first size and faster at the
            # second, so both sizes are kept for the pool's break-even.
            cmds += [_atlas(name, f"atlas_{label}.csv", (0.0, 1.0), (lo, hi), m, label)
                     for label, m in size["ref_atlas"].items()]
        else:
            cmds.append(_atlas(name, f"atlas{i}.csv", (0.0, ALPHA_MAX), (lo, hi), n))
        delta = float(f"{0.5 * (1.0 - params.p_a):.6g}")
        cmds.append(Command("", ["intervene", "institution", *_cfg_arg(name), "--lever", "p_a",
                                 "--delta", _num(delta),
                                 "--alpha-range", _range(0.0, ALPHA_MAX, g),
                                 "--beta-range", _range(lo, hi, g), "--out", f"gain{i}.csv"],
                            "institution_grid", g * g, f"gain{i}.csv"))
        kappa = float(rng.uniform(0.3, 1.0))
        cmds.append(Command("", ["extend", "rework", *_cfg_arg(name), "--kappa", _num(kappa),
                                 "--alpha-range", _range(0.0, ALPHA_MAX, g),
                                 "--beta-range", _range(lo, hi, g), "--out", f"rework{i}.csv"],
                            "extension_grid", g * g, f"rework{i}.csv"))
    return cmds


def _roots(rng, configs, size):
    cmds = []
    n = size["betas"]
    for i, (name, params) in enumerate(configs):
        lo, hi = beta_span(params)
        t = manual_delegation_threshold(params).value
        # psi0 exists only above t and psi1 only below it; anchoring the
        # ranges at t gives every config the same number of roots.
        # psi_tau runs on a narrow window around a beta where tau is reached
        # at alpha = 1, so its roots are bracketed rather than cut short at
        # 0 or at the cap by chance. psi's second search (psi_prime) may
        # end at once or bisect depending on the config; fewer betas keep
        # that from dominating the pass.
        mid = lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)
        ability = Ability(1.0, mid)
        coef = coefficients(params, ability, optimal_verification(params, ability))
        tau = coef.g_i + coef.f_i
        half = 0.02 * (hi - lo)
        ranges = {"psi0": (t, max(t, hi), n), "psi1": (min(lo, t), t, n),
                  "psi": (t, max(t, hi), (n + 1) // 2), "psi_tau": (mid - half, mid + half, n)}
        for which, (b0, b1, m) in ranges.items():
            out = f"{which}_{i}.csv"
            extra = {"which": which, "betas": [b0, b1, m]}
            argv = ["boundary", *_cfg_arg(name), "--which", which,
                    "--beta-range", _range(b0, b1, m), "--out", out]
            if which == "psi_tau":
                argv[-2:-2] = ["--tau", _num(tau)]
                extra["tau"] = tau
            cmds.append(Command("", argv, "boundary", m, out, extra))
        cmds.append(Command("", ["selfcheck", *_cfg_arg(name),
                                 "--seed", str(int(rng.integers(0, 2**31)))],
                            "selfcheck", 1))
    # Unreachable tau: every root doubles to the bracket cap.
    cmds.append(Command("", ["boundary", *_cfg_arg("reference.json"), "--which", "psi_tau",
                             "--tau", _num(CAP_TAU), "--beta-range", _range(0.0, 1.0, n),
                             "--out", "psi_tau_cap.csv"],
                        "boundary", n, "psi_tau_cap.csv",
                        {"which": "psi_tau", "betas": [0.0, 1.0, n], "tau": CAP_TAU}))
    return cmds


def _ability(rng, params):
    lo, hi = beta_span(params)
    return Ability(float(rng.uniform(0.0, ALPHA_MAX)), float(rng.uniform(lo, hi)))


def _verifying_worker(rng, params, tries=200):
    """A sampled worker in verified delegation, where quality rises with both
    abilities, so a plan's work does not hinge on long flat stretches (under
    pure delegation quality ignores ability). Falls back to the last draw."""
    for _ in range(tries):
        worker = _ability(rng, params)
        if optimal_action(params, worker).regime == Regime.VERIFIED_DELEGATION:
            break
    return worker


def _plans(rng, configs, size):
    cmds = []
    for i, (name, params) in enumerate(configs):
        worker = _verifying_worker(rng, params)
        point = ["--alpha", _num(worker.alpha), "--beta", _num(worker.beta)]
        q_now = quality(params, worker).q
        tau = _num(q_now + UPSKILL_STEP * (1.0 + abs(q_now)))
        cmds.append(Command("", ["intervene", "worker", *_cfg_arg(name), *point, "--tau", tau],
                            "upskill", 1))
        for lever in ("alpha", "beta", "p_a"):
            cmds.append(Command("", ["intervene", "minimal", *_cfg_arg(name), *point,
                                     "--lever", lever, "--tau", tau], "minimal", 1))
        # a one-point grid per config: 257 probes, kink bisections and
        # quadrature make each point cost about as much as a plan
        cmds.append(Command("", ["extend", "difficulty", *_cfg_arg(name),
                                 "--alpha-range", _range(worker.alpha, worker.alpha, 1),
                                 "--beta-range", _range(worker.beta, worker.beta, 1),
                                 "--out", f"difficulty{i}.csv"],
                            "extension_grid", 1, f"difficulty{i}.csv"))
    # Unreachable target: every direction of the fan scans to its cap.
    name, params = configs[-1]
    worker = _ability(rng, params)
    cmds.append(Command("", ["intervene", "worker", *_cfg_arg(name),
                             "--alpha", _num(worker.alpha), "--beta", _num(worker.beta),
                             "--tau", _num(CAP_TAU)], "upskill", 1))
    cmds.append(Command("", ["calibrate", "--cases", "../inputs/cases.csv", *CALIBRATE_ARGS],
                        "calibrate", 1))
    return cmds
