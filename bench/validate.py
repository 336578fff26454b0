"""Checks on command outputs, read by column or key name, and their digests.

Columns and keys are looked up by name, so an added column (such as a
`bracketed` flag on boundary CSVs) does not break validation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from delver.config import load_params
from delver.model import Ability, Action, worker_utility
from delver.solver import brute_force_action

REQUIRED = {
    "atlas": ["alpha", "beta", "d_star", "s_star", "regime", "q", "q0", "gap",
              "quality", "compliance"],
    "institution_grid": ["alpha", "beta", "lever", "delta", "gain", "new_q"],
    "extension_grid": ["alpha", "beta", "q", "q0", "gap", "quality", "compliance"],
    "boundary": ["beta", "alpha"],
    "selfcheck": ["t", "t_tau", "dominance", "assumptions_ok", "oracle_spot_checks",
                  "oracle_max_shortfall", "oracle_failures"],
    "upskill": ["d_alpha", "d_beta", "cost", "achieved_q", "feasible"],
    "minimal": ["lever", "value", "feasible"],
}
NUMERIC = {"alpha", "beta", "d_star", "s_star", "q", "q0", "gap", "delta", "gain", "new_q",
           "kappa", "nodes", "difficulty", "t", "t_tau", "oracle_max_shortfall",
           "d_alpha", "d_beta", "cost", "achieved_q", "value"}
REGIMES = {"manual", "pure_delegation", "verified_delegation"}
ORACLE_RTOL = 1e-6   # selfcheck's tolerance on the oracle's utility shortfall
WROTE = re.compile(r"^wrote (\d+) rows to (\S+)$")


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_fields(fields: dict, required, where: str, skip=()) -> list[str]:
    problems = [f"{where}: missing {name!r}" for name in required if name not in fields]
    for name, value in fields.items():
        if name in NUMERIC and name not in skip and value != "" and not _finite(value):
            problems.append(f"{where}: {name}={value!r} is not a finite number")
    return problems


def _key_values(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key != "violation":
            # thresholds at a domain boundary carry a " (boundary)" note
            fields[key] = value.split(" ")[0]
    return fields


def _read_csv(path: Path, cmd, problems) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != cmd.rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {cmd.rows}")
    for i, row in enumerate(rows):
        row_problems = _check_fields(row, REQUIRED[cmd.kind], f"{path.name} row {i}")
        if cmd.kind == "atlas" and row.get("regime") not in REGIMES:
            row_problems.append(f"{path.name} row {i}: unknown regime {row.get('regime')!r}")
        if row_problems:
            problems.extend(row_problems[:3])
            break
    return rows


def check(cmd, result: dict, pass_dir: Path, rng=None) -> list[str]:
    """Problems with one command's result; empty when it is correct.

    With an `rng`, a seeded sample of atlas rows is also checked against
    the grid oracle: the reported (d_star, s_star) may trail the oracle's
    best utility by no more than selfcheck's tolerance.
    """
    if result["rc"] != 0:
        return [f"exit {result['rc']}: {result['stderr'].strip()[-300:]}"]
    stdout = result["stdout"]
    problems: list[str] = []
    if cmd.out is not None:
        match = WROTE.match(stdout.strip())
        if not match or int(match.group(1)) != cmd.rows or match.group(2) != cmd.out:
            return [f"unexpected stdout {stdout.strip()[:200]!r}"]
        rows = _read_csv(pass_dir / cmd.out, cmd, problems)
        if cmd.kind == "atlas" and rng is not None and not problems:
            problems.extend(_oracle(cmd, rows, pass_dir, rng))
    elif cmd.kind == "calibrate":
        payload = json.loads(stdout)
        worker = payload.get("worker", {})
        cls = payload.get("classification", {})
        for key in ("alpha", "beta", "s_dagger"):
            if not isinstance(worker.get(key), (int, float)) or not math.isfinite(worker[key]):
                problems.append(f"worker.{key}={worker.get(key)!r} is not a finite number")
        if cls.get("regime") not in REGIMES:
            problems.append(f"classification.regime={cls.get('regime')!r}")
    else:
        fields = _key_values(stdout)
        # an infeasible plan reports cost inf; _check_plan covers it
        problems.extend(_check_fields(fields, REQUIRED[cmd.kind], cmd.kind, skip={"cost"}))
        if cmd.kind == "selfcheck" and fields.get("oracle_failures") != "0":
            problems.append(f"oracle_failures={fields.get('oracle_failures')!r}")
        if cmd.kind == "upskill":
            problems.extend(_check_plan(cmd, fields))
    return problems


def _check_plan(cmd, fields) -> list[str]:
    feasible = fields.get("feasible") == "1"
    cost = float(fields.get("cost", "nan"))
    if feasible != math.isfinite(cost):
        return [f"feasible={fields.get('feasible')} with cost={cost}"]
    tau = float(cmd.argv[cmd.argv.index("--tau") + 1])
    # the library's own tolerance, plus rounding to 9 significant digits
    tol = 1e-9 * (1.0 + abs(tau)) + 5e-9 * abs(tau)
    if feasible and float(fields["achieved_q"]) < tau - tol:
        return [f"achieved_q={fields['achieved_q']} below tau={tau!r}"]
    return []


def _oracle(cmd, rows, pass_dir, rng, samples=4) -> list[str]:
    params = load_params(pass_dir / cmd.argv[cmd.argv.index("--config") + 1])
    problems = []
    for i in rng.choice(len(rows), size=min(samples, len(rows)), replace=False):
        row = rows[int(i)]
        ability = Ability(float(row["alpha"]), float(row["beta"]))
        u = worker_utility(params, ability, Action(float(row["d_star"]), float(row["s_star"])))
        _, oracle_u = brute_force_action(params, ability, d_steps=11, s_steps=2001)
        if oracle_u - u > ORACLE_RTOL * (1.0 + abs(u)):
            problems.append(f"{cmd.out} row {int(i)}: oracle beats reported action by "
                            f"{oracle_u - u:.3g}")
    return problems


def digest(cmd, result: dict, pass_dir: Path) -> str:
    """SHA-256 of a command's exit code, stdout and written file."""
    h = hashlib.sha256()
    h.update(f"{cmd.cid}\0{result['rc']}\0".encode())
    h.update(result["stdout"].encode())
    if cmd.out is not None and (pass_dir / cmd.out).exists():
        h.update(b"\0" + (pass_dir / cmd.out).read_bytes())
    return h.hexdigest()


def combined(digests) -> str:
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def oracle_rng(seed: int):
    return np.random.default_rng([seed, 99])
