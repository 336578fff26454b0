"""Parameter files: a strict JSON schema mapped onto ModelParams.

Unknown keys are rejected everywhere so that typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import json
import math

from .model import (
    EXPONENTIAL, INVERSE_EFFICIENCY, INVERSE_LINEAR, LINEAR,
    LINEAR_IN_EFFICIENCY, LINEAR_QUADRATIC,
    Detection, ExecutionCost, ModelParams, VerificationCost,
)


class ConfigError(ValueError):
    pass


def _section(doc: dict, name: str, keys: set[str]) -> dict:
    if name not in doc:
        raise ConfigError(f"missing section {name!r}")
    section = doc[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(section) - keys
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = keys - set(section)
    if missing:
        raise ConfigError(f"missing keys in {name!r}: {sorted(missing)}")
    return section


def _number(section: dict, key: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{key!r} must be finite, got an integer too large for a float") from None
    if not math.isfinite(number):  # a literal such as 1e999 parses to inf
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    return number


def params_from_dict(doc: dict) -> ModelParams:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - {"task_profile", "ai", "worker", "functions"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    task = _section(doc, "task_profile", {"b_w", "l_w", "b_i", "l_i", "xi", "tau"})
    ai = _section(doc, "ai", {"p_a", "c_a"})
    worker = _section(doc, "worker", {"p_w"})
    functions = _section(doc, "functions", {"detection", "verification_cost", "execution_cost"})

    det = _section(functions, "detection", {"family", "scale"})
    if det["family"] not in (EXPONENTIAL, INVERSE_LINEAR):
        raise ConfigError(f"unknown detection family {det['family']!r}")
    detection = Detection(det["family"], _number(det, "scale"))

    vc = functions["verification_cost"]
    if not isinstance(vc, dict) or "family" not in vc:
        raise ConfigError("verification_cost must be an object with a family")
    if vc["family"] == LINEAR:
        vc = _section(functions, "verification_cost", {"family", "k"})
        verification = VerificationCost(LINEAR, _number(vc, "k"))
    elif vc["family"] == LINEAR_QUADRATIC:
        vc = _section(functions, "verification_cost", {"family"})
        verification = VerificationCost(LINEAR_QUADRATIC)
    else:
        raise ConfigError(f"unknown verification cost family {vc['family']!r}")

    ec = _section(functions, "execution_cost", {"family", "scale"})
    if ec["family"] not in (LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY):
        raise ConfigError(f"unknown execution cost family {ec['family']!r}")
    execution = ExecutionCost(ec["family"], _number(ec, "scale"))

    try:
        return ModelParams(
            b_w=_number(task, "b_w"), l_w=_number(task, "l_w"),
            b_i=_number(task, "b_i"), l_i=_number(task, "l_i"),
            xi=_number(task, "xi"), tau=_number(task, "tau"),
            p_a=_number(ai, "p_a"), c_a=_number(ai, "c_a"),
            p_w=_number(worker, "p_w"),
            detection=detection, verification_cost=verification, execution_cost=execution,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_params(path) -> ModelParams:
    """Read a parameter file; the NaN and Infinity tokens that json accepts are rejected."""

    def reject(token):
        raise ConfigError(f"non-finite number {token} in {path}")

    with open(path) as fh:
        try:
            doc = json.load(fh, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_dict(doc)


def params_to_dict(params: ModelParams) -> dict:
    vc: dict = {"family": params.verification_cost.kind}
    if params.verification_cost.kind == LINEAR:
        vc["k"] = params.verification_cost.k
    return {
        "task_profile": {"b_w": params.b_w, "l_w": params.l_w, "b_i": params.b_i,
                         "l_i": params.l_i, "xi": params.xi, "tau": params.tau},
        "ai": {"p_a": params.p_a, "c_a": params.c_a},
        "worker": {"p_w": params.p_w},
        "functions": {
            "detection": {"family": params.detection.kind, "scale": params.detection.scale},
            "verification_cost": vc,
            "execution_cost": {"family": params.execution_cost.kind,
                               "scale": params.execution_cost.scale},
        },
    }


def parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'start:end:count' with finite, inclusive endpoints and count >= 1."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must look like start:end:count, got {text!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(f"range endpoints must be finite, got {text!r}")
    if count < 1:
        raise ConfigError("range count must be >= 1")
    return start, end, count
