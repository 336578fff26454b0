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


# Each section of numbers in a config file and its ModelParams fields; "functions" is apart.
_NUMBERS = {
    "task_profile": ("b_w", "l_w", "b_i", "l_i", "xi", "tau"),
    "ai": ("p_a", "c_a"),
    "worker": ("p_w",),
}


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


def _build(cls, *args, **kwargs):
    """cls(...), with the ValueError of the constructor's checks raised as a ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def params_from_dict(doc: dict) -> ModelParams:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - {*_NUMBERS, "functions"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    sections = {name: _section(doc, name, set(keys)) for name, keys in _NUMBERS.items()}
    functions = _section(doc, "functions", {"detection", "verification_cost", "execution_cost"})

    det = _section(functions, "detection", {"family", "scale"})
    if det["family"] not in (EXPONENTIAL, INVERSE_LINEAR):
        raise ConfigError(f"unknown detection family {det['family']!r}")
    detection = _build(Detection, det["family"], _number(det, "scale"))

    vc = functions["verification_cost"]
    if not isinstance(vc, dict) or "family" not in vc:
        raise ConfigError("verification_cost must be an object with a family")
    if vc["family"] == LINEAR:
        vc = _section(functions, "verification_cost", {"family", "k"})
        verification = _build(VerificationCost, LINEAR, _number(vc, "k"))
    elif vc["family"] == LINEAR_QUADRATIC:
        vc = _section(functions, "verification_cost", {"family"})
        verification = VerificationCost(LINEAR_QUADRATIC)
    else:
        raise ConfigError(f"unknown verification cost family {vc['family']!r}")

    ec = _section(functions, "execution_cost", {"family", "scale"})
    if ec["family"] not in (LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY):
        raise ConfigError(f"unknown execution cost family {ec['family']!r}")
    execution = _build(ExecutionCost, ec["family"], _number(ec, "scale"))

    numbers = {key: _number(sections[name], key) for name, keys in _NUMBERS.items() for key in keys}
    return _build(ModelParams, **numbers, detection=detection, verification_cost=verification,
                  execution_cost=execution)


def load_params(path) -> ModelParams:
    """Read a parameter file; the NaN and Infinity tokens that json accepts are rejected."""

    def reject(token):
        raise ConfigError(f"non-finite number {token} in {path}")

    with open(path, encoding="utf-8-sig") as fh:  # skips a byte-order mark, as editors write
        try:
            doc = json.load(fh, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_dict(doc)


def params_to_dict(params: ModelParams) -> dict:
    if params.kappa != 1.0:  # kappa is not a config key, and reading the file back gives 1
        raise ValueError(f"kappa is not a config key, so params with kappa {params.kappa} "
                         "cannot be written")
    if params.believed_p_a is not None:  # nor is a belief, and reading the file back gives None
        raise ValueError("believed_p_a is not a config key, so params with believed_p_a "
                         f"{params.believed_p_a} cannot be written")
    det, vc, ec = params.detection, params.verification_cost, params.execution_cost
    doc = {name: {key: getattr(params, key) for key in keys} for name, keys in _NUMBERS.items()}
    doc["functions"] = {"detection": {"family": det.kind, "scale": det.scale},
                        "verification_cost": {"family": vc.kind},
                        "execution_cost": {"family": ec.kind, "scale": ec.scale}}
    if vc.kind == LINEAR:  # linear_quadratic has no parameter
        doc["functions"]["verification_cost"]["k"] = vc.k
    return doc


def parse_range(text: str) -> tuple[float, float, int]:
    """Parse 'start:end:count' with finite, inclusive endpoints, a finite width and count >= 1."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must look like start:end:count, got {text!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(f"range endpoints must be finite, got {text!r}")
    if not math.isfinite(end - start):  # linspace's step would overflow
        raise ConfigError(f"range {text!r} is too wide: end - start must be finite")
    if count < 1:
        raise ConfigError("range count must be >= 1")
    return start, end, count
