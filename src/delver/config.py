"""Parameter files: a strict JSON schema mapped onto ModelParams.

Unknown keys are rejected everywhere so that typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

from .model import Detection, ExecutionCost, ModelParams, VerificationCost


class ConfigError(ValueError):
    pass


# Each section of numbers in a config file and its ModelParams fields; "functions" is apart.
_NUMBERS = {
    "task_profile": ("b_w", "l_w", "b_i", "l_i", "xi", "tau"),
    "ai": ("p_a", "c_a"),
    "worker": ("p_w",),
}

# Each function section, a ModelParams field: its class, and each family's number keys
_FUNCTIONS = {
    "detection": (Detection, {"exponential": ("scale",), "inverse_linear": ("scale",)}),
    "verification_cost": (VerificationCost, {"linear": ("k",), "linear_quadratic": ()}),
    "execution_cost": (ExecutionCost, {"linear_in_efficiency": ("scale",),
                                       "inverse_efficiency": ("scale",)}),
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
    functions = _section(doc, "functions", set(_FUNCTIONS))
    built = {}
    for name, (cls, families) in _FUNCTIONS.items():
        function = functions[name]
        if not isinstance(function, dict):
            raise ConfigError(f"section {name!r} must be an object")
        if "family" not in function:
            raise ConfigError(f"missing keys in {name!r}: ['family']")
        family = function["family"]
        if not isinstance(family, str) or family not in families:  # a list is unhashable
            raise ConfigError(f"unknown {name.replace('_', ' ')} family {family!r}")
        _section(functions, name, {"family", *families[family]})
        built[name] = _build(cls, family, **{key: _number(function, key) for key in families[family]})

    numbers = {key: _number(sections[name], key) for name, keys in _NUMBERS.items() for key in keys}
    return _build(ModelParams, **numbers, **built)


def load_params(path) -> ModelParams:
    """Read a parameter file; json's NaN and Infinity tokens and a key given twice are rejected."""

    def reject(token):
        raise ConfigError(f"non-finite number {token} in {path}")

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"key {key!r} appears more than once in {path}")
            doc[key] = value
        return doc

    with open(path, "rb") as fh:  # one decode, then a byte-order mark (as editors write) is
        try:  # dropped, so that a decode error's position is the byte's offset in the file
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
            doc = json.loads(text, parse_constant=reject, object_pairs_hook=unique)
        # RecursionError: deep nesting; UnicodeDecodeError: a byte that is not UTF-8
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_dict(doc)


def params_to_dict(params: ModelParams) -> dict:
    keyed = {key for keys in _NUMBERS.values() for key in keys} | set(_FUNCTIONS)
    for field in fields(ModelParams):  # reading the file back gives a keyless field its default
        if field.name not in keyed and (value := getattr(params, field.name)) != field.default:
            raise ValueError(f"{field.name} is not a config key, so params with {field.name} "
                             f"{value} cannot be written")
    doc = {name: {key: getattr(params, key) for key in keys} for name, keys in _NUMBERS.items()}
    doc["functions"] = {}
    for name, (_, families) in _FUNCTIONS.items():
        function = getattr(params, name)
        doc["functions"][name] = {"family": function.kind,
                                  **{key: getattr(function, key) for key in families[function.kind]}}
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
