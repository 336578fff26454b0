"""delver: delegation and verification decisions in AI-assisted work.

A worker can do a task manually, hand it to an AI, or hand it over and
check the result. This library computes the worker's rational choice,
maps how institutional quality responds across ability space, solves
worker- and institution-side interventions, and calibrates the model
from per-case observational logs.

The names of calibration, extensions and interventions load with their
module on first access (PEP 562), so that `import delver.cli` does not
compile modules that most commands never call.
"""

from .atlas import (
    AtlasGrid, AtlasRow, ComplianceLabel, QualityLabel, QualityReport, RootResult,
    boundary_curve, evaluate_point, psi, psi0, psi1, psi_prime, psi_tau, quality,
    separatrix_intersection, solve_points, sweep_grid, write_atlas_csv,
)
from .config import ConfigError, load_params, params_from_dict, params_to_dict
from .model import (
    Ability, Action, AssumptionReport, Coefficients, Detection, ExecutionCost, ModelParams,
    VerificationCost, check_assumptions, coefficients, delegation_gain, detection_probability,
    institutional_utility, reference_params, task_success, total_cost,
    verification_surplus, worker_utility,
)
from .solver import (
    OptimalAction, Regime, ThresholdResult, brute_force_action,
    manual_delegation_threshold, optimal_action, optimal_verification, qualification_threshold,
)

_LAZY = {
    "calibration": (
        "CalibratedWorker", "CalibrationError", "CaseRecord", "ClassificationResult",
        "CleaningReport", "InstitutionSpec", "Observables",
        "calibrate_file", "classify_calibrated", "clean_cases", "estimate_observables",
        "fixture_path", "infer_ability", "ingest_and_clean", "read_cases",
    ),
    "extensions": ("difficulty_params", "expected_quality"),
    "interventions": (
        "CostModel", "CostTerm", "LeverResult", "LeverTarget", "UpskillPlan",
        "ai_upgrade_gain", "incentive_transfer_gain", "minimal_lever", "worker_upskill",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

# the names above, the eager ones and the submodules, as `import *` gave them
# when every module loaded with the package
__all__ = sorted({name for name in globals() if not name.startswith("_")} | {*_SOURCE, *_LAZY})

__version__ = "0.1.0"


def __getattr__(name):
    """A lazy name, or one of its modules, imported on first access and then bound here."""
    module = _SOURCE.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds the submodule here as it loads
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
