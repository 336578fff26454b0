"""delver: delegation and verification decisions in AI-assisted work.

A worker can do a task manually, hand it to an AI, or hand it over and
check the result. This library computes the worker's rational choice,
maps how institutional quality responds across ability space, solves
worker- and institution-side interventions, and calibrates the model
from per-case observational logs.
"""

from .atlas import (
    AtlasGrid, AtlasRow, ComplianceLabel, QualityLabel, QualityReport, RootResult,
    boundary_curve, evaluate_point, psi, psi0, psi1, psi_prime, psi_tau, quality,
    separatrix_intersection, solve_points, sweep_grid, write_atlas_csv,
)
from .calibration import (
    CalibratedWorker, CalibrationError, CaseRecord, ClassificationResult,
    CleaningReport, InstitutionSpec, Observables,
    calibrate_file, classify_calibrated, clean_cases, estimate_observables,
    fixture_path, infer_ability, infer_stakes, ingest_and_clean, read_cases,
)
from .config import ConfigError, load_params, params_from_dict, params_to_dict
from .extensions import DifficultyProfile, Rework, expected_quality, rework_quality
from .interventions import (
    CostModel, CostTerm, LeverResult, LeverTarget, UpskillPlan,
    ai_upgrade_gain, incentive_transfer_gain, minimal_lever, worker_upskill,
)
from .model import (
    Ability, Action, AssumptionReport, Coefficients, Detection, ExecutionCost,
    ModelParams, VerificationCost, check_assumptions, coefficients,
    delegation_gain, detection_probability, institutional_utility,
    reference_params, task_success, total_cost, verification_surplus,
    worker_utility,
)
from .solver import (
    OptimalAction, Regime, ThresholdResult, brute_force_action,
    manual_delegation_threshold, optimal_action, optimal_verification,
    qualification_threshold,
)

__version__ = "0.1.0"
