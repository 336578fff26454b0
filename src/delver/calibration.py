"""From per-case observational logs to model parameters.

A case log records, per task, whether the worker alone, the AI alone, and
the assisted worker got it right, plus completion times. After cleaning,
the empirical rates and mean times identify the detection probability at
the worker's chosen effort, the effort itself, both ability parameters,
and (through the worker's own first-order condition) the stakes the worker
must be playing for. The calibrated worker can then be classified and
probed with the intervention levers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import ClassVar

from .atlas import QualityReport, evaluate_point
from .interventions import LeverTarget, minimal_lever
from .model import (
    EXPONENTIAL, LINEAR, LINEAR_IN_EFFICIENCY,
    Ability, Detection, ExecutionCost, ModelParams, VerificationCost, coefficients,
)
from .solver import OptimalAction

CASE_COLUMNS = ["case_id", "worker_correct", "ai_correct", "assisted_correct",
                "worker_time", "assisted_time", "output_unchanged"]
_TIME_WINDOW = (0.5, 2.0)  # worker times kept, as multiples of the mean
_DETECTION_SCALE = 1.0
_BENEFIT_SHARE = 0.6  # share of the identified stakes put on the success benefit
_LEVERS = ("alpha", "beta", "p_a")  # the lever targets of a classification


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class CaseRecord:
    case_id: str
    worker_correct: int
    ai_correct: int
    assisted_correct: int
    worker_time: float
    assisted_time: float
    output_unchanged: int


@dataclass(frozen=True)
class CleaningReport:
    n_input: int
    n_time_dropped: int
    n_override_dropped: int
    n_retained: int

    @property
    def override_fraction(self):
        return self.n_override_dropped / self.n_input if self.n_input else 0.0


@dataclass(frozen=True)
class Observables:
    """Empirical aggregates of a cleaned case log. AI execution cost is zero."""

    n: int
    p_w: float
    p_a: float
    p_assisted: float
    c_w: float
    c_wa: float
    pr_unchanged: float
    cost_assisted: float
    decomposition_ok: bool


@dataclass(frozen=True)
class CalibratedWorker:
    """Inverted model quantities for one worker.

    stakes is identified only where the first-order condition applies
    (interior effort, positive reliability), and is None elsewhere.
    Detection is exponential at the fixed detection_scale.
    """

    detection_scale: ClassVar[float] = _DETECTION_SCALE
    phi_at_s_dagger: float
    c_v_at_s_dagger: float
    t_v_max: float
    t_w_max: float
    s_dagger: float
    alpha: float
    beta: float
    observables: Observables
    boundary: bool = False
    stakes: float | None = None


@dataclass(frozen=True)
class InstitutionSpec:
    b_i: float
    l_i: float
    xi: float
    tau: float


@dataclass(frozen=True)
class ClassificationResult:
    worker: CalibratedWorker
    params: ModelParams
    action: OptimalAction
    report: QualityReport
    lever_targets: dict[str, LeverTarget]
    warnings: list[str] = field(default_factory=list)
    min_viable_benefit_share: float = 0.0


def fixture_path() -> Path:
    """Path of the bundled synthetic single-clinician case log."""
    return Path(resources.files("delver").joinpath("data/clinician_cases.csv"))


def _parse_indicator(raw, row_num, col, problems):
    if raw in ("0", "1"):
        return int(raw)
    problems.append(f"row {row_num}: {col} must be 0 or 1, got {raw!r}")
    return 0


def _parse_time(raw, row_num, col, problems):
    try:
        value = float(raw)
    except ValueError:
        problems.append(f"row {row_num}: {col} is not a number: {raw!r}")
        return 1.0
    if value <= 0:
        problems.append(f"row {row_num}: {col} must be positive, got {raw!r}")
        return 1.0
    return value


def read_cases(path) -> list[CaseRecord]:
    """Parse a case CSV; '#' lines are comments. Malformed rows raise, by file line."""
    with open(path, newline="") as fh:
        numbered = [(num, line) for num, line in enumerate(fh, start=1) if not line.startswith("#")]
    reader = csv.reader(line for _, line in numbered)
    names = next(reader, None)
    if names is None or set(names) != set(CASE_COLUMNS):
        raise CalibrationError(f"expected columns {CASE_COLUMNS}, got {names}")
    for name in names:
        if names.count(name) > 1:
            raise CalibrationError(f"column {name!r} appears more than once in the header")
    problems: list[str] = []
    records = []
    start = reader.line_num  # lines read before the next row, which starts on the line after
    for fields in reader:
        row_num, start = numbered[start][0], reader.line_num
        if not fields:  # a blank line
            continue
        if len(fields) != len(names):
            problems.append(f"row {row_num}: expected {len(names)} fields")
            continue
        row = dict(zip(names, fields))
        # the columns in CaseRecord's order, so that problems are listed in it
        records.append(CaseRecord(row["case_id"], *[
            (_parse_time if col.endswith("_time") else _parse_indicator)(row[col], row_num, col, problems)
            for col in CASE_COLUMNS[1:]]))
    if problems:
        raise CalibrationError("malformed rows: " + "; ".join(problems))
    return records


def clean_cases(records: list[CaseRecord]) -> tuple[list[CaseRecord], CleaningReport]:
    """Keep worker times in 0.5-2x the raw mean, then drop overrides: AI right, worker wrong."""
    n_input = len(records)
    if n_input == 0:
        return [], CleaningReport(0, 0, 0, 0)
    mean_time = sum(r.worker_time for r in records) / n_input
    lo, hi = _TIME_WINDOW[0] * mean_time, _TIME_WINDOW[1] * mean_time
    in_window = [r for r in records if lo <= r.worker_time <= hi]
    n_time_dropped = n_input - len(in_window)
    kept = [r for r in in_window if not (r.ai_correct == 1 and r.worker_correct == 0)]
    n_override_dropped = len(in_window) - len(kept)
    return kept, CleaningReport(n_input, n_time_dropped, n_override_dropped, len(kept))


def ingest_and_clean(path):
    return clean_cases(read_cases(path))


def estimate_observables(records: list[CaseRecord]) -> Observables:
    """Empirical rates and mean times; assisted cost nets out the fixed entry time.

    Recorded assisted time includes entering results even when the AI
    output is kept verbatim, so the assisted cost is the mean assisted
    time minus the unchanged-output share of the mean worker time.
    """
    n = len(records)
    if n == 0:
        raise CalibrationError("no records to estimate from")
    p_w = sum(r.worker_correct for r in records) / n
    p_a = sum(r.ai_correct for r in records) / n
    p_assisted = sum(r.assisted_correct for r in records) / n
    c_w = sum(r.worker_time for r in records) / n
    c_wa = sum(r.assisted_time for r in records) / n
    pr_unchanged = sum(r.output_unchanged for r in records) / n
    cost_assisted = c_wa - pr_unchanged * c_w
    return Observables(n=n, p_w=p_w, p_a=p_a, p_assisted=p_assisted,
                       c_w=c_w, c_wa=c_wa, pr_unchanged=pr_unchanged,
                       cost_assisted=cost_assisted,
                       decomposition_ok=cost_assisted >= 0.0)


def infer_ability(obs: Observables, t_v_max: float, t_w_max: float) -> CalibratedWorker:
    """Invert the observables into detection probability, effort, and abilities.

    Uses exponential detection at scale 1 and linear time-denominated costs
    C_v(s) = t_v_max * s and C_w(beta) = t_w_max * (1 - beta), so that
    effort and efficiency land in [0, 1]. A detection probability of one
    (assisted success at its theoretical maximum) is flagged as a boundary
    rather than inverted.
    """
    if obs.p_assisted < obs.p_a:
        raise CalibrationError(
            f"assisted success {obs.p_assisted:.4g} below AI success {obs.p_a:.4g}: "
            "implied detection probability is negative")
    if obs.p_a >= 1.0 or obs.p_w <= 0.0:
        raise CalibrationError("detection probability undefined for p_a=1 or p_w=0")
    phi = (obs.p_assisted - obs.p_a) / ((1.0 - obs.p_a) * obs.p_w)
    if phi > 1.0 + 1e-12:
        raise CalibrationError(f"implied detection probability {phi:.4g} exceeds 1")
    phi = min(phi, 1.0)
    c_v = obs.cost_assisted - (1.0 - obs.p_a) * phi * obs.c_w
    if c_v < 0:
        raise CalibrationError(f"implied verification cost is negative: {c_v:.4g}")
    if t_w_max <= obs.c_w:
        raise CalibrationError("t_w_max must exceed the mean worker time")
    if t_v_max < c_v:
        raise CalibrationError("t_v_max must be at least the implied verification cost")
    if t_v_max <= 0.0:  # c_v = 0 passes the check above, and s_dagger = 0 / 0 is undefined
        raise CalibrationError(f"t_v_max must be positive, got {t_v_max}")
    s_dagger = c_v / t_v_max
    beta = 1.0 - obs.c_w / t_w_max
    boundary = phi == 1.0
    if boundary:
        alpha = math.inf
    elif phi == 0.0 or s_dagger == 0.0:
        alpha = 0.0
    else:
        alpha = -math.log(1.0 - phi) / (_DETECTION_SCALE * s_dagger)
    worker = CalibratedWorker(
        phi_at_s_dagger=phi, c_v_at_s_dagger=c_v, t_v_max=t_v_max, t_w_max=t_w_max,
        s_dagger=s_dagger, alpha=alpha, beta=beta, observables=obs, boundary=boundary)
    if not boundary and alpha > 0.0 and 0.0 < s_dagger < 1.0:
        worker = replace(worker, stakes=infer_stakes(worker))
    return worker


def infer_stakes(worker: CalibratedWorker) -> float:
    """Total stakes b_w + l_w implied by optimality of the observed effort.

    At an interior optimum the marginal detection gain equals the marginal
    verification cost, which pins down the stakes given everything else.
    """
    if worker.boundary or worker.alpha <= 0.0:
        raise CalibrationError("stakes undefined at zero reliability or boundary detection")
    if not 0.0 < worker.s_dagger < 1.0:
        raise CalibrationError("stakes undefined unless the observed effort is interior")
    obs = worker.observables
    a = _DETECTION_SCALE
    marginal = (1.0 - obs.p_a) * a * worker.alpha * math.exp(-a * worker.alpha * worker.s_dagger)
    return (worker.t_v_max + marginal * obs.c_w) / (marginal * obs.p_w)


def assemble_params(worker: CalibratedWorker, institution: InstitutionSpec) -> ModelParams:
    """Model parameters for a calibrated worker under a given institution.

    Only the stakes total is identified; it is split 0.6 to the success
    benefit and the rest to the failure loss. The optimal action depends on
    the total alone, so the split only moves the worker's baseline utility
    level.
    """
    if worker.stakes is None:
        raise CalibrationError("stakes not identified; cannot assemble parameters")
    obs = worker.observables
    return ModelParams(
        b_w=_BENEFIT_SHARE * worker.stakes, l_w=(1.0 - _BENEFIT_SHARE) * worker.stakes,
        b_i=institution.b_i, l_i=institution.l_i, xi=institution.xi, tau=institution.tau,
        p_a=obs.p_a, c_a=0.0, p_w=obs.p_w,
        detection=Detection(EXPONENTIAL, _DETECTION_SCALE),
        verification_cost=VerificationCost(LINEAR, worker.t_v_max),
        execution_cost=ExecutionCost(LINEAR_IN_EFFICIENCY, worker.t_w_max),
    )


def classify_calibrated(worker: CalibratedWorker,
                        institution: InstitutionSpec) -> ClassificationResult:
    """Regime and quality of a calibrated worker, plus minimal lever targets.

    Warnings record violated regularity conditions instead of aborting.
    The viable-share bound reports how much of the stakes must sit on the
    benefit side for the pre-AI worker utility to stay non-negative.
    """
    params = assemble_params(worker, institution)
    ability = Ability(worker.alpha, worker.beta)
    warnings = []
    if not params.dominance_holds():
        warnings.append("institutional dominance violated for this parameterization")
    coef = coefficients(params, ability, 0.0)
    if coef.g_w < 0:
        warnings.append(f"pre-AI worker utility is negative at this split: g_w={coef.g_w:.6g}")
    obs = worker.observables
    min_share = 1.0 - obs.p_w + obs.c_w / worker.stakes
    action, report = evaluate_point(params, ability)
    targets = {lever: minimal_lever(params, ability, lever) for lever in _LEVERS}
    return ClassificationResult(worker=worker, params=params, action=action, report=report,
                                lever_targets=targets, warnings=warnings,
                                min_viable_benefit_share=min_share)


def calibrate_file(path, t_v_max: float, t_w_max: float,
                   institution: InstitutionSpec | None = None):
    """Full chain from a case CSV to a classified worker.

    Returns (worker, cleaning_report, classification), with classification
    None when no institution is given. The stakes are split 0.6 to the
    success benefit.
    """
    records, report = ingest_and_clean(path)
    obs = estimate_observables(records)
    worker = infer_ability(obs, t_v_max, t_w_max)
    classification = None
    if institution is not None:
        classification = classify_calibrated(worker, institution)
    return worker, report, classification
