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
import io
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import ClassVar

from .atlas import QualityReport, evaluate_point
from .interventions import LeverTarget, minimal_lever
from .model import (
    EXPONENTIAL, LINEAR, LINEAR_IN_EFFICIENCY,
    Ability, Detection, ExecutionCost, ModelParams, VerificationCost, check_assumptions,
)
from .solver import OptimalAction

CASE_COLUMNS = ["case_id", "worker_correct", "ai_correct", "assisted_correct",
                "worker_time", "assisted_time", "output_unchanged"]
_TIME_WINDOW = (0.5, 2.0)  # worker times kept, as multiples of the mean
_DETECTION_SCALE = 1.0
_C_V_ROUNDING = 2.0 ** -49  # 8 eps of the terms c_v is the difference of: its rounding allowance
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
    warnings: list[str]
    min_viable_benefit_share: float


def fixture_path() -> Path:
    """Path of the bundled synthetic single-clinician case log."""
    return Path(resources.files("delver").joinpath("data/clinician_cases.csv"))


def _parse_field(col, raw):
    """The value of a column's field, or the text of its problem."""
    if not col.endswith("_time"):
        return int(raw) if raw in ("0", "1") else f"{col} must be 0 or 1, got {raw!r}"
    try:
        value = float(raw)
    except ValueError:
        return f"{col} is not a number: {raw!r}"
    if not 0.0 < value < math.inf:  # nan, inf and 1e400 too
        return f"{col} must be finite and positive, got {raw!r}"
    return value


def read_cases(path) -> list[CaseRecord]:
    """Parse a case CSV, one row per line; '#' lines are comments. Malformed rows raise, by line."""
    with open(path, "rb") as fh:  # one decode, then a byte-order mark is dropped, so that
        try:  # a decode error's position is the byte's offset in the file
            text = fh.read().decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise CalibrationError(f"cannot decode {path}: {exc}") from None

    def parsed():  # (line number, fields) of each line that is not a comment, one at a time
        for num, line in enumerate(io.StringIO(text, newline=""), start=1):  # splits as a file does
            if not line.startswith("#"):
                try:
                    yield num, next(csv.reader([line]))
                except csv.Error as exc:  # as a field over csv's size limit
                    raise CalibrationError(f"line {num}: {exc}") from None

    rows = parsed()
    _, names = next(rows, (None, None))
    if names is None or set(names) != set(CASE_COLUMNS):
        raise CalibrationError(f"expected columns {CASE_COLUMNS}, got {names}")
    for name in names:
        if names.count(name) > 1:
            raise CalibrationError(f"column {name!r} appears more than once in the header")
    problems, records = [], []
    for num, fields in rows:
        if not fields:  # a blank line
            continue
        if len(fields) != len(names):
            problems.append(f"row {num}: expected {len(names)} fields")
            continue
        row = dict(zip(names, fields))
        # the columns in CaseRecord's order, so that problems are listed in it
        values = [_parse_field(col, row[col]) for col in CASE_COLUMNS[1:]]
        problems += [f"row {num}: {value}" for value in values if isinstance(value, str)]
        records.append(CaseRecord(row["case_id"], *values))
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
                       cost_assisted=cost_assisted)


def infer_ability(obs: Observables, t_v_max: float, t_w_max: float) -> CalibratedWorker:
    """Invert the observables into detection probability, effort, abilities and stakes.

    Uses exponential detection at scale 1 and linear time-denominated costs
    C_v(s) = t_v_max * s and C_w(beta) = t_w_max * (1 - beta), so that
    effort and efficiency land in [0, 1]. A detection probability of one
    (assisted success at its theoretical maximum) is flagged as a boundary
    rather than inverted. Non-finite time budgets are rejected first. An
    implied verification cost within its rounding of t_v_max is full effort.
    At an interior effort the marginal detection gain equals the marginal
    verification cost, which pins down the stakes b_w + l_w.
    """
    for name, value in (("t_v_max", t_v_max), ("t_w_max", t_w_max)):
        if not math.isfinite(value):
            raise CalibrationError(f"{name} must be finite, got {value}")
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
    slack = _C_V_ROUNDING * (obs.cost_assisted + (1.0 - obs.p_a) * phi * obs.c_w)
    if t_v_max < c_v - slack:
        raise CalibrationError("t_v_max must be at least the implied verification cost")
    if t_v_max <= 0.0:  # c_v = 0 passes the check above, and s_dagger = 0 / 0 is undefined
        raise CalibrationError(f"t_v_max must be positive, got {t_v_max}")
    s_dagger = c_v / t_v_max if c_v < t_v_max - slack else 1.0
    beta = 1.0 - obs.c_w / t_w_max
    boundary = phi == 1.0
    if boundary:
        alpha = math.inf
    elif phi == 0.0 or s_dagger == 0.0:
        alpha = 0.0
    else:
        alpha = -math.log(1.0 - phi) / (_DETECTION_SCALE * s_dagger)
    stakes = None
    if not boundary and alpha > 0.0 and s_dagger < 1.0:
        a = _DETECTION_SCALE
        marginal = (1.0 - obs.p_a) * a * alpha * math.exp(-a * alpha * s_dagger)
        stakes = (t_v_max + marginal * obs.c_w) / (marginal * obs.p_w)
    return CalibratedWorker(
        phi_at_s_dagger=phi, c_v_at_s_dagger=c_v, t_v_max=t_v_max, t_w_max=t_w_max,
        s_dagger=s_dagger, alpha=alpha, beta=beta, observables=obs, boundary=boundary,
        stakes=stakes)


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

    Warnings are check_assumptions' violations at the worker's point, never raised.
    The viable-share bound reports how much of the stakes must sit on the
    benefit side for the pre-AI worker utility to stay non-negative.
    """
    params = assemble_params(worker, institution)
    ability = Ability(worker.alpha, worker.beta)
    warnings = check_assumptions(params, [ability]).violations
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
