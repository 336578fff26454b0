"""Interventions that move a worker's quality above a qualification threshold.

Worker-side upskilling is a minimum-cost search over ability increments
subject to reaching tau; institution-side levers raise AI capability or
transfer benefit to the worker. Quality responds to each lever through the
worker's re-solved optimal action, so it can jump at regime flips; the
searches below therefore scan for the first feasible point before
bisecting, rather than assuming global monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atlas import quality, solve_points
from .model import Ability, ModelParams
from .solver import bisect, bisect_array

_ALPHA_CAP = 10.0
_BETA_CAP = 10.0  # for unbounded efficiency domains
_UPSKILL_TOL = 1e-6  # radius tolerance of worker_upskill's bisections
_LEVER_TOL = 1e-9  # lever tolerance of minimal_lever's bisection
_UPSKILL_SCAN = 200  # scan radii per direction of worker_upskill's fan
_LEVER_SCAN = 400  # scan points of minimal_lever


@dataclass(frozen=True)
class CostTerm:
    """Cost of one ability increment: coefficient * x, or coefficient * x**exponent."""

    kind: str = "linear"
    coefficient: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "power"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if not 0.0 <= self.coefficient < math.inf:
            raise ValueError(f"cost coefficient must be finite and >= 0, got {self.coefficient}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"cost exponent must be finite, got {self.exponent}")
        if self.kind == "power" and not self.exponent > 1.0:
            raise ValueError("power cost needs exponent > 1")

    def __call__(self, x: float) -> float:
        if self.kind == "linear":
            return self.coefficient * x
        return self.coefficient * x ** self.exponent


@dataclass(frozen=True)
class CostModel:
    """Upskilling costs for the two abilities; None disables that direction, not both."""

    h_alpha: CostTerm | None = CostTerm()
    h_beta: CostTerm | None = CostTerm()

    def __post_init__(self):
        if self.h_alpha is None and self.h_beta is None:
            raise ValueError("at least one cost term must be enabled")


@dataclass(frozen=True)
class UpskillPlan:
    d_alpha: float
    d_beta: float
    cost: float
    achieved_q: float
    feasible: bool


@dataclass(frozen=True)
class LeverResult:
    """Effect of an institution-side lever of a given size."""

    lever: str
    delta: float
    gain: float
    new_q: float


@dataclass(frozen=True)
class LeverTarget:
    """Smallest lever value reaching tau, or the cap when infeasible."""

    lever: str
    value: float
    feasible: bool


def _first_feasible_radius(predicate, r_max: float):
    """Smallest r in (0, r_max] with predicate(r), scanning then bisecting to 1e-9.

    The scan tolerates quality that is flat or dips along the ray (regime
    flips); bisection runs on the predicate inside the first bracket where
    it switches on.
    """
    lo = 0.0
    for i in range(1, _LEVER_SCAN + 1):
        r = r_max * i / _LEVER_SCAN
        if predicate(r):
            return bisect(predicate, lo, r, _LEVER_TOL)[1]
        lo = r
    return None


def _beta_cap(params: ModelParams) -> float:
    hi = params.execution_cost.beta_domain()[1]
    return _BETA_CAP if math.isinf(hi) else hi


def worker_upskill(params: ModelParams, ability: Ability, cost_model: CostModel) -> UpskillPlan:
    """Cheapest ability increment (d_alpha, d_beta) that lifts quality to params.tau.

    Scans the constraint frontier along a fan of directions (every whole
    degree from the alpha axis to the beta axis, axes included), finds the
    minimal feasible radius per direction, and keeps the cost-minimal
    candidate. Directions whose cost term is disabled are skipped. Alpha
    is capped at 10, and beta at the top of its domain, or 10 if that is
    unbounded; radii are found to 1e-6.

    All directions are searched together on the array path. The 200 scan
    radii r_max * i / 200 of the directions not yet found are solved in
    blocks of 1, 2, 4, ... scan points, and the found directions are
    bisected together; each direction takes the radii, and so gives the
    result, of a scan and bisection of its own.
    """
    tau = params.tau
    qtol = 1e-9 * (1.0 + abs(tau))
    beta_cap = _beta_cap(params)
    q_now = quality(params, ability).q
    if q_now >= tau - qtol:
        return UpskillPlan(0.0, 0.0, 0.0, q_now, True)

    if cost_model.h_alpha is None:
        angles = [90]
    elif cost_model.h_beta is None:
        angles = [0]
    else:
        angles = range(91)
    rays = []  # (ua, ub, r_max) of the directions with room to move, in angle order
    for angle in angles:
        theta = math.radians(angle)
        ua, ub = math.cos(theta), math.sin(theta)
        if angle == 90:  # cos(pi / 2) is 6e-17, not 0
            ua, ub = 0.0, 1.0
        limits = []
        if ua > 0:
            limits.append((_ALPHA_CAP - ability.alpha) / ua)
        if ub > 0:
            limits.append((beta_cap - ability.beta) / ub)
        r_max = min(limits)
        if r_max > 0:
            rays.append((ua, ub, r_max))
    ua, ub, r_max = np.array(rays, dtype=float).reshape(-1, 3).T

    def feasible(ray, r):
        # np.minimum guards a few ulps of overshoot when r reaches the cap
        trial = solve_points(params, np.minimum(_ALPHA_CAP, ability.alpha + r * ua[ray]),
                             np.minimum(beta_cap, ability.beta + r * ub[ray]))
        return trial.q >= tau - qtol

    # first feasible scan index per ray (0 while none is found), by doubling blocks
    first = np.zeros(len(r_max), dtype=np.int64)
    unfound = np.arange(len(r_max))
    start, width = 1, 1
    while len(unfound) and start <= _UPSKILL_SCAN:
        i = np.arange(start, min(start + width, _UPSKILL_SCAN + 1))
        ok = feasible(np.repeat(unfound, len(i)),
                      (r_max[unfound, None] * i / _UPSKILL_SCAN).reshape(-1))
        ok = ok.reshape(len(unfound), len(i))
        hit = ok.any(axis=1)
        first[unfound[hit]] = i[np.argmax(ok[hit], axis=1)]
        unfound = unfound[~hit]
        start, width = start + len(i), 2 * width

    found = np.flatnonzero(first)
    if not len(found):
        return UpskillPlan(0.0, 0.0, math.inf, q_now, False)
    lo = r_max[found] * (first[found] - 1) / _UPSKILL_SCAN
    hi = r_max[found] * first[found] / _UPSKILL_SCAN
    radii = bisect_array(lambda k, mid: feasible(found[k], mid), lo, hi, _UPSKILL_TOL)[1]

    steps = []  # (cost, d_alpha, d_beta) per found direction, in angle order
    for ray, r in zip(found.tolist(), radii.tolist()):
        d_alpha, d_beta = r * float(ua[ray]), r * float(ub[ray])
        cost = 0.0
        if cost_model.h_alpha is not None:
            cost += cost_model.h_alpha(d_alpha)
        if cost_model.h_beta is not None:
            cost += cost_model.h_beta(d_beta)
        steps.append((cost, d_alpha, d_beta))
    cost, d_alpha, d_beta = min(steps, key=lambda step: step[0])  # the first of equal costs
    achieved = quality(params, Ability(ability.alpha + d_alpha, ability.beta + d_beta)).q
    return UpskillPlan(d_alpha, d_beta, cost, achieved, True)


# LeverResult.lever -> the parameters after that lever moves by delta
LEVER_MOVES = {"ai_capability": lambda params, delta: params.with_ai_success(params.p_a + delta),
               "incentive_transfer": lambda params, delta: params.with_benefit_transfer(delta)}


def _lever_gain(params: ModelParams, ability: Ability, lever: str, delta: float):
    """Quality change when the lever moves by delta; base quality comes first."""
    base = quality(params, ability).q
    new_q = quality(LEVER_MOVES[lever](params, delta), ability).q
    return LeverResult(lever, delta, new_q - base, new_q)


def ai_upgrade_gain(params: ModelParams, ability: Ability, d_p: float) -> LeverResult:
    """Quality change from raising AI success probability by d_p."""
    if not 0.0 <= d_p <= 1.0 - params.p_a:
        raise ValueError("d_p must lie in [0, 1 - p_a]")
    return _lever_gain(params, ability, "ai_capability", d_p)


def incentive_transfer_gain(params: ModelParams, ability: Ability, d_b: float) -> LeverResult:
    """Quality change from transferring d_b of success benefit to the worker.

    The worker re-solves with b_w + d_b while the institution is evaluated
    with b_i - d_b.
    """
    return _lever_gain(params, ability, "incentive_transfer", d_b)


def minimal_lever(params: ModelParams, ability: Ability, lever: str) -> LeverTarget:
    """Smallest value of one lever (alpha, beta, or p_a) with quality >= params.tau.

    The search scans 400 points up to the lever's cap: 10 for alpha, the
    top of the efficiency domain (or 10 if unbounded) for beta, and 1 for
    p_a. The value is found to 1e-9.
    """
    tau = params.tau
    qtol = 1e-9 * (1.0 + abs(tau))
    levers = {"alpha": (ability.alpha, _ALPHA_CAP), "beta": (ability.beta, _beta_cap(params)),
              "p_a": (params.p_a, 1.0)}  # lever: (current value, cap)
    if lever not in levers:
        raise ValueError(f"unknown lever {lever!r}; expected alpha, beta, or p_a")
    current, hi = levers[lever]

    def reaches(x):
        if lever == "p_a":
            return quality(params.with_ai_success(x), ability).q >= tau - qtol
        moved = Ability(x, ability.beta) if lever == "alpha" else Ability(ability.alpha, x)
        return quality(params, moved).q >= tau - qtol

    if reaches(current):
        return LeverTarget(lever, current, True)
    span = hi - current
    if span <= 0:
        return LeverTarget(lever, current, False)
    r = _first_feasible_radius(lambda r: reaches(min(hi, current + r)), span)
    if r is None:
        return LeverTarget(lever, hi, False)
    return LeverTarget(lever, min(hi, current + r), True)
