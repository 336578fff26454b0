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

DEFAULT_ALPHA_CAP = 10.0
DEFAULT_BETA_CAP = 10.0  # for unbounded efficiency domains


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
    """Upskilling costs for the two abilities; None disables that direction."""

    h_alpha: CostTerm | None = CostTerm()
    h_beta: CostTerm | None = CostTerm()


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


def _q_at(params: ModelParams, ability: Ability, tau: float) -> float:
    return quality(params, ability, tau).q


def _first_feasible_radius(predicate, r_max: float, scan_points: int, tol: float):
    """Smallest r in (0, r_max] with predicate(r), scanning then bisecting.

    The scan tolerates quality that is flat or dips along the ray (regime
    flips); bisection runs on the predicate inside the first bracket where
    it switches on.
    """
    lo = 0.0
    found = None
    for i in range(1, scan_points + 1):
        r = r_max * i / scan_points
        if predicate(r):
            found = r
            break
        lo = r
    if found is None:
        return None
    return bisect(predicate, lo, found, tol)[1]


def _beta_cap(params: ModelParams) -> float:
    hi = params.execution_cost.beta_domain()[1]
    return DEFAULT_BETA_CAP if math.isinf(hi) else hi


def worker_upskill(params: ModelParams, ability: Ability, cost_model: CostModel,
                   tau: float | None = None, alpha_cap: float = DEFAULT_ALPHA_CAP,
                   beta_cap: float | None = None, fan_degrees: int = 1,
                   scan_points: int = 200, tol: float = 1e-6) -> UpskillPlan:
    """Cheapest ability increment (d_alpha, d_beta) that lifts quality to tau.

    Scans the constraint frontier along a fan of directions (every
    fan_degrees from the alpha axis to the beta axis, axes included), finds
    the minimal feasible radius per direction, and keeps the cost-minimal
    candidate. Directions whose cost term is disabled are skipped.

    All directions are searched together on the array path. The scan
    radii r_max * i / scan_points of the directions not yet found are
    solved in blocks of 1, 2, 4, ... scan points, and the found directions
    are bisected together; each direction takes the radii, and so gives the
    result, of a scan and bisection of its own.
    """
    if fan_degrees < 1:
        raise ValueError(f"fan_degrees must be >= 1, got {fan_degrees}")
    if scan_points < 1:
        raise ValueError(f"scan_points must be >= 1, got {scan_points}")
    if tau is None:
        tau = params.tau
    qtol = 1e-9 * (1.0 + abs(tau))
    if beta_cap is None:
        beta_cap = _beta_cap(params)
    q_now = _q_at(params, ability, tau)
    if q_now >= tau - qtol:
        return UpskillPlan(0.0, 0.0, 0.0, q_now, True)

    if cost_model.h_alpha is None and cost_model.h_beta is None:
        raise ValueError("at least one cost term must be enabled")
    if cost_model.h_alpha is None:
        angles = [90]
    elif cost_model.h_beta is None:
        angles = [0]
    else:
        angles = list(range(0, 91, fan_degrees))
        if angles[-1] != 90:
            angles.append(90)
    rays = []  # (ua, ub, r_max) of the directions with room to move, in angle order
    for angle in angles:
        theta = math.radians(angle)
        ua, ub = math.cos(theta), math.sin(theta)
        if angle == 0:
            ua, ub = 1.0, 0.0
        if angle == 90:
            ua, ub = 0.0, 1.0
        limits = []
        if ua > 0:
            limits.append((alpha_cap - ability.alpha) / ua)
        if ub > 0:
            limits.append((beta_cap - ability.beta) / ub)
        r_max = min(limits)
        if r_max > 0:
            rays.append((ua, ub, r_max))
    ua, ub, r_max = np.array(rays, dtype=float).reshape(-1, 3).T

    def feasible(ray, r):
        # np.minimum guards a few ulps of overshoot when r reaches the cap
        trial = solve_points(params, np.minimum(alpha_cap, ability.alpha + r * ua[ray]),
                             np.minimum(beta_cap, ability.beta + r * ub[ray]), tau)
        return trial.q >= tau - qtol

    # first feasible scan index per ray (0 while none is found), by doubling blocks
    first = np.zeros(len(r_max), dtype=np.int64)
    unfound = np.arange(len(r_max))
    start, width = 1, 1
    while len(unfound) and start <= scan_points:
        i = np.arange(start, min(start + width, scan_points + 1))
        ok = feasible(np.repeat(unfound, len(i)),
                      (r_max[unfound, None] * i / scan_points).reshape(-1))
        ok = ok.reshape(len(unfound), len(i))
        hit = ok.any(axis=1)
        first[unfound[hit]] = i[np.argmax(ok[hit], axis=1)]
        unfound = unfound[~hit]
        start, width = start + len(i), 2 * width

    found = np.flatnonzero(first)
    lo = r_max[found] * (first[found] - 1) / scan_points
    hi = r_max[found] * first[found] / scan_points
    radii = bisect_array(lambda k, mid: feasible(found[k], mid), lo, hi, tol)[1]

    best = None
    for ray, r in zip(found.tolist(), radii.tolist()):
        d_alpha, d_beta = r * float(ua[ray]), r * float(ub[ray])
        cost = 0.0
        if cost_model.h_alpha is not None:
            cost += cost_model.h_alpha(d_alpha)
        if cost_model.h_beta is not None:
            cost += cost_model.h_beta(d_beta)
        if best is None or cost < best[0]:
            best = (cost, d_alpha, d_beta)

    if best is None:
        return UpskillPlan(0.0, 0.0, math.inf, q_now, False)
    cost, d_alpha, d_beta = best
    achieved = _q_at(params, Ability(ability.alpha + d_alpha, ability.beta + d_beta), tau)
    return UpskillPlan(d_alpha, d_beta, cost, achieved, True)


def ai_upgrade_gain(params: ModelParams, ability: Ability, d_p: float) -> LeverResult:
    """Quality change from raising AI success probability by d_p."""
    if not 0.0 <= d_p <= 1.0 - params.p_a:
        raise ValueError("d_p must lie in [0, 1 - p_a]")
    base = quality(params, ability).q
    new_q = quality(params.with_ai_success(params.p_a + d_p), ability).q
    return LeverResult("ai_capability", d_p, new_q - base, new_q)


def incentive_transfer_gain(params: ModelParams, ability: Ability, d_b: float) -> LeverResult:
    """Quality change from transferring d_b of success benefit to the worker.

    The worker re-solves with b_w + d_b while the institution is evaluated
    with b_i - d_b.
    """
    base = quality(params, ability).q
    new_q = quality(params.with_benefit_transfer(d_b), ability).q
    return LeverResult("incentive_transfer", d_b, new_q - base, new_q)


def minimal_lever(params: ModelParams, ability: Ability, lever: str,
                  tau: float | None = None, cap: float | None = None,
                  scan_points: int = 400, tol: float = 1e-9) -> LeverTarget:
    """Smallest value of one lever (alpha, beta, or p_a) with quality >= tau."""
    if scan_points < 1:
        raise ValueError(f"scan_points must be >= 1, got {scan_points}")
    if tau is None:
        tau = params.tau
    qtol = 1e-9 * (1.0 + abs(tau))
    if lever == "alpha":
        current, hi = ability.alpha, cap if cap is not None else DEFAULT_ALPHA_CAP

        def q_at(x):
            return _q_at(params, Ability(x, ability.beta), tau)
    elif lever == "beta":
        current = ability.beta
        hi = cap if cap is not None else _beta_cap(params)

        def q_at(x):
            return _q_at(params, Ability(ability.alpha, x), tau)
    elif lever == "p_a":
        current, hi = params.p_a, cap if cap is not None else 1.0

        def q_at(x):
            return _q_at(params.with_ai_success(x), ability, tau)
    else:
        raise ValueError(f"unknown lever {lever!r}; expected alpha, beta, or p_a")

    if q_at(current) >= tau - qtol:
        return LeverTarget(lever, current, True)
    span = hi - current
    if span <= 0:
        return LeverTarget(lever, current, False)
    r = _first_feasible_radius(lambda r: q_at(min(hi, current + r)) >= tau - qtol,
                               span, scan_points, tol)
    if r is None:
        return LeverTarget(lever, hi, False)
    return LeverTarget(lever, min(hi, current + r), True)
