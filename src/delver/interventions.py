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
from dataclasses import dataclass, replace

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
    """Cost of one ability increment x: coefficient * x**exponent, with exponent >= 1."""

    coefficient: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.coefficient < math.inf:
            raise ValueError(f"cost coefficient must be finite and >= 0, got {self.coefficient}")
        if not 1.0 <= self.exponent < math.inf:
            raise ValueError(f"cost exponent must be finite and >= 1, got {self.exponent}")

    def __call__(self, x: float) -> float:
        try:
            return self.coefficient * x ** self.exponent
        except OverflowError:  # float ** raises where float * gives inf; 0 * inf would be nan
            return math.inf if self.coefficient else 0.0


@dataclass(frozen=True)
class CostModel:
    """Upskilling costs for the two abilities; None disables that direction, not both."""

    h_alpha: CostTerm | None = CostTerm()
    h_beta: CostTerm | None = CostTerm()

    def __post_init__(self):
        for name in ("h_alpha", "h_beta"):
            term = getattr(self, name)
            if term is not None and not isinstance(term, CostTerm):
                raise ValueError(f"{name} must be a CostTerm or None, got {term!r}")
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
    """Smallest lever value reaching tau; when infeasible, the cap, or the current value past it."""

    lever: str
    value: float
    feasible: bool


def _beta_cap(params: ModelParams) -> float:
    hi = params.execution_cost.beta_domain()[1]
    return _BETA_CAP if math.isinf(hi) else hi


def worker_upskill(params: ModelParams, ability: Ability, cost_model: CostModel) -> UpskillPlan:
    """Cheapest ability increment (d_alpha, d_beta) at which quality reaches params.tau.

    Scans the constraint frontier along a fan of directions (every whole
    degree from the alpha axis to the beta axis, axes included), finds the
    minimal feasible radius per direction, and keeps the cost-minimal
    candidate. Directions whose cost term is disabled are skipped. Alpha
    is capped at 10, and beta at the top of its domain, or 10 if that is
    unbounded; an ability already past its cap does not move along it (nor
    back to the cap). Radii are found to 1e-6.

    All directions are searched together on the array path. The 200 scan
    radii r_max * i / 200 of the directions not yet found are solved in
    blocks of 1, 2, 4, ... scan points, and the found directions are
    bisected together; each direction takes the radii, and so gives the
    result, of a scan and bisection of its own.
    """
    beta_cap = _beta_cap(params)
    q_now = quality(params, ability).q
    if q_now >= params.tau:
        return UpskillPlan(0.0, 0.0, 0.0, q_now, True)

    angles = np.arange(0 if cost_model.h_alpha is not None else 90,
                       91 if cost_model.h_beta is not None else 1)
    units = np.column_stack((np.cos(np.radians(angles)), np.sin(np.radians(angles))))
    units[angles == 90] = (0.0, 1.0)  # cos(pi / 2) is 6e-17, not 0
    room = np.maximum((_ALPHA_CAP - ability.alpha, beta_cap - ability.beta), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_max = np.where(units > 0, room / units, np.inf).min(axis=1)
    (ua, ub), r_max = units[r_max > 0].T, r_max[r_max > 0]  # the directions with room

    def increments(ray, r):
        # (d_alpha, d_beta) at radius r along the ray; np.minimum guards a few ulps
        # of overshoot when r reaches a cap, so the ability plus them stays inside it
        return np.minimum(r * ua[ray], room[0]), np.minimum(r * ub[ray], room[1])

    def feasible(ray, r):
        d_alpha, d_beta = increments(ray, r)
        return solve_points(params, ability.alpha + d_alpha, ability.beta + d_beta).q >= params.tau

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
    for d_alpha, d_beta in np.column_stack(increments(found, radii)).tolist():
        terms = ((cost_model.h_alpha, d_alpha), (cost_model.h_beta, d_beta))
        steps.append((sum(h(d) for h, d in terms if h is not None), d_alpha, d_beta))
    cost, d_alpha, d_beta = min(steps, key=lambda step: step[0])  # the first of equal costs
    achieved = quality(params, Ability(ability.alpha + d_alpha, ability.beta + d_beta)).q
    return UpskillPlan(d_alpha, d_beta, cost, achieved, True)


def _upgrade_ai(params: ModelParams, d_p: float) -> ModelParams:
    """Raise AI success probability by d_p, which must lie in [0, 1 - p_a]."""
    if not 0.0 <= d_p <= 1.0 - params.p_a:
        raise ValueError("d_p must lie in [0, 1 - p_a]")
    return replace(params, p_a=params.p_a + d_p)


# LeverResult.lever -> the parameters after that lever moves by delta; each move
# checks its own delta, as with_benefit_transfer does the transfer
LEVER_MOVES = {"ai_capability": _upgrade_ai,
               "incentive_transfer": ModelParams.with_benefit_transfer}


def _lever_gain(params: ModelParams, ability: Ability, lever: str, delta: float):
    """Quality change when the lever moves by delta; the point is checked before the delta."""
    base = quality(params, ability).q
    new_q = quality(LEVER_MOVES[lever](params, delta), ability).q
    return LeverResult(lever, delta, new_q - base, new_q)


def ai_upgrade_gain(params: ModelParams, ability: Ability, d_p: float) -> LeverResult:
    """Quality change from raising AI success probability by d_p."""
    return _lever_gain(params, ability, "ai_capability", d_p)


def incentive_transfer_gain(params: ModelParams, ability: Ability, d_b: float) -> LeverResult:
    """Quality change from transferring d_b of success benefit to the worker.

    The worker re-solves with b_w + d_b while the institution is evaluated
    with b_i - d_b.
    """
    return _lever_gain(params, ability, "incentive_transfer", d_b)


def minimal_lever(params: ModelParams, ability: Ability, lever: str) -> LeverTarget:
    """Smallest value of one lever (alpha, beta, or p_a) at which quality reaches params.tau.

    The search scans 400 points up to the lever's cap: 10 for alpha, the
    top of the efficiency domain (or 10 if unbounded) for beta, and 1 for
    p_a. The value is found to 1e-9. A tau it cannot reach gives the cap
    (or the current value, if that is already past it), flagged infeasible.
    """
    # lever: (current value, cap, the (params, ability) with the lever at x)
    levers = {"alpha": (ability.alpha, _ALPHA_CAP, lambda x: (params, Ability(x, ability.beta))),
              "beta": (ability.beta, _beta_cap(params),
                       lambda x: (params, Ability(ability.alpha, x))),
              "p_a": (params.p_a, 1.0, lambda x: (replace(params, p_a=x), ability))}
    if lever not in levers:
        raise ValueError(f"unknown lever {lever!r}; expected alpha, beta, or p_a")
    current, hi, at = levers[lever]

    def reaches(x):
        return quality(*at(x)).q >= params.tau

    if reaches(current):
        return LeverTarget(lever, current, True)
    span = hi - current
    if span <= 0:
        return LeverTarget(lever, current, False)
    # the scan tolerates quality that is flat or dips along the lever (regime
    # flips); bisection runs inside the first bracket where reaches switches on
    lo = 0.0
    for i in range(1, _LEVER_SCAN + 1):
        r = span * i / _LEVER_SCAN
        if reaches(min(hi, current + r)):
            r = bisect(lambda r: reaches(min(hi, current + r)), lo, r, _LEVER_TOL)[1]
            return LeverTarget(lever, min(hi, current + r), True)
        lo = r
    return LeverTarget(lever, hi, False)
