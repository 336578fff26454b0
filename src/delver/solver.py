"""Worker-optimal actions: verification effort, regime, thresholds, grid oracle.

The worker utility is affine in d, so the optimum is a corner in d and a
one-dimensional concave maximization in s. Closed forms cover the linear
verification cost; golden-section search covers the rest. A brute-force
grid maximizer is kept as an independent oracle.

The branch points (the closed form for s_dagger and its clamp, the
golden-section search, and the regime call) and the bisection also come
in array forms for grid sweeps and fan searches. They follow the scalar
branches element by element, so each element of their result equals the
scalar result bitwise.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    INVERSE_LINEAR, LINEAR, Ability, Action, Detection, ModelParams, VerificationCost,
    check_overflow, coefficients, delegation_gain, detection_probability, phi_coefficients,
    worker_increment,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-9
_GOLDEN_MAX_ITER = 200
_THRESHOLD_TOL = 1e-12


class Regime(str, enum.Enum):
    MANUAL = "manual"
    PURE_DELEGATION = "pure_delegation"
    VERIFIED_DELEGATION = "verified_delegation"


REGIMES = tuple(Regime)  # manual, pure, verified: the regime indices of choose_regime


@dataclass(frozen=True)
class OptimalAction:
    """Worker-optimal action with the quantities behind the regime call.

    s_dagger is the maximizer of the verification surplus over [0, 1],
    whether or not delegation is chosen; f_w_at_s_dagger is the delegation
    increment there, whose sign decides d_star.
    """

    d_star: int
    s_star: float
    regime: Regime
    s_dagger: float
    f_w_at_s_dagger: float


@dataclass(frozen=True)
class ThresholdResult:
    """A root in beta, or the nearest domain boundary when no sign change exists."""

    value: float
    bracketed: bool
    note: str = ""


def golden_section_max(fn, lo: float, hi: float, tol: float = _GOLDEN_TOL) -> float:
    """Argmax of a unimodal function on [lo, hi] to argument tolerance tol."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if h <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = fn(d)
    return 0.5 * (a + b)


def golden_section_max_array(fn, n: int) -> np.ndarray:
    """golden_section_max on [0, 1], with its default tolerance, for n functions at once.

    fn maps an array of n arguments to the n function values. Each element
    keeps its own bracket and stopping test, so it takes exactly the
    iterates the scalar search would.
    """
    a, b = np.zeros(n), np.ones(n)
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_MAX_ITER):
        active = h > _GOLDEN_TOL
        if not active.any():
            break
        # a stopped element keeps a and b, the only state its result reads
        left = fc >= fd
        b = np.where(active & left, d, b)
        a = np.where(active & ~left, c, a)
        h = b - a
        probe = np.where(left, b - _INV_PHI * h, a + _INV_PHI * h)
        fp = fn(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return 0.5 * (a + b)


def _surplus_fn(detection: Detection, alpha, vcost: VerificationCost, phi_coefficient):
    def surplus(s):
        return phi_coefficient * detection.prob(alpha, s) - vcost.cost(s)

    return surplus


def maximize_surplus(detection: Detection, alpha: float, vcost: VerificationCost,
                     phi_coefficient: float) -> float:
    """Argmax over [0, 1] of phi_coefficient * phi(s; alpha) - C_v(s).

    Non-positive phi coefficient or zero reliability makes the surplus
    non-increasing, so the argmax is 0. Linear verification cost admits a
    closed-form first-order condition for both detection families; other
    combinations fall back to golden-section search on the strictly
    concave surplus.
    """
    if phi_coefficient <= 0.0 or alpha <= 0.0:
        return 0.0
    if vcost.kind == LINEAR:
        a = detection.scale * alpha
        if detection.kind == INVERSE_LINEAR:
            # k_w * a / (1 + a s)^2 = k  =>  s0 = (sqrt(a k_w / k) - 1) / a
            arg = a * phi_coefficient / vcost.k
            s0 = (math.sqrt(arg) - 1.0) / a if arg > 0 else 0.0
        else:  # exponential: k_w * a e^{-a s} = k  =>  s0 = ln(a k_w / k) / a
            arg = a * phi_coefficient / vcost.k
            s0 = math.log(arg) / a if arg > 1.0 else 0.0
        return min(1.0, max(0.0, s0))

    surplus = _surplus_fn(detection, alpha, vcost, phi_coefficient)
    s0 = golden_section_max(surplus, 0.0, 1.0)
    # the bracket endpoints beat an interior argmax found within tolerance noise
    best = max((surplus(s), s) for s in (0.0, s0, 1.0))
    return best[1]


def maximize_surplus_array(detection: Detection, alpha: np.ndarray, vcost: VerificationCost,
                           phi_coefficient: np.ndarray) -> np.ndarray:
    """maximize_surplus at every element of the alpha and phi_coefficient arrays.

    A linear vcost may hold an array of rates, one per element.
    """
    s_dagger = np.zeros(np.shape(alpha))
    live = ~((phi_coefficient <= 0.0) | (alpha <= 0.0))
    alpha, k = alpha[live], phi_coefficient[live]
    if vcost.kind == LINEAR:
        a = detection.scale * alpha
        arg = a * k / (vcost.k[live] if isinstance(vcost.k, np.ndarray) else vcost.k)
        s0 = np.zeros(len(a))
        # a subnormal a sends s0 to +-inf before the clamp, silently as floats do
        with np.errstate(over="ignore"):
            if detection.kind == INVERSE_LINEAR:
                pos = arg > 0
                s0[pos] = (np.sqrt(arg[pos]) - 1.0) / a[pos]
            else:
                # math.log as in the scalar branch: np.log can differ from it by an ulp
                big = arg > 1.0
                s0[big] = np.array([math.log(x) for x in arg[big].tolist()]) / a[big]
        s_dagger[live] = np.minimum(1.0, np.maximum(0.0, s0))
        return s_dagger

    surplus = _surplus_fn(detection, alpha, vcost, k)
    s0 = golden_section_max_array(surplus, len(alpha))
    # the scalar max over (surplus, s) tuples: the larger surplus wins, a tie goes to the larger s
    best_s = np.zeros(len(alpha))
    best_f = surplus(best_s)
    for s in (s0, np.ones(len(alpha))):
        f = surplus(s)
        take = (f > best_f) | ((f == best_f) & (s > best_s))
        best_f, best_s = np.where(take, f, best_f), np.where(take, s, best_s)
    s_dagger[live] = best_s
    return s_dagger


def optimal_verification(params: ModelParams, ability: Ability) -> float:
    """Optimal verification effort s_dagger, conditional on delegating."""
    k_w = phi_coefficients(params, params.execution_cost.cost(ability.beta))[0]
    return maximize_surplus(params.detection, ability.alpha, params.verification_cost, k_w)


def optimal_action(params: ModelParams, ability: Ability, kappa: float = 1.0) -> OptimalAction:
    """Worker-optimal (d, s) and its regime.

    The worker delegates exactly when the delegation increment at the best
    verification effort is non-negative (indifference resolves to
    delegation). Delegation with zero verification effort is pure
    delegation; with positive effort, verified delegation. kappa scales
    the cost of redoing the task after a detected AI error.
    """
    c_w = params.execution_cost.cost(ability.beta)
    check_overflow(params.detection, ability.alpha, c_w, kappa)
    k_w = phi_coefficients(params, c_w, kappa)[0]
    s_dag = maximize_surplus(params.detection, ability.alpha, params.verification_cost, k_w)
    phi = detection_probability(params.detection, ability.alpha, s_dag)
    f_w = worker_increment(params, k_w, phi, c_w, params.verification_cost.cost(s_dag))
    if f_w < 0.0:
        return OptimalAction(0, 0.0, Regime.MANUAL, s_dag, f_w)
    if s_dag == 0.0:
        return OptimalAction(1, 0.0, Regime.PURE_DELEGATION, s_dag, f_w)
    return OptimalAction(1, s_dag, Regime.VERIFIED_DELEGATION, s_dag, f_w)


def choose_regime(f_w: np.ndarray, s_dagger: np.ndarray):
    """optimal_action's regime call at every element: (d_star, s_star, regime).

    regime holds indices into REGIMES.
    """
    delegate = ~(f_w < 0.0)
    verified = delegate & (s_dagger != 0.0)
    d_star = delegate.astype(np.int64)
    return d_star, np.where(verified, s_dagger, 0.0), d_star + verified


def bisect(pred, lo: float, hi: float, tol: float, steps: int | None = None):
    """Narrow [lo, hi] around the point where pred switches on; returns (lo, hi).

    Each step moves hi to the midpoint where pred holds there, and lo
    otherwise. It stops once the width is at most tol, after steps steps
    when given, or when the end it would move already equals the midpoint:
    no float lies between lo and hi, and more steps would change nothing.
    """
    for _ in itertools.count() if steps is None else range(steps):
        if not hi - lo > tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            if mid == hi:
                break
            hi = mid
        elif mid == lo:
            break
        else:
            lo = mid
    return lo, hi


def bisect_array(pred, lo: np.ndarray, hi: np.ndarray, tol: float, steps: int | None = None):
    """bisect on many intervals at once; returns new (lo, hi) arrays.

    pred(i, mid) gives, for each k, whether the predicate of interval i[k]
    holds at mid[k]; it is asked only about intervals still narrowing. Each
    interval stops by bisect's rules, steps included, so it takes exactly
    the iterates bisect would.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.flatnonzero(hi - lo > tol)
    for _ in itertools.count() if steps is None else range(steps):
        if not len(live):
            break
        mid = 0.5 * (lo[live] + hi[live])
        on = pred(live, mid)
        # an interval stops when the end it would move already equals the midpoint
        moves = np.where(on, mid != hi[live], mid != lo[live])
        live, mid, on = live[moves], mid[moves], on[moves]
        hi[live[on]] = mid[on]
        lo[live[~on]] = mid[~on]
        live = live[hi[live] - lo[live] > tol]
    return lo, hi


def _beta_search_interval(params: ModelParams):
    lo, hi = params.execution_cost.beta_domain()
    if math.isinf(hi):
        hi = 1.0
        # expand until the execution cost is negligible relative to its scale
        while params.execution_cost.cost(hi) > 1e-12 * params.execution_cost.scale and hi < 1e12:
            hi *= 2.0
        lo = 1e-12
    return lo, hi


def manual_delegation_threshold(params: ModelParams) -> ThresholdResult:
    """Efficiency level at which pure delegation and manual work break even.

    The delegation gain is strictly decreasing in beta, so a sign change is
    found by bisection; without one, the nearer domain boundary is returned
    flagged.
    """
    lo, hi = _beta_search_interval(params)

    def gain(beta):
        return delegation_gain(params, Ability(0.0, beta))

    if gain(hi) > 0.0:
        return ThresholdResult(hi, False, "delegation beats manual work at every efficiency")
    if gain(lo) < 0.0:
        return ThresholdResult(lo, False, "always manual-or-verified: delegation gain negative everywhere")
    lo, hi = bisect(lambda beta: not gain(beta) > 0.0, lo, hi, _THRESHOLD_TOL)
    return ThresholdResult(0.5 * (lo + hi), True)


def qualification_threshold(params: ModelParams, tau: float | None = None) -> ThresholdResult:
    """Efficiency at which the no-AI baseline quality reaches tau.

    The baseline g_i is strictly increasing in beta. A tau outside its
    range returns the boundary, flagged.
    """
    if tau is None:
        tau = params.tau
    lo, hi = _beta_search_interval(params)

    def excess(beta):
        return coefficients(params, Ability(0.0, beta), 0.0).g_i - tau

    if excess(lo) > 0.0:
        return ThresholdResult(lo, False, "baseline already above tau at the lowest efficiency")
    if excess(hi) < 0.0:
        return ThresholdResult(hi, False, "baseline below tau at every efficiency")
    lo, hi = bisect(lambda beta: excess(beta) > 0.0, lo, hi, _THRESHOLD_TOL)
    return ThresholdResult(0.5 * (lo + hi), True)


def brute_force_action(params: ModelParams, ability: Ability,
                       d_steps: int = 11, s_steps: int = 4001):
    """Exhaustive grid maximization of the worker utility.

    Evaluates success probability and cost directly on a (d, s) grid,
    independent of the affine decomposition, and returns the maximizing
    cell with its utility. Used as an oracle in tests and the CLI.
    """
    if d_steps < 2 or s_steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    d = np.linspace(0.0, 1.0, d_steps)[:, None]
    s = np.linspace(0.0, 1.0, s_steps)[None, :]
    c_w = params.execution_cost.cost(ability.beta)
    check_overflow(params.detection, ability.alpha, c_w)
    phi = params.detection.prob(ability.alpha, s)
    c_v = params.verification_cost.cost(s)
    p = (1.0 - d) * params.p_w + d * params.p_a + d * (1.0 - params.p_a) * phi * params.p_w
    cost = (1.0 - d) * c_w + d * (params.c_a + c_v + (1.0 - params.p_a) * phi * c_w)
    u = params.b_w * p - params.l_w * (1.0 - p) - cost
    flat = int(np.argmax(u))
    i, j = divmod(flat, s_steps)
    action = Action(float(d[i, 0]), float(s[0, j]))
    return action, float(u[i, j])


def oracle_regime(action: Action) -> Regime:
    if action.d == 0.0:
        return Regime.MANUAL
    if action.s == 0.0:
        return Regime.PURE_DELEGATION
    return Regime.VERIFIED_DELEGATION
