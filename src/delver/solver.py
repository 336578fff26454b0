"""Worker-optimal actions: verification effort, regime, thresholds, grid oracle.

The worker utility is affine in d, so the optimum is a corner in d and a
one-dimensional concave maximization in s. The verification effort
s_dagger comes from one of three places: a closed form under linear
verification cost, a clamp at 0 or 1 read from the sign of the surplus
slope at the ends, or a safeguarded Newton search on that slope under
linear_quadratic cost. A brute-force grid maximizer is kept as an
independent oracle.

The branch points (the closed form and its clamp, the Newton search, and
the regime call) and the bisection also come in array forms for grid
sweeps and fan searches. They follow the scalar branches element by
element, so each element of their result equals the scalar result bitwise.
The array bisection asks its predicate about the nested midpoints of
several steps of every interval at once, up to _TREE_POINTS points per
call, and walks them by bisect's rules.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    INVERSE_LINEAR, LINEAR, Ability, Action, Detection, ModelParams, VerificationCost,
    check_overflow, delegation_gain, detection_probability, institution_value, phi_coefficients,
    worker_increment,
)

_NEWTON_TOL = 2.0 ** -49  # 8 eps, the rounding allowance of the Newton stopping tests
_NEWTON_MAX_ITER = 100
# Above _HUGE_A = scale * alpha, the root of the surplus slope can lie many
# decades below 1, where midpoints of [0, 1] take dozens of steps to reach
# it; the Newton search starts there from _huge_bracket, and from [0, 1]
# at or below it
_HUGE_A = 2.0 ** 20
_BETA_TOP = 2.0 ** 40  # thresholds search the beta domain, or [1e-12, _BETA_TOP] if unbounded
_ORACLE_CELLS = 2 ** 20  # brute_force_action's largest grid, 24 x the default 11 x 4001
_TREE_POINTS = 1024  # the most midpoints one bisect_array call asks its predicate about
# brute_force_action's two grid buffers, kept for the last grid shape so that
# its cost does not depend on whether the allocator returns freed pages to
# the system, which turns on allocations made elsewhere in the process; and
# its d and s axes for that shape, read-only
_oracle_grids = (np.empty((0, 0)), np.empty((0, 0)))
_oracle_axes = (np.empty((0, 1)), np.empty((1, 0)))


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
    """A root in beta, or an end of the search interval, flagged, when no sign change exists."""

    value: float
    bracketed: bool
    note: str = ""


def _surplus_slopes(kind: str, a, k, s, exp):
    """(h', h'', done) of the linear_quadratic surplus h(s) = k phi(s) - s - s^2 / 2.

    a is scale * alpha. done: |h'| is within rounding of its terms, 8 eps (k phi' + 1 + s);
    the test subtracts, so an overflowed slope (inf - inf is NaN) never passes it. Only
    +, -, *, / and np.exp are used, so a float and an array element get the same bits.
    """
    if kind == INVERSE_LINEAR:
        u = 1.0 + a * s
        slope = a / (u * u)
        curve = -2.0 * slope * a / u
    else:
        slope = a * exp(-a * s)
        curve = -a * slope
    k_slope = k * slope
    g = k_slope - 1.0 - s
    return g, k * curve - 1.0, abs(g) - _NEWTON_TOL * (k_slope + 1.0 + s) <= 0.0


def _float_exp(x):
    return float(np.exp(x))  # np.exp, not math.exp: the array form's bits


def _huge_bracket(kind: str, a: float, k: float):
    """(lo, hi, s): the Newton search's bracket and start point when a > _HUGE_A.

    At the root of h'(s) = k phi'(s) - 1 - s, k phi'(s) = 1 + s lies in (1, 2),
    and phi' decreases, so the root lies between the efforts where k phi' is 2
    and 1/2, each clamped to [0, 1]. The start is lo, or hi / 2 when lo is 0:
    h'(0) can be within rounding of 0, and a search started there would return
    0 for an interior root. k and a enter through separate logs or square
    roots, so k a cannot overflow.
    """
    if kind == INVERSE_LINEAR:  # k a / (1 + a s)^2 = c  =>  s = (sqrt(k a / c) - 1) / a
        ends = ((math.sqrt(k) * math.sqrt(a) * math.sqrt(1.0 / c) - 1.0) / a for c in (2.0, 0.5))
    else:  # k a e^{-a s} = c  =>  s = (ln k + ln a - ln c) / a
        ends = ((math.log(k) + math.log(a) - math.log(c)) / a for c in (2.0, 0.5))
    lo, hi = (min(1.0, max(0.0, end)) for end in ends)
    return lo, hi, lo if lo > 0.0 else 0.5 * hi


def maximize_surplus(detection: Detection, alpha: float, vcost: VerificationCost,
                     phi_coefficient: float) -> float:
    """Argmax over [0, 1] of phi_coefficient * phi(s; alpha) - C_v(s).

    Non-positive phi coefficient or zero reliability makes the surplus
    non-increasing, so the argmax is 0. A linear verification cost admits a
    closed-form first-order condition for both detection families, clamped
    to [0, 1]. Under linear_quadratic cost the surplus is strictly concave:
    its derivative h'(s) = k phi'(s) - 1 - s gives 0 when h'(0) <= 0 and 1
    when h'(1) >= 0, and otherwise a safeguarded Newton search finds its
    root. The search starts at 0.5 in the bracket [0, 1], or, when a =
    scale * alpha is above 2**20, in the bracket that _huge_bracket reads
    off k phi' = 1 + s. It keeps the bracket from the sign of h' and takes
    its midpoint instead of a Newton step that leaves it. It stops when h'
    is zero to rounding or the step is at most 8 eps * s.
    """
    if phi_coefficient <= 0.0 or alpha <= 0.0:
        return 0.0
    a = detection.scale * alpha
    if vcost.kind == LINEAR:
        if detection.kind == INVERSE_LINEAR:
            # k_w * a / (1 + a s)^2 = k  =>  s0 = (sqrt(a k_w / k) - 1) / a
            arg = a * phi_coefficient / vcost.k
            s0 = (math.sqrt(arg) - 1.0) / a if arg > 0 else 0.0
        else:  # exponential: k_w * a e^{-a s} = k  =>  s0 = ln(a k_w / k) / a
            arg = a * phi_coefficient / vcost.k
            s0 = float(np.log(arg)) / a if arg > 1.0 else 0.0  # np.log: the array form's bits
        return min(1.0, max(0.0, s0))

    kind, k = detection.kind, phi_coefficient
    if _surplus_slopes(kind, a, k, 0.0, _float_exp)[0] <= 0.0:
        return 0.0
    if _surplus_slopes(kind, a, k, 1.0, _float_exp)[0] >= 0.0:
        return 1.0
    lo, hi, s = _huge_bracket(kind, a, k) if a > _HUGE_A else (0.0, 1.0, 0.5)
    for _ in range(_NEWTON_MAX_ITER):
        g, dg, done = _surplus_slopes(kind, a, k, s, _float_exp)
        if done:
            return s
        if g > 0.0:
            lo = s
        else:
            hi = s
        new = s - g / dg
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - s) <= _NEWTON_TOL * s:
            return new
        s = new
    return s


def maximize_surplus_array(detection: Detection, alpha: np.ndarray, vcost: VerificationCost,
                           phi_coefficient: np.ndarray) -> np.ndarray:
    """maximize_surplus at every element of the alpha and phi_coefficient arrays.

    A linear vcost may hold an array of rates, one per element.
    """
    s_dagger = np.zeros(np.shape(alpha))
    live = ~((phi_coefficient <= 0.0) | (alpha <= 0.0))
    a, k = detection.scale * alpha[live], phi_coefficient[live]
    if vcost.kind == LINEAR:
        s0 = np.zeros(len(a))
        # a * k can overflow to inf, and a subnormal a sends s0 to +-inf before
        # the clamp, silently as floats do
        with np.errstate(over="ignore"):
            arg = a * k / (vcost.k[live] if isinstance(vcost.k, np.ndarray) else vcost.k)
            if detection.kind == INVERSE_LINEAR:
                pos = arg > 0
                s0[pos] = (np.sqrt(arg[pos]) - 1.0) / a[pos]
            else:
                big = arg > 1.0
                s0[big] = np.log(arg[big]) / a[big]
        s_dagger[live] = np.minimum(1.0, np.maximum(s0, 0.0))  # +0.0 for -0.0, as max(0.0, s0)
        return s_dagger

    kind = detection.kind
    # overflow and inf - inf stay silent, as in the scalar form's floats
    with np.errstate(over="ignore", invalid="ignore"):
        up = ~(_surplus_slopes(kind, a, k, 0.0, np.exp)[0] <= 0.0)
        top = up & (_surplus_slopes(kind, a, k, 1.0, np.exp)[0] >= 0.0)
        s = np.where(top, 1.0, np.where(up, 0.5, 0.0))
        lo, hi = np.zeros(len(a)), np.ones(len(a))
        rest = np.flatnonzero(up & ~top)
        for i in rest[a[rest] > _HUGE_A].tolist():
            lo[i], hi[i], s[i] = _huge_bracket(kind, float(a[i]), float(k[i]))
        for _ in range(_NEWTON_MAX_ITER):
            if not len(rest):
                break
            g, dg, done = _surplus_slopes(kind, a[rest], k[rest], s[rest], np.exp)
            rest, g, dg = rest[~done], g[~done], dg[~done]
            now = s[rest]
            right = g > 0.0
            lo[rest[right]] = now[right]
            hi[rest[~right]] = now[~right]
            new = now - g / dg
            low, high = lo[rest], hi[rest]
            new = np.where((low < new) & (new < high), new, 0.5 * (low + high))
            s[rest] = new
            rest = rest[~(np.abs(new - now) <= _NEWTON_TOL * now)]
    s_dagger[live] = s
    return s_dagger


def optimal_verification(params: ModelParams, ability: Ability) -> float:
    """Optimal verification effort s_dagger, conditional on delegating."""
    params = params.worker_view()
    k_w = phi_coefficients(params, params.execution_cost.cost(ability.beta))[0]
    return maximize_surplus(params.detection, ability.alpha, params.verification_cost, k_w)


def optimal_action(params: ModelParams, ability: Ability) -> OptimalAction:
    """Worker-optimal (d, s) and its regime.

    choose_regime makes the call from the delegation increment at the best
    verification effort: the worker delegates when it is non-negative
    (indifference resolves to delegation). The worker plans under
    params.worker_view().
    """
    params = params.worker_view()
    c_w = params.execution_cost.cost(ability.beta)
    check_overflow(params, ability.alpha, c_w)
    k_w = phi_coefficients(params, c_w)[0]
    s_dag = maximize_surplus(params.detection, ability.alpha, params.verification_cost, k_w)
    phi = detection_probability(params.detection, ability.alpha, s_dag)
    f_w = worker_increment(params, k_w, phi, c_w, params.verification_cost.cost(s_dag))
    d_star, s_star, regime = choose_regime(float(f_w), s_dag)  # ints, for numpy inputs too
    return OptimalAction(d_star, s_star, REGIMES[regime], s_dag, f_w)


def choose_regime(f_w, s_dagger):
    """The regime call from f_w, the delegation increment at s_dagger: (d_star, s_star, regime).

    Takes floats or arrays. The worker delegates unless f_w < 0, and
    delegation is verified when s_dagger is not 0. regime indexes REGIMES.
    s_dagger lies in [0, 1], so s_dagger * verified is s_dagger or +0.0.
    """
    d_star = 1 - (f_w < 0.0)
    verified = d_star * (s_dagger != 0.0)
    return d_star, s_dagger * verified, d_star + verified


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
    holds at mid[k]. Each call asks about every interval still narrowing,
    at all 2**depth - 1 nested midpoints of its next depth steps, built
    level by level with bisect's own 0.5 * (lo + hi). depth is the largest
    that keeps a call at or under _TREE_POINTS points, at least 1 and at
    most the steps left. Each interval then walks its tree by bisect's
    stop rules, steps included, so it takes exactly the iterates bisect
    would and ends on bisect's bracket. Every point bisect would ask about
    is among the points asked, and every point asked lies in the
    interval's starting bracket.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.flatnonzero(hi - lo > tol)
    left = math.inf if steps is None else steps
    while len(live) and left > 0:
        n = len(live)
        depth = min(left, max(1, (_TREE_POINTS // n + 1).bit_length() - 1))
        # row k holds the ends and, between them, every nested midpoint of
        # interval live[k]: the node at column j spanning width w has its
        # midpoint at column j + w // 2, built from the node's own ends
        width = 1 << depth
        grid = np.empty((n, width + 1))
        grid[:, 0], grid[:, width] = lo[live], hi[live]
        for level in range(depth):
            w = width >> level
            grid[:, w // 2::w] = 0.5 * (grid[:, :-1:w] + grid[:, w::w])
        on = pred(np.repeat(live, width - 1), grid[:, 1:-1].reshape(-1)).reshape(n, -1)
        # the walk: from the midpoint column c of a node, whose half-width is
        # the lowest set bit of c, pred holding steps to the midpoint of the
        # left half and otherwise of the right; a half of width 1 has no
        # midpoint column, and the floor puts the walk on its left end
        low = np.arange(1, width) & -np.arange(1, width)
        step = np.zeros((n, width + 1), dtype=np.int64)
        step[:, 1:-1] = np.where(on, -low, low) // 2
        step, grid = step.reshape(-1), grid.reshape(-1)
        rows = np.arange(n)
        base = rows * (width + 1)
        at = base + width // 2
        for _ in range(depth):
            at += step[at]
        # the bracket after each step taken, one column per step
        widths = 1 << depth - np.arange(depth + 1)
        path = (at - base)[:, None] // widths * widths + base[:, None]
        a, b = grid[path], grid[path + widths]
        # bisect stops at a bracket at most tol wide, and at one whose step
        # would move neither end (the end it would move equals the midpoint)
        go = (b[:, :-1] - a[:, :-1] > tol) & ((a[:, 1:] != a[:, :-1]) | (b[:, 1:] != b[:, :-1]))
        taken = np.logical_and.accumulate(go, axis=1).sum(axis=1)
        lo[live], hi[live] = a[rows, taken], b[rows, taken]
        live = live[(taken == depth) & (hi[live] - lo[live] > tol)]
        left -= depth
    return lo, hi


def _efficiency_threshold(params: ModelParams, value, rising: bool, c_w: float | None,
                          notes: tuple[str, str]) -> ThresholdResult:
    """The beta where value, monotone in beta, changes sign: where C_w(beta) is c_w.

    value is read at the end of the search interval where it is lowest, then
    at the other. If it is positive at the first, or negative at the other,
    that end is returned flagged, with notes[0] or notes[1]. Otherwise the
    root is C_w's inverse at c_w, clamped to the interval, or the top end
    with its check's note if the inverse is inf; a c_w of None means value
    is 0 at every beta, and returns the first end with notes[0].
    """
    lo, hi = params.execution_cost.beta_domain()
    if math.isinf(hi):
        lo, hi = 1e-12, _BETA_TOP
    first, last = (lo, hi) if rising else (hi, lo)
    if value(first) > 0.0:
        return ThresholdResult(first, False, notes[0])
    if value(last) < 0.0:
        return ThresholdResult(last, False, notes[1])
    if c_w is None:
        return ThresholdResult(first, False, notes[0])
    if (root := params.execution_cost.efficiency_at(c_w)) == math.inf:
        return ThresholdResult(hi, False, notes[rising])
    return ThresholdResult(min(hi, max(lo, root)), True)


def manual_delegation_threshold(params: ModelParams) -> ThresholdResult:
    """Efficiency level at which pure delegation and manual work break even.

    The delegation gain C_w(beta) - c_a - (b_w + l_w)(p_w - p_a) is strictly
    decreasing in beta, and zero where C_w is minus the gain at C_w = 0;
    without a sign change, the nearer domain boundary is returned flagged.
    The gain is the worker's, under params.worker_view().
    """
    worker = params.worker_view()
    # the gain is the delegation increment at s = 0, where k_w phi and C_v are 0
    return _efficiency_threshold(
        params, lambda beta: delegation_gain(worker, Ability(0.0, beta)), False,
        -worker_increment(worker, 0.0, 0.0, 0.0, 0.0),
        ("delegation beats manual work at every efficiency",
         "always manual-or-verified: delegation gain negative everywhere"))


def qualification_threshold(params: ModelParams) -> ThresholdResult:
    """Efficiency at which the no-AI baseline quality reaches params.tau.

    The baseline g_i(C_w(beta)) = g_i(0) - xi C_w(beta) is increasing in beta
    and reaches tau where C_w is (g_i(0) - tau) / xi. A tau outside its range
    returns the boundary, flagged, and so does a baseline flat at tau (xi = 0),
    at the lowest efficiency.
    """
    def excess(c_w):
        return institution_value(params, params.p_w, c_w) - params.tau

    return _efficiency_threshold(
        params, lambda beta: excess(params.execution_cost.cost(beta)), True,
        excess(0.0) / params.xi if params.xi > 0.0 else None,
        ("baseline already above tau at the lowest efficiency",
         "baseline below tau at every efficiency"))


def brute_force_action(params: ModelParams, ability: Ability,
                       d_steps: int = 11, s_steps: int = 4001):
    """Exhaustive grid maximization of the worker utility.

    Evaluates success probability and cost directly on a (d, s) grid,
    independent of the affine decomposition, and returns the maximizing
    cell with its utility. Used as an oracle in tests and the CLI. Calls
    share the module's two grid buffers and its axes, so two threads must
    not call it at once. The worker plans under params.worker_view().
    """
    params = params.worker_view()
    for name, steps in (("d_steps", d_steps), ("s_steps", s_steps)):
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {steps!r}")
    if d_steps < 2 or s_steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    if d_steps * s_steps > _ORACLE_CELLS:  # each of its arrays holds 8 bytes a cell
        raise ValueError(f"grid has {d_steps * s_steps} cells, more than {_ORACLE_CELLS}")
    global _oracle_grids, _oracle_axes
    if _oracle_grids[0].shape != (d_steps, s_steps):
        axes = (np.linspace(0.0, 1.0, d_steps)[:, None], np.linspace(0.0, 1.0, s_steps)[None, :])
        for axis in axes:
            axis.flags.writeable = False
        _oracle_grids = (np.empty((d_steps, s_steps)), np.empty((d_steps, s_steps)))
        _oracle_axes = axes  # after the buffers, so that the two always match
    p, u = _oracle_grids
    d, s = _oracle_axes
    c_w = params.execution_cost.cost(ability.beta)
    check_overflow(params, ability.alpha, c_w)
    phi = params.detection.prob(ability.alpha, s)
    c_v = params.verification_cost.cost(s)
    # success p = (1 - d) p_w + d p_a + d (1 - p_a) phi p_w, and utility b_w p - l_w (1 - p)
    # - (1 - d) C_w - d (c_a + c_v + (1 - p_a) phi kappa C_w), filled into the two grid
    # buffers in place: each cell gets the operations of these formulas read left to
    # right, at most with the operands of a + or * swapped, which is exact
    np.multiply(d * (1.0 - params.p_a), phi, out=p)
    p *= params.p_w
    p += (1.0 - d) * params.p_w + d * params.p_a
    np.subtract(1.0, p, out=u)
    u *= params.l_w
    p *= params.b_w
    np.subtract(p, u, out=p)
    np.multiply(d, params.c_a + c_v + (1.0 - params.p_a) * phi * (params.kappa * c_w), out=u)
    u += (1.0 - d) * c_w
    p -= u  # the utility
    flat = int(np.argmax(p))
    i, j = divmod(flat, s_steps)
    action = Action(float(d[i, 0]), float(s[0, j]))
    return action, float(p[i, j])


def oracle_regime(action: Action) -> Regime:
    if action.d == 0.0:
        return Regime.MANUAL
    if action.s == 0.0:
        return Regime.PURE_DELEGATION
    return Regime.VERIFIED_DELEGATION
