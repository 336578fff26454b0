"""Worker-optimal actions: verification effort, regime, thresholds and oracle.

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
    checked_cost, delegation_gain, institution_value, phi_coefficients, worker_increment,
)

_NEWTON_TOL = 2.0 ** -49  # 8 eps, the rounding allowance of the Newton stopping tests
_NEWTON_MAX_ITER = 100
# Above _HUGE_A = scale * alpha, the root of the surplus slope can lie many
# decades below 1, where midpoints of [0, 1] take dozens of steps to reach
# it; the Newton search starts there from _huge_bracket, and from [0, 1]
# at or below it
_HUGE_A = 2.0 ** 20
_BETA_TOP = 2.0 ** 40  # thresholds read values at the beta domain's ends; at 1e-12 and this if unbounded
_ORACLE_CELLS = 2 ** 20  # brute_force_action's largest grid, 24 x the default 11 x 4001
_TREE_POINTS = 1024  # the most midpoints one bisect_array call asks its predicate about
# brute_force_action's d and s axes for the last grid shape, read-only
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
        arg = a * phi_coefficient / vcost.k
        if detection.kind == INVERSE_LINEAR:
            # k_w * a / (1 + a s)^2 = k  =>  s0 = (sqrt(a k_w / k) - 1) / a
            s0 = (math.sqrt(arg) - 1.0) / a if arg > 0 else 0.0
        else:  # exponential: k_w * a e^{-a s} = k  =>  s0 = ln(a k_w / k) / a
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

    A linear vcost may hold an array of rates, one per element. The formulas run on
    every element and masks pick the results, so each takes the scalar form's iterates.
    """
    live = ~((phi_coefficient <= 0.0) | (alpha <= 0.0))
    a, k, kind = detection.scale * alpha, phi_coefficient, detection.kind
    # overflow and inf - inf stay silent, as in the scalar form's floats, and so
    # do the masked-out elements' divisions by a = 0, or by dg = 0 at k <= 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if vcost.kind == LINEAR:
            arg = a * k / vcost.k
            if kind == INVERSE_LINEAR:
                s0 = np.where(live & (arg > 0), (np.sqrt(arg) - 1.0) / a, 0.0)
            else:
                s0 = np.where(live & (arg > 1.0), np.log(arg) / a, 0.0)
            return np.minimum(1.0, np.maximum(s0, 0.0))  # +0.0 for -0.0, as max(0.0, s0)

        up = live & ~(_surplus_slopes(kind, a, k, 0.0, np.exp)[0] <= 0.0)
        top = up & (_surplus_slopes(kind, a, k, 1.0, np.exp)[0] >= 0.0)
        go = up & ~top
        s = np.where(top, 1.0, np.where(go, 0.5, 0.0))
        lo, hi = np.zeros(np.shape(a)), np.ones(np.shape(a))
        for i in np.flatnonzero(go & (a > _HUGE_A)).tolist():
            lo[i], hi[i], s[i] = _huge_bracket(kind, float(a[i]), float(k[i]))
        for _ in range(_NEWTON_MAX_ITER):
            if not go.any():
                break
            g, dg, done = _surplus_slopes(kind, a, k, s, np.exp)
            go &= ~done
            right = go & (g > 0.0)
            lo, hi = np.where(right, s, lo), np.where(go & ~right, s, hi)
            new = s - g / dg
            new = np.where(go, np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi)), s)
            go &= ~(np.abs(new - s) <= _NEWTON_TOL * s)
            s = new
    return s


def optimal_verification(params: ModelParams, ability: Ability) -> float:
    """Optimal verification effort s_dagger, conditional on delegating: optimal_action's."""
    return optimal_action(params, ability).s_dagger


def optimal_action(params: ModelParams, ability: Ability) -> OptimalAction:
    """Worker-optimal (d, s) and its regime.

    choose_regime makes the call from the delegation increment at the best
    verification effort: the worker delegates when it is non-negative
    (indifference resolves to delegation). The worker plans under
    params.worker_view().
    """
    params = params.worker_view()
    c_w = checked_cost(params, ability)
    k_w = phi_coefficients(params, c_w)[0]
    s_dag = maximize_surplus(params.detection, ability.alpha, params.verification_cost, k_w)
    phi = float(params.detection.prob(ability.alpha, s_dag))  # the point and s_dag are checked
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

    Evaluates success probability and cost directly on a (d, s) grid, with
    its own formula and none of the solver's code, and returns the first
    maximizing cell in row-major order (np.argmax's) with its utility. It
    evaluates the row d = 1 in full, and the row d = 0 as one value, which
    every cell of it has. The utility is affine in d, so it evaluates the
    rows between them only in the columns where a rounding bound lets a
    cell reach the end rows' maximum, and in none when the bound rules out
    the column of row d = 1's maximum: the cells it skips cannot hold the
    grid's maximum, and the result is the full grid's bitwise. The bound
    needs 4 * S finite, with S = b_w + l_w + C_w + the largest delegated
    cost; past that it raises ValueError before any cell is evaluated. Used as an oracle in tests and the CLI. Each call reads the
    module's kept axes once, so calls on two grid shapes may run in two
    threads at once. The worker plans under params.worker_view().
    """
    params = params.worker_view()
    for name, steps in (("d_steps", d_steps), ("s_steps", s_steps)):
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {steps!r}")
    if d_steps < 2 or s_steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    cells = int(d_steps) * int(s_steps)  # as Python ints, which do not wrap
    if cells > _ORACLE_CELLS:
        raise ValueError(f"grid has {cells} cells, more than {_ORACLE_CELLS}")
    global _oracle_axes
    axes = _oracle_axes
    if axes[0].size != d_steps or axes[1].size != s_steps:
        axes = (np.linspace(0.0, 1.0, d_steps)[:, None], np.linspace(0.0, 1.0, s_steps)[None, :])
        for axis in axes:
            axis.flags.writeable = False
        _oracle_axes = axes
    d, s = axes
    c_w = checked_cost(params, ability)
    phi = params.detection.prob(ability.alpha, s[0])
    c_v = params.verification_cost.cost(s[0])
    with np.errstate(over="ignore"):  # an infinite x fails the domain rule below
        x = params.c_a + c_v + (1.0 - params.p_a) * phi * (params.kappa * c_w)  # the delegated cost
    span = params.b_w + params.l_w + c_w + float(np.abs(x).max())
    if not math.isfinite(4.0 * span):
        raise ValueError(f"oracle scale S = b_w + l_w + C_w + max delegated cost is {span:.6g};"
                         " 4 * S must be finite")

    def utility(d, phi, x):
        # success p = (1 - d) p_w + d p_a + d (1 - p_a) phi p_w, and utility
        # b_w p - l_w (1 - p) - (d x + (1 - d) C_w), at the rows d (a float or a
        # column) and the columns phi and x (floats or rows); a cell's operations
        # do not depend on which other cells are evaluated with it, so it gets
        # the full grid's bits
        p = d * (1.0 - params.p_a) * phi * params.p_w + ((1.0 - d) * params.p_w + d * params.p_a)
        return p * params.b_w - (1.0 - p) * params.l_w - (d * x + (1.0 - d) * c_w)

    # row d = 0 multiplies its phi and x, finite and >= 0 under the rule, by 0.0,
    # so every cell of it has cell (0, 0)'s value u0
    u0, u1 = utility(0.0, float(phi[0]), float(x[0])), utility(1.0, phi, x)
    top = float(u1.max())
    # On the same float inputs a cell is affine in d in exact arithmetic, so its
    # exact value at an interior d is at most its exact value at d[1] or d[-2],
    # and the mix (1 - d) u0 + d u1 of the computed end rows is that value up to
    # rounding. Under the rule no cell, end row or mix overflows (each is under
    # 2 * S in size), and each rounds by about 32 * 2**-53 * S or less, which 2**-40 * S
    # covers 256 times over: a column whose mixes at d[1] and d[-2] both fall
    # below M - 2**-40 * S, M the end rows' maximum, holds no interior cell >= M.
    # Each rounding is monotone, so a mix rises with u1: when neither mix
    # reaches the floor at u1's largest value, no column's does.
    floor = max(u0, top) - 2.0 ** -40 * span
    d1, d2 = float(d[1, 0]), float(d[-2, 0])

    def mix(w, u):
        return (1.0 - w) * u0 + w * u

    if mix(d1, top) >= floor or mix(d2, top) >= floor:
        cols = np.flatnonzero((mix(d1, u1) >= floor) | (mix(d2, u1) >= floor))
        band = utility(d[1:-1], phi[cols], x[cols]).ravel()
        values = np.concatenate((band, u1))
    else:
        band, values = np.empty(0), u1
    # the cells after row d = 0 in row-major order: the band, then row d = 1;
    # row d = 0 comes first, so it holds np.argmax's first maximum when u0 is at least theirs
    k = int(np.argmax(values))
    if u0 >= values[k]:
        i, j, u = 0, 0, u0
    elif k < band.size:
        row, col = divmod(k, cols.size)
        i, j, u = row + 1, int(cols[col]), values[k]
    else:
        i, j, u = d_steps - 1, k - band.size, values[k]
    return Action(float(d[i, 0]), float(s[0, j])), float(u)
