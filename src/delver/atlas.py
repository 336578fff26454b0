"""Quality regimes and the separatrices that bound them in ability space.

Quality is institutional utility at the worker's privately optimal
action. psi1 (pure vs verified delegation) is in closed form, and so is
psi0 (manual vs verified delegation) where it is psi1, at a delegation
gain of 0 or more. psi0 elsewhere, psi_prime (institutional break-even),
psi (quality improvement, the larger of psi0 and psi_prime) and psi_tau
(qualification) are found by bisection in alpha, relying on the
monotonicity of the underlying quantities. Grid sweeps solve the whole
map in one array pass and hold it as columns for CSV emission.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import (
    Ability, ModelParams, checked_cost, delegation_gain, institution_increment, institution_value,
    outcome_at, phi_coefficients, worker_increment,
)
from .solver import (
    REGIMES, OptimalAction, Regime, bisect, choose_regime, manual_delegation_threshold,
    maximize_surplus, maximize_surplus_array, optimal_action,
)

UNCHANGED_RTOL = 1e-9
_ALPHA_MAX = 10.0  # a boundary search's first upper bound, doubled up to _SEARCH_CAP
_SEARCH_CAP = 10240.0  # a boundary search's last upper bound, _ALPHA_MAX * 2**10
_ALPHA_TOL = 1e-9
_MARGIN = 2.0 ** -40  # _bisect_boundary's rounding allowance, relative to its end values
_STEP_SLACK = 8  # sign calls _bisect_boundary's steps may spend beyond plain bisection's
_BETA_TOL = 1e-6
_CSV_BLOCK_ROWS = 4096
_CSV_DISTINCT_ROWS = 64  # shorter blocks are formatted row by row: np.unique costs ~9 us a call
BOUNDARIES = ("psi0", "psi1", "psi", "psi_tau")  # the separatrices boundary_curve samples


class QualityLabel(str, enum.Enum):
    IMPROVED = "improved"
    UNCHANGED = "unchanged"
    DEGRADED = "degraded"


class ComplianceLabel(str, enum.Enum):
    GAIN = "gain"
    LOSS = "loss"
    NEITHER = "neither"


QUALITY_LABELS = tuple(QualityLabel)  # improved, unchanged, degraded
COMPLIANCE_LABELS = tuple(ComplianceLabel)  # gain, loss, neither


def _label_indices(q, q0, tau):
    """(gap, quality, compliance): quality q against the baseline q0, and both against tau.

    Takes floats or arrays. The gap q - q0 improves quality above
    UNCHANGED_RTOL * (1 + |q0|) and degrades it below minus that; a NaN gap
    leaves it unchanged. Compliance is gained when q reaches tau and q0 does
    not, and lost the other way round. The labels index QUALITY_LABELS and
    COMPLIANCE_LABELS.
    """
    tol = UNCHANGED_RTOL * (1.0 + abs(q0))
    gap = q - q0
    quality = 1 - (gap > tol) + (gap < -tol)
    compliance = 2 - 2 * ((q >= tau) & (q0 < tau)) - ((q < tau) & (q0 >= tau))
    return gap, quality, compliance


@dataclass(frozen=True)
class QualityReport:
    """Quality with AI, the no-AI baseline, and the labels of their comparison."""

    q: float
    q0: float
    gap: float
    quality_label: QualityLabel
    compliance_label: ComplianceLabel

    @classmethod
    def from_values(cls, q: float, q0: float, tau: float) -> QualityReport:
        """The report comparing quality q with the baseline q0, and both with tau."""
        gap, quality, compliance = _label_indices(q, q0, tau)
        return cls(q, q0, gap, QUALITY_LABELS[quality], COMPLIANCE_LABELS[compliance])


@dataclass(frozen=True)
class RootResult:
    """A boundary location in alpha, flagged when no sign change was found.

    lo and hi are the search's final bracket, both the value at a search bound.
    """

    value: float
    bracketed: bool
    side: str = ""
    evaluations: int = field(default=0, repr=False, compare=False)  # calls of the sign function
    lo: float = field(default=math.nan, repr=False, compare=False)
    hi: float = field(default=math.nan, repr=False, compare=False)


@dataclass(frozen=True)
class AtlasRow:
    alpha: float
    beta: float
    d_star: int
    s_star: float
    regime: Regime
    q: float
    q0: float
    gap: float
    quality_label: QualityLabel
    compliance_label: ComplianceLabel


@dataclass(frozen=True, eq=False)
class AtlasGrid:
    """The quality map as beta-major columns, one entry per AtlasRow field.

    regime, quality_label and compliance_label hold indices into REGIMES,
    QUALITY_LABELS and COMPLIANCE_LABELS. Iterating yields AtlasRow values.
    """

    alpha: np.ndarray
    beta: np.ndarray
    d_star: np.ndarray
    s_star: np.ndarray
    regime: np.ndarray
    q: np.ndarray
    q0: np.ndarray
    gap: np.ndarray
    quality_label: np.ndarray
    compliance_label: np.ndarray

    def __len__(self):
        return len(self.alpha)

    def __iter__(self):
        columns = [getattr(self, f.name).tolist() for f in fields(self)]
        for alpha, beta, d, s, r, q, q0, gap, ql, cl in zip(*columns):
            yield AtlasRow(alpha, beta, d, s, REGIMES[r], q, q0, gap,
                           QUALITY_LABELS[ql], COMPLIANCE_LABELS[cl])


class ActionColumns(NamedTuple):
    """optimal_action at many points, as columns; regime holds indices into REGIMES."""

    d_star: np.ndarray
    s_star: np.ndarray
    regime: np.ndarray
    s_dagger: np.ndarray


def _scores(params: ModelParams, phi, c_w, s, d):
    """(q, q0): quality at the action (d, s), given phi(s) and C_w, and the no-AI baseline.

    Takes floats or arrays and checks nothing.
    """
    return (institution_value(params, *outcome_at(params, phi, c_w, s, d)),
            institution_value(params, params.p_w, c_w))


def evaluate_point(params: ModelParams, ability: Ability) -> tuple[OptimalAction, QualityReport]:
    """Solve the worker problem once and report quality at the optimum.

    The worker solves under params.worker_view(); q, the baseline q0 and
    the labels against tau are scored under params.
    """
    act = optimal_action(params, ability)
    # optimal_action has checked beta, alpha and the products; its worker view differs in p_a only
    phi = float(params.detection.prob(ability.alpha, act.s_star))
    c_w = params.execution_cost.unchecked_cost(ability.beta)
    return act, QualityReport.from_values(*_scores(params, phi, c_w, act.s_star, act.d_star),
                                          params.tau)


def quality(params: ModelParams, ability: Ability) -> QualityReport:
    return evaluate_point(params, ability)[1]


def _bisect_boundary(fn, guess: float | None = None) -> RootResult:
    """Infimum of {alpha : fn(alpha) > 0} for non-decreasing fn, with flags.

    The root is bisect's on [0, hi], hi the first of 10, 20, 40, ...,
    _SEARCH_CAP where fn is positive. Before bisect, Illinois steps (regula
    falsi that halves the kept end's value after two steps on one side)
    narrow a sure bracket (a, b) from (0, hi): a moves only to points where
    fn < -m, b only to points where fn > m, with the margin m = _MARGIN
    times the larger |fn| at 0 and hi. So fn <= 0 up to a and fn > 0 from b
    on, even if every value is off by less than m / 2. The first step is at
    guess when it lies in (a, b). The steps stop at the first value within
    the margin, after one probe at the tolerance on either side of it.
    Before each step, bisect's own bracket (lo, up) takes every bisect step
    whose midpoint lies outside (a, b), which (a, b) settles with no call.
    bisect then continues from (lo, up), calls fn only at midpoints inside
    (a, b), and at no point twice: it takes the steps of plain bisection,
    and ends on its bracket, whenever fn's rounding errors stay under m / 2.

    The steps' budget, as ITP bounds regula falsi, is _STEP_SLACK sign
    calls beyond those at 0 and hi, plus one per settled bisect step. At
    the budget a step is bisect's next midpoint, which bisect calls anyway,
    and the probes are skipped. So no root takes more than _STEP_SLACK
    calls over plain bisection. There are no steps unless both end values
    lie beyond the margin (so are finite): an end within it could never
    move, and the search is plain bisection.
    """
    seen = {}

    def sign(alpha):
        value = seen.get(alpha)
        if value is None:
            value = seen[alpha] = fn(alpha)
        return value

    a, fa = 0.0, sign(0.0)
    if fa > 0.0:
        return RootResult(a, False, "low", len(seen), a, a)
    hi = _ALPHA_MAX
    while (fb := sign(hi)) <= 0.0:
        if hi >= _SEARCH_CAP:
            return RootResult(hi, False, "high", len(seen), hi, hi)
        hi *= 2.0
    b, margin, side = hi, _MARGIN * max(abs(fa), abs(fb)), 0
    steps = fa < -margin and fb > margin
    lo, up, limit = 0.0, hi, len(seen) + _STEP_SLACK
    x = guess
    while steps and b - a > _ALPHA_TOL:
        while not a < (mid := 0.5 * (lo + up)) < b:  # a bisect step that (a, b) settles
            lo, up = (mid, up) if mid <= a else (lo, mid)
            limit += 1
        if len(seen) >= limit:
            x = mid
        elif x is None or not a < x < b:
            x = a - fa * (b - a) / (fb - fa)
            if not a < x < b:
                x = 0.5 * (a + b)
        fx = sign(x)
        if fx < -margin:
            if side < 0:
                fb *= 0.5
            a, fa, side = x, fx, -1
        elif fx > margin:
            if side > 0:
                fa *= 0.5
            b, fb, side = x, fx, 1
        else:
            if len(seen) + 2 <= limit:
                for probe in (x - _ALPHA_TOL, x + _ALPHA_TOL):
                    if a < probe < b:
                        fp = sign(probe)
                        if fp < -margin:
                            a = probe
                        elif fp > margin:
                            b = probe
            break
        x = None
    lo, up = bisect(lambda alpha: alpha >= b or alpha > a and sign(alpha) > 0.0, lo, up, _ALPHA_TOL)
    return RootResult(0.5 * (lo + up), True, "", len(seen), lo, up)


def _warm_guess(roots: list, beta: float) -> float | None:
    """A curve's root at beta, on the line through its last two (beta, root) pairs.

    With one pair, or two at one beta, it is the last root; with none, None.
    """
    if len(roots) < 2 or roots[-1][0] == roots[-2][0]:
        return roots[-1][1] if roots else None
    (b0, r0), (b1, r1) = roots[-2:]
    return r1 + (r1 - r0) * (beta - b1) / (b1 - b0)


def _boundary(params: ModelParams, which: str, beta: float, t: float | None,
              history: dict | None = None) -> RootResult | None:
    """One separatrix at efficiency beta, or None on the side of t where it does not exist.

    t is read by psi0, psi1 and psi; psi0 exists for beta >= t and psi1
    for beta <= t, each up to 1e-9. checked_cost checks the point first, at
    alpha 0 for psi1 (closed form: it reads no alpha) and at _SEARCH_CAP
    for psi0 and the searches. psi0 at a delegation gain of 0 or more is
    psi1, with no search; elsewhere its sign function is optimal_action's
    f_w_at_s_dagger, bitwise, so its bracket straddles the solver's own
    regime switch. The searches evaluate the model's formulas in the model's
    order from what depends on beta alone, k_w under params.worker_view().
    history, kept by boundary_curve, holds each boundary's bracketed
    (beta, root) pairs; its last two give a search's first guess.
    """
    if which == "psi":
        base = (RootResult(0.0, True, "", 0, 0.0, 0.0) if beta < t
                else _boundary(params, "psi0", beta, t, history))
        other = _boundary(params, "psi_prime", beta, t, history)
        both = base.evaluations + other.evaluations
        return replace(other if other.value >= base.value else base, evaluations=both)
    ability = Ability(0.0 if which == "psi1" else _SEARCH_CAP, beta)
    c_w = checked_cost(params, ability)
    if which == "psi0" and beta < t - 1e-9 or which == "psi1" and beta > t + 1e-9:
        return None
    det, vcost = params.detection, params.verification_cost
    worker = params.worker_view()
    k_w = phi_coefficients(worker, c_w)[0]
    roots = [] if history is None else history.setdefault(which, [])
    if which == "psi1" or which == "psi0" and delegation_gain(worker, ability) >= 0.0:
        # k_w phi'(0) = k_w scale alpha meets C_v'(0), in both families
        root = vcost.slope(0.0) / slope if (slope := k_w * det.scale) > 0.0 else math.inf
        value = min(root, _SEARCH_CAP)
        res = RootResult(value, value == root, "" if value == root else "high", 0, value, value)
    else:
        g_i, tau = institution_value(params, params.p_w, c_w), params.tau
        k_i = phi_coefficients(params, c_w)[1]

        def sign(alpha):
            s = maximize_surplus(det, alpha, vcost, k_w)
            phi = float(det.prob(alpha, s))
            c_v = vcost.cost(s)
            if which == "psi0":
                return worker_increment(worker, k_w, phi, c_w, c_v)
            f_i = institution_increment(params, k_i, phi, c_w, c_v)
            return f_i if which == "psi_prime" else g_i + f_i - tau

        res = _bisect_boundary(sign, _warm_guess(roots, beta))
    if res.bracketed:
        roots.append((beta, res.value))
    return res


def _domain_boundary(params: ModelParams, which: str, beta: float, side: str) -> RootResult:
    t = manual_delegation_threshold(params).value
    res = _boundary(params, which, beta, t)
    if res is None:
        raise ValueError(f"{which} needs beta {side} t={t:.6g}, got {beta}")
    return res


def psi0(params: ModelParams, beta: float) -> RootResult:
    """Boundary between manual work and verified delegation at efficiency beta.

    Defined for beta at or above the manual-delegation threshold, where the
    delegation increment at the optimal verification effort crosses zero.
    """
    return _domain_boundary(params, "psi0", beta, ">=")


def psi1(params: ModelParams, beta: float) -> RootResult:
    """Boundary between pure and verified delegation at efficiency beta.

    Defined for beta at or below the manual-delegation threshold, where the
    marginal verification surplus at zero effort crosses zero.
    """
    return _domain_boundary(params, "psi1", beta, "<=")


def psi_prime(params: ModelParams, beta: float) -> RootResult:
    """Reliability at which delegation stops hurting the institution."""
    return _boundary(params, "psi_prime", beta, None)


def psi(params: ModelParams, beta: float) -> RootResult:
    """Quality-improvement boundary: above it, AI access raises quality.

    The manual-work boundary is extended by zero below the delegation
    threshold before taking the pointwise maximum with the institutional
    break-even boundary.
    """
    return _boundary(params, "psi", beta, manual_delegation_threshold(params).value)


def psi_tau(params: ModelParams, beta: float, tau: float | None = None) -> RootResult:
    """Reliability at which quality under delegation reaches tau.

    A tau given here is set as replace(params, tau=tau), through ModelParams' checks.
    """
    if tau is not None:
        params = replace(params, tau=tau)
    return _boundary(params, "psi_tau", beta, None)


def separatrix_intersection(params: ModelParams) -> tuple[float, float]:
    """(alpha, beta) where the quality boundary meets the manual-work boundary.

    Searches beta above the manual-delegation threshold, up to the top of
    the efficiency domain (or max(1, 2t) when it is unbounded), for the
    crossing of the institutional break-even boundary with psi0.
    """
    t = manual_delegation_threshold(params).value
    beta_hi = params.execution_cost.beta_domain()[1]
    if math.isinf(beta_hi):
        beta_hi = max(1.0, 2.0 * t)

    def diff(beta):
        return (_boundary(params, "psi_prime", beta, t).value
                - _boundary(params, "psi0", beta, t).value)

    lo = t + 1e-6  # past beta_hi when t is at the top of the domain
    if not lo < beta_hi or diff(lo) <= 0.0 or diff(beta_hi) >= 0.0:
        raise ValueError("boundaries do not cross in the searched beta interval")
    lo, hi = bisect(lambda beta: not diff(beta) > 0.0, lo, beta_hi, _BETA_TOL)
    beta_star = 0.5 * (lo + hi)
    return _boundary(params, "psi0", beta_star, t).value, beta_star


def linspace_range(bounds: tuple[float, float, int]) -> np.ndarray:
    start, stop, count = bounds
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"range count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("range count must be >= 1")
    return np.linspace(start, stop, count)


def checked_points(params: ModelParams, alpha, beta):
    """(alpha, beta, C_w) as float arrays, ready for the array path.

    Every point is checked first, and the first invalid one raises what the
    scalar path raises there: the replay builds its Ability and passes it to
    checked_cost, as optimal_action does. The replay reads params as
    scalars, so params with array fields (only extensions.difficulty_params
    builds them) need points already checked.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.ndim != 1 or beta.shape != alpha.shape:
        raise ValueError("alpha and beta must be 1-d arrays of one length")
    # the products may overflow, or be inf * 0, here; those points fail the check
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c_w = params.execution_cost.unchecked_cost(beta)
        # kappa * C_w < inf also tests C_w < inf, at kappa = 0 too (0 * inf is nan)
        bad = ~((alpha >= 0.0) & (params.detection.scale * alpha < math.inf) & (beta < math.inf)
                & params.execution_cost.in_domain(beta) & (params.kappa * c_w < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        checked_cost(params, Ability(float(alpha[k]), float(beta[k])))
    return alpha, beta, c_w


def _solve(params: ModelParams, alpha: np.ndarray, c_w: np.ndarray) -> ActionColumns:
    """optimal_action's branches as array steps, at checked points with manual cost c_w."""
    params = params.worker_view()
    det, vcost = params.detection, params.verification_cost
    k_w = phi_coefficients(params, c_w)[0]
    s_dag = maximize_surplus_array(det, alpha, vcost, k_w)
    f_w = worker_increment(params, k_w, det.prob(alpha, s_dag), c_w, vcost.cost(s_dag))
    return ActionColumns(*choose_regime(f_w, s_dag), s_dag)


def solve_actions(params: ModelParams, alpha, beta) -> ActionColumns:
    """optimal_action at every point, in one array pass; the arguments are solve_points'."""
    alpha, _, c_w = checked_points(params, alpha, beta)
    return _solve(params, alpha, c_w)


def solve_points(params: ModelParams, alpha, beta) -> AtlasGrid:
    """evaluate_point at every (alpha[k], beta[k]), in one array pass.

    alpha and beta are matching 1-d arrays, and every point is checked
    before any work. The arrays run the model's formulas and the solver's
    array branch points, so every entry equals evaluate_point at that point
    bitwise. The formulas read params' fields element by element, so
    params may hold arrays with one entry per point; only
    extensions.difficulty_params builds such params, and point k is then
    solved at its k-th values.
    """
    alpha, beta, c_w = checked_points(params, alpha, beta)
    d_star, s_star, regime, _ = _solve(params, alpha, c_w)
    q, q0 = _scores(params, params.detection.prob(alpha, s_star), c_w, s_star, d_star)
    gap, quality_label, compliance_label = _label_indices(q, q0, params.tau)
    return AtlasGrid(alpha=alpha, beta=beta, d_star=d_star, s_star=s_star, regime=regime,
                     q=q, q0=q0, gap=gap, quality_label=quality_label,
                     compliance_label=compliance_label)


def grid_columns(alpha_range: tuple[float, float, int],
                 beta_range: tuple[float, float, int]) -> tuple[np.ndarray, np.ndarray]:
    """The alpha and beta columns of a grid, beta-major.

    Row k sits at beta index k // n_alpha and alpha index k % n_alpha.
    """
    alphas = linspace_range(alpha_range)
    betas = linspace_range(beta_range)
    return np.tile(alphas, len(betas)), np.repeat(betas, len(alphas))


def sweep_grid(params: ModelParams, alpha_range: tuple[float, float, int],
               beta_range: tuple[float, float, int]) -> AtlasGrid:
    """Evaluate the quality map on the grid_columns grid, in one array pass.

    An invalid grid fails at its first invalid row.
    """
    return solve_points(params, *grid_columns(alpha_range, beta_range))


def boundary_curve(params: ModelParams, which: str, betas) -> list[tuple[float, float, bool]]:
    """(beta, alpha, bracketed) samples of one separatrix, restricted to its beta domain.

    which is psi0, psi1, psi or psi_tau. A beta that checked_cost rejects
    raises; psi0 and psi1 skip the betas on the other side of t. bracketed is
    RootResult.bracketed: False when alpha is a search bound (0 or the doubled
    cap), not a root.
    Each search (psi's two apart) takes its first step at the root that
    its last two bracketed roots extrapolate to; the roots are bitwise
    those of single calls.
    """
    if which not in BOUNDARIES:
        raise ValueError(f"unknown boundary {which!r}")
    t = manual_delegation_threshold(params).value
    out, history = [], {}
    for beta in betas:
        beta = float(beta)
        res = _boundary(params, which, beta, t, history)
        if res is not None:
            out.append((beta, res.value, res.bracketed))
    return out


def fmt(x: float) -> str:
    return f"{x:.9g}"


ATLAS_HEADER = ["alpha", "beta", "d_star", "s_star", "regime",
                "q", "q0", "gap", "quality", "compliance"]
# CSV strings of the label columns, looked up by the grid's indices
_LABEL_VALUES = {name: np.array([m.value for m in members], dtype=object)
                 for name, members in (("regime", REGIMES), ("quality_label", QUALITY_LABELS),
                                       ("compliance_label", COMPLIANCE_LABELS))}


def _csv_strings(column: np.ndarray) -> list:
    """The CSV strings of a block of one column: floats as fmt writes them, the rest with str.

    A numeric column formats each distinct value once and expands the
    strings by np.unique's inverse index. Floats are keyed by their bits,
    so -0.0 keeps its sign and every NaN still prints nan.
    """
    kind = column.dtype.kind
    if kind not in "biuf":
        values = column.tolist()  # a str is its own str
        return values if set(map(type, values)) == {str} else list(map(str, values))
    if kind == "f":
        bits, inverse = np.unique(column.astype(float, copy=False).view(np.int64),
                                  return_inverse=True)
        text = list(map(float.__format__, bits.view(float).tolist(), repeat(".9g")))
    else:
        values, inverse = np.unique(column, return_inverse=True)
        text = list(map(str, values.tolist()))
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(fileobj, columns):
    """Write columns, a list of (name, 1-d array) of one length, as CSV.

    Float columns are written as fmt writes them, others with str, a
    bounded block of rows at a time. A block is written column by column
    through _csv_strings, or, below _CSV_DISTINCT_ROWS rows, by one format
    string per row.
    """
    first, n = columns[0][0], len(columns[0][1])
    for name, column in columns:
        if len(column) != n:
            raise ValueError(f"CSV column {name!r} has {len(column)} rows, {first!r} has {n}")
    fileobj.write(",".join(name for name, _ in columns) + "\n")
    row = ",".join("%.9g" if column.dtype.kind == "f" else "%s" for _, column in columns) + "\n"
    for start in range(0, n, _CSV_BLOCK_ROWS):
        block = [column[start:start + _CSV_BLOCK_ROWS] for _, column in columns]
        if len(block[0]) < _CSV_DISTINCT_ROWS:
            fileobj.write("".join(map(row.__mod__, zip(*(column.tolist() for column in block)))))
        else:
            fileobj.write("\n".join(map(",".join, zip(*map(_csv_strings, block)))) + "\n")


def atlas_columns(grid: AtlasGrid) -> list:
    """The grid as write_csv columns under ATLAS_HEADER, labels as their CSV strings."""
    columns = []
    for name, f in zip(ATLAS_HEADER, fields(grid)):
        column = getattr(grid, f.name)
        columns.append((name, _LABEL_VALUES[f.name][column] if f.name in _LABEL_VALUES else column))
    return columns


def write_atlas_csv(grid: AtlasGrid, fileobj):
    """Write the grid as CSV, formatting a bounded block of rows at a time."""
    write_csv(fileobj, atlas_columns(grid))


def write_boundary_csv(points, fileobj):
    """Write boundary_curve's samples as beta,alpha,bracketed rows, the flag as 1 or 0."""
    table = np.array(points, dtype=float).reshape(-1, 3)
    write_csv(fileobj, [("beta", table[:, 0]), ("alpha", table[:, 1]),
                        ("bracketed", table[:, 2].astype(np.int64))])
