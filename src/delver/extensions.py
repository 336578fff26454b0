"""Model extensions: heterogeneous difficulty and partial redo.

Difficulty makes success probabilities and costs depend on a task-hardness
level h and integrates quality over its distribution; partial re-execution
discounts the cost of redoing work after a detected AI error. A
miscalibrated belief about the AI is no extension here but the ModelParams
field believed_p_a, which the worker's side of the base model reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .atlas import QualityReport, evaluate_point, solve_actions, solve_points
from .model import Ability, ModelParams, check_kappa, point_params, reject_bools
from .solver import OptimalAction, bisect_array

_PROBE_LEVELS = 257  # difficulty cells probed for action-branch switches
_MAX_NODES = 1024  # leggauss builds a nodes x nodes matrix: 8 MiB here, 71 PiB at 1e8
# point_params' values at hardness h, as (intercept, slope) in h
_PROFILE = {"p_w": (1.0, -0.5), "p_a": (1.0, -0.7), "execution_scale": (0.0, 10.0),
            "verification_rate": (0.5, 1.0)}


@dataclass(frozen=True)
class DifficultyProfile:
    """Difficulty-dependent success probabilities and cost scales on h in [0, 1].

    At hardness h the worker succeeds with p_w = 1 - 0.5 h and the AI with
    p_a = 1 - 0.7 h; the execution cost scale is 10 h and the linear
    verification rate 0.5 + h. difficulty pins a single hardness level in
    (0, 1], since at h = 0 there is no execution cost scale; None draws h
    uniformly on [0, 1], integrated with Gauss-Legendre quadrature on nodes
    nodes per smooth segment, which never evaluates h = 0. nodes is an
    integer in [1, _MAX_NODES].
    """

    difficulty: float | None = None
    nodes: int = 64

    def __post_init__(self):
        reject_bools(self, ("difficulty",))
        if self.difficulty is not None and not 0.0 < self.difficulty <= 1.0:
            raise ValueError(f"difficulty must lie in (0, 1], got {self.difficulty}")
        if (isinstance(self.nodes, bool) or not isinstance(self.nodes, (int, np.integer))
                or not 1 <= self.nodes <= _MAX_NODES):
            raise ValueError(f"nodes must be an integer in [1, {_MAX_NODES}], got {self.nodes}")

    def values_at(self, h) -> dict:
        """point_params' values at difficulty h, a float or an array of levels."""
        return {name: intercept + slope * h for name, (intercept, slope) in _PROFILE.items()}

    def params_at(self, base: ModelParams, h: float) -> ModelParams:
        return point_params(base, **self.values_at(h))


@dataclass(frozen=True)
class Rework:
    """Discount on the cost of redoing a task after a detected AI error.

    kappa = 1 recovers the base model; kappa = 0 makes correction free.
    """

    kappa: float

    def __post_init__(self):
        reject_bools(self, ("kappa",))
        check_kappa(self.kappa)


@functools.lru_cache(maxsize=32)
def unit_quadrature(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached per node count and read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    h, w = 0.5 * (x + 1.0), 0.5 * w
    h.flags.writeable = w.flags.writeable = False
    return h, w


def _at_levels(solve, params: ModelParams, ability: Ability, profile: DifficultyProfile, h):
    """solve (solve_actions or solve_points) for the worker at each difficulty level in h."""
    n = len(h)
    return solve(params, np.full(n, ability.alpha), np.full(n, ability.beta),
                 **profile.values_at(h))


def _branch(params, ability, profile, h) -> np.ndarray:
    """The optimal action's branch at each level in h: regime, and s_dagger at 0, inside or at 1."""
    act = _at_levels(solve_actions, params, ability, profile, h)
    return 3 * act.regime + np.where(act.s_dagger <= 0.0, 0, np.where(act.s_dagger >= 1.0, 2, 1))


def _smooth_breakpoints(params, ability, profile):
    """Difficulty levels where the optimal action changes branch, with 0 and 1.

    Quality is smooth in h only between regime switches and effort-clamp
    transitions; integrating across those kinks would wreck the quadrature
    order, so they become segment boundaries. Probing happens at cell
    midpoints because the cost maps may only be valid on the open interval.
    Each kink is placed by 45 bisection steps at tol 0, all kinks at once,
    in ceil(45 / depth) solves: bisect_array asks about depth steps per
    solve, 10 for one kink down to 7 for five.
    """
    hs = (np.arange(_PROBE_LEVELS) + 0.5) / _PROBE_LEVELS
    branch = _branch(params, ability, profile, hs)
    kinks = np.flatnonzero(branch[:-1] != branch[1:])
    lo, hi = bisect_array(lambda k, h: _branch(params, ability, profile, h) != branch[kinks[k]],
                          hs[kinks], hs[kinks + 1], 0.0, steps=45)
    return np.concatenate(([0.0], 0.5 * (lo + hi), [1.0]))


def expected_quality(params: ModelParams, ability: Ability,
                     profile: DifficultyProfile) -> QualityReport:
    """Quality and baseline integrated over the task-difficulty distribution.

    The worker re-solves the optimal action at every difficulty level.
    Integration is Gauss-Legendre with profile.nodes nodes on each smooth
    segment between detected action-branch switches; labels are assigned
    to the integrated values. All nodes of all segments are solved in one
    solve_points call, and the weighted values are summed node by node in
    segment order, as a running sum.
    """
    if profile.difficulty is not None:
        grid = _at_levels(solve_points, params, ability, profile, np.array([profile.difficulty]))
        return QualityReport.from_values(float(grid.q[0]), float(grid.q0[0]), params.tau)
    base_h, base_w = unit_quadrature(profile.nodes)
    cuts = _smooth_breakpoints(params, ability, profile)
    lo, width = cuts[:-1], np.diff(cuts)
    lo, width = lo[width > 0.0, None], width[width > 0.0, None]
    grid = _at_levels(solve_points, params, ability, profile, (lo + width * base_h).ravel())
    weight = (width * base_w).ravel()
    # np.cumsum adds left to right, as the running sum does; numpy's sum
    # adds pairwise and would change the last bits
    q = np.cumsum(np.concatenate(([0.0], weight * grid.q)))[-1]
    q0 = np.cumsum(np.concatenate(([0.0], weight * grid.q0)))[-1]
    return QualityReport.from_values(q, q0, params.tau)


def rework_quality(params: ModelParams, ability: Ability,
                   rework: Rework) -> tuple[OptimalAction, QualityReport]:
    """Optimal action and quality when detected errors cost kappa * C_w to fix.

    This is the base model with the redo cost scaled by kappa, on both
    sides: the worker's surplus from detection and the institution's
    discounted correction cost. The no-AI baseline is unchanged.
    """
    return evaluate_point(replace(params, kappa=rework.kappa), ability)
