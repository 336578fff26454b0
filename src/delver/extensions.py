"""Model extension: heterogeneous task difficulty.

A task-hardness level h is the base model under difficulty_params(params, h),
and expected_quality integrates quality over h uniform on [0, 1]. The other two
extensions are fields of the base model's parameters, not code here:
partial re-execution is ModelParams.kappa, which discounts the cost of
redoing work after a detected AI error, and a miscalibrated belief about
the AI is ModelParams.believed_p_a, which the worker's side reads.
"""

from __future__ import annotations

import functools

import numpy as np

from .atlas import QualityReport, checked_points, solve_actions, solve_points
from .model import LINEAR, ModelParams, VerificationCost, replace_unchecked
from .solver import bisect_array

_PROBE_LEVELS = 257  # difficulty cells probed for action-branch switches
_BLOCK_POINTS = 512  # points per batched pass up to 64 nodes: 131,584 probe rows
# Newton's method on the Legendre recurrence takes O(nodes^2) time: about
# 35 ms at 1024 nodes in a fresh process, and years at 1e8
_MAX_NODES = 1024


def check_nodes(nodes) -> int:
    """nodes as an int; a node count is an integer in [1, _MAX_NODES]."""
    if (isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer))
            or not 1 <= nodes <= _MAX_NODES):
        raise ValueError(f"nodes must be an integer in [1, {_MAX_NODES}], got {nodes}")
    return int(nodes)


def difficulty_params(params: ModelParams, h) -> ModelParams:
    """params at task hardness h: a level in (0, 1], or an array with one level per point.

    At hardness h the worker succeeds with p_w = 1 - 0.5 h and the AI with
    p_a = 1 - 0.7 h; the execution cost scale is 10 h and the linear
    verification rate 0.5 + h. A level (a float, a numpy scalar or a 0-d
    array) is checked (at h = 0 there is no execution cost scale); a 1-d
    array, which only expected_quality's passes build, is not, and skips
    the constructors' checks, which reject arrays. Nothing else builds
    params with array fields.
    """
    if np.ndim(h) == 0:
        if np.asarray(h).dtype == bool:
            raise ValueError(f"'difficulty' must be a number, got {h!r}")
        if not 0.0 < h <= 1.0:
            raise ValueError(f"difficulty must lie in (0, 1], got {h}")
    return replace_unchecked(
        params, p_w=1.0 - 0.5 * h, p_a=1.0 - 0.7 * h,
        execution_cost=replace_unchecked(params.execution_cost, scale=10.0 * h),
        verification_cost=replace_unchecked(VerificationCost(LINEAR), k=0.5 + h))


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes on [-1, 1] in ascending order, and their weights.

    Newton's method on the roots of P_n in [0, 1), all at once, from the
    starts cos(pi (k - 1/4) / (n + 1/2)), k = 1, 2, ...: each step evaluates
    P_n by the three-term recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1)
    P_(k-2), and P_n' from P_n and P_(n-1). From these starts every root's
    step falls to 1e-15 or less by the 4th step (the 5th for 6 of the node
    counts up to 1024), where the search stops; 10 steps is the cap. The
    weights are 2 / ((1 - x)(1 + x) P_n'(x)^2), with the last step's P_n',
    and the negative half mirrors the positive one exactly. Unlike numpy's
    leggauss, which takes the nodes as eigenvalues of a nodes x nodes
    matrix, it makes no LAPACK call, so it starts no BLAS thread.
    """
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    # odd n: the middle root is 0, where P_n(0) = 0 exactly, so no step moves it
    x[n // 2:] = 0.0
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((-x, x[::-1][n % 2:])), np.concatenate((w, w[::-1][n % 2:]))


@functools.lru_cache(maxsize=32, typed=True)  # typed, so True misses the rule cached for 1
def unit_quadrature(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached per node count and read-only.

    The nodes come from Newton's method on the Legendre recurrence
    (_gauss_legendre). nodes passes check_nodes; a count of another integer
    type, such as np.int64(8), shares the arrays of the int.
    """
    if type(nodes) is not int:
        return unit_quadrature(check_nodes(nodes))
    x, w = _gauss_legendre(check_nodes(nodes))
    h, w = 0.5 * (x + 1.0), 0.5 * w
    h.flags.writeable = w.flags.writeable = False
    return h, w


def _branch(params, alpha, beta, h) -> np.ndarray:
    """The optimal action's branch at each point and level: regime, and s_dagger's clamp."""
    act = solve_actions(difficulty_params(params, h), alpha, beta)
    return 3 * act.regime + np.where(act.s_dagger <= 0.0, 0, np.where(act.s_dagger >= 1.0, 2, 1))


def expected_quality(params: ModelParams, alpha, beta, nodes: int) -> list[QualityReport]:
    """Quality and baseline with hardness h uniform on [0, 1], one report per point.

    alpha and beta are matching 1-d arrays, as solve_points takes; nodes
    passes check_nodes. The worker re-solves the optimal action at every
    level, and quality is smooth in h only between the kinks where the
    action changes branch (regime or effort clamp), so each segment between
    them gets nodes Gauss-Legendre nodes, which never evaluate h = 0; labels
    are assigned to the integrated values. The points go in blocks of
    _BLOCK_POINTS up to 64 nodes, and of _BLOCK_POINTS * 257 / (4 nodes) above,
    in order, and each block makes three passes: the probe levels (cell
    midpoints, since the cost maps may only be valid on the open interval) of
    every point in one solve_actions call; every kink in one bisect_array call
    of 45 steps at tol 0; and the nodes in solve_points calls of at most
    _BLOCK_POINTS * 257 rows. Each point's weighted values are then summed in
    segment order as a running sum, so a report is bitwise the same whatever
    shares its block.
    """
    nodes = check_nodes(nodes)
    # C_w, and with it kappa * C_w, rises with h, and no check names h, so a grid
    # that passes at h = 1 passes at every level below; the passes below then
    # never reach the check's replay, which reads params as scalars
    alpha, beta, _ = checked_points(difficulty_params(params, 1.0), alpha, beta)
    # above 64 nodes a block holds fewer points, so that a node pass of about four
    # segments per point takes one solve_points call, and memory stays as at 64 nodes
    block = _BLOCK_POINTS * _PROBE_LEVELS // max(_PROBE_LEVELS, 4 * nodes)
    if len(alpha) > block:
        return [report for k in range(0, len(alpha), block) for report in expected_quality(
            params, alpha[k:k + block], beta[k:k + block], nodes)]
    n, hs = len(alpha), (np.arange(_PROBE_LEVELS) + 0.5) / _PROBE_LEVELS
    branch = _branch(params, alpha.repeat(_PROBE_LEVELS), beta.repeat(_PROBE_LEVELS),
                     np.tile(hs, n)).reshape(n, _PROBE_LEVELS)
    # every kink's point and probe cell, point by point and in h order
    point, cell = np.nonzero(branch[:, :-1] != branch[:, 1:])
    lo, hi = bisect_array(lambda k, h: _branch(params, alpha[point[k]], beta[point[k]], h)
                          != branch[point[k], cell[k]], hs[cell], hs[cell + 1], 0.0, steps=45)
    # each point's cuts 0, kinks, 1 in turn; the step back from one point's 1
    # to the next's 0 is the only negative width, so counting them gives the point
    cuts = np.insert(0.5 * (lo + hi), np.searchsorted(point, np.arange(2 * n) / 2),
                     np.tile([0.0, 1.0], n))
    width = np.diff(cuts)
    keep = width > 0.0
    at = np.cumsum(width < 0.0)[keep].repeat(nodes)
    base_h, base_w = unit_quadrature(nodes)
    h = (cuts[:-1][keep, None] + width[keep, None] * base_h).ravel()
    # the nodes in slices of a block's probe rows, whatever the kinks (one empty slice
    # for no points); the generator frees each slice's solve before the next
    rows = _BLOCK_POINTS * _PROBE_LEVELS
    grids = (solve_points(difficulty_params(params, h[k:k + rows]), alpha[at[k:k + rows]],
                          beta[at[k:k + rows]]) for k in range(0, max(len(h), 1), rows))
    values = np.concatenate([np.stack((grid.q, grid.q0)) for grid in grids], axis=1)
    weighted = (width[keep, None] * base_w).ravel() * values
    # np.add.at adds in index order from 0.0, as the running sum does; numpy's
    # sum adds pairwise and would change the last bits; tolist gives Python floats
    sums = np.zeros((2, n))
    np.add.at(sums, (slice(None), at), weighted)
    return [QualityReport.from_values(q, q0, params.tau) for q, q0 in sums.T.tolist()]
