"""Model extensions: heterogeneous difficulty, miscalibrated beliefs, partial redo.

Each extension perturbs the base model independently. Difficulty makes
success probabilities and costs depend on a task-hardness level h and
integrates quality over its distribution; belief solves the worker problem
under a wrong AI success probability but scores it under the true one;
partial re-execution discounts the cost of redoing work after a detected
AI error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atlas import QualityReport, evaluate_point
from .model import (
    LINEAR, Ability, Action, ModelParams, VerificationCost, coefficients, institutional_utility,
)
from .solver import OptimalAction, bisect, optimal_action


def _affine(pair, h):
    return pair[0] + pair[1] * h


@dataclass(frozen=True)
class DifficultyProfile:
    """Difficulty-dependent success probabilities and cost scales on h in [0, 1].

    Success probabilities are affine and non-increasing in h; the execution
    cost scale and the linear verification rate are affine and
    non-decreasing. difficulty pins a single hardness level; None draws h
    uniformly on [0, 1], integrated with Gauss-Legendre quadrature.
    """

    worker_success: tuple[float, float] = (1.0, -0.5)
    ai_success: tuple[float, float] = (1.0, -0.7)
    execution_scale: tuple[float, float] = (0.0, 10.0)
    verification_rate: tuple[float, float] = (0.5, 1.0)
    difficulty: float | None = None
    nodes: int = 64

    def __post_init__(self):
        for pair in (self.worker_success, self.ai_success):
            if pair[1] > 0:
                raise ValueError("success probabilities must not increase with difficulty")
            for h in (0.0, 1.0):
                if not 0.0 <= _affine(pair, h) <= 1.0:
                    raise ValueError("success probability leaves [0, 1] on [0, 1]")
        for pair in (self.execution_scale, self.verification_rate):
            if pair[1] < 0:
                raise ValueError("cost scales must not decrease with difficulty")
            if _affine(pair, 0.0) < 0:
                raise ValueError("cost scales must be non-negative")
        if self.difficulty is not None and not 0.0 <= self.difficulty <= 1.0:
            raise ValueError("difficulty must lie in [0, 1]")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")

    def params_at(self, base: ModelParams, h: float) -> ModelParams:
        return replace(
            base,
            p_w=_affine(self.worker_success, h),
            p_a=_affine(self.ai_success, h),
            execution_cost=replace(base.execution_cost, scale=_affine(self.execution_scale, h)),
            verification_cost=VerificationCost(LINEAR, _affine(self.verification_rate, h)),
        )


@dataclass(frozen=True)
class Belief:
    """AI success probability the worker plans around, true or not."""

    ai_success: float

    def __post_init__(self):
        if not 0.0 <= self.ai_success <= 1.0:
            raise ValueError("believed success probability must lie in [0, 1]")


@dataclass(frozen=True)
class Rework:
    """Discount on the cost of redoing a task after a detected AI error.

    kappa = 1 recovers the base model; kappa = 0 makes correction free.
    """

    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")


def unit_quadrature(nodes: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _solution_state(params, ability, profile, h):
    act = evaluate_point(profile.params_at(params, h), ability)[0]
    clamp = 0 if act.s_dagger <= 0.0 else (2 if act.s_dagger >= 1.0 else 1)
    return act.regime, clamp


def _smooth_breakpoints(params, ability, profile, probe=257):
    """Difficulty levels where the optimal action changes branch.

    Quality is smooth in h only between regime switches and effort-clamp
    transitions; integrating across those kinks would wreck the quadrature
    order, so they become segment boundaries. Probing happens at cell
    midpoints because the cost maps may only be valid on the open interval.
    """
    hs = (np.arange(probe) + 0.5) / probe
    states = [_solution_state(params, ability, profile, float(h)) for h in hs]
    cuts = [0.0]
    for i in range(probe - 1):
        if states[i] == states[i + 1]:
            continue
        lo, hi = bisect(lambda h: _solution_state(params, ability, profile, h) != states[i],
                        float(hs[i]), float(hs[i + 1]), 0.0, steps=45)
        cuts.append(0.5 * (lo + hi))
    cuts.append(1.0)
    return cuts


def expected_quality(params: ModelParams, ability: Ability,
                     profile: DifficultyProfile) -> QualityReport:
    """Quality and baseline integrated over the task-difficulty distribution.

    The worker re-solves the optimal action at every difficulty level.
    Integration is Gauss-Legendre with profile.nodes nodes on each smooth
    segment between detected action-branch switches; labels are assigned
    to the integrated values.
    """
    if profile.difficulty is not None:
        _, rep = evaluate_point(profile.params_at(params, profile.difficulty), ability, params.tau)
        return rep
    base_h, base_w = unit_quadrature(profile.nodes)
    q = 0.0
    q0 = 0.0
    cuts = _smooth_breakpoints(params, ability, profile)
    for lo, hi in zip(cuts, cuts[1:]):
        width = hi - lo
        if width <= 0.0:
            continue
        for x, w in zip(base_h, base_w):
            h = lo + width * float(x)
            _, rep = evaluate_point(profile.params_at(params, h), ability, params.tau)
            q += width * w * rep.q
            q0 += width * w * rep.q0
    return QualityReport.from_values(q, q0, params.tau)


def believed_action_quality(params: ModelParams, ability: Ability,
                            belief: Belief) -> tuple[OptimalAction, QualityReport]:
    """Action optimized under the believed AI ability, scored under the true one."""
    act = optimal_action(params.with_ai_success(belief.ai_success), ability)
    q0 = coefficients(params, ability, 0.0).g_i
    q = institutional_utility(params, ability, Action(float(act.d_star), act.s_star))
    return act, QualityReport.from_values(q, q0, params.tau)


def rework_quality(params: ModelParams, ability: Ability,
                   rework: Rework) -> tuple[OptimalAction, QualityReport]:
    """Optimal action and quality when detected errors cost kappa * C_w to fix.

    This is the base model with the redo cost scaled by kappa, on both
    sides: the worker's surplus from detection and the institution's
    discounted correction cost. The no-AI baseline is unchanged.
    """
    return evaluate_point(params, ability, kappa=rework.kappa)
