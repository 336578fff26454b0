"""Random valid model configurations for property checks and the selfcheck command.

Sampled configurations satisfy the regularity conditions the regime
results rely on: institutional dominance, non-negative pre-AI worker
utility, and a non-negative detection coefficient across the whole
efficiency domain (checked at the costliest efficiency).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .model import (
    EXPONENTIAL, INVERSE_EFFICIENCY, INVERSE_LINEAR, LINEAR,
    LINEAR_IN_EFFICIENCY, LINEAR_QUADRATIC,
    Ability, Detection, ExecutionCost, ModelParams, VerificationCost,
)

# efficiency interval per execution cost family that sample_params' viability
# slack covers, and that sample_ability draws beta from
_BETA_SPAN = {LINEAR_IN_EFFICIENCY: (0.0, 1.0), INVERSE_EFFICIENCY: (0.2, 3.0)}


class Uniform(Protocol):
    """A generator with uniform(lo, hi), such as random.Random or np.random.Generator."""

    def uniform(self, lo: float, hi: float, /) -> float: ...


def sample_params(rng: np.random.Generator, execution_kind: str | None = None) -> ModelParams:
    if execution_kind is None:
        execution_kind = LINEAR_IN_EFFICIENCY if rng.random() < 0.7 else INVERSE_EFFICIENCY
    detection = Detection(EXPONENTIAL if rng.random() < 0.5 else INVERSE_LINEAR,
                          scale=float(rng.uniform(0.5, 4.0)))
    if rng.random() < 0.7:
        verification = VerificationCost(LINEAR, k=float(rng.uniform(0.3, 3.0)))
    else:
        verification = VerificationCost(LINEAR_QUADRATIC)
    execution = ExecutionCost(execution_kind, scale=float(rng.uniform(0.5, 6.0)))

    p_a = float(rng.uniform(0.2, 0.9))
    p_w = float(rng.uniform(0.3, 0.95))
    l_w = float(rng.uniform(0.0, 4.0))
    # worst-case manual cost over the abilities sample_ability can draw: C_w
    # falls as beta rises, so it is the cost at the low end of the span
    c_w_max = execution.cost(_BETA_SPAN[execution_kind][0])
    # keep g_w = (b_w + l_w) p_w - l_w - c_w >= 0 with slack everywhere
    b_w = ((l_w + c_w_max) / p_w - l_w) * float(rng.uniform(1.05, 2.5))
    stakes = b_w + l_w
    xi = float(rng.uniform(0.1, 0.9))
    inst_stakes = xi * stakes * float(rng.uniform(1.1, 3.0))
    share = float(rng.uniform(0.3, 0.7))
    b_i, l_i = share * inst_stakes, (1.0 - share) * inst_stakes
    c_a = float(rng.uniform(0.0, 0.3) * execution.scale)
    tau = float(rng.uniform(0.0, inst_stakes * p_w))
    return ModelParams(b_w=b_w, l_w=l_w, b_i=b_i, l_i=l_i, xi=xi, tau=tau,
                       p_a=p_a, c_a=c_a, p_w=p_w,
                       detection=detection, verification_cost=verification,
                       execution_cost=execution)


def sample_ability(rng: Uniform, params: ModelParams) -> Ability:
    """A worker drawn uniformly: alpha on [0, 3], beta on beta_span(params).

    rng is any generator with uniform(lo, hi); the two draws are its only calls.
    """
    alpha = float(rng.uniform(0.0, 3.0))
    return Ability(alpha, float(rng.uniform(*beta_span(params))))


def beta_span(params: ModelParams) -> tuple[float, float]:
    """Efficiency interval compatible with sample_params' viability slack."""
    return _BETA_SPAN[params.execution_cost.kind]
