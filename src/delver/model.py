"""Core model of delegated work with costly verification.

A worker facing a single task chooses a delegation probability d and a
verification effort s. Utilities for the worker and the institution are
both affine in d once s is fixed, which is what makes the rest of the
library (closed-form optima, regime boundaries, calibration) tractable.
This module holds the parameter containers, the function families for
detection and costs, the primitive quantities everything else is built
from, and check_assumptions, the check of the regularity conditions that
parameters can break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

EXPONENTIAL = "exponential"
INVERSE_LINEAR = "inverse_linear"
LINEAR = "linear"
LINEAR_QUADRATIC = "linear_quadratic"
LINEAR_IN_EFFICIENCY = "linear_in_efficiency"
INVERSE_EFFICIENCY = "inverse_efficiency"


@dataclass(frozen=True)
class Detection:
    """Error-detection probability family phi(s; alpha).

    kind "exponential": phi = 1 - exp(-scale * alpha * s)
    kind "inverse_linear": phi = 1 - 1 / (1 + scale * alpha * s)

    Both start at phi(0) = 0, are strictly increasing and strictly concave
    in s for alpha > 0, and non-decreasing in alpha.
    """

    kind: str
    scale: float = 2.0

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, INVERSE_LINEAR):
            raise ValueError(f"unknown detection family: {self.kind!r}")
        reject_bools(self, ("scale",))
        if not 0.0 < self.scale < math.inf:
            raise ValueError("detection scale must be finite and positive")

    def prob(self, alpha, s):
        x = self.scale * alpha * s
        if self.kind == EXPONENTIAL:
            return 1.0 - np.exp(-x)
        return 1.0 - 1.0 / (1.0 + x)

    def slope(self, alpha, s):
        """d phi / d s."""
        x = self.scale * alpha * s
        if self.kind == EXPONENTIAL:
            return self.scale * alpha * np.exp(-x)
        return self.scale * alpha / (1.0 + x) ** 2


@dataclass(frozen=True)
class VerificationCost:
    """Verification cost family C_v(s), zero at zero, increasing, convex.

    kind "linear": C_v = k * s
    kind "linear_quadratic": C_v = s + s^2 / 2  (k has no role, and stays 1)
    """

    kind: str
    k: float = 1.0

    def __post_init__(self):
        if self.kind not in (LINEAR, LINEAR_QUADRATIC):
            raise ValueError(f"unknown verification cost family: {self.kind!r}")
        reject_bools(self, ("k",))
        if self.kind == LINEAR and not 0.0 < self.k < math.inf:
            raise ValueError("linear verification cost needs a finite k > 0")
        if self.kind == LINEAR_QUADRATIC and self.k != 1.0:
            raise ValueError(f"linear_quadratic verification cost takes no k, got {self.k}")

    def cost(self, s):
        if self.kind == LINEAR:
            return self.k * s
        return s + 0.5 * s * s

    def slope(self, s):
        return self.k if self.kind == LINEAR else 1.0 + s


@dataclass(frozen=True)
class ExecutionCost:
    """Manual execution cost C_w(beta), strictly decreasing in efficiency.

    kind "linear_in_efficiency": C_w = scale * (1 - beta), beta in [0, 1]
    kind "inverse_efficiency":   C_w = scale / beta,       beta in (0, inf)

    Out-of-domain beta raises instead of clamping.
    """

    kind: str
    scale: float

    def __post_init__(self):
        if self.kind not in (LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY):
            raise ValueError(f"unknown execution cost family: {self.kind!r}")
        reject_bools(self, ("scale",))
        if not 0.0 < self.scale < math.inf:
            raise ValueError("execution cost scale must be finite and positive")

    def beta_domain(self):
        if self.kind == LINEAR_IN_EFFICIENCY:
            return 0.0, 1.0
        return 0.0, math.inf  # open at 0

    def in_domain(self, beta):
        """Whether beta lies in the efficiency domain; accepts floats or arrays."""
        if self.kind == LINEAR_IN_EFFICIENCY:
            return (0.0 <= beta) & (beta <= 1.0)
        return beta > 0.0

    def cost(self, beta):
        if not self.in_domain(beta):
            span = "[0, 1]" if self.kind == LINEAR_IN_EFFICIENCY else "(0, inf)"
            raise ValueError(f"beta={beta} outside {span} for {self.kind}")
        c_w = self.unchecked_cost(beta)
        if not c_w < math.inf:
            raise ValueError(f"beta={beta} is too small: the {self.kind} cost must be finite")
        return c_w

    def unchecked_cost(self, beta):
        """C_w(beta) without the domain check; accepts floats or arrays."""
        if self.kind == LINEAR_IN_EFFICIENCY:
            return self.scale * (1.0 - beta)
        return self.scale / beta

    def efficiency_at(self, c_w):
        """The beta where C_w is c_w, unchecked; under inverse_efficiency, inf for c_w <= 0."""
        if self.kind == LINEAR_IN_EFFICIENCY:
            return 1.0 - c_w / self.scale
        return self.scale / c_w if c_w > 0.0 else math.inf


_BOOLS = frozenset({bool, np.bool_})  # neither type can be subclassed


def reject_bools(obj, names) -> None:
    """Reject a bool in the named number fields of obj, as a config file's reader does."""
    for name in names:
        value = getattr(obj, name)
        if type(value) in _BOOLS:
            raise ValueError(f"{name!r} must be a number, got {value!r}")


@dataclass(frozen=True)
class Ability:
    """Worker ability pair: verification reliability and execution efficiency."""

    alpha: float
    beta: float

    def __post_init__(self):
        # two type lookups first, as an Ability is built for every boundary root search
        if type(self.alpha) in _BOOLS or type(self.beta) in _BOOLS:
            reject_bools(self, ("alpha", "beta"))
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass(frozen=True)
class Action:
    """A (d, s) pair: delegation probability and verification effort."""

    d: float
    s: float

    def __post_init__(self):
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("d must lie in [0, 1]")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("s must lie in [0, 1]")


@dataclass(frozen=True)
class ModelParams:
    """Task profile, AI characteristics, and baseline worker characteristics.

    b_w / l_w: worker benefit from success and loss from failure
    b_i / l_i: institutional benefit and loss
    xi:        institutional discount on the worker's cost
    tau:       qualification threshold on institutional utility, any finite value
    p_a / c_a: AI success probability and execution cost
    p_w:       worker success probability
    kappa:     redo discount: fixing a detected AI error costs kappa * C_w
    believed_p_a: the AI success probability the worker plans with; None means p_a
    """

    b_w: float
    l_w: float
    b_i: float
    l_i: float
    xi: float
    tau: float
    p_a: float
    c_a: float
    p_w: float
    detection: Detection
    verification_cost: VerificationCost
    execution_cost: ExecutionCost
    kappa: float = 1.0
    believed_p_a: float | None = None

    def __post_init__(self):
        reject_bools(self, ("b_w", "l_w", "b_i", "l_i", "xi", "tau", "p_a", "c_a", "p_w", "kappa",
                            "believed_p_a"))
        # a negative kappa would pay for a redo
        for name in ("b_w", "l_w", "b_i", "l_i", "xi", "c_a", "kappa"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not math.isfinite(self.tau):  # of any sign: every worker meets a tau below every q
            raise ValueError(f"tau must be finite, got {self.tau}")
        for name in ("p_a", "p_w"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        # each field is finite and >= 0, so a sum can only overflow to +inf
        for name, stakes in (("b_w + l_w", self.worker_stakes), ("b_i + l_i", self.institution_stakes)):
            if stakes == math.inf:
                raise ValueError(f"{name} must be finite, got {stakes}")
        if self.believed_p_a is not None and not 0.0 <= self.believed_p_a <= 1.0:
            raise ValueError("believed success probability must lie in [0, 1]")

    @property
    def worker_stakes(self):
        return self.b_w + self.l_w

    @property
    def institution_stakes(self):
        return self.b_i + self.l_i

    @property
    def misalignment(self):
        """S_i - xi S_w, with S = b + l: check_assumptions' dominance holds when it is > 0."""
        return self.institution_stakes - self.xi * self.worker_stakes

    def worker_view(self):
        """The params the worker plans with: p_a replaced by believed_p_a when one is set.

        The worker's side reads it (the optimal action, the oracle, the
        delegation threshold and the worker-side boundary signs); scoring
        and the model primitives read the params as given.
        """
        if self.believed_p_a is None:
            return self
        return replace_unchecked(self, p_a=self.believed_p_a)  # checked when self was built

    def with_benefit_transfer(self, d_b):
        """Shift d_b of success benefit from the institution to the worker."""
        if not 0.0 <= d_b <= self.b_i:
            raise ValueError("transfer must lie in [0, b_i]")
        return replace(self, b_w=self.b_w + d_b, b_i=self.b_i - d_b)


class Coefficients(NamedTuple):
    """Affine decomposition U = f(s) * d + g for both objectives.

    f_w / f_i are evaluated at a particular s; g_w / g_i are the no-AI
    baselines (g_i equals the pre-AI quality Q0). k_w / k_i are the
    coefficients multiplying phi(s) inside f_w / f_i. A named tuple, not a
    frozen dataclass, because coefficients builds one per call and a
    frozen dataclass costs about twice as much to construct.
    """

    f_w: float
    g_w: float
    f_i: float
    g_i: float
    k_w: float
    k_i: float


def reference_params() -> ModelParams:
    """The library's reference configuration, used across demos and tests.

    Inverse-linear detection with scale 2, linear verification cost, and
    execution cost 5 * (1 - beta).
    """
    return ModelParams(
        b_w=8.0, l_w=6.0, b_i=14.0, l_i=12.0, xi=0.3, tau=6.4,
        p_a=0.65, c_a=0.0, p_w=0.75,
        detection=Detection(INVERSE_LINEAR, 2.0),
        verification_cost=VerificationCost(LINEAR, 1.0),
        execution_cost=ExecutionCost(LINEAR_IN_EFFICIENCY, 5.0),
    )


def replace_unchecked(obj, **changes):
    """A copy of a frozen dataclass with fields changed, skipping its validation."""
    new = object.__new__(type(obj))
    new.__dict__.update(vars(obj), **changes)
    return new


def checked_cost(params: ModelParams, ability: Ability) -> float:
    """C_w at ability, once the point passes the check every scalar entry point makes.

    beta is checked through C_w, then the products that could overflow:
    every formula reads alpha through detection.scale * alpha, and the redo
    cost as kappa * C_w. An infinite product turns phi, s_dagger or the
    cost of a corrected error into NaN (0 * inf), so either raises.
    """
    c_w = params.execution_cost.cost(ability.beta)
    if not params.detection.scale * ability.alpha < math.inf:
        raise ValueError(f"alpha={ability.alpha} is too large: detection scale * alpha must be finite")
    if not params.kappa * c_w < math.inf:
        raise ValueError(f"kappa={params.kappa} is too large: kappa * C_w must be finite")
    return c_w


def detection_probability(detection: Detection, alpha: float, s: float):
    """Probability of catching an AI error at effort s with reliability alpha."""
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    return float(detection.prob(alpha, s))


def outcome_at(params: ModelParams, phi, c_w, s, d):
    """(success probability, expected cost) of the action (d, s), given phi(s) and C_w.

    This and the other *_at / *_value helpers take floats or arrays and
    check nothing: the scalar functions below validate their inputs first,
    and grid sweeps validate the whole grid once. params.kappa scales C_w in
    the redo term only: fixing a detected AI error costs kappa * C_w, and
    kappa = 1 is the base model, bitwise.
    """
    c_v = params.verification_cost.cost(s)
    return ((1.0 - d) * params.p_w + d * params.p_a + d * (1.0 - params.p_a) * phi * params.p_w,
            (1.0 - d) * c_w + d * (params.c_a + c_v + (1.0 - params.p_a) * phi * (params.kappa * c_w)))


def worker_value(params: ModelParams, p, cost):
    return params.b_w * p - params.l_w * (1.0 - p) - cost


def institution_value(params: ModelParams, p, cost):
    return params.b_i * p - params.l_i * (1.0 - p) - params.xi * cost


def phi_coefficients(params: ModelParams, c_w):
    """(k_w, k_i): the coefficients on phi(s) in f_w and f_i, given C_w.

    The C_w in them is the redo cost after a detected error, scaled by
    params.kappa as in outcome_at.
    """
    one_minus_pa, kappa = 1.0 - params.p_a, params.kappa
    return (one_minus_pa * (params.worker_stakes * params.p_w - kappa * c_w),
            one_minus_pa * (params.institution_stakes * params.p_w - params.xi * kappa * c_w))


def worker_increment(params: ModelParams, k_w, phi, c_w, c_v):
    """f_w, the worker's utility gain from delegating, given k_w, phi(s), C_w and C_v(s)."""
    return k_w * phi - c_v - params.worker_stakes * (params.p_w - params.p_a) + c_w - params.c_a


def institution_increment(params: ModelParams, k_i, phi, c_w, c_v):
    """f_i, the institution's utility gain from delegation, given k_i, phi(s), C_w and C_v(s)."""
    return (k_i * phi - params.xi * c_v - params.institution_stakes * (params.p_w - params.p_a)
            + params.xi * (c_w - params.c_a))


def _checked_phi(params: ModelParams, ability: Ability, s: float):
    """(phi(s), C_w) at ability, checked as every scalar entry point checks them.

    s is checked first, then the point through checked_cost.
    """
    return detection_probability(params.detection, ability.alpha, s), checked_cost(params, ability)


def _checked_outcome(params: ModelParams, ability: Ability, action: Action):
    """outcome_at at the action, once the point passes the scalar check."""
    return outcome_at(params, *_checked_phi(params, ability, action.s), action.s, action.d)


def task_success(params: ModelParams, ability: Ability, action: Action) -> float:
    """Success probability from direct work, direct AI, and corrected AI errors."""
    return _checked_outcome(params, ability, action)[0]


def total_cost(params: ModelParams, ability: Ability, action: Action) -> float:
    """Expected cost: manual execution, AI run, verification, and redo after detection."""
    return _checked_outcome(params, ability, action)[1]


def worker_utility(params: ModelParams, ability: Ability, action: Action) -> float:
    return worker_value(params, *_checked_outcome(params, ability, action))


def institutional_utility(params: ModelParams, ability: Ability, action: Action) -> float:
    return institution_value(params, *_checked_outcome(params, ability, action))


def coefficients(params: ModelParams, ability: Ability, s: float) -> Coefficients:
    """Affine coefficients of both utilities in the delegation level."""
    phi, c_w = _checked_phi(params, ability, s)
    c_v = params.verification_cost.cost(s)
    k_w, k_i = phi_coefficients(params, c_w)
    # the baselines are the utilities at (d, s) = (0, 0), where success is
    # p_w and cost is C_w exactly, so the identity g = U(0, 0) holds bitwise
    return Coefficients(f_w=worker_increment(params, k_w, phi, c_w, c_v),
                        g_w=worker_value(params, params.p_w, c_w),
                        f_i=institution_increment(params, k_i, phi, c_w, c_v),
                        g_i=institution_value(params, params.p_w, c_w), k_w=k_w, k_i=k_i)


def verification_surplus(params: ModelParams, ability: Ability, s: float) -> float:
    """Benefit of catching AI errors at effort s, net of verification cost."""
    phi, c_w = _checked_phi(params, ability, s)
    return phi_coefficients(params, c_w)[0] * phi - params.verification_cost.cost(s)


def delegation_gain(params: ModelParams, ability: Ability) -> float:
    """Utility change from switching manual work to unverified delegation.

    Equals the delegation increment at s = 0 and depends on beta only.
    """
    c_w = params.execution_cost.cost(ability.beta)
    return c_w - params.c_a - params.worker_stakes * (params.p_w - params.p_a)


@dataclass
class AssumptionReport:
    """Outcome of the regularity checks behind the regime characterizations."""

    dominance_ok: bool
    viability_ok: bool
    violations: list

    @property
    def all_ok(self):
        return self.dominance_ok and self.viability_ok


def check_assumptions(params: ModelParams, ability_grid: Iterable[Ability]) -> AssumptionReport:
    """Check institutional dominance and worker viability.

    The one statement of the regularity conditions behind the regime results
    that parameters can break: dominance is misalignment > 0, viability g_w >= 0
    and k_w >= 0 at each grid ability. Violations are listed, never raised.

    The third condition, monotone detection (phi(s_dagger) non-decreasing in
    alpha), is a theorem of the shipped families and is not checked. With
    u = a s and a = scale * alpha, s_dagger maximizes k F(u) - C_v(u / a) over
    u in [0, a], F increasing. C_v is convex and increasing, so the marginal
    cost C_v'(u / a) / a falls as a rises, and the bound a rises with it; by
    Topkis' theorem the maximizer u(a) is non-decreasing, and so is
    phi = F(u). k <= 0 gives s_dagger = 0 at every alpha, and a belief or
    kappa changes only k, which does not depend on alpha.
    """
    violations = []
    dominance_ok = params.misalignment > 0.0
    if not dominance_ok:
        violations.append(
            f"dominance violated: b_i+l_i={params.institution_stakes} "
            f"<= xi*(b_w+l_w)={params.xi * params.worker_stakes}")

    viability_ok = True
    for ability in ability_grid:
        coef = coefficients(params, ability, 0.0)
        if coef.g_w < 0:
            viability_ok = False
            violations.append(f"negative pre-AI worker utility at {ability}: g_w={coef.g_w:.6g}")
        if coef.k_w < 0:
            viability_ok = False
            violations.append(f"negative phi coefficient at {ability}: k_w={coef.k_w:.6g}")

    return AssumptionReport(dominance_ok=dominance_ok, viability_ok=viability_ok,
                            violations=violations)
