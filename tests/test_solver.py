"""Optimal actions, thresholds, and agreement with the brute-force oracle."""

import hashlib
import math
import sys
import threading
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import delver as dv
import delver.solver as solver
from delver.atlas import psi0, psi1
from delver.model import (
    INVERSE_EFFICIENCY, LINEAR_IN_EFFICIENCY, Ability, Action, Detection, ExecutionCost,
    ModelParams, VerificationCost, checked_cost, phi_coefficients,
)
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import (
    REGIMES, Regime, bisect, bisect_array, brute_force_action, choose_regime,
    manual_delegation_threshold, maximize_surplus, maximize_surplus_array, optimal_action,
    optimal_verification, qualification_threshold,
)

from conftest import KAPPAS, family_configs, oracle_regime, run_isolated

EPS = np.finfo(float).eps

# SHA-256 of _surplus_sample_text(), taken while the Newton search still had a far
# phase above scale * alpha = 2**20; the sample stays at or below 2**20, where the
# search has not changed since
SURPLUS_SAMPLE_DIGEST = "243ca7eca79b69a91a183401f14162c78ea219b90362924b64a179e733d6c072"


def _surplus_sample_text():
    """float.hex of maximize_surplus and maximize_surplus_array, one line per point.

    linear_quadratic cost, both detection kinds, three power-of-two scales (so
    scale * alpha is exact), scale * alpha log-uniform on [1e-6, 2**20] plus
    2**20 itself, and k log-uniform on [1e-4, 1e8].
    """
    rng = np.random.default_rng(43)
    vcost = VerificationCost("linear_quadratic")
    lines = []
    for kind in ("exponential", "inverse_linear"):
        for scale in (0.5, 1.0, 4.0):
            detection = Detection(kind, scale)
            a = np.append(10.0 ** rng.uniform(-6.0, math.log10(2.0 ** 20), 1500), 2.0 ** 20)
            alpha = np.minimum(a, 2.0 ** 20) / scale
            k = 10.0 ** rng.uniform(-4.0, 8.0, len(alpha))
            got = maximize_surplus_array(detection, alpha, vcost, k)
            for al, kk, s_array in zip(alpha.tolist(), k.tolist(), got.tolist()):
                s = maximize_surplus(detection, al, vcost, kk)
                lines.append(f"{kind} {al.hex()} {kk.hex()} {s.hex()} {s_array.hex()}")
    return "\n".join(lines)


# SHA-256 of _oracle_text(), taken while brute_force_action still built its
# utility grid from fresh temporaries, one per operation
ORACLE_DIGEST = "7049307caae2ade01deec4ca939a237bfeb6143b38ebc9bbef599597fbc049e7"


def _oracle_text():
    """The repr of brute_force_action's (action, u), one line per call.

    Three sampled workers on each family_configs() draw, plus the reference
    config at the README's oracle point (alpha 0.1, beta 0.2), at kappa 0,
    0.5, 1 and 2.5 and on 11 x 2001, 11 x 4001 and 5 x 101 grids: 300 calls.
    """
    rng = np.random.default_rng(59)
    cases = [(triple, params, sample_ability(rng, params))
             for triple, params in family_configs().items() for _ in range(3)]
    cases.append((("reference",), dv.reference_params(), Ability(0.1, 0.2)))
    lines = []
    for triple, params, ability in cases:
        for kappa in (0.0, 0.5, 1.0, 2.5):
            for grid in ((11, 2001), (11, 4001), (5, 101)):
                got = brute_force_action(replace(params, kappa=kappa), ability, *grid)
                lines.append(f"{'/'.join(triple)} {kappa} {grid} {ability!r} {got!r}")
    return "\n".join(lines)


def exponential_params(**overrides):
    base = dict(b_w=8.0, l_w=6.0, b_i=14.0, l_i=12.0, xi=0.3, tau=6.4,
                p_a=0.65, c_a=0.0, p_w=0.75,
                detection=Detection("exponential", 1.5),
                verification_cost=VerificationCost("linear", 1.0),
                execution_cost=ExecutionCost("linear_in_efficiency", 5.0))
    base.update(overrides)
    return ModelParams(**base)


class TestOptimalVerification:
    def test_nonpositive_coefficient_gives_zero(self):
        params = exponential_params(p_w=0.1, b_w=1.0, l_w=0.5)
        ability = Ability(2.0, 0.1)
        assert dv.coefficients(params, ability, 0.0).k_w < 0
        assert optimal_verification(params, ability) == 0.0

    def test_zero_reliability_gives_zero(self, reference):
        assert optimal_verification(reference, Ability(0.0, 0.5)) == 0.0

    def test_reference_interior_first_order_point(self, reference):
        got = optimal_verification(reference, Ability(0.5, 0.5))
        assert got == pytest.approx(math.sqrt(2.8) - 1.0, abs=1e-9)

    @pytest.mark.parametrize("vkind", ["linear", "linear_quadratic"])
    def test_s_dagger_beats_a_dense_grid(self, vkind):
        # an independent reference: the argmax of the surplus over 20,001
        # efforts, evaluated as brute_force_action does, with no search
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 20001)
        checked = 0
        while checked < 60:
            params = sample_params(rng)
            if params.verification_cost.kind != vkind:
                continue
            ability = sample_ability(rng, params)
            s_dag = optimal_verification(params, ability)
            k_w = dv.coefficients(params, ability, 0.0).k_w
            surplus = (k_w * params.detection.prob(ability.alpha, grid)
                       - params.verification_cost.cost(grid))
            best = int(np.argmax(surplus))
            assert abs(s_dag - grid[best]) <= grid[1]
            # 1 - exp(-x) carries an absolute error of about eps, scaled by k_w
            assert dv.verification_surplus(params, ability, s_dag) >= (
                surplus[best] - 4 * EPS * (abs(k_w) + 2.0))
            checked += 1

    def test_interior_optimum_has_vanishing_derivative(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            params = sample_params(rng)
            ability = sample_ability(rng, params)
            s_dag = optimal_verification(params, ability)
            if not 1e-4 < s_dag < 1.0 - 1e-4:
                continue
            h = 1e-6
            deriv = (dv.verification_surplus(params, ability, s_dag + h)
                     - dv.verification_surplus(params, ability, s_dag - h)) / (2 * h)
            assert abs(deriv) <= 1e-6 * (1.0 + abs(dv.coefficients(params, ability, 0.0).k_w))
            checked += 1


class TestArrayBranchPoints:
    """The array forms must reproduce the scalar branches bit for bit."""

    @pytest.mark.parametrize("det_kind", ["exponential", "inverse_linear"])
    @pytest.mark.parametrize("vcost", [VerificationCost("linear", 0.7), VerificationCost("linear_quadratic")])
    def test_maximize_surplus_array_equals_scalar(self, det_kind, vcost):
        rng = np.random.default_rng(11)
        detection = Detection(det_kind, 1.7)
        # zero and negative coefficients, zero reliability, and magnitudes that
        # put the closed form below 0, inside (0, 1) and above 1; the last block
        # puts the exponential closed form's log argument in (1, 1.1), where
        # np.log differs from math.log in about 1.6% of cases, so both forms
        # must take the log from np.log;
        # the huge values overflow a * k and the slopes, which must stay silent;
        # at alpha 6e307 the inverse-linear closed form underflows to -0.0, which
        # the clamp makes +0.0
        alpha = np.concatenate([[0.0, 0.0, 1.0, 1e-9, 50.0, 1e300, 1e200, 1e15, 1.0, 6e307],
                                rng.uniform(0.0, 3.0, 300), np.ones(400)])
        k = np.concatenate([[1.0, -1.0, 0.0, 1.0, 1e-9, 1.0, 1e200, 1.0, 1e300,
                             6.862745098039213e-309],
                            rng.uniform(-0.5, 30.0, 300), rng.uniform(1.0, 1.1, 400) * 0.7 / 1.7])
        got = maximize_surplus_array(detection, alpha, vcost, k)
        want = [maximize_surplus(detection, a, vcost, kk) for a, kk in zip(alpha.tolist(), k.tolist())]
        assert got.tobytes() == np.array(want).tobytes()
        assert {0.0, 1.0} <= set(want) and any(0.0 < w < 1.0 for w in want)

    @pytest.mark.parametrize("execution_kind", [LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY])
    def test_maximize_surplus_array_equals_scalar_on_sampled_configs(self, execution_kind):
        rng = np.random.default_rng(29)
        seen = {}
        while len(seen) < 4 or min(seen.values()) < 6:
            params = sample_params(rng, execution_kind)
            det, vcost = params.detection, params.verification_cost
            seen[det.kind, vcost.kind] = seen.get((det.kind, vcost.kind), 0) + 1
            abilities = [sample_ability(rng, params) for _ in range(200)]
            alpha = np.array([ab.alpha for ab in abilities])
            k = np.array([phi_coefficients(params, params.execution_cost.cost(ab.beta))[0]
                          for ab in abilities])
            got = maximize_surplus_array(det, alpha, vcost, k)
            want = [maximize_surplus(det, a, vcost, kk) for a, kk in zip(alpha.tolist(), k.tolist())]
            assert got.tobytes() == np.array(want).tobytes()

    def test_newton_search_ends_at_a_root_before_its_cap(self, monkeypatch):
        # every slope evaluation is counted: two for the endpoints, one per Newton step
        calls = []

        def counted(*args):
            calls.append(None)
            return slopes(*args)

        slopes = solver._surplus_slopes
        monkeypatch.setattr(solver, "_surplus_slopes", counted)
        rng = np.random.default_rng(31)
        interior = Counter()
        while min(interior.get(kind, 0) for kind in ("exponential", "inverse_linear")) < 500:
            params = sample_params(rng)
            det, vcost = params.detection, params.verification_cost
            if vcost.kind != "linear_quadratic":
                continue
            abilities = [sample_ability(rng, params) for _ in range(50)]
            alpha = np.array([ab.alpha for ab in abilities])
            k = phi_coefficients(params, np.array([params.execution_cost.cost(ab.beta)
                                                   for ab in abilities]))[0]
            for a, kk in zip(alpha.tolist(), k.tolist()):
                calls.clear()
                s = maximize_surplus(det, a, vcost, kk)
                assert len(calls) < solver._NEWTON_MAX_ITER + 2
                if 0.0 < s < 1.0:
                    interior[det.kind] += 1
                    slope = kk * float(det.slope(a, s))
                    assert abs(slope - 1.0 - s) <= 16 * EPS * (slope + 1.0 + s)
            calls.clear()
            maximize_surplus_array(det, alpha, vcost, k)
            assert len(calls) < solver._NEWTON_MAX_ITER + 2

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_a_search_stopped_by_its_cap_equals_the_array_form(self, monkeypatch, cap):
        # both forms return the last iterate when the cap stops a search; scale * alpha
        # reaches 2e9, above 2**20, where the search starts in _huge_bracket's bracket
        rng = np.random.default_rng(47)
        vcost = VerificationCost("linear_quadratic")
        alpha = 10.0 ** rng.uniform(-3.0, 9.0, 2000)
        k = 10.0 ** rng.uniform(-2.0, 3.0, 2000)
        for kind in ("exponential", "inverse_linear"):
            detection = Detection(kind, 2.0)
            uncapped = maximize_surplus_array(detection, alpha, vcost, k)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_NEWTON_MAX_ITER", cap)
                got = maximize_surplus_array(detection, alpha, vcost, k)
                want = np.array([maximize_surplus(detection, a, vcost, kk)
                                 for a, kk in zip(alpha.tolist(), k.tolist())])
            assert got.tobytes() == want.tobytes()
            assert ((0.0 <= want) & (want <= 1.0)).all()
            assert (want != uncapped).any()  # the cap stopped some searches

    @pytest.mark.parametrize("det_kind", ["exponential", "inverse_linear"])
    def test_newton_search_reaches_the_root_at_huge_alpha(self, monkeypatch, det_kind):
        # the root sits near ln(k a) / a (exponential) or sqrt(k / a) (inverse_linear),
        # many decades below 1: midpoints from [0, 1] stopped short of it at the cap
        # (5.75e-29 against 6.91e-29 at alpha = 1e30); from the bracket read off
        # k phi' = 1 + s the search takes at most 49 evaluations here
        calls = []

        def counted(*args):
            calls.append(None)
            return slopes(*args)

        slopes = solver._surplus_slopes
        monkeypatch.setattr(solver, "_surplus_slopes", counted)
        detection = Detection(det_kind, 1.3)
        alphas = [10.0 ** e * m for e in range(5, 301, 5) for m in (1.0, 3.1)]
        for kk in (1e-3, 0.7, 40.0):
            got = maximize_surplus_array(detection, np.array(alphas), VerificationCost(
                "linear_quadratic"), np.full(len(alphas), kk))
            for alpha, s_array in zip(alphas, got.tolist()):
                calls.clear()
                s = maximize_surplus(detection, alpha, VerificationCost("linear_quadratic"), kk)
                assert len(calls) <= 55, (alpha, kk)
                assert s.hex() == s_array.hex(), (alpha, kk)
                a = 1.3 * alpha
                assert 0.0 < s < 0.1
                # h' to rounding: its terms, and the argument a s rounded in exp or 1 + a s
                slope = kk * float(detection.slope(alpha, s))
                assert abs(slope - 1.0 - s) <= 16 * EPS * (1.0 + a * s) * (slope + 1.0 + s), (
                    alpha, kk)
        s = maximize_surplus(Detection("exponential", 1.0), 1e30,
                             VerificationCost("linear_quadratic"), 1.0)
        assert s == pytest.approx(math.log(1e30) / 1e30, rel=1e-12)

    def test_surplus_sample_is_bitwise_frozen(self):
        text = _surplus_sample_text()
        efforts = [float.fromhex(line.split()[3]) for line in text.splitlines()]
        assert sum(0.0 < s < 1.0 for s in efforts) > len(efforts) // 4
        assert hashlib.sha256(text.encode()).hexdigest() == SURPLUS_SAMPLE_DIGEST

    @pytest.mark.parametrize("det_kind", ["exponential", "inverse_linear"])
    @pytest.mark.parametrize("a", [2.0 ** 21, 1e100, 1e300])
    @pytest.mark.parametrize("ka", [float(np.nextafter(1.0, 2.0)), 1.5, 2.5])
    def test_huge_alpha_root_just_above_zero_is_interior(self, det_kind, a, ka):
        # h'(0) = k a - 1 is positive, barely so at nextafter(1), and the root lies
        # within rounding of 0, yet a positive slope at 0 still means a positive effort
        k = ka / a
        assert abs(k * a - ka) <= EPS * ka
        detection, vcost = Detection(det_kind, 1.0), VerificationCost("linear_quadratic")
        s = maximize_surplus(detection, a, vcost, k)
        assert 0.0 < s < 1.0
        assert maximize_surplus_array(detection, np.array([a]), vcost, np.array([k])).tolist() == [s]
        slope = k * float(detection.slope(a, s))
        assert abs(slope - 1.0 - s) <= 16 * EPS * (1.0 + a * s) * (slope + 1.0 + s)

    @pytest.mark.parametrize("det_kind,k,want", [
        # a = scale * alpha = 1, so h'(0) = k - 1: a non-positive slope at 0 gives 0
        ("exponential", 0.5, 0.0), ("inverse_linear", 0.5, 0.0),
        ("exponential", 1.0, 0.0), ("inverse_linear", 1.0, 0.0),
        # h'(1) = k / 4 - 2 under inverse_linear (exactly 0 at k = 8), k / e - 2 under exponential
        ("inverse_linear", 8.0, 1.0), ("inverse_linear", 100.0, 1.0),
        ("exponential", 2.0 * math.e * (1.0 + 1e-12), 1.0), ("exponential", 100.0, 1.0),
    ])
    def test_endpoint_rule_reads_the_slope_at_zero_and_one(self, det_kind, k, want):
        detection, vcost = Detection(det_kind, 2.0), VerificationCost("linear_quadratic")
        assert maximize_surplus(detection, 0.5, vcost, k) == want
        assert maximize_surplus_array(detection, np.array([0.5]), vcost, np.array([k])).tolist() == [want]

    @pytest.mark.parametrize("det_kind,k,near", [
        ("exponential", np.nextafter(1.0, 2.0), 0.0), ("inverse_linear", np.nextafter(1.0, 2.0), 0.0),
        ("inverse_linear", np.nextafter(8.0, 0.0), 1.0),
        ("exponential", 2.0 * math.e * (1.0 - 1e-12), 1.0),
    ])
    def test_a_slope_just_inside_the_endpoints_gives_an_interior_effort(self, det_kind, k, near):
        detection, vcost = Detection(det_kind, 2.0), VerificationCost("linear_quadratic")
        s = maximize_surplus(detection, 0.5, vcost, k)
        assert 0.0 < s < 1.0 and abs(s - near) < 1e-9
        assert maximize_surplus_array(detection, np.array([0.5]), vcost, np.array([k])).tolist() == [s]

    def test_choose_regime_matches_optimal_action(self):
        f_w = np.array([-1.0, -0.0, 0.0, 2.0, 2.0, -3.0])
        s_dag = np.array([0.5, 0.0, 0.0, 0.0, 0.25, 0.0])
        d_star, s_star, regime = choose_regime(f_w, s_dag)
        assert d_star.tolist() == [0, 1, 1, 1, 1, 0]
        assert s_star.tolist() == [0.0, 0.0, 0.0, 0.0, 0.25, 0.0]
        assert [REGIMES[r] for r in regime] == [
            Regime.MANUAL, Regime.PURE_DELEGATION, Regime.PURE_DELEGATION,
            Regime.PURE_DELEGATION, Regime.VERIFIED_DELEGATION, Regime.MANUAL]

    def test_choose_regime_takes_floats(self):
        # the one regime rule: each float pair takes its array element's branch, a NaN
        # f_w delegating as indifference does, and a float f_w gives int indices
        f_w = [-1.0, -0.0, 0.0, 2.0, 2.0, -3.0, math.nan, math.nan]
        s_dag = [0.5, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.75]
        columns = choose_regime(np.array(f_w), np.array(s_dag))
        for k, point in enumerate(zip(f_w, s_dag)):
            d_star, s_star, regime = choose_regime(*point)
            assert type(d_star) is int and type(regime) is int
            assert (d_star, s_star, regime) == tuple(column[k] for column in columns)
            assert math.copysign(1.0, s_star) == 1.0
        assert [REGIMES[r] for r in columns[2][-2:]] == [Regime.PURE_DELEGATION,
                                                          Regime.VERIFIED_DELEGATION]


class TestOptimalAction:
    @pytest.mark.parametrize("point,regime", [
        ((0.1, 0.9), Regime.MANUAL),
        ((0.1, 0.2), Regime.PURE_DELEGATION),
        ((0.9, 0.9), Regime.VERIFIED_DELEGATION),
    ])
    def test_reference_regime_examples(self, reference, point, regime):
        act = optimal_action(reference, Ability(*point))
        assert act.regime == regime
        if regime == Regime.MANUAL:
            assert (act.d_star, act.s_star) == (0, 0.0)
        elif regime == Regime.PURE_DELEGATION:
            assert (act.d_star, act.s_star) == (1, 0.0)
        else:
            assert act.d_star == 1 and act.s_star > 0
        oracle_act, _ = brute_force_action(reference, Ability(*point))
        assert oracle_regime(oracle_act) == regime

    def test_weak_improvement_over_no_ai(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            params = sample_params(rng)
            ability = sample_ability(rng, params)
            act = optimal_action(params, ability)
            u_opt = dv.worker_utility(params, ability, Action(float(act.d_star), act.s_star))
            u_manual = dv.worker_utility(params, ability, Action(0.0, 0.0))
            assert u_opt >= u_manual - 1e-12 * (1.0 + abs(u_manual))


def exact_delegation_break_even(params):
    """The C_w at which the worker's delegation gain is zero, as a Fraction."""
    w = params.worker_view()
    return Fraction(w.c_a) + (Fraction(w.b_w) + Fraction(w.l_w)) * (Fraction(w.p_w) - Fraction(w.p_a))


def exact_qualification_break_even(params):
    """The C_w at which the no-AI institutional baseline equals tau, as a Fraction."""
    p_w = Fraction(params.p_w)
    g0 = Fraction(params.b_i) * p_w - Fraction(params.l_i) * (1 - p_w)
    return (g0 - Fraction(params.tau)) / Fraction(params.xi)


def exact_beta(params, c_w):
    """The beta at which the execution cost equals the Fraction c_w, as a Fraction."""
    scale = Fraction(params.execution_cost.scale)
    if params.execution_cost.kind == LINEAR_IN_EFFICIENCY:
        return 1 - c_w / scale
    return scale / c_w


class TestThresholds:
    def test_reference_manual_delegation_threshold(self, reference):
        res = manual_delegation_threshold(reference)
        assert res.bracketed
        assert res.value == pytest.approx(0.72, abs=1e-9)

    def test_equal_abilities_with_free_ai_pushes_threshold_to_one(self, reference):
        params = exponential_params(p_a=0.75, p_w=0.75, c_a=0.0)
        res = manual_delegation_threshold(params)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_prohibitive_ai_cost_flags_always_manual(self):
        params = exponential_params(c_a=20.0)  # above C_w(0) = 5
        res = manual_delegation_threshold(params)
        assert not res.bracketed
        assert res.value == 0.0
        assert "manual" in res.note

    def test_reference_qualification_threshold(self, reference):
        res = qualification_threshold(reference)
        assert res.bracketed
        assert res.value == pytest.approx(4.0 / 15.0, abs=1e-9)

    def test_qualification_threshold_domain_edges(self, reference):
        q0_at = lambda b: dv.coefficients(reference, Ability(0.0, b), 0.0).g_i
        at_q0 = lambda b: replace(reference, tau=q0_at(b))
        assert qualification_threshold(at_q0(0.0)).value == pytest.approx(0.0, abs=1e-9)
        assert qualification_threshold(at_q0(1.0)).value == pytest.approx(1.0, abs=1e-9)

    def test_tau_outside_range_is_flagged(self, reference):
        assert not qualification_threshold(replace(reference, tau=1e6)).bracketed
        assert not qualification_threshold(replace(reference, tau=-1e6)).bracketed

    def test_inverse_efficiency_threshold(self):
        params = exponential_params(execution_cost=ExecutionCost("inverse_efficiency", 2.0))
        res = manual_delegation_threshold(params)
        # delegation gain 2 / beta - 1.4 crosses zero at beta = 10 / 7
        assert res.bracketed
        assert res.value == pytest.approx(2.0 / 1.4, abs=1e-8)


    @pytest.mark.parametrize("kind", [LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY])
    @pytest.mark.parametrize("threshold, changes", [
        (manual_delegation_threshold, {}),
        (manual_delegation_threshold, {"p_a": 1.0}),  # flagged at the top
        (manual_delegation_threshold, {"c_a": 1e15}),  # flagged at the bottom
        (qualification_threshold, {}),
        (qualification_threshold, {"tau": 1e6}),  # flagged at the top
        (qualification_threshold, {"tau": -1e15}),  # flagged at the bottom
    ])
    def test_thresholds_read_the_model_at_most_twice(self, reference, monkeypatch, kind,
                                                     threshold, changes):
        # the gain or excess is read at the two ends of the interval, each
        # through C_w(beta) once, and the root is C_w's inverse: no bisection
        params = replace(reference, execution_cost=ExecutionCost(kind, 5.0), **changes)
        calls = []
        cost = ExecutionCost.cost
        monkeypatch.setattr(ExecutionCost, "cost",
                            lambda self, beta: calls.append(beta) or cost(self, beta))
        monkeypatch.setattr(solver, "bisect", None)
        res = threshold(params)
        assert 0 < len(calls) <= 2 and res.bracketed == (not changes)
        assert [f.name for f in fields(res)] == ["value", "bracketed", "note"]

    @pytest.mark.parametrize("threshold, break_even", [
        (manual_delegation_threshold, exact_delegation_break_even),
        (qualification_threshold, exact_qualification_break_even),
    ])
    def test_thresholds_are_exact_to_rounding(self, threshold, break_even):
        # against the root of the model's expression in exact rational
        # arithmetic from the float inputs
        rng = np.random.default_rng(7)
        bracketed = 0
        for _ in range(400):
            params = sample_params(rng)
            res = threshold(params)
            if res.bracketed:
                bracketed += 1
                root = exact_beta(params, break_even(params))
                assert abs(Fraction(res.value) - root) <= Fraction(1e-13) * abs(root)
        assert bracketed > 50

    @pytest.mark.parametrize("kind", [LINEAR_IN_EFFICIENCY, INVERSE_EFFICIENCY])
    def test_baseline_flat_at_tau_is_flagged_at_the_bottom(self, reference, kind):
        # with xi = 0 the baseline does not move with beta; at tau, every
        # efficiency qualifies, and the lowest one is returned, flagged
        params = replace(reference, xi=0.0, tau=7.5, execution_cost=ExecutionCost(kind, 5.0))
        assert dv.coefficients(params, Ability(0.0, 0.5), 0.0).g_i == 7.5
        res = qualification_threshold(params)
        lo = 0.0 if kind == LINEAR_IN_EFFICIENCY else 1e-12
        assert res == dv.ThresholdResult(lo, False,
                                         "baseline already above tau at the lowest efficiency")

    def test_zero_break_even_cost_reaches_the_top(self, reference):
        # c_a + (b_w + l_w)(p_w - p_a) = 1e4 - 1e4 = 0: the gain scale / beta is
        # positive at every efficiency, though at 2^40 it rounds to 0, and the
        # cap used to be reported as a bracketed root
        params = replace(reference, b_w=1.5e4, l_w=5e3, p_w=0.25, p_a=0.75, c_a=1e4,
                         execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 1.0))
        assert manual_delegation_threshold(params) == dv.ThresholdResult(
            2.0 ** 40, False, "delegation beats manual work at every efficiency")

    def test_tau_at_the_zero_cost_baseline_is_flagged_at_the_top(self, reference):
        # tau = g_i(0) = 12500: the baseline g_i(0) - xi / beta is below tau at
        # every efficiency, and reaches it only in the limit
        params = replace(reference, b_i=2e4, l_i=1e4, tau=12500.0,
                         execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 1.0))
        assert dv.coefficients(params, Ability(0.0, 1.0), 0.0).g_i == 12500.0 - params.xi
        assert qualification_threshold(params) == dv.ThresholdResult(
            2.0 ** 40, False, "baseline below tau at every efficiency")


# inverse-efficiency execution cost 5 / beta on the reference profile: the
# roots below lie above 8192, where one ulp of beta exceeds 1e-12
LARGE_ROOT_PARAMS = """
from dataclasses import replace
import delver as dv
params = replace(dv.reference_params(), execution_cost=dv.ExecutionCost("inverse_efficiency", 5.0))
"""


class TestLargeRoots:
    @pytest.mark.parametrize("p_a", [0.7499, 0.74997])
    def test_manual_delegation_threshold_terminates(self, p_a):
        out = run_isolated(LARGE_ROOT_PARAMS + f"""
res = dv.manual_delegation_threshold(replace(params, p_a={p_a!r}))
print(repr(res.value), res.bracketed)
""")
        value, bracketed = out.split()
        # delegation gain 5 / beta - (b_w + l_w) (p_w - p_a) crosses zero here
        assert float(value) == pytest.approx(5.0 / (14.0 * (0.75 - p_a)), rel=1e-9)
        assert bracketed == "True"

    def test_qualification_threshold_terminates(self):
        out = run_isolated(LARGE_ROOT_PARAMS + """
res = dv.qualification_threshold(replace(params, tau=7.499875))
print(repr(res.value), res.bracketed)
""")
        value, bracketed = out.split()
        # baseline 7.5 - 1.5 / beta reaches tau at beta = 12000
        assert float(value) == pytest.approx(12000.0, rel=1e-8)
        assert bracketed == "True"


class TestBisect:
    def test_narrows_to_the_switch_within_tolerance(self):
        lo, hi = bisect(lambda x: x > 0.3, 0.0, 1.0, 1e-9)
        assert lo <= 0.3 < hi
        assert hi - lo <= 1e-9

    def test_fixed_step_count(self):
        calls = []
        lo, hi = bisect(lambda x: calls.append(x) or x > 0.3, 0.0, 1.0, 0.0, steps=5)
        assert len(calls) == 5
        assert hi - lo == 1.0 / 32

    @pytest.mark.parametrize("answer, lo", [(False, 8192.0),
                                            (True, math.nextafter(8192.0, math.inf))])
    def test_stops_when_no_float_lies_between(self, answer, lo):
        # hi is lo's neighbour and the midpoint rounds to the end pred would move
        hi = math.nextafter(lo, math.inf)
        calls = []
        assert bisect(lambda x: calls.append(x) or answer, lo, hi, 1e-12) == (lo, hi)
        assert len(calls) == 1

    def test_matches_the_plain_loop_when_the_midpoint_lands_on_lo(self):
        # hi - lo is one ulp and the midpoint rounds to lo: moving hi there
        # closes the interval, as the loop without the no-progress stop did
        lo, hi = 1.0, math.nextafter(1.0, math.inf)
        assert bisect(lambda x: True, lo, hi, 1e-20) == (lo, lo)


_UP_8192 = math.nextafter(8192.0, math.inf)


class TestBisectArray:
    # (lo, hi, switch, tol): pred(x) is x >= switch
    CASES = [
        (0.0, 1.0, 0.3, 1e-9),                   # width stop
        (0.0, 1.0, 0.3, 0.0),                    # runs until no float lies between
        (-5.0, 7.0, 2.5, 1e-6),
        (0.1, 0.7, 0.3, 1e-9),                   # midpoints that lo + (hi - lo) / 2 rounds apart
        (-0.3, 1.7, 0.2, 0.0),
        (0.0, 1.0, -1.0, 1e-9),                  # pred holds everywhere
        (0.0, 1.0, 2.0, 1e-9),                   # pred holds nowhere
        (8192.0, _UP_8192, 0.0, 1e-12),          # no float between, hi would move
        (8192.0, _UP_8192, 1e9, 1e-12),          # no float between, lo would move
        (1.0, math.nextafter(1.0, math.inf), 0.0, 1e-20),  # the midpoint lands on lo
        (0.5, 0.5, 0.2, 0.0),                    # zero width
        (0.5, 0.5, 0.7, 1e-9),
        (0.0, 5e-324, 0.0, 0.0),                 # subnormal
        (0.0, 10.0, 10.0, 1e-3),
    ]

    @staticmethod
    def compare(cases, tol, steps=None, exact=False):
        """bisect_array on pred(x) = x >= switch against bisect case by case.

        The brackets must be bitwise bisect's. With exact, each interval is
        asked about exactly bisect's points in bisect's order; otherwise
        bisect's points must be among those asked, every point asked must
        lie in the starting bracket, and no call may ask about more than
        max(_TREE_POINTS, live intervals) points.
        """
        lo, hi, switch = (np.array(column, dtype=float) for column in zip(*cases))
        asked, calls = [[] for _ in cases], []

        def pred(i, mid):
            calls.append((len(mid), len(set(i.tolist()))))
            # fail instead of hanging if the search never stops
            assert len(calls) <= 2000
            for k, m in zip(i.tolist(), mid.tolist()):
                asked[k].append(m)
            return mid >= switch[i]

        got_lo, got_hi = bisect_array(pred, lo, hi, tol, steps=steps)
        for k, (a, b, x0) in enumerate(cases):
            scalar = []
            want = bisect(lambda x: scalar.append(x) or x >= x0, a, b, tol, steps=steps)
            assert np.array(want).tobytes() == np.array([got_lo[k], got_hi[k]]).tobytes()
            if exact:
                assert asked[k] == scalar
            else:
                assert set(scalar) <= set(asked[k])
                assert all(min(a, b) <= m <= max(a, b) for m in asked[k])
        if not exact:
            assert all(points <= max(solver._TREE_POINTS, live) for points, live in calls)

    def check(self, monkeypatch, cases, tol, steps=None):
        self.compare(cases, tol, steps)
        # a budget of one point asks about one midpoint per interval and call: bisect's sequence
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_TREE_POINTS", 1)
            self.compare(cases, tol, steps, exact=True)

    def test_equals_bisect_element_by_element(self, monkeypatch):
        for t in sorted({case[3] for case in self.CASES}):
            # bisect_array takes one tol; run it on the cases sharing each tol
            self.check(monkeypatch, [case[:3] for case in self.CASES if case[3] == t], t)

    @pytest.mark.parametrize("steps", [0, 1, 7, 45])
    def test_steps_cap_equals_bisect(self, monkeypatch, steps):
        # at tol 0 only the cap and the no-float-between stop end a search
        self.check(monkeypatch, [case[:3] for case in self.CASES], 0.0, steps)

    def test_more_intervals_than_the_budget_equal_bisect(self):
        rng = np.random.default_rng(3)
        lo = rng.uniform(-1.0, 1.0, solver._TREE_POINTS + 100)
        cases = list(zip(lo, lo + rng.uniform(0.0, 2.0, len(lo)), rng.uniform(-1.0, 3.0, len(lo))))
        self.compare(cases, 1e-6)

    def test_one_interval_takes_45_steps_in_few_calls(self):
        calls = []
        bisect_array(lambda i, mid: calls.append(len(mid)) or mid >= 0.3,
                     np.array([0.0]), np.array([1.0]), 0.0, steps=45)
        depth = int(math.log2(solver._TREE_POINTS + 1))
        assert len(calls) == math.ceil(45 / depth)

    def test_inputs_are_not_modified(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
        bisect_array(lambda i, mid: mid > 0.5, lo, hi, 1e-3)
        assert lo.tolist() == [0.0, 1.0] and hi.tolist() == [1.0, 3.0]


# three sampled workers at kappa 0, 1 and 2.5, for comparing oracle calls in
# this process with calls in a fresh one
ORACLE_CASES = """
from dataclasses import replace
import numpy as np
from delver.sampling import sample_ability, sample_params
from delver.solver import brute_force_action
rng = np.random.default_rng(67)
cases = []
for kappa in (0.0, 1.0, 2.5):
    params = replace(sample_params(rng), kappa=kappa)
    cases.append((params, sample_ability(rng, params)))
"""


# the grids of the exhaustive comparison: the default and selfcheck's, ORACLE_DIGEST's
# smallest, the smallest d axis (no interior rows), and odd shapes on either axis
REFERENCE_GRIDS = ((11, 2001), (11, 4001), (5, 101), (2, 7), (3, 3), (17, 61))


def full_grid(params, ability, d_steps, s_steps):
    """The d and s axes and the worker utility on every cell of the oracle's grid.

    This is brute_force_action's body before it evaluated interior rows only
    where a maximum can sit, on fresh buffers in place of its kept ones.
    """
    params = params.worker_view()
    d = np.linspace(0.0, 1.0, d_steps)[:, None]
    s = np.linspace(0.0, 1.0, s_steps)[None, :]
    p, u = np.empty((d_steps, s_steps)), np.empty((d_steps, s_steps))
    c_w = checked_cost(params, ability)
    phi = params.detection.prob(ability.alpha, s)
    c_v = params.verification_cost.cost(s)
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
    return d, s, p


def reference_oracle(params, ability, d_steps, s_steps):
    """np.argmax's cell of full_grid and its utility: the oracle's result evaluated in full."""
    d, s, u = full_grid(params, ability, d_steps, s_steps)
    i, j = divmod(int(np.argmax(u)), s_steps)
    return Action(float(d[i, 0]), float(s[0, j])), float(u[i, j])


class TestOracle:
    def test_grid_validation(self, reference):
        with pytest.raises(ValueError):
            brute_force_action(reference, Ability(0.5, 0.5), d_steps=1)
        # one cell over the cap; the cap is checked before any allocation
        with pytest.raises(ValueError, match=r"^grid has 1048577 cells, more than 1048576$"):
            brute_force_action(reference, Ability(0.5, 0.5), d_steps=17, s_steps=61681)

    @pytest.mark.parametrize("steps", [(np.int64(2 ** 32), np.int64(2 ** 32)),
                                       (np.int64(3), np.int64(2 ** 62)),
                                       (np.int32(2 ** 16), np.int32(2 ** 16)),
                                       (np.int32(3), np.int32(2 ** 30))])
    def test_numpy_integer_steps_meet_the_cell_cap(self, reference, steps):
        # their product wraps in the numpy type (to 0 for 2**32 x 2**32 in int64
        # and 2**16 x 2**16 in int32), so the cap compares the Python product
        cells = int(steps[0]) * int(steps[1])
        with pytest.raises(ValueError, match=rf"^grid has {cells} cells, more than 1048576$"):
            brute_force_action(reference, Ability(0.5, 0.5), *steps)

    @pytest.mark.parametrize("steps", [{"d_steps": 2.5}, {"s_steps": 101.0}, {"d_steps": "11"},
                                       {"d_steps": True}])
    def test_step_count_that_is_not_an_integer_is_rejected(self, reference, steps):
        ((name, value),) = steps.items()
        with pytest.raises(ValueError) as info:
            brute_force_action(reference, Ability(0.5, 0.5), **steps)
        assert str(info.value) == f"{name} must be an integer, got {value!r}"
        brute_force_action(reference, Ability(0.5, 0.5), np.int64(11), np.int64(101))

    def test_analytic_optimum_dominates_grid(self, reference):
        for point in [(0.1, 0.9), (0.1, 0.2), (0.9, 0.9), (0.4, 0.75)]:
            ability = Ability(*point)
            act = optimal_action(reference, ability)
            u_star = dv.worker_utility(reference, ability, Action(float(act.d_star), act.s_star))
            _, u_oracle = brute_force_action(reference, ability)
            assert u_star >= u_oracle - 1e-6 * (1.0 + abs(u_star))

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_analytic_optimum_matches_the_oracle_at_any_kappa(self, kappa):
        # the oracle writes kappa * C_w into its own cost formula, sharing no code with the solver
        rng = np.random.default_rng(31)
        for _ in range(40):
            params = replace(sample_params(rng), kappa=kappa)
            ability = sample_ability(rng, params)
            act = optimal_action(params, ability)
            u_star = dv.worker_utility(params, ability, Action(float(act.d_star), act.s_star))
            oracle_act, u_oracle = brute_force_action(params, ability)
            tol = 1e-9 * (1.0 + abs(u_star))
            assert u_oracle == pytest.approx(dv.worker_utility(params, ability, oracle_act), abs=tol)
            # no cell beats the optimum, and the cell nearest it, half an s step
            # (1 / 8000) away, trails it by at most the largest slope in s
            k_w = dv.coefficients(params, ability, 0.0).k_w
            slope = (abs(k_w) * float(params.detection.slope(ability.alpha, 0.0))
                     + params.verification_cost.slope(1.0))
            assert -tol <= u_star - u_oracle <= slope / 8000 + tol

    def test_oracle_is_bitwise_frozen(self):
        text = _oracle_text()
        assert len(text.splitlines()) == 300
        assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGEST

    def test_grid_shapes_do_not_leak_between_calls(self):
        # the oracle keeps its axes for the last shape: alternating shapes, and
        # a repeated call on kept axes, give a fresh process's bits
        fresh = {grid: run_isolated(ORACLE_CASES + f"""
print([brute_force_action(params, ability, *{grid}) for params, ability in cases])
""").strip() for grid in ((11, 2001), (5, 101))}
        scope = {}
        exec(ORACLE_CASES, scope)
        for grid in ((11, 2001), (5, 101), (11, 2001)):
            for _ in range(2):
                got = [brute_force_action(p, ability, *grid) for p, ability in scope["cases"]]
                assert repr(got) == fresh[grid]

    def test_threads_switching_grid_shapes_agree_with_one_thread(self):
        # each call reads the kept axes once, so a call never pairs one shape's
        # d axis with another's s axis while a second thread switches shapes
        scope = {}
        exec(ORACLE_CASES, scope)
        params, ability = scope["cases"][1]
        grids = ((5, 101), (11, 201), (3, 7))
        expected = {grid: brute_force_action(params, ability, *grid) for grid in grids}
        wrong, done = [], []

        def work(offset):
            for n in range(300):
                grid = grids[(n + offset) % len(grids)]
                if brute_force_action(params, ability, *grid) != expected[grid]:
                    wrong.append(grid)
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3] and wrong == []

    def test_oracle_matches_the_full_grid_bitwise(self):
        # the oracle evaluates interior d rows only in columns whose mix of the end
        # rows comes within 2**-40 * S of their maximum; full_grid evaluates every
        # cell. Sampled workers, workers at alpha 0 (phi 0 at every s) and at
        # beta's top (C_w 0 under linear_in_efficiency), plus psi0 and psi1 roots,
        # where the d rows of a column nearly tie, over every family, four kappas
        # (kappa 0 included) and six grid shapes (2 and 3 d rows included).
        rng = np.random.default_rng(71)
        configs = [*family_configs().values(), *(sample_params(rng) for _ in range(16))]
        calls = ties = above = 0
        for config in configs:
            lo, hi = beta_span(config)
            for kappa in (0.0, 0.5, 1.0, 2.5):
                params = replace(config, kappa=kappa)
                abilities = [sample_ability(rng, params) for _ in range(2)]
                abilities += [Ability(0.0, lo), Ability(0.0, hi), Ability(0.5, hi)]
                # at t, delegating without checking ties with manual work at s = 0,
                # and both psi0 and psi1 are defined there
                t = manual_delegation_threshold(params).value
                for beta in [t, *rng.uniform(lo, hi, 2).tolist()]:
                    for side in (psi0, psi1) if beta == t else (psi0 if beta > t else psi1,):
                        if (root := side(params, beta)).bracketed:
                            abilities.append(Ability(root.value, beta))
                for ability in abilities:
                    for grid in REFERENCE_GRIDS:
                        got = brute_force_action(params, ability, *grid)
                        assert repr(got) == repr(reference_oracle(params, ability, *grid))
                        _, _, u = full_grid(params, ability, *grid)
                        interior, ends = u[1:-1].max(initial=-np.inf), u[[0, -1]].max()
                        ties += bool(interior >= ends)
                        above += bool(interior > ends)
                        calls += 1
        assert calls > 4000
        # an interior row reaches the end rows' maximum in some calls, so the
        # interior band and the row-major tie order are exercised, and rises
        # above it in some, which the oracle answers only from its band
        assert ties > 0 and above > 0

    def test_ties_give_np_argmax_first_cell(self):
        # in dyadic numbers both end rows' best cells are exactly 1.0: the manual
        # row 8 * 0.75 - 6 * 0.25 - 3.5, and the delegated row at alpha 0 and
        # s = 0, 8 * 0.5 - 6 * 0.5 - 0; the first maximum is cell (0, 0)
        params = exponential_params(p_a=0.5, execution_cost=ExecutionCost(LINEAR_IN_EFFICIENCY, 7.0))
        tied = Ability(0.0, 0.5)
        for grid in ((2, 7), (2, 2001), (3, 3), (5, 101), (17, 61)):
            assert brute_force_action(params, tied, *grid) == (Action(0.0, 0.0), 1.0)
        # on 11 rows the cells at d = 0.1 round 1.3e-15 above 1.0, and win;
        # with a rate of 2**-1000, c_a + C_v(s) rounds to c_a at alpha 0, so the
        # delegated row is flat, and its first cell wins where delegation does
        flat = replace(params, c_a=0.25, verification_cost=VerificationCost("linear", 2.0 ** -1000))
        cases = [(params, tied), (flat, Ability(0.0, 0.1)), (flat, Ability(0.0, 0.9))]
        for case in cases:
            for grid in REFERENCE_GRIDS:
                assert repr(brute_force_action(*case, *grid)) == repr(reference_oracle(*case, *grid))
        assert brute_force_action(*cases[1], 11, 2001) == (Action(1.0, 0.0), 0.75)

    def test_tall_grid_near_a_tie_matches_the_full_grid(self, reference):
        # at alpha 0 the manual row is flat in s and the delegated row peaks at
        # s = 0, above it by a gain g of 2**-36 to 2**-30; on 349,525 d rows the
        # cells next to d = 1 lie within rounding of that peak, and some round
        # above it, while the mix at d[1] lies about g below it: the bound must
        # read the mix at d[-2] as well
        stakes = reference.worker_stakes * (reference.p_w - reference.p_a)
        for gain in np.geomspace(2.0 ** -36, 2.0 ** -30, 13).tolist():
            beta = reference.execution_cost.efficiency_at(reference.c_a + stakes + gain)
            ability = Ability(0.0, beta)
            got = brute_force_action(reference, ability, 349525, 3)
            assert repr(got) == repr(reference_oracle(reference, ability, 349525, 3))

    @pytest.mark.parametrize("c_w, l_w, c_a", [
        (1e308, 6.0, 0.0),      # every cell finite, but 4 * S overflows
        (1.7e308, 1e308, 0.0),  # cells at -inf beside finite ones
        (1e308, 6.0, 1.7e308),  # the delegated cost overflows: 0 * inf is NaN at d = 0
        (4e307, 6.0, 0.0),      # 4 * S just past the largest float
    ])
    def test_overflowing_scale_is_refused(self, reference, c_w, l_w, c_a):
        # under inverse_efficiency cost 1e300 / beta, C_w reaches 1e308 at a finite
        # beta; with S = b_w + l_w + C_w + max|x| past a quarter of the largest float
        # the rounding bound is void, and the oracle refuses before any cell is
        # evaluated, with no numpy warning (the suite makes each one an error)
        params = replace(reference, l_w=l_w, c_a=c_a,
                         execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 1e300))
        ability = Ability(0.5, 1e300 / c_w)
        assert 1e307 < checked_cost(params, ability) < math.inf
        for grid in ((11, 2001), (5, 101), (2, 7)):
            with pytest.raises(ValueError, match=r"^oracle scale S = b_w \+ l_w \+ C_w \+ max "
                                                 r"delegated cost is \S+; 4 \* S must be finite$"):
                brute_force_action(params, ability, *grid)

    def test_scale_just_inside_the_rule_matches_the_full_grid(self, reference):
        # C_w = 3e307 keeps 4 * S below the largest float: the oracle answers, as
        # the full grid does, with no overflow
        params = replace(reference, execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 1e300))
        ability = Ability(0.5, 1e300 / 3e307)
        for grid in ((11, 2001), (5, 101), (2, 7)):
            got = brute_force_action(params, ability, *grid)
            assert math.isfinite(got[1])
            assert repr(got) == repr(reference_oracle(params, ability, *grid))

    def test_axes_are_built_once_per_grid_shape(self, reference):
        # the d and s axes are kept at module level, read-only, and follow a shape change
        ability = Ability(0.4, 0.6)
        for grid in ((5, 101), (11, 2001)):
            brute_force_action(reference, ability, *grid)
            d, s = solver._oracle_axes
            brute_force_action(reference, ability, *grid)
            assert solver._oracle_axes[0] is d and solver._oracle_axes[1] is s
            assert d.ravel().tolist() == np.linspace(0.0, 1.0, grid[0]).tolist()
            assert s.ravel().tolist() == np.linspace(0.0, 1.0, grid[1]).tolist()
            assert (d.shape, s.shape) == ((grid[0], 1), (1, grid[1]))
            assert not d.flags.writeable and not s.flags.writeable

    def test_oracle_argmax_locations(self, reference):
        act, _ = brute_force_action(reference, Ability(0.1, 0.2))
        assert (act.d, act.s) == (1.0, 0.0)
        act, _ = brute_force_action(reference, Ability(0.9, 0.9), s_steps=4001)
        s_dag = optimal_verification(reference, Ability(0.9, 0.9))
        assert act.d == 1.0
        assert abs(act.s - s_dag) <= 1.0 / 4000 + 1e-12


class TestDirectionalStructure:
    """Monotone responses that the regime boundaries rely on, on random sweeps."""

    def _sweep(self, rng, params, coord, n=60):
        lo, hi = beta_span(params)
        if coord == "alpha":
            fixed = float(rng.uniform(lo, hi))
            return [Ability(float(a), fixed) for a in np.linspace(0.0, 3.0, n)]
        fixed = float(rng.uniform(0.0, 3.0))
        return [Ability(fixed, float(b)) for b in np.linspace(lo, hi, n)]

    def test_delegation_increment_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            params = sample_params(rng)
            values = [optimal_action(params, ab).f_w_at_s_dagger
                      for ab in self._sweep(rng, params, "alpha")]
            slack = 1e-9 * (1.0 + max(abs(v) for v in values))
            assert all(b >= a - slack for a, b in zip(values, values[1:]))
            values = [optimal_action(params, ab).f_w_at_s_dagger
                      for ab in self._sweep(rng, params, "beta")]
            slack = 1e-9 * (1.0 + max(abs(v) for v in values))
            assert all(b <= a + slack for a, b in zip(values, values[1:]))

    def test_delegation_choice_never_reverts_in_alpha(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            params = sample_params(rng)
            ds = [optimal_action(params, ab).d_star for ab in self._sweep(rng, params, "alpha")]
            assert all(b >= a for a, b in zip(ds, ds[1:]))

    def test_effort_nondecreasing_in_efficiency(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            params = sample_params(rng)
            ss = [optimal_verification(params, ab) for ab in self._sweep(rng, params, "beta")]
            assert all(b >= a - 1e-9 for a, b in zip(ss, ss[1:]))
