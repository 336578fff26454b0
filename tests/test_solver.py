"""Optimal actions, thresholds, and agreement with the brute-force oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import delver as dv
from delver.model import Ability, Action, Detection, ExecutionCost, ModelParams, VerificationCost
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import (
    REGIMES, Regime, bisect, bisect_array, brute_force_action, choose_regime, golden_section_max,
    golden_section_max_array, manual_delegation_threshold, maximize_surplus,
    maximize_surplus_array, optimal_action, optimal_verification, oracle_regime,
    qualification_threshold,
)

from conftest import run_isolated


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

    def test_closed_forms_match_golden_section(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            params = sample_params(rng)
            if params.verification_cost.kind != "linear":
                continue
            ability = sample_ability(rng, params)
            k_w = dv.coefficients(params, ability, 0.0).k_w
            closed = optimal_verification(params, ability)

            def surplus(s):
                return dv.verification_surplus(params, ability, s)

            searched = golden_section_max(surplus, 0.0, 1.0, tol=1e-10)
            if surplus(0.0) >= surplus(searched):
                searched = 0.0
            assert closed == pytest.approx(searched, abs=1e-6)

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
        # np.log differs from the scalar path's math.log in about 1.6% of cases
        alpha = np.concatenate([[0.0, 0.0, 1.0, 1e-9, 50.0], rng.uniform(0.0, 3.0, 300),
                                np.ones(400)])
        k = np.concatenate([[1.0, -1.0, 0.0, 1.0, 1e-9], rng.uniform(-0.5, 30.0, 300),
                            rng.uniform(1.0, 1.1, 400) * 0.7 / 1.7])
        got = maximize_surplus_array(detection, alpha, vcost, k)
        want = [maximize_surplus(detection, a, vcost, kk) for a, kk in zip(alpha.tolist(), k.tolist())]
        assert got.tobytes() == np.array(want).tobytes()
        assert {0.0, 1.0} <= set(want) and any(0.0 < w < 1.0 for w in want)

    def test_surplus_ties_go_to_the_larger_effort(self):
        # a flat surplus makes 0, the search result and 1 tie; the scalar
        # max over (surplus, s) pairs then picks s = 1
        flat_detection = SimpleNamespace(kind="exponential", prob=lambda alpha, s: 0.0 * s)
        free_cost = SimpleNamespace(kind="free", cost=lambda s: 0.0 * s)
        alpha, k = np.array([0.5, 1.0]), np.array([1.0, 2.0])
        assert maximize_surplus(flat_detection, 0.5, free_cost, 1.0) == 1.0
        assert maximize_surplus_array(flat_detection, alpha, free_cost, k).tolist() == [1.0, 1.0]

    def test_golden_section_array_follows_scalar_iterates(self):
        centers = np.array([0.0, 0.3, 0.5, 0.999, 1.0, 2.0])
        flat = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])  # 1: constant function, every comparison ties

        def fn(s):
            return -(1.0 - flat) * (s - centers) ** 2

        got = golden_section_max_array(fn, len(centers))
        want = [golden_section_max(lambda s, c=c, f=f: -(1.0 - f) * (s - c) ** 2, 0.0, 1.0)
                for c, f in zip(centers.tolist(), flat.tolist())]
        assert got.tolist() == want

    def test_choose_regime_matches_optimal_action(self):
        f_w = np.array([-1.0, -0.0, 0.0, 2.0, 2.0, -3.0])
        s_dag = np.array([0.5, 0.0, 0.0, 0.0, 0.25, 0.0])
        d_star, s_star, regime = choose_regime(f_w, s_dag)
        assert d_star.tolist() == [0, 1, 1, 1, 1, 0]
        assert s_star.tolist() == [0.0, 0.0, 0.0, 0.0, 0.25, 0.0]
        assert [REGIMES[r] for r in regime] == [
            Regime.MANUAL, Regime.PURE_DELEGATION, Regime.PURE_DELEGATION,
            Regime.PURE_DELEGATION, Regime.VERIFIED_DELEGATION, Regime.MANUAL]


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
        assert qualification_threshold(reference, tau=q0_at(0.0)).value == pytest.approx(0.0, abs=1e-9)
        assert qualification_threshold(reference, tau=q0_at(1.0)).value == pytest.approx(1.0, abs=1e-9)

    def test_tau_outside_range_is_flagged(self, reference):
        assert not qualification_threshold(reference, tau=1e6).bracketed
        assert not qualification_threshold(reference, tau=-1e6).bracketed

    def test_inverse_efficiency_threshold(self):
        params = exponential_params(execution_cost=ExecutionCost("inverse_efficiency", 2.0))
        res = manual_delegation_threshold(params)
        # delegation gain 2 / beta - 1.4 crosses zero at beta = 10 / 7
        assert res.bracketed
        assert res.value == pytest.approx(2.0 / 1.4, abs=1e-8)


# inverse-efficiency execution cost 5 / beta on the reference profile: the
# roots below lie above 8192, where one ulp of beta exceeds the 1e-12 tolerance
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
res = dv.qualification_threshold(params, tau=7.499875)
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

    def test_equals_bisect_element_by_element(self):
        lo, hi, switch, tol = (np.array(column) for column in zip(*self.CASES))
        expected, calls = [], []
        for a, b, x0, t in self.CASES:
            scalar_calls = []
            expected.append(bisect(lambda x: scalar_calls.append(x) or x >= x0, a, b, t))
            calls.append(scalar_calls)
        for t in set(tol.tolist()):
            # bisect_array takes one tol; run it on the cases sharing each tol
            rows = np.flatnonzero(tol == t)
            asked = {int(r): [] for r in rows}

            def pred(i, mid):
                for k, m in zip(i.tolist(), mid.tolist()):
                    asked[int(rows[k])].append(m)
                    # fail instead of hanging if an interval never stops
                    assert len(asked[int(rows[k])]) <= 2000
                return mid >= switch[rows][i]

            got_lo, got_hi = bisect_array(pred, lo[rows], hi[rows], t)
            want = np.array([expected[r] for r in rows])
            assert got_lo.tobytes() == want[:, 0].tobytes()
            assert got_hi.tobytes() == want[:, 1].tobytes()
            for r in rows.tolist():
                assert asked[r] == calls[r]

    @pytest.mark.parametrize("steps", [0, 1, 7, 45])
    def test_steps_cap_equals_bisect(self, steps):
        # at tol 0 only the cap and the no-float-between stop end a search
        lo, hi, switch = (np.array(column) for column in zip(*[c[:3] for c in self.CASES]))
        asked = [[] for _ in self.CASES]

        def pred(i, mid):
            for k, m in zip(i.tolist(), mid.tolist()):
                asked[k].append(m)
            return mid >= switch[i]

        got_lo, got_hi = bisect_array(pred, lo, hi, 0.0, steps=steps)
        for k, (a, b, x0, _) in enumerate(self.CASES):
            calls = []
            want = bisect(lambda x: calls.append(x) or x >= x0, a, b, 0.0, steps=steps)
            assert np.array(want).tobytes() == np.array([got_lo[k], got_hi[k]]).tobytes()
            assert asked[k] == calls

    def test_inputs_are_not_modified(self):
        lo, hi = np.array([0.0, 1.0]), np.array([1.0, 3.0])
        bisect_array(lambda i, mid: mid > 0.5, lo, hi, 1e-3)
        assert lo.tolist() == [0.0, 1.0] and hi.tolist() == [1.0, 3.0]


class TestOracle:
    def test_grid_validation(self, reference):
        with pytest.raises(ValueError):
            brute_force_action(reference, Ability(0.5, 0.5), d_steps=1)

    def test_analytic_optimum_dominates_grid(self, reference):
        for point in [(0.1, 0.9), (0.1, 0.2), (0.9, 0.9), (0.4, 0.75)]:
            ability = Ability(*point)
            act = optimal_action(reference, ability)
            u_star = dv.worker_utility(reference, ability, Action(float(act.d_star), act.s_star))
            _, u_oracle = brute_force_action(reference, ability)
            assert u_star >= u_oracle - 1e-6 * (1.0 + abs(u_star))

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
