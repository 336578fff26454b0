"""Primitive quantities: detection families, utilities, affine coefficients."""

import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delver as dv
from delver.atlas import solve_actions
from delver.cli import main
from delver.config import load_params, params_from_dict, params_to_dict
from delver.model import (
    Ability, Action, Detection, ExecutionCost, ModelParams, VerificationCost,
    check_assumptions, checked_cost, coefficients, delegation_gain, detection_probability,
    institution_value, institutional_utility, outcome_at, task_success, total_cost,
    verification_surplus, worker_utility, worker_value,
)
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import optimal_verification

from conftest import KAPPAS, family_configs

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
SEARCH_CAP = 10240.0  # the boundary searches' largest alpha, 10 * 2^10


class TestDetection:
    @pytest.mark.parametrize("family", [Detection("exponential", 1.0),
                                        Detection("inverse_linear", 2.0)])
    def test_no_effort_no_detection(self, family):
        assert detection_probability(family, 0.7, 0.0) == 0.0

    def test_exponential_matches_calibrated_operating_point(self):
        # alpha = 0.108 with effort 0.903 puts detection near 0.093
        value = detection_probability(Detection("exponential", 1.0), 0.108, 0.903)
        assert value == pytest.approx(0.093, abs=1e-3)

    def test_inverse_linear_direct_substitution(self):
        value = detection_probability(Detection("inverse_linear", 2.0), 0.25, 1.0)
        assert value == pytest.approx(1.0 - 1.0 / 1.5, abs=1e-12)

    @pytest.mark.parametrize("family", [Detection("exponential", 1.7),
                                        Detection("inverse_linear", 0.9)])
    def test_increasing_and_concave_in_effort(self, family):
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0.05, 4.0, size=20):
            s = np.linspace(0.0, 1.0, 101)
            phi = family.prob(alpha, s)
            diffs = np.diff(phi)
            assert np.all(diffs > 0)
            assert np.all(np.diff(diffs) < 0)
            assert np.all((phi >= 0) & (phi < 1))

    def test_nondecreasing_in_alpha(self):
        for family in (Detection("exponential", 1.0), Detection("inverse_linear", 2.0)):
            lo = family.prob(0.3, 0.6)
            hi = family.prob(0.9, 0.6)
            assert hi >= lo

    def test_domain_errors(self):
        family = Detection("exponential", 1.0)
        for alpha in (-0.1, math.nan, math.inf):  # Ability's rule: finite and >= 0
            with pytest.raises(ValueError, match=f"^alpha must be finite and >= 0, got {alpha}$"):
                detection_probability(family, alpha, 0.5)
        with pytest.raises(ValueError):
            detection_probability(family, 0.5, 1.5)
        with pytest.raises(ValueError):
            Detection("logistic", 1.0)


class TestCostFamilies:
    def test_verification_cost_zero_at_zero(self):
        assert VerificationCost("linear", 2.0).cost(0.0) == 0.0
        assert VerificationCost("linear_quadratic").cost(0.0) == 0.0

    def test_linear_quadratic_slope(self):
        vc = VerificationCost("linear_quadratic")
        assert vc.cost(1.0) == pytest.approx(1.5)
        assert vc.slope(0.0) == 1.0

    @pytest.mark.parametrize("k", [5.0, -3.0, math.nan, math.inf])
    def test_linear_quadratic_takes_no_k(self, k, reference):
        # the family never reads k, and a config round trip used to turn it into 1
        with pytest.raises(ValueError,
                           match=f"^linear_quadratic verification cost takes no k, got {k}$"):
            VerificationCost("linear_quadratic", k)
        params = replace(reference, verification_cost=VerificationCost("linear_quadratic"))
        assert params_from_dict(params_to_dict(params)) == params

    def test_execution_cost_domain_is_an_error_not_a_clamp(self):
        linear = ExecutionCost("linear_in_efficiency", 5.0)
        with pytest.raises(ValueError):
            linear.cost(1.2)
        inverse = ExecutionCost("inverse_efficiency", 2.0)
        with pytest.raises(ValueError):
            inverse.cost(0.0)
        assert inverse.cost(2.0) == 1.0

    def test_execution_cost_decreasing(self):
        linear = ExecutionCost("linear_in_efficiency", 5.0)
        assert linear.cost(0.2) > linear.cost(0.8)

    def test_unknown_families_are_rejected(self):
        with pytest.raises(ValueError) as info:
            VerificationCost("cubic")
        assert str(info.value) == "unknown verification cost family: 'cubic'"
        with pytest.raises(ValueError) as info:
            ExecutionCost("logarithmic", 1.0)
        assert str(info.value) == "unknown execution cost family: 'logarithmic'"

    @pytest.mark.parametrize("kind", ["linear_in_efficiency", "inverse_efficiency"])
    def test_efficiency_at_inverts_the_cost(self, kind):
        cost = ExecutionCost(kind, 5.0)
        for beta in (0.1, 0.35, 0.9):
            assert cost.efficiency_at(cost.cost(beta)) == pytest.approx(beta, rel=1e-15)
        # outside the domain the inverse is unchecked; under inverse_efficiency a
        # cost at or below zero lies beyond every finite efficiency
        linear = kind == "linear_in_efficiency"
        assert cost.efficiency_at(6.0) == pytest.approx(-0.2 if linear else 5.0 / 6.0, rel=1e-15)
        assert [cost.efficiency_at(c_w) for c_w in (0.0, -1.0)] == \
            ([1.0, 1.2] if linear else [math.inf, math.inf])


class TestPrimitives:
    def test_success_without_delegation_is_worker_rate(self, reference):
        for s in (0.0, 0.4, 1.0):
            assert task_success(reference, Ability(0.5, 0.5), Action(0.0, s)) == reference.p_w

    def test_full_delegation_without_verification_is_ai_rate(self, reference):
        assert task_success(reference, Ability(0.5, 0.5), Action(1.0, 0.0)) == reference.p_a

    def test_cost_without_delegation_is_manual_cost(self, reference):
        got = total_cost(reference, Ability(0.2, 0.3), Action(0.0, 0.7))
        assert got == reference.execution_cost.cost(0.3)

    def test_free_ai_with_no_verification_costs_nothing(self, reference):
        assert total_cost(reference, Ability(0.2, 0.3), Action(1.0, 0.0)) == 0.0

    def test_reference_baseline_worker_utility(self, reference):
        # hand substitution: 14 * 0.75 - 6 - 2.5 = 2.0
        assert worker_utility(reference, Ability(0.3, 0.5), Action(0.0, 0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_affinity_at_an_interior_action(self, reference):
        ability = Ability(0.8, 0.35)
        action = Action(0.37, 0.61)
        coef = coefficients(reference, ability, action.s)
        direct = worker_utility(reference, ability, action)
        assert direct == pytest.approx(coef.f_w * action.d + coef.g_w, rel=1e-12)

    def test_delegation_increment_vanishes_at_threshold_efficiency(self, reference):
        assert coefficients(reference, Ability(0.0, 0.72), 0.0).f_w == pytest.approx(0.0, abs=1e-12)

    def test_delegation_increment_at_half_efficiency(self, reference):
        ability = Ability(0.9, 0.5)
        coef = coefficients(reference, ability, 0.0)
        assert coef.f_w == pytest.approx(1.1, abs=1e-12)
        brute = worker_utility(reference, ability, Action(1.0, 0.0)) - worker_utility(
            reference, ability, Action(0.0, 0.0))
        assert coef.f_w == pytest.approx(brute, rel=1e-12)


class TestOutcome:
    def test_arrays_equal_the_scalar_entry_points_bitwise(self):
        # outcome_at is the one statement of success and expected cost, for floats and
        # arrays; kappa != 1 scales the redo term, and a belief must not reach it
        rng = np.random.default_rng(43)
        draws = [*family_configs().values(), *(sample_params(rng) for _ in range(12))]
        for params in [variant for base in draws
                       for variant in (base, replace(base, kappa=2.5), replace(base, believed_p_a=0.9))]:
            abilities = [sample_ability(rng, params) for _ in range(40)]
            alpha = np.array([ability.alpha for ability in abilities])
            beta = np.array([ability.beta for ability in abilities])
            d = np.concatenate([[0.0, 1.0, 0.0, 1.0], rng.uniform(0.0, 1.0, 36)])
            s = np.concatenate([[0.0, 0.0, 1.0, 1.0], rng.uniform(0.0, 1.0, 36)])
            success, cost = outcome_at(params, params.detection.prob(alpha, s),
                                       params.execution_cost.unchecked_cost(beta), s, d)
            got = [success, cost, worker_value(params, success, cost),
                   institution_value(params, success, cost)]
            actions = [Action(*pair) for pair in zip(d.tolist(), s.tolist())]
            want = [[f(params, ability, action) for ability, action in zip(abilities, actions)]
                    for f in (task_success, total_cost, worker_utility, institutional_utility)]
            for column, values in zip(got, want):
                assert column.tobytes() == np.array(values).tobytes()


class TestSurplusAndGain:
    def test_surplus_zero_at_zero_effort(self, reference):
        assert verification_surplus(reference, Ability(1.3, 0.4), 0.0) == 0.0

    def test_gain_root_at_threshold(self, reference):
        assert delegation_gain(reference, Ability(0.0, 0.72)) == pytest.approx(0.0, abs=1e-12)

    def test_surplus_value_and_maximizer(self, reference):
        ability = Ability(0.5, 0.5)
        s_star = math.sqrt(2.8) - 1.0
        value = verification_surplus(reference, ability, s_star)
        # frozen hand evaluation: 2.8 * phi(s) - s at the first-order point
        assert value == pytest.approx(0.4533599, abs=1e-6)
        grid = np.linspace(0.0, 1.0, 20001)
        vals = [verification_surplus(reference, ability, float(s)) for s in grid]
        assert abs(grid[int(np.argmax(vals))] - s_star) < 1e-4

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        params = sample_params(rng)
        ability = sample_ability(rng, params)
        s = float(rng.uniform(0.0, 1.0))
        f_w = coefficients(params, ability, s).f_w
        parts = verification_surplus(params, ability, s) + delegation_gain(params, ability)
        assert abs(f_w - parts) <= 1e-12 * (1.0 + abs(f_w))


def with_kappas(params):
    """params as drawn, then at each of KAPPAS."""
    return [params] + [replace(params, kappa=kappa) for kappa in KAPPAS]


class TestAffinityProperties:
    def test_affinity_on_random_configurations(self):
        rng = np.random.default_rng(2024)
        ds = np.linspace(0.0, 1.0, 21)
        ss = np.linspace(0.0, 1.0, 21)
        for _ in range(100):
            draw = sample_params(rng)
            ability = sample_ability(rng, draw)
            for params, s in itertools.product(with_kappas(draw), ss):
                coef = coefficients(params, ability, float(s))
                for d in ds:
                    action = Action(float(d), float(s))
                    u_w = worker_utility(params, ability, action)
                    u_i = institutional_utility(params, ability, action)
                    assert abs(u_w - (coef.f_w * d + coef.g_w)) <= 1e-10 * (1.0 + abs(u_w))
                    assert abs(u_i - (coef.f_i * d + coef.g_i)) <= 1e-10 * (1.0 + abs(u_i))
                    p = task_success(params, ability, action)
                    assert 0.0 <= p <= 1.0
                    assert total_cost(params, ability, action) >= 0.0

    def test_baseline_identity_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            draw = sample_params(rng)
            ability = sample_ability(rng, draw)
            for params in with_kappas(draw):
                coef = coefficients(params, ability, 0.0)
                assert coef.g_i == institutional_utility(params, ability, Action(0.0, 0.0))
                assert coef.g_w == worker_utility(params, ability, Action(0.0, 0.0))


class TestMisalignmentIdentity:
    """f_i = xi f_w + m dP, with m = S_i - xi S_w and dP = P(d=1, s) - P(d=0, s=0).

    The institution's gain from delegating is the worker's, scaled by xi,
    plus the misalignment times the change in task success. It holds
    without a belief about the AI, to the rounding of its three terms.
    """

    def test_identity_on_families_and_draws(self):
        rng = np.random.default_rng(28)
        configs = [*family_configs().values(), *(sample_params(rng) for _ in range(22))]
        for params in configs:
            assert params.believed_p_a is None
            m = params.misalignment
            for _ in range(120):
                ability = sample_ability(rng, params)
                s = float(rng.uniform(0.0, 1.0))
                coef = coefficients(params, ability, s)
                d_p = (task_success(params, ability, Action(1.0, s))
                       - task_success(params, ability, Action(0.0, 0.0)))
                scale = abs(coef.f_i) + params.xi * abs(coef.f_w) + abs(m * d_p)
                assert abs(coef.f_i - (params.xi * coef.f_w + m * d_p)) <= 1e-12 * scale


class TestAssumptions:
    def test_reference_configuration_passes(self, reference):
        # viability g_w >= 0 needs beta >= 0.1 under the reference costs
        grid = [dv.Ability(a, b) for a in np.linspace(0.0, 2.0, 7)
                for b in np.linspace(0.1, 1.0, 7)]
        report = check_assumptions(reference, grid)
        assert report.dominance_ok          # 26 > 0.3 * 14
        assert report.viability_ok
        assert report.violations == []

    def test_zero_efficiency_worker_is_flagged(self, reference):
        report = check_assumptions(reference, [Ability(0.5, 0.0)])
        assert not report.viability_ok
        assert any("pre-AI" in v for v in report.violations)

    def test_interior_effort_matches_closed_form(self):
        # inverse-linear detection at scale 10 with C_v = 0.5 s admits
        # s0 = sqrt(k_w / (5 alpha)) - 1 / (10 alpha)
        params = ModelParams(
            b_w=8.0, l_w=6.0, b_i=14.0, l_i=12.0, xi=0.3, tau=6.4,
            p_a=0.65, c_a=0.0, p_w=0.75,
            detection=Detection("inverse_linear", 10.0),
            verification_cost=VerificationCost("linear", 0.5),
            execution_cost=ExecutionCost("linear_in_efficiency", 5.0),
        )
        beta = 0.4
        k_w = coefficients(params, Ability(1.0, beta), 0.0).k_w
        for alpha in np.linspace(0.02, 2.0, 20):
            expected = min(1.0, max(0.0, math.sqrt(k_w / (5 * alpha)) - 1.0 / (10 * alpha)))
            got = optimal_verification(params, Ability(float(alpha), beta))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_dominance_violation_is_flagged(self):
        params = ModelParams(
            b_w=8.0, l_w=8.0, b_i=1.0, l_i=1.0, xi=10.0, tau=1.0,
            p_a=0.5, c_a=0.0, p_w=0.75,
            detection=Detection("exponential", 1.0),
            verification_cost=VerificationCost("linear", 1.0),
            execution_cost=ExecutionCost("linear_in_efficiency", 2.0),
        )
        report = check_assumptions(params, [Ability(0.5, 0.5)])
        assert not report.dominance_ok
        assert any("dominance" in v for v in report.violations)

    def test_dominance_is_positive_misalignment(self, reference):
        # m = S_i - xi S_w, with S = b + l; the reference's is 26 - 0.3 * 14
        assert reference.misalignment == 26.0 - 0.3 * 14.0 > 0.0
        rng = np.random.default_rng(11)
        draws = [sample_params(rng) for _ in range(50)]
        weak = [replace(params, b_i=0.0, l_i=0.0) for params in draws[:10]]  # m = -xi S_w
        for params in [reference, *draws, *weak]:
            m = params.misalignment
            assert m == params.institution_stakes - params.xi * params.worker_stakes
            assert (m > 0.0) == check_assumptions(params, []).dominance_ok
        assert any(params.misalignment < 0.0 for params in weak)

    def test_detection_at_s_dagger_rises_with_alpha(self):
        # monotone detection is a theorem of the shipped families (check_assumptions'
        # docstring), so check_assumptions does not test it; this checks the solver
        # keeps it, on every family triple and 16 draws, each as is, with a belief
        # and with a cheaper and a dearer redo, at 5 betas over alpha in [0, 1e12]
        draws = np.random.default_rng(40)
        configs = [*family_configs().values(), *(sample_params(draws) for _ in range(16))]
        alphas = np.unique(np.concatenate([np.linspace(0.0, 3.0, 601),
                                           np.geomspace(1e-6, 1e12, 2400)]))
        eps = np.finfo(float).eps
        interior = set()
        for base in configs:
            betas = np.linspace(*beta_span(base), 5)
            alpha, beta = np.tile(alphas, len(betas)), np.repeat(betas, len(alphas))
            for params in (base, replace(base, believed_p_a=0.9), replace(base, kappa=0.5),
                           replace(base, kappa=2.0)):
                s_dag = solve_actions(params, alpha, beta).s_dagger
                phi = params.detection.prob(alpha, s_dag).reshape(len(betas), len(alphas))
                # s_dagger is within 8 eps relative of the maximizer (the Newton
                # stopping tests; the closed forms round by less), and phi's relative
                # error is at most s_dagger's (F concave, F(0) = 0), so neighbours may
                # be 16 eps out of order; 1 - e^-x and 1 - 1 / (1 + x) subtract from 1,
                # and round by at most 2 eps absolute. The bound doubles both allowances.
                drop = phi[:, :-1] - phi[:, 1:]
                assert (drop <= 32.0 * eps * phi[:, :-1] + 4.0 * eps).all(), drop.max()
                if ((s_dag > 0.0) & (s_dag < 1.0)).any():
                    interior.add((params.detection.kind, params.verification_cost.kind))
        assert len(interior) == 4  # interior efforts under every detection x cost pair

    def test_huge_alpha_is_checked(self):
        # alpha +- 1e-5 rounds back to alpha above 2^37; the old monotonicity
        # probe divided by their difference, 0, here
        report = check_assumptions(dv.reference_params(), [Ability(2e11, 0.5)])
        assert report.all_ok and report.violations == []

    def test_negative_phi_coefficient_is_flagged_not_fatal(self):
        params = ModelParams(
            b_w=1.0, l_w=0.5, b_i=9.0, l_i=6.0, xi=0.3, tau=1.0,
            p_a=0.4, c_a=0.0, p_w=0.3,
            detection=Detection("exponential", 1.0),
            verification_cost=VerificationCost("linear", 1.0),
            execution_cost=ExecutionCost("linear_in_efficiency", 5.0),
        )
        ability = Ability(1.0, 0.1)
        assert coefficients(params, ability, 0.0).k_w < 0
        report = check_assumptions(params, [ability])
        assert not report.viability_ok
        # evaluation still works and the solver returns zero effort
        assert optimal_verification(params, ability) == 0.0


def _overflowing_points():
    """(params, ability) cases where detection.scale * alpha or kappa * C_w is inf.

    Each config gives its point at the largest float alpha, and one at
    alpha 0 with the largest float kappa, at beta 0 under
    linear_in_efficiency (C_w is its scale) and where C_w is 4 under
    inverse_efficiency. A linear_in_efficiency C_w is at most its scale,
    so a scale at or below 1 has no kappa point. The last case has a
    detection scale so large that scale * alpha overflows at the boundary
    searches' cap, alpha 10240, though psi1, which reads no alpha, is finite.
    """
    cases = []
    for name, params in [("reference", dv.reference_params()), *family_configs().items()]:
        name = "-".join(name) if isinstance(name, tuple) else name
        assert params.detection.scale * sys.float_info.max == math.inf  # every scale is above 1
        cases.append(pytest.param(params, Ability(sys.float_info.max, 0.5), id=f"{name}-alpha"))
        cost = params.execution_cost
        beta = 0.0 if cost.kind == "linear_in_efficiency" else cost.scale / 4.0
        if sys.float_info.max * cost.cost(beta) == math.inf:
            cases.append(pytest.param(replace(params, kappa=sys.float_info.max), Ability(0.0, beta),
                                      id=f"{name}-kappa"))
    huge = replace(dv.reference_params(), detection=Detection("inverse_linear", 1e308))
    cases.append(pytest.param(huge, Ability(SEARCH_CAP, 0.5), id="huge-scale-search-cap"))
    return cases


class TestParamsValidation:
    def test_probabilities_validated(self, reference):
        with pytest.raises(ValueError):
            replace(reference, p_a=1.2)

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(b_w=-1.0, l_w=6.0, b_i=14.0, l_i=12.0, xi=0.3, tau=6.4,
                        p_a=0.65, c_a=0.0, p_w=0.75,
                        detection=Detection("exponential", 1.0),
                        verification_cost=VerificationCost("linear", 1.0),
                        execution_cost=ExecutionCost("linear_in_efficiency", 5.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, reference, value):
        with pytest.raises(ValueError, match="finite"):
            Ability(value, 0.5)
        with pytest.raises(ValueError, match="finite"):
            Ability(0.5, value)
        for name in ("b_w", "tau", "c_a"):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(**{**reference.__dict__, name: value})
        for build in (lambda: Detection("inverse_linear", value),
                      lambda: VerificationCost("linear", value),
                      lambda: ExecutionCost("linear_in_efficiency", value)):
            with pytest.raises(ValueError, match="finite"):
                build()

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_ability_rejects_a_bool(self, value):
        # a bool is a number to the range checks: Ability(True, 0.5) had alpha 1
        for args, name in (((value, 0.5), "alpha"), ((0.5, value), "beta")):
            with pytest.raises(ValueError) as info:
                Ability(*args)
            assert str(info.value) == f"{name!r} must be a number, got {value!r}"

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_families_reject_a_bool_with_the_config_readers_message(self, value):
        # Detection("exponential", True) had scale 1, and params_to_dict wrote "scale": true,
        # which params_from_dict refuses
        for build, name in ((lambda: Detection("exponential", value), "scale"),
                            (lambda: VerificationCost("linear", value), "k"),
                            (lambda: VerificationCost("linear_quadratic", value), "k"),
                            (lambda: ExecutionCost("linear_in_efficiency", value), "scale")):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"{name!r} must be a number, got {value!r}"

    @pytest.mark.parametrize("name", ["b_w", "l_w", "b_i", "l_i", "xi", "tau", "p_a", "c_a", "p_w",
                                      "kappa", "believed_p_a"])
    def test_params_reject_a_bool_with_the_config_readers_message(self, reference, name):
        # believed_p_a = True used to plan with p_a = 1; the message is params_from_dict's,
        # as tests/test_cli.py's bool-number case pins it
        for value in (True, False):
            with pytest.raises(ValueError) as info:
                replace(reference, **{name: value})
            assert str(info.value) == f"{name!r} must be a number, got {value}"

    def test_tau_takes_any_finite_value(self, reference):
        # a standard below every quality a worker can reach is still a standard
        for tau in (-19.25, -1e308, 0.0, 1e308):
            assert replace(reference, tau=tau).tau == tau
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as info:
                replace(reference, tau=tau)
            assert str(info.value) == f"tau must be finite, got {tau}"

    def test_negative_tau_from_a_config_file_equals_the_tau_flag(self, tmp_path, capsys):
        doc = json.loads(REFERENCE_CONFIG.read_text())
        doc["task_profile"]["tau"] = -19.25
        config = tmp_path / "negative_tau.json"
        config.write_text(json.dumps(doc))
        assert load_params(config).tau == -19.25
        point = ["quality", "--alpha", "0.5", "--beta", "0.5", "--json"]
        assert main([*point, "--config", str(config)]) == 0
        from_file = capsys.readouterr().out
        assert main([*point, "--config", str(REFERENCE_CONFIG), "--tau", "-19.25"]) == 0
        assert capsys.readouterr().out == from_file
        report = json.loads(from_file)
        assert (report["tau"], report["compliance"]) == (-19.25, "neither")

    def test_overflowing_stakes_rejected(self, reference):
        ModelParams(**{**reference.__dict__, "b_w": 1e308, "b_i": 1e308})
        for pair in (("b_w", "l_w"), ("b_i", "l_i")):
            with pytest.raises(ValueError, match=f"{pair[0]} \\+ {pair[1]} must be finite"):
                ModelParams(**{**reference.__dict__, **dict.fromkeys(pair, 1e308)})

    def test_infinite_manual_cost_rejected(self):
        cost = ExecutionCost("inverse_efficiency", 5.0)
        assert math.isfinite(cost.cost(1e-300))
        with pytest.raises(ValueError, match="beta=1e-310 is too small"):
            cost.cost(1e-310)

    def test_overflowing_products_rejected(self, reference):
        assert checked_cost(replace(reference, kappa=1e307), Ability(1e307, 0.0)) == 5.0
        with pytest.raises(ValueError, match="alpha=1e\\+308 is too large"):
            checked_cost(reference, Ability(1e308, 0.0))
        with pytest.raises(ValueError, match="kappa=1e\\+308 is too large"):
            checked_cost(replace(reference, kappa=1e308), Ability(0.5, 0.0))
        with pytest.raises(ValueError, match="beta=1.5 outside"):  # beta first
            checked_cost(replace(reference, kappa=1e308), Ability(1e308, 1.5))
        for alpha, kappa in ((1e308, 1.0), (0.5, 1e308)):
            params = replace(reference, kappa=kappa)
            with pytest.raises(ValueError, match="too large"):
                dv.optimal_action(params, Ability(alpha, 0.5))
            # institutional_utility used to return nan here
            with pytest.raises(ValueError, match="too large"):
                institutional_utility(params, Ability(alpha, 0.5), Action(1.0, 0.0))

    @pytest.mark.parametrize("params, ability", _overflowing_points())
    def test_every_scalar_entry_point_rejects_an_overflowing_point_alike(self, params, ability):
        with pytest.raises(ValueError, match="is too large") as want:
            dv.optimal_action(params, ability)
        action = Action(1.0, 0.5)
        calls = {
            "optimal_verification": lambda: dv.optimal_verification(params, ability),
            "evaluate_point": lambda: dv.evaluate_point(params, ability),
            "task_success": lambda: task_success(params, ability, action),
            "total_cost": lambda: total_cost(params, ability, action),
            "worker_utility": lambda: worker_utility(params, ability, action),
            "institutional_utility": lambda: institutional_utility(params, ability, action),
            "coefficients": lambda: coefficients(params, ability, 0.5),
            "verification_surplus": lambda: verification_surplus(params, ability, 0.5),
            "brute_force_action": lambda: dv.brute_force_action(params, ability, 2, 3),
            "solve_points": lambda: dv.solve_points(params, [ability.alpha], [ability.beta]),
        }
        if ability.alpha in (0.0, SEARCH_CAP):
            # the separatrices check their beta at alpha 0 (psi1, which reads no
            # alpha) or at the cap (the searches, which read alpha up to it)
            beta = ability.beta
            names = [name for name in ("psi0", "psi1", "psi_prime", "psi", "psi_tau")
                     if ability.alpha == 0.0 or name != "psi1"]
            calls.update({name: (lambda fn=getattr(dv, name): fn(params, beta)) for name in names})
            calls.update({f"boundary_curve {which}": (lambda which=which:
                                                      dv.boundary_curve(params, which, [beta]))
                          for which in dv.atlas.BOUNDARIES if which in names})
        for name, call in calls.items():
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value), name

    @pytest.mark.parametrize("call", [
        lambda params, ability: task_success(params, ability, Action(1.0, 0.0)),
        lambda params, ability: total_cost(params, ability, Action(1.0, 0.0)),
        lambda params, ability: worker_utility(params, ability, Action(1.0, 0.0)),
        lambda params, ability: coefficients(params, ability, 0.0),
        lambda params, ability: verification_surplus(params, ability, 0.0),
    ], ids=["task_success", "total_cost", "worker_utility", "coefficients",
            "verification_surplus"])
    def test_overflowing_alpha_rejected_by_every_utility(self, reference, call):
        # each returned nan here: detection scale * alpha is inf, and inf * 0 is nan
        with pytest.raises(ValueError, match="^alpha=1e\\+308 is too large: detection scale "
                                             "\\* alpha must be finite$"):
            call(reference, Ability(1e308, 0.5))

    def test_action_bounds(self):
        with pytest.raises(ValueError):
            Action(1.1, 0.0)
        with pytest.raises(ValueError):
            Action(0.0, -0.2)

    def test_benefit_transfer_bounds(self, reference):
        with pytest.raises(ValueError):
            reference.with_benefit_transfer(reference.b_i + 1.0)
        shifted = reference.with_benefit_transfer(1.0)
        assert shifted.b_w == reference.b_w + 1.0
        assert shifted.b_i == reference.b_i - 1.0
