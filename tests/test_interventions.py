"""Upskilling plans and institutional levers."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import delver as dv
import delver.interventions as interventions
from delver.interventions import (
    CostModel, CostTerm, ai_upgrade_gain, incentive_transfer_gain,
    minimal_lever, worker_upskill,
)
from delver.atlas import quality, sweep_grid
from delver.model import Ability
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import bisect, bisect_array

from conftest import family_configs

# SHA-256 of the reprs of upskill_plans(), joined by newlines, and of
# _interventions_family_text(). Both were taken at commit 6039a25, with these
# generators: the fan width and scan counts, fixed since, at their constant values
UPSKILL_PLANS_DIGEST = "7264b827c6861d1df4f4276ed3877a902327d9b02b365705784b54c967e825db"
INTERVENTIONS_DIGEST = "e5aef24471fe9d2085ff84d2ebff4d2ce30865a2a5cf9c37d5ae263ccd43d718"
COST_MODELS = [CostModel(), CostModel(CostTerm("power", 2.0, 2.0), CostTerm("linear", 0.5)),
               CostModel(None, CostTerm("power", 1.0, 1.5)), CostModel(CostTerm("linear", 3.0), None)]


def upskill_plans():
    """80 plans: 20 sampled workers, each at its config's tau, a tau just above
    its quality, the quality 60% of the way to both caps, and an unreachable
    tau, rotating cost models."""
    plans = []
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        params = sample_params(rng)
        ability = sample_ability(rng, params)
        q_now = quality(params, ability).q
        span = 1.0 + abs(q_now)
        beta_cap = min(params.execution_cost.beta_domain()[1], 10.0)
        q_far = quality(params, Ability(ability.alpha + 0.6 * (10.0 - ability.alpha),
                                        ability.beta + 0.6 * (beta_cap - ability.beta))).q
        for k, tau in enumerate([params.tau, q_now + 0.002 * span, q_far, q_now + 100.0 * span]):
            plans.append(worker_upskill(replace(params, tau=tau), ability,
                                        COST_MODELS[(seed + k) % 4]))
    return plans


def _interventions_family_text():
    """The reprs of every intervention result and error over family_configs(), one per line.

    Per configuration: two sampled workers and one at the alpha cap, each at
    the config's tau, an already-met, a reachable and an unreachable tau.
    At each, worker_upskill under both linear costs, alpha only, beta only
    and a power term, and minimal_lever for every lever and an unknown one;
    then both institution levers at zero, inside and outside their ranges.
    """
    lines = []

    def record(name, fn, params, *args, **kwargs):
        # a tau keyword is set as params.tau; the line shows it as the keyword
        # argument the functions once took, so the digest stays as pinned
        try:
            result = fn(replace(params, **kwargs), *args)
        except ValueError as exc:
            result = f"ValueError: {exc}"
        lines.append(f"{name} {args!r} {kwargs!r} {result!r}")

    models = [CostModel(), CostModel(h_beta=None), CostModel(h_alpha=None),
              CostModel(CostTerm("power", 2.0, 2.0), CostTerm("linear", 0.5))]
    for k, (triple, params) in enumerate(sorted(family_configs().items())):
        lines.append(repr(triple))
        rng = np.random.default_rng(900 + k)
        abilities = [sample_ability(rng, params), sample_ability(rng, params)]
        abilities.append(Ability(10.0, abilities[0].beta))
        beta_cap = min(params.execution_cost.beta_domain()[1], 10.0)
        for ability in abilities:
            q_now = quality(params, ability).q
            span = 1.0 + abs(q_now)
            q_far = quality(params, Ability(max(10.0, ability.alpha),
                                            ability.beta + 0.5 * (beta_cap - ability.beta))).q
            for tau in [params.tau, q_now - span, q_far, q_now + 100.0 * span]:
                for model in models:
                    record("worker_upskill", worker_upskill, params, ability, model, tau=tau)
                for lever in ("alpha", "beta", "p_a", "gamma"):
                    record("minimal_lever", minimal_lever, params, ability, lever, tau=tau)
            p_room, b_room = 1.0 - params.p_a, params.b_i
            for d_p in (0.0, 0.5 * p_room, p_room, p_room + 0.01, -0.01):
                record("ai_upgrade_gain", ai_upgrade_gain, params, ability, d_p)
            for d_b in (0.0, 0.3 * b_room, b_room, b_room + 0.01, -0.01):
                record("incentive_transfer_gain", incentive_transfer_gain, params, ability, d_b)
    return "\n".join(lines) + "\n"


class TestLeversAreIdentitiesAtZero:
    def test_ai_upgrade_zero(self, reference):
        res = ai_upgrade_gain(reference, Ability(0.4, 0.6), 0.0)
        assert res.gain == 0.0
        assert res.lever == "ai_capability"

    def test_transfer_zero(self, reference):
        res = incentive_transfer_gain(reference, Ability(0.4, 0.6), 0.0)
        assert res.gain == 0.0

    def test_domain_errors(self, reference):
        with pytest.raises(ValueError):
            ai_upgrade_gain(reference, Ability(0.4, 0.6), 0.4)  # p_a + 0.4 > 1
        with pytest.raises(ValueError):
            incentive_transfer_gain(reference, Ability(0.4, 0.6), 15.0)

    def test_upskill_of_qualified_worker_is_zero_plan(self, reference):
        plan = worker_upskill(reference, Ability(0.9, 0.9), CostModel())
        assert (plan.d_alpha, plan.d_beta, plan.cost) == (0.0, 0.0, 0.0)
        assert plan.feasible


class TestAiCapabilityLever:
    def test_more_capable_ai_can_hurt(self, reference):
        # raising p_a to 0.70 moves the delegation threshold to 0.86 and
        # flips this manual worker into pure delegation at a quality loss
        ability = Ability(0.05, 0.75)
        base = dv.optimal_action(reference, ability)
        bumped = dv.optimal_action(reference.with_ai_success(0.70), ability)
        assert base.regime == dv.Regime.MANUAL
        assert bumped.regime == dv.Regime.PURE_DELEGATION
        res = ai_upgrade_gain(reference, ability, 0.05)
        assert res.gain == pytest.approx(-0.925, abs=1e-9)

    def test_gain_has_both_signs_on_the_grid(self, reference):
        gains = [ai_upgrade_gain(reference, Ability(a, b), 0.05).gain
                 for a in np.linspace(0, 1, 21) for b in np.linspace(0, 1, 21)]
        assert any(g > 1e-9 for g in gains)
        assert any(g < -1e-9 for g in gains)


class TestBenefitTransferLever:
    def test_gain_has_both_signs_on_the_grid(self, reference):
        gains = [incentive_transfer_gain(reference, Ability(a, b), 1.0).gain
                 for a in np.linspace(0, 1, 51) for b in np.linspace(0, 1, 51)]
        assert any(g > 1e-9 for g in gains)
        assert any(g < -1e-9 for g in gains)

    def test_transfer_improves_far_less_area_than_ai_upgrade(self, reference):
        points = [Ability(a, b) for a in np.linspace(0, 1, 51) for b in np.linspace(0, 1, 51)]
        gp_pos = sum(ai_upgrade_gain(reference, ab, 0.05).gain > 1e-9 for ab in points)
        gb_pos = sum(incentive_transfer_gain(reference, ab, 1.0).gain > 1e-9 for ab in points)
        assert gb_pos < gp_pos


class TestLeverGrid:
    @pytest.mark.parametrize("params", [pytest.param(params, id="+".join(triple))
                                        for triple, params in sorted(family_configs().items())])
    @pytest.mark.parametrize("lever", ["p_a", "b_transfer"])
    def test_two_sweeps_equal_the_scalar_levers_bitwise(self, params, lever):
        # the CLI's lever grid: gain is new_q - q, from one sweep under params and
        # one under the moved params
        alpha_range, beta_range = (0.0, 3.0, 13), (*beta_span(params), 11)
        if lever == "p_a":
            delta = 0.5 * (1.0 - params.p_a)
            scalar, moved = ai_upgrade_gain, params.with_ai_success(params.p_a + delta)
        else:
            delta = 0.3 * params.b_i
            scalar, moved = incentive_transfer_gain, params.with_benefit_transfer(delta)
        base = sweep_grid(params, alpha_range, beta_range)
        new = sweep_grid(moved, alpha_range, beta_range)
        gain = new.q - base.q
        for k, (alpha, beta) in enumerate(zip(base.alpha.tolist(), base.beta.tolist())):
            res = scalar(params, Ability(alpha, beta), delta)
            # hex compares the bits, the sign of a zero gain included
            assert ((gain[k].item().hex(), new.q[k].item().hex())
                    == (res.gain.hex(), res.new_q.hex())), (alpha, beta)


class TestInterventionFamily:
    def test_interventions_are_bitwise_frozen(self):
        text = _interventions_family_text()
        assert "ValueError: unknown lever" in text and "feasible=False" in text
        assert hashlib.sha256(text.encode()).hexdigest() == INTERVENTIONS_DIGEST


class TestMinimalLever:
    def test_already_qualified_returns_current_value(self, reference):
        target = minimal_lever(reference, Ability(0.9, 0.9), "alpha")
        assert target.value == 0.9
        assert target.feasible

    def test_alpha_lever_matches_qualification_boundary(self, reference):
        target = minimal_lever(reference, Ability(0.05, 0.5), "alpha")
        assert target.feasible
        assert target.value == pytest.approx(dv.psi_tau(reference, 0.5).value, abs=1e-3)

    def test_minimality_and_feasibility_at_the_target(self, reference):
        target = minimal_lever(reference, Ability(0.05, 0.5), "alpha")
        q_at = lambda a: dv.quality(reference, Ability(a, 0.5)).q
        assert q_at(target.value) >= 6.4 - 1e-8
        assert q_at(target.value - 1e-3) < 6.4

    def test_unreachable_tau_is_flagged(self, reference):
        target = minimal_lever(replace(reference, tau=1e5), Ability(0.05, 0.5), "alpha")
        assert not target.feasible

    def test_unknown_lever_rejected(self, reference):
        with pytest.raises(ValueError):
            minimal_lever(reference, Ability(0.1, 0.5), "gamma")


class TestUpskill:
    def test_axis_searches_match_single_levers(self, reference):
        ability = Ability(0.05, 0.1)
        alpha_only = worker_upskill(reference, ability, CostModel(h_beta=None))
        lever_a = minimal_lever(reference, ability, "alpha")
        assert alpha_only.d_alpha == pytest.approx(lever_a.value - ability.alpha, abs=1e-3)
        assert alpha_only.d_beta == 0.0

        beta_only = worker_upskill(reference, ability, CostModel(h_alpha=None))
        lever_b = minimal_lever(reference, ability, "beta")
        assert beta_only.d_beta == pytest.approx(lever_b.value - ability.beta, abs=1e-3)
        assert beta_only.d_alpha == 0.0

    def test_fan_never_costs_more_than_either_axis(self, reference):
        ability = Ability(0.05, 0.1)
        fan = worker_upskill(reference, ability, CostModel())
        alpha_only = worker_upskill(reference, ability, CostModel(h_beta=None))
        beta_only = worker_upskill(reference, ability, CostModel(h_alpha=None))
        assert fan.feasible
        assert fan.cost <= alpha_only.cost + 1e-9
        assert fan.cost <= beta_only.cost + 1e-9
        assert fan.achieved_q >= 6.4 - 1e-8 * (1 + 6.4)

    def test_feasible_plan_reaches_tau(self, reference):
        params = replace(reference, tau=7.0)
        plan = worker_upskill(params, Ability(0.02, 0.3), CostModel())
        assert plan.feasible
        reached = dv.quality(params, Ability(0.02 + plan.d_alpha, 0.3 + plan.d_beta)).q
        assert reached >= 7.0 - 1e-6

    def test_unreachable_tau_gives_infeasible_plan(self, reference):
        plan = worker_upskill(replace(reference, tau=1e5), Ability(0.05, 0.1), CostModel())
        assert not plan.feasible
        assert plan.cost == math.inf

    def test_power_costs_change_the_chosen_direction(self, reference):
        ability = Ability(0.05, 0.1)
        cheap_beta = CostModel(h_alpha=CostTerm("linear", 100.0), h_beta=CostTerm("linear", 0.01))
        plan = worker_upskill(reference, ability, cheap_beta)
        assert plan.feasible
        assert plan.d_beta > plan.d_alpha

    @pytest.mark.parametrize("ability, met", [(Ability(0.9, 0.9), True),
                                              (Ability(0.05, 0.1), False)], ids=["met", "unmet"])
    def test_all_disabled_is_an_error_whatever_the_worker(self, reference, ability, met):
        # the model is refused when it is built, so a worker who already meets
        # tau, and needs no plan, gets the error too
        assert (worker_upskill(reference, ability, CostModel(h_beta=None)).cost == 0.0) == met
        with pytest.raises(ValueError) as info:
            worker_upskill(reference, ability, CostModel(h_alpha=None, h_beta=None))
        assert str(info.value) == "at least one cost term must be enabled"

    def test_cost_term_validation(self):
        with pytest.raises(ValueError):
            CostTerm("power", 1.0, 1.0)
        with pytest.raises(ValueError):
            CostTerm("exp", 1.0)
        assert CostTerm("power", 2.0, 2.0)(3.0) == 18.0

    @pytest.mark.parametrize("kind, coefficient, exponent, word", [
        ("linear", math.nan, 1.0, "coefficient"), ("linear", math.inf, 1.0, "coefficient"),
        ("power", math.nan, 2.0, "coefficient"), ("power", 1.0, math.inf, "exponent"),
        ("power", 1.0, math.nan, "exponent"), ("linear", 1.0, math.nan, "exponent"),
    ])
    def test_cost_term_rejects_non_finite_input(self, kind, coefficient, exponent, word):
        with pytest.raises(ValueError, match=f"cost {word} must be finite"):
            CostTerm(kind, coefficient, exponent)

    def test_radii_equal_a_scalar_bisection_per_ray(self, monkeypatch, reference):
        searches = []  # (pred, lo, hi, tol, radii) of each fan bisection

        def recorded(pred, lo, hi, tol):
            result = bisect_array(pred, lo, hi, tol)
            searches.append((pred, lo, hi, tol, result[1]))
            return result

        monkeypatch.setattr(interventions, "bisect_array", recorded)
        rng = np.random.default_rng(23)
        for params in [reference] + [sample_params(rng) for _ in range(8)]:
            ability = sample_ability(rng, params)
            q_now = quality(params, ability).q
            worker_upskill(replace(params, tau=q_now + 0.002 * (1.0 + abs(q_now))), ability,
                           CostModel())
        assert sum(len(search[1]) for search in searches) >= 100
        for pred, lo, hi, tol, radii in searches:
            for k in range(len(lo)):
                want = bisect(lambda r: bool(pred(np.array([k]), np.array([r]))[0]),
                              lo[k], hi[k], tol)[1]
                assert np.float64(want).tobytes() == radii[k].tobytes()

    def test_plans_equal_the_per_direction_search(self):
        plans = upskill_plans()
        assert {p.feasible for p in plans} == {True, False}
        assert any(p.feasible and p.cost > 0.0 for p in plans)
        text = "\n".join(map(repr, plans))
        assert hashlib.sha256(text.encode()).hexdigest() == UPSKILL_PLANS_DIGEST


class TestCalibratedClinicianLevers:
    """Lever targets on the calibrated worker, anchored to closed-form identities."""

    def test_upskill_axis_plans_match_lever_targets(self, clinician_classified):
        res = clinician_classified
        params = res.params
        ability = Ability(res.worker.alpha, res.worker.beta)
        alpha_plan = worker_upskill(params, ability, CostModel(h_beta=None))
        assert alpha_plan.d_alpha == pytest.approx(
            res.lever_targets["alpha"].value - res.worker.alpha, abs=1e-3)
        beta_plan = worker_upskill(params, ability, CostModel(h_alpha=None))
        assert beta_plan.d_beta == pytest.approx(
            res.lever_targets["beta"].value - res.worker.beta, abs=1e-3)

    def test_beta_lever_solves_baseline_equation(self, clinician_classified):
        res = clinician_classified
        params = res.params
        target = res.lever_targets["beta"]
        # the worker stays manual as beta rises, so the target solves
        # q0(beta') = tau:  beta' = beta + (tau - q0) / (xi * t_w_max)
        expected = res.worker.beta + (150.0 - res.report.q0) / (params.xi * res.worker.t_w_max)
        assert target.feasible
        assert target.value == pytest.approx(expected, abs=1e-6)

    def test_alpha_lever_is_minimal_and_feasible(self, clinician_classified):
        res = clinician_classified
        params = res.params
        target = res.lever_targets["alpha"]
        beta = res.worker.beta
        q_at = lambda a: dv.quality(params, Ability(a, beta)).q  # params.tau is 150
        assert target.feasible
        assert q_at(target.value) >= 150.0 - 1e-5
        assert q_at(target.value - 5e-3) < 150.0

    def test_p_a_lever_solves_pure_delegation_equation(self, clinician_classified):
        res = clinician_classified
        params = res.params
        target = res.lever_targets["p_a"]
        # at the target the worker purely delegates: q0 - (b_i + l_i)(p_w - p') + xi c_w = tau
        obs = res.worker.observables
        expected = obs.p_w - (res.report.q0 + params.xi * obs.c_w - 150.0) / params.institution_stakes
        assert target.feasible
        assert target.value == pytest.approx(expected, abs=1e-6)
