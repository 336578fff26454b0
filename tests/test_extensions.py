"""Difficulty and rework extensions and the believed_p_a field: reductions,
directional effects, and the belief's reach through the base model."""

import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import delver as dv
from delver.atlas import BOUNDARIES, boundary_curve, solve_points
from delver.extensions import (
    _PROBE_LEVELS, DifficultyProfile, Rework, _branch, _smooth_breakpoints, expected_quality,
    rework_quality, unit_quadrature,
)
from delver.model import Ability, Action, ModelParams
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import bisect, manual_delegation_threshold, qualification_threshold

from conftest import family_configs

# SHA-256 of the reprs of difficulty_reports(), taken at commit 6039a25 with
# these profiles; the fourth had custom (intercept, slope) pairs until the
# profile shape became fixed
DIFFICULTY_REPORTS_DIGEST = "5086f26cb230c604e1d28fb1ac7ebe06052fb15c802fe4e67b73a851f0e6c0bc"
DIFFICULTY_PROFILES = [
    DifficultyProfile(), DifficultyProfile(nodes=1), DifficultyProfile(nodes=8),
    DifficultyProfile(nodes=16), DifficultyProfile(difficulty=0.3),
]
# SHA-256 of scalar_reports(), taken at commit 6039a25, where belief was scored
# through coefficients and institutional_utility, and a wrapper set it
SCALAR_REPORTS_DIGEST = "154c86ef63f3b23f744f12a620c397eb4b2ac350c7b12594778b515acac36d81"


def difficulty_reports():
    """120 reports: 3 sampled workers per family triple under each profile.

    Between them the integrated profiles place 0 to 5 kinks per worker.
    """
    reports = []
    for i, (_, params) in enumerate(sorted(family_configs().items())):
        rng = np.random.default_rng(700 + i)
        abilities = [sample_ability(rng, params) for _ in range(3)]
        for profile in DIFFICULTY_PROFILES:
            reports.extend(expected_quality(params, ability, profile) for ability in abilities)
    return reports


def scalar_reports():
    """144 results: 3 sampled workers per family triple, each from evaluate_point
    at kappa 1, 0.5 and 0 and at believed_p_a 0, 0.5 and 1."""
    results = []
    for i, (_, params) in enumerate(sorted(family_configs().items())):
        rng = np.random.default_rng(1100 + i)
        for ability in [sample_ability(rng, params) for _ in range(3)]:
            results.extend(dv.evaluate_point(replace(params, kappa=kappa), ability)
                           for kappa in (1.0, 0.5, 0.0))
            results.extend(dv.evaluate_point(replace(params, believed_p_a=p_hat), ability)
                           for p_hat in (0.0, 0.5, 1.0))
    return results


def test_scalar_reports_are_unchanged():
    text = "\n".join(map(repr, scalar_reports()))
    assert hashlib.sha256(text.encode()).hexdigest() == SCALAR_REPORTS_DIGEST


class TestDifficultyProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DifficultyProfile(difficulty=1.5)
        with pytest.raises(ValueError):
            DifficultyProfile(nodes=0)
        # nodes = 2.5 used to pass, and numpy's leggauss then raised TypeError;
        # a bool is an int to isinstance, but no node count
        for nodes in (1025, 2.5, True):
            message = rf"^nodes must be an integer in \[1, 1024\], got {nodes}$"
            with pytest.raises(ValueError, match=message):
                DifficultyProfile(nodes=nodes)
        assert DifficultyProfile(nodes=np.int64(8)) == DifficultyProfile(nodes=8)

    @pytest.mark.parametrize("value", [True, False])
    def test_difficulty_is_no_bool(self, value):
        # DifficultyProfile(difficulty=True) used to pin hardness 1
        with pytest.raises(ValueError) as info:
            DifficultyProfile(difficulty=value)
        assert str(info.value) == f"'difficulty' must be a number, got {value}"
        with pytest.raises(ValueError, match=rf"^'kappa' must be a number, got {value}$"):
            Rework(value)

    def test_quadrature_integrates_polynomials_exactly(self):
        hs, ws = unit_quadrature(8)
        assert float(np.sum(ws)) == pytest.approx(1.0, rel=1e-14)
        assert float(np.sum(ws * hs ** 5)) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_cached_quadrature_is_read_only(self):
        hs, ws = unit_quadrature(8)
        assert unit_quadrature(8)[0] is hs
        for array in (hs, ws):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_reports_equal_the_per_level_integration(self):
        text = "\n".join(map(repr, difficulty_reports()))
        assert hashlib.sha256(text.encode()).hexdigest() == DIFFICULTY_REPORTS_DIGEST

    def test_kinks_equal_a_scalar_bisection_per_kink(self, reference):
        rng = np.random.default_rng(17)
        profile, kinks = DifficultyProfile(), 0
        for params in [reference] + [sample_params(rng) for _ in range(8)]:
            for ability in [sample_ability(rng, params) for _ in range(3)]:
                hs = (np.arange(_PROBE_LEVELS) + 0.5) / _PROBE_LEVELS
                branch = _branch(params, ability, profile, hs)
                want = [0.0]
                for k in np.flatnonzero(branch[:-1] != branch[1:]).tolist():
                    lo, hi = bisect(lambda h: _branch(params, ability, profile, np.array([h]))[0]
                                    != branch[k], hs[k], hs[k + 1], 0.0, steps=45)
                    want.append(0.5 * (lo + hi))
                want.append(1.0)
                kinks += len(want) - 2
                assert _smooth_breakpoints(params, ability, profile).tobytes() == \
                    np.array(want).tobytes()
        assert kinks >= 10

    @pytest.mark.parametrize("level", [0.0, -0.1, 1.1, float("nan")])
    def test_levels_outside_the_half_open_interval_are_rejected(self, level):
        with pytest.raises(ValueError, match=r"^difficulty must lie in \(0, 1\], got "):
            DifficultyProfile(difficulty=level)

    def test_zero_difficulty_has_no_execution_scale(self, reference):
        # why h = 0 is rejected: the execution cost scale 10 h is zero there
        with pytest.raises(ValueError, match="execution cost scale must be finite and positive"):
            DifficultyProfile().params_at(reference, 0.0)
        assert DifficultyProfile(difficulty=1.0).difficulty == 1.0

    def test_pinned_middle_difficulty_reduces_to_base(self, reference):
        profile = DifficultyProfile(difficulty=0.5)
        rng = np.random.default_rng(9)
        for _ in range(40):
            ability = Ability(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            base = dv.quality(reference, ability)
            ext = expected_quality(reference, ability, profile)
            assert ext.q == pytest.approx(base.q, rel=1e-9, abs=1e-9)
            assert ext.q0 == pytest.approx(base.q0, rel=1e-9, abs=1e-9)
            assert ext.quality_label == base.quality_label

    def test_quadrature_converges(self, reference):
        ability = Ability(0.6, 0.5)
        coarse = expected_quality(reference, ability, DifficultyProfile(nodes=32))
        fine = expected_quality(reference, ability, DifficultyProfile(nodes=64))
        assert coarse.q == pytest.approx(fine.q, rel=1e-6)
        assert coarse.q0 == pytest.approx(fine.q0, rel=1e-6)

    def test_manual_at_every_difficulty_means_zero_gap(self, reference):
        # alpha = 0 and full efficiency keep every difficulty level manual
        rep = expected_quality(reference, Ability(0.0, 1.0), DifficultyProfile(nodes=32))
        assert rep.gap == pytest.approx(0.0, abs=1e-12)
        assert rep.quality_label == dv.QualityLabel.UNCHANGED


def believing(params, p_hat):
    return replace(params, believed_p_a=p_hat)


FAMILY_PARAMS = [pytest.param(params, id="+".join(triple))
                 for triple, params in sorted(family_configs().items())]
BELIEFS = [0.0, 0.5, 1.0]


def sample_points(params, seed=47, n=60):
    """n random points and the corners of [0, 3] x the beta span, as alpha and beta columns."""
    rng = np.random.default_rng(seed)
    lo, hi = beta_span(params)
    alpha = np.concatenate([rng.uniform(0.0, 3.0, n), [0.0, 3.0]])
    beta = np.concatenate([rng.uniform(lo, hi, n), [lo, hi]])
    return alpha, beta


def grid_bits(grid):
    """Every column of an AtlasGrid as bytes, so == compares bits, zero signs included."""
    return [getattr(grid, f.name).tobytes() for f in fields(grid)]


def curve_bits(points):
    return [(beta.hex(), alpha.hex(), bracketed) for beta, alpha, bracketed in points]


def threshold_bits(res):
    return res.value.hex(), res.bracketed, res.note


class TestBelievedSuccess:
    def test_correct_belief_changes_nothing(self, reference):
        rng = np.random.default_rng(13)
        for _ in range(30):
            ability = Ability(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            act, rep = dv.evaluate_point(believing(reference, reference.p_a), ability)
            base_act, base_rep = dv.evaluate_point(reference, ability)
            assert (act.d_star, act.s_star) == (base_act.d_star, base_act.s_star)
            assert rep.q == base_rep.q

    def test_zero_belief_means_manual(self, reference):
        act, rep = dv.evaluate_point(believing(reference, 0.0), Ability(0.7, 0.3))
        assert act.regime == dv.Regime.MANUAL
        assert rep.q == rep.q0

    def test_overconfidence_expands_pure_delegation(self, reference):
        grid = [Ability(a, b) for a in np.linspace(0, 1, 41) for b in np.linspace(0, 1, 41)]
        over = believing(reference, 0.7)
        base_pure = {i for i, ab in enumerate(grid)
                     if dv.optimal_action(reference, ab).regime == dv.Regime.PURE_DELEGATION}
        believed_pure = {i for i, ab in enumerate(grid)
                         if dv.optimal_action(over, ab).regime == dv.Regime.PURE_DELEGATION}
        assert base_pure <= believed_pure
        assert len(believed_pure) > len(base_pure)

    def test_believed_action_never_beats_the_true_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            params = sample_params(rng)
            ability = sample_ability(rng, params)
            act = dv.optimal_action(believing(params, float(rng.uniform(0, 1))), ability)
            u_believed = dv.worker_utility(params, ability, Action(float(act.d_star), act.s_star))
            opt = dv.optimal_action(params, ability)
            u_opt = dv.worker_utility(params, ability, Action(float(opt.d_star), opt.s_star))
            assert u_believed <= u_opt + 1e-10 * (1.0 + abs(u_opt))

    @pytest.mark.parametrize("p_hat", [1.2, -0.1, math.nan, math.inf])
    def test_validation(self, reference, p_hat):
        with pytest.raises(ValueError) as info:
            believing(reference, p_hat)
        assert str(info.value) == "believed success probability must lie in [0, 1]"

    def test_p_a_moves_leave_the_belief_where_it_is(self, reference):
        # a p_a column and the p_a lever move the true p_a; the worker still plans with 0.8
        ability = Ability(0.3, 0.6)
        over = believing(reference, 0.8)
        moved = replace(over, p_a=0.5)
        grid = solve_points(over, [ability.alpha], [ability.beta], p_a=[0.5])
        act, rep = dv.evaluate_point(moved, ability)
        assert (grid.s_star[0], grid.q[0]) == (act.s_star, rep.q)
        assert act == dv.optimal_action(over, ability)
        assert rep.q == dv.institutional_utility(moved, ability,
                                                 Action(float(act.d_star), act.s_star))

    @pytest.mark.parametrize("params", FAMILY_PARAMS)
    @pytest.mark.parametrize("p_hat", BELIEFS)
    def test_array_pass_equals_the_scalar_belief_bitwise(self, params, p_hat):
        alpha, beta = sample_points(params)
        believed = believing(params, p_hat)
        grid = solve_points(believed, alpha, beta)
        for k, row in enumerate(grid):
            ability = Ability(alpha[k].item(), beta[k].item())
            act, rep = dv.evaluate_point(believed, ability)
            # hex compares the bits of the floats, the sign of a zero included
            assert ([row.d_star, row.s_star.hex(), row.regime, row.q.hex(), row.q0.hex(),
                     row.gap.hex(), row.quality_label, row.compliance_label]
                    == [act.d_star, act.s_star.hex(), act.regime, rep.q.hex(), rep.q0.hex(),
                        rep.gap.hex(), rep.quality_label, rep.compliance_label]), k
            # q is scored at the true p_a, whatever the worker believes
            q = dv.institutional_utility(params, ability, Action(float(act.d_star), act.s_star))
            assert rep.q.hex() == q.hex(), k


class TestBelievedSuccessIdentities:
    """A belief is read by the worker's side alone, and a known one is no belief."""

    @pytest.mark.parametrize("params", FAMILY_PARAMS)
    def test_a_known_belief_is_the_base_model_bitwise(self, params):
        known = believing(params, params.p_a)
        alpha, beta = sample_points(params, n=20)
        assert grid_bits(solve_points(known, alpha, beta)) == \
            grid_bits(solve_points(params, alpha, beta))
        for a, b in zip(alpha.tolist(), beta.tolist()):
            assert repr(dv.evaluate_point(known, Ability(a, b))) == \
                repr(dv.evaluate_point(params, Ability(a, b)))
        betas = np.linspace(*beta_span(params), 5)
        for which in BOUNDARIES:
            assert curve_bits(boundary_curve(known, which, betas)) == \
                curve_bits(boundary_curve(params, which, betas)), which
        for threshold in (manual_delegation_threshold, qualification_threshold):
            assert threshold_bits(threshold(known)) == threshold_bits(threshold(params))

    @pytest.mark.parametrize("params", FAMILY_PARAMS)
    @pytest.mark.parametrize("p_hat", BELIEFS)
    def test_the_worker_side_plans_at_the_believed_p_a_bitwise(self, params, p_hat):
        believed, moved = believing(params, p_hat), replace(params, p_a=p_hat)
        alpha, beta = sample_points(params, n=4)
        for a, b in zip(alpha.tolist(), beta.tolist()):
            ability = Ability(a, b)
            assert repr(dv.optimal_action(believed, ability)) == \
                repr(dv.optimal_action(moved, ability))
            (oracle, u), (moved_oracle, moved_u) = (dv.brute_force_action(p, ability)
                                                    for p in (believed, moved))
            assert (oracle, u.hex()) == (moved_oracle, moved_u.hex())
        assert threshold_bits(manual_delegation_threshold(believed)) == \
            threshold_bits(manual_delegation_threshold(moved))
        betas = np.linspace(*beta_span(params), 5)
        for which in ("psi0", "psi1"):
            assert curve_bits(boundary_curve(believed, which, betas)) == \
                curve_bits(boundary_curve(moved, which, betas)), which

    def test_psi_tau_under_a_belief_is_the_true_quality_crossing_tau(self):
        # the worker verifies at the believed s_dagger, and the quality of that
        # delegation, from the primitives at the true p_a, crosses tau at the root
        checked = 0
        for params in family_configs().values():
            tol = 1e-9 * (1.0 + abs(params.tau))
            for p_hat in BELIEFS:
                believed = believing(params, p_hat)

                def excess(alpha, beta):
                    ability = Ability(alpha, beta)
                    c = dv.coefficients(params, ability, dv.optimal_verification(believed, ability))
                    return c.g_i + c.f_i - params.tau

                for beta, alpha, bracketed in boundary_curve(believed, "psi_tau",
                                                             np.linspace(*beta_span(params), 5)):
                    if bracketed and alpha > 0.0:
                        assert excess(max(0.0, alpha - 1e-6), beta) <= tol, (p_hat, beta)
                        assert excess(alpha + 1e-6, beta) >= -tol, (p_hat, beta)
                        checked += 1
        assert checked >= 30


class TestRework:
    def test_full_redo_cost_recovers_base_model(self, reference):
        # kappa = 1 is the base model path itself, so the results are equal exactly
        rng = np.random.default_rng(43)
        for params in [reference] + [sample_params(rng) for _ in range(5)]:
            for _ in range(40):
                ability = sample_ability(rng, params)
                assert rework_quality(params, ability, Rework(1.0)) == dv.evaluate_point(params, ability)

    def test_free_correction_raises_verification_effort(self, reference):
        for alpha in (0.5, 0.8, 1.2):
            for beta in (0.3, 0.6, 0.9):
                ability = Ability(alpha, beta)
                base = dv.optimal_action(reference, ability)
                free, _ = rework_quality(reference, ability, Rework(0.0))
                if base.regime == dv.Regime.VERIFIED_DELEGATION:
                    assert free.s_dagger >= base.s_dagger - 1e-9

    def test_mild_discount_barely_moves_the_regime_map(self, reference):
        grid = [Ability(a, b) for a in np.linspace(0, 1, 41) for b in np.linspace(0, 1, 41)]
        same = sum(rework_quality(reference, ab, Rework(0.8))[0].regime
                   == dv.optimal_action(reference, ab).regime for ab in grid)
        assert same / len(grid) >= 0.95

    @pytest.mark.parametrize("params", [pytest.param(params, id="+".join(triple))
                                        for triple, params in sorted(family_configs().items())])
    @pytest.mark.parametrize("kappa", [0.0, 0.37, 1.0, 2.5])
    def test_array_pass_equals_the_scalar_rework_bitwise(self, params, kappa):
        rng = np.random.default_rng(53)
        lo, hi = beta_span(params)
        alpha = np.concatenate([rng.uniform(0.0, 3.0, 60), [0.0, 3.0]])
        beta = np.concatenate([rng.uniform(lo, hi, 60), [lo, hi]])
        grid = dv.solve_points(replace(params, kappa=kappa), alpha, beta)
        for k, row in enumerate(grid):
            act, rep = rework_quality(params, Ability(alpha[k].item(), beta[k].item()),
                                      Rework(kappa))
            # hex compares the bits of the floats, the sign of a zero included
            assert ([row.d_star, row.s_star.hex(), row.regime, row.q.hex(), row.q0.hex(),
                     row.gap.hex(), row.quality_label, row.compliance_label]
                    == [act.d_star, act.s_star.hex(), act.regime, rep.q.hex(), rep.q0.hex(),
                        rep.gap.hex(), rep.quality_label, rep.compliance_label]), k

    @pytest.mark.parametrize("kappa", [-0.1, -3.0, float("nan"), float("inf")])
    def test_validation(self, reference, kappa):
        # evaluate_point once scored kappa = -3 as q = 8.40625, improved, and
        # called nan too large; kappa is now a ModelParams field, checked once
        assert reference.kappa == 1.0
        checks = [lambda: Rework(kappa),
                  lambda: replace(reference, kappa=kappa),
                  lambda: ModelParams(**{**reference.__dict__, "kappa": kappa})]
        for check in checks:
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == f"kappa must be finite and >= 0, got {kappa}"
