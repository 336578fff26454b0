"""Difficulty, belief, and rework extensions: reductions and directional effects."""

import hashlib

import numpy as np
import pytest

import delver as dv
from delver.extensions import (
    Belief, DifficultyProfile, Rework,
    believed_action_quality, expected_quality, rework_quality, unit_quadrature,
)
from delver.model import Ability, Action
from delver.sampling import sample_ability, sample_params

from conftest import family_configs

# SHA-256 of the reprs of difficulty_reports(), taken from the scalar
# integration that solved every difficulty level with its own evaluate_point
DIFFICULTY_REPORTS_DIGEST = "adb381479498a55d43d357b774565634f9a5f1439782d32ef40551bd681c3b8b"
DIFFICULTY_PROFILES = [
    DifficultyProfile(), DifficultyProfile(nodes=1), DifficultyProfile(nodes=8),
    DifficultyProfile(worker_success=(0.9, -0.4), ai_success=(0.95, -0.8),
                      execution_scale=(0.5, 4.0), verification_rate=(0.2, 2.5), nodes=16),
    DifficultyProfile(difficulty=0.3),
]


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


class TestDifficultyProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DifficultyProfile(worker_success=(1.0, 0.5))       # increasing
        with pytest.raises(ValueError):
            DifficultyProfile(worker_success=(0.4, -0.5))      # leaves [0, 1]
        with pytest.raises(ValueError):
            DifficultyProfile(execution_scale=(1.0, -0.5))     # decreasing cost
        with pytest.raises(ValueError, match="cost scales must be non-negative"):
            DifficultyProfile(execution_scale=(-1.0, 2.0))
        with pytest.raises(ValueError):
            DifficultyProfile(difficulty=1.5)
        with pytest.raises(ValueError):
            DifficultyProfile(nodes=0)

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

    @pytest.mark.parametrize("profile, h", [
        (DifficultyProfile(execution_scale=(0.0, 0.0)), 0.5 / 257),
        (DifficultyProfile(difficulty=0.0), 0.0),
        (DifficultyProfile(verification_rate=(0.0, 1.0), difficulty=0.0), 0.0),
    ], ids=["zero-scale", "pinned-at-zero-scale", "pinned-at-zero-rate"])
    def test_invalid_level_raises_the_scalar_path_error(self, reference, profile, h):
        with pytest.raises(ValueError) as scalar:
            profile.params_at(reference, h)
        with pytest.raises(ValueError) as info:
            expected_quality(reference, Ability(0.5, 0.5), profile)
        assert str(info.value) == str(scalar.value)

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


class TestBelief:
    def test_correct_belief_changes_nothing(self, reference):
        rng = np.random.default_rng(13)
        for _ in range(30):
            ability = Ability(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            act, rep = believed_action_quality(reference, ability, Belief(reference.p_a))
            base_act, base_rep = dv.evaluate_point(reference, ability)
            assert (act.d_star, act.s_star) == (base_act.d_star, base_act.s_star)
            assert rep.q == base_rep.q

    def test_zero_belief_means_manual(self, reference):
        act, rep = believed_action_quality(reference, Ability(0.7, 0.3), Belief(0.0))
        assert act.regime == dv.Regime.MANUAL
        assert rep.q == rep.q0

    def test_overconfidence_expands_pure_delegation(self, reference):
        grid = [Ability(a, b) for a in np.linspace(0, 1, 41) for b in np.linspace(0, 1, 41)]
        base_pure = {i for i, ab in enumerate(grid)
                     if dv.optimal_action(reference, ab).regime == dv.Regime.PURE_DELEGATION}
        believed_pure = {i for i, ab in enumerate(grid)
                         if believed_action_quality(reference, ab, Belief(0.7))[0].regime
                         == dv.Regime.PURE_DELEGATION}
        assert base_pure <= believed_pure
        assert len(believed_pure) > len(base_pure)

    def test_believed_action_never_beats_the_true_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            params = sample_params(rng)
            ability = sample_ability(rng, params)
            belief = Belief(float(rng.uniform(0, 1)))
            act, _ = believed_action_quality(params, ability, belief)
            u_believed = dv.worker_utility(params, ability, Action(float(act.d_star), act.s_star))
            opt = dv.optimal_action(params, ability)
            u_opt = dv.worker_utility(params, ability, Action(float(opt.d_star), opt.s_star))
            assert u_believed <= u_opt + 1e-10 * (1.0 + abs(u_opt))

    def test_validation(self):
        with pytest.raises(ValueError):
            Belief(1.2)


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

    def test_validation(self):
        for kappa in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Rework(kappa)
