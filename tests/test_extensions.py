"""The difficulty extension and the kappa (rework) and believed_p_a fields:
reductions, directional effects, and the belief's reach through the base model."""

import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import delver as dv
from delver import extensions
from delver.atlas import BOUNDARIES, QualityReport, boundary_curve, solve_points
from delver.extensions import (
    _PROBE_LEVELS, _branch, check_nodes, difficulty_params, expected_quality, unit_quadrature,
)
from delver.model import INVERSE_EFFICIENCY, Ability, Action, ExecutionCost, ModelParams
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import (
    bisect, bisect_array, manual_delegation_threshold, qualification_threshold,
)

from conftest import family_configs

# SHA-256 of the reprs of difficulty_reports() at these node counts and this
# pinned level (held as DifficultyProfile objects until a pinned level became
# solve_points under difficulty_params, which kept every repr). Taken at
# commit 6039a25 (the fourth profile had custom (intercept, slope) pairs until
# the profile shape became fixed) as
# 5086f26cb230c604e1d28fb1ac7ebe06052fb15c802fe4e67b73a851f0e6c0bc, and
# re-pinned when unit_quadrature's nodes moved from numpy's leggauss to a
# Newton search: 71 of the 120 reprs moved, each within the tolerance of
# test_reports_agree_with_leggauss_nodes; and re-pinned when the integrated
# reports began to hold Python floats, whose reprs are the old ones without
# their 288 np.float64(...) wrappers (test_report_fields_are_python_floats); and
# re-pinned when f_w took the delegation gain as one bracketed sum, which moves the
# regime switches the integration locates in their last bits: 3 reprs moved, q and q0
# by at most 3.2e-16 relative (the gap by at most 1.8e-15), with no label changed
DIFFICULTY_REPORTS_DIGEST = "fea9760463ecd4c0b57ef74c96cc29b5b000dbb9e60ac57a32492d6c1d135bbf"
DIFFICULTY_NODES = [64, 1, 8, 16]
PINNED_LEVEL = 0.3
# SHA-256 of scalar_reports(), taken at commit 6039a25, where belief was scored
# through coefficients and institutional_utility, and a wrapper set it; re-pinned when
# f_w took the delegation gain as one bracketed sum, delegation_gain's: 67 of the 144
# reprs moved, in f_w_at_s_dagger's last bits only (at most 4.3e-16 relative)
SCALAR_REPORTS_DIGEST = "c8beaef5e7538a9d43ff4ce8ca4e3ecfeb661909829583992f7cf7128673d390"


def columns(abilities):
    """The alpha and beta columns of a list of Abilities."""
    return np.array([a.alpha for a in abilities]), np.array([a.beta for a in abilities])


def difficulty_reports():
    """120 reports: 3 sampled workers per family triple, one call at each node
    count, then the pinned level's solve_points grid as reports.

    Between them the node counts place 0 to 5 kinks per worker.
    """
    reports = []
    for i, (_, params) in enumerate(sorted(family_configs().items())):
        rng = np.random.default_rng(700 + i)
        alpha, beta = columns([sample_ability(rng, params) for _ in range(3)])
        for nodes in DIFFICULTY_NODES:
            reports.extend(expected_quality(params, alpha, beta, nodes))
        grid = solve_points(difficulty_params(params, PINNED_LEVEL), alpha, beta)
        reports.extend(QualityReport.from_values(q, q0, params.tau)
                       for q, q0 in zip(grid.q.tolist(), grid.q0.tolist()))
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


class TestDifficulty:
    @pytest.mark.parametrize("nodes", [0, 1025, 2.5, True])
    def test_node_rule(self, reference, nodes):
        # nodes = 2.5 used to pass, and numpy's leggauss then raised TypeError;
        # a bool is an int to isinstance, but no node count. unit_quadrature(0)
        # raised numpy's zero-size reduction error, and unit_quadrature(True)
        # and unit_quadrature(1025) returned rules; every caller takes one rule
        message = rf"^nodes must be an integer in \[1, 1024\], got {nodes}$"
        for call in (check_nodes, unit_quadrature,
                     lambda n: expected_quality(reference, [0.5], [0.5], n)):
            with pytest.raises(ValueError, match=message):
                call(nodes)
        # the nodes are checked before the points
        with pytest.raises(ValueError, match=message):
            expected_quality(reference, [-1.0], [0.5], nodes)
        assert (check_nodes(np.int64(8)), type(check_nodes(np.int64(8)))) == (8, int)

    @pytest.mark.parametrize("value", [True, False])
    def test_difficulty_is_no_bool(self, reference, value):
        # a pinned difficulty of True used to pin hardness 1
        with pytest.raises(ValueError) as info:
            difficulty_params(reference, value)
        assert str(info.value) == f"'difficulty' must be a number, got {value}"
        with pytest.raises(ValueError, match=rf"^'kappa' must be a number, got {value}$"):
            replace(reference, kappa=value)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64, 255, 1024])
    def test_quadrature_integrates_polynomials_exactly(self, n):
        hs, ws = unit_quadrature(n)
        assert float(np.sum(ws)) == pytest.approx(1.0, rel=1e-14)
        # n nodes integrate degree 2n - 1 exactly
        assert float(np.sum(ws * hs ** (2 * n - 1))) == pytest.approx(1.0 / (2 * n), rel=1e-13)
        assert ws.tobytes() == ws[::-1].tobytes()
        if n % 2:
            assert hs[n // 2] == 0.5
        # numpy's eigenvalue-based leggauss as the reference for the nodes
        x, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(hs - 0.5 * (x + 1.0))) <= 2.2e-16

    def test_one_node_is_the_midpoint(self):
        hs, ws = unit_quadrature(1)
        assert (hs.tolist(), ws.tolist()) == ([0.5], [1.0])

    def test_cached_quadrature_is_read_only(self):
        hs, ws = unit_quadrature(8)
        assert unit_quadrature(8)[0] is hs
        # expected_quality takes a numpy integer node count
        assert unit_quadrature(np.int64(8))[0] is hs and unit_quadrature(np.int64(8))[1] is ws
        for array in (hs, ws):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5

    def test_reports_equal_the_per_level_integration(self):
        text = "\n".join(map(repr, difficulty_reports()))
        assert hashlib.sha256(text.encode()).hexdigest() == DIFFICULTY_REPORTS_DIGEST

    def test_report_fields_are_python_floats(self):
        # the integrated reports held np.float64 sums, printed as np.float64(...)
        # under numpy 2, while the pinned ones held floats
        for report in difficulty_reports():
            assert {type(getattr(report, name)) for name in ("q", "q0", "gap")} == {float}

    def test_reports_agree_with_leggauss_nodes(self, monkeypatch):
        # DIFFICULTY_REPORTS_DIGEST was re-pinned when the nodes moved from
        # numpy's leggauss to the Newton search; the reports on leggauss's
        # nodes and weights differ from the pinned ones in the last digits only
        reports = difficulty_reports()

        def leggauss_quadrature(nodes):
            x, w = np.polynomial.legendre.leggauss(nodes)
            return 0.5 * (x + 1.0), 0.5 * w

        monkeypatch.setattr(extensions, "unit_quadrature", leggauss_quadrature)
        for new, old in zip(reports, difficulty_reports(), strict=True):
            assert (new.quality_label, new.compliance_label) == \
                (old.quality_label, old.compliance_label)
            for name in ("q", "q0", "gap"):
                value = getattr(old, name)
                assert abs(getattr(new, name) - value) <= 1e-13 * abs(value)

    def test_kinks_equal_a_scalar_bisection_per_kink(self, reference, monkeypatch):
        # the one bisect_array call of a grid places each point's kinks, in
        # order, on the brackets a scalar bisect of each kink ends on; and each
        # report is the per-point loop over those kinks: one solve_points call
        # per segment, then a running sum over its nodes
        brackets = []

        def recording(*args, **kwargs):
            brackets.append(bisect_array(*args, **kwargs))
            return brackets[-1]

        monkeypatch.setattr(extensions, "bisect_array", recording)
        rng = np.random.default_rng(17)
        nodes, kinks = 64, 0
        hs = (np.arange(_PROBE_LEVELS) + 0.5) / _PROBE_LEVELS
        base_h, base_w = unit_quadrature(nodes)
        for params in [reference] + [sample_params(rng) for _ in range(8)]:
            abilities = [sample_ability(rng, params) for _ in range(3)]
            reports = expected_quality(params, *columns(abilities), nodes)
            want = []
            for ability, report in zip(abilities, reports, strict=True):
                def point(h):
                    return np.full(len(h), ability.alpha), np.full(len(h), ability.beta)
                branch = _branch(params, *point(hs), hs)
                cuts = [0.0]
                for k in np.flatnonzero(branch[:-1] != branch[1:]).tolist():
                    lo, hi = bisect(lambda h: _branch(params, *point([h]),
                                                      np.array([h]))[0] != branch[k],
                                    hs[k], hs[k + 1], 0.0, steps=45)
                    want.append((lo, hi))
                    cuts.append(0.5 * (lo + hi))
                q = q0 = 0.0
                for start, end in zip(cuts, cuts[1:] + [1.0]):
                    if end > start:
                        grid = solve_points(difficulty_params(
                            params, start + (end - start) * base_h), *point(base_h))
                        for w, node_q, node_q0 in zip((end - start) * base_w, grid.q, grid.q0):
                            q, q0 = q + w * node_q, q0 + w * node_q0
                assert (report.q.hex(), report.q0.hex()) == (float.hex(q), float.hex(q0))
            want = np.array(want, dtype=float).reshape(-1, 2)
            lo, hi = brackets.pop()
            assert (lo.tobytes(), hi.tobytes()) == (want[:, 0].tobytes(), want[:, 1].tobytes())
            kinks += len(want)
        assert (brackets, kinks >= 10) == ([], True)

    @pytest.mark.parametrize("block", [2, 3])
    def test_blocks_equal_one_point_calls(self, monkeypatch, block):
        # a grid split into blocks of 2 or 3 points, against each point alone,
        # over every family triple and some sampled configs
        rng = np.random.default_rng(23)
        cases = [(params, columns([sample_ability(rng, params) for _ in range(4)]))
                 for _, params in sorted(family_configs().items())]
        cases += [(params, columns([sample_ability(rng, params) for _ in range(7)]))
                  for params in [sample_params(rng) for _ in range(3)]]
        monkeypatch.setattr(extensions, "_BLOCK_POINTS", block)
        for nodes in (8, 64):
            for params, (alpha, beta) in cases:
                alone = [expected_quality(params, alpha[k:k + 1], beta[k:k + 1], nodes)
                         for k in range(len(alpha))]
                assert list(map(repr, expected_quality(params, alpha, beta, nodes))) == \
                    [repr(report) for [report] in alone]

    @pytest.mark.parametrize("inputs", ["reference-grid", "many-kinks"])
    def test_node_passes_stay_within_a_block_of_probe_rows(self, reference, monkeypatch, inputs):
        # a 31 x 31 grid: at 64 nodes it takes two blocks of up to 512 points;
        # at 1024 nodes a 512-point block's node pass would be 1,350,656 rows.
        # The 32 draws have more than four segments a point: a node pass in one
        # call was 139,264 rows on them, however the block was derived
        rows = []  # the rows of each solve_points call

        def recorded(params, alpha, beta):
            rows.append(len(alpha))
            return solve_points(params, alpha, beta)

        monkeypatch.setattr(extensions, "solve_points", recorded)
        if inputs == "reference-grid":
            params = reference
            alpha, beta = (axis.ravel() for axis in np.meshgrid(np.linspace(0.0, 4.0, 31),
                                                                np.linspace(0.05, 0.95, 31)))
            assert len(expected_quality(params, alpha, beta, 64)) == 961
            assert len(rows) == 2
        else:
            rng = np.random.default_rng(5)
            for triple, params in family_configs().items():
                draws = [sample_ability(rng, params) for _ in range(32)]
                if triple == ("inverse_linear", "linear_quadratic", "inverse_efficiency"):
                    break
            alpha, beta = columns(draws)
        rows.clear()
        reports = expected_quality(params, alpha, beta, 1024)
        assert len(reports) == len(alpha)
        assert max(rows) <= 512 * _PROBE_LEVELS

    def test_points_are_matching_1d_arrays(self, reference):
        for alpha, beta in ((0.5, 0.5), ([0.5], [0.5, 0.6]), ([[0.5]], [[0.5]])):
            with pytest.raises(ValueError,
                               match="^alpha and beta must be 1-d arrays of one length$"):
                expected_quality(reference, alpha, beta, 64)
        assert expected_quality(reference, [], [], 64) == []

    @pytest.mark.parametrize("level", [0, 0.0, -0.1, 1.1, 1.5, float("nan")])
    def test_levels_outside_the_half_open_interval_are_rejected(self, reference, level):
        with pytest.raises(ValueError) as info:
            difficulty_params(reference, level)
        assert str(info.value) == f"difficulty must lie in (0, 1], got {level}"

    @pytest.mark.parametrize("level", [np.array(2.0), np.float64(2.0), np.array(0.0),
                                       np.array(math.nan), np.float32(-0.5)],
                             ids=["0d-2", "float64-2", "0d-0", "0d-nan", "float32-minus-half"])
    def test_numpy_scalar_levels_are_checked(self, reference, level):
        # a 0-d array of 2 used to pass unchecked, to p_w = 0 and p_a = -0.4
        with pytest.raises(ValueError) as info:
            difficulty_params(reference, level)
        assert str(info.value) == f"difficulty must lie in (0, 1], got {level}"
        with pytest.raises(ValueError, match=r"^'difficulty' must be a number, got array\(True\)$"):
            difficulty_params(reference, np.array(True))

    def test_zero_difficulty_has_no_execution_scale(self, reference):
        # why h = 0 is rejected: the execution cost scale 10 h is zero there; a
        # 1-d array is not checked, so one holding 0 reaches the scale
        with pytest.raises(ValueError, match="execution cost scale must be finite and positive"):
            replace(difficulty_params(reference, np.array([0.0])).execution_cost)
        assert difficulty_params(reference, 1).execution_cost.scale == 10.0

    def test_arrays_pass_unchecked(self, reference):
        # only expected_quality's passes build arrays, from levels in (0, 1]
        h = np.array([0.0, 0.5, 1.5])
        params = difficulty_params(reference, h)
        assert [params.p_w.tolist(), params.p_a.tolist(), params.execution_cost.scale.tolist(),
                params.verification_cost.k.tolist()] == \
            [(1.0 - 0.5 * h).tolist(), (1.0 - 0.7 * h).tolist(), (10.0 * h).tolist(),
             (0.5 + h).tolist()]
        assert params.execution_cost.kind == reference.execution_cost.kind

    @pytest.mark.parametrize("kappa, beta", [(1.0, 5e-309), (1e299, 1e-300)],
                             ids=["C_w", "kappa-C_w"])
    def test_integrated_grid_fails_on_an_overflow_at_high_hardness(self, reference, kappa, beta):
        # C_w = 10 h / beta rises with h: at beta 5e-309 it overflows above h of
        # about 0.09 only. The grid is checked once, at h = 1, and fails with
        # the scalar path's message there, before any probe pass
        params = replace(reference, kappa=kappa,
                         execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 5.0))
        hardest = replace(params, execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 10.0))
        with pytest.raises(ValueError, match="must be finite") as scalar:
            dv.evaluate_point(hardest, Ability(0.5, beta))
        with pytest.raises(ValueError) as info:
            expected_quality(params, [0.5, 0.5, 0.5], [0.5, beta, 0.4], 64)
        assert str(info.value) == str(scalar.value)

    def test_pinned_middle_difficulty_reduces_to_base(self, reference):
        rng = np.random.default_rng(9)
        abilities = [Ability(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(40)]
        grid = solve_points(difficulty_params(reference, 0.5), *columns(abilities))
        for ability, ext in zip(abilities, grid, strict=True):
            base = dv.quality(reference, ability)
            assert ext.q == pytest.approx(base.q, rel=1e-9, abs=1e-9)
            assert ext.q0 == pytest.approx(base.q0, rel=1e-9, abs=1e-9)
            assert ext.quality_label == base.quality_label

    def test_quadrature_converges(self, reference):
        [coarse] = expected_quality(reference, [0.6], [0.5], 32)
        [fine] = expected_quality(reference, [0.6], [0.5], 64)
        assert coarse.q == pytest.approx(fine.q, rel=1e-6)
        assert coarse.q0 == pytest.approx(fine.q0, rel=1e-6)

    def test_manual_at_every_difficulty_means_zero_gap(self, reference):
        # alpha = 0 and full efficiency keep every difficulty level manual
        [rep] = expected_quality(reference, [0.0], [1.0], 32)
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
        # a difficulty level and the p_a lever move the true p_a; the worker still plans with 0.8
        ability = Ability(0.3, 0.6)
        over = believing(reference, 0.8)
        hard = difficulty_params(over, 0.5)
        assert (hard.p_a, hard.worker_view().p_a) == (1.0 - 0.7 * 0.5, 0.8)
        moved = replace(over, p_a=0.5)
        act, rep = dv.evaluate_point(moved, ability)
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
                assert (dv.evaluate_point(replace(params, kappa=1.0), ability)
                        == dv.evaluate_point(params, ability))

    def test_free_correction_raises_verification_effort(self, reference):
        for alpha in (0.5, 0.8, 1.2):
            for beta in (0.3, 0.6, 0.9):
                ability = Ability(alpha, beta)
                base = dv.optimal_action(reference, ability)
                free = dv.optimal_action(replace(reference, kappa=0.0), ability)
                if base.regime == dv.Regime.VERIFIED_DELEGATION:
                    assert free.s_dagger >= base.s_dagger - 1e-9

    def test_mild_discount_barely_moves_the_regime_map(self, reference):
        grid = [Ability(a, b) for a in np.linspace(0, 1, 41) for b in np.linspace(0, 1, 41)]
        discounted = replace(reference, kappa=0.8)
        same = sum(dv.optimal_action(discounted, ab).regime
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
        rework = replace(params, kappa=kappa)
        grid = dv.solve_points(rework, alpha, beta)
        for k, row in enumerate(grid):
            act, rep = dv.evaluate_point(rework, Ability(alpha[k].item(), beta[k].item()))
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
        checks = [lambda: replace(reference, kappa=kappa),
                  lambda: ModelParams(**{**reference.__dict__, "kappa": kappa})]
        for check in checks:
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value) == f"kappa must be finite and >= 0, got {kappa}"
