"""Separatrices, quality labels, and grid sweeps against the closed forms."""

import hashlib
import io
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import delver as dv
import delver.atlas as atlas
from delver.atlas import (
    COMPLIANCE_LABELS, QUALITY_LABELS, AtlasRow, ComplianceLabel, QualityLabel, QualityReport,
    RootResult, boundary_curve, grid_columns, psi, psi0, psi1, psi_prime, fmt, psi_tau, quality,
    separatrix_intersection, solve_actions, solve_points, sweep_grid, write_atlas_csv, write_csv,
)
from delver.model import (
    INVERSE_EFFICIENCY, LINEAR, LINEAR_IN_EFFICIENCY, Ability, ExecutionCost, VerificationCost,
    coefficients, outcome_at, phi_coefficients, replace_unchecked,
)
from delver.sampling import beta_span, sample_params
from delver.solver import (
    REGIMES, Regime, bisect, manual_delegation_threshold, qualification_threshold,
)

from conftest import family_configs


# SHA-256 of _boundary_family_text(), frozen before the separatrices shared one search and
# re-pinned when s_dagger under linear_quadratic cost moved from golden-section search
# to Newton's method (roots moved by at most 7.1e-8 relative; see CHANGES.md), when
# the thresholds moved from bisection to the inverse of C_w (thresholds moved by at
# most 1.83e-12 relative, with every flag, note and error kept), and when psi1 moved
# from bisection to its closed form (62 psi1 records moved, by at most 2.9e-10, with
# every flag and side kept; see TestPsi1ClosedForm), and when psi0 and psi1 began to
# check beta before the side of t (32 error and empty-curve records became the beta's
# own error, with no value moved; see test_negative_beta_fails_the_ability_check_first)
BOUNDARY_DIGEST = "7c202da89ce85c415b7316597ec3a6dc94e641cd9c0dce431e3ef8179e7fef7e"
# SHA-256 of _search_trace_text(), frozen before _bisect_boundary kept bisect's own bracket
SEARCH_DIGEST = "f7e6a05321c101356e59055dc5c254fbd32dd542ffd47626974ee23f2a5660c4"


def _boundary_family_text():
    """The reprs of every boundary result and error over family_configs(), one per line.

    Per configuration: both thresholds, the separatrix intersection where t
    is a root, each boundary at betas across the span and on both sides of
    t, psi_tau at taus that flag it low and high, boundary_curve, and the
    errors at a negative, a NaN and an out-of-domain beta (a subnormal one
    under inverse_efficiency).
    """
    lines = []

    def record(name, fn, *args):
        try:
            result = fn(*args)
        except ValueError as exc:
            result = f"ValueError: {exc}"
        lines.append(f"{name} {args[1:]!r} {result!r}")

    for triple, params in sorted(family_configs().items()):
        t = manual_delegation_threshold(params)
        lines.append(f"{triple} {t!r} {qualification_threshold(params)!r}")
        if t.bracketed:
            record("separatrix_intersection", separatrix_intersection, params)
        lo, hi = beta_span(params)
        betas = np.concatenate([np.linspace(lo, hi, 5), np.linspace(lo, t.value, 3)[1:],
                                np.linspace(t.value, hi, 3)[:-1]])
        invalid = [-1.0, math.nan, 1.5 if hi == 1.0 else 1e-310]
        for beta in [*betas.tolist(), *invalid]:
            for name, fn in (("psi0", psi0), ("psi1", psi1), ("psi", psi), ("psi_prime", psi_prime),
                             ("psi_tau", psi_tau)):
                record(name, fn, params, beta)
            for tau in (-1e6, 1e6):
                record("psi_tau", psi_tau, params, beta, tau)
        for which in ("psi0", "psi1", "psi", "psi_tau"):
            record("boundary_curve", boundary_curve, params, which, betas)
            for beta in invalid:
                record("boundary_curve", boundary_curve, params, which, [beta])
    return "\n".join(lines) + "\n"


def _search_trace_text(monkeypatch):
    """Every boundary search's sign-call arguments and RootResult fields, one search per line.

    Per configuration (the reference, family_configs() and
    _large_stakes_params(), each at kappa 1 and 2.5), at 21 betas across
    beta_span: boundary_curve for psi0, psi and psi_tau (at the config's
    tau and at the quality of alpha 1 at the middle beta), then psi_prime at
    each beta alone. Floats are float.hex.
    """
    lines = []
    search = atlas._bisect_boundary

    def traced(fn, guess=None):
        calls = []
        res = search(lambda alpha: calls.append(alpha) or fn(alpha), guess)
        lines.append(" ".join([*(a.hex() for a in calls), "|", res.value.hex(), str(res.bracketed),
                               res.side, str(res.evaluations), res.lo.hex(), res.hi.hex()]))
        return res

    configs = [dv.reference_params(), *family_configs().values(), *_large_stakes_params()]
    with monkeypatch.context() as patch:
        patch.setattr(atlas, "_bisect_boundary", traced)
        for params in (replace(p, kappa=kappa) for p in configs for kappa in (1.0, 2.5)):
            lo, hi = beta_span(params)
            betas = np.linspace(lo, hi, 21).tolist()
            ability = Ability(1.0, 0.5 * (lo + hi))
            coef = coefficients(params, ability, dv.optimal_verification(params, ability))
            for which, curve_params in (("psi0", params), ("psi", params), ("psi_tau", params),
                                        ("psi_tau", replace(params, tau=coef.g_i + coef.f_i))):
                boundary_curve(curve_params, which, betas)
            for beta in betas:
                psi_prime(params, beta)
    return "\n".join(lines) + "\n"


def psi0_closed(beta):
    return 20.0 / (math.sqrt(77.0 + 70.0 * beta) - math.sqrt(200.0 * beta - 144.0)) ** 2


def psi1_closed(beta):
    return 20.0 / (77.0 + 70.0 * beta)


def psi1_formula(params, beta):
    """psi1 as C_v'(0) / (k_w scale), with k_w the worker's at C_w(beta)."""
    k_w = phi_coefficients(params.worker_view(), params.execution_cost.cost(beta))[0]
    return params.verification_cost.slope(0.0) / (k_w * params.detection.scale)


def psi1_sign(params, beta):
    """psi1's sign function when it was searched: k_w phi'(alpha, 0) - C_v'(0), linear in alpha."""
    k_w = phi_coefficients(params.worker_view(), params.execution_cost.cost(beta))[0]
    c_v0 = params.verification_cost.slope(0.0)
    return lambda alpha: k_w * float(params.detection.slope(alpha, 0.0)) - c_v0


class TestQuality:
    def test_manual_region_keeps_baseline(self, reference):
        rep = quality(reference, Ability(0.1, 0.9))
        assert rep.gap == 0.0
        assert rep.quality_label == QualityLabel.UNCHANGED
        assert rep.compliance_label == ComplianceLabel.NEITHER

    def test_strong_verifier_with_weak_execution_gains_compliance(self, reference):
        rep = quality(reference, Ability(0.9, 0.1))
        assert rep.q0 < reference.tau < rep.q
        assert rep.quality_label == QualityLabel.IMPROVED
        assert rep.compliance_label == ComplianceLabel.GAIN
        # frozen from this solver, cross-checked against the coefficient path
        assert rep.q == pytest.approx(7.8277562, abs=1e-6)

    def test_gap_matches_delegation_increment(self, reference):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ability = Ability(float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1)))
            act, rep = dv.evaluate_point(reference, ability)
            f_i = coefficients(reference, ability, act.s_star).f_i
            assert abs(rep.gap - f_i * act.d_star) <= 1e-10 * (1.0 + abs(rep.q))


class TestLabelTies:
    """Each tie of the one quality and compliance rule, for a float and for an array.

    At q0 = 0 the unchanged band is exactly +-1e-9, so gap = +-tol is exact.
    """

    Q, C = QualityLabel, ComplianceLabel
    CASES = [  # (q, q0, tau, quality label, compliance label)
        (1e-9, 0.0, 5.0, Q.UNCHANGED, C.NEITHER),  # gap = +tol
        (-1e-9, 0.0, 5.0, Q.UNCHANGED, C.NEITHER),  # gap = -tol
        (math.nextafter(1e-9, 1.0), 0.0, 5.0, Q.IMPROVED, C.NEITHER),  # one ulp past +tol
        (math.nextafter(-1e-9, -1.0), 0.0, 5.0, Q.DEGRADED, C.NEITHER),  # one ulp past -tol
        (1.0, 0.5, 1.0, Q.IMPROVED, C.GAIN),  # q = tau, q0 < tau
        (0.5, 1.0, 1.0, Q.DEGRADED, C.LOSS),  # q0 = tau, q < tau
        (1.0, 1.0, 1.0, Q.UNCHANGED, C.NEITHER),  # both at tau
        (math.nan, 1.0, 1.0, Q.UNCHANGED, C.NEITHER),  # NaN q, q0 at tau
        (math.nan, 0.5, 1.0, Q.UNCHANGED, C.NEITHER),  # NaN q, q0 below tau
    ]

    @pytest.mark.parametrize("q,q0,tau,quality_label,compliance_label", CASES)
    def test_float_ties(self, q, q0, tau, quality_label, compliance_label):
        rep = QualityReport.from_values(q, q0, tau)
        assert (rep.quality_label, rep.compliance_label) == (quality_label, compliance_label)
        assert rep.gap == q - q0 or math.isnan(q)

    def test_array_ties(self):
        q, q0, tau = (np.array(column) for column in list(zip(*self.CASES))[:3])
        gap, quality_index, compliance_index = atlas._label_indices(q, q0, tau)
        assert [QUALITY_LABELS[i] for i in quality_index] == [case[3] for case in self.CASES]
        assert [COMPLIANCE_LABELS[i] for i in compliance_index] == [case[4] for case in self.CASES]
        assert np.array_equal(gap, q - q0, equal_nan=True)


# the grid of each configuration below: 81 alphas in [0, 4] x 41 betas across beta_span
_DRAW_ALPHAS = (0.0, 4.0, 81)
_DRAW_BETAS = 41
# the reference grid: 161 x 81 = 13,041 points
_REFERENCE_GRID = ((0.0, 4.0, 161), (0.0, 1.0, 81))


def _draws():
    """family_configs() and 24 sample_params draws (seed 29): each under dominance, no belief."""
    rng = np.random.default_rng(29)
    return [*family_configs().values(), *(sample_params(rng) for _ in range(24))]


def _sweep(params, alpha_range, beta_range):
    """(grid, degraded mask, task success) of solve_points on the grid_columns grid."""
    grid = solve_points(params, *grid_columns(alpha_range, beta_range))
    phi = params.detection.prob(grid.alpha, grid.s_star)
    c_w = params.execution_cost.unchecked_cost(grid.beta)
    success = outcome_at(params, phi, c_w, grid.s_star, grid.d_star)[0]
    return grid, grid.quality_label == QUALITY_LABELS.index(QualityLabel.DEGRADED), success


def _aligned(params):
    """params with the worker's stakes scaled by xi: b_i = xi b_w and l_i = xi l_w."""
    return replace(params, b_i=params.xi * params.b_w, l_i=params.xi * params.l_w)


class TestWhyQualityDegrades:
    """f_i = xi f_w + m dP, with m = ModelParams.misalignment, and the facts that follow.

    (A) aligned stakes degrade no point; (B) under dominance and without a
    belief, a degraded worker delegates at a task success below p_w, so no
    point is degraded when p_a >= p_w; (C) a belief degrades points even at
    aligned stakes. The labels are solve_points', with their own tolerance.
    """

    def test_aligned_stakes_degrade_no_point(self):
        unaligned = 0
        for params in _draws():
            beta_range = (*beta_span(params), _DRAW_BETAS)
            assert not _sweep(_aligned(params), _DRAW_ALPHAS, beta_range)[1].any()
            unaligned += int(_sweep(params, _DRAW_ALPHAS, beta_range)[1].sum())
        assert unaligned > 0  # the same grids see degradation when the stakes differ

    def test_degraded_workers_delegate_below_the_manual_success(self):
        seen = 0
        for params in _draws():
            assert params.misalignment > 0.0 and params.believed_p_a is None
            beta_range = (*beta_span(params), _DRAW_BETAS)
            grid, degraded, success = _sweep(params, _DRAW_ALPHAS, beta_range)
            seen += int(degraded.sum())
            assert (grid.d_star[degraded] == 1).all()
            assert (success[degraded] < params.p_w).all()
            if params.p_a >= params.p_w:
                assert not degraded.any()
            for p_a in (params.p_w, 0.5 * (1.0 + params.p_w)):
                assert not _sweep(replace(params, p_a=p_a), _DRAW_ALPHAS, beta_range)[1].any()
        assert seen > 0

    def test_reference_degradation_stops_at_the_manual_success(self, reference):
        grid, degraded, success = _sweep(reference, *_REFERENCE_GRID)
        assert len(grid) == 13041 and int(degraded.sum()) == 939
        assert round(float(success[degraded].max()), 5) == 0.74627 < reference.p_w
        for p_a in (0.8, 0.9):
            assert not _sweep(replace(reference, p_a=p_a), *_REFERENCE_GRID)[1].any()

    def test_a_belief_degrades_aligned_stakes(self, reference):
        # the stated counterexample to (A): over-trust is a second channel
        aligned = _aligned(reference)
        believed = _sweep(replace(aligned, believed_p_a=0.75), *_REFERENCE_GRID)[1]
        assert int(believed.sum()) == 519
        assert not _sweep(replace(aligned, believed_p_a=0.5), *_REFERENCE_GRID)[1].any()


class TestSeparatrices:
    def test_psi1_closed_form(self, reference):
        for beta in (0.0, 0.2, 0.4, 0.6, 0.72):
            assert psi1(reference, beta).value == pytest.approx(psi1_closed(beta), abs=1e-6)

    def test_psi0_closed_form(self, reference):
        for beta in (0.75, 0.8, 0.9, 1.0):
            assert psi0(reference, beta).value == pytest.approx(psi0_closed(beta), abs=1e-6)

    def test_junction_continuity(self, reference):
        t = manual_delegation_threshold(reference).value
        assert psi0(reference, t).value == pytest.approx(psi1(reference, t).value, abs=1e-6)

    def test_domain_errors(self, reference):
        with pytest.raises(ValueError):
            psi0(reference, 0.5)
        with pytest.raises(ValueError):
            psi1(reference, 0.9)

    def test_monotone_along_their_domains(self, reference):
        p0 = [psi0(reference, b).value for b in np.linspace(0.72, 1.0, 12)]
        assert all(b >= a - 1e-9 for a, b in zip(p0, p0[1:]))
        p1 = [psi1(reference, b).value for b in np.linspace(0.0, 0.72, 12)]
        assert all(b <= a + 1e-9 for a, b in zip(p1, p1[1:]))
        pt = [psi_tau(reference, b).value for b in np.linspace(0.1, 0.7, 7)]
        assert all(b <= a + 1e-9 for a, b in zip(pt, pt[1:]))

    def test_psi_is_max_of_its_parts(self, reference):
        for beta in (0.3, 0.6, 0.75, 0.9):
            parts = [psi_prime(reference, beta).value]
            if beta >= 0.72:
                parts.append(psi0(reference, beta).value)
            else:
                parts.append(0.0)
            assert psi(reference, beta).value == pytest.approx(max(parts), abs=1e-12)

    def test_psi_tau_never_binding_is_flagged(self, reference):
        res = psi_tau(reference, 0.5, tau=-1e6)
        assert not res.bracketed and res.side == "low" and res.value == 0.0
        assert psi_tau(replace(reference, tau=-1e6), 0.5) == res

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_psi_tau_rejects_a_tau_that_is_not_finite(self, reference, tau):
        # the keyword goes through ModelParams' checks, so a NaN tau never
        # reaches the search, where its cap would pass for a bracketed root
        with pytest.raises(ValueError) as info:
            psi_tau(reference, 0.5, tau=tau)
        assert str(info.value) == f"tau must be finite, got {tau}"

    def test_intersection_location(self, reference):
        alpha, beta = separatrix_intersection(reference)
        assert alpha == pytest.approx(0.39, abs=0.01)
        assert beta == pytest.approx(0.82, abs=0.01)

    def test_intersection_with_t_at_the_top_of_the_domain_finds_no_crossing(self, reference):
        params = replace(reference, p_a=0.9)
        t = manual_delegation_threshold(params)
        assert (t.value, t.bracketed) == (1.0, False)
        with pytest.raises(ValueError) as info:
            separatrix_intersection(params)
        assert str(info.value) == "boundaries do not cross in the searched beta interval"

    def test_psi0_and_psi1_meet_at_the_threshold(self):
        # the two boundaries meet at t, where the delegation gain is zero
        rng = np.random.default_rng(3)
        met = 0
        for params in [*family_configs().values(), *(sample_params(rng) for _ in range(300))]:
            t = manual_delegation_threshold(params)
            if not t.bracketed:
                continue
            manual, pure = psi0(params, t.value), psi1(params, t.value)
            if manual.bracketed and pure.bracketed:
                assert manual.value == pytest.approx(pure.value, rel=1e-7), params
                met += 1
        assert met > 100

    def test_boundary_family_is_bitwise_frozen(self):
        text = _boundary_family_text()
        assert hashlib.sha256(text.encode()).hexdigest() == BOUNDARY_DIGEST

    @pytest.mark.parametrize("fn", [psi0, psi1, psi, psi_prime, psi_tau])
    def test_negative_beta_fails_the_ability_check_first(self, reference, fn):
        with pytest.raises(ValueError) as info:
            fn(reference, -1.0)
        assert str(info.value) == "beta must be finite and >= 0, got -1.0"

    def test_the_threshold_is_computed_once_per_call(self, reference, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params)
            return manual_delegation_threshold(params)

        monkeypatch.setattr(dv.atlas, "manual_delegation_threshold", counted)
        betas = np.linspace(0.0, 1.0, 11)
        for which in ("psi0", "psi1", "psi", "psi_tau"):
            boundary_curve(reference, which, betas)
        psi(reference, 0.9)
        separatrix_intersection(reference)
        assert len(calls) == 6


def plain_bisect_boundary(fn, guess=None):
    """atlas._bisect_boundary without its sure bracket: bisect calls fn at every midpoint.

    evaluations counts fn's calls as RootResult.evaluations does. A guess is ignored.
    """
    calls = []

    def sign(alpha):
        calls.append(alpha)
        return fn(alpha)

    if sign(0.0) > 0.0:
        return RootResult(0.0, False, "low", len(calls))
    hi, doublings = 10.0, 0
    while sign(hi) <= 0.0:
        if doublings >= 10:
            return RootResult(hi, False, "high", len(calls))
        hi *= 2.0
        doublings += 1
    lo, hi = bisect(lambda alpha: sign(alpha) > 0.0, 0.0, hi, 1e-9)
    return RootResult(0.5 * (lo + hi), True, evaluations=len(calls))


def _boundary_cases(params):
    """_boundary's (params, which, beta, t) for psi0, psi_prime and psi_tau at 21 betas.

    The betas span beta_span(params). psi_tau's params have tau at the
    quality of a worker with alpha 1 at that beta, so its root is bracketed
    near alpha 1. psi0 outside its beta domain gives None. psi1, in closed
    form, makes no search.
    """
    t = manual_delegation_threshold(params).value
    for beta in np.linspace(*beta_span(params), 21).tolist():
        ability = Ability(1.0, beta)
        coef = coefficients(params, ability, dv.optimal_verification(params, ability))
        for which in ("psi0", "psi_prime"):
            yield params, which, beta, t
        yield replace(params, tau=coef.g_i + coef.f_i), "psi_tau", beta, t


def _large_stakes_params():
    """sample_params draws with the institution's stakes b_i and l_i scaled by 1 to 1e5."""
    rng = np.random.default_rng(83)
    draws = []
    for _ in range(16):
        params = sample_params(rng)
        scale = 10.0 ** rng.uniform(0.0, 5.0)
        draws.append(replace(params, b_i=params.b_i * scale, l_i=params.l_i * scale))
    return draws


def _curve_cases(params):
    """boundary_curve's (params, which, betas) for each searched boundary, at 21 betas.

    psi0 and psi span beta_span(params). psi_tau's tau is the quality of a
    worker with alpha 1 at the middle beta, and its betas span a fifth of
    the span around that beta, so its roots are bracketed near alpha 1.
    """
    lo, hi = beta_span(params)
    for which in ("psi0", "psi"):
        yield params, which, np.linspace(lo, hi, 21)
    mid, half = 0.5 * (lo + hi), 0.1 * (hi - lo)
    ability = Ability(1.0, mid)
    coef = coefficients(params, ability, dv.optimal_verification(params, ability))
    yield (replace(params, tau=coef.g_i + coef.f_i), "psi_tau",
           np.linspace(mid - half, mid + half, 21))


def _linear_cases(params):
    """(beta, psi1_sign) at the 21 betas across beta_span(params) in psi1's domain.

    psi1 is in closed form, so these stand in for its searches: they keep
    the boundary search covered on a near-linear sign function.
    """
    t = manual_delegation_threshold(params).value
    return [(beta, psi1_sign(params, beta))
            for beta in np.linspace(*beta_span(params), 21).tolist() if beta <= t + 1e-9]


def _linear_curve_searches(configs, search):
    """The (guess, RootResult) of search(fn, guess) over each config's _linear_cases.

    Each config's searches are one curve, warm-started as boundary_curve does.
    """
    searches = []
    for params in configs:
        roots = []
        for beta, fn in _linear_cases(params):
            guess = atlas._warm_guess(roots, beta)
            searches.append((guess, search(fn, guess)))
            if searches[-1][1].bracketed:
                roots.append((beta, searches[-1][1].value))
    return searches


def _curve_searches(cases, monkeypatch, search):
    """boundary_curve over cases with search(fn, guess) in place of _bisect_boundary.

    Returns the curves and the (guess, RootResult) of every search, in order.
    """
    searches = []

    def recorded(fn, guess=None):
        searches.append((guess, search(fn, guess)))
        return searches[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(atlas, "_bisect_boundary", recorded)
        curves = [boundary_curve(*case) for case in cases]
    return curves, searches


class TestSureBracket:
    """_bisect_boundary ends on plain bisection's bracket with at most half its sign calls."""

    @pytest.mark.parametrize("configs", [list(family_configs().values()), _large_stakes_params()],
                             ids=["families", "large_stakes"])
    def test_roots_equal_plain_bisection(self, configs, monkeypatch):
        cases = [case for params in configs for case in _boundary_cases(params)]
        linear = [fn for params in configs for _, fn in _linear_cases(params)]
        got = [atlas._boundary(*case) for case in cases]
        got += [atlas._bisect_boundary(fn) for fn in linear]
        monkeypatch.setattr(atlas, "_bisect_boundary", plain_bisect_boundary)
        want = [atlas._boundary(*case) for case in cases]
        want += [plain_bisect_boundary(fn) for fn in linear]
        assert [repr(r) for r in got] == [repr(r) for r in want]  # repr round-trips floats
        assert all(r.bracketed for (_, which, *_), r in zip(cases, got) if which == "psi_tau")
        roots = [(r, w) for r, w in zip(got, want) if r is not None]
        assert len(roots) > 400
        assert sum(r.evaluations for r, _ in roots) <= sum(w.evaluations for _, w in roots) / 2

    @pytest.mark.parametrize("configs", [list(family_configs().values()), _large_stakes_params()],
                             ids=["families", "large_stakes"])
    def test_warm_started_curves_equal_plain_bisection(self, configs, monkeypatch):
        cases = [case for params in configs for case in _curve_cases(params)]
        search = atlas._bisect_boundary
        curves, warm = _curve_searches(cases, monkeypatch, search)
        want_curves, want = _curve_searches(cases, monkeypatch, plain_bisect_boundary)
        _, cold = _curve_searches(cases, monkeypatch, lambda fn, guess: search(fn))
        assert repr(curves) == repr(want_curves)
        warm += _linear_curve_searches(configs, search)
        want += _linear_curve_searches(configs, plain_bisect_boundary)
        cold += _linear_curve_searches(configs, lambda fn, guess: search(fn))
        reprs = [[repr(r) for _, r in searches] for searches in (warm, want, cold)]
        assert reprs[0] == reprs[1] == reprs[2]
        assert sum(guess is not None for guess, _ in warm) > 300
        roots = [(r.evaluations, c.evaluations, w.evaluations)
                 for (_, r), (_, c), (_, w) in zip(warm, cold, want) if w.bracketed]
        assert len(roots) > 400
        # no root takes more sign calls than plain bisection, and the guesses save calls
        assert all(r <= w for r, _, w in roots)
        assert sum(r for r, _, _ in roots) < sum(c for _, c, _ in roots) <= sum(
            w for _, _, w in roots) / 2

    def test_each_search_starts_from_its_own_curve(self, reference, monkeypatch):
        # psi runs psi0, then psi_prime, at each beta above t; each extrapolates its own roots
        betas = np.linspace(manual_delegation_threshold(reference).value, 1.0, 9).tolist()
        _, searches = _curve_searches([(reference, "psi", betas)], monkeypatch,
                                      atlas._bisect_boundary)
        for own in (searches[0::2], searches[1::2]):
            roots = [(beta, r.value) for beta, (_, r) in zip(betas, own) if r.bracketed]
            assert len(roots) >= 8
            assert [guess for guess, _ in own] == [
                atlas._warm_guess([(b, v) for b, v in roots if b < beta], beta) for beta in betas]
        assert atlas._warm_guess([], 0.5) is None
        assert atlas._warm_guess([(0.25, 0.5)], 0.75) == 0.5
        assert atlas._warm_guess([(0.25, 0.5), (0.5, 1.0)], 0.75) == 1.5
        assert atlas._warm_guess([(0.25, 0.5), (0.25, 1.0)], 0.75) == 1.0  # a repeated beta

    def test_search_calls_are_bitwise_frozen(self, monkeypatch):
        text = _search_trace_text(monkeypatch)
        assert text.count("\n") > 5000 and text.count(" True ") > 3000
        assert hashlib.sha256(text.encode()).hexdigest() == SEARCH_DIGEST

    def test_step_onto_the_bracket_end_takes_the_midpoint(self):
        # fn sits just past the margin below 0 on [4000, 5119.9999995), so regula falsi
        # rounds to the end a itself, 10 times on this root, and the midpoint is taken;
        # without it the search took 62 sign calls
        def fn(a):
            if a < 4000.0:
                return -1e8
            return -1.5 * 2.0 ** -40 * 1e8 if a < 5119.9999995 else 1e8

        got = atlas._bisect_boundary(fn, 5119.999999)
        want = plain_bisect_boundary(fn)
        assert got.value.hex() == want.value.hex() == (5119.999999500287).hex()
        assert (got.evaluations, want.evaluations) == (24, 54)

    def test_tangential_root_stays_put(self, monkeypatch):
        # fn is within about 3e-16 of 0 across +-1e-9 of this root; Illinois
        # steps without the margin moved it to 0.23870327131589875
        params = family_configs()[("inverse_linear", "linear_quadratic", "linear_in_efficiency")]
        got = psi0(params, 1.0)
        monkeypatch.setattr(atlas, "_bisect_boundary", plain_bisect_boundary)
        assert got == psi0(params, 1.0) == RootResult(0.23870327073382214, True)

    @pytest.mark.parametrize("fn, steps", [
        (lambda a: math.nan if 0.3 < a < 0.5 else a - 0.7, True),  # NaN inside the bracket
        (lambda a: math.copysign(1e-300, a - 2.0 ** -20), True),  # tiny values, a step
        (lambda a: a ** 9 - 0.2, True),  # steep at hi, flat at the root
        (lambda a: -1.0 if a < 4000.0 else 1.0, True),  # bracketed after 9 doublings
        # constant below the root: regula falsi creeps up from 0, took 157 calls
        (lambda a: -8.6e-11 if a < 0.0459 else a - 0.0459, True),
        (lambda a: 0.37 * a - 0.2, True),  # linear: regula falsi is nearly exact
        # exactly 0 at 0, so a could never move: took 39 calls, one point twice
        (lambda a: max(0.0, a - 0.3), False),
        (lambda a: max(0.0, a - 0.0211) * 20, False),
        (lambda a: math.nan if a == 0.0 else a - 0.7, False),  # NaN at 0
        (lambda a: -math.inf if a < 1e-3 else a - 0.7, False),  # -inf at 0
        (lambda a: math.inf if a > 3.3 else -1.0, False),  # inf at hi
        (lambda a: math.nan if a > 3.3 else a - 3.3, False),  # NaN at hi, taken as positive
    ])
    def test_edge_cases_equal_plain_bisection(self, fn, steps):
        calls = []
        got = atlas._bisect_boundary(lambda a: calls.append(a) or fn(a))
        want = plain_bisect_boundary(fn)
        assert got == want and got.bracketed
        assert got.value.hex() == want.value.hex()
        assert len(set(calls)) == len(calls) == got.evaluations  # no point is called twice
        if steps:  # the steps stay within a fixed number of calls of bisection's
            assert got.evaluations <= want.evaluations + atlas._STEP_SLACK
        else:  # an end value within the margin, or not finite: plain bisection
            assert got.evaluations == want.evaluations

    def test_evaluations_count_every_sign_call(self, reference):
        calls = []
        res = atlas._bisect_boundary(lambda a: calls.append(a) or a - 0.3)
        assert res.evaluations == len(calls) < 36
        assert atlas._bisect_boundary(lambda a: 1.0).evaluations == 1  # the low check
        capped = atlas._bisect_boundary(lambda a: -1.0)  # 0, 10 and 10 doublings
        assert (capped.side, capped.evaluations) == ("high", 12)
        # psi counts both of its searches, and the count is not in repr or ==
        t = manual_delegation_threshold(reference).value
        both = psi(reference, 0.9)
        parts = [atlas._boundary(reference, which, 0.9, t) for which in ("psi0", "psi_prime")]
        assert both.evaluations == sum(r.evaluations for r in parts) > 0
        assert both == replace(both, evaluations=0) and "evaluations" not in repr(both)

    @pytest.mark.parametrize("params", [*family_configs().values(), *_large_stakes_params()])
    def test_final_brackets_hold_the_roots(self, params):
        # a bracketed root lies in its final bracket [lo, hi], at most the
        # tolerance wide; a search bound is its own bracket
        def check(res):
            if res.bracketed:
                assert res.lo <= res.value <= res.hi and res.hi - res.lo <= atlas._ALPHA_TOL
            else:
                assert res.lo == res.hi == res.value

        t = manual_delegation_threshold(params)
        bracketed = 0
        for case in _boundary_cases(params):
            res = atlas._boundary(*case)
            if res is not None:
                check(res)
                bracketed += res.bracketed
        for beta in np.linspace(*beta_span(params), 21).tolist():
            res = atlas._boundary(params, "psi", beta, t.value)
            check(res)
        assert bracketed > 0
        # the bracket is in neither repr nor ==
        moved = replace(res, lo=-1.0, hi=2.0)
        assert moved == res and repr(moved) == repr(res)


class TestPsi1ClosedForm:
    """psi1 solves k_w scale alpha = C_v'(0) in closed form, with no search."""

    def test_psi1_is_the_formula_bitwise(self):
        checked = 0
        for params in family_configs().values():
            t = manual_delegation_threshold(params).value
            betas = [b for b in np.linspace(*beta_span(params), 21).tolist() if b <= t + 1e-9]
            for beta in betas:
                root, res = psi1_formula(params, beta), psi1(params, beta)
                assert res.value.hex() == root.hex() and res.bracketed and res.side == ""
                assert (res.evaluations, res.lo, res.hi) == (0, root, root)
                checked += 1
            assert boundary_curve(params, "psi1", betas) == [
                (beta, psi1_formula(params, beta), True) for beta in betas]
        assert checked > 50

    def test_psi1_makes_no_sign_call(self, reference, monkeypatch):
        def refused(fn, guess=None):
            raise AssertionError("psi1 called the boundary search")

        monkeypatch.setattr(atlas, "_bisect_boundary", refused)
        assert psi1(reference, 0.5).evaluations == 0
        assert len(boundary_curve(reference, "psi1", np.linspace(0.0, 1.0, 21))) == 15
        with pytest.raises(AssertionError):  # the other boundaries still search
            psi0(reference, 0.9)

    def test_psi1_is_plain_bisection_to_its_tolerance(self):
        # the closed form against plain bisection of psi1's old sign function, over
        # family_configs() and 300 sampled configs, at 21 betas across each span
        rng = np.random.default_rng(5)
        roots = 0
        for params in [*family_configs().values(), *(sample_params(rng) for _ in range(300))]:
            t = manual_delegation_threshold(params).value
            for beta in np.linspace(*beta_span(params), 21).tolist():
                res = atlas._boundary(params, "psi1", beta, t)
                if res is None:
                    assert beta > t + 1e-9
                    continue
                want = plain_bisect_boundary(psi1_sign(params, beta))
                assert (res.bracketed, res.side) == (want.bracketed, want.side)
                assert abs(res.value - want.value) <= 1e-9
                roots += res.bracketed
        assert roots > 3000

    @pytest.mark.parametrize("changes, bracketed", [
        ({"p_a": 1.0}, False),  # k_w = 0
        ({"execution_cost": ExecutionCost(LINEAR_IN_EFFICIENCY, 1e3)}, False),  # k_w < 0
        ({"verification_cost": VerificationCost(LINEAR, 1e6)}, False),  # root past the cap
        ({"verification_cost": VerificationCost(LINEAR, 3.8e4)}, True),  # root below the cap
    ], ids=["k_w_zero", "k_w_negative", "past_the_cap", "below_the_cap"])
    def test_psi1_past_the_cap_is_flagged_as_the_search_flagged_it(self, reference, changes,
                                                                    bracketed):
        params = replace(reference, **changes)
        res, want = psi1(params, 0.0), plain_bisect_boundary(psi1_sign(params, 0.0))
        assert (res.bracketed, res.side) == (want.bracketed, want.side)
        assert res.bracketed == bracketed and abs(res.value - want.value) <= 1e-9
        assert res.lo == res.hi == res.value and (bracketed or res.value == 10240.0)


def _assert_rows_are_evaluate_point(grid, params, points):
    """Every column of grid equals evaluate_point at points, bit for bit.

    params is one ModelParams for every point, or a list with one per point.
    """
    expected = []
    per_point = params if isinstance(params, list) else [params] * len(points)
    for point, (alpha, beta) in zip(per_point, points):
        act, rep = dv.evaluate_point(point, Ability(float(alpha), float(beta)))
        expected.append(AtlasRow(
            alpha=float(alpha), beta=float(beta), d_star=act.d_star, s_star=act.s_star,
            regime=act.regime, q=rep.q, q0=rep.q0, gap=rep.gap,
            quality_label=rep.quality_label, compliance_label=rep.compliance_label))
    assert len(grid) == len(expected)
    rows = list(grid)
    for f in fields(AtlasRow):
        got = [getattr(r, f.name) for r in rows]
        want = [getattr(r, f.name) for r in expected]
        if isinstance(want[0], float):
            # bit patterns, so that even 0.0 against -0.0 counts as a difference
            assert np.array(got).tobytes() == np.array(want).tobytes(), f.name
        else:
            assert got == want, f.name


def _per_cell_csv(columns):
    """write_csv's text built one cell at a time: fmt for floats, str for the rest."""
    lines = [",".join(name for name, _ in columns)]
    for row in zip(*(column.tolist() for _, column in columns)):
        lines.append(",".join(fmt(x) if column.dtype.kind == "f" else str(x)
                              for x, (_, column) in zip(row, columns)))
    return "".join(line + "\n" for line in lines)


def _csv_cases():
    """Tables that exercise write_csv's blocks, by name."""
    rows, floor = atlas._CSV_BLOCK_ROWS, atlas._CSV_DISTINCT_ROWS
    k = np.arange(rows + 3)
    # repeated values on both sides of the first block's last row; the 3-row last block
    # is below the row floor
    edge = np.where(k >= rows - 5, 1.0 / 3.0, 0.1 * (k % 7))
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000123], dtype=np.int64).view(float)
    signed = np.resize(np.concatenate([[0.0, -0.0], nans, [1.5]]), floor)
    table = np.array([(b, b * b, b > 0.5) for b in np.linspace(0.0, 1.0, floor + 1)])
    labels = np.array(["improved", "", "a b"], dtype=object)
    cases = {
        "block_edge": [("x", edge), ("i", (k >= rows - 5) * 7 + k % 3), ("label", labels[k % 3])],
        "signed_zeros_and_nans": [("x", signed), ("neg", -signed)],
        # write_boundary_csv's columns: strided views of one table
        "strided": [("beta", table[:, 0]), ("alpha", table[:, 1]),
                    ("bracketed", table[:, 2].astype(np.int64))],
        "bool_and_int64": [("b", k[:floor] % 3 == 0),
                           ("i", np.resize(np.array([0, -7, 2**62, -2**63]), floor))],
        "empty": [("x", np.zeros(0)), ("i", np.zeros(0, dtype=np.int64)), ("label", labels[:0])],
    }
    # one block on each side of the row floor, alone and after a full block
    for n in (floor - 1, floor, rows + floor - 1, rows + floor):
        cases[f"rows_{n}"] = [("x", 0.5 * (k[:n] % 5) - 1.0), ("f", np.sqrt(k[:n] % 11)),
                              ("i", k[:n] % 4), ("label", labels[k[:n] % 3])]
    return cases


class TestSweep:
    def test_degenerate_range_gives_identical_rows(self, reference):
        rows = sweep_grid(reference, (0.4, 0.4, 2), (0.6, 0.6, 2))
        assert len(rows) == 4
        assert len({(r.q, r.q0, r.regime, r.s_star) for r in rows}) == 1
        with pytest.raises(ValueError, match="range count must be >= 1"):
            sweep_grid(reference, (0, 1, 0), (0, 1, 3))

    @pytest.mark.parametrize("count", [2.5, 2.0, "3", None, True])
    def test_range_count_that_is_not_an_integer_is_rejected(self, reference, count):
        # int(2.5) would silently solve two alphas, and True would solve two
        with pytest.raises(ValueError) as info:
            sweep_grid(reference, (0, 1, count), (0, 1, 2))
        assert str(info.value) == f"range count must be an integer, got {count!r}"
        assert len(sweep_grid(reference, (0, 1, np.int64(3)), (0, 1, 2))) == 6

    def test_manual_rows_have_zero_gap(self, reference):
        rows = sweep_grid(reference, (0, 1, 41), (0, 1, 41))
        manual = [r for r in rows if r.regime == Regime.MANUAL]
        assert manual
        assert all(r.gap == 0.0 for r in manual)

    def test_row_order_is_beta_major_and_deterministic(self, reference):
        rows = sweep_grid(reference, (0, 1, 3), (0, 1, 2))
        coords = [(r.beta, r.alpha) for r in rows]
        assert coords == sorted(coords)

    @pytest.mark.parametrize("params", [pytest.param(params, id="+".join(triple))
                                        for triple, params in sorted(family_configs().items())])
    @pytest.mark.parametrize("tau", [None, 0.0])
    def test_array_sweep_equals_scalar_evaluate_point(self, params, tau):
        if tau is not None:
            params = replace(params, tau=tau)
        alpha_range = (0.0, 3.0, 31)
        beta_range = (*beta_span(params), 23)
        grid = sweep_grid(params, alpha_range, beta_range)
        points = [(alpha, beta) for beta in np.linspace(*beta_range)
                  for alpha in np.linspace(*alpha_range)]
        _assert_rows_are_evaluate_point(grid, params, points)

    @pytest.mark.parametrize("params", [pytest.param(params, id="+".join(triple))
                                        for triple, params in sorted(family_configs().items())])
    def test_solve_points_equals_scalar_evaluate_point_off_the_grid(self, params):
        rng = np.random.default_rng(17)
        lo, hi = beta_span(params)
        alpha = np.concatenate([rng.uniform(0.0, 3.0, 150), [0.0, 0.0, 3.0, 1e-12]])
        beta = np.concatenate([rng.uniform(lo, hi, 150), [lo, hi, lo, hi]])
        _assert_rows_are_evaluate_point(solve_points(params, alpha, beta), params,
                                        list(zip(alpha, beta)))

    @pytest.mark.parametrize("params", [pytest.param(params, id="+".join(triple))
                                        for triple, params in sorted(family_configs().items())])
    @pytest.mark.parametrize("names", [("p_w",), ("p_a", "verification_cost.k"),
                                       ("execution_cost.scale",),
                                       ("p_w", "p_a", "execution_cost.scale", "verification_cost.k")])
    def test_array_fields_equal_the_scalar_path_per_point(self, params, names):
        # params whose fields hold one value per point, as extensions.difficulty_params
        # builds them; a verification_cost.k makes the verification cost linear
        rng = np.random.default_rng(31)
        lo, hi = beta_span(params)
        n = 60
        alpha = np.concatenate([rng.uniform(0.0, 3.0, n), [0.0, 3.0]])
        beta = np.concatenate([rng.uniform(lo, hi, n), [lo, hi]])
        draws = {"p_w": (0.3, 1.0), "p_a": (0.0, 1.0), "execution_cost.scale": (0.2, 8.0),
                 "verification_cost.k": (0.1, 3.0)}
        values = {name: rng.uniform(*draws[name], n + 2) for name in names}

        def at(build, values):
            changes = {name: values[name] for name in ("p_w", "p_a") if name in values}
            if "execution_cost.scale" in values:
                changes["execution_cost"] = build(params.execution_cost,
                                                  scale=values["execution_cost.scale"])
            if "verification_cost.k" in values:
                changes["verification_cost"] = build(VerificationCost(LINEAR),
                                                     k=values["verification_cost.k"])
            return build(params, **changes)

        arrays = at(replace_unchecked, values)
        per_point = [at(replace, {name: float(v[k]) for name, v in values.items()})
                     for k in range(n + 2)]
        _assert_rows_are_evaluate_point(solve_points(arrays, alpha, beta), per_point,
                                        list(zip(alpha, beta)))
        act = solve_actions(arrays, alpha, beta)
        for k, point in enumerate(per_point):
            want = dv.optimal_action(point, Ability(float(alpha[k]), float(beta[k])))
            got = (int(act.d_star[k]), float(act.s_star[k]), REGIMES[act.regime[k]],
                   float(act.s_dagger[k]))
            assert repr(got) == repr((want.d_star, want.s_star, want.regime, want.s_dagger))

    def test_infinite_manual_cost_is_rejected_as_the_scalar_path(self, reference):
        params = replace(reference, execution_cost=ExecutionCost(INVERSE_EFFICIENCY, 5.0))
        # scale / beta overflows at a subnormal beta
        with pytest.raises(ValueError, match="cost must be finite") as scalar:
            dv.evaluate_point(params, Ability(0.5, 1e-310))
        with pytest.raises(ValueError) as info:
            solve_points(params, [0.5, 0.5], [0.5, 1e-310])
        assert str(info.value) == str(scalar.value)

    def test_mismatched_points_are_rejected(self, reference):
        for solve in (solve_points, solve_actions):
            for alpha, beta in (([0.5, 0.6], [0.5]), ([[0.5]], [[0.5]]), (0.5, 0.5)):
                with pytest.raises(ValueError,
                                   match="^alpha and beta must be 1-d arrays of one length$"):
                    solve(reference, alpha, beta)

    def test_solve_points_fails_at_the_first_invalid_point(self, reference):
        with pytest.raises(ValueError, match="beta=1.5 outside"):
            solve_points(reference, [0.2, 0.3, -1.0], [0.5, 1.5, 0.5])
        with pytest.raises(ValueError, match="alpha must be finite and >= 0, got inf"):
            solve_points(reference, [0.2, math.inf], [0.5, 0.5])
        with pytest.raises(ValueError, match="1-d arrays of one length"):
            solve_points(reference, [0.2, 0.3], [0.5])

    def test_regime_fractions_stable_under_refinement(self, reference):
        def fractions(n):
            rows = sweep_grid(reference, (0, 1, n), (0, 1, n))
            counts = Counter(r.regime for r in rows)
            return {k: v / len(rows) for k, v in counts.items()}

        coarse, fine = fractions(101), fractions(201)
        for regime in coarse:
            assert abs(coarse[regime] - fine[regime]) < 0.01

    def test_csv_emission(self, reference):
        rows = sweep_grid(reference, (0, 1, 3), (0, 1, 3))
        buf = io.StringIO()
        write_atlas_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,beta,d_star,s_star,regime,q,q0,gap,quality,compliance"
        assert len(lines) == 10

    def test_write_csv_formats_floats_as_fmt_and_the_rest_as_str(self):
        floats = np.array([-0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 0.1, 123456789.5])
        ints = np.array([0, 1, -7, 2**62, 3, 4, 5, 6])
        labels = np.array(["improved", "loss", "", "a b", "x", "y", "z", "w"], dtype=object)
        columns = [("f", floats), ("i", ints), ("label", labels)]
        buf = io.StringIO()
        write_csv(buf, columns)
        assert buf.getvalue() == _per_cell_csv(columns)
        assert buf.getvalue().splitlines()[1:7] == [
            "-0,0,improved", "nan,1,loss", "inf,-7,", f"-inf,{2**62},a b", "1e-300,3,x",
            "4.94065646e-324,4,y"]

    @pytest.mark.parametrize("case", sorted(_csv_cases()))
    def test_write_csv_blocks_match_the_per_cell_reference(self, case):
        columns = _csv_cases()[case]
        buf = io.StringIO()
        write_csv(buf, columns)
        assert buf.getvalue() == _per_cell_csv(columns)

    def test_write_csv_keeps_signed_zeros_and_prints_every_nan_as_nan(self):
        buf = io.StringIO()
        write_csv(buf, _csv_cases()["signed_zeros_and_nans"])
        assert buf.getvalue().splitlines()[:6] == [
            "x,neg", "0,-0", "-0,0", "nan,nan", "nan,nan", "1.5,-1.5"]

    def test_write_csv_rejects_columns_of_different_lengths(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="CSV column 'short' has 2 rows, 'x' has 3"):
            write_csv(buf, [("x", np.zeros(3)), ("i", np.arange(3)), ("short", np.zeros(2))])
        assert buf.getvalue() == ""

    def test_boundary_curve_restricts_domains(self, reference):
        betas = np.linspace(0.0, 1.0, 21)
        p0 = boundary_curve(reference, "psi0", betas)
        assert all(b >= 0.72 - 1e-9 for b, _, _ in p0)
        p1 = boundary_curve(reference, "psi1", betas)
        assert all(b <= 0.72 + 1e-9 for b, _, _ in p1)
        full = boundary_curve(reference, "psi", betas)
        assert len(full) == 21
        assert all(bracketed for _, _, bracketed in full)

    def test_boundary_curve_keeps_the_bracketed_flag(self, reference):
        betas = [0.3, 0.9]
        for beta, alpha, bracketed in boundary_curve(replace(reference, tau=1000.0), "psi_tau",
                                                     betas):
            res = psi_tau(reference, beta, 1000.0)
            assert (alpha, bracketed) == (res.value, res.bracketed) == (10240.0, False)
        with pytest.raises(ValueError):
            boundary_curve(reference, "psi9", betas)


class TestRegionConsistency:
    """Grid labels must match the boundary characterizations off band cells."""

    N = 41

    def _grid_and_bounds(self, reference):
        alphas = np.linspace(0.0, 1.0, self.N)
        betas = np.linspace(0.0, 1.0, self.N)
        rows = sweep_grid(reference, (0.0, 1.0, self.N), (0.0, 1.0, self.N))
        t = manual_delegation_threshold(reference).value
        t_tau = dv.qualification_threshold(reference).value
        bounds = {}
        for beta in betas:
            b = float(beta)
            bounds[b] = {
                "psi": psi(reference, b).value,
                "psi0": psi0(reference, b).value if b >= t else 0.0,
                "psi_tau": psi_tau(reference, b).value,
            }
        return rows, bounds, t, t_tau, 1.0 / (self.N - 1)

    def test_quality_labels_match_psi(self, reference):
        rows, bounds, t, _, cell = self._grid_and_bounds(reference)
        for row in rows:
            bound = bounds[row.beta]
            if abs(row.alpha - bound["psi"]) <= cell or abs(row.beta - t) <= cell:
                continue
            if abs(row.alpha - bound["psi0"]) <= cell:
                continue
            improved = row.alpha > bound["psi"]
            assert (row.quality_label == QualityLabel.IMPROVED) == improved
            if row.beta >= t and row.alpha < bound["psi0"]:
                assert row.quality_label == QualityLabel.UNCHANGED

    def test_compliance_labels_match_regions(self, reference):
        rows, bounds, t, t_tau, cell = self._grid_and_bounds(reference)
        for row in rows:
            bound = bounds[row.beta]
            near = (abs(row.alpha - bound["psi_tau"]) <= cell
                    or abs(row.alpha - bound["psi0"]) <= cell
                    or abs(row.beta - t) <= cell or abs(row.beta - t_tau) <= cell)
            if near:
                continue
            a, b = row.alpha, row.beta
            gain = (b < min(t, t_tau) and a > bound["psi_tau"]) or (
                t <= b < t_tau and a > max(bound["psi0"], bound["psi_tau"]))
            loss = (t_tau < b <= t and a < bound["psi_tau"]) or (
                b > max(t, t_tau) and bound["psi0"] < a < bound["psi_tau"])
            assert (row.compliance_label == ComplianceLabel.GAIN) == gain
            assert (row.compliance_label == ComplianceLabel.LOSS) == loss


class TestQualityMonotoneUnderDelegation:
    def test_quality_nondecreasing_in_both_abilities_when_delegating(self, reference):
        for beta in (0.1, 0.4, 0.8):
            values = []
            for alpha in np.linspace(0.0, 2.0, 60):
                act, rep = dv.evaluate_point(reference, Ability(float(alpha), beta))
                if act.d_star == 1:
                    values.append(rep.q)
            slack = 1e-9 * (1.0 + max(abs(v) for v in values))
            assert all(b >= a - slack for a, b in zip(values, values[1:]))
        for alpha in (0.3, 0.7, 1.5):
            values = []
            for beta in np.linspace(0.0, 1.0, 60):
                act, rep = dv.evaluate_point(reference, Ability(alpha, float(beta)))
                if act.d_star == 1:
                    values.append(rep.q)
            slack = 1e-9 * (1.0 + max(abs(v) for v in values))
            assert all(b >= a - slack for a, b in zip(values, values[1:]))
