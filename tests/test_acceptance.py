"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced. Tolerances are fixed here, not tuned elsewhere.
"""

import io
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import delver as dv
from delver.atlas import (
    psi, psi0, psi1, separatrix_intersection, solve_points, sweep_grid, write_atlas_csv,
)
from delver.extensions import difficulty_params
from delver.interventions import ai_upgrade_gain, incentive_transfer_gain
from delver.model import Ability, Action, coefficients
from delver.sampling import beta_span, sample_ability, sample_params
from delver.solver import (
    brute_force_action, manual_delegation_threshold, optimal_action,
    optimal_verification, qualification_threshold,
)

from conftest import oracle_regime


def report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_thresholds(reference):
    t = manual_delegation_threshold(reference).value
    t_tau = qualification_threshold(reference).value
    ok = abs(t - 0.72) <= 1e-9 and abs(t_tau - 4.0 / 15.0) <= 1e-9
    assert report("1 thresholds", ok, f"t={t:.12f}, t_tau={t_tau:.12f}")


def test_criterion_2_separatrix_closed_forms(reference):
    worst = 0.0
    for beta in (0.75, 0.8, 0.9, 1.0):
        closed = 20.0 / (math.sqrt(77 + 70 * beta) - math.sqrt(200 * beta - 144)) ** 2
        worst = max(worst, abs(psi0(reference, beta).value - closed))
    for beta in (0.0, 0.25, 0.5, 0.72):
        closed = 20.0 / (77 + 70 * beta)
        worst = max(worst, abs(psi1(reference, beta).value - closed))
    assert report("2 separatrix closed forms", worst <= 1e-6, f"max deviation {worst:.2e}")


def test_criterion_3_intersection(reference):
    alpha, beta = separatrix_intersection(reference)
    ok = abs(alpha - 0.39) <= 0.01 and abs(beta - 0.82) <= 0.01
    assert report("3 boundary intersection", ok, f"alpha={alpha:.4f}, beta={beta:.4f}")


CHAIN_TARGETS = [
    ("phi_at_s_dagger", 0.093, 1e-3),
    ("c_v_at_s_dagger", 106.7, 0.3),
    ("beta", 0.342, 2e-3),
    ("s_dagger", 0.903, 3e-3),
    ("alpha", 0.108, 2e-3),
    ("stakes", 4646.0, 10.0),
]


def test_criterion_4_calibration_chain(clinician_worker, clinician_classified):
    rows = []
    for field, target, tol in CHAIN_TARGETS:
        value = getattr(clinician_worker, field)
        rows.append((field, value, target, tol, abs(value - target) <= tol))
    f_w = clinician_classified.action.f_w_at_s_dagger
    rows.append(("f_w_at_s_dagger", f_w, -189.26, 1.0, abs(f_w + 189.26) <= 1.0))
    rep = clinician_classified.report
    rows.append(("q", rep.q, 133.77, 0.15, abs(rep.q - 133.77) <= 0.15))
    rows.append(("q0", rep.q0, 133.77, 0.15, abs(rep.q0 - 133.77) <= 0.15))
    ok = all(r[4] for r in rows)
    detail = "; ".join(f"{name}={value:.4f}" for name, value, *_ in rows)
    assert report("4 calibration chain", ok, detail)


@pytest.mark.parametrize("lever,target,tol", [
    ("alpha", 0.335, 0.005),
    ("beta", 0.479, 0.005),
    ("p_a", 0.432, 0.003),
])
def test_criterion_4_lever_targets(clinician_classified, lever, target, tol):
    # the beta target is unreachable from the q0 target above: with the
    # worker manual along the beta axis, beta' = beta + (tau - q0) /
    # (xi * t_w_max), and the two stated windows map to disjoint intervals
    value = clinician_classified.lever_targets[lever].value
    ok = abs(value - target) <= tol
    assert report(f"4 lever {lever}", ok, f"value={value:.6f}, target={target}+-{tol}")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20250808)
    s_steps = 2001
    step = 1.0 / (s_steps - 1)
    checked = 0
    disagreements = 0
    worst_shortfall = 0.0
    while checked < 200:
        params = sample_params(rng)
        ability = sample_ability(rng, params)
        act = optimal_action(params, ability)
        u_star = dv.worker_utility(params, ability, Action(float(act.d_star), act.s_star))
        oracle_act, oracle_u = brute_force_action(params, ability, d_steps=11, s_steps=s_steps)
        shortfall = oracle_u - u_star
        worst_shortfall = max(worst_shortfall, shortfall)
        assert shortfall <= 1e-6 * (1.0 + abs(u_star))
        got = oracle_regime(oracle_act)
        if got != act.regime:
            disagreements += 1
            coef0 = coefficients(params, ability, 0.0)
            values = {
                dv.Regime.MANUAL: coef0.g_w,
                dv.Regime.PURE_DELEGATION: coef0.g_w + coef0.f_w,
                dv.Regime.VERIFIED_DELEGATION: coef0.g_w + (
                    act.f_w_at_s_dagger if act.s_dagger > 0 else coef0.f_w),
            }
            lipschitz = coef0.k_w * float(params.detection.slope(ability.alpha, 0.0)) \
                + float(params.verification_cost.slope(1.0))
            margin = u_star - values[got]
            # a disagreement is only legitimate within one grid step of a
            # separatrix, where the regimes' best values are unresolvable
            assert margin <= lipschitz * step + 1e-6 * (1.0 + abs(u_star)), (
                f"regime mismatch far from any boundary: {act.regime} vs {got}, "
                f"margin {margin:.3e}")
        checked += 1
    assert report("5 oracle equivalence", True,
                  f"200 configurations, worst shortfall {worst_shortfall:.2e}, "
                  f"{disagreements} boundary-adjacent disagreements")


def _monotone(values, direction, slack=1e-9):
    bad = 0
    for a, b in zip(values, values[1:]):
        tol = slack * (1.0 + abs(a) + abs(b))
        if direction == "up" and b < a - tol:
            bad += 1
        if direction == "down" and b > a + tol:
            bad += 1
    return bad


def test_criterion_6_monotonicity_suite():
    rng = np.random.default_rng(61)
    n_points = 100
    violations = Counter()
    for sweep in range(50):
        params = sample_params(rng)
        lo, hi = beta_span(params)

        beta_fixed = float(rng.uniform(lo, hi))
        alphas = np.linspace(0.0, 3.0, n_points)
        acts = [optimal_action(params, Ability(float(a), beta_fixed)) for a in alphas]
        slope0 = [coefficients(params, Ability(float(a), beta_fixed), 0.0).k_w
                  * float(params.detection.slope(float(a), 0.0))
                  - float(params.verification_cost.slope(0.0)) for a in alphas]
        violations["f_w up alpha"] += _monotone([a.f_w_at_s_dagger for a in acts], "up")
        violations["dPhi0 up alpha"] += _monotone(slope0, "up")
        violations["d_star up alpha"] += _monotone([a.d_star for a in acts], "up", slack=0.0)
        q_deleg = [dv.quality(params, Ability(float(a), beta_fixed)).q
                   for a, act in zip(alphas, acts) if act.d_star == 1]
        violations["q up alpha"] += _monotone(q_deleg, "up")

        alpha_fixed = float(rng.uniform(0.0, 3.0))
        betas = np.linspace(lo, hi, n_points)
        acts = [optimal_action(params, Ability(alpha_fixed, float(b))) for b in betas]
        slope0 = [coefficients(params, Ability(alpha_fixed, float(b)), 0.0).k_w
                  * float(params.detection.slope(alpha_fixed, 0.0))
                  - float(params.verification_cost.slope(0.0)) for b in betas]
        violations["f_w down beta"] += _monotone([a.f_w_at_s_dagger for a in acts], "down")
        violations["dPhi0 up beta"] += _monotone(slope0, "up")
        violations["d_star down beta"] += _monotone([a.d_star for a in acts], "down", slack=0.0)
        violations["s_dagger up beta"] += _monotone([a.s_dagger for a in acts], "up")
        q_deleg = [dv.quality(params, Ability(alpha_fixed, float(b))).q
                   for b, act in zip(betas, acts) if act.d_star == 1]
        violations["q up beta"] += _monotone(q_deleg, "up")

    total = sum(violations.values())
    assert report("6 monotonicity suite", total == 0,
                  f"violations by property: {dict(violations) or 'none'}")
    assert total == 0


def test_criterion_7_quality_gap_identity(reference):
    rows = sweep_grid(reference, (0.0, 1.0, 101), (0.0, 1.0, 101))
    worst = 0.0
    for row in rows:
        f_i = coefficients(reference, Ability(row.alpha, row.beta), row.s_star).f_i
        err = abs(row.gap - f_i * row.d_star) / (1.0 + abs(row.q))
        worst = max(worst, err)
    assert report("7 gap identity", worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_criterion_8_extension_reductions(reference):
    grid = [Ability(float(a), float(b))
            for a in np.linspace(0.0, 1.0, 21) for b in np.linspace(0.0, 1.0, 21)]
    worst = 0.0
    known = replace(reference, believed_p_a=reference.p_a)
    full_redo = replace(reference, kappa=1.0)
    pinned = solve_points(difficulty_params(reference, 0.5), [ability.alpha for ability in grid],
                          [ability.beta for ability in grid])
    for ability, ext in zip(grid, pinned, strict=True):
        base = dv.quality(reference, ability)
        scale = 1.0 + abs(base.q)
        worst = max(worst, abs(ext.q - base.q) / scale)
        worst = max(worst, abs(dv.quality(known, ability).q - base.q) / scale)
        worst = max(worst, abs(dv.quality(full_redo, ability).q - base.q) / scale)
    assert report("8 extension reductions", worst <= 1e-9, f"worst relative error {worst:.2e}")


def test_criterion_9_extension_directional_claims(reference):
    grid101 = [Ability(float(a), float(b))
               for a in np.linspace(0.0, 1.0, 101) for b in np.linspace(0.0, 1.0, 101)]
    base_regimes = [optimal_action(reference, ab).regime for ab in grid101]

    over = replace(reference, believed_p_a=0.7)
    believed = [optimal_action(over, ab).regime for ab in grid101]
    base_pure = sum(r == dv.Regime.PURE_DELEGATION for r in base_regimes)
    believed_pure = sum(r == dv.Regime.PURE_DELEGATION for r in believed)
    ok_belief = believed_pure >= base_pure

    discounted = replace(reference, kappa=0.8)
    rework_regimes = [optimal_action(discounted, ab).regime for ab in grid101]
    agreement = sum(a == b for a, b in zip(base_regimes, rework_regimes)) / len(grid101)
    ok_rework = agreement >= 0.95

    grid51 = [Ability(float(a), float(b))
              for a in np.linspace(0.0, 1.0, 51) for b in np.linspace(0.0, 1.0, 51)]
    gp = [ai_upgrade_gain(reference, ab, 0.05).gain for ab in grid51]
    gb = [incentive_transfer_gain(reference, ab, 1.0).gain for ab in grid51]
    gp_pos = sum(g > 1e-9 for g in gp)
    gb_pos = sum(g > 1e-9 for g in gb)
    ok_levers = (gp_pos > 0 and any(g < -1e-9 for g in gp)
                 and gb_pos > 0 and any(g < -1e-9 for g in gb)
                 and gb_pos < gp_pos)

    ok = ok_belief and ok_rework and ok_levers
    assert report(
        "9 extension directional claims", ok,
        f"pure area {base_pure}->{believed_pure}, rework agreement {agreement:.3f}, "
        f"positive cells G_p={gp_pos} vs G_b={gb_pos}")


def test_criterion_10_plots_ship_as_data(reference, tmp_path):
    # plots are shipped as gridded CSV data, never rendered images; the
    # qualitative regional statements are covered by the area and
    # containment checks of criterion 9
    rows = sweep_grid(reference, (0.0, 1.0, 21), (0.0, 1.0, 21))
    buf = io.StringIO()
    write_atlas_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    ok = (lines[0] == "alpha,beta,d_star,s_star,regime,q,q0,gap,quality,compliance"
          and len(lines) == 442
          and {r.regime for r in rows} == {dv.Regime.MANUAL, dv.Regime.PURE_DELEGATION,
                                           dv.Regime.VERIFIED_DELEGATION})
    assert report("10 plots ship as data grids", ok,
                  f"{len(lines) - 1} rows spanning all three regimes")
