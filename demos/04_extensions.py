#!/usr/bin/env python3
"""The three model extensions, each compared against the base model.

Heterogeneous difficulty solves the base model at a task-hardness level
h (difficulty_params) and integrates quality over h uniform on [0, 1]; a
miscalibrated belief (the ModelParams field believed_p_a) makes the worker
optimize against the wrong AI quality; partial re-execution (the
ModelParams field kappa) discounts the cost of redoing work after a
detected error.
"""

from dataclasses import replace

import numpy as np

from delver import (
    Ability, difficulty_params, evaluate_point, expected_quality, optimal_action, quality,
    reference_params, solve_points,
)

params = reference_params()
ability = Ability(0.6, 0.5)
base = quality(params, ability)
print(f"base model at (0.6, 0.5): q={base.q:.4f}, q0={base.q0:.4f}, "
      f"label {base.quality_label.value}")

print("\n== heterogeneous task difficulty ==")
# the base model at the midpoint difficulty reproduces the base configuration;
# solve_points and expected_quality solve arrays of points, here the one (0.6, 0.5)
alpha, beta = [ability.alpha], [ability.beta]
[pinned] = solve_points(difficulty_params(params, 0.5), alpha, beta).q.tolist()
print(f"difficulty pinned at 0.5: q={pinned:.6f} (base {base.q:.6f})")
[uniform] = expected_quality(params, alpha, beta, 64)
print(f"difficulty uniform on [0,1]: q={uniform.q:.6f}, q0={uniform.q0:.6f}, "
      f"label {uniform.quality_label.value}")

print("\n== miscalibrated beliefs about the AI ==")
# the worker plans with believed_p_a; quality is scored at the true p_a
for p_hat in (0.65, 0.70, 0.80):
    act, rep = evaluate_point(replace(params, believed_p_a=p_hat), ability)
    print(f"believed AI success {p_hat:.2f}: acts {act.regime.value} "
          f"(s={act.s_star:.3f}), true q={rep.q:.4f}")

grid = [Ability(float(a), float(b))
        for a in np.linspace(0, 1, 51) for b in np.linspace(0, 1, 51)]
base_pure = sum(optimal_action(params, ab).regime.value == "pure_delegation" for ab in grid)
over = replace(params, believed_p_a=0.7)
over_pure = sum(optimal_action(over, ab).regime.value == "pure_delegation" for ab in grid)
print(f"overconfidence (0.70 vs true 0.65) grows the pure-delegation region "
      f"from {base_pure} to {over_pure} of {len(grid)} cells")

print("\n== partial re-execution ==")
for kappa in (1.0, 0.8, 0.0):
    act, rep = evaluate_point(replace(params, kappa=kappa), ability)
    print(f"redo discount kappa={kappa:.1f}: regime {act.regime.value}, "
          f"effort {act.s_star:.4f}, q={rep.q:.4f}")
print("cheaper correction makes verification more attractive, raising effort;")
print("at kappa=1 the base model is recovered line for line")
