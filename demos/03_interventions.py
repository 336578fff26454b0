#!/usr/bin/env python3
"""Interventions: upskilling an unqualified worker, and the institution's levers.

The worker-side problem finds the cheapest ability increase that lifts
quality over the bar. The institution-side levers (better AI, benefit
transfer) are blunter: both can raise or lower quality depending on where
the worker sits in ability space.
"""

from dataclasses import replace

import numpy as np

from delver import (
    Ability, CostModel, CostTerm, ai_upgrade_gain, incentive_transfer_gain,
    minimal_lever, quality, reference_params, worker_upskill,
)

# tau, the quality bar, is a field of the parameters: any finite value, set with replace
params = replace(reference_params(), tau=6.4)
tau = params.tau

print("== worker-side upskilling ==")
for ability in [Ability(0.05, 0.10), Ability(0.10, 0.40), Ability(0.30, 0.20)]:
    before = quality(params, ability).q
    plan = worker_upskill(params, ability, CostModel())
    print(f"worker ({ability.alpha:.2f}, {ability.beta:.2f}): q={before:.3f} < tau={tau}")
    print(f"  cheapest fix: d_alpha={plan.d_alpha:.4f}, d_beta={plan.d_beta:.4f}, "
          f"cost={plan.cost:.4f}, reaching q={plan.achieved_q:.4f}")

# steeper verification-training costs push the plan toward execution training
ability = Ability(0.05, 0.10)
expensive_alpha = CostModel(h_alpha=CostTerm(4.0), h_beta=CostTerm(1.0))
plan = worker_upskill(params, ability, expensive_alpha)
print(f"\nsame worker, alpha training 4x the price: "
      f"d_alpha={plan.d_alpha:.4f}, d_beta={plan.d_beta:.4f}")

print("\n== single levers to reach tau ==")
ability = Ability(0.05, 0.50)
for lever in ("alpha", "beta", "p_a"):
    target = minimal_lever(params, ability, lever)
    print(f"  raise {lever:5s} to {target.value:.4f}"
          + ("" if target.feasible else " (infeasible within caps)"))

print("\n== institution-side levers on a 51x51 grid ==")
grid = [Ability(float(a), float(b))
        for a in np.linspace(0, 1, 51) for b in np.linspace(0, 1, 51)]
gp = np.array([ai_upgrade_gain(params, ab, 0.05).gain for ab in grid])
gb = np.array([incentive_transfer_gain(params, ab, 1.0).gain for ab in grid])
for name, gains in [("AI upgrade +0.05", gp), ("benefit transfer 1.0", gb)]:
    print(f"  {name}: improves {np.mean(gains > 1e-9):.1%} of workers, "
          f"harms {np.mean(gains < -1e-9):.1%}, "
          f"worst {gains.min():+.3f}, best {gains.max():+.3f}")
print("the transfer helps a much narrower slice than the AI upgrade,")
print("and both backfire for efficient workers with weak verification")
