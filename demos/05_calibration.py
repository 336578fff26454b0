#!/usr/bin/env python3
"""Calibrate the model from the bundled per-case log and probe interventions.

The log records, per case, whether the clinician alone / the AI alone /
the assisted clinician got it right, plus completion times. Cleaning drops
override cases and time outliers; the empirical aggregates then identify
the clinician's abilities and the stakes they must be playing for.
"""

import delver.calibration as cal
from delver import Ability, optimal_verification

T_V_MAX = 118.1   # longest observed verification time
T_W_MAX = 262.3   # longest observed solo completion time

records, cleaning = cal.ingest_and_clean(cal.fixture_path())
print(f"cases: {cleaning.n_input} read, {cleaning.n_time_dropped} outside the time window,")
print(f"       {cleaning.n_override_dropped} overrides of correct AI output "
      f"({cleaning.override_fraction:.1%}), {cleaning.n_retained} retained")

obs = cal.estimate_observables(records)
print(f"\nsuccess rates: alone {obs.p_w:.3f}, AI {obs.p_a:.3f}, assisted {obs.p_assisted:.3f}")
print(f"mean times: alone {obs.c_w:.1f}s, assisted {obs.c_wa:.2f}s "
      f"(unchanged-output share {obs.pr_unchanged:.2f})")
print(f"assisted cost net of entry time: {obs.cost_assisted:.1f}s")

worker = cal.infer_ability(obs, T_V_MAX, T_W_MAX)
print(f"\ninverted model quantities")
print(f"  detection probability at chosen effort: {worker.phi_at_s_dagger:.3f}")
print(f"  verification effort s_dagger:           {worker.s_dagger:.3f}")
print(f"  abilities: alpha={worker.alpha:.3f}, beta={worker.beta:.3f}")
print(f"  implied stakes b_w + l_w:               {worker.stakes:.1f}")

institution = cal.InstitutionSpec(b_i=2787.6, l_i=1858.4, xi=0.5, tau=150.0)
result = cal.classify_calibrated(worker, institution)
print(f"\nclassification under tau={institution.tau}")
print(f"  regime: {result.action.regime.value} "
      f"(delegation increment {result.action.f_w_at_s_dagger:.2f} < 0)")
print(f"  quality with AI {result.report.q:.2f} = baseline {result.report.q0:.2f}, "
      f"{result.report.quality_label.value}, {result.report.compliance_label.value}")

print(f"\nsmallest single lever reaching tau={institution.tau}:")
for name, target in sorted(result.lever_targets.items()):
    current = {"alpha": worker.alpha, "beta": worker.beta, "p_a": obs.p_a}[name]
    print(f"  {name:5s} {current:.3f} -> {target.value:.3f}")

# the assembled parameters reproduce the observed effort as the worker's optimum
recovered = optimal_verification(result.params, Ability(worker.alpha, worker.beta))
print(f"\nconsistency: solver recovers the observed effort "
      f"{recovered:.4f} vs {worker.s_dagger:.4f}")
