#!/usr/bin/env python3
"""Map worker quality across ability space and trace the regime boundaries.

Produces the data behind the usual three-panel picture: the action regime,
the quality gap against the no-AI baseline, and the compliance grading,
all as CSV grids plus the four boundary curves.
"""

from collections import Counter
from pathlib import Path

import numpy as np

from delver import (
    boundary_curve, manual_delegation_threshold, reference_params,
    separatrix_intersection, sweep_grid, write_atlas_csv,
)
from delver.atlas import write_boundary_csv

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

params = reference_params()
grid = sweep_grid(params, (0.0, 1.0, 101), (0.0, 1.0, 101))  # columns; iterates as rows

with open(out_dir / "quality_atlas.csv", "w", newline="") as fh:
    write_atlas_csv(grid, fh)
print(f"wrote {len(grid)} grid rows to {out_dir / 'quality_atlas.csv'}")

rows = list(grid)
regimes = Counter(r.regime.value for r in rows)
quality = Counter(r.quality_label.value for r in rows)
compliance = Counter(r.compliance_label.value for r in rows)
n = len(rows)
print("\narea shares on [0,1]^2")
for name, counts in [("regime", regimes), ("quality", quality), ("compliance", compliance)]:
    shares = ", ".join(f"{k}: {v / n:.3f}" for k, v in sorted(counts.items()))
    print(f"  {name:10s} {shares}")

t = manual_delegation_threshold(params).value
betas = np.linspace(0.0, 1.0, 101)
for which in ("psi0", "psi1", "psi", "psi_tau"):
    points = boundary_curve(params, which, betas)
    path = out_dir / f"boundary_{which}.csv"
    with open(path, "w", newline="") as fh:
        write_boundary_csv(points, fh)
    print(f"wrote {len(points)} points to {path}")

alpha_x, beta_x = separatrix_intersection(params)
print(f"\nquality and manual-work boundaries cross at "
      f"(alpha, beta) = ({alpha_x:.3f}, {beta_x:.3f})")
print("below that point, a bit more verification skill flips a manual worker")
print("into delegation before verification is good enough to help the institution")
