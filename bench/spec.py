"""What the benchmark measures: workloads, metrics, and which layer moves which metric.

This table is the single source for `BENCHMARK.json` (see
`python3 bench/run.py --write-benchmark-json`) and for what `run.py` prints.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30

WORKLOADS = {
    "grid_sweep": "atlas, institution-lever and rework grids: tens of thousands of "
                  "independent point solves, the process pool and large CSV output",
    "roots": "boundary curves, thresholds and oracle self-checks: chains of dependent "
             "scalar root finds that cannot be batched, including the bracket-cap path",
    "plans": "upskilling plans, minimal levers, difficulty integration and calibration: "
             "many small commands, each nesting scans, bisections and quadrature",
}

# name: (unit, better, bound); bound is the share of the parent median a
# later change may lose before it counts as a regression.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "outputs_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# name: (unit, what it is, end-to-end metrics and workloads it should move)
PER_LAYER = {
    "cli.import_s": ("s", "import of delver.cli in the traced pass process",
                     "setup_s on every workload"),
    "config.load_params_ms": ("ms", "mean load_params call, this workload's commands",
                              "wall_s on roots and plans"),
    "cli.overhead_s": ("s", "command time outside traced library calls, this workload",
                       "wall_s on plans and roots"),
    "trace.overhead_s": ("s", "best traced minus best untraced run, summed over this "
                               "workload's commands",
                         "none: tracing cost, not program cost"),
    "model.coefficients_us": ("us", "per-point probe of coefficients",
                              "wall_s and outputs_per_s on grid_sweep"),
    "atlas.evaluate_point_us": ("us", "per-point probe of evaluate_point",
                                "wall_s and outputs_per_s on grid_sweep"),
    "solver.optimal_action_us.closed_form": ("us", "per-point probe, linear verification cost",
                                             "wall_s and outputs_per_s on grid_sweep"),
    "solver.optimal_action_us.iterative": ("us", "per-point probe, linear_quadratic cost",
                                           "wall_s on grid_sweep and roots"),
    "atlas.sweep_grid_s": ("s", "serial sweep_grid (library default) on the atlas inputs",
                           "wall_s and cpu_s on grid_sweep"),
    "atlas.sweep_grid_pool_s": ("s", "sweep_grid as the atlas command runs it (pool)",
                                "wall_s and cpu_s on grid_sweep"),
    "atlas.sweep_grid_s.ref101": ("s", "serial sweep_grid, the README's 101x101 reference atlas",
                                  "wall_s and cpu_s on grid_sweep"),
    "atlas.sweep_grid_pool_s.ref101": ("s", "the same grid as the atlas command runs it (pool)",
                                       "wall_s and cpu_s on grid_sweep"),
    "atlas.sweep_grid_s.ref201": ("s", "serial sweep_grid, the reference atlas at 201x201",
                                  "wall_s and cpu_s on grid_sweep"),
    "atlas.sweep_grid_pool_s.ref201": ("s", "the same grid as the atlas command runs it (pool)",
                                       "wall_s and cpu_s on grid_sweep"),
    "atlas.sweep_points": ("count", "points solved by the serial sweep",
                           "wall_s and outputs_per_s on grid_sweep"),
    "atlas.write_atlas_csv_s": ("s", "write_atlas_csv, summed over atlas commands",
                                "wall_s on grid_sweep"),
    "interventions.ai_upgrade_gain_us": ("us", "mean ai_upgrade_gain call in grids",
                                         "wall_s on grid_sweep"),
    "extensions.rework_quality_us": ("us", "mean rework_quality call in grids",
                                     "wall_s on grid_sweep"),
    "atlas.boundary_curve_ms.psi0": ("ms", "mean boundary_curve call", "wall_s on roots"),
    "atlas.boundary_curve_ms.psi1": ("ms", "mean boundary_curve call", "wall_s on roots"),
    "atlas.boundary_curve_ms.psi": ("ms", "mean boundary_curve call", "wall_s on roots"),
    "atlas.boundary_curve_ms.psi_tau": ("ms", "mean boundary_curve call", "wall_s on roots"),
    "atlas.write_boundary_csv_ms": ("ms", "mean write_boundary_csv call", "wall_s on roots"),
    "solver.manual_delegation_threshold_ms": ("ms", "mean call from selfcheck", "wall_s on roots"),
    "solver.qualification_threshold_ms": ("ms", "mean call from selfcheck", "wall_s on roots"),
    "solver.brute_force_action_ms": ("ms", "mean grid-oracle call from selfcheck",
                                     "wall_s on roots"),
    "atlas.roots_bracketed_share": ("ratio", "RootResult.bracketed share of the boundary roots",
                                    "wall_s on roots"),
    "interventions.worker_upskill_ms": ("ms", "mean worker_upskill call", "wall_s on plans"),
    "interventions.upskill_feasible_share": ("ratio", "feasible share of upskilling plans",
                                             "wall_s on plans"),
    "interventions.minimal_lever_ms.alpha": ("ms", "mean minimal_lever call", "wall_s on plans"),
    "interventions.minimal_lever_ms.beta": ("ms", "mean minimal_lever call", "wall_s on plans"),
    "interventions.minimal_lever_ms.p_a": ("ms", "mean minimal_lever call", "wall_s on plans"),
    "extensions.expected_quality_ms": ("ms", "mean expected_quality call", "wall_s on plans"),
    "calibration.calibrate_file_ms": ("ms", "calibrate_file on the bundled case log",
                                      "wall_s on plans"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": _better(u)}
                      for n, (u, _, _) in PER_LAYER.items()],
    }


def _better(unit: str) -> str:
    return "higher" if unit in ("ratio", "count") else "lower"


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
