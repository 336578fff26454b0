"""Benchmark for delver: three seeded CLI workloads, end to end and per layer.

    python3 bench/run.py [--workload grid_sweep|roots|plans|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each pass is a fresh interpreter (bench/passproc.py, PYTHONPATH=src) that
imports delver.cli and calls main(argv) for every command of the
workload, one after another, with output captured. Passes run one at a
time; their number is fixed per workload (PASSES, chosen so that they fit
in S seconds at the commit that defined the benchmark) and does not depend
on how fast the program is. The end-to-end metrics come from them, in
seconds at a reference machine speed (see plain_metrics); "measured" lines
print the unscaled times beside them. With --trace 1 a run is instead one
traced pass over all three workloads plus direct layer probes, and reports
the per-layer metrics.

Every output is validated and digested. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PASS_TIMEOUT_S = 150
# The speed probe's median time (bench/passproc.py) on the shared 2-core
# Xeon the benchmark was defined on, so that scaled times stay close to
# the times measured there.
REF_PROBE_S = 2.0e-3
# The two-process speed probe's time there, between its 40 ms with both
# cores free and its 75 ms when another tenant holds one of them.
REF_PAIR_PROBE_S = 0.06
# The start probe's median time there: a fresh interpreter importing numpy,
# the part of set-up that is not delver's own.
REF_START_PROBE_S = 0.25
# passes per run of RUN_SECONDS; a run of S seconds scales them by S / RUN_SECONDS
PASSES = {"grid_sweep": 4, "roots": 10, "plans": 9}
MIN_PASSES = 3
SETUP_SAMPLES = 5


class HarnessError(RuntimeError):
    pass


def machine_info() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "loadavg": list(os.getloadavg())}


def spawn_pass(run_dir: Path, n: int, sections, traced: bool = False, probes=None,
               paired: str = "") -> dict:
    """Run one pass process; return its report plus the measured set-up time."""
    spec = {"traced": traced, "probes": probes, "report": str(run_dir / f"report{n}.json"),
            "sections": [{"workload": w, "cwd": str(run_dir / w / f"pass{n}"), "paired": w == paired,
                          "commands": [[c.cid, c.argv] for c in cmds]} for w, cmds in sections]}
    for s in spec["sections"]:
        Path(s["cwd"]).mkdir(parents=True)
    spec_path = run_dir / f"spec{n}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(run_dir / f"stderr{n}.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "passproc.py"), str(spec_path)],
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=run_dir,
                                text=True, start_new_session=True)
        rc = "timeout"
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - start
            if line:
                proc.communicate(timeout=PASS_TIMEOUT_S)
                rc = proc.returncode
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:  # hung: kill it and any pool workers it started
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        tail = (run_dir / f"stderr{n}.txt").read_text()[-2000:]
        raise HarnessError(f"pass process failed (exit {rc}):\n{tail}")
    report = json.loads(Path(spec["report"]).read_text())
    report["setup_s"] = setup_s
    return report


class Checker:
    """Validates the first result of each command and digests every later one."""

    def __init__(self, seed: int):
        import validate
        self.validate = validate
        self.rng = validate.oracle_rng(seed)
        self.first: dict[str, tuple[str, bool]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def section(self, cmds, results, pass_dir: Path, untraced=()) -> int:
        """Check one section; return the number of output rows it got right.

        `untraced` holds the untraced runs of a traced pass's paired
        section, which must print what the traced runs print.
        """
        rows = 0
        for cmd, res in zip(cmds, results, strict=True):
            self.attempted += 1
            digest = self.validate.digest(cmd, res, pass_dir)
            if cmd.cid not in self.first:
                problems = self.validate.check(cmd, res, pass_dir, self.rng)
                self.first[cmd.cid] = (digest, not problems)
            elif digest != self.first[cmd.cid][0]:
                problems = ["output differs from the first pass"]
            else:
                problems = [] if self.first[cmd.cid][1] else ["same output as the failed first pass"]
            if problems:
                self.failed += 1
                self.problems.append(f"{cmd.cid} {' '.join(cmd.argv)}: {problems[0]}")
            else:
                rows += cmd.rows
        for cmd, res, plain in zip(cmds, results, untraced):  # empty unless paired
            self.attempted += 1
            if (plain["rc"], plain["stdout"]) != (res["rc"], res["stdout"]):
                self.failed += 1
                self.problems.append(f"{cmd.cid} {' '.join(cmd.argv)}: untraced run differs")
        shutil.rmtree(pass_dir)
        return rows

    def digest(self, cids) -> str:
        return self.validate.combined(self.first[cid][0] for cid in cids)


def start_probe() -> float:
    """Time to start an interpreter and import numpy, which no change to delver changes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=PASS_TIMEOUT_S)
    return time.perf_counter() - start


def slowdown(report: dict, both_cores: bool = False) -> float:
    """How many times slower than the reference speed one core, or both
    cores, of the machine ran during a pass."""
    if both_cores:
        return statistics.median(report["pair_probes"]) / REF_PAIR_PROBE_S
    return statistics.median(report["probes"]) / REF_PROBE_S


def plain_metrics(passes, setups, rows) -> tuple[dict, dict]:
    """End-to-end metrics of a run from its untraced passes, and raw figures.

    Other tenants of the shared machine slow its cores by up to 2x for
    seconds at a time, and they slow delver about as much as they slow the
    speed probe. So each pass's times are divided by the pass's slowdown,
    which gives seconds at the reference speed; a command's time is the
    median over the passes, and wall_s and cpu_s sum those over the
    commands. A command run that used child processes (the atlas pool)
    needs both cores, so it is scaled by the slowdown of both.

    Set-up is mostly file reads and loading numpy's extension modules,
    which contention slows less than it slows the speed probe. So each
    set-up sample, an import-only pass, is scaled instead by the start
    probe run right before it, and setup_s is the median.
    """
    walls, cpus, raw = defaultdict(list), defaultdict(list), defaultdict(list)
    for p in passes:
        slows = {False: slowdown(p), True: slowdown(p, both_cores=True)}
        for res in p["sections"][0]["results"]:
            slow = slows[res["child_cpu_s"] > 0]
            walls[res["cid"]].append(res["wall_s"] / slow)
            cpus[res["cid"]].append(res["cpu_s"] / slow)
            raw[res["cid"]].append(res["wall_s"])
    wall_s = sum(statistics.median(v) for v in walls.values())
    metrics = {
        "wall_s": wall_s,
        "outputs_per_s": rows / wall_s,
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "setup_s": statistics.median([s * REF_START_PROBE_S / probe for s, probe in setups]),
    }
    measured = {
        "wall_s": sum(statistics.median(v) for v in raw.values()),
        "setup_s": statistics.median([s for s, _ in setups]),
        "slowdown": statistics.median([slowdown(p) for p in passes]),
        "slowdown_both_cores": statistics.median([slowdown(p, True) for p in passes]),
        "start_probe_s": statistics.median([probe for _, probe in setups]),
    }
    return metrics, measured


def probe_spec(run_dir: Path, commands: dict, seed: int) -> dict:
    """Inputs for the direct layer probes, taken from the workloads' commands."""
    import numpy as np
    from delver.config import parse_range
    from workloads import CALIBRATE_ARGS

    def cfg(workload, cmd):
        return str(run_dir / workload / "inputs" / Path(cmd.argv[cmd.argv.index("--config") + 1]).name)

    def arg(cmd, flag):
        return cmd.argv[cmd.argv.index(flag) + 1]

    sweep, points = [], {}
    rng = np.random.default_rng([seed, 7])
    for cmd in commands["grid_sweep"]:
        if cmd.kind == "atlas":
            a, b = parse_range(arg(cmd, "--alpha")), parse_range(arg(cmd, "--beta"))
            sweep.append((cfg("grid_sweep", cmd), a, b, cmd.extra.get("label")))
            pts = np.column_stack([rng.uniform(a[0], a[1], 500), rng.uniform(b[0], b[1], 500)])
            points.setdefault(cfg("grid_sweep", cmd), pts.tolist())
    roots = [(cfg("roots", c), c.extra["which"], c.extra["betas"], c.extra.get("tau"))
             for c in commands["roots"] if c.kind == "boundary"]
    flags = dict(zip(CALIBRATE_ARGS[0::2], CALIBRATE_ARGS[1::2]))
    calibrate = {"t_v_max": float(flags["--tvmax"]), "t_w_max": float(flags["--twmax"]),
                 "institution": {"b_i": float(flags["--b-i"]), "l_i": float(flags["--l-i"]),
                                 "xi": float(flags["--xi"]), "tau": float(flags["--tau"])},
                 "repeats": 5}
    return {"sweep": sweep, "points": list(points.items()), "roots": roots,
            "calibrate": [str(run_dir / "plans" / "inputs" / "cases.csv"), calibrate]}


def layer_metrics(report: dict, workload: str, labels: dict) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self times from one traced pass.

    `labels` maps the label of a labelled command to its command id.
    """
    from tracing import self_times

    spans = report["spans"]
    by = defaultdict(list)
    by_cid = defaultdict(float)
    layer_self = defaultdict(float)
    for (name, _, _, _, cid), self_s in zip(spans, self_times(spans)):
        scope = cid.split(":")[0]
        by[(scope, name)].append(self_s)
        by_cid[(cid, name)] += self_s
        if scope in (workload, "probe", ""):
            layer_self[f"{scope or workload}/{name.split('.')[0]}"] += self_s

    def total(scope, name):
        return sum(by[(scope, name)])

    def mean(scope, name, scale):
        values = by[(scope, name)]
        if not values:
            raise HarnessError(f"no {name} spans in {scope}")
        return scale * sum(values) / len(values)

    def per_call(name, scale):
        return scale * total("probe", name) / report["counts"][name][1]

    def share(name):
        value, n = report["counts"][name]
        return value / n

    own = next(s for s in report["sections"] if s["workload"] == workload)
    m = {
        "cli.import_s": total("", "cli.import"),
        "config.load_params_ms": mean(workload, "config.load_params", 1e3),
        "cli.overhead_s": total(workload, "cli.main"),
        "trace.overhead_s": sum(u["traced_best_s"] - u["untraced_best_s"]
                                for u in own["untraced"]),
        "model.coefficients_us": per_call("model.coefficients", 1e6),
        "atlas.evaluate_point_us": per_call("atlas.evaluate_point", 1e6),
        "solver.optimal_action_us.closed_form": per_call("solver.optimal_action.closed_form", 1e6),
        "solver.optimal_action_us.iterative": per_call("solver.optimal_action.iterative", 1e6),
        "atlas.sweep_grid_s": total("probe", "atlas.sweep_grid"),
        "atlas.sweep_grid_pool_s": total("grid_sweep", "atlas.sweep_grid"),
        "atlas.sweep_points": report["counts"]["atlas.sweep_points"][0],
        "atlas.write_atlas_csv_s": total("grid_sweep", "atlas.write_atlas_csv"),
        "interventions.ai_upgrade_gain_us": mean("grid_sweep", "interventions.ai_upgrade_gain", 1e6),
        "extensions.rework_quality_us": mean("grid_sweep", "extensions.rework_quality", 1e6),
        "atlas.write_boundary_csv_ms": mean("roots", "atlas.write_boundary_csv", 1e3),
        "solver.manual_delegation_threshold_ms":
            mean("roots", "solver.manual_delegation_threshold", 1e3),
        "solver.qualification_threshold_ms": mean("roots", "solver.qualification_threshold", 1e3),
        "solver.brute_force_action_ms": mean("roots", "solver.brute_force_action", 1e3),
        "atlas.roots_bracketed_share": share("atlas.roots_bracketed"),
        "interventions.worker_upskill_ms": mean("plans", "interventions.worker_upskill", 1e3),
        "interventions.upskill_feasible_share": share("interventions.upskill_feasible"),
        "extensions.expected_quality_ms": mean("plans", "extensions.expected_quality", 1e3),
        "calibration.calibrate_file_ms": mean("probe", "calibration.calibrate_file", 1e3),
    }
    for label, cid in labels.items():
        m[f"atlas.sweep_grid_s.{label}"] = by_cid[(f"probe:sweep:{label}", "atlas.sweep_grid")]
        m[f"atlas.sweep_grid_pool_s.{label}"] = by_cid[(cid, "atlas.sweep_grid")]
    for which in ("psi0", "psi1", "psi", "psi_tau"):
        m[f"atlas.boundary_curve_ms.{which}"] = mean("roots", f"atlas.boundary_curve.{which}", 1e3)
    for lever in ("alpha", "beta", "p_a"):
        m[f"interventions.minimal_lever_ms.{lever}"] = mean(
            "plans", f"interventions.minimal_lever.{lever}", 1e3)
    return m, dict(layer_self)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", inject=()) -> dict:
    """Measure one workload; `inject` appends extra commands (harness self-check)."""
    import workloads
    from spec import END_TO_END, PER_LAYER, RUN_SECONDS

    run_dir = BENCH / ".work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        names = workloads.NAMES if trace else (workload,)
        commands = {w: workloads.write_inputs(w, seed, run_dir / w / "inputs", ROOT, scale)
                    for w in names}
        commands[workload] += list(inject)
        checker = Checker(seed)
        probes = probe_spec(run_dir, commands, seed) if trace else None
        passes, measured = [], {}
        if trace:
            # One traced pass over every workload; this workload's commands
            # also run untraced, alternately with repeated traced runs.
            report = spawn_pass(run_dir, 0, [(w, commands[w]) for w in names], True, probes,
                                paired=workload)
            passes.append(report)
            for sec in report["sections"]:
                checker.section(commands[sec["workload"]], sec["results"],
                                run_dir / sec["workload"] / "pass0", sec["untraced"])
            labels = {c.extra["label"]: c.cid for c in commands["grid_sweep"]
                      if "label" in c.extra}
            layers, self_s = layer_metrics(report, workload, labels)
            metrics = {name: layers[name] for name in PER_LAYER}
            units = {name: PER_LAYER[name][0] for name in PER_LAYER}
            trace_out = BENCH / "out" / f"trace-{workload}-s{seed}.json"
            trace_out.parent.mkdir(exist_ok=True)
            trace_out.write_text(json.dumps({"spans": report["spans"], "counts": report["counts"],
                                             "self_s": self_s}))
        else:
            rows = 0
            for n in range(max(MIN_PASSES, round(PASSES[workload] * seconds / RUN_SECONDS))):
                report = spawn_pass(run_dir, n, [(workload, commands[workload])])
                got = checker.section(commands[workload], report["sections"][0]["results"],
                                      run_dir / workload / f"pass{n}")
                rows = rows or got
                passes.append(report)
            setups = []
            for n in range(len(passes), len(passes) + SETUP_SAMPLES):
                probe = start_probe()
                setups.append((spawn_pass(run_dir, n, [])["setup_s"], probe))
            metrics, measured = plain_metrics(passes, setups, rows)
            self_s = {}
            units = {name: END_TO_END[name][0] for name in END_TO_END}
        return {
            "workload": workload, "seed": seed, "passes": len(passes),
            "attempted": checker.attempted, "failed": checker.failed,
            "error_rate": checker.failed / checker.attempted,
            "problems": checker.problems,
            "digest": checker.digest(c.cid for c in commands[workload]),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
            "self_s": self_s, "measured": measured,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _print_result(res: dict) -> None:
    w = res["workload"]
    print(f"workload {w} seed {res['seed']} passes {res['passes']} "
          f"attempted {res['attempted']} failed {res['failed']}")
    print(f"digest {w} sha256:{res['digest']}")
    for problem in res["problems"][:20]:
        print(f"problem {w} {problem}")
    for name, m in res["metrics"].items():
        print(f"metric {w} {name} {m['value']:.6g} {m['unit']}")
    print(f"metric {w} error_rate {res['error_rate']:.6g} ratio")
    for name, value in res["measured"].items():
        unit = "x" if name.startswith("slowdown") else "s"
        print(f"measured {w} {name} {value:.6g} {unit}")
    for layer, value in sorted(res["self_s"].items()):
        print(f"self {layer} {value:.6g} s")


def main(argv=None) -> int:
    from spec import RUN_SECONDS, WORKLOADS, write_benchmark_json

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: a few points per command, for checking the harness itself")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from bench/spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        print(f"wrote {write_benchmark_json(ROOT)}")
        return 0
    for needed in (ROOT / "src" / "delver" / "cli.py", ROOT / "configs" / "reference.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a delver checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    print("machine " + json.dumps(machine_info()), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
        _print_result(res)
        results.append(res)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
