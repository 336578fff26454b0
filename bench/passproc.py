"""One benchmark pass in a fresh interpreter: import delver.cli, run commands, report.

Usage: python3 bench/passproc.py SPEC_JSON   (with PYTHONPATH set to the checkout's src)

The spec lists sections, each a working directory and its commands, and
whether to trace. The process prints "ready" once delver.cli is imported,
runs every command through `delver.cli.main(argv)` with stdout and stderr
captured, and writes its results (and spans, when traced) beside the spec.
Before each command and after the last one it times a speed probe, a
fixed piece of interpreter work outside delver, and every second the same
probe, repeated, in two processes at once, so that the driver can tell how much
other tenants of the machine slowed one core and both cores in this pass.
In a traced pass, each command of a "paired" section also runs
PAIR_REPEATS more times traced and as often untraced, alternately and back
to back, and the fastest of these runs on each side is reported, so that
slow stretches of the machine and the pool's start-up variance mostly drop
out of the difference. Spans of the repeated traced runs are dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

PAIR_REPEATS = 3
PAIR_PROBE_EVERY_S = 1.0


def _cpu_s() -> tuple[float, float]:
    """CPU time of this process and of its ended children (pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one.
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def _speed_probe() -> float:
    """Time of a fixed piece of interpreter work of the kind delver does
    (scalar float math, calls, small numpy calls) that calls no delver code,
    so that a change to delver does not change it."""
    import math

    import numpy as np
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 2001):
        x = i * 1e-3
        acc += math.exp(-x) * x / (1.0 + x * x) + max(0.0, min(1.0, x - 0.5))
        if i % 20 == 0:
            acc += float(np.exp(np.float64(-x)))
    return time.perf_counter() - start


def _pair_probe(repeats: int = 15) -> float:
    """Wall time of `repeats` speed probes in each of two forked processes at
    once, which needs both cores to take as long as one process alone."""
    start = time.perf_counter()
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:  # the child must never return into the pass
            try:
                for _ in range(repeats):
                    _speed_probe()
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def _run_command(cli, cid, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    (cpu, kids), start = _cpu_s(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        idx = None
        if tracer is not None:
            tracer.cid = cid
            idx = tracer.open("cli.main")
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed pass
            rc = -1
            err.write(traceback.format_exc())
        finally:
            if idx is not None:
                tracer.close(idx)
    wall = time.perf_counter() - start
    cpu_end, kids_end = _cpu_s()
    return {"cid": cid, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall_s": wall, "cpu_s": cpu_end + kids_end - cpu - kids,
            "child_cpu_s": kids_end - kids}


def _paired_runs(cli, cid, argv, tracer, switch, untraced_first):
    """Best untraced and best traced wall time of a command over the same
    number of runs each, and one untraced result."""
    spans, counts = len(tracer.spans), {k: list(v) for k, v in tracer.counts.items()}
    best = {False: [], True: []}
    untraced = None
    # the second of two back-to-back runs finds caches warm, so the order
    # alternates from command to command to keep that out of the difference
    order = (False, True) if untraced_first else (True, False)
    for _ in range(PAIR_REPEATS):
        for on in order:
            switch(on)
            res = _run_command(cli, cid, argv, tracer if on else None)
            best[on].append(res["wall_s"])
            if not on and untraced is None:
                untraced = res
    switch(True)
    del tracer.spans[spans:]
    tracer.counts.clear()
    tracer.counts.update(counts)
    untraced["traced_best_s"], untraced["untraced_best_s"] = min(best[True]), min(best[False])
    return untraced


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["traced"]:
        from tracing import Tracer, instrument_cli, run_probes
        tracer = Tracer()
        idx = tracer.open("cli.import")
    import delver.cli as cli
    if tracer is not None:
        tracer.close(idx)
        switch = instrument_cli(cli, tracer)
    print("ready", flush=True)

    sections, probes, pair_probes = [], [], []
    last_pair = -PAIR_PROBE_EVERY_S
    for section in spec["sections"]:
        os.chdir(section["cwd"])
        results, untraced = [], []
        for i, (cid, argv) in enumerate(section["commands"]):
            probes.append(_speed_probe())
            if time.perf_counter() - last_pair >= PAIR_PROBE_EVERY_S:
                pair_probes.append(_pair_probe())
                last_pair = time.perf_counter()
            results.append(_run_command(cli, cid, argv, tracer))
            if section["paired"]:
                untraced.append(_paired_runs(cli, cid, argv, tracer, switch, i % 2 == 0))
        sections.append({"workload": section["workload"], "results": results,
                         "untraced": untraced})
    probes.append(_speed_probe())
    pair_probes.append(_pair_probe())
    report = {"peak_rss_mb": _peak_rss_mb(), "sections": sections, "probes": probes,
              "pair_probes": pair_probes}
    if tracer is not None:
        run_probes(tracer, spec["probes"])
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
