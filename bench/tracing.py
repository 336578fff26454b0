"""Spans around calls into delver's layers, kept in memory and written at the end.

A span is (name, start_ns, end_ns, parent index, command id). Spans are
recorded only from this benchmark's code: the CLI's references to library
functions are swapped for wrappers in a traced pass, and the probes below
call the library directly. Nothing in `src/delver` changes.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.cid = ""
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.cid])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float, n: int = 1) -> None:
        entry = self.counts[name]
        entry[0] += value
        entry[1] += n

    def wrap(self, name, fn, suffix=None, observe=None):
        """fn with a span named `name` (plus `.suffix(*args)`) around each call."""

        def traced(*args, **kwargs):
            idx = self.open(name if suffix is None else f"{name}.{suffix(*args, **kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, result)
            return result

        return traced


class TracedModule:
    """Stands in for a module: its functions come back wrapped, the rest as is."""

    def __init__(self, module, prefix: str, tracer: Tracer):
        self._module, self._prefix, self._tracer = module, prefix, tracer
        self._cache = {}

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if not inspect.isfunction(obj):
            return obj
        if name not in self._cache:
            self._cache[name] = self._tracer.wrap(self._prefix + name, obj)
        return self._cache[name]


def _feasible(tracer, plan):
    tracer.count("interventions.upskill_feasible", float(plan.feasible))


# delver.cli attribute -> (span name, suffix from the call's arguments, observer)
CLI_LAYERS = {
    "load_params": ("config.load_params", None, None),
    "parse_range": ("config.parse_range", None, None),
    "params_to_dict": ("config.params_to_dict", None, None),
    "sweep_grid": ("atlas.sweep_grid", None, None),
    "write_atlas_csv": ("atlas.write_atlas_csv", None, None),
    "boundary_curve": ("atlas.boundary_curve", lambda params, which, *a, **k: which, None),
    "write_boundary_csv": ("atlas.write_boundary_csv", None, None),
    "evaluate_point": ("atlas.evaluate_point", None, None),
    "manual_delegation_threshold": ("solver.manual_delegation_threshold", None, None),
    "qualification_threshold": ("solver.qualification_threshold", None, None),
    "brute_force_action": ("solver.brute_force_action", None, None),
    "check_assumptions": ("model.check_assumptions", None, None),
    "worker_utility": ("model.worker_utility", None, None),
    "sample_ability": ("sampling.sample_ability", None, None),
    "worker_upskill": ("interventions.worker_upskill", None, _feasible),
    "minimal_lever": ("interventions.minimal_lever",
                      lambda params, ability, lever, *a, **k: lever, None),
    "ai_upgrade_gain": ("interventions.ai_upgrade_gain", None, None),
    "expected_quality": ("extensions.expected_quality", None, None),
    "rework_quality": ("extensions.rework_quality", None, None),
}


def instrument_cli(cli, tracer: Tracer):
    """Wrap the CLI's references to library functions; return switch(on) for them."""
    plain = {attr: getattr(cli, attr) for attr in CLI_LAYERS}
    traced = {attr: tracer.wrap(name, plain[attr], suffix, observe)
              for attr, (name, suffix, observe) in CLI_LAYERS.items()}
    plain["cal"] = cli.cal
    traced["cal"] = TracedModule(cli.cal, "calibration.", tracer)

    def switch(on: bool) -> None:
        for attr, fn in (traced if on else plain).items():
            setattr(cli, attr, fn)

    switch(True)
    return switch


def run_probes(tracer: Tracer, probes: dict) -> None:
    """Direct calls into the layers the CLI reaches only in bulk or not at all."""
    import numpy as np

    from delver import atlas, calibration, model, solver
    from delver.config import load_params
    from delver.model import LINEAR, Ability

    def timed(name, fn):
        idx = tracer.open(name)
        try:
            return fn()
        finally:
            tracer.close(idx)

    for cfg, alpha_range, beta_range, label in probes["sweep"]:
        tracer.cid = f"probe:sweep:{label}" if label else "probe:sweep"
        params = load_params(cfg)
        rows = timed("atlas.sweep_grid", lambda: atlas.sweep_grid(params, alpha_range, beta_range))
        tracer.count("atlas.sweep_points", len(rows))

    tracer.cid = "probe:points"
    for cfg, points in probes["points"]:
        params = load_params(cfg)
        abilities = [Ability(a, b) for a, b in points]
        branch = "closed_form" if params.verification_cost.kind == LINEAR else "iterative"
        for name, call in (
                ("model.coefficients", lambda ab: model.coefficients(params, ab, 0.5)),
                ("atlas.evaluate_point", lambda ab: atlas.evaluate_point(params, ab)),
                (f"solver.optimal_action.{branch}", lambda ab: solver.optimal_action(params, ab))):
            timed(name, lambda: [call(ab) for ab in abilities])
            tracer.count(name, 0.0, len(abilities))

    tracer.cid = "probe:roots"
    roots = {"psi0": atlas.psi0, "psi1": atlas.psi1, "psi": atlas.psi, "psi_tau": atlas.psi_tau}
    for cfg, which, (b0, b1, n), tau in probes["roots"]:
        params = load_params(cfg)
        fn = roots[which]
        kwargs = {} if tau is None else {"tau": tau}
        for beta in np.linspace(b0, b1, int(n)):
            try:
                res = timed(f"atlas.{which}", lambda: fn(params, float(beta), **kwargs))
            except ValueError:  # outside this boundary's beta domain, as boundary_curve skips
                continue
            tracer.count("atlas.roots_bracketed", float(res.bracketed))

    tracer.cid = "probe:calibrate"
    cases, kwargs = probes["calibrate"]
    institution = calibration.InstitutionSpec(**kwargs["institution"])
    for _ in range(kwargs["repeats"]):
        timed("calibration.calibrate_file",
              lambda: calibration.calibrate_file(cases, kwargs["t_v_max"], kwargs["t_w_max"],
                                                 institution))


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover, in seconds."""
    child = [0] * len(spans)
    for name, start, end, parent, cid in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - child[i]) * 1e-9 for i, (_, start, end, _, _) in enumerate(spans)]
