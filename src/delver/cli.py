"""Command-line interface: solve, sweep, intervene, extend, calibrate, check.

Exit codes: 0 on success, 1 on domain or configuration errors (one-line
diagnostic on stderr), 2 on usage errors. Output is deterministic for
identical inputs; floats are printed at 9 significant digits, except the
model parameters (`solve --json`'s `config`, `calibrate`'s `params`), which
are `params_to_dict` in full, so that they load back exactly.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import re
import sys
from dataclasses import asdict, replace

import numpy as np

from .atlas import (
    BOUNDARIES, atlas_columns, boundary_curve, evaluate_point, fmt, grid_columns,
    solve_points, sweep_grid, write_atlas_csv, write_boundary_csv, write_csv,
)
from .config import ConfigError, load_params, params_to_dict, parse_range
from .model import Ability, Action, check_assumptions, worker_utility
from .sampling import sample_ability
from .solver import (
    brute_force_action, manual_delegation_threshold, optimal_action, qualification_threshold,
)

# Names from the modules that only some commands use, by module: `cal` is
# calibration itself. They are bound here on first use, by main before a
# command whose parser names the module, or by __getattr__ on access from
# outside; a name already bound (as a wrapper set with setattr, say) stays bound.
_LAZY = {
    "calibration": ("cal",),
    "extensions": ("check_nodes", "difficulty_params", "expected_quality"),
    "interventions": ("LEVER_MOVES", "CostModel", "CostTerm", "ai_upgrade_gain",
                      "incentive_transfer_gain", "minimal_lever", "worker_upskill"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(module):
    """Bind the names this module takes from `module` that are not bound yet."""
    source = importlib.import_module(f"{__package__}.{module}")
    for name in _LAZY[module]:
        if name not in globals():
            globals()[name] = source if name == "cal" else getattr(source, name)


def _jsonable(value):
    """value for JSON: a float at 9 significant digits, or None where JSON has no inf or nan."""
    if isinstance(value, float):
        return float(f"{value:.9g}") if math.isfinite(value) else None
    return value


def _text(value):
    if isinstance(value, bool):
        return str(int(value))
    return fmt(value) if isinstance(value, float) else str(value)


def _emit(args, payload, json_only=()):
    """Print payload as one sorted JSON line under --json, else as `key value` lines.

    Floats are rounded to 9 significant digits either way, and a non-finite
    one is null in JSON; keys in json_only are left out of the text form.
    """
    if getattr(args, "json", False):
        print(json.dumps({key: _jsonable(value) for key, value in payload.items()}, sort_keys=True))
        return
    for key, value in payload.items():
        if key not in json_only:
            print(key, _text(value))


def _pick(obj, names):
    return {name: _jsonable(getattr(obj, name)) for name in names}


def _write_out(out, rows, write):
    """write(fileobj) to the file out, reporting the row count, or to stdout if out is None."""
    if out is None:
        write(sys.stdout)
        return 0
    with open(out, "w", newline="") as fh:
        write(fh)
    print(f"wrote {rows} rows to {out}")
    return 0


def _ability(args):
    return Ability(args.alpha, args.beta)


def _grid(args):
    """The --alpha-range x --beta-range grid as grid_columns' alpha and beta columns."""
    return grid_columns(parse_range(args.alpha_range), parse_range(args.beta_range))


def _solve_payload(params, ability):
    act = optimal_action(params, ability)
    return act, worker_utility(params, ability, Action(float(act.d_star), act.s_star))


def cmd_solve(args):
    params = args.params
    ability = _ability(args)
    act, u_w = _solve_payload(params, ability)
    payload = {"regime": act.regime.value, "d_star": act.d_star, "s_star": act.s_star,
               "s_dagger": act.s_dagger, "f_w_at_s_dagger": act.f_w_at_s_dagger, "u_w": u_w,
               "config": params_to_dict(params), "alpha": ability.alpha, "beta": ability.beta}
    if args.verify:
        oracle_action, oracle_u = brute_force_action(params, ability)
        payload.update(oracle_d=oracle_action.d, oracle_s=oracle_action.s, oracle_u=oracle_u,
                       analytic_minus_oracle=u_w - oracle_u)
    _emit(args, payload, json_only=("config", "alpha", "beta"))
    return 0


def cmd_quality(args):
    act, rep = evaluate_point(args.params, _ability(args))
    _emit(args, {"q": rep.q, "q0": rep.q0, "gap": rep.gap, "quality": rep.quality_label.value,
                 "compliance": rep.compliance_label.value, "regime": act.regime.value,
                 "tau": args.params.tau})
    return 0


def cmd_atlas(args):
    grid = sweep_grid(args.params, parse_range(args.alpha), parse_range(args.beta))
    return _write_out(args.out, len(grid), lambda fh: write_atlas_csv(grid, fh))


def cmd_boundary(args):
    betas = np.linspace(*parse_range(args.beta_range))
    points = boundary_curve(args.params, args.which, betas)
    return _write_out(args.out, len(points), lambda fh: write_boundary_csv(points, fh))


def cmd_oracle(args):
    action, u = brute_force_action(args.params, _ability(args), args.d_steps, args.s_steps)
    _emit(args, {"d": action.d, "s": action.s, "u_w": u})
    return 0


def _parse_cost_term(text):
    if text == "off":
        return None
    kind, *numbers = text.split(":")
    try:
        numbers = [float(number) for number in numbers]
    except ValueError:
        numbers = None
    if numbers is not None and (kind, len(numbers)) in (("linear", 1), ("power", 2)):
        return CostTerm(*numbers)
    raise ConfigError(f"cost term must be linear:C, power:C:RHO, or off; got {text!r}")


def cmd_intervene_worker(args):
    model = CostModel(h_alpha=_parse_cost_term(args.h1), h_beta=_parse_cost_term(args.h2))
    plan = worker_upskill(args.params, _ability(args), model)
    _emit(args, asdict(plan))
    return 0


def cmd_intervene_institution(args):
    params = args.params
    lever = ai_upgrade_gain if args.lever == "p_a" else incentive_transfer_gain
    given = [x is not None for x in (args.alpha, args.beta, args.alpha_range, args.beta_range)]
    if given == [False, False, True, True]:
        return _lever_grid(args, params, lever)
    if given != [True, True, False, False]:
        raise ConfigError("need --alpha and --beta, or --alpha-range and --beta-range"
                          + (", not both" if any(given[:2]) and any(given[2:]) else ""))
    if args.out is not None:
        raise ConfigError("--out needs --alpha-range and --beta-range; one point prints to stdout")
    res = lever(params, _ability(args), args.delta)
    _emit(args, {name: getattr(res, name) for name in ("lever", "delta", "gain", "new_q")})
    return 0


def _lever_grid(args, params, lever):
    """The lever's gain on the --alpha-range x --beta-range grid: two sweeps, gain = new_q - q.

    The scalar lever at the first row raises what the per-point path raised
    first: that point's error, then the delta's or the moved parameters'.
    The sweeps check the same points under both parameter sets, so they can
    fail only at a later row, with the scalar message.
    """
    alpha, beta = _grid(args)
    res = lever(params, Ability(alpha[0].item(), beta[0].item()), args.delta)
    base = solve_points(params, alpha, beta)
    new = solve_points(LEVER_MOVES[res.lever](params, args.delta), alpha, beta)
    n = len(base)
    return _write_columns(args.out, [
        ("alpha", base.alpha), ("beta", base.beta), ("lever", np.full(n, res.lever, dtype=object)),
        ("delta", np.full(n, res.delta)), ("gain", new.q - base.q), ("new_q", new.q)])


def _write_columns(out, columns):
    """write_csv's columns to the file out, or to stdout if out is None."""
    return _write_out(out, len(columns[0][1]), lambda fh: write_csv(fh, columns))


def cmd_intervene_minimal(args):
    target = minimal_lever(args.params, _ability(args), args.lever)
    _emit(args, asdict(target))
    return 0


def cmd_extend_difficulty(args):
    """The difficulty grid as CSV; every row is computed before --out is opened.

    A pinned --hhat writes the quality columns of the base model's grid at that level.
    """
    params = args.params
    pinned = None if args.hhat is None else difficulty_params(params, args.hhat)
    check_nodes(args.nodes)
    alpha, beta = _grid(args)
    if pinned is None:
        values = map(np.array, zip(*(
            (r.q, r.q0, r.gap, r.quality_label.value, r.compliance_label.value)
            for r in expected_quality(params, alpha, beta, args.nodes))))
    else:
        values = (column for _, column in atlas_columns(solve_points(pinned, alpha, beta))[-5:])
    return _write_columns(args.out, [
        ("alpha", alpha), ("beta", beta),
        ("difficulty", np.full(len(alpha), "" if args.hhat is None else args.hhat)),
        ("nodes", np.full(len(alpha), args.nodes)),
        *zip(("q", "q0", "gap", "quality", "compliance"), values)])


# The benchmark seam: CLI_LAYERS in bench/tracing.py wraps this name, timing extend
# belief's and rework's first-row solve as the extensions.rework_quality span
rework_quality = evaluate_point


def cmd_extend_field(args):
    """The atlas grid with the ModelParams field args.field set, its value the third column."""
    value = getattr(args, args.option)
    # replace checks the value before _grid reads the ranges, so a bad one fails first
    params = replace(args.params, **{args.field: value})
    alpha, beta = _grid(args)
    rework_quality(params, Ability(alpha[0].item(), beta[0].item()))  # the benchmark seam
    grid = solve_points(params, alpha, beta)
    columns = atlas_columns(grid)
    columns.insert(2, (args.option, np.full(len(grid), value)))
    return _write_columns(args.out, columns)


def cmd_calibrate(args):
    worker, cleaning, _ = cal.calibrate_file(args.cases, args.tvmax, args.twmax)
    payload = {
        "cleaning": _pick(cleaning, ("n_input", "n_time_dropped", "n_override_dropped",
                                     "n_retained", "override_fraction")),
        "observables": _pick(worker.observables, ("n", "p_w", "p_a", "p_assisted", "c_w",
                                                  "c_wa", "pr_unchanged", "cost_assisted")),
        "worker": _pick(worker, ("phi_at_s_dagger", "c_v_at_s_dagger", "t_v_max", "t_w_max",
                                 "detection_scale", "s_dagger", "alpha", "beta", "stakes",
                                 "boundary")),
    }
    if worker.stakes is not None:
        b_i = args.b_i if args.b_i is not None else 0.6 * worker.stakes
        l_i = args.l_i if args.l_i is not None else 0.4 * worker.stakes
        institution = cal.InstitutionSpec(b_i=b_i, l_i=l_i, xi=args.xi, tau=args.tau)
        result = cal.classify_calibrated(worker, institution)
        payload["classification"] = {
            "params": params_to_dict(result.params),
            "regime": result.action.regime.value,
            "quality": result.report.quality_label.value,
            "compliance": result.report.compliance_label.value,
            "lever_targets": {name: _pick(t, ("value", "feasible"))
                              for name, t in sorted(result.lever_targets.items())},
            **_pick(result.action, ("d_star", "s_star", "f_w_at_s_dagger")),
            **_pick(result.report, ("q", "q0")),
            **_pick(result, ("warnings", "min_viable_benefit_share")),
        }
    print(json.dumps(payload, sort_keys=True, indent=None if args.json else 2))
    return 0


def cmd_selfcheck(args):
    for option in ("samples", "seed"):
        if getattr(args, option) < 0:
            raise ConfigError(f"--{option} must be >= 0, got {getattr(args, option)}")
    params = args.params
    t = manual_delegation_threshold(params)
    t_tau = qualification_threshold(params)
    report = check_assumptions(params, [Ability(a, b) for a in (0.2, 0.8) for b in (0.25, 0.75)])
    _emit(args, {"t": fmt(t.value) + ("" if t.bracketed else " (boundary)"),
                 "t_tau": fmt(t_tau.value) + ("" if t_tau.bracketed else " (boundary)"),
                 "dominance": report.dominance_ok, "assumptions_ok": report.all_ok})
    for issue in report.violations:
        print(f"violation {issue}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    for _ in range(args.samples):
        ability = sample_ability(rng, params)
        act, u_w = _solve_payload(params, ability)
        _, oracle_u = brute_force_action(params, ability, d_steps=11, s_steps=2001)
        gap = oracle_u - u_w
        worst = max(worst, gap)
        if gap > 1e-6 * (1.0 + abs(u_w)):
            failures += 1
    _emit(args, {"oracle_spot_checks": args.samples, "oracle_max_shortfall": worst,
                 "oracle_failures": failures})
    return 1 if failures or not report.all_ok else 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; options shared by commands come from parents."""
    parser = argparse.ArgumentParser(
        prog="delver",
        description="Delegation and verification decisions for AI-assisted work.")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True)
    point = argparse.ArgumentParser(add_help=False, parents=[config])
    point.add_argument("--alpha", type=float, required=True)
    point.add_argument("--beta", type=float, required=True)
    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau", type=float, default=None)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", parents=[point, as_json], help="optimal action for one worker")
    p.add_argument("--verify", action="store_true", help="compare against the grid oracle")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("quality", parents=[point, tau, as_json],
                       help="quality report for one worker")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("atlas", parents=[config, tau],
                       help="quality map on an ability grid, as CSV")
    p.add_argument("--alpha", required=True, help="range start:end:count")
    p.add_argument("--beta", required=True, help="range start:end:count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("boundary", parents=[config, tau],
                       help="one separatrix as (beta, alpha) CSV")
    p.add_argument("--which", required=True, choices=BOUNDARIES)
    p.add_argument("--beta-range", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("oracle", parents=[point, as_json], help="brute-force grid maximizer")
    p.add_argument("--d-steps", type=int, default=11)
    p.add_argument("--s-steps", type=int, default=4001)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("intervene", help="worker upskilling and institutional levers")
    isub = p.add_subparsers(dest="mode", required=True)

    p = isub.add_parser("worker", parents=[point, tau, as_json],
                        help="minimum-cost upskilling to reach tau")
    p.add_argument("--h1", default="linear:1", help="alpha cost: linear:C, power:C:RHO, off")
    p.add_argument("--h2", default="linear:1", help="beta cost: linear:C, power:C:RHO, off")
    p.set_defaults(func=cmd_intervene_worker, module="interventions")

    p = isub.add_parser("institution", parents=[config], help="AI upgrade or benefit transfer")
    p.add_argument("--lever", required=True, choices=["p_a", "b_transfer"])
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--alpha-range", default=None)
    p.add_argument("--beta-range", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_intervene_institution, module="interventions")

    p = isub.add_parser("minimal", parents=[point, tau], help="smallest single lever reaching tau")
    p.add_argument("--lever", required=True, choices=["alpha", "beta", "p_a"])
    p.set_defaults(func=cmd_intervene_minimal, module="interventions")

    extend = argparse.ArgumentParser(add_help=False, parents=[config])
    extend.add_argument("--alpha-range", required=True)
    extend.add_argument("--beta-range", required=True)
    extend.add_argument("--out", default=None)
    p = sub.add_parser("extend", help="difficulty, belief, and rework extensions")
    esub = p.add_subparsers(dest="kind", required=True)

    p = esub.add_parser("difficulty", parents=[extend], help="quality over task difficulty")
    p.add_argument("--hhat", type=float, default=None, help="pin the difficulty level")
    p.add_argument("--nodes", type=int, default=64)
    p.set_defaults(func=cmd_extend_difficulty, module="extensions")

    p = esub.add_parser("belief", parents=[extend], help="the worker plans with a believed p_a")
    p.add_argument("--p-hat", type=float, required=True, help="believed AI success probability")
    p.set_defaults(func=cmd_extend_field, field="believed_p_a", option="p_hat")

    p = esub.add_parser("rework", parents=[extend], help="a detected AI error costs kappa * C_w")
    p.add_argument("--kappa", type=float, required=True, help="re-execution discount")
    p.set_defaults(func=cmd_extend_field, field="kappa", option="kappa")

    p = sub.add_parser("calibrate", parents=[as_json],
                       help="invert a case log into model parameters")
    p.add_argument("--cases", required=True)
    p.add_argument("--tvmax", type=float, required=True)
    p.add_argument("--twmax", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--b-i", type=float, default=None)
    p.add_argument("--l-i", type=float, default=None)
    p.add_argument("--xi", type=float, default=0.5)
    p.set_defaults(func=cmd_calibrate, module="calibration")

    p = sub.add_parser("selfcheck", parents=[config], help="thresholds, assumptions, oracle spot checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes only -N and -N.N for values; -1e6, -1:1:3 and the like join their option
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-[0-9.]", argv[i]) and re.fullmatch(r"--[^=]+", argv[i - 1]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
        if "module" in args:
            _load(args.module)
        if "config" in args:  # calibrate's --tau is the institution's, with no --config
            params = load_params(args.config)
            args.params = params if getattr(args, "tau", None) is None else replace(params, tau=args.tau)
        return args.func(args)
    # ConfigError and CalibrationError among them; MemoryError: a grid too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
