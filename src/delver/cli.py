"""Command-line interface: solve, sweep, intervene, extend, calibrate, check.

Exit codes: 0 on success, 1 on domain or configuration errors (one-line
diagnostic on stderr), 2 on usage errors. Output is deterministic for
identical inputs; floats are printed at 9 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import calibration as cal
from .atlas import (
    BOUNDARIES, atlas_columns, boundary_curve, evaluate_point, fmt, grid_columns,
    solve_points, sweep_grid, write_atlas_csv, write_boundary_csv, write_csv,
)
from .config import ConfigError, load_params, params_to_dict, parse_range
from .extensions import DifficultyProfile, Rework, expected_quality, rework_quality
from .interventions import (
    LEVER_MOVES, CostModel, CostTerm, ai_upgrade_gain, incentive_transfer_gain, minimal_lever,
    worker_upskill,
)
from .model import Ability, check_assumptions, worker_utility, Action
from .sampling import sample_ability
from .solver import brute_force_action, manual_delegation_threshold, qualification_threshold


def _jsonable(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def _text(value):
    if isinstance(value, bool):
        return str(int(value))
    return fmt(value) if isinstance(value, float) else str(value)


def _emit(args, payload, json_only=()):
    """Print payload as one sorted JSON line under --json, else as `key value` lines.

    Floats are rounded to 9 significant digits either way; keys in json_only
    are left out of the text form.
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


def _tau_params(args):
    """The --config file's parameters, with tau set to --tau when it is given."""
    params = load_params(args.config)
    return params if args.tau is None else replace(params, tau=args.tau)


def _grid(args):
    """The --alpha-range x --beta-range grid as grid_columns' alpha and beta columns."""
    return grid_columns(parse_range(args.alpha_range), parse_range(args.beta_range))


def _solve_payload(params, ability):
    act, rep = evaluate_point(params, ability)
    u_w = worker_utility(params, ability, Action(float(act.d_star), act.s_star))
    return act, rep, u_w


def cmd_solve(args):
    params = load_params(args.config)
    ability = _ability(args)
    act, rep, u_w = _solve_payload(params, ability)
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
    params = _tau_params(args)
    act, rep = evaluate_point(params, _ability(args))
    _emit(args, {"q": rep.q, "q0": rep.q0, "gap": rep.gap, "quality": rep.quality_label.value,
                 "compliance": rep.compliance_label.value, "regime": act.regime.value,
                 "tau": params.tau})
    return 0


def cmd_atlas(args):
    grid = sweep_grid(_tau_params(args), parse_range(args.alpha), parse_range(args.beta))
    return _write_out(args.out, len(grid), lambda fh: write_atlas_csv(grid, fh))


def cmd_boundary(args):
    betas = np.linspace(*parse_range(args.beta_range))
    points = boundary_curve(_tau_params(args), args.which, betas)
    return _write_out(args.out, len(points), lambda fh: write_boundary_csv(points, fh))


def cmd_oracle(args):
    params = load_params(args.config)
    action, u = brute_force_action(params, _ability(args), args.d_steps, args.s_steps)
    _emit(args, {"d": action.d, "s": action.s, "u_w": u})
    return 0


def _parse_cost_term(text):
    if text == "off":
        return None
    parts = text.split(":")
    kind = parts[0]
    if kind == "linear" and len(parts) == 2:
        return CostTerm("linear", float(parts[1]))
    if kind == "power" and len(parts) == 3:
        return CostTerm("power", float(parts[1]), float(parts[2]))
    raise ConfigError(f"cost term must be linear:C, power:C:RHO, or off; got {text!r}")


def cmd_intervene_worker(args):
    params = _tau_params(args)
    model = CostModel(h_alpha=_parse_cost_term(args.h1), h_beta=_parse_cost_term(args.h2))
    plan = worker_upskill(params, _ability(args), model)
    _emit(args, _pick(plan, ("d_alpha", "d_beta", "cost", "achieved_q", "feasible")))
    return 0


def cmd_intervene_institution(args):
    params = load_params(args.config)
    lever = ai_upgrade_gain if args.lever == "p_a" else incentive_transfer_gain
    given = [x is not None for x in (args.alpha, args.beta, args.alpha_range, args.beta_range)]
    if given == [False, False, True, True]:
        return _lever_grid(args, params, lever)
    if given != [True, True, False, False]:
        raise ConfigError("need --alpha and --beta, or --alpha-range and --beta-range"
                          + (", not both" if any(given[:2]) and any(given[2:]) else ""))
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
    target = minimal_lever(_tau_params(args), _ability(args), args.lever)
    _emit(args, _pick(target, ("lever", "value", "feasible")))
    return 0


def cmd_extend(args):
    """The extension's grid as CSV; every row is computed before --out is opened."""
    params = load_params(args.config)
    if args.kind == "difficulty":
        profile = DifficultyProfile(difficulty=args.hhat, nodes=args.nodes)
        alpha, beta = _grid(args)
        reports = [expected_quality(params, Ability(a, b), profile)
                   for a, b in zip(alpha.tolist(), beta.tolist())]
        values = zip(*((r.q, r.q0, r.gap, r.quality_label.value, r.compliance_label.value)
                       for r in reports))
        n = len(reports)
        return _write_columns(args.out, [
            ("alpha", alpha), ("beta", beta),
            ("difficulty", np.full(n, "" if args.hhat is None else args.hhat)),
            ("nodes", np.full(n, args.nodes)),
            *zip(("q", "q0", "gap", "quality", "compliance"), map(np.array, values))])

    if args.kind == "belief":
        if args.p_hat is None:
            raise ConfigError("extend belief needs --p-hat")
        # replace checks the belief before _grid reads the ranges, so a bad --p-hat fails first
        grid = solve_points(replace(params, believed_p_a=args.p_hat), *_grid(args))
        name, value = "p_hat", args.p_hat
    else:
        if args.kappa is None:
            raise ConfigError("extend rework needs --kappa")
        rework = Rework(args.kappa)
        alpha, beta = _grid(args)
        # the scalar call raises the per-point path's error at the first row;
        # solve_points raises a later row's with the scalar message
        rework_quality(params, Ability(alpha[0].item(), beta[0].item()), rework)
        grid = solve_points(replace(params, kappa=rework.kappa), alpha, beta)
        name, value = "kappa", rework.kappa
    columns = atlas_columns(grid)
    columns.insert(2, (name, np.full(len(grid), value)))
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
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    params = load_params(args.config)
    t = manual_delegation_threshold(params)
    t_tau = qualification_threshold(params)
    report = check_assumptions(params, [Ability(a, b) for a in (0.2, 0.8) for b in (0.25, 0.75)])
    _emit(args, {"t": fmt(t.value) + ("" if t.bracketed else " (boundary)"),
                 "t_tau": fmt(t_tau.value) + ("" if t_tau.bracketed else " (boundary)"),
                 "dominance": params.dominance_holds(), "assumptions_ok": report.all_ok})
    for issue in report.violations:
        print(f"violation {issue}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    for _ in range(args.samples):
        ability = sample_ability(rng, params)
        act, _, u_w = _solve_payload(params, ability)
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
    p.set_defaults(func=cmd_intervene_worker)

    p = isub.add_parser("institution", parents=[config], help="AI upgrade or benefit transfer")
    p.add_argument("--lever", required=True, choices=["p_a", "b_transfer"])
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--alpha-range", default=None)
    p.add_argument("--beta-range", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_intervene_institution)

    p = isub.add_parser("minimal", parents=[point, tau], help="smallest single lever reaching tau")
    p.add_argument("--lever", required=True, choices=["alpha", "beta", "p_a"])
    p.set_defaults(func=cmd_intervene_minimal)

    p = sub.add_parser("extend", parents=[config], help="difficulty, belief, and rework extensions")
    p.add_argument("kind", choices=["difficulty", "belief", "rework"])
    p.add_argument("--alpha-range", required=True)
    p.add_argument("--beta-range", required=True)
    p.add_argument("--hhat", type=float, default=None, help="pin the difficulty level")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--p-hat", type=float, default=None, help="believed AI success probability")
    p.add_argument("--kappa", type=float, default=None, help="re-execution discount")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("calibrate", parents=[as_json],
                       help="invert a case log into model parameters")
    p.add_argument("--cases", required=True)
    p.add_argument("--tvmax", type=float, required=True)
    p.add_argument("--twmax", type=float, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--b-i", type=float, default=None)
    p.add_argument("--l-i", type=float, default=None)
    p.add_argument("--xi", type=float, default=0.5)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("selfcheck", parents=[config], help="thresholds, assumptions, oracle spot checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError and CalibrationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
