"""Command-line front end.

Subcommands mirror the library layers: fixed-point constants, message-passing
runs, exact and MCMC Gibbs baselines, consistency residuals, and config-driven
experiment grids.  Laws and fields are given inline as JSON, as a path to a
JSON file, or by the shorthand names "semicircle" / "two_point".

Exit codes: 0 on success, 2 for configuration or usage errors, 1 for runtime
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from tapglass import experiments as exp_mod
from tapglass import gibbs as gibbs_mod
from tapglass import tap as tap_mod
from tapglass.ensemble import load_instance, save_instance
from tapglass.fixed_point import field_from_spec, solve_fixed_point
from tapglass.spectral import law_from_spec


def _parse_json_or_path(text: str) -> dict:
    """The JSON in the file named text, or else text itself as JSON.  Inline
    JSON can be longer than a file name may be, so a name the system cannot
    open is read as JSON too."""
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:
        return json.loads(text)


def parse_law_argument(text: str):
    if text in ("semicircle", "two_point"):
        return law_from_spec({"kind": text})
    return law_from_spec(_parse_json_or_path(text))


def parse_field_argument(text: str):
    return field_from_spec(_parse_json_or_path(text))


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--law", default="semicircle",
                        help="spectral law: semicircle, two_point, JSON, or a JSON file")
    parser.add_argument("--field", default='{"kind": "constant", "value": 1.0}',
                        help="field law as JSON or a JSON file")


def _add_instance_file_arguments(parser: argparse.ArgumentParser) -> None:
    files = parser.add_mutually_exclusive_group()
    files.add_argument("--save-instance")
    files.add_argument("--load-instance")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fixed_point(args) -> int:
    fp = solve_fixed_point(args.beta, args.law, args.field)
    _write_or_print(json.dumps(dataclasses.asdict(fp), indent=2) + "\n", args.out)
    return 0


def _cell(args, kind: str, **settings) -> exp_mod.Cell:
    """The cell of --n, --beta and --seed, or of the instance in the
    --load-instance file, in a one-cell config of this kind and settings,
    which checks the flags as it checks a config file's keys before any
    instance is drawn; --save-instance writes the instance to a file.

    A saved instance holds no laws, so its spectrum is checked against the
    quantile grid of --law and its field against that of --field."""
    options = vars(args)
    inst = load_instance(args.load_instance) if options.get("load_instance") else None
    n, beta = (args.n, args.beta) if inst is None else (inst.n, inst.beta)
    cfg = exp_mod.ExperimentConfig(kind, (n,), (beta,), (args.seed,), args.law, args.field,
                                   **settings)
    cell = exp_mod.Cell(cfg, n, beta, args.seed)
    if inst is not None:
        for flag, saved, given in [("--law", inst.d_bar, beta * args.law.quantiles(n)),
                                   ("--field", inst.h, args.field.quantiles(n))]:
            if np.abs(saved - given).max() > 1e-12:
                raise ValueError(f"{flag} does not match the instance in {args.load_instance}")
        cell.instance = inst
    elif options.get("save_instance"):
        save_instance(cell.instance, args.save_instance)
    return cell


def _cmd_amp_run(args) -> int:
    cell = _cell(args, exp_mod.KIND_AMP, t_max=args.t_max)
    traj = cell.amp
    lines = ["t,y_diff_sq,m_norm_sq_over_n,tap_residual"]
    for t in range(args.t_max):
        residual = tap_mod.tap_residual(cell.instance, cell.fp, traj.M[:, t])
        lines.append(
            f"{t + 1},{float(traj.y_diff_sq[t])!r},{float(traj.m_norm_sq[t])!r},{residual!r}"
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gibbs_exact(args) -> int:
    cell = _cell(args, exp_mod.KIND_GIBBS_EXACT)
    payload = {
        "n": cell.n,
        "beta": cell.beta,
        # a saved instance holds only its stream seed, not the --seed it came from
        "seed": None if args.load_instance else args.seed,
        **exp_mod._cell_gibbs_exact(cell, None),  # the row ignores the replica count
        "magnetization": cell.exact.magnetization.tolist(),
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_gibbs_mcmc(args) -> int:
    cell = _cell(args, exp_mod.KIND_GIBBS_MCMC, n_replicas=(args.chains,),
                 sweeps=args.sweeps, burn_in=args.burn_in)
    reps = cell.chains(args.chains)
    mean, se = reps.marginals()
    lines = ["site,magnetization,standard_error"]
    for i in range(cell.n):
        lines.append(f"{i},{float(mean[i])!r},{float(se[i])!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tap_residual(args) -> int:
    # the exact source enumerates, so its config is tap_verify's, capped at n = 24
    kind = exp_mod.KIND_TAP_VERIFY if args.source == "exact" else exp_mod.KIND_AMP
    cell = _cell(args, kind, t_max=args.t_max)
    fp, inst = cell.fp, cell.instance
    solver = {}
    if args.source == "amp":
        residual = tap_mod.tap_residual(inst, fp, cell.amp.final.m)
    elif args.source == "exact":
        residual = tap_mod.tap_residual(inst, fp, cell.exact.magnetization)
    else:
        sol = cell.tap_solution
        residual = sol.residual
        solver = {"solver_converged": int(sol.converged), "solver_iterations": sol.iterations}
    payload = {
        "residual": residual,
        "t": args.t_max if args.source == "amp" else None,  # only AMP iterates
        "beta": args.beta,
        "n": args.n,
        "seed": args.seed,
        "source": args.source,
        **solver,
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = exp_mod.load_config(args.config)
    rows = exp_mod.run_experiment(cfg)
    out = args.out if args.out is not None else cfg.out
    csv_body = exp_mod.csv_text(rows)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(csv_body)
        summary = exp_mod.emit_json_summary(rows, cfg)
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        sys.stdout.write(csv_body)
    if rows and all(r.error for r in rows):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapglass",
        description="Mean-field spin models with orthogonally invariant couplings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fp = sub.add_parser("fixed-point", help="solve the overlap fixed point")
    p_fp.add_argument("--beta", type=float, required=True)
    _add_model_arguments(p_fp)
    p_fp.add_argument("--out")
    p_fp.set_defaults(fn=_cmd_fixed_point)

    p_amp = sub.add_parser("amp-run", help="run message passing on one instance")
    p_amp.add_argument("--n", type=int, required=True)
    p_amp.add_argument("--beta", type=float, required=True)
    p_amp.add_argument("--seed", type=int, default=0)
    p_amp.add_argument("--t-max", type=int, default=exp_mod.ExperimentConfig.t_max)
    _add_model_arguments(p_amp)
    p_amp.add_argument("--out")
    p_amp.set_defaults(fn=_cmd_amp_run)

    p_ge = sub.add_parser("gibbs-exact", help="exact enumeration summary")
    p_ge.add_argument("--n", type=int, default=12)
    p_ge.add_argument("--beta", type=float, default=0.15)
    p_ge.add_argument("--seed", type=int, default=0)
    _add_model_arguments(p_ge)
    _add_instance_file_arguments(p_ge)
    p_ge.add_argument("--out")
    p_ge.set_defaults(fn=_cmd_gibbs_exact)

    p_gm = sub.add_parser("gibbs-mcmc", help="Glauber replica estimates")
    p_gm.add_argument("--n", type=int, default=32)
    p_gm.add_argument("--beta", type=float, default=0.15)
    p_gm.add_argument("--seed", type=int, default=0)
    p_gm.add_argument("--chains", type=int, default=64)
    p_gm.add_argument("--sweeps", type=int, default=exp_mod.ExperimentConfig.sweeps)
    p_gm.add_argument("--burn-in", type=int, default=exp_mod.ExperimentConfig.burn_in)
    _add_model_arguments(p_gm)
    _add_instance_file_arguments(p_gm)
    p_gm.add_argument("--out")
    p_gm.set_defaults(fn=_cmd_gibbs_mcmc)

    p_tap = sub.add_parser("tap-residual", help="consistency residual of a profile")
    p_tap.add_argument("--n", type=int, required=True)
    p_tap.add_argument("--beta", type=float, required=True)
    p_tap.add_argument("--seed", type=int, default=0)
    p_tap.add_argument("--t-max", type=int, default=50)
    p_tap.add_argument("--source", choices=["amp", "exact", "solver"], default="amp")
    _add_model_arguments(p_tap)
    p_tap.add_argument("--out")
    p_tap.set_defaults(fn=_cmd_tap_residual)

    p_exp = sub.add_parser("experiment", help="run a config-driven grid")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", help="CSV path (overrides the config's out)")
    p_exp.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "law" in vars(args):
            args.law, args.field = parse_law_argument(args.law), parse_field_argument(args.field)
        return args.fn(args)
    except (exp_mod.ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
