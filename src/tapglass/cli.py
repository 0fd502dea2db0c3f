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
from pathlib import Path

from tapglass import experiments as exp_mod
from tapglass import gibbs as gibbs_mod
from tapglass import tap as tap_mod
from tapglass.ensemble import load_instance, save_instance
from tapglass.fixed_point import field_from_spec, solve_fixed_point
from tapglass.spectral import law_from_spec


def _parse_json_or_path(text: str) -> dict:
    candidate = Path(text)
    if candidate.exists():
        with open(candidate, "r", encoding="utf-8") as fh:
            return json.load(fh)
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
    parser.add_argument("--field-mode", default="quantile", choices=["quantile", "iid"])


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


def _cell(args) -> exp_mod.Cell:
    """The grid cell of --n, --beta and --seed, or of the instance in the
    --load-instance file; --save-instance writes the instance to a file."""
    options = vars(args)
    inst = load_instance(args.load_instance) if options.get("load_instance") else None
    n, beta = (args.n, args.beta) if inst is None else (inst.n, inst.beta)
    cell = exp_mod.Cell(args.law, args.field, args.field_mode, n, beta, args.seed)
    if inst is not None:
        cell.instance = inst
    elif options.get("save_instance"):
        save_instance(cell.instance, args.save_instance)
    return cell


def _cmd_amp_run(args) -> int:
    cell = _cell(args)
    traj = cell.amp(args.t_max)
    lines = ["t,y_diff_sq,m_norm_sq_over_n,tap_residual"]
    for t in range(args.t_max):
        residual = tap_mod.tap_residual(cell.instance, cell.fp, traj.M[:, t])
        lines.append(
            f"{t + 1},{float(traj.y_diff_sq[t])!r},{float(traj.m_norm_sq[t])!r},{residual!r}"
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_gibbs_exact(args) -> int:
    cell = _cell(args)
    inst, fp, res = cell.instance, cell.fp, cell.exact
    payload = {
        "n": inst.n,
        "beta": inst.beta,
        # a saved instance holds only its stream seed, not the --seed it came from
        "seed": None if args.load_instance else args.seed,
        "log_z_per_site": res.log_z / inst.n,
        "psi_rs": fp.psi_rs,
        "free_energy_gap": res.log_z / inst.n - fp.psi_rs,
        "magnetization": res.magnetization.tolist(),
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_gibbs_mcmc(args) -> int:
    cell = _cell(args)
    reps = cell.chains(args.chains, args.sweeps, args.burn_in, args.thin)
    est = gibbs_mod.estimate_magnetization(reps)
    lines = ["site,magnetization,standard_error"]
    for i in range(cell.n):
        lines.append(f"{i},{float(est.mean[i])!r},{float(est.se[i])!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tap_residual(args) -> int:
    cell = _cell(args)
    fp, inst = cell.fp, cell.instance
    if args.source == "amp":
        m = cell.amp(args.t_max).final.m
    elif args.source == "exact":
        m = cell.exact.magnetization
    else:
        m = tap_mod.solve_tap_damped(inst, fp).m
    payload = {
        "residual": tap_mod.tap_residual(inst, fp, m),
        "t": args.t_max,
        "beta": args.beta,
        "n": args.n,
        "seed": args.seed,
        "source": args.source,
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = exp_mod.load_config(args.config)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, threads=args.threads)
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
    p_amp.add_argument("--t-max", type=int, default=8)
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
    p_gm.add_argument("--sweeps", type=int, default=200)
    p_gm.add_argument("--burn-in", type=int, default=50)
    p_gm.add_argument("--thin", type=int, default=2)
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
    p_exp.add_argument("--threads", type=int)
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
