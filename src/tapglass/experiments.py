"""Config-driven experiment grids with deterministic seed streams and outputs.

A config names one experiment kind and the (n, beta, seed) grid to run it
over; the runner executes every cell, isolates per-cell failures into error
rows, and emits rows sorted by coordinates, so the CSV bytes are identical
across runs (wall-time column aside).

Seed discipline: every random object in a cell draws from a stream keyed by
the cell's coordinates, SeedSequence([master_seed, n, round(beta * 1e9),
stream_tag]).  Keying by coordinates rather than grid position means adding
a value to the grid never shifts the streams of existing cells.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from tapglass import amp as amp_mod
from tapglass import gibbs as gibbs_mod
from tapglass import tap as tap_mod
from tapglass.ensemble import build_instance
from tapglass.fixed_point import (
    FieldLaw,
    field_from_spec,
    solve_fixed_point,
    theoretical_delta,
)
from tapglass.spectral import SpectralLaw, law_from_spec

SCHEMA_VERSION = 1

KIND_FIXED_POINT = "fixed_point"
KIND_AMP = "amp"
KIND_GIBBS_EXACT = "gibbs_exact"
KIND_GIBBS_MCMC = "gibbs_mcmc"
KIND_TAP_VERIFY = "tap_verify"
KIND_BAND = "band"
KIND_SE_CHECK = "se_check"

STREAM_INSTANCE = 1
STREAM_AMP = 2
STREAM_MCMC = 3

BASE_COLUMNS = ("schema_version", "kind", "n", "beta", "seed", "n_replicas")
TAIL_COLUMNS = ("wall_time", "error")


def stream_seed(master_seed: int, n: int, beta: float, tag: int) -> int:
    """Derived integer seed for one named stream of one grid cell."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    ss = np.random.SeedSequence(
        [int(master_seed), int(n), int(round(beta * 1e9)), int(tag)]
    )
    return int(ss.generate_state(1)[0])


class ConfigError(ValueError):
    """The experiment config is malformed."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    kind: str
    n_values: tuple[int, ...]
    beta_values: tuple[float, ...]
    seeds: tuple[int, ...]
    law: SpectralLaw
    law_spec: dict
    field: FieldLaw
    field_mode: str
    t_max: int
    replica_counts: tuple[int, ...]
    sweeps: int
    burn_in: int
    delta: float
    eta: float
    out: str | None

    def echo(self) -> dict:
        """The config as a dict using the same keys the parser accepts, so the
        echoed block in a summary can be rerun as-is."""
        return {
            "kind": self.kind,
            "n": list(self.n_values),
            "beta": list(self.beta_values),
            "seeds": list(self.seeds),
            "law": self.law_spec,
            "field": self.field.to_spec(),
            "field_mode": self.field_mode,
            "t_max": self.t_max,
            "n_replicas": list(self.replica_counts),
            "sweeps": self.sweeps,
            "burn_in": self.burn_in,
            "delta": self.delta,
            "eta": self.eta,
        }


def _typed(value, cast, name):
    """value cast by int or float, if it is an integer or a finite real number,
    never a bool."""
    kind, what = (numbers.Integral, "an integer") if cast is int else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return cast(value)


def _as_tuple(value, cast, name):
    if not isinstance(value, (list, tuple)):
        value = [value]
    if len(value) == 0:
        raise ConfigError(f"{name} must be nonempty")
    return tuple(_typed(v, cast, name) for v in value)


# the scalar keys, named as the config fields; each takes its default's type
_SCALAR_DEFAULTS = {"t_max": 8, "sweeps": 200, "burn_in": 50, "delta": 0.2, "eta": 0.8}

_CONFIG_KEYS = frozenset((
    "kind", "n", "beta", "seeds", "law", "field", "field_mode", "t_max", "n_replicas",
    "sweeps", "burn_in", "delta", "eta", "out",
))


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(str(key) for key in obj if key not in _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kind = obj.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"kind must be one of {', '.join(EXPERIMENT_KINDS)}; got {kind!r}"
        )
    for required in ("n", "beta", "seeds"):
        if required not in obj:
            raise ConfigError(f"config is missing the {required!r} list")
    law_spec = obj.get("law", {"kind": "semicircle"})
    out = obj.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a string or null, got {out!r}")
    try:
        law = law_from_spec(law_spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad spectral law: {exc}") from exc
    try:
        field = field_from_spec(obj.get("field", {"kind": "constant", "value": 1.0}))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad field law: {exc}") from exc
    field_mode = obj.get("field_mode", "quantile")
    if field_mode not in ("quantile", "iid"):
        raise ConfigError(f"field_mode must be quantile or iid, got {field_mode!r}")

    cfg = ExperimentConfig(
        kind=kind,
        n_values=_as_tuple(obj["n"], int, "n"),
        beta_values=_as_tuple(obj["beta"], float, "beta"),
        seeds=_as_tuple(obj["seeds"], int, "seeds"),
        law=law,
        law_spec=law_spec,
        field=field,
        field_mode=field_mode,
        replica_counts=_as_tuple(obj.get("n_replicas", 8), int, "n_replicas"),
        out=out,
        **{key: _typed(obj.get(key, default), type(default), key)
           for key, default in _SCALAR_DEFAULTS.items()},
    )
    if cfg.t_max < 1:
        raise ConfigError("t_max must be >= 1")
    if any(n < 1 for n in cfg.n_values):
        raise ConfigError("all n must be >= 1")
    if any(b < 0 for b in cfg.beta_values):
        raise ConfigError("all beta must be >= 0")
    if any(s < 0 for s in cfg.seeds):
        raise ConfigError("all seeds must be >= 0")
    if any(r < 1 for r in cfg.replica_counts):
        raise ConfigError("all n_replicas must be >= 1")
    if cfg.sweeps < 1 or cfg.burn_in < 0:
        raise ConfigError("need sweeps >= 1 and burn_in >= 0")
    if not (cfg.delta > 0 and cfg.eta > 0):
        raise ConfigError("delta and eta must be > 0")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(obj)


@dataclass(frozen=True, eq=False)
class ResultRow:
    schema_version: int
    kind: str
    n: int
    beta: float
    seed: int
    n_replicas: int
    metrics: dict
    wall_time: float
    error: str = ""


@dataclass(eq=False)
class Cell:
    """Grid cell (n, beta, seed): the one place its random objects are drawn.

    Each object draws from the stream keyed by the cell's coordinates.  The
    fixed point, instance and enumeration are computed on first use and then
    shared by every caller of the cell; a failure is not kept, so a later
    caller retries and fails the same way.
    """

    law: SpectralLaw
    field: FieldLaw
    field_mode: str
    n: int
    beta: float
    seed: int

    def stream(self, tag: int) -> int:
        return stream_seed(self.seed, self.n, self.beta, tag)

    @functools.cached_property
    def fp(self):
        return solve_fixed_point(self.beta, self.law, self.field)

    @functools.cached_property
    def instance(self):
        if self.beta == 0.0:
            raise ValueError("instances need beta > 0; the beta = 0 limit is analytic")
        return build_instance(
            self.n, self.beta, self.law, self.field,
            seed=self.stream(STREAM_INSTANCE), field_mode=self.field_mode,
        )

    @functools.cached_property
    def exact(self):
        return gibbs_mod.exact_gibbs(self.instance)

    def amp(self, t_max: int):
        fp = self.fp  # before the instance, so a fixed-point failure is the one reported
        return amp_mod.run_amp(self.instance, fp, t_max, self.stream(STREAM_AMP))

    def chains(self, n_chains: int, sweeps: int, burn_in: int):
        return gibbs_mod.glauber_sample(
            self.instance, sweeps=sweeps, burn_in=burn_in, n_chains=n_chains,
            seed=self.stream(STREAM_MCMC),
        )


def _cell_fixed_point(cfg, cell, n_rep):
    out = dataclasses.asdict(cell.fp)
    out["converged"] = int(out["converged"])
    del out["beta"]
    return out


def _cell_amp(cfg, cell, n_rep):
    traj = cell.amp(cfg.t_max)
    return {
        "q_star": cell.fp.q_star,
        "y_diff_sq": float(traj.y_diff_sq[-1]),
        "m_norm_sq_over_n": float(traj.m_norm_sq[-1]),
        "m_norm_gap": float(abs(traj.m_norm_sq[-1] - cell.fp.q_star)),
        "tap_residual": tap_mod.tap_residual(cell.instance, cell.fp, traj.final.m),
    }


def _cell_gibbs_exact(cfg, cell, n_rep):
    fp = cell.fp
    per_site = cell.exact.log_z / cell.n
    return {
        "log_z_per_site": per_site,
        "psi_rs": fp.psi_rs,
        "free_energy_gap": per_site - fp.psi_rs,
    }


def _cell_gibbs_mcmc(cfg, cell, n_rep):
    reps = cell.chains(n_rep, cfg.sweeps, cfg.burn_in)
    out = {
        "mean_abs_mag": float(np.abs(reps.samples.mean(axis=0)).mean()),
        "marginal_max_abs_err": np.nan,
        "replica_distance": np.nan,
    }
    if cell.n <= gibbs_mod.MAX_ENUMERATION_N:
        exact = cell.exact.magnetization
        time_avg = gibbs_mod.estimate_magnetization(
            reps, exact_magnetization=exact, use_time_average=True
        )
        final = gibbs_mod.estimate_magnetization(reps, exact_magnetization=exact)
        out["marginal_max_abs_err"] = float(np.abs(time_avg.mean - exact).max())
        out["replica_distance"] = final.distance
    return out


def _cell_tap_verify(cfg, cell, n_rep):
    fp = cell.fp
    mag = cell.exact.magnetization
    traj = cell.amp(cfg.t_max)
    inst = cell.instance
    d = tap_mod.magnetization_vs_amp(mag, traj)
    sol = tap_mod.solve_tap_damped(inst, fp)
    return {
        "d_first": float(d[0]),
        "d_final": float(d[-1]),
        "tap_residual_gibbs": tap_mod.tap_residual(inst, fp, mag),
        "tap_residual_amp": tap_mod.tap_residual(inst, fp, traj.final.m),
        "solver_residual": sol.residual,
        "solver_converged": int(sol.converged),
        "solver_iterations": sol.iterations,
        "solver_amp_rms_gap": float(
            np.sqrt(np.sum((sol.m - traj.final.m) ** 2) / cell.n)
        ),
    }


def _cell_band(cfg, cell, n_rep):
    traj = cell.amp(max(cfg.t_max, 50))
    inst, n = cell.instance, cell.n
    band = gibbs_mod.BandSpec(traj.final.m, cfg.delta, cfg.eta)
    exact = gibbs_mod.exact_gibbs(inst, band)
    log_z, log_zb, log_zc = exact.log_z, exact.log_z_band, exact.log_z_pairs
    reps = cell.chains(n_rep, cfg.sweeps, cfg.burn_in)
    geometry = gibbs_mod.replica_geometry_report(reps, band)
    if log_zc is None:
        log_zc = gibbs_mod.sampled_logZ_nonorth_pairs(geometry, log_zb).value
    return {
        "log_z_per_site": log_z / n,
        "log_zb_per_site": log_zb / n,
        "band_gap_per_site": (log_z - log_zb) / n,
        "zc_margin_per_site": log_zc / n - 2.0 * log_zb / n,
        "band_fraction": geometry.band_fraction,
        "pair_violation_fraction": geometry.pair_violation_fraction,
        "in_b_n": int(geometry.in_b_n),
        "replica_distance": geometry.distance,
    }


def _cell_se_check(cfg, cell, n_rep):
    traj = cell.amp(cfg.t_max)
    delta = theoretical_delta(cell.fp, cfg.field, cfg.t_max)
    report = amp_mod.empirical_vs_theoretical_se(traj, delta)
    return {
        "max_dev_xx": report.max_dev_xx,
        "max_dev_yy": report.max_dev_yy,
        "max_dev_xy": report.max_dev_xy,
        "m_norm_gap": float(abs(traj.m_norm_sq[-1] - cell.fp.q_star)),
    }


_CELL_FUNCTIONS = {
    KIND_FIXED_POINT: _cell_fixed_point,
    KIND_AMP: _cell_amp,
    KIND_GIBBS_EXACT: _cell_gibbs_exact,
    KIND_GIBBS_MCMC: _cell_gibbs_mcmc,
    KIND_TAP_VERIFY: _cell_tap_verify,
    KIND_BAND: _cell_band,
    KIND_SE_CHECK: _cell_se_check,
}
EXPERIMENT_KINDS = tuple(_CELL_FUNCTIONS)


def _run_cell(cfg: ExperimentConfig, coords) -> list[ResultRow]:
    """The rows of grid point (n, beta, seed), one per replica count, each
    with its failure caught.  The rows share one Cell, so the first row to
    draw an object carries its cost in its wall time."""
    n, beta, seed = coords
    cell = Cell(cfg.law, cfg.field, cfg.field_mode, n, beta, seed)
    rows = []
    for n_rep in cfg.replica_counts:
        start = time.perf_counter()
        try:
            metrics, error = _CELL_FUNCTIONS[cfg.kind](cfg, cell, n_rep), ""
        except Exception as exc:  # noqa: BLE001  (cell isolation is the contract)
            metrics, error = {}, f"{type(exc).__name__}: {exc}"
        rows.append(ResultRow(
            schema_version=SCHEMA_VERSION, kind=cfg.kind, n=n, beta=beta, seed=seed,
            n_replicas=n_rep, metrics=metrics, wall_time=time.perf_counter() - start,
            error=error,
        ))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every grid cell, isolating failures, and return rows in sorted order."""
    cells = itertools.product(cfg.n_values, cfg.beta_values, cfg.seeds)
    rows = [row for coords in cells for row in _run_cell(cfg, coords)]
    rows.sort(key=lambda r: (r.n, r.beta, r.seed, r.n_replicas))
    return rows


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def _metric_columns(rows: list[ResultRow]) -> list[str]:
    keys = set()
    for row in rows:
        keys.update(row.metrics)
    return sorted(keys)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr, stable under numpy scalars
    return str(value)


def emit_csv(rows: list[ResultRow], fh) -> None:
    """Write rows as CSV.  The header is always present; metric columns are
    the sorted union across rows, blank where a row lacks a metric."""
    metric_cols = _metric_columns(rows)
    header = list(BASE_COLUMNS) + metric_cols + list(TAIL_COLUMNS)
    fh.write(",".join(header) + "\n")
    for row in rows:
        cells = [
            str(row.schema_version), row.kind, str(row.n), repr(float(row.beta)),
            str(row.seed), str(row.n_replicas),
        ]
        for key in metric_cols:
            value = row.metrics.get(key)
            cells.append("" if value is None else _format_value(value))
        cells.append(repr(float(row.wall_time)))
        cells.append(row.error.replace(",", ";").replace("\n", " "))
        fh.write(",".join(cells) + "\n")


def csv_text(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


def _stable_text(rows: list[ResultRow]) -> str:
    """CSV text with the wall-time column blanked, for hashing and byte checks."""
    lines = csv_text(rows).splitlines()
    out = []
    for i, line in enumerate(lines):
        parts = line.split(",")
        if i > 0 and len(parts) >= 2:
            parts[-2] = ""
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


def content_hash(rows: list[ResultRow]) -> str:
    return hashlib.sha256(_stable_text(rows).encode()).hexdigest()


def emit_json_summary(rows: list[ResultRow], cfg: ExperimentConfig) -> dict:
    """Config echo, a content hash of the stable CSV text, and per-(n, beta)
    mean/sd aggregates of every metric over seeds (and replica counts)."""
    aggregates = {}
    for row in rows:
        if row.error:
            continue
        key = f"n={row.n},beta={row.beta}"
        bucket = aggregates.setdefault(key, {})
        for name, value in row.metrics.items():
            if isinstance(value, (int, float)) and np.isfinite(value):
                bucket.setdefault(name, []).append(float(value))
    summary_aggregates = {
        key: {
            name: {
                "mean": float(np.mean(vals)),
                "sd": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                "count": len(vals),
            }
            for name, vals in sorted(bucket.items())
        }
        for key, bucket in sorted(aggregates.items())
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.echo(),
        "rows": len(rows),
        "errors": sum(1 for r in rows if r.error),
        "content_hash": content_hash(rows),
        "aggregates": summary_aggregates,
    }


def default_config(kind: str) -> ExperimentConfig:
    """A small runnable config for each kind, used by tests and as a template."""
    return config_from_dict({"kind": kind, "n": [12], "beta": [0.15], "seeds": [1, 2]})
