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
import typing
from dataclasses import dataclass

import numpy as np

from tapglass import amp as amp_mod
from tapglass import gibbs as gibbs_mod
from tapglass import tap as tap_mod
from tapglass.ensemble import FIELD_MODES, build_instance
from tapglass.fixed_point import (
    FieldLaw,
    constant_field,
    field_from_spec,
    solve_fixed_point,
    theoretical_delta,
)
from tapglass.spectral import SpectralLaw, law_from_spec, semicircle

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


# a band is centred on the AMP output after at least this many steps
BAND_MIN_T_MAX = 50

# the largest n a kind can run: exact enumeration, or Glauber's dense couplings
_MAX_N = {
    KIND_GIBBS_EXACT: gibbs_mod.MAX_ENUMERATION_N,
    KIND_TAP_VERIFY: gibbs_mod.MAX_ENUMERATION_N,
    KIND_BAND: gibbs_mod.MAX_ENUMERATION_N,
    KIND_GIBBS_MCMC: gibbs_mod.MAX_MCMC_DENSE_N,
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A run's settings.  Each field is one config key with the key's default:
    `config_from_dict` accepts exactly these keys and `echo` writes them back."""

    kind: str
    n: tuple[int, ...]
    beta: tuple[float, ...]
    seeds: tuple[int, ...]
    law: SpectralLaw = semicircle()
    field: FieldLaw = constant_field(1.0)
    field_mode: str = FIELD_MODES[0]
    t_max: int = 8
    n_replicas: tuple[int, ...] = (8,)
    sweeps: int = 200
    burn_in: int = 50
    delta: float = 0.2
    eta: float = 0.8
    out: str | None = None

    def __post_init__(self):
        """Reject a value no cell could run with, and raise a band's t_max to
        BAND_MIN_T_MAX, however the config was built."""
        kind = self.kind
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"kind must be one of {', '.join(EXPERIMENT_KINDS)}; got {kind!r}")
        if self.field_mode not in FIELD_MODES:
            raise ConfigError(
                f"field_mode must be {' or '.join(FIELD_MODES)}, got {self.field_mode!r}")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if any(n < 1 for n in self.n):
            raise ConfigError("all n must be >= 1")
        if not all(0 <= b < math.inf for b in self.beta):
            raise ConfigError("all beta must be finite and >= 0")
        if kind != KIND_FIXED_POINT and 0.0 in self.beta:
            raise ConfigError(f"{kind} builds instances, which need beta > 0")
        max_n = _MAX_N.get(kind)
        if max_n is not None and max(self.n) > max_n:
            raise ConfigError(f"{kind} is capped at n = {max_n}, got n = {max(self.n)}")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("all seeds must be >= 0")
        if any(r < 1 for r in self.n_replicas):
            raise ConfigError("all n_replicas must be >= 1")
        if self.sweeps < 1 or self.burn_in < 0:
            raise ConfigError("need sweeps >= 1 and burn_in >= 0")
        if not (0 < self.delta < math.inf and 0 < self.eta < math.inf):
            raise ConfigError("delta and eta must be finite and > 0")
        if kind == KIND_BAND and self.t_max < BAND_MIN_T_MAX:
            object.__setattr__(self, "t_max", BAND_MIN_T_MAX)  # the dataclass is frozen

    def echo(self) -> dict:
        """Every key but out, grids as lists and laws as their specs, so the
        echoed block in a summary reruns as-is."""
        return {f.name: _echoed(getattr(self, f.name))
                for f in dataclasses.fields(self) if f.name != "out"}


def _echoed(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (SpectralLaw, FieldLaw)):
        return value.to_spec()
    return value


_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


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
    out = tuple(_typed(v, cast, name) for v in value)
    if len(set(out)) < len(out):  # a repeated value would run and count one cell twice
        raise ConfigError(f"{name} repeats a value: {list(out)}")
    return out


def _parsed(key: str, value):
    """The value of one config key, checked and cast to its field's type."""
    if key in ("law", "field"):
        parse, what = (law_from_spec, "spectral") if key == "law" else (field_from_spec, "field")
        try:
            return parse(value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad {what} law: {exc}") from exc
    if key == "out" and not (value is None or isinstance(value, str)):
        raise ConfigError(f"out must be a string or null, got {value!r}")
    cast = _KEY_TYPES[key]
    if typing.get_origin(cast) is tuple:
        return _as_tuple(value, typing.get_args(cast)[0], key)
    return _typed(value, cast, key) if cast in (int, float) else value


def config_from_dict(obj: dict) -> ExperimentConfig:
    """The config of a parsed JSON object: its keys checked and each value cast
    to its field's type; `ExperimentConfig` checks the values themselves."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(str(key) for key in obj if key not in _KEY_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is dataclasses.MISSING and f.name not in obj:
            raise ConfigError(f"config is missing the {f.name!r} key")
    return ExperimentConfig(**{key: _parsed(key, value) for key, value in obj.items()})


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
    wall_time: float | None
    error: str = ""


@dataclass(eq=False)
class Cell:
    """Grid point (n, beta, seed) of a run's config: the one place its random
    objects are drawn, each from the stream keyed by the cell's coordinates,
    with the settings in cfg.  The fixed point, instance, enumeration, TAP
    solution, AMP run, state-evolution Delta and band pass are computed on
    first use and shared by every caller of the cell; a failure is not kept,
    so a later caller retries and fails the same way.  The fixed point
    depends on beta, the law and the field only, so cells of one run share
    it through fixed_points, keyed by beta.
    """

    cfg: ExperimentConfig
    n: int
    beta: float
    seed: int
    fixed_points: dict = dataclasses.field(default_factory=dict, repr=False)

    def stream(self, tag: int) -> int:
        return stream_seed(self.seed, self.n, self.beta, tag)

    @property
    def fp(self):
        if self.beta not in self.fixed_points:
            self.fixed_points[self.beta] = solve_fixed_point(
                self.beta, self.cfg.law, self.cfg.field)
        return self.fixed_points[self.beta]

    @functools.cached_property
    def instance(self):
        return build_instance(self.n, self.beta, self.cfg.law, self.cfg.field,
                              self.stream(STREAM_INSTANCE), self.cfg.field_mode)

    @functools.cached_property
    def exact(self):
        return gibbs_mod.exact_gibbs(self.instance)

    @functools.cached_property
    def tap_solution(self):
        return tap_mod.solve_tap_damped(self.instance, self.fp)

    @functools.cached_property
    def amp(self):
        fp = self.fp  # before the instance, so a fixed-point failure is the one reported
        return amp_mod.run_amp(self.instance, fp, self.cfg.t_max, self.stream(STREAM_AMP))

    @functools.cached_property
    def se_delta(self):
        """The state-evolution covariance Delta of the AMP run."""
        return theoretical_delta(self.fp, self.cfg.field, self.cfg.t_max)

    @functools.cached_property
    def band_exact(self):
        """The band (width delta, overlap cut eta) around the AMP output, and its
        exact pass, which above n = 12 draws the replicas that sample Z_c."""
        band = gibbs_mod.BandSpec(self.amp.final.m, self.cfg.delta, self.cfg.eta)
        draws = max(self.cfg.n_replicas) if self.n > gibbs_mod.MAX_PAIR_ENUMERATION_N else 0
        return band, gibbs_mod.exact_gibbs(self.instance, band, draws, self.stream(STREAM_MCMC))

    def chains(self, n_chains: int):
        return gibbs_mod.glauber_sample(
            self.instance, sweeps=self.cfg.sweeps, burn_in=self.cfg.burn_in,
            n_chains=n_chains, seed=self.stream(STREAM_MCMC),
        )


def _cell_fixed_point(cell, n_rep):
    out = dataclasses.asdict(cell.fp)
    out["converged"] = int(out["converged"])
    del out["beta"]
    return out


def _cell_amp(cell, n_rep):
    traj = cell.amp
    return {
        "q_star": cell.fp.q_star,
        "y_diff_sq": float(traj.y_diff_sq[-1]),
        "m_norm_sq_over_n": float(traj.m_norm_sq[-1]),
        "m_norm_gap": float(abs(traj.m_norm_sq[-1] - cell.fp.q_star)),
        "tap_residual": tap_mod.tap_residual(cell.instance, cell.fp, traj.final.m),
    }


def _cell_gibbs_exact(cell, n_rep):
    fp = cell.fp
    per_site = cell.exact.log_z / cell.n
    return {
        "log_z_per_site": per_site,
        "psi_rs": fp.psi_rs,
        "free_energy_gap": per_site - fp.psi_rs,
    }


def _cell_gibbs_mcmc(cell, n_rep):
    reps = cell.chains(n_rep)
    final_mean = reps.samples.mean(axis=0)
    out = {
        "mean_abs_mag": float(np.abs(final_mean).mean()),
        "marginal_max_abs_err": np.nan,
        "replica_distance": np.nan,
    }
    if cell.n <= gibbs_mod.MAX_ENUMERATION_N:
        exact = cell.exact.magnetization
        # the time averages estimate the marginals; the final states, the replica cloud
        out["marginal_max_abs_err"] = float(np.abs(reps.chain_mag.mean(axis=0) - exact).max())
        out["replica_distance"] = float(np.sum((final_mean - exact) ** 2) / final_mean.size)
    return out


def _cell_tap_verify(cell, n_rep):
    fp = cell.fp
    mag = cell.exact.magnetization
    traj = cell.amp
    inst = cell.instance
    d = tap_mod.magnetization_vs_amp(mag, traj)
    sol = cell.tap_solution
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


def _cell_band(cell, n_rep):
    band, exact = cell.band_exact
    n = cell.n
    log_z, log_zb, log_zc = exact.log_z, exact.log_z_band, exact.log_z_pairs
    if log_zc is None:  # too large to list the pairs: sample them
        log_zc = 2.0 * log_zb + gibbs_mod.log_violating_share(exact.draws[:n_rep], band)
    return {
        "log_z_per_site": log_z / n,
        "log_zb_per_site": log_zb / n,
        "band_gap_per_site": (log_z - log_zb) / n,
        "zc_margin_per_site": log_zc / n - 2.0 * log_zb / n,
    }


def _cell_se_check(cell, n_rep):
    traj = cell.amp
    delta = cell.se_delta
    # n^{-1} X^T X against Delta, n^{-1} Y^T Y against kappa* Delta, n^{-1} X^T Y against 0
    return {
        "max_dev_xx": float(np.abs(traj.gram_xx - delta).max()),
        "max_dev_yy": float(np.abs(traj.gram_yy - cell.fp.kappa_star * delta).max()),
        "max_dev_xy": float(np.abs(traj.gram_xy).max()),
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


def _run_cell(cfg: ExperimentConfig, coords, fixed_points: dict) -> list[ResultRow]:
    """The rows of grid point (n, beta, seed), one per replica count, each
    with its failure caught.  The rows share one Cell, so the first row to
    draw an object carries its cost in its wall time."""
    n, beta, seed = coords
    cell = Cell(cfg, n, beta, seed, fixed_points)
    rows = []
    for n_rep in cfg.n_replicas:
        start = time.perf_counter()
        try:
            metrics, error = _CELL_FUNCTIONS[cfg.kind](cell, n_rep), ""
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
    cells = itertools.product(cfg.n, cfg.beta, cfg.seeds)
    fixed_points = {}
    rows = [row for coords in cells for row in _run_cell(cfg, coords, fixed_points)]
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
    the sorted union across rows, blank where a row lacks a metric, and the
    wall-time cell is blank where wall_time is None."""
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
        cells.append("" if row.wall_time is None else repr(float(row.wall_time)))
        cells.append(row.error.replace(",", ";").replace("\n", " "))
        fh.write(",".join(cells) + "\n")


def csv_text(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    emit_csv(rows, buf)
    return buf.getvalue()


def _stable_text(rows: list[ResultRow]) -> str:
    """CSV text with the wall-time column blanked, for hashing and byte checks."""
    return csv_text([dataclasses.replace(row, wall_time=None) for row in rows])


def content_hash(rows: list[ResultRow]) -> str:
    return hashlib.sha256(_stable_text(rows).encode()).hexdigest()


def _aggregate(values: list[float]) -> dict:
    """mean/sd/count over the finite values; nonfinite counts the others (inf,
    -inf, NaN), which are left out.  mean and sd are None when none is finite."""
    finite = [v for v in values if np.isfinite(v)]
    out = {"mean": None, "sd": None, "count": len(finite), "nonfinite": len(values) - len(finite)}
    if finite:
        out["mean"] = float(np.mean(finite))
        out["sd"] = float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0
    return out


def emit_json_summary(rows: list[ResultRow], cfg: ExperimentConfig) -> dict:
    """Config echo, a content hash of the stable CSV text, and per-(n, beta,
    n_replicas) aggregates of every metric over seeds: mean/sd of its finite
    values and a count of the non-finite ones."""
    aggregates = {}
    for row in rows:
        if row.error:
            continue
        key = f"n={row.n},beta={row.beta},n_replicas={row.n_replicas}"
        bucket = aggregates.setdefault(key, {})
        for name, value in row.metrics.items():
            if isinstance(value, (int, float)):
                bucket.setdefault(name, []).append(float(value))
    summary_aggregates = {
        key: {name: _aggregate(vals) for name, vals in sorted(bucket.items())}
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
