"""Tests for the experiment grid driver: config parsing, determinism,
error isolation, and the CSV/JSON emitters."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import tapglass
from tapglass import experiments as exp
from tapglass.experiments import (
    BASE_COLUMNS,
    TAIL_COLUMNS,
    ConfigError,
    ResultRow,
    config_from_dict,
    content_hash,
    csv_text,
    default_config,
    emit_csv,
    emit_json_summary,
    run_experiment,
    stream_seed,
)


def _minimal(kind="fixed_point", **overrides):
    obj = {"kind": kind, "n": [8], "beta": [0.15], "seeds": [0]}
    obj.update(overrides)
    return obj


# ---------------------------------------------------------------- config


def test_config_rejects_non_dict():
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "dict"])


def test_config_rejects_unknown_kind():
    # concentration was folded into gibbs_mcmc, which takes an n_replicas list
    for kind in ("frobnicate", "concentration"):
        with pytest.raises(ConfigError, match="kind"):
            config_from_dict(_minimal(kind=kind))


def test_config_requires_grid_keys():
    for missing in ("n", "beta", "seeds"):
        obj = _minimal()
        del obj[missing]
        with pytest.raises(ConfigError, match=missing):
            config_from_dict(obj)


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        config_from_dict(_minimal(t_max=0))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal(n=[0]))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal(beta=[-0.1]))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal(field_mode="diagonal"))


@pytest.mark.parametrize("field", [
    {"kind": "constant", "value": float("nan")},
    {"kind": "gaussian", "mean": 0.0, "sd": float("nan")},
    {"kind": "gaussian", "mean": float("inf"), "sd": 1.0},
], ids=["constant-nan", "gaussian-sd-nan", "gaussian-mean-inf"])
def test_config_rejects_non_finite_field(field):
    # otherwise every cell becomes a "1 - q = nan" error row
    with pytest.raises(ConfigError, match="bad field law"):
        config_from_dict(_minimal(kind="gibbs_exact", field=field))


def test_config_rejects_bad_law_spec():
    with pytest.raises(ConfigError, match="law"):
        config_from_dict(_minimal(law={"kind": "noise"}))


def test_config_defaults_and_echo_roundtrip():
    cfg = config_from_dict(_minimal())
    assert cfg.t_max == 8
    assert cfg.replica_counts == (8,)
    assert cfg.sweeps == 200
    echo = cfg.echo()
    # the echo must itself parse back to an identical config
    cfg2 = config_from_dict(echo)
    assert cfg2.echo() == echo


def test_default_config_parses_for_every_kind():
    for kind in exp.EXPERIMENT_KINDS:
        cfg = default_config(kind)
        assert cfg.kind == kind
        assert cfg.n_values == (12,)


@pytest.mark.parametrize("kind", exp.EXPERIMENT_KINDS)
def test_default_config_runs_without_error_rows(kind):
    rows = run_experiment(default_config(kind))
    assert rows
    assert [row.error for row in rows] == [""] * len(rows)


# A three-atom law goes through the generic atomic transforms, not a closed form.
ATOMIC_LAW = {"kind": "empirical", "locations": [-1.0, 0.0, 2.0], "weights": [0.3, 0.3, 0.4]}


@pytest.mark.parametrize("kind", exp.EXPERIMENT_KINDS)
def test_default_config_runs_with_atomic_law(kind):
    rows = run_experiment(config_from_dict({**default_config(kind).echo(), "law": ATOMIC_LAW}))
    assert rows
    assert [row.error for row in rows] == [""] * len(rows)


@pytest.mark.parametrize("typo", ["n_replica", "sweps", "threads", "thin", "mc_samples"])
def test_config_rejects_unknown_keys(typo):
    with pytest.raises(ConfigError, match=typo):
        config_from_dict(_minimal(**{typo: 4}))


@pytest.mark.parametrize(
    "key, value",
    [
        ("seeds", [0, -1]),
        ("sweeps", 0),
        ("burn_in", -1),
        ("delta", 0.0),
        ("eta", -0.5),
        pytest.param("n_replicas", [0], id="n_replicas-below-1"),
        # json.load accepts NaN and Infinity
        pytest.param("beta", [float("nan")], id="beta-nan"),
        pytest.param("beta", [0.15, float("inf")], id="beta-inf"),
        pytest.param("delta", float("inf"), id="delta-inf"),
        pytest.param("eta", float("nan"), id="eta-nan"),
    ],
)
def test_config_rejects_bad_numeric_values(key, value):
    with pytest.raises(ConfigError, match=key):
        config_from_dict(_minimal(**{key: value}))


WRONGLY_TYPED = [
    ("law", "semicircle"),
    ("field", 1.0),
    ("t_max", [8]),
    ("t_max", None),
    ("sweeps", 2.7),
    ("n", [8.9]),
    ("seeds", [1.5]),
    ("out", 5),
    ("beta", [True]),
    ("delta", "0.2"),
    ("n_replicas", True),
]


@pytest.mark.parametrize(
    "key, value", WRONGLY_TYPED, ids=[f"{key}-{json.dumps(value)}" for key, value in WRONGLY_TYPED]
)
def test_config_rejects_wrongly_typed_values(key, value):
    # integer keys take integers and real keys numbers, never bools; law and
    # field take objects; out takes a string or null
    with pytest.raises(ConfigError, match=rf"\b{key}\b.* must be"):
        config_from_dict(_minimal(**{key: value}))


# ---------------------------------------------------------------- seeds


def test_stream_seed_is_deterministic_and_tagged():
    a = stream_seed(7, 16, 0.15, exp.STREAM_INSTANCE)
    assert a == stream_seed(7, 16, 0.15, exp.STREAM_INSTANCE)
    others = {
        stream_seed(7, 16, 0.15, exp.STREAM_AMP),
        stream_seed(7, 16, 0.15, exp.STREAM_MCMC),
        stream_seed(8, 16, 0.15, exp.STREAM_INSTANCE),
        stream_seed(7, 18, 0.15, exp.STREAM_INSTANCE),
        stream_seed(7, 16, 0.2, exp.STREAM_INSTANCE),
    }
    assert a not in others
    assert len(others) == 5


def test_stream_seed_rejects_non_finite_beta():
    for beta in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="beta must be finite"):
            stream_seed(0, 8, beta, exp.STREAM_INSTANCE)


def test_stream_seed_keyed_by_coordinates_not_grid_position():
    # the seed for a cell depends only on its own (seed, n, beta) coordinates,
    # so enlarging the grid never reshuffles existing cells
    small = config_from_dict(_minimal(kind="amp", n=[24], beta=[0.15], seeds=[3]))
    large = config_from_dict(
        _minimal(kind="amp", n=[16, 24, 32], beta=[0.1, 0.15], seeds=[1, 2, 3])
    )
    rows_small = run_experiment(small)
    rows_large = run_experiment(large)
    (target,) = rows_small
    match = [
        r
        for r in rows_large
        if (r.n, r.beta, r.seed) == (target.n, target.beta, target.seed)
    ]
    assert len(match) == 1
    assert match[0].metrics == target.metrics


def test_only_experiments_reads_the_streams():
    # every random object of a cell is drawn through Cell, so which stream
    # feeds which object stays a decision of experiments.py alone
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    readers = sorted(
        path.name
        for path in Path(tapglass.__file__).parent.glob("*.py")
        if any(name == "stream_seed" or name.startswith("STREAM_")
               for name in names(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert readers == ["experiments.py"]


def test_package_starts_no_threads_or_processes():
    # cells run one after another in one thread; gibbs._one_blas_thread sets a
    # process-wide BLAS thread count, which is only safe while that holds
    def modules(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module

    importers = sorted(
        path.name
        for path in Path(tapglass.__file__).parent.glob("*.py")
        if any(module.startswith(pool)
               for module in modules(ast.parse(path.read_text(encoding="utf-8")))
               for pool in ("concurrent.futures", "multiprocessing"))
    )
    assert importers == []


# ---------------------------------------------------------------- runs


def test_fixed_point_rows_cover_grid():
    cfg = config_from_dict(
        _minimal(kind="fixed_point", n=[8], beta=[0.0, 0.15], seeds=[0, 5])
    )
    rows = run_experiment(cfg)
    assert len(rows) == 4
    coords = {(r.n, r.beta, r.seed) for r in rows}
    assert coords == {(8, 0.0, 0), (8, 0.0, 5), (8, 0.15, 0), (8, 0.15, 5)}
    for r in rows:
        assert r.error == ""
        assert r.metrics["converged"] == 1
        assert 0.0 < r.metrics["q_star"] < 1.0


def test_atomic_law_fixed_point_values():
    # 40-digit mpmath route (R by bisection on G, R' by mpmath.diff, int R by
    # mpmath.quad): q* = 0.576078159930, psi_rs = 1.130694831341
    (row,) = run_experiment(config_from_dict(_minimal(n=[300], seeds=[3], law=ATOMIC_LAW)))
    assert row.error == ""
    assert row.metrics["converged"] == 1
    assert row.metrics["q_star"] == pytest.approx(0.576078, abs=1e-6)
    assert row.metrics["psi_rs"] == pytest.approx(1.130695, abs=1e-6)


def test_rows_sorted_regardless_of_thread_count():
    # a grid is spread over processes by giving each a disjoint seeds list;
    # merged and sorted, their rows are the rows of one run
    obj = _minimal(kind="amp", n=[24, 16], beta=[0.15, 0.1], seeds=[1, 0], t_max=3)
    whole = run_experiment(config_from_dict(obj))
    key = lambda r: (r.n, r.beta, r.seed, r.n_replicas)
    assert [key(r) for r in whole] == sorted(key(r) for r in whole)
    split = [run_experiment(config_from_dict({**obj, "seeds": seeds})) for seeds in ([1], [0])]
    merged = sorted(split[0] + split[1], key=key)
    assert exp._stable_text(whole) == exp._stable_text(merged)
    assert content_hash(whole) == content_hash(merged)


def test_concentration_enumerates_each_instance_once(monkeypatch):
    calls = []
    exact_gibbs = exp.gibbs_mod.exact_gibbs

    def counted(instance, *args, **kwargs):
        calls.append(instance.seed)
        return exact_gibbs(instance, *args, **kwargs)

    monkeypatch.setattr(exp.gibbs_mod, "exact_gibbs", counted)
    # the replica-count grid of gibbs_mcmc: one row per count, one instance per seed
    obj = _minimal(kind="gibbs_mcmc", n=[8], seeds=[3, 1], n_replicas=[16, 4, 64],
                   sweeps=20, burn_in=5)
    rows = run_experiment(config_from_dict(obj))
    assert len(calls) == 2 and len(set(calls)) == 2
    assert [(r.seed, r.n_replicas) for r in rows] == [
        (1, 4), (1, 16), (1, 64), (3, 4), (3, 16), (3, 64)]
    assert all(r.error == "" and r.metrics["replica_distance"] >= 0 for r in rows)


def test_concentration_errors_stay_per_row(monkeypatch):
    # sampling 16 chains fails its own row only; beta = 0 fails the shared
    # instance, so every row of that grid point carries the error
    sample = exp.gibbs_mod.glauber_sample

    def failing_at_16(instance, sweeps, burn_in, n_chains, seed):
        if n_chains == 16:
            raise ValueError("no sampler for 16 chains")
        return sample(instance, sweeps, burn_in, n_chains, seed)

    monkeypatch.setattr(exp.gibbs_mod, "glauber_sample", failing_at_16)
    rows = run_experiment(config_from_dict(
        _minimal(kind="gibbs_mcmc", n=[6], beta=[0.15, 0.0], n_replicas=[16, 4],
                 sweeps=10, burn_in=2)
    ))
    errors = {(r.beta, r.n_replicas): r.error for r in rows}
    assert errors[(0.15, 4)] == ""
    assert errors[(0.15, 16)] == "ValueError: no sampler for 16 chains"
    assert errors[(0.0, 16)] == errors[(0.0, 4)] != ""
    assert all(r.metrics == {} for r in rows if r.error)


def test_tap_verify_reports_solver_convergence():
    rows = run_experiment(default_config("tap_verify"))
    for row in rows:
        assert row.error == ""
        assert row.metrics["solver_converged"] in (0, 1)
        assert isinstance(row.metrics["solver_iterations"], int)
        assert row.metrics["solver_iterations"] >= 1
    header = csv_text(rows).splitlines()[0].split(",")
    assert {"solver_converged", "solver_iterations"} <= set(header)


def test_repeat_runs_identical_modulo_wall_time():
    cfg = config_from_dict(
        _minimal(kind="gibbs_mcmc", n=[10], beta=[0.12], seeds=[2],
                 sweeps=60, burn_in=20)
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert exp._stable_text(a) == exp._stable_text(b)
    assert content_hash(a) == content_hash(b)


def test_error_rows_are_isolated():
    # n=25 exceeds the enumeration guard; the other cell must still succeed
    cfg = config_from_dict(
        _minimal(kind="gibbs_exact", n=[10, 25], beta=[0.15], seeds=[0])
    )
    rows = run_experiment(cfg)
    assert len(rows) == 2
    by_n = {r.n: r for r in rows}
    assert by_n[10].error == ""
    assert np.isfinite(by_n[10].metrics["log_z_per_site"])
    assert by_n[25].error != ""
    assert by_n[25].metrics == {}


# ---------------------------------------------------------------- emitters


def test_csv_header_present_even_without_rows():
    text = csv_text([])
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0] == ",".join(BASE_COLUMNS + TAIL_COLUMNS)


def test_csv_columns_are_base_metrics_tail():
    cfg = config_from_dict(_minimal(kind="fixed_point"))
    rows = run_experiment(cfg)
    header = csv_text(rows).splitlines()[0].split(",")
    n_base, n_tail = len(BASE_COLUMNS), len(TAIL_COLUMNS)
    assert tuple(header[:n_base]) == BASE_COLUMNS
    assert tuple(header[-n_tail:]) == TAIL_COLUMNS
    middle = header[n_base:-n_tail]
    assert middle == sorted(middle)
    assert set(middle) == set(rows[0].metrics)


def test_csv_cells_parse_back_to_floats():
    cfg = config_from_dict(_minimal(kind="fixed_point"))
    rows = run_experiment(cfg)
    lines = csv_text(rows).splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    assert len(cells) == len(header)
    record = dict(zip(header, cells))
    assert float(record["q_star"]) == pytest.approx(rows[0].metrics["q_star"])
    assert float(record["beta"]) == 0.15
    # no numpy scalar reprs may leak into the file
    assert "np.float64" not in lines[1]


def test_csv_escapes_commas_in_error_text():
    row = ResultRow(
        schema_version=exp.SCHEMA_VERSION,
        kind="fixed_point",
        n=8,
        beta=0.15,
        seed=0,
        n_replicas=8,
        metrics={},
        wall_time=0.0,
        error="bad, very bad",
    )
    lines = csv_text([row]).splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("bad; very bad")
    assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_emit_csv_and_csv_text_agree(tmp_path):
    cfg = config_from_dict(_minimal(kind="fixed_point"))
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        emit_csv(rows, fh)
    assert path.read_text() == csv_text(rows)


def test_summary_aggregates_match_recomputation():
    cfg = config_from_dict(
        _minimal(kind="amp", n=[24], beta=[0.15], seeds=[0, 1, 2], t_max=3)
    )
    rows = run_experiment(cfg)
    summary = emit_json_summary(rows, cfg)
    assert summary["rows"] == 3
    assert summary["errors"] == 0
    assert summary["content_hash"] == content_hash(rows)
    bucket = summary["aggregates"]["n=24,beta=0.15"]
    vals = [r.metrics["tap_residual"] for r in rows]
    assert bucket["tap_residual"]["count"] == 3
    assert bucket["tap_residual"]["mean"] == pytest.approx(np.mean(vals))
    assert bucket["tap_residual"]["sd"] == pytest.approx(np.std(vals, ddof=1))


def test_summary_is_json_serializable():
    cfg = config_from_dict(_minimal(kind="fixed_point"))
    rows = run_experiment(cfg)
    text = json.dumps(emit_json_summary(rows, cfg))
    assert "q_star" in text
