"""Tests for the experiment grid driver: config parsing, determinism,
error isolation, and the CSV/JSON emitters."""

import ast
import dataclasses
import json
import math
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
    # the field is always its law's quantile grid: field_mode is no longer a key
    with pytest.raises(ConfigError, match="unknown config keys: field_mode"):
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
    assert cfg.n_replicas == (8,)
    assert cfg.sweeps == 200
    echo = cfg.echo()
    # the echo must itself parse back to an identical config
    cfg2 = config_from_dict(echo)
    assert cfg2.echo() == echo


CONFIG_KEYS = {"kind", "n", "beta", "seeds", "law", "field", "t_max",
               "n_replicas", "sweeps", "burn_in", "delta", "eta", "out"}


def test_config_fields_are_the_accepted_keys():
    assert {f.name for f in dataclasses.fields(exp.ExperimentConfig)} == CONFIG_KEYS
    cfg = config_from_dict(_minimal(kind="band", out="rows.csv"))
    assert set(cfg.echo()) == CONFIG_KEYS - {"out"}
    assert config_from_dict({**cfg.echo(), "out": "rows.csv"}).echo() == cfg.echo()


def test_echoed_standardized_law_reruns_to_the_same_rows():
    law = {"kind": "empirical", "locations": [100.0, 100.001, 100.003], "weights": [0.3, 0.3, 0.4]}
    cfg = config_from_dict(_minimal(kind="gibbs_exact", law=law))
    echo = cfg.echo()
    assert echo["law"] != law  # the standardized atoms, not the given ones
    again = config_from_dict(echo)
    assert np.array_equal(again.law.atoms, cfg.law.atoms)
    assert again.echo() == echo
    assert content_hash(run_experiment(again)) == content_hash(run_experiment(cfg))


def test_band_config_runs_amp_at_least_fifty_steps():
    assert default_config("band").echo()["t_max"] == exp.BAND_MIN_T_MAX == 50
    assert config_from_dict(_minimal(kind="band", t_max=80)).t_max == 80
    assert default_config("amp").t_max == 8
    with pytest.raises(ConfigError, match="t_max"):
        config_from_dict(_minimal(kind="band", t_max=0))


def test_config_built_directly_is_checked():
    # the checks and the band's floor live on the config, not in the parser
    assert exp.ExperimentConfig("band", (12,), (0.15,), (1, 2)).t_max == exp.BAND_MIN_T_MAX
    with pytest.raises(ConfigError, match="n_replicas"):
        exp.ExperimentConfig("gibbs_mcmc", (12,), (0.15,), (0,), n_replicas=(0,))
    with pytest.raises(ConfigError, match="delta"):
        exp.ExperimentConfig("band", (12,), (0.15,), (0,), delta=-1.0)


@pytest.mark.parametrize("key", ["n", "beta", "seeds", "n_replicas"])
def test_config_built_directly_checks_its_grids(key):
    # an empty grid would run no cell (or fail in max()), a repeated value run
    # one cell twice; config_from_dict and a config built directly agree
    grids = {"n": (12,), "beta": (0.15,), "seeds": (1,), "n_replicas": (8,)}
    with pytest.raises(ConfigError, match=f"{key} must be nonempty"):
        exp.ExperimentConfig("band", **{**grids, key: ()})
    with pytest.raises(ConfigError, match=f"{key} repeats a value"):
        exp.ExperimentConfig("band", **{**grids, key: grids[key] * 2})


def test_config_rejects_betas_that_share_seed_streams():
    # stream seeds key beta in units of 1e-9, so these two would draw one O
    close = [0.15, 0.1500000001]
    assert stream_seed(1, 12, close[0], 1) == stream_seed(1, 12, close[1], 1)
    with pytest.raises(ConfigError, match="share seed streams"):
        exp.ExperimentConfig("amp", (12,), tuple(close), (1,))
    with pytest.raises(ConfigError, match="share seed streams"):
        config_from_dict(_minimal(beta=close))
    apart = (0.15, 0.150000001)
    assert stream_seed(1, 12, apart[0], 1) != stream_seed(1, 12, apart[1], 1)
    assert exp.ExperimentConfig("amp", (12,), apart, (1,)).beta == apart


@pytest.mark.parametrize("key, value", [
    ("beta", (math.inf,)),
    ("beta", (0.15, math.nan)),
    ("delta", math.inf),
    ("delta", math.nan),
    ("eta", math.inf),
    ("eta", math.nan),
], ids=["beta-inf", "beta-nan", "delta-inf", "delta-nan", "eta-inf", "eta-nan"])
def test_config_built_directly_rejects_non_finite_values(key, value):
    # config_from_dict rejects these as it parses; a config built directly must too
    fields = {"beta": (0.15,), key: value}
    with pytest.raises(ConfigError, match=rf"{key}.* finite"):
        exp.ExperimentConfig("amp", (12,), seeds=(1,), **fields)


BUILT_WRONGLY_TYPED = {
    "n-float": (("amp", (12.5,), (0.15,), (1,)), {}),
    "beta-bool-seed-float": (("amp", (12,), (True,), (1.5,)), {}),
    "beta-bool": (("amp", (12,), (True,), (1,)), {}),
    "seeds-float": (("amp", (12,), (0.15,), (1.5,)), {}),
    "t_max-float": (("amp", (12,), (0.15,), (1,)), {"t_max": 8.5}),
    "law-spec": (("amp", (12,), (0.15,), (1,)), {"law": {"kind": "semicircle"}}),
    "field-spec": (("amp", (12,), (0.15,), (1,)), {"field": {"kind": "constant", "value": 1.0}}),
    "out-int": (("amp", (12,), (0.15,), (1,)), {"out": 5}),
}


@pytest.mark.parametrize("args, kwargs", BUILT_WRONGLY_TYPED.values(), ids=BUILT_WRONGLY_TYPED)
def test_config_built_directly_rejects_wrongly_typed_values(args, kwargs):
    # config_from_dict's type checks hold for a config built in Python too:
    # n = 12.5 gave a TypeError row, beta True and seed 1.5 ran as given
    with pytest.raises(ConfigError, match="must be"):
        exp.ExperimentConfig(*args, **kwargs)


def test_config_built_directly_casts_to_its_field_types():
    cfg = exp.ExperimentConfig("amp", [12], 1, (1,), delta=1)
    assert (cfg.n, cfg.beta, cfg.delta) == ((12,), (1.0,), 1.0)
    assert type(cfg.beta[0]) is float and type(cfg.delta) is float


def test_gibbs_mcmc_grid_runs_above_the_old_cap():
    # n = 1024 was rejected while Glauber's dense couplings stopped at 512
    rows = run_experiment(config_from_dict(
        _minimal(kind="gibbs_mcmc", n=[1024], sweeps=4, burn_in=1)))
    assert [row.error for row in rows] == [""]


def test_default_config_parses_for_every_kind():
    for kind in exp.EXPERIMENT_KINDS:
        cfg = default_config(kind)
        assert cfg.kind == kind
        assert cfg.n == (12,)


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
    # cells run one after another in one thread, and no module reaches into a
    # native library's settings: no pool, no thread and no ctypes import
    def modules(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module

    importers = sorted(
        path.name
        for path in Path(tapglass.__file__).parent.glob("*.py")
        if any(module.startswith(banned)
               for module in modules(ast.parse(path.read_text(encoding="utf-8")))
               for banned in ("concurrent.futures", "multiprocessing", "threading", "ctypes"))
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


@pytest.mark.parametrize("kind", ["band", "tap_verify"])
def test_replica_counts_share_amp_run_and_band_enumeration(monkeypatch, kind):
    calls = {"run_amp": [], "exact_gibbs": []}
    for mod, name in ((exp.amp_mod, "run_amp"), (exp.gibbs_mod, "exact_gibbs")):
        def counted(instance, *args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name].append(instance.seed)
            return _fn(instance, *args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    obj = _minimal(kind=kind, n=[8], seeds=[3, 1], n_replicas=[4, 8, 16],
                   sweeps=20, burn_in=5, t_max=5)
    rows = run_experiment(config_from_dict(obj))
    assert all(r.error == "" for r in rows) and len(rows) == 6
    for seeds in calls.values():
        assert len(seeds) == 2 and len(set(seeds)) == 2
    # the rows are those of one run per replica count
    monkeypatch.undo()
    alone = sorted((row for count in (4, 8, 16) for row in run_experiment(
        config_from_dict({**obj, "n_replicas": [count]}))),
        key=lambda r: (r.n, r.beta, r.seed, r.n_replicas))
    assert content_hash(rows) == content_hash(alone)


@pytest.mark.parametrize("n", [12, 16, 20], ids=["n12", "n16", "n20"])
def test_band_runs_chains_only_where_pairs_are_sampled(monkeypatch, n):
    # no Glauber at any n: up to n = 12 the pair sum Z_c is listed exactly,
    # above it the exact pass draws the replicas that sample it
    def no_chains(*args, **kwargs):
        raise AssertionError("a band row ran Glauber chains")

    replicas = []
    share = exp.gibbs_mod.log_violating_share

    def recorded(samples, band):
        replicas.append(samples)
        return share(samples, band)

    monkeypatch.setattr(exp.gibbs_mod, "glauber_sample", no_chains)
    monkeypatch.setattr(exp.gibbs_mod, "log_violating_share", recorded)
    obj = _minimal(kind="band", n=[n], n_replicas=[4, 8])
    rows = run_experiment(config_from_dict(obj))
    assert all(r.error == "" for r in rows) and len(rows) == 2
    if n <= 12:
        assert replicas == []
    else:
        # the 4-replica row sees the first 4 of the cell's 8 draws
        assert [r.shape for r in replicas] == [(4, n), (8, n)]
        assert np.array_equal(replicas[0], replicas[1][:4])
    # the chains' settings no longer reach a band row
    monkeypatch.undo()
    other = run_experiment(config_from_dict({**obj, "sweeps": 20, "burn_in": 5}))
    assert content_hash(other) == content_hash(rows)


@pytest.mark.parametrize("betas", [[0.15], [0.15, 0.3]], ids=["one-beta", "two-betas"])
def test_fixed_point_solved_once_per_beta(monkeypatch, betas):
    # the fixed point depends on beta, the law and the field, not on n or the seed
    calls = []
    solve = exp.solve_fixed_point

    def counted(beta, *args):
        calls.append(beta)
        return solve(beta, *args)

    monkeypatch.setattr(exp, "solve_fixed_point", counted)
    obj = _minimal(kind="band", n=[12, 16, 20], beta=betas, n_replicas=[4],
                   sweeps=20, burn_in=5)
    rows = run_experiment(config_from_dict(obj))
    assert all(r.error == "" for r in rows) and len(rows) == 3 * len(betas)
    assert sorted(calls) == betas


def test_failed_fixed_point_gives_an_error_row_per_cell():
    # a failure is not shared: every cell solves again and fails the same way
    rows = run_experiment(config_from_dict(
        _minimal(kind="fixed_point", n=[8, 12], beta=[0.15, 5.0], seeds=[0, 1])))
    errors = [r.error for r in rows if r.beta == 5.0]
    assert len(errors) == 4 and all(e.startswith("BetaTooLargeError") for e in errors)
    assert all(r.error == "" for r in rows if r.beta == 0.15)


def test_saturating_field_gives_an_error_row_naming_one_minus_q():
    # at beta = 0 a constant field of 20 gives q* = 1 to the last bit
    rows = run_experiment(config_from_dict(
        _minimal(beta=[0.0], field={"kind": "constant", "value": 20.0})))
    assert [r.error.split(" at ")[0] for r in rows] == ["ValueError: 1 - q* = 0"]


@pytest.mark.parametrize("kind", ["fixed_point", "gibbs_exact"])
def test_negative_entropy_gives_an_error_row(kind):
    # zero field, two-point law: beta = 20 passes every other regime check,
    # and gibbs_exact rows reported psi_rs = 9.691 there
    rows = run_experiment(config_from_dict(_minimal(
        kind=kind, n=[8], beta=[0.5, 1.0, 2.0, 3.0, 20.0], seeds=[0],
        law={"kind": "two_point"}, field={"kind": "constant", "value": 0.0})))
    errors = {r.beta: r.error for r in rows}
    assert errors[20.0].startswith("BetaTooLargeError") and "entropy" in errors[20.0]
    assert [errors[beta] for beta in (0.5, 1.0, 2.0, 3.0)] == [""] * 4


@pytest.mark.parametrize("kind, mod, name", [
    ("tap_verify", exp.tap_mod, "solve_tap_damped"), ("se_check", exp, "theoretical_delta"),
], ids=["tap_verify", "se_check"])
def test_replica_counts_share_tap_solve_and_se_delta(monkeypatch, kind, mod, name):
    # kinds that ignore the replica count compute their row's object once per cell
    calls = []
    fn = getattr(mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(mod, name, counted)
    obj = _minimal(kind=kind, n=[8], seeds=[3, 1], n_replicas=[4, 8, 16], t_max=5)
    rows = run_experiment(config_from_dict(obj))
    assert all(r.error == "" for r in rows) and len(rows) == 6
    assert len(calls) == 2
    monkeypatch.undo()
    alone = sorted((row for count in (4, 8, 16) for row in run_experiment(
        config_from_dict({**obj, "n_replicas": [count]}))),
        key=lambda r: (r.n, r.beta, r.seed, r.n_replicas))
    assert content_hash(rows) == content_hash(alone)


def test_concentration_errors_stay_per_row(monkeypatch):
    # sampling 16 chains fails its own row only; a failed instance at beta = 0.2
    # is shared, so every row of that grid point carries the error
    sample = exp.gibbs_mod.glauber_sample
    build = exp.build_instance

    def failing_at_16(instance, sweeps, burn_in, n_chains, seed):
        if n_chains == 16:
            raise ValueError("no sampler for 16 chains")
        return sample(instance, sweeps, burn_in, n_chains, seed)

    def failing_at_beta_02(n, beta, *args, **kwargs):
        if beta == 0.2:
            raise ValueError("no instance at beta 0.2")
        return build(n, beta, *args, **kwargs)

    monkeypatch.setattr(exp.gibbs_mod, "glauber_sample", failing_at_16)
    monkeypatch.setattr(exp, "build_instance", failing_at_beta_02)
    rows = run_experiment(config_from_dict(
        _minimal(kind="gibbs_mcmc", n=[6], beta=[0.15, 0.2], n_replicas=[16, 4],
                 sweeps=10, burn_in=2)
    ))
    errors = {(r.beta, r.n_replicas): r.error for r in rows}
    assert errors[(0.15, 4)] == ""
    assert errors[(0.15, 16)] == "ValueError: no sampler for 16 chains"
    assert errors[(0.2, 16)] == errors[(0.2, 4)] != ""
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


def test_error_rows_are_isolated(monkeypatch):
    # enumeration fails at n=12; the other cell must still succeed
    enumerate_exact = exp.gibbs_mod.exact_gibbs

    def failing_at_12(instance, *args):
        if instance.n == 12:
            raise ValueError("no enumeration at n = 12")
        return enumerate_exact(instance, *args)

    monkeypatch.setattr(exp.gibbs_mod, "exact_gibbs", failing_at_12)
    cfg = config_from_dict(
        _minimal(kind="gibbs_exact", n=[10, 12], beta=[0.15], seeds=[0])
    )
    rows = run_experiment(cfg)
    assert len(rows) == 2
    by_n = {r.n: r for r in rows}
    assert by_n[10].error == ""
    assert np.isfinite(by_n[10].metrics["log_z_per_site"])
    assert by_n[12].error != ""
    assert by_n[12].metrics == {}


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
    bucket = summary["aggregates"]["n=24,beta=0.15,n_replicas=8"]
    vals = [r.metrics["tap_residual"] for r in rows]
    assert bucket["tap_residual"]["count"] == 3
    assert bucket["tap_residual"]["nonfinite"] == 0
    assert bucket["tap_residual"]["mean"] == pytest.approx(np.mean(vals))
    assert bucket["tap_residual"]["sd"] == pytest.approx(np.std(vals, ddof=1))


def test_summary_aggregates_per_replica_count():
    # chain counts are not pooled, and a kind that ignores the count is not
    # counted once per count
    cfg = config_from_dict(_minimal(kind="gibbs_mcmc", n=[10], seeds=[0, 1], n_replicas=[4, 16],
                                    sweeps=20, burn_in=5))
    rows = run_experiment(cfg)
    aggregates = emit_json_summary(rows, cfg)["aggregates"]
    assert sorted(aggregates) == ["n=10,beta=0.15,n_replicas=16", "n=10,beta=0.15,n_replicas=4"]
    for n_rep in (4, 16):
        vals = [r.metrics["replica_distance"] for r in rows if r.n_replicas == n_rep]
        bucket = aggregates[f"n=10,beta=0.15,n_replicas={n_rep}"]["replica_distance"]
        assert bucket["count"] == 2
        assert bucket["mean"] == pytest.approx(np.mean(vals))

    cfg = config_from_dict(_minimal(kind="amp", n=[12], seeds=[0, 1], n_replicas=[4, 8, 16]))
    rows = run_experiment(cfg)
    aggregates = emit_json_summary(rows, cfg)["aggregates"]
    assert len(aggregates) == 3
    vals = [r.metrics["tap_residual"] for r in rows if r.n_replicas == 4]
    for bucket in aggregates.values():
        assert bucket["tap_residual"]["count"] == 2
        assert bucket["tap_residual"]["sd"] == pytest.approx(np.std(vals, ddof=1))


def test_summary_counts_nonfinite_values_per_metric():
    # -inf (an empty pair sum), inf and NaN are left out of mean and sd, and
    # each metric says how many of its values were
    def row(seed, **metrics):
        return ResultRow(schema_version=exp.SCHEMA_VERSION, kind="band", n=16, beta=0.15,
                         seed=seed, n_replicas=8, metrics=metrics, wall_time=0.0)

    rows = [row(0, gap=0.25, margin=-np.inf), row(1, gap=np.nan, margin=-np.inf),
            row(2, gap=0.75, margin=-np.inf), row(3, gap=np.inf, margin=-np.inf)]
    summary = emit_json_summary(rows, config_from_dict(_minimal(kind="band", n=[16])))
    bucket = summary["aggregates"]["n=16,beta=0.15,n_replicas=8"]
    assert bucket["gap"] == {"mean": 0.5, "sd": pytest.approx(np.sqrt(0.125)),
                             "count": 2, "nonfinite": 2}
    assert bucket["margin"] == {"mean": None, "sd": None, "count": 0, "nonfinite": 4}
    json.loads(json.dumps(summary, allow_nan=False))


def test_summary_is_json_serializable():
    cfg = config_from_dict(_minimal(kind="fixed_point"))
    rows = run_experiment(cfg)
    text = json.dumps(emit_json_summary(rows, cfg))
    assert "q_star" in text
