"""End-to-end tests for the command line entry points, driven through main()
so exit codes and stdout contracts are exercised exactly as a shell user
would see them."""

import dataclasses
import json

import numpy as np
import pytest

from tapglass import experiments as exp
from tapglass.cli import main, parse_field_argument, parse_law_argument
from tapglass.ensemble import load_instance, save_instance
from tapglass.experiments import Cell, default_config, run_experiment
from tapglass.fixed_point import constant_field, solve_fixed_point
from tapglass.spectral import semicircle


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------- parsing


def test_parse_law_argument_forms(tmp_path):
    assert parse_law_argument("semicircle").kind == "semicircle"
    # the shorthand is the atomic law at +-1
    assert parse_law_argument("two_point").atoms.tolist() == [[-1.0, 0.5], [1.0, 0.5]]
    spec = {"kind": "empirical", "locations": [-1.0, 1.0], "weights": [0.5, 0.5]}
    law = parse_law_argument(json.dumps(spec))
    assert law.kind == "empirical"
    path = tmp_path / "law.json"
    path.write_text(json.dumps(spec))
    assert parse_law_argument(str(path)).kind == "empirical"


def test_parse_field_argument_forms():
    f = parse_field_argument('{"kind": "constant", "value": 0.7}')
    assert f.kind == "constant"
    assert f.value == 0.7
    g = parse_field_argument('{"kind": "gaussian", "mean": 0.5, "sd": 1.0}')
    assert g.kind == "gaussian"
    assert g.value == 0.5 and g.sd == 1.0
    # "value" is the constant field's key; a gaussian spec must say "mean"
    with pytest.raises(ValueError, match="value"):
        parse_field_argument('{"kind": "gaussian", "value": 0.5, "sd": 1.0}')
    with pytest.raises(ValueError, match="atoms"):
        parse_field_argument('{"kind": "empirical", "atoms": [[0.5, 0.6], [1.5, 0.4]]}')
    with pytest.raises(ValueError, match="JSON object"):
        parse_field_argument("1.0")


# ---------------------------------------------------------------- commands


def test_fixed_point_json_matches_solver(capsys):
    rc, out = _run(capsys, ["fixed-point", "--beta", "0.15"])
    assert rc == 0
    payload = json.loads(out)
    fp = solve_fixed_point(0.15, semicircle(), constant_field(1.0))
    assert payload["q_star"] == pytest.approx(fp.q_star, abs=1e-15)
    assert payload["psi_rs"] == pytest.approx(fp.psi_rs, abs=1e-15)
    assert payload["converged"] is True


def test_long_inline_law_matches_the_same_spec_in_a_file(capsys, tmp_path):
    # 60 atoms make a spec far longer than a file name may be
    locations = np.linspace(-1.7, 1.7, 60)
    spec = json.dumps({"kind": "empirical", "locations": locations.tolist(),
                       "weights": np.full(60, 1.0 / 60).tolist()})
    assert len(spec) > 255
    path = tmp_path / "law.json"
    path.write_text(spec)
    rc, inline = _run(capsys, ["fixed-point", "--beta", "0.15", "--law", spec])
    assert rc == 0
    rc, from_file = _run(capsys, ["fixed-point", "--beta", "0.15", "--law", str(path)])
    assert rc == 0
    assert inline == from_file
    assert json.loads(inline)["converged"] is True
    # neither a file nor JSON is still a usage error
    assert main(["fixed-point", "--beta", "0.15", "--law", "x" * 300]) == 2


def test_fixed_point_with_atomic_law(capsys):
    law = '{"kind": "empirical", "locations": [-1.0, 0.0, 2.0], "weights": [0.3, 0.3, 0.4]}'
    rc, out = _run(capsys, ["fixed-point", "--beta", "0.15", "--law", law])
    assert rc == 0
    assert json.loads(out)["q_star"] == pytest.approx(0.576078, abs=1e-6)


def test_amp_run_csv_contract(capsys):
    rc, out = _run(
        capsys,
        ["amp-run", "--n", "100", "--beta", "0.15", "--seed", "3", "--t-max", "4"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,y_diff_sq,m_norm_sq_over_n,tap_residual"
    assert len(lines) == 5
    assert "np.float64" not in out
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert all(np.isfinite(float(x)) for x in first[1:])


def test_gibbs_exact_roundtrip_through_saved_instance(capsys, tmp_path):
    inst_path = tmp_path / "inst.npz"
    rc, out = _run(
        capsys,
        ["gibbs-exact", "--n", "8", "--beta", "0.15", "--seed", "5",
         "--save-instance", str(inst_path)],
    )
    assert rc == 0
    direct = json.loads(out)
    inst = load_instance(inst_path)
    assert inst.n == 8

    rc2, out2 = _run(capsys, ["gibbs-exact", "--load-instance", str(inst_path)])
    assert rc2 == 0
    reloaded = json.loads(out2)
    assert reloaded["log_z_per_site"] == pytest.approx(
        direct["log_z_per_site"], abs=1e-14
    )
    assert reloaded["magnetization"] == direct["magnetization"]


def test_saved_instance_reloads_from_a_suffixless_path(capsys, tmp_path):
    # the instance goes to exactly the path given, with no .npz appended
    inst_path = tmp_path / "inst"
    argv = ["gibbs-exact", "--n", "6", "--seed", "2"]
    rc, direct = _run(capsys, [*argv, "--save-instance", str(inst_path)])
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["inst"]
    rc, reloaded = _run(capsys, ["gibbs-exact", "--load-instance", str(inst_path)])
    assert rc == 0
    assert json.loads(reloaded)["magnetization"] == json.loads(direct)["magnetization"]


def test_load_instance_names_missing_arrays(capsys, tmp_path):
    # an archive without the instance arrays is bad input, not a runtime failure
    inst_path = tmp_path / "other.npz"
    np.savez(inst_path, n=np.array(6), h=np.zeros(6))
    assert main(["gibbs-exact", "--load-instance", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert "not a saved instance" in err
    assert "missing arrays O, beta, d_bar, seed" in err


def test_load_instance_rejects_npy_file(capsys, tmp_path):
    # np.load gives a bare array for .npy, not an archive: bad input, exit 2
    inst_path = tmp_path / "x.npy"
    np.save(inst_path, np.zeros(3))
    assert main(["gibbs-exact", "--load-instance", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert f"{inst_path} is not a saved instance" in err


def test_gibbs_exact_loaded_instance_reports_no_seed(capsys, tmp_path):
    # the saved file holds only the instance's stream seed, not --seed
    inst_path = tmp_path / "inst.npz"
    rc, out = _run(capsys, ["gibbs-exact", "--n", "8", "--seed", "7",
                            "--save-instance", str(inst_path)])
    assert rc == 0
    saved = json.loads(out)
    assert saved["seed"] == 7
    rc, out = _run(capsys, ["gibbs-exact", "--load-instance", str(inst_path)])
    assert rc == 0
    loaded = json.loads(out)
    assert loaded["seed"] is None
    assert loaded["log_z_per_site"] == saved["log_z_per_site"]


def test_loaded_instance_must_match_law_and_field(capsys, tmp_path):
    # the file holds no laws; its spectrum and quantile field are checked
    inst_path = tmp_path / "inst.npz"
    rc, _ = _run(capsys, ["gibbs-exact", "--n", "8", "--seed", "3",
                          "--save-instance", str(inst_path)])
    assert rc == 0
    for flag, value in [("--law", "two_point"),
                        ("--field", '{"kind": "constant", "value": 0.5}')]:
        assert main(["gibbs-exact", "--load-instance", str(inst_path), flag, value]) == 2
        assert f"{flag} does not match" in capsys.readouterr().err


def test_loaded_iid_field_must_match_field(capsys, tmp_path):
    # an iid field is redrawn from the instance's stored seed and checked
    inst_path = tmp_path / "inst.npz"
    saved_field = '{"kind": "gaussian", "mean": 0.2, "sd": 0.5}'
    common = ["--field-mode", "iid", "--field"]
    rc, saved = _run(capsys, ["gibbs-exact", "--n", "8", "--seed", "3", *common, saved_field,
                              "--save-instance", str(inst_path)])
    assert rc == 0
    rc, loaded = _run(capsys, ["gibbs-exact", "--load-instance", str(inst_path),
                               *common, saved_field])
    assert rc == 0
    assert json.loads(loaded)["log_z_per_site"] == json.loads(saved)["log_z_per_site"]
    other_field = '{"kind": "gaussian", "mean": 1.5, "sd": 0.1}'
    for argv in ([*common, other_field], ["--field", saved_field]):
        assert main(["gibbs-exact", "--load-instance", str(inst_path), *argv]) == 2
        assert "--field does not match" in capsys.readouterr().err


@pytest.mark.parametrize("spoil, message", [
    (lambda o: o @ (np.eye(len(o)) + 0.5 * np.eye(len(o), k=1)), "O is not orthogonal"),
    (lambda o: o * np.r_[-1.0, np.ones(len(o) - 1)], "O must have determinant +1"),
], ids=["non-orthogonal", "det-minus-one"])
def test_gibbs_exact_rejects_loaded_rotation_outside_so_n(capsys, tmp_path, spoil, message):
    inst_path = tmp_path / "inst.npz"
    rc, _ = _run(capsys, ["gibbs-exact", "--n", "8", "--save-instance", str(inst_path)])
    assert rc == 0
    inst = load_instance(inst_path)
    save_instance(dataclasses.replace(inst, O=spoil(inst.O)), inst_path)
    assert main(["gibbs-exact", "--load-instance", str(inst_path)]) == 2
    assert message in capsys.readouterr().err


def _last_amp_step(out):
    _, y_diff_sq, m_norm_sq, residual = out.strip().splitlines()[-1].split(",")
    return {"y_diff_sq": float(y_diff_sq), "m_norm_sq_over_n": float(m_norm_sq),
            "tap_residual": float(residual)}


def _default_cell(kind, n, seed, **settings):
    cfg = dataclasses.replace(default_config(kind), **settings)
    return Cell(cfg, n, cfg.beta[0], seed)


def _solver_metrics(out):
    payload = json.loads(out)
    return {"solver_residual": payload["residual"],
            "solver_converged": payload["solver_converged"],
            "solver_iterations": payload["solver_iterations"]}


def _marginal_max_abs_err(out):
    mags = np.array([float(line.split(",")[1]) for line in out.strip().splitlines()[1:]])
    exact = _default_cell("gibbs_mcmc", 12, 1).exact.magnetization
    return {"marginal_max_abs_err": float(np.abs(mags - exact).max())}


# (argv, runner kind, the runner metrics the output gives) at the cell of
# seed 1 in the kind's default config: n = 12, beta = 0.15, t_max = 8, 8 chains
CLI_RUNNER_CASES = {
    "gibbs-exact": (["gibbs-exact", "--n", "12", "--seed", "1"], "gibbs_exact",
                    lambda out: {"log_z_per_site": json.loads(out)["log_z_per_site"]}),
    "amp-run": (["amp-run", "--n", "12", "--beta", "0.15", "--seed", "1", "--t-max", "8"],
                "amp", _last_amp_step),
    "tap-residual": (["tap-residual", "--n", "12", "--beta", "0.15", "--seed", "1",
                      "--source", "amp", "--t-max", "8"],
                     "amp", lambda out: {"tap_residual": json.loads(out)["residual"]}),
    "tap-residual-solver": (["tap-residual", "--n", "12", "--beta", "0.15", "--seed", "1",
                             "--source", "solver"], "tap_verify", _solver_metrics),
    "gibbs-mcmc": (["gibbs-mcmc", "--n", "12", "--seed", "1", "--chains", "8"],
                   "gibbs_mcmc", _marginal_max_abs_err),
}


@pytest.mark.parametrize("command", list(CLI_RUNNER_CASES))
def test_cli_matches_runner_row(capsys, command):
    # the CLI and the runner draw a cell's objects the same way, bit for bit
    argv, kind, read = CLI_RUNNER_CASES[command]
    rc, out = _run(capsys, argv)
    assert rc == 0
    row = next(r for r in run_experiment(default_config(kind)) if r.seed == 1)
    values = read(out)
    assert values == {key: row.metrics[key] for key in values}


def test_gibbs_mcmc_csv_contract(capsys):
    rc, out = _run(
        capsys,
        ["gibbs-mcmc", "--n", "10", "--beta", "0.12", "--seed", "1",
         "--chains", "6", "--sweeps", "40", "--burn-in", "10"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "site,magnetization,standard_error"
    assert len(lines) == 11
    assert "np.float64" not in out
    for line in lines[1:]:
        site, mag, se = line.split(",")
        assert -1.0 <= float(mag) <= 1.0
        assert float(se) >= 0.0


def test_gibbs_mcmc_prints_time_averaged_marginals(capsys):
    # the time average, not the final states, estimates single-site marginals
    rc, out = _run(capsys, ["gibbs-mcmc", "--n", "10", "--seed", "3", "--chains", "5",
                            "--sweeps", "30", "--burn-in", "10"])
    assert rc == 0
    reps = _default_cell("gibbs_mcmc", 10, 3, sweeps=30, burn_in=10).chains(5)
    expected = [f"{i},{float(m)!r},{float(se)!r}"
                for i, (m, se) in enumerate(zip(*reps.marginals()))]
    assert out.strip().splitlines()[1:] == expected


def test_gibbs_mcmc_rejects_thin(capsys):
    # every sweep after burn-in enters the time average, so there is no --thin
    with pytest.raises(SystemExit) as exc:
        main(["gibbs-mcmc", "--n", "6", "--thin", "2"])
    assert exc.value.code == 2


def test_gibbs_mcmc_loaded_instance_with_same_seed_is_identical(capsys, tmp_path):
    # the chains draw from --seed, which the saved file does not hold
    inst_path = tmp_path / "inst.npz"
    chain = ["--seed", "7", "--chains", "4", "--sweeps", "20", "--burn-in", "5"]
    rc, saved = _run(capsys, ["gibbs-mcmc", "--n", "8", *chain,
                              "--save-instance", str(inst_path)])
    assert rc == 0
    rc, loaded = _run(capsys, ["gibbs-mcmc", "--load-instance", str(inst_path), *chain])
    assert rc == 0
    assert loaded == saved


@pytest.mark.parametrize("command", ["gibbs-exact", "gibbs-mcmc"])
def test_load_and_save_instance_are_exclusive(capsys, tmp_path, command):
    saved = tmp_path / "saved.npz"
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "6", "--load-instance", str(tmp_path / "in.npz"),
              "--save-instance", str(saved)])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not saved.exists()


def test_tap_residual_json_keys(capsys):
    rc, out = _run(
        capsys,
        ["tap-residual", "--n", "80", "--beta", "0.15", "--seed", "2",
         "--source", "amp"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"residual", "t", "beta", "n", "seed", "source"}
    assert payload["source"] == "amp"
    assert payload["residual"] < 1e-6


def test_tap_residual_solver_json_keys(capsys):
    rc, out = _run(
        capsys,
        ["tap-residual", "--n", "80", "--beta", "0.15", "--seed", "2",
         "--source", "solver"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"residual", "t", "beta", "n", "seed", "source",
                            "solver_converged", "solver_iterations"}
    assert payload["source"] == "solver"
    assert payload["solver_converged"] == 1
    assert 0 < payload["solver_iterations"] <= 20
    assert payload["residual"] < 1e-18


@pytest.mark.parametrize("source, t", [("amp", 7), ("exact", None), ("solver", None)])
def test_tap_residual_reports_steps_only_for_amp(capsys, source, t):
    # exact enumeration and the damped solver run no AMP, so no step count
    rc, out = _run(capsys, ["tap-residual", "--n", "10", "--beta", "0.15", "--seed", "2",
                            "--t-max", "7", "--source", source])
    assert rc == 0
    payload = json.loads(out)
    assert payload["t"] == t and payload["source"] == source


def test_saturating_field_at_beta_zero_exits_2(capsys):
    # tanh(20)^2 rounds to 1: bad input, not a ZeroDivisionError
    field = '{"kind": "constant", "value": 20}'
    assert main(["fixed-point", "--beta", "0", "--field", field]) == 2
    assert "1 - q* = 0" in capsys.readouterr().err


def test_wide_gaussian_field_prints_finite_psi_rs(capsys):
    field = '{"kind": "gaussian", "mean": 0, "sd": 100}'
    rc, out = _run(capsys, ["fixed-point", "--beta", "0.2", "--field", field])
    assert rc == 0
    assert np.isfinite(json.loads(out)["psi_rs"])


def test_out_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    path = tmp_path / "fp.json"
    rc, out = _run(capsys, ["fixed-point", "--beta", "0.1", "--out", str(path)])
    assert rc == 0
    assert out == ""
    assert json.loads(path.read_text())["converged"] is True


# ---------------------------------------------------------------- experiment


def test_experiment_writes_csv_and_prints_summary(capsys, tmp_path):
    cfg = {
        "kind": "fixed_point",
        "n": [8],
        "beta": [0.1, 0.15],
        "seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = tmp_path / "rows.csv"
    rc, out = _run(
        capsys, ["experiment", "--config", str(cfg_path), "--out", str(csv_path)]
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["rows"] == 2
    assert summary["errors"] == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("schema_version,kind,n,beta,seed")
    assert len(lines) == 3


def test_experiment_without_out_prints_csv(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"kind": "fixed_point", "n": [8], "beta": [0.15], "seeds": [0]})
    )
    rc, out = _run(capsys, ["experiment", "--config", str(cfg_path)])
    assert rc == 0
    assert out.splitlines()[0].startswith("schema_version,kind,")


# ---------------------------------------------------------------- exit codes


def test_bad_config_file_exits_2(capsys, tmp_path):
    # concentration is a removed kind and mc_samples a removed key; a config
    # echoed before their removal is rejected, not half run
    bad = tmp_path / "bad.json"
    for body in ('{"kind": "nonsense", "n": [8], "beta": [0.1], "seeds": [0]}',
                 '{"kind": "concentration", "n": [8], "beta": [0.1], "seeds": [0]}',
                 '{"kind": "se_check", "n": [8], "beta": [0.1], "seeds": [0], '
                 '"mc_samples": 200000}'):
        bad.write_text(body)
        rc, _ = _run(capsys, ["experiment", "--config", str(bad)])
        assert rc == 2


@pytest.mark.parametrize("key, values", [
    ("n", [12, 12]), ("beta", [0.15, 0.15]), ("seeds", [1, 1]), ("n_replicas", [8, 8]),
], ids=["n", "beta", "seeds", "n_replicas"])
def test_config_with_repeated_grid_value_exits_2(capsys, tmp_path, key, values):
    # a repeated value would run the same cell twice and count it twice
    config = {"kind": "fixed_point", "n": [12], "beta": [0.15], "seeds": [1], key: values}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(bad)]) == 2
    assert f"{key} repeats a value" in capsys.readouterr().err


@pytest.mark.parametrize("keys, flags, message", [
    ({"kind": "gibbs_exact", "n": [30]}, None, "capped at n = 24"),
    ({"kind": "band", "n": [26]}, None, "capped at n = 24"),
    ({"kind": "gibbs_mcmc", "n": [2100]}, None, "capped at n = 2048"),
    ({"kind": "amp", "beta": [0.0]}, None, "need beta > 0"),
    ({"kind": "gibbs_mcmc", "n_replicas": [0]}, ["--chains", "0"], "n_replicas must be >= 1"),
    ({"kind": "gibbs_mcmc", "sweeps": 0}, ["--sweeps", "0"], "need sweeps >= 1"),
], ids=["gibbs_exact-n30", "band-n26", "gibbs_mcmc-n2100", "amp-beta0",
        "gibbs_mcmc-chains0", "gibbs_mcmc-sweeps0"])
def test_config_that_cannot_run_exits_2(capsys, tmp_path, keys, flags, message):
    # each of these would be accepted and then fail in every row; the same
    # value as a gibbs-mcmc flag is a one-cell config's key, checked alike
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": [12], "beta": [0.15], "seeds": [0], **keys}))
    runs = [["experiment", "--config", str(bad)]]
    if flags:
        runs.append(["gibbs-mcmc", "--n", "12", *flags])
    for argv in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_config_with_law_name_exits_2(capsys, tmp_path):
    # the law of a config is a JSON object; the name shorthand is the CLI's
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fixed_point", "n": [8], "beta": [0.1], "seeds": [0], '
                   '"law": "semicircle"}')
    rc = main(["experiment", "--config", str(bad)])
    assert rc == 2
    assert "law must be a JSON object" in capsys.readouterr().err


def test_malformed_json_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _ = _run(capsys, ["experiment", "--config", str(bad)])
    assert rc == 2


def test_missing_config_file_exits_2(capsys, tmp_path):
    rc, _ = _run(capsys, ["experiment", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_bad_law_argument_exits_2(capsys):
    rc, _ = _run(capsys, ["fixed-point", "--beta", "0.15", "--law", "wigner"])
    assert rc == 2


def test_bad_field_argument_exits_2(capsys):
    rc, _ = _run(capsys, ["gibbs-mcmc", "--n", "6", "--field", "{not json"])
    assert rc == 2


def test_oversized_enumeration_exits_2(capsys, monkeypatch):
    # the flags make a one-cell config, whose size cap is checked before any
    # instance is drawn (a 2100 x 2100 rotation, for gibbs-mcmc)
    built = []
    monkeypatch.setattr(exp, "build_instance", lambda *args, **kwargs: built.append(args))
    for command, n, cap in [("gibbs-exact", "30", 24), ("gibbs-mcmc", "2100", 2048)]:
        assert main([command, "--n", n, "--beta", "0.15", "--seed", "0"]) == 2
        assert f"capped at n = {cap}" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("command", ["gibbs-exact", "gibbs-mcmc"])
def test_non_finite_beta_exits_2(capsys, command):
    assert main([command, "--n", "8", "--beta", "inf"]) == 2
    assert "beta must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["inf", "nan"])
@pytest.mark.parametrize("command, argv", [
    ("fixed-point", []),
    ("amp-run", ["--n", "8"]),
    ("tap-residual", ["--n", "8"]),
])
def test_non_finite_beta_is_an_invalid_input(capsys, command, argv, beta):
    assert main([command, *argv, "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert "beta must be finite and >= 0" in err
    assert "R-transform domain" not in err


def test_non_finite_field_exits_2(capsys):
    field = '{"kind": "gaussian", "mean": 0.0, "sd": Infinity}'
    assert main(["amp-run", "--n", "8", "--beta", "0.15", "--field", field]) == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert "R-transform domain" not in err


def test_non_finite_config_value_exits_2(capsys, tmp_path):
    # json.load accepts NaN and Infinity; the config check must not
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"kind": "gibbs_exact", "n": [8], "beta": [NaN, Infinity], '
                        '"seeds": [0]}')
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beta must be finite" in captured.err


def test_experiment_with_all_rows_failing_exits_1(capsys, tmp_path, monkeypatch):
    def failing(instance, *args):
        raise ValueError("no enumeration")

    monkeypatch.setattr(exp.gibbs_mod, "exact_gibbs", failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"kind": "gibbs_exact", "n": [8], "beta": [0.15],
                    "seeds": [0]})
    )
    rc, _ = _run(capsys, ["experiment", "--config", str(cfg_path)])
    assert rc == 1
