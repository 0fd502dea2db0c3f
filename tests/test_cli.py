"""End-to-end tests for the command line entry points, driven through main()
so exit codes and stdout contracts are exercised exactly as a shell user
would see them."""

import json

import numpy as np
import pytest

from tapglass.cli import main, parse_field_argument, parse_law_argument
from tapglass.ensemble import load_instance
from tapglass.experiments import default_config, run_experiment
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


def _last_amp_step(out):
    _, y_diff_sq, m_norm_sq, residual = out.strip().splitlines()[-1].split(",")
    return {"y_diff_sq": float(y_diff_sq), "m_norm_sq_over_n": float(m_norm_sq),
            "tap_residual": float(residual)}


def _mean_abs_site_magnetization(out):
    mags = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    return {"mean_abs_mag": float(np.abs(np.array(mags)).mean())}


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
    "gibbs-mcmc": (["gibbs-mcmc", "--n", "12", "--seed", "1", "--chains", "8"],
                   "gibbs_mcmc", _mean_abs_site_magnetization),
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
         "--chains", "6", "--sweeps", "40", "--burn-in", "10", "--thin", "2"],
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


def test_experiment_threads_flag_matches_serial(capsys, tmp_path):
    cfg = {"kind": "amp", "n": [16, 24], "beta": [0.15], "seeds": [0, 1],
           "t_max": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    rc_a, _ = _run(capsys, ["experiment", "--config", str(cfg_path),
                            "--out", str(out_a)])
    rc_b, _ = _run(capsys, ["experiment", "--config", str(cfg_path),
                            "--out", str(out_b), "--threads", "4"])
    assert rc_a == rc_b == 0

    def stable(text):
        lines = []
        for i, line in enumerate(text.splitlines()):
            parts = line.split(",")
            if i > 0:
                parts[-2] = ""
            lines.append(",".join(parts))
        return lines

    assert stable(out_a.read_text()) == stable(out_b.read_text())


# ---------------------------------------------------------------- exit codes


def test_bad_config_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nonsense", "n": [8], "beta": [0.1], "seeds": [0]}')
    rc, _ = _run(capsys, ["experiment", "--config", str(bad)])
    assert rc == 2


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


def test_oversized_enumeration_exits_2(capsys):
    # the size guard raises ValueError, which lands in the usage-error bucket
    rc, _ = _run(capsys, ["gibbs-exact", "--n", "30", "--beta", "0.15",
                          "--seed", "0"])
    assert rc == 2


def test_experiment_with_all_rows_failing_exits_1(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"kind": "gibbs_exact", "n": [30], "beta": [0.15],
                    "seeds": [0]})
    )
    rc, _ = _run(capsys, ["experiment", "--config", str(cfg_path)])
    assert rc == 1
