"""Acceptance checklist for the package.

Each test pins one headline property of the implementation at its stated
tolerance, so `pytest -v tests/test_acceptance.py` reads as a pass/fail
checklist. Randomized checks use the frozen stream-seed scheme from
tapglass.experiments (or fixed literal seeds) and are run as-is: a failure
here is reported, never rerolled.
"""

import numpy as np
import pytest
from scipy import stats

from tapglass.amp import run_amp
from tapglass.ensemble import (
    ModelInstance,
    build_instance,
    haar_so,
)
from tapglass.experiments import (
    STREAM_AMP,
    STREAM_INSTANCE,
    STREAM_MCMC,
    config_from_dict,
    run_experiment,
    stream_seed,
)
from tapglass.fixed_point import (
    constant_field,
    product_fixed_point,
    solve_fixed_point,
)
from tapglass.gibbs import (
    BandSpec,
    exact_gibbs,
    glauber_sample,
)
from tapglass.spectral import (
    RescaledLaw,
    empirical_atoms,
    semicircle,
    two_point,
)
from tapglass.tap import tap_residual

from oracles import (
    conditional_haar_so,
    haar_orthogonal,
    has_pair_margin,
    numeric_r_transform,
    zero_field_log_partition,
)

LAW = semicircle()
FIELD = constant_field(1.0)


def _instance(n, beta, master_seed):
    return build_instance(
        n, beta, LAW, FIELD, seed=stream_seed(master_seed, n, beta, STREAM_INSTANCE)
    )


def test_01_transform_round_trips_and_closed_forms():
    laws = [
        semicircle(),
        two_point(),
        empirical_atoms([-1.0, -0.2, 1.4], [0.4, 0.3, 0.3]),
    ]
    for law in laws:
        z_grid = law.d_plus + np.linspace(0.05, 4.0, 50)
        for z in z_grid:
            w = law.cauchy_transform(z)
            assert abs(law.cauchy_inverse(w) - z) < 1e-10
        w_lo = law.cauchy_transform(law.d_plus + 4.0)
        w_hi = law.cauchy_transform(law.d_plus + 0.05)
        for w in np.linspace(w_lo, w_hi, 50):
            z = law.cauchy_inverse(w)
            assert abs(law.cauchy_transform(z) - w) < 1e-10

    # the semicircle R-transform is the identity; force the generic
    # inversion route so this is not just the closed form checking itself
    for w in np.linspace(0.05, 0.95, 50):
        assert abs(numeric_r_transform(semicircle(), w) - w) < 1e-8

    # two-point R-transform against its closed form, analytic and numeric
    for w in np.linspace(0.1, 3.0, 50):
        closed = (np.sqrt(1.0 + 4.0 * w * w) - 1.0) / (2.0 * w)
        assert abs(two_point().r_transform(w) - closed) < 1e-10
        assert abs(numeric_r_transform(two_point(), w) - closed) < 1e-10

    # rescaled transforms against independently written closed forms
    beta = 0.3
    bar = RescaledLaw(semicircle(), beta)
    for z in np.linspace(2.0 * beta + 0.1, 4.0, 50):
        closed = (z - np.sqrt(z * z - 4.0 * beta * beta)) / (2.0 * beta * beta)
        assert abs(bar.cauchy_transform(z) - closed) < 1e-10
    for w in np.linspace(0.05, 2.0, 50):
        assert abs(bar.r_transform(w) - beta * beta * w) < 1e-10
    bar2 = RescaledLaw(two_point(), beta)
    for w in np.linspace(0.05, 2.0, 50):
        closed = (np.sqrt(1.0 + 4.0 * beta * beta * w * w) - 1.0) / (2.0 * w)
        assert abs(bar2.r_transform(w) - closed) < 1e-10


def test_02_fixed_point_identities_and_scan_oracle():
    beta = 0.2
    fp = solve_fixed_point(beta, semicircle(), constant_field(1.0))
    assert fp.converged
    q, sig_sq = fp.q_star, fp.sigma_star_sq

    assert abs(fp.kappa_star * fp.delta_star - sig_sq) < 1e-12
    assert abs(fp.delta_star - (q / (1.0 - q) ** 2 - sig_sq)) < 1e-8

    bar = RescaledLaw(semicircle(), beta)
    assert abs(bar.cauchy_transform(fp.lambda_star) - (1.0 - q)) < 1e-8

    # brute-force scan of the scalar self-consistency map on a 1e-5 grid,
    # with quadrature nodes and the effective variance written out locally
    nodes, weights = np.polynomial.hermite.hermgauss(61)
    z = np.sqrt(2.0) * nodes
    wts = weights / np.sqrt(np.pi)
    q_grid = np.arange(1e-5, 1.0, 1e-5)
    sigma = beta * np.sqrt(q_grid)
    mapped = np.tanh(1.0 + sigma[:, None] * z[None, :]) ** 2 @ wts
    q_scan = q_grid[np.argmin(np.abs(mapped - q_grid))]
    assert abs(q - q_scan) < 1e-4


def test_03_decoupled_limit_is_exact():
    n = 10
    rng = np.random.default_rng(7)
    h = rng.normal(0.5, 0.4, size=n)
    inst = ModelInstance(
        n=n, beta=0.0, d_bar=np.zeros(n), O=np.eye(n), h=h, seed=0
    )
    result = exact_gibbs(inst)
    assert abs(result.log_z / n - np.mean(np.log(2.0 * np.cosh(h)))) < 1e-12
    assert np.abs(result.magnetization - np.tanh(h)).max() < 1e-12

    assert abs(product_fixed_point(constant_field(0.0)).psi_rs - np.log(2.0)) < 1e-10
    proxy = solve_fixed_point(1e-6, semicircle(), constant_field(0.0))
    assert abs(proxy.psi_rs - np.log(2.0)) < 1e-4


def test_04_free_energy_density_matches_prediction():
    beta = 0.15
    fp = solve_fixed_point(beta, LAW, FIELD)
    gaps, z_scores, report = {}, {}, []
    for n in (14, 16, 18):
        vals = [
            exact_gibbs(_instance(n, beta, s)).log_z / n for s in range(20)
        ]
        gap = float(np.mean(vals)) - fp.psi_rs
        se = float(np.std(vals, ddof=1)) / np.sqrt(len(vals))
        gaps[n] = abs(gap)
        z_scores[n] = gap / se
        report.append(f"n={n}: gap {gap:+.3e}, se {se:.3e}, z {gap / se:+.2f}")
    assert all(g < 0.05 for g in gaps.values()), f"gaps {gaps}"
    # At n <= 18 the finite-size gap is below the Monte Carlo error of a
    # 20-seed mean, so its ordering across n is not decidable; agreement
    # with psi_rs is asserted in standard-error units instead.
    assert all(abs(z) < 3.0 for z in z_scores.values()), (
        "mean (1/n) log Z over 20 seeds is 3 or more standard errors from "
        f"psi_rs = {fp.psi_rs:.6f}: " + "; ".join(report)
    )


def test_05_iterate_gram_matrices_match_predictions():
    n, beta, t_max = 2000, 0.15, 8
    fp = solve_fixed_point(beta, LAW, FIELD)
    inst = _instance(n, beta, 0)
    traj = run_amp(inst, fp, t_max=t_max,
                   seed=stream_seed(0, n, beta, STREAM_AMP))
    assert np.abs(np.diag(traj.gram_xx) - fp.delta_star).max() < 0.05
    assert np.abs(np.diag(traj.gram_yy) - fp.sigma_star_sq).max() < 0.05
    assert np.abs(traj.gram_xy).max() < 0.05
    assert abs(traj.m_norm_sq[-1] - fp.q_star) < 5.0 / np.sqrt(n)


def test_06_magnetization_matches_iterates_and_self_consistency():
    n = 16
    results = {}
    for beta in (0.15, 0.08):
        fp = solve_fixed_point(beta, LAW, FIELD)
        dists, resids = [], []
        for s in range(20):
            inst = _instance(n, beta, s)
            mag = exact_gibbs(inst).magnetization
            traj = run_amp(inst, fp, t_max=50,
                           seed=stream_seed(s, n, beta, STREAM_AMP))
            dists.append(np.sum((mag - traj.M[:, -1]) ** 2) / n)
            resids.append(tap_residual(inst, fp, mag))
        results[beta] = (float(np.mean(dists)), float(np.mean(resids)))
    assert results[0.15][0] < 0.02
    assert results[0.15][1] < 0.01
    assert results[0.08][0] < results[0.15][0]
    assert results[0.08][1] < results[0.15][1]


def test_07_replica_average_concentration_rate():
    cfg = config_from_dict({
        "kind": "gibbs_mcmc",
        "n": [12],
        "beta": [0.15],
        "seeds": list(range(10)),
        "n_replicas": [4, 16, 64, 256],
    })
    rows = run_experiment(cfg)
    assert all(r.error == "" for r in rows)
    counts = (4, 16, 64, 256)
    means = [
        np.mean([r.metrics["replica_distance"] for r in rows if r.n_replicas == c])
        for c in counts
    ]
    slope = np.polyfit(np.log(counts), np.log(means), 1)[0]
    assert -1.3 < slope < -0.7, f"slope {slope:.3f}, means {means}"


def test_08_band_dominates_and_pairs_decorrelate():
    n, beta, delta = 12, 0.15, 0.2
    fp = solve_fixed_point(beta, LAW, FIELD)
    n_replicas = 8
    bound = (1.0 / n_replicas) * (1.0 - fp.q_star) + 4.0 * delta
    for s in (0, 1, 2):
        inst = _instance(n, beta, s)
        m = run_amp(inst, fp, t_max=50,
                    seed=stream_seed(s, n, beta, STREAM_AMP)).M[:, -1]
        band = BandSpec(center=m, delta=delta, eta=4.0 * delta)
        assert has_pair_margin(band)

        exact = exact_gibbs(inst, band=band)
        log_z, log_zb, log_zc = exact.log_z, exact.log_z_band, exact.log_z_pairs
        assert (log_z - log_zb) / n < 0.05
        assert log_zc / n < 2.0 * log_zb / n

        reps = glauber_sample(inst, sweeps=300, burn_in=100,
                              n_chains=n_replicas,
                              seed=stream_seed(s, n, beta, STREAM_MCMC))
        assert np.sum((reps.samples.mean(axis=0) - m) ** 2) / n < bound


def test_09_orthogonal_samplers_are_correct():
    rng = np.random.default_rng(0)
    for _ in range(50):
        o = haar_so(20, rng)
        assert np.abs(o.T @ o - np.eye(20)).max() < 1e-10
        assert abs(np.linalg.det(o) - 1.0) < 1e-10

    # the two-column action of the determinant-fixed sampler must match the
    # unconstrained one; compare a scalar of the 2-frame by a two-sample KS
    rng_so = np.random.default_rng(101)
    rng_o = np.random.default_rng(202)
    so_stat = np.empty(10_000)
    o_stat = np.empty(10_000)
    for i in range(10_000):
        row = haar_so(6, rng_so)[0, :2]
        so_stat[i] = row[0] ** 2 + row[1] ** 2
        row = haar_orthogonal(6, rng_o)[0, :2]
        o_stat[i] = row[0] ** 2 + row[1] ** 2
    assert stats.ks_2samp(so_stat, o_stat).pvalue > 0.01

    n, k = 8, 2
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(10_000):
        b = np.linalg.qr(rng.standard_normal((n, k)))[0]
        a = haar_so(n, rng) @ b
        o = conditional_haar_so(a, b, seed=trial)
        worst = max(worst, np.abs(o @ b - a).max())
        if trial % 500 == 0:
            assert abs(np.linalg.det(o) - 1.0) < 1e-10
    assert worst < 1e-10


def test_10_sampler_matches_exact_distribution():
    beta = 0.15

    # full state histogram at n = 4 against directly enumerated weights
    n = 4
    inst = _instance(n, beta, 0)
    jbar = inst.dense_coupling()
    states = np.array(
        [[1.0 if (idx >> j) & 1 else -1.0 for j in range(n)]
         for idx in range(2 ** n)]
    )
    energies = 0.5 * np.einsum("si,ij,sj->s", states, jbar, states) + states @ inst.h
    probs = np.exp(energies - energies.max())
    probs /= probs.sum()

    n_chains = 4096
    reps = glauber_sample(inst, sweeps=240, burn_in=120,
                          n_chains=n_chains,
                          seed=stream_seed(0, n, beta, STREAM_MCMC))
    bits = ((reps.samples + 1) // 2).astype(int)
    counts = np.bincount(bits @ (1 << np.arange(n)), minlength=2 ** n)
    freq = counts / n_chains
    se = np.sqrt(probs * (1.0 - probs) / n_chains)
    dev = np.abs(freq - probs) / se
    assert np.all(dev <= 3.0), f"worst state deviation {dev.max():.2f} SE"

    # site marginals at n = 10 from time averages
    n = 10
    inst = _instance(n, beta, 0)
    exact_mag = exact_gibbs(inst).magnetization
    reps = glauber_sample(inst, sweeps=600, burn_in=100, n_chains=128,
                          seed=stream_seed(0, n, beta, STREAM_MCMC))
    mean, _ = reps.marginals()
    assert np.abs(mean - exact_mag).max() < 0.02


def test_11_zero_field_free_energy_tells_laws_apart():
    # At zero field q* = 0, the spread of log Z / n falls like 1/n, and the
    # finite-size gap is c/n: a weighted fit of the size means on (1, 1/n)
    # pins psi_rs, which this checks through r_integral and enumeration.
    # The semicircle's log Z / n spreads wider, so it takes more instances:
    # over four disjoint seed sets its intercept lay 4.2-7.6 SE from the
    # two-point psi_rs with 40 instances per size, 2.2-7.3 SE with 20.
    beta, sizes, field = 0.6, (14, 18, 22), constant_field(0.0)
    laws = {"semicircle": (semicircle(), 40), "two_point": (two_point(), 20)}
    psi = {name: solve_fixed_point(beta, law, field).psi_rs for name, (law, _) in laws.items()}
    for name, (law, count) in laws.items():
        means, ses = [], []
        for n in sizes:
            vals = [
                exact_gibbs(build_instance(
                    n, beta, law, field, seed=stream_seed(s, n, beta, STREAM_INSTANCE)
                )).log_z / n
                for s in range(count)
            ]
            means.append(np.mean(vals))
            ses.append(np.std(vals, ddof=1) / np.sqrt(count))
        x = np.column_stack([np.ones(len(sizes)), 1.0 / np.array(sizes)])
        w = 1.0 / np.array(ses) ** 2
        cov = np.linalg.inv(x.T @ (w[:, None] * x))
        intercept = (cov @ (x.T @ (w * np.array(means))))[0]
        z = {other: (intercept - value) / np.sqrt(cov[0, 0]) for other, value in psi.items()}
        report = f"{name}: intercept {intercept:.5f}, z against each psi_rs {z}"
        assert abs(z[name]) < 3.0, report
        assert all(abs(v) > 3.0 for other, v in z.items() if other != name), report


def test_12_zero_field_log_partition_is_exact_at_finite_n():
    # At zero field E_O Z is a rank-one spherical integral and Jensen's gap
    # to E log Z is small, so log E_O Z predicts the mean of enumeration's
    # log Z at each n with no fitted constant.  One set of rotations serves
    # both laws.  Over four disjoint sets of 40 seeds the mean lay -1.4 to
    # +2.5 SE from its own law's value and 4.3 SE or more from the other's.
    beta, field, seeds = 0.6, constant_field(0.0), range(1000, 1040)
    laws = {"semicircle": semicircle(), "two_point": two_point()}
    for n in (14, 18, 22):
        target = {name: zero_field_log_partition(beta * law.quantiles(n))
                  for name, law in laws.items()}
        for name, law in laws.items():
            vals = [exact_gibbs(build_instance(n, beta, law, field, seed=s)).log_z
                    for s in seeds]
            se = np.std(vals, ddof=1) / np.sqrt(len(vals))
            z = {other: (np.mean(vals) - value) / se for other, value in target.items()}
            report = f"n={n}, {name}: z against each log E_O Z {z}"
            assert abs(z[name]) < 3.0, report
            assert all(abs(v) > 3.0 for other, v in z.items() if other != name), report
