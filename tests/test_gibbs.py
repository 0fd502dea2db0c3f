"""Gibbs layer: enumeration against naive listings, band sums, Glauber sampling."""

import threading

import numpy as np
import pytest
from scipy.special import logsumexp

from tapglass import gibbs
from tapglass.ensemble import ModelInstance, build_instance, haar_so
from tapglass.fixed_point import constant_field, gaussian_field
from tapglass.gibbs import (
    _CHAIN_CHUNK,
    _SWEEP_BLOCK_ELEMENTS,
    MAX_MCMC_DENSE_N,
    BandSpec,
    ReplicaSet,
    estimate_magnetization,
    exact_gibbs,
    glauber_sample,
    in_band,
    replica_geometry_report,
    restricted_logZ_band,
    restricted_logZ_nonorth_pairs,
    sampled_logZ_nonorth_pairs,
)
from tapglass.spectral import semicircle


def _naive_listing(instance):
    """Independent reference: explicit state listing with library logsumexp."""
    n = instance.n
    j = instance.dense_coupling()
    states = (((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(float)
    energies = 0.5 * np.einsum("ij,jk,ik->i", states, j, states) + states @ instance.h
    log_z = float(logsumexp(energies))
    weights = np.exp(energies - log_z)
    mag = weights @ states
    return states, energies, log_z, mag


def _diag_instance(n, d_bar, h, beta=0.1):
    return ModelInstance(
        n=n, beta=beta, d_bar=np.asarray(d_bar, float), O=np.eye(n),
        h=np.asarray(h, float), seed=0,
    )


def test_two_site_hand_oracle():
    # Diagonal couplings reduce to independent sites plus the constant shift:
    # log Z = (a + b)/2 + log 2cosh(h1) + log 2cosh(h2), <sigma_i> = tanh(h_i).
    inst = _diag_instance(2, [0.3, -0.1], [0.4, -0.7])
    res = exact_gibbs(inst)
    expected = 0.5 * (0.3 - 0.1) + np.log(2 * np.cosh(0.4)) + np.log(2 * np.cosh(0.7))
    assert res.log_z == pytest.approx(expected, abs=1e-13)
    assert res.magnetization[0] == pytest.approx(np.tanh(0.4), abs=1e-13)
    assert res.magnetization[1] == pytest.approx(np.tanh(-0.7), abs=1e-13)


def test_rotated_two_site_hand_oracle():
    c, s = np.cos(0.6), np.sin(0.6)
    o = np.array([[c, -s], [s, c]])
    inst = ModelInstance(
        n=2, beta=0.2, d_bar=np.array([0.5, -0.5]), O=o,
        h=np.array([0.2, 0.1]), seed=0,
    )
    j = o.T @ np.diag([0.5, -0.5]) @ o
    vals = []
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            v = np.array([s1, s2], float)
            vals.append(0.5 * v @ j @ v + inst.h @ v)
    assert exact_gibbs(inst).log_z == pytest.approx(logsumexp(vals), abs=1e-13)


def test_enumeration_matches_naive_listing():
    inst = build_instance(8, 0.2, semicircle(), gaussian_field(0.2, 0.6), seed=13)
    _, _, log_z, mag = _naive_listing(inst)
    res = exact_gibbs(inst)
    assert abs(res.log_z - log_z) < 1e-12
    assert np.abs(res.magnetization - mag).max() < 1e-12


def test_enumeration_matches_listing_across_segments():
    # n = 14 spans two blocks of the state listing (each 2^12 low states x 2 high)
    inst = build_instance(14, 0.15, semicircle(), constant_field(1.0), seed=3)
    _, _, log_z, mag = _naive_listing(inst)
    res = exact_gibbs(inst)
    assert abs(res.log_z - log_z) < 1e-11
    assert np.abs(res.magnetization - mag).max() < 1e-11


def test_decoupled_instance_is_exact_product():
    h = np.array([0.9, -0.3, 0.0, 1.2, -0.8, 0.25])
    inst = ModelInstance(n=6, beta=1e-9, d_bar=np.zeros(6), O=haar_so(6, 5), h=h, seed=0)
    res = exact_gibbs(inst)
    assert res.log_z / 6 == pytest.approx(np.mean(np.log(2 * np.cosh(h))), abs=1e-12)
    assert np.abs(res.magnetization - np.tanh(h)).max() < 1e-12


def test_uniform_diagonal_shift_moves_log_z_only():
    # Adding c to every eigenvalue adds c n / 2 to log Z and nothing else,
    # which exercises the max-shifted block reduction end to end.
    base = build_instance(9, 0.2, semicircle(), constant_field(0.5), seed=21)
    c = 7.5
    shifted = ModelInstance(
        n=9, beta=base.beta, d_bar=base.d_bar + c, O=base.O, h=base.h, seed=0
    )
    r0 = exact_gibbs(base)
    r1 = exact_gibbs(shifted)
    assert r1.log_z - r0.log_z == pytest.approx(c * 9 / 2, abs=1e-10)
    assert np.abs(r1.magnetization - r0.magnetization).max() < 1e-12


def test_pair_correlations():
    # n = 12 is the pair cap: the whole state listing is one block
    for inst in (
        build_instance(4, 0.25, semicircle(), constant_field(0.3), seed=2),
        build_instance(12, 0.2, semicircle(), gaussian_field(0.2, 0.6), seed=8),
    ):
        res = exact_gibbs(inst, pair_correlations=True)
        states, energies, log_z, mag = _naive_listing(inst)
        w = np.exp(energies - log_z)
        ref = (states * w[:, None]).T @ states
        assert np.abs(res.pair_correlations - ref).max() < 1e-12
        assert np.allclose(np.diag(res.pair_correlations), 1.0, atol=1e-12)
        assert np.abs(res.pair_correlations - res.pair_correlations.T).max() < 1e-14


def test_enumeration_size_guards():
    inst = build_instance(6, 0.2, semicircle(), constant_field(0.0), seed=1)
    big = build_instance(25, 0.05, semicircle(), constant_field(0.0), seed=1)
    with pytest.raises(ValueError):
        exact_gibbs(big)
    thirteen = build_instance(13, 0.1, semicircle(), constant_field(0.0), seed=1)
    with pytest.raises(ValueError):
        exact_gibbs(thirteen, pair_correlations=True)
    with pytest.raises(ValueError):
        restricted_logZ_nonorth_pairs(
            thirteen, BandSpec(np.zeros(13), 0.2, 0.8)
        )
    del inst


def test_band_mass_monotone_and_saturating():
    inst = build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=7)
    m = exact_gibbs(inst).magnetization
    log_z = exact_gibbs(inst).log_z
    values = [
        restricted_logZ_band(inst, BandSpec(m, d, 1.0)) for d in (0.05, 0.2, 0.6, 2.5)
    ]
    assert np.all(np.diff(values) >= 0)
    assert values[-1] == pytest.approx(log_z, abs=1e-12)  # delta > 2 catches everything
    assert values[0] < log_z


@pytest.mark.parametrize("n", [8, 14])
def test_band_restriction_matches_listing(n):
    # n = 14 sums the band across block boundaries of the state listing
    inst = build_instance(n, 0.2, semicircle(), constant_field(0.8), seed=4)
    states, energies, _, mag = _naive_listing(inst)
    band = BandSpec(mag, 0.25, 1.0)
    keep = np.abs((states - mag) @ mag) / n < 0.25
    expected = float(logsumexp(energies[keep]))
    log_zb = restricted_logZ_band(inst, band)
    assert log_zb == pytest.approx(expected, abs=1e-12)
    assert exact_gibbs(inst, band=band).log_z_band == log_zb


def test_empty_band_gives_minus_inf():
    inst = _diag_instance(6, np.zeros(6), np.zeros(6))
    m = np.full(6, 0.9)
    # sigma . m is a multiple of 1.8 while m . m = 4.86; no state lands within 0.06
    assert restricted_logZ_band(inst, BandSpec(m, 0.01, 1.0)) == -np.inf


def test_nonorth_pairs_match_brute_force():
    inst = build_instance(8, 0.2, semicircle(), constant_field(0.8), seed=4)
    states, energies, _, mag = _naive_listing(inst)
    band = BandSpec(mag, 0.4, 0.3)
    keep = np.abs((states - mag) @ mag) / 8 < band.delta
    sb, eb = states[keep] - mag, energies[keep]
    overlaps = sb @ sb.T / 8
    mask = np.abs(overlaps) > band.eta
    expected = float(logsumexp((eb[:, None] + eb[None, :])[mask]))
    got = restricted_logZ_nonorth_pairs(inst, band)
    assert got == pytest.approx(expected, abs=1e-10)
    # the pair sum can never exceed the full band square
    assert got <= 2 * restricted_logZ_band(inst, band) + 1e-12


def test_nonorth_pairs_empty_cases():
    inst = build_instance(8, 0.15, semicircle(), constant_field(1.0), seed=9)
    m = exact_gibbs(inst).magnetization
    # an absurdly high cut leaves no qualifying pair
    assert restricted_logZ_nonorth_pairs(inst, BandSpec(m, 0.3, 50.0)) == -np.inf
    # an empty band propagates
    inst0 = _diag_instance(6, np.zeros(6), np.zeros(6))
    band = BandSpec(np.full(6, 0.9), 0.01, 0.5)
    assert restricted_logZ_nonorth_pairs(inst0, band) == -np.inf


def test_enumeration_blas_thread_limit():
    # one BLAS thread inside the enumeration, the previous count after it,
    # no change while another thread runs, and the same bits either way
    if gibbs._BLAS_THREADS is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, _ = gibbs._BLAS_THREADS
    before = get()
    seen = gibbs._one_blas_thread(get)()
    assert get() == before
    assert seen == 1
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert gibbs._one_blas_thread(get)() == before
    finally:
        release.set()
        other.join()
    for n in (12, 20):
        inst = build_instance(n, 0.3, semicircle(), constant_field(0.8), seed=2)
        band = BandSpec(exact_gibbs(inst).magnetization, 0.3, 0.1)
        pairs = n <= gibbs.MAX_PAIR_ENUMERATION_N
        limited = gibbs._enumerate(inst, band, pairs)
        unlimited = gibbs._enumerate.__wrapped__(inst, band, pairs)
        assert limited.log_z == unlimited.log_z
        assert limited.log_z_band == unlimited.log_z_band
        assert np.array_equal(limited.magnetization, unlimited.magnetization)
        if pairs:
            assert np.array_equal(limited.pair_correlations, unlimited.pair_correlations)
            assert restricted_logZ_nonorth_pairs(inst, band) == (
                restricted_logZ_nonorth_pairs.__wrapped__(inst, band))


def test_sampled_nonorth_pairs_against_exact():
    inst = build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=12)
    m = exact_gibbs(inst).magnetization
    band = BandSpec(m, 0.5, 0.05)  # wide band, low cut: most pairs qualify
    exact = restricted_logZ_nonorth_pairs(inst, band)
    log_zb = restricted_logZ_band(inst, band)
    replicas = glauber_sample(inst, sweeps=60, burn_in=30, thin=5, n_chains=400, seed=31)
    report = replica_geometry_report(replicas, band)
    est = sampled_logZ_nonorth_pairs(report, log_zb)
    assert report.pairs_in_band > 0
    assert np.isfinite(est.value)
    assert abs(est.value - exact) < 0.3
    # the degenerate no-pair outcome keeps the inequality direction
    empty_report = replica_geometry_report(replicas, BandSpec(m, 0.5, 49.0))
    assert empty_report.pairs_violating == 0
    empty = sampled_logZ_nonorth_pairs(empty_report, log_zb)
    assert empty.value == -np.inf


def test_band_predicates():
    m = np.array([1.0, 0.0, 0.0, 0.0])
    band = BandSpec(m, 0.3, 0.8)
    assert in_band(np.array([1.0, 1, -1, 1]), band)
    assert not in_band(np.array([-1.0, 1, -1, 1]), band)  # projection gap 2/4
    stack = np.array([[1.0, 1, 1, 1], [-1.0, 1, 1, 1]])
    assert np.array_equal(in_band(stack, band), [True, False])


def test_b_n_membership():
    def in_b_n(samples, band):
        reps = ReplicaSet(samples=samples, chain_mag=samples.copy(), recorded_sweeps=1, n=4)
        return replica_geometry_report(reps, band).in_b_n

    m = np.zeros(4)
    band = BandSpec(m, 0.3, 0.6)
    # all-different rows of a Hadamard-like set have pairwise overlap 0
    samples = np.array([[1.0, 1, -1, -1], [1.0, -1, 1, -1]])
    assert in_b_n(samples, band)
    # duplicate rows overlap at 1 > eta
    dup = np.array([[1.0, 1, -1, -1], [1.0, 1, -1, -1]])
    assert not in_b_n(dup, band)
    # out-of-band member fails regardless of overlaps
    off_band = BandSpec(np.full(4, 0.9), 0.05, 3.9)
    assert not in_b_n(samples, off_band)


def test_band_spec_validation():
    with pytest.raises(ValueError):
        BandSpec(np.array([1.5, 0.0]), 0.1, 0.4)
    with pytest.raises(ValueError):
        BandSpec(np.zeros(3), 0.0, 0.4)
    with pytest.raises(ValueError):
        BandSpec(np.zeros(3), 0.1, -0.4)
    assert BandSpec(np.zeros(3), 0.1, 0.4).has_pair_margin
    assert not BandSpec(np.zeros(3), 0.2, 0.5).has_pair_margin


def test_glauber_histogram_matches_exact_distribution():
    inst = build_instance(3, 0.2, semicircle(), constant_field(0.4), seed=6)
    states, energies, log_z, _ = _naive_listing(inst)
    probs = np.exp(energies - log_z)
    n_chains = 1200
    reps = glauber_sample(inst, sweeps=120, burn_in=0, thin=120, n_chains=n_chains, seed=8)
    codes = ((reps.samples + 1) / 2 @ (2 ** np.arange(3))).astype(int)
    counts = np.bincount(codes, minlength=8)
    for k in range(8):
        se = np.sqrt(probs[k] * (1 - probs[k]) / n_chains)
        assert abs(counts[k] / n_chains - probs[k]) <= 3 * se + 1e-12


def test_glauber_time_average_matches_marginals():
    inst = build_instance(6, 0.15, semicircle(), constant_field(1.0), seed=14)
    exact = exact_gibbs(inst).magnetization
    reps = glauber_sample(inst, sweeps=4000, burn_in=400, thin=2, n_chains=8, seed=15)
    est = estimate_magnetization(reps, exact_magnetization=exact, use_time_average=True)
    assert np.abs(est.mean - exact).max() < 0.02
    assert est.distance < 1e-3


def test_glauber_deterministic_and_seed_sensitive():
    inst = build_instance(5, 0.2, semicircle(), constant_field(0.5), seed=2)
    a = glauber_sample(inst, sweeps=40, burn_in=10, thin=4, n_chains=6, seed=3)
    b = glauber_sample(inst, sweeps=40, burn_in=10, thin=4, n_chains=6, seed=3)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.chain_mag, b.chain_mag)
    c = glauber_sample(inst, sweeps=40, burn_in=10, thin=4, n_chains=6, seed=4)
    assert not np.array_equal(a.samples, c.samples)
    assert a.recorded_sweeps == len(range(10, 50, 4))


def _reference_glauber(instance, sweeps, burn_in, thin, n_chains, seed):
    """The chain-major Glauber loop with a masked field update of the moved
    chains only, transcribed as the reference for bit-for-bit checks."""
    n = instance.n
    j_off = instance.dense_coupling(max_n=MAX_MCMC_DENSE_N).copy()
    np.fill_diagonal(j_off, 0.0)
    h = instance.h
    children = np.random.SeedSequence(seed).spawn(n_chains)
    samples = np.empty((n_chains, n))
    chain_mag = np.zeros((n_chains, n))
    total = burn_in + sweeps
    recorded = len(range(burn_in, total, thin))
    block_sweeps = max(1, _SWEEP_BLOCK_ELEMENTS // n)
    for chunk_start in range(0, n_chains, _CHAIN_CHUNK):
        chunk = slice(chunk_start, min(chunk_start + _CHAIN_CHUNK, n_chains))
        rngs = [np.random.default_rng(c) for c in children[chunk]]
        n_c = len(rngs)
        sigma = np.array([rng.integers(0, 2, n) * 2 - 1 for rng in rngs], dtype=float)
        field = sigma @ j_off + h[None, :]
        mag_acc = np.zeros((n_c, n))
        done = 0
        while done < total:
            block = min(block_sweeps, total - done)
            uniforms = np.stack([rng.random((block, n)) for rng in rngs])
            for t in range(block):
                for i in range(n):
                    prob_up = 1.0 / (1.0 + np.exp(-2.0 * field[:, i]))
                    new = np.where(uniforms[:, t, i] < prob_up, 1.0, -1.0)
                    delta_s = new - sigma[:, i]
                    moved = delta_s != 0.0
                    if moved.any():
                        field[moved] += delta_s[moved, None] * j_off[i][None, :]
                        sigma[moved, i] = new[moved]
                sweep_index = done + t
                if sweep_index >= burn_in and (sweep_index - burn_in) % thin == 0:
                    mag_acc += sigma
            done += block
        samples[chunk] = sigma
        chain_mag[chunk] = mag_acc / recorded
    return samples, chain_mag


@pytest.mark.parametrize(
    "n, n_chains, sweeps, burn_in, thin, block_elements",
    [
        (1, 5, 20, 3, 2, None),            # a single site
        (6, 1, 30, 4, 1, None),            # a single chain
        (40, _CHAIN_CHUNK + 44, 6, 2, 1, None),  # two chain chunks, the first
                                                 # updated in two column blocks
        (9, 4, 40, 10, 3, None),           # thinning after burn-in
        (16, 3, 30, 5, 2, 64),             # 9 uniform blocks; the reference draws 1
    ],
)
def test_glauber_matches_masked_reference_bit_for_bit(
    monkeypatch, n, n_chains, sweeps, burn_in, thin, block_elements
):
    inst = build_instance(n, 0.4, semicircle(), gaussian_field(0.3, 0.8), seed=20 + n)
    if block_elements is not None:
        monkeypatch.setattr(gibbs, "_SWEEP_BLOCK_ELEMENTS", block_elements)
    reps = glauber_sample(inst, sweeps=sweeps, burn_in=burn_in, thin=thin,
                          n_chains=n_chains, seed=40 + n)
    samples, chain_mag = _reference_glauber(inst, sweeps, burn_in, thin, n_chains, 40 + n)
    assert np.array_equal(reps.samples, samples)
    assert np.array_equal(reps.chain_mag, chain_mag)


def test_glauber_validation():
    inst = build_instance(4, 0.2, semicircle(), constant_field(0.5), seed=2)
    with pytest.raises(ValueError):
        glauber_sample(inst, sweeps=0, burn_in=0, thin=1, n_chains=2, seed=0)
    with pytest.raises(ValueError):
        glauber_sample(inst, sweeps=5, burn_in=-1, thin=1, n_chains=2, seed=0)
    with pytest.raises(ValueError):
        glauber_sample(inst, sweeps=5, burn_in=0, thin=0, n_chains=2, seed=0)


def test_estimate_magnetization_from_final_states():
    inst = build_instance(4, 0.2, semicircle(), constant_field(1.0), seed=5)
    exact = exact_gibbs(inst).magnetization
    reps = glauber_sample(inst, sweeps=50, burn_in=20, thin=50, n_chains=600, seed=16)
    est = estimate_magnetization(reps, exact_magnetization=exact)
    assert est.mean.shape == (4,)
    assert np.all(np.isfinite(est.se))
    assert est.distance < 0.02
    single = glauber_sample(inst, sweeps=5, burn_in=0, thin=5, n_chains=1, seed=1)
    lone = estimate_magnetization(single)
    assert np.array_equal(lone.mean, single.samples[0])
    assert np.all(np.isnan(lone.se))


def test_replica_geometry_report():
    m = np.zeros(4)
    band = BandSpec(m, 0.5, 0.6)
    in_rows = np.array([[1.0, 1, -1, -1], [1.0, -1, 1, -1], [1.0, 1, -1, -1]])
    reps = ReplicaSet(samples=in_rows, chain_mag=in_rows.copy(), recorded_sweeps=1, n=4)
    report = replica_geometry_report(reps, band)
    assert report.band_fraction == 1.0
    # rows 0 and 2 coincide: 2 of 6 ordered pairs overlap at 1 > 0.6
    assert report.pair_violation_fraction == pytest.approx(2 / 6)
    assert not report.in_b_n
    mean = in_rows.mean(axis=0)
    assert report.distance == pytest.approx(np.sum(mean**2) / 4)

    # an off-center band puts a row with s_0 = -1 outside: the projection gap
    # |0.25 s_0 - 0.0625| / 4 is 0.047 for s_0 = 1 and 0.078 for s_0 = -1;
    # that row overlaps rows 0 and 2 at 0.516 > eta, which only the
    # all-pairs fraction may count
    band = BandSpec(np.array([0.25, 0.0, 0.0, 0.0]), 0.06, 0.5)
    samples = np.vstack([in_rows, [[-1.0, 1, -1, -1]]])
    report = replica_geometry_report(
        ReplicaSet(samples=samples, chain_mag=samples.copy(), recorded_sweeps=1, n=4), band
    )
    inside = [bool(in_band(s, band)) for s in samples]
    assert inside == [True, True, True, False]
    assert report.band_fraction == 0.75
    assert not report.in_b_n
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    overlap = {(a, b): (samples[a] - band.center) @ (samples[b] - band.center) / 4
               for a, b in pairs}
    in_pairs = [p for p in pairs if inside[p[0]] and inside[p[1]]]
    assert report.pairs_in_band == len(in_pairs) == 6
    assert report.pairs_violating == sum(abs(overlap[p]) > 0.5 for p in in_pairs) == 2
    assert report.pair_violation_fraction == pytest.approx(
        sum(abs(overlap[p]) > 0.5 for p in pairs) / len(pairs)) == 6 / 12
