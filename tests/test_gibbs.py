"""Gibbs layer: enumeration against naive listings, band sums, Glauber sampling."""

import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import MASKED_CHAIN_CHUNK, has_pair_margin, masked_glauber
from scipy.special import logsumexp

import tapglass
from tapglass import gibbs
from tapglass.ensemble import ModelInstance, build_instance, haar_so
from tapglass.fixed_point import constant_field, gaussian_field
from tapglass.gibbs import (
    BandSpec,
    exact_gibbs,
    glauber_sample,
    in_band,
    log_violating_share,
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


def _n_for_blocks(n_blocks):
    """The size whose 2^n states fill n_blocks enumeration blocks."""
    return (gibbs._BLOCK_STATES * n_blocks).bit_length() - 1


def test_enumeration_matches_listing_across_segments():
    # spans two blocks of the state listing (each 2^12 low states x a run of high)
    inst = build_instance(_n_for_blocks(2), 0.15, semicircle(), constant_field(1.0), seed=3)
    _, _, log_z, mag = _naive_listing(inst)
    res = exact_gibbs(inst)
    assert abs(res.log_z - log_z) < 1e-11
    assert np.abs(res.magnetization - mag).max() < 1e-11


def test_band_enumeration_matches_listing_across_eight_blocks():
    # spans eight blocks (each 2^12 low states x a run of high); an iid field
    # and a band centred on the exact magnetization give the low and the high
    # sites different centre entries
    inst = build_instance(_n_for_blocks(8), 0.2, semicircle(), gaussian_field(0.2, 0.6),
                          seed=5, field_mode="iid")
    states, energies, log_z, mag = _naive_listing(inst)
    band = BandSpec(mag, 0.1, 1.0)
    res = exact_gibbs(inst, band)
    assert abs(res.log_z - log_z) < 1e-11
    assert np.abs(res.magnetization - mag).max() < 1e-11
    keep = in_band(states, band)
    assert 0 < keep.sum() < keep.size
    assert abs(res.log_z_band - float(logsumexp(energies[keep]))) < 1e-12


def test_enumeration_builds_no_state_array():
    # a (2^14, 20) block of states alone is 2.5 MiB
    inst = build_instance(20, 0.2, semicircle(), constant_field(0.5), seed=1)
    band = BandSpec(np.full(20, 0.3), 0.2, 0.5)

    def peak(*args):
        tracemalloc.start()
        try:
            exact_gibbs(inst, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain, banded, drawn = peak(), peak(band), peak(band, 64, 0)
    assert banded < 1.5 * (1 << 20) and drawn < 1.5 * (1 << 20)
    # one block's arrays at a time: holding the last block's too adds 0.21 MiB
    assert banded - plain < 0.15 * (1 << 20)


def test_exact_draws_are_reproducible_and_leave_the_sums_alone():
    inst = build_instance(_n_for_blocks(4), 0.2, semicircle(), constant_field(0.5), seed=2)
    band = BandSpec(np.full(inst.n, 0.3), 0.2, 0.5)
    plain = exact_gibbs(inst, band)
    drawn = exact_gibbs(inst, band, 8, 11)
    assert plain.draws is None and drawn.draws.shape == (8, inst.n)
    assert set(np.unique(drawn.draws)) == {-1.0, 1.0}
    assert np.array_equal(exact_gibbs(inst, band, 8, 11).draws, drawn.draws)
    assert not np.array_equal(exact_gibbs(inst, band, 8, 12).draws, drawn.draws)
    # a draw's uniforms do not depend on the number of draws
    assert np.array_equal(exact_gibbs(inst, band, 3, 11).draws, drawn.draws[:3])
    assert drawn.log_z == plain.log_z and drawn.log_z_band == plain.log_z_band
    assert np.array_equal(drawn.magnetization, plain.magnetization)
    # n = 12: the pass that lists the band's pairs
    inst = build_instance(12, 0.2, semicircle(), constant_field(0.5), seed=2)
    band = BandSpec(exact_gibbs(inst).magnetization, 0.3, 0.2)
    plain, drawn = exact_gibbs(inst, band), exact_gibbs(inst, band, 8, 11)
    assert np.isfinite(plain.log_z_pairs) and drawn.log_z_pairs == plain.log_z_pairs


def test_exact_draws_match_state_probabilities():
    # n = 4: the frequency of each of the 16 states, within 4 binomial SE
    inst = build_instance(4, 0.6, semicircle(), gaussian_field(0.2, 0.6), seed=3,
                          field_mode="iid")
    states, energies, log_z, _ = _naive_listing(inst)
    probs = np.exp(energies - log_z)
    count = 40_000
    codes = (exact_gibbs(inst, draws=count, seed=5).draws > 0) @ (1 << np.arange(4))
    freqs = np.bincount(codes, minlength=16) / count
    assert np.all(np.abs(freqs - probs) < 4 * np.sqrt(probs * (1 - probs) / count))


def test_exact_draws_match_magnetization_across_blocks():
    # four enumeration blocks: site means within 4 SE of the exact magnetization
    inst = build_instance(_n_for_blocks(4), 0.3, semicircle(), constant_field(0.5), seed=3)
    res = exact_gibbs(inst, draws=20_000, seed=7)
    se = np.sqrt((1 - res.magnetization**2) / 20_000)
    assert np.all(np.abs(res.draws.mean(axis=0) - res.magnetization) < 4 * se)


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


def test_enumeration_size_guards():
    inst = build_instance(6, 0.2, semicircle(), constant_field(0.0), seed=1)
    big = build_instance(25, 0.05, semicircle(), constant_field(0.0), seed=1)
    with pytest.raises(ValueError):
        exact_gibbs(big)
    # above the pair cap a band gives Z_B but no pair sum
    thirteen = build_instance(13, 0.1, semicircle(), constant_field(0.0), seed=1)
    res = exact_gibbs(thirteen, band=BandSpec(np.zeros(13), 0.2, 0.8))
    assert res.log_z_pairs is None
    assert np.isfinite(res.log_z_band)


def test_band_mass_monotone_and_saturating():
    inst = build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=7)
    m = exact_gibbs(inst).magnetization
    log_z = exact_gibbs(inst).log_z
    values = [
        exact_gibbs(inst, band=BandSpec(m, d, 1.0)).log_z_band for d in (0.05, 0.2, 0.6, 2.5)
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
    log_zb = exact_gibbs(inst, band=band).log_z_band
    assert log_zb == pytest.approx(expected, abs=1e-12)
    assert exact_gibbs(inst, band=band).log_z_band == log_zb


def test_empty_band_gives_minus_inf():
    inst = _diag_instance(6, np.zeros(6), np.zeros(6))
    m = np.full(6, 0.9)
    # sigma . m is a multiple of 1.8 while m . m = 4.86; no state lands within 0.06
    assert exact_gibbs(inst, band=BandSpec(m, 0.01, 1.0)).log_z_band == -np.inf


def _check_nonorth_pairs(n, beta, field, delta, eta):
    """log Z_c against scipy's logsumexp over a naive pair listing; returns
    the number of in-band states."""
    inst = build_instance(n, beta, semicircle(), constant_field(field), seed=4)
    states, energies, _, mag = _naive_listing(inst)
    band = BandSpec(mag, delta, eta)
    keep = np.abs((states - mag) @ mag) / n < band.delta
    sb, eb = states[keep] - mag, energies[keep]
    overlaps = sb @ sb.T / n
    mask = np.abs(overlaps) > band.eta
    expected = float(logsumexp((eb[:, None] + eb[None, :])[mask]))
    exact = exact_gibbs(inst, band=band)
    got = exact.log_z_pairs
    assert got == pytest.approx(expected, abs=1e-10)
    # the pair sum can never exceed the full band square
    assert got <= 2 * exact.log_z_band + 1e-12
    return int(keep.sum())


def test_nonorth_pairs_match_brute_force():
    _check_nonorth_pairs(8, 0.2, 0.8, 0.4, 0.3)


@pytest.mark.parametrize(
    "beta, field, delta, eta",
    [
        (0.3, 0.8, 0.6, 0.05),   # 3,255 in-band states
        # 1,586 in-band states; the qualifying pair energies reach 801 and
        # span 644, so exp without a shift overflows
        (0.2, 40.0, 0.9, 0.05),
    ],
)
def test_nonorth_pairs_merge_chunks(beta, field, delta, eta):
    # several chunks of pair rows, each reduced against its own max
    assert _check_nonorth_pairs(12, beta, field, delta, eta) > 2 * gibbs._PAIR_CHUNK_ROWS


def test_nonorth_pairs_empty_cases():
    inst = build_instance(8, 0.15, semicircle(), constant_field(1.0), seed=9)
    m = exact_gibbs(inst).magnetization
    # an absurdly high cut leaves no qualifying pair
    assert exact_gibbs(inst, band=BandSpec(m, 0.3, 50.0)).log_z_pairs == -np.inf
    # an empty band propagates
    inst0 = _diag_instance(6, np.zeros(6), np.zeros(6))
    band = BandSpec(np.full(6, 0.9), 0.01, 0.5)
    assert exact_gibbs(inst0, band=band).log_z_pairs == -np.inf


def test_log_violating_share():
    # rows 0 and 2 coincide: 2 of the 6 ordered pairs of distinct rows overlap
    # at 1 > eta; rows 0 and 1 alone are orthogonal, so no pair is above it
    in_rows = np.array([[1.0, 1, -1, -1], [1.0, -1, 1, -1], [1.0, 1, -1, -1]])
    band = BandSpec(np.zeros(4), 0.5, 0.6)
    assert log_violating_share(in_rows, band) == np.log(2 / 6)
    assert log_violating_share(in_rows[:2], band) == -np.inf

    # an off-center band puts a row with s_0 = -1 outside: the projection gap
    # |0.25 s_0 - 0.0625| / 4 is 0.047 for s_0 = 1 and 0.078 for s_0 = -1;
    # that row overlaps rows 0 and 2 at 0.516 > eta, which would make the
    # share over all pairs 6 / 12, but only in-band pairs count
    band = BandSpec(np.array([0.25, 0.0, 0.0, 0.0]), 0.06, 0.5)
    samples = np.vstack([in_rows, [[-1.0, 1, -1, -1]]])
    inside = [bool(in_band(s, band)) for s in samples]
    assert inside == [True, True, True, False]
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    overlap = {(a, b): (samples[a] - band.center) @ (samples[b] - band.center) / 4
               for a, b in pairs}
    in_pairs = [p for p in pairs if inside[p[0]] and inside[p[1]]]
    assert len(in_pairs) == 6
    assert sum(abs(overlap[p]) > 0.5 for p in in_pairs) == 2
    assert sum(abs(overlap[p]) > 0.5 for p in pairs) == 6
    assert log_violating_share(samples, band) == np.log(2 / 6)


def test_sampled_nonorth_pairs_against_exact():
    # Glauber final states: 2 log Z_B plus the share estimates the exact log Z_c
    inst =build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=12)
    m = exact_gibbs(inst).magnetization
    band = BandSpec(m, 0.5, 0.05)  # wide band, low cut: most pairs qualify
    enumerated = exact_gibbs(inst, band=band)
    exact, log_zb = enumerated.log_z_pairs, enumerated.log_z_band
    replicas = glauber_sample(inst, sweeps=60, burn_in=30, n_chains=400, seed=31)
    sampled = 2.0 * log_zb + log_violating_share(replicas.samples, band)
    assert np.isfinite(sampled)
    assert abs(sampled - exact) < 0.3
    # the degenerate no-pair outcome keeps the inequality direction
    empty_share = log_violating_share(replicas.samples, BandSpec(m, 0.5, 49.0))
    assert empty_share == -np.inf
    assert 2.0 * log_zb + empty_share == -np.inf


def test_band_predicates():
    m = np.array([1.0, 0.0, 0.0, 0.0])
    band = BandSpec(m, 0.3, 0.8)
    assert in_band(np.array([1.0, 1, -1, 1]), band)
    assert not in_band(np.array([-1.0, 1, -1, 1]), band)  # projection gap 2/4
    stack = np.array([[1.0, 1, 1, 1], [-1.0, 1, 1, 1]])
    assert np.array_equal(in_band(stack, band), [True, False])


def test_band_spec_validation():
    with pytest.raises(ValueError):
        BandSpec(np.array([1.5, 0.0]), 0.1, 0.4)
    with pytest.raises(ValueError):
        BandSpec(np.zeros(3), 0.0, 0.4)
    with pytest.raises(ValueError):
        BandSpec(np.zeros(3), 0.1, -0.4)
    assert has_pair_margin(BandSpec(np.zeros(3), 0.1, 0.4))
    assert not has_pair_margin(BandSpec(np.zeros(3), 0.2, 0.5))


def test_glauber_histogram_matches_exact_distribution():
    inst = build_instance(3, 0.2, semicircle(), constant_field(0.4), seed=6)
    states, energies, log_z, _ = _naive_listing(inst)
    probs = np.exp(energies - log_z)
    n_chains = 1200
    reps = glauber_sample(inst, sweeps=120, burn_in=0, n_chains=n_chains, seed=8)
    codes = ((reps.samples + 1) / 2 @ (2 ** np.arange(3))).astype(int)
    counts = np.bincount(codes, minlength=8)
    for k in range(8):
        se = np.sqrt(probs[k] * (1 - probs[k]) / n_chains)
        assert abs(counts[k] / n_chains - probs[k]) <= 3 * se + 1e-12


def test_glauber_time_average_matches_marginals():
    inst = build_instance(6, 0.15, semicircle(), constant_field(1.0), seed=14)
    exact = exact_gibbs(inst).magnetization
    reps = glauber_sample(inst, sweeps=4000, burn_in=400, n_chains=8, seed=15)
    mean, _ = reps.marginals()
    assert np.abs(mean - exact).max() < 0.02
    assert np.sum((mean - exact) ** 2) / mean.size < 1e-3


def test_glauber_deterministic_and_seed_sensitive():
    inst = build_instance(5, 0.2, semicircle(), constant_field(0.5), seed=2)
    a = glauber_sample(inst, sweeps=40, burn_in=10, n_chains=6, seed=3)
    b = glauber_sample(inst, sweeps=40, burn_in=10, n_chains=6, seed=3)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.chain_mag, b.chain_mag)
    c = glauber_sample(inst, sweeps=40, burn_in=10, n_chains=6, seed=4)
    assert not np.array_equal(a.samples, c.samples)


def _masked_case(n, n_chains, sweeps, burn_in, block_elements=None, beta=0.4):
    """One row of the bit-for-bit check; the id names beta only when it is
    not the base 0.4."""
    ident = f"{n}-{n_chains}-{sweeps}-{burn_in}-{block_elements}"
    return pytest.param(n, n_chains, sweeps, burn_in, block_elements, beta,
                        id=ident if beta == 0.4 else f"{ident}-beta{beta}")


@pytest.mark.parametrize(
    "n, n_chains, sweeps, burn_in, block_elements, beta",
    [
        _masked_case(1, 5, 20, 3),               # a single site
        _masked_case(6, 1, 30, 4),               # a single chain
        _masked_case(40, MASKED_CHAIN_CHUNK + 44, 6, 2),  # two reference chunks, one
                                                          # loop here in two site blocks
        _masked_case(9, 4, 40, 10),              # time average after burn-in
        _masked_case(16, 3, 30, 5, 192),         # 9 uniform blocks; the reference draws 1
        _masked_case(75, 5, 12, 3),              # two full site blocks and a partial one
        _masked_case(100, 3, 20, 5, 600),        # 13 uniform blocks and 4 site blocks a sweep
        _masked_case(64, 16, 20, 5, beta=2.0),   # strong coupling: in-block cascades
                                                 # take up to 6 fixed-point iterations
        _masked_case(32, 4, 20, 5),              # one full site block
        _masked_case(33, 4, 20, 5),              # a full site block, then a 1-site block
        _masked_case(20, 64, 40, 10),            # one partial site block, as in band rows
        _masked_case(200, 64, 20, 5),            # the default window: 10, 10 and 5 sweeps
    ],
)
def test_glauber_matches_masked_reference_bit_for_bit(
    monkeypatch, n, n_chains, sweeps, burn_in, block_elements, beta
):
    inst = build_instance(n, beta, semicircle(), gaussian_field(0.3, 0.8), seed=20 + n)
    if block_elements is not None:
        monkeypatch.setattr(gibbs, "_SWEEP_BLOCK_ELEMENTS", block_elements)
    reps = glauber_sample(inst, sweeps=sweeps, burn_in=burn_in, n_chains=n_chains, seed=40 + n)
    samples, chain_mag = masked_glauber(inst, sweeps, burn_in, n_chains, 40 + n)
    assert np.array_equal(reps.samples, samples)
    assert np.array_equal(reps.chain_mag, chain_mag)


def test_glauber_site_block_width_changes_no_decision(monkeypatch):
    # the width sets how the in-block fixed point is reached (1: no fixed
    # point, each site's field updated before the next; 7: six blocks and a
    # 5-site one), not the spins it reaches
    inst = build_instance(47, 1.2, semicircle(), gaussian_field(0.3, 0.8), seed=9)
    runs = []
    for width in (1, 7, 32):
        monkeypatch.setattr(gibbs, "_SITE_BLOCK", width)
        runs.append(glauber_sample(inst, sweeps=25, burn_in=5, n_chains=12, seed=17))
    for reps in runs[1:]:
        assert np.array_equal(reps.samples, runs[0].samples)
        assert np.array_equal(reps.chain_mag, runs[0].chain_mag)


def test_gibbs_does_not_use_scipy_linalg():
    # scipy's BLAS runs in its own OpenBLAS pool, whose spinning workers slow
    # the Haar draw that follows a Glauber run; Glauber stays in numpy's
    def modules(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)

    path = Path(tapglass.__file__).parent / "gibbs.py"
    assert not [module for module in modules(ast.parse(path.read_text(encoding="utf-8")))
                if module.startswith("scipy.linalg")]


def test_glauber_validation():
    inst = build_instance(4, 0.2, semicircle(), constant_field(0.5), seed=2)
    with pytest.raises(ValueError):
        glauber_sample(inst, sweeps=0, burn_in=0, n_chains=2, seed=0)
    with pytest.raises(ValueError):
        glauber_sample(inst, sweeps=5, burn_in=-1, n_chains=2, seed=0)
    with pytest.raises(ValueError):
        glauber_sample(inst, sweeps=5, burn_in=0, n_chains=0, seed=0)


def test_glauber_signature():
    # the benchmark's tracer binds these parameters by name
    assert list(inspect.signature(glauber_sample).parameters) == [
        "instance", "sweeps", "burn_in", "n_chains", "seed"]


def _glauber_peak(n, n_chains, sweeps, burn_in):
    """The tracemalloc peak of one glauber_sample call."""
    inst = build_instance(n, 0.15, semicircle(), constant_field(1.0), seed=3)
    tracemalloc.start()
    try:
        glauber_sample(inst, sweeps=sweeps, burn_in=burn_in, n_chains=n_chains, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _window_bound(n, n_chains):
    """The uniform window and its 1 - u twin, the couplings, and the six
    (chains, n) arrays a run holds at its end (spins, fields, field shifts,
    the blocks' spins and up-counts, and the chain averages), with room."""
    return 1.2 * 8 * (2 * gibbs._SWEEP_BLOCK_ELEMENTS + n * n + 6 * n_chains * n)


def test_glauber_uniform_block_is_bounded_over_all_chains(monkeypatch):
    # 256 chains of n = 20 draw 5120 uniforms a sweep, so a cap of 2^14 doubles
    # holds 3 sweeps (123 KiB) where the whole run would hold 100 (4 MiB)
    monkeypatch.setattr(gibbs, "_SWEEP_BLOCK_ELEMENTS", 1 << 14)
    assert _glauber_peak(20, 256, 100, 0) < 2 << 20


def test_glauber_memory_is_one_uniform_block_and_the_coupling():
    # the glauber_grid benchmark shape: 64 chains of n = 200 run 60 sweeps
    # through a window of 10; the window and its 1 - u twin are the draw
    # memory, where the whole run's uniforms alone would take 5.9 MiB
    n, n_chains = 200, 64
    assert _glauber_peak(n, n_chains, 50, 10) < _window_bound(n, n_chains)


def test_glauber_peak_does_not_grow_with_sweeps():
    n, n_chains = 200, 64
    short, long = _glauber_peak(n, n_chains, 50, 10), _glauber_peak(n, n_chains, 500, 10)
    assert abs(long - short) < 0.1 * 2**20
    assert long < _window_bound(n, n_chains)


def test_final_state_distance_and_marginals():
    inst = build_instance(4, 0.2, semicircle(), constant_field(1.0), seed=5)
    exact = exact_gibbs(inst).magnetization
    reps = glauber_sample(inst, sweeps=50, burn_in=20, n_chains=600, seed=16)
    final_mean = reps.samples.mean(axis=0)
    assert final_mean.shape == (4,)
    assert np.sum((final_mean - exact) ** 2) / final_mean.size < 0.02
    mean, se = reps.marginals()
    assert np.array_equal(mean, reps.chain_mag.mean(axis=0))
    assert np.array_equal(se, reps.chain_mag.std(axis=0, ddof=1) / np.sqrt(600))
    assert np.all(np.isfinite(se))
    single = glauber_sample(inst, sweeps=5, burn_in=0, n_chains=1, seed=1)
    lone_mean, lone_se = single.marginals()
    assert np.array_equal(lone_mean, single.chain_mag[0])
    assert np.all(np.isnan(lone_se))
