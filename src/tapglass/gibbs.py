"""Exact and Monte Carlo Gibbs computations, plain and band-restricted.

The measure is P(sigma) = Z^{-1} exp(H(sigma)) on {-1,+1}^n with
H(sigma) = (1/2) sigma^T Jbar sigma + h^T sigma.  The diagonal of Jbar stays
in H (a constant shift of log Z, since sigma_i^2 = 1) but never enters the
single-site conditionals, which depend on the off-diagonal field
l = (Jbar - diag Jbar) sigma + h only.

Exact enumeration goes over the 2^n states in blocks of fixed size: the
full listing of the low min(n, 12) sites crossed with a few high-site
configurations.  No array of states is built.  Energies split as
E = E_low + s_low . (J_lh s_high) + E_high, so a block costs one small matrix
product and no per-state Python step, and a block's weights w, laid out
(high, low), give its magnetization mass as [w.sum(0) @ low, w.sum(1) @ high].
Each block is reduced against its own maximum energy (log-sum-exp) to the
partition function, the magnetization and the band-restricted mass; block
results are merged in fixed order, so results are bit-stable.  The band
projection sigma . m is summed as a high-site plus a low-site part, so it
can differ by rounding from one dot product over all sites, and a state
within rounding of the band edge can fall on either side of it.  With a
band and n <= 12 the same pass also keeps the in-band states, and the pair
sum Z_c over them follows it, reduced the same way: each chunk of pair rows
against its own maximum, the chunks merged against the top one.  On request
the pass also draws independent exact Gibbs states, by one-pass weighted
reservoir sampling over the blocks (Chao 1982).

Glauber chains run in lockstep, all of them in one loop, on 0/1 spins.
Their uniforms go through a window of at most 2^17 doubles (1 MiB) over all
chains: each chain draws its share into its own row, and one pass over the
window, through a twin buffer for 1 - u, makes them thresholds.  The draw
memory is at most 2 MiB whatever the number of sweeps, or two sweeps' worth
when one sweep over all chains is larger.
Sites go in blocks of 32 with a delayed field update, and a block's new
spins are the exact fixed point of a strictly triangular system.
`glauber_sample`'s docstring sets out the scheme and when a decision can
differ from that of a masked chain-by-chain loop on the same seed; the test
suite checks the two bit for bit.

Band machinery: for a profile m and delta > 0,

    Band(m, delta) = { sigma : |m . (sigma - m)| / n < delta },

Z_B restricts the Gibbs sum to the band, and Z_c sums exp(H(s) + H(t)) over
ordered pairs of band states whose centered overlap |<s - m, t - m>| / n
exceeds eta.  Z_c <= Z_B^2 always; at high temperature Z_c is exponentially
smaller.  Above n = 12, where the pairs are not listed, `log_violating_share`
of exact Gibbs draws from the enumeration pass estimates log Z_c - 2 log Z_B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapglass.ensemble import MAX_DENSE_N, ModelInstance

MAX_ENUMERATION_N = 24
MAX_PAIR_ENUMERATION_N = 12
MAX_MCMC_DENSE_N = MAX_DENSE_N  # Glauber runs on the dense couplings

_LOW_BITS = 12
_BLOCK_STATES = 1 << 14
_SWEEP_BLOCK_ELEMENTS = 1 << 17  # uniforms in one window, over all chains (1 MiB)
_SITE_BLOCK = 32  # sites per delayed field update
_PAIR_CHUNK_ROWS = 512


@dataclass(frozen=True, eq=False)
class BandSpec:
    """A magnetization band: center profile m, width delta, overlap cut eta."""

    center: np.ndarray
    delta: float
    eta: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.center)) and np.all(np.abs(self.center) <= 1.0)):
            raise ValueError("band center must be a finite profile with entries in [-1, 1]")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")


def in_band(sigma: np.ndarray, band: BandSpec):
    """|m . (sigma - m)| / n < delta, elementwise over a stack of states."""
    sigma = np.asarray(sigma, dtype=float)
    n = band.center.size
    proj = (sigma @ band.center - band.center @ band.center) / n
    return np.abs(proj) < band.delta


# ----------------------------------------------------------------------
# exact enumeration
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GibbsExact:
    """Exact log partition function and magnetization from full enumeration;
    log_z_band is log Z_B when a band was given, log_z_pairs log Z_c when a
    band was given and n <= MAX_PAIR_ENUMERATION_N, and draws the requested
    Gibbs states as a (draws, n) array of +-1 when any were requested."""

    log_z: float
    magnetization: np.ndarray
    log_z_band: float | None = None
    log_z_pairs: float | None = None
    draws: np.ndarray | None = None


def _state_blocks(j_mat: np.ndarray, h: np.ndarray, center: np.ndarray | None):
    """Yield (low, high, energies, proj) over all 2^n states in ascending code
    order (bit i of the code is site i), one block at a time.  No state array
    is built: entry [a, b] of a block is the state with high[a] on the high
    sites and low[b] on the low ones.

    A block is the full listing of the low k = min(n, _LOW_BITS) sites
    crossed with a run of high-site configurations, and its energies come
    from E = E_low + s_low . (J_lh s_high) + E_high.  With a center c, proj is
    the projection sigma . c summed as high[a] . c[k:] + low[b] . c[:k]
    (None without a center); it can differ from a single dot product over
    all n sites by rounding.
    """
    n = h.size
    k = min(n, _LOW_BITS)
    low = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0
    low_t = np.ascontiguousarray(low.T)  # a contiguous GEMM operand: about 3x faster than low.T
    e_low = 0.5 * np.einsum("ij,ij->i", low @ j_mat[:k, :k], low) + low @ h[:k]
    j_cross = 0.5 * (j_mat[:k, k:] + j_mat[k:, :k].T)
    highs = ((np.arange(1 << (n - k))[:, None] >> np.arange(n - k)) & 1) * 2.0 - 1.0
    if center is not None:
        proj_low, proj_high = low @ center[:k], highs @ center[k:]
    per_block = max(1, _BLOCK_STATES >> k)
    for start in range(0, highs.shape[0], per_block):
        block = slice(start, start + per_block)
        high = highs[block]
        e_high = 0.5 * np.einsum("ij,ij->i", high @ j_mat[k:, k:], high) + high @ h[k:]
        energies = (high @ j_cross.T) @ low_t  # then + E_high + E_low, in that order
        energies += e_high[:, None]
        energies += e_low
        proj = None if center is None else proj_high[block, None] + proj_low
        yield low, high, energies, proj
        del energies, proj  # so two blocks' arrays are never held at once


def exact_gibbs(instance: ModelInstance, band: BandSpec | None = None,
                draws: int = 0, seed=None) -> GibbsExact:
    """Full enumeration of the 2^n states (n <= 24) in one pass over the state
    blocks, without building an array of states.  Each block is weighted by
    exp(E - block max) and reduced to one row [Z, magnetization mass, band
    mass]; the rows are merged in block order against the global max, so
    results are bit-stable.

    With a band, log_z_band is log Z_B (-inf when the band is empty).  A
    state's band test reads its projection summed as high + low parts, so a
    state within rounding of the band edge can fall on either side of it
    (`in_band` sums the projection in one dot product).  With a
    band and n <= MAX_PAIR_ENUMERATION_N, the pass also keeps the in-band
    states of each block and sums exp(H(s) + H(t)) over ordered pairs of them
    whose centered overlap is above eta, diagonal pairs included when they
    qualify: log_z_pairs is log Z_c, -inf when no pair qualifies, so
    Z_c <= Z_B^2 still holds.  The pairs go in chunks of _PAIR_CHUNK_ROWS
    rows, each reduced against its own maximum and merged like the blocks.

    With draws > 0, `draws` holds that many independent states of the full
    Gibbs measure, drawn in the same pass from default_rng(seed).  Draw d
    reads row d of a (draws, blocks) array of uniforms, so a smaller request
    gets a prefix of a larger one's draws.  After each block, a draw whose
    uniform u is below the block's share of the mass so far takes a state
    from it (one-pass weighted reservoir sampling, Chao 1982), picked by
    inverse CDF at u / share: the low sites from the column sums w.sum(0),
    then the high sites within that column.  The sums do not depend on
    draws, to the bit."""
    n = instance.n
    if n > MAX_ENUMERATION_N:
        raise ValueError(f"exact enumeration is capped at n = {MAX_ENUMERATION_N}, got {n}")
    pairs = band is not None and n <= MAX_PAIR_ENUMERATION_N
    if band is not None and band.center.size != n:
        raise ValueError("band center length must match the instance size")
    center = None if band is None else band.center
    tops, rows, band_states, band_energies = [], [], [], []
    if draws:  # (draw, block): a draw's uniforms do not depend on how many draws there are
        uniforms = np.random.default_rng(seed).random((draws, max(1, (1 << n) // _BLOCK_STATES)))
        picks, log_mass = np.empty((draws, n)), -np.inf
    for low, high, energies, proj in _state_blocks(instance.dense_coupling(), instance.h, center):
        top = energies.max()
        if band is not None:
            proj -= center @ center
            np.abs(proj, out=proj)
            proj /= n
            keep = proj < band.delta
            if pairs:  # one block, with no high sites: low lists the whole states
                band_states.append(low[keep[0]])
                band_energies.append(energies[keep])
        energies -= top
        w = np.exp(energies, out=energies)
        band_mass = [] if band is None else [w[keep].sum()]  # before col: one temporary at a time
        mass, col = w.sum(), w.sum(0)
        row = [[mass], col @ low, w.sum(1) @ high, band_mass]
        if draws:  # a draw takes a state from this block with its share of the mass so far
            block_log_mass = top + np.log(mass)
            log_mass = np.logaddexp(log_mass, block_log_mass)
            share = np.exp(block_log_mass - log_mass)
            u = uniforms[:, len(tops)]  # the column of this block
            take = u < share
            if take.any():  # u / share is uniform on [0, 1): the inverse CDF, column first
                cum = np.cumsum(col)
                target = u[take] / share * cum[-1]
                b = np.minimum(np.searchsorted(cum, target, side="right"), col.size - 1)
                inside = np.cumsum(w[:, b], axis=0) <= target - (cum[b] - col[b])
                a = np.minimum(inside.sum(0), w.shape[0] - 1)
                picks[take] = np.hstack([low[b], high[a]])
        tops.append(top)
        rows.append(np.concatenate(row))
        del energies, w, proj, col
    top = max(tops)
    total = np.exp(np.array(tops) - top) @ np.array(rows)
    z = total[0]
    log_z_band = log_z_pairs = None
    if band is not None:
        with np.errstate(divide="ignore"):
            log_z_band = float(top + np.log(total[n + 1]))
    if pairs:
        centered = np.concatenate(band_states) - band.center
        e_band = np.concatenate(band_energies)
        pair_tops, pair_sums = [], []
        for start in range(0, e_band.size, _PAIR_CHUNK_ROWS):
            chunk = slice(start, start + _PAIR_CHUNK_ROWS)
            mask = np.abs(centered[chunk] @ centered.T / n) > band.eta
            vals = (e_band[chunk, None] + e_band[None, :])[mask]
            if vals.size:
                pair_tops.append(vals.max())
                pair_sums.append(np.exp(vals - pair_tops[-1]).sum())
        log_z_pairs = -np.inf
        if pair_tops:
            top_pairs = max(pair_tops)
            weights = np.exp(np.array(pair_tops) - top_pairs)
            log_z_pairs = float(top_pairs + np.log(weights @ pair_sums))
    return GibbsExact(
        log_z=float(top + np.log(z)),
        magnetization=total[1 : n + 1] / z,
        log_z_band=log_z_band,
        log_z_pairs=log_z_pairs,
        draws=picks if draws else None,
    )


# ----------------------------------------------------------------------
# Glauber dynamics
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReplicaSet:
    """Final states and per-chain time-averaged magnetizations of independent chains."""

    samples: np.ndarray      # (n_chains, n), final state of each chain
    chain_mag: np.ndarray    # (n_chains, n), time average over the sweeps after burn-in

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """The single-site marginals: the across-chain mean of the time
        averages and its per-site standard error (NaN for a single chain)."""
        n_chains = self.chain_mag.shape[0]
        mean = self.chain_mag.mean(axis=0)
        if n_chains == 1:
            return mean, np.full(mean.size, np.nan)
        return mean, self.chain_mag.std(axis=0, ddof=1) / np.sqrt(n_chains)


def glauber_sample(
    instance: ModelInstance,
    sweeps: int,
    burn_in: int,
    n_chains: int,
    seed: int,
) -> ReplicaSet:
    """Run independent Glauber chains in lockstep and return their final states.

    Each sweep updates sites 0..n-1 in order; site i flips to +1 with
    probability 1/(1 + exp(-2 l_i)) where l = (Jbar - diag Jbar) sigma + h.
    Chains draw from per-chain child streams of the seed, so results do not
    depend on how the uniforms are blocked.  Every sweep after burn_in enters
    the per-chain time average.

    The uniforms of a window of sweeps are laid out (chain, sweep, site), so
    each chain draws its share into one contiguous row.  A window holds at
    most _SWEEP_BLOCK_ELEMENTS doubles, or one sweep when a sweep over all
    chains is larger, and a twin of the same shape holds 1 - u.  Once the
    chains have drawn, the whole window becomes the thresholds
    0.5 log(u / (1 - u)) in place, in four numpy calls, and site i moves up
    when l_i > threshold.  Each element goes through the same operations as
    it would one chain at a time, so the thresholds do not depend on the
    window either.

    The sites of a sweep go in blocks of _SITE_BLOCK, with a delayed field
    update.  Each block keeps its spins as 0/1 doubles (sigma = 2 u - 1) in
    its own contiguous array, which every fixed-point iteration reads.  When
    a block [a, b) starts, its fields are subtracted from its thresholds,
    giving s, and its 0/1 spins are the old ones.  The new spins u then
    solve the strictly triangular system

        u_k = [sum_{j<k} 2 J_off[a+j, a+k] c_j > s_k],  c = u - old,

    where c, in {-1, 0, 1}, is the halved spin change.  Starting from
    u = [0 > s], each iteration sets c = u - old and u = [c @ T > s], with T
    the strictly upper triangle of 2 J_off[a:b, a:b]: four numpy calls on
    (chains, b - a) arrays.  Column k of c @ T reads only c_j for j < k: the
    other terms, like those of unchanged sites, are exact zeros.  After t
    iterations the first t sites are therefore final, and a u that repeats
    is the system's one solution, so the iteration stops after at most
    b - a + 1 iterations with the decisions of a site-by-site pass over the
    block that reads the same partial sums.  When the block ends, u is
    copied over the old spins and l += c @ 2 J_off[a:b, :], one matrix
    product.  Each c times 2 J_off is the exact product of a spin change and
    J_off, but the partial sums and the field sums round in another order
    than a site-by-site rank-1 update, so the fields match that update only
    up to rounding.  A spin decision can therefore differ from a masked
    chain-by-chain loop on the same seed when l lies within rounding of its
    threshold, or when u = 0 and l < -354 (where the logistic underflows to
    0); no proof of equality is claimed.  The test suite checks the two bit
    for bit on fixed seeds.

    In each sweep after burn_in, each block adds its new 0/1 spins to its
    per-chain up-counts.  The chains return samples = 2 u - 1 and
    chain_mag = (2 counts - sweeps) / sweeps: integer-valued doubles until
    the one division, so both equal what summing +-1 spins gives, bit for
    bit.
    """
    if sweeps < 1 or burn_in < 0 or n_chains < 1:
        raise ValueError("need sweeps >= 1, burn_in >= 0, n_chains >= 1")
    n = instance.n
    j_off = instance.dense_coupling()
    np.fill_diagonal(j_off, 0.0)
    h = instance.h

    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n_chains)]
    spins = np.array([rng.integers(0, 2, n) for rng in rngs], dtype=float)  # 0/1
    field = (2.0 * spins - 1.0) @ j_off + h[None, :]
    j_twice = np.multiply(j_off, 2.0, out=j_off)  # in place: J_off is not read again
    field_shift = np.empty((n_chains, n))
    # per block width: thresholds less fields, halved changes, partial
    # fields, and two guesses of the new spins
    scratch = {
        w: [np.empty((n_chains, w)) for _ in range(3)]
        + [np.empty((n_chains, w), dtype=bool) for _ in range(2)]
        for w in {min(_SITE_BLOCK, n - a) for a in range(0, n, _SITE_BLOCK)}
    }
    blocks = []
    for a in range(0, n, _SITE_BLOCK):
        b = min(a + _SITE_BLOCK, n)
        # column k holds 2 J_off[a+j, a+k] for j < k, zeros from the diagonal down
        j_within = np.triu(j_twice[a:b, a:b], 1)
        # the block's 0/1 spins and up-counts, contiguous for the fixed point
        blocks.append((slice(a, b), spins[:, a:b].copy(), np.zeros((n_chains, b - a)),
                       field[:, a:b], j_within, j_twice[a:b], scratch[b - a]))
    total = burn_in + sweeps
    block_sweeps = max(1, _SWEEP_BLOCK_ELEMENTS // (n * n_chains))
    # (chain, sweep, site): each chain draws its uniforms into one contiguous
    # row, and the twin holds 1 - u.  One allocation for the two: glibc keeps
    # it for the next call, where two 1 MiB ones went back to the system and
    # were faulted in again on every call (some 700 page faults at n = 200
    # with 64 chains)
    uniforms, one_minus = np.empty((2, n_chains, min(block_sweeps, total), n))
    for done in range(0, total, block_sweeps):
        block = min(block_sweeps, total - done)
        window, rest = uniforms[:, :block], one_minus[:, :block]
        for rng, row in zip(rngs, window):
            rng.random(out=row)
        np.subtract(1.0, window, out=rest)
        np.divide(window, rest, out=window)
        with np.errstate(divide="ignore"):  # u = 0 gives -inf: the site moves up
            np.log(window, out=window)
        window *= 0.5
        for t in range(block):
            thresholds = uniforms[:, t]
            counting = done + t >= burn_in
            for sites, old, up_count, field_block, j_within, j_rows, work in blocks:
                shifted, c, partial, up, guess = work
                np.subtract(thresholds[:, sites], field_block, out=shifted)
                np.less(shifted, 0.0, out=up)
                while True:
                    np.subtract(up, old, out=c)
                    np.matmul(c, j_within, out=partial)
                    np.greater(partial, shifted, out=guess)
                    if guess.tobytes() == up.tobytes():
                        break
                    up, guess = guess, up
                np.copyto(old, up)
                if counting:
                    up_count += old
                np.matmul(c, j_rows, out=field_shift)
                field += field_shift

    np.concatenate([old for _, old, *_ in blocks], axis=1, out=spins)
    up_counts = np.concatenate([count for _, _, count, *_ in blocks], axis=1)
    spins *= 2.0  # samples = 2 u - 1 and chain_mag = (2 counts - sweeps) / sweeps
    spins -= 1.0
    up_counts *= 2.0
    up_counts -= sweeps
    up_counts /= sweeps
    return ReplicaSet(samples=spins, chain_mag=up_counts)


def log_violating_share(samples: np.ndarray, band: BandSpec) -> float:
    """The log of the share of ordered pairs of distinct in-band samples whose
    centered overlap |<s - m, t - m>| / n is above eta, -inf when none is, so
    that 2 log Z_B plus it estimates log Z_c, the product band-Gibbs measure
    being the proposal."""
    centered = samples - band.center
    above = np.abs(centered @ centered.T / band.center.size) > band.eta
    inside = in_band(samples, band)
    both_inside = ~np.eye(samples.shape[0], dtype=bool) & inside[:, None] & inside[None, :]
    violating = int((both_inside & above).sum())
    return float(np.log(violating / int(both_inside.sum()))) if violating else -np.inf
