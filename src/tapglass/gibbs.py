"""Exact and Monte Carlo Gibbs computations, plain and band-restricted.

The measure is P(sigma) = Z^{-1} exp(H(sigma)) on {-1,+1}^n with
H(sigma) = (1/2) sigma^T Jbar sigma + h^T sigma.  The diagonal of Jbar stays
in H (a constant shift of log Z, since sigma_i^2 = 1) but never enters the
single-site conditionals, which depend on the off-diagonal field
l = (Jbar - diag Jbar) sigma + h only.

Exact enumeration lists the 2^n states in blocks of fixed size: the full
listing of the low min(n, 12) sites crossed with a few high-site
configurations.  Energies split as E = E_low + s_low . (J_lh s_high) + E_high,
so a block costs one small matrix product and no per-state Python step.  Each
block is reduced against its own maximum energy (log-sum-exp) to the
partition function, the magnetization, the band-restricted mass and, when
asked, the pair moments; block results are merged in fixed order, so results
are bit-stable and independent of any thread or chunk setting.

Glauber chains run in lockstep, one chunk of chains at a time.  Within a
chunk the states and fields are stored site-major (Fortran order), so one
site's values across chains are contiguous, and a site-step is a fixed
handful of whole-vector numpy calls: the logistic into a preallocated buffer,
the comparison with that step's uniforms, the spin change d in {-2, 0, 2},
and one BLAS rank-1 update (dger) of the fields by d times row i of the
couplings, issued in column blocks that keep each call on one thread.
The update is exact, so every chain is bit-for-bit the same as with a
masked update of the moved chains only: d * J[i, k] is an exact product,
the addition rounds once as before, and adding a zero product changes at
most the sign of a zero field, which exp(-2 l) cannot see.

Band machinery: for a profile m and delta > 0,

    Band(m, delta) = { sigma : |m . (sigma - m)| / n < delta },

Z_B restricts the Gibbs sum to the band, and Z_c sums exp(H(s) + H(t)) over
ordered pairs of band states whose centered overlap |<s - m, t - m>| / n
exceeds eta.  Z_c <= Z_B^2 always; at high temperature Z_c is exponentially
smaller, which is what the replica geometry tests probe.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger
from scipy.special import logsumexp

from tapglass.ensemble import ModelInstance

MAX_ENUMERATION_N = 24
MAX_PAIR_ENUMERATION_N = 12
MAX_MCMC_DENSE_N = 512

_LOW_BITS = 12
_BLOCK_STATES = 1 << 13
_SWEEP_BLOCK_ELEMENTS = 1 << 16
_CHAIN_CHUNK = 256
# OpenBLAS runs dger on several threads above 8192 entries; at Glauber sizes
# that buys no speed, and its spinning workers take cores from numpy's own
# BLAS threads, so the Glauber field update is issued in column blocks of at
# most this many entries.
_GER_BLOCK_ELEMENTS = 1 << 13
_PAIR_CHUNK_ROWS = 512


try:  # numpy's OpenBLAS thread count as (get, set); None under another BLAS build
    _blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    _BLAS_THREADS = (_blas.scipy_openblas_get_num_threads64_,
                     _blas.scipy_openblas_set_num_threads64_)
except (AttributeError, OSError):
    _BLAS_THREADS = None
else:
    _BLAS_THREADS[0].argtypes, _BLAS_THREADS[0].restype = [], ctypes.c_int
    _BLAS_THREADS[1].argtypes, _BLAS_THREADS[1].restype = [ctypes.c_int], None


def _one_blas_thread(fn):
    """fn with numpy's OpenBLAS held at one thread.  Enumeration products are
    big enough for OpenBLAS to split and too small to gain; its workers then
    spin and take a core from the Glauber loop that follows.  The count is
    process-wide and a product's rounding can depend on it, so it is held only
    while the caller is the process's one thread (not beside a cell pool)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _BLAS_THREADS is None or threading.active_count() > 1:
            return fn(*args, **kwargs)
        get, set_ = _BLAS_THREADS
        previous = get()
        set_(1)
        try:
            return fn(*args, **kwargs)
        finally:
            set_(previous)

    return wrapper


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

    @property
    def has_pair_margin(self) -> bool:
        """eta > 3 delta, the separation the two-scale pair arguments need."""
        return self.eta > 3.0 * self.delta


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
    """Exact log partition function and moments from full enumeration;
    log_z_band is the band-restricted log Z when a band was given."""

    log_z: float
    magnetization: np.ndarray
    pair_correlations: np.ndarray | None
    log_z_band: float | None = None


def _state_blocks(j_mat: np.ndarray, h: np.ndarray):
    """Yield (states, energies) over all 2^n states in ascending code order
    (bit i of the code is site i), one block at a time.

    A block is the full listing of the low k = min(n, _LOW_BITS) sites
    crossed with a run of high-site configurations, and its energies come
    from E = E_low + s_low . (J_lh s_high) + E_high.
    """
    n = h.size
    k = min(n, _LOW_BITS)
    low = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0
    e_low = 0.5 * np.einsum("ij,ij->i", low @ j_mat[:k, :k], low) + low @ h[:k]
    j_cross = 0.5 * (j_mat[:k, k:] + j_mat[k:, :k].T)
    n_high = 1 << (n - k)
    per_block = max(1, _BLOCK_STATES >> k)
    for start in range(0, n_high, per_block):
        codes = np.arange(start, min(start + per_block, n_high))
        high = ((codes[:, None] >> np.arange(n - k)) & 1) * 2.0 - 1.0
        e_high = 0.5 * np.einsum("ij,ij->i", high @ j_mat[k:, k:], high) + high @ h[k:]
        energies = e_high[:, None] + (high @ j_cross.T) @ low.T + e_low[None, :]
        states = np.empty((codes.size, low.shape[0], n))
        states[:, :, :k] = low
        states[:, :, k:] = high[:, None, :]
        yield states.reshape(-1, n), energies.ravel()


def _check_enumerable(instance: ModelInstance, band: BandSpec | None, cap: int, what: str):
    if instance.n > cap:
        raise ValueError(f"{what} is capped at n = {cap}, got {instance.n}")
    if band is not None and band.center.size != instance.n:
        raise ValueError("band center length must match the instance size")


@_one_blas_thread
def _enumerate(
    instance: ModelInstance, band: BandSpec | None = None, pairs: bool = False
) -> GibbsExact:
    """One pass over the state blocks.  Each block is weighted by
    exp(E - block max) and reduced to one row [Z, magnetization mass, band
    mass, pair mass]; the rows are merged in block order against the global
    max, so results are bit-stable."""
    _check_enumerable(instance, band, MAX_ENUMERATION_N, "exact enumeration")
    if pairs:
        _check_enumerable(instance, None, MAX_PAIR_ENUMERATION_N, "pair correlations")
    n = instance.n
    tops, rows = [], []
    for states, energies in _state_blocks(instance.dense_coupling(), instance.h):
        top = energies.max()
        w = np.exp(energies - top)
        row = [[w.sum()], w @ states]
        if band is not None:
            row.append([w[in_band(states, band)].sum()])
        if pairs:
            row.append(((states * w[:, None]).T @ states).ravel())
        tops.append(top)
        rows.append(np.concatenate(row))
    top = max(tops)
    total = np.exp(np.array(tops) - top) @ np.array(rows)
    z = total[0]
    log_z_band = None
    if band is not None:
        with np.errstate(divide="ignore"):
            log_z_band = float(top + np.log(total[n + 1]))
    return GibbsExact(
        log_z=float(top + np.log(z)),
        magnetization=total[1 : n + 1] / z,
        pair_correlations=total[-n * n :].reshape(n, n) / z if pairs else None,
        log_z_band=log_z_band,
    )


def exact_gibbs(
    instance: ModelInstance, pair_correlations: bool = False, band: BandSpec | None = None
) -> GibbsExact:
    """Full enumeration of the 2^n states (n <= 24; pair moments need n <= 12).
    With a band, log_z_band comes from the same pass."""
    return _enumerate(instance, band, pair_correlations)


def restricted_logZ_band(instance: ModelInstance, band: BandSpec) -> float:
    """log of the Gibbs sum over Band(m, delta); -inf when the band is empty."""
    return _enumerate(instance, band).log_z_band


@_one_blas_thread
def restricted_logZ_nonorth_pairs(instance: ModelInstance, band: BandSpec) -> float:
    """log Z_c: exact sum of exp(H(s) + H(t)) over ordered band pairs with
    centered overlap above eta (diagonal pairs included when they qualify).
    Returns -inf when no pair qualifies, so Z_c <= Z_B^2 still holds."""
    _check_enumerable(instance, band, MAX_PAIR_ENUMERATION_N, "exact pair enumeration")
    n = instance.n
    states, energies = (
        np.concatenate(part)
        for part in zip(*_state_blocks(instance.dense_coupling(), instance.h))
    )
    keep = in_band(states, band)
    centered = states[keep] - band.center
    e_band = energies[keep]
    chunk_logs = []
    for start in range(0, e_band.size, _PAIR_CHUNK_ROWS):
        rows = slice(start, start + _PAIR_CHUNK_ROWS)
        mask = np.abs(centered[rows] @ centered.T / n) > band.eta
        vals = (e_band[rows, None] + e_band[None, :])[mask]
        if vals.size:
            chunk_logs.append(logsumexp(vals))
    return float(logsumexp(chunk_logs)) if chunk_logs else -np.inf


# ----------------------------------------------------------------------
# Glauber dynamics
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReplicaSet:
    """Final states and per-chain time-averaged magnetizations of independent chains."""

    samples: np.ndarray      # (n_chains, n), final state of each chain
    chain_mag: np.ndarray    # (n_chains, n), time average over recorded sweeps
    recorded_sweeps: int     # sweeps entering each time average
    n: int


def glauber_sample(
    instance: ModelInstance,
    sweeps: int,
    burn_in: int,
    thin: int,
    n_chains: int,
    seed: int,
) -> ReplicaSet:
    """Run independent Glauber chains in lockstep and return their final states.

    Each sweep updates sites 0..n-1 in order; site i flips to +1 with
    probability 1/(1 + exp(-2 l_i)) where l = (Jbar - diag Jbar) sigma + h.
    Chains draw from per-chain child streams of the seed, so results do not
    depend on how chains are chunked.  After burn_in, every thin-th sweep's
    state enters the per-chain time average.

    Inside a chunk of at most _CHAIN_CHUNK chains, sigma and the fields l
    are (chains, n) Fortran-ordered arrays, so column i (site i across
    chains) is contiguous, and the uniforms of a block of sweeps are laid
    out (sweep, site, chain).  A site-step computes the logistic in place,
    the new spins, their change d in {-2, 0, 2}, and then the fields with
    one BLAS rank-1 update l += d J_off[i] over all chains, moved or not,
    issued as one dger call per column block of at most
    _GER_BLOCK_ELEMENTS fields (one call when chains * n is at most that).
    That update is exact: d * J_off[i, k] is an exact product and the sum
    rounds once, as a masked update of the moved chains would; a zero
    product leaves a field unchanged up to the sign of a zero, which
    exp(-2 l) does not see.  Outputs are therefore bit-for-bit those of a
    chain-by-chain masked loop on the same seed.
    """
    if sweeps < 1 or burn_in < 0 or thin < 1 or n_chains < 1:
        raise ValueError("need sweeps >= 1, burn_in >= 0, thin >= 1, n_chains >= 1")
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
        field = np.asfortranarray(sigma @ j_off + h[None, :])
        sigma = np.asfortranarray(sigma)
        mag_acc = np.zeros((n_c, n), order="F")
        prob_up = np.empty(n_c)
        up = np.empty(n_c, dtype=bool)
        delta_s = np.zeros(n_c)
        width = max(1, _GER_BLOCK_ELEMENTS // n_c)
        blocks = [(field[:, c:c + width], j_off[:, c:c + width]) for c in range(0, n, width)]
        # the column blocks are views, so dger must update them in place
        field_0, j_0 = blocks[0]
        if dger(0.0, delta_s, j_0[0], a=field_0, overwrite_a=1) is not field_0:
            raise RuntimeError("dger did not update the Glauber fields in place")
        done = 0
        while done < total:
            block = min(block_sweeps, total - done)
            # (block, n, n_c): the uniforms of one site-step are one contiguous row
            uniforms = np.stack([rng.random((block, n)) for rng in rngs], axis=2)
            for t in range(block):
                for i in range(n):
                    np.multiply(field[:, i], -2.0, out=prob_up)
                    np.exp(prob_up, out=prob_up)
                    np.add(prob_up, 1.0, out=prob_up)
                    np.divide(1.0, prob_up, out=prob_up)
                    np.less(uniforms[t, i], prob_up, out=up)
                    sigma_i = sigma[:, i]
                    np.subtract(np.where(up, 1.0, -1.0), sigma_i, out=delta_s)
                    sigma_i += delta_s
                    for field_block, j_block in blocks:
                        dger(1.0, delta_s, j_block[i], a=field_block, overwrite_a=1)
                sweep_index = done + t
                if sweep_index >= burn_in and (sweep_index - burn_in) % thin == 0:
                    mag_acc += sigma
            done += block
        samples[chunk] = sigma
        chain_mag[chunk] = mag_acc / recorded

    return ReplicaSet(
        samples=samples,
        chain_mag=chain_mag,
        recorded_sweeps=recorded,
        n=n,
    )


@dataclass(frozen=True, eq=False)
class MagnetizationEstimate:
    """Replica-averaged magnetization with per-site standard errors."""

    mean: np.ndarray
    se: np.ndarray
    distance: float | None


def estimate_magnetization(
    replicas: ReplicaSet,
    exact_magnetization: np.ndarray | None = None,
    use_time_average: bool = False,
) -> MagnetizationEstimate:
    """Average over chains; distance is (1/n) || mean - exact ||^2 when a
    reference is supplied.  The time-averaged variant has far lower variance
    per chain and is the right estimator for single-site marginals."""
    source = replicas.chain_mag if use_time_average else replicas.samples
    n_chains = source.shape[0]
    mean = source.mean(axis=0)
    if n_chains > 1:
        se = source.std(axis=0, ddof=1) / np.sqrt(n_chains)
    else:
        se = np.full(source.shape[1], np.nan)
    distance = None
    if exact_magnetization is not None:
        distance = float(np.sum((mean - exact_magnetization) ** 2) / replicas.n)
    return MagnetizationEstimate(mean=mean, se=se, distance=distance)


@dataclass(frozen=True)
class ReplicaGeometryReport:
    """How a replica cloud sits relative to a band.  pairs_in_band counts the
    ordered pairs of distinct in-band replicas, pairs_violating those among
    them with centered overlap above eta."""

    band_fraction: float
    pair_violation_fraction: float
    in_b_n: bool
    distance: float
    pairs_in_band: int
    pairs_violating: int


def replica_geometry_report(replicas: ReplicaSet, band: BandSpec) -> ReplicaGeometryReport:
    """One pass over the replica overlaps.  pair_violation_fraction is taken
    over all distinct ordered pairs (0 for a single replica); in_b_n asks every
    replica to be in the band and every such pair below the cut.  A pair is
    above the cut when its centered overlap |<s - m, t - m>| / n exceeds eta."""
    samples = replicas.samples
    centered = samples - band.center
    above = np.abs(centered @ centered.T / band.center.size) > band.eta
    inside = in_band(samples, band)
    distinct = ~np.eye(samples.shape[0], dtype=bool)
    both_inside = distinct & inside[:, None] & inside[None, :]
    mean = samples.mean(axis=0)
    return ReplicaGeometryReport(
        band_fraction=float(inside.mean()),
        pair_violation_fraction=float(above[distinct].mean()) if inside.size > 1 else 0.0,
        in_b_n=bool(inside.all() and not above[distinct].any()),
        distance=float(np.sum((mean - band.center) ** 2) / band.center.size),
        pairs_in_band=int(both_inside.sum()),
        pairs_violating=int((both_inside & above).sum()),
    )


@dataclass(frozen=True)
class SampledLogZc:
    """Sampled estimate of log Z_c from replica pairs, with a delta-method SE."""

    value: float
    se: float


def sampled_logZ_nonorth_pairs(
    report: ReplicaGeometryReport, log_z_band: float
) -> SampledLogZc:
    """Estimate log Z_c ~ 2 log Z_B + log g where g is the violating fraction
    among ordered pairs of in-band replicas (the product band-Gibbs measure is
    the proposal), read from the replicas' geometry report.  The SE treats
    pairs as a binomial count, which understates correlation between pairs
    sharing a replica; it is a scale indicator."""
    total, violating = report.pairs_in_band, report.pairs_violating
    if violating == 0:
        return SampledLogZc(value=-np.inf, se=np.nan)
    g = violating / total
    value = 2.0 * log_z_band + float(np.log(g))
    se = float(np.sqrt((1.0 - g) / (g * total)))
    return SampledLogZc(value=value, se=se)
