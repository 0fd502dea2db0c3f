"""Independent reference routes the tests check the package against.

Bisection on the Cauchy transform inverts G for every spectral law without
the semicircle's closed forms or the atomic root solve; a central difference
gives R'.  resolvent_gamma materializes the dense operator Gamma that AMP
never forms, for the check y^t = Gamma x^t at small n.  damped_tap_solve is
the plain damped iteration the Anderson-mixed solver accelerates.
monte_carlo_delta estimates the state-evolution covariance by sampling the
recursion that theoretical_delta integrates by quadrature.  masked_glauber is
the chain-by-chain Glauber loop with a masked rank-1 field update, which the
lockstep block sampler is checked against bit for bit.  haar_orthogonal
is the unconstrained O(n) draw that haar_so's determinant fix is compared
with, and has_pair_margin the band separation the pair arguments assume.
householder_haar_so multiplies out, one explicit Householder matrix at a
time, the reflectors haar_so builds from its row-by-row Gaussian draws, and
slogdet fixes its sign; haar_so returns that product's transpose.  The signed QR reference, _reference_signed_q, is Q
as np.linalg.qr and slogdet give it: the QR draw whose law haar_so's
reflector draw has.  The conditioned sampler conditional_haar_so draws O
uniformly from {O in SO(n): O B = A}, the resampling step behind
conditioning an invariant ensemble on matrix-vector observations
(Bolthausen 2014); it completes the column spans through the signed QR
reference.  zero_field_log_partition is the Haar
average of Z at zero field, a one-dimensional contour integral: the exact
finite-n target the free energy's annealed bound gives.
"""

import math

import numpy as np
from scipy.optimize import brentq

from tapglass.ensemble import ModelInstance, haar_so
from tapglass.fixed_point import FieldLaw, FixedPoint
from tapglass.gibbs import _SWEEP_BLOCK_ELEMENTS, BandSpec
from tapglass.spectral import DomainError, SpectralLaw
from tapglass.tap import (
    DEFAULT_TAP_TOL,
    TAP_DAMPING,
    TAP_MAX_ITER,
    TapSolution,
    corrected_field,
    tap_residual,
)

INVERSE_TOL = 1e-12
DERIVATIVE_REL_STEP = 1e-6

MASKED_CHAIN_CHUNK = 256  # masked_glauber's chains per pass
GRAM_MATCH_TOL = 1e-8

ZERO_FIELD_NODES = 801  # trapezoid nodes of the contour integral
ZERO_FIELD_WIDTHS = 12.0  # its half-length in saddle widths

_EDGE_OFFSET = 1e-12
_BRACKET_START = 1e3
_MAX_BRACKET_GROWTH = 200
_MAX_BISECT = 500


def numeric_cauchy_inverse(law: SpectralLaw, w: float, tol: float = INVERSE_TOL) -> float:
    """Invert G by bisection on (d_plus, inf), to |G(z) - w| < tol.

    Valid for every law; this is the reference route the semicircle's closed
    forms and the atomic root solve are checked against.  The bracket starts
    at (d_plus + 1e-12, d_plus + 1e3] and the upper end grows geometrically
    until it straddles the root (small w puts the root near 1/w, far beyond
    any fixed cap).
    """
    if not (0.0 < w < law.edge_cauchy()):
        raise DomainError(f"numeric inverse needs w in (0, {law.edge_cauchy()}), got {w}")
    d = law.d_plus
    lo = d + _EDGE_OFFSET
    if not law.cauchy_transform(lo) > w:
        raise RuntimeError(
            "bisection bracket does not straddle the root: w is above G at the "
            "support edge offset (w too close to the edge value)"
        )
    hi = d + _BRACKET_START
    for _ in range(_MAX_BRACKET_GROWTH):
        if law.cauchy_transform(hi) < w:
            break
        hi = d + 2.0 * (hi - d)
    else:
        raise RuntimeError("bisection upper bracket failed to straddle the root")
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        g = law.cauchy_transform(mid)
        if abs(g - w) < tol:
            return mid
        if g > w:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"bisection failed to reach tolerance {tol} for w={w}")


def numeric_r_transform(law: SpectralLaw, w: float) -> float:
    """R(w) through the bisection inverse, independent of any closed form."""
    return numeric_cauchy_inverse(law, w) - 1.0 / w


def numeric_r_derivative(law: SpectralLaw, w: float, rel_step: float = DERIVATIVE_REL_STEP) -> float:
    """Central difference for R'(w) with step 1e-6 * max(1, |w|)."""
    h = rel_step * max(1.0, abs(w))
    return (law.r_transform(w + h) - law.r_transform(w - h)) / (2.0 * h)


def resolvent_gamma(instance: ModelInstance, fp: FixedPoint) -> np.ndarray:
    """Dense Gamma = (1-q*)^{-1} (lambda* I - Jbar)^{-1} - I (small n only).

    The exact linear relation y^t = Gamma x^t holds at every step, which makes
    this the independent check on the factored iteration.
    """
    if instance.n > 64:
        raise ValueError(f"resolvent check is a small-n tool, got n={instance.n}")
    jbar = instance.dense_coupling()
    res = np.linalg.inv(fp.lambda_star * np.eye(instance.n) - jbar)
    return res / (1.0 - fp.q_star) - np.eye(instance.n)


def damped_tap_solve(
    instance: ModelInstance, fp: FixedPoint, m0: np.ndarray | None = None,
    tol: float = DEFAULT_TAP_TOL,
) -> TapSolution:
    """Plain damped iteration m <- (1 - gamma) m + gamma tanh(h + Jbar m - a* m),
    gamma = TAP_DAMPING, with the package solver's start and stop rule: from
    tanh(h) unless m0 is given, until the rms step drops below tol or after
    TAP_MAX_ITER steps.
    """
    n = instance.n
    m = np.tanh(instance.h) if m0 is None else np.asarray(m0, dtype=float).copy()
    converged = False
    iterations = 0
    for iterations in range(1, TAP_MAX_ITER + 1):
        target = np.tanh(corrected_field(instance, fp, m))
        m_new = (1.0 - TAP_DAMPING) * m + TAP_DAMPING * target
        step = np.sqrt(np.sum((m_new - m) ** 2) / n)
        m = m_new
        if step < tol:
            converged = True
            break
    return TapSolution(
        m=m, converged=converged, iterations=iterations,
        residual=tap_residual(instance, fp, m),
    )


def _semidefinite_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = a for a symmetric positive semidefinite a.

    A pivot whose conditional variance is at rounding level (at most
    size * eps * max diag) is kept as a zero column instead of failing
    (Higham 1990).  As the iterates converge, Delta tends to the rank-one
    delta* 11^T and such pivots are the rule.  The leading s x s block of L
    depends only on the leading s x s block of a, so factors of nested
    blocks are nested.
    """
    size = a.shape[0]
    low = np.zeros_like(a)
    tol = size * np.finfo(float).eps * max(float(np.max(np.diag(a))), 0.0)
    for j in range(size):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if pivot > tol:
            low[j, j] = np.sqrt(pivot)
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def monte_carlo_delta(
    fp: FixedPoint, field: FieldLaw, t_max: int, mc_samples: int, seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(Delta, its standard errors) from mc_samples draws of the recursion.

    The recursion couples columns: X_s = (1-q*)^{-1} tanh(H + Y_{s-1}) - Y_{s-1}
    with Y_0 ~ N(0, sigma*^2) and (Y_1, ..., Y_{t-1}) ~ N(0, kappa* Delta_t),
    Delta_s = E[X X^T] over the first s columns.  Common random numbers: H,
    Y_0, and the Gaussian innovations behind Y_s are drawn once, and Y_s is
    produced from the semidefinite Cholesky factor of the current kappa* Delta
    estimate, so successive columns are maximally correlated.  At beta = 0
    the factor is zero, Y vanishes, and every entry estimates
    E tanh(H)^2 / (1-q*)^2 = delta*.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if mc_samples < 2:
        raise ValueError(f"mc_samples must be >= 2, got {mc_samples}")

    rng = np.random.default_rng(seed)
    h = field.sample(rng, mc_samples)
    y0 = np.sqrt(fp.sigma_star_sq) * rng.standard_normal(mc_samples)
    # one innovation row per time step, so the first s rows do not depend on t_max
    xi = rng.standard_normal((t_max, mc_samples))

    inv_u = 1.0 / (1.0 - fp.q_star)
    x_cols = np.empty((mc_samples, t_max))
    y_prev = y0
    for s in range(1, t_max + 1):
        x_cols[:, s - 1] = inv_u * np.tanh(h + y_prev) - y_prev
        if s == t_max:
            break
        block = x_cols[:, :s]
        delta_s = block.T @ block / mc_samples
        chol = _semidefinite_cholesky(fp.kappa_star * delta_s)
        y_prev = chol[s - 1, :] @ xi[:s]

    delta = x_cols.T @ x_cols / mc_samples
    prods_sq_mean = (x_cols**2).T @ (x_cols**2) / mc_samples
    se = np.sqrt(np.maximum(prods_sq_mean - delta**2, 0.0) / mc_samples)
    return delta, se


def masked_glauber(
    instance: ModelInstance, sweeps: int, burn_in: int, n_chains: int, seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(final states, time-averaged magnetizations) of chain-major Glauber
    chains, run MASKED_CHAIN_CHUNK chains at a time.  Site i moves up where
    u < 1/(1 + exp(-2 l_i)), and only the chains whose spin changed get the
    rank-1 field update l += (new - old) J_off[i].  Chain c draws from child c
    of the seed, at most _SWEEP_BLOCK_ELEMENTS uniforms a chain at a time."""
    n = instance.n
    j_off = instance.dense_coupling()
    np.fill_diagonal(j_off, 0.0)
    h = instance.h
    children = np.random.SeedSequence(seed).spawn(n_chains)
    samples = np.empty((n_chains, n))
    chain_mag = np.zeros((n_chains, n))
    total = burn_in + sweeps
    block_sweeps = max(1, _SWEEP_BLOCK_ELEMENTS // n)
    for chunk_start in range(0, n_chains, MASKED_CHAIN_CHUNK):
        chunk = slice(chunk_start, min(chunk_start + MASKED_CHAIN_CHUNK, n_chains))
        rngs = [np.random.default_rng(c) for c in children[chunk]]
        sigma = np.array([rng.integers(0, 2, n) * 2 - 1 for rng in rngs], dtype=float)
        field = sigma @ j_off + h[None, :]
        mag_acc = np.zeros((len(rngs), n))
        for done in range(0, total, block_sweeps):
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
                if done + t >= burn_in:
                    mag_acc += sigma
        samples[chunk] = sigma
        chain_mag[chunk] = mag_acc / sweeps
    return samples, chain_mag


def haar_orthogonal(n: int, seed) -> np.ndarray:
    """Haar-uniform draw from O(n): numpy's QR of a Gaussian matrix with the
    R-diagonal sign convention (unique QR with positive diagonal)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def householder_haar_so(n: int, seed) -> np.ndarray:
    """The transpose of haar_so's draw from the same seed: the signed product
    Q = H_0 H_1 ... H_{n-1} of explicit Householder matrices, where H_k
    reflects the length n - k Gaussian draw x onto beta e_1 (H_k = I when
    x[1:] = 0), column k is signed by beta, and the last column is negated
    when slogdet finds det = -1.  haar_so returns Q^T, the C-ordered reading
    of the Fortran-ordered Q that orgqr leaves in its buffer."""
    rng = np.random.default_rng(seed)
    q = np.eye(n)
    signs = np.ones(n)
    for k in range(n):
        x = rng.standard_normal(n - k)
        alpha, rest = x[0], math.sqrt(float(np.dot(x[1:], x[1:])))
        beta = alpha
        if rest > 0:
            beta = -math.copysign(math.hypot(alpha, rest), alpha)
            v = np.concatenate([[1.0], x[1:] / (alpha - beta)])
            h = np.eye(n - k) - (beta - alpha) / beta * np.outer(v, v)
            q[:, k:] = q[:, k:] @ h
        signs[k] = -1.0 if beta < 0 else 1.0
    q *= signs
    if np.linalg.slogdet(q)[0] < 0:
        q[:, -1] = -q[:, -1]
    return q


def _reference_signed_q(a: np.ndarray, special: bool) -> np.ndarray:
    """The complete Q of the m x k matrix a as np.linalg.qr gives it, columns
    signed so that R's diagonal is positive, and with special the last column
    negated when slogdet finds det Q = -1."""
    k = a.shape[1]
    q, r = np.linalg.qr(a, mode="complete")
    q[:, :k] *= np.where(np.diag(r) < 0, -1.0, 1.0)[None, :]
    if special and np.linalg.slogdet(q)[0] < 0:
        q[:, -1] = -q[:, -1]
    return q


def conditional_haar_so(A: np.ndarray, B: np.ndarray, seed) -> np.ndarray:
    """Uniform draw from {O in SO(n) : O B = A} for n x k matrices (k < n),

        O = A (A^T A)^{-1} B^T + V_Aperp Otilde V_Bperp^T,

    where V_Aperp, V_Bperp are the last n - k columns of the det-+1 signed
    QR bases of A and B, and Otilde = haar_so(n - k, seed).  Requires A of
    full column rank and B^T B = A^T A within 1e-8 in max norm; the draw is
    Haar on the fiber by invariance of the Haar draw on the complement.
    """
    a = np.asarray(A, dtype=float)
    b = np.asarray(B, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"A and B must share an n x k shape, got {a.shape} vs {b.shape}")
    n, k = a.shape
    if not k < n:
        raise ValueError(f"need k < n, got k={k}, n={n}")

    gram_a = a.T @ a
    if np.abs(gram_a - b.T @ b).max() > GRAM_MATCH_TOL:
        raise ValueError("A and B must satisfy B^T B = A^T A within 1e-8")
    cond = np.linalg.cond(gram_a)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("A must have full column rank")

    exact_part = a @ np.linalg.solve(gram_a, b.T)
    perp_a = _reference_signed_q(a, True)[:, k:]
    perp_b = _reference_signed_q(b, True)[:, k:]
    return exact_part + perp_a @ haar_so(n - k, seed) @ perp_b.T


def has_pair_margin(band: BandSpec) -> bool:
    """eta > 3 delta, the separation the two-scale pair arguments need."""
    return band.eta > 3.0 * band.delta


def zero_field_log_partition(d_bar: np.ndarray) -> float:
    """log E_O Z at zero field for Jbar = O^T diag(d_bar) O, O Haar on SO(n).

    O sigma / sqrt(n) is uniform on the unit sphere for every sigma, so
    E_O Z = 2^n I_n with I_n = E_u exp(sum_i a_i u_i^2), a = (n/2) d_bar.  As
    u_i^2 is Dirichlet(1/2, ..., 1/2),

        I_n = Gamma(n/2) / (2 pi i) int e^z prod_i (z - a_i)^{-1/2} dz

    over any contour from -i inf to +i inf that passes right of every a_i.
    The contour is the parabola z = z0 + i t - c t^2 through the saddle
    point z0 > max a (sum_i 1/(z0 - a_i) = 2), with c = 1/(3 w^2) for the
    saddle width w: it leaves the real axis only at z0, so it crosses no
    branch cut, and its e^{-c t^2} decay lets the trapezoid rule over
    |t| <= ZERO_FIELD_WIDTHS w converge fast.  (A vertical line decays only
    like |t|^{-n/2}.)  At large n, log E_O Z - n psi_rs tends to
    -(1/2) log(1 + kappa*)."""
    d_bar = np.asarray(d_bar, dtype=float)
    n = d_bar.size
    a = 0.5 * n * d_bar
    # sum 1/(z - a_i) - 2 is >= 2 at max a + 1/4 and <= 0 at max a + n/2
    z0 = brentq(lambda z: np.sum(1.0 / (z - a)) - 2.0, a.max() + 0.25, a.max() + 0.5 * n,
                xtol=1e-15, rtol=4 * np.finfo(float).eps)
    b = z0 - a
    width = 1.0 / math.sqrt(0.5 * np.sum(b**-2.0))
    curve = 1.0 / (3.0 * width**2)
    t = width * np.linspace(-ZERO_FIELD_WIDTHS, ZERO_FIELD_WIDTHS, ZERO_FIELD_NODES)
    shift = 1j * t - curve * t**2  # z - z0
    # log of the integrand times dz/dt, less its real value at z0
    log_f = shift - 0.5 * np.log1p(shift[:, None] / b).sum(axis=1) + np.log(1j - 2.0 * curve * t)
    integral = np.exp(log_f).sum() * (t[1] - t[0])
    log_saddle = z0 - 0.5 * np.log(b).sum()
    return (n * math.log(2.0) + math.lgamma(0.5 * n) + log_saddle
            + math.log(integral.imag / (2.0 * math.pi)))
