"""Independent reference routes the tests check the package against.

Bisection on the Cauchy transform inverts G for every spectral law without
the semicircle's closed forms or the atomic root solve; a central difference
gives R'.  resolvent_gamma materializes the dense operator Gamma that AMP
never forms, for the check y^t = Gamma x^t at small n.  damped_tap_solve is
the plain damped iteration the Anderson-mixed solver accelerates.
monte_carlo_delta estimates the state-evolution covariance by sampling the
recursion that theoretical_delta integrates by quadrature.
"""

import numpy as np

from tapglass.ensemble import ModelInstance
from tapglass.fixed_point import FieldLaw, FixedPoint
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
