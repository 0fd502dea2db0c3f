"""Replica-symmetric fixed point and the constants derived from it.

With the inverse temperature absorbed into the spectrum (Rbar, Gbar are the
rescaled transforms from `spectral.RescaledLaw`), the scalar overlap solves

    q = E[ tanh(H + sigma(q) G)^2 ],    sigma(q)^2 = q * Rbar'(1 - q),

where G ~ N(0, 1) and H follows the external-field law.  From the solution
q* the model's limiting constants are

    sigma*^2 = q* Rbar'(1 - q*)
    lambda*  = Rbar(1 - q*) + 1/(1 - q*)     so that Gbar(lambda*) = 1 - q*
    a*       = Rbar(1 - q*)                  (Onsager coefficient)
    kappa*   = (1 - q*)^2 Rbar'(1 - q*) / (1 - (1 - q*)^2 Rbar'(1 - q*))
    delta*   = sigma*^2 / kappa*             ( = q*/(1-q*)^2 - sigma*^2 )
    psi_rs   = E[log 2cosh(H + sigma* G)] + (q*/2) Rbar(1 - q*)
               - (q*(1 - q*)/2) Rbar'(1 - q*) + (1/2) int_0^{1-q*} Rbar ,

the last being the limit of the free energy per site.  At beta = 0 every
transform term vanishes: q* = E tanh(H)^2, sigma*^2 = kappa* = a* = 0,
delta* = q*/(1-q*)^2 and psi_rs = E log 2cosh(H), the product measure, on
the same arithmetic.  Gaussian expectations use 61-node Gauss-Hermite
quadrature throughout; the fixed point is found by damped iteration.

`theoretical_delta` grows the message-passing state-evolution covariance
Delta_t column by column with common random numbers, so that empirical AMP
Gram matrices have a like-for-like target at finite Monte Carlo size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from tapglass.spectral import DomainError, RescaledLaw, SpectralLaw
from tapglass.spectral import _as_atoms, _quantile_grid, _spec_kind

GH_NODES = 61
_gh_x, _gh_w = hermgauss(GH_NODES)
GAUSS_NODES = np.sqrt(2.0) * _gh_x          # nodes for N(0,1) expectations
GAUSS_WEIGHTS = _gh_w / np.sqrt(np.pi)

DAMPING = 0.5
TOL = 1e-12
MAX_ITER = 10_000

FIELD_CONSTANT = "constant"
FIELD_GAUSSIAN = "gaussian"
FIELD_EMPIRICAL = "empirical"


class BetaTooLargeError(ValueError):
    """The temperature is outside the regime where the fixed-point constants exist."""


@dataclass(frozen=True, eq=False)
class FieldLaw:
    """Law of the external field entries.

    kinds: constant value, gaussian (mean, sd), or finite atoms.  Quadrature
    atoms discretize the law exactly (constant, empirical) or via 61-node
    Gauss-Hermite (gaussian).
    """

    kind: str
    value: float = 0.0
    sd: float = 0.0
    atoms: np.ndarray | None = None

    def quad_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, weights) for expectations over the field law."""
        if self.kind == FIELD_CONSTANT:
            return np.array([self.value]), np.array([1.0])
        if self.kind == FIELD_GAUSSIAN:
            return self.value + self.sd * GAUSS_NODES, GAUSS_WEIGHTS.copy()
        return self.atoms[:, 0].copy(), self.atoms[:, 1].copy()

    def quantiles(self, n: int) -> np.ndarray:
        """Deterministic grid F^{-1}((i - 1/2)/n), ascending."""
        if self.kind == FIELD_EMPIRICAL:
            return _quantile_grid(n, self.atoms)
        p = _quantile_grid(n)
        if self.kind == FIELD_CONSTANT:
            return np.full(n, self.value)
        from scipy.stats import norm

        return self.value + self.sd * norm.ppf(p)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == FIELD_CONSTANT:
            return np.full(size, self.value)
        if self.kind == FIELD_GAUSSIAN:
            return self.value + self.sd * rng.standard_normal(size)
        return rng.choice(self.atoms[:, 0], size=size, p=self.atoms[:, 1])

    def mean(self) -> float:
        v, w = self.quad_atoms()
        return float(w @ v)

    def to_spec(self) -> dict:
        if self.kind == FIELD_CONSTANT:
            return {"kind": FIELD_CONSTANT, "value": self.value}
        if self.kind == FIELD_GAUSSIAN:
            return {"kind": FIELD_GAUSSIAN, "mean": self.value, "sd": self.sd}
        return {
            "kind": FIELD_EMPIRICAL,
            "locations": self.atoms[:, 0].tolist(),
            "weights": self.atoms[:, 1].tolist(),
        }


def constant_field(value: float) -> FieldLaw:
    return FieldLaw(FIELD_CONSTANT, value=float(value))


def gaussian_field(mean: float, sd: float) -> FieldLaw:
    if sd < 0:
        raise ValueError(f"gaussian field needs sd >= 0, got {sd}")
    return FieldLaw(FIELD_GAUSSIAN, value=float(mean), sd=float(sd))


def empirical_field(values, weights) -> FieldLaw:
    return FieldLaw(FIELD_EMPIRICAL, atoms=_as_atoms(values, weights))


def field_from_spec(obj: dict) -> FieldLaw:
    kind = _spec_kind(obj, {
        FIELD_CONSTANT: ("value",),
        FIELD_GAUSSIAN: ("mean", "sd"),
        FIELD_EMPIRICAL: ("locations", "weights"),
    }, "field law")
    if kind == FIELD_CONSTANT:
        return constant_field(obj["value"])
    if kind == FIELD_GAUSSIAN:
        return gaussian_field(obj.get("mean", 0.0), obj["sd"])
    return empirical_field(obj["locations"], obj["weights"])


def gauss_field_expectation(integrand, field: FieldLaw, sigma: float) -> float:
    """E[f(H, sigma G)] for H ~ field, G ~ N(0,1) independent.

    ``integrand`` receives broadcastable arrays (h, y) and may return a scalar
    (constants broadcast).
    """
    h, ph = field.quad_atoms()
    y = sigma * GAUSS_NODES
    vals = np.asarray(integrand(h[:, None], y[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (h.size, y.size))
    return float(ph @ vals @ GAUSS_WEIGHTS)


@dataclass(frozen=True)
class FixedPoint:
    """Solved overlap and all constants derived from it."""

    beta: float
    q_star: float
    sigma_star_sq: float
    kappa_star: float
    delta_star: float
    lambda_star: float
    a_star: float
    psi_rs: float
    converged: bool
    iterations: int


def _tanh_sq_expectation(field: FieldLaw, sigma: float) -> float:
    return gauss_field_expectation(lambda h, y: np.tanh(h + y) ** 2, field, sigma)


def solve_fixed_point(beta: float, law: SpectralLaw, field: FieldLaw) -> FixedPoint:
    """Solve the overlap fixed point by damped iteration and derive all constants.

    Requires beta >= 0 and, for beta > 0, a standardized spectral law.  At
    beta = 0 the transform terms vanish and the product record is returned
    without looking at the law.  Raises BetaTooLargeError when an iterate or
    the solution leaves the domain where the rescaled transforms (and hence
    the constants) are defined, which is the numerical signature of leaving
    the high-temperature regime.
    """
    if not beta >= 0:
        raise ValueError(f"solve_fixed_point needs beta >= 0, got {beta}")
    if beta == 0.0:
        return product_fixed_point(field)
    if not law.is_standardized():
        raise ValueError("spectral law must be standardized (mean 0, variance 1)")
    rescaled = RescaledLaw(law, beta)

    def sigma_sq_of(q: float) -> float:
        if q == 0.0:
            return 0.0
        try:
            return q * rescaled.r_transform_derivative(1.0 - q)
        except DomainError as exc:
            raise BetaTooLargeError(
                f"1 - q = {1 - q} left the R-transform domain at beta={beta}"
            ) from exc

    q = _tanh_sq_expectation(field, 0.0)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        s2 = sigma_sq_of(q)
        q_map = _tanh_sq_expectation(field, np.sqrt(s2))
        q_new = (1.0 - DAMPING) * q + DAMPING * q_map
        if abs(q_new - q) < TOL:
            q = q_new
            converged = True
            break
        q = q_new

    u = 1.0 - q
    try:
        transforms = (rescaled.r_transform(u), rescaled.r_transform_derivative(u),
                      rescaled.r_integral(u))
    except DomainError as exc:
        raise BetaTooLargeError(
            f"1 - q* = {u} is outside the rescaled transform domain at beta={beta}"
        ) from exc
    return _derive_constants(beta, transforms, field, q, converged, iterations)


def _derive_constants(
    beta: float,
    transforms: tuple[float, float, float],
    field: FieldLaw,
    q: float,
    converged: bool,
    iterations: int,
) -> FixedPoint:
    """The record at overlap q from (Rbar, Rbar', int_0 Rbar) at 1 - q."""
    r_val, r_der, r_int = transforms
    u = 1.0 - q
    denom = 1.0 - u * u * r_der
    if denom <= 0:
        raise BetaTooLargeError(
            f"1 - (1-q*)^2 Rbar'(1-q*) = {denom} <= 0 at beta={beta}; "
            "the covariance expansion diverges"
        )
    sigma_sq = q * r_der
    kappa = u * u * r_der / denom  # = 1/denom - 1 without the cancellation
    if kappa > 0:
        delta = sigma_sq / kappa
    else:
        delta = q / (u * u)  # kappa = 0 forces sigma*^2 = 0 (decoupled limit)
    lam = r_val + 1.0 / u
    psi = (
        gauss_field_expectation(
            lambda h, y: np.log(2.0 * np.cosh(h + y)), field, np.sqrt(sigma_sq)
        )
        + 0.5 * q * r_val
        - 0.5 * q * u * r_der
        + 0.5 * r_int
    )
    return FixedPoint(
        beta=float(beta),
        q_star=float(q),
        sigma_star_sq=float(sigma_sq),
        kappa_star=float(kappa),
        delta_star=float(delta),
        lambda_star=float(lam),
        a_star=float(r_val),
        psi_rs=float(psi),
        converged=converged,
        iterations=iterations,
    )


def product_fixed_point(field: FieldLaw) -> FixedPoint:
    """The beta = 0 record: a product measure, where every transform term vanishes."""
    return _derive_constants(0.0, (0.0, 0.0, 0.0), field, _tanh_sq_expectation(field, 0.0),
                             True, 0)


@dataclass(frozen=True)
class DeltaEstimate:
    """Monte Carlo estimate of the state-evolution covariance, with standard errors."""

    delta: np.ndarray
    se: np.ndarray
    samples: int


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


def theoretical_delta(
    fp: FixedPoint,
    field: FieldLaw,
    t_max: int,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> DeltaEstimate:
    """Estimate the t_max x t_max covariance Delta of the effective iterates.

    The recursion couples columns: X_s = (1-q*)^{-1} tanh(H + Y_{s-1}) - Y_{s-1}
    with Y_0 ~ N(0, sigma*^2) and (Y_1, ..., Y_{t-1}) ~ N(0, kappa* Delta_t),
    Delta_s = E[X X^T] over the first s columns.  Common random numbers: H,
    Y_0, and the Gaussian innovations behind Y_s are drawn once, and Y_s is
    produced from the semidefinite Cholesky factor of the current kappa* Delta
    estimate, so successive columns are maximally correlated and the empirical
    Grams of a matched AMP run have a stable target.  At beta = 0 the factor
    is zero, Y vanishes, and every entry estimates E tanh(H)^2 / (1-q*)^2 = delta*.
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
    return DeltaEstimate(delta=delta, se=se, samples=mc_samples)
