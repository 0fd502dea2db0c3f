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
    s_rs     = psi_rs - a*/2 - (1 - q*) sigma*^2 / 2 - E[H tanh(H + sigma* G)] ,

the limits of the free energy per site and of its entropy
psi_rs - beta dpsi_rs/dbeta - c dpsi_rs/dc at field scale c = 1 (psi is
stationary in q).  An Ising measure's entropy is >= 0, so
`solve_fixed_point` raises where s_rs < 0.  At beta = 0 every transform term
vanishes: q* = E tanh(H)^2, sigma*^2 = kappa* = a* = 0, delta* = q*/(1-q*)^2
and psi_rs = E log 2cosh(H), the product measure, on the same arithmetic.
Gaussian expectations use 61-node Gauss-Hermite quadrature throughout; the
fixed point is found by damped iteration.

`theoretical_delta` computes the message-passing state-evolution covariance
Delta column by column by the same quadrature, the deterministic target the
empirical AMP Gram matrices are checked against.
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
ENTROPY_TOL = 1e-12  # s_rs of about 2e-15 computes as -3.6e-15 at field 18.775

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
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"constant field needs a finite value, got {value}")
    return FieldLaw(FIELD_CONSTANT, value=value)


def gaussian_field(mean: float, sd: float) -> FieldLaw:
    mean, sd = float(mean), float(sd)
    if not (np.isfinite(mean) and 0 <= sd < np.inf):
        raise ValueError(f"gaussian field needs a finite mean and sd >= 0, got {mean}, {sd}")
    return FieldLaw(FIELD_GAUSSIAN, value=mean, sd=sd)


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
    the high-temperature regime, and when s_rs < 0, which at zero field no
    other check sees.
    """
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
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
    if u == 0.0:  # tanh(H)^2 rounds to 1: the field fixes every spin
        raise ValueError(f"1 - q* = 0 at beta={beta}; the constants divide by 1 - q*")
    denom = 1.0 - u * u * r_der
    # inside the transform domain w^2 R'(w) < 1, as K(w) = R(w) + 1/w inverts
    # the decreasing G: this guard is a backstop against rounding at the edge
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
        gauss_field_expectation(lambda h, y: _log_2cosh(h + y), field, np.sqrt(sigma_sq))
        + 0.5 * q * r_val
        - 0.5 * q * u * r_der
        + 0.5 * r_int
    )
    fp = FixedPoint(
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
    entropy = _rs_entropy(fp, field)
    if entropy < -ENTROPY_TOL:
        raise BetaTooLargeError(
            f"the replica-symmetric entropy is {entropy:.4g} < 0 at beta={beta}; "
            "spins have entropy >= 0, so this is not the high-temperature phase")
    return fp


def _log_2cosh(x: np.ndarray) -> np.ndarray:
    """log(2 cosh x), by np.logaddexp(x, -x) only where cosh overflows: it
    differs in the last bit at some points where cosh does not."""
    with np.errstate(over="ignore"):
        out = np.log(2.0 * np.cosh(x))
    return np.where(np.isinf(out), np.logaddexp(x, -x), out)


def _rs_entropy(fp: FixedPoint, field: FieldLaw) -> float:
    """s_rs; at zero field, log 2 + (1/2) int_0^beta R - (beta/2) R(beta)."""
    field_term = gauss_field_expectation(
        lambda h, y: h * np.tanh(h + y), field, np.sqrt(fp.sigma_star_sq))
    return fp.psi_rs - 0.5 * fp.a_star - 0.5 * (1.0 - fp.q_star) * fp.sigma_star_sq - field_term


def product_fixed_point(field: FieldLaw) -> FixedPoint:
    """The beta = 0 record: a product measure, where every transform term vanishes."""
    return _derive_constants(0.0, (0.0, 0.0, 0.0), field, _tanh_sq_expectation(field, 0.0),
                             True, 0)


def theoretical_delta(fp: FixedPoint, field: FieldLaw, t_max: int) -> np.ndarray:
    """The t_max x t_max state-evolution covariance Delta of the effective iterates.

    Entry (s, t), counting from 0, is E[X_s X_t] with
    X_s = (1-q*)^{-1} tanh(H + Y_s) - Y_s.  Y_0 ~ N(0, sigma*^2) is
    independent of (Y_1, Y_2, ...), whose covariance is kappa* times the
    leading block of Delta, Cov(Y_s, Y_t) = kappa* Delta[s-1, t-1].  So each
    entry is a bivariate Gaussian expectation: factor the 2 x 2 covariance of
    (Y_s, Y_t), with a pivot below zero from rounding clamped at 0, and sum
    over 61 x 61 Gauss-Hermite nodes and the field's quadrature atoms.
    Column t needs only columns before it, so Delta is filled column by
    column and the leading block of a larger t_max is the same array.  The
    diagonal is delta* (by Stein's lemma E[Y tanh(H + Y)] = sigma*^2 (1-q*));
    at beta = 0, where sigma* = kappa* = 0, every entry is
    E tanh(H)^2 / (1-q*)^2 = delta*.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    h, ph = field.quad_atoms()
    h = h[:, None, None]
    inv_u = 1.0 / (1.0 - fp.q_star)
    g = GAUSS_NODES

    def y_cov(s: int, t: int) -> float:
        if s == 0 or t == 0:
            return fp.sigma_star_sq if s == t else 0.0
        return fp.kappa_star * delta[s - 1, t - 1]

    delta = np.empty((t_max, t_max))
    for t in range(t_max):
        for s in range(t + 1):
            a = np.sqrt(y_cov(s, s))
            b = y_cov(s, t) / a if a > 0 else 0.0
            c = np.sqrt(max(y_cov(t, t) - b * b, 0.0))
            y_s = a * g[:, None]
            y_t = b * g[:, None] + c * g
            x_s = inv_u * np.tanh(h + y_s) - y_s
            x_t = inv_u * np.tanh(h + y_t) - y_t
            delta[s, t] = delta[t, s] = ph @ ((x_s * x_t) @ GAUSS_WEIGHTS @ GAUSS_WEIGHTS)
    return delta
