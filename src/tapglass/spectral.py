"""Eigenvalue laws and their free-probability transforms.

A coupling matrix is built as O^T D O with O uniform on SO(n) and D holding
quantiles of a fixed spectral law mu.  Everything downstream (fixed points,
Onsager corrections, AMP denoisers) consumes mu only through its Cauchy
transform and R-transform:

    G(z) = int (z - x)^{-1} mu(dx)            for z > d_plus = max support,
    R(w) = G^{-1}(w) - 1/w                    for w in (0, G(d_plus+)).

G is strictly decreasing on (d_plus, inf) with G(z) -> 0+, so the inverse is
well defined.  For the semicircle law (support [-2, 2], unit variance)

    G(z) = (z - sqrt(z^2 - 4)) / 2,   G^{-1}(w) = w + 1/w,   R(w) = w,

and these closed forms are used.  Every atomic law, the symmetric two-point
law at +-1 included, goes through one root solve.  For atoms x_i with
weights p_i (top atom x_k) write D_i = 1 + w (R - x_i); G(R + 1/w) = w says
sum_i p_i / D_i = 1, so R is the root of the increasing
g(R) = sum_i p_i (R - x_i) / D_i, which changes sign on
[max(x_1, x_k - (1 - p_k)/w), x_k], where every D_i >= p_k > 0.  That one root gives the exact R' = sum p (R-x)^2/D^2 / sum p/D^2 and
int_0^a R = a R(a) - sum p log1p(a (R(a) - x)).

Root solves, these and the semicircle quantiles, go through `_brentq`, a
step-for-step port of scipy.optimize.brentq that gives the same doubles, so
importing the module loads numpy only, not scipy.optimize.  The semicircle
quantile grid is solved once per size and shared read-only.

Temperature enters by scaling the spectrum: if d has law mu then beta * d has
the transforms

    Gbar(z) = G(z / beta) / beta,      Rbar(w) = beta * R(beta * w),

which `RescaledLaw` implements directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SEMICIRCLE = "semicircle"
EMPIRICAL = "empirical"


class DomainError(ValueError):
    """Argument lies outside the transform's domain of definition."""


class DegenerateLawError(ValueError):
    """Law has zero variance and cannot be standardized."""


def _as_atoms(values, weights) -> np.ndarray:
    """Validate and canonicalize an atomic law: sorted locations, weights > 0 summing to 1."""
    x = np.asarray(values, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if x.size == 0 or x.size != w.size:
        raise ValueError("atoms need matching, nonempty location and weight arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError("atom locations and weights must be finite")
    if np.any(w < 0):
        raise ValueError("atom weights must be nonnegative")
    total = w.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"atom weights must sum to 1, got {total!r}")
    keep = w > 0
    x, w = x[keep], w[keep]
    order = np.argsort(x)
    return np.column_stack([x[order], w[order]])


@dataclass(frozen=True, eq=False)
class SpectralLaw:
    """A probability law on the real line used for coupling spectra.

    ``atoms`` is an (k, 2) array of (location, weight) rows for an atomic
    law and None for the semicircle.  ``d_plus`` is the supremum of the
    support, ``mean`` and ``variance`` the first two moments.
    """

    kind: str
    atoms: np.ndarray | None
    d_plus: float
    mean: float
    variance: float

    # ----- transforms -------------------------------------------------

    def cauchy_transform(self, z: float) -> float:
        """G(z) = int (z - x)^{-1} dmu(x), defined for z > d_plus."""
        if not z > self.d_plus:
            raise DomainError(f"cauchy transform needs z > {self.d_plus}, got {z}")
        if self.kind == SEMICIRCLE:
            return (z - np.sqrt(z * z - 4.0)) / 2.0
        x, w = self.atoms[:, 0], self.atoms[:, 1]
        return float(np.sum(w / (z - x)))

    def edge_cauchy(self) -> float:
        """G(d_plus+): finite for the semicircle, +inf when an atom sits at the edge."""
        if self.kind == SEMICIRCLE:
            return 1.0
        return np.inf

    def cauchy_inverse(self, w: float) -> float:
        """G^{-1}(w) = R(w) + 1/w on (0, G(d_plus+))."""
        return self.r_transform(w) + 1.0 / w

    def r_transform(self, w: float) -> float:
        """R(w) = G^{-1}(w) - 1/w.  The semicircle gives R(w) = w exactly."""
        self._check_inverse_domain(w)
        if self.kind == SEMICIRCLE:
            return w
        return self._atomic_r(w)[0]

    def r_transform_derivative(self, w: float) -> float:
        """R'(w): 1 for the semicircle, an exact sum over the atoms otherwise."""
        self._check_inverse_domain(w)
        if self.kind == SEMICIRCLE:
            return 1.0
        y, p = self._atomic_r(w)[1], self.atoms[:, 1]
        d2 = (1.0 + w * y) ** -2
        return float(p @ (d2 * y * y) / (p @ d2))

    def r_integral(self, a: float) -> float:
        """int_0^a R(w) dw: closed form for every kind (R(0+) is the mean)."""
        if a < 0:
            raise DomainError(f"r_integral needs a >= 0, got {a}")
        if a == 0.0:
            return 0.0
        if not a < self.edge_cauchy():
            raise DomainError(f"r_integral needs a < {self.edge_cauchy()}, got {a}")
        if self.kind == SEMICIRCLE:
            return a * a / 2.0
        r, y = self._atomic_r(a)
        return float(a * r - self.atoms[:, 1] @ np.log1p(a * y))

    def _atomic_r(self, w: float) -> tuple[float, np.ndarray]:
        """R(w) and R - x_i for an atomic law: the root of g (module docstring).

        Solved for s = R - x_k: the left end -(1 - p_k)/w then carries no
        rounding of x_k, which flips the sign of g there at large w.  The
        tolerance is relative only: R(w) ~ mean + variance w can be tiny.
        """
        x, p = self.atoms[:, 0], self.atoms[:, 1]
        gap = x[-1] - x
        s = _brentq(lambda t: p @ ((t + gap) / (1.0 + w * (t + gap))),
                    max(-gap[0], -(1.0 - p[-1]) / w), 0.0, np.finfo(float).tiny)
        return float(x[-1] + s), s + gap

    def _check_inverse_domain(self, w: float) -> None:
        if not (0.0 < w < self.edge_cauchy()):
            raise DomainError(
                f"inverse-domain argument must lie in (0, {self.edge_cauchy()}), got {w}"
            )

    # ----- law manipulation -------------------------------------------

    def standardize(self) -> SpectralLaw:
        """Affine image with mean 0 and variance 1.  A law that
        `is_standardized` (the semicircle too) is returned as it is, so this is
        idempotent to the bit and a standardized law's spec parses back to the
        same atoms; a second pass would move them by rounding, up to ~1e-9."""
        if self.is_standardized():
            return self
        if self.variance <= 0:
            raise DegenerateLawError("zero-variance law cannot be standardized")
        scale = np.sqrt(self.variance)
        x = (self.atoms[:, 0] - self.mean) / scale
        return empirical_atoms(x, self.atoms[:, 1])

    def is_standardized(self, tol: float = 1e-8) -> bool:
        return abs(self.mean) <= tol and abs(self.variance - 1.0) <= tol

    def quantiles(self, n: int) -> np.ndarray:
        """Deterministic quantile grid F^{-1}((i - 1/2)/n), i = 1..n, ascending."""
        if self.kind == SEMICIRCLE:
            return _semicircle_quantiles(n)
        return _quantile_grid(n, self.atoms)

    # ----- (de)serialization ------------------------------------------

    def to_spec(self) -> dict:
        if self.kind == SEMICIRCLE:
            return {"kind": SEMICIRCLE}
        return {
            "kind": EMPIRICAL,
            "locations": self.atoms[:, 0].tolist(),
            "weights": self.atoms[:, 1].tolist(),
        }


def semicircle() -> SpectralLaw:
    """Standard semicircle law on [-2, 2] (mean 0, variance 1)."""
    return SpectralLaw(SEMICIRCLE, None, 2.0, 0.0, 1.0)


def two_point() -> SpectralLaw:
    """Symmetric two-point law: mass 1/2 at each of -1 and +1."""
    return empirical_atoms([-1.0, 1.0], [0.5, 0.5])


def empirical_atoms(values, weights) -> SpectralLaw:
    """Finite atomic law at the given locations with the given weights."""
    atoms = _as_atoms(values, weights)
    x, w = atoms[:, 0], atoms[:, 1]
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    return SpectralLaw(EMPIRICAL, atoms, float(x[-1]), mean, var)


def law_from_spec(obj: dict) -> SpectralLaw:
    """Build a law from its JSON form.  Empirical laws are standardized on load,
    since every consumer (instances, fixed points) requires mean 0, variance 1."""
    kind = _spec_kind(
        obj, {SEMICIRCLE: (), "two_point": (), EMPIRICAL: ("locations", "weights")}, "spectral law"
    )
    if kind == SEMICIRCLE:
        return semicircle()
    if kind == "two_point":
        return two_point()
    return empirical_atoms(obj["locations"], obj["weights"]).standardize()


def _spec_kind(obj: dict, keys_by_kind: dict, what: str) -> str:
    """The kind of a law or field spec; an unknown kind, or any key besides
    kind that to_spec does not write for that kind (keys_by_kind), is rejected."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind not in keys_by_kind:
        raise ValueError(f"unknown {what} kind {kind!r}")
    unknown = sorted(str(key) for key in obj if key != "kind" and key not in keys_by_kind[kind])
    if unknown:
        raise ValueError(f"unknown {kind} {what} spec keys: {', '.join(unknown)}")
    return kind


def _quantile_grid(n: int, atoms: np.ndarray | None = None) -> np.ndarray:
    """The levels (i - 1/2)/n, i = 1..n; given (location, weight) atoms, the
    atomic law's quantiles at those levels."""
    if n < 1:
        raise ValueError("quantiles needs n >= 1")
    p = (np.arange(1, n + 1) - 0.5) / n
    if atoms is None:
        return p
    idx = np.searchsorted(np.cumsum(atoms[:, 1]), p, side="left")
    return atoms[np.minimum(idx, len(atoms) - 1), 0]


def _semicircle_cdf(x: float) -> float:
    if x <= -2.0:
        return 0.0
    if x >= 2.0:
        return 1.0
    return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


@functools.lru_cache(maxsize=64)
def _semicircle_quantiles(n: int) -> np.ndarray:
    """The semicircle quantile grid of size n, solved once per n; read-only,
    since every caller shares it."""
    q = np.array([_brentq(lambda x: _semicircle_cdf(x) - p, -2.0, 2.0, 1e-14)
                  for p in _quantile_grid(n)])
    q.flags.writeable = False
    return q


_BRENTQ_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENTQ_MAXITER = 100


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f on [xa, xb] by Brent's method: a step-for-step port of
    scipy.optimize.brentq (its C solver, rtol = 4 eps, maxiter = 100), so every
    root is the same double.  A NaN value of f, or f(xa) and f(xb) of one sign,
    raise ValueError; no convergence in maxiter steps raises RuntimeError."""

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur, xtol = float(xa), float(xb), float(xtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the best end, xblk the other side
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENTQ_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} iterations.")


@dataclass(frozen=True, eq=False)
class RescaledLaw:
    """Transforms of the scaled spectrum beta * d for d ~ base law.

    All methods reduce to the base law through the scaling identities
    Gbar(z) = G(z/beta)/beta, Gbar^{-1}(w) = beta G^{-1}(beta w),
    Rbar(w) = beta R(beta w), Rbar'(w) = beta^2 R'(beta w), and
    int_0^a Rbar = int_0^{beta a} R (exact change of variables).
    """

    base: SpectralLaw
    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"RescaledLaw needs beta > 0, got {self.beta}")

    @property
    def d_plus_bar(self) -> float:
        return self.beta * self.base.d_plus

    def edge_cauchy(self) -> float:
        return self.base.edge_cauchy() / self.beta

    def cauchy_transform(self, z: float) -> float:
        if not z > self.d_plus_bar:
            raise DomainError(f"cauchy transform needs z > {self.d_plus_bar}, got {z}")
        return self.base.cauchy_transform(z / self.beta) / self.beta

    def cauchy_inverse(self, w: float) -> float:
        return self.beta * self.base.cauchy_inverse(self.beta * w)

    def r_transform(self, w: float) -> float:
        return self.beta * self.base.r_transform(self.beta * w)

    def r_transform_derivative(self, w: float) -> float:
        return self.beta * self.beta * self.base.r_transform_derivative(self.beta * w)

    def r_integral(self, a: float) -> float:
        return self.base.r_integral(self.beta * a)
