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

and for the symmetric two-point law at +-1

    G(z) = z / (z^2 - 1),   R(w) = (sqrt(1 + 4 w^2) - 1) / (2 w).

Closed forms are used where they exist; the general numeric route inverts G
by bisection and is kept available for every law so the two paths can be
checked against each other.

Temperature enters by scaling the spectrum: if d has law mu then beta * d has
the transforms

    Gbar(z) = G(z / beta) / beta,      Rbar(w) = beta * R(beta * w),

which `RescaledLaw` implements directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

SEMICIRCLE = "semicircle"
TWO_POINT = "two_point"
EMPIRICAL = "empirical"

INVERSE_TOL = 1e-12
QUAD_ABS_TOL = 1e-10
DERIVATIVE_REL_STEP = 1e-6

_EDGE_OFFSET = 1e-12
_BRACKET_START = 1e3
_MAX_BRACKET_GROWTH = 200
_MAX_BISECT = 500


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

    ``atoms`` is an (k, 2) array of (location, weight) rows for the atomic
    kinds and None for the semicircle.  ``d_plus`` is the supremum of the
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
        """G^{-1}(w) on (0, G(d_plus+)), by closed form where known, else bisection."""
        self._check_inverse_domain(w)
        if self.kind == SEMICIRCLE:
            return w + 1.0 / w
        if self.kind == TWO_POINT:
            return (1.0 + np.sqrt(1.0 + 4.0 * w * w)) / (2.0 * w)
        return numeric_cauchy_inverse(self, w)

    def r_transform(self, w: float) -> float:
        """R(w) = G^{-1}(w) - 1/w.  The semicircle gives R(w) = w exactly."""
        self._check_inverse_domain(w)
        if self.kind == SEMICIRCLE:
            return w
        if self.kind == TWO_POINT:
            return (np.sqrt(1.0 + 4.0 * w * w) - 1.0) / (2.0 * w)
        return self.cauchy_inverse(w) - 1.0 / w

    def r_transform_derivative(self, w: float) -> float:
        """R'(w), closed form for the analytic kinds, central difference otherwise."""
        self._check_inverse_domain(w)
        if self.kind == SEMICIRCLE:
            return 1.0
        if self.kind == TWO_POINT:
            s = np.sqrt(1.0 + 4.0 * w * w)
            return (s - 1.0) / (2.0 * w * w * s)
        return numeric_r_derivative(self, w)

    def r_integral(self, a: float) -> float:
        """int_0^a R(w) dw.  R extends continuously by R(0+) = mean = 0 for standardized laws."""
        if a < 0:
            raise DomainError(f"r_integral needs a >= 0, got {a}")
        if a == 0.0:
            return 0.0
        if not a < self.edge_cauchy():
            raise DomainError(f"r_integral needs a < {self.edge_cauchy()}, got {a}")
        if self.kind == SEMICIRCLE:
            return a * a / 2.0
        if self.kind == TWO_POINT:
            s = np.sqrt(1.0 + 4.0 * a * a)
            return 0.5 * (s - np.log1p(s) - 1.0 + np.log(2.0))
        val, err = quad(self.r_transform, 0.0, a, epsabs=QUAD_ABS_TOL, limit=200)
        if err > 100 * QUAD_ABS_TOL:
            raise ArithmeticError(f"r_integral quadrature error estimate {err} too large")
        return val

    def _check_inverse_domain(self, w: float) -> None:
        if not (0.0 < w < self.edge_cauchy()):
            raise DomainError(
                f"inverse-domain argument must lie in (0, {self.edge_cauchy()}), got {w}"
            )

    # ----- law manipulation -------------------------------------------

    def standardize(self) -> SpectralLaw:
        """Affine image with mean 0 and variance 1.  Idempotent; the analytic kinds are already standard."""
        if self.kind in (SEMICIRCLE, TWO_POINT):
            return self
        if self.variance <= 0:
            raise DegenerateLawError("zero-variance law cannot be standardized")
        if abs(self.mean) < 1e-15 and abs(self.variance - 1.0) < 1e-15:
            return self
        scale = np.sqrt(self.variance)
        x = (self.atoms[:, 0] - self.mean) / scale
        return empirical_atoms(x, self.atoms[:, 1])

    def is_standardized(self, tol: float = 1e-8) -> bool:
        return abs(self.mean) <= tol and abs(self.variance - 1.0) <= tol

    def quantiles(self, n: int) -> np.ndarray:
        """Deterministic quantile grid F^{-1}((i - 1/2)/n), i = 1..n, ascending."""
        if self.kind == SEMICIRCLE:
            return np.array([_semicircle_quantile(pi) for pi in _quantile_grid(n)])
        return _quantile_grid(n, self.atoms)

    # ----- (de)serialization ------------------------------------------

    def to_spec(self) -> dict:
        if self.kind == SEMICIRCLE:
            return {"kind": SEMICIRCLE}
        if self.kind == TWO_POINT:
            return {"kind": TWO_POINT}
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
    atoms = np.array([[-1.0, 0.5], [1.0, 0.5]])
    return SpectralLaw(TWO_POINT, atoms, 1.0, 0.0, 1.0)


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
        obj, {SEMICIRCLE: (), TWO_POINT: (), EMPIRICAL: ("locations", "weights")}, "spectral law"
    )
    if kind == SEMICIRCLE:
        return semicircle()
    if kind == TWO_POINT:
        return two_point()
    return empirical_atoms(obj["locations"], obj["weights"]).standardize()


def _spec_kind(obj: dict, keys_by_kind: dict, what: str) -> str:
    """The kind of a law or field spec; an unknown kind, or any key besides
    kind that to_spec does not write for that kind (keys_by_kind), is rejected."""
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
    return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi


def _semicircle_quantile(p: float) -> float:
    return brentq(lambda x: _semicircle_cdf(x) - p, -2.0, 2.0, xtol=1e-14)


def numeric_cauchy_inverse(law: SpectralLaw, w: float, tol: float = INVERSE_TOL) -> float:
    """Invert G by bisection on (d_plus, inf), to |G(z) - w| < tol.

    Valid for every law kind; this is the reference route the closed forms are
    checked against.  The bracket starts at (d_plus + 1e-12, d_plus + 1e3] and
    the upper end grows geometrically until it straddles the root (small w
    puts the root near 1/w, far beyond any fixed cap).
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
        if a < 0:
            raise DomainError(f"r_integral needs a >= 0, got {a}")
        return self.base.r_integral(self.beta * a)
