"""Independent reference routes the tests check the package against.

Bisection on the Cauchy transform inverts G for every spectral law without
the semicircle's closed forms or the atomic root solve; a central difference
gives R'.  resolvent_gamma materializes the dense operator Gamma that AMP
never forms, for the check y^t = Gamma x^t at small n.
"""

import numpy as np

from tapglass.ensemble import ModelInstance
from tapglass.fixed_point import FixedPoint
from tapglass.spectral import DomainError, SpectralLaw

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
