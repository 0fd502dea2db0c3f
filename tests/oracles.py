"""Independent reference routes the tests check the package against.

Bisection on the Cauchy transform inverts G for every spectral law without
the semicircle's closed forms or the atomic root solve; a central difference
gives R'.  resolvent_gamma materializes the dense operator Gamma that AMP
never forms, for the check y^t = Gamma x^t at small n.  damped_tap_solve is
the plain damped iteration the Anderson-mixed solver accelerates.
"""

import numpy as np

from tapglass.ensemble import ModelInstance
from tapglass.fixed_point import FixedPoint
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
