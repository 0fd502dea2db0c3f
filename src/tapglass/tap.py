"""Mean-field consistency diagnostics: residuals, damped solver, trajectory gaps.

A magnetization profile m satisfies the corrected mean-field equation when

    m = tanh(h + Jbar m - a* m),

with a* = Rbar(1 - q*) the Onsager coefficient; the subtracted a* m removes
the self-feedback a naive mean-field iteration would double count, and the
spectrum enters only through a*.  `tap_residual` measures the squared
violation per site, `solve_tap_damped` finds the solution by Anderson
mixing of the damped iteration (depth ANDERSON_DEPTH), and
`magnetization_vs_amp` tracks how fast message-passing iterates approach a
reference profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapglass.amp import AmpTrajectory
from tapglass.ensemble import ModelInstance
from tapglass.fixed_point import FixedPoint

TAP_DAMPING = 0.3
ANDERSON_DEPTH = 5
DEFAULT_TAP_TOL = 1e-10
TAP_MAX_ITER = 5_000


def corrected_field(instance: ModelInstance, fp: FixedPoint, m: np.ndarray) -> np.ndarray:
    """h + Jbar m - a* m, the cavity field with the Onsager term removed."""
    return instance.h + instance.apply_jbar(m) - fp.a_star * m


def tap_residual(instance: ModelInstance, fp: FixedPoint, m: np.ndarray) -> float:
    """(1/n) || m - tanh(h + Jbar m - a* m) ||^2."""
    m = np.asarray(m, dtype=float)
    if m.shape != (instance.n,):
        raise ValueError(f"m must have shape ({instance.n},), got {m.shape}")
    gap = m - np.tanh(corrected_field(instance, fp, m))
    return float(np.sum(gap**2) / instance.n)


@dataclass(frozen=True, eq=False)
class TapSolution:
    m: np.ndarray
    converged: bool
    iterations: int
    residual: float


def solve_tap_damped(
    instance: ModelInstance,
    fp: FixedPoint,
    m0: np.ndarray | None = None,
    tol: float = DEFAULT_TAP_TOL,
) -> TapSolution:
    """Anderson-mixed damped iteration for m = tanh(h + Jbar m - a* m).

    The damped map is G(m) = m + gamma (tanh(h + Jbar m - a* m) - m) with
    gamma = TAP_DAMPING, and r_k = G(m_k) - m_k is its step.  Each iterate
    is mixed over the last ANDERSON_DEPTH steps (type-II Anderson mixing):
    m_{k+1} = G(m_k) - dG c, where c is the least-squares fit of r_k on the
    differences dR of successive steps and dG holds the matching
    differences of G.  One Jbar apply per iteration, as for the plain
    damped loop, which contracts at about 1 - gamma per step however small
    the map's own contraction factor is; mixing removes most of that.

    Stops when the root-mean-square damped step (1/sqrt(n)) ||r_k|| drops
    below tol and returns G(m_k) = m_k + r_k, or returns the last G(m_k)
    after TAP_MAX_ITER steps.  Starts from tanh(h) unless m0 is given.  In
    the high-temperature regime the map is a contraction and the solution is
    unique, so the starting point only affects the iteration count.
    """
    n = instance.n
    if m0 is None:
        m = np.tanh(instance.h)
    else:
        m = np.asarray(m0, dtype=float).copy()
        if m.shape != (n,):
            raise ValueError(f"m0 must have shape ({n},), got {m.shape}")
    d_r = np.empty((ANDERSON_DEPTH, n))
    d_g = np.empty((ANDERSON_DEPTH, n))
    converged = False
    iterations = 0
    for iterations in range(1, TAP_MAX_ITER + 1):
        r = TAP_DAMPING * (np.tanh(corrected_field(instance, fp, m)) - m)
        g = m + r
        if np.sqrt(np.sum(r**2) / n) < tol:
            converged = True
            break
        m = g
        if iterations > 1:
            slot = (iterations - 2) % ANDERSON_DEPTH
            np.subtract(r, r_prev, out=d_r[slot])
            np.subtract(g, g_prev, out=d_g[slot])
            depth = min(iterations - 1, ANDERSON_DEPTH)
            c = np.linalg.lstsq(d_r[:depth].T, r, rcond=None)[0]
            m = g - c @ d_g[:depth]
        r_prev, g_prev = r, g
    return TapSolution(
        m=g, converged=converged, iterations=iterations,
        residual=tap_residual(instance, fp, g),
    )


def magnetization_vs_amp(reference: np.ndarray, trajectory: AmpTrajectory) -> np.ndarray:
    """d_t = (1/n) || reference - m^t ||^2 for every message-passing step."""
    reference = np.asarray(reference, dtype=float)
    n, t_max = trajectory.M.shape
    if reference.shape != (n,):
        raise ValueError(f"reference must have shape ({n},), got {reference.shape}")
    diffs = trajectory.M - reference[:, None]
    return np.sum(diffs**2, axis=0) / n

