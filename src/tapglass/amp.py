"""Approximate message passing with the spectrum-dependent Onsager correction.

The iteration runs in the rotated coordinates of the coupling factors: with
Lambda_i = (1 - q*)^{-1} / (lambda* - dbar_i) - 1,

    m^t = tanh(h + y^{t-1})
    x^t = m^t / (1 - q*) - y^{t-1}
    s^t = O x^t
    y^t = O^T (Lambda * s^t),

started from y^0 ~ N(0, sigma*^2 I); run_amp computes Lambda and (1 - q*)^{-1}
once, and an AmpState holds only y^t and the x^t, m^t computed on the way.
y^t plays the role of the cavity field Jbar m - a* m with its Onsager
correction already subtracted, so a fixed point of the map solves the
mean-field consistency equation

    m = tanh(h + Jbar m - a* m)

exactly; equivalently y = Gamma x with
Gamma = (1 - q*)^{-1} (lambda* I - Jbar)^{-1} - I.  The definition of
lambda* makes the average of Lambda vanish in the large-n limit and makes
the empirical Gram matrices of (x^t) and (y^t) track the state-evolution
covariance: n^{-1} X^T X -> Delta, n^{-1} Y^T Y -> kappa* Delta,
n^{-1} X^T Y -> 0, with diagonals delta* and sigma*^2.

No damping is applied; in the high-temperature regime the plain iteration
contracts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tapglass.ensemble import ModelInstance
from tapglass.fixed_point import BetaTooLargeError, FixedPoint


@dataclass(frozen=True, eq=False)
class AmpState:
    """One iterate: y is the current rotated cavity field.

    x and m are the quantities produced while computing y and are None for
    the starting y^0 (nothing has been denoised yet).
    """

    y: np.ndarray
    x: np.ndarray | None = None
    m: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class AmpTrajectory:
    """Stacked iterates plus the per-step diagnostics of a full run."""

    X: np.ndarray            # (n, t_max), columns x^1 ... x^{t_max}
    Y: np.ndarray            # (n, t_max), columns y^1 ... y^{t_max}
    M: np.ndarray            # (n, t_max), columns m^1 ... m^{t_max}
    y_diff_sq: np.ndarray    # (t_max,), n^{-1} ||y^t - y^{t-1}||^2
    m_norm_sq: np.ndarray    # (t_max,), n^{-1} ||m^t||^2
    final: AmpState

    @property
    def gram_xx(self) -> np.ndarray:
        return self.X.T @ self.X / self.X.shape[0]

    @property
    def gram_yy(self) -> np.ndarray:
        return self.Y.T @ self.Y / self.Y.shape[0]

    @property
    def gram_xy(self) -> np.ndarray:
        return self.X.T @ self.Y / self.X.shape[0]


def lambda_diag(fp: FixedPoint, d_bar: np.ndarray) -> np.ndarray:
    """Lambda_i = (1-q*)^{-1} / (lambda* - dbar_i) - 1; needs lambda* above the spectrum."""
    top = float(np.max(d_bar))
    if not fp.lambda_star > top:
        raise BetaTooLargeError(
            f"lambda* = {fp.lambda_star} does not clear the spectrum top {top}; "
            "the resolvent reweighting is undefined"
        )
    return (1.0 / (1.0 - fp.q_star)) / (fp.lambda_star - d_bar) - 1.0


def amp_step(state: AmpState, instance: ModelInstance, lam: np.ndarray, inv_u: float) -> AmpState:
    """One iteration; lam is lambda_diag(fp, instance.d_bar) and inv_u is 1/(1 - q*)."""
    m = np.tanh(instance.h + state.y)
    x = inv_u * m - state.y
    y = instance.apply_rotated(lam, x)
    return AmpState(y=y, x=x, m=m)


def run_amp(instance: ModelInstance, fp: FixedPoint, t_max: int, seed) -> AmpTrajectory:
    """Run t_max steps from the random start and collect iterates and diagnostics."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    n = instance.n
    lam = lambda_diag(fp, instance.d_bar)
    inv_u = 1.0 / (1.0 - fp.q_star)
    # y^0 ~ N(0, sigma*^2 I); exactly zero in the decoupled case
    state = AmpState(y=np.sqrt(fp.sigma_star_sq) * np.random.default_rng(seed).standard_normal(n))
    X = np.empty((n, t_max))
    Y = np.empty((n, t_max))
    M = np.empty((n, t_max))
    y_diff_sq = np.empty(t_max)
    m_norm_sq = np.empty(t_max)
    for t in range(t_max):
        prev_y = state.y
        state = amp_step(state, instance, lam, inv_u)
        X[:, t] = state.x
        Y[:, t] = state.y
        M[:, t] = state.m
        y_diff_sq[t] = np.sum((state.y - prev_y) ** 2) / n
        m_norm_sq[t] = np.sum(state.m**2) / n
    return AmpTrajectory(X=X, Y=Y, M=M, y_diff_sq=y_diff_sq, m_norm_sq=m_norm_sq, final=state)
