"""Orthogonally invariant coupling ensembles and model instances.

An instance of size n consists of Jbar = O^T Dbar O with O uniform on SO(n),
Dbar = beta * diag(quantiles of the spectral law), plus an external field h
(deterministic quantiles of the field law by default, iid draws on request).
Jbar is never materialized at scale; `ModelInstance.apply_jbar` applies it in
O(n^2) through the factors, and `ModelInstance.apply_rotated` applies any
other diagonal in the same rotated basis, so no other module reads O.
O enters in SO(n): `haar_so` draws it so, det read off its Householder
reflectors, and `load_instance` checks a saved one; `ModelInstance` checks
shapes and finiteness.  The draw builds the reflectors straight from Gaussian
vectors (Stewart 1980), in place in one n x n buffer, and forms O from them
with the LAPACK routine numpy's own QR calls (through `numpy.linalg.lapack_lite`),
so it holds one n x n array at its peak and returns that buffer as O.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

from tapglass.fixed_point import FieldLaw
from tapglass.spectral import SpectralLaw

ORTHOGONALITY_TOL = 1e-10
_DET_TOL = 1e-8
MAX_DENSE_N = 2048  # a dense Jbar of this size is 32 MiB

FIELD_MODE_QUANTILE = "quantile"
FIELD_MODE_IID = "iid"
FIELD_MODES = (FIELD_MODE_QUANTILE, FIELD_MODE_IID)  # the first is the default everywhere


def haar_so(n: int, seed) -> np.ndarray:
    """Haar-uniform draw from SO(n): a product of Householder reflectors built
    straight from Gaussian vectors (Stewart 1980), signed as in Mezzadri 2007.

    In the Householder QR of a Gaussian matrix each trailing column is again
    Gaussian and independent of the earlier reflectors, so the reflectors of
    independent Gaussian vectors of lengths n, n-1, ..., 1 have the QR's joint
    law, and Q with R's diagonal made positive is Haar on O(n) as the QR draw
    is.  Row k of one C-ordered buffer (Fortran column k) takes the length
    n - k draw and becomes LAPACK dlarfg's reflector; orgqr forms Q in place,
    det Q is read off the reflectors (each has det -1 unless its tau = 0), and
    the last column is negated if it is -1.  Read in C order the buffer holds
    O = Q^T, Haar on SO(n) as Q is, so it is returned as it stands: C-ordered
    for the BLAS kernels of every O @ v."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    f = np.zeros((n, n))
    for k in range(n):
        rng.standard_normal(out=f[k, k:])
    alpha = np.diagonal(f).copy()
    f.flat[:: n + 1] = 0.0  # row k now holds x_k, the rest of it zeros
    x_norm = np.sqrt(np.einsum("ij,ij->i", f, f))
    plain = x_norm == 0  # dlarfg's H = I: tau = 0 and R_kk = alpha
    beta = np.where(plain, alpha, -np.copysign(np.hypot(alpha, x_norm), alpha))
    tau = np.divide(beta - alpha, beta, out=np.zeros(n), where=~plain)
    f /= np.where(plain, 1.0, alpha - beta)[:, None]
    signs = np.where(beta < 0, -1.0, 1.0)  # beta is R's diagonal
    if (np.count_nonzero(tau) + np.count_nonzero(signs < 0)) % 2:
        signs[-1] = -signs[-1]
    _lapack(lapack_lite.dorgqr, n, n, n, f, n, tau)
    f *= signs[:, None]
    return f


def _lapack(routine, *args) -> None:
    """Call a `lapack_lite` routine on Fortran arrays passed as their C-ordered
    transposes: a workspace query, then the call with the size it returned.
    lapack_lite checks no sizes, so args must fit the dimensions they give."""
    work = np.empty(1)
    routine(*args, work, -1, 0)
    work = np.empty(int(work[0]))
    info = routine(*args, work, work.size, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info = {info}")


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """One realized model: couplings in factored form O^T diag(d_bar) O plus field h.

    Construction checks that shapes agree and entries are finite.  O in SO(n)
    is established where O enters: `haar_so` or `load_instance`.
    """

    n: int
    beta: float
    d_bar: np.ndarray
    O: np.ndarray
    h: np.ndarray
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.O.shape != (self.n, self.n):
            raise ValueError(f"O must be {self.n} x {self.n}, got {self.O.shape}")
        if self.d_bar.shape != (self.n,) or self.h.shape != (self.n,):
            raise ValueError("d_bar and h must be length-n vectors")
        for arr in (self.d_bar, self.O, self.h):
            # NaN reaches both ends and an infinity one: no n x n bool temporary
            if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError("instance arrays must be finite")

    def apply_rotated(self, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
        """O^T (weights * (O v)), for a vector or a stack of columns; callers
        never see how O is stored."""
        w = self.O @ v
        if w.ndim == 1:
            w = weights * w
        else:
            w = weights[:, None] * w
        return self.O.T @ w

    def apply_jbar(self, v: np.ndarray) -> np.ndarray:
        """Jbar v = O^T (d_bar * (O v)), for a vector or a stack of columns."""
        return self.apply_rotated(self.d_bar, v)

    def dense_coupling(self) -> np.ndarray:
        """Materialize Jbar as a dense symmetric matrix, up to n = MAX_DENSE_N."""
        if self.n > MAX_DENSE_N:
            raise ValueError(
                f"refusing to materialize dense couplings at n={self.n} > {MAX_DENSE_N}")
        return self.O.T @ (self.d_bar[:, None] * self.O)


def build_instance(
    n: int,
    beta: float,
    law: SpectralLaw,
    field: FieldLaw,
    seed: int,
    field_mode: str = FIELD_MODE_QUANTILE,
) -> ModelInstance:
    """Draw O ~ Haar(SO(n)) and assemble the instance.

    The spectrum is the deterministic quantile grid of the law scaled by beta;
    the field is the quantile grid of the field law, or iid draws from it when
    field_mode = "iid".  The two consumers get independent child streams of
    the seed, so the coupling draw is identical across field modes.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not beta > 0:
        raise ValueError(f"need beta > 0, got {beta}")
    if not law.is_standardized():
        raise ValueError("spectral law must be standardized (mean 0, variance 1)")
    if field_mode not in FIELD_MODES:
        raise ValueError(f"unknown field_mode {field_mode!r}")

    o = haar_so(n, np.random.SeedSequence(seed).spawn(2)[0])
    d_bar, h = _spectrum_and_field(n, beta, law, field, seed, field_mode)
    return ModelInstance(n=n, beta=beta, d_bar=d_bar, O=o, h=h, seed=int(seed))


def _spectrum_and_field(
    n: int, beta: float, law: SpectralLaw, field: FieldLaw, seed: int, field_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """(d_bar, h) of the instance of this seed.  O draws from the seed's first
    child stream and iid field entries from its second, so a saved instance's
    field can be redrawn from its stored seed."""
    if field_mode == FIELD_MODE_QUANTILE:
        h = field.quantiles(n)
    else:
        h = field.sample(np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1]), n)
    return beta * law.quantiles(n), np.asarray(h, float)


def save_instance(instance: ModelInstance, path) -> None:
    """Persist all defining arrays, as an .npz archive at exactly the given
    path; the coupling matrix itself is re-derivable."""
    with open(path, "wb") as fh:  # a path np.savez saw would gain an .npz suffix
        np.savez(
            fh,
            n=np.array(instance.n),
            beta=np.array(instance.beta),
            d_bar=instance.d_bar,
            O=instance.O,
            h=instance.h,
            seed=np.array(instance.seed),
        )


def load_instance(path) -> ModelInstance:
    """Read a saved instance; its O comes from outside, so check it is in SO(n)."""
    data = np.load(Path(path))
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a saved instance: not an .npz archive")
    with data:
        missing = sorted({"n", "beta", "d_bar", "O", "h", "seed"} - set(data.files))
        if missing:
            raise ValueError(
                f"{path} is not a saved instance: missing arrays {', '.join(missing)}")
        inst = ModelInstance(
            n=int(data["n"]),
            beta=float(data["beta"]),
            d_bar=data["d_bar"],
            O=data["O"].astype(float, copy=False),  # the check below works in place
            h=data["h"],
            seed=int(data["seed"]),
        )
    gram = inst.O.T @ inst.O
    gram.flat[::inst.n + 1] -= 1.0
    gram_err = np.abs(gram, out=gram).max()
    del gram  # before slogdet copies O
    if gram_err > ORTHOGONALITY_TOL:
        raise ValueError(f"O is not orthogonal: max |O^T O - I| = {gram_err}")
    sign, logdet = np.linalg.slogdet(inst.O)
    if sign <= 0 or abs(logdet) > _DET_TOL:
        raise ValueError("O must have determinant +1")
    return inst
