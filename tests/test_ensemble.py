"""Ensemble layer: Haar draws, conditioned draws (oracle), instance assembly, persistence."""

import ast
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import lapack_lite
from oracles import (
    _reference_signed_q,
    conditional_haar_so,
    haar_orthogonal,
    householder_haar_so,
)
from scipy.stats import ks_2samp

import tapglass
from tapglass.ensemble import (
    MAX_DENSE_N,
    ModelInstance,
    build_instance,
    haar_so,
    load_instance,
    save_instance,
)
from tapglass.fixed_point import constant_field, gaussian_field
from tapglass.spectral import empirical_atoms, semicircle, two_point

THREE_ATOM = empirical_atoms([-1.0, 0.0, 2.0], [0.3, 0.3, 0.4]).standardize()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40, 257, 300, 513, 1000])
def test_haar_draws_match_the_qr_reference_bit_for_bit(n):
    # the QR draw haar_so's law is compared with: the O(n) draw is the
    # reference's Q, and the reference's SO(n) Q differs from it at most in
    # the sign of its last column
    for seed in range(4 if n < 1000 else 1):
        gaussian = np.random.default_rng(seed).standard_normal((n, n))
        o = haar_orthogonal(n, seed)
        assert np.array_equal(o, _reference_signed_q(gaussian, False))
        so = _reference_signed_q(gaussian, True)
        assert np.array_equal(so[:, :-1], o[:, :-1])
        assert np.array_equal(np.abs(so[:, -1]), np.abs(o[:, -1]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 40, 257])
def test_haar_draws_match_the_householder_oracle(n):
    for seed in range(4):
        o = haar_so(n, seed)
        assert np.abs(o - householder_haar_so(n, seed).T).max() < 1e-12
        assert o.flags.c_contiguous
        assert np.array_equal(o, haar_so(n, seed))


def _haar_statistics(o):
    """(1,1), (n,n) and (1,n) entries, the trace and the leading 2 x 2 minor."""
    minor = o[0, 0] * o[1, 1] - o[0, 1] * o[1, 0]
    return [o[0, 0], o[-1, -1], o[0, -1], np.trace(o), minor]


@pytest.mark.parametrize("n", [2, 6, 33])
def test_haar_draws_have_the_law_of_the_qr_draw(n):
    draws = 3000
    reflected = np.array([_haar_statistics(haar_so(n, s))
                          for s in np.random.SeedSequence(41).spawn(draws)])
    qr = np.array([
        _haar_statistics(_reference_signed_q(np.random.default_rng(s).standard_normal((n, n)), True))
        for s in np.random.SeedSequence(42).spawn(draws)])
    columns = 4 if n == 2 else 5  # at n = 2 the minor is det O = 1 up to rounding
    pvalues = [ks_2samp(reflected[:, j], qr[:, j]).pvalue for j in range(columns)]
    assert min(pvalues) > 0.01, pvalues


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 773])
def test_transpose_in_place_uses_one_tile_of_scratch(n):
    # O is the C-ordered buffer orgqr leaves, with no transpose and no scratch
    # tile: beyond its 8 n^2 bytes the draw holds O(n) vectors and orgqr's
    # n x 32 workspace (about 300 n bytes measured); an in-place transpose
    # through a 256-wide scratch tile (512 KiB) breaks the bound from n = 255 on
    haar_so(3, 0)  # loads numpy.random outside the traced call
    tracemalloc.start()
    try:
        o = haar_so(n, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert o.flags.c_contiguous and o.flags.owndata
    assert peak < 8 * n * n + 640 * n + 16384


_PEAK_PROBE = """
from tapglass.ensemble import build_instance, haar_so, load_instance
from tapglass.fixed_point import constant_field
from tapglass.spectral import semicircle
haar_so(2, 0)  # loads numpy.random and starts the BLAS threads
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
before = peak_kib()
{call}
print((peak_kib() - before) * 1024)
"""


def _peak_growth(call, n):
    """Peak RSS growth of one call in a fresh process, in n x n float arrays.

    tracemalloc cannot serve: it does not see the buffers LAPACK wrappers
    malloc.  Nor can ru_maxrss, which a child inherits from this process's
    peak.  The process's own high-water mark VmHWM starts afresh at exec."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    src = str(Path(tapglass.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _PEAK_PROBE.format(call=call)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return int(out.stdout) / (8 * n * n)


def test_haar_draw_holds_one_matrix_at_its_peak():
    # the Gaussian buffer becomes O (1.16 measured); a Fortran-ordered copy of
    # the Gaussian plus a fresh C-ordered O held 2.15, the QR gufuncs' own
    # buffers more than four
    assert _peak_growth("o = haar_so(2000, 1)", 2000) < 1.3


def test_building_an_instance_holds_one_matrix_at_its_peak():
    # the draw's one matrix (1.17 measured); checking O's finiteness through
    # an n x n bool array held 1.29
    call = "inst = build_instance(2000, 0.15, semicircle(), constant_field(1.0), seed=3)"
    assert _peak_growth(call, 2000) < 1.23


def test_loading_an_instance_holds_o_about_twice(tmp_path):
    # O and its Gram matrix (the determinant's LU copy comes after the Gram is freed)
    path = tmp_path / "big.npz"
    save_instance(build_instance(2000, 0.15, semicircle(), constant_field(1.0), seed=3), path)
    assert _peak_growth(f"inst = load_instance({str(path)!r})", 2000) < 2.7


def test_haar_draws_compute_no_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Haar draw computed a determinant")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    haar_so(7, 0)


def test_haar_draws_factor_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Haar draw ran a QR factorisation")

    monkeypatch.setattr(lapack_lite, "dgeqrf", refuse)
    haar_so(7, 0)


def test_ensemble_does_not_use_scipy_linalg():
    # scipy's LAPACK runs in its own OpenBLAS pool, whose spinning workers slow
    # the Glauber loop after a draw; the draw stays in numpy's
    def modules(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)

    path = Path(tapglass.__file__).parent / "ensemble.py"
    assert not [module for module in modules(ast.parse(path.read_text(encoding="utf-8")))
                if module.startswith("scipy.linalg")]


def test_haar_so_orthogonal_and_special():
    for n, seed in [(1, 0), (2, 1), (5, 2), (40, 3), (150, 4)]:
        o = haar_so(n, seed)
        assert np.abs(o.T @ o - np.eye(n)).max() < 1e-10
        sign, logdet = np.linalg.slogdet(o)
        assert sign == 1.0
        assert abs(logdet) < 1e-8
    assert haar_so(1, 7)[0, 0] == pytest.approx(1.0)


def test_haar_orthogonal_hits_both_components():
    signs = set()
    for seed in range(40):
        sign, _ = np.linalg.slogdet(haar_orthogonal(5, seed))
        signs.add(sign)
    assert signs == {1.0, -1.0}


def test_haar_first_entry_second_moment():
    # E[O_11^2] = 1/n by exchangeability of rows/columns
    n, draws = 8, 10_000
    rng_seeds = np.random.SeedSequence(2024).spawn(draws)
    vals = np.array([haar_so(n, s)[0, 0] ** 2 for s in rng_seeds])
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - 1.0 / n) < 3 * se


def test_so_vs_o_top_block_indistinguishable():
    # For k < n the leading k x k block has the same law on SO(n) and O(n);
    # a two-sample KS test on the (1,1) entry should see nothing.
    draws = 3000
    so_seeds = np.random.SeedSequence(77).spawn(draws)
    o_seeds = np.random.SeedSequence(78).spawn(draws)
    so_entries = np.array([haar_so(6, s)[0, 0] for s in so_seeds])
    o_entries = np.array([haar_orthogonal(6, s)[0, 0] for s in o_seeds])
    _, p = ks_2samp(so_entries, o_entries)
    assert p > 0.01


def test_conditional_haar_exact_constraint():
    rng = np.random.default_rng(5)
    o0 = haar_so(6, 11)
    b = rng.standard_normal((6, 2))
    a = o0 @ b
    for seed in range(5):
        o = conditional_haar_so(a, b, seed)
        assert np.abs(o @ b - a).max() < 1e-10
        assert np.abs(o.T @ o - np.eye(6)).max() < 1e-9
        sign, _ = np.linalg.slogdet(o)
        assert sign == 1.0


def test_conditional_haar_mean_is_projection_part():
    # E[Otilde] = 0 on SO(n-k) for n-k >= 2, so E[O] is the deterministic term.
    rng = np.random.default_rng(17)
    o0 = haar_so(5, 23)
    b = rng.standard_normal((5, 1))
    a = o0 @ b
    exact = a @ np.linalg.solve(a.T @ a, b.T)
    draws = 4000
    seeds = np.random.SeedSequence(99).spawn(draws)
    acc = np.zeros((5, 5))
    for s in seeds:
        acc += conditional_haar_so(a, b, s)
    mean = acc / draws
    # entries of the random part have variance <= 1/(n-k); allow 5 sigma
    assert np.abs(mean - exact).max() < 5 / np.sqrt((5 - 1) * draws) + 0.02


def test_conditional_haar_rigid_when_complement_is_trivial():
    # k = n - 1 leaves SO(1) = {1}: the draw is deterministic.
    rng = np.random.default_rng(3)
    o0 = haar_so(3, 31)
    b = rng.standard_normal((3, 2))
    a = o0 @ b
    first = conditional_haar_so(a, b, 0)
    second = conditional_haar_so(a, b, 12345)
    assert np.allclose(first, second, atol=1e-12)
    assert np.abs(first @ b - a).max() < 1e-10


def test_conditional_haar_vector_inputs():
    o0 = haar_so(4, 8)
    b = np.array([1.0, -0.5, 2.0, 0.3])
    a = o0 @ b
    o = conditional_haar_so(a, b, 1)
    assert np.abs(o @ b - a).max() < 1e-10


def test_conditional_haar_rejections():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((5, 2))
    a = haar_so(5, 1) @ b
    with pytest.raises(ValueError):
        conditional_haar_so(a, 2 * b, 0)  # Gram mismatch
    with pytest.raises(ValueError):
        conditional_haar_so(a[:, :1], b, 0)  # shape mismatch
    sq = rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        conditional_haar_so(sq, sq, 0)  # k = n not allowed
    degenerate = np.column_stack([b[:, 0], b[:, 0]])
    with pytest.raises(ValueError):
        conditional_haar_so(degenerate, degenerate, 0)  # rank deficient


def test_build_instance_spectrum_and_field():
    inst = build_instance(4, 0.3, two_point(), constant_field(0.7), seed=5)
    assert np.allclose(inst.d_bar, [-0.3, -0.3, 0.3, 0.3], atol=1e-14)
    assert np.allclose(inst.h, 0.7)
    assert inst.n == 4 and inst.beta == 0.3 and inst.seed == 5

    # dense coupling has exactly the prescribed spectrum
    dense = inst.dense_coupling()
    assert np.abs(dense - dense.T).max() < 1e-12
    eigs = np.linalg.eigvalsh(dense)
    assert np.allclose(eigs, sorted(inst.d_bar), atol=1e-10)


def test_build_instance_field_modes_share_couplings():
    field = gaussian_field(0.0, 1.0)
    law = semicircle()
    quantile = build_instance(12, 0.2, law, field, seed=42, field_mode="quantile")
    iid = build_instance(12, 0.2, law, field, seed=42, field_mode="iid")
    assert np.array_equal(quantile.O, iid.O)
    assert np.array_equal(quantile.d_bar, iid.d_bar)
    assert not np.allclose(quantile.h, iid.h)
    # quantile mode is sorted by construction, iid is not (almost surely)
    assert np.all(np.diff(quantile.h) >= 0)


def test_build_instance_deterministic():
    a = build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=3)
    b = build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=3)
    assert np.array_equal(a.O, b.O)
    assert np.array_equal(a.h, b.h)
    c = build_instance(10, 0.15, semicircle(), constant_field(1.0), seed=4)
    assert not np.array_equal(a.O, c.O)


def test_apply_jbar_matches_dense():
    inst = build_instance(16, 0.25, semicircle(), constant_field(0.5), seed=8)
    dense = inst.dense_coupling()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(16)
    assert np.allclose(inst.apply_jbar(v), dense @ v, atol=1e-12)
    block = rng.standard_normal((16, 3))
    assert np.allclose(inst.apply_jbar(block), dense @ block, atol=1e-12)
    # any other diagonal in the same rotated basis
    weights = rng.standard_normal(16)
    rotated = inst.O.T @ np.diag(weights) @ inst.O
    assert np.allclose(inst.apply_rotated(weights, v), rotated @ v, atol=1e-12)
    assert np.allclose(inst.apply_rotated(weights, block), rotated @ block, atol=1e-12)


def test_only_ensemble_reads_the_rotation():
    # other modules go through apply_jbar / apply_rotated / dense_coupling,
    # so how O is stored stays a decision of ensemble.py alone
    readers = sorted(
        path.name
        for path in Path(tapglass.__file__).parent.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "O"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    )
    assert readers == ["ensemble.py"]


def test_instance_validation():
    with pytest.raises(ValueError):
        build_instance(0, 0.2, semicircle(), constant_field(1.0), seed=1)
    with pytest.raises(ValueError):
        build_instance(4, 0.0, semicircle(), constant_field(1.0), seed=1)
    from tapglass.spectral import empirical_atoms

    raw = empirical_atoms([0.0, 3.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        build_instance(4, 0.2, raw, constant_field(1.0), seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["O", "d_bar", "h"])
def test_instance_rejects_non_finite_entries(name, bad):
    arrays = {"O": haar_so(5, 1), "d_bar": np.linspace(-0.2, 0.2, 5), "h": np.ones(5)}
    arrays[name].flat[2] = bad
    with pytest.raises(ValueError, match="finite"):
        ModelInstance(n=5, beta=0.1, seed=0, **arrays)


def test_instance_construction_computes_no_determinant(monkeypatch):
    # SO(n) is established where O is drawn or loaded, not on every construction
    o = haar_so(6, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("ModelInstance computed a determinant")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    inst = ModelInstance(n=6, beta=0.1, d_bar=np.zeros(6), O=o, h=np.zeros(6), seed=0)
    assert inst.O is o


@pytest.mark.parametrize("field_mode", ["quantile", "iid"])
@pytest.mark.parametrize("law", [semicircle(), THREE_ATOM], ids=["semicircle", "three-atom"])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_build_instance_rotation_is_in_so_n(n, law, field_mode):
    # nothing re-checks a drawn O, so the draw must hold it by construction
    o = build_instance(n, 0.2, law, gaussian_field(0.1, 0.5), seed=n, field_mode=field_mode).O
    # the layout sets the rounding of O @ v, so it is part of the draw
    assert o.flags.c_contiguous
    assert np.abs(o.T @ o - np.eye(n)).max() < 1e-10
    sign, logdet = np.linalg.slogdet(o)
    assert sign == 1.0
    assert abs(logdet) < 1e-8


def test_dense_coupling_size_guard():
    # one past the cap; an identity O needs no Haar draw
    n = MAX_DENSE_N + 1
    inst = ModelInstance(n=n, beta=0.2, d_bar=np.zeros(n), O=np.eye(n), h=np.zeros(n), seed=0)
    with pytest.raises(ValueError, match=f"n={n} > {MAX_DENSE_N}"):
        inst.dense_coupling()


def test_instance_persistence_round_trip(tmp_path):
    inst = build_instance(9, 0.18, semicircle(), gaussian_field(0.1, 0.5), seed=77)
    path = tmp_path / "instance.npz"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.n == inst.n
    assert back.beta == inst.beta
    assert back.seed == inst.seed
    assert np.array_equal(back.O, inst.O)
    assert np.array_equal(back.d_bar, inst.d_bar)
    assert np.array_equal(back.h, inst.h)


@pytest.mark.parametrize("spoil, message", [
    (lambda o: o @ (np.eye(len(o)) + 0.5 * np.eye(len(o), k=1)), "O is not orthogonal"),
    (lambda o: o * np.r_[-1.0, np.ones(len(o) - 1)], r"O must have determinant \+1"),
], ids=["non-orthogonal", "det-minus-one"])
def test_load_instance_rejects_rotation_outside_so_n(tmp_path, spoil, message):
    inst = build_instance(8, 0.15, semicircle(), constant_field(1.0), seed=4)
    path = tmp_path / "spoiled.npz"
    save_instance(dataclasses.replace(inst, O=spoil(inst.O)), path)
    with pytest.raises(ValueError, match=message):
        load_instance(path)
