"""Consistency-equation tests: exact decoupled case, solver, uniqueness, contraction."""

import numpy as np
import pytest
from oracles import damped_tap_solve

from tapglass import tap as tap_mod
from tapglass.amp import run_amp
from tapglass.ensemble import ModelInstance, build_instance, haar_so
from tapglass.fixed_point import (
    constant_field,
    gaussian_field,
    product_fixed_point,
    solve_fixed_point,
)
from tapglass.gibbs import exact_gibbs
from tapglass.spectral import semicircle, two_point
from tapglass.tap import (
    corrected_field,
    magnetization_vs_amp,
    solve_tap_damped,
    tap_residual,
)


def test_decoupled_solution_is_exact():
    h = np.array([0.6, -0.2, 1.1, 0.0, -0.9])
    pf = product_fixed_point(constant_field(0.0))
    inst = ModelInstance(n=5, beta=1e-9, d_bar=np.zeros(5), O=haar_so(5, 2), h=h, seed=0)
    assert tap_residual(inst, pf, np.tanh(h)) == 0.0
    sol = solve_tap_damped(inst, pf)
    assert sol.converged
    assert np.abs(sol.m - np.tanh(h)).max() < 1e-12


def test_amp_limit_has_tiny_residual():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(48, 0.15, semicircle(), field, seed=5)
    traj = run_amp(inst, fp, t_max=300, seed=7)
    assert tap_residual(inst, fp, traj.final.m) < 1e-12


def test_solver_agrees_with_amp_limit():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(32, 0.15, semicircle(), field, seed=11)
    traj = run_amp(inst, fp, t_max=400, seed=3)
    sol = solve_tap_damped(inst, fp, tol=1e-12)
    assert sol.converged
    rms = np.sqrt(np.sum((sol.m - traj.final.m) ** 2) / 32)
    assert rms < 1e-6


@pytest.mark.parametrize("law, field, beta", [
    (semicircle(), constant_field(1.0), 0.15),
    (semicircle(), constant_field(1.0), 0.7),
    (two_point(), gaussian_field(0.3, 0.6), 0.8),
], ids=["semicircle-0.15", "semicircle-0.7", "two_point-gaussian-0.8"])
def test_solver_agrees_with_plain_damped_iteration(law, field, beta):
    fp = solve_fixed_point(beta, law, field)
    inst = build_instance(400, beta, law, field, seed=0)
    sol = solve_tap_damped(inst, fp)
    ref = damped_tap_solve(inst, fp)
    assert sol.converged and ref.converged
    assert np.sqrt(np.sum((sol.m - ref.m) ** 2) / 400) < 1e-8
    assert sol.residual < 1e-18


@pytest.mark.parametrize("beta", [1.4, 1.5])
def test_solver_converges_where_amp_does_not(beta):
    field = constant_field(1.0)
    fp = solve_fixed_point(beta, semicircle(), field)
    inst = build_instance(1000, beta, semicircle(), field, seed=0)
    sol = solve_tap_damped(inst, fp)
    assert sol.converged
    assert sol.residual < 1e-18


def test_solver_iteration_count_stays_accelerated():
    # Measured: 15 iterations at seed 0 (13-16 over seeds 0-9); the plain
    # damped iteration takes 58-59 here.
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(500, 0.15, semicircle(), field, seed=0)
    sol = solve_tap_damped(inst, fp)
    assert sol.converged
    assert sol.iterations <= 20


def test_solver_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(tap_mod, "TAP_MAX_ITER", 3)
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(200, 0.15, semicircle(), field, seed=1)
    sol = solve_tap_damped(inst, fp)
    assert not sol.converged
    assert sol.iterations == 3
    assert np.all(np.isfinite(sol.m))
    assert sol.residual == tap_residual(inst, fp, sol.m)


def test_solution_unique_across_random_starts():
    field = constant_field(0.8)
    fp = solve_fixed_point(0.18, semicircle(), field)
    inst = build_instance(24, 0.18, semicircle(), field, seed=4)
    rng = np.random.default_rng(0)
    solutions = []
    for _ in range(10):
        m0 = rng.uniform(-1, 1, 24)
        sol = solve_tap_damped(inst, fp, m0=m0, tol=1e-12)
        assert sol.converged
        solutions.append(sol.m)
    base = solutions[0]
    for other in solutions[1:]:
        assert np.sqrt(np.sum((other - base) ** 2) / 24) < 1e-8


def test_iteration_map_is_a_contraction_bounded_by_spectrum():
    # tanh is 1-Lipschitz, so the update map has Lipschitz constant at most
    # ||Jbar - a* I||_op <= max|d_bar| + |a*|; check on random pairs.
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(20, 0.15, semicircle(), field, seed=9)
    bound = np.abs(inst.d_bar).max() + abs(fp.a_star)
    rng = np.random.default_rng(1)
    for _ in range(5):
        m1 = rng.uniform(-1, 1, 20)
        m2 = rng.uniform(-1, 1, 20)
        f1 = np.tanh(corrected_field(inst, fp, m1))
        f2 = np.tanh(corrected_field(inst, fp, m2))
        lhs = np.linalg.norm(f1 - f2)
        rhs = bound * np.linalg.norm(m1 - m2)
        assert lhs <= rhs * (1 + 1e-12)
    # and in this regime the bound certifies contraction
    assert bound < 1.0


def test_gibbs_magnetization_nearly_solves_the_equation():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(14, 0.15, semicircle(), field, seed=17)
    mag = exact_gibbs(inst).magnetization
    assert tap_residual(inst, fp, mag) < 0.01


def test_magnetization_vs_amp_decreases_to_floor():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(16, 0.15, semicircle(), field, seed=6)
    mag = exact_gibbs(inst).magnetization
    traj = run_amp(inst, fp, t_max=40, seed=8)
    d = magnetization_vs_amp(mag, traj)
    assert d.shape == (40,)
    assert d[-1] <= d[0]
    assert d[-1] < 0.02
    with pytest.raises(ValueError):
        magnetization_vs_amp(mag[:4], traj)


def test_validation_and_report():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(8, 0.15, semicircle(), field, seed=2)
    with pytest.raises(ValueError):
        tap_residual(inst, fp, np.zeros(5))
    with pytest.raises(ValueError):
        solve_tap_damped(inst, fp, m0=np.zeros(3))
