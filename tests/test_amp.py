"""Message-passing tests: scalar oracle, resolvent identity, state-evolution match."""

import numpy as np
import pytest

from tapglass.amp import (
    AmpState,
    amp_step,
    empirical_vs_theoretical_se,
    init_amp,
    lambda_diag,
    run_amp,
)
from tapglass.ensemble import ModelInstance, build_instance, haar_so
from tapglass.fixed_point import (
    BetaTooLargeError,
    FixedPoint,
    constant_field,
    product_fixed_point,
    solve_fixed_point,
    theoretical_delta,
)
from tapglass.spectral import semicircle

from oracles import resolvent_gamma


def _toy_fixed_point(q_star=0.5, lambda_star=2.0) -> FixedPoint:
    return FixedPoint(
        beta=0.1,
        q_star=q_star,
        sigma_star_sq=0.01,
        kappa_star=0.1,
        delta_star=0.1,
        lambda_star=lambda_star,
        a_star=lambda_star - 1.0 / (1.0 - q_star),
        psi_rs=0.0,
        converged=True,
        iterations=1,
    )


def test_scalar_step_oracle():
    # n = 1, q* = 1/2, h = 0.2, incoming y = 0.1:
    # m = tanh(0.3), x = 2 tanh(0.3) - 0.1 = 0.4826252249...
    inst = ModelInstance(
        n=1, beta=0.1, d_bar=np.array([0.0]), O=np.array([[1.0]]),
        h=np.array([0.2]), seed=0,
    )
    state = AmpState(t=0, y=np.array([0.1]), x=None, m=None, fp=_toy_fixed_point())
    out = amp_step(state, inst, lambda_diag(state.fp, inst.d_bar))
    assert out.m[0] == pytest.approx(np.tanh(0.3), abs=1e-15)
    assert out.x[0] == pytest.approx(2.0 * np.tanh(0.3) - 0.1, abs=1e-15)
    assert out.x[0] == pytest.approx(0.4826252249, abs=1e-10)
    # lambda* = 2, d = 0, q* = 1/2 gives Lambda = 2/2 - 1 = 0, so y^1 = 0
    assert out.y[0] == 0.0
    assert out.t == 1


def test_y_equals_gamma_x_every_step():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(24, 0.15, semicircle(), field, seed=4)
    gamma = resolvent_gamma(inst, fp)
    traj = run_amp(inst, fp, t_max=5, seed=10)
    for t in range(5):
        assert np.abs(traj.Y[:, t] - gamma @ traj.X[:, t]).max() < 1e-10


def test_amp_fixed_point_solves_consistency_equation():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(48, 0.15, semicircle(), field, seed=6)
    traj = run_amp(inst, fp, t_max=300, seed=2)
    m = traj.final.m
    cavity = inst.apply_jbar(m) - fp.a_star * m
    resid = np.sum((m - np.tanh(inst.h + cavity)) ** 2) / inst.n
    assert resid < 1e-16
    # converged y is the corrected cavity field itself
    assert np.abs(traj.final.y - cavity).max() < 1e-10


def test_lambda_moments_match_limits():
    # Lambda over the deterministic quantile spectrum: mean -> 0 and second
    # moment -> kappa* as n grows; no randomness involved.
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    lam = lambda_diag(fp, 0.15 * semicircle().quantiles(2000))
    assert abs(lam.mean()) < 0.02
    assert abs(np.mean(lam**2) - fp.kappa_star) < 0.02


def test_lambda_diag_requires_spectral_gap():
    fp = _toy_fixed_point(lambda_star=0.5)
    with pytest.raises(BetaTooLargeError):
        lambda_diag(fp, np.array([0.0, 0.6]))
    # run_amp computes the reweighting once, before any iterate
    inst = ModelInstance(
        n=2, beta=0.1, d_bar=np.array([0.0, 0.6]), O=haar_so(2, 4),
        h=np.zeros(2), seed=0,
    )
    with pytest.raises(BetaTooLargeError):
        run_amp(inst, fp, t_max=3, seed=1)


def test_decoupled_case_runs_with_zero_reweighting():
    field = constant_field(0.8)
    pf = product_fixed_point(field)
    inst = ModelInstance(
        n=6, beta=1e-12, d_bar=np.zeros(6), O=haar_so(6, 3),
        h=np.full(6, 0.8), seed=0,
    )
    traj = run_amp(inst, pf, t_max=3, seed=1)
    # sigma*^2 = 0 makes y^0 = 0, and Lambda = 0 keeps every y^t = 0
    assert np.array_equal(traj.Y, np.zeros((6, 3)))
    assert np.allclose(traj.M[:, 0], np.tanh(0.8), atol=1e-15)


def test_run_amp_deterministic_and_seed_sensitive():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(20, 0.15, semicircle(), field, seed=1)
    a = run_amp(inst, fp, t_max=4, seed=9)
    b = run_amp(inst, fp, t_max=4, seed=9)
    assert np.array_equal(a.Y, b.Y)
    c = run_amp(inst, fp, t_max=4, seed=10)
    assert not np.array_equal(a.Y, c.Y)
    with pytest.raises(ValueError):
        run_amp(inst, fp, t_max=0, seed=0)


def test_gram_matrices_track_state_evolution():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(1500, 0.15, semicircle(), field, seed=21)
    traj = run_amp(inst, fp, t_max=4, seed=22)
    report = empirical_vs_theoretical_se(traj, theoretical_delta(fp, field, t_max=4))
    assert report.max_dev_xx < 0.08
    assert report.max_dev_yy < 0.08
    assert report.max_dev_xy < 0.08
    # overlap density reaches q* at the usual 1/sqrt(n) rate
    assert abs(traj.m_norm_sq[-1] - fp.q_star) < 5 / np.sqrt(inst.n)
    # Gram diagonals sit near the scalar limits
    assert abs(traj.gram_xx[-1, -1] - fp.delta_star) < 0.08
    assert abs(traj.gram_yy[-1, -1] - fp.sigma_star_sq) < 0.02


def test_se_report_shape_guard():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(10, 0.15, semicircle(), field, seed=1)
    traj = run_amp(inst, fp, t_max=3, seed=0)
    with pytest.raises(ValueError):
        empirical_vs_theoretical_se(traj, np.zeros((2, 2)))


def test_resolvent_gamma_size_guard():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    inst = build_instance(80, 0.15, semicircle(), field, seed=1)
    with pytest.raises(ValueError):
        resolvent_gamma(inst, fp)
