"""Fixed-point layer: scan oracle, exact identities, decoupled limits, state evolution."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from tapglass.fixed_point import (
    BetaTooLargeError,
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    _rs_entropy,
    constant_field,
    empirical_field,
    field_from_spec,
    gauss_field_expectation,
    gaussian_field,
    product_fixed_point,
    solve_fixed_point,
    theoretical_delta,
)
from tapglass.spectral import RescaledLaw, empirical_atoms, semicircle, two_point

from oracles import monte_carlo_delta, zero_field_log_partition

# Regression values for (semicircle, beta = 0.15, constant field 1), frozen
# from a converged run; they pin the solver against accidental drift.
Q_STAR_REF = 0.5761128016279536
PSI_RS_REF = 1.1306734848893474


def test_frozen_regression_values():
    fp = solve_fixed_point(0.15, semicircle(), constant_field(1.0))
    assert fp.converged
    assert fp.q_star == pytest.approx(Q_STAR_REF, abs=1e-9)
    assert fp.psi_rs == pytest.approx(PSI_RS_REF, abs=1e-9)


def test_scan_oracle_semicircle():
    # Independent route: dense grid scan of q -> E tanh(h + sigma(q) G)^2 - q
    # using the closed-form sigma(q)^2 = q beta^2 for the semicircle.
    beta, h = 0.2, 1.0
    q_grid = np.arange(0.0, 1.0, 1e-5)
    sig = beta * np.sqrt(q_grid)
    vals = np.tanh(h + sig[:, None] * GAUSS_NODES[None, :]) ** 2 @ GAUSS_WEIGHTS
    f = vals - q_grid
    (idx,) = np.nonzero((f[:-1] > 0) & (f[1:] <= 0))
    assert idx.size >= 1
    i = idx[0]
    root = q_grid[i] + 1e-5 * f[i] / (f[i] - f[i + 1])

    fp = solve_fixed_point(beta, semicircle(), constant_field(h))
    assert abs(fp.q_star - root) < 1e-4


def test_exact_identities():
    fp = solve_fixed_point(0.2, semicircle(), constant_field(1.0))
    q, u = fp.q_star, 1.0 - fp.q_star
    assert abs(fp.kappa_star * fp.delta_star - fp.sigma_star_sq) < 1e-12
    assert abs(fp.delta_star - (q / u**2 - fp.sigma_star_sq)) < 1e-8
    rescaled = RescaledLaw(semicircle(), 0.2)
    assert abs(rescaled.cauchy_transform(fp.lambda_star) - u) < 1e-8
    assert fp.lambda_star == pytest.approx(fp.a_star + 1.0 / u, abs=1e-14)


def test_semicircle_closed_form_constants():
    beta = 0.15
    fp = solve_fixed_point(beta, semicircle(), constant_field(1.0))
    q, u = fp.q_star, 1.0 - fp.q_star
    b2 = beta * beta
    assert fp.sigma_star_sq == pytest.approx(q * b2, abs=1e-13)
    assert fp.a_star == pytest.approx(b2 * u, abs=1e-13)
    assert fp.lambda_star == pytest.approx(b2 * u + 1.0 / u, abs=1e-12)
    # the two middle free-energy terms cancel for the semicircle, leaving
    # E log 2cosh + beta^2 (1-q)^2 / 4
    elog = gauss_field_expectation(
        lambda h, y: np.log(2 * np.cosh(h + y)), constant_field(1.0), np.sqrt(fp.sigma_star_sq)
    )
    assert fp.psi_rs == pytest.approx(elog + b2 * u * u / 4.0, abs=1e-12)


@pytest.mark.parametrize("law, beta, h", [(semicircle(), 0.05, 1.0), (two_point(), 0.05, 0.7)])
def test_kappa_star_matches_exact_rational(law, beta, h):
    # kappa* = u^2 D / (1 - u^2 D) in exact arithmetic on the same float u and
    # D = Rbar'(u); the form 1/(1 - u^2 D) - 1 loses ~1e-13 to cancellation here
    fp = solve_fixed_point(beta, law, constant_field(h))
    u = 1.0 - fp.q_star
    x = Fraction(u) ** 2 * Fraction(RescaledLaw(law, beta).r_transform_derivative(u))
    exact = x / (1 - x)
    assert abs(Fraction(fp.kappa_star) - exact) / exact < Fraction(1, 10**15)


def test_two_point_solves_and_identities():
    fp = solve_fixed_point(0.25, two_point(), constant_field(0.7))
    assert fp.converged
    assert 0 < fp.q_star < 1
    assert abs(fp.kappa_star * fp.delta_star - fp.sigma_star_sq) < 1e-12
    u = 1.0 - fp.q_star
    assert abs(RescaledLaw(two_point(), 0.25).cauchy_transform(fp.lambda_star) - u) < 1e-10


def test_product_case():
    field = constant_field(1.0)
    pf = product_fixed_point(field)
    assert pf.q_star == pytest.approx(np.tanh(1.0) ** 2, abs=1e-15)
    assert pf.sigma_star_sq == 0.0
    assert pf.kappa_star == 0.0
    assert pf.a_star == 0.0
    assert pf.psi_rs == pytest.approx(np.log(2 * np.cosh(1.0)), abs=1e-15)
    assert pf.lambda_star == pytest.approx(1.0 / (1.0 - pf.q_star), abs=1e-14)
    assert pf.delta_star == pytest.approx(pf.q_star / (1.0 - pf.q_star) ** 2, abs=1e-13)


def test_beta_zero_solve_is_the_product_record():
    from tapglass.spectral import empirical_atoms

    raw = empirical_atoms([0.0, 5.0], [0.5, 0.5])  # beta = 0 never looks at the law
    fields = (constant_field(1.0), gaussian_field(0.3, 0.6),
              empirical_field([-0.5, 0.4, 1.2], [0.2, 0.3, 0.5]))
    for law in (semicircle(), raw):
        for field in fields:
            solved = dataclasses.asdict(solve_fixed_point(0.0, law, field))
            product = dataclasses.asdict(product_fixed_point(field))
            assert {k: repr(v) for k, v in solved.items()} == {
                k: repr(v) for k, v in product.items()}


def test_psi_rs_of_a_wide_gaussian_field_is_finite():
    # the nodes of sd 100 reach |h| = 1450, far past where cosh overflows;
    # the same quadrature summed in 40-digit mpmath is the reference
    mpmath = pytest.importorskip("mpmath")
    beta, field = 0.2, gaussian_field(0.0, 100.0)
    fp = solve_fixed_point(beta, semicircle(), field)
    assert np.isfinite(fp.psi_rs)
    h, ph = field.quad_atoms()
    y = np.sqrt(fp.sigma_star_sq) * GAUSS_NODES
    mpf = mpmath.mpf
    with mpmath.workdps(40):
        expectation = mpmath.fsum(
            mpf(p) * mpf(w) * mpmath.log(2 * mpmath.cosh(mpf(a) + mpf(b)))
            for a, p in zip(h, ph) for b, w in zip(y, GAUSS_WEIGHTS))
    rescaled, q = RescaledLaw(semicircle(), beta), fp.q_star
    u = 1.0 - q
    expected = (float(expectation) + 0.5 * q * rescaled.r_transform(u)
                - 0.5 * q * u * rescaled.r_transform_derivative(u) + 0.5 * rescaled.r_integral(u))
    assert fp.psi_rs == pytest.approx(expected, rel=1e-12)


def test_small_beta_continuity_with_product_case():
    field = constant_field(1.0)
    pf = product_fixed_point(field)
    fp = solve_fixed_point(1e-6, semicircle(), field)
    assert abs(fp.q_star - pf.q_star) < 1e-6
    assert abs(fp.psi_rs - pf.psi_rs) < 1e-6


def test_zero_field_paramagnet():
    fp = solve_fixed_point(0.3, semicircle(), constant_field(0.0))
    assert fp.q_star == 0.0
    assert fp.iterations == 1
    assert fp.sigma_star_sq == 0.0
    # psi = log 2 + beta^2 / 4 for the semicircle at q* = 0
    assert fp.psi_rs == pytest.approx(np.log(2.0) + 0.3**2 / 4.0, abs=1e-12)


def test_beta_too_large():
    with pytest.raises(BetaTooLargeError):
        solve_fixed_point(1.5, semicircle(), constant_field(0.0))
    with pytest.raises(BetaTooLargeError):
        solve_fixed_point(1.0, semicircle(), constant_field(0.0))


THREE_ATOM = empirical_atoms([-1.0, 0.0, 2.0], [0.3, 0.3, 0.4]).standardize()


@pytest.mark.parametrize("law", [semicircle(), two_point(), THREE_ATOM],
                         ids=["semicircle", "two_point", "three_atom"])
@pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
def test_covariance_denominator_is_positive_up_to_the_domain_edge(law, beta):
    # K(w) = R(w) + 1/w inverts the decreasing G, so K' = R' - 1/w^2 < 0 and
    # 1 - u^2 Rbar'(u) = 1 - (beta u)^2 R'(beta u) > 0 wherever Rbar' is
    # defined: the fixed point's denominator guard is a rounding backstop
    rescaled = RescaledLaw(law, beta)
    edge = rescaled.edge_cauchy()
    if np.isfinite(edge):  # the semicircle's, beta u < 1
        grid = np.append(edge * (1.0 - np.geomspace(0.999, 1e-15, 300)), np.nextafter(edge, 0.0))
    else:  # atomic laws: G(d_+) = inf
        grid = np.geomspace(1e-6, 1e8, 300) / beta
    assert all(u * u * rescaled.r_transform_derivative(u) < 1.0 for u in grid)


# the field law at field scale c
SCALED_FIELDS = {
    "constant": lambda c: constant_field(1.0 * c),
    "gaussian": lambda c: gaussian_field(0.3 * c, 0.6 * c),
    "zero": lambda c: constant_field(0.0),
}


@pytest.mark.parametrize("law", [two_point(), THREE_ATOM], ids=["two-point", "three-atom"])
@pytest.mark.parametrize("field_at", list(SCALED_FIELDS.values()), ids=list(SCALED_FIELDS))
@pytest.mark.parametrize("beta", [0.3, 0.8])
def test_entropy_is_psi_minus_its_temperature_and_field_derivatives(law, field_at, beta):
    # s = psi - beta dpsi/dbeta - dpsi/dc at field scale c = 1, by central differences
    def psi(b, c):
        return solve_fixed_point(b, law, field_at(c)).psi_rs

    eps = 1e-5
    d_beta = (psi(beta + eps, 1.0) - psi(beta - eps, 1.0)) / (2 * eps)
    d_scale = (psi(beta, 1.0 + eps) - psi(beta, 1.0 - eps)) / (2 * eps)
    field = field_at(1.0)
    entropy = _rs_entropy(solve_fixed_point(beta, law, field), field)
    assert entropy == pytest.approx(psi(beta, 1.0) - beta * d_beta - d_scale, abs=1e-8)
    assert entropy > 0


@pytest.mark.parametrize("beta", [0.5, 3.0, 15.4])
def test_zero_field_entropy_is_the_integral_form(beta):
    # log 2 + (1/2) int_0^beta R - (beta/2) R(beta), from the rescaled transforms at 1
    rescaled = RescaledLaw(two_point(), beta)
    expected = np.log(2.0) + 0.5 * rescaled.r_integral(1.0) - 0.5 * rescaled.r_transform(1.0)
    field = constant_field(0.0)
    assert _rs_entropy(solve_fixed_point(beta, two_point(), field), field) == pytest.approx(
        expected, abs=1e-12)


def test_negative_entropy_is_outside_the_regime():
    # zero field, two-point law: every other check passes at beta = 20, where
    # psi_rs would read 9.691; the entropy turns negative from beta = 15.49
    zero = constant_field(0.0)
    assert solve_fixed_point(15.49, two_point(), zero).psi_rs == pytest.approx(7.4991, abs=1e-4)
    for beta in (15.5, 20.0):
        with pytest.raises(BetaTooLargeError, match="entropy"):
            solve_fixed_point(beta, two_point(), zero)


def test_entropy_guard_allows_rounding_at_strong_fields():
    # the entropy here is about 2e-15, and computed as -3.6e-15 without the allowance
    field = constant_field(18.775)
    fp = solve_fixed_point(0.5, semicircle(), field)
    assert abs(_rs_entropy(fp, field)) < 1e-14


def test_solve_validations():
    from tapglass.spectral import empirical_atoms

    with pytest.raises(ValueError):
        solve_fixed_point(-0.1, semicircle(), constant_field(1.0))
    with pytest.raises(ValueError):
        solve_fixed_point(float("nan"), semicircle(), constant_field(1.0))
    raw = empirical_atoms([0.0, 5.0], [0.5, 0.5])  # not standardized
    with pytest.raises(ValueError):
        solve_fixed_point(0.2, raw, constant_field(1.0))


@pytest.mark.parametrize("make", [
    constant_field,
    lambda bad: gaussian_field(bad, 1.0),
    lambda bad: gaussian_field(0.0, bad),
], ids=["constant-value", "gaussian-mean", "gaussian-sd"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_parameters_must_be_finite(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


@pytest.mark.parametrize("beta", [np.inf, np.nan])
def test_non_finite_beta_is_an_invalid_input_not_a_regime(beta):
    with pytest.raises(ValueError, match="beta must be finite and >= 0") as exc:
        solve_fixed_point(beta, semicircle(), constant_field(1.0))
    assert not isinstance(exc.value, BetaTooLargeError)


def test_gauss_field_expectation_basics():
    field = constant_field(0.4)
    assert gauss_field_expectation(lambda h, y: 1, field, 0.7) == pytest.approx(1.0, abs=1e-13)
    assert gauss_field_expectation(lambda h, y: h, field, 0.7) == pytest.approx(0.4, abs=1e-13)
    # E[(c + sigma G)^2] = c^2 + sigma^2
    val = gauss_field_expectation(lambda h, y: (h + y) ** 2, field, 0.7)
    assert val == pytest.approx(0.4**2 + 0.7**2, abs=1e-12)
    # odd integrand in the Gaussian kills the y part
    odd = gauss_field_expectation(lambda h, y: np.tanh(y), constant_field(0.0), 1.3)
    assert abs(odd) < 1e-13


def test_gaussian_field_quadrature_vs_adaptive():
    field = gaussian_field(0.3, 0.7)
    gh = gauss_field_expectation(lambda h, y: np.tanh(h) ** 2, field, 0.0)
    direct, _ = quad(
        lambda x: np.tanh(0.3 + 0.7 * x) ** 2 * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
        -12,
        12,
        epsabs=1e-12,
    )
    assert gh == pytest.approx(direct, abs=1e-10)


def test_field_quantiles_and_sampling():
    from scipy.stats import norm

    assert np.array_equal(constant_field(0.8).quantiles(3), [0.8, 0.8, 0.8])
    g = gaussian_field(0.0, 1.0).quantiles(4)
    assert np.allclose(g, norm.ppf([0.125, 0.375, 0.625, 0.875]), atol=1e-12)
    assert np.allclose(g, -g[::-1], atol=1e-12)
    e = empirical_field([-0.5, 0.5], [0.5, 0.5])
    assert np.array_equal(e.quantiles(2), [-0.5, 0.5])

    rng = np.random.default_rng(11)
    draws = e.sample(rng, 20000)
    assert set(np.unique(draws)) <= {-0.5, 0.5}
    assert abs(draws.mean()) < 0.02

    spec = gaussian_field(0.1, 0.4).to_spec()
    back = field_from_spec(spec)
    assert back.value == 0.1 and back.sd == 0.4


def test_theoretical_delta_product_case_is_delta_star():
    # at beta = 0, kappa* = 0 so Y = 0 and X_s = tanh(H)/(1 - q*) in every
    # column: Delta = E tanh(H)^2 / (1 - q*)^2 11^T = delta* 11^T
    for field in (constant_field(1.0), gaussian_field(0.3, 0.6)):
        pf = product_fixed_point(field)
        delta = theoretical_delta(pf, field, t_max=4)
        assert np.all(np.abs(delta - pf.delta_star) <= 1e-12 * pf.delta_star)

    # a zero field makes every variance 0, so every 2 x 2 factor has a zero
    # pivot; the suite's filterwarnings = error fails a division by it
    zero = constant_field(0.0)
    delta = theoretical_delta(product_fixed_point(zero), zero, t_max=4)
    assert np.array_equal(delta, np.zeros((4, 4)))


def test_theoretical_delta_matches_delta_star():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    delta = theoretical_delta(fp, field, t_max=3)
    assert delta.shape == (3, 3)
    assert np.array_equal(delta, delta.T)
    assert np.linalg.eigvalsh(delta).min() > -1e-10
    # Stein's lemma makes every diagonal entry delta*
    assert np.all(np.abs(np.diag(delta) - fp.delta_star) < 1e-10)


def test_theoretical_delta_nested_and_deterministic():
    field = constant_field(1.0)
    fp = solve_fixed_point(0.15, semicircle(), field)
    small = theoretical_delta(fp, field, t_max=2)
    large = theoretical_delta(fp, field, t_max=4)
    # column t depends only on the columns before it
    assert np.array_equal(small, large[:2, :2])
    assert np.array_equal(large, theoretical_delta(fp, field, t_max=4))


THREE_ATOM = empirical_atoms([-1.0, 0.0, 2.0], [0.3, 0.3, 0.4]).standardize()


@pytest.mark.parametrize("law, field, beta", [
    (semicircle(), constant_field(1.0), 0.15),
    (semicircle(), constant_field(1.0), 0.7),
    (semicircle(), gaussian_field(0.3, 0.6), 0.5),
    (THREE_ATOM, constant_field(1.0), 0.7),
], ids=["semicircle-0.15", "semicircle-0.7", "semicircle-gaussian-0.5", "three_atom-0.7"])
def test_theoretical_delta_matches_monte_carlo_oracle(law, field, beta):
    fp = solve_fixed_point(beta, law, field)
    delta = theoretical_delta(fp, field, t_max=8)
    mc, se = monte_carlo_delta(fp, field, t_max=8, mc_samples=200_000, seed=0)
    assert np.all(np.abs(delta - mc) < 4 * se)


# ----------------------------------------------------------------------
# the zero-field annealed free energy, log E_O Z
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 14, 400])
def test_zero_field_log_partition_at_beta_zero(n):
    # Jbar = 0: Z = 2^n for every O
    assert abs(zero_field_log_partition(np.zeros(n)) - n * np.log(2.0)) < 1e-12


@pytest.mark.parametrize("law", [semicircle(), two_point()], ids=["semicircle", "two_point"])
def test_zero_field_log_partition_matches_monte_carlo(law):
    # E_O Z = 2^n E_u exp((n/2) sum_i d_i u_i^2), u uniform on the unit sphere
    n, draws = 14, 100_000
    d_bar = 0.6 * law.quantiles(n)
    g = np.random.default_rng(23).standard_normal((draws, n))
    g *= g
    values = np.exp(0.5 * n * (g @ d_bar) / g.sum(axis=1))
    se = values.std(ddof=1) / (values.mean() * np.sqrt(draws))  # of the log of the mean
    estimate = n * np.log(2.0) + np.log(values.mean())
    assert abs(zero_field_log_partition(d_bar) - estimate) < 4 * se


@pytest.mark.parametrize("law", [semicircle(), two_point()], ids=["semicircle", "two_point"])
@pytest.mark.parametrize("beta", [0.3, 0.6])
def test_zero_field_log_partition_approaches_its_large_n_constant(law, beta):
    # log E_O Z = n psi_rs - (1/2) log(1 + kappa*) + o(1) at q* = 0
    n = 400
    fp = solve_fixed_point(beta, law, constant_field(0.0))
    constant = zero_field_log_partition(beta * law.quantiles(n)) - n * fp.psi_rs
    assert abs(constant + 0.5 * np.log1p(fp.kappa_star)) < 2e-3
