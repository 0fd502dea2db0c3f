"""Transform-layer tests: closed forms as oracles, numeric inversion as the second route."""

import numpy as np
import pytest

from tapglass import spectral
from tapglass.spectral import (
    DegenerateLawError,
    DomainError,
    empirical_atoms,
    law_from_spec,
    semicircle,
    two_point,
)

from oracles import (
    cauchy_transform,
    numeric_cauchy_inverse,
    numeric_r_derivative,
    numeric_r_transform,
    support_top,
)

# Hand-derived values used as fixed oracles.
SEMI_G_AT_2P5 = 0.5               # (2.5 - sqrt(2.25)) / 2
TWO_POINT_G_AT_2 = 2.0 / 3.0      # 2 / (4 - 1)
TWO_POINT_R_AT_HALF = np.sqrt(2.0) - 1.0
SEMI_R_INT_AT_0P4 = 0.08          # a^2 / 2

# A standardized three-atom law: no closed form, so R, R' and int R all come
# from the atomic root solve.
ATOMIC = empirical_atoms([-1.0, 0.0, 2.0], [0.3, 0.3, 0.4]).standardize()


def g_inverse(law, w):
    """G^{-1}(w) = R(w) + 1/w, the package's inverse of the Cauchy transform."""
    return law.r_transforms(w)[0] + 1.0 / w


class ClosedTwoPoint:
    """The +-1 law's transforms in closed form, an oracle independent of the
    root solve that two_point() goes through.  With s = sqrt(1 + 4 w^2):
    G(z) = z / (z^2 - 1), R = (s - 1)/(2w) = 2w/(s + 1), R' = 2/(s (s + 1)),
    int_0^w R = (s - log1p(s) - 1 + log 2)/2 = (t - log1p(t/2))/2 with
    t = s - 1 = 4w^2/(s + 1); the second forms do not cancel at small w."""

    @staticmethod
    def cauchy_transform(z):
        return z / (z * z - 1.0)

    @staticmethod
    def r_transforms(w):
        s = np.sqrt(1.0 + 4.0 * w * w)
        t = 4.0 * w * w / (s + 1.0)
        return 2.0 * w / (s + 1.0), 2.0 / (s * (s + 1.0)), 0.5 * (t - np.log1p(0.5 * t))


def test_semicircle_cauchy_closed_form_values():
    law = semicircle()
    assert cauchy_transform(law, 2.5) == pytest.approx(SEMI_G_AT_2P5, abs=1e-15)
    assert law.edge_cauchy() == 1.0
    # Large-z tail: G(z) ~ 1/z + m2/z^3 with m2 = 1.
    z = 1e4
    assert cauchy_transform(law, z) == pytest.approx(1 / z + 1 / z**3, rel=1e-6)


def test_two_point_cauchy_closed_form_values():
    law = two_point()
    assert cauchy_transform(law, 2.0) == pytest.approx(TWO_POINT_G_AT_2, abs=1e-15)
    assert g_inverse(law, 2.0 / 3.0) == pytest.approx(2.0, abs=1e-12)
    assert law.r_transforms(0.5)[0] == pytest.approx(TWO_POINT_R_AT_HALF, abs=1e-14)


def test_cauchy_transform_strictly_decreasing():
    for law in (semicircle(), two_point(), empirical_atoms([-1.5, 0.2, 1.1], [0.3, 0.3, 0.4])):
        z = support_top(law) + np.geomspace(1e-6, 50, 60)
        g = np.array([cauchy_transform(law, zi) for zi in z])
        assert np.all(np.diff(g) < 0)
        assert np.all(g > 0)


def test_round_trip_all_kinds():
    emp = empirical_atoms([-1.2, -0.1, 0.4, 1.6], [0.25, 0.25, 0.25, 0.25])
    for law in (semicircle(), two_point(), emp):
        top = min(law.edge_cauchy(), 2.5)
        grid = np.linspace(0.02, 0.98 * top, 50)
        for w in grid:
            z = g_inverse(law, w)
            assert abs(cauchy_transform(law, z) - w) < 1e-10
        # and the other direction, z -> G -> G^{-1}
        for z in support_top(law) + np.geomspace(0.05, 10.0, 50):
            w = cauchy_transform(law, z)
            assert abs(g_inverse(law, w) - z) < 1e-8 * max(1.0, abs(z))


def test_semicircle_r_transform_is_identity():
    law = semicircle()
    for w in np.linspace(0.05, 0.9, 40):
        assert abs(law.r_transforms(w)[0] - w) < 1e-12
        # the forced-numeric route must agree to the bisection tolerance budget
        assert abs(numeric_r_transform(law, w) - w) < 1e-8


def test_numeric_inverse_matches_closed_forms():
    for law in (semicircle(), two_point()):
        for w in np.linspace(0.1, 0.9, 17):
            closed = g_inverse(law, w)
            numeric = numeric_cauchy_inverse(law, w)
            assert abs(closed - numeric) < 1e-8


@pytest.mark.parametrize("law", [ClosedTwoPoint, ATOMIC], ids=["two_point", "empirical"])
def test_r_derivative_closed_vs_central_difference(law):
    for w in (0.2, 0.5, 0.8, 1.3):
        assert law.r_transforms(w)[1] == pytest.approx(numeric_r_derivative(law, w), abs=1e-7)


def test_r_integral_values_and_quadrature_cross_check():
    law = semicircle()
    assert law.r_transforms(0.4)[2] == pytest.approx(SEMI_R_INT_AT_0P4, abs=1e-14)
    # int_0^w R -> 0 as w -> 0+ (w = 0 itself is outside the domain)
    assert law.r_transforms(1e-8)[2] == pytest.approx(0.0, abs=1e-16)

    tp = two_point()
    # closed antiderivative vs direct numeric quadrature of R
    from scipy.integrate import quad

    for a in (0.3, 0.7, 1.5):
        val, _ = quad(lambda w: tp.r_transforms(w)[0], 0, a, epsabs=1e-12)
        assert tp.r_transforms(a)[2] == pytest.approx(val, abs=1e-9)


def test_empirical_matches_two_point_after_standardize():
    law = empirical_atoms([-2.0, 2.0], [0.5, 0.5]).standardize()
    ref = ClosedTwoPoint
    for z in (1.5, 2.0, 3.0):
        assert cauchy_transform(law, z) == pytest.approx(ref.cauchy_transform(z), abs=1e-14)
    # the atomic route (one root solve) against the two-point closed forms
    for w in (1e-8, 1e-4, 0.05, 0.3, 0.7, 1.5, 5.0):
        r, r_der, r_int = law.r_transforms(w)
        r_ref, r_der_ref, r_int_ref = ref.r_transforms(w)
        assert r == pytest.approx(r_ref, abs=1e-12)
        assert r_der == pytest.approx(r_der_ref, abs=1e-12)
        assert r_int == pytest.approx(r_int_ref, abs=1e-12)


def test_two_point_r_derivative_small_w():
    # against the stable R' = 2/(s (s + 1)); the cancelling form
    # (s - 1)/(2 w^2 s) reads 1.11 at w = 1e-8, not 1
    law = two_point()
    for w in (1e-8, 1e-4, 0.05, 0.3, 5.0):
        assert law.r_transforms(w)[1] == pytest.approx(
            ClosedTwoPoint.r_transforms(w)[1], rel=1e-15
        )


def test_two_point_is_the_atomic_law_at_plus_minus_one():
    ref = law_from_spec({"kind": "empirical", "locations": [-1, 1], "weights": [0.5, 0.5]})
    for law in (two_point(), law_from_spec({"kind": "two_point"})):
        assert law.kind == ref.kind == "empirical"
        assert np.array_equal(law.atoms, ref.atoms)
        assert (support_top(law), law.mean, law.variance) == (
            support_top(ref), ref.mean, ref.variance)


def test_atomic_r_transform_small_w():
    # R(w) = mean + variance w + O(w^2); forming G^{-1}(w) - 1/w would cancel
    # every digit of R here
    for w in (1e-6, 1e-4):
        assert ATOMIC.r_transforms(w)[0] / w == pytest.approx(1.0, abs=1e-3)


def test_standardize_idempotent_and_moments():
    rng = np.random.default_rng(7)
    x = rng.normal(size=9)
    w = rng.random(9)
    w /= w.sum()
    law = empirical_atoms(x, w).standardize()
    assert abs(law.mean) < 1e-12
    assert abs(law.variance - 1.0) < 1e-12
    again = law.standardize()
    assert np.allclose(again.atoms, law.atoms, atol=1e-12)


def test_degenerate_law_rejected():
    with pytest.raises(DegenerateLawError):
        empirical_atoms([3.0], [1.0]).standardize()


def test_domain_errors():
    law = semicircle()
    with pytest.raises(DomainError):
        cauchy_transform(law, 2.0)
    with pytest.raises(DomainError):
        cauchy_transform(law, 1.0)
    with pytest.raises(DomainError):
        law.r_transforms(0.0)
    with pytest.raises(DomainError):
        law.r_transforms(1.0)  # edge value itself is out
    with pytest.raises(DomainError):
        law.r_transforms(-0.1)
    tp = two_point()
    with pytest.raises(DomainError):
        tp.r_transforms(-0.5)


def test_quantiles():
    tp = two_point()
    assert np.array_equal(tp.quantiles(4), [-1.0, -1.0, 1.0, 1.0])
    assert np.array_equal(tp.quantiles(3), [-1.0, -1.0, 1.0])

    mix = empirical_atoms([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    assert np.array_equal(mix.quantiles(4), [-1.0, 0.0, 0.0, 1.0])

    q = semicircle().quantiles(101)
    assert np.all(np.diff(q) >= 0)
    assert np.allclose(q, -q[::-1], atol=1e-12)  # symmetry
    assert q[50] == pytest.approx(0.0, abs=1e-12)  # middle point is the median
    # quantile mean/variance approach 0 and 1
    assert abs(q.mean()) < 1e-10
    assert abs(np.mean(q**2) - 1.0) < 1e-2


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_semicircle_quantiles_solved_once_per_size_and_read_only():
    q = semicircle().quantiles(37)
    assert semicircle().quantiles(37) is q
    with pytest.raises(ValueError):
        q[0] = 0.0


def test_brentq_port_equals_scipy_on_semicircle_levels():
    from scipy.optimize import brentq

    def old_cdf(x):  # the CDF as the scipy route evaluated it, with np.sqrt
        if x <= -2.0:
            return 0.0
        if x >= 2.0:
            return 1.0
        return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi

    for n in [*range(1, 60), 199, 1000]:
        levels = (np.arange(1, n + 1) - 0.5) / n
        expected = [brentq(lambda x: old_cdf(x) - p, -2.0, 2.0, xtol=1e-14) for p in levels]
        assert np.array_equal(_bits(semicircle().quantiles(n)), _bits(expected)), n


def test_brentq_port_equals_scipy_on_atomic_r_solves():
    from scipy.optimize import brentq

    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    for _ in range(60):
        k = int(rng.integers(2, 40))
        law = empirical_atoms(rng.normal(size=k) * rng.uniform(0.1, 5.0),
                              rng.dirichlet(np.full(k, rng.uniform(0.2, 3.0)))).standardize()
        x, p = law.atoms[:, 0], law.atoms[:, 1]
        gap = x[-1] - x
        for w in 10.0 ** rng.uniform(-8.0, 8.0, size=5):
            g = lambda t: p @ ((t + gap) / (1.0 + w * (t + gap)))  # noqa: E731
            left = max(-gap[0], -(1.0 - p[-1]) / w)
            root = spectral._brentq(g, left, 0.0, tiny)
            assert type(root) is float
            assert _bits(root) == _bits(brentq(g, left, 0.0, xtol=tiny))
            assert _bits(law.r_transforms(w)[0]) == _bits(x[-1] + root)


@pytest.mark.parametrize("f, a, b, xtol, error", [
    (lambda x: x + 2.0, 0.0, 1.0, 2e-12, ValueError),                    # no sign change
    (lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, 2e-12, ValueError),         # f(a) f(b) underflows
    (lambda x: np.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 2e-12, ValueError),  # NaN value
    (lambda x: -1.0 if x < 1e-300 else 1.0, -1.0, 1.0, 1e-300, RuntimeError),  # 100 steps
])
def test_brentq_port_raises_as_scipy(f, a, b, xtol, error):
    from scipy.optimize import brentq

    with pytest.raises(error) as expected:
        brentq(f, a, b, xtol=xtol)
    with pytest.raises(error) as got:
        spectral._brentq(f, a, b, xtol)
    assert str(got.value) == str(expected.value)


def test_brentq_port_sign_and_zero_ends_as_scipy():
    from scipy.optimize import brentq

    for f, a, b in [(lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),   # f(a) f(b) underflows
                    (lambda x: x - 0.5, 0.5, 1.0),              # root at an end
                    (lambda x: -1.0 if x < 1 / 3 else 1.0, 0.0, 1.0),
                    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0)]:
        assert _bits(spectral._brentq(f, a, b, 2e-12)) == _bits(brentq(f, a, b))


def test_quantile_discretization_approximates_transforms():
    # A 2000-atom quantile image of the semicircle should reproduce R to O(1/n).
    q = semicircle().quantiles(2000)
    law = empirical_atoms(q, np.full(2000, 1.0 / 2000)).standardize()
    assert abs(law.r_transforms(0.5)[0] - 0.5) < 1e-3


def test_rescaled_transforms_against_independent_formulas():
    # beta * d has Gbar(z) = G(z / beta) / beta and Rbar(w) = beta R(beta w)
    beta = 0.3
    semi = semicircle()
    # scaled semicircle has support [-2 beta, 2 beta]; its Cauchy transform is
    # (z - sqrt(z^2 - 4 beta^2)) / (2 beta^2), derived by hand.
    for z in (0.7, 1.0, 2.5):
        direct = (z - np.sqrt(z * z - 4 * beta * beta)) / (2 * beta * beta)
        assert cauchy_transform(semi, z / beta) / beta == pytest.approx(direct, abs=1e-10)
    # its R-transform is variance times identity: beta^2 w
    for w in (0.2, 0.8, 1.5):
        r, r_der, _ = semi.r_transforms(beta * w)
        assert beta * r == pytest.approx(beta * beta * w, abs=1e-10)
        assert beta * beta * r_der == pytest.approx(beta * beta, abs=1e-10)
    assert semi.r_transforms(beta * 0.8)[2] == pytest.approx(beta * beta * 0.32, abs=1e-12)
    assert beta * support_top(semi) == pytest.approx(2 * beta)
    assert semi.edge_cauchy() / beta == pytest.approx(1.0 / beta)

    tp = two_point()
    # atoms move to +-beta: direct resolvent sum
    for z in (0.5, 1.1, 4.0):
        direct = 0.5 / (z - beta) + 0.5 / (z + beta)
        assert cauchy_transform(tp, z / beta) / beta == pytest.approx(direct, abs=1e-12)
    # round trip through the rescaled inverse Gbar^{-1}(w) = beta G^{-1}(beta w)
    for w in (0.3, 1.0, 2.2):
        z = beta * g_inverse(tp, beta * w)
        assert cauchy_transform(tp, z / beta) / beta == pytest.approx(w, abs=1e-10)


def test_law_spec_round_trip():
    for law in (semicircle(), two_point()):
        back = law_from_spec(law.to_spec())
        assert back.kind == law.kind
    emp = empirical_atoms([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0])
    back = law_from_spec(emp.to_spec())
    # loader standardizes
    assert abs(back.mean) < 1e-12 and abs(back.variance - 1.0) < 1e-12
    with pytest.raises(ValueError):
        law_from_spec({"kind": "uniform"})
    # only the keys to_spec writes are accepted
    with pytest.raises(ValueError, match="atoms"):
        law_from_spec({"kind": "empirical", "atoms": [[-1.0, 0.5], [1.0, 0.5]]})
    with pytest.raises(ValueError, match="weights"):
        law_from_spec({"kind": "semicircle", "weights": [1.0]})


def test_standardized_law_parses_back_to_itself():
    # standardizing these atoms leaves a mean of -4.4e-12; a second pass
    # would shift every atom by about that much
    spec = {"kind": "empirical", "locations": [100.0, 100.001, 100.003], "weights": [0.3, 0.3, 0.4]}
    law = law_from_spec(spec)
    assert law.is_standardized() and law.mean != 0.0
    assert law.standardize() is law
    back = law_from_spec(law.to_spec())
    assert np.array_equal(back.atoms, law.atoms)
    assert (back.mean, back.variance) == (law.mean, law.variance)


def test_atom_validation():
    with pytest.raises(ValueError):
        empirical_atoms([1.0, 2.0], [0.6, 0.6])  # weights must sum to 1
    with pytest.raises(ValueError):
        empirical_atoms([1.0], [-1.0])
    with pytest.raises(ValueError):
        empirical_atoms([], [])
    # zero-weight atoms are dropped and do not pollute the support edge
    law = empirical_atoms([-1.0, 1.0, 9.0], [0.5, 0.5, 0.0])
    assert support_top(law) == 1.0
