"""Transform-layer tests: closed forms as oracles, numeric inversion as the second route."""

import numpy as np
import pytest

from tapglass.spectral import (
    DegenerateLawError,
    DomainError,
    RescaledLaw,
    empirical_atoms,
    law_from_spec,
    numeric_cauchy_inverse,
    numeric_r_derivative,
    numeric_r_transform,
    semicircle,
    two_point,
)

# Hand-derived values used as fixed oracles.
SEMI_G_AT_2P5 = 0.5               # (2.5 - sqrt(2.25)) / 2
TWO_POINT_G_AT_2 = 2.0 / 3.0      # 2 / (4 - 1)
TWO_POINT_R_AT_HALF = np.sqrt(2.0) - 1.0
SEMI_R_INT_AT_0P4 = 0.08          # a^2 / 2

# A standardized three-atom law: no closed form, so R, R' and int R all come
# from the atomic root solve.
ATOMIC = empirical_atoms([-1.0, 0.0, 2.0], [0.3, 0.3, 0.4]).standardize()


class ClosedTwoPoint:
    """The +-1 law's transforms in closed form, an oracle independent of the
    root solve that two_point() goes through.  With s = sqrt(1 + 4 w^2):
    G(z) = z / (z^2 - 1), R = (s - 1)/(2w) = 2w/(s + 1), R' = 2/(s (s + 1)),
    int_0^a R = (s - log1p(s) - 1 + log 2)/2 = (t - log1p(t/2))/2 with
    t = s - 1 = 4a^2/(s + 1); the second forms do not cancel at small w."""

    @staticmethod
    def cauchy_transform(z):
        return z / (z * z - 1.0)

    @staticmethod
    def r_transform(w):
        return 2.0 * w / (np.sqrt(1.0 + 4.0 * w * w) + 1.0)

    @staticmethod
    def r_transform_derivative(w):
        s = np.sqrt(1.0 + 4.0 * w * w)
        return 2.0 / (s * (s + 1.0))

    @staticmethod
    def r_integral(a):
        t = 4.0 * a * a / (np.sqrt(1.0 + 4.0 * a * a) + 1.0)
        return 0.5 * (t - np.log1p(0.5 * t))


def test_semicircle_cauchy_closed_form_values():
    law = semicircle()
    assert law.cauchy_transform(2.5) == pytest.approx(SEMI_G_AT_2P5, abs=1e-15)
    assert law.edge_cauchy() == 1.0
    # Large-z tail: G(z) ~ 1/z + m2/z^3 with m2 = 1.
    z = 1e4
    assert law.cauchy_transform(z) == pytest.approx(1 / z + 1 / z**3, rel=1e-6)


def test_two_point_cauchy_closed_form_values():
    law = two_point()
    assert law.cauchy_transform(2.0) == pytest.approx(TWO_POINT_G_AT_2, abs=1e-15)
    assert law.cauchy_inverse(2.0 / 3.0) == pytest.approx(2.0, abs=1e-12)
    assert law.r_transform(0.5) == pytest.approx(TWO_POINT_R_AT_HALF, abs=1e-14)


def test_cauchy_transform_strictly_decreasing():
    for law in (semicircle(), two_point(), empirical_atoms([-1.5, 0.2, 1.1], [0.3, 0.3, 0.4])):
        z = law.d_plus + np.geomspace(1e-6, 50, 60)
        g = np.array([law.cauchy_transform(zi) for zi in z])
        assert np.all(np.diff(g) < 0)
        assert np.all(g > 0)


def test_round_trip_all_kinds():
    emp = empirical_atoms([-1.2, -0.1, 0.4, 1.6], [0.25, 0.25, 0.25, 0.25])
    for law in (semicircle(), two_point(), emp):
        top = min(law.edge_cauchy(), 2.5)
        grid = np.linspace(0.02, 0.98 * top, 50)
        for w in grid:
            z = law.cauchy_inverse(w)
            assert abs(law.cauchy_transform(z) - w) < 1e-10
        # and the other direction, z -> G -> G^{-1}
        for z in law.d_plus + np.geomspace(0.05, 10.0, 50):
            w = law.cauchy_transform(z)
            assert abs(law.cauchy_inverse(w) - z) < 1e-8 * max(1.0, abs(z))


def test_semicircle_r_transform_is_identity():
    law = semicircle()
    for w in np.linspace(0.05, 0.9, 40):
        assert abs(law.r_transform(w) - w) < 1e-12
        # the forced-numeric route must agree to the bisection tolerance budget
        assert abs(numeric_r_transform(law, w) - w) < 1e-8


def test_numeric_inverse_matches_closed_forms():
    for law in (semicircle(), two_point()):
        for w in np.linspace(0.1, 0.9, 17):
            closed = law.cauchy_inverse(w)
            numeric = numeric_cauchy_inverse(law, w)
            assert abs(closed - numeric) < 1e-8


@pytest.mark.parametrize("law", [ClosedTwoPoint, ATOMIC], ids=["two_point", "empirical"])
def test_r_derivative_closed_vs_central_difference(law):
    for w in (0.2, 0.5, 0.8, 1.3):
        assert law.r_transform_derivative(w) == pytest.approx(
            numeric_r_derivative(law, w), abs=1e-7
        )


def test_r_integral_values_and_quadrature_cross_check():
    law = semicircle()
    assert law.r_integral(0.4) == pytest.approx(SEMI_R_INT_AT_0P4, abs=1e-14)
    assert law.r_integral(0.0) == 0.0

    tp = two_point()
    # closed antiderivative vs direct numeric quadrature of R
    from scipy.integrate import quad

    for a in (0.3, 0.7, 1.5):
        val, _ = quad(tp.r_transform, 0, a, epsabs=1e-12)
        assert tp.r_integral(a) == pytest.approx(val, abs=1e-9)


def test_empirical_matches_two_point_after_standardize():
    law = empirical_atoms([-2.0, 2.0], [0.5, 0.5]).standardize()
    ref = ClosedTwoPoint
    for z in (1.5, 2.0, 3.0):
        assert law.cauchy_transform(z) == pytest.approx(ref.cauchy_transform(z), abs=1e-14)
    # the atomic route (one root solve) against the two-point closed forms
    for w in (1e-8, 1e-4, 0.05, 0.3, 0.7, 1.5, 5.0):
        assert law.r_transform(w) == pytest.approx(ref.r_transform(w), abs=1e-12)
        assert law.r_transform_derivative(w) == pytest.approx(
            ref.r_transform_derivative(w), abs=1e-12
        )
        assert law.r_integral(w) == pytest.approx(ref.r_integral(w), abs=1e-12)


def test_two_point_r_derivative_small_w():
    # against the stable R' = 2/(s (s + 1)); the cancelling form
    # (s - 1)/(2 w^2 s) reads 1.11 at w = 1e-8, not 1
    law = two_point()
    for w in (1e-8, 1e-4, 0.05, 0.3, 5.0):
        assert law.r_transform_derivative(w) == pytest.approx(
            ClosedTwoPoint.r_transform_derivative(w), rel=1e-15
        )


def test_two_point_is_the_atomic_law_at_plus_minus_one():
    ref = law_from_spec({"kind": "empirical", "locations": [-1, 1], "weights": [0.5, 0.5]})
    for law in (two_point(), law_from_spec({"kind": "two_point"})):
        assert law.kind == ref.kind == "empirical"
        assert np.array_equal(law.atoms, ref.atoms)
        assert (law.d_plus, law.mean, law.variance) == (ref.d_plus, ref.mean, ref.variance)


def test_atomic_r_transform_small_w():
    # R(w) = mean + variance w + O(w^2); forming G^{-1}(w) - 1/w would cancel
    # every digit of R here
    for w in (1e-6, 1e-4):
        assert ATOMIC.r_transform(w) / w == pytest.approx(1.0, abs=1e-3)


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
        law.cauchy_transform(2.0)
    with pytest.raises(DomainError):
        law.cauchy_transform(1.0)
    with pytest.raises(DomainError):
        law.cauchy_inverse(0.0)
    with pytest.raises(DomainError):
        law.cauchy_inverse(1.0)  # edge value itself is out
    with pytest.raises(DomainError):
        law.r_integral(-0.1)
    tp = two_point()
    with pytest.raises(DomainError):
        tp.r_transform(-0.5)


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


def test_quantile_discretization_approximates_transforms():
    # A 2000-atom quantile image of the semicircle should reproduce R to O(1/n).
    q = semicircle().quantiles(2000)
    law = empirical_atoms(q, np.full(2000, 1.0 / 2000)).standardize()
    assert abs(law.r_transform(0.5) - 0.5) < 1e-3


def test_rescaled_transforms_against_independent_formulas():
    beta = 0.3
    semi = RescaledLaw(semicircle(), beta)
    # scaled semicircle has support [-2 beta, 2 beta]; its Cauchy transform is
    # (z - sqrt(z^2 - 4 beta^2)) / (2 beta^2), derived by hand.
    for z in (0.7, 1.0, 2.5):
        direct = (z - np.sqrt(z * z - 4 * beta * beta)) / (2 * beta * beta)
        assert semi.cauchy_transform(z) == pytest.approx(direct, abs=1e-10)
    # its R-transform is variance times identity: beta^2 w
    for w in (0.2, 0.8, 1.5):
        assert semi.r_transform(w) == pytest.approx(beta * beta * w, abs=1e-10)
        assert semi.r_transform_derivative(w) == pytest.approx(beta * beta, abs=1e-10)
    assert semi.r_integral(0.8) == pytest.approx(beta * beta * 0.32, abs=1e-12)
    assert semi.d_plus_bar == pytest.approx(2 * beta)
    assert semi.edge_cauchy() == pytest.approx(1.0 / beta)

    tp = RescaledLaw(two_point(), beta)
    # atoms move to +-beta: direct resolvent sum
    for z in (0.5, 1.1, 4.0):
        direct = 0.5 / (z - beta) + 0.5 / (z + beta)
        assert tp.cauchy_transform(z) == pytest.approx(direct, abs=1e-12)
    # round trip through the rescaled inverse
    for w in (0.3, 1.0, 2.2):
        z = tp.cauchy_inverse(w)
        assert tp.cauchy_transform(z) == pytest.approx(w, abs=1e-10)


def test_rescaled_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        RescaledLaw(semicircle(), 0.0)
    with pytest.raises(ValueError):
        RescaledLaw(semicircle(), -0.2)


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


def test_atom_validation():
    with pytest.raises(ValueError):
        empirical_atoms([1.0, 2.0], [0.6, 0.6])  # weights must sum to 1
    with pytest.raises(ValueError):
        empirical_atoms([1.0], [-1.0])
    with pytest.raises(ValueError):
        empirical_atoms([], [])
    # zero-weight atoms are dropped and do not pollute the support edge
    law = empirical_atoms([-1.0, 1.0, 9.0], [0.5, 0.5, 0.0])
    assert law.d_plus == 1.0
