import math

import numpy as np
import pytest

from fockdm.poly import (
    ChartError,
    PolyExpr,
    PolyParseError,
    parse_poly,
    random_poly,
)

SQRT2 = math.sqrt(2.0)


def poly_from(terms, chart="phipi", modes=1):
    return PolyExpr(chart, modes, terms)


class TestParsing:
    def test_oscillator_with_binding(self):
        p = parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": 2})
        assert p == poly_from({(0, 2): 0.5, (2, 0): 1.0})

    def test_plain_monomial(self):
        assert parse_poly("phi1*pi1", {}) == poly_from({(1, 1): 1.0})

    def test_fractional_exponent_rejected(self):
        with pytest.raises(PolyParseError, match="non-integer exponent"):
            parse_poly("phi1^(1/2)", {})

    def test_float_exponent_rejected(self):
        with pytest.raises(PolyParseError, match="non-integer exponent"):
            parse_poly("phi1^0.5", {})

    def test_unbound_symbol(self):
        with pytest.raises(PolyParseError, match="unbound symbol 'k'"):
            parse_poly("k*phi1", {})

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("phi1 + + pi1", {})
        assert err.value.position == 7

    def test_unary_minus_and_parens(self):
        p = parse_poly("-(phi1 - 2*pi1)^2", {})
        q = poly_from({(2, 0): -1.0, (1, 1): 4.0, (0, 2): -4.0})
        assert p.approx_eq(q)

    def test_mode_inference(self):
        p = parse_poly("phi2*pi1", {})
        assert p.modes == 2
        assert p == poly_from({(0, 1, 1, 0): 1.0}, modes=2)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("2phi1", {})

    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = random_poly(rng, modes=2, degree=4, terms=5)
            assert parse_poly(str(p), {}, modes=2).approx_eq(p, tol=1e-12)


class TestCalculus:
    def test_product_derivative(self):
        p = parse_poly("phi1*pi1", {})
        assert p.differentiate("phi1") == poly_from({(0, 1): 1.0})

    def test_scaled_square_derivative(self):
        p = parse_poly("0.5*m*phi1^2", {"m": 3})
        assert p.differentiate("phi1") == poly_from({(1, 0): 3.0})

    def test_constant_derivative(self):
        assert PolyExpr.constant(4.2).differentiate("phi1").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            parse_poly("phi1", {}).differentiate("phi2")

    def test_chain_rule_against_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(200):
            p = random_poly(rng, modes=2, degree=4, terms=6)
            x = rng.uniform(-1, 1, size=4)
            axis = int(rng.integers(0, 4))
            var = ("phi1", "phi2", "pi1", "pi2")[axis]
            up, dn = x.copy(), x.copy()
            up[axis] += h
            dn[axis] -= h
            fd = (p.eval(up) - p.eval(dn)) / (2 * h)
            exact = p.differentiate(var).eval(x)
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) / scale < 1e-6


class TestChartChange:
    def test_phi_maps_to_symmetric_combination(self):
        z = parse_poly("phi1", {}).to_zy()
        assert z.approx_eq(poly_from({(1, 0): 1 / SQRT2, (0, 1): 1 / SQRT2},
                                     chart="zy"))

    def test_pi_maps_to_antisymmetric_combination(self):
        z = parse_poly("pi1", {}).to_zy()
        assert z.approx_eq(poly_from({(1, 0): -1j / SQRT2, (0, 1): 1j / SQRT2},
                                     chart="zy"))

    def test_quadratic_energy_collapses_to_product(self):
        z = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {}).to_zy()
        assert z.approx_eq(poly_from({(1, 1): 1.0}, chart="zy"))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_poly(rng, modes=2, degree=5, terms=8)
            assert p.to_zy().to_phipi().approx_eq(p, tol=1e-12)

    def test_chart_mismatch_raises(self):
        with pytest.raises(ChartError):
            parse_poly("phi1", {}).to_zy().to_zy()

    def test_eval_consistency_under_chart_change(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_poly(rng, modes=2, degree=4, terms=6)
            phi = rng.uniform(-1, 1, 2)
            pi = rng.uniform(-1, 1, 2)
            z = (phi + 1j * pi) / SQRT2
            y = np.conj(z)
            direct = p.eval(np.concatenate([phi, pi]))
            via_zy = p.to_zy().eval(np.concatenate([z, y]))
            assert abs(direct - via_zy) <= 1e-12 * max(1.0, abs(direct))


class TestZyPartial:
    def test_first_partial(self):
        zy = poly_from({(1, 1): 1.0}, chart="zy")
        assert zy.partial((1, 0)).approx_eq(poly_from({(0, 1): 1.0}, chart="zy"))

    def test_second_partial_matches_phipi_combination(self):
        # d^2/dz^2 = (d^2/dphi^2 - d^2/dpi^2 - 2i d^2/dphi dpi)/2
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_poly(rng, modes=1, degree=4, terms=5)
            lhs = p.to_zy().partial((2, 0))
            combo = (p.partial((2, 0)) - p.partial((0, 2))
                     - 2j * p.partial((1, 1))) * 0.5
            assert lhs.approx_eq(combo.to_zy(), tol=1e-12)

    def test_second_partial_of_phi_squared(self):
        p = parse_poly("phi1^2", {}).to_zy()
        assert p.partial((2, 0)).approx_eq(
            PolyExpr.constant(1.0, "zy", 1), tol=1e-12)

    def test_high_partial_of_quadratic_vanishes(self):
        p = parse_poly("phi1^2 + phi1*pi1", {}).to_zy()
        assert p.partial((0, 3)).is_zero()

    def test_derivative_then_chart_equals_chart_then_combination(self):
        # d/dphi = (d/dz + d/dy)/sqrt2 after the chart change
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_poly(rng, modes=1, degree=4, terms=5)
            left = p.differentiate("phi1").to_zy()
            pz = p.to_zy()
            right = (pz.partial((1, 0)) + pz.partial((0, 1))) * (1 / SQRT2)
            assert left.approx_eq(right, tol=1e-12)


class TestEval:
    def test_product_at_point(self):
        assert parse_poly("phi1*pi1", {}).eval([2.0, 3.0]) == 6.0

    def test_constant(self):
        assert PolyExpr.constant(5.0).eval([9.0, -4.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_poly("phi1", {}).eval([1.0])


class TestNonFiniteCoefficients:
    # abs(nan) > DROP_TOL is False, so a nan coefficient would otherwise be
    # dropped as if it were zero
    @pytest.mark.parametrize(
        "coeff", [math.nan, math.inf, complex(0, math.nan)],
        ids=["nan", "inf", "nan-imaginary"])
    def test_constructor_raises(self, coeff):
        with pytest.raises(FloatingPointError):
            poly_from({(2, 0): coeff, (0, 2): 1.0})

    @pytest.mark.parametrize("text, bindings", [
        ("0.5*pi1^2 + 0.5*m*phi1^2", {"m": math.nan}),
        # 1e308*1e308 is inf, and inf - inf is nan
        ("1e308*1e308*phi1^2 - 1e308*1e308*phi1^2 + pi1^2", {}),
    ], ids=["nan-binding", "inf-minus-inf"])
    def test_parse_raises(self, text, bindings):
        with pytest.raises(FloatingPointError):
            parse_poly(text, bindings)

    def test_overflowing_arithmetic_raises(self):
        big = parse_poly("1e200*phi1", {})
        with pytest.raises(FloatingPointError):
            big * big
