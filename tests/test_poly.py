import math
import tracemalloc

import numpy as np
import pytest

from fockdm import poly
from fockdm.algebra import NormalFormOperator
from fockdm.poly import (
    DROP_TOL,
    MAX_MODES,
    MAX_NESTING,
    ChartError,
    PolyExpr,
    PolyParseError,
    ProductSizeError,
    eval_rows,
    parse_poly,
    random_poly,
)

SQRT2 = math.sqrt(2.0)


def approx_eq(p, q, tol=1e-12):
    """Every coefficient of p - q within tol."""
    return (p - q).is_zero(tol)


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
        assert approx_eq(p, q)

    def test_mode_inference(self):
        p = parse_poly("phi2*pi1", {})
        assert p.modes == 2
        assert p == poly_from({(0, 1, 1, 0): 1.0}, modes=2)

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("2phi1", {})

    def test_nesting_ceiling(self):
        half = MAX_NESTING // 2
        deep = "(" * half + "-" * half + "phi1" + ")" * half
        assert parse_poly(deep, {}) == poly_from({(1, 0): 1.0})
        for text in ("(" + deep + ")", "-" + deep):
            with pytest.raises(PolyParseError, match="nesting deeper"):
                parse_poly(text, {})

    def test_mode_ceiling(self):
        # a bound on the symbolic work, not on a Fock space: the flux suites
        # read 12 modes at any cutoff
        assert MAX_MODES == 12
        assert parse_poly(f"phi{MAX_MODES}*pi1", {}).modes == MAX_MODES
        for index in (MAX_MODES + 1, "9" * 5000):
            with pytest.raises(PolyParseError, match="ceiling of"):
                parse_poly(f"phi{index}*pi1", {})

    def test_huge_index_is_refused_before_its_exponent_tuple(self):
        # a 2*10^6-entry exponent tuple per factor would take megabytes
        tracemalloc.start()
        try:
            with pytest.raises(PolyParseError, match="ceiling of"):
                parse_poly("phi1000000*pi1", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_product_ceiling(self, monkeypatch):
        # (4 terms)^2 multiplies 16 term pairs, (4 terms)^3 then 4 by 10
        monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 16)
        assert len(parse_poly("(phi1+pi1+phi2+pi2)^2", {}).terms) == 10
        with pytest.raises(ProductSizeError, match="4 by 10 terms"):
            parse_poly("(phi1+pi1+phi2+pi2)^3", {})
        with pytest.raises(ProductSizeError):
            parse_poly("(phi1+pi1+phi2+pi2)^2*(phi1+pi1)", {})

    def test_long_flat_sum_is_accepted(self):
        p = parse_poly(" + ".join(["phi1*pi1"] * 20000), {})
        assert p == poly_from({(1, 1): 20000.0})

    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = random_poly(rng, modes=2, degree=4, terms=5)
            assert approx_eq(parse_poly(str(p), {}).promote(2), p, tol=1e-12)


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
        assert approx_eq(z, poly_from({(1, 0): 1 / SQRT2, (0, 1): 1 / SQRT2},
                                       chart="zy"))

    def test_pi_maps_to_antisymmetric_combination(self):
        z = parse_poly("pi1", {}).to_zy()
        assert approx_eq(z, poly_from({(1, 0): -1j / SQRT2, (0, 1): 1j / SQRT2},
                                       chart="zy"))

    def test_quadratic_energy_collapses_to_product(self):
        z = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {}).to_zy()
        assert approx_eq(z, poly_from({(1, 1): 1.0}, chart="zy"))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_poly(rng, modes=2, degree=5, terms=8)
            # back by z = (phi + i pi)/sqrt2, y = (phi - i pi)/sqrt2
            back = p.to_zy()._linear_substitution(
                "phipi", (1 / SQRT2, 1j / SQRT2), (1 / SQRT2, -1j / SQRT2))
            assert approx_eq(back, p, tol=1e-12)

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
        assert approx_eq(zy.partial((1, 0)),
                         poly_from({(0, 1): 1.0}, chart="zy"))

    def test_second_partial_matches_phipi_combination(self):
        # d^2/dz^2 = (d^2/dphi^2 - d^2/dpi^2 - 2i d^2/dphi dpi)/2
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_poly(rng, modes=1, degree=4, terms=5)
            lhs = p.to_zy().partial((2, 0))
            combo = (p.partial((2, 0)) - p.partial((0, 2))
                     - 2j * p.partial((1, 1))) * 0.5
            assert approx_eq(lhs, combo.to_zy(), tol=1e-12)

    def test_second_partial_of_phi_squared(self):
        p = parse_poly("phi1^2", {}).to_zy()
        assert approx_eq(p.partial((2, 0)),
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
            assert approx_eq(left, right, tol=1e-12)


class TestEval:
    def test_product_at_point(self):
        assert parse_poly("phi1*pi1", {}).eval([2.0, 3.0]) == 6.0

    def test_constant(self):
        assert PolyExpr.constant(5.0).eval([9.0, -4.0]) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            parse_poly("phi1", {}).eval([1.0])
        with pytest.raises(ValueError):
            parse_poly("phi1", {}).eval(np.ones((3, 1)))

    @pytest.mark.parametrize("chart", ["phipi", "zy"])
    def test_rows_are_the_points_bit_for_bit(self, chart):
        # zeros of both signs included: every row is eval at that point,
        # down to the sign of a zero part
        rng = np.random.default_rng(11 if chart == "phipi" else 12)
        for modes in (1, 2, 3):
            for _ in range(20):
                p = random_poly(rng, chart=chart, modes=modes, degree=6,
                                terms=8).scale(complex(*rng.normal(size=2)))
                points = rng.normal(size=(int(rng.integers(1, 20)),
                                          2 * modes)) * 2
                points[rng.random(points.shape) < 0.2] = 0.0
                points[rng.random(points.shape) < 0.2] = -0.0
                if chart == "zy":
                    points = points + 1j * rng.normal(size=points.shape)
                got = p.eval(points).view(float)
                want = np.array([p.eval(row) for row in points]).view(float)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_stacked_polynomials_are_each_evaluated(self, monkeypatch):
        # polynomials of 0 to 8 terms stacked in one pass, the rows read in
        # blocks of one to many: each is its own eval, bit for bit
        rng = np.random.default_rng(13)
        for budget in (2 ** 20, 64, 8):
            monkeypatch.setattr(poly, "EVAL_BYTES", budget)
            polys = [random_poly(rng, modes=2, degree=5, terms=int(terms))
                     for terms in rng.integers(0, 9, size=5)]
            polys.append(PolyExpr("phipi", 2))
            points = rng.normal(size=(7, 4))
            got = eval_rows(polys, points).view(float)
            want = np.array([[p.eval(row) for row in points]
                             for p in polys]).view(float)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_rows_overflow_as_a_python_complex_does(self):
        p = parse_poly("1e300*phi1^2", {})
        with np.errstate(all="raise"):
            [value] = p.eval(np.array([[1e10, 0.0]]))
        assert value == p.eval([1e10, 0.0])
        assert math.isinf(value.real)


# polynomials in both charts and operators share one canonical store: a
# factory from {(i, j): coeff} on one mode, and that space's unit
CANONICAL_KINDS = {
    "phipi": (lambda terms: PolyExpr("phipi", 1, terms),
              PolyExpr.constant(1.0, "phipi", 1)),
    "zy": (lambda terms: PolyExpr("zy", 1, terms),
           PolyExpr.constant(1.0, "zy", 1)),
    "operator": (lambda terms: NormalFormOperator(
        1, {((i,), (j,)): c for (i, j), c in terms.items()}),
        NormalFormOperator.identity(1)),
}


@pytest.mark.parametrize("kind", CANONICAL_KINDS)
class TestCanonicalSum:
    # abs(nan) > DROP_TOL is False, so a nan coefficient would otherwise be
    # dropped as if it were zero
    @pytest.mark.parametrize(
        "coeff", [math.nan, -math.inf, complex(0, math.nan),
                  complex(math.inf) - math.inf],
        ids=["nan", "inf", "nan-imaginary", "inf-minus-inf"])
    def test_non_finite_coefficient_raises(self, kind, coeff):
        make, _ = CANONICAL_KINDS[kind]
        with pytest.raises(FloatingPointError):
            make({(2, 0): coeff, (0, 2): 1.0})

    def test_overflowing_merge_raises(self, kind):
        make, _ = CANONICAL_KINDS[kind]
        big = make({(1, 1): 1e308})
        with pytest.raises(FloatingPointError):
            big + big

    def test_merged_total_at_or_below_drop_tol_is_dropped(self, kind):
        make, _ = CANONICAL_KINDS[kind]
        one = make({(0, 1): 1.0})
        # each term is above DROP_TOL, and their sum is DROP_TOL exactly
        a, b = 2.375e-14, -1.375e-14
        assert a + b == DROP_TOL
        assert make({(1, 0): a}) + make({(1, 0): b}) + one == one
        above = make({(1, 0): 3 * DROP_TOL}) - make({(1, 0): DROP_TOL})
        assert not above.is_zero(tol=0.0)
        assert (one - one).terms == {}

    def test_assignment_raises(self, kind):
        make, _ = CANONICAL_KINDS[kind]
        x = make({(1, 0): 1.0})
        with pytest.raises(AttributeError, match="immutable"):
            x.terms = {}
        with pytest.raises(AttributeError, match="immutable"):
            x.modes = 2

    def test_integer_powers(self, kind):
        make, unit = CANONICAL_KINDS[kind]
        x = make({(1, 0): 2.0})
        assert x ** 0 == unit
        assert x ** 5 == x * x * x * x * x
        with pytest.raises(ValueError):
            x ** -1


class TestNonFiniteCoefficients:
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
