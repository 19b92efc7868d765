import math

import numpy as np
import pytest

from fockdm.acceptance import (
    creation_expansion,
    ladder_expansion,
    random_two_mode_hamiltonian,
)
from fockdm import algebra, poly
from fockdm.algebra import (
    NormalFormOperator,
    commutator,
    hermitian_pair_check,
    normal_order_product,
    poly_to_normal_form,
    random_normal_operator,
)
from fockdm.fock import interior_block, realize_matrix
from fockdm.poly import ProductSizeError, parse_poly, random_poly

SQRT2 = math.sqrt(2.0)


def approx_eq(p, q, tol=1e-12):
    """Every coefficient of p - q within tol."""
    return (p - q).is_zero(tol)


def op1(words):
    return NormalFormOperator(1, words)


A = NormalFormOperator.annihilation()
AD = NormalFormOperator.creation()


class TestNormalOrdering:
    def test_a_adag(self):
        assert normal_order_product(A, AD) == op1({((1,), (1,)): 1.0,
                                                   ((0,), (0,)): 1.0})

    def test_adag_a(self):
        assert normal_order_product(AD, A) == op1({((1,), (1,)): 1.0})

    def test_quartic_reordering(self):
        got = normal_order_product(A ** 2, AD ** 2)
        assert got == op1({((2,), (2,)): 1.0, ((1,), (1,)): 4.0,
                           ((0,), (0,)): 2.0})

    def test_quartic_reordering_matrix_oracle(self):
        # independent route: multiply dense ladder matrices at D=12 and
        # compare with the realized symbolic product on the interior block
        D = 12
        lhs = realize_matrix(A ** 2, D).data @ realize_matrix(AD ** 2, D).data
        rhs = realize_matrix(normal_order_product(A ** 2, AD ** 2), D).data
        diff = np.abs(interior_block(lhs - rhs, 1, D, 4))
        assert diff.max() <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = random_normal_operator(rng, modes=2, degree=2, words=3)
            v = random_normal_operator(rng, modes=2, degree=2, words=3)
            w = random_normal_operator(rng, modes=2, degree=2, words=3)
            left = normal_order_product(normal_order_product(u, v), w)
            right = normal_order_product(u, normal_order_product(v, w))
            assert approx_eq(left, right,
                             tol=1e-9 * max([1, *map(abs, left.terms.values())]))

    def test_adjoint_is_antihomomorphism(self):
        rng = np.random.default_rng(4)
        u = random_normal_operator(rng, modes=1, degree=3, words=4, hermitian=False)
        v = random_normal_operator(rng, modes=1, degree=3, words=4, hermitian=False)
        assert approx_eq(normal_order_product(u, v).adjoint(),
                         normal_order_product(v.adjoint(), u.adjoint()))


class TestPolyToNormalForm:
    def test_field_operator(self):
        got = poly_to_normal_form(parse_poly("phi1", {}))
        want = (A + AD).scale(1 / SQRT2)
        assert approx_eq(got, want)

    def test_quadratic_energy_has_no_zero_point(self):
        got = poly_to_normal_form(parse_poly("0.5*phi1^2 + 0.5*pi1^2", {}))
        assert approx_eq(got, op1({((1,), (1,)): 1.0}))

    def test_phi_pi_cross_term(self):
        got = poly_to_normal_form(parse_poly("phi1*pi1", {}))
        want = (AD ** 2 - A ** 2).scale(0.5j)
        assert approx_eq(got, want)

    def test_real_polynomial_gives_hermitian_pairing(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = random_poly(rng, modes=2, degree=4, terms=6)
            assert hermitian_pair_check(poly_to_normal_form(p), tol=1e-10)


class TestHermitianPairCheck:
    def test_number_operator_self_paired(self):
        assert hermitian_pair_check(normal_order_product(AD, A))

    def test_lone_annihilation_square_fails(self):
        assert not hermitian_pair_check(A ** 2)

    def test_conjugate_pair_passes(self):
        assert hermitian_pair_check(A ** 2 + AD ** 2)


class TestCommutator:
    def test_canonical(self):
        assert commutator(A, AD) == NormalFormOperator.identity()

    def test_with_number_operator(self):
        assert commutator(A, normal_order_product(AD, A)) == A

    def test_hamilton_generator_identity(self):
        # [Phi, H_n] = i (dH/dpi)_n for the quadratic oscillator
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        phi_n = poly_to_normal_form(parse_poly("phi1", {}))
        lhs = commutator(phi_n, poly_to_normal_form(H))
        rhs = poly_to_normal_form(H.differentiate("pi1")).scale(1j)
        assert approx_eq(lhs, rhs)
        # and the conjugate law [Pi, H_n] = -i (dH/dphi)_n
        pi_n = poly_to_normal_form(parse_poly("pi1", {}))
        lhs2 = commutator(pi_n, poly_to_normal_form(H))
        rhs2 = poly_to_normal_form(H.differentiate("phi1")).scale(-1j)
        assert approx_eq(lhs2, rhs2)

    def test_ladder_commutators_are_symbol_derivatives(self):
        # [a, f_n] = (df/dy)_n and [adag, f_n] = -(df/dz)_n, exactly
        rng = np.random.default_rng(21)
        for _ in range(100):
            f = random_poly(rng, chart="zy", modes=1, degree=5, terms=6,
                            dyadic=True)
            fn = poly_to_normal_form(f)
            assert commutator(A, fn) - poly_to_normal_form(f.partial((0, 1))) \
                == NormalFormOperator.zero()
            assert commutator(AD, fn) + poly_to_normal_form(f.partial((1, 0))) \
                == NormalFormOperator.zero()


class TestNestedCommutatorLemmas:
    def test_annihilation_power_lemma_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            H = random_normal_operator(rng, modes=1, degree=3, words=4)
            for n in range(1, 6):
                lhs = commutator(A ** n, H)
                assert lhs - ladder_expansion(H, n) \
                    == NormalFormOperator.zero()

    def test_creation_power_lemma_exact(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            H = random_normal_operator(rng, modes=1, degree=3, words=4)
            for m in range(1, 6):
                lhs = commutator(AD ** m, H)
                assert lhs - creation_expansion(H, m) \
                    == NormalFormOperator.zero()

    def test_mixed_word_lemma_exact(self):
        # [(adag)^m a^n, H] = [(adag)^m, H] a^n + (adag)^m [a^n, H]
        rng = np.random.default_rng(41)
        for _ in range(20):
            H = random_normal_operator(rng, modes=1, degree=3, words=4)
            for m, n in ((1, 1), (2, 3), (3, 2), (5, 4)):
                word = normal_order_product(AD ** m, A ** n)
                lhs = commutator(word, H)
                rhs = normal_order_product(creation_expansion(H, m),
                                           A ** n) \
                    + normal_order_product(AD ** m,
                                           ladder_expansion(H, n))
                assert lhs - rhs == NormalFormOperator.zero()

    def test_lemma_fails_beyond_the_order_gate(self):
        # a quartic word violates the gate and leaves a residual
        H = op1({((4,), (0,)): 1.0, ((0,), (4,)): 1.0})
        lhs = commutator(A ** 4, H)
        assert not (lhs - ladder_expansion(H, 4)).is_zero()


class TestTwoModeLemmas:
    def test_product_splitting(self):
        # [a^n b^m, H] = [a^n, H] b^m + [b^m, H] a^n + [a^n, [b^m, H]]
        rng = np.random.default_rng(43)
        a1 = NormalFormOperator.annihilation(0, 2)
        a2 = NormalFormOperator.annihilation(1, 2)
        for _ in range(20):
            H = random_two_mode_hamiltonian(rng)
            for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
                word = normal_order_product(a1 ** n, a2 ** m)
                lhs = commutator(word, H)
                rhs = normal_order_product(commutator(a1 ** n, H), a2 ** m) \
                    + normal_order_product(commutator(a2 ** m, H), a1 ** n) \
                    + commutator(a1 ** n, commutator(a2 ** m, H))
                assert lhs - rhs == NormalFormOperator.zero(2)

    def test_cross_terms_close_at_third_order(self):
        # [a^n, [b^m, H]] reduces to the three mixed nested commutators
        rng = np.random.default_rng(47)
        a1 = NormalFormOperator.annihilation(0, 2)
        a2 = NormalFormOperator.annihilation(1, 2)
        for _ in range(20):
            H = random_two_mode_hamiltonian(rng)
            for n, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
                lhs = commutator(a1 ** n, commutator(a2 ** m, H))
                c_ab = commutator(a1, commutator(a2, H))
                c_aab = commutator(a1, commutator(a1, commutator(a2, H)))
                c_abb = commutator(a1, commutator(a2, commutator(a2, H)))
                rhs = NormalFormOperator.zero(2)
                rhs = rhs + normal_order_product(
                    c_ab.scale(m * n),
                    normal_order_product(a1 ** (n - 1), a2 ** (m - 1)))
                if n >= 2:
                    rhs = rhs + normal_order_product(
                        c_aab.scale(m * n * (n - 1) / 2),
                        normal_order_product(a1 ** (n - 2), a2 ** (m - 1)))
                if m >= 2:
                    rhs = rhs + normal_order_product(
                        c_abb.scale(m * (m - 1) * n / 2),
                        normal_order_product(a1 ** (n - 1), a2 ** (m - 2)))
                assert lhs - rhs == NormalFormOperator.zero(2)



class TestOnePassCommutator:
    # commutator sums AB - BA in one pass; the two-product difference is
    # the reference, word order included
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_dyadic_operators_match_the_two_product_difference(self, modes):
        rng = np.random.default_rng(60 + modes)
        for _ in range(150):
            a, b = (random_normal_operator(
                rng, modes=modes, degree=3, words=int(rng.integers(1, 6)),
                hermitian=bool(rng.integers(2))) for _ in range(2))
            want = normal_order_product(a, b) - normal_order_product(b, a)
            assert list(commutator(a, b).terms.items()) \
                == list(want.terms.items())

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_complex_operators_match_to_rounding(self, modes):
        # per word within 1e-15 of the largest coefficient: a word whose
        # contributions cancel carries both routes' rounding, up to 1.6e-14
        # of itself against exact rational sums
        rng = np.random.default_rng(70 + modes)
        for _ in range(150):
            a, b = (random_normal_operator(
                rng, modes=modes, degree=3, words=int(rng.integers(1, 6)),
                hermitian=bool(rng.integers(2)), dyadic=False)
                for _ in range(2))
            got = commutator(a, b).terms
            want = (normal_order_product(a, b)
                    - normal_order_product(b, a)).terms
            scale = max(map(abs, want.values()), default=0.0)
            for word in got.keys() | want.keys():
                assert abs(got.get(word, 0) - want.get(word, 0)) \
                    <= 1e-15 * scale

    def test_words_keep_the_order_of_the_difference(self):
        # [a^2 - adag^2, adag a]: both orders form adag a^3 and adag^3 a
        # uncontracted, which cancel; AB's contraction a^2 comes first, and
        # adag^2, which only BA contracts to, last
        g = op1({((0,), (2,)): 1.0, ((2,), (0,)): -1.0})
        assert list(commutator(g, AD * A).terms.items()) \
            == [(((0,), (2,)), 2.0), (((2,), (0,)), 2.0)]

    def test_reordering_is_looked_up_at_call_time(self, monkeypatch):
        # a product and a commutator read the module's _reorder_single_mode
        # when they run, the commutator for a^r1 adag^c2 and a^r2 adag^c1
        # of each pair, so a patched weight reaches each
        reorder = algebra._reorder_single_mode
        calls = []

        def counted(r, l):
            calls.append((r, l))
            return reorder(r, l)

        monkeypatch.setattr(algebra, "_reorder_single_mode", counted)
        normal_order_product(A, AD)
        assert calls == [(1, 1)]
        commutator(AD, A)
        assert calls[1:] == [(0, 0), (1, 1)]

    def test_reordering_is_memoized_as_a_tuple(self):
        first = algebra._reorder_single_mode(3, 2)
        assert first == ((1, 2, 3), (6, 1, 2), (6, 0, 1))
        assert algebra._reorder_single_mode(3, 2) is first


class TestProductCeiling:
    def test_product_over_the_ceiling_is_refused_before_work(
            self, monkeypatch):
        # 4 by 4 words pass a ceiling of 16 word pairs, 4 by 5 do not, and
        # nothing is reordered before the refusal
        four = op1({((k,), (3 - k,)): 1.0 for k in range(4)})
        five = op1({((k,), (4 - k,)): 1.0 for k in range(5)})
        monkeypatch.setattr(poly, "MAX_TERM_PAIRS", 16)
        assert normal_order_product(four, four).terms
        monkeypatch.setattr(algebra, "_reorder_single_mode", None)
        with pytest.raises(ProductSizeError, match="4 by 5 terms"):
            normal_order_product(four, five)
        with pytest.raises(ProductSizeError, match="5 by 4 terms"):
            commutator(five, four)


class TestNonFiniteCoefficients:
    def test_overflowing_product_raises(self):
        big = op1({((1,), (0,)): 1e200})
        with pytest.raises(FloatingPointError):
            normal_order_product(big, big)
