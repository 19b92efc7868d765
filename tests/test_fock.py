import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fockdm.algebra import (
    NormalFormOperator,
    commutator,
    hermitian_pair_check,
    normal_order_product,
    random_normal_operator,
)
from fockdm.fock import (
    DIM_CAP,
    DimensionCapError,
    FockMatrix,
    MemberBlock,
    ProductMembers,
    apply,
    bessel_j,
    block_trace,
    chebyshev_degree,
    check_dimension,
    compile_operator,
    eigensystem,
    gershgorin,
    interior_block,
    interior_indices,
    ladder,
    occupations,
    operator_trace,
    realize_matrix,
)
from fockdm import fock
from fockdm.reify import m_generator
from fockdm.states import _coherent_columns

A = NormalFormOperator.annihilation()
AD = NormalFormOperator.creation()


def one_mode_word(create, annih, cutoff):
    return realize_matrix(NormalFormOperator(1, {((create,), (annih,)): 1.0}),
                          cutoff).data


def ladder_oracle(op, cutoff):
    """sum_words coeff * kron_j (adag^c_j a^r_j), from ladder-matrix powers;
    mode 1 is the slowest index, as in the package."""
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)
    out = np.zeros((cutoff ** op.modes,) * 2, dtype=complex)
    for (create, annih), coeff in op.terms.items():
        mat = np.eye(1, dtype=complex)
        for c, r in zip(create, annih):
            mat = np.kron(mat, np.linalg.matrix_power(a.conj().T, c)
                          @ np.linalg.matrix_power(a, r))
        out += coeff * mat
    return out


class TestLadderMatrices:
    def test_annihilation_entries_at_cutoff_3(self):
        a = realize_matrix(A, 3).data
        want = np.zeros((3, 3), dtype=complex)
        want[0, 1] = 1.0
        want[1, 2] = np.sqrt(2.0)
        assert np.array_equal(a, want)

    def test_number_operator_diagonal(self):
        n = realize_matrix(normal_order_product(AD, A), 3).data
        assert np.allclose(n, np.diag([0.0, 1.0, 2.0]))

    def test_word_matrix_matches_ladder_powers(self):
        D = 9
        a = one_mode_word(0, 1, D)
        for c, r in ((0, 2), (3, 0), (2, 3), (1, 1)):
            direct = one_mode_word(c, r, D)
            via_powers = np.linalg.matrix_power(a.conj().T, c) @ \
                np.linalg.matrix_power(a, r)
            assert np.allclose(direct, via_powers, atol=1e-12)

    def test_word_matrix_matches_the_factorial_loop_bit_for_bit(self):
        def loop(create, annih, cutoff):
            mat = np.zeros((cutoff, cutoff), dtype=complex)
            for col in range(annih, cutoff):
                row = col - annih + create
                if row >= cutoff:
                    continue
                val = 1.0
                for step in range(annih):
                    val *= col - step
                for step in range(create):
                    val *= col - annih + 1 + step
                mat[row, col] = np.sqrt(val)
            return mat

        # D starts at 2: check_dimension rejects a cutoff of 1
        for D in range(2, 65):
            for c in range(9):
                for r in range(9):
                    assert np.array_equal(one_mode_word(c, r, D),
                                          loop(c, r, D)), (c, r, D)

    @pytest.mark.parametrize("modes, D", [(1, 8), (1, 16), (2, 8), (2, 16)])
    def test_realization_equals_the_kron_of_ladder_powers(self, modes, D):
        # an oracle that shares no code with word_diagonal
        rng = np.random.default_rng(43 + 10 * modes + D)
        for hermitian_op in (True, False):
            for _ in range(4):
                op = random_normal_operator(rng, modes=modes, degree=3,
                                            words=5, hermitian=hermitian_op,
                                            dyadic=False)
                want = ladder_oracle(op, D)
                got = realize_matrix(op, D).data
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("create, annih", [
        ((9,), (2,)), ((2,), (9,)), ((1, 9), (0, 0)), ((0, 1), (8, 1))])
    def test_word_longer_than_the_cutoff_realizes_to_zero(self, create, annih):
        op = NormalFormOperator(len(create), {(create, annih): 1.0})
        assert not realize_matrix(op, 8).data.any()
        assert not ladder_oracle(op, 8).any()


class TestRealize:
    def test_product_realizes_as_matrix_product_on_interior(self):
        rng = np.random.default_rng(5)
        D = 12
        for _ in range(10):
            u = random_normal_operator(rng, modes=1, degree=2, words=3)
            v = random_normal_operator(rng, modes=1, degree=2, words=3)
            lhs = realize_matrix(normal_order_product(u, v), D).data
            rhs = realize_matrix(u, D).data @ realize_matrix(v, D).data
            margin = u.max_mode_degree() + v.max_mode_degree()
            diff = np.abs(interior_block(lhs - rhs, 1, D, margin))
            assert diff.max() <= 1e-12

    def test_two_mode_product_on_interior(self):
        rng = np.random.default_rng(9)
        D = 8
        for _ in range(6):
            u = random_normal_operator(rng, modes=2, degree=2, words=3)
            v = random_normal_operator(rng, modes=2, degree=2, words=3)
            lhs = realize_matrix(normal_order_product(u, v), D).data
            rhs = realize_matrix(u, D).data @ realize_matrix(v, D).data
            margin = u.max_mode_degree() + v.max_mode_degree()
            diff = np.abs(interior_block(lhs - rhs, 2, D, margin))
            assert diff.max() <= 1e-12

    def test_hermitian_pairing_gives_hermitian_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            op = random_normal_operator(rng, modes=2, degree=3, words=4)
            assert hermitian_pair_check(op)
            data = realize_matrix(op, 6).data
            assert np.max(np.abs(data - data.conj().T)) <= 1e-12

    def test_tensor_ordering_mode_one_is_slow(self):
        D = 3
        n1 = realize_matrix(
            normal_order_product(NormalFormOperator.creation(0, 2),
                                 NormalFormOperator.annihilation(0, 2)), D).data
        want = np.kron(np.diag([0.0, 1.0, 2.0]), np.eye(D))
        assert np.allclose(n1, want)

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            realize_matrix(NormalFormOperator.identity(3), 17)

    def test_dimension_limit_is_fixed(self):
        assert DIM_CAP == 4096
        assert check_dimension(2, 64) == DIM_CAP
        with pytest.raises(DimensionCapError):
            check_dimension(2, 65)

    def test_commutator_matrix_cross_check(self):
        rng = np.random.default_rng(13)
        D = 16
        for _ in range(10):
            H = random_normal_operator(rng, modes=1, degree=3, words=4)
            for n in (1, 2, 3):
                sym = realize_matrix(commutator(A ** n, H), D).data
                an = realize_matrix(A ** n, D).data
                hm = realize_matrix(H, D).data
                mat = an @ hm - hm @ an
                margin = H.max_mode_degree() + n
                diff = np.abs(interior_block(sym - mat, 1, D, margin))
                assert diff.max() <= 1e-9


class TestOperatorTrace:
    @pytest.mark.parametrize("modes, D", [(1, 8), (1, 16), (2, 8), (2, 16)])
    def test_equals_the_dense_trace(self, modes, D):
        # per-mode degree 2 keeps the word weights small enough that the two
        # routes differ by rounding only, at most 1.8e-13 ||rho|| over 80 draws
        rng = np.random.default_rng(41 + 10 * modes + D)
        dim = D ** modes
        for hermitian_op in (True, False):
            for _ in range(3):
                op = random_normal_operator(rng, modes=modes, degree=2,
                                            words=5, hermitian=hermitian_op,
                                            dyadic=False)
                g = rng.standard_normal((dim, dim)) \
                    + 1j * rng.standard_normal((dim, dim))
                for rho in (g, 0.5 * (g + g.conj().T)):
                    want = np.trace(rho @ realize_matrix(op, D).data)
                    got = operator_trace(rho, compile_operator(op, D))
                    assert abs(got - want) <= 1e-12 * np.linalg.norm(rho)

    def test_word_longer_than_the_cutoff_traces_to_zero(self):
        op = NormalFormOperator(1, {((9,), (2,)): 1.0})
        assert operator_trace(np.ones((8, 8), dtype=complex),
                              compile_operator(op, 8)) == 0

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            compile_operator(NormalFormOperator.identity(3), 17)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            operator_trace(np.eye(8),
                           compile_operator(NormalFormOperator.identity(2), 8))


class TestBlockTrace:
    # sum_k p_k <w_k|op w_k> on a block against the dense operator_trace of
    # W diag(p) W^H; the bound is relative to sum |rho_ij| |op_ji|, the size
    # of the terms both routes add (at most 2.6e-16 of it over 480 draws)
    @pytest.mark.parametrize("modes, D", [(1, 8), (1, 16), (2, 4), (2, 8)])
    def test_equals_the_dense_trace(self, modes, D):
        rng = np.random.default_rng(61 + 10 * modes + D)
        dim = D ** modes
        for hermitian_op in (True, False):
            for _ in range(3):
                op = random_normal_operator(rng, modes=modes, degree=3,
                                            words=5, hermitian=hermitian_op,
                                            dyadic=False)
                table = compile_operator(op, D)
                size = np.abs(realize_matrix(op, D).data.T)
                for r in (1, 3, dim + 2):
                    vectors = rng.standard_normal((dim, r)) \
                        + 1j * rng.standard_normal((dim, r))
                    weights = rng.uniform(-1, 1, r)
                    rho = (vectors * weights) @ vectors.conj().T
                    want = operator_trace(rho, table)
                    got = block_trace(vectors, weights, table)
                    assert abs(got - want) \
                        <= 1e-13 * np.sum(np.abs(rho) * size)

    def test_member_block_reads_like_its_dense_matrix(self):
        rng = np.random.default_rng(67)
        vectors = rng.standard_normal((36, 4)) \
            + 1j * rng.standard_normal((36, 4))
        block = MemberBlock(2, 6, vectors, rng.uniform(-1, 1, 4))
        dense = block.dense()
        assert (dense.modes, dense.cutoff) == (2, 6)
        assert block.trace().imag == 0
        assert abs(block.trace() - dense.trace()) <= 1e-13
        op = random_normal_operator(rng, modes=2, degree=2, words=4)
        table = compile_operator(op, 6)
        assert abs(block.expect(table) - dense.expect(table)) <= 1e-12
        assert block.to_json() == dense.to_json()

    def test_word_longer_than_the_cutoff_reads_zero(self):
        table = compile_operator(NormalFormOperator(1, {((9,), (2,)): 1.0}), 8)
        assert block_trace(np.ones((8, 2), dtype=complex), np.ones(2),
                           table) == 0

    def test_shape_mismatch_rejected(self):
        table = compile_operator(NormalFormOperator.identity(2), 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            block_trace(np.ones((8, 1)), np.ones(1), table)

    def test_non_finite_total_raises(self):
        op = NormalFormOperator(1, {((4,), (4,)): 1e306})
        with pytest.raises(FloatingPointError, match="not finite"):
            block_trace(np.ones((32, 1)), np.ones(1),
                        compile_operator(op, 32))


class TestApply:
    # apply(table, x, out) adds op x into out: checked against the
    # dense matrix times x, with and without a nonzero starting out
    @pytest.mark.parametrize("hermitian", [True, False],
                             ids=["hermitian", "general"])
    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("width", [None, 3], ids=["vector", "block"])
    def test_matches_the_dense_matrix(self, modes, hermitian, width):
        rng = np.random.default_rng(modes + 2 * hermitian)
        D = 7 if modes == 1 else 5
        dim = D ** modes
        shape = (dim,) if width is None else (dim, width)
        for _ in range(4):
            op = random_normal_operator(rng, modes=modes, degree=3, words=4,
                                        hermitian=hermitian, dyadic=False)
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for out0 in (np.zeros(shape, complex), start):
                want = realize_matrix(op, D).data @ x + out0
                out = out0.copy()
                got = apply(compile_operator(op, D), x, out)
                assert got is out
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.max(np.abs(want))

    def test_fold_merges_words_by_flat_shift(self):
        # at D=3 the per-mode shifts (0, +2) and (+1, -1) are both the flat
        # shift 2: one pass, its pad the sum of the two words' scales; a
        # word that creates past the cutoff adds no pass
        op = NormalFormOperator(2, {((0, 2), (0, 0)): 1.0,
                                    ((1, 0), (0, 1)): 0.5,
                                    ((3, 0), (0, 0)): 1.0})
        [(shift, pad)] = compile_operator(op, 3).passes
        assert shift == 2
        # pad[T] is the matrix element op[T, T - 2] of the ladder oracle
        want = np.zeros(9)
        want[2:] = np.diagonal(ladder_oracle(op, 3), -2).real
        assert np.allclose(pad, want, rtol=1e-15, atol=0)
        assert np.count_nonzero(pad) == 3 + 4  # the targets of both words


def bessel_integral(x, top):
    """J_k(x) = (1/pi) int_0^pi cos(k tau - x sin tau) dtau for k <= top, by
    the trapezoid rule over the whole period at N points, which is exact
    but for the aliased orders N - k and beyond, far below rounding at
    N = 2 (x + top) + 64.  k tau is reduced modulo 2 pi on integers."""
    n = 2 * (math.ceil(x) + top) + 64
    j = np.arange(n)
    sine = x * np.sin(2 * np.pi * j / n)
    return np.array([np.cos(2 * np.pi * (k * j % n) / n - sine).mean()
                     for k in range(top + 1)])


class TestChebyshev:
    # the Bessel coefficients of the Liouville law's Chebyshev route and
    # the degree it sums to; the zero of J_0 near 2.4048 and the far range
    # of Miller's recurrence included
    POINTS = [0.0, 1e-300, 1e-8, 0.3, 1.0, 2.404825557695773, 7.5, 10.0,
              33.3, 100.0, 314.159, 1000.0]

    @pytest.mark.parametrize("x", POINTS)
    def test_bessel_values_equal_bessel_integral(self, x):
        # each cosine's argument carries the rounding of x sin tau, and the
        # mean over N ~ x points of them leaves about sqrt(x) 2^-53
        top = chebyshev_degree(x) + 1
        got = bessel_j(x, top)
        assert got.shape == (top + 1,)
        assert np.max(np.abs(got - bessel_integral(x, top))) \
            <= 1e-15 * (1 + math.sqrt(x))

    @pytest.mark.parametrize("x", POINTS)
    def test_bessel_identities(self, x):
        # the normalization J_0 + 2 sum J_2k = 1 holds on the values up to
        # the reach, so nothing is left past it; the sum of squares
        # J_0^2 + 2 sum J_k^2 = 1 is not imposed by the normalization
        got = bessel_j(x, fock._bessel_reach(x))
        assert abs(got[0] + 2 * got[2::2].sum() - 1) <= 1e-15
        assert abs(got[0] ** 2 + 2 * (got[1:] ** 2).sum() - 1) <= 1e-14

    @pytest.mark.parametrize("x", POINTS)
    def test_degree_is_the_least_with_the_tail_below_rounding(self, x):
        m = chebyshev_degree(x)
        magnitudes = np.abs(bessel_j(x, fock._bessel_reach(x)))
        assert 2 * magnitudes[m + 1:].sum() < 2.0 ** -53
        if m:
            assert 2 * magnitudes[m:].sum() >= 2.0 ** -53
        # the series cut at m is e^{-ixy} on -1 <= y = cos(theta) <= 1, to
        # the rounding of x cos(theta) and of cos(k theta)
        theta = np.linspace(0, np.pi, 257)
        weights = np.array([2, -2j, -2, 2j])[np.arange(m + 1) % 4]
        weights[0] = 1
        series = np.cos(np.outer(theta, np.arange(m + 1))) \
            @ (weights * bessel_j(x, m))
        assert np.max(np.abs(series - np.exp(-1j * x * np.cos(theta)))) \
            <= 1e-15 * (1 + x)

    def test_degree_crosses_the_quartic_sector_width(self):
        # the degrees that put the benchmark quartic (sectors of 144) on
        # either route: below 144 up to x = 93, above it from x = 94
        assert chebyshev_degree(93.0) == 143
        assert chebyshev_degree(94.0) == 145

    @pytest.mark.parametrize("modes, D", [(1, 12), (2, 5)])
    def test_gershgorin_bounds_hold_every_eigenvalue(self, modes, D):
        rng = np.random.default_rng(61 + modes)
        for _ in range(8):
            op = random_normal_operator(rng, modes=modes, degree=4, words=4,
                                        hermitian=True, dyadic=False)
            low, high = gershgorin(compile_operator(op, D))
            values = np.linalg.eigvalsh(realize_matrix(op, D).data)
            assert low <= values.min() and values.max() <= high


class TestInterior:
    def test_occupations_layout(self):
        occ = occupations(2, 3)
        assert occ[0].tolist() == [0, 0]
        assert occ[1].tolist() == [0, 1]
        assert occ[3].tolist() == [1, 0]

    def test_mask_counts(self):
        mask = interior_indices(2, 4, 1)
        assert mask.sum() == 9  # occupations 0..2 in each of two modes


def coherent_members(rng, modes, cutoff, count):
    """count random coherent members inside the guard |z|^2 <= D/4, as
    their (modes, D, count) columns."""
    z = (rng.normal(size=(count, modes))
         + 1j * rng.normal(size=(count, modes))) * rng.uniform(0.2, 1.5)
    z *= np.minimum(1.0, 0.99 * math.sqrt(cutoff / 4) / np.abs(z))
    return _coherent_columns(z, cutoff)


class TestProductMembers:
    def test_moments_are_the_per_pair_contractions(self):
        # each M[c, r] against its own contraction with ladder(c, r)
        rng = np.random.default_rng(41)
        for _ in range(60):
            modes, count, degree = (int(rng.integers(1, 4)),
                                    int(rng.integers(1, 9)),
                                    int(rng.integers(0, 9)))
            cutoff = int(rng.choice([8, 16, 32, 48]))
            cols = coherent_members(rng, modes, cutoff, count)
            members = ProductMembers(modes, cutoff, cols,
                                     np.full(count, 1 / count), degree)
            for c in range(degree + 1):
                for r in range(degree + 1):
                    weights = ladder(c, r, cutoff)
                    want = np.einsum(
                        "i,jik,jik->jk", weights,
                        cols.conj()[:, c:c + weights.size],
                        cols[:, r:r + weights.size])
                    got = members.moments[c, r]
                    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_no_temporary_exceeds_the_lowered_columns(self):
        # degree + 1 lowered copies of the columns, the conjugate of one
        # and the moments; (degree + 1)^2 copies would be 81
        rng = np.random.default_rng(42)
        cols = coherent_members(rng, 2, 32, 512)
        tracemalloc.start()
        members = ProductMembers(2, 32, cols, np.full(512, 1 / 512), 8)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 11 * cols.nbytes + members.moments.nbytes


class TestHelpers:
    # a complex pair exchange plus a Kerr term on 2 modes: one sector per
    # total occupation, 15 sectors of widths 1..8..1 at D=8
    EXCHANGE = NormalFormOperator(2, {((1, 0), (0, 1)): 1 + 0.5j,
                                      ((0, 1), (1, 0)): 1 - 0.5j,
                                      ((2, 0), (2, 0)): 0.3})
    REAL_EXCHANGE = NormalFormOperator(
        2, {word: coeff.real for word, coeff in EXCHANGE.terms.items()})

    @staticmethod
    def dense(eig, scale):
        """V diag(scale) V^H, assembled from the rotations."""
        identity = np.eye(len(eig.values))
        return eig.from_eigenbasis(scale[:, None] * eig.to_eigenbasis(identity))

    def test_eigensystem_exponential_inverse(self):
        eig = eigensystem(self.EXCHANGE, 8)
        assert len(eig.groups) == 8
        m = self.dense(eig, np.exp(-0.3 * eig.values)) \
            @ self.dense(eig, np.exp(0.3 * eig.values))
        assert np.allclose(m, np.eye(64), atol=1e-10)

    @pytest.mark.parametrize("op, real", [(EXCHANGE, False),
                                          (REAL_EXCHANGE, True)],
                             ids=["complex", "real"])
    def test_eigensystem_rotations_match_dense_v(self, op, real):
        # V^H x and V x against V assembled from the sector groups, on a
        # complex block and a complex vector; a real operator takes the
        # real-arithmetic path
        eig = eigensystem(op, 6)
        assert all(np.isrealobj(vectors) == real for _, vectors in eig.groups)
        v = np.zeros((36, 36), complex)
        for rows, vectors in eig.groups:
            v[rows[:, :, None], rows[:, None, :]] = vectors
        rng = np.random.default_rng(17)
        for shape in ((36, 3), (36,)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.max(np.abs(eig.to_eigenbasis(x) - v.conj().T @ x)) \
                <= 1e-13
            assert np.max(np.abs(eig.from_eigenbasis(x) - v @ x)) <= 1e-13
        h = realize_matrix(op, 6).data
        assert np.max(np.abs(self.dense(eig, eig.values) - h)) \
            <= 1e-13 * np.max(np.abs(h))

    @staticmethod
    def flow_error(op, cutoff, rates):
        """The largest error of Eigensystem.flow on a complex block over the
        rates, relative to the norm of expm(-s H) x from scipy's Pade
        scaling and squaring on the dense matrix."""
        eig, h = eigensystem(op, cutoff), realize_matrix(op, cutoff).data
        rng = np.random.default_rng(23)
        x = (rng.standard_normal((len(h), 3))
             + 1j * rng.standard_normal((len(h), 3)))
        flow = eig.flow(x)

        def error(s):
            want = scipy.linalg.expm(-s * h) @ x
            return np.linalg.norm(flow(s) - want) / np.linalg.norm(want)
        return max(map(error, rates))

    @pytest.mark.parametrize("pairs, cutoff", [(1, 8), (2, 4)])
    def test_flow_at_a_real_rate_is_the_doubled_space_recoding(self, pairs,
                                                               cutoff):
        # M(alpha) = exp(-alpha G), up to and past the single-mode pole
        assert self.flow_error(m_generator(pairs), cutoff,
                               [0.3, math.pi / 4, 1.2]) <= 1e-12

    def test_flow_at_an_imaginary_rate_is_the_liouville_law(self):
        # U = exp(-i t H) for a 2-mode H with complex words
        assert self.flow_error(self.EXCHANGE, 6,
                               [1j * t for t in (0.7, 2.0, 9.5)]) <= 1e-12

    def test_matrix_json_round_trip(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        payload = json.loads(json.dumps(FockMatrix(2, 3, data).to_json()))
        assert payload["modes"] == 2 and payload["cutoff"] == 3
        # column-major flattening, one [re, im] pair per entry
        pairs = np.asarray(payload["data"])
        flat = pairs[:, 0] + 1j * pairs[:, 1]
        assert np.array_equal(flat.reshape((9, 9), order="F"), data)
