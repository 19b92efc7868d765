import json

import numpy as np
import pytest

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
    block_trace,
    check_dimension,
    compile_operator,
    expm_hermitian,
    interior_block,
    interior_indices,
    occupations,
    operator_trace,
    realize_matrix,
)

A = NormalFormOperator.annihilation()
AD = NormalFormOperator.creation()


def one_mode_word(create, annih, cutoff):
    return realize_matrix(NormalFormOperator.word(1.0, (create,), (annih,)),
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
        op = NormalFormOperator.word(1.0, create, annih)
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
            assert realize_matrix(op, 6).hermiticity_defect() <= 1e-12

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
        op = NormalFormOperator.word(1.0, (9,), (2,))
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
        table = compile_operator(NormalFormOperator.word(1.0, (9,), (2,)), 8)
        assert block_trace(np.ones((8, 2), dtype=complex), np.ones(2),
                           table) == 0

    def test_shape_mismatch_rejected(self):
        table = compile_operator(NormalFormOperator.identity(2), 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            block_trace(np.ones((8, 1)), np.ones(1), table)

    def test_non_finite_total_raises(self):
        op = NormalFormOperator.word(1e306, (4,), (4,))
        with pytest.raises(FloatingPointError, match="not finite"):
            block_trace(np.ones((32, 1)), np.ones(1),
                        compile_operator(op, 32))


class TestInterior:
    def test_occupations_layout(self):
        occ = occupations(2, 3)
        assert occ[0].tolist() == [0, 0]
        assert occ[1].tolist() == [0, 1]
        assert occ[3].tolist() == [1, 0]

    def test_mask_counts(self):
        mask = interior_indices(2, 4, 1)
        assert mask.sum() == 9  # occupations 0..2 in each of two modes


class TestHelpers:
    def test_expm_hermitian_inverse(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((8, 8))
        g = g + g.T
        m = expm_hermitian(g, -0.3) @ expm_hermitian(g, 0.3)
        assert np.allclose(m, np.eye(8), atol=1e-10)

    def test_matrix_json_round_trip(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        payload = json.loads(json.dumps(FockMatrix(2, 3, data).to_json()))
        assert payload["modes"] == 2 and payload["cutoff"] == 3
        # column-major flattening, one [re, im] pair per entry
        pairs = np.asarray(payload["data"])
        flat = pairs[:, 0] + 1j * pairs[:, 1]
        assert np.array_equal(flat.reshape((9, 9), order="F"), data)
