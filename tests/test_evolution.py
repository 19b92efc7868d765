import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fockdm import evolution, fock
from fockdm.acceptance import master_vs_classical_flow
from fockdm.algebra import (
    NormalFormOperator,
    commutator,
    poly_to_normal_form,
    random_normal_operator,
)
from fockdm.cli import ExperimentConfig
from fockdm.evolution import (
    MasterTerms,
    PairingError,
    density_samples,
    evolve_density,
    liouville_flow,
    master_rhs,
    projection_decay,
)
from fockdm.fock import (
    DimensionCapError,
    FockMatrix,
    MemberBlock,
    compile_operator,
    eigensystem,
    interior_block,
    realize_matrix,
)
from fockdm.poly import DROP_TOL, PolyExpr, parse_poly, random_poly
from fockdm.reify import S_GENERATOR, m_generator
from fockdm.states import (
    ClassicalState,
    Ensemble,
    ensemble_density,
    expectation,
    integrate_state,
    pseudo_wavefunction,
    pure_density,
    rk4_step,
    step_count,
)

# the benchmark's config generator, read from perfbench/ without importing
# the rest of the benchmark
_SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _SOURCE)
workloads = sys.modules.setdefault(_SPEC.name,
                                   importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(workloads)

SQRT2 = math.sqrt(2.0)
A = NormalFormOperator.annihilation()
AD = NormalFormOperator.creation()


def state1(phi, pi):
    return ClassicalState(np.array([phi]), np.array([pi]))


def time_average_project(rho, hamiltonian, delta):
    """The trace-normalized time average of rho over [0, delta] in the
    number basis: rho is read in the eigenbasis (E, V) of H_n from both
    sides, V^H rho V, averaged there and rotated back, V avg V^H."""
    eig = eigensystem(hamiltonian, rho.cutoff)

    def rotated(matrix, rotate):
        return rotate(rotate(matrix).conj().T).conj().T

    averaged = evolution._time_average(
        rotated(rho.data, eig.to_eigenbasis), eig.values, delta)
    return FockMatrix(rho.modes, rho.cutoff,
                      rotated(averaged, eig.from_eigenbasis))


def number_operator():
    return poly_to_normal_form(parse_poly("0.5*phi1^2 + 0.5*pi1^2", {}))


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    return h / np.linalg.norm(h)


def commutator_rhs(rho, hamiltonian, cutoff):
    # -i [H_n, rho] as a dense commutator: the reference for the Liouville
    # flow and for the master equation
    hmat = realize_matrix(hamiltonian, cutoff).data
    return -1j * (hmat @ rho - rho @ hmat)


def liouville(rho, hamiltonian, t):
    # rho as its eigendecomposition W diag(p) W^H, p signed when rho is
    # not positive; the flow's member block read back as a dense sample
    weights, vectors = np.linalg.eigh(rho.data)
    [sample] = liouville_flow(vectors, weights, hamiltonian, rho.cutoff, [t])
    return sample.dense()


def dense_liouville(rho, hamiltonian, t):
    # U rho U^H with U = exp(-i t H_n) from the complex eigh of H_n
    evals, vecs = np.linalg.eigh(realize_matrix(hamiltonian, rho.cutoff).data)
    u = (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T
    return u @ rho.data @ u.conj().T


def random_low_degree_hamiltonian(rng, scale=0.5):
    # real phipi polynomial of total degree <= 3 with bounded coefficients
    while True:
        p = random_poly(rng, modes=1, degree=3, terms=5)
        if not p.is_zero():
            return p * scale


class TestLiouville:
    def test_commuting_state_is_stationary(self):
        rho = FockMatrix(1, 3, np.diag([0.5, 0.3, 0.2]).astype(complex))
        out = liouville(rho, number_operator(), 1.7)
        assert np.max(np.abs(out.data - rho.data)) <= 1e-14

    def test_trace_conserved(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
            rho = FockMatrix(1, 16, random_hermitian(rng, 16))
            out = liouville(rho, H, 0.7)
            assert abs(out.trace() - rho.trace()) <= 1e-12

    def test_matches_rotating_coherent_state(self):
        # H = adag a rotates z(t) = e^{-it} z, level by level exactly
        D = 32
        s0 = state1(1.0, 0.0)
        for t in (0.3, 1.0, 2.5):
            z = np.exp(-1j * t) * s0.z[0]
            want = pure_density(state1(SQRT2 * z.real, SQRT2 * z.imag), D)
            out = liouville(pure_density(s0, D), number_operator(), t)
            assert np.max(np.abs(out.data - want.data)) <= 1e-12

    @pytest.mark.parametrize("modes, D", [(1, 12), (2, 6)])
    def test_agrees_with_dense_rk4(self, modes, D):
        # random Hermitian H_n from real polynomials, against RK4 on the
        # dense commutator at a step small enough for its error to vanish
        rng = np.random.default_rng(41 + modes)
        t, dt = 0.2, 1e-3
        for _ in range(3):
            H = poly_to_normal_form(random_poly(rng, modes=modes, degree=3,
                                                terms=5) * 0.2)
            rho = FockMatrix(modes, D, random_hermitian(rng, D ** modes))
            want = rho.data
            for _ in range(step_count(t, dt)):
                want = rk4_step(lambda m: commutator_rhs(m, H, D), want, dt)
            out = liouville(rho, H, t)
            assert np.max(np.abs(out.data - want)) <= 1e-10


class TestMemberRoute:
    # the member vectors in the eigenbasis of H_n against the dense
    # U rho U^H, on real H_n (real eigh) and on H_n with odd powers of pi,
    # whose realization is complex
    @staticmethod
    def random_hamiltonian(rng, modes, real, degree=3):
        # pi is imaginary on the number basis, so H_n is real exactly when
        # every term has an even total power of pi
        p = random_poly(rng, modes=modes, degree=degree, terms=6) * 0.2
        if real:
            return PolyExpr("phipi", modes, {
                e: c for e, c in p.terms.items() if sum(e[modes:]) % 2 == 0})
        return p + parse_poly("0.1*phi1*pi1", {})

    @pytest.mark.parametrize("modes, D", [(1, 12), (2, 5)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_equals_dense_reference(self, modes, D, real):
        rng = np.random.default_rng(53 + modes + 10 * real)
        dim = D ** modes
        for _ in range(3):
            H = poly_to_normal_form(self.random_hamiltonian(rng, modes, real))
            assert all(np.iscomplexobj(vectors) != real
                       for _, vectors in eigensystem(H, D).groups)
            for r in (1, 3, dim):
                vectors = rng.standard_normal((dim, r)) \
                    + 1j * rng.standard_normal((dim, r))
                vectors /= np.linalg.norm(vectors, axis=0)
                weights = rng.uniform(-1, 1, r)
                rho = FockMatrix(modes, D,
                                 (vectors * weights) @ vectors.conj().T)
                times = (0.0, 0.37, 2.9)
                for t, got in zip(times, liouville_flow(vectors, weights, H,
                                                        D, times)):
                    want = dense_liouville(rho, H, t)
                    assert np.max(np.abs(got.dense().data - want)) <= 1e-12

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_wide_ensemble_is_folded(self, real, monkeypatch):
        # 40 members at dim 8 reach the flow as the 8 eigenvectors of their
        # moment matrix
        D = 8
        H = poly_to_normal_form(self.random_hamiltonian(
            np.random.default_rng(59), 1, real))
        ensemble = Ensemble.phase_circle(1.0, 40)
        widths = []
        flow = evolution.liouville_flow

        def recorded(vectors, weights, hamiltonian, cutoff, times):
            widths.append(vectors.shape)
            return flow(vectors, weights, hamiltonian, cutoff, times)

        monkeypatch.setattr(evolution, "liouville_flow", recorded)
        rho0 = ensemble_density(ensemble, D)
        samples = list(density_samples("liouville", ensemble, H, D, 0.5, 7, 3))
        assert widths == [(D, D)]
        assert [done for done, _ in samples] == [0, 3, 6, 7]
        for done, rho in samples:
            want = dense_liouville(rho0, H, done * 0.5)
            assert np.max(np.abs(rho.dense().data - want)) <= 1e-12

    def test_samples_are_read_at_absolute_times(self):
        # the sample grid: step 0, every `every` steps and the last step
        H = number_operator()
        ensemble = Ensemble.pure(state1(0.7, -0.4))
        rho0 = ensemble_density(ensemble, 16)
        got = list(density_samples("liouville", ensemble, H, 16, 0.01, 7, 3))
        assert [done for done, _ in got] == [0, 3, 6, 7]
        for done, rho in got:
            want = dense_liouville(rho0, H, done * 0.01)
            assert np.max(np.abs(rho.dense().data - want)) <= 1e-12

    def test_unknown_law_refused(self):
        samples = density_samples("euler", Ensemble.pure(state1(1.0, 0.0)),
                                  number_operator(), 8, 0.01, 2, 1)
        with pytest.raises(ValueError, match="euler"):
            next(samples)

    def test_hamiltonian_that_overflows_is_refused(self):
        H = poly_to_normal_form(parse_poly("1e306*phi1^4 + pi1^2", {}))
        with pytest.raises(FloatingPointError, match="overflows"):
            eigensystem(H, 32)

    def test_non_hermitian_hamiltonian_is_refused(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigensystem(AD ** 2, 8)

    def test_unpaired_hamiltonian_is_refused_on_its_words(self, monkeypatch):
        # the Liouville law and the projection refuse what MasterTerms
        # refuses, decided on the words: no dense matrix is realized for a
        # Hermiticity test
        def dense(*args):
            raise AssertionError("realized a dense matrix")

        monkeypatch.setattr(fock, "realize_matrix", dense)
        lopsided = number_operator() + AD ** 2
        [rho] = Ensemble.pure(state1(0.5, 0.2)).member_blocks(8)
        with pytest.raises(PairingError):
            liouville_flow(np.eye(8, 1), np.ones(1), lopsided, 8, [0.0])
        with pytest.raises(PairingError):
            projection_decay(rho, lopsided, (50.0, 100.0))


class TestPropagate:
    # fock.propagate's two routes for the Liouville law: the Chebyshev
    # series against the eigensystem flow and the dense U rho U^H, and the
    # rule that picks one, pinned by the eigh calls a run makes
    @staticmethod
    def chebyshev(H, D, vectors, times):
        # the Chebyshev route forced, at the degree of the largest time
        table = compile_operator(H, D)
        low, high = fock.gershgorin(table)
        half = (high - low) / 2
        return fock._chebyshev(table, (low + high) / 2, half,
                               fock.chebyshev_degree(max(times) * half),
                               vectors, times)

    @pytest.mark.parametrize("degree", [2, 3, 4])
    @pytest.mark.parametrize("modes, D", [(1, 12), (2, 5)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_chebyshev_equals_the_eigensystem_and_the_dense_reference(
            self, modes, D, real, degree):
        rng = np.random.default_rng(71 + modes + 10 * real + 100 * degree)
        dim = D ** modes
        times = (0.0, 0.37, 2.9)
        for _ in range(2):
            H = poly_to_normal_form(TestMemberRoute.random_hamiltonian(
                rng, modes, real, degree))
            for r in (1, 3, dim):
                vectors = rng.standard_normal((dim, r)) \
                    + 1j * rng.standard_normal((dim, r))
                vectors /= np.linalg.norm(vectors, axis=0)
                weights = rng.uniform(-1, 1, r)
                rho = FockMatrix(modes, D,
                                 (vectors * weights) @ vectors.conj().T)
                flow = eigensystem(H, D).flow(vectors)
                for t, got in zip(times, self.chebyshev(H, D, vectors, times)):
                    assert got.shape == vectors.shape
                    assert np.max(np.abs(got - flow(1j * t))) <= 1e-12
                    sample = MemberBlock(modes, D, got, weights).dense()
                    assert np.max(np.abs(sample.data - dense_liouville(
                        rho, H, t))) <= 1e-12
                if r == 1:
                    # a flat vector moves as its one column
                    flat = self.chebyshev(H, D, vectors[:, 0], times)
                    for got, want in zip(flat, self.chebyshev(
                            H, D, vectors, times)):
                        assert np.array_equal(got, want[:, 0])

    @staticmethod
    def benchmark_config(seed):
        return ExperimentConfig.from_json(
            workloads.make_config("evolve-liouville", seed, 0))

    @staticmethod
    def liouville_run(monkeypatch, config, dt, steps, every):
        """The member blocks of a Liouville run of the config's system and
        state on the given grid, and the shapes every eigh call saw."""
        [(_, h, _)] = config.runs
        shapes, eigh = [], np.linalg.eigh

        def spy(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        samples = list(density_samples(
            "liouville", config.initial_ensemble, poly_to_normal_form(h),
            config.cutoff, dt, steps, every))
        monkeypatch.undo()
        return samples, shapes

    @pytest.mark.parametrize("seed", [7, 31])
    def test_benchmark_configs_take_chebyshev(self, monkeypatch, seed):
        # no eigh at all, and every sample the eigensystem flow's
        config = self.benchmark_config(seed)
        samples, shapes = self.liouville_run(
            monkeypatch, config, config.dt, config.steps, config.sample_every)
        assert shapes == []
        [(_, h, _)] = config.runs
        [block] = config.initial_ensemble.member_blocks(config.cutoff)
        flow = eigensystem(poly_to_normal_form(h), config.cutoff).flow(
            block.vectors)
        assert [done for done, _ in samples] == list(range(0, 21, 2))
        for done, rho in samples:
            assert np.max(np.abs(rho.vectors - flow(1j * done * config.dt))) \
                <= 1e-12

    def test_benchmark_quartic_at_t_2_takes_the_eigensystem(self,
                                                            monkeypatch):
        # degree 248 at seed 7, past the sectors of 144
        config = self.benchmark_config(7)
        _, shapes = self.liouville_run(monkeypatch, config, 0.1, 20, 10)
        assert shapes == [(4, 144, 144)]

    def test_sectors_of_width_one_take_the_eigensystem(self, monkeypatch):
        # the diagonal rotation-invariant system at D = 64: any degree past
        # 0 reaches the width of its sectors
        config = ExperimentConfig.from_json({
            "experiment": "evolve",
            "hamiltonian": TestSectors.ROTATION_INVARIANT, "cutoff": 64,
            "state": {"phi": [0.8, 0.5], "pi": [0.1, -0.3]},
            "dt": 0.01, "t": 0.02})
        _, shapes = self.liouville_run(monkeypatch, config, 0.01, 2, 1)
        assert shapes == [(64 * 64, 1, 1)]

    def test_route_is_logged(self, caplog):
        config = self.benchmark_config(7)
        [(_, h, _)] = config.runs
        [block] = config.initial_ensemble.member_blocks(config.cutoff)
        H = poly_to_normal_form(h)
        with caplog.at_level("DEBUG", logger="fockdm.fock"):
            list(fock.propagate(H, config.cutoff, block.vectors, [0.0, 0.1]))
            list(fock.propagate(H, config.cutoff, block.vectors, [2.0]))
        assert ("propagate: route=chebyshev degree=34 bounds=[-6.70197, "
                "178.181] widest=144") in caplog.text
        assert ("propagate: route=eigensystem degree=>=144 bounds=[-6.70197, "
                "178.181] widest=144") in caplog.text


class TestMasterEquation:
    def test_requires_hermitian_pairing(self):
        lopsided = NormalFormOperator.annihilation() ** 2
        with pytest.raises(PairingError):
            MasterTerms(lopsided, 8)

    def test_trace_conserved_for_arbitrary_matrices(self):
        rng = np.random.default_rng(3)
        D = 24
        for _ in range(12):
            H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
            terms = MasterTerms(H, D)
            rho = random_hermitian(rng, D)  # not physically realizable
            assert abs(np.trace(master_rhs(rho, terms))) <= 1e-10

    def test_trace_conserved_even_for_non_hermitian_input(self):
        rng = np.random.default_rng(5)
        D = 16
        H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
        terms = MasterTerms(H, D)
        rho = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        assert abs(np.trace(master_rhs(rho, terms))) <= 1e-10

    def test_equals_liouville_for_unit_mass_oscillator(self):
        D = 32
        H = number_operator()
        terms = MasterTerms(H, D)
        rho = pure_density(state1(1.0, 0.0), D).data
        lhs = master_rhs(rho, terms)
        rhs = commutator_rhs(rho, H, D)
        diff = np.abs(interior_block(lhs - rhs, 1, D, 4))
        assert diff.max() <= 1e-8

    def test_one_call_holds_three_matrix_buffers(self):
        # at most three dim^2 complex buffers, plus 256 KiB for numpy's own
        # scratch, on a bitwise Hermitian rho at 2 modes, D=16 (dim 256)
        # after one warm-up call; the call holds its result and the
        # Hermitian test's boolean mask, its workspace being allocated with
        # the terms
        H = poly_to_normal_form(parse_poly(
            "0.5*(pi1^2+pi2^2+phi1^2+phi2^2) + 0.05*phi1^2*phi2^2"
            " + 0.03*phi1^4", {}))
        terms = MasterTerms(H, 16)
        rho = random_hermitian(np.random.default_rng(19), terms.dim)
        assert np.array_equal(rho, rho.conj().T)
        master_rhs(rho, terms)
        tracemalloc.start()
        try:
            master_rhs(rho, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * terms.dim ** 2 + 256 * 1024

    @pytest.mark.parametrize("modes, D", [(1, 8), (1, 16), (2, 8), (2, 16),
                                          (2, 3), (3, 3)])
    def test_equals_the_dense_sandwich_oracle(self, modes, D):
        # F(rho) = rho' assembled from realized words, per word C adag^L a^R
        # -iC (|R| a^R rho adag^L + sum_j L_j adag_j a^R rho adag^(L-e_j)),
        # and master_rhs against F(rho) + F(rho^H)^H; per-mode degree 2 keeps
        # the weights small enough that the two routes differ by rounding.
        # At D=3 the per-mode shifts (0, -2) and (+1, -1) on the last two
        # modes share the flat shift -2, so a fourth Hamiltonian there, a_n^2
        # and adag_n a_(n-1) with their adjoints, has its pre words a_n^2
        # and adag_n a_(n-1) summed across modes into one pass
        rng = np.random.default_rng(37 + 10 * modes + D)
        zero = (0,) * modes
        merged = 0
        for k in range(4 if D == 3 else 3):
            if k < 3:
                H = random_normal_operator(rng, modes=modes, degree=2,
                                           words=4)
            else:
                last, prev = (tuple(int(i == j) for i in range(modes))
                              for j in (modes - 1, modes - 2))
                H = NormalFormOperator(modes, {
                    (zero, tuple(2 * e for e in last)): 0.5,
                    (tuple(2 * e for e in last), zero): 0.5,
                    (last, prev): 0.25 + 0.1j, (prev, last): 0.25 - 0.1j})
            terms = MasterTerms(H, D)
            dim = D ** modes
            # the (pre, post) word pairs of the sandwiches, all inside the
            # cutoff at degree 2, against the passes of the compiled pre words
            pairs = {(zero, annih, create) for create, annih in H.terms
                     if sum(annih)}
            pairs |= {(tuple(int(i == j) for i in range(modes)), annih,
                       tuple(c - (i == j) for i, c in enumerate(create)))
                      for create, annih in H.terms
                      for j in range(modes) if create[j]}
            merged += len(pairs) - sum(len(pres.passes)
                                       for *_, pres in terms.groups)
            g = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            for rho in (g, 0.5 * (g + g.conj().T)):
                want = sandwich_oracle(H, D, rho)
                got = master_rhs(rho, terms)
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.linalg.norm(rho)
        assert merged > 0 or D != 3

    def test_dimension_cap(self, monkeypatch):
        # 17^3 > DIM_CAP: refused before a single word is compiled
        H = poly_to_normal_form(parse_poly("phi1^2 + phi2^2 + phi3^2", {}))

        def compiled(*args):
            raise AssertionError("compiled a word past the dimension cap")

        monkeypatch.setattr(evolution, "compile_operator", compiled)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError):
                MasterTerms(H, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_shape_mismatch_rejected(self):
        terms = MasterTerms(number_operator(), 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            master_rhs(np.zeros((9, 9)), terms)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        D = 12
        H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
        terms = MasterTerms(H, D)
        r1 = random_hermitian(rng, D)
        r2 = random_hermitian(rng, D)
        a, b = 0.7, -1.3
        lhs = master_rhs(a * r1 + b * r2, terms)
        rhs = a * master_rhs(r1, terms) + b * master_rhs(r2, terms)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_complex_linear_across_both_routes(self):
        # A and B are bitwise Hermitian, so master_rhs evaluates F once on
        # each; A + iB is not, so it takes F(rho) + F(rho^H)^H
        rng = np.random.default_rng(13)
        for modes, D in ((1, 16), (2, 6)):
            H = random_normal_operator(rng, modes=modes, degree=2, words=4)
            terms = MasterTerms(H, D)
            a, b = (random_hermitian(rng, D ** modes) for _ in range(2))
            for part in (a, b):
                assert np.array_equal(part, part.conj().T)
            lhs = master_rhs(a + 1j * b, terms)
            rhs = master_rhs(a, terms) + 1j * master_rhs(b, terms)
            assert np.max(np.abs(lhs - rhs)) \
                <= 1e-13 * np.max(np.abs(lhs))

    def test_finite_difference_of_classical_flow(self):
        # central difference of rho along the trajectory converges to the
        # generator at second order in dt (acceptance criterion 3)
        result = master_vs_classical_flow(np.random.default_rng(9), 32, 3)
        assert result.passed, result

    def test_unfolded_form_matches_folded_on_hermitian_input(self):
        # rho' + rho'^H assembled from the definition, against master_rhs
        rng = np.random.default_rng(29)
        D = 16
        for _ in range(5):
            H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
            terms = MasterTerms(H, D)
            rho = random_hermitian(rng, D)
            rho_prime = np.zeros((D, D), dtype=complex)
            a = realize_matrix(A, D).data
            for (create, annih), coeff in H.terms.items():
                # [adag, a^R] and [a, adag^L], taken symbolically
                word_r = NormalFormOperator(1, {((0,), annih): 1.0})
                word_l = NormalFormOperator(1, {(create, (0,)): 1.0})
                lmat = realize_matrix(commutator(AD, word_r), D).data
                rmat = realize_matrix(commutator(A, word_l), D).data
                rho_prime += 1j * coeff * (
                    a @ lmat @ rho @ realize_matrix(word_l, D).data
                    - a.conj().T @ realize_matrix(word_r, D).data @ rho @ rmat)
            folded = rho_prime + rho_prime.conj().T
            compiled = master_rhs(rho, terms)
            # interior restriction: matrix products of realized factors leak
            # at the truncation edge while the single-word route does not
            margin = H.max_mode_degree() + 1
            diff = np.abs(interior_block(folded - compiled, 1, D, margin))
            assert diff.max() <= 1e-10

    def test_energy_flux_is_finite_and_reported(self):
        # Tr(master_rhs(rho) H_n) need not vanish for arbitrary matrices;
        # the number is reported by the harness, never asserted to be zero
        rng = np.random.default_rng(11)
        D = 16
        H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
        terms = MasterTerms(H, D)
        rho = random_hermitian(rng, D)
        flux = np.trace(master_rhs(rho, terms) @ realize_matrix(H, D).data)
        assert np.isfinite(flux.real) and np.isfinite(flux.imag)


def sandwich_oracle(H, D, rho):
    """F(rho) + F(rho^H)^H with F = rho' assembled from realized words,
    every sandwich of every word, per word C adag^L a^R
    -iC (|R| a^R rho adag^L + sum_j L_j adag_j a^R rho adag^(L-e_j)):
    the law before adjoint pairs are merged."""
    modes = H.modes
    zero = (0,) * modes

    def word(create, annih):
        op = {(tuple(create), tuple(annih)): 1.0}
        return realize_matrix(NormalFormOperator(modes, op), D).data

    def half(matrix):
        out = np.zeros_like(matrix, dtype=complex)
        for (create, annih), coeff in H.terms.items():
            out += -1j * coeff * sum(annih) * (
                word(zero, annih) @ matrix @ word(create, zero))
            for j in range(modes):
                if create[j]:
                    ej = [int(k == j) for k in range(modes)]
                    drop = [c - e for c, e in zip(create, ej)]
                    out += -1j * coeff * create[j] * (
                        word(ej, annih) @ matrix @ word(drop, zero))
        return out

    return half(rho) + half(rho.conj().T).conj().T


class TestAdjointPairs:
    # MasterTerms holds one sandwich per adjoint pair of the half F: in
    # F(rho) + F(rho^H)^H a sandwich X rho Y of coefficient a and its
    # adjoint Y^H rho X^H of coefficient b act as X rho Y of a + conj(b)
    @staticmethod
    def perturbed(H, rng, size=1e-13):
        """H with each mate's coefficient moved by size relative, and each
        self-adjoint word given an imaginary part of that size: inside the
        pairing tolerance of 1e-12, so the terms accept it."""
        terms = dict(H.terms)
        for key, c in H.terms.items():
            mate = key[::-1]
            if key == mate:
                terms[key] = c + 1j * size * abs(c)
            elif key < mate:
                kick = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                terms[mate] = c.conjugate() * (1 + size * kick)
        return NormalFormOperator(H.modes, terms)

    @staticmethod
    def held(terms):
        """{(post, pre): coefficient} of every sandwich the terms hold."""
        return {(post, pre): c for post, pres in terms.sandwiches.items()
                for pre, c in pres.items()}

    @staticmethod
    def random_pairs(rng, modes, words=5):
        """Hermitian-paired words of per-mode degree at most 2 with random
        complex coefficients, and one number-conserving pair and one
        self-adjoint word, so that every kind of pair is present."""
        one = tuple(int(j == 0) for j in range(modes))
        last = tuple(int(j == modes - 1) for j in range(modes))
        terms = dict(random_normal_operator(rng, modes=modes, degree=2,
                                            words=words, dyadic=False).terms)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[(one, one)] = terms.get((one, one), 0) + abs(c)
        pair = (tuple(2 * e for e in one), tuple(a + b for a, b in
                                                  zip(one, last)))
        if pair[0] != pair[1]:
            terms[pair] = terms.get(pair, 0) + c
            terms[pair[::-1]] = terms.get(pair[::-1], 0) + c.conjugate()
        return NormalFormOperator(modes, terms)

    @pytest.mark.parametrize("modes, D", [(1, 8), (2, 4), (2, 5), (3, 3)])
    @pytest.mark.parametrize("perturb", [False, True])
    def test_merged_law_equals_the_unmerged_oracle(self, modes, D, perturb):
        rng = np.random.default_rng(401 + 10 * modes + D + perturb)
        dim = D ** modes
        for _ in range(3):
            H = self.random_pairs(rng, modes)
            if perturb:
                H = self.perturbed(H, rng)
            terms = MasterTerms(H, D)
            g = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            for rho in (g, 0.5 * (g + g.conj().T)):
                got = master_rhs(rho, terms)
                want = sandwich_oracle(H, D, rho)
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.linalg.norm(rho)

    @pytest.mark.parametrize("modes, D", [(1, 8), (2, 4), (3, 3)])
    def test_an_inexact_mate_keeps_its_tiny_term(self, modes, D):
        # moving the mates of coefficients of about 0.01 by 1e-13 relative
        # moves the law by the sandwiches that exact mates cancel, with
        # coefficients below DROP_TOL, where a NormalFormOperator would
        # drop them; the merged law moves as the oracle does
        rng = np.random.default_rng(409 + 10 * modes + D)
        dim = D ** modes
        for _ in range(3):
            H = self.random_pairs(rng, modes).scale(0.01)
            moved = self.perturbed(H, rng)
            g = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            rho = 0.5 * (g + g.conj().T)
            want = sandwich_oracle(moved, D, rho) - sandwich_oracle(H, D, rho)
            got = master_rhs(rho, MasterTerms(moved, D)) \
                - master_rhs(rho, MasterTerms(H, D))
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) <= 1e-2 * np.max(np.abs(want))
            tiny = [abs(c) for c in self.held(MasterTerms(moved, D)).values()
                    if abs(c) <= DROP_TOL]
            assert tiny and min(tiny) > 0

    def test_rotation_invariant_hamiltonian_holds_no_first_sandwich(self):
        # its words conserve each mode's number and are their own mates
        # with real coefficients, so every first sandwich a^R rho adag^L
        # merges to 0; what is left is adag_j a^R rho adag^(L-e_j)
        H = poly_to_normal_form(parse_poly(
            "0.5*(pi1^2+pi2^2+phi1^2+phi2^2) + 0.07*(phi1^2+pi1^2)^2"
            " + 0.03*(phi1^2+pi1^2)*(phi2^2+pi2^2)", {}))
        terms = MasterTerms(H, 6)
        held = self.held(terms)
        assert held and all(sum(pre[0]) == 1 for _, pre in held)
        rng = np.random.default_rng(419)
        g = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
        assert np.max(np.abs(master_rhs(g, terms)
                             - sandwich_oracle(H, 6, g))) \
            <= 1e-12 * np.linalg.norm(g)

    def test_benchmark_quartic_compiles_to_23_pre_words_in_19_passes(self):
        # 32 pre words in 26 passes before the pairs were merged; the nine
        # post-word groups stay
        H = poly_to_normal_form(parse_poly(TestMasterSeries.QUARTIC, {}))
        terms = MasterTerms(H, 16)
        assert len(terms.groups) == 9
        assert len(self.held(terms)) == 23
        assert sum(len(pres.passes) for *_, pres in terms.groups) == 19

    @pytest.mark.parametrize("perturb", [False, True])
    def test_no_held_sandwich_is_the_adjoint_of_another(self, perturb):
        # the adjoint of a^R rho adag^L is a^L rho adag^R; that of
        # adag_j a^R rho adag^(L-e_j) has the post word adag^R a_j, which
        # annihilates, so it is never held
        rng = np.random.default_rng(421 + perturb)
        systems = [poly_to_normal_form(parse_poly(TestMasterSeries.QUARTIC,
                                                  {}))]
        systems += [self.random_pairs(rng, modes) for modes in (1, 2, 3)
                    for _ in range(4)]
        for H in systems:
            if perturb:
                H = self.perturbed(H, rng)
            held = self.held(MasterTerms(H, 4))
            zero = (0,) * H.modes
            for (post, (create, annih)), c in held.items():
                assert c != 0
                if create == zero and annih != post:
                    assert (annih, (zero, post)) not in held


def whole_matrix_rhs(rho, terms):
    """master_rhs as it stood before row blocks: per group the whole dim x
    dim y = rho post, then fock.apply of its pre words to all of y, in a
    fresh sum per half; the reference the row blocks match bit for bit."""
    dim = terms.dim
    hermitian = np.array_equal(rho, rho.conj().T)
    y = np.zeros(dim * dim + dim, dtype=complex)
    cells = y[:dim * dim].reshape(dim, dim)

    def half(matrix):
        out = np.zeros((dim, dim), dtype=complex)
        for shift, pad, pres in terms.groups:
            np.multiply(matrix, pad, out=cells)
            fock.apply(pres, y[shift:shift + dim * dim].reshape(dim, dim),
                       out)
        return out

    out = half(rho)
    twin = out if hermitian else half(rho.conj().T)
    return np.add(out, np.conjugate(twin.T, out=cells), out=out)


def random_graded_hamiltonian(rng, modes, words=5):
    """Hermitian-paired words of total degree 2 to 4, none linear, with
    random complex coefficients."""
    terms = {}
    for _ in range(words):
        letters = np.bincount(rng.integers(0, 2 * modes,
                                           size=rng.integers(2, 5)),
                              minlength=2 * modes)
        key = (tuple(letters[:modes]), tuple(letters[modes:]))
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms[key] = terms.get(key, 0) + coeff
        mate = key[::-1]
        terms[mate] = terms.get(mate, 0) + coeff.conjugate()
    return NormalFormOperator(modes, terms)


class TestRowBlocks:
    # master_rhs fills its output one row block at a time from windows of
    # y, and adds each pass a chunk of BLOCK_BYTES of rows at a time; every
    # cell must receive the products of the whole-matrix kernel in the same
    # order, so the two agree bit for bit, zero signs included.  dim 256 is
    # four blocks of one chunk; dims 200 and 343 end in a partial block, of
    # 38 and 14 rows; at dim 1024 the windows would average more than twice
    # a chunk, so it is one block
    @pytest.mark.parametrize("modes, D, blocks", [
        (1, 8, 1), (2, 3, 1), (2, 16, 4), (1, 200, 3), (3, 7, 8),
        (2, 32, 1)])
    def test_equals_the_whole_matrix_kernel_bit_for_bit(self, modes, D,
                                                        blocks):
        rng = np.random.default_rng(83 + 10 * modes + D)
        H = poly_to_normal_form(random_poly(rng, modes=modes, degree=4,
                                            terms=6) * 0.5)
        terms = MasterTerms(H, D)
        assert len(terms._blocks) == blocks
        dim = terms.dim
        g = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        out = np.empty((dim, dim), dtype=complex)
        # a real symmetric rho equals its adjoint with -0 imaginary parts
        for rho in (g, 0.5 * (g + g.conj().T), (g + g.T).real + 0j):
            want = whole_matrix_rhs(rho, terms).tobytes()
            assert master_rhs(rho, terms).tobytes() == want
            assert master_rhs(rho, terms, out=out) is out
            assert out.tobytes() == want

    def test_a_group_with_no_pre_passes(self):
        # at D=3 the pre word a1^3 of the word adag1 a1^3 has no target, so
        # the group of its post word adag1 compiles to no pass
        one, three = (1, 0), (3, 0)
        H = NormalFormOperator(2, {(one, three): 0.5 + 0.25j,
                                   (three, one): 0.5 - 0.25j,
                                   ((0, 1), (0, 1)): 1.0})
        terms = MasterTerms(H, 3)
        assert [shift for shift, _, pres in terms.groups
                if not pres.passes] == [3]
        rng = np.random.default_rng(89)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        for rho in (g, 0.5 * (g + g.conj().T)):
            assert master_rhs(rho, terms).tobytes() \
                == whole_matrix_rhs(rho, terms).tobytes()

    def test_a_call_into_out_allocates_no_matrix(self):
        # the windows, the scratch and the flat copy of rho live in the
        # terms; with out given, a call on a bitwise Hermitian rho at dim
        # 256 holds at most the Hermitian test's boolean mask and numpy's
        # own scratch, against one dim^2 product per pass before
        H = poly_to_normal_form(parse_poly(TestMasterSeries.QUARTIC, {}))
        terms = MasterTerms(H, 16)
        rho = random_hermitian(np.random.default_rng(19), terms.dim)
        out = np.empty_like(rho)
        master_rhs(rho, terms, out=out)
        tracemalloc.start()
        try:
            master_rhs(rho, terms, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * terms.dim ** 2 // 4

    def test_out_may_not_share_memory_with_rho(self):
        terms = MasterTerms(number_operator(), 8)
        rho = random_hermitian(np.random.default_rng(97), 8)
        with pytest.raises(ValueError, match="shares memory"):
            master_rhs(rho, terms, out=rho)


class TestGrade:
    # the grade of an entry rho_mn, m and n occupation tuples, is
    # g = |m| + |n|.  A sandwich pre rho post writes out[T, U] from
    # rho[T - s, U + shift], s the pre pass's shift and shift the post
    # word's: a word C adag^L a^R of H gives the sandwiches a^R rho adag^L,
    # which lower g by |L| + |R|, and adag_j a^R rho adag^(L - e_j), which
    # lower it by |L| + |R| - 2.  Without a linear word no sandwich raises
    # g, and the words of degree 3 or more lower it strictly: the master
    # law is block-triangular in g, its anharmonic part nilpotent
    @staticmethod
    def worst_grade_change(terms):
        """The largest g_out - g_in over every cell of every sandwich."""
        grade = fock.occupations(terms.modes, terms.cutoff).sum(axis=1)
        worst = -math.inf
        for shift, pad, pres in terms.groups:
            sources = np.flatnonzero(pad)  # rho's columns U + shift
            column = np.max(grade[sources - shift] - grade[sources])
            for s, p in pres.passes:
                targets = np.flatnonzero(p)
                # the sources inside the basis (all of them, unless a word
                # is misplaced)
                targets = targets[(targets >= s) & (targets - s < terms.dim)]
                row = np.max(grade[targets] - grade[targets - s])
                worst = max(worst, row + column)
        return worst

    @pytest.mark.parametrize("modes, D", [(1, 9), (2, 5)])
    def test_sandwiches_keep_or_lower_the_grade(self, modes, D):
        rng = np.random.default_rng(101 + 10 * modes + D)
        for _ in range(6):
            H = random_graded_hamiltonian(rng, modes)
            assert self.worst_grade_change(MasterTerms(H, D)) <= 0
            # the words of degree 3 or more, Hermitian-paired by themselves
            anharmonic = NormalFormOperator(modes, {
                key: c for key, c in H.terms.items()
                if sum(key[0]) + sum(key[1]) >= 3})
            if anharmonic.terms:
                assert self.worst_grade_change(
                    MasterTerms(anharmonic, D)) < 0

    def test_a_misplaced_word_fails(self, monkeypatch):
        # every compiled operator's first pass read one flat index too low
        compiled = evolution.compile_operator

        def misplaced(op, cutoff):
            table = compiled(op, cutoff)
            if not table.passes:
                return table
            (shift, pad), *rest = table.passes
            return table._replace(passes=((shift + 1, pad), *rest))

        monkeypatch.setattr(evolution, "compile_operator", misplaced)
        with pytest.raises(AssertionError):
            self.test_sandwiches_keep_or_lower_the_grade(2, 5)


class TestStepCount:
    # (t, dt) pairs of the tests, the evolve default and the benchmark's
    # evolve configs, with the step counts they have always had
    @pytest.mark.parametrize("t, dt, steps", [
        (1.0, 1e-3, 1000), (0.2, 1e-3, 200), (0.06, 0.01, 6),
        (0.02, 0.01, 2), (10.0, 2e-3, 5000), (2 * math.pi,
                                               2 * math.pi / 4000, 4000),
        (0.03, 0.005, 6), (0.1, 0.005, 20), (0.0, 1e-3, 0)])
    def test_known_pairs_keep_their_count(self, t, dt, steps):
        assert step_count(t, dt) == steps

    def test_one_rule_for_matrices_and_states(self):
        # these pairs used to pass evolve_density and fail integrate_state;
        # both are within 1e-9 * max(1, t) of a multiple of dt
        assert step_count(1000.0000005, 1e-3) == 10 ** 6
        assert step_count(2.0000000001, 1e-3) == 2000
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2", {})
        near = integrate_state(H, state1(1.0, 0.0), 2.0000000001, 1e-3)
        exact = integrate_state(H, state1(1.0, 0.0), 2.0, 1e-3)
        assert np.array_equal(near.point(), exact.point())

    @pytest.mark.parametrize("t, dt", [
        (-1.0, 1e-3), (0.0015, 1e-3), (1.0, 0.0), (1.0, -1e-3),
        (math.nan, 1e-3), (math.inf, 1e-3), (1.0, math.nan),
        (1.0, math.inf)])
    def test_rejected(self, t, dt):
        with pytest.raises(ValueError):
            step_count(t, dt)

    def test_negative_time_is_refused_by_evolve_density(self):
        D = 8
        terms = MasterTerms(number_operator(), D)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_density(pure_density(state1(1.0, 0.0), D), terms, [-1.0])


class TestEvolveDensity:
    def test_liouville_periodicity(self):
        D = 24
        rho0 = pure_density(state1(1.0, 0.0), D)
        out = liouville(rho0, number_operator(), 2 * math.pi)
        assert np.max(np.abs(out.data - rho0.data)) <= 1e-12

    def test_master_tracks_classical_cosine(self):
        D = 24
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        rho0 = pure_density(state1(1.0, 0.0), D)
        [out] = evolve_density(rho0, MasterTerms(poly_to_normal_form(H), D),
                               [1.0])
        phi_obs = expectation(out, parse_poly("phi1", {}))
        assert abs(phi_obs - math.cos(1.0)) <= 1e-6

    def test_master_iterate_is_bitwise_hermitian(self):
        # the elementwise outer product w w^H of this state misses Hermitian
        # symmetry by rounding; evolve_density symmetrizes it once, and
        # phi1*pi2 gives H_n complex words, so every term of the series
        # exercises the fold
        D = 6
        H = poly_to_normal_form(parse_poly(
            "0.5*(phi1^2 + pi1^2 + phi2^2 + pi2^2) + 0.3*phi1*pi2", {}))
        state = ClassicalState(np.array([0.3, -0.7]), np.array([0.5, 0.2]))
        w = pseudo_wavefunction(state, D)
        rho0 = FockMatrix(2, D, np.outer(w, w.conj()))
        assert not np.array_equal(rho0.data, rho0.data.conj().T)
        assert any(np.iscomplex(c) for c in H.terms.values())
        [out] = evolve_density(rho0, MasterTerms(H, D), [0.05])
        assert np.array_equal(out.data, out.data.conj().T)
        assert np.max(np.abs(out.data - rho0.data)) > 1e-3

    def test_trace_drift_small_both_generators(self):
        D = 16
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.05*phi1^3", {})
        Hn = poly_to_normal_form(H)
        rho0 = pure_density(state1(0.6, 0.2), D)
        ensemble = Ensemble.pure(state1(0.6, 0.2))
        for gen in ("liouville", "master"):
            *_, (done, out) = density_samples(gen, ensemble, Hn, D, 2e-3,
                                              5000, 5000)
            assert done == 5000
            assert abs(out.trace() - 1.0) <= 1e-8

    def test_liouville_preserves_spectrum(self):
        D = 16
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^4", {})
        rho0 = pure_density(state1(0.5, -0.3), D)
        before = np.sort(np.linalg.eigvalsh(rho0.data))
        out = liouville(rho0, poly_to_normal_form(H), 1.0)
        after = np.sort(np.linalg.eigvalsh(out.data))
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_generator_flux_agreement_unit_mass(self):
        # zero-discrepancy regime: both generators predict the same flux for
        # low-degree observables
        D = 32
        H = number_operator()
        terms = MasterTerms(H, D)
        rho = pure_density(state1(0.8, -0.5), D).data
        m_rhs = master_rhs(rho, terms)
        l_rhs = commutator_rhs(rho, H, D)
        for text in ("phi1", "pi1", "phi1^2", "phi1*pi1", "phi1^2*pi1"):
            g = realize_matrix(poly_to_normal_form(parse_poly(text, {})), D).data
            assert abs(np.trace(m_rhs @ g) - np.trace(l_rhs @ g)) <= 1e-7


class TestMasterSeries:
    # evolve_density sums one Taylor series in t per span of sample times;
    # its oracle is the dense superoperator of master_rhs, exponentiated by
    # scipy's Pade scaling and squaring, which shares no code with the series
    QUARTIC = ("0.5*(pi1^2+pi2^2+phi1^2+phi2^2) + 0.05*phi1^2*phi2^2"
               " + 0.03*phi1^4")

    @staticmethod
    def exact(rho, terms, t):
        dim = terms.dim
        columns = [master_rhs(e.reshape(dim, dim), terms).ravel()
                   for e in np.eye(dim * dim, dtype=complex)]
        superop = np.stack(columns, axis=1)
        return (scipy.linalg.expm(t * superop) @ rho.data.ravel()).reshape(
            dim, dim)

    @staticmethod
    def random_density(rng, modes, D):
        g = rng.standard_normal((D ** modes,) * 2) \
            + 1j * rng.standard_normal((D ** modes,) * 2)
        rho = g @ g.conj().T
        return FockMatrix(modes, D, rho / np.trace(rho).real)

    @staticmethod
    def spied_spans(monkeypatch):
        # the taus of every span, and the number of master_rhs calls
        spans, calls = [], [0]
        span, rhs = evolution._span, evolution.master_rhs

        def spied_span(rho, terms, taus):
            spans.append(list(taus))
            return span(rho, terms, taus)

        def counted(rho, terms, out=None):
            calls[0] += 1
            return rhs(rho, terms, out)

        monkeypatch.setattr(evolution, "_span", spied_span)
        monkeypatch.setattr(evolution, "master_rhs", counted)
        return spans, calls

    @pytest.mark.parametrize("modes, D", [(1, 6), (2, 4), (2, 3)])
    def test_matches_the_superoperator_exponential(self, modes, D):
        rng = np.random.default_rng(71 + 10 * modes + D)
        times = [0.05, 0.1, 0.2, 0.5]
        for degree in (3, 4):
            H = poly_to_normal_form(random_poly(rng, modes=modes,
                                                degree=degree, terms=5) * 0.5)
            terms = MasterTerms(H, D)
            rho = self.random_density(rng, modes, D)
            for t, got in zip(times, evolve_density(rho, terms, times)):
                want = self.exact(rho, terms, t)
                assert np.max(np.abs(got.data - want)) \
                    <= 1e-12 * np.max(np.abs(want))

    def test_a_loose_stop_fails_the_oracle(self, monkeypatch):
        # the planted fault: each series stopped at 1e-6 of its sum
        monkeypatch.setattr(evolution, "_EPS", 1e-6)
        with pytest.raises(AssertionError):
            self.test_matches_the_superoperator_exponential(1, 6)

    def test_samples_do_not_depend_on_dt(self):
        # one sample grid, 0.01 apart up to 0.06, from three step sizes
        D = 8
        H = poly_to_normal_form(parse_poly(self.QUARTIC, {}))
        state = ClassicalState(np.array([0.6, -0.3]), np.array([0.2, 0.5]))
        ensemble = Ensemble.pure(state)
        runs = [list(density_samples("master", ensemble, H, D, dt, steps,
                                     every))
                for dt, steps, every in ((1e-3, 60, 10), (5e-3, 12, 2),
                                         (1e-2, 6, 1))]
        for samples in runs[1:]:
            assert len(samples) == len(runs[0]) == 7
            for (_, got), (_, want) in zip(samples, runs[0]):
                assert np.max(np.abs(got.data - want.data)) \
                    <= 1e-13 * np.max(np.abs(want.data))

    def test_benchmark_samples_share_one_span(self, monkeypatch):
        # evolve-master's grid at dim 256: three samples, one span of at
        # most 13 calls of master_rhs (fixed-step RK4 at dt 0.005 made 24)
        H = poly_to_normal_form(parse_poly(self.QUARTIC, {}))
        terms = MasterTerms(H, 16)
        assert evolution.span_width(terms.dim) >= 3
        rho = pure_density(ClassicalState(np.array([0.6, -0.3]),
                                          np.array([0.2, 0.5])), 16)
        spans, calls = self.spied_spans(monkeypatch)
        evolve_density(rho, terms, [0.01, 0.02, 0.03])
        assert spans == [[0.01, 0.02, 0.03]]
        assert calls[0] <= 13

    def test_long_sample_takes_sub_steps(self, monkeypatch):
        # the cubic case of test_trace_drift_small_both_generators: a single
        # sample at t = 10 converges in no span that reaches it, so the
        # series sub-steps to midpoints and carries on from there
        D = 16
        H = poly_to_normal_form(parse_poly(
            "0.5*pi1^2 + 0.5*phi1^2 + 0.05*phi1^3", {}))
        terms = MasterTerms(H, D)
        rho = pure_density(state1(0.6, 0.2), D)
        spans, _ = self.spied_spans(monkeypatch)
        [got] = evolve_density(rho, terms, [10.0])
        assert len(spans) > 2 and spans[1] == [5.0]
        assert min(tau for taus in spans for tau in taus) < 1.0
        want = self.exact(rho, terms, 10.0)
        assert np.max(np.abs(got.data - want)) \
            <= 1e-12 * np.max(np.abs(want))

    def test_a_converged_sub_step_is_carried(self, monkeypatch):
        # the sample of test_long_sample_takes_sub_steps: while a converged
        # sub-step was followed by a retry of the whole remaining distance,
        # it took 140 spans, 110 of which converged nothing, and 2317 calls
        # of master_rhs; carried as an inner target beside the sample, the
        # sub-step advances every span after the first that converges
        D = 16
        H = poly_to_normal_form(parse_poly(
            "0.5*pi1^2 + 0.5*phi1^2 + 0.05*phi1^3", {}))
        rho = pure_density(state1(0.6, 0.2), D)
        spans, calls = self.spied_spans(monkeypatch)
        evolve_density(rho, MasterTerms(H, D), [10.0])
        assert spans[:7] == [[10.0], [5.0], [2.5], [1.25], [0.625],
                             [0.3125], [0.3125, 9.6875]]
        assert all(taus[0] == 0.3125 for taus in spans[5:-1])
        assert calls[0] <= 2317 // 2

    def test_sample_at_zero_is_the_symmetrized_input(self):
        D = 6
        rho = self.random_density(np.random.default_rng(73), 1, D)
        [got] = evolve_density(rho, MasterTerms(number_operator(), D), [0.0])
        assert np.array_equal(got.data, 0.5 * (rho.data + rho.data.conj().T))

    @pytest.mark.parametrize("times", [[0.02, 0.01], [math.nan],
                                       [math.inf]])
    def test_times_out_of_order_are_refused(self, times):
        D = 8
        terms = MasterTerms(number_operator(), D)
        with pytest.raises(ValueError, match="ascending nonnegative"):
            evolve_density(pure_density(state1(1.0, 0.0), D), terms, times)

    def test_overflowing_terms_raise(self):
        # finite coefficients whose powers of L leave the float range
        D = 32
        H = poly_to_normal_form(parse_poly("1e8*phi1^4 + pi1^2", {}))
        with pytest.raises(FloatingPointError, match="finite domain"):
            evolve_density(pure_density(state1(1.0, 0.0), D),
                           MasterTerms(H, D), [1.0])

    def test_a_sub_step_that_cannot_advance_raises(self, monkeypatch):
        # no series may take a term, so no span converges and the sub-step
        # halves until it no longer moves t
        monkeypatch.setattr(evolution, "MAX_TERMS", 0)
        D = 8
        with pytest.raises(FloatingPointError, match="underflows"):
            evolve_density(pure_density(state1(1.0, 0.0), D),
                           MasterTerms(number_operator(), D), [1.0])

    def test_a_span_holds_its_documented_buffers(self):
        # W partial sums, the symmetrized start, the two term buffers that
        # master_rhs writes in turn and the scaled term, each dim^2 complex,
        # within a budget of W + 6 of them plus 256 KiB for numpy's own
        # scratch, at 2 modes, D=16 (dim 256) with W sample times, after
        # one warm-up call
        H = poly_to_normal_form(parse_poly(self.QUARTIC, {}))
        terms = MasterTerms(H, 16)
        width = evolution.span_width(terms.dim)
        times = [0.01 * k for k in range(1, width + 1)]
        rho = pure_density(ClassicalState(np.array([0.6, -0.3]),
                                          np.array([0.2, 0.5])), 16)
        evolve_density(rho, terms, times)
        tracemalloc.start()
        try:
            evolve_density(rho, terms, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (width + 6) * 16 * terms.dim ** 2 + 256 * 1024


class TestTimeAverageProject:
    def test_commuting_state_unchanged(self):
        D = 8
        diag = np.diag(np.linspace(0.4, 0.05, D)).astype(complex)
        diag /= np.trace(diag).real
        rho = FockMatrix(1, D, diag)
        out = time_average_project(rho, number_operator(), delta=7.0)
        assert np.max(np.abs(out.data - rho.data)) <= 1e-12

    def test_trace_normalized(self):
        D = 24
        rho = pure_density(state1(1.0, 0.0), D)
        out = time_average_project(rho, number_operator(), delta=50.0)
        assert abs(out.trace() - 1.0) <= 1e-10

    def test_off_diagonal_suppression_at_large_delta(self):
        D = 32
        rho = pure_density(state1(1.0, 0.0), D)
        out = time_average_project(rho, number_operator(), delta=200.0)
        off0 = np.abs(rho.data - np.diag(np.diag(rho.data))).max()
        off = np.abs(out.data - np.diag(np.diag(out.data))).max()
        assert off <= (3.0 / 200.0) * off0

    @staticmethod
    def trapezoid_loop(rho, hamiltonian, delta):
        # the quadrature step by step: sum_k w_k e^{iHt_k} rho e^{-iHt_k}
        dt = min(0.01, delta / 1000)
        steps = max(1, int(round(delta / dt)))
        evals, vecs = np.linalg.eigh(realize_matrix(hamiltonian,
                                                    rho.cutoff).data)
        rho_eig = vecs.conj().T @ rho.data @ vecs
        omega = evals[:, None] - evals[None, :]
        total = np.zeros_like(rho_eig)
        for k in range(steps + 1):
            weight = 0.5 if k in (0, steps) else 1.0
            total += weight * np.exp(1j * omega * (k * dt))
        out = vecs @ (rho_eig * total) @ vecs.conj().T
        return out / np.trace(out).real

    @pytest.mark.parametrize("modes, D, scale, delta", [
        # gaps w = 100 pi k at dt = 0.01, so w dt = pi, 2 pi, 3 pi, ...
        (1, 8, 100 * math.pi, 50.0),
        # degenerate levels (w = 0 between distinct states), w dt = pi, 2 pi
        (2, 5, 100 * math.pi, 20.0),
        (1, 8, 1.0, 25.0),
        (1, 8, 1.0, 7.0),
    ])
    def test_closed_form_equals_the_trapezoid_loop(self, modes, D, scale,
                                                   delta):
        units = [tuple(int(j == m) for j in range(modes)) for m in range(modes)]
        H = NormalFormOperator(modes, {(e, e): scale for e in units})
        rng = np.random.default_rng(31)
        g = rng.standard_normal((D ** modes,) * 2) \
            + 1j * rng.standard_normal((D ** modes,) * 2)
        rho = FockMatrix(modes, D, g @ g.conj().T)
        want = self.trapezoid_loop(rho, H, delta)
        got = time_average_project(rho, H, delta).data
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


class TestProjectionDecay:
    DELTAS = (50.0, 100.0, 200.0)
    COUPLED_KERR = ("0.5*(pi1^2+phi1^2) + c1*(phi1^2+pi1^2)^2"
                    " + 0.5*(pi2^2+phi2^2) + c2*(phi2^2+pi2^2)^2"
                    " + 0.02*phi1*phi2")

    @staticmethod
    def eigenbasis_offdiagonal(rho, hamiltonian, delta):
        # max |rho_ij| |sum_k w_k e^{i w_ij t_k}| dt / delta over distinct
        # levels i, j of H_n, with rho read in the eigenbasis of H_n
        dt = min(0.01, delta / 1000)
        steps = max(1, int(round(delta / dt)))
        evals, vecs = np.linalg.eigh(realize_matrix(hamiltonian,
                                                    rho.cutoff).data)
        rho_eig = vecs.conj().T @ rho.data @ vecs
        omega = evals[:, None] - evals[None, :]
        gap = np.abs(omega) > 1e-9
        h = omega[gap] * (dt / 2)
        phases = np.abs(np.sin(steps * h) / np.tan(h))
        return (np.max(np.abs(rho_eig[gap]) * phases) * dt / delta
                / np.trace(rho.data).real)

    @pytest.mark.parametrize("text, bindings, D, offs", [
        # degenerate shells: the number basis mixes levels inside a shell
        ("0.5*(phi1^2+pi1^2+phi2^2+pi2^2)", {}, 6,
         (1.8397e-3, 1.8235e-3, 1.7597e-3)),
        # coupled Kerr modes: H_n is not diagonal in the number basis
        (COUPLED_KERR, {"c1": 0.05, "c2": 0.03},
         24, (0.09590, 0.08416, 0.04547)),
    ], ids=["degenerate-oscillator", "coupled-kerr"])
    def test_offdiagonal_is_read_in_the_eigenbasis(self, text, bindings, D,
                                                   offs):
        h_n = poly_to_normal_form(parse_poly(text, bindings))
        state = ClassicalState(np.array([0.8, 0.5]), np.array([0.1, -0.3]))
        rho = pure_density(state, D)
        [block] = Ensemble.pure(state).member_blocks(D)
        rows, band = projection_decay(block, h_n, self.DELTAS)
        for (delta, off, estimate, trace_error), want in zip(rows, offs):
            oracle = self.eigenbasis_offdiagonal(rho, h_n, delta)
            assert off == pytest.approx(oracle, rel=1e-8)
            assert off == pytest.approx(want, rel=1e-3)
            assert estimate == off * delta
            assert trace_error <= 1e-10
        assert band <= 4.0

    def test_a_wide_mixed_block_is_read_in_the_eigenbasis(self):
        # 16 members of a two-mode phase circle, one member block, under
        # the coupled Kerr H_n, which is not diagonal in the number basis
        D = 8
        h_n = poly_to_normal_form(parse_poly(
            self.COUPLED_KERR, {"c1": 0.05, "c2": 0.03}))
        ensemble = Ensemble.phase_circle(1.0, 16, modes=2)
        [block] = ensemble.member_blocks(D)
        assert block.vectors.shape == (D * D, 16)
        rho = ensemble_density(ensemble, D)
        rows, _ = projection_decay(block, h_n, self.DELTAS)
        for delta, off, estimate, trace_error in rows:
            oracle = self.eigenbasis_offdiagonal(rho, h_n, delta)
            assert off == pytest.approx(oracle, rel=1e-8)
            assert estimate == off * delta
            assert trace_error <= 1e-10


class TestSectors:
    # H_n splits the Fock basis into the connected components of its words'
    # moves; fock.eigensystem diagonalizes each sector on its own, one
    # batched eigh per sector size.  Every case below has sectors of one size.
    OSCILLATORS = "0.5*(pi1^2+phi1^2+pi2^2+phi2^2)"
    KERR = "0.5*(pi1^2+phi1^2) + 0.05*(phi1^2+pi1^2)^2"
    # diagonal in the number basis: every basis state is its own sector
    ROTATION_INVARIANT = (OSCILLATORS + " + 0.02*(phi1^2+pi1^2)^2"
                          " + 0.01*(phi1^2+pi1^2)*(phi2^2+pi2^2)")
    CASES = [
        (KERR, 32, 32),
        # the benchmark quartic: every word moves each mode by an even step
        (OSCILLATORS + " + 0.05*phi1^2*phi2^2 + 0.03*phi1^4", 24, 4),
        # the parity of n1 + n2
        (OSCILLATORS + " + 0.02*phi1*phi2", 12, 2),
        # odd powers of pi: a complex H_n, connected by its words
        (OSCILLATORS + " + 0.02*phi1^3 + 0.1*phi1*pi1*phi2", 12, 1),
    ]

    @staticmethod
    def spied_eigensystem(monkeypatch, hamiltonian, cutoff):
        # the matrix shapes every eigh call sees, and V assembled from the
        # sector groups
        shapes = []
        eigh = np.linalg.eigh

        def spy(matrix):
            shapes.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        evals, groups = eigensystem(hamiltonian, cutoff)
        monkeypatch.undo()
        vecs = np.zeros((evals.size,) * 2, groups[0][1].dtype)
        for rows, vectors in groups:
            vecs[rows[:, :, None], rows[:, None, :]] = vectors
        return evals, vecs, shapes

    @pytest.mark.parametrize("text, D, sectors", CASES,
                             ids=["kerr", "quartic", "coupled", "complex"])
    def test_blocks_rebuild_h_n(self, monkeypatch, text, D, sectors):
        H = poly_to_normal_form(parse_poly(text, {}))
        hmat = realize_matrix(H, D).data
        dim = hmat.shape[0]
        evals, vecs, shapes = self.spied_eigensystem(monkeypatch, H, D)
        assert sum(math.prod(shape[:-2]) for shape in shapes) == sectors
        assert {shape[-1] for shape in shapes} == {dim // sectors}
        norm = np.max(np.abs(evals))
        rebuilt = (vecs * evals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - hmat)) <= 1e-12 * norm
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) <= 1e-13

    @staticmethod
    def dense_gather(hamiltonian, cutoff):
        """The eigensystem read off the dense H_n: each sector's block
        gathered from realize_matrix, one batched eigh per sector width."""
        hmat = realize_matrix(hamiltonian, cutoff).data
        matrix = hmat if hmat.imag.any() else hmat.real
        label = fock._sector_labels(compile_operator(hamiltonian, cutoff))
        size = np.bincount(label)[label]
        order, counts = np.lexsort((label, size)), np.bincount(size)
        values, groups, start = np.empty(label.size), [], 0
        for width in counts.nonzero()[0]:
            rows = order[start:start + counts[width]].reshape(-1, width)
            values[rows], vectors = np.linalg.eigh(
                matrix[rows[:, :, None], rows[:, None, :]])
            groups.append((rows, vectors))
            start += rows.size
        return values, groups

    @pytest.mark.parametrize("op, D", [
        *((poly_to_normal_form(parse_poly(text, {})), D)
          for text, D, _ in CASES),
        (S_GENERATOR, 64), (m_generator(1), 32), (m_generator(2), 6)],
        ids=["kerr", "quartic", "coupled", "complex", "s-generator",
             "m-generator", "m-generator-2"])
    def test_blocks_summed_from_the_words_equal_the_dense_gather(
            self, monkeypatch, op, D):
        # the blocks hold the sums the dense matrix held, added in the same
        # order, so every value and vector agrees bit for bit; and the
        # dense matrix is never realized
        want_values, want_groups = self.dense_gather(op, D)

        def realized(*args):
            raise AssertionError("eigensystem realized the dense matrix")

        monkeypatch.setattr(fock, "realize_matrix", realized)
        values, groups = eigensystem(op, D)
        assert np.array_equal(values, want_values)
        assert len(groups) == len(want_groups)
        for (rows, vectors), (want_rows, want_vectors) in zip(groups,
                                                              want_groups):
            assert np.array_equal(rows, want_rows)
            assert vectors.dtype == want_vectors.dtype
            assert np.array_equal(vectors, want_vectors)

    def test_real_path_is_decided_on_the_summed_blocks(self):
        # pi is imaginary on the number basis, so pi^2 reaches H_n as
        # complex coefficients with no imaginary part, and compiles to real
        # pads; i (adag^8 - a^8) has imaginary words that compile to nothing
        # at D = 8 and to imaginary pads at D = 9
        H = poly_to_normal_form(parse_poly(self.KERR, {}))
        assert all(np.iscomplexobj(c) for c in H.terms.values())

        def pads(op, D):
            return [pad for _, pad in compile_operator(op, D).passes]
        assert all(np.isrealobj(pad) for pad in pads(H, 16))
        assert all(np.isrealobj(v) for _, v in eigensystem(H, 16).groups)
        long = H + NormalFormOperator(1, {((8,), (0,)): 1j,
                                          ((0,), (8,)): -1j})
        assert all(np.isrealobj(pad) for pad in pads(long, 8))
        assert all(np.iscomplexobj(pad) for pad in pads(long, 9))
        assert all(np.isrealobj(v) for _, v in eigensystem(long, 8).groups)
        assert all(np.iscomplexobj(v) for _, v in eigensystem(long, 9).groups)

    def test_words_that_sum_past_the_float_range_overflow(self):
        # each word is finite at D = 2, their sum at occupation 1 is not: it
        # overflows in the pad of their shared shift 0
        H = NormalFormOperator(1, {((0,), (0,)): 1e308, ((1,), (1,)): 1e308})
        [(shift, pad)] = compile_operator(H, 2).passes
        assert shift == 0
        assert np.isfinite(pad[0]) and np.isinf(pad[1])
        with pytest.raises(FloatingPointError, match="overflows at cutoff 2"):
            eigensystem(H, 2)

    @pytest.mark.parametrize("text, D, bound", [
        (CASES[1][0], 24, 16 * 576 ** 2), (ROTATION_INVARIANT, 64, 16e6)],
        ids=["quartic", "rotation-invariant"])
    def test_peak_memory_stays_below_the_dense_matrix(self, text, D, bound):
        # the dense H_n alone takes 16 dim^2 bytes: 5.3 MB at dim 576 and
        # 268 MB at dim 4096
        H = poly_to_normal_form(parse_poly(text, {}))
        tracemalloc.start()
        try:
            eigensystem(H, D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_sector_count_is_logged(self, caplog):
        text, D, _ = self.CASES[1]
        H = poly_to_normal_form(parse_poly(text, {}))
        with caplog.at_level("DEBUG", logger="fockdm.fock"):
            eigensystem(H, D)
        assert "eigensystem: sectors=4 largest=144" in caplog.text

    def test_levels_degenerate_across_sectors(self, monkeypatch):
        # two identical uncoupled Kerr modes: every basis state is its own
        # sector, and (n1, n2), (n2, n1) share one level
        D = 12
        H = poly_to_normal_form(parse_poly(
            self.KERR + " + 0.5*(pi2^2+phi2^2) + 0.05*(phi2^2+pi2^2)^2", {}))
        evals, _, shapes = self.spied_eigensystem(monkeypatch, H, D)
        assert shapes == [(D * D, 1, 1)]
        assert np.min(np.diff(np.sort(evals))) <= 1e-12 * np.max(evals)
        state = ClassicalState(np.array([0.8, 0.5]), np.array([0.1, -0.3]))
        rho = pure_density(state, D)
        weights, vectors = np.linalg.eigh(rho.data)
        times = (0.0, 0.37, 2.9)
        for t, got in zip(times, liouville_flow(vectors, weights, H, D,
                                                times)):
            want = dense_liouville(rho, H, t)
            assert np.max(np.abs(got.dense().data - want)) <= 1e-12
        [block] = Ensemble.pure(state).member_blocks(D)
        rows, _ = projection_decay(block, H, TestProjectionDecay.DELTAS)
        for delta, off, _, _ in rows:
            oracle = TestProjectionDecay.eigenbasis_offdiagonal(rho, H, delta)
            assert off == pytest.approx(oracle, rel=1e-8)
