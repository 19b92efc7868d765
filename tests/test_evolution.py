import math
import tracemalloc

import numpy as np
import pytest

from fockdm import evolution
from fockdm.acceptance import master_vs_classical_flow
from fockdm.algebra import (
    NormalFormOperator,
    commutator,
    poly_to_normal_form,
    random_normal_operator,
)
from fockdm.evolution import (
    MasterTerms,
    PairingError,
    density_samples,
    evolve_density,
    liouville_flow,
    master_rhs,
    projection_decay,
    time_average_project,
)
from fockdm.fock import (
    DimensionCapError,
    FockMatrix,
    interior_block,
    realize_matrix,
)
from fockdm.poly import PolyExpr, parse_poly, random_poly
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

SQRT2 = math.sqrt(2.0)
A = NormalFormOperator.annihilation()
AD = NormalFormOperator.creation()


def state1(phi, pi):
    return ClassicalState(np.array([phi]), np.array([pi]))


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
    at = liouville_flow(vectors, weights, hamiltonian, rho.cutoff)
    return at(t).dense()


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
    def random_hamiltonian(rng, modes, real):
        # pi is imaginary on the number basis, so H_n is real exactly when
        # every term has an even total power of pi
        p = random_poly(rng, modes=modes, degree=3, terms=6) * 0.2
        if real:
            return PolyExpr("phipi", modes, {
                e: c for e, c in p.terms.items() if sum(e[modes:]) % 2 == 0})
        return p + parse_poly("0.1*phi1*pi1", {}, modes=modes)

    @pytest.mark.parametrize("modes, D", [(1, 12), (2, 5)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_equals_dense_reference(self, modes, D, real):
        rng = np.random.default_rng(53 + modes + 10 * real)
        dim = D ** modes
        for _ in range(3):
            H = poly_to_normal_form(self.random_hamiltonian(rng, modes, real))
            assert np.iscomplexobj(evolution._eigensystem(H, D)[1]) != real
            for r in (1, 3, dim):
                vectors = rng.standard_normal((dim, r)) \
                    + 1j * rng.standard_normal((dim, r))
                vectors /= np.linalg.norm(vectors, axis=0)
                weights = rng.uniform(-1, 1, r)
                rho = FockMatrix(modes, D,
                                 (vectors * weights) @ vectors.conj().T)
                at = liouville_flow(vectors, weights, H, D)
                for t in (0.0, 0.37, 2.9):
                    want = dense_liouville(rho, H, t)
                    assert np.max(np.abs(at(t).dense().data - want)) \
                        <= 1e-12

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

        def recorded(vectors, weights, hamiltonian, cutoff):
            widths.append(vectors.shape)
            return flow(vectors, weights, hamiltonian, cutoff)

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
            evolution._eigensystem(H, 32)

    def test_non_hermitian_hamiltonian_is_refused(self):
        with pytest.raises(ValueError, match="Hermitian"):
            evolution._eigensystem(AD ** 2, 8)

    def test_unpaired_hamiltonian_is_refused_on_its_words(self, monkeypatch):
        # the Liouville law and the projection refuse what MasterTerms
        # refuses, decided on the words: no dense Hermiticity test runs
        def dense(self):
            raise AssertionError("ran a dense Hermiticity test")

        monkeypatch.setattr(FockMatrix, "hermiticity_defect", dense)
        lopsided = number_operator() + AD ** 2
        rho = pure_density(state1(0.5, 0.2), 8)
        with pytest.raises(PairingError):
            liouville_flow(np.eye(8, 1), np.ones(1), lopsided, 8)
        with pytest.raises(PairingError):
            projection_decay(rho, lopsided, (50.0, 100.0))


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

    @pytest.mark.parametrize("modes, D", [(1, 8), (1, 16), (2, 8), (2, 16)])
    def test_equals_the_dense_sandwich_oracle(self, modes, D):
        # F(rho) = rho' assembled from realized words, per word C adag^L a^R
        # -iC (|R| a^R rho adag^L + sum_j L_j adag_j a^R rho adag^(L-e_j)),
        # and master_rhs against F(rho) + F(rho^H)^H; per-mode degree 2 keeps
        # the weights small enough that the two routes differ by rounding
        rng = np.random.default_rng(37 + 10 * modes + D)
        zero = (0,) * modes

        def word(create, annih):
            op = {(tuple(create), tuple(annih)): 1.0}
            return realize_matrix(NormalFormOperator(modes, op), D).data

        for _ in range(3):
            H = random_normal_operator(rng, modes=modes, degree=2, words=4)
            terms = MasterTerms(H, D)
            dim = D ** modes

            def half(rho):
                out = np.zeros((dim, dim), dtype=complex)
                for (create, annih), coeff in H.terms.items():
                    out += -1j * coeff * sum(annih) * (
                        word(zero, annih) @ rho @ word(create, zero))
                    for j in range(modes):
                        if create[j]:
                            ej = [int(k == j) for k in range(modes)]
                            drop = [c - e for c, e in zip(create, ej)]
                            out += -1j * coeff * create[j] * (
                                word(ej, annih) @ rho @ word(drop, zero))
                return out

            g = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            for rho in (g, 0.5 * (g + g.conj().T)):
                want = half(rho) + half(rho.conj().T).conj().T
                got = master_rhs(rho, terms)
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.linalg.norm(rho)

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
            evolve_density(pure_density(state1(1.0, 0.0), D), terms, -1.0,
                           1e-3)


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
        out = evolve_density(rho0, MasterTerms(poly_to_normal_form(H), D),
                             1.0, 1e-3)
        phi_obs = expectation(out, parse_poly("phi1", {}))
        assert abs(phi_obs - math.cos(1.0)) <= 1e-6

    def test_master_iterate_is_bitwise_hermitian(self):
        # the elementwise outer product w w^H of this state misses Hermitian
        # symmetry by rounding; evolve_density symmetrizes it once, and
        # phi1*pi2 gives H_n complex words, so every stage of the step
        # exercises the fold
        D = 6
        H = poly_to_normal_form(parse_poly(
            "0.5*(phi1^2 + pi1^2 + phi2^2 + pi2^2) + 0.3*phi1*pi2", {}))
        state = ClassicalState(np.array([0.3, -0.7]), np.array([0.5, 0.2]))
        w = pseudo_wavefunction(state, D)
        rho0 = FockMatrix(2, D, np.outer(w, w.conj()))
        assert not np.array_equal(rho0.data, rho0.data.conj().T)
        assert any(np.iscomplex(c) for c in H.terms.values())
        out = evolve_density(rho0, MasterTerms(H, D), 0.05, 0.01)
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
        ("0.5*(pi1^2+phi1^2) + c1*(phi1^2+pi1^2)^2 + 0.5*(pi2^2+phi2^2)"
         " + c2*(phi2^2+pi2^2)^2 + 0.02*phi1*phi2", {"c1": 0.05, "c2": 0.03},
         24, (0.09590, 0.08416, 0.04547)),
    ], ids=["degenerate-oscillator", "coupled-kerr"])
    def test_offdiagonal_is_read_in_the_eigenbasis(self, text, bindings, D,
                                                   offs):
        h_n = poly_to_normal_form(parse_poly(text, bindings))
        state = ClassicalState(np.array([0.8, 0.5]), np.array([0.1, -0.3]))
        rho = pure_density(state, D)
        rows, band = projection_decay(rho, h_n, self.DELTAS)
        for (delta, off, estimate, trace_error), want in zip(rows, offs):
            oracle = self.eigenbasis_offdiagonal(rho, h_n, delta)
            assert off == pytest.approx(oracle, rel=1e-8)
            assert off == pytest.approx(want, rel=1e-3)
            assert estimate == off * delta
            assert trace_error <= 1e-10
        assert band <= 4.0
