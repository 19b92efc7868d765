import math

import numpy as np
import pytest

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
    density_generator,
    evolve_density,
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
from fockdm.poly import parse_poly, random_poly
from fockdm.states import ClassicalState, expectation, pure_density

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


def liouville(rho, hamiltonian, cutoff):
    return density_generator("liouville", hamiltonian, cutoff)(rho)


def random_low_degree_hamiltonian(rng, scale=0.5):
    # real phipi polynomial of total degree <= 3 with bounded coefficients
    while True:
        p = random_poly(rng, modes=1, degree=3, terms=5)
        if not p.is_zero():
            return p * scale


class TestLiouville:
    def test_commuting_state_is_stationary(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        rhs = liouville(rho, number_operator(), 3)
        assert np.max(np.abs(rhs)) <= 1e-14

    def test_traceless(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = random_hermitian(rng, 16)
            rhs = liouville(rho, number_operator(), 16)
            assert abs(np.trace(rhs)) <= 1e-12

    def test_matches_rotating_coherent_state(self):
        # H = adag a rotates z(t) = e^{-it} z; finite-difference the exact
        # rotated state and compare with the generator
        D = 32
        dt = 1e-4
        s0 = state1(1.0, 0.0)
        z0 = s0.z[0]

        def rho_at(t):
            z = np.exp(-1j * t) * z0
            phi = SQRT2 * z.real
            pi = SQRT2 * z.imag
            return pure_density(state1(phi, pi), D).data

        fd = (rho_at(dt) - rho_at(-dt)) / (2 * dt)
        rhs = liouville(pure_density(s0, D).data, number_operator(), D)
        assert np.max(np.abs(fd - rhs)) <= 1e-6


class TestMasterEquation:
    def test_requires_hermitian_pairing(self):
        lopsided = NormalFormOperator.annihilation().power(2)
        with pytest.raises(PairingError):
            MasterTerms(lopsided)

    def test_trace_conserved_for_arbitrary_matrices(self):
        rng = np.random.default_rng(3)
        D = 24
        for _ in range(12):
            H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
            terms = MasterTerms(H)
            rho = random_hermitian(rng, D)  # not physically realizable
            assert abs(np.trace(master_rhs(rho, terms, D))) <= 1e-10

    def test_trace_conserved_even_for_non_hermitian_input(self):
        rng = np.random.default_rng(5)
        D = 16
        H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
        terms = MasterTerms(H)
        rho = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        assert abs(np.trace(master_rhs(rho, terms, D))) <= 1e-10

    def test_equals_liouville_for_unit_mass_oscillator(self):
        D = 32
        H = number_operator()
        terms = MasterTerms(H)
        rho = pure_density(state1(1.0, 0.0), D).data
        lhs = master_rhs(rho, terms, D)
        rhs = liouville(rho, H, D)
        diff = np.abs(interior_block(lhs - rhs, 1, D, 4))
        assert diff.max() <= 1e-8

    @pytest.mark.parametrize("modes, D", [(1, 8), (1, 16), (2, 8), (2, 16)])
    def test_equals_the_dense_sandwich_oracle(self, modes, D):
        # per-mode degree 2 keeps the sandwich weights small enough that
        # the two routes differ by rounding only, at most 6.4e-14 ||rho||
        rng = np.random.default_rng(37 + 10 * modes + D)
        for _ in range(3):
            H = random_normal_operator(rng, modes=modes, degree=2, words=4)
            terms = MasterTerms(H)
            dim = D ** modes
            g = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            for rho in (g, 0.5 * (g + g.conj().T)):
                want = np.zeros((dim, dim), dtype=complex)
                for coeff, pc, pa, qc, qa in terms.sandwich_terms:
                    pre = NormalFormOperator(modes, {(pc, pa): 1.0})
                    post = NormalFormOperator(modes, {(qc, qa): 1.0})
                    want += (coeff * realize_matrix(pre, D).data) @ rho \
                        @ realize_matrix(post, D).data
                got = master_rhs(rho, terms, D)
                assert np.max(np.abs(got - want)) \
                    <= 1e-12 * np.linalg.norm(rho)

    def test_dimension_cap(self):
        terms = MasterTerms(poly_to_normal_form(
            parse_poly("phi1^2 + phi2^2 + phi3^2", {})))
        with pytest.raises(DimensionCapError):
            master_rhs(np.zeros((17 ** 3, 1)), terms, 17)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        D = 12
        H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
        terms = MasterTerms(H)
        r1 = random_hermitian(rng, D)
        r2 = random_hermitian(rng, D)
        a, b = 0.7, -1.3
        lhs = master_rhs(a * r1 + b * r2, terms, D)
        rhs = a * master_rhs(r1, terms, D) + b * master_rhs(r2, terms, D)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

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
            terms = MasterTerms(H)
            rho = random_hermitian(rng, D)
            rho_prime = np.zeros((D, D), dtype=complex)
            a = realize_matrix(A, D).data
            for (create, annih), coeff in H.words.items():
                # [adag, a^R] and [a, adag^L], taken symbolically
                word_r = NormalFormOperator(1, {((0,), annih): 1.0})
                word_l = NormalFormOperator(1, {(create, (0,)): 1.0})
                lmat = realize_matrix(commutator(AD, word_r), D).data
                rmat = realize_matrix(commutator(A, word_l), D).data
                rho_prime += 1j * coeff * (
                    a @ lmat @ rho @ realize_matrix(word_l, D).data
                    - a.conj().T @ realize_matrix(word_r, D).data @ rho @ rmat)
            folded = rho_prime + rho_prime.conj().T
            unfolded = master_rhs(rho, terms, D)
            # interior restriction: matrix products of realized factors leak
            # at the truncation edge while the single-word route does not
            margin = H.max_mode_degree() + 1
            diff = np.abs(interior_block(folded - unfolded, 1, D, margin))
            assert diff.max() <= 1e-10

    def test_energy_flux_is_finite_and_reported(self):
        # Tr(master_rhs(rho) H_n) need not vanish for arbitrary matrices;
        # the number is reported by the harness, never asserted to be zero
        rng = np.random.default_rng(11)
        D = 16
        H = poly_to_normal_form(random_low_degree_hamiltonian(rng))
        terms = MasterTerms(H)
        rho = random_hermitian(rng, D)
        flux = np.trace(master_rhs(rho, terms, D) @ realize_matrix(H, D).data)
        assert np.isfinite(flux.real) and np.isfinite(flux.imag)


class TestEvolveDensity:
    def test_liouville_periodicity(self):
        D = 24
        dt = 2 * math.pi / 4000
        rho0 = pure_density(state1(1.0, 0.0), D)
        out = evolve_density(
            rho0, density_generator("liouville", number_operator(), D),
            2 * math.pi, dt)
        assert np.max(np.abs(out.data - rho0.data)) <= 1e-6

    def test_master_tracks_classical_cosine(self):
        D = 24
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        rho0 = pure_density(state1(1.0, 0.0), D)
        rhs = density_generator("master", poly_to_normal_form(H), D)
        out = evolve_density(rho0, rhs, 1.0, 1e-3)
        phi_obs = expectation(out, parse_poly("phi1", {}))
        assert abs(phi_obs - math.cos(1.0)) <= 1e-6

    def test_trace_drift_small_both_generators(self):
        D = 16
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.05*phi1^3", {})
        Hn = poly_to_normal_form(H)
        rho0 = pure_density(state1(0.6, 0.2), D)
        for gen in ("liouville", "master"):
            out = evolve_density(rho0, density_generator(gen, Hn, D), 10.0,
                                 2e-3)
            assert abs(out.trace() - 1.0) <= 1e-8

    def test_liouville_preserves_spectrum(self):
        D = 16
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^4", {})
        rho0 = pure_density(state1(0.5, -0.3), D)
        before = np.sort(np.linalg.eigvalsh(rho0.data))
        rhs = density_generator("liouville", poly_to_normal_form(H), D)
        out = evolve_density(rho0, rhs, 1.0, 1e-3)
        after = np.sort(np.linalg.eigvalsh(out.data))
        assert np.max(np.abs(before - after)) <= 1e-6

    def test_generator_flux_agreement_unit_mass(self):
        # zero-discrepancy regime: both generators predict the same flux for
        # low-degree observables
        D = 32
        H = number_operator()
        terms = MasterTerms(H)
        rho = pure_density(state1(0.8, -0.5), D).data
        m_rhs = master_rhs(rho, terms, D)
        l_rhs = liouville(rho, H, D)
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
