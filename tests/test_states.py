import math

import numpy as np
import pytest

from fockdm.algebra import NormalFormOperator, commutator, poly_to_normal_form
from fockdm.fock import DimensionCapError, FockMatrix, realize_matrix
from fockdm import states
from fockdm.poly import PolyExpr, parse_poly, random_poly
from fockdm.states import (
    AmplitudeOverflowError,
    ClassicalState,
    Ensemble,
    ensemble_density,
    expectation,
    extended_wavefunction,
    integrate_state,
    poisson_brackets,
    pseudo_wavefunction,
    pure_density,
)

SQRT2 = math.sqrt(2.0)


def state1(phi, pi):
    return ClassicalState(np.array([phi]), np.array([pi]))


def hamilton_rhs(hamiltonian, state):
    """(phidot, pidot) = (dH/dpi, -dH/dphi) at a one-mode state."""
    point = state.point()
    return (np.array([hamiltonian.differentiate("pi1").eval(point).real]),
            np.array([-hamiltonian.differentiate("phi1").eval(point).real]))


def assert_physically_realizable(rho):
    """Hermitian, unit trace and positive semidefinite, to rounding."""
    assert np.max(np.abs(rho.data - rho.data.conj().T)) <= 1e-12
    assert abs(rho.trace() - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho.data).min() >= -1e-10


def random_states(rng, count, modes=1, scale=1.0):
    for _ in range(count):
        phi = rng.uniform(-scale, scale, modes)
        pi = rng.uniform(-scale, scale, modes)
        yield ClassicalState(phi, pi)


class TestPseudoWavefunction:
    def test_origin_is_vacuum(self):
        w = pseudo_wavefunction(state1(0.0, 0.0), 8)
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(w, want)

    def test_coherent_eigenrelation(self):
        rng = np.random.default_rng(1)
        D = 32
        a = realize_matrix(NormalFormOperator.annihilation(0, 1), D).data
        for s in random_states(rng, 20, scale=1.0):
            w = pseudo_wavefunction(s, D)
            residual = np.linalg.norm(a @ w - s.z[0] * w)
            assert residual <= 1e-8

    def test_normalization(self):
        rng = np.random.default_rng(2)
        for s in random_states(rng, 20, scale=1.0):
            w = pseudo_wavefunction(s, 32)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-10

    def test_two_mode_eigenrelations(self):
        rng = np.random.default_rng(3)
        D = 16
        a1 = realize_matrix(NormalFormOperator.annihilation(0, 2), D).data
        a2 = realize_matrix(NormalFormOperator.annihilation(1, 2), D).data
        for s in random_states(rng, 5, modes=2, scale=0.8):
            w = pseudo_wavefunction(s, D)
            assert np.linalg.norm(a1 @ w - s.z[0] * w) <= 1e-7
            assert np.linalg.norm(a2 @ w - s.z[1] * w) <= 1e-7

    def test_amplitude_guard_names_mode(self):
        s = ClassicalState(np.array([0.1, 6.0]), np.array([0.0, 0.0]))
        with pytest.raises(AmplitudeOverflowError, match="mode 2"):
            pseudo_wavefunction(s, 16)

    def test_dimension_cap(self):
        state = ClassicalState(np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionCapError):
            pseudo_wavefunction(state, 17)


class TestPureDensity:
    def test_unit_trace(self):
        rho = pure_density(state1(0.7, -0.4), 32)
        assert abs(rho.trace() - 1.0) <= 1e-10
        assert_physically_realizable(rho)

    def test_left_and_right_eigenrelations(self):
        rng = np.random.default_rng(5)
        D = 32
        a = realize_matrix(NormalFormOperator.annihilation(0, 1), D).data
        for s in random_states(rng, 10, scale=1.0):
            rho = pure_density(s, D).data
            assert np.linalg.norm(a @ rho - s.z[0] * rho, 2) <= 1e-8
            assert np.linalg.norm(rho @ a.conj().T - np.conj(s.z[0]) * rho,
                                  2) <= 1e-8

    def test_sandwich_identity(self):
        # g(phi,pi) rho = sum_a C_a g_aR(a) rho g_aL(adag) for g = z^2 y
        rng = np.random.default_rng(7)
        D = 32
        a = realize_matrix(NormalFormOperator.annihilation(0, 1), D).data
        ad = a.conj().T
        for s in random_states(rng, 10, scale=1.0):
            rho = pure_density(s, D).data
            z, y = s.z[0], np.conj(s.z[0])
            lhs = (z ** 2 * y) * rho
            rhs = a @ a @ rho @ ad
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8

    def test_sandwich_identity_random_monomials(self):
        rng = np.random.default_rng(9)
        D = 32
        a = realize_matrix(NormalFormOperator.annihilation(0, 1), D).data
        ad = a.conj().T
        for _ in range(50):
            n = int(rng.integers(0, 4))
            m = int(rng.integers(0, 4))
            s = next(iter(random_states(rng, 1, scale=0.9)))
            rho = pure_density(s, D).data
            z, y = s.z[0], np.conj(s.z[0])
            lhs = (z ** n * y ** m) * rho
            rhs = np.linalg.matrix_power(a, n) @ rho @ np.linalg.matrix_power(ad, m)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-8


class TestEnsembleDensity:
    def test_single_member_equals_pure(self):
        s = state1(0.5, 0.2)
        e = Ensemble.pure(s)
        assert np.allclose(ensemble_density(e, 16).data,
                           pure_density(s, 16).data)

    def test_symmetric_mixture_flags(self):
        e = Ensemble.from_states([state1(1.0, 0.0), state1(-1.0, 0.0)])
        assert_physically_realizable(ensemble_density(e, 32))

    def test_phase_circle_is_poissonian(self):
        r = 1.0
        e = Ensemble.phase_circle(r, 64)
        rho = ensemble_density(e, 32).data
        mean = r ** 2 / 2
        diag = np.exp(-mean) * np.array(
            [mean ** k / math.factorial(k) for k in range(32)])
        assert np.max(np.abs(np.diag(rho).real - diag)) <= 1e-8
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) <= 1e-6

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((state1(0, 0), 0.4), (state1(1, 0), 0.4)))

    @pytest.mark.parametrize("w", [-0.5, 0.0, math.nan])
    def test_weights_must_be_positive(self, w):
        with pytest.raises(ValueError, match="positive"):
            Ensemble(((state1(0, 0), w), (state1(1, 0), 1.0)))

    def test_many_equal_weights_sum_to_one(self):
        # 1/N added N times drifts by ~1e-12 at this N; fsum does not
        ens = Ensemble.from_states([state1(0.3, 0.1)] * 39810)
        assert len(ens.members) == 39810

    def test_affine_in_weights_and_psd_under_mixing(self):
        s1, s2, s3 = state1(0.7, 0.1), state1(-0.4, 0.6), state1(0.0, -0.9)
        a = Ensemble(((s1, 0.5), (s2, 0.5)))
        b = Ensemble(((s2, 0.25), (s3, 0.75)))
        mixed = Ensemble(((s1, 0.3 * 0.5), (s2, 0.3 * 0.5 + 0.7 * 0.25),
                          (s3, 0.7 * 0.75)))
        lhs = ensemble_density(mixed, 24).data
        rhs = 0.3 * ensemble_density(a, 24).data + 0.7 * ensemble_density(b, 24).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.linalg.eigvalsh(lhs).min() >= -1e-10

    def test_wide_ensemble_is_summed_over_blocks(self, monkeypatch):
        # 2 dim + 3 members at dim 8 are read in three blocks through the
        # one member iterator, and sum to the per-member outer products
        D = 8
        rng = np.random.default_rng(23)
        e = Ensemble.from_states(random_states(rng, 2 * D + 3, scale=0.8),
                                 rng.dirichlet(np.ones(2 * D + 3)))
        widths = []
        blocks = Ensemble.member_blocks

        def recorded(ensemble, cutoff):
            for block in blocks(ensemble, cutoff):
                widths.append(block.vectors.shape)
                yield block

        monkeypatch.setattr(Ensemble, "member_blocks", recorded)
        rho = ensemble_density(e, D).data
        assert widths == [(D, D), (D, D), (D, 3)]
        oracle = 0
        for state, weight in e.members:
            w = pseudo_wavefunction(state, D)
            oracle = oracle + weight * np.outer(w, w.conj())
        assert np.max(np.abs(rho - oracle)) <= 1e-15


class TestMemberMatrix:
    def test_columns_and_weights_make_the_density(self):
        states = [ClassicalState(np.array([0.7, -0.2]), np.array([0.1, 0.4])),
                  ClassicalState(np.array([-0.4, 0.0]), np.array([0.6, 0.3])),
                  ClassicalState(np.array([0.0, 0.5]), np.array([-0.9, 0.2]))]
        e = Ensemble.from_states(states, [0.2, 0.3, 0.5])
        [block] = e.member_blocks(6)
        vectors, weights = block.vectors, block.weights
        assert (block.modes, block.cutoff) == (2, 6)
        assert vectors.shape == (36, 3)
        assert weights.tolist() == [0.2, 0.3, 0.5]
        for column, state in zip(vectors.T, states):
            assert np.array_equal(column, pseudo_wavefunction(state, 6))
        rho = (vectors * weights) @ vectors.conj().T
        assert np.max(np.abs(rho - ensemble_density(e, 6).data)) <= 1e-15


class TestHamiltonRhs:
    def test_oscillator(self):
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        phidot, pidot = hamilton_rhs(H, state1(1.0, 0.0))
        assert np.allclose(phidot, [0.0]) and np.allclose(pidot, [-1.0])

    def test_mass_term(self):
        H = parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": 3})
        _, pidot = hamilton_rhs(H, state1(2.0, 0.5))
        assert np.allclose(pidot, [-6.0])

    def test_zdot_matches_commutator_trace(self):
        # zdot = -i Tr(rho [a, H_n]) against (phidot + i pidot)/sqrt2
        rng = np.random.default_rng(11)
        D = 32
        for _ in range(10):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            s = next(iter(random_states(rng, 1, scale=0.8)))
            rho = pure_density(s, D).data
            comm = realize_matrix(
                commutator(NormalFormOperator.annihilation(),
                           poly_to_normal_form(H)), D).data
            zdot_q = -1j * np.trace(rho @ comm)
            phidot, pidot = hamilton_rhs(H, s)
            zdot_c = (phidot[0] + 1j * pidot[0]) / SQRT2
            assert abs(zdot_q - zdot_c) <= 1e-8


def derivative_bracket(g, h):
    """{g, H} summed mode by mode from the partial derivatives."""
    n = h.modes
    g = g.promote(n)
    total = PolyExpr("phipi", n)
    for j in range(1, n + 1):
        total = (total + g.differentiate(f"phi{j}") * h.differentiate(f"pi{j}")
                 - g.differentiate(f"pi{j}") * h.differentiate(f"phi{j}"))
    return total


class TestPoissonBrackets:
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_one_pass_is_the_derivative_form(self, modes):
        # exact on dyadic coefficients, to rounding otherwise
        rng = np.random.default_rng(80 + modes)
        for dyadic in (True, False):
            for _ in range(40):
                h = random_poly(rng, modes=modes, degree=4, terms=6,
                                dyadic=dyadic)
                gs = [random_poly(rng, modes=int(rng.integers(1, modes + 1)),
                                  degree=4, terms=6, dyadic=dyadic)
                      for _ in range(2)]
                for got, g in zip(poisson_brackets(gs, h), gs):
                    want = derivative_bracket(g, h)
                    if dyadic:
                        assert got == want
                    else:
                        scale = max(map(abs, want.terms.values()),
                                    default=0.0)
                        assert (got - want).is_zero(1e-15 * scale)

    def test_bracket_of_the_phase_space_pair(self):
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.25*phi1^4", {})
        [dphi, dpi] = poisson_brackets([parse_poly("phi1", {}),
                                        parse_poly("pi1", {})], H)
        assert dphi == parse_poly("pi1", {})
        assert dpi == parse_poly("-phi1 - phi1^3", {})


class TestEnsemblePoints:
    def test_chunks_of_points_in_both_charts(self, monkeypatch):
        # 5 members in chunks of 2: each row is the member's point
        monkeypatch.setattr(states, "POINT_ROWS", 2)
        rng = np.random.default_rng(21)
        e = Ensemble.from_states(random_states(rng, 5, modes=2),
                                 [0.1, 0.2, 0.3, 0.15, 0.25])
        for chart in ("phipi", "zy"):
            chunks = list(e.points(chart))
            assert [len(w) for _, w in chunks] == [2, 2, 1]
            rows = np.vstack([p for p, _ in chunks])
            for row, (s, w) in zip(rows, e.members):
                z = s.z
                want = (s.point() if chart == "phipi"
                        else np.concatenate([z, np.conj(z)]))
                assert np.array_equal(row, want)
            assert np.array_equal(np.concatenate([w for _, w in chunks]),
                                  [w for _, w in e.members])

    def test_mean_is_the_weighted_sum_over_members(self, monkeypatch):
        monkeypatch.setattr(states, "POINT_ROWS", 3)
        rng = np.random.default_rng(22)
        e = Ensemble.from_states(random_states(rng, 8, modes=2))
        polys = [random_poly(rng, modes=2, degree=3, terms=5)
                 for _ in range(3)]
        for got, p in zip(e.mean(polys), polys):
            want = sum(w * p.eval(s.point()).real for s, w in e.members)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    def test_a_zero_mean_is_positive_zero(self):
        e = Ensemble.pure(state1(0.0, 1.0))
        [mean] = e.mean([parse_poly("-phi1", {})])
        assert mean == 0.0 and not math.copysign(1.0, mean) < 0


class TestIntegration:
    def test_quarter_period_rotation(self):
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        end = integrate_state(H, state1(1.0, 0.0), math.pi / 2 - ((math.pi / 2) % 1e-3), 1e-3)
        # land exactly on a step boundary near pi/2, then finish the remainder
        # analytically tiny: instead check against the exact rotation there
        t = math.pi / 2 - ((math.pi / 2) % 1e-3)
        assert abs(end.phi[0] - math.cos(t)) <= 1e-8
        assert abs(end.pi[0] + math.sin(t)) <= 1e-8

    def test_energy_conservation(self):
        H = parse_poly("0.5*pi1^2 + 0.25*phi1^4", {})
        s0 = state1(0.9, 0.3)
        e0 = H.eval(s0.point()).real
        s1 = integrate_state(H, s0, 10.0, 1e-3)
        assert abs(H.eval(s1.point()).real - e0) <= 1e-8

    def test_reversibility(self):
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^3", {})
        s0 = state1(0.4, -0.6)
        fwd = integrate_state(H, s0, 2.0, 1e-3)
        back = integrate_state(H, fwd, -2.0, 1e-3)
        assert abs(back.phi[0] - s0.phi[0]) <= 1e-7
        assert abs(back.pi[0] - s0.pi[0]) <= 1e-7

    def test_ensemble_integration_preserves_weights(self):
        # an ensemble moves member by member, its weights unchanged; under
        # the oscillator each amplitude turns as z(t) = z(0) e^{-it}
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2", {})
        e = Ensemble.phase_circle(0.5, 8)
        out = Ensemble(tuple((integrate_state(H, s, 0.25, 1e-3), w)
                             for s, w in e.members))
        assert [w for _, w in out.members] == [w for _, w in e.members]
        for (s0, _), (s1, _) in zip(e.members, out.members):
            assert abs(s1.z[0] - s0.z[0] * np.exp(-0.25j)) <= 1e-10

    def test_non_multiple_duration_rejected(self):
        H = parse_poly("0.5*pi1^2", {})
        with pytest.raises(ValueError, match="multiple"):
            integrate_state(H, state1(0, 0), 0.0015, 1e-3)


class TestExpectation:
    def test_matches_classical_value(self):
        rng = np.random.default_rng(13)
        g = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        for s in random_states(rng, 10, scale=1.0):
            rho = pure_density(s, 32)
            got = expectation(rho, g)
            assert abs(got - g.eval(s.point())) <= 1e-8

    def test_polynomial_identity_high_degree(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_poly(rng, modes=1, degree=6, terms=6)
            s = next(iter(random_states(rng, 1, scale=1.0)))
            rho = pure_density(s, 32)
            want = g.eval(s.point())
            assert abs(expectation(rho, g) - want) <= 1e-8

    def test_vacuum_annihilates_normal_words(self):
        g = parse_poly("phi1^2 - pi1^2", {})  # no constant word survives
        rho = pure_density(state1(0.0, 0.0), 16)
        assert abs(expectation(rho, g)) <= 1e-12

    def test_mixture_linearity(self):
        g = parse_poly("phi1*pi1 + 0.3*phi1^2", {})
        s1, s2 = state1(0.8, 0.1), state1(-0.3, 0.5)
        e = Ensemble(((s1, 0.3), (s2, 0.7)))
        mixed = expectation(ensemble_density(e, 24), g)
        split = 0.3 * expectation(pure_density(s1, 24), g) \
            + 0.7 * expectation(pure_density(s2, 24), g)
        assert abs(mixed - split) <= 1e-12

    def test_real_for_real_observables(self):
        g = parse_poly("phi1^3 + phi1*pi1", {})
        rho = pure_density(state1(0.5, -0.7), 32)
        assert abs(expectation(rho, g).imag) <= 1e-10

    def test_one_mode_observable_on_two_mode_state_is_promoted(self):
        s = ClassicalState(np.array([0.6, -0.4]), np.array([0.2, 0.7]))
        rho = pure_density(s, 16)
        got = expectation(rho, parse_poly("phi1*pi1", {}))
        assert abs(got - 0.6 * 0.2) <= 1e-8

    def test_dimension_cap(self):
        # 17^3 > DIM_CAP: rejected before anything of that size exists
        rho = FockMatrix(3, 17, np.zeros((1, 1)))
        with pytest.raises(DimensionCapError):
            expectation(rho, parse_poly("phi1^2", {}))


class TestExtendedWavefunction:
    def test_origin_is_doubled_vacuum(self):
        w = extended_wavefunction(state1(0.0, 0.0), 6)
        want = np.zeros(36)
        want[0] = 1.0
        assert np.allclose(w, want)
        assert w.shape == (6 ** 2,)

    def test_pair_eigenrelations(self):
        rng = np.random.default_rng(19)
        D = 24
        a = realize_matrix(NormalFormOperator.annihilation(0, 2), D).data
        b = realize_matrix(NormalFormOperator.annihilation(1, 2), D).data
        for s in random_states(rng, 8, scale=1.0):
            w = extended_wavefunction(s, D)
            assert np.linalg.norm(a @ w - s.z[0] * w) <= 1e-8
            assert np.linalg.norm(b @ w - np.conj(s.z[0]) * w) <= 1e-8

    def test_norm_is_one_and_deterministic(self):
        s = state1(0.5, 0.3)
        w1 = extended_wavefunction(s, 16)
        w2 = extended_wavefunction(s, 16)
        assert abs(np.linalg.norm(w1) - 1.0) <= 1e-10
        assert np.array_equal(w1, w2)

    @pytest.mark.parametrize("modes", [1, 2])
    def test_equals_the_kron_of_coherent_columns(self, modes):
        # reference: one normalized coherent column per mode, z_j then y_j
        def column(amp, D):
            return np.array([amp ** n / math.sqrt(math.factorial(n))
                             for n in range(D)]) * math.exp(-abs(amp) ** 2 / 2)

        rng = np.random.default_rng(43 + modes)
        for D in (4, 8):
            for s in random_states(rng, 5, modes=modes, scale=0.6):
                want = np.ones(1)
                for z in s.z:
                    want = np.kron(np.kron(want, column(z, D)),
                                   column(np.conj(z), D))
                got = extended_wavefunction(s, D)
                assert np.max(np.abs(got - want)) <= 1e-14
