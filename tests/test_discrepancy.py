import math

import numpy as np
import pytest

from fockdm import discrepancy
from fockdm.algebra import poly_to_normal_form
from fockdm.discrepancy import (
    classical_flux,
    discrepancy_closed_form,
    discrepancy_direct,
    discrepancy_report,
    iee_check,
    quantum_flux,
    rescale_field,
    scaling_condition_residual,
)
from fockdm.fock import DimensionCapError, FockMatrix, realize_matrix
from fockdm.poly import parse_poly, random_poly
from fockdm.states import ClassicalState, Ensemble, integrate_state, pure_density


def state1(phi, pi):
    return ClassicalState(np.array([phi]), np.array([pi]))


def oscillator(m):
    return parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": m})


def random_state(rng, modes=1, scale=0.7):
    return ClassicalState(rng.uniform(-scale, scale, modes),
                          rng.uniform(-scale, scale, modes))


class TestQuantumFlux:
    def test_observable_equal_to_hamiltonian(self):
        H = oscillator(1.5)
        rho = pure_density(state1(0.6, -0.2), 24)
        assert abs(quantum_flux(rho, H, H)) <= 1e-12

    def test_stationary_point_of_phi(self):
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        rho = pure_density(state1(1.0, 0.0), 32)
        assert abs(quantum_flux(rho, parse_poly("phi1", {}), H)) <= 1e-8

    def test_against_dense_matrix_oracle(self):
        # independent route: realize g_n and H_n, commute as matrices
        rng = np.random.default_rng(3)
        D = 32
        H = oscillator(2.0)
        g = parse_poly("phi1*pi1", {})
        for _ in range(5):
            s = random_state(rng)
            rho = pure_density(s, D)
            got = quantum_flux(rho, g, H)
            gmat = realize_matrix(poly_to_normal_form(g), D).data
            hmat = realize_matrix(poly_to_normal_form(H), D).data
            oracle = -1j * np.trace(rho.data @ (gmat @ hmat - hmat @ gmat))
            assert abs(got - oracle) <= 1e-9

    def test_dimension_cap(self):
        H = oscillator(1.0)
        # 17^3 > DIM_CAP: rejected before anything of that size exists
        rho = FockMatrix(3, 17, np.zeros((1, 1)))
        with pytest.raises(DimensionCapError):
            quantum_flux(rho, parse_poly("phi1*pi1", {}), H)


class TestClassicalFlux:
    def test_energy_is_conserved(self):
        H = parse_poly("0.5*pi1^2 + 0.25*phi1^4", {})
        assert classical_flux(state1(0.8, 0.3), H, H) == 0.0

    def test_oscillator_cross_observable(self):
        m = 1.7
        H = oscillator(m)
        s = state1(0.4, -0.9)
        want = s.pi[0] ** 2 - m * s.phi[0] ** 2
        assert abs(classical_flux(s, parse_poly("phi1*pi1", {}), H) - want) <= 1e-12

    def test_position_rate_is_momentum_gradient(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            s = random_state(rng)
            want = H.differentiate("pi1").eval(s.point()).real
            got = classical_flux(s, parse_poly("phi1", {}), H)
            assert abs(got - want) <= 1e-12


class TestDiscrepancyDirect:
    def test_unit_mass_oscillator_vanishes_for_low_degree(self):
        rng = np.random.default_rng(7)
        H = oscillator(1.0)
        for _ in range(10):
            g = random_poly(rng, modes=1, degree=4, terms=5)
            s = random_state(rng)
            rep = discrepancy_direct(s, g, H, 32)
            assert abs(rep.direct) <= 1e-8

    def test_linear_observables_always_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            s = random_state(rng)
            for text in ("phi1", "pi1"):
                rep = discrepancy_direct(s, parse_poly(text, {}), H, 32)
                assert abs(rep.direct) <= 1e-8

    def test_oscillator_worked_example(self):
        # mass-2 oscillator with g = phi pi: the gap is -(m-1)/2 = -1/2
        rep = discrepancy_direct(state1(1.0, 0.0), parse_poly("phi1*pi1", {}),
                                 oscillator(2.0), 32)
        assert abs(rep.direct - (-0.5)) <= 1e-8


class TestClosedForm:
    def test_oscillator_mass_sweep(self):
        g = parse_poly("phi1*pi1", {})
        for m in (0.5, 1.0, 2.0, 4.0):
            value, applicable = discrepancy_closed_form(state1(0.3, -0.8), g,
                                                        oscillator(m))
            assert applicable
            assert abs(value - (-(m - 1) / 2)) <= 1e-12

    def test_balanced_quadratic_has_no_gap(self):
        # equal second derivatives and no cross term
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2 + 0.3*phi1 - 0.2*pi1", {})
        g = parse_poly("phi1^2 - pi1^2 + phi1*pi1", {})
        value, applicable = discrepancy_closed_form(state1(0.9, 0.4), g, H)
        assert applicable and abs(value) <= 1e-12

    def test_matches_direct_single_mode(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            H = random_poly(rng, modes=1, degree=3, terms=5) * 0.5
            g = random_poly(rng, modes=1, degree=4, terms=5)
            s = random_state(rng)
            rep = discrepancy_report(s, g, H, 32)
            assert rep.applicable
            assert rep.residual <= 1e-8

    def test_matches_direct_two_modes(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            H = random_poly(rng, modes=2, degree=3, terms=6) * 0.5
            g = random_poly(rng, modes=2, degree=4, terms=6)
            s = random_state(rng, modes=2)
            rep = discrepancy_report(s, g, H, 32)
            assert rep.applicable
            assert rep.residual <= 1e-8

    def test_coupled_two_mode_example(self):
        H = parse_poly(
            "0.5*pi1^2 + 0.5*pi2^2 + 0.5*phi1^2 + 0.5*phi2^2 + 0.3*phi1*phi2",
            {})
        g = parse_poly("phi1*pi2", {})
        rng = np.random.default_rng(15)
        for _ in range(5):
            s = random_state(rng, modes=2)
            rep = discrepancy_report(s, g, H, 32)
            assert rep.applicable
            assert rep.residual <= 1e-8

    def test_degree_four_requires_extended_cap(self):
        # beyond the order gate the capped series is not a theorem; with the
        # cap raised to the Hamiltonian degree it matches the dense route
        rng = np.random.default_rng(17)
        mismatch = 0.0
        for _ in range(10):
            H = random_poly(rng, modes=1, degree=4, terms=5) * 0.3
            g = random_poly(rng, modes=1, degree=4, terms=5)
            s = random_state(rng, scale=0.6)
            rep3 = discrepancy_report(s, g, H, 32, order_cap=3)
            rep4 = discrepancy_report(s, g, H, 32, order_cap=4)
            assert rep4.residual <= 1e-8
            mismatch = max(mismatch, rep3.residual)
        assert mismatch > 1e-6  # the gate exists for a reason

    def test_reality_for_real_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            g = random_poly(rng, modes=1, degree=4, terms=5)
            value, _ = discrepancy_closed_form(random_state(rng), g, H)
            assert abs(value.imag) <= 1e-10

    def test_linearity_in_observable(self):
        rng = np.random.default_rng(21)
        H = random_poly(rng, modes=1, degree=3, terms=5)
        g1 = random_poly(rng, modes=1, degree=4, terms=4)
        g2 = random_poly(rng, modes=1, degree=4, terms=4)
        s = random_state(rng)
        a, b = 0.7, -1.9
        v12, _ = discrepancy_closed_form(s, g1 * a + g2 * b, H)
        v1, _ = discrepancy_closed_form(s, g1, H)
        v2, _ = discrepancy_closed_form(s, g2, H)
        assert abs(v12 - (a * v1 + b * v2)) <= 1e-10
        d12 = discrepancy_direct(s, g1 * a + g2 * b, H, 32).direct
        d1 = discrepancy_direct(s, g1, H, 32).direct
        d2 = discrepancy_direct(s, g2, H, 32).direct
        assert abs(d12 - (a * d1 + b * d2)) <= 1e-10


class TestEnsembleDiscrepancy:
    def test_average_of_constant_gap(self):
        e = Ensemble.phase_circle(1.0, 16)
        g, H = parse_poly("phi1*pi1", {}), oscillator(2.0)
        direct = iee_check(e, H, [g], 32).rows[0].discrepancy
        closed = e.average(lambda s: discrepancy_closed_form(s, g, H)[0])
        assert abs(direct - (-0.5)) <= 1e-8
        assert abs(closed - (-0.5)) <= 1e-12


class TestRescaleField:
    def test_oscillator_balances(self):
        m = 2.0
        H2, mapping = rescale_field(oscillator(m), m ** -0.25)
        want = math.sqrt(m) / 2
        assert abs(H2.terms[(2, 0)] - want) <= 1e-12
        assert abs(H2.terms[(0, 2)] - want) <= 1e-12

    def test_identity_scales(self):
        H = parse_poly("0.5*pi1^2 + 0.1*phi1^3", {})
        H2, _ = rescale_field(H, 1.0)
        assert H2.approx_eq(H)

    def test_trajectory_equivalence(self):
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.12*phi1^3", {})
        H2, mapping = rescale_field(H, 1.3)
        s0 = state1(0.4, -0.2)
        t, dt = 1.0, 1e-3
        routed = mapping.apply(integrate_state(H, s0, t, dt))
        direct = integrate_state(H2, mapping.apply(s0), t, dt)
        assert abs(routed.phi[0] - direct.phi[0]) <= 1e-8
        assert abs(routed.pi[0] - direct.pi[0]) <= 1e-8

    def test_energy_content_preserved(self):
        H = parse_poly("0.5*pi1^2 + 0.25*phi1^4", {})
        H2, mapping = rescale_field(H, 0.8)
        s0 = state1(0.9, 0.5)
        traj = [integrate_state(H, s0, k * 0.1, 1e-3) for k in range(5)]
        for s in traj:
            assert abs(H.eval(s.point()) - H2.eval(mapping.apply(s).point())) \
                <= 1e-10

    def test_scaled_oscillator_has_zero_gap(self):
        m = 2.0
        H2, mapping = rescale_field(oscillator(m), m ** -0.25)
        s = mapping.apply(state1(1.0, 0.0))
        rep = discrepancy_report(s, parse_poly("phi1*pi1", {}), H2, 32)
        assert abs(rep.direct) <= 1e-8
        assert abs(rep.closed_form) <= 1e-12

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            rescale_field(oscillator(1.0), -2.0)


class TestScalingCondition:
    def test_rescaled_oscillator_is_exact_zero(self):
        m = 3.0
        H2, _ = rescale_field(oscillator(m), m ** -0.25)
        e = Ensemble.phase_circle(0.7, 8)
        assert np.allclose(scaling_condition_residual(H2, e), 0.0, atol=1e-12)

    def test_unscaled_oscillator_reads_mass_gap(self):
        e = Ensemble.phase_circle(1.0, 8)
        res = scaling_condition_residual(oscillator(2.0), e)
        assert abs(res[0] - 1.0) <= 1e-12

    def test_quartic_depends_on_ensemble(self):
        H = parse_poly("0.5*pi1^2 + 0.25*phi1^4", {})
        small = Ensemble.phase_circle(0.5, 16)
        large = Ensemble.phase_circle(1.5, 16)
        r_small = scaling_condition_residual(H, small)[0]
        r_large = scaling_condition_residual(H, large)[0]
        assert r_small != pytest.approx(r_large)
        # <3 phi^2 - 1> over the circle of radius r: 3 r^2/2 - 1
        assert abs(r_small - (3 * 0.25 / 2 - 1.0)) <= 1e-10


class TestIEECheck:
    def test_unit_mass_circle_is_equilibrium(self):
        e = Ensemble.phase_circle(1.0, 64)
        gs = [parse_poly("phi1*pi1", {}), parse_poly("phi1^2 - pi1^2", {})]
        report = iee_check(e, oscillator(1.0), gs, 32)
        assert report.equilibrium
        for row in report.rows:
            assert abs(row.g_hat) <= 1e-7
            assert abs(row.g_dot) <= 1e-7

    def test_mass_two_circle_violates_condition(self):
        e = Ensemble.phase_circle(1.0, 64)
        report = iee_check(e, oscillator(2.0), [parse_poly("phi1*pi1", {})], 32)
        assert not report.equilibrium
        assert abs(report.rows[0].discrepancy - (-0.5)) <= 1e-7

    def test_one_flux_operator_per_observable(self, monkeypatch):
        calls = []
        original = discrepancy.commutator

        def counted(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(discrepancy, "commutator", counted)
        e = Ensemble.phase_circle(1.0, 16)
        gs = [parse_poly("phi1*pi1", {}), parse_poly("phi1^2 - pi1^2", {}),
              parse_poly("phi1^3*pi1", {})]
        report = iee_check(e, oscillator(1.0), gs, 16)
        assert len(report.rows) == 3
        assert len(calls) == 3

    def test_generic_two_point_ensemble_is_not_equilibrium(self):
        e = Ensemble.from_states([state1(0.9, 0.1), state1(0.2, -0.5)])
        report = iee_check(e, oscillator(1.0), [parse_poly("phi1^2", {})], 24)
        assert not report.equilibrium
