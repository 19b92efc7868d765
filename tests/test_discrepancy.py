import math

import numpy as np
import pytest

from fockdm import discrepancy, states
from fockdm.acceptance import equilibrium_check
from fockdm.algebra import poly_to_normal_form
from fockdm.discrepancy import (
    discrepancy_closed_form,
    discrepancy_report,
    ensemble_fluxes,
    flux_operator,
    iee_check,
    quantum_flux,
    rescale_field,
    scaling_condition_residual,
)
from fockdm.fock import DimensionCapError, realize_matrix
from fockdm.poly import parse_poly, random_poly
from fockdm.states import (
    ClassicalState,
    Ensemble,
    ensemble_density,
    integrate_state,
    pure_density,
)


def approx_eq(p, q, tol=1e-12):
    """Every coefficient of p - q within tol."""
    return (p - q).is_zero(tol)


def state1(phi, pi):
    return ClassicalState(np.array([phi]), np.array([pi]))


def oscillator(m):
    return parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": m})


def random_state(rng, modes=1, scale=0.7):
    return ClassicalState(rng.uniform(-scale, scale, modes),
                          rng.uniform(-scale, scale, modes))


def classical_flux(state, observable, hamiltonian):
    # g_dot of the state, an ensemble of one
    [row] = ensemble_fluxes(Ensemble.pure(state), hamiltonian, [observable],
                            32)
    return row.g_dot


class TestQuantumFlux:
    def test_observable_equal_to_hamiltonian(self):
        H = oscillator(1.5)
        rho = pure_density(state1(0.6, -0.2), 24)
        flux = flux_operator(H, poly_to_normal_form(H), 24)
        assert abs(quantum_flux(rho, flux)) <= 1e-12

    def test_stationary_point_of_phi(self):
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        rho = pure_density(state1(1.0, 0.0), 32)
        flux = flux_operator(parse_poly("phi1", {}), poly_to_normal_form(H),
                             32)
        assert abs(quantum_flux(rho, flux)) <= 1e-8

    def test_against_dense_matrix_oracle(self):
        # independent route: realize g_n and H_n, commute as matrices
        rng = np.random.default_rng(3)
        D = 32
        H = oscillator(2.0)
        g = parse_poly("phi1*pi1", {})
        for _ in range(5):
            s = random_state(rng)
            rho = pure_density(s, D)
            got = quantum_flux(rho, flux_operator(g, poly_to_normal_form(H),
                                                  D))
            gmat = realize_matrix(poly_to_normal_form(g), D).data
            hmat = realize_matrix(poly_to_normal_form(H), D).data
            oracle = -1j * np.trace(rho.data @ (gmat @ hmat - hmat @ gmat))
            assert abs(got - oracle) <= 1e-9

    def test_dimension_cap(self):
        H = oscillator(1.0)
        # 17^3 > DIM_CAP: rejected before anything of that size exists
        with pytest.raises(DimensionCapError):
            flux_operator(parse_poly("phi1*pi1", {}),
                          poly_to_normal_form(H.promote(3)), 17)


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
            rep = discrepancy_report(s, g, H, 32)
            assert abs(rep.direct) <= 1e-8

    def test_linear_observables_always_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            s = random_state(rng)
            for text in ("phi1", "pi1"):
                rep = discrepancy_report(s, parse_poly(text, {}), H, 32)
                assert abs(rep.direct) <= 1e-8

    def test_oscillator_worked_example(self):
        # mass-2 oscillator with g = phi pi: the gap is -(m-1)/2 = -1/2
        rep = discrepancy_report(state1(1.0, 0.0), parse_poly("phi1*pi1", {}),
                                 oscillator(2.0), 32)
        assert abs(rep.direct - (-0.5)) <= 1e-8


class TestClosedForm:
    def test_oscillator_mass_sweep(self):
        g = parse_poly("phi1*pi1", {})
        for m in (0.5, 1.0, 2.0, 4.0):
            value = discrepancy_closed_form(state1(0.3, -0.8), g, oscillator(m))
            assert abs(value - (-(m - 1) / 2)) <= 1e-12

    def test_balanced_quadratic_has_no_gap(self):
        # equal second derivatives and no cross term
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2 + 0.3*phi1 - 0.2*pi1", {})
        g = parse_poly("phi1^2 - pi1^2 + phi1*pi1", {})
        value = discrepancy_closed_form(state1(0.9, 0.4), g, H)
        assert abs(value) <= 1e-12

    def test_matches_direct_single_mode(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            H = random_poly(rng, modes=1, degree=3, terms=5) * 0.5
            g = random_poly(rng, modes=1, degree=4, terms=5)
            s = random_state(rng)
            rep = discrepancy_report(s, g, H, 32)
            assert rep.residual <= 1e-8

    def test_matches_direct_two_modes(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            H = random_poly(rng, modes=2, degree=3, terms=6) * 0.5
            g = random_poly(rng, modes=2, degree=4, terms=6)
            s = random_state(rng, modes=2)
            rep = discrepancy_report(s, g, H, 32)
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
            assert rep.residual <= 1e-8

    # past three z or three y factors in a term of H, the orders past 3
    # carry the gap: phi1^2*phi2^2 has per-mode degree 2 but the fourth
    # cross-derivatives of z1^2 z2^2 survive.  The random cases add a full
    # power to g and H, so that their top order is never empty.
    @pytest.mark.parametrize("modes, text", [
        (1, "phi1^4"), (2, "phi1^2*phi2^2"),
        (1, 4), (1, 5), (2, 4), (2, 5)])
    def test_full_series_matches_direct(self, modes, text):
        rng = np.random.default_rng(17)
        cutoff = 32 if modes == 1 else 16
        for _ in range(4):
            if isinstance(text, str):
                H = parse_poly(text, {})
                g = random_poly(rng, modes=modes, degree=4, terms=5)
            else:
                H = (random_poly(rng, modes=modes, degree=text, terms=5)
                     + parse_poly(f"(phi1+pi{modes})^{text}", {})) * 0.3
                g = (random_poly(rng, modes=modes, degree=text, terms=5)
                     + parse_poly(f"(phi{modes}-pi1)^{text}", {}))
            rep = discrepancy_report(random_state(rng, modes, scale=0.5), g, H,
                                     cutoff)
            assert rep.residual <= 1e-8

    def test_reality_for_real_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            g = random_poly(rng, modes=1, degree=4, terms=5)
            value = discrepancy_closed_form(random_state(rng), g, H)
            assert abs(value.imag) <= 1e-10

    def test_linearity_in_observable(self):
        rng = np.random.default_rng(21)
        H = random_poly(rng, modes=1, degree=3, terms=5)
        g1 = random_poly(rng, modes=1, degree=4, terms=4)
        g2 = random_poly(rng, modes=1, degree=4, terms=4)
        s = random_state(rng)
        a, b = 0.7, -1.9
        v12 = discrepancy_closed_form(s, g1 * a + g2 * b, H)
        v1 = discrepancy_closed_form(s, g1, H)
        v2 = discrepancy_closed_form(s, g2, H)
        assert abs(v12 - (a * v1 + b * v2)) <= 1e-10
        d12 = discrepancy_report(s, g1 * a + g2 * b, H, 32).direct
        d1 = discrepancy_report(s, g1, H, 32).direct
        d2 = discrepancy_report(s, g2, H, 32).direct
        assert abs(d12 - (a * d1 + b * d2)) <= 1e-10


class TestEnsembleDiscrepancy:
    def test_average_of_constant_gap(self):
        e = Ensemble.phase_circle(1.0, 16)
        g, H = parse_poly("phi1*pi1", {}), oscillator(2.0)
        direct = iee_check(e, H, [g], 32).rows[0].direct
        closed = e.average(lambda s: discrepancy_closed_form(s, g, H))
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
        assert approx_eq(H2, H)

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
        assert equilibrium_check(report).passed
        for row in report.rows:
            assert abs(row.g_hat) <= report.worst <= 1e-7
            assert abs(row.g_dot) <= report.worst

    def test_mass_two_circle_violates_condition(self):
        e = Ensemble.phase_circle(1.0, 64)
        report = iee_check(e, oscillator(2.0), [parse_poly("phi1*pi1", {})], 32)
        assert not equilibrium_check(report).passed
        assert abs(report.rows[0].direct - (-0.5)) <= 1e-7

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

    def test_fluxes_are_read_off_member_vectors(self, monkeypatch):
        # neither iee_check nor discrepancy_report forms a moment matrix
        def dense(*args):
            raise AssertionError("formed a dense moment matrix")

        for module in (states, discrepancy):
            for name in ("pure_density", "ensemble_density"):
                monkeypatch.setattr(module, name, dense, raising=False)
        g, H = parse_poly("phi1*pi1", {}), oscillator(2.0)
        report = iee_check(Ensemble.phase_circle(1.0, 16), H, [g], 32)
        assert abs(report.rows[0].direct - (-0.5)) <= 1e-8
        rep = discrepancy_report(state1(1.0, 0.0), g, H, 32)
        assert abs(rep.direct - (-0.5)) <= 1e-8

    def test_members_are_read_in_blocks_of_at_most_dim(self, monkeypatch):
        # 40 members at dim 8: five blocks of 8 columns, never one 8 x 40
        widths = []
        blocks = Ensemble.member_blocks

        def recorded(ensemble, cutoff):
            for block in blocks(ensemble, cutoff):
                widths.append(block.vectors.shape)
                yield block

        monkeypatch.setattr(Ensemble, "member_blocks", recorded)
        e = Ensemble.phase_circle(0.8, 40)
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^4", {})
        gs = [parse_poly("phi1*pi1", {}), parse_poly("phi1^2", {})]
        report = iee_check(e, H, gs, 8)
        assert widths == [(8, 8)] * 5
        rho = ensemble_density(e, 8)
        for g, row in zip(gs, report.rows):
            want = quantum_flux(rho, flux_operator(g, poly_to_normal_form(H),
                                                     8))
            assert abs(row.g_hat - want) <= 1e-13

    def test_generic_two_point_ensemble_is_not_equilibrium(self):
        e = Ensemble.from_states([state1(0.9, 0.1), state1(0.2, -0.5)])
        report = iee_check(e, oscillator(1.0), [parse_poly("phi1^2", {})], 24)
        assert not equilibrium_check(report).passed

    def test_a_state_is_an_ensemble_of_one(self):
        # discrepancy_report and iee_check read both fluxes in one routine,
        # so a pure state gives the same numbers down to the sign of a zero
        H = oscillator(2.0)
        for s in (state1(0.0, 1.0), state1(0.5, -0.3)):
            for text in ("phi1", "pi1^2", "phi1*pi1"):
                g = parse_poly(text, {})
                rep = discrepancy_report(s, g, H, 16)
                [row] = iee_check(Ensemble.pure(s), H, [g], 16).rows
                assert repr((rep.g_hat, rep.g_dot)) \
                    == repr((row.g_hat, row.g_dot))
