import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fockdm import discrepancy, states
from fockdm.acceptance import equilibrium_check
from fockdm.algebra import (
    commutator,
    poly_to_normal_form,
    random_normal_operator,
)
from fockdm.discrepancy import (
    discrepancy_closed_form,
    ensemble_fluxes,
    flux_operator,
    quantum_flux,
    rescale_field,
    scaling_condition_residual,
)
from fockdm.fock import (
    DIM_CAP,
    DimensionCapError,
    block_trace,
    compile_operator,
    compile_words,
    realize_matrix,
)
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


def pure_report(state, observable, hamiltonian, cutoff):
    # the fluxes of the state, an ensemble of one, with the closed-form gap
    e = Ensemble.pure(state)
    [row] = ensemble_fluxes(e, hamiltonian, [observable], cutoff)
    return replace(row, closed_form=discrepancy_closed_form(e, observable,
                                                            hamiltonian))


def members_of(state, cutoff, degree=4):
    """The state as product members with moments up to degree."""
    [members] = Ensemble.pure(state).product_members(cutoff, degree)
    return members


def closed_form(state, observable, hamiltonian):
    return discrepancy_closed_form(Ensemble.pure(state), observable,
                                   hamiltonian)


class TestQuantumFlux:
    def test_observable_equal_to_hamiltonian(self):
        H = oscillator(1.5)
        flux = flux_operator(H, poly_to_normal_form(H), 24)
        assert abs(quantum_flux(members_of(state1(0.6, -0.2), 24), flux)) \
            <= 1e-12

    def test_stationary_point_of_phi(self):
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2", {})
        flux = flux_operator(parse_poly("phi1", {}), poly_to_normal_form(H),
                             32)
        assert abs(quantum_flux(members_of(state1(1.0, 0.0), 32), flux)) \
            <= 1e-8

    def test_against_dense_matrix_oracle(self):
        # independent route: realize g_n and H_n, commute as matrices
        rng = np.random.default_rng(3)
        D = 32
        H = oscillator(2.0)
        g = parse_poly("phi1*pi1", {})
        for _ in range(5):
            s = random_state(rng)
            rho = pure_density(s, D)
            got = quantum_flux(members_of(s, D),
                               flux_operator(g, poly_to_normal_form(H), D))
            gmat = realize_matrix(poly_to_normal_form(g), D).data
            hmat = realize_matrix(poly_to_normal_form(H), D).data
            oracle = -1j * np.trace(rho.data @ (gmat @ hmat - hmat @ gmat))
            assert abs(got - oracle) <= 1e-9

    def test_dimension_cap(self):
        # the flux is compiled one mode at a time, so 17^3 > DIM_CAP is no
        # bar; one mode past the cap is refused before its ladder exists
        g, h_n = parse_poly("phi1*pi1", {}), poly_to_normal_form(
            oscillator(1.0).promote(3))
        assert flux_operator(g, h_n, 17).coeffs.size
        with pytest.raises(DimensionCapError):
            flux_operator(g, h_n, DIM_CAP + 1)


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
            rep = pure_report(s, g, H, 32)
            assert abs(rep.direct) <= 1e-8

    def test_linear_observables_always_agree(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            s = random_state(rng)
            for text in ("phi1", "pi1"):
                rep = pure_report(s, parse_poly(text, {}), H, 32)
                assert abs(rep.direct) <= 1e-8

    def test_oscillator_worked_example(self):
        # mass-2 oscillator with g = phi pi: the gap is -(m-1)/2 = -1/2
        rep = pure_report(state1(1.0, 0.0), parse_poly("phi1*pi1", {}),
                          oscillator(2.0), 32)
        assert abs(rep.direct - (-0.5)) <= 1e-8


class TestClosedForm:
    def test_oscillator_mass_sweep(self):
        g = parse_poly("phi1*pi1", {})
        for m in (0.5, 1.0, 2.0, 4.0):
            value = closed_form(state1(0.3, -0.8), g, oscillator(m))
            assert abs(value - (-(m - 1) / 2)) <= 1e-12

    def test_balanced_quadratic_has_no_gap(self):
        # equal second derivatives and no cross term
        H = parse_poly("0.5*phi1^2 + 0.5*pi1^2 + 0.3*phi1 - 0.2*pi1", {})
        g = parse_poly("phi1^2 - pi1^2 + phi1*pi1", {})
        value = closed_form(state1(0.9, 0.4), g, H)
        assert abs(value) <= 1e-12

    def test_matches_direct_single_mode(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            H = random_poly(rng, modes=1, degree=3, terms=5) * 0.5
            g = random_poly(rng, modes=1, degree=4, terms=5)
            s = random_state(rng)
            rep = pure_report(s, g, H, 32)
            assert rep.residual <= 1e-8

    def test_matches_direct_two_modes(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            H = random_poly(rng, modes=2, degree=3, terms=6) * 0.5
            g = random_poly(rng, modes=2, degree=4, terms=6)
            s = random_state(rng, modes=2)
            rep = pure_report(s, g, H, 32)
            assert rep.residual <= 1e-8

    def test_coupled_two_mode_example(self):
        H = parse_poly(
            "0.5*pi1^2 + 0.5*pi2^2 + 0.5*phi1^2 + 0.5*phi2^2 + 0.3*phi1*phi2",
            {})
        g = parse_poly("phi1*pi2", {})
        rng = np.random.default_rng(15)
        for _ in range(5):
            s = random_state(rng, modes=2)
            rep = pure_report(s, g, H, 32)
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
            rep = pure_report(random_state(rng, modes, scale=0.5), g, H,
                              cutoff)
            assert rep.residual <= 1e-8

    def test_reality_for_real_inputs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            H = random_poly(rng, modes=1, degree=3, terms=5)
            g = random_poly(rng, modes=1, degree=4, terms=5)
            value = closed_form(random_state(rng), g, H)
            assert abs(value.imag) <= 1e-10

    def test_linearity_in_observable(self):
        rng = np.random.default_rng(21)
        H = random_poly(rng, modes=1, degree=3, terms=5)
        g1 = random_poly(rng, modes=1, degree=4, terms=4)
        g2 = random_poly(rng, modes=1, degree=4, terms=4)
        s = random_state(rng)
        a, b = 0.7, -1.9
        v12 = closed_form(s, g1 * a + g2 * b, H)
        v1 = closed_form(s, g1, H)
        v2 = closed_form(s, g2, H)
        assert abs(v12 - (a * v1 + b * v2)) <= 1e-10
        d12 = pure_report(s, g1 * a + g2 * b, H, 32).direct
        d1 = pure_report(s, g1, H, 32).direct
        d2 = pure_report(s, g2, H, 32).direct
        assert abs(d12 - (a * d1 + b * d2)) <= 1e-10


def filtered_multi_indices(modes, order):
    # the enumeration the closed form once used: every product of
    # range(order + 1) over all modes but the first, filtered by its sum
    for parts in itertools.product(range(order + 1), repeat=modes - 1):
        if sum(parts) <= order:
            yield (order - sum(parts),) + parts


class TestModeMultiIndices:
    @pytest.mark.parametrize("modes", range(1, 6))
    def test_the_filtered_products_in_their_order(self, modes):
        for order in range(7):
            assert discrepancy._mode_multi_indices(modes, order) \
                == list(filtered_multi_indices(modes, order))

    def test_twelve_modes_at_order_four_take_well_under_a_tenth_second(self):
        start = time.perf_counter()
        counts = [len(discrepancy._mode_multi_indices(12, order))
                  for order in range(2, 5)]
        assert time.perf_counter() - start < 0.1
        assert counts == [math.comb(order + 11, 11) for order in range(2, 5)]


class TestEnsembleDiscrepancy:
    def test_average_of_constant_gap(self):
        e = Ensemble.phase_circle(1.0, 16)
        g, H = parse_poly("phi1*pi1", {}), oscillator(2.0)
        [row] = ensemble_fluxes(e, H, [g], 32)
        closed = sum(w * closed_form(s, g, H) for s, w in e.members)
        assert abs(row.direct - (-0.5)) <= 1e-8
        assert abs(closed - (-0.5)) <= 1e-12

    def test_closed_form_is_the_weighted_average_of_the_members(self):
        rng = np.random.default_rng(23)
        H = parse_poly("0.5*pi1^2 + 0.5*pi2^2 + 0.5*phi1^2 + 0.25*phi1^4"
                       " + 0.3*phi1*phi2^2", {})
        g = random_poly(rng, modes=2, degree=4, terms=6)
        e = Ensemble.from_states([random_state(rng, modes=2)
                                  for _ in range(3)], [0.2, 0.3, 0.5])
        want = sum(w * closed_form(s, g, H) for s, w in e.members)
        assert abs(discrepancy_closed_form(e, g, H) - want) <= 1e-14
        [row] = ensemble_fluxes(e, H, [g], 16)
        assert abs(row.direct - want) <= 1e-8


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
        rep = pure_report(s, parse_poly("phi1*pi1", {}), H2, 32)
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
        report = ensemble_fluxes(e, oscillator(1.0), gs, 32)
        check = equilibrium_check(report)
        assert check.passed
        for row in report:
            assert abs(row.g_hat) <= check.value <= 1e-7
            assert abs(row.g_dot) <= check.value

    def test_mass_two_circle_violates_condition(self):
        e = Ensemble.phase_circle(1.0, 64)
        report = ensemble_fluxes(e, oscillator(2.0),
                                 [parse_poly("phi1*pi1", {})], 32)
        assert not equilibrium_check(report).passed
        assert abs(report[0].direct - (-0.5)) <= 1e-7

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
        report = ensemble_fluxes(e, oscillator(1.0), gs, 16)
        assert len(report) == 3
        assert len(calls) == 3

    def test_fluxes_are_read_off_member_vectors(self, monkeypatch):
        # neither the fluxes nor the closed form form a moment matrix
        def dense(*args):
            raise AssertionError("formed a dense moment matrix")

        for module in (states, discrepancy):
            for name in ("pure_density", "ensemble_density"):
                monkeypatch.setattr(module, name, dense, raising=False)
        g, H = parse_poly("phi1*pi1", {}), oscillator(2.0)
        [row] = ensemble_fluxes(Ensemble.phase_circle(1.0, 16), H, [g], 32)
        assert abs(row.direct - (-0.5)) <= 1e-8
        rep = pure_report(state1(1.0, 0.0), g, H, 32)
        assert abs(rep.direct - (-0.5)) <= 1e-8

    def test_members_are_read_in_blocks_of_at_most_dim(self, monkeypatch):
        # 40 members at D = 8, with room for the columns of 8 members: five
        # chunks of 8, never one of 40
        widths = []
        chunks = Ensemble.product_members

        def recorded(ensemble, cutoff, degree):
            for members in chunks(ensemble, cutoff, degree):
                widths.append(members.columns.shape)
                yield members

        monkeypatch.setattr(Ensemble, "product_members", recorded)
        monkeypatch.setattr(states, "PRODUCT_BYTES", 16 * 8 * 8)
        e = Ensemble.phase_circle(0.8, 40)
        H = parse_poly("0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^4", {})
        gs = [parse_poly("phi1*pi1", {}), parse_poly("phi1^2", {})]
        report = ensemble_fluxes(e, H, gs, 8)
        assert widths == [(1, 8, 8)] * 5
        rho = ensemble_density(e, 8)
        for g, row in zip(gs, report):
            want = -1j * rho.expect(compile_operator(commutator(
                poly_to_normal_form(g), poly_to_normal_form(H)), 8))
            assert abs(row.g_hat - want) <= 1e-13

    def test_generic_two_point_ensemble_is_not_equilibrium(self):
        e = Ensemble.from_states([state1(0.9, 0.1), state1(0.2, -0.5)])
        report = ensemble_fluxes(e, oscillator(1.0),
                                 [parse_poly("phi1^2", {})], 24)
        assert not equilibrium_check(report).passed

    def test_each_observable_reads_alone_as_among_the_others(self):
        # the discrepancy and iee suites read all their observables in one
        # call, which gives each the numbers of a call of its own, down to
        # the sign of a zero
        H = oscillator(2.0)
        gs = [parse_poly(text, {}) for text in ("phi1", "pi1^2", "phi1*pi1")]
        for s in (state1(0.0, 1.0), state1(0.5, -0.3)):
            e = Ensemble.pure(s)
            for g, row in zip(gs, ensemble_fluxes(e, H, gs, 16)):
                [alone] = ensemble_fluxes(e, H, [g], 16)
                assert repr((alone.g_hat, alone.g_dot)) \
                    == repr((row.g_hat, row.g_dot))


def random_ensemble(rng, modes, members, scale=0.5):
    return Ensemble.from_states(
        [random_state(rng, modes, scale) for _ in range(members)],
        rng.dirichlet(np.ones(members)))


def block_route(ensemble, op, cutoff):
    """Tr(rho op) off the member blocks, and the same sum taken over the
    absolute values of its terms, the scale of both routes' rounding."""
    table = compile_operator(op, cutoff)
    size = table._replace(passes=tuple((shift, np.abs(pad))
                                       for shift, pad in table.passes))
    value = scale = 0
    for block in ensemble.member_blocks(cutoff):
        value += block.expect(table)
        scale += block_trace(np.abs(block.vectors), block.weights, size).real
    return value, scale


# every D from 2 (where truncation cuts most words) up to the largest D
# whose D^n vector fits DIM_CAP, so both routes run; 1 mode takes D = 2-64
# and each power of two up to the cap
ORACLE_CUTOFFS = [(1, D) for D in [*range(2, 65), 128, 256, 512, 1024, 2048,
                                   4096]] \
    + [(2, D) for D in range(2, 65)] + [(3, D) for D in range(2, 17)]


class TestProductRoute:
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_flux_equals_the_block_route(self, modes):
        # random H of degree 2-5 and observables of degree 1-3, whose normal
        # forms carry complex words, read off random ensembles of 1-4
        # members; the product route rounds differently, within 1e-13 of
        # the terms' size
        rng = np.random.default_rng(300 + modes)
        for _, D in [c for c in ORACLE_CUTOFFS if c[0] == modes]:
            H = random_poly(rng, modes=modes, degree=2 + D % 4, terms=5)
            g = random_poly(rng, modes=modes, degree=1 + D % 3, terms=3)
            h_n = poly_to_normal_form(H.promote(modes))
            e = random_ensemble(rng, modes, 1 + D % 4)
            [row] = ensemble_fluxes(e, H, [g], D)
            want, scale = block_route(e, commutator(
                poly_to_normal_form(g.promote(modes)), h_n), D)
            assert abs(row.g_hat - -1j * want) <= 1e-13 * scale, (modes, D)

    @pytest.mark.parametrize("modes, D", [(1, 3), (1, 9), (2, 4), (2, 7),
                                          (3, 3), (3, 5)])
    def test_any_operator_on_signed_weights(self, modes, D):
        # non-Hermitian words, some longer than the cutoff, read off members
        # with signed weights
        rng = np.random.default_rng(310 + 10 * modes + D)
        e = random_ensemble(rng, modes, 5)
        weights = rng.uniform(-1, 1, 5)
        [members] = e.product_members(D, 5)
        members = replace(members, weights=weights)
        vectors = np.hstack([b.vectors for b in e.member_blocks(D)])
        for _ in range(4):
            op = random_normal_operator(rng, modes=modes, degree=5, words=6,
                                        hermitian=False, dyadic=False)
            want = block_trace(vectors, weights, compile_operator(op, D))
            got = members.expect(compile_words(op, D))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_gap_shrinks_with_the_cutoff(self):
        # a 6-mode phi^4 chain: the direct gap meets the free-space closed
        # form only as the coherent tail leaves the truncated space, so a
        # reader blind to truncation, exact at every D, fails the first
        # bound
        h, gs, state = phi4_chain()
        e = Ensemble.pure(state)
        residual = [max(abs(row.direct - discrepancy_closed_form(e, g, h))
                        for g, row in zip(gs, ensemble_fluxes(e, h, gs, D)))
                    for D in (4, 6, 8, 10, 16)]
        assert residual[0] > 1e-3
        for coarse, fine in zip(residual[:3], residual[1:4]):
            assert fine < coarse / 30
        assert residual[4] <= 1e-14

    def test_members_are_built_past_the_dimension_cap(self):
        # 6 modes at D = 16 is a D^n vector of 1.7e7 entries, far past
        # DIM_CAP; the flux reads off 6 columns of 16 per member
        h, gs, state = phi4_chain()
        with pytest.raises(DimensionCapError):
            next(Ensemble.pure(state).member_blocks(16))
        e = Ensemble.pure(state)
        for g, row in zip(gs, ensemble_fluxes(e, h, gs, 16)):
            assert abs(row.direct - discrepancy_closed_form(e, g, h)) \
                <= 1e-14


def phi4_chain(modes=6):
    """An on-site quartic chain with nearest-neighbour coupling, three
    observables and a state well inside the guard at D = 16."""
    h = parse_poly(" + ".join(
        [f"0.5*pi{j}^2 + 0.5*phi{j}^2 + 0.075*phi{j}^4"
         for j in range(1, modes + 1)]
        + [f"0.1*(phi{j} - phi{j + 1})^2" for j in range(1, modes)]), {})
    gs = [parse_poly(text, {}) for text in ("phi1*pi1", "phi3^2",
                                            "pi2*phi5")]
    state = ClassicalState([0.3, -0.2, 0.5, 0.1, -0.4, 0.25],
                           [0.1, 0.4, -0.3, 0.2, 0.0, -0.15])
    return h, [g.promote(modes) for g in gs], state
