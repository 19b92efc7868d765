import math

import numpy as np
import pytest

from fockdm.algebra import NormalFormOperator
from fockdm.fock import interior_block, realize_matrix
from fockdm.reify import (
    PoleError,
    flow_coeffs,
    m_operator,
    norm_flow_residual,
    paradox_demo,
    rho_z_trace,
    rotated_annihilation,
    s_operator,
)
from fockdm.states import (
    ClassicalState,
    extended_wavefunction,
    pseudo_wavefunction,
)


A = NormalFormOperator.annihilation()
AD = NormalFormOperator.creation()


def state1(phi, pi):
    return ClassicalState(np.array([phi]), np.array([pi]))


class TestSOperator:
    def test_identity_at_zero(self):
        s = s_operator(0.0, 16)
        assert np.allclose(s.data, np.eye(16), atol=1e-12)

    def test_hermitian(self):
        assert s_operator(0.4, 32).hermiticity_defect() <= 1e-10

    def test_one_parameter_group(self):
        a1, a2 = 0.13, 0.21
        lhs = s_operator(a1, 24).data @ s_operator(a2, 24).data
        rhs = s_operator(a1 + a2, 24).data
        diff = np.abs(interior_block(lhs - rhs, 1, 24, 4))
        assert diff.max() <= 1e-8

    def test_similarity_rotates_ladder_first_order(self):
        # S(da) a S(da)^-1 = a + adag da + O(da^2): second-order slope check
        D = 32
        a = realize_matrix(A, D).data
        ad = realize_matrix(AD, D).data
        residuals = []
        for da in (1e-3, 1e-4):
            s = s_operator(da, D).data
            sinv = s_operator(-da, D).data
            t = s @ a @ sinv
            res = np.abs(interior_block(t - a - da * ad, 1, D, 4)).max()
            residuals.append(res)
        ratio = residuals[0] / residuals[1]
        assert 50 <= ratio <= 200  # quadratic remainder

    def test_similarity_rotates_creation_first_order(self):
        D = 32
        a = realize_matrix(A, D).data
        ad = realize_matrix(AD, D).data
        da = 1e-4
        s = s_operator(da, D).data
        sinv = s_operator(-da, D).data
        t = s @ ad @ sinv
        res = np.abs(interior_block(t - ad + da * a, 1, D, 4)).max()
        assert res <= 1e-6

    def test_similarity_slope_matches_rotation_derivative(self):
        # finite-difference slope of S a S^-1 at the identity matches the
        # derivative of the rotated ladder (cos a + sin adag) there
        D = 32
        h = 1e-4
        a = realize_matrix(A, D).data

        def sim(al):
            return s_operator(al, D).data @ a @ s_operator(-al, D).data

        fd = (sim(h) - sim(-h)) / (2 * h)
        want = realize_matrix(AD, D).data  # -sin(0) a + cos(0) adag
        assert np.abs(interior_block(fd - want, 1, D, 4)).max() <= 1e-5

    def test_rotated_annihilation_matches_similarity_on_states(self):
        # at finite angle the dense similarity is only trustworthy on
        # vectors with bounded occupation; a small coherent state qualifies
        # (the window is narrow: past alpha ~ 0.3 the inverse factor
        # amplifies rounding noise through the truncation edge)
        from fockdm.states import pseudo_wavefunction
        D = 32
        alpha = 0.2
        a = realize_matrix(A, D).data
        w = pseudo_wavefunction(state1(0.5, 0.3), D)
        routed = s_operator(alpha, D).data @ (
            a @ (s_operator(-alpha, D).data @ w))
        direct = rotated_annihilation(alpha, D) @ w
        assert np.linalg.norm(routed - direct) <= 1e-6


class TestFlowCoeffs:
    def test_at_zero(self):
        assert flow_coeffs(0.0) == (1.0, 0.0)

    def test_at_pi_over_six(self):
        c, d = flow_coeffs(math.pi / 6)
        assert abs(c - 4.0) <= 1e-12
        assert abs(d + 4.0 * math.sqrt(3.0)) <= 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            flow_coeffs(math.pi / 4)

    def test_divergence_toward_pole(self):
        c1, d1 = flow_coeffs(math.pi / 4 - 1e-2)
        c2, d2 = flow_coeffs(math.pi / 4 - 1e-3)
        assert abs(c2) > 10 * abs(c1) / 2 and abs(c2) > 1e4
        assert abs(d2) > abs(d1)


class TestRhoZTrace:
    def test_norm_one_at_zero(self):
        trace = rho_z_trace(state1(1.0, 0.0), [0.0, 0.1], 32)
        assert abs(trace.norms[0] - 1.0) <= 1e-10

    def test_monotone_growth_for_position_state_past_the_dip(self):
        # the x-squeezing side first shrinks a position-displaced state;
        # past alpha ~ 1/3 the momentum amplification wins and growth is
        # strictly monotone
        grid = np.linspace(1 / 3, math.pi / 4 - 1e-3, 16)
        trace = rho_z_trace(state1(1.0, 0.0), grid, 32)
        assert trace.is_monotone()

    def test_monotone_from_zero_for_momentum_state(self):
        grid = np.linspace(0.0, math.pi / 4 - 1e-3, 20)
        trace = rho_z_trace(state1(0.0, 2.0), grid, 64)
        assert trace.is_monotone()

    def test_threshold_crossing_at_d64(self):
        grid = np.linspace(0.0, math.pi / 4 - 1e-3, 20)
        trace = rho_z_trace(state1(0.0, 2.0), grid, 64, threshold=1e6)
        assert trace.threshold_alpha is not None
        assert trace.threshold_alpha < math.pi / 4

    def test_growth_steepens_with_cutoff(self):
        grid = np.linspace(0.0, math.pi / 4 - 1e-3, 20)
        small = rho_z_trace(state1(0.0, 2.0), grid, 32)
        large = rho_z_trace(state1(0.0, 2.0), grid, 64)
        assert large.norms[-1] > 100 * small.norms[-1]

    def test_residuals_match_the_spectral_norm_form(self):
        # rho_z = S rho S, the residuals as spectral norms of D x D matrices
        state = state1(0.7, -0.4)
        D = 24
        grid = np.linspace(0.0, math.pi / 4 - 1e-2, 6)
        trace = rho_z_trace(state, grid, D)
        phi = realize_matrix(A + AD, D).data / math.sqrt(2)
        z = state.z[0]
        rho = np.outer(pseudo_wavefunction(state, D),
                       pseudo_wavefunction(state, D).conj())
        for i, alpha in enumerate(grid):
            s = s_operator(alpha, D).data
            rho_z = s @ rho @ s
            size = np.linalg.norm(rho_z, 2)
            r7 = np.linalg.norm(rho_z @ phi - np.conj(z) * rho_z, 2) / size
            r8 = np.linalg.norm(phi @ rho_z - z * rho_z, 2) / size
            assert trace.norms[i] == pytest.approx(size, rel=1e-10)
            assert trace.residual_a7[i] == pytest.approx(r7, rel=1e-10)
            assert trace.residual_a8[i] == pytest.approx(r8, rel=1e-10)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rho_z_trace(state1(0.0, 1.0), [0.2, 0.1], 16)
        with pytest.raises(ValueError):
            rho_z_trace(state1(0.0, 1.0), [0.0, math.pi / 4], 16)


class TestNormFlowResidual:
    def test_exact_at_zero(self):
        assert norm_flow_residual(state1(0.5, 0.3), 0.0, 48) <= 1e-6

    def test_grows_smoothly(self):
        vals = [norm_flow_residual(state1(0.5, 0.3), a, 48)
                for a in (0.05, 0.1, 0.2, 0.3, 0.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_large_near_pole(self):
        assert norm_flow_residual(state1(0.5, 0.3), math.pi / 4 - 1e-3, 48) > 10

    def test_pole_margin_enforced(self):
        with pytest.raises(PoleError):
            norm_flow_residual(state1(0.5, 0.3), math.pi / 4 - 1e-4, 32)


class TestMOperator:
    def test_identity_at_zero(self):
        m = m_operator(0.0, 1, 8)
        assert np.allclose(m.data, np.eye(64), atol=1e-12)

    def test_hermitian(self):
        assert m_operator(math.pi / 4, 1, 12).hermiticity_defect() <= 1e-10

    def test_one_parameter_group(self):
        lhs = m_operator(0.2, 1, 10).data @ m_operator(0.15, 1, 10).data
        rhs = m_operator(0.35, 1, 10).data
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_doubled_recoding_is_cutoff_stable_at_the_pole_angle(self):
        # the whole point of the doubled space: the pi/4 recoding stays
        # bounded, norms at D=16 and D=32 agree to far better than 10%
        s = state1(0.5, 0.3)
        norms = {}
        for cutoff in (16, 32):
            wt = extended_wavefunction(s, cutoff)
            m = m_operator(math.pi / 4, 1, cutoff)
            norms[cutoff] = float(np.linalg.norm(m.data @ wt))
        change = abs(norms[32] - norms[16]) / norms[16]
        assert change < 1e-6
        assert np.isfinite(norms[32])

    def test_two_pair_layout(self):
        s = ClassicalState(np.array([0.3, -0.2]), np.array([0.1, 0.4]))
        D = 6
        wt = extended_wavefunction(s, D)
        m = m_operator(0.3, 2, D)
        assert m.modes == 4
        out = m.data @ wt
        assert np.isfinite(np.linalg.norm(out))


class TestParadoxDemo:
    def test_residuals_grow_with_cutoff_near_pole(self):
        rows = paradox_demo(state1(0.5, 0.3), cutoffs=(16, 32, 64),
                            epsilons=(0.3, 0.03, 0.003))
        near = {r.cutoff: r for r in rows if r.epsilon == 0.003}
        assert near[16].residual_a8 < near[32].residual_a8 < near[64].residual_a8

    def test_residuals_grow_toward_pole(self):
        rows = paradox_demo(state1(0.5, 0.3), cutoffs=(64,),
                            epsilons=(0.3, 0.03, 0.003))
        by_eps = sorted(rows, key=lambda r: -r.epsilon)
        vals = [r.residual_a8 for r in by_eps]
        assert vals[0] < vals[1] < vals[2]

    def test_both_relations_fail_together(self):
        # the two sides are Hermitian conjugates, so their failures agree
        rows = paradox_demo(state1(0.5, 0.3), cutoffs=(32,),
                            epsilons=(0.1, 0.01))
        for r in rows:
            assert r.residual_a7 == pytest.approx(r.residual_a8, rel=1e-8)
            assert r.residual_a7 > 0.1  # order-one failure everywhere
