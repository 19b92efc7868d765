import math

import numpy as np
import pytest

from fockdm.algebra import NormalFormOperator
from fockdm.fock import (
    apply,
    compile_operator,
    eigensystem,
    interior_block,
    realize_matrix,
)
from fockdm.reify import (
    S_GENERATOR,
    PoleError,
    flow_coeffs,
    m_generator,
    rho_z_trace,
    s_action,
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


def s_operator(alpha, D):
    """The dense S(alpha) at cutoff D: its action on the identity."""
    return s_action([alpha], np.eye(D), D)[:, 0]


def m_operator(alpha, modes, D):
    """The dense M(alpha) over modes pairs at cutoff D: its action on the
    identity, on the interleaved layout of extended_wavefunction."""
    return eigensystem(m_generator(modes), D).flow(
        np.eye(D ** (2 * modes)))(alpha)


def rotated_annihilation(alpha):
    """cos(alpha) a + sin(alpha) adag, the similarity image of a under S."""
    return A.scale(math.cos(alpha)) + AD.scale(math.sin(alpha))


def norm_flow_residual(state, alpha, cutoff):
    """Trace leak of the normalized recoding flow with the rough c, d.

    -G rho - rho G + c A^2 rho + c rho (A^H)^2 + d A rho A^H, A = a(alpha),
    on rho = u u^H / <u|u>, u = S w, has the trace (-2 <u|G u> + 2 c Re
    <u|A A u> + d ||A u||^2) / <u|u>, returned as a modulus, which exact
    flow coefficients would zero.  The closed forms are claimed only
    roughly: the leak vanishes at alpha = 0 and grows toward the pole.
    """
    c, d = flow_coeffs(alpha)
    u = s_action([alpha], pseudo_wavefunction(state, cutoff), cutoff)[:, 0]
    gen, a_rot = (compile_operator(op, cutoff) for op in
                  (S_GENERATOR, rotated_annihilation(alpha)))
    a_u = apply(a_rot, u, np.zeros_like(u))
    trace = (-2 * np.vdot(u, apply(gen, u, np.zeros_like(u))).real
             + 2 * c * np.vdot(u, apply(a_rot, a_u, np.zeros_like(u))).real
             + d * np.vdot(a_u, a_u).real) / np.vdot(u, u).real
    return abs(float(trace))


class TestSOperator:
    def test_identity_at_zero(self):
        s = s_operator(0.0, 16)
        assert np.allclose(s, np.eye(16), atol=1e-12)

    def test_hermitian(self):
        data = s_operator(0.4, 32)
        assert np.max(np.abs(data - data.conj().T)) <= 1e-10

    def test_one_parameter_group(self):
        a1, a2 = 0.13, 0.21
        lhs = s_operator(a1, 24) @ s_operator(a2, 24)
        rhs = s_operator(a1 + a2, 24)
        diff = np.abs(interior_block(lhs - rhs, 1, 24, 4))
        assert diff.max() <= 1e-8

    def test_similarity_rotates_ladder_first_order(self):
        # S(da) a S(da)^-1 = a + adag da + O(da^2): second-order slope check
        D = 32
        a = realize_matrix(A, D).data
        ad = realize_matrix(AD, D).data
        residuals = []
        for da in (1e-3, 1e-4):
            s = s_operator(da, D)
            sinv = s_operator(-da, D)
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
        s = s_operator(da, D)
        sinv = s_operator(-da, D)
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
            return s_operator(al, D) @ a @ s_operator(-al, D)

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
        routed = s_operator(alpha, D) @ (
            a @ (s_operator(-alpha, D) @ w))
        direct = realize_matrix(rotated_annihilation(alpha), D).data @ w
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
        trace = rho_z_trace(state1(0.0, 2.0), grid, 64)
        above = trace.norms > 1e6
        assert above.any()
        assert trace.alphas[above][0] < math.pi / 4

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
            s = s_operator(alpha, D)
            rho_z = s @ rho @ s
            size = np.linalg.norm(rho_z, 2)
            r7 = np.linalg.norm(rho_z @ phi - np.conj(z) * rho_z, 2) / size
            r8 = np.linalg.norm(phi @ rho_z - z * rho_z, 2) / size
            assert trace.norms[i] == pytest.approx(size, rel=1e-10)
            assert trace.residuals[i] == pytest.approx(r7, rel=1e-10)
            assert trace.residuals[i] == pytest.approx(r8, rel=1e-10)

    @staticmethod
    def taylor_norms(states, alphas, cutoff, steps=200, terms=20):
        # ||exp(-alpha G) w||^2 per state and alpha, G = (adag^2 + a^2)/2,
        # by Taylor steps in long double straight on the number basis: no
        # eigendecomposition; the real and imaginary parts of every w at
        # every alpha are the columns of one block, each with its own step
        k = np.arange(cutoff - 2, dtype=np.longdouble)
        off = (np.sqrt((k + 1) * (k + 2)) / 2)[:, None]
        w = np.stack([pseudo_wavefunction(s, cutoff) for s in states], axis=1)
        x = np.repeat(np.hstack([w.real, w.imag]), len(alphas),
                      axis=1).astype(np.longdouble)
        h = np.tile(np.asarray(alphas, dtype=np.longdouble),
                    2 * len(states)) / steps
        for _ in range(steps):
            term, acc = x, x.copy()
            for n in range(1, terms + 1):
                g = np.zeros_like(term)
                g[:-2] += off * term[2:]
                g[2:] += off * term[:-2]
                term = g * (-h / n)
                acc += term
            x = acc
        parts = (x * x).sum(axis=0).reshape(2, len(states), len(alphas))
        return parts.sum(axis=0).astype(float)

    def test_norm_matches_long_double_oracle_at_d64(self):
        # the S generator keeps the occupation parity; a dense eigh leaked
        # rounding across the two parity sectors and read 2.347133957e11
        state, alpha = state1(0.0, 2.0), math.pi / 4 - 1e-3
        [[oracle]] = self.taylor_norms([state], [alpha], 64)
        assert oracle == pytest.approx(2.347019291409792e11, rel=1e-9)
        [norm] = rho_z_trace(state, [alpha], 64).norms
        assert norm == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("cutoff", [64, 128, 256])
    def test_norms_match_long_double_oracle_up_to_d256(self, cutoff):
        # the truncated S generator has eigenvalues up to about D, so an
        # eigenbasis read amplified rounding by up to e^(alpha D): at D=128
        # the state (0, 2) read 7.8e26 against 1.44e17 and at D=256 the
        # state (1, 0) read 1.3e84 against 4.30
        alphas = [math.pi / 4 - eps for eps in (0.5, 0.1, 0.01)]
        states = [state1(phi, pi_)
                  for phi, pi_ in ((0.0, 2.0), (0.5, 0.3), (1.0, 0.0))]
        oracle = self.taylor_norms(states, alphas, cutoff, steps=400, terms=24)
        for state, want in zip(states, oracle):
            norms = rho_z_trace(state, alphas, cutoff).norms
            assert norms == pytest.approx(want, rel=1e-10)

    @staticmethod
    def free_space_norm(state, alpha):
        # ||S(alpha) w(z)||^2 in the untruncated space, from the su(1,1)
        # disentangling exp(-alpha G) = exp(-t K+) (cos alpha)^(-2 K0)
        # exp(-t K-) (Perelomov, Commun. Math. Phys. 26, 222, 1972):
        # exp(-|z|^2 - t Re z^2 + q / cos 2alpha) / sqrt(cos 2alpha) with
        # t = tan alpha and q = |z|^2 - t Re z^2
        z = complex(state.z[0])
        t, cos2 = math.tan(alpha), math.cos(2 * alpha)
        q = abs(z) ** 2 - t * (z * z).real
        return math.exp(-abs(z) ** 2 - t * (z * z).real + q / cos2) \
            / math.sqrt(cos2)

    @pytest.mark.parametrize("phi, pi_, epsilons", [
        (0.5, 0.3, (0.5, 0.3, 0.1)),
        (1.0, 0.0, (0.5, 0.3, 0.1)),
        (0.7, 0.7, (0.5, 0.3, 0.1)),
        (0.0, 2.0, (0.5, 0.3)),
    ])
    def test_norms_match_the_free_space_closed_form_at_d256(self, phi, pi_,
                                                            epsilons):
        # where the truncation costs less than 1e-12 of the norm; the state
        # (0, 2) at pi/4 - 0.1 still loses 1.4e-4 of it through the top of
        # the ladder at D=256
        state = state1(phi, pi_)
        alphas = [math.pi / 4 - eps for eps in epsilons]
        want = [self.free_space_norm(state, alpha) for alpha in alphas]
        assert rho_z_trace(state, alphas, 256).norms \
            == pytest.approx(want, rel=1e-12)

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


def pair_exchange_block(alpha, cutoff):
    """exp(-alpha (adag b + a bdag)) on one mode pair: each sector of fixed
    n_a + n_b is a real symmetric tridiagonal matrix, exponentiated on its
    own."""
    dim = cutoff * cutoff
    out = np.zeros((dim, dim))
    for total in range(2 * cutoff - 1):
        na = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
        idx = na * cutoff + (total - na)
        # <na+1, nb-1| adag b |na, nb> = sqrt((na+1) nb)
        off = np.sqrt((na[:-1] + 1.0) * (total - na[:-1]))
        block = np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eigh(block)
        out[np.ix_(idx, idx)] = (v * np.exp(-alpha * w)) @ v.T
    return out


class TestMOperator:
    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4])
    @pytest.mark.parametrize("D", [16, 32])
    def test_matches_per_sector_tridiagonal_reference(self, alpha, D):
        want = pair_exchange_block(alpha, D)
        got = m_operator(alpha, 1, D)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_two_pairs_match_the_kron_reference(self):
        block = pair_exchange_block(0.3, 6)
        want = np.kron(block, block)
        got = m_operator(0.3, 2, 6)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_identity_at_zero(self):
        assert np.allclose(m_operator(0.0, 1, 8), np.eye(64), atol=1e-12)

    def test_hermitian(self):
        data = m_operator(math.pi / 4, 1, 12)
        assert np.max(np.abs(data - data.conj().T)) <= 1e-10

    def test_one_parameter_group(self):
        lhs = m_operator(0.2, 1, 10) @ m_operator(0.15, 1, 10)
        rhs = m_operator(0.35, 1, 10)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_doubled_recoding_is_cutoff_stable_at_the_pole_angle(self):
        # the whole point of the doubled space: the pi/4 recoding stays
        # bounded, norms at D=16 and D=32 agree to far better than 10%
        s = state1(0.5, 0.3)
        norms = {}
        for cutoff in (16, 32):
            wt = extended_wavefunction(s, cutoff)
            m = m_operator(math.pi / 4, 1, cutoff)
            norms[cutoff] = float(np.linalg.norm(m @ wt))
        change = abs(norms[32] - norms[16]) / norms[16]
        assert change < 1e-6
        assert np.isfinite(norms[32])

    @pytest.mark.parametrize("phi, pi_", [(0.5, 0.3), (0.7, 0.7)])
    @pytest.mark.parametrize("D", [32, 64])
    def test_pole_angle_norm_matches_the_free_space_closed_form(self, phi,
                                                               pi_, D):
        # ||M(alpha) w~|| = exp((|c'|^2 - |c|^2) / 2) with c = (z, conj z)
        # and c' = [[cosh alpha, -sinh alpha], [-sinh alpha, cosh alpha]] c,
        # at alpha = pi/4; M(alpha) w~ is m_operator's action on w~
        state, alpha = state1(phi, pi_), math.pi / 4
        c = np.array([state.z[0], np.conj(state.z[0])])
        c_new = np.array([[math.cosh(alpha), -math.sinh(alpha)],
                          [-math.sinh(alpha), math.cosh(alpha)]]) @ c
        want = math.exp((np.sum(np.abs(c_new) ** 2)
                         - np.sum(np.abs(c) ** 2)) / 2)
        got = np.linalg.norm(eigensystem(m_generator(1), D).flow(
            extended_wavefunction(state, D))(alpha))
        assert got == pytest.approx(want, rel=1e-11)

    def test_two_pair_layout(self):
        s = ClassicalState(np.array([0.3, -0.2]), np.array([0.1, 0.4]))
        D = 6
        wt = extended_wavefunction(s, D)
        m = m_operator(0.3, 2, D)
        assert m.shape == (D ** 4, D ** 4)
        out = m @ wt
        assert np.isfinite(np.linalg.norm(out))


class TestParadoxDemo:
    # the incompatible pi/4 eigenrelations at alpha = pi/4 - eps, read by
    # rho_z_trace at one cutoff along the eps grid, far end of the pole first
    @staticmethod
    def residuals(cutoff, epsilons):
        alphas = [math.pi / 4 - eps for eps in epsilons]
        return rho_z_trace(state1(0.5, 0.3), alphas, cutoff).residuals

    def test_residuals_grow_with_cutoff_near_pole(self):
        near = {cutoff: self.residuals(cutoff, (0.3, 0.03, 0.003))[-1]
                for cutoff in (16, 32, 64)}
        assert near[16] < near[32] < near[64]

    def test_residuals_grow_toward_pole(self):
        # at D=64 the exact residual dips before it grows (0.447, 0.291,
        # 0.366 at eps 0.3, 0.05, 0.03 by 60-digit arithmetic), so the grid
        # starts past the dip
        vals = self.residuals(64, (0.03, 0.01, 0.003))
        assert vals[0] < vals[1] < vals[2]

    def test_both_relations_fail_together(self):
        # the two sides are Hermitian conjugates, so one residual measures
        # both (test_residuals_match_the_spectral_norm_form checks each side)
        for r in self.residuals(32, (0.1, 0.01)):
            assert r > 0.1  # order-one failure everywhere
