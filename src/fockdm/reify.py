"""Reification: squeeze-type recodings of the moment matrix and their limits.

The single-mode recoding uses the Hermitian operator

    S(alpha) = exp(-(alpha/2) (adag adag + a a)),

which rotates a into (cos alpha) a + (sin alpha) adag under similarity.  At
alpha = pi/4 the rotation would identify the left eigenvalue z and the
right eigenvalue y of the recoded matrix rho_z = S rho S with eigenvalues
of one Hermitian quadrature, which is impossible for complex z; the escape
hatch is that rho_z becomes unbounded there.  At finite cutoff this shows
up as norms and eigenrelation residuals that grow toward the pole and with
the cutoff, which ``rho_z_trace`` reads along an alpha grid.

The doubled-space recoding pairs every mode a_j with a partner b_j carrying
the conjugate amplitude and exchanges quanta between them:

    M(alpha) = exp(-alpha sum_j (adag_j b_j + a_j bdag_j)).

The generator conserves the quanta of each pair, so it is bounded on every
number sector and the recoded vectors stay finite at alpha = pi/4: the
single-mode divergence is gone.  S acts on vectors by ``s_action``, Taylor
sub-steps in the number basis through ``fock.apply`` of its compiled
passes, one contiguous multiply-add per flat shift: the truncated S
generator has eigenvalues up to about D, so a read in its eigenbasis
amplifies rounding by up to e^(alpha D).  M acts as the eigenbasis flow of
its generator at the rate alpha, ``eigensystem(m_generator(n),
D).flow(w)(alpha)`` (fock.Eigensystem.flow), one sector of pair quanta at
a time.  No dense S or M is formed: where one is wanted, it is the action
on the identity, ``s_action([alpha], eye, D)`` or the flow of ``eye``, and
every other operator acts on vectors through ``fock.apply``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import NormalFormOperator
from .fock import apply, compile_operator
from .states import ClassicalState, pseudo_wavefunction

# Taylor terms of an s_action sub-step: with h ||G||_2 <= 1 the rest is < 1/21!
S_TAYLOR_TERMS = 20


class PoleError(ValueError):
    """Requested alpha sits on (or too close to) the pi/4 pole."""


_A = NormalFormOperator.annihilation()
# (adag adag + a a) / 2, the generator of S(alpha) = exp(-alpha gen)
S_GENERATOR = NormalFormOperator(1, {((2,), (0,)): 0.5, ((0,), (2,)): 0.5})
_PHI = (_A + _A.adjoint()).scale(1 / math.sqrt(2))


def s_action(alphas, w: np.ndarray, cutoff: int) -> np.ndarray:
    """exp(-alpha G) w, G = S_GENERATOR, per alpha of the grid on axis 1: w,
    any D x r block, is carried from alpha = 0 through the grid by Taylor
    sub-steps of length h with h B <= 1, B the sum over the compiled passes
    of their largest |pad| (B >= ||G||_2), each summing all S_TAYLOR_TERMS
    terms (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488, 2011)."""
    # G is real, so are its pads, and a real w stays real
    table = compile_operator(S_GENERATOR, cutoff)
    bound = sum(float(np.abs(pad).max()) for _, pad in table.passes)
    u = np.array(w, dtype=np.result_type(w, float))
    out = np.empty((len(u), len(alphas)) + u.shape[1:], u.dtype)
    at = 0.0
    for i, alpha in enumerate(alphas):
        steps = math.ceil(abs(alpha - at) * bound)
        h = (alpha - at) / max(steps, 1)
        for _ in range(steps):
            term, u = u, u.copy()
            for n in range(1, S_TAYLOR_TERMS + 1):
                term = apply(table, term, np.zeros_like(term)) * (-h / n)
                u += term
        out[:, i] = u
        at = alpha
    return out


def flow_coeffs(alpha: float) -> tuple[float, float]:
    """Trace-preserving flow coefficients c, d of the recoding in alpha.

    c = 1 / cos^2(2 alpha), d = -2 sin(2 alpha) / cos^2(2 alpha); both blow
    up at alpha = pi/4, which is reported as a pole rather than an overflow.
    """
    denom = math.cos(2 * alpha) ** 2
    if denom < 1e-18:
        raise PoleError(f"flow coefficients diverge at alpha = {alpha!r}")
    return 1.0 / denom, -2.0 * math.sin(2 * alpha) / denom


@dataclass(frozen=True)
class ReificationTrace:
    alphas: np.ndarray
    norms: np.ndarray
    cutoff: int
    residuals: np.ndarray

    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.norms) > 0))


def rho_z_trace(state: ClassicalState, alphas, cutoff: int) -> ReificationTrace:
    """Norms of S rho S along an alpha grid, with eigenrelation residuals.

    The residuals measure how far the recoded matrix is from the pi/4
    eigenrelations rho_z Phi = y rho_z and Phi rho_z = z rho_z with
    Phi = (a + adag)/sqrt2; they cannot both hold, and the failure grows
    toward the pole and with the cutoff.  For rank-one rho_z = u u^H, real
    symmetric Phi and y = conj(z), both spectral-norm residuals divided by
    ||rho_z||_2 equal ||Phi u - z u|| / ||u||, one value for both relations.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("alpha grid must be a nonempty 1-d sequence")
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alpha grid must be strictly increasing")
    if alphas[0] < 0 or alphas[-1] >= math.pi / 4:
        raise ValueError("alpha grid must sit inside [0, pi/4)")
    if state.modes != 1:
        raise ValueError("the single-mode recoding takes one-mode states")
    # rank-one structure: ||S rho S||_2 = ||S w||^2, one column u per alpha
    u = s_action(alphas, pseudo_wavefunction(state, cutoff), cutoff)
    lengths = np.linalg.norm(u, axis=0)
    phi_u = apply(compile_operator(_PHI, cutoff), u, np.zeros_like(u))
    residuals = np.linalg.norm(phi_u - state.z[0] * u, axis=0) / lengths
    return ReificationTrace(alphas, lengths ** 2, cutoff, residuals)


def m_generator(modes: int) -> NormalFormOperator:
    """sum_j (adag_j b_j + a_j bdag_j), the generator of M(alpha)."""
    unit = [tuple(row) for row in np.eye(2 * modes, dtype=int).tolist()]
    # each word creates on mode i and annihilates on its partner i ^ 1
    return NormalFormOperator(2 * modes, {
        (unit[i], unit[i ^ 1]): 1.0 for i in range(2 * modes)})
