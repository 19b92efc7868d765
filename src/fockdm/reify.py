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
single-mode divergence is gone.  Both exponentials are read off
``fock.eigensystem`` of their generators, one sector at a time (the S
generator keeps the occupation parity, the M one the quanta of each pair),
so the exponent's huge dynamic range never leaks rounding noise across
sectors, as a dense eigendecomposition would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import NormalFormOperator
from .fock import FockMatrix, check_dimension, eigensystem, realize_matrix
from .states import ClassicalState, pseudo_wavefunction

_MARGIN = 1e-3


class PoleError(ValueError):
    """Requested alpha sits on (or too close to) the pi/4 pole."""


_A = NormalFormOperator.annihilation()
# (adag adag + a a) / 2, the generator of S(alpha) = exp(-alpha gen)
_S_GENERATOR = NormalFormOperator(1, {((2,), (0,)): 0.5, ((0,), (2,)): 0.5})


def s_operator(alpha: float, cutoff: int) -> FockMatrix:
    """Single-mode reification operator at the given cutoff."""
    if cutoff < 4:
        raise ValueError("cutoff must be >= 4")
    eig = eigensystem(_S_GENERATOR, cutoff)
    return FockMatrix(1, cutoff, eig.dense(np.exp(-alpha * eig.values)))


def rotated_annihilation(alpha: float, cutoff: int) -> np.ndarray:
    """cos(alpha) a + sin(alpha) adag, the similarity image of a under S."""
    return realize_matrix(_A.scale(math.cos(alpha))
                          + _A.adjoint().scale(math.sin(alpha)), cutoff).data


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
    residual_a7: np.ndarray
    residual_a8: np.ndarray
    threshold: float
    threshold_alpha: float | None

    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.norms) > 0))


def rho_z_trace(state: ClassicalState, alphas, cutoff: int,
                threshold: float = 1e6) -> ReificationTrace:
    """Norms of S rho S along an alpha grid, with eigenrelation residuals.

    The residual columns measure how far the recoded matrix is from the
    pi/4 eigenrelations rho_z Phi = y rho_z and Phi rho_z = z rho_z with
    Phi = (a + adag)/sqrt2; they cannot both hold, and the failure grows
    toward the pole and with the cutoff.  For rank-one rho_z = u u^H, real
    symmetric Phi and y = conj(z), both spectral-norm residuals divided by
    ||rho_z||_2 equal ||Phi u - z u|| / ||u||, so the two columns coincide.
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
    eig = eigensystem(_S_GENERATOR, cutoff)
    # rank-one structure: ||S rho S||_2 = ||S w||^2, one column u per alpha
    coeffs = eig.to_eigenbasis(pseudo_wavefunction(state, cutoff))
    u = eig.from_eigenbasis(np.exp(-np.outer(eig.values, alphas))
                            * coeffs[:, None])
    phi_op = realize_matrix(_A + _A.adjoint(), cutoff).data / math.sqrt(2)
    lengths = np.linalg.norm(u, axis=0)
    norms = lengths ** 2
    residuals = np.linalg.norm(phi_op @ u - state.z[0] * u, axis=0) / lengths
    above = np.nonzero(norms > threshold)[0]
    crossing = float(alphas[above[0]]) if above.size else None
    return ReificationTrace(alphas=alphas, norms=norms, cutoff=cutoff,
                            residual_a7=residuals, residual_a8=residuals,
                            threshold=threshold, threshold_alpha=crossing)


def norm_flow_residual(state: ClassicalState, alpha: float, cutoff: int) -> float:
    """Trace leak of the normalized recoding flow with the rough c, d.

    Assembles  -K rho - rho K + c a(alpha)^2 rho + c rho (a(alpha)^H)^2
    + d a(alpha) rho a(alpha)^H  on the trace-normalized rho(alpha) and
    returns |Tr(...)|, which the exact flow coefficients would zero.  The
    published closed forms are only claimed roughly, and indeed the leak
    vanishes at alpha = 0 and grows smoothly toward the pole.
    """
    if alpha < 0 or alpha > math.pi / 4 - _MARGIN:
        raise PoleError("alpha must sit in [0, pi/4 - margin]")
    c, d = flow_coeffs(alpha)
    u = s_operator(alpha, cutoff).data @ pseudo_wavefunction(state, cutoff)
    rho = np.outer(u, u.conj())
    rho /= np.trace(rho).real
    gen = realize_matrix(_S_GENERATOR, cutoff).data
    a_rot = rotated_annihilation(alpha, cutoff)
    rhs = (-gen @ rho - rho @ gen
           + c * (a_rot @ a_rot @ rho)
           + c * (rho @ a_rot.conj().T @ a_rot.conj().T)
           + d * (a_rot @ rho @ a_rot.conj().T))
    return abs(complex(np.trace(rhs)))


def m_operator(alpha: float, modes: int, cutoff: int) -> FockMatrix:
    """Doubled-space reification operator over n mode pairs.

    Acts on the interleaved (a_1, b_1, a_2, b_2, ...) layout used by
    ``extended_wavefunction``.
    """
    check_dimension(2 * modes, cutoff)  # before the 2n unit words exist
    unit = [tuple(row) for row in np.eye(2 * modes, dtype=int).tolist()]
    # sum_j (adag_j b_j + a_j bdag_j): each word creates on mode i and
    # annihilates on its partner i ^ 1
    eig = eigensystem(NormalFormOperator(2 * modes, {
        (unit[i], unit[i ^ 1]): 1.0 for i in range(2 * modes)}), cutoff)
    return FockMatrix(2 * modes, cutoff,
                      eig.dense(np.exp(-alpha * eig.values)))
