"""Reification: squeeze-type recodings of the moment matrix and their limits.

The single-mode recoding uses the Hermitian operator

    S(alpha) = exp(-(alpha/2) (adag adag + a a)),

which rotates a into (cos alpha) a + (sin alpha) adag under similarity.  At
alpha = pi/4 the rotation would identify the left eigenvalue z and the
right eigenvalue y of the recoded matrix rho_z = S rho S with eigenvalues
of one Hermitian quadrature, which is impossible for complex z; the escape
hatch is that rho_z becomes unbounded there.  At finite cutoff this shows
up as norms that keep growing with the cutoff, which is what the trace and
demo routines below exhibit.

The doubled-space recoding pairs every mode a_j with a partner b_j carrying
the conjugate amplitude and exchanges quanta between them:

    M(alpha) = exp(-alpha sum_j (adag_j b_j + a_j bdag_j)).

The generator conserves the quanta of each pair, so it is bounded on every
number sector and the recoded vectors stay finite at alpha = pi/4: the
single-mode divergence is gone.  The exponential is taken sector by sector,
which also keeps the huge dynamic range of the exponent out of the floating
point (a dense eigendecomposition would leak rounding noise across sectors
and bury the answer).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import NormalFormOperator
from .fock import FockMatrix, check_dimension, expm_hermitian, realize_matrix
from .states import ClassicalState, pseudo_wavefunction

_MARGIN = 1e-3


class PoleError(ValueError):
    """Requested alpha sits on (or too close to) the pi/4 pole."""


def _word(create: int, annih: int, cutoff: int) -> np.ndarray:
    """Dense D x D matrix of the single-mode word (adag)^create a^annih."""
    return realize_matrix(NormalFormOperator.word(1.0, (create,), (annih,)),
                          cutoff).data


@functools.lru_cache
def _s_bundle(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the S generator (shared, read-only)."""
    gen = 0.5 * (_word(2, 0, cutoff) + _word(0, 2, cutoff))
    bundle = np.linalg.eigh(gen)
    for part in bundle:
        part.setflags(write=False)
    return bundle


def s_operator(alpha: float, cutoff: int) -> FockMatrix:
    """Single-mode reification operator at the given cutoff."""
    if cutoff < 4:
        raise ValueError("cutoff must be >= 4")
    w, v = _s_bundle(cutoff)
    data = (v * np.exp(-alpha * w)) @ v.conj().T
    return FockMatrix(1, cutoff, data)


def rotated_annihilation(alpha: float, cutoff: int) -> np.ndarray:
    """cos(alpha) a + sin(alpha) adag, the similarity image of a under S."""
    return (math.cos(alpha) * _word(0, 1, cutoff)
            + math.sin(alpha) * _word(1, 0, cutoff))


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
    w, v = _s_bundle(cutoff)
    # rank-one structure: ||S rho S||_2 = ||S w||^2
    wvec = pseudo_wavefunction(state, cutoff)
    phi_op = (_word(0, 1, cutoff) + _word(1, 0, cutoff)) \
        / math.sqrt(2)
    z0 = state.z[0]
    norms = np.empty(alphas.size)
    residuals = np.empty(alphas.size)
    for i, alpha in enumerate(alphas):
        u = (v * np.exp(-alpha * w)) @ (v.conj().T @ wvec)
        length = float(np.linalg.norm(u))
        norms[i] = length ** 2
        residuals[i] = np.linalg.norm(phi_op @ u - z0 * u) / length
    crossing = None
    above = np.nonzero(norms > threshold)[0]
    if above.size:
        crossing = float(alphas[above[0]])
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
    s = s_operator(alpha, cutoff).data
    u = s @ pseudo_wavefunction(state, cutoff)
    rho = np.outer(u, u.conj())
    rho /= np.trace(rho).real
    gen = 0.5 * (_word(2, 0, cutoff) + _word(0, 2, cutoff))
    a_rot = rotated_annihilation(alpha, cutoff)
    rhs = (-gen @ rho - rho @ gen
           + c * (a_rot @ a_rot @ rho)
           + c * (rho @ a_rot.conj().T @ a_rot.conj().T)
           + d * (a_rot @ rho @ a_rot.conj().T))
    return abs(complex(np.trace(rhs)))


def _pair_exchange_block(alpha: float, cutoff: int) -> np.ndarray:
    """exp(-alpha (adag b + a bdag)) on one mode pair, sector by sector.

    The generator conserves N = n_a + n_b; each sector is a real symmetric
    tridiagonal matrix, exponentiated independently, so no rounding noise
    crosses sectors.
    """
    dim = cutoff * cutoff
    out = np.zeros((dim, dim), dtype=complex)
    for total in range(2 * cutoff - 1):
        lo = max(0, total - cutoff + 1)
        hi = min(total, cutoff - 1)
        na = np.arange(lo, hi + 1)
        size = na.size
        idx = na * cutoff + (total - na)
        if size == 1:
            out[idx[0], idx[0]] = 1.0
            continue
        # <na+1, nb-1| adag b |na, nb> = sqrt((na+1) nb)
        off = np.sqrt((na[:-1] + 1.0) * (total - na[:-1]))
        block = np.zeros((size, size))
        block[np.arange(size - 1) + 1, np.arange(size - 1)] = off
        block[np.arange(size - 1), np.arange(size - 1) + 1] = off
        out[np.ix_(idx, idx)] = expm_hermitian(block, -alpha)
    return out


def m_operator(alpha: float, modes: int, cutoff: int) -> FockMatrix:
    """Doubled-space reification operator over n mode pairs.

    Acts on the interleaved (a_1, b_1, a_2, b_2, ...) layout used by
    ``extended_wavefunction``.
    """
    check_dimension(2 * modes, cutoff)
    block = _pair_exchange_block(alpha, cutoff)
    data = block
    for _ in range(modes - 1):
        data = np.kron(data, block)
    return FockMatrix(2 * modes, cutoff, data)


@dataclass(frozen=True)
class ParadoxRow:
    cutoff: int
    epsilon: float
    norm: float
    residual_a7: float
    residual_a8: float


def paradox_demo(state: ClassicalState, cutoffs=(16, 32, 64),
                 epsilons=(0.3, 0.03, 0.003)) -> list[ParadoxRow]:
    """Residuals of the incompatible pi/4 eigenrelations near the pole.

    For rho_z = S(pi/4 - eps) rho S(pi/4 - eps), reports how badly
    rho_z Phi = y rho_z and Phi rho_z = z rho_z fail, per cutoff and eps.
    The failure is order one even far from the pole, grows as eps shrinks,
    and grows with the cutoff at fixed eps: the relations could only be
    rescued by an unbounded rho_z.
    """
    rows = []
    for cutoff in cutoffs:
        alphas = [math.pi / 4 - eps for eps in sorted(epsilons, reverse=True)]
        trace = rho_z_trace(state, alphas, cutoff, threshold=math.inf)
        for eps, norm, r7, r8 in zip(sorted(epsilons, reverse=True),
                                     trace.norms, trace.residual_a7,
                                     trace.residual_a8):
            rows.append(ParadoxRow(cutoff=cutoff, epsilon=eps, norm=float(norm),
                                   residual_a7=float(r7), residual_a8=float(r8)))
    return rows
