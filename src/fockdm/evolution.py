"""Time evolution of moment matrices: two competing generators.

* The quantum Liouville law  rhodot = -i [H_n, rho].
* The free-space master equation induced by the classical flow,

      rhodot = rho' + rho'^H,
      rho'   = i sum_{j,a} C_a ( a_j [adag_j, H_aR] rho H_aL
                               - adag_j H_aR rho [a_j, H_aL] ),

  where C_a H_aL H_aR ranges over the Hermitian-paired words of H_n.  The
  inner commutators close in the word algebra ([adag, a^r] = -r a^(r-1) and
  [a, adag^l] = l adag^(l-1)), so every ingredient is precomputed
  symbolically as a sandwich of two words, and each sandwich is applied to
  rho by slicing and scaling (fock.word_diagonal).

For ensembles of pure classical states the two generators agree on the
trajectory of the state only in special cases; quantifying the mismatch is
the job of the discrepancy module.  Trace is conserved by the master
equation for arbitrary matrices, Hermitian or not, realizable or not.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable

import numpy as np

from .algebra import NormalFormOperator, hermitian_pair_check
from .fock import FockMatrix, check_dimension, realize_matrix, word_diagonal

log = logging.getLogger(__name__)


class PairingError(ValueError):
    """The Hamiltonian words do not pair off under Hermitian conjugation."""


class MasterTerms:
    """Precomputed word data for the master-equation right-hand side.

    Construction validates the Hermitian pairing (the equivalence of the
    folded and unfolded forms of the law leans on it).  The stored sandwich
    terms realize the unfolded expansion, which per word C (adag)^L a^R and
    mode j reads

        i C ( -R_j a^R rho adag^L          - L_j adag_j a^R rho adag^(L-e_j)
              +L_j a^R rho adag^L          + R_j a^(R-e_j) rho adag^L a_j ),

    using [adag_j, a^R] = -R_j a^(R-e_j) and [a_j, adag^L] = L_j adag^(L-e_j).
    Each of the four families has a trace-cancelling partner, so the trace of
    the right-hand side vanishes identically for arbitrary input matrices,
    Hermitian or not; the whole map is linear over the complex scalars.  On
    Hermitian input it coincides with rho' + (rho')^H.
    """

    def __init__(self, hamiltonian: NormalFormOperator):
        if not hermitian_pair_check(hamiltonian):
            raise PairingError(
                "the Hamiltonian operator is not Hermitian-paired")
        self.modes = hamiltonian.modes
        n = self.modes
        zero = (0,) * n
        # sandwich terms (coeff, pre_create, pre_annih, post_create, post_annih)
        terms: list[tuple[complex, tuple, tuple, tuple, tuple]] = []
        for (create, annih), coeff in sorted(hamiltonian.words.items()):
            balance = sum(create) - sum(annih)
            if balance:
                terms.append((1j * coeff * balance, zero, annih, create, zero))
            for j in range(n):
                ej = tuple(1 if k == j else 0 for k in range(n))
                if annih[j]:
                    drop_r = tuple(e - d for e, d in zip(annih, ej))
                    terms.append((1j * coeff * annih[j],
                                  zero, drop_r, create, ej))
                if create[j]:
                    drop_l = tuple(e - d for e, d in zip(create, ej))
                    terms.append((-1j * coeff * create[j],
                                  ej, annih, drop_l, zero))
        self.sandwich_terms = terms


def master_rhs(rho: np.ndarray, terms: MasterTerms,
               cutoff: int) -> np.ndarray:
    """Free-space master equation right-hand side (unfolded form).

    rho is viewed as a (D,)*2n tensor, row modes first.  Each sandwich term
    coeff * pre rho post is one slice-and-scale of that tensor: the pre word
    acts on the row axes and the post word on the column axes through its
    transpose, so source and target swap there.
    """
    n = terms.modes
    dim = check_dimension(n, cutoff)
    if rho.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the term table")
    tensor = rho.reshape((cutoff,) * (2 * n))
    out = np.zeros(tensor.shape, dtype=complex)
    for coeff, pre_c, pre_a, post_c, post_a in terms.sandwich_terms:
        pre = word_diagonal(pre_c, pre_a, cutoff)
        post = word_diagonal(post_c, post_a, cutoff)
        scale = functools.reduce(np.multiply.outer,
                                 pre.weights + post.weights, coeff)
        out[pre.target + post.source] += scale * tensor[pre.source + post.target]
    return out.reshape(dim, dim)


def density_generator(law: str, hamiltonian: NormalFormOperator,
                      cutoff: int) -> Callable[[np.ndarray], np.ndarray]:
    """The right-hand side rho -> rhodot of either law, built once.

    "liouville" realizes H_n once for its dense commutator; "master" builds
    its MasterTerms (and checks the Hermitian pairing) once.
    """
    if law == "liouville":
        hmat = realize_matrix(hamiltonian, cutoff).data

        def liouville(m):
            return -1j * (hmat @ m - m @ hmat)
        return liouville
    if law == "master":
        terms = MasterTerms(hamiltonian)

        def master(m):
            return master_rhs(m, terms, cutoff)
        return master
    raise ValueError(f"unknown generator {law!r}")


def evolve_density(rho0: FockMatrix, rhs: Callable[[np.ndarray], np.ndarray],
                   t: float, dt: float) -> FockMatrix:
    """Fixed-step RK4 in matrix space under a generator from density_generator.

    The iterate is re-symmetrized each step; the asymmetry removed that way
    and the total trace drift are reported through the module logger, not
    silently discarded.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = int(round(t / dt))
    if abs(t - steps * dt) > 1e-9 * max(1.0, abs(t)):
        raise ValueError("t must be an integer multiple of dt")
    rho = rho0.data.copy()
    trace0 = np.trace(rho)
    worst_asym = 0.0
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(rho).all():
            raise FloatingPointError("density matrix left the finite domain")
        asym = float(np.max(np.abs(rho - rho.conj().T)))
        worst_asym = max(worst_asym, asym)
        rho = 0.5 * (rho + rho.conj().T)
    drift = abs(np.trace(rho) - trace0)
    log.debug("evolve_density(%s): steps=%d max_asymmetry=%.3e trace_drift=%.3e",
              rhs.__name__, steps, worst_asym, drift)
    return FockMatrix(rho0.modes, rho0.cutoff, rho)


def time_average_project(rho: FockMatrix, hamiltonian: NormalFormOperator,
                         delta: float) -> FockMatrix:
    """Trace-normalized time average of e^{iHt} rho e^{-iHt} over [0, delta]."""
    return _time_average(rho, *_eigensystem(hamiltonian, rho.cutoff), delta)[1]


def _eigensystem(hamiltonian: NormalFormOperator,
                 cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the realized H_n, which must be Hermitian."""
    hmat = realize_matrix(hamiltonian, cutoff)
    if hmat.hermiticity_defect() > 1e-10:
        raise ValueError("projection requires a Hermitian generator")
    return np.linalg.eigh(hmat.data)


def _time_average(rho: FockMatrix, evals: np.ndarray, vecs: np.ndarray,
                  delta: float) -> tuple[np.ndarray, FockMatrix]:
    """The time average in the eigenbasis (evals, vecs) of H_n, and rotated
    back to the number basis, both divided by the number-basis trace.

    Trapezoid quadrature at step dt = min(0.01, delta/1000).  An energy
    offset E in H - E would cancel between the two exponentials.  Between
    eigenvalues with gap w the N-step rule sums the geometric series
    e^{iNh} sin(Nh) / tan(h) with h = w dt / 2, which is pi-periodic in h;
    reducing h modulo pi to |h| <= pi/2 keeps sin(Nh) accurate, and where h
    is then 0 the sum is its limit N.  Off-diagonal elements decay like
    2 sin(w delta / 2) / (w delta).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    dt = min(0.01, delta / 1000)
    steps = max(1, int(round(delta / dt)))
    rho_eig = vecs.conj().T @ rho.data @ vecs
    h = (evals[:, None] - evals[None, :]) * (dt / 2)
    h -= math.pi * np.round(h / math.pi)
    zero = h == 0
    phase_sum = np.where(zero, steps, np.exp(1j * steps * h) * np.sin(steps * h)
                         / np.tan(np.where(zero, 1.0, h)))
    averaged = rho_eig * phase_sum * (dt / delta)
    out = vecs @ averaged @ vecs.conj().T
    norm = np.trace(out).real
    return averaged / norm, FockMatrix(rho.modes, rho.cutoff, out / norm)


def projection_decay(rho: FockMatrix, hamiltonian: NormalFormOperator,
                     deltas):
    """Rows (delta, largest off-diagonal element, C estimate, trace error)
    of the time average at each delta, and the spread of the C estimates.

    Off-diagonal means between distinct eigenvalues of H_n, read in its
    eigenbasis: those are the elements the average suppresses like C/delta.
    The trace error is read in the number basis.  The spread is
    max/min of off * delta, infinite when some average has none left.
    H_n is realized and diagonalized once for the mask and every delta.
    """
    evals, vecs = _eigensystem(hamiltonian, rho.cutoff)
    gap = np.abs(evals[:, None] - evals[None, :]) > 1e-9
    rows = []
    for delta in deltas:
        averaged, out = _time_average(rho, evals, vecs, delta)
        off = float(np.max(np.abs(averaged[gap]))) if gap.any() else 0.0
        rows.append((delta, off, off * delta, abs(out.trace() - 1.0)))
    estimates = [row[2] for row in rows]
    band = max(estimates) / min(estimates) if min(estimates) > 0 else math.inf
    return rows, band
