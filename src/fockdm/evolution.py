"""Time evolution of moment matrices: two competing generators.

* The quantum Liouville law  rhodot = -i [H_n, rho].
* The free-space master equation induced by the classical flow,

      rhodot = rho' + rho'^H,
      rho'   = i sum_{j,a} C_a ( a_j [adag_j, H_aR] rho H_aL
                               - adag_j H_aR rho [a_j, H_aL] ),

  where C_a H_aL H_aR ranges over the Hermitian-paired words of H_n.  The
  inner commutators close in the word algebra ([adag, a^r] = -r a^(r-1) and
  [a, adag^l] = l adag^(l-1)), so every ingredient is precomputed
  symbolically and realized once per cutoff.

For ensembles of pure classical states the two generators agree on the
trajectory of the state only in special cases; quantifying the mismatch is
the job of the discrepancy module.  Trace is conserved by the master
equation for arbitrary matrices, Hermitian or not, realizable or not.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import NormalFormOperator, hermitian_pair_check
from .fock import DIM_CAP, FockMatrix, check_dimension, realize_matrix
from .states import DensityMatrix

log = logging.getLogger(__name__)


class PairingError(ValueError):
    """The Hamiltonian words do not pair off under Hermitian conjugation."""


@dataclass(frozen=True)
class _TermMatrices:
    """Realized (pre, post) sandwich factors for one cutoff."""

    pairs: list[tuple[np.ndarray, np.ndarray]]


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
    Hermitian input it coincides with rho' + (rho')^H.  Realized matrices
    are cached per cutoff.
    """

    def __init__(self, hamiltonian: NormalFormOperator):
        ok, pairing = hermitian_pair_check(hamiltonian)
        if not ok:
            raise PairingError(
                "the Hamiltonian operator is not Hermitian-paired")
        self.operator = hamiltonian
        self.pairing = pairing
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
        self._matrix_cache: dict[int, _TermMatrices] = {}

    def commutator_words(self, create: tuple, annih: tuple,
                         mode: int) -> tuple[NormalFormOperator, NormalFormOperator]:
        """Symbolic ([adag_j, a^R], [a_j, adag^L]) for one word and mode."""
        n = self.modes
        zero = (0,) * n
        drop_r = tuple(e - 1 if j == mode else e for j, e in enumerate(annih))
        drop_l = tuple(e - 1 if j == mode else e for j, e in enumerate(create))
        left = (NormalFormOperator(n, {(zero, drop_r): -annih[mode]})
                if annih[mode] else NormalFormOperator.zero(n))
        right = (NormalFormOperator(n, {(drop_l, zero): create[mode]})
                 if create[mode] else NormalFormOperator.zero(n))
        return left, right

    def realize(self, cutoff: int, cap: int = DIM_CAP) -> _TermMatrices:
        cached = self._matrix_cache.get(cutoff)
        if cached is not None:
            return cached
        check_dimension(self.modes, cutoff, cap)
        n = self.modes

        def word_mat(create, annih):
            return realize_matrix(NormalFormOperator(n, {(tuple(create),
                                                          tuple(annih)): 1.0}),
                                  cutoff, cap).data

        pairs = [(coeff * word_mat(pc, pa), word_mat(qc, qa))
                 for coeff, pc, pa, qc, qa in self.sandwich_terms]
        out = _TermMatrices(pairs)
        self._matrix_cache[cutoff] = out
        return out


def liouville_rhs(rho: DensityMatrix | np.ndarray, hamiltonian: NormalFormOperator,
                  cutoff: int, cap: int = DIM_CAP) -> np.ndarray:
    """-i (H_n rho - rho H_n)."""
    data = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho)
    hmat = realize_matrix(hamiltonian, cutoff, cap).data
    if hmat.shape != data.shape:
        raise ValueError("dimension mismatch between rho and H_n")
    return -1j * (hmat @ data - data @ hmat)


def master_rhs(rho: DensityMatrix | np.ndarray, terms: MasterTerms,
               cutoff: int, cap: int = DIM_CAP) -> np.ndarray:
    """Free-space master equation right-hand side (unfolded form)."""
    data = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho)
    mats = terms.realize(cutoff, cap)
    dim = cutoff ** terms.modes
    if data.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the term table")
    out = np.zeros_like(data, dtype=complex)
    for pre, post in mats.pairs:
        out += pre @ data @ post
    return out


def evolve_density(rho0: DensityMatrix, generator: str,
                   hamiltonian: NormalFormOperator, t: float, dt: float,
                   cap: int = DIM_CAP) -> DensityMatrix:
    """Fixed-step RK4 in matrix space under either generator.

    The iterate is re-symmetrized each step; the asymmetry removed that way
    and the total trace drift are reported through the module logger, not
    silently discarded.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = int(round(t / dt))
    if abs(t - steps * dt) > 1e-9 * max(1.0, abs(t)):
        raise ValueError("t must be an integer multiple of dt")
    cutoff = rho0.cutoff
    if generator == "liouville":
        hmat = realize_matrix(hamiltonian, cutoff, cap).data

        def rhs(m):
            return -1j * (hmat @ m - m @ hmat)
    elif generator == "master":
        terms = MasterTerms(hamiltonian)
        terms.realize(cutoff, cap)

        def rhs(m):
            return master_rhs(m, terms, cutoff, cap)
    else:
        raise ValueError(f"unknown generator {generator!r}")

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
              generator, steps, worst_asym, drift)
    return DensityMatrix(FockMatrix(rho0.modes, cutoff, rho),
                         hermitian=rho0.hermitian,
                         unit_trace=rho0.unit_trace,
                         provenance=rho0.provenance)


def time_average_project(rho: DensityMatrix, hamiltonian: NormalFormOperator,
                         energy: float, delta: float, dt: float | None = None,
                         cap: int = DIM_CAP) -> DensityMatrix:
    """Trace-normalized time average of e^{i(H-E)t} rho e^{-i(H-E)t}.

    Trapezoid quadrature over [0, delta] at step dt (default
    min(0.01, delta/1000)) in the eigenbasis of H_n; the energy offset E
    cancels between the two exponentials, so it only documents which shell
    the state lives on.  Off-diagonal elements between eigenspaces with gap
    w decay like 2 sin(w delta / 2) / (w delta).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    dt = min(0.01, delta / 1000) if dt is None else dt
    steps = max(1, int(round(delta / dt)))
    hmat = realize_matrix(hamiltonian, rho.cutoff, cap)
    if hmat.hermiticity_defect() > 1e-10:
        raise ValueError("projection requires a Hermitian generator")
    evals, vecs = np.linalg.eigh(hmat.data)
    rho_eig = vecs.conj().T @ rho.data @ vecs
    omega = evals[:, None] - evals[None, :]
    phase_sum = np.zeros_like(rho_eig)
    weights = np.ones(steps + 1)
    weights[0] = weights[-1] = 0.5
    chunk = 512
    for start in range(0, steps + 1, chunk):
        ts = (np.arange(start, min(start + chunk, steps + 1)) * dt)
        w = weights[start:start + ts.size]
        phase_sum += np.tensordot(w, np.exp(1j * omega[None, :, :] * ts[:, None, None]),
                                  axes=(0, 0))
    averaged = rho_eig * phase_sum * (dt / delta)
    out = vecs @ averaged @ vecs.conj().T
    out /= np.trace(out).real
    return DensityMatrix(FockMatrix(rho.modes, rho.cutoff, out),
                         hermitian=rho.hermitian, unit_trace=True,
                         provenance=rho.provenance)


def projection_decay(rho: DensityMatrix, hamiltonian: NormalFormOperator,
                     energy: float, deltas):
    """Rows (delta, largest off-diagonal element, C estimate, trace error)
    of the time average at each delta, and the spread of the C estimates.

    Off-diagonal means between distinct eigenvalues of H_n: those are the
    elements the average suppresses like C/delta.  The spread is
    max/min of off * delta, infinite when some average has none left.
    """
    evals = np.linalg.eigvalsh(realize_matrix(hamiltonian, rho.cutoff).data)
    gap = np.abs(evals[:, None] - evals[None, :]) > 1e-9
    rows = []
    for delta in deltas:
        out = time_average_project(rho, hamiltonian, energy, delta)
        off = float(np.max(np.abs(out.data[gap]))) if gap.any() else 0.0
        rows.append((delta, off, off * delta, abs(out.matrix.trace() - 1.0)))
    estimates = [row[2] for row in rows]
    band = max(estimates) / min(estimates) if min(estimates) > 0 else math.inf
    return rows, band
