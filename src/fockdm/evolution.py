"""Time evolution of moment matrices: two competing generators.

* The quantum Liouville law rhodot = -i [H_n, rho], applied exactly to the
  members of rho = W diag(p) W^H in the eigenbasis of H_n: every column
  moves as U w with U = exp(-i t H_n), and each sample stays a member block
  (fock.MemberBlock).  H_n is diagonalized per invariant sector of its
  words (fock.eigensystem), and U is never formed.
* The free-space master equation induced by the classical flow,

      rhodot = rho' + rho'^H,
      rho'   = i sum_{j,a} C_a ( a_j [adag_j, H_aR] rho H_aL
                               - adag_j H_aR rho [a_j, H_aL] ),

  over the Hermitian-paired words C_a H_aL H_aR of H_n.  The inner
  commutators close in the word algebra, so rho' is a sum of sandwiches of
  two words, which MasterTerms compiles and folds once (fock.fold) and
  master_rhs applies on the flat basis index, one contiguous pass per flat
  shift (fock.apply); master_rhs adds the adjoint and conserves the trace
  of any matrix, Hermitian or not, realizable or not.

The two generators agree on the trajectory of a pure classical state only
in special cases; the discrepancy module quantifies the mismatch.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable, Iterator

import numpy as np

from .algebra import NormalFormOperator
from .fock import (
    Eigensystem,
    FockMatrix,
    MemberBlock,
    PairingError,
    apply,
    check_dimension,
    check_pairing,
    compile_operator,
    eigensystem,
    fold,
)
from .states import Ensemble, ensemble_density, rk4_step, step_count

log = logging.getLogger(__name__)


class MasterTerms:
    """The half F(rho) = rho' of the master law, compiled at one cutoff.

    Construction checks the dimension and validates the Hermitian pairing,
    on which the law rho' + rho'^H leans.  The inner commutators
    [adag_j, a^R] = -R_j a^(R-e_j) and [a_j, adag^L] = L_j adag^(L-e_j)
    give each word C (adag)^L a^R the share of rho'

        -i C ( |R| a^R rho adag^L + sum_j L_j (adag_j a^R) rho adag^(L-e_j) ),

    sandwiches pre rho post whose post word only creates.  ``groups`` holds
    one (shift, pad, pres) entry per post word that has an entry at the
    cutoff: its flat shift and zero-padded scale (fock.fold), and the fold
    of its pre words with the coefficients folded in; one dim-long pad per
    pass, never dim^2.
    """

    def __init__(self, hamiltonian: NormalFormOperator, cutoff: int):
        check_pairing(hamiltonian)
        self.modes = hamiltonian.modes
        n = self.modes
        self.cutoff = cutoff
        self.dim = check_dimension(n, cutoff)
        zero = (0,) * n
        rows: dict[tuple, dict] = {}
        for (create, annih), coeff in sorted(hamiltonian.terms.items()):
            if sum(annih):
                rows.setdefault(create, {})[zero, annih] = \
                    -1j * coeff * sum(annih)
            for j in range(n):
                if create[j]:
                    ej = tuple(int(k == j) for k in range(n))
                    post = tuple(c - e for c, e in zip(create, ej))
                    rows.setdefault(post, {})[ej, annih] = \
                        -1j * coeff * create[j]
        posts = compile_operator(NormalFormOperator(
            n, {(post, zero): 1.0 for post in rows}), cutoff)
        # a post word that creates past the cutoff folds to no pass and
        # drops its group
        self.groups = [
            (shift, pad, fold(compile_operator(NormalFormOperator(n, pres),
                                               cutoff)))
            for entry, pres in zip(posts.entries, rows.values())
            for shift, pad in fold(posts._replace(entries=(entry,)))]


def master_rhs(rho: np.ndarray, terms: MasterTerms) -> np.ndarray:
    """Free-space master equation right-hand side, F(rho) + F(rho^H)^H.

    F is the half compiled in ``terms``, on the flat basis index: per post
    word, y = rho post is one product of rho with its pad broadcast over
    rows, read at a flat offset of shift, so that column j of y holds
    column j + shift of the product; its pre words are then applied to
    whole rows of y (fock.apply).  The map is linear over the complex
    scalars and traceless on any matrix; a rho equal to its adjoint bit for
    bit takes F once, in three dim^2 buffers (y, the sum F(rho) and the
    product inside each pass), and gives a bitwise Hermitian result.
    """
    dim = terms.dim
    if rho.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the terms")
    hermitian = np.array_equal(rho, rho.conj().T)
    # dim^2 cells for rho post, then a zero tail that the shifted read of
    # y's last row runs into, where the pad is zero
    y = np.zeros(dim * dim + dim, dtype=complex)
    cells = y[:dim * dim].reshape(dim, dim)

    def half(matrix):
        out = np.zeros((dim, dim), dtype=complex)
        for shift, pad, pres in terms.groups:
            np.multiply(matrix, pad, out=cells)
            apply(pres, y[shift:shift + dim * dim].reshape(dim, dim), out)
        return out

    out = half(rho)
    twin = out if hermitian else half(rho.conj().T)
    # out + twin^H, the adjoint written into y's cells
    return np.add(out, np.conjugate(twin.T, out=cells), out=out)


def density_samples(law: str, ensemble: Ensemble,
                    hamiltonian: NormalFormOperator, cutoff: int, dt: float,
                    steps: int, every: int
                    ) -> Iterator[tuple[int, FockMatrix | MemberBlock]]:
    """(step, rho) of the ensemble's moment matrix under either law, at
    step 0, every ``every`` steps, and at the last step.

    "liouville" carries the member block (``Ensemble.member_blocks``)
    through ``liouville_flow``, exact in t, so dt only sets the sample grid,
    and yields MemberBlock samples; more members than dim are carried as
    the eigenvectors of their moment matrix instead, folded once.
    "master" builds its MasterTerms (and checks the Hermitian pairing) once
    and steps ``ensemble_density`` with evolve_density at dt, yielding
    FockMatrix samples.
    """
    chunks = [(start, min(start + every, steps))
              for start in range(0, steps, every)]
    if law == "liouville":
        if len(ensemble.members) > check_dimension(ensemble.modes, cutoff):
            # folded once to dim columns, never holding dim x r
            weights, vectors = np.linalg.eigh(
                ensemble_density(ensemble, cutoff).data)
        else:
            [block] = ensemble.member_blocks(cutoff)
            vectors, weights = block.vectors, block.weights
        at = liouville_flow(vectors, weights, hamiltonian, cutoff)
        yield 0, at(0.0)
        for _, done in chunks:
            yield done, at(done * dt)
    elif law == "master":
        rho = ensemble_density(ensemble, cutoff)
        terms = MasterTerms(hamiltonian, cutoff)
        yield 0, rho
        for start, done in chunks:
            rho = evolve_density(rho, terms, (done - start) * dt, dt)
            yield done, rho
    else:
        raise ValueError(f"unknown generator {law!r}")


def liouville_flow(vectors: np.ndarray, weights: np.ndarray,
                   hamiltonian: NormalFormOperator,
                   cutoff: int) -> Callable[[float], MemberBlock]:
    """t -> the member block (Y(t), p) of U rho U^H, U = exp(-i t H_n), for
    rho = W diag(p) W^H.

    W (vectors, dim x r) and p (weights, real, possibly signed) are read in
    the eigenbasis (E, V) of H_n (fock.eigensystem) once, X = V^H W, and
    each call forms Y = V (e^{-iEt} o X) one sector block of V at a time:
    no dim x dim U or V.  Each call starts from X at its absolute t, so
    nothing accumulates between calls.
    """
    eig = eigensystem(hamiltonian, cutoff)
    coeffs = eig.to_eigenbasis(vectors)

    def at(t):
        y = eig.from_eigenbasis(np.exp(-1j * t * eig.values)[:, None] * coeffs)
        return MemberBlock(hamiltonian.modes, cutoff, y, weights)
    return at


def evolve_density(rho0: FockMatrix, terms: MasterTerms, t: float,
                   dt: float) -> FockMatrix:
    """Fixed-step RK4 in matrix space under the master equation.

    rho0 is symmetrized once, and the RK4 iterate, whose stages combine
    Hermitian matrices with real weights, stays bitwise Hermitian.  The
    trace drift is reported through the module logger.
    """
    steps = step_count(t, dt)
    rho = 0.5 * (rho0.data + rho0.data.conj().T)
    trace0 = np.trace(rho)
    rhs = functools.partial(master_rhs, terms=terms)
    for _ in range(steps):
        rho = rk4_step(rhs, rho, dt)
        if not np.isfinite(rho).all():
            raise FloatingPointError("density matrix left the finite domain")
    drift = abs(np.trace(rho) - trace0)
    log.debug("evolve_density: steps=%d trace_drift=%.3e", steps, drift)
    return FockMatrix(rho0.modes, rho0.cutoff, rho)


def time_average_project(rho: FockMatrix, hamiltonian: NormalFormOperator,
                         delta: float) -> FockMatrix:
    """Trace-normalized time average of e^{iHt} rho e^{-iHt} over [0, delta]."""
    return _time_average(rho, eigensystem(hamiltonian, rho.cutoff), delta)[1]


def _time_average(rho: FockMatrix, eig: Eigensystem,
                  delta: float) -> tuple[np.ndarray, FockMatrix]:
    """The time average in the eigenbasis (E, V) of H_n, and rotated back to
    the number basis, both divided by the number-basis trace.

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
    # V^H rho V, and V averaged V^H below, as (R (R M)^H)^H
    rho_eig = eig.to_eigenbasis(eig.to_eigenbasis(rho.data).conj().T).conj().T
    h = (eig.values[:, None] - eig.values[None, :]) * (dt / 2)
    h -= math.pi * np.round(h / math.pi)
    zero = h == 0
    phase_sum = np.where(zero, steps, np.exp(1j * steps * h) * np.sin(steps * h)
                         / np.tan(np.where(zero, 1.0, h)))
    averaged = rho_eig * phase_sum * (dt / delta)
    out = eig.from_eigenbasis(eig.from_eigenbasis(averaged).conj().T).conj().T
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
    H_n is diagonalized once (fock.eigensystem) for the mask and every
    delta.
    """
    eig = eigensystem(hamiltonian, rho.cutoff)
    gap = np.abs(eig.values[:, None] - eig.values[None, :]) > 1e-9
    rows = []
    for delta in deltas:
        averaged, out = _time_average(rho, eig, delta)
        off = float(np.max(np.abs(averaged[gap]))) if gap.any() else 0.0
        rows.append((delta, off, off * delta, abs(out.trace() - 1.0)))
    estimates = [row[2] for row in rows]
    band = max(estimates) / min(estimates) if min(estimates) > 0 else math.inf
    return rows, band
