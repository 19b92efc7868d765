"""Time evolution of moment matrices: two competing generators.

* The quantum Liouville law rhodot = -i [H_n, rho], applied exactly to the
  members of rho = W diag(p) W^H in the eigenbasis of H_n: every column
  moves as U w with U = exp(-i t H_n), and each sample stays a member block
  (fock.MemberBlock).
* The free-space master equation induced by the classical flow,

      rhodot = rho' + rho'^H,
      rho'   = i sum_{j,a} C_a ( a_j [adag_j, H_aR] rho H_aL
                               - adag_j H_aR rho [a_j, H_aL] ),

  over the Hermitian-paired words C_a H_aL H_aR of H_n.  The inner
  commutators close in the word algebra, so rho' is a sum of sandwiches of
  two words, whose slice-and-scales MasterTerms reads once off compiled
  word tables (fock.compile_operator); master_rhs adds the adjoint and
  conserves the trace of any matrix, Hermitian or not, realizable or not.

The two generators agree on the trajectory of a pure classical state only
in special cases; the discrepancy module quantifies the mismatch.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Callable, Iterator

import numpy as np

from .algebra import NormalFormOperator, hermitian_pair_check
from .fock import (
    FockMatrix,
    MemberBlock,
    check_dimension,
    compile_operator,
    realize_matrix,
)
from .states import Ensemble, ensemble_density, rk4_step, step_count

log = logging.getLogger(__name__)


class PairingError(ValueError):
    """The Hamiltonian words do not pair off under Hermitian conjugation."""


def _check_pairing(hamiltonian: NormalFormOperator) -> None:
    """The one Hermiticity test of H_n (laws and projection), on its words."""
    if not hermitian_pair_check(hamiltonian):
        raise PairingError("the Hamiltonian operator is not Hermitian-paired")


class MasterTerms:
    """The half F(rho) = rho' of the master law, compiled at one cutoff.

    Construction checks the dimension and validates the Hermitian pairing,
    on which the law rho' + rho'^H leans.  The inner commutators
    [adag_j, a^R] = -R_j a^(R-e_j) and [a_j, adag^L] = L_j adag^(L-e_j)
    give each word C (adag)^L a^R the share of rho'

        -i C ( |R| a^R rho adag^L + sum_j L_j (adag_j a^R) rho adag^(L-e_j) ),

    sandwiches pre rho post whose post word only creates.  ``groups`` holds
    one (source, target, column scale, rows) entry per post word, and rows
    one (target, source, row scale) entry per pre word, both read off the
    compiled word table (fock.compile_operator) with the coefficient folded
    into the row scale: at most dim entries per scale, never dim^2.
    """

    def __init__(self, hamiltonian: NormalFormOperator, cutoff: int):
        _check_pairing(hamiltonian)
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
            n, {(post, zero): 1.0 for post in rows}), cutoff).entries
        self.groups = [
            (post_source, post_target, post_scale, [
                (target, source, scale.reshape(scale.shape + (1,) * n))
                for target, source, scale in compile_operator(
                    NormalFormOperator(n, pres), cutoff).entries])
            for (post_target, post_source, post_scale), pres
            in zip(posts, rows.values())]


def master_rhs(rho: np.ndarray, terms: MasterTerms) -> np.ndarray:
    """Free-space master equation right-hand side, F(rho) + F(rho^H)^H.

    F is the half compiled in ``terms`` on the (D,)*2n tensor view, row
    modes first: y = rho post per post word, then a row slice-and-scale of
    y per pre word.  The map is linear over the complex scalars and
    traceless on any matrix; a rho equal to its adjoint bit for bit takes
    F once and gives a bitwise Hermitian result.
    """
    if rho.shape != (terms.dim, terms.dim):
        raise ValueError("dimension mismatch between rho and the terms")
    shape = (terms.cutoff,) * (2 * terms.modes)

    def half(matrix):
        tensor = matrix.reshape(shape)
        out = np.zeros(shape, dtype=complex)
        for post_source, post_target, post_scale, pres in terms.groups:
            y = tensor[(...,) + post_target] * post_scale
            for target, source, scale in pres:
                out[target + post_source] += scale * y[source]
        return out.reshape(rho.shape)

    out = half(rho)
    adjoint = rho.conj().T
    twin = out if np.array_equal(rho, adjoint) else half(adjoint)
    return out + twin.conj().T


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
    the eigenbasis (E, V) of H_n once, X = V^H W, and each call forms
    Y = V (e^{-iEt} o X): no dim x dim U, and one dim x dim x r product per
    call.  Each call starts from X at its absolute t, so nothing
    accumulates between calls.
    """
    evals, basis = _eigensystem(hamiltonian, cutoff)
    coeffs = _product(basis.conj().T, vectors)

    def at(t):
        y = _product(basis, np.exp(-1j * t * evals)[:, None] * coeffs)
        return MemberBlock(hamiltonian.modes, cutoff, y, weights)
    return at


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right for complex right, in real arithmetic when left is real."""
    if np.iscomplexobj(left):
        return left @ right
    return left @ right.real + 1j * (left @ right.imag)


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
    return _time_average(rho, *_eigensystem(hamiltonian, rho.cutoff), delta)[1]


def _eigensystem(hamiltonian: NormalFormOperator,
                 cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the realized H_n, which must be Hermitian-paired and finite;
    in real arithmetic when H_n has no imaginary part, as every H_n whose
    terms all have an even power of pi does."""
    _check_pairing(hamiltonian)
    hmat = realize_matrix(hamiltonian, cutoff)
    if not np.isfinite(hmat.data).all():
        raise FloatingPointError(f"H_n overflows at cutoff {cutoff}")
    if hmat.data.imag.any():
        return np.linalg.eigh(hmat.data)
    return np.linalg.eigh(hmat.data.real)


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
