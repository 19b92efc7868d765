"""Time evolution of moment matrices: two competing generators.

* The quantum Liouville law rhodot = -i [H_n, rho], applied exactly to the
  members of rho = W diag(p) W^H: every column moves as U w with
  U = exp(-i t H_n), and each sample stays a member block
  (fock.MemberBlock).  fock.propagate moves them by one of two routes,
  picked from H_n and the largest sample time: a Chebyshev series in H_n
  whose vectors T_k(H~) W come through fock.apply and are shared by every
  sample, where its degree is below the widest invariant sector of H_n's
  words and its vectors fit in fock.SPAN_BYTES; otherwise the eigenbasis
  flow of H_n at the rate i t (fock.Eigensystem.flow), H_n diagonalized per
  invariant sector (fock.eigensystem).  U is never formed.
* The free-space master equation induced by the classical flow,

      rhodot = rho' + rho'^H,
      rho'   = i sum_{j,a} C_a ( a_j [adag_j, H_aR] rho H_aL
                               - adag_j H_aR rho [a_j, H_aL] ),

  over the Hermitian-paired words C_a H_aL H_aR of H_n.  The inner
  commutators close in the word algebra, so rho' is a sum of sandwiches of
  two words.  In rho' + rho'^H a sandwich and its adjoint act as one, so
  MasterTerms holds one sandwich per adjoint pair, of the summed
  coefficient (0 for exact mates that conserve the number), compiles them
  once (fock.compile_operator), and master_rhs applies them on the flat
  basis index, one contiguous pass per flat shift, one cache-sized block
  of output rows at a time; master_rhs adds the adjoint and conserves the
  trace of any matrix, Hermitian or not, realizable or not.  L =
  master_rhs is constant and linear, so evolve_density sums e^{tL} rho as
  one Taylor series in t per span of sample times, exact in t like the
  Liouville law.

The two generators agree on the trajectory of a pure classical state only
in special cases; the discrepancy module quantifies the mismatch.
"""

from __future__ import annotations

import logging
import math
from typing import Iterator, NamedTuple

import numpy as np

from .algebra import NormalFormOperator
from .fock import (
    SPAN_BYTES,
    FockMatrix,
    MemberBlock,
    PairingError,
    check_dimension,
    check_pairing,
    compile_operator,
    eigensystem,
    propagate,
)
from .states import Ensemble, ensemble_density

log = logging.getLogger(__name__)

# the most Taylor terms a sample of evolve_density sums before it leaves its
# span unconverged
MAX_TERMS = 30
# the bytes of the output rows of one row block of master_rhs
BLOCK_BYTES = 2 ** 18
# the relative size of the two consecutive terms that end a sample's series
_EPS = 2.0 ** -53


class _HeldWords(NamedTuple):
    """Pre words and their coefficients as held, for compile_operator: a
    NormalFormOperator would drop a merged coefficient at or below
    poly.DROP_TOL, and the master law keeps every one that is not 0."""

    modes: int
    terms: dict


class MasterTerms:
    """The half F(rho) = rho' of the master law, compiled at one cutoff.

    Construction checks the dimension and validates the Hermitian pairing,
    on which the law rho' + rho'^H leans.  The inner commutators
    [adag_j, a^R] = -R_j a^(R-e_j) and [a_j, adag^L] = L_j adag^(L-e_j)
    give each word C (adag)^L a^R the share of rho'

        -i C ( |R| a^R rho adag^L + sum_j L_j (adag_j a^R) rho adag^(L-e_j) ),

    sandwiches pre rho post whose post word only creates.  Only F(rho) +
    F(rho^H)^H is ever read, and in it a sandwich X rho Y of coefficient a
    and one Y^H rho X^H of coefficient b act as X rho Y alone of
    coefficient a + conj(b), for every rho.  The first sandwich of a word
    has the first of its mate (R, L) as that adjoint, so each adjoint pair
    is held once, on the word with |R| > |L| (at |R| = |L|, the larger R),
    at -iC|R| + i conj(C_mate)|L|; a pair that conserves the number is
    -i|R| (C - conj(C_mate)), 0 for exact mates, and a word that is its
    own mate (L = R) keeps |R| Im C.  Only exactly 0 is dropped, so a mate
    paired to within the pairing tolerance keeps its tiny term and the law
    is unchanged.  The second sandwiches, whose post word adag^(L-e_j) is
    the adjoint of no pre word, form no pairs and are held as they are.

    ``sandwiches`` maps each post word to its pre words and their
    coefficients.  ``groups`` holds one (shift, pad, pres) entry per post
    word that has a target at the cutoff: the one pass of the post word
    compiled by itself, and the compiled pre words with the coefficients
    folded in; one dim-long pad per pass.  Construction also plans
    master_rhs's row blocks over a workspace of about two dim^2 buffers,
    allocated once, so one MasterTerms serves one master_rhs call at a
    time.
    """

    def __init__(self, hamiltonian: NormalFormOperator, cutoff: int):
        check_pairing(hamiltonian)
        self.modes = hamiltonian.modes
        n = self.modes
        self.cutoff = cutoff
        self.dim = check_dimension(n, cutoff)
        zero = (0,) * n
        words = hamiltonian.terms
        self.sandwiches = rows = {}
        for (create, annih), coeff in sorted(words.items()):
            low, high = sum(create), sum(annih)
            if create == annih:
                first = high * coeff.imag
            elif (high, annih) > (low, create):
                first = (-1j * coeff * high
                         + 1j * words[annih, create].conjugate() * low)
            else:
                first = 0  # held on the mate
            if first:
                rows.setdefault(create, {})[zero, annih] = first
            for j in range(n):
                if create[j]:
                    ej = tuple(int(k == j) for k in range(n))
                    post = tuple(c - e for c, e in zip(create, ej))
                    rows.setdefault(post, {})[ej, annih] = \
                        -1j * coeff * create[j]
        # a post word that creates past the cutoff compiles to no pass and
        # drops its group
        self.groups = [
            (shift, pad, compile_operator(_HeldWords(n, pres), cutoff))
            for post, pres in rows.items()
            for shift, pad in compile_operator(NormalFormOperator(
                n, {(post, zero): 1.0}), cutoff).passes]
        # a post word only creates, so the one at shift 0 is the identity,
        # whose pad is all ones: its pre passes read the flat copy of rho
        self._plan_blocks([
            (shift, np.roll(pad, -shift) if shift else None,
             [(s, p, max(s, 0), self.dim + min(s, 0)) for s, p in pres.passes])
            for shift, pad, pres in self.groups])

    def _plan_blocks(self, groups) -> None:
        """The workspace of master_rhs and its plan of row blocks.

        Each group is (shift, rolled post pad, pre passes with their target
        runs lo <= T < hi).  A block of output rows r0 <= T < r1 reads, per
        group, only the window of y rows its passes reach, a <= T - s < b;
        a group with no pass in the block is skipped.  The identity post
        word, whose rolled pad is None, has y = rho: its passes read the
        flat copy in place, with no window formed.  Each pass adds at
        most ``chunk`` rows, BLOCK_BYTES of them, at a time through the
        scratch.  A block is one chunk unless the windows would average
        more than twice a chunk (mean pre-shift spread over rows), where
        the whole matrix is one block.  The workspace is the zero-tailed
        flat copy of rho, the window and the scratch.
        """
        dim = self.dim
        spreads = [max(s for s, *_ in passes) - min(s for s, *_ in passes)
                   for _, _, passes in groups if passes]
        chunk = max(1, BLOCK_BYTES // (16 * dim))
        rows = chunk if sum(spreads) <= chunk * len(spreads) else dim
        self._flat = np.empty(dim * dim + dim, dtype=complex)
        self._flat[dim * dim:] = 0
        window = np.empty(dim * min(dim, rows + max(spreads, default=0)),
                          dtype=complex)
        scratch = np.empty(dim * min(chunk, dim), dtype=complex)

        def rows_of(buffer, lo, hi):
            return buffer[lo * dim:hi * dim].reshape(-1, dim)

        # per block its rows, and per group the window's fill (its source in
        # the flat copy, the rolled pad and the window, or None); per chunk
        # of a pass the pad column, the rows of y it reads, the scratch and
        # its target rows
        self._blocks = []
        for r0 in range(0, dim, rows):
            r1 = min(r0 + rows, dim)
            block = []
            for shift, rolled, passes in groups:
                steps = [(s, p, max(lo, r0), min(hi, r1))
                         for s, p, lo, hi in passes
                         if max(lo, r0) < min(hi, r1)]
                if not steps:
                    continue
                if rolled is None:
                    a, read, fill = 0, self._flat, None
                else:
                    a = min(t0 - s for s, _, t0, _ in steps)
                    b = max(t1 - s for s, _, _, t1 in steps)
                    read, fill = window, (rows_of(self._flat[shift:], a, b),
                                          rolled, rows_of(window, 0, b - a))
                block.append((fill, [
                    (p[c0:c1, None], rows_of(read, c0 - s - a, c1 - s - a),
                     rows_of(scratch, 0, c1 - c0), c0, c1)
                    for s, p, t0, t1 in steps
                    for c0 in range(t0, t1, chunk)
                    for c1 in [min(c0 + chunk, t1)]]))
            self._blocks.append((r0, r1, block))


def master_rhs(rho: np.ndarray, terms: MasterTerms,
               out: np.ndarray | None = None) -> np.ndarray:
    """Free-space master equation right-hand side, F(rho) + F(rho^H)^H,
    written into out (a (dim, dim) complex array apart from rho) or, by
    default, into a fresh array.

    F is the half compiled in ``terms``, on the flat basis index: per post
    word, y = rho post is rho times its pad broadcast over rows, read at a
    flat offset of shift, so that column j of y holds column j + shift of
    the product; its pre words are then applied to whole rows of y.  The
    output is filled one row block at a time (MasterTerms), each block from
    only the rows of y its passes read, formed in the workspace of
    ``terms`` from a flat copy of rho times the pad rolled by its shift
    (the rolled pad is zero where the read wraps to the next row), or, for
    the identity post word, read from the flat copy itself; every cell
    receives the same products in the same order as from whole matrices.
    The map is linear over the complex scalars and traceless on any
    matrix; a rho equal to its adjoint bit for bit takes F once, allocates
    nothing but the result, and gives a bitwise Hermitian result.
    ``terms`` serves one call at a time.
    """
    dim = terms.dim
    if rho.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the terms")
    if out is None:
        out = np.empty((dim, dim), dtype=complex)
    elif np.may_share_memory(out, rho):
        raise ValueError("out shares memory with rho")
    # the flat copy holds rho^H, which is rho itself, zero signs aside
    # (they cannot reach a sum that starts at +0), when rho is Hermitian
    cells = terms._flat[:dim * dim].reshape(dim, dim)
    hermitian = np.array_equal(rho, np.conjugate(rho.T, out=cells))
    if hermitian:
        _half(terms, out)
        # out + out^H, the adjoint written into the flat copy
        return np.add(out, np.conjugate(out.T, out=cells), out=out)
    twin = _half(terms, np.empty_like(out))
    np.copyto(cells, rho)
    _half(terms, out)
    return np.add(out, np.conjugate(twin, out=twin).T, out=out)


def _half(terms: MasterTerms, out: np.ndarray) -> np.ndarray:
    """F of the matrix in the flat copy of ``terms``, written into out by
    row blocks: per block, zero its rows, then per group form the window
    (none for the identity post word) and add each pre pass through the
    scratch, in group then pass order."""
    multiply = np.multiply
    for r0, r1, block in terms._blocks:
        out[r0:r1] = 0
        for fill, steps in block:
            if fill is not None:
                source, rolled, window = fill
                multiply(source, rolled, out=window)
            for pad, rows, scratch, t0, t1 in steps:
                out[t0:t1] += multiply(pad, rows, out=scratch)
    return out


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
    and carries ``ensemble_density`` through evolve_density, span_width(dim)
    sample times per call, also exact in t, yielding FockMatrix samples.
    """
    dones = [min(start + every, steps) for start in range(0, steps, every)]
    if law == "liouville":
        if ensemble.size > check_dimension(ensemble.modes, cutoff):
            # folded once to dim columns, never holding dim x r
            weights, vectors = np.linalg.eigh(
                ensemble_density(ensemble, cutoff).data)
        else:
            [block] = ensemble.member_blocks(cutoff)
            vectors, weights = block.vectors, block.weights
        yield from zip([0] + dones, liouville_flow(
            vectors, weights, hamiltonian, cutoff,
            [0.0] + [done * dt for done in dones]))
    elif law == "master":
        rho = ensemble_density(ensemble, cutoff)
        terms = MasterTerms(hamiltonian, cutoff)
        yield 0, rho
        base, width = 0, span_width(terms.dim)
        for first in range(0, len(dones), width):
            batch = dones[first:first + width]
            samples = evolve_density(rho, terms,
                                     [(done - base) * dt for done in batch])
            yield from zip(batch, samples)
            base, rho = batch[-1], samples[-1]
    else:
        raise ValueError(f"unknown generator {law!r}")


def liouville_flow(vectors: np.ndarray, weights: np.ndarray,
                   hamiltonian: NormalFormOperator, cutoff: int,
                   times) -> Iterator[MemberBlock]:
    """The member block (Y(t), p) of U rho U^H, U = exp(-i t H_n), for
    rho = W diag(p) W^H, at each of the times in order.

    W (vectors, dim x r) moves as Y(t) = U W by fock.propagate, which picks
    a Chebyshev series or the eigenbasis of H_n from H_n and the largest
    time; no dim x dim U is formed, and each sample is read at its absolute
    t, so nothing accumulates between samples.  p (weights) is real,
    possibly signed.
    """
    return (MemberBlock(hamiltonian.modes, cutoff, y, weights)
            for y in propagate(hamiltonian, cutoff, vectors, times))


def span_width(dim: int) -> int:
    """W, the most partial sums one span of evolve_density holds: the
    complex dim x dim matrices that fit in SPAN_BYTES, and at least one."""
    return max(1, SPAN_BYTES // (16 * dim * dim))


def evolve_density(rho0: FockMatrix, terms: MasterTerms,
                   times) -> list[FockMatrix]:
    """The master law's e^{tL} rho0 at each of the ascending, nonnegative
    times, exact in t: Taylor series in t, one per span of sample times.

    A span starts from the latest rho and shares the powers
    v_k = L(v_{k-1}) / k, v_0 = rho (L = master_rhs), among at most
    span_width(dim) pending samples, each of which adds tau^k v_k to its own
    partial sum S.  A sample converges once two consecutive terms are at
    most 2^-53 ||S||; it leaves the span, with every later sample, when a
    term exceeds ||S|| (cancellation) or after MAX_TERMS terms unconverged.
    The next span starts at the farthest converged target; where none
    converges, the next span is a sub-step to the midpoint of the first.
    A converged sub-step is carried into every later span as an inner
    target, short of the next pending sample, whose sum shares its powers
    with the samples: the span advances by the sub-step at least, and the
    samples are tried from each new start at no extra call.  rho0 is
    symmetrized once; every term and sum, real multiples and sums of
    bitwise Hermitian matrices, stays bitwise Hermitian.  The trace drift
    is reported through the module logger.
    """
    times = [float(t) for t in times]
    if not all(0 <= t < math.inf for t in times) or times != sorted(times):
        raise ValueError(f"times {times!r} are not ascending nonnegative "
                         "numbers")
    rho = rho0.data + rho0.data.conj().T
    rho *= 0.5
    trace0 = np.trace(rho)
    width = span_width(terms.dim)
    samples, start, step, stalled, spans = [], 0.0, None, False, 0
    while len(samples) < len(times):
        pending = times[len(samples):len(samples) + width]
        # the sub-step, carried short of the next sample once converged,
        # and tried alone after a span that converged nothing
        inner = ([start + step] if step is not None
                 and (stalled or start + step < pending[0]) else [])
        targets = inner if stalled else (inner + pending)[:width]
        sums = _span(rho, terms, [t - start for t in targets])
        spans += 1
        stalled = not sums
        if stalled:
            # a sub-step to the midpoint of the first target
            step = (targets[0] - start) / 2
            if not start < start + step:
                raise FloatingPointError("the master law's sub-step "
                                         f"underflows at t = {start!r}")
            continue
        samples += sums[len(inner):]
        rho, start = sums[-1], targets[len(sums) - 1]
    drift = abs(np.trace(rho) - trace0)
    log.debug("evolve_density: samples=%d spans=%d trace_drift=%.3e",
              len(times), spans, drift)
    return [FockMatrix(rho0.modes, rho0.cutoff, s) for s in samples]


def _span(rho: np.ndarray, terms: MasterTerms, taus) -> list[np.ndarray]:
    """The converged partial sums of e^{tau L} rho, one per tau of a prefix
    of taus (see evolve_density); a term or sum that is not finite raises."""
    sums = [rho.copy() for _ in taus]
    norms = [_norm(rho)] * len(taus)
    quiet = [0] * len(taus)  # consecutive terms below _EPS of the sum
    live, term, scaled = len(taus), rho, np.empty_like(rho)
    # master_rhs writes each term over the one before the last
    buffers = np.empty_like(rho), np.empty_like(rho)
    for k in range(1, MAX_TERMS + 1):
        term = master_rhs(term, terms, out=buffers[k % 2])
        term *= 1.0 / k
        size = _norm(term)
        if not math.isfinite(size):
            raise FloatingPointError("density matrix left the finite domain")
        for j in range(live):
            if quiet[j] >= 2:
                continue
            scale = taus[j] ** k
            if scale * size > norms[j]:
                live = j
                break
            sums[j] += np.multiply(term, scale, out=scaled)
            norms[j] = _norm(sums[j])
            quiet[j] = quiet[j] + 1 if scale * size <= _EPS * norms[j] else 0
        if all(q >= 2 for q in quiet[:live]):
            break
    live = next((j for j in range(live) if quiet[j] < 2), live)
    if not all(np.isfinite(s).all() for s in sums[:live]):
        raise FloatingPointError("density matrix left the finite domain")
    return sums[:live]


def _norm(matrix: np.ndarray) -> float:
    """The Frobenius norm, summed over the real and imaginary parts in one
    pass on this thread: in a process that keeps an OpenBLAS thread pool
    (see fockdm/__init__.py), a BLAS dot product would wake it, and its
    spinning doubles the CPU time of a span."""
    parts = matrix.reshape(-1).view(np.float64)
    return math.sqrt(np.einsum("i,i", parts, parts))


def quadrature(delta: float) -> tuple[float, float]:
    """(dt, delta/dt): the trapezoid step min(0.01, delta/1000) of the time
    average over [0, delta] and its step count, unrounded, infinite where
    it overflows."""
    dt = min(0.01, delta / 1000)
    return dt, delta / dt


def _time_average(rho_eig: np.ndarray, values: np.ndarray,
                  delta: float) -> np.ndarray:
    """The time average of rho_eig, a moment matrix in the eigenbasis of H_n
    whose eigenvalues are values, divided by its trace.

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
    dt, steps = quadrature(delta)
    steps = max(1, int(round(steps)))
    h = (values[:, None] - values[None, :]) * (dt / 2)
    h -= math.pi * np.round(h / math.pi)
    zero = h == 0
    phase_sum = np.where(zero, steps, np.exp(1j * steps * h) * np.sin(steps * h)
                         / np.tan(np.where(zero, 1.0, h)))
    averaged = rho_eig * phase_sum * (dt / delta)
    return averaged / np.trace(averaged).real


def projection_decay(rho: MemberBlock, hamiltonian: NormalFormOperator,
                     deltas):
    """Rows (delta, largest off-diagonal element, C estimate, trace error)
    of the time average at each delta, and the spread of the C estimates.

    The members W of rho are read once in the eigenbasis (E, V) of H_n
    (fock.eigensystem), X = V^H W, and each delta averages X diag(p) X^H.
    Off-diagonal means between distinct eigenvalues of H_n: the elements
    the average suppresses like C/delta.  The trace error, which no basis
    changes, is read there too.  The spread is max/min of off * delta,
    infinite when some average has none left.
    """
    eig = eigensystem(hamiltonian, rho.cutoff)
    x = eig.to_eigenbasis(rho.vectors)
    rho_eig = (x * rho.weights) @ x.conj().T
    gap = np.abs(eig.values[:, None] - eig.values[None, :]) > 1e-9
    rows = []
    for delta in deltas:
        averaged = _time_average(rho_eig, eig.values, delta)
        off = float(np.max(np.abs(averaged[gap]))) if gap.any() else 0.0
        rows.append((delta, off, off * delta, abs(np.trace(averaged) - 1.0)))
    estimates = [row[2] for row in rows]
    band = max(estimates) / min(estimates) if min(estimates) > 0 else math.inf
    return rows, band
