"""Normal-ordered words in truncated Fock space.

Each of the n modes keeps occupations 0..D-1; the joint basis is the tensor
product with mode 1 as the slowest-varying index, so index i encodes the
occupation tuple via repeated divmod by D.  Ladder matrices follow
<k-1|a|k> = sqrt(k).

A word (adag)^c a^r is a shifted diagonal on every mode, and on the flat
basis index one shift: its target T reads its source T - shift.  An
operator compiles in two stages.  ``compile_words``, the per-mode stage,
holds each word's coefficient and per-mode powers (c, r) and forms nothing
of size D^n; ``ladder`` gives the weights of one per-mode factor, the one
definition of a truncated per-mode word.  ``compile_operator``, the one
place that builds shifted diagonals, turns that stage into a ``WordTable``
of (shift, pad) passes, one per distinct flat shift, the scales of its
words with the coefficients folded in summed into one zero-padded column,
and every dense or block reader walks those passes.  ``apply`` adds op x
into a (dim, ...) array by one contiguous multiply-add per pass along
axis 0, ``operator_trace`` reads Tr(rho op) off one shifted diagonal of a
dense rho per pass, ``block_trace`` reads sum_k p_k <w_k|op w_k> off a
block of member vectors without forming rho, ``eigensystem``, the one
spectral primitive, sums each invariant sector's block straight from the
passes, and ``realize_matrix`` writes the dense matrix (kept for criterion
5's dense route and test oracles).  ``Eigensystem.flow``, V e^{-sE} V^H x
at a real or complex rate s, is the one eigenbasis action.  ``propagate``
moves member vectors by e^{-itH} for the Liouville law, by a Chebyshev
series whose vectors come through ``apply`` where its degree is below the
widest invariant sector and they fit in SPAN_BYTES, and by the eigenbasis
flow otherwise; its error bound, 2^-53 of the vectors' norm, is known
before it runs.  A moment
matrix is a ``FockMatrix`` or, held as its members W and weights p, a
``MemberBlock``; both read a table through ``expect``.  Members that are
products over the modes may instead be held one mode at a time, as
``ProductMembers``, whose ``expect`` reads the per-mode stage: a truncated
word is the tensor product of its truncated per-mode factors, so each
member's expectation is a product of per-mode moments, exact at the
cutoff.

Truncation policy: a single normal-ordered word (adag)^c a^r realizes
exactly on the whole block (its matrix elements agree with the untruncated
operator wherever row and column both exist).  Products of *realized*
matrices, by contrast, lose amplitude through the top of the ladder, so
identity checks between symbolic and matrix arithmetic are restricted to an
interior block of occupations with a safety margin at the top.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .algebra import NormalFormOperator, hermitian_pair_check

log = logging.getLogger(__name__)

DIM_CAP = 4096
# the bytes of the Chebyshev vectors one call of propagate holds, and of the
# partial sums one span of evolution.evolve_density holds
SPAN_BYTES = 4 * 2 ** 20
# the Bessel tail that the degree of a Chebyshev series leaves out
_TAIL = 2.0 ** -53


class DimensionCapError(ValueError):
    """Raised when cutoff**modes exceeds the dense-matrix cap DIM_CAP."""


def check_dimension(modes: int, cutoff: int) -> int:
    """cutoff**modes, refused above DIM_CAP; as cutoff >= 2, the power is
    never taken for more modes than DIM_CAP has bits."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    bits = DIM_CAP.bit_length()
    dim = cutoff ** min(modes, bits)
    if dim > DIM_CAP:
        size = dim if modes <= bits else f"{cutoff}^{modes}"
        raise DimensionCapError(
            f"{modes} modes at cutoff {cutoff} need dimension {size} > cap "
            f"{DIM_CAP}")
    return dim


class PairingError(ValueError):
    """The words of an operator do not pair off under Hermitian conjugation."""


def check_pairing(op: NormalFormOperator) -> None:
    """The one Hermiticity test of an operator, decided on its words."""
    if not hermitian_pair_check(op):
        raise PairingError("the operator is not Hermitian-paired")


@dataclass(frozen=True)
class FockMatrix:
    modes: int
    cutoff: int
    data: np.ndarray

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def expect(self, table: WordTable) -> complex:
        return operator_trace(self.data, table)

    def to_json(self) -> dict:
        # column-major flattening, one [re, im] pair per entry
        flat = self.data.flatten(order="F")
        return {"modes": self.modes, "cutoff": self.cutoff,
                "data": [[v.real, v.imag] for v in flat]}


@dataclass(frozen=True)
class MemberBlock:
    """A moment matrix W diag(p) W^H held as its members: the dim x r block
    W (vectors) and the real, possibly signed weights p."""

    modes: int
    cutoff: int
    vectors: np.ndarray
    weights: np.ndarray

    def trace(self) -> complex:
        """sum_k p_k ||w_k||^2, real by construction."""
        v = self.vectors
        return complex(self.weights @ (v.real ** 2 + v.imag ** 2).sum(axis=0))

    def expect(self, table: WordTable) -> complex:
        return block_trace(self.vectors, self.weights, table)

    def dense(self) -> FockMatrix:
        v = self.vectors
        return FockMatrix(self.modes, self.cutoff,
                          (v * self.weights) @ v.conj().T)

    def to_json(self) -> dict:
        return self.dense().to_json()


@dataclass(frozen=True)
class ProductMembers:
    """Members that are products over the modes, w_k = c_k1 x ... x c_kn,
    held as their (modes, D, r) per-mode columns and real weights p, with
    the moments M[c, r, j, k] = <a^c c_kj | a^r c_kj> for c, r <= degree,
    built once: each a^r c_kj is the column's entries from r up times
    ladder(0, r), and each row c of M one contraction of a^c c_kj with all
    of them, so nothing larger than degree + 1 times the columns is held."""

    modes: int
    cutoff: int
    columns: np.ndarray
    weights: np.ndarray
    degree: int
    moments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cols = self.columns
        lowered = np.zeros((self.degree + 1,) + cols.shape, complex)
        for r, rows in enumerate(lowered):
            weights = ladder(0, r, self.cutoff)
            rows[:, :weights.size] = weights[:, None] * cols[:, r:]
        size, modes, _, members = lowered.shape
        moments = np.empty((size, size, modes, members), complex)
        for c, rows in enumerate(lowered):
            moments[c] = np.einsum("jik,rjik->rjk", rows.conj(), lowered)
        object.__setattr__(self, "moments", moments)

    def expect(self, words: ModeWords) -> complex:
        """sum_k p_k <w_k|op w_k> = sum_k p_k sum_words coeff prod_j
        M[c_j, r_j, j, k], exact at the cutoff: the truncated word is the
        product of its truncated per-mode factors.  A total that is not
        finite raises FloatingPointError."""
        if (words.modes, words.cutoff) != (self.modes, self.cutoff):
            raise ValueError("mode count or cutoff differs between the "
                             "members and the operator")
        with np.errstate(over="ignore", invalid="ignore"):
            product = self.moments[words.create[:, 0], words.annih[:, 0], 0]
            for j in range(1, self.modes):
                product = product * self.moments[words.create[:, j],
                                                 words.annih[:, j], j]
            total = words.coeffs @ (product @ self.weights)
        if not np.isfinite(total):
            raise FloatingPointError(f"Tr(rho op) is not finite at cutoff "
                                     f"{self.cutoff}")
        return complex(total)


class ModeWords(NamedTuple):
    """An operator compiled one mode at a time at one cutoff: in its word
    order, each word's coefficient and its (words, modes) creation and
    annihilation powers, whose per-mode factors weigh as ``ladder`` gives.
    Nothing of size D^n is formed."""

    modes: int
    cutoff: int
    coeffs: np.ndarray
    create: np.ndarray
    annih: np.ndarray


@functools.lru_cache(maxsize=None)
def ladder(create: int, annih: int, cutoff: int) -> np.ndarray:
    """The weights of (adag^c a^r)_D on one mode, which reads occupation k
    from r up and writes k - r + c: sqrt(k (k-1) ... (k-r+1) * (k-r+1) ...
    (k-r+c)), the product taken factor by factor in that order, for the
    max(D - max(c, r), 0) sources k with both k and its target below D.
    Each is built once a process, and is read-only."""
    length = max(cutoff - max(create, annih), 0)
    k = np.arange(annih, annih + length, dtype=float)
    val = np.ones(length)
    for step in range(annih):
        val *= k - step
    for step in range(create):
        val *= k - annih + 1 + step
    weights = np.sqrt(val)
    weights.flags.writeable = False
    return weights


def compile_words(op: NormalFormOperator, cutoff: int) -> ModeWords:
    """The per-mode stage of op, after checking that one mode fits the
    dimension cap."""
    check_dimension(1, cutoff)
    keys = list(op.terms)
    return ModeWords(op.modes, cutoff,
                     np.array(list(op.terms.values()), complex),
                     np.array([c for c, _ in keys], int).reshape(-1, op.modes),
                     np.array([a for _, a in keys], int).reshape(-1, op.modes))


class WordTable(NamedTuple):
    """An operator compiled at one cutoff: one (shift, pad) pass per distinct
    flat shift of its words, in the order of first appearance.  On the flat
    basis index a word's target T reads its source T - shift; pad, of
    length dim, holds at each target the scales of the words with that
    shift, summed in word order, and is zero wherever none has a target."""

    modes: int
    cutoff: int
    passes: tuple


def compile_operator(op: NormalFormOperator, cutoff: int) -> WordTable:
    """The passes of op, after checking the dimension, built from its
    per-mode stage (``compile_words``).

    A word's scale is its coefficient times the outer product of its
    per-mode ladder weights in mode order, its flat targets are the outer
    sum of the per-mode targets k - r_j + c_j, and its shift is
    sum_j (c_j - r_j) D^(n-1-j).  A word with no target at the cutoff adds
    no pass.  The pads are real when no summed pad has an imaginary part,
    and complex otherwise.  A scale or a sum that overflows is kept, for
    its reader to catch.
    """
    dim = check_dimension(op.modes, cutoff)
    words = compile_words(op, cutoff)
    pads = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, create, annih in zip(words.coeffs.tolist(),
                                        words.create.tolist(),
                                        words.annih.tolist()):
            shift, target, scale = 0, 0, coeff
            for c, a in zip(create, annih):
                weights = ladder(c, a, cutoff)
                shift = shift * cutoff + c - a
                target = np.add.outer(target * cutoff,
                                      np.arange(c, c + weights.size))
                scale = np.multiply.outer(scale, weights)
            if scale.size:
                # a word's targets are distinct
                pads.setdefault(shift, np.zeros(dim, complex))[target] += scale
    if not any(pad.imag.any() for pad in pads.values()):
        pads = {shift: pad.real.copy() for shift, pad in pads.items()}
    return WordTable(op.modes, cutoff, tuple(pads.items()))


def apply(table: WordTable, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add op x into out and return out, for op compiled in table and (dim,
    ...) arrays x and out: each pass adds pad[T] x[T - shift] into out[T]
    over one contiguous run of rows T, pad broadcast over the trailing
    axes.  This is exact: a word's target reads its source at T - shift,
    and pad is zero on every other row of the run."""
    dim = len(x)
    trailing = (1,) * (x.ndim - 1)
    for shift, pad in table.passes:
        lo, hi = max(shift, 0), dim + min(shift, 0)
        out[lo:hi] += (pad[lo:hi].reshape((-1,) + trailing)
                       * x[lo - shift:hi - shift])
    return out


class Eigensystem(NamedTuple):
    """Eigenpairs (E, V) of a Hermitian operator at one cutoff, V kept as its
    sector blocks: ``groups`` holds one (rows, vectors) pair per sector width
    w, the (sectors, w) basis rows and (sectors, w, w) eigenvectors, and
    ``values`` holds E, each sector's eigenvalues in its rows (unsorted)."""

    values: np.ndarray
    groups: tuple

    def flow(self, x: np.ndarray) -> Callable[[complex], np.ndarray]:
        """s -> V e^{-sE} V^H x for a real or complex rate s: x, a vector
        or any (dim, ...) block, is read in the eigenbasis once, and each
        call scales it and rotates it back, one sector block of V at a
        time."""
        coeffs = self.to_eigenbasis(x)
        trailing = (1,) * (x.ndim - 1)
        # s (-E), not (-s) E: a zero E keeps a +0 phase at s = i t
        return lambda s: self.from_eigenbasis(
            np.exp(s * -self.values).reshape((-1,) + trailing) * coeffs)

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V^H x along axis 0."""
        return self._rotate(x, adjoint=True)

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x along axis 0."""
        return self._rotate(x, adjoint=False)

    def _rotate(self, x: np.ndarray, adjoint: bool) -> np.ndarray:
        flat = x.reshape(len(x), -1)
        out = np.empty(flat.shape, np.result_type(flat, self.groups[0][1]))
        for rows, vectors in self.groups:
            left = vectors.conj().swapaxes(1, 2) if adjoint else vectors
            # a 1 x 1 eigenvector rotates its row by one broadcast product
            rotate = np.multiply if rows.shape[1] == 1 else np.matmul
            if np.isrealobj(left) and flat.dtype == complex:
                # real vectors on the (re, im) pairs of a complex block
                out[rows] = rotate(left, flat[rows].view(float)).view(complex)
            else:
                out[rows] = rotate(left, flat[rows])
        return out.reshape(x.shape)


def eigensystem(op: NormalFormOperator, cutoff: int) -> Eigensystem:
    """The eigensystem of a Hermitian-paired operator, finite at the cutoff:
    one batched eigh per width of its invariant sectors (``_sector_labels``),
    real when the compiled pads are (an H_n with even powers of pi only).
    The blocks are summed straight from the compiled passes, never from the
    dense matrix: a block cell receives the pad entry of the one pass whose
    shift joins its row and column, the sum of that shift's words in word
    order, as the dense matrix does, and so takes the pads' type."""
    table = _hermitian_table(op, cutoff)
    return _eigensystem(table, _sector_labels(table))


def _hermitian_table(op: NormalFormOperator, cutoff: int) -> WordTable:
    """The passes of a Hermitian-paired operator, refused when a pad entry,
    and so a matrix element, is not finite."""
    check_pairing(op)
    table = compile_operator(op, cutoff)
    if not all(np.isfinite(pad).all() for _, pad in table.passes):
        raise FloatingPointError(f"H_n overflows at cutoff {cutoff}")
    return table


def _eigensystem(table: WordTable, label: np.ndarray) -> Eigensystem:
    """The eigensystem of ``eigensystem`` from the operator's passes and
    its sector labels."""
    size = np.bincount(label)[label]
    # order lists the states by the width of their sector, then by sector;
    # the counts[w] states in sectors of width w are consecutive in it
    order, counts = np.lexsort((label, size)), np.bincount(size)
    # the (counts[w] / w, w, w) blocks of width w are one flat run of
    # cells[w] = counts[w] w cells from run[w]; a state at place k among its
    # width's states owns row k of that run and column k mod w of its sector
    cells = counts * np.arange(counts.size)
    run = np.cumsum(cells) - cells
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    place -= (np.cumsum(counts) - counts)[size]
    row, col = run[size] + place * size, place % size
    blocks = np.zeros(cells.sum(), np.result_type(
        float, *(pad for _, pad in table.passes)))
    # within one pass every target T, and so every cell, is distinct
    for shift, pad in table.passes:
        t = np.flatnonzero(pad)
        blocks[row[t] + col[t - shift]] += pad[t]
    values, groups, start = np.empty(label.size), [], 0
    for width in counts.nonzero()[0]:
        rows = order[start:start + counts[width]].reshape(-1, width)
        values[rows], vectors = np.linalg.eigh(
            blocks[run[width]:run[width] + cells[width]].reshape(
                -1, width, width))
        groups.append((rows, vectors))
        start += rows.size
    log.debug("eigensystem: sectors=%d largest=%d",
              sum(len(rows) for rows, _ in groups), width)
    return Eigensystem(values, tuple(groups))


def _sector_labels(table: WordTable) -> np.ndarray:
    """The least basis index in each basis state's sector, a connected
    component of the moves T - shift -> T of the passes with nonzero shift,
    at every T where the pad is nonzero: label propagation with pointer
    jumping, O(passes dim) a sweep; Hermitian pairing supplies each reverse
    move."""
    moves = [(t, t - shift) for shift, pad in table.passes if shift
             for t in [np.flatnonzero(pad)]]
    label = np.arange(table.cutoff ** table.modes)
    while True:
        before = label.tobytes()
        for target, source in moves:
            label[target] = np.minimum(label[target], label[source])
        label[:] = label[label]
        if label.tobytes() == before:
            return label


def propagate(op: NormalFormOperator, cutoff: int, vectors: np.ndarray,
              times) -> Iterator[np.ndarray]:
    """e^{-itH} x at each of the real times t, in order, for H = op,
    Hermitian-paired and finite at the cutoff, and x a vector or a (dim,
    ...) block, by one of two routes, picked from the operator, the size
    of x and the largest |t|.

    Chebyshev (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984): with
    [a, b] the Gershgorin bounds of H (``gershgorin``), c = (a + b) / 2,
    h = (b - a) / 2 and H~ = (H - c) / h,

        e^{-itH} x = e^{-itc} sum_k (2 - delta_k0) (-i)^k J_k(t h) T_k(H~) x,

    summed to the degree m of the largest |t| h (``chebyshev_degree``), so
    the series left out is below 2^-53 ||x|| at every time.  The m + 1
    vectors T_k(H~) x come from the three-term recurrence through
    ``apply``, and every time shares them.  Eigensystem:
    ``eigensystem(op, cutoff).flow(x)`` at the rate s = i t.  Chebyshev
    runs when m is below the width of the widest invariant sector, the
    size of the largest eigh it spares, and its m + 1 vectors fit in
    SPAN_BYTES; the eigensystem otherwise.  The route is picked and its
    work done by this call; each sample is formed as it is drawn.
    """
    table = _hermitian_table(op, cutoff)
    label = _sector_labels(table)
    widest = int(np.bincount(label).max())
    low, high = gershgorin(table)
    center, half = (low + high) / 2, (high - low) / 2
    times = [float(t) for t in times]
    reach = max(map(abs, times), default=0.0) * half
    # Chebyshev's degree must stay below both the widest sector and the
    # count of vectors that fit in SPAN_BYTES
    limit = min(widest, SPAN_BYTES // (16 * vectors.size))
    # the degree exceeds the reach, which bounds the work of finding it
    degree = chebyshev_degree(reach) if reach < limit else None
    chebyshev = degree is not None and degree < limit
    log.debug("propagate: route=%s degree=%s bounds=[%.6g, %.6g] widest=%d",
              "chebyshev" if chebyshev else "eigensystem",
              f">={limit}" if degree is None else degree, low, high, widest)
    if chebyshev:
        return _chebyshev(table, center, half, degree, vectors, times)
    flow = _eigensystem(table, label).flow(vectors)
    return (flow(1j * t) for t in times)


def gershgorin(table: WordTable) -> tuple[float, float]:
    """[a, b] holding every eigenvalue of the Hermitian operator compiled in
    table: the least d_T - R_T and the greatest d_T + R_T over the rows T,
    d the shift-0 pad and R the sum of |pad| over the other passes, whose
    pads hold the row's off-diagonal elements (Gershgorin's theorem)."""
    dim = table.cutoff ** table.modes
    diagonal, radius = np.zeros(dim), np.zeros(dim)
    for shift, pad in table.passes:
        if shift:
            radius += np.abs(pad)
        else:
            diagonal += pad.real
    return float((diagonal - radius).min()), float((diagonal + radius).max())


def _chebyshev(table: WordTable, center: float, half: float, degree: int,
               vectors: np.ndarray, times) -> Iterator[np.ndarray]:
    """The Chebyshev route of ``propagate``: the vectors T_k(H~) x, k <=
    degree, built at once, then one sum of them per time."""
    # one member is carried as a flat vector, which apply walks fastest
    work = np.array(vectors, complex).reshape(
        (len(vectors), -1) if vectors[0].size > 1 else -1)
    stack = np.empty((degree + 1,) + work.shape, complex)
    stack[0] = work
    if degree:
        # 2 H~ = (2 / h) (H - c): the pads scaled, c on the diagonal
        scale = 2 / half
        passes = {0: np.full(len(work), -center * scale)}
        for shift, pad in table.passes:
            passes[shift] = passes.get(shift, 0) + pad * scale
        doubled = table._replace(passes=tuple(passes.items()))
        stack[1] = 0
        apply(doubled, stack[0], stack[1])
        stack[1] *= 0.5
        for k in range(2, degree + 1):
            # T_k = 2 H~ T_{k-1} - T_{k-2}
            np.negative(stack[k - 2], out=stack[k])
            apply(doubled, stack[k - 1], stack[k])
    terms = stack.reshape(degree + 1, -1)
    # (2 - delta_k0) (-i)^k, exact
    weights = np.array([2, -2j, -2, 2j])[np.arange(degree + 1) % 4]
    weights[0] = 1

    def sample(t):
        bessel = bessel_j(abs(t) * half, degree)
        if t < 0:
            bessel[1::2] *= -1
        coeffs = weights * bessel * np.exp(-1j * t * center)
        return (coeffs @ terms).reshape(vectors.shape)

    return (sample(t) for t in times)


def chebyshev_degree(x: float) -> int:
    """The least degree m at which the Bessel tail 2 sum_{k>m} |J_k(x)|,
    x >= 0, is below 2^-53: the series of e^{-ixy} in T_k(y) cut there is
    off by less on -1 <= y <= 1, where |T_k(y)| <= 1."""
    magnitudes = np.abs(bessel_j(x, _bessel_reach(x)))
    # tails[k] = 2 sum_{i>k} |J_i|, summed from the top
    tails = np.append(2 * np.cumsum(magnitudes[:0:-1])[::-1], 0.0)
    return int(np.argmax(tails < _TAIL))


def bessel_j(x: float, top: int) -> np.ndarray:
    """J_0(x), ..., J_top(x) for x >= 0, by Miller's backward recurrence
    J_{k-1} = (2k / x) J_k - J_{k+1}, started from J_{N+1} = 0 at an N
    past the reach of x and 20 past top, rescaled whenever it grows past
    2^512, and normalized by J_0 + 2 sum_k J_2k = 1.  Below x = 2^-400, J_0
    is 1 to rounding and the rest is below 2^-400; they are returned as 1
    and 0."""
    out = np.zeros(top + 1)
    if x < 2.0 ** -400:
        out[0] = 1.0
        return out
    start = max(top + 20, _bessel_reach(x))
    values = [0.0] * (start + 1)
    above, here = 0.0, 2.0 ** -512
    values[start] = here
    big, small = 2.0 ** 512, 2.0 ** -512
    for k in range(start, 0, -1):
        above, here = here, 2 * k / x * here - above
        values[k - 1] = here
        if abs(here) > big:
            values[k - 1:] = [v * small for v in values[k - 1:]]
            above, here = above * small, here * small
    values = np.array(values)
    out[:] = values[:top + 1] / (values[0] + 2 * values[2::2].sum())
    return out


def _bessel_reach(x: float) -> int:
    """An order past which |J_k(x)| is far below 2^-53: the transition
    region around k = x is some x^(1/3) wide, and J_k falls
    superexponentially beyond it."""
    return math.ceil(x + 18 * x ** (1 / 3)) + 30


def realize_matrix(op: NormalFormOperator, cutoff: int) -> FockMatrix:
    """Dense matrix of a normal-form operator: each pass writes its pad
    along its shifted diagonal, op[T, T - shift] = pad[T], the flat cells
    T (dim + 1) - shift of the matrix."""
    table = compile_operator(op, cutoff)
    dim = cutoff ** op.modes
    out = np.zeros((dim, dim), dtype=complex)
    for shift, pad in table.passes:
        lo, hi = max(shift, 0), dim + min(shift, 0)
        out.reshape(-1)[np.arange(lo, hi) * (dim + 1) - shift] = pad[lo:hi]
    return FockMatrix(op.modes, cutoff, out)


def operator_trace(rho: np.ndarray, table: WordTable) -> complex:
    """Tr(rho op) on a dense rho: each pass sums its pad against one
    shifted diagonal, rho[T - shift, T], O(passes dim)."""
    dim = table.cutoff ** table.modes
    if rho.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the operator")
    return _total(table, lambda shift, lo, hi: np.diagonal(rho, shift))


def block_trace(vectors: np.ndarray, weights: np.ndarray,
                table: WordTable) -> complex:
    """sum_k p_k <w_k|op w_k> on the columns w_k of a dim x r block W with
    real weights p, without forming W diag(p) W^H: each pass sums its pad
    against sum_k p_k conj(w_k[T]) w_k[T - shift], O(passes dim r)."""
    if vectors.shape[0] != table.cutoff ** table.modes:
        raise ValueError("dimension mismatch between the block and the "
                         "operator")
    return _total(table, lambda shift, lo, hi: (
        vectors[lo:hi].conj() * vectors[lo - shift:hi - shift]) @ weights)


def _total(table: WordTable, diagonal) -> complex:
    """sum over the passes of sum_T pad[T] diagonal(shift, lo, hi)[T - lo]
    over the pass's run of targets lo <= T < hi, elementwise (a BLAS dot
    would round differently); a total that is not finite raises
    FloatingPointError."""
    dim = table.cutoff ** table.modes
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for shift, pad in table.passes:
            lo, hi = max(shift, 0), dim + min(shift, 0)
            total += np.sum(pad[lo:hi] * diagonal(shift, lo, hi))
    if not np.isfinite(total):
        raise FloatingPointError(f"Tr(rho op) is not finite at cutoff "
                                 f"{table.cutoff}")
    return complex(total)


def occupations(modes: int, cutoff: int) -> np.ndarray:
    """Array of shape (dim, modes): occupation tuple of each basis index."""
    idx = np.arange(cutoff ** modes)
    out = np.empty((idx.size, modes), dtype=int)
    for j in range(modes - 1, -1, -1):
        out[:, j] = idx % cutoff
        idx = idx // cutoff
    return out


def interior_indices(modes: int, cutoff: int, margin: int) -> np.ndarray:
    """Boolean mask of basis states with every occupation <= cutoff-1-margin.

    Comparisons between symbolic results realized directly and products of
    realized matrices are exact on this block; the discarded top rows are
    where ladder truncation bites.
    """
    occ = occupations(modes, cutoff)
    return (occ <= cutoff - 1 - margin).all(axis=1)


def interior_block(matrix: np.ndarray, modes: int, cutoff: int,
                   margin: int) -> np.ndarray:
    mask = interior_indices(modes, cutoff, margin)
    return matrix[np.ix_(mask, mask)]

