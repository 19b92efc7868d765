"""Normal-ordered words in truncated Fock space.

Each of the n modes keeps occupations 0..D-1; the joint basis is the tensor
product with mode 1 as the slowest-varying index, so index i encodes the
occupation tuple via repeated divmod by D.  Ladder matrices follow
<k-1|a|k> = sqrt(k).

A word (adag)^c a^r is a shifted diagonal on every mode, so it acts on a
vector or a matrix, viewed as a (D,)*n or (D,)*2n tensor, by slicing and
scaling along one axis per mode.  ``compile_operator`` is the one place that
builds these: it turns an operator into a ``WordTable``, one (target,
source, scale) entry per word with the coefficient folded into the scale,
and every consumer reads that table.  ``operator_trace`` reads Tr(rho op)
off a dense rho, ``block_trace`` reads sum_k p_k <w_k|op w_k> off a block of
member vectors without forming rho, ``realize_matrix`` writes the dense
matrix (kept for eigendecompositions, reification and test oracles), and
the master law takes its rows from it.  A moment matrix is a ``FockMatrix``
or, held as its members W and weights p, a ``MemberBlock``; both read a
table through ``expect``.

Truncation policy: a single normal-ordered word (adag)^c a^r realizes
exactly on the whole block (its matrix elements agree with the untruncated
operator wherever row and column both exist).  Products of *realized*
matrices, by contrast, lose amplitude through the top of the ladder, so
identity checks between symbolic and matrix arithmetic are restricted to an
interior block of occupations with a safety margin at the top.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import NormalFormOperator

DIM_CAP = 4096


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


@dataclass(frozen=True)
class FockMatrix:
    modes: int
    cutoff: int
    data: np.ndarray

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.data - self.data.conj().T)))

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


class WordTable(NamedTuple):
    """An operator compiled at one cutoff: one (target, source, scale) entry
    per word, (op v)[target...] = scale * v[source...] along the mode axes."""

    modes: int
    cutoff: int
    entries: tuple


def compile_operator(op: NormalFormOperator, cutoff: int) -> WordTable:
    """Each word of op as a shifted diagonal, after checking the dimension.

    On mode j the word (adag)^c a^r reads occupation k from r_j up and
    writes k - r_j + c_j, with weight sqrt(k (k-1) ... (k-r_j+1) *
    (k-r_j+1) ... (k-r_j+c_j)), the product taken factor by factor in that
    order; the scale is the coefficient times the outer product of the
    per-mode weights in mode order.  A scale that overflows is kept, for
    its reader to catch.
    """
    check_dimension(op.modes, cutoff)
    entries = []
    for (create, annih), coeff in op.terms.items():
        source, target, weights = [], [], []
        for c, a in zip(create, annih):
            length = max(cutoff - max(c, a), 0)
            k = np.arange(a, a + length, dtype=float)
            val = np.ones(length)
            for step in range(a):
                val *= k - step
            for step in range(c):
                val *= k - a + 1 + step
            source.append(slice(a, a + length))
            target.append(slice(c, c + length))
            weights.append(np.sqrt(val))
        with np.errstate(over="ignore", invalid="ignore"):
            scale = functools.reduce(np.multiply.outer, weights, coeff)
        entries.append((tuple(target), tuple(source), scale))
    return WordTable(op.modes, cutoff, tuple(entries))


def _paired_diagonal(modes: int) -> str:
    """einsum spec of the diagonal pairing each row mode with its column."""
    axes = string.ascii_letters[:modes]
    return f"{axes}{axes}->{axes}"


def realize_matrix(op: NormalFormOperator, cutoff: int) -> FockMatrix:
    """Dense matrix of a normal-form operator: on the (D,)*2n view, row
    modes first, each word adds its scale along its shifted diagonal,
    written through the einsum view that pairs each row mode with its
    column mode."""
    table = compile_operator(op, cutoff)
    n = op.modes
    out = np.zeros((cutoff,) * (2 * n), dtype=complex)
    paired = _paired_diagonal(n)
    for target, source, scale in table.entries:
        diagonal = np.einsum(paired, out[target + source])
        diagonal += scale
    return FockMatrix(n, cutoff, out.reshape(cutoff ** n, cutoff ** n))


def operator_trace(rho: np.ndarray, table: WordTable) -> complex:
    """Tr(rho op) on a dense rho, viewed as a (D,)*2n tensor, row modes
    first: a word pairs each row mode of rho[source..., target...] with its
    column mode and sums that diagonal against its scale, O(D^n)."""
    n, cutoff = table.modes, table.cutoff
    if rho.shape != (cutoff ** n,) * 2:
        raise ValueError("dimension mismatch between rho and the operator")
    tensor = rho.reshape((cutoff,) * (2 * n))
    paired = _paired_diagonal(n)
    return _total(table, lambda target, source: np.einsum(
        paired, tensor[source + target]))


def block_trace(vectors: np.ndarray, weights: np.ndarray,
                table: WordTable) -> complex:
    """sum_k p_k <w_k|op w_k> on the columns w_k of a dim x r block W with
    real weights p, without forming W diag(p) W^H: on the (D,)*n + (r,)
    view a word pairs the conjugated target slice of each column with its
    source slice, weighs the columns and sums against its scale, O(D^n r).
    """
    n, cutoff = table.modes, table.cutoff
    if vectors.shape[0] != cutoff ** n:
        raise ValueError("dimension mismatch between the block and the "
                         "operator")
    tensor = vectors.reshape((cutoff,) * n + (-1,))
    return _total(table, lambda target, source: (
        tensor[target].conj() * tensor[source]) @ weights)


def _total(table: WordTable, diagonal) -> complex:
    """sum over the words of scale * diagonal(target, source); a total that
    is not finite raises FloatingPointError."""
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for target, source, scale in table.entries:
            total += np.sum(scale * diagonal(target, source))
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


def expm_hermitian(generator: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * generator) for Hermitian generators, via eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(scale * w)) @ v.conj().T
