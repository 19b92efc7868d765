"""Normal-ordered words in truncated Fock space.

Each of the n modes keeps occupations 0..D-1; the joint basis is the tensor
product with mode 1 as the slowest-varying index, so index i encodes the
occupation tuple via repeated divmod by D.  Ladder matrices follow
<k-1|a|k> = sqrt(k).

A word (adag)^c a^r is a shifted diagonal on every mode (``word_diagonal``),
so it acts on a vector or a matrix, viewed as a (D,)*n or (D,)*2n tensor, by
slicing and scaling along one axis per mode.  This is the one primitive of
the layer: ``operator_trace`` reads Tr(rho op) off one shifted diagonal of
rho per word, and ``realize_matrix`` writes the dense matrix, which remains
for eigendecompositions, reification and test oracles, one shifted
diagonal per word.  Matrices of any kind (operators,
moment matrices) are ``FockMatrix`` values; vectors are plain arrays.

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
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    dim = cutoff ** modes
    if dim > DIM_CAP:
        raise DimensionCapError(
            f"{modes} modes at cutoff {cutoff} need dimension {dim} > cap "
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

    def to_json(self) -> dict:
        # column-major flattening, one [re, im] pair per entry
        flat = self.data.flatten(order="F")
        return {"modes": self.modes, "cutoff": self.cutoff,
                "data": [[v.real, v.imag] for v in flat]}


class WordDiagonal(NamedTuple):
    """(adag)^create a^annih as a shifted diagonal, one entry per mode:
    out[target...] = outer(weights...) * v[source...]."""

    source: tuple[slice, ...]
    target: tuple[slice, ...]
    weights: tuple[np.ndarray, ...]


def word_diagonal(create: tuple, annih: tuple, cutoff: int) -> WordDiagonal:
    """The n-mode word as a shifted diagonal.

    On mode j it reads occupation k from annih_j up and writes
    k - annih_j + create_j, with weight sqrt(k (k-1) ... (k-annih_j+1) *
    (k-annih_j+1) ... (k-annih_j+create_j)), the product taken factor by
    factor in that order.
    """
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
    return WordDiagonal(tuple(source), tuple(target), tuple(weights))


def _paired_diagonal(modes: int) -> str:
    """einsum spec of the diagonal pairing each row mode with its column."""
    axes = string.ascii_letters[:modes]
    return f"{axes}{axes}->{axes}"


def realize_matrix(op: NormalFormOperator, cutoff: int) -> FockMatrix:
    """Dense matrix of a normal-form operator.

    The output is viewed as a (D,)*2n tensor, row modes first; each word
    adds its weights, scaled by the coefficient, along its shifted diagonal,
    written through the einsum view that pairs each row mode with its
    column mode.
    """
    n = op.modes
    dim = check_dimension(n, cutoff)
    out = np.zeros((cutoff,) * (2 * n), dtype=complex)
    paired = _paired_diagonal(n)
    for (create, annih), coeff in op.words.items():
        word = word_diagonal(create, annih, cutoff)
        diagonal = np.einsum(paired, out[word.target + word.source])
        diagonal += functools.reduce(np.multiply.outer, word.weights, coeff)
    return FockMatrix(n, cutoff, out.reshape(dim, dim))


def operator_trace(rho: np.ndarray, op: NormalFormOperator,
                   cutoff: int) -> complex:
    """Tr(rho op) without realizing op.

    rho is viewed as a (D,)*2n tensor, row modes first.  A word reads
    rho[source..., target...] and pairs each row mode with its column mode,
    so its trace is that diagonal summed against the outer product of the
    per-mode weights, O(D^n) per word.  A total that is not finite raises
    FloatingPointError.
    """
    n = op.modes
    dim = check_dimension(n, cutoff)
    if rho.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the operator")
    tensor = rho.reshape((cutoff,) * (2 * n))
    paired = _paired_diagonal(n)
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for (create, annih), coeff in op.words.items():
            word = word_diagonal(create, annih, cutoff)
            block = tensor[word.source + word.target]
            weights = functools.reduce(np.multiply.outer, word.weights, coeff)
            total += np.sum(weights * np.einsum(paired, block))
    if not np.isfinite(total):
        raise FloatingPointError(f"Tr(rho op) is not finite at cutoff "
                                 f"{cutoff}")
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
