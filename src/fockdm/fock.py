"""Normal-ordered words in truncated Fock space.

Each of the n modes keeps occupations 0..D-1; the joint basis is the tensor
product with mode 1 as the slowest-varying index, so index i encodes the
occupation tuple via repeated divmod by D.  Ladder matrices follow
<k-1|a|k> = sqrt(k).

A single-mode word (adag)^c a^r is a shifted diagonal (``word_diagonal``)
and an n-mode word is their tensor product, so a word acts on a vector or a
matrix, viewed as a (D,)*n or (D,)*2n tensor, by slicing and scaling along
one axis per mode; ``operator_trace`` reads Tr(rho op) off one shifted
diagonal of rho per word.  Dense matrices (``realize_matrix``) remain for
eigendecompositions, reification, the Liouville commutator and test
oracles.

Truncation policy: a single normal-ordered word (adag)^c a^r realizes
exactly on the whole block (its matrix elements agree with the untruncated
operator wherever row and column both exist).  Products of *realized*
matrices, by contrast, lose amplitude through the top of the ladder, so
identity checks between symbolic and matrix arithmetic are restricted to an
interior block of occupations with a safety margin at the top.
"""

from __future__ import annotations

import functools
import json
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import NormalFormOperator

DIM_CAP = 4096


class DimensionCapError(ValueError):
    """Raised when cutoff**modes exceeds the configured dense-matrix cap."""


def check_dimension(modes: int, cutoff: int, cap: int = DIM_CAP) -> int:
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    dim = cutoff ** modes
    if dim > cap:
        raise DimensionCapError(
            f"{modes} modes at cutoff {cutoff} need dimension {dim} > cap {cap}")
    return dim


@dataclass(frozen=True)
class FockVector:
    modes: int
    cutoff: int
    data: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def to_json(self) -> dict:
        return {"modes": self.modes, "cutoff": self.cutoff,
                "re": self.data.real.tolist(), "im": self.data.imag.tolist()}

    @classmethod
    def from_json(cls, obj: dict | str) -> "FockVector":
        if isinstance(obj, str):
            obj = json.loads(obj)
        data = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return cls(obj["modes"], obj["cutoff"], data)


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

    @classmethod
    def from_json(cls, obj: dict | str) -> "FockMatrix":
        if isinstance(obj, str):
            obj = json.loads(obj)
        dim = obj["cutoff"] ** obj["modes"]
        pairs = np.asarray(obj["data"], dtype=float)
        flat = pairs[:, 0] + 1j * pairs[:, 1]
        return cls(obj["modes"], obj["cutoff"],
                   flat.reshape((dim, dim), order="F"))


class WordDiagonal(NamedTuple):
    """(adag)^create a^annih on one mode: out[target] = weights * v[source]."""

    source: slice
    target: slice
    weights: np.ndarray


def word_diagonal(create: int, annih: int, cutoff: int) -> WordDiagonal:
    """The single-mode word as a shifted diagonal.

    It reads occupation k from annih up and writes k - annih + create, with
    weight sqrt(k (k-1) ... (k-annih+1) * (k-annih+1) ... (k-annih+create)),
    the product taken factor by factor in that order.
    """
    length = max(cutoff - max(create, annih), 0)
    k = np.arange(annih, annih + length, dtype=float)
    val = np.ones(length)
    for step in range(annih):
        val *= k - step
    for step in range(create):
        val *= k - annih + 1 + step
    return WordDiagonal(slice(annih, annih + length),
                        slice(create, create + length), np.sqrt(val))


@functools.lru_cache
def single_mode_word(create: int, annih: int, cutoff: int) -> np.ndarray:
    """Exact D x D matrix of (adag)^create a^annih (shared, read-only)."""
    word = word_diagonal(create, annih, cutoff)
    mat = np.zeros((cutoff, cutoff), dtype=complex)
    np.fill_diagonal(mat[word.target, word.source], word.weights)
    mat.setflags(write=False)
    return mat


def realize_matrix(op: NormalFormOperator, cutoff: int,
                   cap: int = DIM_CAP) -> FockMatrix:
    """Dense matrix of a normal-form operator.

    Words factor across modes, so the sum is assembled by grouping on the
    leading mode's (create, annih) pair and recursing on the remainder; this
    keeps the number of Kronecker products at the number of distinct leading
    factors instead of the number of words.
    """
    dim = check_dimension(op.modes, cutoff, cap)
    data = _realize_words(list(op.words.items()), op.modes, cutoff)
    if data is None:
        data = np.zeros((dim, dim), dtype=complex)
    return FockMatrix(op.modes, cutoff, data)


def _realize_words(items, modes: int, cutoff: int):
    if not items:
        return None
    if modes == 1:
        out = np.zeros((cutoff, cutoff), dtype=complex)
        for (create, annih), coeff in items:
            out += coeff * single_mode_word(create[0], annih[0], cutoff)
        return out
    groups: dict[tuple[int, int], list] = {}
    for (create, annih), coeff in items:
        head = (create[0], annih[0])
        tail = ((create[1:], annih[1:]), coeff)
        groups.setdefault(head, []).append(tail)
    out = None
    for (c0, r0), tail_items in sorted(groups.items()):
        sub = _realize_words(tail_items, modes - 1, cutoff)
        block = np.kron(single_mode_word(c0, r0, cutoff), sub)
        out = block if out is None else out + block
    return out


def operator_trace(rho: np.ndarray, op: NormalFormOperator, cutoff: int,
                   cap: int = DIM_CAP) -> complex:
    """Tr(rho op) without realizing op.

    rho is viewed as a (D,)*2n tensor, row modes first.  A word reads
    rho[source..., target...] and pairs each row mode with its column mode,
    so its trace is that diagonal summed against the outer product of the
    per-mode weights, O(D^n) per word.
    """
    n = op.modes
    dim = check_dimension(n, cutoff, cap)
    if rho.shape != (dim, dim):
        raise ValueError("dimension mismatch between rho and the operator")
    tensor = rho.reshape((cutoff,) * (2 * n))
    axes = string.ascii_letters[:n]
    paired = f"{axes}{axes}->{axes}"
    total = 0j
    for (create, annih), coeff in op.words.items():
        words = [word_diagonal(c, a, cutoff) for c, a in zip(create, annih)]
        block = tensor[tuple(w.source for w in words)
                       + tuple(w.target for w in words)]
        weights = functools.reduce(np.multiply.outer,
                                   [w.weights for w in words], coeff)
        total += np.sum(weights * np.einsum(paired, block))
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


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without forming the product."""
    return complex(np.sum(a * b.T))


def expm_hermitian(generator: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * generator) for Hermitian generators, via eigendecomposition."""
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(scale * w)) @ v.conj().T
