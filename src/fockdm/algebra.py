"""Normal-ordered operator algebra over n bosonic modes.

An operator is a finite sum of words ``C * (adag)^create * (a)^annih`` with
all creation factors to the left of all annihilation factors; ``create`` and
``annih`` are per-mode exponent tuples.  Products are rewritten back into
this form with the commutation rule a adag = adag a + 1, one mode at a time:

    a^r adag^l = sum_k k! C(r,k) C(l,k) adag^(l-k) a^(r-k)

The words are the terms of a ``poly.CanonicalSum`` keyed by (create,
annih), kept canonical like a polynomial's, so exact identities cancel to
the empty operator.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .poly import CanonicalSum, MultiIndex, PolyExpr

WordKey = tuple[MultiIndex, MultiIndex]


class NormalFormOperator(CanonicalSum):
    """Canonical sum of normal-ordered words, merged by (create, annih)."""

    _space = __slots__ = ("modes",)

    def __init__(self, modes: int, terms: Mapping[WordKey, complex] | None = None):
        if modes < 1:
            raise ValueError("modes must be >= 1")
        super().__init__(modes, terms)

    def _key(self, word) -> WordKey:
        create, annih = word
        if len(create) != self.modes or len(annih) != self.modes:
            raise ValueError(f"word {word} does not match {self.modes} modes")
        return tuple(create), tuple(annih)

    @property
    def words(self) -> dict[WordKey, complex]:
        """The terms under their older name, which perfbench/tracer.py reads."""
        return self.terms

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, modes: int = 1) -> "NormalFormOperator":
        return cls(modes, {})

    @classmethod
    def identity(cls, modes: int = 1) -> "NormalFormOperator":
        e = (0,) * modes
        return cls(modes, {(e, e): 1.0})

    @classmethod
    def annihilation(cls, mode: int = 0, modes: int = 1) -> "NormalFormOperator":
        e = (0,) * modes
        r = tuple(1 if j == mode else 0 for j in range(modes))
        return cls(modes, {(e, r): 1.0})

    @classmethod
    def creation(cls, mode: int = 0, modes: int = 1) -> "NormalFormOperator":
        e = (0,) * modes
        c = tuple(1 if j == mode else 0 for j in range(modes))
        return cls(modes, {(c, e): 1.0})

    @classmethod
    def word(cls, coeff: complex, create: Iterable[int],
             annih: Iterable[int]) -> "NormalFormOperator":
        create = tuple(create)
        annih = tuple(annih)
        return cls(len(create), {(create, annih): coeff})

    # -- algebra -----------------------------------------------------------------

    def max_mode_degree(self) -> int:
        """Largest create+annih exponent any single mode carries in a word."""
        return max((max(c + r for c, r in zip(create, annih))
                    for create, annih in self.terms), default=0)

    def _align(self, other):
        if isinstance(other, (int, float, complex)):
            return self, NormalFormOperator.identity(self.modes).scale(other)
        if not isinstance(other, NormalFormOperator):
            return NotImplemented
        if self.modes != other.modes:
            raise ValueError("mode count mismatch")
        return self, other

    def __mul__(self, other):
        if isinstance(other, NormalFormOperator):
            return normal_order_product(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__  # reached only with a non-operator on the left

    def adjoint(self) -> "NormalFormOperator":
        """Hermitian conjugate; swaps creation and annihilation words."""
        return NormalFormOperator(
            self.modes,
            {(annih, create): coeff.conjugate()
             for (create, annih), coeff in self.terms.items()})

    # -- presentation ---------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (create, annih) in sorted(self.terms):
            c = self.terms[(create, annih)]
            factors = []
            for j, e in enumerate(create):
                if e:
                    factors.append(f"ad{j + 1}" + (f"^{e}" if e > 1 else ""))
            for j, e in enumerate(annih):
                if e:
                    factors.append(f"a{j + 1}" + (f"^{e}" if e > 1 else ""))
            body = " ".join(factors) if factors else "1"
            bits.append(f"({c:.6g})*{body}")
        return " + ".join(bits)


def _reorder_single_mode(r: int, l: int) -> list[tuple[int, int, int]]:
    """Rewrite a^r adag^l as sum of k!*C(r,k)*C(l,k) adag^(l-k) a^(r-k)."""
    out = []
    for k in range(min(r, l) + 1):
        w = math.factorial(k) * math.comb(r, k) * math.comb(l, k)
        out.append((w, l - k, r - k))
    return out


def normal_order_product(u: NormalFormOperator,
                         v: NormalFormOperator) -> NormalFormOperator:
    """True operator product u v, rewritten into normal-ordered words."""
    u._align(v)
    n = u.modes
    words: dict[WordKey, complex] = {}
    for (c1, r1), a1 in u.terms.items():
        for (c2, r2), a2 in v.terms.items():
            # per-mode reordering of the inner block a^r1 adag^c2
            options = [_reorder_single_mode(r1[j], c2[j]) for j in range(n)]
            stack = [((), (), a1 * a2)]
            for j, opts in enumerate(options):
                stack = [
                    (create + (c1[j] + lm,), annih + (rm + r2[j],), coeff * w)
                    for create, annih, coeff in stack
                    for (w, lm, rm) in opts
                ]
            for create, annih, coeff in stack:
                key = (create, annih)
                words[key] = words.get(key, 0.0) + coeff
    return NormalFormOperator(n, words)


def commutator(a: NormalFormOperator,
               b: NormalFormOperator) -> NormalFormOperator:
    """AB - BA in normal form."""
    return normal_order_product(a, b) - normal_order_product(b, a)


def poly_to_normal_form(p: PolyExpr) -> NormalFormOperator:
    """Map a polynomial to its normal-product field operator.

    Each zy-chart monomial z^n y^m becomes the word (adag)^m a^n with the
    same coefficient; no reordering constants are introduced, so quadratic
    energies carry no zero-point term.  phipi-chart input is converted first.
    """
    zp = p.to_zy() if p.chart == "phipi" else p
    n = zp.modes
    if n == 0:
        raise ValueError("a field operator needs at least one mode")
    words: dict[WordKey, complex] = {}
    for exps, coeff in zp.terms.items():
        zpart, ypart = exps[:n], exps[n:]
        words[(ypart, zpart)] = words.get((ypart, zpart), 0.0) + coeff
    return NormalFormOperator(n, words)


def hermitian_pair_check(op: NormalFormOperator, tol: float = 1e-12) -> bool:
    """Check that words pair off under Hermitian conjugation.

    True iff each word (create, annih) has the partner (annih, create)
    present with the complex conjugate coefficient, which makes the operator
    Hermitian.
    """
    for (create, annih), coeff in op.terms.items():
        mate = op.terms.get((annih, create))
        if mate is None or abs(mate - coeff.conjugate()) > tol * max(1.0, abs(coeff)):
            return False
    return True


def random_normal_operator(rng, modes: int = 1, degree: int = 3,
                           words: int = 4, hermitian: bool = True,
                           dyadic: bool = True) -> NormalFormOperator:
    """Random operator for identity sweeps.

    Dyadic coefficients (multiples of 1/4) keep all the integer-weight
    commutator identities exact in double precision, so symbolic residuals
    cancel to the empty operator rather than to float dust.
    """
    out: dict[WordKey, complex] = {}
    for _ in range(words):
        create = [0] * modes
        annih = [0] * modes
        for j in range(modes):
            create[j] = int(rng.integers(0, degree + 1))
            annih[j] = int(rng.integers(0, degree + 1))
        key = (tuple(create), tuple(annih))
        if dyadic:
            coeff = complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 4
        else:
            coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if not coeff:
            continue
        out[key] = out.get(key, 0.0) + coeff
        if hermitian:
            mate = (key[1], key[0])
            out[mate] = out.get(mate, 0.0) + coeff.conjugate()
    if not out:
        one = tuple(1 if j == 0 else 0 for j in range(modes))
        out = {(one, one): 1.0}
    return NormalFormOperator(modes, out)
