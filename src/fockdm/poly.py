"""Commuting-variable polynomials over the two canonical coordinate charts.

A polynomial lives in one of two charts over n modes:

* ``phipi`` -- real canonical coordinates ``phi1..phiN, pi1..piN``.
* ``zy``    -- the complexified pair ``z_j = (phi_j + i pi_j)/sqrt(2)``,
  ``y_j = (phi_j - i pi_j)/sqrt(2)`` with variables ``z1..zN, y1..yN``.

Terms are stored sparsely as a map from an exponent multi-index (a tuple of
2n nonnegative ints, first the phi/z block then the pi/y block) to a complex
coefficient.  The map is a :class:`CanonicalSum`, the store that
``algebra.NormalFormOperator`` shares: equal keys merge, terms with
|coefficient| <= DROP_TOL are removed, and a coefficient that is not finite
raises FloatingPointError.

The text grammar accepted by :func:`parse_poly` (phipi chart only)::

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | atom ("^" exponent)?
    atom     := NUMBER | NAME | "(" expr ")"
    exponent := INT | "(" INT ")"

Implicit multiplication is not part of the grammar.  Exponents must be
nonnegative integer literals.  NAMEs of the form phi<k>/pi<k> are variables;
any other NAME must appear in the bindings map and is substituted at parse
time, so the resulting polynomial is purely numeric.  Parentheses and unary
minus signs nest at most MAX_NESTING deep; deeper text is refused, as is a
variable index over MAX_MODES and a product (a power of a long sum, say) of
over MAX_TERM_PAIRS term pairs.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
from typing import Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]

DROP_TOL = 1e-14

# the deepest nesting of parentheses and unary minus signs parse_poly accepts
MAX_NESTING = 100
# the largest variable index parse_poly accepts, and so the most modes a
# flux suite reads: a bound on the symbolic work, which the flux suites pay
# at any cutoff.  At 12 modes the commutator of phi1*pi1 with a
# nearest-neighbour phi^4 chain takes 1-1.5 ms and its closed form, whose
# symbolic partials take the time, about 6 ms (2-core x86-64, Python 3.11),
# and a quartic that couples every pair of modes meets MAX_TERM_PAIRS from
# 9 modes on
MAX_MODES = 12
# the most term pairs one polynomial or operator product multiplies out
MAX_TERM_PAIRS = 10 ** 5

_SQRT2 = math.sqrt(2.0)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"(phi|pi)([1-9]\d*)$")


class PolyParseError(ValueError):
    """Raised on malformed expression text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ProductSizeError(ValueError):
    """Raised before a product of over MAX_TERM_PAIRS term pairs."""


class ChartError(ValueError):
    """Raised when an operation receives a polynomial in the wrong chart."""


def finite_coefficient(coeff) -> complex:
    """coeff as a complex number; one that is not finite (nan or inf, also
    as the sum of two terms) raises FloatingPointError."""
    c = complex(coeff)
    if not cmath.isfinite(c):
        raise FloatingPointError(f"coefficient {c} is not finite")
    return c


class CanonicalSum:
    """Immutable sparse sum of keys with complex coefficients, kept canonical:
    equal keys merge, a total with |c| <= DROP_TOL is dropped, and a
    coefficient that is not finite raises FloatingPointError.

    A subclass names its identity fields in ``_space`` (also its
    ``__slots__``); its constructor takes those fields, then the terms.  It
    supplies ``_key`` (check and normalize one key), ``_align`` (the two
    operands of a sum on one space, a number read as that multiple of the
    unit, or NotImplemented) and its own product ``__mul__`` over ``_pairs``.
    """

    __slots__ = ("terms",)
    _space: tuple[str, ...] = ()

    def __init__(self, *space_and_terms):
        *space, terms = space_and_terms
        for name, value in zip(self._space, space):
            object.__setattr__(self, name, value)
        clean = {}
        for key, coeff in (terms or {}).items():
            key = self._key(key)
            c = finite_coefficient(coeff)
            if abs(c) > DROP_TOL:
                clean[key] = finite_coefficient(clean.get(key, 0.0) + c)
        object.__setattr__(self, "terms",
                           {k: v for k, v in clean.items() if abs(v) > DROP_TOL})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _identity(self) -> tuple:
        return tuple(getattr(self, name) for name in self._space)

    def _like(self, terms):
        return type(self)(*self._identity(), terms)

    def is_zero(self, tol: float = DROP_TOL) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._identity() == other._identity()
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self._identity() + (tuple(sorted(self.terms.items())),))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, factor: complex):
        return self._like({k: factor * v for k, v in self.terms.items()})

    def __add__(self, other):
        pair = self._align(other)
        if pair is NotImplemented:
            return NotImplemented
        lhs, rhs = pair
        terms = dict(lhs.terms)
        for key, c in rhs.terms.items():
            terms[key] = terms.get(key, 0.0) + c
        return lhs._like(terms)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._align(other)
        if pair is NotImplemented:
            return NotImplemented
        lhs, rhs = pair
        return lhs + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def _pairs(self, other):
        """The ((key, coeff), (key, coeff)) term pairs of a product with
        other, refused before any is formed over MAX_TERM_PAIRS."""
        if len(self.terms) * len(other.terms) > MAX_TERM_PAIRS:
            raise ProductSizeError(
                f"a product of {len(self.terms)} by {len(other.terms)} terms "
                f"exceeds the ceiling of {MAX_TERM_PAIRS} term pairs")
        return itertools.product(self.terms.items(), other.terms.items())

    def __pow__(self, exponent: int):
        """Integer power by repeated squaring; exponent 0 gives the unit."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("powers must be nonnegative integers")
        out, base = self._align(1.0)[1], self
        while exponent:
            if exponent & 1:
                out = out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return out


class PolyExpr(CanonicalSum):
    """Immutable sparse polynomial over one chart."""

    _space = __slots__ = ("chart", "modes")

    def __init__(self, chart: str, modes: int,
                 terms: Mapping[MultiIndex, complex] | None = None):
        if chart not in ("phipi", "zy"):
            raise ChartError(f"unknown chart {chart!r}")
        if modes < 0:
            raise ValueError("modes must be >= 0")
        super().__init__(chart, modes, terms)

    def _key(self, exps) -> MultiIndex:
        if len(exps) != 2 * self.modes:
            raise ValueError(
                f"exponent tuple {exps} does not match {self.modes} modes")
        key = tuple(int(e) for e in exps)
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {exps}")
        return key

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, chart: str = "phipi",
                 modes: int = 1) -> "PolyExpr":
        return cls(chart, modes, {(0,) * (2 * modes): value})

    @classmethod
    def variable(cls, name: str, modes: int | None = None) -> "PolyExpr":
        axis, mode = _parse_var_name(name)
        n = modes if modes is not None else mode
        if mode > n:
            raise ValueError(f"variable {name} exceeds {n} modes")
        exps = [0] * (2 * n)
        exps[axis * n + (mode - 1)] = 1
        return cls("phipi", n, {tuple(exps): 1.0})

    # -- basic queries -----------------------------------------------------

    def axis_of(self, var: str) -> int:
        """Flat exponent position of a phipi variable name."""
        axis, mode = _parse_var_name(var)
        if self.chart != "phipi":
            raise ChartError(f"variable {var} is not in chart {self.chart}")
        if mode > self.modes:
            raise ValueError(f"variable {var} exceeds {self.modes} modes")
        return axis * self.modes + (mode - 1)

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def promote(self, modes: int) -> "PolyExpr":
        """Embed into a chart with more modes (new variables unused)."""
        if modes < self.modes:
            raise ValueError(f"cannot shrink {self.modes} modes to {modes}")
        if modes == self.modes:
            return self
        n0, n1 = self.modes, modes
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * (2 * n1)
            new[:n0] = exps[:n0]
            new[n1:n1 + n0] = exps[n0:]
            terms[tuple(new)] = c
        return PolyExpr(self.chart, n1, terms)

    # -- arithmetic --------------------------------------------------------

    def _align(self, other):
        """Both operands on the larger mode count; a number is a constant."""
        if isinstance(other, (int, float, complex)):
            return self, PolyExpr.constant(other, self.chart, self.modes)
        if not isinstance(other, PolyExpr):
            return NotImplemented
        if other.chart != self.chart:
            raise ChartError("mixed-chart arithmetic")
        n = max(self.modes, other.modes)
        return self.promote(n), other.promote(n)

    def __mul__(self, other):
        pair = self._align(other)
        if pair is NotImplemented:
            return NotImplemented
        lhs, rhs = pair
        terms: dict[MultiIndex, complex] = {}
        for (e1, c1), (e2, c2) in lhs._pairs(rhs):
            key = tuple(a + b for a, b in zip(e1, e2))
            terms[key] = terms.get(key, 0.0) + c1 * c2
        return PolyExpr(self.chart, lhs.modes, terms)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str) -> "PolyExpr":
        """Formal partial derivative with respect to a named variable."""
        axis = self.axis_of(var)
        return self.partial(tuple(int(i == axis)
                                  for i in range(2 * self.modes)))

    def partial(self, index: MultiIndex) -> "PolyExpr":
        """Iterated partial derivative; ``index`` spans all 2n variables."""
        [out] = self.partials([index])
        return out

    def partials(self, indices) -> list["PolyExpr"]:
        """The iterated partial derivative at each index, taken one axis
        step at a time in axis order.  Each index is one step on its last
        nonzero axis from its parent, the index one lower there, whose terms
        are derived once per call and kept as that step left them, no small
        term dropped, so every partial is bit for bit that of its own chain
        of steps from the polynomial."""
        n = 2 * self.modes
        derived: dict[MultiIndex, dict] = {(0,) * n: self.terms}

        def terms_at(index):
            terms = derived.get(index)
            if terms is None:
                axis = n - 1
                while not index[axis]:
                    axis -= 1
                parent = index[:axis] + (index[axis] - 1,) + index[axis + 1:]
                terms = derived[index] = _axis_step(terms_at(parent), axis)
            return terms

        out = []
        for index in indices:
            if len(index) != n:
                raise ValueError("partial index does not match the chart")
            out.append(PolyExpr(self.chart, self.modes,
                                terms_at(tuple(index))))
        return out

    def eval(self, point: Sequence[complex] | np.ndarray
             ) -> complex | np.ndarray:
        """Exact evaluation at a point laid out like the exponent tuple, or
        at each row of a (points, 2n) array (``eval_rows``): each variable's
        powers by repeated multiplication, each term's coefficient times its
        powers in axis order, the terms summed in order from zero."""
        if getattr(point, "ndim", 1) == 2:
            [values] = eval_rows([self], point)
            return values
        if len(point) != 2 * self.modes:
            raise ValueError(
                f"point has {len(point)} entries, chart needs {2 * self.modes}")
        pows: list[list[complex]] = []
        maxes = [0] * (2 * self.modes)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > maxes[i]:
                    maxes[i] = e
        for i, m in enumerate(maxes):
            col = [1.0 + 0.0j]
            x = complex(point[i])
            for _ in range(m):
                col.append(col[-1] * x)
            pows.append(col)
        acc = 0.0 + 0.0j
        for exps, c in self.terms.items():
            v = c
            for i, e in enumerate(exps):
                if e:
                    v *= pows[i][e]
            acc += v
        return acc

    # -- chart changes -----------------------------------------------------

    def to_zy(self) -> "PolyExpr":
        """Substitute phi = (z+y)/sqrt2, pi = (z-y)/(i sqrt2) and expand."""
        if self.chart != "phipi":
            raise ChartError("to_zy expects the phipi chart")
        return self._linear_substitution("zy",
                                         (1 / _SQRT2, 1 / _SQRT2),
                                         (-1j / _SQRT2, 1j / _SQRT2))

    def _linear_substitution(self, chart: str,
                             first: tuple[complex, complex],
                             second: tuple[complex, complex]) -> "PolyExpr":
        # Each source variable maps to a*(new first-block var) + b*(new
        # second-block var) of the same mode; expand binomially per factor.
        n = self.modes
        terms: dict[MultiIndex, complex] = {}
        for exps, coeff in self.terms.items():
            partial: dict[MultiIndex, complex] = {(0,) * (2 * n): coeff}
            for axis, e in enumerate(exps):
                if e == 0:
                    continue
                j = axis % n
                a, b = first if axis < n else second
                expanded: dict[MultiIndex, complex] = {}
                for k in range(e + 1):
                    w = math.comb(e, k) * (a ** k) * (b ** (e - k))
                    if w == 0:
                        continue
                    for key, c in partial.items():
                        new = list(key)
                        new[j] += k
                        new[n + j] += e - k
                        t = tuple(new)
                        expanded[t] = expanded.get(t, 0.0) + c * w
                partial = expanded
            for key, c in partial.items():
                terms[key] = terms.get(key, 0.0) + c
        return PolyExpr(chart, n, terms)

    # -- presentation & serialization ---------------------------------------

    def _var_name(self, axis: int) -> str:
        names = ("phi", "pi") if self.chart == "phipi" else ("z", "y")
        return f"{names[axis // self.modes]}{axis % self.modes + 1}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms):
            c = self.terms[exps]
            factors = []
            for axis, e in enumerate(exps):
                if e == 1:
                    factors.append(self._var_name(axis))
                elif e > 1:
                    factors.append(f"{self._var_name(axis)}^{e}")
            if abs(c.imag) <= DROP_TOL * max(1.0, abs(c.real)):
                coeff_txt = repr(c.real)
                negative = c.real < 0
            else:
                coeff_txt = f"({c!r})"
                negative = False
            if negative and pieces:
                sign, coeff_txt = " - ", repr(-c.real)
            else:
                sign = " + " if pieces else ""
            body = "*".join([coeff_txt] + factors) if factors else coeff_txt
            pieces.append(sign + body)
        return "".join(pieces)

    __repr__ = __str__


# the most bytes of one part, (terms, polynomials, rows) or (powers,
# variables, rows), that eval_rows holds
EVAL_BYTES = 2 ** 20


def eval_rows(polys: list[PolyExpr], points: np.ndarray) -> np.ndarray:
    """The (polynomials, rows) values of each polynomial at each row of a
    (rows, 2n) array, each row bit for bit ``PolyExpr.eval`` at that point:
    the same products in the same order, each complex product formed from
    real parts as a Python complex forms it (numpy's complex product may
    fuse them).  The polynomials are stacked term by term, the shorter ones
    padded with -0.0, which changes no sum, and read a block of rows at a
    time, no part of it larger than EVAL_BYTES.  As with Python's complex
    numbers, an overflow is not an error."""
    width = points.shape[1]
    if any(2 * p.modes != width for p in polys):
        raise ValueError(f"points have {width} entries, a chart needs "
                         f"{sorted({2 * p.modes for p in polys})}")
    depth = max((len(p.terms) for p in polys), default=0)
    exps = np.zeros((depth, len(polys), width), int)
    coeffs = np.full((depth, len(polys)), complex(-0.0, -0.0))
    for k, poly in enumerate(polys):
        if poly.terms:
            exps[:len(poly.terms), k] = list(poly.terms)
            coeffs[:len(poly.terms), k] = list(poly.terms.values())
    used = [(i, exps[:, :, i], (exps[:, :, i] > 0)[..., None])
            for i in range(width) if exps[:, :, i].any()]
    top = exps.max(initial=0)
    block = max(1, EVAL_BYTES // (8 * max((depth + 1) * len(polys),
                                          (top + 1) * width, 1)))
    out = np.empty((len(polys), len(points)), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(points), block):
            x = points[start:start + block].T.astype(complex)
            p_re = np.ones((top + 1,) + x.shape)
            p_im = np.zeros_like(p_re)
            for k in range(1, len(p_re)):
                p_re[k] = p_re[k - 1] * x.real - p_im[k - 1] * x.imag
                p_im[k] = p_re[k - 1] * x.imag + p_im[k - 1] * x.real
            # row 0 of the parts is the zero each sum starts from
            re = np.zeros((depth + 1, len(polys), x.shape[1]))
            im = np.zeros_like(re)
            re[1:], im[1:] = coeffs.real[..., None], coeffs.imag[..., None]
            v_re, v_im = re[1:], im[1:]
            for i, power, mask in used:
                b_re, b_im = p_re[power, i], p_im[power, i]
                product = (v_re * b_re - v_im * b_im,
                           v_re * b_im + v_im * b_re)
                np.copyto(v_re, product[0], where=mask)
                np.copyto(v_im, product[1], where=mask)
            rows = out[:, start:start + block]
            rows.real = np.add.accumulate(re)[-1]
            rows.imag = np.add.accumulate(im)[-1]
    return out


def _axis_step(terms: Mapping[MultiIndex, complex],
               axis: int) -> dict[MultiIndex, complex]:
    """The terms of one partial derivative along one axis, none dropped."""
    new: dict[MultiIndex, complex] = {}
    for exps, c in terms.items():
        e = exps[axis]
        if e == 0:
            continue
        key = exps[:axis] + (e - 1,) + exps[axis + 1:]
        new[key] = new.get(key, 0.0) + c * e
    return new


def _parse_var_name(name: str) -> tuple[int, int]:
    """Map a phipi variable name to (axis block 0/1, 1-based mode)."""
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"{name!r} is not a recognized variable name")
    return 0 if m.group(1) == "phi" else 1, int(m.group(2))


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, bindings: Mapping[str, float]):
        self.text = text
        self.bindings = dict(bindings or {})
        self.pos = 0
        self.max_mode = 0
        self.depth = 0

    def error(self, message: str, pos: int | None = None) -> PolyParseError:
        return PolyParseError(message, self.pos if pos is None else pos)

    def nested(self, parse) -> PolyExpr:
        """parse() one level deeper, refused past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> PolyExpr:
        node = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        n = max(self.max_mode, 1)
        return node.promote(n) if node.modes < n else node

    def parse_expr(self) -> PolyExpr:
        node = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = node + self.parse_term()
            elif ch == "-":
                self.pos += 1
                node = node - self.parse_term()
            else:
                return node

    def parse_term(self) -> PolyExpr:
        node = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            node = node * self.parse_factor()
        return node

    def parse_factor(self) -> PolyExpr:
        if self.peek() == "-":
            self.pos += 1
            return -self.nested(self.parse_factor)
        node = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            node = node ** self.parse_exponent()
        return node

    def parse_atom(self) -> PolyExpr:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            node = self.nested(self.parse_expr)
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return node
        if ch.isdigit() or ch == ".":
            return PolyExpr.constant(self.parse_number(), "phipi", 1)
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            if not ch:
                raise self.error("unexpected end of input")
            raise self.error(f"unexpected character {ch!r}")
        name = m.group(0)
        self.pos = m.end()
        vm = _VAR_RE.match(name)
        if vm:
            digits = vm.group(2)
            # refused before int() and before an exponent tuple is built
            if len(digits) > len(str(MAX_MODES)) or int(digits) > MAX_MODES:
                raise self.error(f"variable index exceeds the ceiling of "
                                 f"{MAX_MODES} modes", start)
            mode = int(digits)
            self.max_mode = max(self.max_mode, mode)
            return PolyExpr.variable(name, modes=self.max_mode)
        if name in self.bindings:
            return PolyExpr.constant(float(self.bindings[name]), "phipi", 1)
        raise self.error(f"unbound symbol {name!r}", start)

    def parse_number(self) -> float:
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a number")
        self.pos = m.end()
        return float(m.group(0))

    def parse_exponent(self) -> int:
        self.skip_ws()
        start = self.pos
        parenthesized = self.peek() == "("
        if parenthesized:
            self.pos += 1
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        value = self.parse_number()
        # a '/' here means a fractional exponent was written out
        if self.peek() == "/":
            raise self.error("non-integer exponent", start)
        if parenthesized:
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
        if sign < 0 or value != int(value):
            raise self.error("non-integer exponent", start)
        return int(value)


def parse_poly(text: str, bindings: Mapping[str, float] | None = None
               ) -> PolyExpr:
    """Parse expression text in the phipi chart.

    Bound constants are substituted immediately; the mode count is inferred
    from the largest variable index.
    """
    return _Parser(text, bindings or {}).parse()


def random_poly(rng, chart: str = "phipi", modes: int = 1, degree: int = 3,
                terms: int = 6, dyadic: bool = False) -> PolyExpr:
    """Random polynomial for test sweeps; ``dyadic`` keeps coefficients exact."""
    out: dict[MultiIndex, complex] = {}
    width = 2 * modes
    for _ in range(terms):
        exps = [0] * width
        budget = int(rng.integers(0, degree + 1))
        for _ in range(budget):
            exps[int(rng.integers(0, width))] += 1
        if dyadic:
            c = complex(int(rng.integers(-8, 9))) / 4
        else:
            c = complex(rng.uniform(-1, 1))
        if c:
            key = tuple(exps)
            out[key] = out.get(key, 0.0) + c
    return PolyExpr(chart, modes, out)
