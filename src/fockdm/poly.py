"""Commuting-variable polynomials over the two canonical coordinate charts.

A polynomial lives in one of two charts over n modes:

* ``phipi`` -- real canonical coordinates ``phi1..phiN, pi1..piN``.
* ``zy``    -- the complexified pair ``z_j = (phi_j + i pi_j)/sqrt(2)``,
  ``y_j = (phi_j - i pi_j)/sqrt(2)`` with variables ``z1..zN, y1..yN``.

Terms are stored sparsely as a map from an exponent multi-index (a tuple of
2n nonnegative ints, first the phi/z block then the pi/y block) to a complex
coefficient.  All operations return canonical polynomials: terms with
|coefficient| <= DROP_TOL are removed and the term order is lexicographic
on the exponent tuple.

The text grammar accepted by :func:`parse_poly` (phipi chart only)::

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | atom ("^" exponent)?
    atom     := NUMBER | NAME | "(" expr ")"
    exponent := INT | "(" INT ")"

Implicit multiplication is not part of the grammar.  Exponents must be
nonnegative integer literals.  NAMEs of the form phi<k>/pi<k> are variables;
any other NAME must appear in the bindings map and is substituted at parse
time, so the resulting polynomial is purely numeric.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

MultiIndex = tuple[int, ...]

DROP_TOL = 1e-14

_SQRT2 = math.sqrt(2.0)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"(phi|pi)([1-9]\d*)$")


class PolyParseError(ValueError):
    """Raised on malformed expression text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ChartError(ValueError):
    """Raised when an operation receives a polynomial in the wrong chart."""


def total_degree(index: MultiIndex) -> int:
    return sum(index)


class PolyExpr:
    """Immutable sparse polynomial over one chart."""

    __slots__ = ("chart", "modes", "terms")

    def __init__(self, chart: str, modes: int,
                 terms: Mapping[MultiIndex, complex] | None = None):
        if chart not in ("phipi", "zy"):
            raise ChartError(f"unknown chart {chart!r}")
        if modes < 0:
            raise ValueError("modes must be >= 0")
        clean: dict[MultiIndex, complex] = {}
        if terms:
            width = 2 * modes
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError(
                        f"exponent tuple {exps} does not match {modes} modes")
                c = complex(coeff)
                if abs(c) > DROP_TOL:
                    key = tuple(int(e) for e in exps)
                    if any(e < 0 for e in key):
                        raise ValueError(f"negative exponent in {exps}")
                    clean[key] = clean.get(key, 0.0) + c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "terms",
                           {k: v for k, v in clean.items() if abs(v) > DROP_TOL})

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PolyExpr is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: str = "phipi", modes: int = 1) -> "PolyExpr":
        return cls(chart, modes, {})

    @classmethod
    def constant(cls, value: complex, chart: str = "phipi",
                 modes: int = 1) -> "PolyExpr":
        return cls(chart, modes, {(0,) * (2 * modes): value})

    @classmethod
    def variable(cls, name: str, modes: int | None = None) -> "PolyExpr":
        chart, axis, mode = _parse_var_name(name)
        n = modes if modes is not None else mode
        if mode > n:
            raise ValueError(f"variable {name} exceeds {n} modes")
        exps = [0] * (2 * n)
        exps[axis * n + (mode - 1)] = 1
        return cls(chart, n, {tuple(exps): 1.0})

    # -- basic queries -----------------------------------------------------

    def axis_of(self, var: str) -> int:
        """Flat exponent position of a variable name in this chart."""
        chart, axis, mode = _parse_var_name(var)
        if chart != self.chart:
            raise ChartError(f"variable {var} is not in chart {self.chart}")
        if mode > self.modes:
            raise ValueError(f"variable {var} exceeds {self.modes} modes")
        return axis * self.modes + (mode - 1)

    def degree(self) -> int:
        return max((total_degree(k) for k in self.terms), default=0)

    def is_zero(self, tol: float = DROP_TOL) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

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

    def _coerce(self, other) -> "PolyExpr":
        if isinstance(other, PolyExpr):
            if other.chart != self.chart:
                raise ChartError("mixed-chart arithmetic")
            n = max(self.modes, other.modes)
            return other.promote(n)
        if isinstance(other, (int, float, complex)):
            return PolyExpr.constant(other, self.chart, self.modes)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        lhs = self.promote(rhs.modes)
        terms = dict(lhs.terms)
        for exps, c in rhs.terms.items():
            terms[exps] = terms.get(exps, 0.0) + c
        return PolyExpr(self.chart, lhs.modes, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyExpr(self.chart, self.modes,
                        {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        lhs = self.promote(rhs.modes)
        terms: dict[MultiIndex, complex] = {}
        for e1, c1 in lhs.terms.items():
            for e2, c2 in rhs.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return PolyExpr(self.chart, lhs.modes, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = PolyExpr.constant(1.0, self.chart, self.modes)
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return (self.chart == other.chart and self.modes == other.modes
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.chart, self.modes, tuple(sorted(self.terms.items(),
                                                          key=lambda kv: kv[0]))))

    def approx_eq(self, other: "PolyExpr", tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str) -> "PolyExpr":
        """Formal partial derivative with respect to a named variable."""
        axis = self.axis_of(var)
        terms: dict[MultiIndex, complex] = {}
        for exps, c in self.terms.items():
            e = exps[axis]
            if e == 0:
                continue
            key = exps[:axis] + (e - 1,) + exps[axis + 1:]
            terms[key] = terms.get(key, 0.0) + c * e
        return PolyExpr(self.chart, self.modes, terms)

    def partial(self, index: MultiIndex) -> "PolyExpr":
        """Iterated partial derivative; ``index`` spans all 2n variables."""
        if len(index) != 2 * self.modes:
            raise ValueError("partial index does not match the chart")
        out = self
        terms = out.terms
        for axis, order in enumerate(index):
            for _ in range(order):
                new: dict[MultiIndex, complex] = {}
                for exps, c in terms.items():
                    e = exps[axis]
                    if e == 0:
                        continue
                    key = exps[:axis] + (e - 1,) + exps[axis + 1:]
                    new[key] = new.get(key, 0.0) + c * e
                terms = new
        return PolyExpr(self.chart, self.modes, terms)

    def eval(self, point: Sequence[complex]) -> complex:
        """Exact evaluation at a point laid out like the exponent tuple."""
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

    def to_phipi(self) -> "PolyExpr":
        """Substitute z = (phi+i pi)/sqrt2, y = (phi-i pi)/sqrt2 and expand."""
        if self.chart != "zy":
            raise ChartError("to_phipi expects the zy chart")
        return self._linear_substitution("phipi",
                                         (1 / _SQRT2, 1j / _SQRT2),
                                         (1 / _SQRT2, -1j / _SQRT2))

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


def _parse_var_name(name: str) -> tuple[str, int, int]:
    """Map a variable name to (chart, axis block 0/1, 1-based mode)."""
    m = _VAR_RE.match(name)
    if m:
        return "phipi", 0 if m.group(1) == "phi" else 1, int(m.group(2))
    m = re.match(r"(z|y)([1-9]\d*)$", name)
    if m:
        return "zy", 0 if m.group(1) == "z" else 1, int(m.group(2))
    raise ValueError(f"{name!r} is not a recognized variable name")


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, bindings: Mapping[str, float], modes: int | None):
        self.text = text
        self.bindings = dict(bindings or {})
        self.pos = 0
        self.modes_hint = modes
        self.max_mode = 0

    def error(self, message: str, pos: int | None = None) -> PolyParseError:
        return PolyParseError(message, self.pos if pos is None else pos)

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
        n = self.modes_hint if self.modes_hint is not None else max(self.max_mode, 1)
        if self.max_mode > n:
            raise self.error(f"variable index exceeds declared {n} modes", 0)
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
            return -self.parse_factor()
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
            node = self.parse_expr()
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
            mode = int(vm.group(2))
            self.max_mode = max(self.max_mode, mode)
            n = max(self.max_mode, self.modes_hint or 0)
            return PolyExpr.variable(name, modes=n)
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


def parse_poly(text: str, bindings: Mapping[str, float] | None = None,
               modes: int | None = None) -> PolyExpr:
    """Parse expression text in the phipi chart.

    Bound constants are substituted immediately; the mode count is inferred
    from the largest variable index unless ``modes`` pins it.
    """
    return _Parser(text, bindings or {}, modes).parse()


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
