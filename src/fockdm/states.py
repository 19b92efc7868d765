"""Classical states, ensembles, and their Fock-space moment encodings.

A pure classical state (phi, pi) of the n-mode ODE system is encoded as the
multimode coherent vector with per-mode amplitude z_j = (phi_j + i pi_j)/sqrt2:

    w(phi, pi) = exp(sum_j z_j adag_j - |z_j|^2 / 2) |0>

so a_j w = z_j w.  The moment matrix of an ensemble is the weighted sum of
the rank-one projectors w w^H; such matrices are Hermitian, PSD and
unit-trace (physically realizable).  An ``Ensemble`` holds its members as
read-only arrays.  One recurrence, ``_coherent_columns``, builds their
per-mode coherent columns a chunk of members at a time, and both Fock
encodings read them.  ``Ensemble.member_blocks`` yields MemberBlocks of
W diag(p) W^H, each column w of W the Kronecker product of a member's
columns, at most dim members each; a dense ``FockMatrix`` is the sum of
their ``dense`` products.  ``Ensemble.product_members``, which the flux
suites read, keeps w as its factors, so no D^n vector is formed.  Both are
exact up to ladder truncation, which is kept quantitative by the amplitude
guard |z_j|^2 <= cutoff/4.

Hamilton's equations move the states by fixed-step RK4 (``rk4_step`` and
the ``step_count`` rule, by which the CLI also counts evolve's sample grid).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import poly_to_normal_form
from .fock import (
    FockMatrix,
    MemberBlock,
    ProductMembers,
    check_dimension,
    compile_operator,
)
from .poly import ChartError, PolyExpr, eval_rows

_SQRT2 = math.sqrt(2.0)

# the most bytes of per-mode columns one ProductMembers chunk holds; its
# moments are built from degree + 1 lowered copies of them
PRODUCT_BYTES = 2 ** 18
# the most members one chunk of evaluation points holds: a polynomial's
# batched eval holds about 50 bytes per term and member
POINT_ROWS = 2 ** 10


class AmplitudeOverflowError(ValueError):
    """Coherent amplitude too large for the requested cutoff."""

    def __init__(self, mode: int, amplitude: float, cutoff: int):
        super().__init__(
            f"mode {mode + 1}: |z| = {amplitude:.4g} exceeds the truncation "
            f"guard sqrt(cutoff/4) = {math.sqrt(cutoff / 4):.4g}")
        self.mode = mode


@dataclass(frozen=True)
class ClassicalState:
    """A point (phi, pi) in the 2n-dimensional classical phase space."""

    phi: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        pi = np.atleast_1d(np.asarray(self.pi, dtype=float))
        if phi.shape != pi.shape or phi.ndim != 1 or not phi.size:
            raise ValueError("phi and pi must be nonempty 1-d arrays of equal "
                             "length")
        if not (np.isfinite(phi).all() and np.isfinite(pi).all()):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "pi", pi)

    @property
    def modes(self) -> int:
        return self.phi.size

    @property
    def z(self) -> np.ndarray:
        return (self.phi + 1j * self.pi) / _SQRT2

    def point(self) -> np.ndarray:
        """Evaluation point for phipi-chart polynomials."""
        return np.concatenate([self.phi, self.pi])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Finite weighted collection of classical states, held as read-only
    (members, n) phi and pi arrays and (members,) weights that sum to 1."""

    phi: np.ndarray
    pi: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        try:
            phi, pi = (np.array(a, dtype=float) for a in (self.phi, self.pi))
        except ValueError as err:  # rows of unequal length
            raise ValueError("all members must share the mode count") from err
        weights = np.array(self.weights, dtype=float)
        if not weights.size:
            raise ValueError("ensemble needs at least one member")
        if (phi.ndim != 2 or not phi.shape[1] or pi.shape != phi.shape
                or weights.shape != phi.shape[:1]):
            raise ValueError("phi and pi must be nonempty (members, modes) "
                             "arrays of equal shape, one weight per member")
        if not (np.isfinite(phi).all() and np.isfinite(pi).all()):
            raise ValueError("state entries must be finite")
        if not (weights > 0).all():  # nan is not positive
            raise ValueError("weights must be positive")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        for name, value in (("phi", phi), ("pi", pi), ("weights", weights)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def modes(self) -> int:
        return self.phi.shape[1]

    @property
    def size(self) -> int:
        return self.weights.size

    @classmethod
    def pure(cls, state: ClassicalState) -> "Ensemble":
        return cls(state.phi[None], state.pi[None], [1.0])

    @classmethod
    def from_states(cls, states: Iterable[ClassicalState],
                    weights: Iterable[float] | None = None) -> "Ensemble":
        states = list(states)
        n = len(states)
        weights = list([1.0 / max(n, 1)] * n if weights is None else weights)
        if len(weights) != n:
            raise ValueError(f"{n} states and {len(weights)} weights")
        return cls([s.phi for s in states], [s.pi for s in states], weights)

    @classmethod
    def phase_circle(cls, radius: float, points: int,
                     modes: int = 1) -> "Ensemble":
        """Equally weighted states on a circle in mode 1's (phi, pi) plane."""
        phi, pi = np.zeros((2, points, modes))
        thetas = [2 * math.pi * k / points for k in range(points)]
        phi[:, 0] = [radius * math.cos(theta) for theta in thetas]
        pi[:, 0] = [radius * math.sin(theta) for theta in thetas]
        return cls(phi, pi, [1.0 / points] * points)

    def points(self, chart: str = "phipi"
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The members' (members, 2n) evaluation points in the chart, each
        row laid out as ``ClassicalState.point`` or, in the zy chart, as
        (z, conj z), and their weights, at most POINT_ROWS members a
        chunk, in order."""
        for start in range(0, self.size, POINT_ROWS):
            rows = slice(start, start + POINT_ROWS)
            phi, pi = self.phi[rows], self.pi[rows]
            if chart == "zy":
                z = (phi + 1j * pi) / _SQRT2
                phi, pi = z, np.conj(z)
            yield np.concatenate([phi, pi], axis=1), self.weights[rows]

    def mean(self, polys: list[PolyExpr]) -> list[float]:
        """The weighted mean over the members of the real part of each
        phipi-chart polynomial, read a chunk of members at a time by one
        ``poly.eval_rows`` of them all, each sum started from zero, so a
        zero mean is +0.0."""
        means = np.zeros(len(polys))
        for points, weights in self.points():
            means += eval_rows(polys, points).real @ weights
        return means.tolist()

    def member_blocks(self, cutoff: int) -> Iterator[MemberBlock]:
        """The members as MemberBlocks of at most dim members each, in
        order: one pseudo-wavefunction column of W per member, the product
        over the modes of its ``_coherent_columns``, mode 1 slowest (as
        ``np.kron`` orders it), and its weight in p.  Nothing wider than
        dim x dim is held at once."""
        dim = check_dimension(self.modes, cutoff)
        for start in range(0, self.size, dim):
            rows = slice(start, start + dim)
            z = (self.phi[rows] + 1j * self.pi[rows]) / _SQRT2
            columns = _coherent_columns(z, cutoff)
            w = columns[0]
            for column in columns[1:]:
                w = (w[:, None] * column).reshape(-1, w.shape[1])
            yield MemberBlock(self.modes, cutoff, w, self.weights[rows])

    def product_members(self, cutoff: int,
                        degree: int) -> Iterator[ProductMembers]:
        """The members as ProductMembers with moments up to degree, in
        order: each member's coherent column on each mode, built for a
        chunk of members at once, at most PRODUCT_BYTES of columns a
        chunk.  Nothing of size D^n is formed."""
        check_dimension(1, cutoff)
        size = max(1, PRODUCT_BYTES // (16 * self.modes * cutoff))
        for start in range(0, self.size, size):
            rows = slice(start, start + size)
            z = (self.phi[rows] + 1j * self.pi[rows]) / _SQRT2
            yield ProductMembers(self.modes, cutoff, _coherent_columns(
                z, cutoff), self.weights[rows], degree)


def pseudo_wavefunction(state: ClassicalState, cutoff: int) -> np.ndarray:
    """Coherent encoding of a pure classical state in the number basis: the
    one column of its pure ensemble's member block.

    Amplitudes are prod_j z_j^{k_j} e^{-|z_j|^2/2} / sqrt(k_j!), built by the
    stable recurrence v_k = v_{k-1} z / sqrt(k).  The guard |z_j|^2 <= D/4
    bounds the truncated tail mass 1 - ||w||^2 only loosely: at the guard
    it is 1.9e-2, 1.1e-3, 4.9e-6, 2.5e-8, 1.3e-10, 4e-15 and 1.4e-19 per
    mode at D = 4, 8, 16, 24, 32, 48 and 64.
    """
    [block] = Ensemble.pure(state).member_blocks(cutoff)
    return block.vectors[:, 0]


def _coherent_columns(z: np.ndarray, cutoff: int) -> np.ndarray:
    """The (modes, D, members) coherent columns z^k e^{-|z|^2/2} / sqrt(k!),
    k < D, of the (members, modes) amplitudes z: v_k = v_{k-1} z / sqrt(k)
    as one running product over k for all of them, under the guard
    |z| <= sqrt(D/4), so that no amplitude past it is squared; the first one
    past it in member order is named by its mode."""
    size = np.abs(z)
    over = size > math.sqrt(cutoff / 4)
    if over.any():
        member, mode = np.argwhere(over)[0]
        raise AmplitudeOverflowError(int(mode), float(size[member, mode]),
                                     cutoff)
    steps = np.ones((z.shape[1], cutoff, z.shape[0]), complex)
    steps[:, 1:] = z.T[:, None] / np.sqrt(np.arange(1.0, cutoff))[:, None]
    return np.cumprod(steps, axis=1) * np.exp(-size.T ** 2 / 2)[:, None]


def pure_density(state: ClassicalState, cutoff: int) -> FockMatrix:
    """Rank-one moment matrix w w^H of a pure state."""
    return ensemble_density(Ensemble.pure(state), cutoff)


def ensemble_density(ensemble: Ensemble, cutoff: int) -> FockMatrix:
    """Weighted mixture of pure moment matrices, Hermitian, PSD and of trace
    one: the sum of the member blocks' W diag(p) W^H."""
    blocks = ensemble.member_blocks(cutoff)
    data = next(blocks).dense().data
    for block in blocks:
        data += block.dense().data
    return FockMatrix(ensemble.modes, cutoff, data)


def poisson_brackets(observables, hamiltonian: PolyExpr) -> list[PolyExpr]:
    """{g, H} = sum_j dg/dphi_j dH/dpi_j - dg/dpi_j dH/dphi_j of each
    observable on the Hamiltonian's modes, the rate of g along Hamilton's
    equations, in one pass over the term pairs: both products of a pair
    and a mode j give the monomial of exponent e_g + e_H - 1_phi_j - 1_pi_j,
    so it weighs g_phi_j H_pi_j - g_pi_j H_phi_j in their exponents."""
    if any(p.chart != "phipi" for p in (hamiltonian, *observables)):
        raise ChartError("Hamilton's equations need the phipi chart")
    n = hamiltonian.modes
    brackets = []
    for observable in observables:
        terms: dict[tuple, complex] = {}
        for (eg, a), (eh, b) in observable.promote(n)._pairs(hamiltonian):
            for j in range(n):
                weight = eg[j] * eh[n + j] - eg[n + j] * eh[j]
                if weight:
                    key = list(map(operator.add, eg, eh))
                    key[j] -= 1
                    key[n + j] -= 1
                    key = tuple(key)
                    terms[key] = terms.get(key, 0.0) + a * b * weight
        brackets.append(PolyExpr("phipi", n, terms))
    return brackets


def _gradients(hamiltonian: PolyExpr):
    if hamiltonian.chart != "phipi":
        raise ChartError("Hamilton's equations need the phipi chart")
    n = hamiltonian.modes
    grad_phi = [hamiltonian.differentiate(f"phi{j + 1}") for j in range(n)]
    grad_pi = [hamiltonian.differentiate(f"pi{j + 1}") for j in range(n)]
    return grad_phi, grad_pi


def _rhs_at(grad_phi, grad_pi, point: np.ndarray):
    phidot = np.array([g.eval(point).real for g in grad_pi])
    pidot = np.array([-g.eval(point).real for g in grad_phi])
    return phidot, pidot


def step_count(t: float, dt: float) -> int:
    """The number of fixed steps dt that make up t.

    t must be a nonnegative integer multiple of dt, up to 1e-9 * max(1, t)
    in time; the classical flow and evolve's sample grid use this rule.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt = {dt!r} is not a positive number")
    ratio = t / dt
    if (not 0 <= ratio < math.inf
            or abs(t - round(ratio) * dt) > 1e-9 * max(1.0, t)):
        raise ValueError(f"t = {t!r} is not a nonnegative integer multiple "
                         f"of dt = {dt!r}")
    return round(ratio)


def rk4_step(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """One classic fourth-order Runge-Kutta step of x' = f(x)."""
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_state(hamiltonian: PolyExpr, state: ClassicalState,
                    t: float, dt: float = 1e-3) -> ClassicalState:
    """Advance one state by classic fixed-step RK4 on Hamilton's equations;
    a negative t integrates backward."""
    steps = step_count(abs(t), dt)
    h = math.copysign(dt, t)
    grad_phi, grad_pi = _gradients(hamiltonian.promote(state.modes))
    x = state.point().copy()
    n = state.modes

    def f(xv):
        return np.concatenate(_rhs_at(grad_phi, grad_pi, xv))

    for _ in range(steps):
        x = rk4_step(f, x, h)
        if not np.isfinite(x).all():
            raise FloatingPointError("trajectory left the finite domain")
    return ClassicalState(x[:n], x[n:])


def expectation(rho: FockMatrix | MemberBlock,
                observable: PolyExpr) -> complex:
    """Tr(rho g_n) for the normal-product operator of a polynomial."""
    op = poly_to_normal_form(observable.promote(rho.modes))
    return rho.expect(compile_operator(op, rho.cutoff))


def extended_wavefunction(state: ClassicalState, cutoff: int) -> np.ndarray:
    """Doubled encoding: amplitude z_j in mode a_j and y_j in its partner b_j.

    Modes are interleaved (a_1, b_1, a_2, b_2, ...).  The raw exponent
    convention exp(sum_j z_j adag_j + y_j bdag_j)|0> fixes only the direction;
    the vector is normalized explicitly here, which lands on the product of
    normalized coherent factors: the pseudo-wavefunction of the doubled state
    (phi_j, pi_j) in a_j and (phi_j, -pi_j) in b_j.
    """
    doubled = ClassicalState(np.repeat(state.phi, 2),
                             np.stack([state.pi, -state.pi], axis=1).ravel())
    return pseudo_wavefunction(doubled, cutoff)
