"""Classical states, ensembles, and their Fock-space moment encodings.

A pure classical state (phi, pi) of the n-mode ODE system is encoded as the
multimode coherent vector with per-mode amplitude z_j = (phi_j + i pi_j)/sqrt2:

    w(phi, pi) = exp(sum_j z_j adag_j - |z_j|^2 / 2) |0>

so a_j w = z_j w.  The moment matrix of an ensemble is the weighted sum of
the rank-one projectors w w^H; such matrices are Hermitian, PSD and
unit-trace (physically realizable).  Members become Fock data in two
places.  ``Ensemble.member_blocks`` yields MemberBlocks of W diag(p) W^H,
one vector w per column of W, at most dim members each; a dense
``FockMatrix`` is the sum of their ``dense`` products.
``Ensemble.product_members``, which the flux suites read, keeps w as its
factors: each member's coherent column on each mode, built for a chunk of
members by one recurrence, so no D^n vector is formed.  Everything here is
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


@dataclass(frozen=True)
class Ensemble:
    """Finite weighted collection of classical states; weights sum to 1."""

    members: tuple[tuple[ClassicalState, float], ...]

    def __post_init__(self):
        members = tuple((s, float(w)) for s, w in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        if not all(w > 0 for _, w in members):  # nan is not positive
            raise ValueError("weights must be positive")
        total = math.fsum(w for _, w in members)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        n = members[0][0].modes
        if any(s.modes != n for s, _ in members):
            raise ValueError("all members must share the mode count")
        object.__setattr__(self, "members", members)

    @property
    def modes(self) -> int:
        return self.members[0][0].modes

    def _chunks(self, size: int) -> Iterator[tuple[np.ndarray, ...]]:
        """The (members, n) phi and pi and the weights of at most size
        members at a time, in order."""
        for start in range(0, len(self.members), size):
            chunk = self.members[start:start + size]
            yield (np.array([s.phi for s, _ in chunk]),
                   np.array([s.pi for s, _ in chunk]),
                   np.array([w for _, w in chunk]))

    @classmethod
    def pure(cls, state: ClassicalState) -> "Ensemble":
        return cls(((state, 1.0),))

    @classmethod
    def from_states(cls, states: Iterable[ClassicalState],
                    weights: Iterable[float] | None = None) -> "Ensemble":
        states = list(states)
        if weights is None:
            weights = [1.0 / len(states)] * len(states)
        return cls(tuple(zip(states, weights)))

    @classmethod
    def phase_circle(cls, radius: float, points: int,
                     modes: int = 1) -> "Ensemble":
        """Equally weighted states on a circle in mode 1's (phi, pi) plane."""
        states = []
        for k in range(points):
            theta = 2 * math.pi * k / points
            phi = np.zeros(modes)
            pi = np.zeros(modes)
            phi[0] = radius * math.cos(theta)
            pi[0] = radius * math.sin(theta)
            states.append(ClassicalState(phi, pi))
        return cls.from_states(states)

    def points(self, chart: str = "phipi"
               ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The members' (members, 2n) evaluation points in the chart, each
        row laid out as ``ClassicalState.point`` or, in the zy chart, as
        (z, conj z), and their weights, at most POINT_ROWS members a
        chunk, in order."""
        for phi, pi, weights in self._chunks(POINT_ROWS):
            if chart == "zy":
                z = (phi + 1j * pi) / _SQRT2
                phi, pi = z, np.conj(z)
            yield np.concatenate([phi, pi], axis=1), weights

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
        order: one pseudo-wavefunction column of W per member, its weight
        in p.  Nothing wider than dim x dim is held at once."""
        dim = check_dimension(self.modes, cutoff)
        for start in range(0, len(self.members), dim):
            chunk = self.members[start:start + dim]
            vectors = np.stack([pseudo_wavefunction(state, cutoff)
                                for state, _ in chunk], axis=1)
            yield MemberBlock(self.modes, cutoff, vectors,
                              np.array([weight for _, weight in chunk]))

    def product_members(self, cutoff: int,
                        degree: int) -> Iterator[ProductMembers]:
        """The members as ProductMembers with moments up to degree, in
        order: each member's coherent column on each mode, built for a
        chunk of members at once, at most PRODUCT_BYTES of columns a
        chunk.  Nothing of size D^n is formed."""
        check_dimension(1, cutoff)
        size = max(1, PRODUCT_BYTES // (16 * self.modes * cutoff))
        for phi, pi, weights in self._chunks(size):
            yield ProductMembers(self.modes, cutoff, _coherent_columns(
                (phi + 1j * pi) / _SQRT2, cutoff), weights, degree)


def pseudo_wavefunction(state: ClassicalState, cutoff: int) -> np.ndarray:
    """Coherent encoding of a pure classical state in the number basis.

    Amplitudes are prod_j z_j^{k_j} e^{-|z_j|^2/2} / sqrt(k_j!), built by the
    stable recurrence v_k = v_{k-1} z / sqrt(k).  The guard |z_j|^2 <= D/4
    bounds the truncated tail mass 1 - ||w||^2 only loosely: at the guard
    it is 1.9e-2, 1.1e-3, 4.9e-6, 2.5e-8, 1.3e-10, 4e-15 and 1.4e-19 per
    mode at D = 4, 8, 16, 24, 32, 48 and 64.
    """
    check_dimension(state.modes, cutoff)
    data = None
    for j, zj in enumerate(state.z):
        col = _coherent_column(j, zj, cutoff)
        data = col if data is None else np.kron(data, col)
    return data


def _coherent_column(mode: int, amp: complex, cutoff: int) -> np.ndarray:
    """amp^k e^{-|amp|^2/2} / sqrt(k!) for k < cutoff, guarded by |amp|^2 <= D/4,
    taken as |amp| <= sqrt(D/4) so that no amp past the guard is squared."""
    size = abs(amp)
    if size > math.sqrt(cutoff / 4):
        raise AmplitudeOverflowError(mode, size, cutoff)
    amp2 = size ** 2
    col = np.zeros(cutoff, dtype=complex)
    col[0] = 1.0
    for k in range(1, cutoff):
        col[k] = col[k - 1] * amp / math.sqrt(k)
    col *= math.exp(-amp2 / 2)
    return col


def _coherent_columns(z: np.ndarray, cutoff: int) -> np.ndarray:
    """The (modes, D, members) coherent columns of the (members, modes)
    amplitudes z under ``_coherent_column``'s guard, which names the mode
    of the first amplitude past it in member order: its recurrence
    v_k = v_{k-1} z / sqrt(k) as one running product over k for all of
    them, so a last bit may differ from it."""
    size = np.abs(z)
    over = np.argwhere(size > math.sqrt(cutoff / 4))
    if over.size:
        member, mode = over[0]
        raise AmplitudeOverflowError(int(mode), float(size[member, mode]),
                                     cutoff)
    steps = np.ones((z.shape[1], cutoff, z.shape[0]), complex)
    steps[:, 1:] = z.T[:, None] / np.sqrt(np.arange(1, cutoff))[:, None]
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
