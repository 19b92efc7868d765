"""Classical versus quantum flux of an observable, and how to zero the gap.

For the same moment matrix rho(phi, pi), two predictions of d<g>/dt compete:

* quantum:   g_hat = -i Tr(rho [g_n, H_n])   (Liouville flux),
* classical: g_dot = sum_j dg/dphi_j phidot_j + dg/dpi_j pidot_j
             evaluated on the trajectory (master-equation flux).

Their difference has a closed form in the complex chart: with multi-indices
k over the modes,

    i (g_hat - g_dot) = sum_{2 <= |k| <= cap} (1/k!)
        ( d^k g/dz^k * d^k H/dy^k  -  d^k g/dy^k * d^k H/dz^k )

evaluated at the state.  The |k| <= 3 truncation is exact whenever the
nested-commutator order gate holds (every mode of H_n carries creation and
annihilation degrees <= 3 and H has no higher cross terms); the full series
is exact for arbitrary polynomial H and g, which the tests exercise against
the dense-matrix route up to degree 4.

Rescaling phi_j = s_j phi'_j, pi_j = pi'_j / s_j is canonical (it preserves
Hamilton's equations) and is the lever that zeroes the leading discrepancy
term; for the harmonic oscillator with mass m the choice s = m^(-1/4)
removes it identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .algebra import (
    NormalFormOperator,
    commutator,
    low_order_gate,
    poly_to_normal_form,
)
from .fock import FockMatrix, operator_trace
from .poly import ChartError, PolyExpr
from .states import ClassicalState, Ensemble, hamilton_rhs, pure_density


@dataclass(frozen=True)
class DiscrepancyReport:
    g_hat: complex
    g_dot: float
    direct: complex
    closed_form: complex | None = None
    applicable: bool | None = None

    @property
    def residual(self) -> float | None:
        if self.closed_form is None:
            return None
        return abs(self.direct - self.closed_form)


@dataclass(frozen=True)
class FieldScaling:
    """Canonical per-mode rescaling phi = s phi', pi = pi'/s."""

    scales: np.ndarray

    def apply(self, state: ClassicalState) -> ClassicalState:
        """Map old coordinates to the primed chart."""
        return ClassicalState(state.phi / self.scales, state.pi * self.scales)


def flux_operator(observable: PolyExpr, hamiltonian: PolyExpr,
                  modes: int) -> NormalFormOperator:
    """[g_n, H_n] on the given mode count, taken symbolically."""
    return commutator(poly_to_normal_form(observable.promote(modes)),
                      poly_to_normal_form(hamiltonian.promote(modes)))


def quantum_flux(rho: FockMatrix, observable: PolyExpr,
                 hamiltonian: PolyExpr) -> complex:
    """-i Tr(rho [g_n, H_n]), the commutator read off rho word by word."""
    comm = flux_operator(observable, hamiltonian, rho.modes)
    return -1j * operator_trace(rho.data, comm, rho.cutoff)


def classical_flux(state: ClassicalState, observable: PolyExpr,
                   hamiltonian: PolyExpr) -> float:
    """Chain rule along Hamilton's equations, evaluated at the state."""
    n = state.modes
    g = observable.promote(n)
    h = hamiltonian.promote(n)
    phidot, pidot = hamilton_rhs(h, state)
    point = state.point()
    total = 0.0
    for j in range(n):
        total += g.differentiate(f"phi{j + 1}").eval(point).real * phidot[j]
        total += g.differentiate(f"pi{j + 1}").eval(point).real * pidot[j]
    return total


def discrepancy_direct(state: ClassicalState, observable: PolyExpr,
                       hamiltonian: PolyExpr, cutoff: int) -> DiscrepancyReport:
    """g_hat from the dense quantum route minus g_dot from the classical one."""
    rho = pure_density(state, cutoff)
    g_hat = quantum_flux(rho, observable, hamiltonian)
    g_dot = classical_flux(state, observable, hamiltonian)
    return DiscrepancyReport(g_hat=g_hat, g_dot=g_dot, direct=g_hat - g_dot)


def discrepancy_closed_form(state: ClassicalState, observable: PolyExpr,
                            hamiltonian: PolyExpr,
                            order_cap: int = 3) -> tuple[complex, bool]:
    """Derivative-product series for g_hat - g_dot, and its applicability.

    Returns (value, applicable); ``applicable`` reports the nested-commutator
    order gate on H_n at the given cap, the regime in which the truncated
    series is a theorem.  The value itself is the series summed to
    ``order_cap`` regardless, which callers may validate against
    :func:`discrepancy_direct`.
    """
    n = state.modes
    g = observable.promote(n).to_zy()
    h = hamiltonian.promote(n).to_zy()
    h_n = poly_to_normal_form(h)
    applicable = low_order_gate(h_n, cap=order_cap) and _no_high_cross_terms(
        h, order_cap)
    point = state.zy_point()
    total = 0.0 + 0.0j
    max_order = min(order_cap, g.degree(), h.degree())
    for order in range(2, max_order + 1):
        for k in _mode_multi_indices(n, order):
            kz = k + (0,) * n
            ky = (0,) * n + k
            gz = g.partial(kz)
            gy = g.partial(ky)
            hz = h.partial(kz)
            hy = h.partial(ky)
            if (gz.is_zero() or hy.is_zero()) and (gy.is_zero() or hz.is_zero()):
                continue
            weight = 1.0
            for e in k:
                weight /= math.factorial(e)
            total += weight * (gz.eval(point) * hy.eval(point)
                               - gy.eval(point) * hz.eval(point))
    return -1j * total, applicable


def discrepancy_report(state: ClassicalState, observable: PolyExpr,
                       hamiltonian: PolyExpr, cutoff: int,
                       order_cap: int = 3) -> DiscrepancyReport:
    """Direct and closed-form discrepancies side by side."""
    base = discrepancy_direct(state, observable, hamiltonian, cutoff)
    value, applicable = discrepancy_closed_form(state, observable, hamiltonian,
                                                order_cap)
    return DiscrepancyReport(g_hat=base.g_hat, g_dot=base.g_dot,
                             direct=base.direct, closed_form=value,
                             applicable=applicable)


def rescale_field(hamiltonian: PolyExpr,
                  scales) -> tuple[PolyExpr, FieldScaling]:
    """Apply the canonical scaling phi_j = s_j phi'_j, pi_j = pi'_j / s_j.

    Returns the Hamiltonian in the primed chart together with the state map;
    trajectories commute with the map, so the dynamics content is unchanged.
    """
    if hamiltonian.chart != "phipi":
        raise ChartError("field scaling acts on the phipi chart")
    n = hamiltonian.modes
    s = np.atleast_1d(np.asarray(scales, dtype=float))
    if s.size == 1:
        s = np.repeat(s, n)
    if s.size != n:
        raise ValueError("one scale per mode required")
    if np.any(s <= 0):
        raise ValueError("scales must be positive")
    terms = {}
    for exps, coeff in hamiltonian.terms.items():
        factor = 1.0
        for j in range(n):
            factor *= s[j] ** exps[j] * s[j] ** (-exps[n + j])
        terms[exps] = coeff * factor
    return PolyExpr("phipi", n, terms), FieldScaling(s)


def scaling_condition_residual(hamiltonian: PolyExpr,
                               ensemble: Ensemble) -> np.ndarray:
    """Ensemble average of d2H/dphi_j^2 - d2H/dpi_j^2, per mode."""
    n = ensemble.modes
    h = hamiltonian.promote(n)
    out = np.zeros(n)
    for j in range(n):
        phi2 = h.differentiate(f"phi{j + 1}").differentiate(f"phi{j + 1}")
        pi2 = h.differentiate(f"pi{j + 1}").differentiate(f"pi{j + 1}")
        out[j] = ensemble.average(
            lambda s: (phi2.eval(s.point()) - pi2.eval(s.point())).real)
    return out


@dataclass(frozen=True)
class IEEObservableRow:
    observable: str
    g_hat: complex
    g_dot: float
    discrepancy: complex


@dataclass(frozen=True)
class IEEReport:
    rows: tuple[IEEObservableRow, ...]
    tolerance: float

    @property
    def equilibrium(self) -> bool:
        """Both flux predictions vanish for every tested observable."""
        return all(abs(r.g_hat) <= self.tolerance
                   and abs(r.g_dot) <= self.tolerance for r in self.rows)


def iee_check(ensemble: Ensemble, hamiltonian: PolyExpr,
              observables, cutoff: int, tolerance: float = 1e-7) -> IEEReport:
    """Test a candidate equilibrium ensemble against a set of observables.

    The ensemble-averaged quantum flux, classical flux, and their gap are
    reported per observable; the equilibrium flag demands that both fluxes
    vanish within tolerance.  No attempt is made to construct equilibria.
    """
    observables = list(observables)
    comms = [flux_operator(g, hamiltonian, ensemble.modes) for g in observables]

    def quantum_fluxes(s):
        rho = pure_density(s, cutoff).data
        return np.array([-1j * operator_trace(rho, comm, cutoff)
                         for comm in comms])

    rows = []
    for g, g_hat in zip(observables, ensemble.average(quantum_fluxes)):
        g_hat = complex(g_hat)
        g_dot = ensemble.average(lambda s: classical_flux(s, g, hamiltonian))
        rows.append(IEEObservableRow(observable=str(g), g_hat=g_hat,
                                     g_dot=g_dot, discrepancy=g_hat - g_dot))
    return IEEReport(rows=tuple(rows), tolerance=tolerance)


def _mode_multi_indices(modes: int, order: int):
    """All exponent tuples over the modes with the given total order."""
    if modes == 1:
        yield (order,)
        return
    for parts in iproduct(range(order + 1), repeat=modes - 1):
        if sum(parts) <= order:
            yield (order - sum(parts),) + parts


def _no_high_cross_terms(h_zy: PolyExpr, cap: int) -> bool:
    """True when no z-block or y-block of a term exceeds the cap in total.

    The per-mode order gate alone misses mixed words like y1^2 y2^2 whose
    fourth cross-derivatives survive; the truncated series is a theorem only
    when those are absent too.
    """
    n = h_zy.modes
    for exps in h_zy.terms:
        if sum(exps[:n]) > cap or sum(exps[n:]) > cap:
            return False
    return True
