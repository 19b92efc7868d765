"""Classical versus quantum flux of an observable, and how to zero the gap.

For the same moment matrix rho(phi, pi), two predictions of d<g>/dt compete:

* quantum:   g_hat = -i Tr(rho [g_n, H_n])   (Liouville flux),
* classical: g_dot = {g, H} = sum_j dg/dphi_j dH/dpi_j - dg/dpi_j dH/dphi_j,
             the Poisson bracket at the state (master-equation flux).

``sweep_fluxes`` reads both for an ensemble under one or more Hamiltonians
(``ensemble_fluxes`` under one), a pure state being an ensemble of one:
each commutator compiled once, one mode at a time (``flux_operator``), and
read off product members (fock.ProductMembers), so neither rho nor any
member's D^n vector is formed; each bracket is built once as a polynomial
and averaged over the members a chunk at a time, never evaluated once per
member.

Their difference has a closed form in the complex chart: with multi-indices
k over the modes,

    i (g_hat - g_dot) = sum_{2 <= |k| <= min(deg g, deg H)} (1/k!)
        ( d^k g/dz^k * d^k H/dy^k  -  d^k g/dy^k * d^k H/dz^k )

evaluated at the state: the commutator of normal-ordered symbols (Agarwal
and Wolf, Phys. Rev. D 2, 2161, 1970).  The gap is linear in the moment
matrix, so an ensemble's closed form is the weighted average of its
members' (``discrepancy_closed_form``).  For polynomials every derivative
past the lower degree vanishes, so the series is summed in full and is
exact for any polynomial H and g; the tests hold it to the dense-matrix
route up to degree 5.

Rescaling phi_j = s_j phi'_j, pi_j = pi'_j / s_j is canonical (it preserves
Hamilton's equations) and is the lever that zeroes the leading discrepancy
term; for the harmonic oscillator with mass m the choice s = m^(-1/4)
removes it identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import NormalFormOperator, commutator, poly_to_normal_form
from .fock import ModeWords, ProductMembers, compile_words
from .poly import ChartError, PolyExpr, eval_rows
from .states import ClassicalState, Ensemble, poisson_brackets


@dataclass(frozen=True)
class DiscrepancyReport:
    """Both fluxes of one observable, and the closed form of their gap."""

    g_hat: complex
    g_dot: float
    closed_form: complex | None = None

    @property
    def direct(self) -> complex:
        """The gap g_hat - g_dot of the two fluxes."""
        return self.g_hat - self.g_dot

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


def flux_operator(observable: PolyExpr, h_n: NormalFormOperator,
                  cutoff: int) -> ModeWords:
    """[g_n, H_n] on H_n's mode count, taken symbolically and compiled one
    mode at a time at the cutoff."""
    return compile_words(
        commutator(poly_to_normal_form(observable.promote(h_n.modes)), h_n),
        cutoff)


def quantum_flux(members: ProductMembers, flux: ModeWords) -> complex:
    """-i Tr(rho [g_n, H_n]) from the compiled commutator (flux_operator),
    read off product members."""
    return -1j * members.expect(flux)


def ensemble_fluxes(ensemble: Ensemble, hamiltonian: PolyExpr,
                    observables: list[PolyExpr],
                    cutoff: int) -> list[DiscrepancyReport]:
    """The ensemble-averaged quantum and classical flux of each observable
    under one Hamiltonian (``sweep_fluxes`` of one system)."""
    [reports] = sweep_fluxes(ensemble, [(hamiltonian, observables)], cutoff)
    return reports


def sweep_fluxes(ensemble: Ensemble, systems: list,
                 cutoff: int) -> list[list[DiscrepancyReport]]:
    """The ensemble-averaged quantum and classical flux of each observable
    of each (hamiltonian, observables) system, such as the runs of a sweep.

    Each system's H_n and Poisson brackets are derived once for all its
    observables.  g_hat sums the flux of each chunk of product members
    (``Ensemble.product_members``), whose moments are built once for every
    system, up to the highest power of any flux's words; g_dot is each
    bracket's mean over the members (``Ensemble.mean``).  Both sums start
    from zero, so a zero flux is +0.0 for any member count.
    """
    fluxes, g_dots = [], []
    for hamiltonian, observables in systems:
        h = hamiltonian.promote(ensemble.modes)
        h_n = poly_to_normal_form(h)
        fluxes.append([flux_operator(g, h_n, cutoff) for g in observables])
        g_dots.append(ensemble.mean(poisson_brackets(observables, h)))
    degree = max((int(powers.max(initial=0)) for run in fluxes
                  for flux in run for powers in (flux.create, flux.annih)),
                 default=0)
    per_chunk = [[[quantum_flux(members, flux) for flux in run]
                  for run in fluxes]
                 for members in ensemble.product_members(cutoff, degree)]
    return [[DiscrepancyReport(g_hat=sum(g_hats), g_dot=g_dot)
             for g_hats, g_dot in zip(zip(*run_fluxes), run_dots)]
            for run_fluxes, run_dots in zip(zip(*per_chunk), g_dots)]


def discrepancy_closed_form(ensemble: Ensemble, observable: PolyExpr,
                            hamiltonian: PolyExpr) -> complex:
    """Derivative-product series for g_hat - g_dot, summed in full over
    2 <= |k| <= min(deg g, deg H) and averaged over the members with their
    weights, since the gap is linear in the moment matrix.  The partials
    are derived once and evaluated on a chunk of members at a time
    (``Ensemble.points``); a k whose products vanish is skipped.  Callers
    may validate it against the direct gap of :func:`ensemble_fluxes`."""
    n = ensemble.modes
    g = observable.promote(n).to_zy()
    h = hamiltonian.promote(n).to_zy()
    factors, partials = [], []
    for order in range(2, min(g.degree(), h.degree()) + 1):
        for k in _mode_multi_indices(n, order):
            gz, gy, hz, hy = (f.partial(i) for f in (g, h)
                              for i in (k + (0,) * n, (0,) * n + k))
            if (gz.is_zero() or hy.is_zero()) and (gy.is_zero() or hz.is_zero()):
                continue
            weight = 1.0
            for e in k:
                weight /= math.factorial(e)
            factors.append(weight)
            partials += [gz, gy, hz, hy]
    sums = []
    for points, weights in ensemble.points("zy"):
        values = eval_rows(partials, points).reshape(-1, 4, len(points))
        total = np.zeros(len(weights), complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for weight, (gz, gy, hz, hy) in zip(factors, values):
                total += weight * (gz * hy - gy * hz)
            gap = -1j * total
        # weighted part by part and summed in order from the first member,
        # so that a pure state's gap keeps the sign of each zero part
        sums.append([np.add.accumulate(weights * part)[-1]
                     for part in (gap.real, gap.imag)])
    re, im = (sum(rest, first) for first, *rest in zip(*sums))
    return complex(re, im)


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
    h = hamiltonian.promote(ensemble.modes)
    return np.array(ensemble.mean([
        h.differentiate(f"phi{j}").differentiate(f"phi{j}")
        - h.differentiate(f"pi{j}").differentiate(f"pi{j}")
        for j in range(1, ensemble.modes + 1)]))


def _mode_multi_indices(modes: int, order: int):
    """All exponent tuples over the modes with the given total order, in
    lexicographic order of all but the first exponent, built directly."""
    if modes == 1:
        return [(order,)]
    return [(first, second, *rest) for second in range(order + 1)
            for first, *rest in _mode_multi_indices(modes - 1, order - second)]
