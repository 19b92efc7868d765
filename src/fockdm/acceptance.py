"""The acceptance criteria, each defined once.

Each criterion is a function ``(rng, cutoff, samples) -> CheckResult``,
registered in ``CRITERIA`` in the row order of ``fockdm verify``, which runs
it at the sample count stored there; ``tests/test_acceptance.py`` runs the
same functions at full scale.  Each check a CLI suite reports is a function
here too, of what the suite measured; criteria 6 and 9 return the suite check
of their tag.  Tolerances are pinned here and nowhere else.  Identities exact
over the reals (the pi/6 flow coefficients, the rescaled oscillator's
curvature balance) are held to 1e-12, the rounding floor of
closed forms in double precision.  Deterministic criteria ignore ``rng`` and
``samples``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    NormalFormOperator,
    commutator,
    poly_to_normal_form,
    random_normal_operator,
)
from .discrepancy import (
    discrepancy_closed_form,
    ensemble_fluxes,
    rescale_field,
    scaling_condition_residual,
)
from .evolution import MasterTerms, master_rhs, projection_decay
from .fock import (
    apply,
    compile_operator,
    eigensystem,
    interior_block,
    realize_matrix,
)
from .poly import parse_poly, random_poly
from .reify import (
    PoleError,
    flow_coeffs,
    m_generator,
    rho_z_trace,
    s_action,
)
from .states import (
    ClassicalState,
    Ensemble,
    expectation,
    extended_wavefunction,
    integrate_state,
    pseudo_wavefunction,
    pure_density,
)

# Bounds of the CLI suites' checks; criteria 6, 9 and 12 share the first three.
DISCREPANCY_TOLERANCE = 1e-8
PROJECTION_BAND = 4.0
IEE_TOLERANCE = 1e-7
TRACE_DRIFT_TOLERANCE = 1e-6

# Step sizes of the central difference in master-vs-classical-flow.
FLOW_DTS = (1e-2, 1e-3, 1e-4)

# (rho(dt) - rho(-dt)) / 2dt carries a rounding error of about eps/dt, so an
# error below ROUNDING_FLOOR * eps / dt measures rounding, not the
# second-order truncation, and is left out of the order fit.
ROUNDING_FLOOR = 100.0


@dataclass(frozen=True)
class CheckResult:
    tag: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


def closed_form_check(reports) -> CheckResult:
    worst = float(np.max([r.residual for r in reports]))
    return CheckResult("discrepancy-closed-form", worst, DISCREPANCY_TOLERANCE,
                       worst <= DISCREPANCY_TOLERANCE,
                       f"{len(reports)} rows compared, "
                       f"worst residual {worst:.3e}")


def projection_check(band: float) -> CheckResult:
    return CheckResult("projection-offdiagonal-decay", band, PROJECTION_BAND,
                       band <= PROJECTION_BAND,
                       f"C-estimate spread factor {band:.3f}")


def equilibrium_check(reports) -> CheckResult:
    """The one equilibrium rule: both fluxes vanish for every observable."""
    worst = float(np.max([(abs(r.g_hat), abs(r.g_dot)) for r in reports],
                         initial=0.0))
    return CheckResult("iee-flux-vanishes", worst, IEE_TOLERANCE,
                       worst <= IEE_TOLERANCE, f"largest |flux| {worst:.3e}")


def trace_drift_check(traces) -> CheckResult:
    drift = abs(traces[-1] - traces[0])
    return CheckResult("trace-drift", drift, TRACE_DRIFT_TOLERANCE,
                       drift <= TRACE_DRIFT_TOLERANCE,
                       f"trace moved by {drift:.3e} from the first sample")


def monotone_growth_check(traces) -> CheckResult:
    flat = [str(t.cutoff) for t in traces if not t.is_monotone()]
    return CheckResult("reify-monotone-growth", float(not flat), 1.0, not flat,
                       "not monotone at cutoff " + ", ".join(flat) if flat
                       else "monotone at every cutoff")


def steepening_check(traces) -> CheckResult:
    peaks = sorted((t.cutoff, float(np.max(t.norms))) for t in traces)
    steepens = all(b > a for (_, a), (_, b) in zip(peaks, peaks[1:]))
    return CheckResult("reify-growth-steepens-with-cutoff", float(steepens),
                       1.0, steepens, "largest norm " + ", ".join(
                           f"{peak:.3e} at D={cutoff}" for cutoff, peak in peaks))


class Criterion(NamedTuple):
    number: int  # the acceptance criterion it belongs to (1-12)
    tag: str
    check: Callable[[np.random.Generator, int, int], CheckResult]
    verify_samples: int


CRITERIA: list[Criterion] = []


def criterion(number: int, tag: str, verify_samples: int = 0):
    """Register a measurement returning (value, tolerance, passed, detail),
    or the CheckResult of the suite check of the same tag."""
    def register(measure):
        @functools.wraps(measure)
        def check(rng, cutoff, samples):
            result = measure(rng, cutoff, samples)
            if isinstance(result, CheckResult):
                return result
            value, tolerance, passed, detail = result
            return CheckResult(tag, float(value), tolerance, bool(passed),
                               detail)
        CRITERIA.append(Criterion(number, tag, check, verify_samples))
        return check
    return register


def seeded_state(rng, modes, scale=0.99):
    """Random state with every |z_j| <= scale, drawn in the complex chart."""
    r = rng.uniform(0, scale, modes)
    th = rng.uniform(0, 2 * math.pi, modes)
    z = r * np.exp(1j * th)
    return ClassicalState(np.sqrt(2) * z.real, np.sqrt(2) * z.imag)


def observed_order(dts, errs) -> float | None:
    """Slope of log(error) against log(dt) over the steps above the rounding
    floor; None when fewer than two are left (the error is rounding)."""
    eps = np.finfo(float).eps
    kept = [(dt, e) for dt, e in zip(dts, errs) if e > ROUNDING_FLOOR * eps / dt]
    if len(kept) < 2:
        return None
    log_dt, log_err = np.log10(np.array(kept)).T
    return float(np.polyfit(log_dt, log_err, 1)[0])


def ladder_expansion(H, n):
    """[a^n, H] by the nested-commutator expansion truncated at third order."""
    a = NormalFormOperator.annihilation(0, H.modes)
    acc = NormalFormOperator.zero(H.modes)
    nested = H
    coeff = 1
    for k in (1, 2, 3):
        nested = commutator(a, nested)
        coeff = coeff * (n - k + 1) // k
        if coeff == 0:
            break
        acc = acc + nested.scale(coeff) * a ** (n - k)
    return acc


def creation_expansion(H, m):
    """[(adag)^m, H] by the conjugate truncated expansion."""
    ad = NormalFormOperator.creation(0, H.modes)
    acc = NormalFormOperator.zero(H.modes)
    nested = H
    sign = 1
    coeff = 1
    for k in (1, 2, 3):
        nested = commutator(ad, nested)
        coeff = coeff * (m - k + 1) // k
        if coeff == 0:
            break
        acc = acc + ad ** (m - k) * nested.scale(sign * coeff)
        sign = -sign
    return acc


@criterion(1, "coherent-eigenrelation", verify_samples=10)
def coherent_eigenrelation(rng, cutoff, samples):
    """||a_j w - z_j w|| <= 1e-8 over seeded states, alternating 1 and 2 modes."""
    ops = {n: [compile_operator(NormalFormOperator.annihilation(j, n), cutoff)
               for j in range(n)]
           for n in (1, 2)}
    worst = 0.0
    for k in range(samples):
        n = 1 if k % 2 == 0 else 2
        s = seeded_state(rng, n)
        w = pseudo_wavefunction(s, cutoff)
        for j in range(n):
            worst = max(worst, float(np.linalg.norm(
                apply(ops[n][j], w, np.zeros_like(w)) - s.z[j] * w)))
    return worst, 1e-8, worst <= 1e-8, f"worst residual {worst:.3e}"


@criterion(2, "expectation-identity", verify_samples=10)
def expectation_identity(rng, cutoff, samples):
    """Tr(rho g_n) = g(phi, pi) for random polynomials of degree <= 6."""
    worst = 0.0
    for k in range(samples):
        n = 1 if k % 2 == 0 else 2
        g = random_poly(rng, modes=n, degree=6, terms=7)
        s = seeded_state(rng, n)
        rho = pure_density(s, cutoff)
        worst = max(worst, abs(expectation(rho, g) - g.eval(s.point())))
    return worst, 1e-8, worst <= 1e-8, f"worst error {worst:.3e}"


@criterion(4, "master-trace-conservation", verify_samples=10)
def master_trace_conservation(rng, cutoff, samples):
    """|Tr(master_rhs(rho))| <= 1e-10 for random Hermitian rho, which are
    generically not realizable; a new Hamiltonian every tenth matrix."""
    worst = 0.0
    for k in range(samples):
        if k % 10 == 0:
            h = random_poly(rng, modes=1, degree=3, terms=5) * 0.5
            terms = MasterTerms(poly_to_normal_form(h), cutoff)
        g = rng.standard_normal((cutoff, cutoff)) \
            + 1j * rng.standard_normal((cutoff, cutoff))
        rho = 0.5 * (g + g.conj().T)
        rho /= np.linalg.norm(rho)
        worst = max(worst, abs(np.trace(master_rhs(rho, terms))))
    return worst, 1e-10, worst <= 1e-10, f"worst |trace| {worst:.3e}"


@criterion(3, "master-vs-classical-flow", verify_samples=2)
def master_vs_classical_flow(rng, cutoff, samples):
    """The central difference of rho along the classical flow matches the
    master generator at observed order >= 1.9 over FLOW_DTS."""
    worst = math.inf
    for _ in range(samples):
        h = random_poly(rng, modes=1, degree=3, terms=5) * 0.5
        terms = MasterTerms(poly_to_normal_form(h), cutoff)
        s0 = seeded_state(rng, 1, scale=0.6)
        rhs = master_rhs(pure_density(s0, cutoff).data, terms)
        errs = []
        for dt in FLOW_DTS:
            fwd = pure_density(integrate_state(h, s0, dt, dt / 20), cutoff)
            bck = pure_density(integrate_state(h, s0, -dt, dt / 20), cutoff)
            errs.append(float(np.max(np.abs(
                (fwd.data - bck.data) / (2 * dt) - rhs))))
        order = observed_order(FLOW_DTS, errs)
        if order is not None:
            worst = min(worst, order)
    return worst, 1.9, worst >= 1.9, f"worst observed order {worst:.3f}"


def random_two_mode_hamiltonian(rng):
    """Hermitian 2-mode operator whose words have at most 3 creation and
    3 annihilation factors in total, with dyadic coefficients."""
    words = {}
    for _ in range(4):
        create = [0, 0]
        annih = [0, 0]
        for _ in range(int(rng.integers(0, 4))):
            create[int(rng.integers(0, 2))] += 1
        for _ in range(int(rng.integers(0, 4))):
            annih[int(rng.integers(0, 2))] += 1
        key = (tuple(create), tuple(annih))
        c = complex(int(rng.integers(-8, 9)), int(rng.integers(-8, 9))) / 4
        if not c:
            continue
        words[key] = words.get(key, 0.0) + c
        words[(key[1], key[0])] = words.get((key[1], key[0]), 0.0) \
            + c.conjugate()
    return NormalFormOperator(2, words or {((1, 0), (1, 0)): 1.0})


@criterion(5, "ladder-commutator-expansion", verify_samples=10)
def ladder_commutator_expansion(rng, cutoff, samples):
    """Nested-commutator expansions leave an exactly empty symbolic residual
    for random Hamiltonians; a tenth of them also agree with the dense route
    on the interior block to 1e-9, where an empty block is an infinite
    residual.  A quarter as many 2-mode Hamiltonians check product splitting
    and the third-order cross terms.  The value counts the nonzero symbolic
    residuals."""
    a = NormalFormOperator.annihilation()
    ad = NormalFormOperator.creation()
    bad = 0
    worst_matrix = 0.0
    empty = 0
    for trial in range(samples):
        H = random_normal_operator(rng, modes=1, degree=3, words=4)
        for n in range(1, 6):
            bad += not (commutator(a ** n, H)
                        - ladder_expansion(H, n)).is_zero()
            bad += not (commutator(ad ** n, H)
                        - creation_expansion(H, n)).is_zero()
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mixed = (creation_expansion(H, m) * a ** n
                 + ad ** m * ladder_expansion(H, n))
        bad += not (commutator(ad ** m * a ** n, H) - mixed).is_zero()
        if trial < samples // 10:
            hm = realize_matrix(H, cutoff).data
            for n in (1, 2, 3):
                sym = realize_matrix(commutator(a ** n, H), cutoff).data
                an = realize_matrix(a ** n, cutoff).data
                margin = H.max_mode_degree() + n
                diff = np.abs(interior_block(sym - (an @ hm - hm @ an), 1,
                                             cutoff, margin))
                empty += not diff.size
                worst_matrix = max(worst_matrix, float(diff.max())
                                   if diff.size else math.inf)
    a1 = NormalFormOperator.annihilation(0, 2)
    a2 = NormalFormOperator.annihilation(1, 2)
    for _ in range(samples // 4):
        H2 = random_two_mode_hamiltonian(rng)
        c_ab = commutator(a1, commutator(a2, H2))
        for n, m in ((1, 1), (2, 2), (3, 2)):
            cross = commutator(a1 ** n, commutator(a2 ** m, H2))
            split = (commutator(a1 ** n, H2) * a2 ** m
                     + commutator(a2 ** m, H2) * a1 ** n + cross)
            bad += not (commutator(a1 ** n * a2 ** m, H2)
                        - split).is_zero()
            rhs = c_ab.scale(m * n) * (a1 ** (n - 1) * a2 ** (m - 1))
            if n >= 2:
                rhs = rhs + commutator(a1, c_ab).scale(m * n * (n - 1) / 2) \
                    * (a1 ** (n - 2) * a2 ** (m - 1))
            if m >= 2:
                rhs = rhs + commutator(a1, commutator(a2, commutator(a2, H2))) \
                    .scale(m * (m - 1) * n / 2) \
                    * (a1 ** (n - 1) * a2 ** (m - 2))
            bad += not (cross - rhs).is_zero()
    symbolic = ("symbolic residuals empty" if bad == 0
                else f"{bad} symbolic residuals nonzero")
    note = f" ({empty} empty interior blocks)" if empty else ""
    return (bad, 0.0, bad == 0 and worst_matrix <= 1e-9,
            f"{symbolic}, matrix residual {worst_matrix:.3e}{note}")


@criterion(6, "discrepancy-closed-form", verify_samples=20)
def closed_form_agreement(rng, cutoff, samples):
    """|direct - closed form| <= 1e-8 over random (H, g, state) triples,
    alternating 1 and 2 modes, with H of degree <= 3."""
    reports = []
    for k in range(samples):
        n = 1 if k % 2 == 0 else 2
        h = random_poly(rng, modes=n, degree=3, terms=5) * 0.5
        g = random_poly(rng, modes=n, degree=4, terms=6)
        e = Ensemble.pure(seeded_state(rng, n, scale=0.7))
        [rep] = ensemble_fluxes(e, h, [g], cutoff)
        reports.append(replace(rep, closed_form=discrepancy_closed_form(
            e, g, h)))
    return closed_form_check(reports)


@criterion(7, "oscillator-mass-sweep")
def oscillator_mass_sweep(rng, cutoff, samples):
    """g = phi pi over m in {0.5, 1, 2, 4}: gap = -(m-1)/2; and the gap is
    identically zero at m = 1 for every monomial up to degree 4."""
    g = parse_poly("phi1*pi1", {})
    worst = 0.0
    for m in (0.5, 1.0, 2.0, 4.0):
        h = parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": m})
        [rep] = ensemble_fluxes(
            Ensemble.pure(seeded_state(rng, 1, scale=0.8)), h, [g], cutoff)
        worst = max(worst, abs(rep.direct - (-(m - 1) / 2)))
    h1 = parse_poly("0.5*pi1^2 + 0.5*phi1^2", {})
    worst_unit = 0.0
    for a in range(5):
        for b in range(1 if a == 0 else 0, 5 - a):
            mono = parse_poly("*".join(["phi1"] * a + ["pi1"] * b), {})
            [rep] = ensemble_fluxes(
                Ensemble.pure(seeded_state(rng, 1, scale=0.8)), h1, [mono],
                cutoff)
            worst_unit = max(worst_unit, abs(rep.direct))
    value = max(worst, worst_unit)
    return (value, 1e-8, value <= 1e-8,
            f"mass sweep {worst:.3e}, unit-mass zero {worst_unit:.3e}")


@criterion(8, "field-scaling-balance")
def field_scaling_balance(rng, cutoff, samples):
    """Rescaling the mass-2 oscillator by m^(-1/4) balances the curvature
    condition at rounding level and kills the phi-pi gap."""
    m = 2.0
    h = parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": m})
    h2, mapping = rescale_field(h, m ** -0.25)
    residual = float(np.max(np.abs(
        scaling_condition_residual(h2, Ensemble.phase_circle(1.0, 16)))))
    s = mapping.apply(ClassicalState(np.array([1.0]), np.array([0.0])))
    gap = abs(ensemble_fluxes(Ensemble.pure(s), h2,
                              [parse_poly("phi1*pi1", {})], cutoff)[0].direct)
    value = max(residual, gap)
    return (value, 1e-8, residual <= 1e-12 and gap <= 1e-8,
            f"curvature residual {residual:.3e}, gap {gap:.3e}")


@criterion(9, "projection-offdiagonal-decay")
def projection_offdiagonal_decay(rng, cutoff, samples):
    """Off-diagonal content of the time-averaged unit oscillator state
    follows C/delta within a factor two across delta in {50, 100, 200}."""
    h_n = poly_to_normal_form(parse_poly("0.5*phi1^2 + 0.5*pi1^2", {}))
    state = ClassicalState(np.array([1.0]), np.array([0.0]))
    [rho] = Ensemble.pure(state).member_blocks(cutoff)
    # v(delta) in [C/(2 delta), 2C/delta] for a single C iff the spread of
    # v * delta stays within a factor of four
    _, band = projection_decay(rho, h_n, (50.0, 100.0, 200.0))
    return projection_check(band)


@criterion(10, "reify-flow-coefficients")
def reify_flow_coefficients(rng, cutoff, samples):
    """The recoding flow has c = 4, d = -4 sqrt3 at pi/6 and a pole at pi/4."""
    c, d = flow_coeffs(math.pi / 6)
    err = max(abs(c - 4.0), abs(d + 4.0 * math.sqrt(3.0)))
    try:
        flow_coeffs(math.pi / 4)
        pole = False
    except PoleError:
        pole = True
    return (err, 1e-12, err <= 1e-12 and pole,
            f"coefficient error {err:.3e}, pole "
            + ("signaled" if pole else "missed"))


@criterion(10, "reify-norm-divergence")
def reify_norm_divergence(rng, cutoff, samples):
    """The recoded norm at D=64 grows monotonically along a 20-point grid
    and crosses 1e6 before pi/4."""
    grid = np.linspace(0.0, math.pi / 4 - 1e-3, 20)
    trace = rho_z_trace(ClassicalState(np.array([0.0]), np.array([2.0])),
                        grid, 64)
    crossing = float(grid[trace.norms > 1e6].min(initial=math.inf))
    ok = trace.is_monotone() and crossing < math.pi / 4
    where = "none" if math.isinf(crossing) else f"{crossing:.4f}"
    return (trace.norms[-1], 1e6, ok,
            f"crossing at alpha {where}, max norm {trace.norms[-1]:.3e}")


@criterion(11, "two-mode-escape")
def two_mode_escape(rng, cutoff, samples):
    """Doubled-space recoding at pi/4 is cutoff-stable (<10% under 16->32)
    while the single-mode norm at least doubles under the same change."""
    states = [ClassicalState(np.array([phi]), np.array([pi_]))
              for phi, pi_ in ((0.5, 0.3), (0.7, 0.7))]
    in_disk = all(abs(s.z[0]) <= 0.7 for s in states)
    # both states at once, one eigensystem per generator and cutoff; the
    # single-mode norm ||S rho S||_2 = ||S w||^2
    m_norms, s_norms = {}, {}
    for D in (16, 32):
        m_norms[D] = np.linalg.norm(eigensystem(m_generator(1), D).flow(
            np.stack([extended_wavefunction(s, D) for s in states], axis=1))(
            math.pi / 4), axis=0)
        s_norms[D] = np.linalg.norm(s_action(
            [math.pi / 4 - 1e-3],
            np.stack([pseudo_wavefunction(s, D) for s in states], axis=1),
            D)[:, 0], axis=0) ** 2
    worst_change = float(np.max(np.abs(m_norms[32] - m_norms[16])
                                / m_norms[16]))
    worst_ratio = float(np.min(s_norms[32] / s_norms[16]))
    return (worst_change, 0.10,
            in_disk and worst_change < 0.10 and worst_ratio >= 2.0,
            f"doubled-space change {worst_change:.2e}, "
            f"single-mode growth x{worst_ratio:.1f}")


@criterion(12, "iee-phase-circle")
def iee_phase_circle(rng, cutoff, samples):
    """Uniform phase circle: equilibrium fluxes vanish at unit mass; the
    same ensemble at mass two carries the constant -1/2 gap."""
    e = Ensemble.phase_circle(1.0, 64)
    gs = [parse_poly("phi1*pi1", {}), parse_poly("phi1^2 - pi1^2", {})]
    h1 = parse_poly("0.5*pi1^2 + 0.5*phi1^2", {})
    unit = equilibrium_check(ensemble_fluxes(e, h1, gs, cutoff))
    h2 = parse_poly("0.5*pi1^2 + 0.5*m*phi1^2", {"m": 2.0})
    rep2 = ensemble_fluxes(e, h2, [gs[0]], cutoff)
    gap = rep2[0].direct
    value = max(unit.value, abs(gap - (-0.5)))
    return (value, IEE_TOLERANCE, unit.passed
            and not equilibrium_check(rep2).passed and value <= IEE_TOLERANCE,
            f"unit-mass flux {unit.value:.3e}, mass-two gap {gap.real:+.6f}")
