"""Seeded configs and output oracles for the fockdm benchmark workloads.

Each workload is one `fockdm` CLI suite run on a config drawn from the
benchmark seed. The oracles recompute the expected outputs here, with their
own polynomial expansion, ladder matrices and classical integrator, so a run
is checked against code that shares nothing with the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Every drawn coherent amplitude keeps |z_j|^2 at or below this share of the
# package's guard cutoff/4, so the truncated tail stays far below the oracle
# tolerances.
GUARD_MARGIN = 0.25

# Oracle tolerances: on evolve <g> columns, on the two iee fluxes, which
# vanish for a rotation-invariant Hamiltonian on a phase circle, and relative
# on the project columns.
EVOLVE_TOL = 1e-8
FLUX_TOL = 1e-7
PROJECT_RTOL = 1e-8


class Expr:
    """A polynomial in the (phi, pi) chart that also renders as CLI text.

    Terms map an exponent tuple (phi_1..phi_n, pi_1..pi_n) to a coefficient.
    ``prec`` is the binding strength of the rendered text: 0 sum, 1 product,
    2 atom; operands are parenthesized only where the grammar needs it.
    """

    def __init__(self, text: str, terms: dict, prec: int = 2):
        self.text = text
        self.terms = terms
        self.prec = prec

    @classmethod
    def var(cls, name: str, modes: int) -> "Expr":
        kind, index = ("phi", name[3:]) if name.startswith("phi") else ("pi", name[2:])
        axis = int(index) - 1 + (0 if kind == "phi" else modes)
        exps = tuple(1 if k == axis else 0 for k in range(2 * modes))
        return cls(name, {exps: 1.0})

    @classmethod
    def const(cls, value: float, modes: int, text: str | None = None) -> "Expr":
        return cls(repr(value) if text is None else text,
                   {(0,) * (2 * modes): float(value)})

    def _wrap(self, prec: int) -> str:
        return self.text if self.prec >= prec else f"({self.text})"

    def __add__(self, other: "Expr") -> "Expr":
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0.0) + c
        return Expr(f"{self.text} + {other.text}", terms, 0)

    def __mul__(self, other: "Expr") -> "Expr":
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, 0.0) + c1 * c2
        return Expr(f"{self._wrap(1)}*{other._wrap(1)}", terms, 1)

    def __pow__(self, n: int) -> "Expr":
        out = Expr.const(1.0, len(next(iter(self.terms))) // 2)
        for _ in range(n):
            out = out * self
        return Expr(f"{self._wrap(2)}^{n}", out.terms, 1)

    def evaluate(self, phi: np.ndarray, pi: np.ndarray) -> float:
        x = np.concatenate([phi, pi])
        return float(sum(c * np.prod(x ** np.array(e)) for e, c in self.terms.items()))

    def gradient(self, phi: np.ndarray, pi: np.ndarray) -> np.ndarray:
        """(d/dphi_1..d/dphi_n, d/dpi_1..d/dpi_n) at the point."""
        x = np.concatenate([phi, pi])
        grad = np.zeros_like(x)
        for e, c in self.terms.items():
            for k, ek in enumerate(e):
                if ek:
                    lowered = list(e)
                    lowered[k] -= 1
                    grad[k] += c * ek * np.prod(x ** np.array(lowered))
        return grad

    def normal_matrix(self, cutoff: int) -> np.ndarray:
        """Dense matrix of the normal-product operator at per-mode cutoff.

        phi = (z + y)/sqrt2 and pi = -i (z - y)/sqrt2; the monomial z^n y^m
        maps to (adag)^m a^n, mode 1 slowest in the Kronecker product.
        """
        modes = len(next(iter(self.terms))) // 2
        a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)
        ad = a.conj().T
        word = {}
        out = np.zeros((cutoff ** modes,) * 2, dtype=complex)
        for exps, coeff in self.terms.items():
            # per mode: {(z_power, y_power): coefficient}
            factors = []
            for j in range(modes):
                p, q = exps[j], exps[modes + j]
                f: dict = {}
                for k in range(p + 1):
                    for l in range(q + 1):
                        c = (math.comb(p, k) * math.comb(q, l) * (-1j) ** q
                             * (-1) ** (q - l) / math.sqrt(2) ** (p + q))
                        key = (k + l, p + q - k - l)
                        f[key] = f.get(key, 0.0) + c
                factors.append(f)
            for combo in _product(factors):
                c = coeff
                mat = np.eye(1, dtype=complex)
                for zp, yp, fc in combo:
                    c *= fc
                    if (zp, yp) not in word:
                        word[zp, yp] = (np.linalg.matrix_power(ad, yp)
                                        @ np.linalg.matrix_power(a, zp))
                    mat = np.kron(mat, word[zp, yp])
                out += c * mat
        return out


def _product(factors):
    if not factors:
        yield ()
        return
    for (zp, yp), c in factors[0].items():
        for rest in _product(factors[1:]):
            yield ((zp, yp, c),) + rest


def coherent_vector(phi, pi, cutoff: int) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for f, p in zip(phi, pi):
        z = (f + 1j * p) / math.sqrt(2)
        col = np.array([z ** k / math.sqrt(math.factorial(k)) for k in range(cutoff)])
        out = np.kron(out, col * math.exp(-abs(z) ** 2 / 2))
    return out


def classical_path(h: Expr, phi0, pi0, times, step: float) -> list:
    """RK4 on Hamilton's equations, sampled at each requested time."""
    n = len(phi0)
    x = np.concatenate([phi0, pi0]).astype(float)

    def f(xv):
        g = h.gradient(xv[:n], xv[n:])
        return np.concatenate([g[n:], -g[:n]])

    out, now = [], 0.0
    for t in times:
        steps = int(round((t - now) / step))
        for _ in range(steps):
            k1 = f(x)
            k2 = f(x + 0.5 * step * k1)
            k3 = f(x + 0.5 * step * k2)
            k4 = f(x + step * k3)
            x = x + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        now += steps * step
        out.append((x[:n].copy(), x[n:].copy()))
    return out


# --- inputs -------------------------------------------------------------------


def _variables(modes: int):
    return ([Expr.var(f"phi{j + 1}", modes) for j in range(modes)],
            [Expr.var(f"pi{j + 1}", modes) for j in range(modes)])


def _draw_couplings(rng: random.Random) -> dict:
    return {"c1": round(rng.uniform(0.02, 0.08), 6),
            "c2": round(rng.uniform(0.02, 0.08), 6)}


def _oscillators(phi, pi) -> Expr:
    total = None
    for x in pi + phi:
        total = x ** 2 if total is None else total + x ** 2
    return Expr.const(0.5, len(phi)) * total


def quartic_system(couplings: dict) -> tuple[Expr, list]:
    """2-mode quartic-coupled Hamiltonian and the three evolve observables."""
    phi, pi = _variables(2)
    c = {k: Expr.const(v, 2, k) for k, v in couplings.items()}
    h = _oscillators(phi, pi) + c["c1"] * phi[0] ** 2 * phi[1] ** 2 + c["c2"] * phi[0] ** 4
    return h, [phi[0] * pi[0], phi[1] ** 2, phi[0] * phi[1]]


def rotation_invariant_system(couplings: dict) -> tuple[Expr, list]:
    """2-mode Hamiltonian that commutes with both number operators."""
    phi, pi = _variables(2)
    c = {k: Expr.const(v, 2, k) for k, v in couplings.items()}
    n1 = phi[0] ** 2 + pi[0] ** 2
    n2 = phi[1] ** 2 + pi[1] ** 2
    h = _oscillators(phi, pi) + c["c1"] * n1 ** 2 + c["c2"] * n1 * n2
    return h, [phi[0] * pi[0], phi[0] ** 3 * pi[0],
               phi[0] ** 2 * phi[1] ** 2 + pi[0] ** 2]


def kerr_oscillator(couplings: dict) -> Expr:
    """1-mode oscillator with a Kerr term; diagonal in the number basis."""
    phi, pi = _variables(1)
    n1 = phi[0] ** 2 + pi[0] ** 2
    return _oscillators(phi, pi) + Expr.const(couplings["c1"], 1, "c1") * n1 ** 2


def _evolve_config(rng, generator: str, cutoff: int, steps: int) -> dict:
    values = _draw_couplings(rng)
    h, observables = quartic_system(values)
    state = {"phi": [], "pi": []}
    for _ in range(2):
        radius = rng.uniform(0.4, 1.0)
        angle = rng.uniform(0.0, 2 * math.pi)
        state["phi"].append(round(radius * math.cos(angle), 6))
        state["pi"].append(round(radius * math.sin(angle), 6))
    dt = 0.005
    return {"experiment": "evolve", "hamiltonian": h.text, "bindings": values,
            "observables": [g.text for g in observables], "state": state,
            "cutoff": cutoff, "dt": dt, "t": round(steps * dt, 12),
            "generator": generator, "sample_every": 2}


def make_config(workload: str, seed: int, run: int) -> dict:
    """The config of one run; equal (seed, run) pairs give equal configs.

    Each run of an invocation draws afresh, so an invocation's medians
    average over inputs whose work differs, as verify's seed does.
    """
    rng = random.Random(f"{workload}:{seed}:{run}")
    config = _draw_config(workload, rng, verify_seed=seed * 1000 + run)
    guard = GUARD_MARGIN * config.get("cutoff", 32) / 4
    if any(amp > guard for amp in coherent_amplitudes(config)):
        raise ValueError(f"{workload}: drawn state exceeds |z|^2 <= {guard}")
    return config


def _draw_config(workload: str, rng: random.Random, verify_seed: int) -> dict:
    if workload == "evolve-master":
        return _evolve_config(rng, "master", cutoff=16, steps=6)
    if workload == "evolve-liouville":
        return _evolve_config(rng, "liouville", cutoff=24, steps=20)
    if workload == "flux-ensemble":
        values = _draw_couplings(rng)
        h, observables = rotation_invariant_system(values)
        return {"experiment": "iee", "hamiltonian": h.text, "bindings": values,
                "observables": [g.text for g in observables],
                "ensemble": {"kind": "phase_circle", "radius": round(rng.uniform(0.5, 1.5), 6),
                             "points": 16, "modes": 2},
                "cutoff": 32}
    if workload == "project-decay":
        values = {"c1": _draw_couplings(rng)["c1"]}
        radius = rng.uniform(0.6, 1.4)
        angle = rng.uniform(0.0, 2 * math.pi)
        return {"experiment": "project", "hamiltonian": kerr_oscillator(values).text,
                "bindings": values, "cutoff": 32, "deltas": [50.0, 100.0, 200.0],
                "state": {"phi": [round(radius * math.cos(angle), 6)],
                          "pi": [round(radius * math.sin(angle), 6)]}}
    if workload == "verify-battery":
        return {"experiment": "verify", "seed": verify_seed}
    raise KeyError(workload)


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, indent=2, sort_keys=True) + "\n").encode()


def coherent_amplitudes(config: dict) -> list[float]:
    """|z_j|^2 of every encoded classical state in the config."""
    if "state" in config:
        return [(f * f + p * p) / 2 for f, p in zip(config["state"]["phi"],
                                                   config["state"]["pi"])]
    if "ensemble" in config:
        return [config["ensemble"]["radius"] ** 2 / 2]
    return []


# --- oracles ------------------------------------------------------------------


def _read_csv(out_dir: Path) -> tuple[list, list]:
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _evolve_expected(config: dict) -> tuple[list, dict]:
    """Sample times and expected <g> columns of an evolve run."""
    h, observables = quartic_system(config["bindings"])
    texts = [h.text] + [g.text for g in observables]
    if texts != [config["hamiltonian"]] + config["observables"]:
        raise ValueError("config is not from the evolve workload family")
    dt, every = config["dt"], config["sample_every"]
    steps = int(round(config["t"] / dt))
    times = [min(k, steps) * dt for k in range(0, steps + every, every)]
    times = sorted(set(times))
    phi0 = np.array(config["state"]["phi"], dtype=float)
    pi0 = np.array(config["state"]["pi"], dtype=float)
    expected = {}
    if config["generator"] == "master":
        # the master equation carries the coherent encoding along the flow
        path = classical_path(h, phi0, pi0, times, dt / 50)
        for g in observables:
            expected[g.text] = [g.evaluate(p, q) for p, q in path]
    else:
        cutoff = config["cutoff"]
        evals, vecs = np.linalg.eigh(h.normal_matrix(cutoff))
        w0 = vecs.conj().T @ coherent_vector(phi0, pi0, cutoff)
        mats = {g.text: g.normal_matrix(cutoff) for g in observables}
        for g in observables:
            expected[g.text] = []
        for t in times:
            psi = vecs @ (np.exp(-1j * evals * t) * w0)
            for g in observables:
                expected[g.text].append(float(np.real(psi.conj() @ mats[g.text] @ psi)))
    return times, expected


def check_evolve(config: dict, out_dir: Path) -> list[str]:
    times, columns = _evolve_expected(config)
    header, rows = _read_csv(out_dir)
    problems = []
    want = ["t", "trace_re", "trace_im"] + [f"<{g}>" for g in config["observables"]]
    if header != want:
        return [f"header {header} != {want}"]
    if len(rows) != len(times):
        return [f"{len(rows)} rows, expected {len(times)}"]
    for i, (row, t) in enumerate(zip(rows, times)):
        values = [float(v) for v in row]
        if abs(values[0] - t) > 1e-12:
            problems.append(f"row {i}: t={values[0]} expected {t}")
        if abs(complex(values[1], values[2]) - 1.0) > 1e-8:
            problems.append(f"row {i}: trace {values[1]}+{values[2]}i")
        for k, g in enumerate(config["observables"]):
            got, exp = values[3 + k], columns[g][i]
            if not abs(got - exp) <= EVOLVE_TOL:
                problems.append(f"row {i} <{g}>: {got!r} expected {exp!r}")
    return problems


def check_iee(config: dict, out_dir: Path) -> list[str]:
    header, rows = _read_csv(out_dir)
    want = ["observable", "g_hat_re", "g_hat_im", "g_dot", "discrepancy_re",
            "discrepancy_im", "equilibrium"]
    if header != want:
        return [f"header {header} != {want}"]
    problems = []
    if [r[0] for r in rows] != config["observables"]:
        problems.append(f"observables {[r[0] for r in rows]}")
    for row in rows:
        g_hat = complex(float(row[1]), float(row[2]))
        g_dot = float(row[3])
        gap = complex(float(row[4]), float(row[5]))
        if not (abs(g_hat) <= FLUX_TOL and abs(g_dot) <= FLUX_TOL):
            problems.append(f"{row[0]}: flux g_hat={g_hat} g_dot={g_dot} above {FLUX_TOL}")
        if not abs(gap - (g_hat - g_dot)) <= 1e-12:
            problems.append(f"{row[0]}: discrepancy {gap} != g_hat - g_dot")
        if row[6] != "true":
            problems.append(f"{row[0]}: equilibrium={row[6]}")
    return problems


def trapezoid_average(omega: np.ndarray, delta: float) -> np.ndarray:
    """(1/delta) * trapezoid sum of exp(i omega t) over [0, delta].

    The step is the package's documented min(0.01, delta/1000). The sum is a
    geometric series, summed here in closed form rather than term by term.
    """
    dt = min(0.01, delta / 1000)
    steps = max(1, int(round(delta / dt)))
    x = 1j * omega * dt
    nonzero = np.where(omega == 0, 1j, x)
    series = (np.expm1(nonzero * (steps + 1)) / np.expm1(nonzero)
              - 0.5 * (1 + np.exp(nonzero * steps)))
    return np.where(omega == 0, steps, series) * (dt / delta)


def _project_expected(config: dict) -> list[tuple]:
    """Expected (delta, max_offdiagonal, c_estimate) rows of a project run."""
    h = kerr_oscillator(config["bindings"])
    if h.text != config["hamiltonian"]:
        raise ValueError("config is not from the project workload family")
    cutoff = config["cutoff"]
    evals, vecs = np.linalg.eigh(h.normal_matrix(cutoff))
    psi = coherent_vector(config["state"]["phi"], config["state"]["pi"], cutoff)
    rho_eig = vecs.conj().T @ np.outer(psi, psi.conj()) @ vecs
    omega = evals[:, None] - evals[None, :]
    # as the CLI reports it: Fock-basis entries off the degenerate blocks of
    # the sorted spectrum
    gap = np.abs(omega) > 1e-9
    rows = []
    for delta in config["deltas"]:
        out = vecs @ (rho_eig * trapezoid_average(omega, delta)) @ vecs.conj().T
        out /= np.trace(out).real
        off = float(np.max(np.abs(out[gap])))
        rows.append((delta, off, off * delta))
    return rows


def check_project(config: dict, out_dir: Path) -> list[str]:
    header, rows = _read_csv(out_dir)
    want = ["delta", "max_offdiagonal", "c_estimate", "trace_error"]
    if header != want:
        return [f"header {header} != {want}"]
    expected = _project_expected(config)
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (delta, off, c_est) in zip(rows, expected):
        values = [float(v) for v in row]
        if values[0] != delta:
            problems.append(f"delta {values[0]} expected {delta}")
        for name, got, exp in (("max_offdiagonal", values[1], off),
                               ("c_estimate", values[2], c_est)):
            if not abs(got - exp) <= PROJECT_RTOL * abs(exp):
                problems.append(f"delta {delta} {name}: {got!r} expected {exp!r}")
        if not values[3] <= 1e-10:
            problems.append(f"delta {delta}: trace_error {values[3]}")
    return problems


VERIFY_CHECKS = (
    "coherent-eigenrelation", "expectation-identity", "master-trace-conservation",
    "master-vs-classical-flow", "ladder-commutator-expansion",
    "discrepancy-closed-form", "oscillator-mass-sweep", "field-scaling-balance",
    "projection-offdiagonal-decay", "reify-flow-coefficients",
    "reify-norm-divergence", "two-mode-escape", "iee-phase-circle",
)


def check_verify(config: dict, out_dir: Path) -> list[str]:
    header, rows = _read_csv(out_dir)
    if header != ["check", "value", "tolerance", "passed"]:
        return [f"header {header}"]
    problems = []
    if tuple(r[0] for r in rows) != VERIFY_CHECKS:
        problems.append(f"checks {[r[0] for r in rows]}")
    problems += [f"{r[0]} failed (value {r[1]}, tolerance {r[2]})"
                 for r in rows if r[3] != "true"]
    return problems


def check_manifest(config: dict, out_dir: Path) -> list[str]:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    _, rows = _read_csv(out_dir)
    problems = []
    if manifest.get("experiment") != config["experiment"]:
        problems.append(f"manifest experiment {manifest.get('experiment')}")
    if manifest.get("row_count") != len(rows):
        problems.append(f"manifest row_count {manifest.get('row_count')} != {len(rows)}")
    if manifest.get("passed") is not True:
        problems.append("manifest passed is not true")
    if any(not c.get("passed") for c in manifest.get("checks", [])):
        problems.append("manifest lists a failed check")
    return problems


@dataclass(frozen=True)
class Workload:
    suite: str
    check: Callable[[dict, Path], list]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "evolve-master": Workload("evolve", check_evolve),
    "evolve-liouville": Workload("evolve", check_evolve),
    "flux-ensemble": Workload("iee", check_iee),
    "project-decay": Workload("project", check_project),
    "verify-battery": Workload("verify", check_verify),
}


def check_run(workload: str, config: dict, out_dir: Path) -> list[str]:
    """Every way the run's outputs disagree with the oracle (empty if none)."""
    try:
        return (check_manifest(config, out_dir)
                + WORKLOADS[workload].check(config, out_dir))
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"output could not be checked: {err!r}"]
