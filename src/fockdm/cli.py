"""Reproducible experiment runner.

Every run is driven by one JSON config document, optionally overridden by
--seed and --cutoff; the one environment variable a run reads is
OPENBLAS_NUM_THREADS, which importing fockdm before numpy defaults to 1
(see fockdm/__init__.py) and the caller may set.  A run writes two
artifacts into
the output directory: results.csv with a bit-stable column order and floats
printed at 17 significant digits, and manifest.json recording the config
hash, library versions, and one named pass/fail entry per executed check.
Randomized suites draw from one seeded generator, split into independent
child streams per sub-check, so no sub-check's draws depend on another's.

Every input of the config is read once, at load, whatever the suite:
``ExperimentConfig.validate`` checks each field, parses each polynomial and
builds the classical state, the ensemble and evolve's step count, and the
suite runners take those.  Every number in a config is a JSON number, not a
boolean or a string, that fits a float.

Exit codes: 0 all checks pass, 1 a check failed, 2 bad configuration,
3 numerical or resource failure, at load or while running, an output that
cannot be written included.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import (
    CRITERIA,
    closed_form_check,
    equilibrium_check,
    monotone_growth_check,
    projection_check,
    steepening_check,
    trace_drift_check,
)
from .algebra import poly_to_normal_form
from .discrepancy import discrepancy_report, iee_check
from .evolution import density_samples, projection_decay, quadrature
from .fock import (
    DimensionCapError,
    PairingError,
    check_dimension,
    compile_operator,
)
from .poly import PolyExpr, PolyParseError, ProductSizeError, parse_poly
from .reify import PoleError, flow_coeffs, rho_z_trace
from .states import (
    AmplitudeOverflowError,
    ClassicalState,
    Ensemble,
    pure_density,
    step_count,
)

EXPERIMENTS = ("verify", "discrepancy", "evolve", "reify", "project", "iee")

# the most steps t/dt that fockdm evolve accepts; checked at load time
MAX_STEPS = 10 ** 6
# the most members of a phase_circle ensemble; checked at load time
MAX_POINTS = 10 ** 5
# the most points of the reify alpha grid; checked at load time
MAX_ALPHA_POINTS = 10 ** 5
# the most trapezoid steps N of one projection time average; checked at load
# time: the phase sums sin(N h) carry about N 2^-53 of absolute rounding
MAX_QUADRATURE_STEPS = 10 ** 9


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _is_number(value) -> bool:
    """An int or float that converts to a finite float (nan compares
    false)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _numbers(value) -> bool:
    """Whether a JSON value is a flat list of numbers (see ``_is_number``)."""
    return isinstance(value, list) and all(map(_is_number, value))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    return _is_int(value) and value > 0


def _parse(name: str, text: str, bindings: dict) -> PolyExpr:
    """parse_poly, with a parse error, a product over the term-pair ceiling
    or a coefficient that is not a finite number reported as a
    configuration error naming the field."""
    try:
        return parse_poly(text, bindings)
    except (PolyParseError, ProductSizeError) as err:
        raise ConfigError(f"{name}: {err}") from err
    except FloatingPointError as err:
        raise ConfigError(f"{name}: {text!r} has a coefficient that is not "
                          "a finite number") from err


def _read_state(name: str, obj) -> ClassicalState:
    """The state of a JSON object whose phi and pi are lists of numbers of
    one nonzero length; anything else is a configuration error naming
    the field."""
    if not (isinstance(obj, dict) and _numbers(obj.get("phi"))
            and _numbers(obj.get("pi"))):
        raise ConfigError(f"{name}: phi and pi must be lists of numbers")
    try:
        return ClassicalState(obj["phi"], obj["pi"])
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from err


def _read_ensemble(spec, cutoff: int) -> Ensemble:
    """The ensemble of a config's ensemble object: a phase circle, whose
    mode count is checked against the dimension cap before its members
    exist, or weighted members."""
    if not isinstance(spec, dict):
        raise ConfigError("ensemble: must be an object")
    kind = spec.get("kind", "members")
    if kind == "phase_circle":
        radius = spec.get("radius", 1.0)
        points = spec.get("points", 64)
        modes = spec.get("modes", 1)
        if not (_is_number(radius) and radius > 0):
            raise ConfigError("ensemble.radius: must be a positive number")
        for name, value in (("points", points), ("modes", modes)):
            if not _is_positive_int(value):
                raise ConfigError(f"ensemble.{name}: must be a positive "
                                  "integer")
        if points > MAX_POINTS:
            raise ConfigError(f"ensemble.points: exceeds the ceiling of "
                              f"{MAX_POINTS} points")
        check_dimension(modes, cutoff)
        return Ensemble.phase_circle(radius, points, modes=modes)
    if kind != "members":
        raise ConfigError(f"ensemble: unknown kind {kind!r}")
    members = spec.get("members")
    if not (isinstance(members, list)
            and all(isinstance(m, dict) and _is_number(m.get("w"))
                    for m in members)):
        raise ConfigError("ensemble: members must be a list of objects with "
                          "phi, pi and a number w")
    states = [_read_state("ensemble", m) for m in members]
    try:
        return Ensemble.from_states(states, [m["w"] for m in members])
    except ValueError as err:
        raise ConfigError(f"ensemble: {err}") from err


# the input of a suite run without a state or an ensemble of its own, where
# the shared default would fail its checks: criterion 10's state, whose
# recoded norm grows along the whole alpha grid, and a phase circle, an
# equilibrium of every rotation-invariant Hamiltonian
SUITE_INPUTS = {
    "reify": {"state": {"phi": [0], "pi": [2]}},
    "iee": {"ensemble": {"kind": "phase_circle", "radius": 1, "points": 64}},
}


@dataclass
class ExperimentConfig:
    experiment: str
    hamiltonian: str = "0.5*pi1^2 + 0.5*m*phi1^2"
    bindings: dict = field(default_factory=lambda: {"m": 1.0})
    observables: list = field(default_factory=lambda: ["phi1*pi1"])
    state: dict = field(default_factory=lambda: {"phi": [1.0], "pi": [0.0]})
    ensemble: dict | None = None
    cutoff: int = 32
    dt: float = 1e-3
    t: float = 1.0
    generator: str = "master"
    sweep: dict = field(default_factory=dict)
    deltas: list = field(default_factory=lambda: [50.0, 100.0, 200.0])
    alpha_points: int = 20
    alpha_margin: float = 1e-3
    cutoffs: list = field(default_factory=lambda: [32, 64])
    sample_every: int = 10
    snapshot_every: int | None = None
    seed: int | None = None
    out: str = "fockdm-results"

    RANDOMIZED = ("verify",)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config: top level must be a JSON object")
        unknown = set(obj) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"config: unknown field {sorted(unknown)[0]!r}")
        obj = {"experiment": "verify", **obj}
        if (isinstance(obj["experiment"], str)
                and not {"state", "ensemble"} & obj.keys()):
            obj = {**copy.deepcopy(SUITE_INPUTS.get(obj["experiment"], {})),
                   **obj}
        cfg = cls(**obj)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: {self.experiment!r} is not one of "
                              f"{'|'.join(EXPERIMENTS)}")
        for name, least in (("cutoff", 2), ("alpha_points", 2),
                            ("sample_every", 1)):
            value = getattr(self, name)
            if not (_is_positive_int(value) and value >= least):
                raise ConfigError(f"{name}: must be an integer >= {least}")
        if self.alpha_points > MAX_ALPHA_POINTS:
            raise ConfigError(f"alpha_points: exceeds the ceiling of "
                              f"{MAX_ALPHA_POINTS} points")
        for name in ("dt", "alpha_margin"):
            v = getattr(self, name)
            if not (_is_number(v) and v > 0):
                raise ConfigError(f"{name}: must be a finite positive number")
        if not 0 < math.pi / 4 - self.alpha_margin < math.pi / 4:
            raise ConfigError("alpha_margin: the grid end pi/4 - alpha_margin "
                              "must lie strictly inside (0, pi/4)")
        if not (_is_number(self.t) and self.t >= 0):
            raise ConfigError("t: must be a finite nonnegative number")
        if not self.t / self.dt <= MAX_STEPS:
            raise ConfigError(f"t: t/dt exceeds the ceiling of {MAX_STEPS} "
                              "steps")
        try:
            self.steps = step_count(self.t, self.dt)
        except ValueError as err:
            raise ConfigError(f"t: {err}") from err
        if self.generator not in ("liouville", "master"):
            raise ConfigError("generator: must be liouville or master")
        if (not _numbers(self.deltas)
                or not all(d > 0 for d in self.deltas)
                or len(set(self.deltas)) < 2):
            raise ConfigError("deltas: must be a list of finite positive "
                              "numbers with at least two distinct values")
        for delta in self.deltas:
            if delta / 1000 < sys.float_info.min:
                raise ConfigError(f"deltas: {delta!r} makes the quadrature "
                                  "step delta/1000 subnormal")
            if not quadrature(delta)[1] <= MAX_QUADRATURE_STEPS:
                raise ConfigError(f"deltas: {delta!r} takes more than the "
                                  f"ceiling of {MAX_QUADRATURE_STEPS} "
                                  "quadrature steps of min(0.01, delta/1000)")
        if (not isinstance(self.bindings, dict)
                or not all(map(_is_number, self.bindings.values()))):
            raise ConfigError("bindings: must map names to finite numbers")
        if (not isinstance(self.sweep, dict) or len(self.sweep) > 1
                or not all(_numbers(vs) and vs
                           for vs in self.sweep.values())):
            raise ConfigError("sweep: must map one binding name to a nonempty "
                              "list of finite numbers")
        if (not isinstance(self.cutoffs, list)
                or any(not isinstance(c, int) or c < 2 for c in self.cutoffs)
                or not 2 <= len(set(self.cutoffs)) == len(self.cutoffs)):
            raise ConfigError("cutoffs: must be a list of at least two "
                              "distinct integers >= 2")
        if (self.snapshot_every is not None
                and not _is_positive_int(self.snapshot_every)):
            raise ConfigError("snapshot_every: must be a positive integer when "
                              "given")
        if (not isinstance(self.observables, list)
                or not all(isinstance(t, str) for t in self.observables)):
            raise ConfigError("observables: must be a list of polynomial "
                              "strings")
        if not self.observables and self.experiment in ("discrepancy", "evolve",
                                                        "iee"):
            raise ConfigError("observables: must be nonempty")
        if self.seed is not None and not (_is_int(self.seed)
                                          and self.seed >= 0):
            raise ConfigError("seed: must be an integer >= 0")
        if self.seed is None and self.experiment in self.RANDOMIZED:
            raise ConfigError("seed: required for randomized suites")
        if not isinstance(self.hamiltonian, str):
            raise ConfigError("hamiltonian: must be a polynomial string")
        if not isinstance(self.out, str):
            raise ConfigError("out: must be a directory path string")
        # each text parsed once at the bindings, kept for _fit
        self._parsed = {text: _parse(name, text, self.bindings)
                        for name, text in [("hamiltonian", self.hamiltonian)]
                        + [("observables", text) for text in self.observables]}
        self.initial_state = _read_state("state", self.state)
        if self.experiment == "reify" and self.initial_state.modes != 1:
            raise ConfigError(f"state: the single-mode recoding takes a "
                              f"one-mode state, not "
                              f"{self.initial_state.modes} modes")
        # evolve's and iee's input: the ensemble, or else the pure state
        self.initial_ensemble = (Ensemble.pure(self.initial_state)
                                 if self.ensemble is None
                                 else _read_ensemble(self.ensemble,
                                                     self.cutoff))

    def hamiltonian_on(self, modes: int,
                       bindings: dict | None = None) -> PolyExpr:
        """The Hamiltonian on the state's mode count (see ``_fit``)."""
        return self._fit("hamiltonian", self.hamiltonian, modes, bindings)

    def observables_on(self, modes: int, bindings: dict | None = None
                       ) -> list[tuple[str, PolyExpr]]:
        """(text, polynomial) of each observable on the state's mode count."""
        return [(text, self._fit("observables", text, modes, bindings))
                for text in self.observables]

    def _fit(self, name: str, text: str, modes: int,
             bindings: dict | None) -> PolyExpr:
        """The one mode-consistency check: a polynomial on fewer modes than
        the state is promoted, one on more is a configuration error naming
        its field, and a mode count over the dimension cap at the cutoff is
        refused before anything is promoted to it.  Without bindings it
        takes the parse that ``validate`` kept; with a swept binding's
        bindings it parses again, so a swept value that overflows a
        coefficient is refused here."""
        check_dimension(modes, self.cutoff)
        p = (self._parsed[text] if bindings is None
             else _parse(name, text, bindings))
        if p.modes > modes:
            raise ConfigError(f"{name}: {text!r} has {p.modes} modes, the state "
                              f"has {modes}")
        return p.promote(modes)

    def canonical_json(self) -> str:
        data = {k: getattr(self, k) for k in sorted(self.__dataclass_fields__)}
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass
class SuiteResult:
    columns: list
    rows: list
    checks: list
    snapshots: list = field(default_factory=list)

    def failed(self) -> bool:
        return any(not c.passed for c in self.checks)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_report(result: SuiteResult, config: ExperimentConfig,
                out_dir: Path) -> None:
    """Write results.csv and manifest.json; column order is bit-stable."""
    if not result.rows and not result.checks:
        raise ValueError("nothing to report")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_fmt(v) for v in row])
    manifest = {
        "config_sha256": config.sha256(),
        "experiment": config.experiment,
        "seed": config.seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "columns": list(result.columns),
        "row_count": len(result.rows),
        "checks": [{"tag": c.tag, "value": _fmt(c.value),
                    "tolerance": _fmt(c.tolerance), "passed": bool(c.passed),
                    "detail": c.detail}
                   for c in result.checks],
        "passed": bool(not result.failed()),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- suites ------------------------------------------------------------------


def run_verify(config: ExperimentConfig) -> SuiteResult:
    streams = np.random.SeedSequence(config.seed).spawn(len(CRITERIA))
    checks = [c.check(np.random.default_rng(stream), config.cutoff,
                      c.verify_samples)
              for c, stream in zip(CRITERIA, streams)]
    rows = [(c.tag, c.value, c.tolerance, c.passed) for c in checks]
    return SuiteResult(columns=["check", "value", "tolerance", "passed"],
                       rows=rows, checks=checks)


def run_discrepancy(config: ExperimentConfig) -> SuiteResult:
    state = config.initial_state
    if config.sweep:
        [(name, values)] = config.sweep.items()
        runs = [(value, {**config.bindings, name: value}) for value in values]
    else:
        # the validated parse, at the config's own bindings
        name, runs = "m", [(config.bindings.get("m", 1.0), None)]
    columns = [name, "observable", "g_hat_re", "g_hat_im", "g_dot",
               "direct_re", "direct_im", "closed_re", "closed_im",
               "residual"]
    rows, reports = [], []
    for value, bindings in runs:
        h = config.hamiltonian_on(state.modes, bindings)
        for text, g in config.observables_on(state.modes, bindings):
            rep = discrepancy_report(state, g, h, config.cutoff)
            reports.append(rep)
            rows.append((value, text, rep.g_hat.real, rep.g_hat.imag,
                         rep.g_dot, rep.direct.real, rep.direct.imag,
                         rep.closed_form.real, rep.closed_form.imag,
                         rep.residual))
    return SuiteResult(columns, rows, [closed_form_check(reports)])


def run_evolve(config: ExperimentConfig) -> SuiteResult:
    ensemble = config.initial_ensemble
    h_n = poly_to_normal_form(config.hamiltonian_on(ensemble.modes))
    observables = config.observables_on(ensemble.modes)
    tables = [compile_operator(poly_to_normal_form(g), config.cutoff)
              for _, g in observables]
    columns = ["t", "trace_re", "trace_im"] + [f"<{text}>" for text, _ in observables]
    rows, traces, snapshots = [], [], []
    for done, rho in density_samples(config.generator, ensemble, h_n,
                                     config.cutoff, config.dt, config.steps,
                                     config.sample_every):
        tr = rho.trace()
        traces.append(tr)
        rows.append((done * config.dt, tr.real, tr.imag)
                    + tuple(rho.expect(table).real for table in tables))
        if done and config.snapshot_every and done % config.snapshot_every == 0:
            snapshots.append((done, rho))
    return SuiteResult(columns, rows, [trace_drift_check(traces)], snapshots)


def run_reify(config: ExperimentConfig) -> SuiteResult:
    state = config.initial_state
    grid = np.linspace(0.0, math.pi / 4 - config.alpha_margin,
                       config.alpha_points)
    columns = ["alpha", "norm", "cutoff", "residual_a7", "residual_a8",
               "c", "d"]
    traces = [rho_z_trace(state, grid, cutoff) for cutoff in config.cutoffs]
    rows = [(alpha, norm, trace.cutoff, r, r, *flow_coeffs(alpha))
            for trace in traces
            for alpha, norm, r in zip(trace.alphas, trace.norms,
                                      trace.residuals)]
    return SuiteResult(columns, rows, [monotone_growth_check(traces),
                                       steepening_check(traces)])


def run_project(config: ExperimentConfig) -> SuiteResult:
    state = config.initial_state
    h_n = poly_to_normal_form(config.hamiltonian_on(state.modes))
    rho = pure_density(state, config.cutoff)
    columns = ["delta", "max_offdiagonal", "c_estimate", "trace_error"]
    rows, band = projection_decay(rho, h_n, config.deltas)
    return SuiteResult(columns, rows, [projection_check(band)])


def run_iee(config: ExperimentConfig) -> SuiteResult:
    ensemble = config.initial_ensemble
    h = config.hamiltonian_on(ensemble.modes)
    observables = config.observables_on(ensemble.modes)
    report = iee_check(ensemble, h, [g for _, g in observables], config.cutoff)
    check = equilibrium_check(report)
    columns = ["observable", "g_hat_re", "g_hat_im", "g_dot",
               "discrepancy_re", "discrepancy_im", "equilibrium"]
    rows = [(text, r.g_hat.real, r.g_hat.imag, r.g_dot,
             r.direct.real, r.direct.imag, check.passed)
            for (text, _), r in zip(observables, report.rows)]
    return SuiteResult(columns, rows, [check])


_RUNNERS = {
    "verify": run_verify,
    "discrepancy": run_discrepancy,
    "evolve": run_evolve,
    "reify": run_reify,
    "project": run_project,
    "iee": run_iee,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockdm",
        description="moment-matrix experiments over truncated Fock space")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config document")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default from config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--cutoff", type=int, default=None,
                       help="override the config cutoff")
    return parser


def load_config(args) -> ExperimentConfig:
    data = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config: file {args.config} not found")
        except OSError as err:
            raise ConfigError(f"config: file {args.config} cannot be read "
                              f"({err.strerror})")
        except (RecursionError, ValueError) as err:
            # a JSONDecodeError, a UnicodeDecodeError or nesting too deep
            raise ConfigError(f"config: invalid JSON ({err})")
    data["experiment"] = args.experiment
    if args.seed is not None:
        data["seed"] = args.seed
    if args.cutoff is not None:
        data["cutoff"] = args.cutoff
    if args.out is not None:
        data["out"] = str(args.out)
    if (args.config is None and data.get("seed") is None
            and args.experiment in ExperimentConfig.RANDOMIZED):
        # pure-defaults invocation: use the documented default stream
        data["seed"] = 20240811
    return ExperimentConfig.from_json(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        result = _RUNNERS[config.experiment](config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (AmplitudeOverflowError, DimensionCapError, FloatingPointError,
            OverflowError, PoleError, ProductSizeError,
            np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except PairingError as err:
        # of the operators whose words are paired, only H_n comes from the
        # config: rounding in its chart change can part a high power's mates
        print(f"numerical failure: H_n, the Hamiltonian's normal form: {err}",
              file=sys.stderr)
        return 3
    except MemoryError:
        print("resource failure: out of memory", file=sys.stderr)
        return 3
    out_dir = Path(config.out)
    try:
        emit_report(result, config, out_dir)
        for done, dm in result.snapshots:
            path = out_dir / f"snapshot_{done:08d}.json"
            path.write_text(json.dumps(dm.to_json()))
    except OSError as err:
        print(f"resource failure: cannot write the output to {out_dir}: "
              f"{err}", file=sys.stderr)
        return 3
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.tag}: value={_fmt(check.value)} "
              f"tol={_fmt(check.tolerance)}")
    if result.failed():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
