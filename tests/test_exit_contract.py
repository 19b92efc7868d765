"""The CLI's exit-code contract, crossed over bad input: 0 every check
passed, 1 a check failed, 2 bad configuration with a message that names the
field, 3 a numerical or resource failure, and no exception out of main.

Each top-level config field runs on one suite that reads it, and so does
each nested entry of state, ensemble, bindings, sweep, observables, deltas
and cutoffs, with each of BAD_VALUES in its place; each malformed
Hamiltonian string runs on every suite that builds H_n.  A config file
that cannot be read or decoded, and a flat field nested hundreds of lists
deep, exit 2 too.  Every config fixes its seed, so each run is the same on
every machine."""

import contextlib
import io
import json
import math
import time

import pytest

from fockdm.cli import ExperimentConfig, main

BAD_VALUES = [None, True, -1, 0, 1e308, 5e-324, math.nan, "x", "1", [], {},
              [[1]]]
BAD_IDS = ["null", "true", "minus-one", "zero", "huge", "subnormal", "nan",
           "text", "numeric-text", "empty-list", "empty-object", "nested-list"]

# a numerical failure is reported through the exit code, never as a numpy
# warning on the way to it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# the wall time one run may take; the slowest, a full verify, takes 0.2 s
BUDGET_S = 5.0

# the suite that runs each top-level field
TOP_LEVEL = {
    "experiment": "project", "hamiltonian": "project", "bindings": "project",
    "observables": "evolve", "state": "project", "ensemble": "iee",
    "cutoff": "project", "dt": "evolve", "t": "evolve", "generator": "evolve",
    "sweep": "discrepancy", "deltas": "project", "alpha_points": "reify",
    "alpha_margin": "reify", "cutoffs": "reify", "sample_every": "evolve", "snapshot_every": "evolve", "seed": "verify",
    "out": "project",
}

# nested entry -> (the suite that reads it, the config around a bad value
# v, the field an exit-2 message names)
NESTED = {
    "state.phi": ("project", lambda v: {"state": {"phi": v, "pi": [0.0]}},
                  "state"),
    "state.pi": ("project", lambda v: {"state": {"phi": [1.0], "pi": v}},
                 "state"),
    "state.phi[0]": ("project",
                     lambda v: {"state": {"phi": [v], "pi": [0.0]}}, "state"),
    "ensemble.kind": ("iee", lambda v: {"ensemble": {"kind": v}},
                      "ensemble"),
    "ensemble.radius": ("iee", lambda v: {"ensemble": {
        "kind": "phase_circle", "radius": v}}, "ensemble.radius"),
    "ensemble.points": ("iee", lambda v: {"ensemble": {
        "kind": "phase_circle", "points": v}}, "ensemble.points"),
    "ensemble.modes": ("iee", lambda v: {"ensemble": {
        "kind": "phase_circle", "modes": v}}, "ensemble.modes"),
    "ensemble.members": ("iee", lambda v: {"ensemble": {"members": v}},
                         "ensemble"),
    "ensemble.members[0]": ("iee", lambda v: {"ensemble": {"members": [v]}},
                            "ensemble"),
    "ensemble.members[0].phi": ("iee", lambda v: {"ensemble": {"members": [
        {"phi": v, "pi": [0.0], "w": 1.0}]}}, "ensemble"),
    "ensemble.members[0].w": ("iee", lambda v: {"ensemble": {"members": [
        {"phi": [1.0], "pi": [0.0], "w": v}]}}, "ensemble"),
    "bindings.m": ("project", lambda v: {"bindings": {"m": v}}, "bindings"),
    "sweep.m": ("discrepancy", lambda v: {"sweep": {"m": v}}, "sweep"),
    "sweep.m[1]": ("discrepancy", lambda v: {"sweep": {"m": [1.0, v]}},
                   "sweep"),
    "observables[0]": ("evolve", lambda v: {"observables": [v]},
                       "observables"),
    "deltas[1]": ("project", lambda v: {"deltas": [50.0, v]}, "deltas"),
    "cutoffs[1]": ("reify", lambda v: {"cutoffs": [16, v]}, "cutoffs"),
}

CASES = {**{name: (suite, lambda v, name=name: {name: v}, name)
            for name, suite in TOP_LEVEL.items()}, **NESTED}

# fields an exit-2 message names through another field by design: dt
# through the step count t/dt (1e308 is no multiple of it), and bindings
# through the default Hamiltonian (without m it has an unbound symbol)
NAMED_THROUGH = {"dt": "t", "bindings": "hamiltonian"}

# (path, bad value id) pairs that must exit 2: a boolean or a numeric
# string, which a float conversion would read as a number, in a state or an
# ensemble member, and a delta whose quadrature step count overflows or
# whose step is subnormal
REFUSED = {*((path, value_id) for path in (
               "state.phi", "state.pi", "state.phi[0]",
               "ensemble.members[0].phi", "ensemble.members[0].w")
             for value_id in ("true", "numeric-text")),
           ("deltas[1]", "huge"), ("deltas[1]", "subnormal")}

# malformed or hostile Hamiltonian texts; each exits 2 naming hamiltonian
# or, where it parses, runs to 0, 1 or 3
HAMILTONIANS = [
    "", " ", "phi1 +", "* phi1", "phi1 +* pi1", "(phi1", "phi1)", "phi0^2",
    "phi1^-1", "phi1^0.5", "phi1^(1/2)", "phi1**2", "phi1 phi1", "k*phi1",
    "1e400*phi1^2", "nan*phi1", "inf", "phi1^99999", "phi1^2 + pi2^2",
    "φ1^2", "(phi1+pi1)^30", "phi3000000*pi1",
]
HAMILTONIAN_SUITES = ["discrepancy", "evolve", "project", "iee"]


# config files that cannot be read or decoded, by name: the file's bytes,
# or None for a directory in its place
UNREADABLE = {
    "directory": None,
    "not-utf8": b"\xff\xfe\x00bad",
    "nested-past-the-recursion-limit": b"[" * 10 ** 5,
}

# flat fields nested deeper than numpy's 64 dimensions: suite, the config
# text around a nested list, the field an exit-2 message names
DEEP = {
    "state.phi": ("project", '{"state": {"phi": %s, "pi": [0]}}', "state"),
    "ensemble.members[0].phi": ("iee", '{"ensemble": {"members": [{"phi": '
                                '%s, "pi": [0], "w": 1}]}}', "ensemble"),
}


def run(monkeypatch, tmp_path, experiment, data):
    """main's exit code and stderr on the config data, with the output
    directory under tmp_path; any exception out of main fails the test."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, **data}))
    return run_file(monkeypatch, tmp_path, experiment, path)


def run_file(monkeypatch, tmp_path, experiment, path):
    """main's exit code and stderr on the config file at path, as run."""
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main([experiment, "--config", str(path)])
        except Exception as exc:  # noqa: BLE001 - the contract under test
            pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 1, 2, 3)
    return code, err.getvalue()


def test_every_top_level_field_is_fuzzed():
    assert TOP_LEVEL.keys() == ExperimentConfig.__dataclass_fields__.keys()


@pytest.mark.parametrize("value_id, value", list(zip(BAD_IDS, BAD_VALUES)),
                         ids=BAD_IDS)
@pytest.mark.parametrize("path", CASES)
def test_bad_field_keeps_the_contract(monkeypatch, tmp_path, path, value_id,
                                      value):
    experiment, config, field = CASES[path]
    code, err = run(monkeypatch, tmp_path, experiment, config(value))
    if (path, value_id) in REFUSED:
        assert code == 2, err
    if code == 2:
        assert any(err.startswith(f"config error: {name}:") for name in
                   (field, NAMED_THROUGH.get(field, field))), err


@pytest.mark.parametrize("experiment", HAMILTONIAN_SUITES)
@pytest.mark.parametrize("text", HAMILTONIANS)
def test_malformed_hamiltonian_keeps_the_contract(monkeypatch, tmp_path,
                                                  experiment, text):
    code, err = run(monkeypatch, tmp_path, experiment,
                    {"hamiltonian": text, "bindings": {}, "cutoff": 8})
    if code == 2:
        assert err.startswith("config error: hamiltonian:"), err


@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_config_file_exits_2(monkeypatch, tmp_path, name):
    path = tmp_path / "config.json"
    if UNREADABLE[name] is None:
        path.mkdir()
    else:
        path.write_bytes(UNREADABLE[name])
    code, err = run_file(monkeypatch, tmp_path, "verify", path)
    assert code == 2, err
    assert err.startswith("config error: config:"), err


@pytest.mark.parametrize("depth", [200, 600])
@pytest.mark.parametrize("path", DEEP)
def test_deeply_nested_flat_field_exits_2(monkeypatch, tmp_path, path,
                                          depth):
    experiment, text, field = DEEP[path]
    config = tmp_path / "config.json"
    config.write_text(text % ("[" * depth + "1" + "]" * depth))
    code, err = run_file(monkeypatch, tmp_path, experiment, config)
    assert code == 2, err
    assert err.startswith(f"config error: {field}:"), err
