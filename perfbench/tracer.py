"""Per-function spans and counters around fockdm's public layer functions.

The tracer wraps each listed function at every binding inside the package
that refers to it: the defining module, every module that imported it by
name, and module-level dispatch tables such as the CLI's runner map. Each
thread keeps its own span stack, so a span's self time (its duration minus
the time of the spans it encloses on the same thread) is never negative even
when the verify suite runs checks on a thread pool. Self times are summed
over threads, so on a multi-threaded run their total can exceed wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (module, attribute) pairs; "Class.method" names a method on a class.
TRACED = (
    ("poly", "parse_poly"),
    ("algebra", "normal_order_product"),
    ("algebra", "poly_to_normal_form"),
    ("algebra", "hermitian_pair_check"),
    ("fock", "realize_matrix"),
    ("fock", "trace_product"),
    ("states", "pseudo_wavefunction"),
    ("states", "pure_density"),
    ("states", "ensemble_density"),
    ("states", "expectation"),
    ("states", "integrate_state"),
    ("evolution", "master_rhs"),
    ("evolution", "evolve_density"),
    ("evolution", "time_average_project"),
    ("discrepancy", "quantum_flux"),
    ("discrepancy", "classical_flux"),
    ("discrepancy", "discrepancy_closed_form"),
    ("discrepancy", "iee_check"),
    ("reify", "rho_z_trace"),
    ("reify", "s_operator"),
    ("reify", "m_operator"),
    ("cli", "run_verify"),
    ("cli", "run_evolve"),
    ("cli", "run_iee"),
    ("cli", "run_project"),
    ("cli", "emit_report"),
)

class Tracer:
    """Aggregates calls and self time per span name, thread-safely."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by child spans on this thread
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - children

        return traced


class Probes:
    """Counters measured where the work happens, at the traced boundaries."""

    def __init__(self):
        self._lock = threading.Lock()
        self.realized: set = set()
        self.realize_calls = 0
        self.realize_repeats = 0
        self.realize_bytes = 0
        self.master_builds = 0
        self.master_realize_calls = 0
        self.master_realize_hits = 0

    def realize_matrix(self, op, cutoff, *args, **kwargs):
        key = (op.modes, tuple(sorted(op.words.items())), cutoff)
        with self._lock:
            self.realize_calls += 1
            self.realize_bytes += 16 * cutoff ** (2 * op.modes)
            self.realize_repeats += key in self.realized
            self.realized.add(key)

    def master_init(self, terms, *args, **kwargs):
        with self._lock:
            self.master_builds += 1

    def master_realize(self, terms, cutoff, *args, **kwargs):
        hit = cutoff in getattr(terms, "_matrix_cache", {})
        with self._lock:
            self.master_realize_calls += 1
            self.master_realize_hits += hit

    def report(self) -> dict:
        return {
            "fock.realize_matrix.bytes": self.realize_bytes,
            "fock.realize_matrix.repeat_share":
                self.realize_repeats / max(self.realize_calls, 1),
            "evolution.MasterTerms.builds": self.master_builds,
            "evolution.MasterTerms.realize.hit_share":
                self.master_realize_hits / max(self.master_realize_calls, 1),
        }


def _rebind(original, replacement) -> None:
    """Point every package binding of ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "fockdm" or name.startswith("fockdm.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def _before(fn, probe):
    """``fn`` with ``probe(*args)`` run first. It opens no span, so the time of
    ``fn`` stays in the self time of the span that calls it."""

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        probe(*args, **kwargs)
        return fn(*args, **kwargs)

    return probed


def install(tracer: Tracer, probes: Probes) -> None:
    """Wrap every TRACED function that exists in the imported package."""
    for module_name, attr in TRACED:
        module = importlib.import_module(f"fockdm.{module_name}")
        original = getattr(module, attr, None)
        if original is None:  # absent in this version: reported as 0 calls
            continue
        wrapped = tracer.wrap(f"{module_name}.{attr}", original)
        if (module_name, attr) == ("fock", "realize_matrix"):
            wrapped = _before(wrapped, probes.realize_matrix)
        _rebind(original, wrapped)
    evolution = importlib.import_module("fockdm.evolution")
    terms = getattr(evolution, "MasterTerms", None)
    if terms is not None:
        for attr, probe in (("__init__", probes.master_init),
                            ("realize", probes.master_realize)):
            if attr in vars(terms):
                setattr(terms, attr, _before(getattr(terms, attr), probe))


def report(tracer: Tracer, probes: Probes) -> dict:
    """Flat metric map: <module>.<function>.calls/.self_s plus the counters."""
    out = {}
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr}"
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    out.update(probes.report())
    out["trace.self_sum_s"] = sum(tracer.self_s.values())
    return out
