"""Tests of the benchmark's own parts: tracer, config generator and oracles.

Run from the repository root: python3 -m pytest perfbench/test_bench.py
"""

import csv
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent


def test_nested_spans_on_two_threads_keep_self_time_per_thread():
    tr = tracer.Tracer()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait()  # both threads are inside an outer span here
        time.sleep(0.05)

    def outer():
        time.sleep(0.05)
        inner_traced()
        barrier.wait()  # and both are back in their outer span here
        time.sleep(0.05)

    inner_traced = tr.wrap("inner", inner)
    outer_traced = tr.wrap("outer", outer)
    threads = [threading.Thread(target=outer_traced) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert tr.calls == {"inner": 2, "outer": 2}
    # each thread: outer self 0.1 s, inner self 0.05 s; summed over threads
    assert 0.19 <= tr.self_s["outer"] < 0.3
    assert 0.09 <= tr.self_s["inner"] < 0.2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_config_is_a_function_of_the_seed(workload):
    first = workloads.config_bytes(workloads.make_config(workload, 7, 0))
    again = workloads.config_bytes(workloads.make_config(workload, 7, 0))
    other_seed = workloads.config_bytes(workloads.make_config(workload, 8, 0))
    other_run = workloads.config_bytes(workloads.make_config(workload, 7, 1))
    assert first == again
    assert len({first, other_seed, other_run}) == 3


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_states_respect_the_amplitude_guard(workload):
    for seed in range(200):
        config = workloads.make_config(workload, seed, seed % 7)
        guard = workloads.GUARD_MARGIN * config.get("cutoff", 32) / 4
        assert all(a <= guard for a in workloads.coherent_amplitudes(config))


def _write_outputs(out: Path, config: dict, header: list, rows: list) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    (out / "manifest.json").write_text(json.dumps({
        "experiment": config["experiment"], "row_count": len(rows),
        "passed": True, "checks": [{"tag": "x", "passed": True}]}))


def _evolve_rows(config):
    times, columns = workloads._evolve_expected(config)
    return [[f"{t:.17g}", "1", "0"]
            + [f"{columns[g][i]:.17g}" for g in config["observables"]]
            for i, t in enumerate(times)]


def _outputs(workload, config):
    if workload.startswith("evolve"):
        header = ["t", "trace_re", "trace_im"] + [f"<{g}>" for g in config["observables"]]
        return header, _evolve_rows(config), (1, 4)
    if workload == "flux-ensemble":
        header = ["observable", "g_hat_re", "g_hat_im", "g_dot", "discrepancy_re",
                  "discrepancy_im", "equilibrium"]
        rows = [[g, "1e-17", "0", "2e-17", "-1.0000000000000001e-17", "0", "true"]
                for g in config["observables"]]
        return header, rows, (0, 4)
    if workload == "project-decay":
        header = ["delta", "max_offdiagonal", "c_estimate", "trace_error"]
        rows = [[f"{d!r}", f"{off!r}", f"{c!r}", "1e-17"]
                for d, off, c in workloads._project_expected(config)]
        return header, rows, (1, 1)
    header = ["check", "value", "tolerance", "passed"]
    return header, [[tag, "0", "1e-08", "true"] for tag in workloads.VERIFY_CHECKS], (3, 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_oracle_accepts_correct_output_and_catches_a_corrupted_value(workload, tmp_path):
    config = workloads.make_config(workload, 3, 0)
    header, rows, (row, col) = _outputs(workload, config)
    _write_outputs(tmp_path, config, header, rows)
    assert workloads.check_run(workload, config, tmp_path) == []

    rows[row][col] = "false" if header[col] == "passed" else repr(float(rows[row][col]) + 1e-6)
    _write_outputs(tmp_path, config, header, rows)
    assert workloads.check_run(workload, config, tmp_path) != []


def _traced_run(tmp_path, suite, config):
    (tmp_path / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    marks = tmp_path / "marks.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--marks", str(marks),
                    "--trace", "--", suite, "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path / "out")],
                   env=env, check=True, timeout=120, capture_output=True)
    return json.loads(marks.read_text())


def test_traced_cli_run_counts_every_binding(tmp_path):
    config = {"experiment": "iee", "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2",
              "observables": ["phi1*pi1"], "cutoff": 8,
              "ensemble": {"kind": "phase_circle", "radius": 1.0, "points": 4}}
    data = _traced_run(tmp_path, "iee", config)
    trace = data["trace"]
    assert data["exit"] == 0 and data["report_end"] > data["runner_start"]
    assert trace["cli.run_iee.calls"] == 1
    assert trace["discrepancy.iee_check.calls"] == 1
    assert trace["discrepancy.quantum_flux.calls"] == 4
    assert trace["fock.realize_matrix.calls"] == 4
    assert trace["fock.realize_matrix.repeat_share"] == 0.75
    assert trace["fock.realize_matrix.bytes"] == 4 * 16 * 8 ** 2
    assert all(v >= 0 for k, v in trace.items() if k.endswith("self_s"))


def test_every_span_of_a_traced_master_run_is_reported(tmp_path):
    config = dict(workloads.make_config("evolve-master", 3, 0), cutoff=6)
    trace = _traced_run(tmp_path, "evolve", config)["trace"]
    assert trace["evolution.master_rhs.calls"] > 0
    assert trace["evolution.MasterTerms.builds"] > 0
    reported = sum(v for k, v in trace.items()
                   if k.endswith(".self_s") and not k.startswith("trace."))
    assert reported == pytest.approx(trace["trace.self_sum_s"], rel=1e-9, abs=1e-12)


def test_project_oracle_agrees_with_a_real_cli_run(tmp_path):
    config = dict(workloads.make_config("project-decay", 5, 0),
                  cutoff=12, deltas=[5.0, 10.0])
    (tmp_path / "config.json").write_bytes(workloads.config_bytes(config))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    subprocess.run([sys.executable, "-m", "fockdm.cli", "project", "--config",
                    str(tmp_path / "config.json"), "--out", str(tmp_path / "out")],
                   env=env, timeout=120, capture_output=True)
    assert workloads.check_project(config, tmp_path / "out") == []
