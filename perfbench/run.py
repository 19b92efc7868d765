"""Closed-loop benchmark of the fockdm CLI on seeded workloads.

Usage:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. One client runs one CLI invocation at a time,
each in a fresh interpreter, until --seconds have passed, because users pay
the import and first-BLAS-call costs on every invocation. Every run's
results.csv and manifest.json are checked against the oracle in
workloads.py. With --trace 0 the end-to-end metrics are medians over the
runs. With --trace 1 each untraced run is followed by a traced run on the
same config; the per-layer metrics come from the traced runs, and the
tracing overhead is the median of the paired differences in solve_s. The
last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Outputs, the generated config and a result record with the machine
description go to .bench_build/perfbench/<workload>/seed-<N>/.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fockdm"
OUT = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 120.0


def _blas_threads() -> int | None:
    """Thread count as the loaded OpenBLAS reports it (numpy has no API)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }


def run_once(workload: str, config: dict, work: Path, trace: bool) -> dict:
    """One CLI invocation in a fresh process, timed and checked."""
    (work / "config.json").write_bytes(workloads.config_bytes(config))
    out_dir, marks_path = work / "out", work / "marks.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    marks_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--marks", str(marks_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--", workloads.WORKLOADS[workload].suite,
            "--config", str(work / "config.json"), "--out", str(out_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(work / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"config": config, "exit": proc.returncode,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "traced": trace}
    try:
        marks = json.loads(marks_path.read_text())
        sample["setup_s"] = marks["runner_start"] - spawned
        sample["solve_s"] = marks["report_end"] - marks["runner_start"]
        sample["trace"] = marks.get("trace")
    except (OSError, ValueError, KeyError) as err:
        sample["problems"] = [f"no timing marks ({err!r}); see {work / 'child.log'}"]
        sample["ok"] = False
        return sample
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    problems += workloads.check_run(workload, config, out_dir)
    sample["problems"] = problems
    sample["ok"] = not problems
    return sample


def _median(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / workload / f"seed-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    samples: list = []
    start = time.monotonic()
    while True:
        # with tracing, runs come in pairs: untraced, then traced on its config
        run = len(samples) // 2 if trace else len(samples)
        traced = trace and len(samples) % 2 == 1
        samples.append(run_once(workload, workloads.make_config(workload, seed, run),
                                work, traced))
        if time.monotonic() - start >= seconds and len(samples) % (1 + trace) == 0:
            break

    timed = [s for s in samples if "solve_s" in s]
    plain = [s for s in timed if not s["traced"]]
    # (untraced, traced) runs on one config, both with timings
    pairs = [(a, b) for a, b in zip(samples[::2], samples[1::2])
             if "solve_s" in a and "solve_s" in b]
    failed = sum(not s["ok"] for s in samples)
    if not plain or (trace and not pairs):
        raise RuntimeError(f"{workload}: no run produced timings; "
                           f"first problem: {samples[0]['problems']}")
    if trace:
        traced_runs = [s for s in timed if s["traced"]]
        metrics = {name: statistics.median(s["trace"][name] for s in traced_runs)
                   for name in traced_runs[0]["trace"]}
        metrics["trace.solve_s"] = _median(traced_runs, "solve_s")
        metrics["trace.overhead_s"] = statistics.median(
            b["solve_s"] - a["solve_s"] for a, b in pairs)
    else:
        metrics = {name: _median(plain, name) for name in ("setup_s", "solve_s", "cpu_s")}
        # verify's peak memory is bimodal across inputs; the highest peak is steady
        metrics["peak_rss_mb"] = max(s["peak_rss_mb"] for s in plain)
        metrics["pass_share"] = (len(samples) - failed) / len(samples)
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(), "samples": samples,
              "result": result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_share"):
        return "share"
    return "count"


def _summary(workload: str, result: dict) -> list[str]:
    lines = [f"{workload}: {result['attempted']} runs, {result['failed']} failed "
             f"(failed_share {result['failed'] / result['attempted']:.3f}); "
             f"timings are medians over the untraced runs"]
    for name, m in result["metrics"].items():
        lines.append(f"  {workload} {name} = {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"fockdm sources not found under {PACKAGE}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(PACKAGE), quiet=1)
    print("machine: " + json.dumps(machine(), sort_keys=True))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = bench(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(_summary(name, results[name])), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
