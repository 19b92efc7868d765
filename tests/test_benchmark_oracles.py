"""Each benchmark workload, run once in process, passes the benchmark's own
oracle: perfbench/workloads.py recomputes every output with code that
shares nothing with the package, so a change that breaks a workload's
answers fails here, not first in a benchmark run.  The configs are the
benchmark's own, run 0 of seeds 7 and 31, so each oracle checks two configs
per workload; perfbench/ is only read."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fockdm.cli import main

_SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _SOURCE)
workloads = sys.modules.setdefault(_SPEC.name,
                                   importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(workloads)


# run 0 of seed 7 under the workload's own name, and of seed 31 beside it
RUNS = [pytest.param(workload, seed, id=workload + suffix)
        for seed, suffix in ((7, ""), (31, "-seed31"))
        for workload in sorted(workloads.WORKLOADS)]


@pytest.mark.parametrize("workload, seed", RUNS)
def test_workload_passes_its_oracle(tmp_path, workload, seed):
    config = workloads.make_config(workload, seed, 0)
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_bytes(workloads.config_bytes(config))
    code = main([workloads.WORKLOADS[workload].suite, "--config", str(path),
                 "--out", str(out)])
    assert code == 0
    assert workloads.check_run(workload, config, out) == []
