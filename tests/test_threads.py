"""The BLAS thread policy: a process that loads fockdm before numpy runs
every BLAS and LAPACK call on one thread, so no idle OpenBLAS worker spins
on a second core, unless the caller set OPENBLAS_NUM_THREADS itself."""

import os
import subprocess
import sys
from pathlib import Path

import fockdm

SRC = Path(fockdm.__file__).parent.parent

IDLE = """
import resource, time
import fockdm

def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

before = cpu()
time.sleep(0.3)
print(cpu() - before)
"""

SETTING = """
import os
import fockdm
print(os.environ["OPENBLAS_NUM_THREADS"])
"""

NUMPY_FIRST = """
import os
import numpy
import fockdm
print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
"""


def run(code, threads=None):
    """The standard output of code in a fresh interpreter with fockdm on
    its path and OPENBLAS_NUM_THREADS set to threads (removed by default)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=60).stdout.strip()


def test_an_idle_process_burns_no_cpu_after_the_import():
    # a spinning OpenBLAS worker burns about 0.09 s over the sleep
    assert float(run(IDLE)) < 0.02


def test_the_import_sets_one_blas_thread():
    assert run(SETTING) == "1"


def test_a_callers_setting_survives_the_import():
    assert run(SETTING, threads="2") == "2"


def test_a_process_that_loaded_numpy_first_keeps_its_environment():
    # its BLAS pool exists already; the setting would reach only its children
    assert run(NUMPY_FIRST) == "unset"
