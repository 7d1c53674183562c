"""The benchmark's own output checks pass on this checkout's CLI.

``perfbench/run.py`` checks every job's output against references that
``perfbench/workloads.py`` computes without the library, so a change to
an output column or format that those checks cannot read would otherwise
show only when the benchmark runs.  Each workload runs once here, at the
small sizes of ``perfbench/selftest.py``, through ``fvariety.cli.main`` in
this process.  The perfbench files are loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fvariety import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SMALL_WORKLOADS = {
    "sweep": lambda w: w.Sweep(trials=2, ratios=(0.0, 0.5, 1.0), sizes=(50,)),
    "compare": lambda w: w.Compare(ROOT, trials=20),
    "theory": lambda w: w.Theory(family=2, ratios=(0.3,), presets=("uniform-1",)),
    "survey-scan": lambda w: w.SurveyScan(respondents=200, questions=5),
}


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """``run``, ``worker`` and ``workloads``.  ``run.py`` puts its directory
    on ``sys.path`` and imports its siblings by plain name; both are undone
    afterwards."""
    path, modules = list(sys.path), set(sys.modules)
    try:
        yield load("run"), load("worker"), load("workloads")
    finally:
        sys.path[:] = path
        for name in {"tracing", "workloads"} - modules:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", list(SMALL_WORKLOADS))
def test_every_job_passes_the_benchmark_checks(perfbench, tmp_path, name):
    run, worker, workloads = perfbench
    workload = SMALL_WORKLOADS[name](workloads)
    assert workload.name == name
    workload.make_inputs(tmp_path, seed=1)
    jobs = {
        job: worker.run_job(cli.main, calls, "r0") for job, calls in workload.plan().items()
    }
    attempted, failed, problems = run.check_outputs(workload, [{"jobs": jobs}])
    assert (attempted, failed) == (len(jobs), 0), problems[:3]
