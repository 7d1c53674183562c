"""Runs one workload's jobs in a fresh interpreter, through ``fvariety.cli.main``.

Usage (started by run.py with ``src/`` on PYTHONPATH):

    python3 worker.py setup             # time import + parser set-up, print JSON
    python3 worker.py run PLAN RESULT   # run the plan, write RESULT JSON

A fresh process per workload keeps import cost and peak memory to that
workload alone.  Jobs repeat at least MIN_REPEATS times and until the
plan's ``seconds`` are used; each repetition runs every job of the plan
once, untraced, and with tracing on also runs ``main`` once more under the
span tracer.  After each repetition a set-up round times ``worker.py
setup`` in fresh interpreters.  A traced run ends with the micro block.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# Fewest repeats per run, even past the run's seconds: job times take each
# call's fastest repeat, which needs a few to choose from.
MIN_REPEATS = 3
# Fewest set-up rounds (one probe per CPU) in a run; rounds past the
# repeats run at the end.
SETUP_ROUNDS = 8


def setup_probe() -> None:
    start = time.perf_counter()
    import fvariety  # noqa: F401

    imported = time.perf_counter()
    from fvariety import cli

    cli.build_parser()
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


def setup_round(cpus: list[int]) -> list[dict]:
    """One set-up probe in a fresh interpreter pinned to each CPU in turn.
    The worker has imported ``fvariety`` already, so bytecode is compiled."""
    probes = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})  # the probe inherits the mask
        out = subprocess.run([sys.executable, __file__, "setup"], check=True,
                             capture_output=True, text=True).stdout
        probes.append({"cpu": cpu, **json.loads(out)})
    return probes


def run_job(main, calls: list[dict], tag: str) -> dict:
    """Run the job's CLI calls in order; time the job and each call."""
    failures: list[str] = []
    captured: list[tuple[str, str]] = []
    calls_s: list[float] = []
    start = time.perf_counter()
    for call in calls:
        argv = [a.replace("{rep}", tag) for a in call["argv"]]
        buf = io.StringIO()
        call_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one failed job, reported with its traceback
            code = "exception"
            failures.append(traceback.format_exc())
        calls_s.append(time.perf_counter() - call_start)
        if code != 0:
            failures.append(f"{argv[0]} exited with {code}: {buf.getvalue()[-500:]}")
        if "stdout" in call:
            captured.append((call["stdout"].replace("{rep}", tag), buf.getvalue()))
    seconds = time.perf_counter() - start
    for path, text in captured:
        Path(path).write_text(text, encoding="utf-8")
    return {"tag": tag, "s": seconds, "calls_s": calls_s, "failures": failures}


def run_traced(main, calls: list[dict], tag: str) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            job = run_job(lambda argv: tracer.root(main, argv), calls, tag)
    finally:
        tracer.uninstall()
    job["layers"] = tracer.summary()
    job["quadrature_points"] = tracer.quadrature_points
    job["runtime_warnings"] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    job["spans"] = tracer.spans
    return job


def run(plan_path: str, result_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    from fvariety import cli

    deadline = time.perf_counter() + plan["seconds"]
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[dict] = []
    setup: list[dict] = []
    spans, fastest = None, float("inf")  # spans of the fastest traced job
    while (len(reps) < MIN_REPEATS
           or time.perf_counter() + statistics.mean(r["s"] for r in reps) <= deadline):
        start = time.perf_counter()
        tag = f"r{len(reps)}"
        # Single-process jobs run on one CPU, taking turns between repeats:
        # on a VM each vCPU's speed varies on its own, for tens of seconds.
        # The fan-out job runs on every CPU (its worker processes inherit the
        # mask): in the first repeat, for the output check, and in the first
        # MIN_REPEATS when traced, for the fan-out speed-up.
        turn = {cpus[len(reps) % len(cpus)]}
        jobs = {}
        for job, calls in plan["jobs"].items():
            if job == "fanout" and len(reps) >= (MIN_REPEATS if plan["trace"] else 1):
                continue
            os.sched_setaffinity(0, set(cpus) if job == "fanout" else turn)
            jobs[job] = run_job(cli.main, calls, tag)
        if plan["trace"]:
            os.sched_setaffinity(0, turn)
            traced = jobs["traced"] = run_traced(cli.main, plan["jobs"]["main"], f"t{len(reps)}")
            if traced["s"] < fastest:
                fastest = traced["s"]
                spans = traced["spans"]
            del traced["spans"]
        reps.append({"jobs": jobs, "s": time.perf_counter() - start})
        # set-up rounds spread over the run, so that no single stretch of a
        # slow vCPU sets the figure
        setup += setup_round(cpus)
    while len(setup) < SETUP_ROUNDS * len(cpus):
        setup += setup_round(cpus)
    os.sched_setaffinity(0, set(cpus))

    result = {"reps": reps, "setup": setup}
    if plan["trace"]:
        from micro import run_micro

        Path(plan["spans_path"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "count"], "spans": spans}),
            encoding="utf-8",
        )
        result["micro"] = run_micro(Path(plan["root"]), plan["seed"])
    result["peak_rss_kb"] = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup_probe()
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 4:
        run(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
