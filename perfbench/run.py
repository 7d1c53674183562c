"""Benchmark driver for the ``variety`` CLI.

    python3 perfbench/run.py --workload sweep|compare|theory|survey-scan|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The run generates its inputs from the seed
(workloads.py), runs the workload's jobs in one fresh worker process for
about ``--seconds``, with set-up timed in fresh interpreters between the
jobs' repeats (worker.py), checks every output
after the timing ends, and prints a table followed, as the last line of
stdout, by one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).  A result file with the run manifest and
every metric goes to ``.perfbench-out/results/``; work files live in a
temporary directory under ``.perfbench-out/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import GK_NODES, LAYERS, ROOT, SPAWN  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

TIME_LIMIT_S = 170.0

# Job and set-up times are built from the fastest of the run's repeats, not
# their median: the speed of each vCPU of a shared VM moves by up to 2x with
# its neighbours' load, in episodes of a second to tens of seconds, and a
# run's median follows the episodes it fell in while its fastest repeat
# follows the code.  A job of several CLI calls (theory) sums each call's
# fastest repeat.


def best_time(reps: list[dict], job: str) -> float:
    """Sum over the job's CLI calls of each call's fastest repeat."""
    per_call = zip(*(r["jobs"][job]["calls_s"] for r in reps if job in r["jobs"]))
    return sum(min(times) for times in per_call)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, worker crash)."""


def git_sha(root: Path) -> str | None:
    """HEAD commit, or None where the checkout is not a git repository
    (the ``.git`` test keeps an enclosing repository's HEAD out)."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(root: Path, args: argparse.Namespace) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "argv": sys.argv,
        "loadavg_start": os.getloadavg(),
        "started_unix": time.time(),
    }


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_child(argv: list[str], root: Path, deadline: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        argv, cwd=root, env=_env(root), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited with {proc.returncode}")
    return out.decode()


def check_outputs(workload, reps: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job run; a job fails on a
    non-zero exit, a failed check, or output bytes that differ from the
    first untraced job's (repeats, ``--jobs 2`` and traced runs must agree)."""
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        for job, result in rep["jobs"].items():
            attempted += 1
            tag = result["tag"]
            kind = "main" if job == "traced" else job
            issues = list(result["failures"])
            if not issues:
                try:
                    issues += workload.check(tag, kind)
                    if not workload.same_output(tag, kind, "r0", "main"):
                        issues.append(f"{tag}/{job}: output differs from r0/main")
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    issues.append(f"{tag}/{job}: unreadable output: {exc!r}")
            if issues:
                failed += 1
                problems += [f"{tag}/{job}: {p}" for p in issues]
    return attempted, failed, problems


def end_to_end_metrics(
    workload, reps: list[dict], probes: list[dict], rss_kb: dict
) -> tuple[dict, dict]:
    main_s = [r["jobs"]["main"]["s"] for r in reps]
    job_s = best_time(reps, "main")
    metrics = {
        "setup_s": min(p["setup_s"] for p in probes),
        "job_s": job_s,
        "throughput": workload.units() / job_s,
        "peak_rss_mb": max(rss_kb["self"], rss_kb["children"]) / 1024.0,
    }
    details = {"job_repeats": len(main_s), "job_s_median": statistics.median(main_s),
               "job_s_all": main_s,
               "throughput_unit": workload.throughput_unit, "units_per_job": workload.units()}
    if "fanout" in reps[0]["jobs"]:
        details["job_2proc_s"] = best_time(reps, "fanout")
    return metrics, details


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile; the only value for a single sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(job: dict) -> dict[str, float]:
    """Per-layer figures of one traced job; layers it never reached read 0."""
    layers = job["layers"]
    total = job["s"]
    out: dict[str, float] = {}
    for name in [layer[0] for layer in LAYERS] + [SPAWN]:
        row = layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "durations": []})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.pct"] = 100.0 * row["s"] / total
        out[f"{name}.self_pct"] = 100.0 * row["self_s"] / total
        out[f"{name}.work"] = row["work"]
        durations = row["durations"] or [0.0]
        out[f"{name}.p50_ms"] = 1e3 * quantile(durations, 0.5)
        out[f"{name}.p90_ms"] = 1e3 * quantile(durations, 0.9)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    draws = out["synthesis.draw_samples.work"]
    out["synthesis.draw_samples.observations"] = draws
    out["synthesis.draw_samples.ns_per_obs"] = per(out["synthesis.draw_samples.s"], draws, 1e9)
    out["divergence.f_variety.us_per_call"] = per(
        out["divergence.f_variety.s"], out["divergence.f_variety.calls"], 1e6)
    trials = out["estimation.compare_groups_equalized.work"]
    out["estimation.compare_groups_equalized.trials"] = trials
    out["estimation.compare_groups_equalized.us_per_trial"] = per(
        out["estimation.compare_groups_equalized.s"], trials, 1e6)
    out["quadrature.adaptive_quadrature.panels"] = job["quadrature_points"] // GK_NODES
    out["quadrature.find_sign_changes.kinks"] = out["quadrature.find_sign_changes.work"]
    out["quadrature.nonfinite_warnings"] = job["runtime_warnings"]
    rows = out["survey.load_survey.work"]
    out["survey.load_survey.rows"] = rows
    out["survey.load_survey.rows_per_s"] = per(rows, out["survey.load_survey.s"])
    root = layers[ROOT]
    out["cli.calls"] = root["calls"]
    out["cli.self_s"] = root["self_s"]
    return out


def per_layer_metrics(reps: list[dict], probes: list[dict], micro: dict) -> dict:
    fastest = min((r["jobs"]["traced"] for r in reps), key=lambda job: job["s"])
    metrics = layer_metrics(fastest)
    plain = best_time(reps, "main")
    with_trace = best_time(reps, "traced")
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
    if "fanout" in reps[0]["jobs"]:
        two = best_time(reps, "fanout")
        metrics["experiments.job_2proc_s"] = two
        metrics["experiments.fanout_speedup"] = plain / two
    else:
        metrics["experiments.fanout_speedup"] = 0.0
    metrics.update(micro)
    metrics["micro.import_s"] = min(p["import_s"] for p in probes)
    return metrics


def run_workload(root: Path, spec: dict, args: argparse.Namespace, name: str) -> dict:
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    out_root = root / ".perfbench-out"
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    info = manifest(root, args)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=out_root))
    try:
        workload = make_workload(name, root)
        workload.make_inputs(work, args.seed)
        plan = {
            "jobs": workload.plan(), "seconds": args.seconds, "trace": bool(args.trace),
            "root": str(root), "seed": args.seed,
            "spans_path": str(results_dir / f"{stem}.spans.json"),
        }
        plan_path, result_path = work / "plan.json", work / "result.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        _run_child([sys.executable, str(HERE / "worker.py"), "run", str(plan_path),
                    str(result_path)], root, deadline)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        reps, probes = result["reps"], result["setup"]
        attempted, failed, problems = check_outputs(workload, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(reps, probes, result["micro"])
        details = {}
        names = spec["per_layer"]
    else:
        metrics, details = end_to_end_metrics(workload, reps, probes, result["peak_rss_kb"])
        names = spec["end_to_end"]
    details["error_rate"] = failed / attempted
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "manifest": info, "workload": name, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, "details": details,
        "peak_rss_kb": result["peak_rss_kb"], "setup_probes": probes,
        "wall_s": time.monotonic() - started,
    }, indent=1), encoding="utf-8")

    for line in problems[:20]:
        print(f"FAILED {name}: {line}", file=sys.stderr)
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    print(f"# {name}  seed={args.seed}  trace={args.trace}  jobs={attempted}  failed={failed}")
    for key, m in reported.items():
        print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}")
    for key, value in details.items():
        if isinstance(value, (int, float)):
            print(f"  ({key:<46} {value:>14.6g})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": reported}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fvariety" / "cli.py").is_file():
        print(f"error: {root} holds no src/fvariety; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(root, spec, args, name) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
