"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py        # from the repository root

For every workload, at a small size: run one job twice through
``fvariety.cli.main`` in this process, require that the untouched outputs
pass, then corrupt the second job's output (a changed value, a dropped
line, a truncated row, an empty file, a missing file) and require each corruption to count
as a failed job, so that ``error_rate`` is above 0.  Exits 1 on any miss.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import check_outputs  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import Compare, SurveyScan, Sweep, Theory  # noqa: E402


def change_value(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    match = re.search(r"(?<=[,\s])\d+\.\d+", text)
    bumped = f"{float(match.group()) * 1.01 + 1e-3:.6g}"
    path.write_text(text[: match.start()] + bumped + text[match.end():], encoding="utf-8")


def drop_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def truncate_row(path: Path) -> None:
    """Cut the last field off the last line (a short CSV row reads as None)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    last = lines[-1].rstrip("\n")
    lines[-1] = last[: max(last.rfind(","), last.rfind(" "))] + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def empty(path: Path) -> None:
    path.write_text("", encoding="utf-8")


def missing(path: Path) -> None:
    path.unlink()


CORRUPTIONS = (change_value, drop_line, truncate_row, empty, missing)


def small_workloads(root: Path) -> list:
    return [
        Sweep(trials=2, ratios=(0.0, 0.5, 1.0), sizes=(50,)),
        Compare(root, trials=20),
        Theory(family=2, ratios=(0.3,), presets=("uniform-1",)),
        SurveyScan(respondents=200, questions=5),
    ]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from fvariety import cli

    out_root = root / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    misses = []
    for workload in small_workloads(root):
        with tempfile.TemporaryDirectory(dir=out_root) as tmp:
            workload.make_inputs(Path(tmp), seed=1)
            plan = workload.plan()
            reps = [
                {"jobs": {job: run_job(cli.main, calls, tag) for job, calls in plan.items()}}
                for tag in ("r0", "r1")
            ]
            attempted, failed, problems = check_outputs(workload, reps)
            if failed:
                misses.append(f"{workload.name}: clean outputs failed: {problems[:3]}")
            target = workload.outputs("r1", "main")[0]
            for corrupt in CORRUPTIONS:
                original = target.read_bytes()
                corrupt(target)
                attempted, failed, _ = check_outputs(workload, reps)
                target.write_bytes(original)
                verdict = "counted" if failed else "MISSED"
                print(f"{workload.name:<12} {corrupt.__name__:<13} {verdict}: "
                      f"error_rate {failed}/{attempted}")
                if not failed:
                    misses.append(f"{workload.name}: {corrupt.__name__} not counted")
            crashed = {**reps[1]["jobs"]["main"], "failures": ["exited with 2"]}
            _, failed, _ = check_outputs(workload, [reps[0], {"jobs": {"main": crashed}}])
            if not failed:
                misses.append(f"{workload.name}: a non-zero exit was not counted")
    for miss in misses:
        print(f"FAIL {miss}", file=sys.stderr)
    print("selftest:", "FAIL" if misses else "ok")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
