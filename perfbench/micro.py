"""Micro block: single-layer timings behind the ROADMAP open-item figures.

Each figure is the median of repeated calls of one public library
function on fixed inputs built from the benchmark seed.  Runs untraced,
after the traced job, in the same fresh process.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from workloads import KINDS, preset_model


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_micro(root: Path, seed: int) -> dict[str, float]:
    from fvariety import divergence, estimation, sampling, survey, synthesis

    model = synthesis.PopulationModel.from_json_dict(preset_model("uniform-1", 0.3))
    stream = sampling.RandomStream(seed)
    out: dict[str, float] = {}
    for n, repeats in ((100, 101), (1000, 41), (10000, 9)):
        out[f"micro.draw_samples.n{n}_ms"] = 1e3 * _median_time(
            lambda: synthesis.draw_samples(model, n, stream), repeats
        )
    tvd = divergence.get_kind("tvd")
    counter = iter(range(10**9))
    out["micro.trial.n1000_ms"] = 1e3 * _median_time(
        lambda: estimation.empirical_f_variety(
            synthesis.draw_samples(model, 1000, stream.spawn("trial", next(counter))), tvd
        ),
        41,
    )
    out["micro.spawn_us"] = 1e6 * _median_time(lambda: stream.spawn("trial", 7).generator, 201)
    joint = estimation.empirical_joint(synthesis.draw_samples(model, 1000, stream))
    for name in KINDS:
        kind = divergence.get_kind(name)
        out[f"micro.f_variety.{name}_us"] = 1e6 * _median_time(
            lambda: divergence.f_variety(joint, kind), 201
        )
        out[f"micro.continuous_f_variety.{name}_ms"] = 1e3 * _median_time(
            lambda: synthesis.continuous_f_variety(model, kind), 5
        )
    fixture = root / "fixtures" / "athletes_like"
    out["micro.load_survey.fixture_ms"] = 1e3 * _median_time(
        lambda: survey.load_survey(
            str(fixture / "responses.csv"), str(fixture / "respondents.csv")
        ),
        9,
    )
    return out
