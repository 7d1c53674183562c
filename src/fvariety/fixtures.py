"""Synthetic two-group survey fixture.

Builds a survey dataset in the shipped CSV schema from the synthetic
population model: one group drawn at a low non-expert ratio ("often"
watches the topic) and one at a high ratio ("rarely"), every respondent
answering every question.  Deterministic in the seed, so the shipped
files can be regenerated and byte-compared.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .estimation import N_PREDICTION_BINS, SampleSet
from .sampling import RandomStream
from .synthesis import draw_samples, get_preset

DEFAULT_SEED = 20240811

GROUP_ATTRIBUTE = "watches_sports"
GROUP_A_VALUE = "often"
GROUP_B_VALUE = "rarely"
CHOICE_LABELS = ("A", "B")


@dataclass(frozen=True)
class SurveyFixture:
    """Paths of the written files plus the exact per-group samples."""

    responses_path: str
    respondents_path: str
    question_ids: tuple[str, ...]
    samples: dict[tuple[str, str], SampleSet]  # (question_id, group value)


def generate_two_group_survey(
    out_dir: str,
    seed: int = DEFAULT_SEED,
    n_per_group: int = 300,
    n_questions: int = 7,
    preset: str = "uniform-1",
    expert_ratio: float = 0.2,
    novice_ratio: float = 0.9,
) -> SurveyFixture:
    """Write responses.csv and respondents.csv under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    pct_step = 100 // (N_PREDICTION_BINS - 1)
    model = get_preset(preset)
    root = RandomStream(seed)
    question_ids = tuple(f"Q{i + 1}" for i in range(n_questions))
    groups = (
        (GROUP_A_VALUE, "E", model.with_ratio(expert_ratio)),
        (GROUP_B_VALUE, "N", model.with_ratio(novice_ratio)),
    )

    respondent_rows = []
    for value, prefix, _ in groups:
        for i in range(n_per_group):
            respondent_rows.append((f"{prefix}{i + 1:04d}", value))

    samples: dict[tuple[str, str], SampleSet] = {}
    response_rows = []
    for qi, qid in enumerate(question_ids):
        for value, prefix, group_model in groups:
            drawn = draw_samples(
                group_model, n_per_group, root.spawn("question", qi, value)
            )
            ids = [f"{prefix}{i + 1:04d}" for i in range(n_per_group)]
            samples[(qid, value)] = drawn
            for rid, choice, b in zip(ids, drawn.choices.tolist(), drawn.bins.tolist()):
                response_rows.append((rid, qid, CHOICE_LABELS[choice], b * pct_step))

    responses_path = os.path.join(out_dir, "responses.csv")
    respondents_path = os.path.join(out_dir, "respondents.csv")
    with open(respondents_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"respondent_id,{GROUP_ATTRIBUTE}\n")
        for rid, value in respondent_rows:
            fh.write(f"{rid},{value}\n")
    with open(responses_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("respondent_id,question_id,choice,prediction_pct\n")
        for rid, qid, choice, pct in response_rows:
            fh.write(f"{rid},{qid},{choice},{pct}\n")

    return SurveyFixture(
        responses_path=responses_path,
        respondents_path=respondents_path,
        question_ids=question_ids,
        samples=samples,
    )
