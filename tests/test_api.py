"""The package's public names, and the library layers the benchmark tracer wraps.

The tracer in ``perfbench/tracing.py`` replaces each ``(module, attribute)``
of its ``LAYERS`` tuple by a timing wrapper; a renamed or deleted layer
function would silently read 0 in every per-layer metric, so its
existence is checked here, and so is the row count it reads off a
loaded survey.
"""

import importlib
import importlib.util
from pathlib import Path

import fvariety

PUBLIC_NAMES = [
    "BUILTIN_KINDS",
    "BetaParams",
    "DivergenceKind",
    "HELLINGER",
    "JointDistribution",
    "KL",
    "PEARSON",
    "PRESETS",
    "PopulationModel",
    "RandomStream",
    "RespondentFilter",
    "SweepConfig",
    "TVD",
    "analyze",
    "baseline",
    "compare_groups_equalized",
    "continuous_f_variety",
    "draw_samples",
    "empirical_f_variety",
    "empirical_joint",
    "exact_discretized_joint",
    "extract_samples",
    "f_divergence",
    "f_variety",
    "get_kind",
    "get_preset",
    "is_uninformative",
    "load_survey",
    "mix",
    "run_sweep",
    "tvd_variety_binary_closed_form",
    "uninformative_projection",
    "write_sweep",
]

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
FIXTURE = ROOT / "fixtures" / "athletes_like"


def load_tracing():
    """``perfbench/tracing.py`` as a module, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_public_names_are_pinned():
    assert sorted(fvariety.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in fvariety.__all__:
        assert getattr(fvariety, name) is not None, name


def test_traced_layers_exist():
    tracing = load_tracing()
    assert tracing.LAYERS
    for span, module, attr, _ in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_traced_survey_row_count_is_the_data_row_count():
    responses = FIXTURE / "responses.csv"
    dataset = fvariety.load_survey(str(responses), str(FIXTURE / "respondents.csv"))
    data_rows = len(responses.read_text().splitlines()) - 1
    assert load_tracing()._rows((), {}, dataset) == data_rows == 4200
