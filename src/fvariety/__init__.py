"""Group-level informativeness metrics for choice-prediction feedback.

When a group answers a subjective multi-choice question and additionally
predicts how others will choose, the joint distribution of (choice,
prediction) pairs reveals more than the choice counts alone: genuinely
split preferences ("equal affection") show choice-dependent predictions,
while clueless uniform guessing ("random selection") does not.  The
variety metrics quantify that gap as an f-divergence between the joint
distribution and its uninformative projection.
"""

from .distributions import (
    JointDistribution,
    is_uninformative,
    mix,
    uninformative_projection,
)
from .divergence import (
    BUILTIN_KINDS,
    HELLINGER,
    KL,
    PEARSON,
    TVD,
    DivergenceKind,
    baseline,
    f_divergence,
    f_variety,
    get_kind,
    tvd_variety_binary_closed_form,
)
from .estimation import (
    compare_groups_equalized,
    empirical_f_variety,
    empirical_joint,
)
from .experiments import SweepConfig, run_sweep, write_sweep
from .sampling import RandomStream
from .survey import (
    RespondentFilter,
    analyze,
    extract_samples,
    load_survey,
)
from .synthesis import (
    BetaParams,
    PRESETS,
    PopulationModel,
    continuous_f_variety,
    draw_samples,
    exact_discretized_joint,
    get_preset,
)

__version__ = "0.1.0"

__all__ = [
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
