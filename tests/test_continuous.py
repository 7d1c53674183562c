"""The continuous-model layer: vectorized kink bisection, kinks shared
across kinds, and exact zeros on uninformative models.

``tests/golden/theoretical_tvd_kl_pearson_hellinger.json`` holds
``variety theoretical`` stdout written by the implementation that bisected
one point per call and scanned kinks once per kind; the rework must print
the same strings.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvariety import BUILTIN_KINDS, BetaParams, PopulationModel, continuous_f_variety
from fvariety.cli import main as cli_main
from fvariety.errors import QuadratureFailure
from fvariety.quadrature import adaptive_quadrature, find_sign_changes
from fvariety.special import beta_pdf
from fvariety.synthesis import _continuous_varieties

GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = sorted(BUILTIN_KINDS)


def reference_find_sign_changes(func, lo, hi, scan_points=512, tol=1e-13):
    """Grid scan plus one-point-per-call bisection, bracket by bracket."""
    xs = np.linspace(lo, hi, scan_points + 1)
    ys = np.asarray(func(xs), dtype=np.float64)
    roots = []
    for i in range(scan_points):
        y0, y1 = ys[i], ys[i + 1]
        if y0 == 0.0:
            if lo < xs[i] < hi:
                roots.append(float(xs[i]))
            continue
        if y0 * y1 < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = float(y0)
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = float(np.asarray(func(np.array([m])))[0])
                if fm == 0.0:
                    a = b = m
                    break
                if fa * fm < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append(0.5 * (a + b))
    return roots


@st.composite
def scan_cases(draw):
    """A product of linear factors, some with roots on the scan grid, and
    optionally NaN or an infinity at an endpoint."""
    scan_points = draw(st.integers(2, 600))
    on_grid = draw(st.lists(st.integers(0, scan_points), max_size=3))
    off_grid = draw(st.lists(st.floats(-0.2, 1.2), max_size=5))
    roots = [k / scan_points for k in on_grid] + off_grid
    # products of 1e-170 values underflow to 0 and carry no sign
    scale = draw(st.sampled_from([1.0, -1.0, 1e-3, 1e-170, 1e150]))
    endpoint = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))

    def func(x):
        x = np.asarray(x, dtype=np.float64)
        y = np.full(x.shape, scale)
        for r in roots:
            y = y * (x - r)
        if endpoint is not None:
            y = np.where(x == 0.0, endpoint, y)
        return y

    tol = draw(st.sampled_from([1e-13, 1e-9, 1e-4, 0.5]))
    return func, scan_points, tol


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_vectorized_bisection_matches_scalar_loop(case):
    func, scan_points, tol = case
    with np.errstate(invalid="ignore", over="ignore"):
        expected = reference_find_sign_changes(func, 0.0, 1.0, scan_points, tol)
        found = find_sign_changes(func, 0.0, 1.0, scan_points, tol)
    assert found == expected


def test_all_zero_scan_returns_every_interior_grid_point():
    roots = find_sign_changes(np.zeros_like, 0.0, 1.0, scan_points=8)
    assert roots == [k / 8 for k in range(1, 8)]


def test_infinite_endpoints_raise_no_warning():
    # both densities are infinite at 0: the scan sees inf - inf there
    def gap(x):
        return beta_pdf(x, 0.5, 2.0) - beta_pdf(x, 0.5, 3.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = find_sign_changes(gap, 0.0, 1.0)
    assert len(roots) == 1
    with np.errstate(invalid="ignore"):
        assert roots == reference_find_sign_changes(gap, 0.0, 1.0)


def test_nonfinite_panel_raises():
    with pytest.raises(QuadratureFailure):
        adaptive_quadrature(lambda x: np.where(x > 0.9, np.inf, x), 0.0, 1.0, 1e-8)


GOLDEN_CASES = json.loads(
    (GOLDEN / "theoretical_tvd_kl_pearson_hellinger.json").read_text()
)


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[f"model{i}" for i in range(len(GOLDEN_CASES))]
)
def test_theoretical_matches_golden(case, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(case["model"]))
    assert cli_main([
        "theoretical", "--model", str(path), "--divergence", "tvd,kl,pearson,hellinger",
    ]) == 0
    assert capsys.readouterr().out == case["stdout"]


def beta_model(n_choices, weights, shapes, ratio, noise=(2.0, 2.0)):
    return PopulationModel(
        n_choices=n_choices,
        expert_choice_weights=tuple(weights),
        expert_prediction=tuple(BetaParams(*s) for s in shapes),
        nonexpert_prediction=BetaParams(*noise),
        nonexpert_ratio=ratio,
    )


UNINFORMATIVE = [
    beta_model(2, (0.3, 0.7), [(8, 3), (4, 5)], 1.0),
    beta_model(3, (0.2, 0.5, 0.3), [(8, 3), (4, 5), (2, 7)], 1.0, noise=(0.6, 3.0)),
    beta_model(4, (0.1, 0.2, 0.3, 0.4), [(8, 3), (4, 5), (2, 7), (3, 3)], 1.0),
    beta_model(3, (1 / 3,) * 3, [(4, 5)] * 3, 0.3),
    beta_model(4, (0.25,) * 4, [(0.7, 2.5)] * 4, 0.0),
]


@pytest.mark.parametrize("model", UNINFORMATIVE)
@pytest.mark.parametrize("kind_name", KINDS)
def test_uninformative_model_scores_exact_zero(model, kind_name):
    assert continuous_f_variety(model, BUILTIN_KINDS[kind_name]) == 0.0


def test_uniform_weights_with_distinct_shapes_are_informative():
    model = beta_model(3, (1 / 3,) * 3, [(4, 5), (4, 5), (4, 5.5)], 0.3)
    assert continuous_f_variety(model, BUILTIN_KINDS["tvd"]) > 0.0


def test_shared_kinks_match_one_kind_calls():
    model = beta_model(3, (0.2, 0.5, 0.3), [(8, 3), (4, 5), (2, 7)], 0.4, noise=(0.8, 2))
    kinds = [BUILTIN_KINDS[name] for name in KINDS]
    values = _continuous_varieties(model, kinds, 1e-8)
    assert values == [continuous_f_variety(model, kind, 1e-8) for kind in kinds]
