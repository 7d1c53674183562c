"""The continuous-model layer: the vectorized kink scan, kinks shared across
kinds, exact zeros on uninformative models, and accuracy against an
independent QUADPACK oracle.

The scan keeps the contract of a scalar scan-and-bisect loop: the same
brackets in the same order, each closed to at most ``tol`` wide (or onto an
exact zero) with its midpoint as the root, in far fewer ``func`` calls.  It
cuts each bracket into 128 cells a call, so on the dyadic cells of a grid
over [0, 1] it visits bisection's points, and on the density gaps of the
golden models it returns bisection's roots to the bit.

``tests/golden/theoretical_tvd_kl_pearson_hellinger.json`` holds
``variety theoretical`` stdout; every ``continuous`` value in it must lie
within 1e-8 of the oracle.  On random models with Beta shapes of at least
1, ``theoretical`` finishes with finite values that discretization never
exceeds.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from fvariety import (
    BUILTIN_KINDS,
    PRESETS,
    BetaParams,
    PopulationModel,
    continuous_f_variety,
    get_preset,
    synthesis,
)
from fvariety.cli import main as cli_main
from fvariety.errors import QuadratureFailure
from fvariety.quadrature import adaptive_quadrature, find_sign_changes
from fvariety.special import beta_pdf
from fvariety.synthesis import _model_varieties

GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = sorted(BUILTIN_KINDS)


def reference_find_sign_changes(func, lo, hi, scan_points=512, tol=1e-13):
    """Grid scan plus one-point-per-call bisection, bracket by bracket, as
    (cell, root) pairs: the cell index i of the grid point xs[i] it starts
    at."""
    xs = np.linspace(lo, hi, scan_points + 1)
    ys = np.asarray(func(xs), dtype=np.float64)
    roots = []
    for i in range(scan_points):
        y0, y1 = ys[i], ys[i + 1]
        if y0 == 0.0:
            # an interior zero is a root unless a grid neighbour is 0 too
            if lo < xs[i] < hi and ys[i - 1] != 0.0 and ys[i + 1] != 0.0:
                roots.append((i, float(xs[i])))
            continue
        if np.sign(y0) * np.sign(y1) < 0.0:
            a, b = float(xs[i]), float(xs[i + 1])
            fa = float(y0)
            while b - a > tol:
                m = 0.5 * (a + b)
                fm = float(np.asarray(func(np.array([m])))[0])
                if fm == 0.0:
                    a = b = m
                    break
                if np.sign(fa) * np.sign(fm) < 0.0:
                    b = m
                else:
                    a, fa = m, fm
            roots.append((i, 0.5 * (a + b)))
    return roots


@st.composite
def curves(draw, scan_points):
    """A product of linear factors, some with roots on the scan grid, and
    optionally NaN or an infinity at an endpoint.  The factor roots are
    kept as ``func.roots``."""
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

    func.roots = roots
    return func


@st.composite
def scan_cases(draw):
    """One curve, or two stacked as rows, on one scan grid and tolerance."""
    scan_points = draw(st.integers(2, 600))
    funcs = draw(st.lists(curves(scan_points), min_size=1, max_size=2))
    tol = draw(st.sampled_from([1e-13, 1e-9, 1e-4, 0.5]))
    return funcs, scan_points, tol


def changes_sign_near(func, x, tol, lo, hi):
    """Whether the curve ``func`` changes sign within ``tol`` of ``x``
    inside [lo, hi].  Its sign is constant between its factor roots, so it
    is sampled at the window's ends, at ``x`` and on both sides of every
    factor root in the window; zeros and NaN carry no sign."""
    u, v = max(x - tol, lo), min(x + tol, hi)
    points = {u, x, v}
    for r in func.roots:
        for point in (np.nextafter(r, -np.inf), r, np.nextafter(r, np.inf)):
            if u <= point <= v:
                points.add(float(point))
    ys = func(np.array(sorted(points)))
    signs = np.sign(ys[(ys != 0.0) & ~np.isnan(ys)])
    return bool(np.any(signs[1:] != signs[:-1]))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_vectorized_bisection_matches_scalar_loop(case):
    """The scan finds the scalar loop's roots: as many, in the same cells and
    order.  A grid zero is the same grid point.  Any other root is an exact
    zero of its curve, or within ``tol`` of a sign change of the curve inside
    its cell; and within ``tol / 2`` (plus rounding) of the factor root when
    the cell holds only one.  Where a cell holds three roots the two may
    close on different ones."""
    funcs, scan_points, tol = case
    if len(funcs) == 1:
        func = funcs[0]
    else:
        def func(x):
            return np.stack([f(x) for f in funcs])

    xs = np.linspace(0.0, 1.0, scan_points + 1)
    with np.errstate(invalid="ignore", over="ignore"):
        expected = [
            (f, cell, root)
            for f in funcs
            for cell, root in reference_find_sign_changes(f, 0.0, 1.0, scan_points, tol)
        ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_sign_changes(func, 0.0, 1.0, scan_points, tol)
    assert len(found) == len(expected)
    for root, (f, cell, reference_root) in zip(found, expected):
        lo, hi = xs[cell], xs[cell + 1]
        if f(np.array([lo]))[0] == 0.0:
            assert root == reference_root
            continue
        assert lo <= root <= hi
        assert f(np.array([root]))[0] == 0.0 or changes_sign_near(f, root, tol, lo, hi)
        in_cell = [r for r in f.roots if lo <= r <= hi]
        if len(in_cell) == 1:  # the midpoint of a bracket at most tol wide
            assert abs(root - in_cell[0]) <= 0.5 * tol + 2.0 ** -52


def test_all_zero_scan_returns_no_root():
    # every grid point is a zero between zeros: a flat curve, no crossing
    assert find_sign_changes(np.zeros_like, 0.0, 1.0, scan_points=8) == []


def test_infinite_endpoints_raise_no_warning():
    # both densities are infinite at 0: the scan sees inf - inf there; the
    # densities cross where 1 - x = B(0.5, 3) / B(0.5, 2) = 0.8
    def gap(x):
        return beta_pdf(x, 0.5, 2.0) - beta_pdf(x, 0.5, 3.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = find_sign_changes(gap, 0.0, 1.0)
    with np.errstate(invalid="ignore"):
        expected = reference_find_sign_changes(gap, 0.0, 1.0)
    assert len(roots) == len(expected) == 1
    assert abs(roots[0] - 0.2) <= 1e-13


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


GOLDEN_MODELS = [PopulationModel.from_json_dict(case["model"]) for case in GOLDEN_CASES]
INFORMATIVE_GOLDEN = [
    i for i, model in enumerate(GOLDEN_MODELS) if not synthesis._is_uninformative(model)
]


@pytest.mark.parametrize(
    "index", INFORMATIVE_GOLDEN, ids=[f"model{i}" for i in INFORMATIVE_GOLDEN]
)
def test_density_gap_roots_equal_bisection(index):
    # the 512-cell grid and the cuts of its cells are dyadic, so the scan
    # closes each bracket where bisection does, to the bit
    model = GOLDEN_MODELS[index]

    def gaps(x):
        return np.subtract(*synthesis._densities(model, x))

    with np.errstate(invalid="ignore"):
        expected = [
            root
            for row in range(model.n_choices)
            for _, root in reference_find_sign_changes(lambda x: gaps(x)[row], 0.0, 1.0)
        ]
    assert find_sign_changes(gaps, 0.0, 1.0) == expected


# The oracle below shares no code with fvariety: densities from math.lgamma,
# divergence terms in closed form, QUADPACK for the integral.
ORACLE_TOL = 1e-8

ORACLE_TERMS = {
    "tvd": lambda p, q: 0.5 * abs(p - q),
    "kl": lambda p, q: p * math.log(p / q) if p > 0.0 else 0.0,
    "pearson": lambda p, q: (p - q) ** 2 / q,
    "hellinger": lambda p, q: 0.5 * (math.sqrt(p) - math.sqrt(q)) ** 2,
}


def oracle_beta_pdf(x, a, b):
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_norm)


def oracle_joint(model, x):
    """Joint densities of (choice, x) for a model JSON dict, and their mean."""
    n, ratio = model["n_choices"], model["nonexpert_ratio"]
    noise = ratio / n * oracle_beta_pdf(x, *model["nonexpert_beta"])
    dens = [
        (1.0 - ratio) * w * oracle_beta_pdf(x, *shape) + noise
        for w, shape in zip(model["expert_weights"], model["expert_beta"])
    ]
    return dens, sum(dens) / n


def oracle_kinks(model, scan_points=512):
    """Crossings of each choice's density with the mean: a grid scan plus
    brentq, with crossings closer than 1e-9 (two choices crossing the mean
    at one point) merged so QUADPACK gets no sliver panels."""

    def gaps(x):
        dens, mean = oracle_joint(model, x)
        return [d - mean for d in dens]

    xs = [k / scan_points for k in range(1, scan_points)]
    ys = [gaps(x) for x in xs]
    roots = sorted(
        brentq(lambda x: gaps(x)[c], xs[i], xs[i + 1], xtol=1e-15)
        for i in range(len(xs) - 1)
        for c in range(model["n_choices"])
        if ys[i][c] * ys[i + 1][c] < 0.0
    )
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > 1e-9:
            merged.append(r)
    return merged


def oracle_variety(model, kind_name, kinks):
    term = ORACLE_TERMS[kind_name]

    def integrand(x):
        dens, mean = oracle_joint(model, x)
        return sum(term(d, mean) for d in dens)

    value, _ = quad(integrand, 0.0, 1.0, points=kinks or None,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def continuous_lines(stdout):
    """{kind: value} of the ``<kind> continuous <value>`` lines."""
    fields = (line.split() for line in stdout.splitlines())
    return {kind: float(value) for kind, view, value in fields if view == "continuous"}


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[f"model{i}" for i in range(len(GOLDEN_CASES))]
)
def test_golden_continuous_values_match_oracle(case):
    kinks = oracle_kinks(case["model"])
    for kind_name, value in continuous_lines(case["stdout"]).items():
        expected = oracle_variety(case["model"], kind_name, kinks)
        assert abs(value - expected) <= ORACLE_TOL, (kind_name, value, expected)


def test_endpoint_singular_model_prints_oracle_values(tmp_path, capsys):
    # Beta(3.69, 0.525) is infinite at 1; kl and pearson used to exit 2
    model = {
        "n_choices": 4,
        "expert_weights": [0.2505, 0.4223, 0.1541, 0.1731],
        "expert_beta": [[9.72, 7.99], [3.69, 0.525], [5.02, 7.71], [1.99, 6.53]],
        "nonexpert_beta": [9.84, 6.35],
        "nonexpert_ratio": 0.0926,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert cli_main(["theoretical", "--model", str(path), "--divergence", "kl,pearson"]) == 0
    printed = continuous_lines(capsys.readouterr().out)
    kinks = oracle_kinks(model)
    for kind_name in ("kl", "pearson"):
        expected = oracle_variety(model, kind_name, kinks)
        assert abs(printed[kind_name] - expected) <= ORACLE_TOL, (kind_name, expected)


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


def test_public_entry_point_refuses_a_value_below_the_discretized():
    # Beta(1e-300, 2) holds nearly all its mass below any quadrature node:
    # quadrature reads tvd 0.175 against a discretized 0.347, and binning
    # cannot raise a divergence
    model = beta_model(2, (0.5, 0.5), [(1e-300, 2), (2, 2)], 0.3)
    for name in ("tvd", "kl"):
        with pytest.raises(QuadratureFailure, match=f"^{name}: continuous value "):
            continuous_f_variety(model, BUILTIN_KINDS[name])


def test_shared_kinks_match_one_kind_calls():
    model = beta_model(3, (0.2, 0.5, 0.3), [(8, 3), (4, 5), (2, 7)], 0.4, noise=(0.8, 2))
    kinds = [BUILTIN_KINDS[name] for name in KINDS]
    values = _model_varieties(model, kinds, 1e-8)[1]
    assert values == [continuous_f_variety(model, kind, 1e-8) for kind in kinds]


def test_each_node_array_is_evaluated_once_per_call(monkeypatch):
    model = get_preset("non-uniform-2").with_ratio(0.3)
    kinds = [BUILTIN_KINDS[name] for name in ("tvd", "kl", "pearson", "hellinger")]
    seen = []
    densities = synthesis._densities

    def recording(model, x):
        seen.append(x.tobytes())
        return densities(model, x)

    monkeypatch.setattr(synthesis, "_densities", recording)
    together = _model_varieties(model, kinds)[1]
    shared_calls = len(seen)
    assert len(set(seen)) == shared_calls
    seen.clear()
    separate = [_model_varieties(model, [kind])[1][0] for kind in kinds]
    assert shared_calls < len(seen)
    assert together == separate


def test_each_integrand_call_scores_every_kind_once(monkeypatch):
    # the kinds share one pointwise_contributions call per node array
    model = get_preset("non-uniform-2").with_ratio(0.3)
    kinds = [BUILTIN_KINDS[name] for name in KINDS]
    scored, evaluated = [], []
    contributions, quadrature = synthesis.pointwise_contributions, synthesis.adaptive_quadrature

    def recording(p, q, kinds):
        scored.append(len(kinds))
        return contributions(p, q, kinds)

    def counting_quadrature(integrand, *args):
        counted, calls = counting(integrand)
        evaluated.append(calls)
        return quadrature(counted, *args)

    monkeypatch.setattr(synthesis, "pointwise_contributions", recording)
    monkeypatch.setattr(synthesis, "adaptive_quadrature", counting_quadrature)
    _model_varieties(model, kinds)
    [calls] = evaluated
    assert calls and scored == [len(kinds)] * len(calls)


def counting(func):
    """``func`` wrapped to record each call, and the list of calls."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return func(x)

    return counted, calls


SCAN_MODELS = [get_preset(name).with_ratio(0.3) for name in PRESETS] + [
    beta_model(4, (0.1, 0.2, 0.3, 0.4), [(8, 3), (4, 5), (2, 7), (3, 3)], 0.3),
]


def test_kink_scan_takes_few_calls(monkeypatch):
    # bisection takes 1 + 35 calls per scan: 35 halvings of a 1/512 cell
    # reach 1e-13
    counts = []

    def counting_scan(func, *args, **kwargs):
        counted, calls = counting(func)
        roots = find_sign_changes(counted, *args, **kwargs)
        counts.append(len(calls))
        return roots

    monkeypatch.setattr(synthesis, "find_sign_changes", counting_scan)
    for model in SCAN_MODELS:
        _model_varieties(model, [BUILTIN_KINDS["tvd"]])
    assert len(counts) == len(SCAN_MODELS)
    assert max(counts) <= 12
    assert sum(counts) / len(counts) <= 8


def test_all_kinds_share_one_quadrature_call_per_model(monkeypatch):
    # one call per kind took 18-32 integrand calls per model here, 132 in
    # all; the lockstep call took 2-5, 18 in all
    counts = []
    quad = synthesis.adaptive_quadrature

    def counting_quad(func, *args, **kwargs):
        counted, calls = counting(func)
        values = quad(counted, *args, **kwargs)
        counts.append(len(calls))
        return values

    monkeypatch.setattr(synthesis, "adaptive_quadrature", counting_quad)
    kinds = [BUILTIN_KINDS[name] for name in KINDS]
    for model in SCAN_MODELS:
        _model_varieties(model, kinds)
    assert len(counts) == len(SCAN_MODELS)
    assert max(counts) <= 8
    assert sum(counts) <= 24


def test_exact_zero_stretch_gives_no_break_points(monkeypatch):
    # the expert term is below the rounding of the noise term over
    # [1/512, 0.17], where both density gaps are exactly 0 on about 85 grid
    # points each; they used to become 90 break points
    model = {
        "n_choices": 2,
        "expert_weights": [0.5617, 0.4383],
        "expert_beta": [[38.44, 16.40], [21.37, 2.219]],
        "nonexpert_beta": [4.265, 39.72],
        "nonexpert_ratio": 0.997,
    }
    seen = []
    quad = synthesis.adaptive_quadrature

    def recording(func, lo, hi, tol, break_points=()):
        seen.append(len(break_points))
        return quad(func, lo, hi, tol, break_points)

    monkeypatch.setattr(synthesis, "adaptive_quadrature", recording)
    kinds = [BUILTIN_KINDS[name] for name in KINDS]
    values = _model_varieties(PopulationModel.from_json_dict(model), kinds)[1]
    assert seen[0] <= 4
    kinks = oracle_kinks(model)
    for kind_name, value in zip(KINDS, values):
        expected = oracle_variety(model, kind_name, kinks)
        assert abs(value - expected) <= ORACLE_TOL, (kind_name, value, expected)


def test_rows_crossing_together_give_one_break_point(monkeypatch):
    # both rows of a two-choice model cross the mean at one point; their
    # roots may differ by up to the scan's tolerance, and a break point
    # for each would add a sliver panel for every kind
    model = get_preset("uniform-2").with_ratio(0.3)
    roots = find_sign_changes(
        lambda x: np.subtract(*synthesis._densities(model, x)), 0.0, 1.0
    )
    seen = []
    quad = synthesis.adaptive_quadrature

    def recording(func, lo, hi, tol, break_points=()):
        seen.append(sorted(set(break_points)))
        return quad(func, lo, hi, tol, break_points)

    monkeypatch.setattr(synthesis, "adaptive_quadrature", recording)
    _model_varieties(model, [BUILTIN_KINDS["tvd"]])
    (kinks,) = seen
    assert len(roots) == 4 and len(kinks) == 2
    for root in roots:
        assert min(abs(root - kink) for kink in kinks) <= 1e-13


HARD_CURVES = {
    "step": lambda r: lambda x: np.where(x < r, -1.0, 1.0),
    "power21": lambda r: lambda x: (x - r) ** 21,
    "triple": lambda r: lambda x: 1e150 * (x - r) ** 3,
}
HARD_ROOTS = [1 / 3, 0.3217, 2 ** -0.5, 0.5 + 1e-9] + [
    float(r) for r in np.random.default_rng(1997).uniform(0.0, 1.0, 8)
]


@pytest.mark.parametrize("root", HARD_ROOTS)
@pytest.mark.parametrize("name", sorted(HARD_CURVES))
def test_hard_roots_cost_at_most_four_calls_more_than_bisection(name, root):
    func = HARD_CURVES[name](root)
    scan, scan_calls = counting(func)
    loop, loop_calls = counting(func)
    found = find_sign_changes(scan, 0.0, 1.0)
    reference_find_sign_changes(loop, 0.0, 1.0)
    assert len(scan_calls) <= len(loop_calls) + 4
    assert len(found) == 1 and abs(found[0] - root) <= 1e-13


# shapes below 1 are left out: some of those models still fail on a
# non-finite end panel
log_shapes = st.floats(0.0, math.log(300.0)).map(math.exp)


@st.composite
def separated_models(draw):
    """2-4 choices, Dirichlet(1) weights, Beta shapes log-uniform in [1, 300]."""
    n_choices = draw(st.integers(2, 4))
    uniforms = st.floats(1e-3, 1.0, exclude_max=True)
    draws = draw(st.lists(uniforms, min_size=n_choices, max_size=n_choices))
    exponentials = [-math.log(u) for u in draws]
    weights = [e / sum(exponentials) for e in exponentials]
    shape = st.tuples(log_shapes, log_shapes)
    return {
        "n_choices": n_choices,
        "expert_weights": weights,
        "expert_beta": draw(st.lists(shape, min_size=n_choices, max_size=n_choices)),
        "nonexpert_beta": draw(shape),
        "nonexpert_ratio": draw(st.floats(0.0, 1.0)),
    }


@settings(max_examples=40, deadline=None)
@given(separated_models())
def test_theoretical_is_finite_and_bounds_the_discretized_value(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(model))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["theoretical", "--model", str(path),
                         "--divergence", ",".join(KINDS)])
    assert (code, err.getvalue()) == (0, "")
    values = {}
    for line in out.getvalue().splitlines():
        kind, view, value = line.split()
        values[kind, view] = float(value)
    assert len(values) == 2 * len(KINDS)
    assert all(math.isfinite(v) for v in values.values())
    for kind in KINDS:
        assert values[kind, "continuous"] >= values[kind, "discretized"] - ORACLE_TOL


def test_mean_density_stays_positive_where_a_choice_density_underflows():
    # near x = 0.998 the first choice's density is the smallest subnormal and
    # the second's is 0; their mean used to round to 0, read as p > 0 = q,
    # and kl exited 2 on a non-finite panel
    model = {
        "n_choices": 2,
        "expert_weights": [0.7066950526114237, 0.29330494738857626],
        "expert_beta": [[math.exp(0.125), math.exp(4.796875)], [1.0, math.exp(5.0)]],
        "nonexpert_beta": [1.0, 1.0],
        "nonexpert_ratio": 0.0,
    }
    # continuous_f_variety raises if a value falls below the discretized one
    for kind_name in KINDS:
        value = continuous_f_variety(
            PopulationModel.from_json_dict(model), BUILTIN_KINDS[kind_name]
        )
        assert math.isfinite(value), kind_name
