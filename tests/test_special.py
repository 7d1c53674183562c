import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from fvariety.errors import DomainError, QuadratureFailure
from fvariety import quadrature
from fvariety.quadrature import MAX_INTERVALS, adaptive_quadrature, find_sign_changes
from fvariety.special import _beta_pdf_rows, beta_pdf, log_beta, regularized_incomplete_beta


def binomial_sum_cdf(a: int, b: int, x: float) -> float:
    """Independent oracle for integer parameters:
    I_x(a, b) = P[Binomial(a+b-1, x) >= a]."""
    n = a + b - 1
    return sum(
        math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(a, n + 1)
    )


class TestRegularizedIncompleteBeta:
    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(1, 1, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert regularized_incomplete_beta(2, 2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_integer_example(self):
        assert regularized_incomplete_beta(8, 3, 0.5) == pytest.approx(
            56 / 1024, abs=1e-12
        )

    def test_endpoints(self):
        assert regularized_incomplete_beta(5, 2, 0.0) == 0.0
        assert regularized_incomplete_beta(5, 2, 1.0) == 1.0

    def test_binomial_sum_oracle_all_small_integers(self):
        for a in range(1, 16):
            for b in range(1, 17 - a):
                for x in np.arange(0.1, 0.95, 0.1):
                    assert regularized_incomplete_beta(a, b, float(x)) == (
                        pytest.approx(binomial_sum_cdf(a, b, float(x)), abs=1e-9)
                    )

    def test_against_scipy_on_random_parameters(self, rng):
        for _ in range(300):
            a = float(rng.uniform(0.1, 40.0))
            b = float(rng.uniform(0.1, 40.0))
            x = float(rng.uniform())
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy_special.betainc(a, b, x)), abs=1e-10
            )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 201)
        values = [regularized_incomplete_beta(8, 3, float(x)) for x in xs]
        assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(values, values[1:]))

    def test_reflection_symmetry(self, rng):
        for _ in range(100):
            a = float(rng.uniform(0.5, 20.0))
            b = float(rng.uniform(0.5, 20.0))
            x = float(rng.uniform())
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                1.0 - regularized_incomplete_beta(b, a, 1.0 - x), abs=1e-12
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, 1.0, -0.1)


def reference_beta_pdf(x, a, b):
    """The one-shape density with masks for the interior and each endpoint."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    interior = (x > 0.0) & (x < 1.0)
    if np.any(interior):
        xi = x[interior]
        out[interior] = np.exp(
            (a - 1.0) * np.log(xi) + (b - 1.0) * np.log1p(-xi) - log_beta(a, b)
        )
    if np.any(x == 0.0):
        out[x == 0.0] = math.exp(-log_beta(a, b)) if a == 1.0 else (0.0 if a > 1.0 else math.inf)
    if np.any(x == 1.0):
        out[x == 1.0] = math.exp(-log_beta(a, b)) if b == 1.0 else (0.0 if b > 1.0 else math.inf)
    return out


class TestBetaPdf:
    def test_matches_scipy(self, rng):
        xs = rng.uniform(0.001, 0.999, size=200)
        for a, b in ((8, 3), (4, 5), (2, 2), (1, 1), (0.5, 2.5)):
            np.testing.assert_allclose(
                beta_pdf(xs, a, b),
                scipy_special.gamma(a + b)
                / (scipy_special.gamma(a) * scipy_special.gamma(b))
                * xs ** (a - 1)
                * (1 - xs) ** (b - 1),
                rtol=1e-12,
            )

    def test_endpoint_limits(self):
        assert beta_pdf(np.array([0.0]), 2, 3)[0] == 0.0
        assert beta_pdf(np.array([0.0]), 1, 1)[0] == 1.0
        assert beta_pdf(np.array([1.0]), 3, 1)[0] == pytest.approx(3.0, abs=1e-12)
        assert math.isinf(beta_pdf(np.array([0.0]), 0.5, 1)[0])
        # NaN is not swallowed; points outside the support have density 0
        assert math.isnan(beta_pdf(np.array([np.nan]), 2, 3)[0])
        np.testing.assert_allclose(
            beta_pdf(np.array([-0.5, np.nan, 0.5, 1.5]), 2, 3),
            [0.0, np.nan, 1.5, 0.0],
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "with_endpoints", [False, True], ids=["interior", "endpoints"]
    )
    def test_rows_match_per_shape_reference(self, rng, with_endpoints):
        x = np.sort(rng.uniform(0.0, 1.0, size=300))
        if with_endpoints:
            x = np.concatenate(([0.0], x[:150], [1.0], x[150:], [0.0, 1.0]))
        values = (0.5, 1.0, 2.5, 300.0)
        shapes = [(a, b) for a in values for b in values]
        rows = _beta_pdf_rows(x, shapes)
        assert rows.shape == (len(shapes), len(x))
        for row, (a, b) in zip(rows, shapes):
            np.testing.assert_array_equal(row, reference_beta_pdf(x, a, b))
            np.testing.assert_array_equal(beta_pdf(x, a, b), row)

    def test_log_beta(self):
        assert log_beta(2, 3) == pytest.approx(math.log(1 / 12), abs=1e-14)


BAD_INTERVALS = [
    (1.0, 0.0), (0.5, 0.5), (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan),
]


class TestAdaptiveQuadrature:
    def test_polynomial_exact(self):
        value = adaptive_quadrature(lambda x: x**2, 0.0, 1.0, tol=1e-12)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("rule, degree", [("kronrod", 22), ("gauss", 13)])
    def test_panel_rule_degree(self, rule, degree):
        # one panel on [-1, 1]: Kronrod-15 is exact up to x**22, and Gauss-7
        # on the odd-index nodes up to x**13
        nodes, weights = quadrature._KRONROD_NODES, quadrature._KRONROD_WEIGHTS
        if rule == "gauss":
            nodes, weights = nodes[1::2], quadrature._GAUSS_WEIGHTS
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ nodes**k - exact) <= 1e-15, k

    def test_kinked_absolute_value(self):
        value = adaptive_quadrature(
            lambda x: np.abs(x - 0.5), 0.0, 1.0, tol=1e-12, break_points=[0.5]
        )
        assert value == pytest.approx(0.25, abs=1e-13)

    def test_kink_found_without_breakpoint_too(self):
        # adaptive refinement handles the kink, just less efficiently
        value = adaptive_quadrature(lambda x: np.abs(x - 1 / 3), 0.0, 1.0, tol=1e-10)
        expected = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
        assert value == pytest.approx(expected, abs=1e-9)

    def test_beta_density_integrates_to_one(self):
        value = adaptive_quadrature(lambda x: beta_pdf(x, 8, 3), 0.0, 1.0, tol=1e-10)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureFailure):
            adaptive_quadrature(
                lambda x: np.sin(1000.0 * x),
                0.0,
                1.0,
                tol=1e-15,
                max_intervals=8,
            )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda x: x, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda x: x, 1.0, 0.0, tol=1e-8)

    @pytest.mark.parametrize("lo, hi", BAD_INTERVALS)
    def test_bad_interval_is_refused(self, lo, hi):
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda x: x, lo, hi, tol=1e-8)


# Integrand terms built from correctly rounded operations only, so each
# value depends on its abscissa alone, whatever array it is evaluated in.
TERMS = {
    "kink": lambda a, r: lambda x: a * np.abs(x - r),
    "cusp": lambda a, r: lambda x: a * np.sqrt(np.abs(x - r)),
    "peak": lambda a, r: lambda x: a / ((x - r) * (x - r) + 1e-4),
    "cubic": lambda a, r: lambda x: a * (x - r) * (x - r) * (x - r),
    "pole": lambda a, r: lambda x: np.where(x > r, np.inf, a),  # not finite past r
}


@st.composite
def integrands(draw):
    """A sum of one to three terms."""
    terms = draw(st.lists(
        st.tuples(st.sampled_from(sorted(TERMS)), st.floats(-3.0, 3.0), st.floats(0.0, 1.0)),
        min_size=1, max_size=3,
    ))
    parts = [TERMS[name](a, r) for name, a, r in terms]

    def func(x):
        y = parts[0](x)
        for part in parts[1:]:
            y = y + part(x)
        return y

    return func


def outcome(func, *args, **kwargs):
    """The quadrature's value, or the QuadratureFailure it raised."""
    try:
        return adaptive_quadrature(func, *args, **kwargs)
    except QuadratureFailure as exc:
        return exc


def stacked(funcs):
    return lambda x: np.stack([f(x) for f in funcs])


class TestLockstepRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(integrands(), min_size=1, max_size=4),
        st.sampled_from([1e-3, 1e-7, 1e-11]),
        st.sampled_from([8, 50, 400]),
        st.lists(st.floats(0.0, 1.0), max_size=3),
    )
    def test_rows_equal_one_row_calls(self, funcs, tol, max_intervals, break_points):
        # every row refines as it would alone; the first failing row's
        # error is raised, naming its row
        args = (0.0, 1.0, tol, break_points, max_intervals)
        alone = [outcome(f, *args) for f in funcs]
        together = outcome(stacked(funcs), *args)
        failed = [i for i, r in enumerate(alone) if isinstance(r, QuadratureFailure)]
        if failed:
            assert isinstance(together, QuadratureFailure)
            assert together.row == failed[0]
            assert str(together) == str(alone[failed[0]])
        else:
            assert all(type(v) is float for v in alone + together)
            assert [v.hex() for v in together] == [v.hex() for v in alone]

    @pytest.mark.parametrize("late_failure, max_intervals", [
        # runs out of intervals
        (lambda x: np.sin(1000.0 * x), 8),
        # finite on [0, 1]'s nodes, not on those of a panel near 1
        (lambda x: np.where(x > 0.999, np.inf, np.sin(1000.0 * x)), MAX_INTERVALS),
    ], ids=["budget", "non-finite"])
    def test_lower_row_failing_later_wins(self, late_failure, max_intervals):
        # row 1 is infinite on its first panel; row 0 fails rounds later,
        # and its error is the one raised
        rows = [late_failure, lambda x: np.full_like(x, np.inf)]
        args = (0.0, 1.0, 1e-15, (), max_intervals)
        assert str(outcome(rows[1], *args)) == "integrand is not finite on the panel [0.0, 1.0]"
        late = outcome(rows[0], *args)
        assert isinstance(late, QuadratureFailure) and str(late) != str(outcome(rows[1], *args))
        failure = outcome(stacked(rows), *args)
        assert (failure.row, str(failure)) == (0, str(late))
        swapped = outcome(stacked(rows[::-1]), *args)
        assert (swapped.row, str(swapped)) == (0, str(outcome(rows[1], *args)))

    def test_interval_budget_is_per_row(self):
        funcs = [lambda x: np.abs(x - 1 / 3), lambda x: 2.0 * np.abs(x - 0.7)]

        def fewest_intervals(f):
            return next(
                n for n in itertools.count(1)
                if not isinstance(outcome(f, 0.0, 1.0, 1e-9, max_intervals=n), QuadratureFailure)
            )

        needs = [fewest_intervals(f) for f in funcs]
        budget = max(needs)  # a shared budget would need their sum
        values = adaptive_quadrature(stacked(funcs), 0.0, 1.0, 1e-9, max_intervals=budget)
        assert values == [adaptive_quadrature(f, 0.0, 1.0, 1e-9) for f in funcs]
        failure = outcome(stacked(funcs), 0.0, 1.0, 1e-9, max_intervals=budget - 1)
        assert failure.row == needs.index(budget)

    def test_each_round_is_one_call_and_no_panel_is_evaluated_twice(self):
        funcs = [lambda x: np.abs(x - 1 / 3), lambda x: np.sqrt(np.abs(x - 0.7))]

        def recorded(func):
            calls = []

            def wrapper(x):
                calls.append(x.reshape(-1, 15))  # one row of nodes per panel
                return func(x)

            return wrapper, calls

        together, calls = recorded(stacked(funcs))
        adaptive_quadrature(together, 0.0, 1.0, 1e-9, [0.5])
        rounds = 0
        for f in funcs:
            alone, alone_calls = recorded(f)
            adaptive_quadrature(alone, 0.0, 1.0, 1e-9, [0.5])
            rounds = max(rounds, len(alone_calls))
        assert len(calls) <= rounds
        panels = np.concatenate(calls)
        assert len(np.unique(panels, axis=0)) == len(panels)


class TestFindSignChanges:
    def test_single_root(self):
        roots = find_sign_changes(lambda x: x - 0.37, 0.0, 1.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.37, abs=1e-12)

    def test_multiple_roots(self):
        roots = find_sign_changes(lambda x: np.cos(3 * np.pi * x), 0.0, 1.0)
        expected = [1 / 6, 1 / 2, 5 / 6]
        assert len(roots) == 3
        for found, want in zip(sorted(roots), expected):
            assert found == pytest.approx(want, abs=1e-10)

    def test_no_roots(self):
        assert find_sign_changes(lambda x: x + 1.0, 0.0, 1.0) == []

    def test_tiny_values_of_opposite_sign_bracket_a_root(self):
        # two scan values near 1e-173 multiply to 0; their signs still differ
        roots = find_sign_changes(lambda x: 1e-170 * (x - 0.3), 0.0, 1.0)
        assert len(roots) == 1
        assert abs(roots[0] - 0.3) <= 1e-13

    @pytest.mark.parametrize("step, tol", [(0.9, 1e-17), (1 / 3, 1e-300)])
    def test_tol_below_float_spacing_stops_at_adjacent_floats(self, step, tol):
        # no bracket around the step can get narrower than the float
        # spacing there, which is wider than tol
        calls = []

        def func(x):
            calls.append(len(x))
            if len(calls) > 100:
                raise RuntimeError("the scan does not terminate")
            return np.where(x < step, -1.0, 1.0)

        roots = find_sign_changes(func, 0.0, 1.0, tol=tol)
        assert len(roots) == 1
        assert abs(roots[0] - step) <= 2.0 ** -52

    @pytest.mark.parametrize("lo, hi", BAD_INTERVALS)
    def test_bad_interval_is_refused(self, lo, hi):
        # a reversed interval used to scan [hi, lo] and return its roots
        with pytest.raises(DomainError):
            find_sign_changes(lambda x: x - 0.3, lo, hi)

    @pytest.mark.parametrize("scan_points", [0, -4])
    def test_scan_points_below_one_are_refused(self, scan_points):
        with pytest.raises(DomainError):
            find_sign_changes(lambda x: x - 0.3, 0.0, 1.0, scan_points)

    def test_isolated_zero_is_a_root_and_a_run_of_zeros_is_not(self):
        # on the grid of eighths the curve is 0 at 1/2 between values of
        # opposite sign, and at 3/4, 7/8 and 1 in a flat run
        def func(x):
            return np.where(x > 0.7, 0.0, (x - 0.5) * (x + 1.0))

        assert find_sign_changes(func, 0.0, 1.0, scan_points=8) == [0.5]

    @pytest.mark.parametrize("tol", [0.0, -1e-13, math.inf, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN or infinite tol would close every bracket unscanned, and 0
        # or less asks for more than floats can resolve
        with pytest.raises(DomainError):
            find_sign_changes(lambda x: x - 0.37, 0.0, 1.0, tol=tol)
