import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fvariety import (
    BUILTIN_KINDS,
    HELLINGER,
    KL,
    PEARSON,
    TVD,
    DivergenceKind,
    JointDistribution,
    baseline,
    f_divergence,
    f_variety,
    get_kind,
    mix,
    tvd_variety_binary_closed_form,
    uninformative_projection,
)
from fvariety.divergence import _variety_stack, pointwise_contributions
from fvariety.estimation import _count_varieties
from fvariety.errors import (
    InvalidGenerator,
    LengthMismatch,
    NotAProbability,
    NotBinary,
)

from conftest import random_joint, random_uninformative_joint

# registration samples (0, 10]; this generator is NaN beyond 20
NAN_BEYOND_20 = DivergenceKind(
    "nan-beyond-20",
    lambda x: np.where(x > 20.0, np.nan, 0.5 * np.abs(x - 1.0)),
    tail=0.5,
    zero_limit=0.5,
)

ALL_KINDS = (TVD, KL, PEARSON, HELLINGER)


def reference_f_divergence(p, q, kind):
    """Brute-force direct summation with explicit zero-mass conventions.

    Deliberately scalar and sequential; the implementation under test is
    vectorized.
    """
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0 and qi == 0.0:
            continue
        if pi == 0.0:
            total += qi * kind.tail
        elif qi == 0.0:
            total += pi * kind.zero_limit
        else:
            total += pi * float(kind.generator(np.array([qi / pi]))[0])
    return total


class TestBuiltinKinds:
    def test_registry_names(self):
        assert set(BUILTIN_KINDS) == {"tvd", "kl", "pearson", "hellinger"}
        assert get_kind("TVD") is TVD

    def test_unknown_name(self):
        with pytest.raises(InvalidGenerator):
            get_kind("jensen")

    def test_generator_at_one_is_zero(self):
        for kind in ALL_KINDS:
            assert abs(float(kind.generator(np.array([1.0]))[0])) <= 1e-12

    def test_tail_matches_numeric_estimate(self):
        # f(u)/u converges like 1/sqrt(u) for hellinger, so a plain
        # evaluation at u=1e8 is ~1e-4 off; the two-point extrapolation
        # 2*g(4u) - g(u) cancels the sqrt term for all four builtins.
        u = 1e8
        for kind in ALL_KINDS:
            g_u = float(kind.generator(np.array([u]))[0]) / u
            g_4u = float(kind.generator(np.array([4 * u]))[0]) / (4 * u)
            estimate = 2 * g_4u - g_u
            assert abs(estimate - kind.tail) <= 1e-6, kind.name

    def test_custom_kind_accepted_when_convex(self):
        kind = DivergenceKind(
            "squared", lambda x: (x - 1.0) ** 2, tail=math.inf, zero_limit=1.0
        )
        assert f_divergence([0.5, 0.5], [0.25, 0.75], kind) == pytest.approx(0.25)

    def test_concave_generator_rejected(self):
        with pytest.raises(InvalidGenerator):
            DivergenceKind("sqrt", lambda x: np.sqrt(x) - 1.0, tail=0.0, zero_limit=-1.0)

    def test_nonzero_at_one_rejected(self):
        with pytest.raises(InvalidGenerator):
            DivergenceKind("affine", lambda x: x, tail=1.0, zero_limit=0.0)

    def test_nan_generator_rejected(self):
        # NaN fails every comparison, so a check written as "value > bound"
        # lets it through
        with pytest.raises(InvalidGenerator, match=r"^nan: f\(1\) = nan"):
            DivergenceKind("nan", lambda x: x * np.nan, tail=0.5, zero_limit=0.5)

    def test_generator_nan_away_from_one_rejected(self):
        with pytest.raises(InvalidGenerator, match="^nan-off-one: convexity"):
            DivergenceKind(
                "nan-off-one", lambda x: np.where(x == 1.0, 0.0, np.nan), 0.5, 0.5
            )

    @pytest.mark.parametrize("limits", [(math.nan, 0.5), (0.5, math.nan)])
    def test_nan_limit_rejected(self, limits):
        with pytest.raises(InvalidGenerator, match="^nan-limit: .* must not be NaN"):
            DivergenceKind("nan-limit", TVD.generator, *limits)


class TestFDivergence:
    def test_identity_is_zero(self):
        assert f_divergence([0.3, 0.7], [0.3, 0.7], TVD) == 0.0

    def test_tvd_example(self):
        # 0.5 * (|0.25-0.5| + |0.75-0.5|)
        assert f_divergence([0.5, 0.5], [0.25, 0.75], TVD) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_pearson_example(self):
        # 0.0625/0.25 + 0.0625/0.75
        assert f_divergence([0.5, 0.5], [0.25, 0.75], PEARSON) == pytest.approx(
            0.0625 / 0.25 + 0.0625 / 0.75, abs=1e-15
        )

    def test_kl_example(self):
        assert f_divergence([1.0, 0.0], [0.5, 0.5], KL) == pytest.approx(
            math.log(2.0), abs=1e-15
        )

    def test_kl_infinite_when_support_shrinks(self):
        # q puts zero mass where p does not: reported as inf, not raised
        assert f_divergence([0.5, 0.5], [1.0, 0.0], KL) == math.inf
        assert f_divergence([0.5, 0.5], [1.0, 0.0], PEARSON) == math.inf

    def test_tvd_zero_mass_conventions(self):
        # p=0 < q contributes q*tail; q=0 < p contributes p*f(0+)
        assert f_divergence([0.0, 1.0], [0.5, 0.5], TVD) == pytest.approx(0.5)
        assert f_divergence([1.0, 0.0], [0.5, 0.5], TVD) == pytest.approx(0.5)
        assert f_divergence([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], TVD) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_negligible_p_takes_the_p_to_zero_limit(self, kind):
        # q/p = 1e320 overflows; the term is its p -> 0 limit, q * tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term = pointwise_contributions(np.array([1e-320]), np.array([1.0]), [kind])[0]
        assert term.tolist() == [kind.tail]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_nan_is_not_a_probability(self, kind):
        # a NaN total used to pass the sum check: TVD read 0.25, KL -0.347
        with pytest.raises(NotAProbability):
            f_divergence([math.nan, 1.0], [0.5, 0.5], kind)
        with pytest.raises(NotAProbability):
            f_divergence([0.5, 0.5], [math.nan, 1.0], kind)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            f_divergence([0.5, 0.5], [0.2, 0.3, 0.5], TVD)

    def test_not_a_probability(self):
        with pytest.raises(NotAProbability):
            f_divergence([0.5, 0.6], [0.5, 0.5], TVD)
        with pytest.raises(NotAProbability):
            f_divergence([-0.1, 1.1], [0.5, 0.5], TVD)

    def test_matches_reference_on_random_pairs(self, rng):
        for _ in range(200):
            length = int(rng.integers(2, 13))
            p = rng.dirichlet(np.ones(length))
            q = rng.dirichlet(np.ones(length))
            # sprinkle genuine zeros into both sides
            for vec in (p, q):
                kill = rng.random(length) < 0.3
                if kill.all():
                    kill[0] = False
                vec[kill] = 0.0
                vec /= vec.sum()
            for kind in ALL_KINDS:
                expected = reference_f_divergence(p, q, kind)
                actual = f_divergence(p, q, kind)
                if math.isinf(expected):
                    assert math.isinf(actual)
                else:
                    assert actual == pytest.approx(expected, abs=1e-12)


def masked_pointwise_contributions(p, q, kind):
    """The terms p*f(q/p) computed through the three zero-mass masks only,
    with no branch for tables where every cell has both masses."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(p.shape, q.shape))
    p, q = np.broadcast_arrays(p, q)
    negligible = q * 1e-300
    both = (p > negligible) & (q > 0.0)
    if np.any(both):
        out[both] = p[both] * np.asarray(kind.generator(q[both] / p[both]))
    q_only = (p <= negligible) & (q > 0.0)
    if np.any(q_only):
        out[q_only] = q[q_only] * kind.tail
    p_only = (p > 0.0) & (q == 0.0)
    if np.any(p_only):
        out[p_only] = p[p_only] * kind.zero_limit
    return out


POSITIVE_MASS = st.floats(1e-3, 10.0) | st.sampled_from([1e-20, 1e-310])
ANY_MASS = POSITIVE_MASS | st.sampled_from([0.0, math.inf])


@st.composite
def mass_pairs(draw):
    """(p, q) as a (C, 15) table against a (15,) column, or a (T, C, B)
    stack against a stack, a (T, 1, B) column stack or a (B,) row; about
    half the pairs have no zero or infinite cell."""
    n_choices = draw(st.integers(1, 4))
    if draw(st.booleans()):
        p_shape, q_shape = (n_choices, 15), (15,)
    else:
        tables, n_bins = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        p_shape = (tables, n_choices, n_bins)
        q_shape = draw(st.sampled_from([p_shape, (tables, 1, n_bins), (n_bins,)]))
    mass = draw(st.sampled_from([POSITIVE_MASS, ANY_MASS]))
    return (
        draw(hnp.arrays(np.float64, p_shape, elements=mass)),
        draw(hnp.arrays(np.float64, q_shape, elements=mass)),
    )


@settings(max_examples=200, deadline=None)
@given(mass_pairs(), st.sampled_from(ALL_KINDS))
def test_pointwise_contributions_match_the_masked_terms_bit_for_bit(pair, kind):
    p, q = pair
    with np.errstate(all="ignore"):  # inf/inf and inf*0 give NaN on both sides
        found = pointwise_contributions(p, q, [kind])[0]
        expected = masked_pointwise_contributions(p, q, kind)
    assert found.shape == expected.shape
    np.testing.assert_array_equal(found, expected)
    np.testing.assert_array_equal(np.signbit(found), np.signbit(expected))


# a convex generator of no builtin: Le Cam's, (x - 1)^2 / (2 (x + 1)),
# in a form that cannot overflow
LE_CAM = DivergenceKind(
    "le-cam", lambda x: 0.5 * (x - 1.0) * ((x - 1.0) / (x + 1.0)), tail=0.5, zero_limit=0.5
)
# 1-4 kinds, repeats allowed, the custom one among them
KIND_LISTS = st.lists(st.sampled_from(ALL_KINDS + (LE_CAM,)), min_size=1, max_size=4)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@settings(max_examples=200, deadline=None)
@given(mass_pairs(), KIND_LISTS)
def test_pointwise_rows_equal_one_kind_terms_bit_for_bit(pair, kinds):
    p, q = pair
    with np.errstate(all="ignore"):
        rows = pointwise_contributions(p, q, kinds)
        expected = [masked_pointwise_contributions(p, q, kind) for kind in kinds]
    assert rows.shape == (len(kinds), *np.broadcast_shapes(p.shape, q.shape))
    for row, terms in zip(rows, expected):
        assert hexes(row) == hexes(terms)


@st.composite
def mass_stacks(draw):
    """A normalized (C, B) table or (T, C, B) stack with zero cells and
    cells small enough to take the p -> 0 limit against their projection."""
    n_choices, n_bins = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(n_choices, n_bins), (draw(st.integers(1, 3)), n_choices, n_bins)]))
    cells = st.floats(1e-3, 10.0) | st.sampled_from([0.0, 1e-310, 1e-20])
    mass = draw(hnp.arrays(np.float64, shape, elements=cells))
    totals = mass.sum(axis=(-2, -1), keepdims=True)
    return mass / np.where(totals > 0.0, totals, 1.0) + (totals == 0.0) / (n_choices * n_bins)


@settings(max_examples=200, deadline=None)
@given(mass_stacks(), KIND_LISTS)
def test_variety_rows_equal_one_kind_calls_bit_for_bit(mass, kinds):
    rows = _variety_stack(mass, kinds)
    assert rows.shape == (len(kinds), *mass.shape[:-2])
    for row, kind in zip(rows, kinds):
        assert hexes(row) == hexes(_variety_stack(mass, [kind])[0])


@settings(max_examples=20, deadline=None)
@given(st.integers(257, 700), st.integers(2, 4), st.integers(1, 11),
       st.integers(0, 2**32 - 1), KIND_LISTS)
def test_count_rows_equal_one_kind_calls_bit_for_bit(trials, n_choices, n_bins, seed, kinds):
    # more than one _KERNEL_BLOCK of sparse tables
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rng.uniform(0.05, 3.0), size=(trials, n_choices, n_bins))
    counts[np.arange(trials), rng.integers(0, n_choices, trials), 0] += 1
    rows = _count_varieties(counts, kinds)
    assert rows.shape == (len(kinds), trials)
    for row, kind in zip(rows, kinds):
        assert hexes(row) == hexes(_count_varieties(counts, [kind])[0])


INF_BEYOND_20 = DivergenceKind(
    "inf-beyond-20",
    lambda x: np.where(x > 20.0, np.inf, 0.5 * np.abs(x - 1.0)),
    tail=0.5,
    zero_limit=0.5,
)


@pytest.mark.parametrize("kinds, named", [
    ([TVD, KL, NAN_BEYOND_20], "nan-beyond-20"),
    ([NAN_BEYOND_20, TVD], "nan-beyond-20"),
    ([HELLINGER, INF_BEYOND_20, NAN_BEYOND_20], "inf-beyond-20"),
    ([PEARSON, NAN_BEYOND_20, INF_BEYOND_20], "nan-beyond-20"),
])
def test_non_finite_variety_names_the_first_failing_kind(kinds, named):
    # p = 0.01 against a projection cell of 0.25: q / p = 25
    mass = np.array([[0.01, 0.49], [0.49, 0.01]])
    with pytest.raises(InvalidGenerator, match=f"^{named}: "):
        _variety_stack(mass, kinds)
    with pytest.raises(InvalidGenerator, match=f"^{named}: "):
        _count_varieties(np.array([[[1, 49], [49, 1]]] * 300), kinds)


class TestFVariety:
    def test_uninformative_is_zero(self):
        dist = JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])
        assert f_variety(dist, TVD) == 0.0

    def test_equal_rows_score_exactly_zero(self):
        # renormalizing a uniform 2 x 11 or 7 x 3 table leaves its total an
        # ulp off 1, which used to read TVD ~1e-16 and KL ~-2e-16
        counts = np.array([[[3, 1], [3, 1]], [[1, 2], [1, 2]], [[3, 1], [1, 3]]])
        for kind in ALL_KINDS:
            for shape in [(2, 11), (7, 3)]:
                dist = JointDistribution(*shape, np.full(shape, 1 / math.prod(shape)))
                assert f_variety(dist, kind) == 0.0
            values = _count_varieties(counts, [kind])[0]
            assert values[:2].tolist() == [0.0, 0.0] and values[2] > 0.0

    def test_diagonal_values_for_all_builtins(self):
        dist = JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])
        assert f_variety(dist, TVD) == pytest.approx(0.5, abs=1e-12)
        assert f_variety(dist, PEARSON) == pytest.approx(1.0, abs=1e-12)
        assert f_variety(dist, HELLINGER) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0), abs=1e-12
        )
        assert f_variety(dist, KL) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_independent_nonuniform_choices(self):
        assert f_variety(JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]]), TVD) == (
            pytest.approx(0.3, abs=1e-12)
        )

    def test_degenerate_point_mass(self):
        # all mass on one (choice, bin) cell; projection splits it in half
        assert f_variety(JointDistribution(2, 2, [[1.0, 0.0], [0.0, 0.0]]), TVD) == (
            pytest.approx(0.5, abs=1e-12)
        )

    def test_non_finite_variety_raises_naming_the_kind(self):
        # the table pairs p = 0.01 with a projection cell of 0.25
        dist = JointDistribution(2, 2, [[0.01, 0.49], [0.49, 0.01]])
        with pytest.raises(InvalidGenerator, match="^nan-beyond-20: "):
            f_variety(dist, NAN_BEYOND_20)

    def test_nan_divergence_raises_naming_the_kind(self):
        # the same ratio q / p = 50 in a plain divergence
        with pytest.raises(InvalidGenerator, match="^nan-beyond-20: "):
            f_divergence([0.01, 0.99], [0.5, 0.5], NAN_BEYOND_20)
        # an infinite divergence is a value, not a fault
        assert f_divergence([0.5, 0.5], [0.0, 1.0], KL) == math.inf

    def test_finite_for_all_builtins_on_sparse_tables(self, rng):
        # zero prediction columns pair zeros with zeros, never p>0=q
        for _ in range(100):
            mass = rng.dirichlet(np.ones(6)).reshape(2, 3)
            mass[:, int(rng.integers(3))] = 0.0
            dist = JointDistribution(2, 3, mass / mass.sum())
            for kind in ALL_KINDS:
                assert math.isfinite(f_variety(dist, kind))


class TestClosedFormAndBaseline:
    def test_closed_form_examples(self):
        assert tvd_variety_binary_closed_form(
            JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])
        ) == pytest.approx(0.5, abs=1e-15)
        assert tvd_variety_binary_closed_form(
            JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]])
        ) == pytest.approx(0.3, abs=1e-15)

    def test_closed_form_requires_binary(self):
        dist = JointDistribution(3, 2, np.full((3, 2), 1 / 6))
        with pytest.raises(NotBinary):
            tvd_variety_binary_closed_form(dist)
        with pytest.raises(NotBinary):
            baseline(dist)

    def test_closed_form_equals_generic(self, rng):
        for _ in range(300):
            dist = random_joint(rng, 2, int(rng.integers(1, 12)))
            assert tvd_variety_binary_closed_form(dist) == pytest.approx(
                f_variety(dist, TVD), abs=1e-12
            )

    def test_baseline_examples(self):
        assert baseline(JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])) == 0.0
        assert baseline(JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]])) == (
            pytest.approx(0.3, abs=1e-15)
        )
        dist = JointDistribution(2, 2, [[0.342, 0.342], [0.158, 0.158]])
        assert baseline(dist) == pytest.approx(0.184, abs=1e-12)

    def test_baseline_blind_to_equal_affection(self):
        # uniform choice counts but fully choice-dependent predictions:
        # the baseline sees nothing while the variety is maximal
        dist = JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])
        assert baseline(dist) == 0.0
        assert f_variety(dist, TVD) == pytest.approx(0.5, abs=1e-12)


class TestOrderProperties:
    def test_monotone_under_uninformative_mixing(self, rng):
        for _ in range(100):
            n_b = int(rng.integers(1, 12))
            dist = random_joint(rng, 2, n_b)
            noise = random_uninformative_joint(rng, 2, n_b)
            for alpha in np.arange(0.1, 1.0, 0.1):
                mixed = mix([(1 - alpha, dist), (alpha, noise)])
                for kind in ALL_KINDS:
                    assert f_variety(mixed, kind) <= (1 - alpha) * f_variety(
                        dist, kind
                    ) + 1e-9

    def test_tvd_mixing_is_exactly_linear(self, rng):
        for _ in range(100):
            n_b = int(rng.integers(1, 12))
            dist = random_joint(rng, 2, n_b)
            noise = random_uninformative_joint(rng, 2, n_b)
            alpha = float(rng.uniform(0.0, 1.0))
            mixed = mix([(1 - alpha, dist), (alpha, noise)])
            assert f_variety(mixed, TVD) == pytest.approx(
                (1 - alpha) * f_variety(dist, TVD), abs=1e-9
            )

    def test_joint_convexity_spot_check(self, rng):
        for _ in range(100):
            length = int(rng.integers(2, 8))
            p1, p2 = rng.dirichlet(np.ones(length), size=2)
            q1, q2 = rng.dirichlet(np.ones(length), size=2)
            lam = float(rng.uniform())
            for kind in ALL_KINDS:
                left = f_divergence(lam * p1 + (1 - lam) * p2, lam * q1 + (1 - lam) * q2, kind)
                right = lam * f_divergence(p1, q1, kind) + (1 - lam) * f_divergence(
                    p2, q2, kind
                )
                assert left <= right + 1e-9

    def test_product_of_marginals_comparison_lacks_stability(self):
        # Reference check for why the projection uses uniform choices:
        # measuring against the product of the table's own marginals
        # (mutual-information style) scores a mix of two independent
        # tables as dependent, so "noise + noise" would not stay at zero.
        a = JointDistribution(2, 2, [[0.48, 0.32], [0.12, 0.08]])  # independent, 80/20
        b = JointDistribution(2, 2, [[0.1, 0.4], [0.1, 0.4]])  # independent, 50/50
        mixed = mix([(0.5, a), (0.5, b)])

        def mutual_information_style(dist):
            product = np.outer(dist.choice_marginal(), dist.prediction_marginal())
            return f_divergence(dist.mass.ravel(), product.ravel(), TVD)

        assert mutual_information_style(a) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information_style(b) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information_style(mixed) > 1e-3


def test_variety_nonnegative_and_zero_on_projections(rng):
    for _ in range(100):
        dist = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(1, 12)))
        projected = uninformative_projection(dist)
        for kind in ALL_KINDS:
            assert f_variety(dist, kind) >= -1e-12
            assert f_variety(projected, kind) <= 1e-12
