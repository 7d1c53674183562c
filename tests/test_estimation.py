import numpy as np
import pytest

from fvariety import (
    RandomStream,
    SampleSet,
    TVD,
    compare_groups_equalized,
    draw_samples,
    empirical_f_variety,
    empirical_joint,
    exact_discretized_joint,
    f_variety,
    get_preset,
)
from fvariety.errors import BadShape, EmptySampleSet, ShapeMismatch
from fvariety.estimation import _trial_std


def sample_set(pairs, n_choices=2, n_bins=11):
    return SampleSet(
        n_choices=n_choices,
        n_bins=n_bins,
        choices=[c for c, _ in pairs],
        bins=[b for _, b in pairs],
    )


class TestEmpiricalJoint:
    def test_counting(self):
        joint = empirical_joint(sample_set([(0, 5), (0, 5), (1, 2), (1, 8)]))
        assert joint.mass[0, 5] == 0.5
        assert joint.mass[1, 2] == 0.25
        assert joint.mass[1, 8] == 0.25
        assert joint.mass.sum() == 1.0

    def test_single_observation_point_mass(self):
        joint = empirical_joint(sample_set([(1, 3)]))
        assert joint.mass[1, 3] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySampleSet):
            empirical_joint(sample_set([]))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(BadShape):
            sample_set([(2, 0)])
        with pytest.raises(BadShape):
            sample_set([(0, 11)])
        # a non-integer shape used to build and fail later in count_table
        for n_choices, n_bins in ((2.5, 11), (2, 11.0), (2, True), (np.float64(2), 11)):
            with pytest.raises(BadShape):
                sample_set([(0, 0)], n_choices=n_choices, n_bins=n_bins)
        samples = sample_set([(1, 3)], n_choices=np.int64(2), n_bins=np.int32(11))
        assert samples.count_table().shape == (2, 11)

    def test_permutation_invariant(self, rng):
        pairs = [(int(rng.integers(2)), int(rng.integers(11))) for _ in range(50)]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        np.testing.assert_array_equal(
            empirical_joint(sample_set(pairs)).mass,
            empirical_joint(sample_set(shuffled)).mass,
        )


class TestEmpiricalVariety:
    def test_single_choice_observed(self):
        # one choice never observed: half the mass sits opposite an
        # even split, so the total-variation variety is exactly 0.5
        samples = sample_set([(0, b) for b in (1, 4, 4, 7, 9)])
        assert empirical_f_variety(samples, TVD) == pytest.approx(0.5, abs=1e-12)

    def test_exactly_uniform_realization(self):
        samples = sample_set([(0, 0), (0, 1), (1, 0), (1, 1)], n_bins=2)
        assert empirical_f_variety(samples, TVD) == 0.0

    def test_noise_floor_shrinks_with_n(self):
        model = get_preset("uniform-1").with_ratio(1.0)
        big = empirical_f_variety(draw_samples(model, 100_000, RandomStream(23)), TVD)
        assert big < 0.02
        small = empirical_f_variety(draw_samples(model, 100, RandomStream(23)), TVD)
        assert small > big

    def test_positive_bias_on_noise_decays_with_n(self):
        # finite samples from uninformative feedback always score above
        # zero; the bias mean shrinks as samples accumulate
        model = get_preset("uniform-1").with_ratio(1.0)
        root = RandomStream(29)
        means = {}
        for n in (100, 1000, 10_000):
            values = [
                empirical_f_variety(draw_samples(model, n, root.spawn(n, t)), TVD)
                for t in range(20)
            ]
            assert all(v > 0.0 for v in values)
            means[n] = float(np.mean(values))
        assert means[100] > means[1000] > means[10_000]

    def test_consistency_toward_exact_joint(self):
        model = get_preset("uniform-2")
        target = f_variety(exact_discretized_joint(model), TVD)
        root = RandomStream(31)
        errors = {}
        for n in (100, 1000):
            values = [
                empirical_f_variety(draw_samples(model, n, root.spawn(n, t)), TVD)
                for t in range(30)
            ]
            errors[n] = float(np.mean(np.abs(np.array(values) - target)))
        assert errors[1000] < errors[100]


class TestCompareGroupsEqualized:
    @pytest.mark.parametrize("trials", [2.5, True])
    def test_trials_must_be_an_integer(self, trials):
        group_a = sample_set([(0, 2), (1, 3)])
        group_b = sample_set([(0, 2), (1, 3), (1, 8)])
        with pytest.raises(BadShape, match="trials must be an integer"):
            compare_groups_equalized(group_a, group_b, TVD, trials=trials)

    def test_identical_equal_size_groups(self):
        samples = sample_set([(0, 2), (0, 6), (1, 3), (1, 8)])
        result = compare_groups_equalized(samples, samples, TVD, trials=20,
                                          stream=RandomStream(1))
        assert result.subsample_size == 4
        assert result.group_b_std == 0.0
        assert result.group_b_mean == pytest.approx(result.group_a_value, abs=1e-15)

    def test_subsample_size_is_smaller_group(self):
        model = get_preset("uniform-1")
        group_a = draw_samples(model, 300, RandomStream(2, 0))
        group_b = draw_samples(model, 200, RandomStream(2, 1))
        result = compare_groups_equalized(group_a, group_b, TVD, trials=10,
                                          stream=RandomStream(3))
        assert result.subsample_size == 200
        assert result.trials == 10
        assert result.group_b_std >= 0.0

    def test_deterministic_given_stream(self):
        model = get_preset("uniform-1")
        group_a = draw_samples(model, 120, RandomStream(4, 0))
        group_b = draw_samples(model, 80, RandomStream(4, 1))
        first = compare_groups_equalized(group_a, group_b, TVD, trials=25,
                                         stream=RandomStream(5))
        second = compare_groups_equalized(group_a, group_b, TVD, trials=25,
                                          stream=RandomStream(5))
        assert first == second

    def test_swapping_arguments_swaps_nothing_but_roles(self):
        # the smaller group always supplies the point value, the larger
        # the resampled mean, so swapping inputs yields the same record
        model = get_preset("uniform-1")
        group_a = draw_samples(model, 150, RandomStream(6, 0))
        group_b = draw_samples(model.with_ratio(0.5), 100, RandomStream(6, 1))
        forward = compare_groups_equalized(group_a, group_b, TVD, trials=40,
                                           stream=RandomStream(7))
        backward = compare_groups_equalized(group_b, group_a, TVD, trials=40,
                                            stream=RandomStream(7))
        assert forward == backward

    def test_empty_group_rejected(self):
        samples = sample_set([(0, 1)])
        with pytest.raises(EmptySampleSet):
            compare_groups_equalized(samples, sample_set([]), TVD)

    @pytest.mark.parametrize("shape_b", [(3, 11), (2, 5)])
    def test_groups_of_different_shapes_rejected(self, shape_b):
        # variety values of different tables are not comparable: the
        # 2-choice vs 3-choice pair used to return a GroupComparison
        group_a = sample_set([(0, 1), (1, 2)])
        group_b = sample_set([(0, 1), (1, 2), (1, 4)], *shape_b)
        for first, second in ((group_a, group_b), (group_b, group_a)):
            with pytest.raises(ShapeMismatch, match="group shapes"):
                compare_groups_equalized(first, second, TVD, trials=5)

    def test_mean_stabilizes_over_streams(self):
        model = get_preset("uniform-1").with_ratio(0.3)
        group_a = draw_samples(model, 100, RandomStream(9, 0))
        group_b = draw_samples(model, 150, RandomStream(9, 1))
        means = [
            compare_groups_equalized(
                group_a, group_b, TVD, trials=1000, stream=RandomStream(seed)
            ).group_b_mean
            for seed in (10, 11)
        ]
        assert abs(means[0] - means[1]) < 0.01


class TestTrialStd:
    def test_values_ulps_apart_have_exact_zero_std(self):
        value = np.log(2.0)
        values = value + np.spacing(value) * np.array([0, 1, -1, 2, 0, -2])
        assert values.std(ddof=1) > 0.0  # the premise: not one float value
        assert _trial_std(values) == 0.0

    def test_real_spread_keeps_its_std(self):
        values = np.log(2.0) + np.array([0.0, 1e-9, -2e-9])
        assert _trial_std(values) == values.std(ddof=1) > 0.0


class TestGroupComparisonSerialization:
    def test_json_and_csv(self):
        samples = sample_set([(0, 2), (1, 7), (1, 9)])
        result = compare_groups_equalized(samples, samples, TVD, trials=5,
                                          stream=RandomStream(12))
        obj = result.to_json_dict()
        assert set(obj) == {
            "metric", "group_a", "group_b_mean", "group_b_std",
            "trials", "subsample_size",
        }
