import json
import math

import numpy as np
import pytest

from fvariety import (
    BetaParams,
    HELLINGER,
    KL,
    PEARSON,
    PRESETS,
    PopulationModel,
    RandomStream,
    TVD,
    continuous_f_variety,
    draw_samples,
    empirical_joint,
    exact_discretized_joint,
    f_variety,
    get_preset,
    is_uninformative,
)
from fvariety.errors import BadShape, BadWeights, DomainError
from fvariety.special import regularized_incomplete_beta
from fvariety.synthesis import BIN_EDGES, N_PREDICTION_BINS, _discretize_array

ALL_KINDS = (TVD, KL, PEARSON, HELLINGER)


class TestModelValidation:
    def test_beta_params_positive(self):
        with pytest.raises(DomainError):
            BetaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            BetaParams(1.0, math.inf)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(BadWeights):
            PopulationModel(
                n_choices=2,
                expert_choice_weights=(0.6, 0.6),
                expert_prediction=(BetaParams(2, 2), BetaParams(2, 2)),
                nonexpert_prediction=BetaParams(2, 2),
                nonexpert_ratio=0.0,
            )

    def test_per_choice_parameters_required(self):
        with pytest.raises(BadShape):
            PopulationModel(
                n_choices=2,
                expert_choice_weights=(0.5, 0.5),
                expert_prediction=(BetaParams(2, 2),),
                nonexpert_prediction=BetaParams(2, 2),
                nonexpert_ratio=0.0,
            )

    @pytest.mark.parametrize(
        "n_choices", [2.0, np.float64(2.0), "2"], ids=["float", "numpy-float", "str"]
    )
    def test_non_integer_choice_count_rejected(self, n_choices):
        # 2.0 used to build and fail later inside continuous_f_variety
        with pytest.raises(BadShape):
            PopulationModel(
                n_choices=n_choices,
                expert_choice_weights=(0.5, 0.5),
                expert_prediction=(BetaParams(2, 2), BetaParams(3, 2)),
                nonexpert_prediction=BetaParams(2, 2),
                nonexpert_ratio=0.0,
            )

    def test_numpy_integer_choice_count_accepted(self):
        model = PopulationModel(
            n_choices=np.int64(2),
            expert_choice_weights=(0.5, 0.5),
            expert_prediction=(BetaParams(2, 2), BetaParams(3, 2)),
            nonexpert_prediction=BetaParams(2, 2),
            nonexpert_ratio=0.0,
        )
        assert type(model.n_choices) is int
        assert continuous_f_variety(model, TVD) > 0.0

    def test_ratio_bounds(self):
        with pytest.raises(DomainError):
            get_preset("uniform-1").with_ratio(1.5)

    def test_presets_exist(self):
        assert set(PRESETS) == {
            "uniform-1",
            "non-uniform-1",
            "uniform-2",
            "non-uniform-2",
        }
        with pytest.raises(DomainError):
            get_preset("uniform-9")

    def test_json_round_trip(self):
        model = get_preset("non-uniform-1").with_ratio(0.4)
        restored = PopulationModel.from_json_dict(
            json.loads(json.dumps(model.to_json_dict()))
        )
        assert restored == model

    def test_json_field_names(self):
        obj = get_preset("uniform-2").to_json_dict()
        assert set(obj) == {
            "n_choices",
            "expert_weights",
            "expert_beta",
            "nonexpert_beta",
            "nonexpert_ratio",
        }


class TestBetaSampling:
    def test_uniform_mean(self):
        stream = RandomStream(11, 0)
        draws = stream.generator.beta(1.0, 1.0, size=100_000)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_beta_8_3_mean(self):
        stream = RandomStream(11, 1)
        draws = stream.generator.beta(8.0, 3.0, size=100_000)
        assert abs(draws.mean() - 8 / 11) < 0.005

    def test_replay_is_identical(self):
        params = BetaParams(8, 3)
        first = [RandomStream(5, k).generator.beta(params.alpha, params.beta)
                 for k in range(4)]
        second = [RandomStream(5, k).generator.beta(params.alpha, params.beta)
                  for k in range(4)]
        assert first == second

    def test_streams_differ_by_index(self):
        params = BetaParams(8, 3)
        assert RandomStream(5, 0).generator.beta(
            params.alpha, params.beta
        ) != RandomStream(5, 1).generator.beta(params.alpha, params.beta)


class TestDiscretization:
    def test_nearest_option_examples(self):
        x = np.array([0.04, 0.05, 0.96, 0.0, 1.0])
        # 0.05 is a half step and rounds up
        assert _discretize_array(x).tolist() == [0, 1, 10, 0, 10]

    def test_bin_edges_shape(self):
        assert len(BIN_EDGES) == N_PREDICTION_BINS + 1
        assert BIN_EDGES[0] == 0.0 and BIN_EDGES[-1] == 1.0
        np.testing.assert_allclose(BIN_EDGES[1:-1], np.arange(10) / 10 + 0.05)


class TestExactDiscretizedJoint:
    def test_uniform_density_bins(self):
        # all expert mass on choice 0 with a flat prediction density:
        # edge bins cover 0.05 of the line, interior bins 0.1
        model = PopulationModel(
            n_choices=2,
            expert_choice_weights=(1.0, 0.0),
            expert_prediction=(BetaParams(1, 1), BetaParams(1, 1)),
            nonexpert_prediction=BetaParams(2, 2),
            nonexpert_ratio=0.0,
        )
        joint = exact_discretized_joint(model)
        expected = np.array([0.05] + [0.1] * 9 + [0.05])
        np.testing.assert_allclose(joint.mass[0], expected, atol=1e-12)
        np.testing.assert_allclose(joint.mass[1], 0.0, atol=1e-15)

    def test_pure_noise_is_uninformative(self):
        for name in PRESETS:
            joint = exact_discretized_joint(get_preset(name).with_ratio(1.0))
            assert is_uninformative(joint, 1e-10)

    def test_expert_bin_mass_matches_density_histogram(self):
        joint = exact_discretized_joint(get_preset("uniform-1"))
        assert joint.mass[0, 8] == pytest.approx(0.147302, abs=1e-6)

    def test_mass_sums_to_one(self):
        for name in PRESETS:
            for ratio in (0.0, 0.3, 1.0):
                joint = exact_discretized_joint(get_preset(name).with_ratio(ratio))
                assert joint.mass.sum() == pytest.approx(1.0, abs=1e-12)


class TestContinuousVariety:
    def test_pure_noise_is_zero(self):
        model = get_preset("uniform-1").with_ratio(1.0)
        for kind in ALL_KINDS:
            assert continuous_f_variety(model, kind, tol=1e-8) == pytest.approx(
                0.0, abs=1e-8
            )

    def test_tvd_is_linear_in_ratio(self):
        model = get_preset("uniform-2")
        at_zero = continuous_f_variety(model, TVD, tol=1e-9)
        for alpha in (0.2, 0.5, 0.8):
            value = continuous_f_variety(model.with_ratio(alpha), TVD, tol=1e-9)
            assert value == pytest.approx((1 - alpha) * at_zero, abs=2e-9)

    def test_curves_lie_below_linear_decay(self):
        # joint convexity at the continuous level
        for name in ("uniform-1", "non-uniform-1"):
            model = get_preset(name)
            for kind in (PEARSON, HELLINGER):
                at_zero = continuous_f_variety(model, kind, tol=1e-8)
                for alpha in np.arange(0.1, 1.0, 0.1):
                    value = continuous_f_variety(
                        model.with_ratio(float(alpha)), kind, tol=1e-8
                    )
                    assert value <= (1 - alpha) * at_zero + 1e-6

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            continuous_f_variety(get_preset("uniform-1"), TVD, tol=-1.0)

    def test_discretization_cannot_increase_divergence(self):
        for name in PRESETS:
            model = get_preset(name)
            for kind in ALL_KINDS:
                discretized = f_variety(exact_discretized_joint(model), kind)
                continuous = continuous_f_variety(model, kind, tol=1e-8)
                assert discretized <= continuous + 1e-6


class TestDrawSamples:
    def test_expert_choice_frequencies(self):
        samples = draw_samples(get_preset("uniform-1"), 1000, RandomStream(3))
        freq = int(np.sum(samples.choices == 0)) / 1000
        assert abs(freq - 0.5) < 0.05

    def test_replay_identical(self):
        model = get_preset("uniform-1").with_ratio(0.5)
        a = draw_samples(model, 4, RandomStream(9, 2))
        b = draw_samples(model, 4, RandomStream(9, 2))
        assert np.array_equal(a.choices, b.choices)
        assert np.array_equal(a.bins, b.bins)

    def test_bin_frequencies_match_exact_joint(self):
        # pure-noise model so every draw comes from the shared density
        model = get_preset("uniform-1").with_ratio(1.0)
        n = 100_000
        samples = draw_samples(model, n, RandomStream(17))
        observed = empirical_joint(samples).prediction_marginal()
        expected = exact_discretized_joint(model).prediction_marginal()
        tolerance = 3.0 * np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(observed - expected) <= tolerance)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(DomainError):
            draw_samples(get_preset("uniform-1"), 0, RandomStream(0))

    @pytest.mark.parametrize("n", [10.5, 10.0, True])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(BadShape, match="sample size must be an integer"):
            draw_samples(get_preset("uniform-1"), n, RandomStream(0))

    def test_sample_set_shape(self):
        samples = draw_samples(get_preset("uniform-2"), 50, RandomStream(1))
        assert samples.n_choices == 2
        assert samples.n_bins == N_PREDICTION_BINS
        assert len(samples) == 50


class TestRandomStream:
    def test_numpy_integers_derive_the_int_streams(self):
        # spawn hashes the repr of the seed, and numpy writes np.int64(5)
        stream = RandomStream(np.int64(5), np.int64(2))
        assert (type(stream.base_seed), type(stream.stream_index)) == (int, int)
        child, reference = stream.spawn("t", 1), RandomStream(5, 2).spawn("t", 1)
        assert child.stream_index == reference.stream_index

    @pytest.mark.parametrize("seed", [1.5, True, "5"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(BadShape, match="seed must be an integer"):
            RandomStream(seed)

    def test_stream_index_must_be_an_integer(self):
        with pytest.raises(BadShape, match="stream_index must be an integer"):
            RandomStream(0, 2.0)

    def test_negative_seed_keeps_its_error(self):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            RandomStream(-1)


class TestThreeChoiceModel:
    # the case studies are binary, but nothing in the pipeline is
    @pytest.fixture
    def model(self):
        return PopulationModel(
            n_choices=3,
            expert_choice_weights=(0.5, 0.3, 0.2),
            expert_prediction=(BetaParams(8, 3), BetaParams(4, 5), BetaParams(2, 6)),
            nonexpert_prediction=BetaParams(2, 2),
            nonexpert_ratio=0.0,
        )

    def test_exact_joint_shape_and_marginal(self, model):
        joint = exact_discretized_joint(model)
        assert joint.n_choices == 3
        np.testing.assert_allclose(
            joint.choice_marginal(), [0.5, 0.3, 0.2], atol=1e-12
        )

    def test_continuous_value_dominates_discretized(self, model):
        for kind in ALL_KINDS:
            continuous = continuous_f_variety(model, kind, tol=1e-8)
            discretized = f_variety(exact_discretized_joint(model), kind)
            assert 0.0 < discretized <= continuous + 1e-6

    def test_sampling_and_mixing(self, model):
        mixed = model.with_ratio(0.5)
        samples = draw_samples(mixed, 5000, RandomStream(19))
        assert samples.n_choices == 3
        value = f_variety(empirical_joint(samples), TVD)
        exact = f_variety(exact_discretized_joint(mixed), TVD)
        assert abs(value - exact) < 0.1

    def test_pure_noise_uninformative(self, model):
        joint = exact_discretized_joint(model.with_ratio(1.0))
        assert is_uninformative(joint, 1e-10)


def test_incomplete_beta_drives_bin_probabilities():
    # spot-check one bin against a direct CDF difference
    model = get_preset("uniform-1")
    joint = exact_discretized_joint(model)
    direct = 0.5 * (
        regularized_incomplete_beta(8, 3, 0.85) - regularized_incomplete_beta(8, 3, 0.75)
    )
    assert joint.mass[0, 8] == pytest.approx(direct, abs=1e-15)
