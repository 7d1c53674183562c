import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvariety import (
    JointDistribution,
    is_uninformative,
    mix,
    uninformative_projection,
)
from fvariety.errors import (
    BadShape,
    BadWeights,
    DomainError,
    NegativeMass,
    NotNormalized,
    ShapeMismatch,
)

from conftest import random_joint, random_uninformative_joint


@st.composite
def joint_tables(draw, max_choices=4, max_bins=11):
    n_c = draw(st.integers(2, max_choices))
    n_b = draw(st.integers(1, max_bins))
    raw = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=n_c * n_b,
            max_size=n_c * n_b,
        ).filter(lambda vals: sum(vals) > 1e-6)
    )
    mass = np.array(raw).reshape(n_c, n_b)
    return JointDistribution(n_choices=n_c, n_bins=n_b, mass=mass / mass.sum())


class TestMakeJoint:
    def test_uniform_table_is_valid(self):
        dist = JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])
        assert dist.n_choices == 2 and dist.n_bins == 2
        assert dist.mass.sum() == 1.0

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeMass):
            JointDistribution(2, 2, [[0.5, -0.1], [0.3, 0.3]])

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            JointDistribution(2, 2, [[0.5, 0.5], [0.5, 0.5]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BadShape):
            JointDistribution(2, 2, [[0.5, 0.5]])
        with pytest.raises(BadShape):
            JointDistribution(1, 1, [[1.0]])  # fewer than 2 choices

    @pytest.mark.parametrize(
        "n_choices, n_bins, mass",
        [
            (2.0, 2, [[0.25, 0.25], [0.25, 0.25]]),
            (2, 2.0, [[0.25, 0.25], [0.25, 0.25]]),
            (np.float64(2), 2, [[0.25, 0.25], [0.25, 0.25]]),
            (2, True, [[0.5], [0.5]]),
        ],
        ids=["float-choices", "float-bins", "numpy-float", "bool-bins"],
    )
    def test_non_integer_shape_rejected(self, n_choices, n_bins, mass):
        # a float shape used to build and fail later in uninformative_projection
        with pytest.raises(BadShape):
            JointDistribution(n_choices, n_bins, mass)

    def test_numpy_integer_shape_stored_as_int(self):
        dist = JointDistribution(np.int64(2), np.int32(2), np.full((2, 2), 0.25))
        assert type(dist.n_choices) is int and type(dist.n_bins) is int
        assert uninformative_projection(dist).n_bins == 2

    def test_small_drift_renormalized_exactly(self):
        drift = 1.0 + 5e-10
        dist = JointDistribution(2, 2, np.full((2, 2), drift / 4))
        assert dist.mass.sum() == 1.0

    def test_mass_is_read_only(self):
        dist = JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            dist.mass[0, 0] = 0.9


class TestMarginals:
    def test_diagonal(self):
        dist = JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])
        choice, prediction = dist.choice_marginal(), dist.prediction_marginal()
        np.testing.assert_allclose(choice, [0.5, 0.5])
        np.testing.assert_allclose(prediction, [0.5, 0.5])

    def test_independent_nonuniform(self):
        dist = JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]])
        choice, prediction = dist.choice_marginal(), dist.prediction_marginal()
        np.testing.assert_allclose(choice, [0.8, 0.2])
        np.testing.assert_allclose(prediction, [0.5, 0.5])

    def test_uniform_2x11(self):
        dist = JointDistribution(2, 11, np.full((2, 11), 1 / 22))
        choice, prediction = dist.choice_marginal(), dist.prediction_marginal()
        np.testing.assert_allclose(choice, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(prediction, np.full(11, 1 / 11), atol=1e-12)


class TestMix:
    def test_convex_combination(self):
        mixed = mix(
            [
                (0.5, JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])),
                (0.5, JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])),
            ]
        )
        np.testing.assert_allclose(
            mixed.mass, [[0.375, 0.125], [0.125, 0.375]], atol=1e-15
        )

    def test_single_component_identity(self):
        dist = JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]])
        np.testing.assert_array_equal(mix([(1.0, dist)]).mass, dist.mass)

    def test_bad_weights(self):
        dist = JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(BadWeights):
            mix([(0.3, dist), (0.8, dist)])
        with pytest.raises(BadWeights):
            mix([(-0.5, dist), (1.5, dist)])
        with pytest.raises(BadWeights):
            mix([])

    def test_nan_weight_is_a_weight_error(self):
        dist = JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(BadWeights, match="weights sum to nan"):
            mix([(math.nan, dist)])

    def test_shape_mismatch(self):
        a = JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])
        b = JointDistribution(2, 3, np.full((2, 3), 1 / 6))
        with pytest.raises(ShapeMismatch):
            mix([(0.5, a), (0.5, b)])


class TestUninformativeProjection:
    def test_diagonal_projects_to_uniform(self):
        projected = uninformative_projection(JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]]))
        np.testing.assert_allclose(projected.mass, np.full((2, 2), 0.25), atol=1e-15)

    def test_same_prediction_marginal_same_projection(self):
        projected = uninformative_projection(JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]]))
        np.testing.assert_allclose(projected.mass, np.full((2, 2), 0.25), atol=1e-15)

    def test_fixed_point_on_uninformative(self, rng):
        for _ in range(20):
            dist = random_uninformative_joint(rng, 3, 7)
            projected = uninformative_projection(dist)
            np.testing.assert_allclose(projected.mass, dist.mass, atol=1e-15)


class TestIsUninformative:
    def test_uniform_table(self):
        assert is_uninformative(JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]]), 1e-9)

    def test_nonuniform_choices_informative(self):
        assert not is_uninformative(JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]]), 1e-9)

    def test_dependent_prediction_informative(self):
        assert not is_uninformative(JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]]), 1e-9)

    def test_tol_must_be_positive(self):
        dist = JointDistribution(2, 2, [[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(DomainError):
            is_uninformative(dist, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tol_must_be_finite(self, tol):
        # an infinite tol would call the diagonal table uninformative
        dist = JointDistribution(2, 2, [[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            is_uninformative(dist, tol)


@settings(max_examples=100, deadline=None)
@given(joint_tables())
def test_projection_idempotent(dist):
    once = uninformative_projection(dist)
    twice = uninformative_projection(once)
    np.testing.assert_allclose(twice.mass, once.mass, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(joint_tables())
def test_projection_preserves_prediction_marginal(dist):
    projected = uninformative_projection(dist)
    np.testing.assert_allclose(
        projected.prediction_marginal(), dist.prediction_marginal(), atol=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(joint_tables(), joint_tables(), st.floats(0.0, 1.0))
def test_mix_is_linear_on_marginals(a, b, lam):
    if (a.n_choices, a.n_bins) != (b.n_choices, b.n_bins):
        return
    mixed = mix([(lam, a), (1.0 - lam, b)])
    choice, prediction = mixed.choice_marginal(), mixed.prediction_marginal()
    np.testing.assert_allclose(
        choice, lam * a.choice_marginal() + (1 - lam) * b.choice_marginal(), atol=1e-12
    )
    np.testing.assert_allclose(
        prediction,
        lam * a.prediction_marginal() + (1 - lam) * b.prediction_marginal(),
        atol=1e-12,
    )


def test_stability_mixing_uninformative_stays_uninformative(rng):
    # mixing two uninformative tables of the same shape is uninformative
    for _ in range(200):
        n_c = int(rng.integers(2, 5))
        n_b = int(rng.integers(1, 12))
        a = random_uninformative_joint(rng, n_c, n_b)
        b = random_uninformative_joint(rng, n_c, n_b)
        lam = float(rng.uniform())
        assert is_uninformative(mix([(lam, a), (1 - lam, b)]), 1e-9)


def test_additivity_informative_mass_survives_mixing(rng):
    # any positive share of an informative table keeps the mix informative
    for _ in range(200):
        n_c = int(rng.integers(2, 5))
        n_b = int(rng.integers(2, 12))
        informative = random_joint(rng, n_c, n_b)
        gap = np.max(
            np.abs(informative.mass - uninformative_projection(informative).mass)
        )
        if gap < 1e-3:
            continue
        noise = random_uninformative_joint(rng, n_c, n_b)
        lam = float(rng.uniform(0.05, 1.0))
        assert not is_uninformative(mix([(lam, informative), (1 - lam, noise)]), 1e-9)


def test_json_round_trip():
    dist = JointDistribution(2, 2, [[0.4, 0.4], [0.1, 0.1]])
    payload = json.dumps(dist.to_json_dict())
    restored = JointDistribution.from_json_dict(json.loads(payload))
    assert restored.n_choices == 2 and restored.n_bins == 2
    np.testing.assert_array_equal(restored.mass, dist.mass)


def test_json_missing_field_rejected():
    with pytest.raises(BadShape):
        JointDistribution.from_json_dict({"n_choices": 2, "mass": [[0.5], [0.5]]})
