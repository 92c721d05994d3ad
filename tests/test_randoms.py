"""Unit tests for deterministic random streams and distributions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.randoms import (
    RandomStreams,
    cumulative_weights,
    exponential,
    iterate_poisson_arrivals,
    weighted_choice,
    zipf_weights,
)


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.get("net") is streams.get("net")

    def test_different_names_independent(self):
        streams = RandomStreams(1)
        a = [streams.get("a").random() for _ in range(5)]
        b = [streams.get("b").random() for _ in range(5)]
        assert a != b

    def test_same_seed_reproducible(self):
        first = [RandomStreams(9).get("x").random() for _ in range(3)]
        second = [RandomStreams(9).get("x").random() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        assert RandomStreams(1).get("x").random() != RandomStreams(2).get("x").random()

    def test_spawn_is_deterministic(self):
        child1 = RandomStreams(5).spawn("rep1")
        child2 = RandomStreams(5).spawn("rep1")
        assert child1.seed == child2.seed
        assert RandomStreams(5).spawn("rep2").seed != child1.seed

    def test_adding_stream_does_not_shift_existing(self):
        streams = RandomStreams(3)
        first_draw = streams.get("workload").random()
        streams2 = RandomStreams(3)
        streams2.get("faults")  # extra stream created first
        assert streams2.get("workload").random() == first_draw


class TestZipfWeights:
    def test_theta_zero_is_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(abs(w - 0.25) < 1e-12 for w in weights)

    def test_weights_sum_to_one(self):
        assert abs(sum(zipf_weights(50, 0.9)) - 1.0) < 1e-9

    def test_weights_decrease_with_rank(self):
        weights = zipf_weights(10, 1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_higher_theta_more_skewed(self):
        mild = zipf_weights(10, 0.5)
        steep = zipf_weights(10, 1.5)
        assert steep[0] > mild[0]

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(5, -0.1)


class TestWeightedChoice:
    def test_degenerate_weight_always_chosen(self):
        rng = random.Random(0)
        weights = cumulative_weights([0.0, 1.0, 0.0])
        assert all(weighted_choice(rng, weights) == 1 for _ in range(20))

    def test_respects_distribution_roughly(self):
        rng = random.Random(1)
        weights = cumulative_weights([0.8, 0.2])
        draws = [weighted_choice(rng, weights) for _ in range(2000)]
        share = draws.count(0) / len(draws)
        assert 0.75 < share < 0.85

    @given(
        raw=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_same_index_as_a_linear_scan(self, raw, seed):
        """Bisection picks what the running-sum scan it replaced picked."""
        total = sum(raw) or 1
        weights = [w / total for w in raw]

        def scan(point):
            acc = 0.0
            for index, weight in enumerate(weights):
                acc += weight
                if point <= acc:
                    return index
            return len(weights) - 1

        cumulative = cumulative_weights(weights)
        draws, replay = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert weighted_choice(draws, cumulative) == scan(replay.random())
        for point in (0.0, 1.0, *cumulative):
            fixed = random.Random()
            fixed.random = lambda point=point: point
            assert weighted_choice(fixed, cumulative) == scan(point)


class TestExponential:
    def test_nonpositive_mean_returns_zero(self):
        import random

        assert exponential(random.Random(0), 0) == 0.0
        assert exponential(random.Random(0), -3) == 0.0

    def test_mean_roughly_matches(self):
        import random

        rng = random.Random(2)
        draws = [exponential(rng, 10.0) for _ in range(5000)]
        assert 9.0 < sum(draws) / len(draws) < 11.0


class TestPoissonArrivals:
    def test_invalid_rate_rejected(self):
        import random

        with pytest.raises(ValueError):
            next(iterate_poisson_arrivals(random.Random(0), 0))

    def test_gaps_positive_and_mean_matches(self):
        import random

        gaps = iterate_poisson_arrivals(random.Random(3), 2.0)
        draws = [next(gaps) for _ in range(4000)]
        assert all(g >= 0 for g in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55
