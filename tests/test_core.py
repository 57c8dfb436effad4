from fractions import Fraction

import numpy as np
import pytest

from oiglearn.core import (
    STAR,
    ContractViolation,
    FiniteDistribution,
    RandomStream,
    Sample,
    as_fraction,
    empirical_error,
    loss_abs,
    loss_bin,
    loss_mc,
    stable_hash64,
)


def test_loss_bin_examples():
    assert loss_bin(0, 0) == 0
    assert loss_bin(1, 0) == 1
    assert loss_bin(STAR, 1) == 1
    assert loss_bin(1, STAR) == 1
    assert loss_bin(STAR, STAR) == 1


def test_loss_bin_symmetric():
    gen = np.random.default_rng(0)
    labels = [0, 1, STAR]
    for _ in range(100):
        a, b = gen.choice(3), gen.choice(3)
        assert loss_bin(labels[a], labels[b]) == loss_bin(labels[b], labels[a])


def test_loss_mc_examples():
    assert loss_mc(3, 3) == 0
    assert loss_mc(3, 1) == 1
    assert loss_mc(7, 7) == 0  # boundary class index


def test_loss_abs_examples():
    assert loss_abs(Fraction(1, 2), Fraction(1, 2)) == 0
    assert loss_abs(0, 1) == 1
    assert loss_abs(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 2)


def test_loss_abs_range_check():
    with pytest.raises(ContractViolation):
        loss_abs(Fraction(3, 2), 0)


def test_loss_abs_triangle_inequality():
    gen = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = (Fraction(int(v), 64) for v in gen.integers(0, 65, size=3))
        assert loss_abs(a, c) <= loss_abs(a, b) + loss_abs(b, c)


def test_empirical_error_examples():
    sample = Sample([("a", 0), ("b", 1), ("c", 0), ("d", 1)])
    assert empirical_error(sample, lambda x: dict(sample.pairs)[x], loss_bin) == 0
    assert empirical_error(sample, lambda x: 1 - dict(sample.pairs)[x], loss_bin) == 1
    one_wrong = empirical_error(sample, lambda x: 0, loss_bin)
    assert one_wrong == Fraction(2, 4)
    three_of_four = Sample([("a", 0), ("b", 1), ("c", 1), ("d", 1)])
    assert empirical_error(three_of_four, lambda x: 1, loss_bin) == Fraction(1, 4)


def test_empirical_error_on_grid():
    gen = np.random.default_rng(2)
    for _ in range(50):
        n = int(gen.integers(1, 9))
        sample = Sample((i, int(gen.integers(0, 2))) for i in range(n))
        err = empirical_error(sample, lambda x: 0, loss_bin)
        assert 0 <= err <= 1
        assert err.denominator in {d for d in range(1, n + 1) if n % d == 0}


def test_empirical_error_empty_sample():
    with pytest.raises(ContractViolation):
        empirical_error(Sample([]), lambda x: 0, loss_bin)


def test_sample_is_ordered_with_repetition():
    s = Sample([(1, 0), (1, 0), (2, 1)])
    assert len(s) == 3
    assert s.xs == (1, 1, 2)
    assert s.without(1).pairs == ((1, 0), (2, 1))
    assert s.subset([2, 0]).pairs == ((2, 1), (1, 0))


def test_distribution_weight_validation():
    with pytest.raises(ContractViolation):
        FiniteDistribution(((1, 0),), (Fraction(1, 2),))
    with pytest.raises(ContractViolation):
        FiniteDistribution((), ())
    dist = FiniteDistribution(((1, 0), (2, 1)), (Fraction(1, 3), Fraction(2, 3)))
    assert sum(dist.weights) == 1


def test_distribution_draw_statistics():
    dist = FiniteDistribution(((1, 0), (2, 1)), (Fraction(1, 4), Fraction(3, 4)))
    gen = RandomStream(7).generator()
    sample = dist.draw(gen, 4000)
    freq = sum(1 for x, _ in sample if x == 2) / 4000
    # 5 sigma around 3/4 with n=4000
    assert abs(freq - 0.75) < 5 * np.sqrt(0.75 * 0.25 / 4000)


def test_distribution_expected_loss_exact():
    dist = FiniteDistribution(((1, 0), (2, 1)), (Fraction(1, 3), Fraction(2, 3)))
    err = dist.expected_loss(lambda x: 0, loss_bin)
    assert err == Fraction(2, 3)


def test_binary_label_noise_is_exact_mixture():
    dist = FiniteDistribution.uniform(((1, 0), (2, 1)))
    noisy = dist.with_label_noise(Fraction(1, 10), (0, 1))
    assert sum(noisy.weights) == 1
    mass_clean = sum(
        w for (x, y), w in zip(noisy.support, noisy.weights) if (x, y) in {(1, 0), (2, 1)}
    )
    assert mass_clean == Fraction(9, 10)
    assert noisy.support == ((1, 0), (1, 1), (2, 1), (2, 0))
    with pytest.raises(ContractViolation):
        dist.with_label_noise(Fraction(1, 10), (1, 2))


def test_multiclass_label_noise_spreads_over_other_labels():
    dist = FiniteDistribution(((1, 2), (2, 4)), (Fraction(1, 3), Fraction(2, 3)))
    rate = Fraction(1, 5)
    noisy = dist.with_label_noise(rate, range(1, 5))
    # each label keeps 1 - rate of its mass and gives rate/3 to each other label
    pairs, weights = [], []
    for (x, y), w in zip(dist.support, dist.weights):
        pairs.append((x, y))
        weights.append(w * (1 - rate))
        for k in (1, 2, 3, 4):
            if k != y:
                pairs.append((x, k))
                weights.append(w * rate / 3)
    assert noisy.support == tuple(pairs)
    assert noisy.weights == tuple(weights)
    for rate in (-1, Fraction(3, 2)):
        with pytest.raises(ContractViolation):
            dist.with_label_noise(rate, range(1, 5))


def test_stream_determinism_and_independence():
    for label in range(100):
        a = RandomStream(123).child(label).generator().random(5)
        b = RandomStream(123).child(label).generator().random(5)
        assert np.array_equal(a, b)
    sib1 = RandomStream(123).child(0).generator().random(100)
    sib2 = RandomStream(123).child(1).generator().random(100)
    assert not np.array_equal(sib1, sib2)


def test_stream_child_for_is_stable():
    s = RandomStream(9)
    assert s.child_for((1, "x", Fraction(1, 3))) == s.child_for((1, "x", Fraction(1, 3)))
    assert s.child_for("a") != s.child_for("b")


def test_stable_hash_distinguishes_types():
    assert stable_hash64(1) != stable_hash64("1")
    assert stable_hash64((1, 2)) != stable_hash64((2, 1))
    assert stable_hash64(STAR) != stable_hash64("*")


def test_as_fraction_parsing():
    assert as_fraction("1/4") == Fraction(1, 4)
    assert as_fraction(0.02) == Fraction(1, 50)
    assert as_fraction(3) == Fraction(3)
    with pytest.raises(ContractViolation):
        as_fraction(object())
