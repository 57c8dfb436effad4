import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oiglearn.boost import (
    BoostedModel,
    BoostRound,
    adaboost_predict,
    adaboost_train,
    epsilon_alpha,
    reweight,
)
from oiglearn.classes import MarginThresholdClass
from oiglearn.core import RandomStream, Sample, empirical_error, loss_bin
from oiglearn.oracle import ConsistencyOracle, QueryCostLedger
from oiglearn.pipelines import make_weak_learner
from oiglearn.weak import paper_default_params


def test_epsilon_alpha_examples():
    dist = np.full(4, 0.25)
    y = [0, 1, 0, 1]
    eps, alpha = epsilon_alpha(dist, [1, 0, 0, 1], y)  # wrong on half
    assert eps == pytest.approx(0.5)
    assert alpha == pytest.approx(0.0)
    eps, alpha = epsilon_alpha(dist, [1, 1, 0, 1], y)  # wrong on one
    assert eps == pytest.approx(0.25)
    assert alpha == pytest.approx(0.5 * math.log(3))
    eps, alpha = epsilon_alpha(dist, y, y)
    assert eps == 0.0 and alpha == math.inf
    eps, alpha = epsilon_alpha(dist, [1 - b for b in y], y)
    assert eps == 1.0 and alpha == -math.inf


def test_reweight_hand_example():
    dist = np.full(4, 0.25)
    y = [1, 1, 1, 0]
    h = [1, 1, 1, 1]  # wrong only on the last point
    eps, alpha = epsilon_alpha(dist, h, y)
    assert eps == pytest.approx(0.25)
    new, z = reweight(dist, alpha, h, y)
    assert z == pytest.approx(math.sqrt(3) / 2)
    assert np.allclose(new, [1 / 6, 1 / 6, 1 / 6, 1 / 2])
    assert new.sum() == pytest.approx(1.0, abs=1e-12)


def test_reweight_alpha_zero_keeps_distribution():
    dist = np.array([0.1, 0.2, 0.3, 0.4])
    new, z = reweight(dist, 0.0, [0, 1, 0, 1], [1, 0, 0, 1])
    assert np.allclose(new, dist)
    assert z == pytest.approx(1.0)


def test_reweight_all_correct_normalizes_away():
    dist = np.array([0.5, 0.25, 0.25])
    new, _ = reweight(dist, 0.7, [1, 0, 1], [1, 0, 1])
    assert np.allclose(new, dist)


def _threshold_setup(n_points=8, seed=101):
    cls = MarginThresholdClass.regular(0, Fraction(1, 40), 41, Fraction(1, 40))
    gen = RandomStream(seed).generator()
    xs = sorted(Fraction(2 * int(k) + 1, 2 * n_points) for k in gen.choice(n_points, n_points, replace=False))
    truth = Fraction(1, 2)
    sample = Sample((x, 1 if x > truth else 0) for x in xs)
    oracle = ConsistencyOracle(cls, QueryCostLedger()).bind
    return cls, sample, oracle


def test_adaboost_single_point_early_stops():
    cls, _, oracle = _threshold_setup()
    sample = Sample([(Fraction(3, 4), 1)])
    learner = make_weak_learner(paper_default_params(2), oracle)
    model = adaboost_train(sample, learner, 2, 10, RandomStream(1))
    assert model.early_stop
    assert len(model.rounds) == 1
    assert model.train_error == 0
    assert adaboost_predict(model, Fraction(3, 4)) == 1


def test_adaboost_error_one_stops_and_negates():
    # a weak learner wrong at every point has weighted error exactly 1: round
    # 0 ends training with alpha -inf, and the vote negates its bit
    sample = Sample([(0, 0), (1, 1), (2, 0), (3, 1), (1, 1)])
    labels = dict(sample.pairs)

    def always_wrong(round_sample, x, stream):
        return 1 - labels[x]

    model = adaboost_train(sample, always_wrong, 2, 10, RandomStream(4))
    assert model.early_stop
    learner_stream = RandomStream(4).child(0).child(1)
    assert [(r.stream, r.alpha) for r in model.rounds] == [(learner_stream, -math.inf)]
    assert model.train_error == 0
    assert [adaboost_predict(model, x) for x in sample.xs] == list(sample.ys)


def test_adaboost_zero_rounds_predicts_one():
    _, sample, oracle = _threshold_setup()
    learner = make_weak_learner(paper_default_params(2), oracle)
    model = adaboost_train(sample, learner, 2, 0, RandomStream(2))
    assert model.rounds == ()
    assert adaboost_predict(model, Fraction(1, 8)) == 1
    assert adaboost_predict(model, Fraction(7, 8)) == 1


def test_adaboost_training_error_bounded_by_z_product():
    _, sample, oracle = _threshold_setup()
    learner = make_weak_learner(paper_default_params(3), oracle)
    for seed in range(5):
        model = adaboost_train(sample, learner, 3, 25, RandomStream(seed))
        assert float(model.train_error) <= model.z_product + 1e-9


def test_adaboost_reaches_zero_training_error():
    _, sample, oracle = _threshold_setup(n_points=10)
    learner = make_weak_learner(paper_default_params(3), oracle)
    model = adaboost_train(sample, learner, 3, 120, RandomStream(11))
    assert model.train_error == 0
    predict = lambda x: adaboost_predict(model, x)
    assert empirical_error(sample, predict, loss_bin) == 0


def test_adaboost_predict_replays_deterministically():
    _, sample, oracle = _threshold_setup()
    learner = make_weak_learner(paper_default_params(3), oracle)
    model = adaboost_train(sample, learner, 3, 15, RandomStream(7))
    fresh = BoostedModel(
        model.sample, model.weak, tuple(replace(r, answers={}) for r in model.rounds),
        early_stop=model.early_stop,
    )
    queries = [Fraction(k, 16) for k in range(17)]
    first = [adaboost_predict(model, q) for q in queries]
    replayed = [adaboost_predict(fresh, q) for q in queries]
    again = [adaboost_predict(fresh, q) for q in queries]
    assert first == replayed == again


def test_adaboost_keeps_every_planned_round_on_the_threshold_setup():
    # pinned on its own: other draws (another stream derivation, say) may
    # stop boosting early, and that is not a replay fault
    _, sample, oracle = _threshold_setup()
    learner = make_weak_learner(paper_default_params(2), oracle)
    model = adaboost_train(sample, learner, 2, 15, RandomStream(4))
    assert len(model.rounds) == 15


def test_adaboost_replay_gives_the_training_answers():
    # a round's hypothesis is replayed, not stored: on its own sample and
    # stream it must give every training point the bit it gave in training
    _, sample, oracle = _threshold_setup()
    learner = make_weak_learner(paper_default_params(2), oracle)
    model = adaboost_train(sample, learner, 2, 15, RandomStream(4))
    for r in model.rounds:
        assert set(r.answers) == set(sample.xs)
        fresh = BoostedModel(model.sample, model.weak, (replace(r, answers={}),))
        for x in sample.xs:
            adaboost_predict(fresh, x)
        assert fresh.rounds[0].answers == r.answers


def test_adaboost_training_evaluations_cached_per_round():
    # duplicated training points must reuse one weak evaluation per round
    cls = MarginThresholdClass.regular(0, Fraction(1, 20), 21, Fraction(1, 10))
    sample = Sample([(Fraction(1, 4), 0)] * 6 + [(Fraction(3, 4), 1)] * 6)
    calls = []

    def counting_learner(round_sample, x, stream):
        calls.append(x)
        return 1  # weighted error stays exactly 1/2, so no early stop

    adaboost_train(sample, counting_learner, 2, 4, RandomStream(3))
    assert len(calls) == 4 * 2  # rounds x distinct points


def test_adaboost_predict_tie_votes_one():
    # two rounds with equal weight and disagreeing bits: sign(0) reads as 1
    sample = Sample([(0, 0), (1, 1)])
    bits = {0: [0, 1]}

    def fixed(round_sample, x, stream):
        return bits[x].pop(0)

    stream = RandomStream(1)
    rounds = (BoostRound(sample.subset((0,)), 0.7, stream.child(0), {}),
              BoostRound(sample.subset((1,)), 0.7, stream.child(1), {}))
    model = BoostedModel(sample, fixed, rounds)
    assert adaboost_predict(model, 0) == 1


def test_adaboost_tolerates_worse_than_half_rounds():
    # rounds with weighted error above 1/2 get a negative alpha and training
    # continues; the normalizer-product bound still holds
    sample = Sample([(0, 0), (1, 1), (2, 0), (3, 1)])
    labels = dict(sample.pairs)
    calls = []

    def alternating(round_sample, x, stream):
        t = len(calls) // len(sample)
        calls.append(x)
        if t % 2 == 0:
            return 1 - labels[x] if x == 0 else labels[x]  # wrong on one point
        return labels[x] if x == 0 else 1 - labels[x]  # wrong on three points

    model = adaboost_train(sample, alternating, 2, 6, RandomStream(3))
    alphas = [r.alpha for r in model.rounds]
    assert len(alphas) == 6
    assert any(a < 0 for a in alphas) and any(a > 0 for a in alphas)
    assert float(model.train_error) <= model.z_product + 1e-9
