from fractions import Fraction

import numpy as np
import pytest

from oiglearn import pipelines
from oiglearn.brute import menu_project, threshold_project, threshold_query
from oiglearn.classes import FiniteTableClass
from oiglearn.core import STAR, ContractViolation, RandomStream, Sample, pack
from oiglearn.oracle import (
    ConsistencyOracle,
    ErmValueOracle,
    QueryCostLedger,
    RangeConsistencyOracle,
)
from oiglearn.ermred import sample_con_real
from oiglearn.pipelines import (
    WeakSpec,
    boosting_rounds,
    build_menu_sample,
    build_threshold_sample,
    decode_multiclass,
    decode_threshold,
    fit_agnostic_partial,
    fit_multiclass_agnostic,
    fit_multiclass_realizable,
    fit_realizable_partial,
    fit_reg_agnostic,
    fit_reg_realizable,
    menu_consistency_oracle,
    threshold_consistency_oracle,
    threshold_grid,
)


def test_menu_project_examples():
    assert menu_project(2, (2, 5)) == 0
    assert menu_project(5, (2, 5)) == 1
    assert menu_project(3, (2, 5)) is STAR
    with pytest.raises(ContractViolation):
        menu_project(1, (2, 2))


def test_menu_consistency_translation():
    seen = {}

    def spy(xs, ys):
        seen["xs"], seen["ys"] = xs, ys
        return True

    answer = menu_consistency_oracle(spy)((("p", (4, 7)),))
    answer(0)
    assert seen == {"xs": ("p",), "ys": (4,)}
    answer(1)
    assert seen == {"xs": ("p",), "ys": (7,)}


def test_menu_consistency_contradiction():
    cls = FiniteTableClass(("p",), [(1,), (2,)], "multiclass", num_classes=2)
    base = ConsistencyOracle(cls, QueryCostLedger())
    sample = Sample([(("p", (1, 2)), 0), (("p", (1, 2)), 1)])
    assert menu_consistency_oracle(base)(sample.xs)(pack(sample.ys)) is False


def test_build_menu_sample_shape():
    sample = Sample([("a", 2), ("b", 1), ("a", 2)])
    menu = build_menu_sample(sample, 4)
    assert len(menu) == 2 * len(sample) * 3
    first_block = menu.pairs[: len(sample) * 3]
    assert all(b == 0 for _, b in first_block)
    assert all(b == 1 for _, b in menu.pairs[len(sample) * 3 :])
    # duplicates from repeated sample points are retained
    assert menu.pairs.count((("a", (2, 1)), 0)) == 2


def test_decode_multiclass_examples():
    def perfect(x, menu):
        return menu_project(2, menu)

    assert decode_multiclass(perfect, "x", 3) == 2
    assert decode_multiclass(lambda x, menu: 0, "x", 3) == 1  # fallback
    # antisymmetry violated: nothing decodes, fallback again
    assert decode_multiclass(lambda x, menu: 1, "x", 3) == 1
    with pytest.raises(ContractViolation):
        decode_multiclass(perfect, "x", 1)


def test_decode_round_trip_random():
    gen = np.random.default_rng(89)
    for _ in range(100):
        k = int(gen.integers(2, 7))
        label = int(gen.integers(1, k + 1))
        decode = decode_multiclass(lambda x, menu: menu_project(label, menu), "pt", k)
        assert decode == label


def test_threshold_project_examples():
    g = Fraction(1, 10)
    assert threshold_project(Fraction(7, 10), Fraction(1, 2), g) == 1
    assert threshold_project(Fraction(11, 20), Fraction(1, 2), g) is STAR
    assert threshold_project(Fraction(3, 10), Fraction(1, 2), g) == 0


def test_threshold_grid_shape():
    taus = threshold_grid(Fraction(1, 4))
    assert taus == (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    assert len(threshold_grid(Fraction(2, 5))) == 3  # 0, 2/5, 4/5


def test_threshold_consistency_matches_the_band_reference():
    # entries at 0 and 1 meet the bands [0, 0] at tau = gamma and [1, 1] at
    # tau = 1 - gamma, the bands that touch the ends of [0, 1]
    gamma = Fraction(1, 4)
    cls = FiniteTableClass((0, 1, 2), [(0, Fraction(1, 2), 1), (Fraction(1, 4), 0, Fraction(3, 4)),
                                       (1, 1, 0)], "real")
    grid_points = [(x, tau) for x in range(3) for tau in threshold_grid(gamma)]
    ledgers = QueryCostLedger(), QueryCostLedger()
    bind = threshold_consistency_oracle(RangeConsistencyOracle(cls, ledgers[0]), gamma)
    reference = threshold_query(RangeConsistencyOracle(cls, ledgers[1]), gamma)
    answers = set()
    for first in grid_points:
        for second in grid_points:
            answer = bind((first, second))
            for code in range(4):
                got = answer(code)
                assert got == reference((first, second), (code & 1, code >> 1)), (first, second, code)
                assert ledgers[0].snapshot() == ledgers[1].snapshot()
                answers.add(got)
    assert answers == {True, False}


def test_build_threshold_sample_bounds():
    sample = Sample([("a", Fraction(1, 2)), ("b", Fraction(9, 10))])
    gamma = Fraction(1, 5)
    derived = build_threshold_sample(sample, gamma, gamma)
    assert len(derived) <= 2 * len(sample) * (5 + 1)
    for (x, tau), bit in derived:
        y = dict(sample.pairs)[x]
        assert bit == (1 if y >= tau + gamma else 0)


def _singleton_binary():
    cls = FiniteTableClass((0, 1, 2, 3), [(1, 0, 1, 0)], "binary")
    dist_pairs = [(i, cls.value_at(0, i)) for i in range(4)]
    return cls, dist_pairs


def test_realizable_partial_singleton_recovers_labels():
    cls, pairs = _singleton_binary()
    sample = Sample(pairs * 2)
    con = ConsistencyOracle(cls, QueryCostLedger())
    predictor = fit_realizable_partial(
        sample, WeakSpec(m=2), eta=0.8, delta=0.2, con_oracle=con, rng=RandomStream(5)
    )
    for x, y in pairs:
        assert predictor.predict(x) == y
    assert predictor.model.train_error == 0


def test_agnostic_partial_matches_realizable_on_clean_data():
    cls, pairs = _singleton_binary()
    sample = Sample(pairs * 2)
    ledger = QueryCostLedger()
    con = ConsistencyOracle(cls, ledger)
    erm = ErmValueOracle(cls, ledger)
    predictor = fit_agnostic_partial(
        sample, WeakSpec(m=2), 0.8, 0.2, erm, con, RandomStream(5)
    )
    assert len(predictor.model.sample) == len(sample)  # nothing removed
    for x, y in pairs:
        assert predictor.predict(x) == y


def test_agnostic_partial_removes_flipped_point():
    cls, pairs = _singleton_binary()
    corrupted = Sample(pairs + [(0, 0)])  # truth is 1 at point 0
    ledger = QueryCostLedger()
    con = ConsistencyOracle(cls, ledger)
    erm = ErmValueOracle(cls, ledger)
    predictor = fit_agnostic_partial(
        corrupted, WeakSpec(m=2), 0.8, 0.2, erm, con, RandomStream(7)
    )
    assert len(predictor.model.sample) == len(pairs)
    assert predictor.predict(0) == 1


def test_binary_pipelines_plan_their_round_counts(monkeypatch):
    # the realizable pipeline plans boosting_rounds(n, delta, eta, 4), the
    # agnostic one the same with 6, both at n = the size of the given sample
    planned = []
    train = pipelines.adaboost_train

    def recording_train(sample, weak, weak_sample_size, rounds, rng):
        planned.append(rounds)
        return train(sample, weak, weak_sample_size, rounds, rng)

    monkeypatch.setattr(pipelines, "adaboost_train", recording_train)
    cls, pairs = _singleton_binary()
    eta, delta = 0.8, 0.2
    ledger = QueryCostLedger()
    con = ConsistencyOracle(cls, ledger)
    clean = Sample(pairs * 2)
    fit_realizable_partial(clean, WeakSpec(m=2), eta, delta, con, RandomStream(5))
    corrupted = Sample(pairs + [(0, 0)])
    fit_agnostic_partial(corrupted, WeakSpec(m=2), eta, delta, ErmValueOracle(cls, ledger), con,
                         RandomStream(7))
    assert planned == [boosting_rounds(len(clean), delta, eta, 4),
                       boosting_rounds(len(corrupted), delta, eta, 6)]
    assert boosting_rounds(len(corrupted), delta, eta, 6) not in (
        boosting_rounds(len(corrupted), delta, eta, 4),
        boosting_rounds(len(corrupted) - 1, delta, eta, 6),
    )


def test_multiclass_singleton_recovers_labels():
    cls = FiniteTableClass((0, 1, 2), [(2, 3, 1)], "multiclass", num_classes=3)
    sample = Sample([(0, 2), (1, 3), (2, 1)])
    con = ConsistencyOracle(cls, QueryCostLedger())
    predictor = fit_multiclass_realizable(
        sample, 3, WeakSpec(m=2), eta=0.8, delta=0.2, con_oracle=con, rng=RandomStream(9)
    )
    for x, y in sample:
        assert predictor.predict(x) == y


def test_multiclass_two_labels_behaves_binary():
    cls = FiniteTableClass((0, 1), [(1, 2), (2, 1)], "multiclass", num_classes=2)
    sample = Sample([(0, 1), (1, 2), (0, 1), (1, 2)])
    con = ConsistencyOracle(cls, QueryCostLedger())
    predictor = fit_multiclass_realizable(
        sample, 2, WeakSpec(m=2), eta=0.9, delta=0.2, con_oracle=con, rng=RandomStream(11)
    )
    assert predictor.predict(0) == 1
    assert predictor.predict(1) == 2


def test_multiclass_agnostic_removes_corrupted_label():
    cls = FiniteTableClass((0, 1, 2), [(2, 3, 1)], "multiclass", num_classes=3)
    corrupted = Sample([(0, 2), (1, 3), (2, 1), (0, 3)])
    ledger = QueryCostLedger()
    con = ConsistencyOracle(cls, ledger)
    erm = ErmValueOracle(cls, ledger)
    predictor = fit_multiclass_agnostic(
        corrupted, 3, WeakSpec(m=2), 0.8, 0.2, erm, con, RandomStream(13)
    )
    assert len(predictor.model.sample) == 2 * 3 * 2  # menu examples of the 3 kept points
    assert predictor.predict(0) == 2


def test_regression_vote_formula():
    # with a fixed J the prediction is exactly gamma times the vote count
    gamma = Fraction(1, 4)
    two_votes = lambda x, tau: 1 if tau in (0, Fraction(1, 4)) else 0
    assert decode_threshold(two_votes, "x", gamma) == Fraction(1, 2)
    assert decode_threshold(lambda x, tau: 0, "x", gamma) == 0
    # a unanimous vote covers floor(1/gamma)+1 = 5 thresholds and is clamped to 1
    assert decode_threshold(lambda x, tau: 1, "x", gamma) == 1


def test_reg_realizable_singleton_training_error():
    values = (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8))
    cls = FiniteTableClass((0, 1, 2), [values], "real")
    sample = Sample(list(enumerate(values)))
    gamma = Fraction(1, 8)
    rng = RandomStream(17)
    ledger = QueryCostLedger()
    predictor = fit_reg_realizable(
        sample, WeakSpec(m=2), 0.8, 0.2, gamma, gamma,
        RangeConsistencyOracle(cls, ledger), rng,
    )
    for x, y in sample:
        assert abs(predictor.predict(x) - y) <= 3 * gamma


def test_reg_agnostic_constant_class():
    c = Fraction(5, 8)
    cls = FiniteTableClass((0, 1), [(c, c)], "real")
    sample = Sample([(0, Fraction(1, 4)), (1, Fraction(3, 4))])
    gamma = Fraction(1, 4)
    erm = ErmValueOracle(cls, QueryCostLedger())
    predictor = fit_reg_agnostic(sample, WeakSpec(m=2), 0.8, 0.2, gamma, erm, RandomStream(19))
    for x, _ in sample:
        assert abs(predictor.predict(x) - c) <= 6 * gamma


def test_sample_con_real_matches_range_consistency():
    gen = np.random.default_rng(97)
    rows = set()
    while len(rows) < 4:
        rows.add(tuple(Fraction(int(v), 8) for v in gen.integers(0, 9, size=3)))
    cls = FiniteTableClass((0, 1, 2), sorted(rows), "real")
    erm = ErmValueOracle(cls, QueryCostLedger())
    for _ in range(50):
        triples = []
        for _ in range(int(gen.integers(1, 4))):
            a, b = sorted(int(v) for v in gen.integers(0, 9, size=2))
            triples.append((int(gen.integers(0, 3)), Fraction(a, 8), Fraction(b, 8)))
        direct = cls.range_consistent_on(
            tuple(t[0] for t in triples),
            tuple(t[1] for t in triples),
            tuple(t[2] for t in triples),
        )
        assert sample_con_real(triples, erm) == direct
