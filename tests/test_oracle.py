from fractions import Fraction

import numpy as np
import pytest

from oiglearn.brute import table_erm_scan, threshold_erm_scan
from oiglearn.classes import (
    CLASS_KINDS,
    FiniteTableClass,
    HPrimeClass,
    MarginThresholdClass,
    class_from_config,
)
from oiglearn.core import LABEL_KINDS, STAR, ContractViolation, Sample
from oiglearn.ermred import sample_con_real
from oiglearn.oracle import (
    ERM_VALUE,
    ConsistencyOracle,
    ErmValueOracle,
    OracleCapabilityError,
    QueryCostLedger,
    RangeConsistencyOracle,
)


def _zero_class():
    return FiniteTableClass(("a", "b"), [(0, 0)], "binary")


def _random_class(gen, points=4, hyps=6):
    rows = set()
    while len(rows) < hyps:
        rows.add(tuple(int(v) for v in gen.integers(0, 2, size=points)))
    return FiniteTableClass(tuple(range(points)), sorted(rows), "binary")


def test_consistency_examples():
    con = ConsistencyOracle(_zero_class(), QueryCostLedger())
    assert con((), ()) is True
    assert con(("a",), (0,)) is True
    assert con(("a", "a"), (0, 1)) is False


def test_consistency_rejects_star_queries():
    ledger = QueryCostLedger()
    con = ConsistencyOracle(_zero_class(), ledger)
    with pytest.raises(ContractViolation):
        con(("a",), (STAR,))
    with pytest.raises(ContractViolation):
        con(("a", "b"), (0, "1"))
    assert ledger.snapshot() == (0, 0)


def test_bound_consistency_checks_points_and_charges_each_answer():
    ledger = QueryCostLedger()
    con = ConsistencyOracle(_zero_class(), ledger)
    for cls in (_zero_class(), MarginThresholdClass([0], Fraction(1, 4)), HPrimeClass(10)):
        with pytest.raises(ContractViolation):
            ConsistencyOracle(cls, ledger).bind((None,))  # None is in no domain
    assert ledger.snapshot() == (0, 0)
    bound = con.bind(("a", "b", "a"))
    assert ledger.snapshot() == (0, 0)  # binding asks nothing
    # bit j labels point j; the one hypothesis is 0 everywhere
    assert [bound(code) for code in (0, 1, 2, 5, 0)] == [True, False, False, False, True]
    assert ledger.snapshot() == (15, 5)  # one call of size 3 per answer, repeats included
    assert con.bind(())(0) is True
    assert ledger.snapshot() == (15, 6)


def test_consistency_rejects_length_mismatch():
    ledger = QueryCostLedger()
    con = ConsistencyOracle(_zero_class(), ledger)
    with pytest.raises(ContractViolation):
        con(("a", "b"), (0,))
    with pytest.raises(ContractViolation):
        con(("a",), (0, 0))
    assert ledger.snapshot() == (0, 0)


def test_erm_value_examples():
    erm = ErmValueOracle(_zero_class(), QueryCostLedger())
    assert erm(Sample([("a", 0)])) == 0
    assert erm([("a", 0), ("b", 1), ("a", 0)]) == Fraction(1, 3)
    with pytest.raises(ContractViolation):
        erm(Sample([]))


def test_erm_contradictory_duplicates_cost_half():
    gen = np.random.default_rng(3)
    for _ in range(20):
        cls = _random_class(gen)
        s = Sample([(0, 0), (0, 1)])
        assert ErmValueOracle(cls, QueryCostLedger())(s) >= Fraction(1, 2)


def test_range_consistency_examples():
    half = FiniteTableClass(("x",), [(Fraction(1, 2),)], "real")
    query = RangeConsistencyOracle(half, QueryCostLedger())
    assert query([("x", 0, 1)]) is True
    assert query([("x", Fraction(3, 5), Fraction(9, 10))]) is False
    assert query([("x", Fraction(1, 2), Fraction(1, 2))]) is True
    with pytest.raises(ContractViolation):
        query([("x", Fraction(2, 3), Fraction(1, 3))])
    with pytest.raises(ContractViolation):
        query([("x", False, 1)])  # a boolean is not a rational
    # a float endpoint is read through its decimal, as sample_con_real reads it
    point3 = FiniteTableClass(("x",), [(Fraction(3, 10),)], "real")
    assert RangeConsistencyOracle(point3, QueryCostLedger())([("x", 0.3, 0.3)]) is True
    assert sample_con_real([("x", 0.3, 0.3)], ErmValueOracle(point3, QueryCostLedger()))


def test_capability_errors():
    hp = HPrimeClass(bound=100)
    ledger = QueryCostLedger()
    with pytest.raises(OracleCapabilityError):
        ErmValueOracle(hp, ledger)
    with pytest.raises(OracleCapabilityError):
        RangeConsistencyOracle(hp, ledger)
    # a table offers range consistency only when its labels are real
    for table in (_zero_class(),
                  FiniteTableClass((0, 1), [(1, 2), (2, 1)], "multiclass", num_classes=2)):
        with pytest.raises(OracleCapabilityError):
            RangeConsistencyOracle(table, ledger)
    assert ledger.snapshot() == (0, 0)


def test_ledger_additivity():
    ledger = QueryCostLedger()
    con = ConsistencyOracle(_zero_class(), ledger)
    sizes = [1, 3, 2, 5, 1]
    for k in sizes:
        con(("a",) * k, (0,) * k)
    assert ledger.total_cost == sum(sizes)
    assert ledger.call_count == len(sizes)
    assert ledger.total_cost >= ledger.call_count


def test_consistency_equals_zero_erm():
    gen = np.random.default_rng(11)
    for _ in range(100):
        cls = _random_class(gen, points=4, hyps=int(gen.integers(1, 8)))
        n = int(gen.integers(1, 7))
        sample = Sample(
            (int(gen.integers(0, 4)), int(gen.integers(0, 2))) for _ in range(n)
        )
        ledger = QueryCostLedger()
        con = ConsistencyOracle(cls, ledger)(sample.xs, sample.ys)
        erm = ErmValueOracle(cls, ledger)(sample)
        assert con == (erm == 0)


def test_margin_threshold_consistency_equals_zero_erm():
    # labels outside {0, 1} are never consistent, as the ERM value says
    cls = MarginThresholdClass.regular(0, Fraction(1, 20), 21, Fraction(1, 10))
    assert not ConsistencyOracle(cls, QueryCostLedger())((Fraction(1, 2),), (2,))
    gen = np.random.default_rng(17)
    for _ in range(200):
        n = int(gen.integers(1, 6))
        xs = tuple(Fraction(int(v), 8) for v in gen.integers(0, 9, size=n))
        ys = tuple(int(v) for v in gen.integers(0, 3, size=n))
        ledger = QueryCostLedger()
        con = ConsistencyOracle(cls, ledger)(xs, ys)
        erm = ErmValueOracle(cls, ledger)(Sample(zip(xs, ys)))
        assert con == (erm == 0) == cls.consistent_on(xs, ys)


def test_consistency_monotone_under_extension():
    gen = np.random.default_rng(13)
    for _ in range(100):
        cls = _random_class(gen)
        n = int(gen.integers(1, 6))
        pairs = [(int(gen.integers(0, 4)), int(gen.integers(0, 2))) for _ in range(n)]
        con = ConsistencyOracle(cls, QueryCostLedger())
        base = Sample(pairs)
        before = con(base.xs, base.ys)
        extended = Sample(pairs + [(int(gen.integers(0, 4)), int(gen.integers(0, 2)))])
        after = con(extended.xs, extended.ys)
        assert not (after and not before)


def test_oracle_handles_charge_ledger():
    ledger = QueryCostLedger()
    con = ConsistencyOracle(_zero_class(), ledger)
    con(("a", "b"), (0, 0))
    con(("a",), (0,))
    assert ledger.snapshot() == (3, 2)
    erm = ErmValueOracle(_zero_class(), ledger)
    erm(Sample([("a", 0), ("b", 1), ("b", 0)]))
    assert ledger.snapshot() == (6, 3)
    s = Sample([("a", 0), ("b", 1), ("b", 0)])
    assert erm(s) * len(s) == 1
    assert ledger.snapshot() == (9, 4)


# one description per class kind, with the labels its ERM queries draw from
_CLASS_SPECS = {
    "finite_table": ({"kind": "finite_table", "domain": [0, 1, 2, 3],
                      "table": [[0, "*", 1, 0], [1, 1, "*", 0], ["*", 0, 0, 1], [1, 0, 1, 1]]},
                     (0, 1, STAR)),
    "finite_multiclass": ({"kind": "finite_multiclass", "domain": [0, 1, 2], "num_classes": 3,
                           "table": [[1, 2, 3], [3, 1, 1], [2, 2, 1]]},
                          (1, 2, 3)),
    "finite_real": ({"kind": "finite_real", "domain": [0, 1, 2],
                     "table": [["0.25", "0.5", "1"], ["0", "0.75", "1/3"], ["1", "0.2", "0.5"]]},
                    tuple(Fraction(k, 12) for k in range(13))),
    "margin_threshold": ({"kind": "margin_threshold", "grid": ["0", "0.1", 11], "margin": "0.05"},
                         (0, 1, STAR)),
    "hprime": ({"kind": "hprime", "bound": 30}, (0, 1)),
}
_ERM_KINDS = [
    kind for kind in CLASS_KINDS if ERM_VALUE in class_from_config(_CLASS_SPECS[kind][0]).capabilities
]


@pytest.mark.parametrize("kind", _ERM_KINDS)
def test_erm_value_follows_the_label_kind(kind):
    """The handle answers under the loss of the class's label kind, as the
    brute references do when handed that loss."""
    spec, labels = _CLASS_SPECS[kind]
    cls = class_from_config(spec)
    loss = LABEL_KINDS[CLASS_KINDS[kind].labels].loss
    if isinstance(cls, MarginThresholdClass):
        points, reference = [Fraction(k, 40) for k in range(41)], threshold_erm_scan
    else:
        points, reference = cls.domain, table_erm_scan
    gen = np.random.default_rng(19)
    ledger = QueryCostLedger()
    erm = ErmValueOracle(cls, ledger)
    cost = 0
    for _ in range(200):
        n = int(gen.integers(1, 9))
        xs = tuple(points[int(i)] for i in gen.integers(0, len(points), size=n))
        ys = tuple(labels[int(i)] for i in gen.integers(0, len(labels), size=n))
        assert erm(Sample(zip(xs, ys))) == reference(cls, xs, ys, loss), (xs, ys)
        cost += n
    assert ledger.snapshot() == (cost, 200)
