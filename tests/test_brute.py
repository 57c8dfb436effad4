from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oiglearn.brute import (
    brute_erm,
    distribution_opt,
    exact_transductive_audit,
    fat_shattering,
    flip,
    materialize_thresholds,
    natarajan_dimension,
    neighbors,
    vc_dimension,
)
from oiglearn.classes import FiniteTableClass, MarginThresholdClass
from oiglearn.core import (
    STAR,
    ContractViolation,
    FiniteDistribution,
    Sample,
    loss_bin,
)


def _full_cube_class(m):
    rows = list(product((0, 1), repeat=m))
    return FiniteTableClass(tuple(range(m)), rows, "binary")


def test_flip_and_neighbors():
    assert flip((0, 0), 1) == (0, 1)
    assert flip((1,), 0) == (0,)
    assert neighbors((0, 1, 1)) == [(1, 1, 1), (0, 0, 1), (0, 1, 0)]


def test_project_examples():
    single = FiniteTableClass((0, 1), [(0, 1)], "binary")
    assert single.project_onto((0, 1)) == frozenset({(0, 1)})
    starred = FiniteTableClass((0, 1), [(STAR, 1)], "binary")
    assert starred.project_onto((0, 1)) == frozenset()
    assert len(_full_cube_class(3).project_onto((0, 1, 2))) == 8


def test_project_margin_threshold_steps():
    cls = MarginThresholdClass.regular(0, Fraction(1, 40), 41, Fraction(1, 40))
    pts = tuple(Fraction(k, 8) for k in range(1, 8))
    for pattern in cls.project_onto(pts):
        # sorted points: once a 1 appears, everything after stays 1
        first_one = next((i for i, b in enumerate(pattern) if b == 1), len(pattern))
        assert all(b == 1 for b in pattern[first_one:])


def test_vc_dimension_examples():
    assert vc_dimension(FiniteTableClass((0, 1), [(0, 1)], "binary")) == 0
    for m in (1, 2, 3):
        assert vc_dimension(_full_cube_class(m)) == m
    thresholds = MarginThresholdClass.regular(0, Fraction(1, 50), 51, Fraction(1, 100))
    table = materialize_thresholds(thresholds, [Fraction(k, 10) for k in range(1, 10)])
    assert vc_dimension(table) == 1


def test_natarajan_examples():
    single = FiniteTableClass((0, 1), [(1, 2)], "multiclass", num_classes=3)
    assert natarajan_dimension(single) == 0
    prod = FiniteTableClass(
        (0, 1),
        [(1, 2), (1, 3), (2, 2), (2, 3)],
        "multiclass",
        num_classes=3,
    )
    assert natarajan_dimension(prod) >= 2


def test_natarajan_equals_vc_for_two_classes():
    gen = np.random.default_rng(47)
    for _ in range(30):
        rows = set()
        while len(rows) < int(gen.integers(1, 8)):
            rows.add(tuple(int(v) for v in gen.integers(1, 3, size=4)))
        mc = FiniteTableClass(tuple(range(4)), sorted(rows), "multiclass", num_classes=2)
        binary = FiniteTableClass(
            tuple(range(4)), [tuple(v - 1 for v in row) for row in mc.table], "binary"
        )
        assert natarajan_dimension(mc) == vc_dimension(binary, check_growth=False)


def test_fat_shattering_examples():
    const = FiniteTableClass((0, 1), [(Fraction(1, 2), Fraction(1, 2))], "real")
    assert fat_shattering(const, Fraction(1, 10)) == 0
    zero_one = FiniteTableClass((0, 1), [(0, 0), (1, 1)], "real")
    assert fat_shattering(zero_one, Fraction(2, 5)) == 1
    assert fat_shattering(zero_one, Fraction(3, 5)) == 0  # bands exceed the range


def test_brute_erm_examples():
    cls = FiniteTableClass((0, 1), [(0, 0), (1, 1)], "binary")
    value, winners = brute_erm(cls, Sample([(0, 0), (1, 0)]), loss_bin)
    assert value == 0 and winners == (0,)
    value, winners = brute_erm(cls, Sample([(0, 0), (1, 1)]), loss_bin)
    assert value == Fraction(1, 2) and winners == (0, 1)  # symmetric tie
    single = FiniteTableClass((0,), [(1,)], "binary")
    value, winners = brute_erm(single, Sample([(0, 0)]), loss_bin)
    assert value == 1 and winners == (0,)


def test_distribution_opt():
    cls = FiniteTableClass((0, 1), [(0, 0), (1, 1)], "binary")
    dist = FiniteDistribution.uniform(((0, 0), (1, 1)))
    assert distribution_opt(cls, dist, loss_bin) == Fraction(1, 2)
    noisy = dist.with_label_noise(Fraction(1, 10), (0, 1))
    assert distribution_opt(cls, noisy, loss_bin) == Fraction(1, 2)


def test_audit_singleton_isolated_truth():
    cls = FiniteTableClass((0, 1, 2), [(0, 1, 0)], "binary")
    sample = Sample([(0, 0), (1, 1), (2, 0)])
    audit = exact_transductive_audit(cls, sample, Fraction(9, 10), 1)
    assert audit.out_degree == 0
    assert audit.loo_error == 0
    assert all(mass is None for mass in audit.edge_mass_on_truth)


def test_audit_full_cube_is_half_m():
    m = 3
    cls = _full_cube_class(m)
    sample = Sample([(i, 0) for i in range(m)])
    audit = exact_transductive_audit(cls, sample, Fraction(1, 2), 1)
    assert audit.out_degree == pytest.approx(m / 2)
    assert all(mass == pytest.approx(0.5) for mass in audit.edge_mass_on_truth)


def test_audit_unrealizable_sample_rejected():
    cls = FiniteTableClass((0, 1), [(0, 0)], "binary")
    with pytest.raises(ContractViolation):
        exact_transductive_audit(cls, Sample([(0, 1), (1, 0)]), Fraction(1, 2), 1)


def test_audit_bound_slack_nonnegative_random():
    gen = np.random.default_rng(53)
    for _ in range(40):
        m = int(gen.integers(2, 7))
        rows = set()
        target = min(int(gen.integers(1, 12)), 2**m)
        while len(rows) < target:
            rows.add(tuple(int(v) for v in gen.integers(0, 2, size=m)))
        cls = FiniteTableClass(tuple(range(m)), sorted(rows), "binary")
        truth = sorted(rows)[int(gen.integers(0, len(rows)))]
        sample = Sample(list(enumerate(truth)))
        lam = [Fraction(1, 2), Fraction(1)][int(gen.integers(0, 2))]
        for walk in ("lazy", "flip"):
            audit = exact_transductive_audit(cls, sample, Fraction(19, 20), lam, walk=walk)
            assert audit.slack >= -1e-9


def test_audit_out_degree_equals_m_times_expected_loo_loss():
    # per index: absent flipped completion contributes 0; otherwise the loss
    # probability is exactly 1 - mass on truth
    gen = np.random.default_rng(59)
    for _ in range(20):
        m = int(gen.integers(3, 6))
        rows = set()
        while len(rows) < 6:
            rows.add(tuple(int(v) for v in gen.integers(0, 2, size=m)))
        cls = FiniteTableClass(tuple(range(m)), sorted(rows), "binary")
        truth = sorted(rows)[0]
        audit = exact_transductive_audit(cls, Sample(list(enumerate(truth))), Fraction(4, 5), 1)
        per_index_loss = [0.0 if mass is None else 1 - mass for mass in audit.edge_mass_on_truth]
        assert audit.out_degree == pytest.approx(sum(per_index_loss))
        assert audit.loo_error == pytest.approx(sum(per_index_loss) / m)
