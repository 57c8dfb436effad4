from fractions import Fraction

import numpy as np
import pytest

from oiglearn.brute import brute_erm, materialize_thresholds, restarting_erm_binary
from oiglearn.classes import FiniteTableClass, MarginThresholdClass
from oiglearn.core import STAR, ContractViolation, Sample, loss_abs, loss_bin, loss_mc
from oiglearn.ermred import sample_con_real, sample_erm_binary, sample_erm_real
from oiglearn.oracle import ErmValueOracle, QueryCostLedger


def _erm(cls):
    return ErmValueOracle(cls, QueryCostLedger())


def test_binary_realizable_keeps_everything():
    cls = FiniteTableClass(("a", "b", "c"), [(0, 1, 0)], "binary")
    sample = Sample([("a", 0), ("b", 1), ("c", 0)])
    ledger = QueryCostLedger()
    z = sample_erm_binary(sample, ErmValueOracle(cls, ledger))
    assert z == (0, 0, 0) == restarting_erm_binary(sample, _erm(cls))
    assert ledger.call_count == 1  # the zero sum of the whole sample ends the scan


def test_binary_single_constant_hypothesis():
    cls = FiniteTableClass(("a", "b", "c"), [(0, 0, 0)], "binary")
    sample = Sample([("a", 0), ("b", 1), ("c", 0)])
    assert sample_erm_binary(sample, _erm(cls)) == (0, 1, 0)


def test_binary_unique_minimizer_pattern():
    # one hypothesis errs on entries 1 and 4 only; every other row is worse
    domain = tuple(range(6))
    good = (0, 0, 0, 0, 0, 0)
    bad1 = (1, 1, 1, 0, 1, 1)
    bad2 = (1, 0, 1, 1, 1, 0)
    cls = FiniteTableClass(domain, [good, bad1, bad2], "binary")
    sample = Sample([(0, 0), (1, 1), (2, 0), (3, 0), (4, 1), (5, 0)])
    assert sample_erm_binary(sample, _erm(cls)) == (0, 1, 0, 0, 1, 0)


def test_binary_matches_brute_minimizer_random():
    gen = np.random.default_rng(61)
    for _ in range(120):
        points = int(gen.integers(2, 7))
        hyps = set()
        while len(hyps) < int(gen.integers(1, 9)):
            hyps.add(tuple(int(v) for v in gen.integers(0, 2, size=points)))
        cls = FiniteTableClass(tuple(range(points)), sorted(hyps), "binary")
        n = int(gen.integers(1, 9))
        sample = Sample(
            (int(gen.integers(0, points)), int(gen.integers(0, 2))) for _ in range(n)
        )
        ledger = QueryCostLedger()
        z = sample_erm_binary(sample, ErmValueOracle(cls, ledger))
        assert ledger.call_count <= n + 1
        assert z == restarting_erm_binary(sample, _erm(cls))
        value, winners = brute_erm(cls, sample, loss_bin)
        assert Fraction(sum(z), n) == value
        loss_vectors = {
            tuple(loss_bin(y, cls.value_at(w, x)) for x, y in sample) for w in winners
        }
        assert z in loss_vectors
        kept = [i for i in range(n) if z[i] == 0]
        if kept:
            assert cls.consistent_on(
                tuple(sample.xs[i] for i in kept), tuple(sample.ys[i] for i in kept)
            )


def test_binary_multiclass_loss_random():
    gen = np.random.default_rng(67)
    for _ in range(60):
        points = 4
        hyps = set()
        while len(hyps) < 5:
            hyps.add(tuple(int(v) for v in gen.integers(1, 4, size=points)))
        cls = FiniteTableClass(tuple(range(points)), sorted(hyps), "multiclass", num_classes=3)
        n = int(gen.integers(1, 7))
        sample = Sample(
            (int(gen.integers(0, points)), int(gen.integers(1, 4))) for _ in range(n)
        )
        ledger = QueryCostLedger()
        z = sample_erm_binary(sample, ErmValueOracle(cls, ledger))
        assert ledger.call_count <= n + 1
        assert z == restarting_erm_binary(sample, _erm(cls))
        value, winners = brute_erm(cls, sample, loss_mc)
        assert Fraction(sum(z), n) == value
        vectors = {
            tuple(loss_mc(y, cls.value_at(w, x)) for x, y in sample) for w in winners
        }
        assert z in vectors


def test_binary_margin_thresholds_with_stars_and_repeats():
    # points drawn from a few values, so entries repeat, some with both labels
    # and some with a * label, which every threshold gets wrong
    cls = MarginThresholdClass.regular(0, Fraction(1, 8), 9, Fraction(1, 16))
    gen = np.random.default_rng(89)
    for _ in range(80):
        n = int(gen.integers(1, 11))
        sample = Sample(
            (Fraction(int(gen.integers(0, 5)), 4), (0, 1, STAR)[int(gen.integers(0, 3))])
            for _ in range(n)
        )
        ledger = QueryCostLedger()
        z = sample_erm_binary(sample, ErmValueOracle(cls, ledger))
        assert ledger.call_count <= n + 1
        assert z == restarting_erm_binary(sample, _erm(cls))
        table = materialize_thresholds(cls, sorted(set(sample.xs)))
        value, winners = brute_erm(table, sample, loss_bin)
        assert Fraction(sum(z), n) == value
        assert z in {
            tuple(loss_bin(y, table.value_at(w, x)) for x, y in sample) for w in winners
        }


def test_real_single_point_tie_break():
    cls = FiniteTableClass(("x",), [(Fraction(1, 2),)], "real")
    sample = Sample([("x", Fraction(9, 10))])
    out = sample_erm_real(sample, Fraction(1, 4), _erm(cls))
    assert out == (Fraction(1, 4),)  # levels 1 and 2 tie; the lower wins
    assert Fraction(1, 4) <= Fraction(1, 2) <= Fraction(1, 2)


def test_real_zero_hypothesis_single_point():
    cls = FiniteTableClass(("x",), [(Fraction(0),)], "real")
    sample = Sample([("x", Fraction(1, 3))])
    out = sample_erm_real(sample, Fraction(1, 4), _erm(cls))
    assert out == (Fraction(0),)


def test_real_call_budget_exact():
    cls = FiniteTableClass(("x", "y"), [(Fraction(1, 2), Fraction(1, 4))], "real")
    sample = Sample([("x", Fraction(1, 2)), ("y", Fraction(3, 4)), ("x", Fraction(0))])
    ledger = QueryCostLedger()
    sample_erm_real(sample, Fraction(1, 5), ErmValueOracle(cls, ledger))
    assert ledger.call_count == len(sample) * 5


def test_real_gamma_must_be_unit_fraction():
    cls = FiniteTableClass(("x",), [(Fraction(0),)], "real")
    with pytest.raises(ContractViolation):
        sample_erm_real(Sample([("x", Fraction(1, 2))]), Fraction(2, 5), _erm(cls))


def _random_real_class(gen, points=3, hyps=4, denom=8):
    rows = set()
    while len(rows) < hyps:
        rows.add(tuple(Fraction(int(v), denom) for v in gen.integers(0, denom + 1, size=points)))
    return FiniteTableClass(tuple(range(points)), sorted(rows), "real")


def test_real_interval_guarantee_random():
    gen = np.random.default_rng(71)
    for _ in range(60):
        cls = _random_real_class(gen)
        n = int(gen.integers(1, 5))
        sample = Sample(
            (int(gen.integers(0, 3)), Fraction(int(gen.integers(0, 9)), 8)) for _ in range(n)
        )
        gamma = Fraction(1, int(gen.integers(2, 6)))
        out = sample_erm_real(sample, gamma, _erm(cls))
        # some minimizer of the original sample has all its values inside the cells
        value, winners = brute_erm(cls, sample, loss_abs)
        witnesses = [
            w
            for w in winners
            if all(
                lo <= cls.value_at(w, x) <= lo + gamma
                for (x, _), lo in zip(sample.pairs, out)
            )
        ]
        assert witnesses, (sample, out, winners)


def test_exact_interpolant_snaps_to_grid():
    gen = np.random.default_rng(73)
    values = tuple(Fraction(int(v), 4) for v in gen.integers(0, 5, size=3))
    cls = FiniteTableClass((0, 1, 2), [values, tuple(Fraction(1, 2) for _ in range(3))], "real")
    sample = Sample(list(enumerate(values)))
    gamma = Fraction(1, 4)
    out = sample_erm_real(sample, gamma, _erm(cls))
    for (x, y), lo in zip(sample.pairs, out):
        assert lo - gamma <= y <= lo + 2 * gamma  # value lies a cell away at most


def test_sample_con_real_examples():
    point3 = FiniteTableClass(("x",), [(Fraction(3, 10),)], "real")
    assert sample_con_real(
        [("x", Fraction(3, 10), Fraction(3, 10))], _erm(point3)
    )
    assert sample_con_real([("x", Fraction(1, 5), Fraction(1, 2))], _erm(point3))
    point9 = FiniteTableClass(("x",), [(Fraction(9, 10),)], "real")
    assert not sample_con_real([("x", Fraction(1, 5), Fraction(1, 2))], _erm(point9))
    with pytest.raises(ContractViolation):
        sample_con_real([("x", Fraction(1, 2), Fraction(1, 4))], _erm(point3))


# endpoints in thirds and fifths as well as eighths: the first two do not
# divide the eighths of the tables below, so the slack's common denominator
# is not the table's
ENDPOINTS = sorted({Fraction(k, d) for d in (3, 5, 8) for k in range(d + 1)})


def _written(value: Fraction, style: int):
    """value as an int, a 'p/q' string, a float or a Fraction, each form
    used only where it writes the value exactly (a float only for a finite
    decimal, which `as_fraction` reads back exactly)."""
    if style == 0 and value.denominator == 1:
        return int(value)
    if style == 1:
        return f"{value.numerator}/{value.denominator}"
    if style == 2 and 1000 % value.denominator == 0:
        return float(value)
    return value


def test_sample_con_real_matches_brute_random():
    """sample_con_real against the table's own Fraction row scan
    (`range_consistent_on`), with one call of size 2k per nonempty query:
    empty queries, point bands lo == hi, bands at exactly 0 and 1, and
    endpoints written as ints, strings, floats and Fractions."""
    gen = np.random.default_rng(79)
    answers = set()
    for _ in range(300):
        cls = _random_real_class(gen)
        bands = []
        for _ in range(int(gen.integers(0, 5))):
            lo, hi = sorted(ENDPOINTS[int(i)] for i in gen.integers(0, len(ENDPOINTS), size=2))
            shape = int(gen.integers(0, 5))
            if shape == 0:
                hi = lo
            elif shape == 1:
                lo = Fraction(0)
            elif shape == 2:
                hi = Fraction(1)
            bands.append((int(gen.integers(0, 3)), lo, hi))
        triples = [(x, _written(lo, int(gen.integers(0, 4))), _written(hi, int(gen.integers(0, 4))))
                   for x, lo, hi in bands]
        ledger = QueryCostLedger()
        got = sample_con_real(triples, ErmValueOracle(cls, ledger))
        want = cls.range_consistent_on(
            tuple(x for x, _, _ in bands),
            tuple(lo for _, lo, _ in bands),
            tuple(hi for _, _, hi in bands),
        )
        assert got == want, (triples, cls.table)
        assert ledger.snapshot() == ((2 * len(bands), 1) if bands else (0, 0))
        answers.add(got)
    assert answers == {True, False}
    ledger = QueryCostLedger()
    with pytest.raises(ContractViolation):
        sample_con_real([(0, Fraction(1, 3), Fraction(1, 5))], ErmValueOracle(cls, ledger))
    assert ledger.snapshot() == (0, 0)


def test_sample_con_real_single_call():
    cls = _random_real_class(np.random.default_rng(83))
    ledger = QueryCostLedger()
    sample_con_real(
        [(0, Fraction(0), Fraction(1)), (1, Fraction(1, 4), Fraction(1, 2))],
        ErmValueOracle(cls, ledger),
    )
    assert ledger.call_count == 1
    assert ledger.total_cost == 4  # doubled sample
