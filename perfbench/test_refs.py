"""Hand-worked cases for the benchmark's references.

    python3 -m pytest perfbench/test_refs.py
"""

import math
import random
from fractions import Fraction

import pytest

from refs import (
    flip_walk_discount,
    flip_walk_loo_error,
    flip_walk_potential,
    interval_patterns,
    interval_table,
    real_table,
    threshold_opt,
)
from workloads import (
    THRESHOLD_GRID,
    THRESHOLD_MARGIN,
    THRESHOLD_NOISE,
    THRESHOLD_SUPPORT,
)


def test_interval_table_on_two_points():
    # empty, [0,1), [0,2), [1,2)
    assert interval_table(2) == [[0, 0], [1, 0], [1, 1], [0, 1]]


def test_interval_table_counts_and_distinct_rows():
    rows = interval_table(32)
    assert len(rows) == 1 + 32 * 33 // 2 == 529
    assert len({tuple(r) for r in rows}) == 529


def test_interval_patterns_by_hand():
    # on points 0 and 2 of a 3-point domain every labeling is an interval
    assert interval_patterns((0, 2), 3) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    # 1 at both ends with 0 between is not an interval
    assert (1, 0, 1) not in interval_patterns((0, 1, 2), 3)
    # a repeated point gets one label
    assert interval_patterns((1, 1), 3) == {(0, 0), (1, 1)}


def test_real_table_is_seeded_distinct_and_in_eighths():
    first = real_table(random.Random("x"), 6, 8, 8)
    assert first == real_table(random.Random("x"), 6, 8, 8)
    assert len({tuple(r) for r in first}) == 8
    for row in first:
        assert len(row) == 6
        for v in row:
            assert 0 <= v <= 1 and (v * 8).denominator == 1


def test_real_table_refuses_more_rows_than_exist():
    with pytest.raises(ValueError):
        real_table(random.Random(0), 1, 3, 1)


def test_threshold_opt_by_hand():
    support = [(Fraction(1, 4), 0), (Fraction(3, 4), 1)]
    noise = Fraction(1, 10)
    margin = Fraction(1, 10)
    # t = 1/2 labels both points correctly: only the noise is lost
    assert threshold_opt([Fraction(1, 2)], margin, support, noise) == Fraction(1, 10)
    # t = 1/4 leaves 1/4 undefined (always wrong) and labels 3/4 correctly
    assert threshold_opt([Fraction(1, 4)], margin, support, noise) == Fraction(11, 20)
    # t = 9/10 labels 3/4 as 0: wrong unless the label was flipped
    assert threshold_opt([Fraction(9, 10)], margin, support, noise) == Fraction(1, 2)


def test_threshold_opt_of_the_workload_is_the_noise_rate():
    opt = threshold_opt(THRESHOLD_GRID, THRESHOLD_MARGIN, THRESHOLD_SUPPORT, THRESHOLD_NOISE)
    assert opt == Fraction(1, 10)


def test_flip_walk_discount():
    assert flip_walk_discount(10) == pytest.approx(1 - 1 / (10 * math.log(10)))
    assert flip_walk_discount(2) == 0.5  # 1 - 1/(2 ln 2) < 1/2 is held at 1/2


def test_flip_walk_potential_single_vertex():
    # from 0 the only step leaves at once: f = g
    assert flip_walk_potential({(0,)}, 1, 0.5) == {(0,): pytest.approx(0.5)}


def test_flip_walk_potential_edge_by_hand():
    # inside {00, 10}, g = 1/2: f = (g/2)(f + 1) on both, so f = g/(2 - g) = 1/3
    f = flip_walk_potential({(0, 0), (1, 0)}, 2, 0.5)
    assert f[(0, 0)] == pytest.approx(1 / 3)
    assert f[(1, 0)] == pytest.approx(1 / 3)


def test_flip_walk_potential_path_by_hand():
    # inside {00, 10, 11}, g = 1/2: a = f(00) = f(11) = (b + 1)/4 and
    # b = f(10) = (2a)/4, so a = 2/7 and b = 1/7
    f = flip_walk_potential({(0, 0), (1, 0), (1, 1)}, 2, 0.5)
    assert f[(0, 0)] == pytest.approx(2 / 7)
    assert f[(1, 1)] == pytest.approx(2 / 7)
    assert f[(1, 0)] == pytest.approx(1 / 7)


def test_flip_walk_loo_error_by_hand():
    inside = {(0, 0), (1, 0), (1, 1)}
    # truth 10: both flips are realizable; each edge puts (1 + 2/7 - 1/7)/2 =
    # 4/7 on the truth, so each costs 3/7 and the mean over 2 points is 3/7
    assert flip_walk_loo_error((1, 0), inside, 0.5) == pytest.approx(3 / 7)
    # truth 00 on {00, 10}: the second flip is forced, the first costs 1/2
    assert flip_walk_loo_error((0, 0), {(0, 0), (1, 0)}, 0.5) == pytest.approx(1 / 4)
    # a vertex with no realizable neighbour is never wrong
    assert flip_walk_loo_error((0,), {(0,)}, 0.5) == 0
    # two symmetric vertices with no way out: f = 0 on both, a fair coin
    assert flip_walk_loo_error((0,), {(0,), (1,)}, 0.5) == pytest.approx(1 / 2)
