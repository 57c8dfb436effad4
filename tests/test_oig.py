import math
from fractions import Fraction

import numpy as np
import pytest

from oiglearn import brute, oig
from oiglearn.brute import exact_truncated_flip_expectation, membership_from_set, recursion_residual
from oiglearn.classes import FiniteTableClass
from oiglearn.core import ContractViolation, RandomStream, pack, unpack
from oiglearn.oig import (
    MembershipPredicate,
    WalkParams,
    default_horizon,
    estimate_potential,
    exact_generating_function,
    lazy_discount,
)
from oiglearn.oracle import ConsistencyOracle, QueryCostLedger
from oiglearn.weak import paper_default_params


def test_packing():
    for code in range(16):
        assert pack(unpack(code, 4)) == code


def test_estimate_potential_outside_is_exactly_one():
    gen = RandomStream(4).generator()
    pred = membership_from_set([(1, 1)], 2)
    est = estimate_potential(pred, 0, WalkParams(0.5, 8, 100), (gen,))[0]
    assert est == 1.0


def test_estimate_potential_full_cube_truncates():
    gen = RandomStream(5).generator()
    m, L = 3, 6
    pred = membership_from_set([unpack(c, m) for c in range(8)], m)
    est = estimate_potential(pred, 0, WalkParams(0.5, L, 200), (gen,))[0]
    assert est == pytest.approx(0.5**L, abs=0)


def test_estimate_potential_m1_limit():
    # exit after exactly one flip, so the estimate converges to gamma
    gen = RandomStream(6).generator()
    pred = membership_from_set([(0,)], 1)
    est = estimate_potential(pred, 0, WalkParams(0.5, 10, 20_000), (gen,))[0]
    assert est == pytest.approx(0.5, abs=0)  # tau == 1 deterministically


def test_estimate_potential_paths_agree_statistically():
    # sequential (small U) and vectorized (large U) rollouts estimate the same mean
    m = 4
    inside = [unpack(c, m) for c in range(16) if bin(c).count("1") <= 2]
    pred = membership_from_set(inside, m)
    params_small = WalkParams(0.7, 20, 400)
    params_big = WalkParams(0.7, 20, 4000)
    small = estimate_potential(pred, 0, params_small, (RandomStream(7).generator(),))[0]
    big = estimate_potential(pred, 0, params_big, (RandomStream(8).generator(),))[0]
    exact = exact_truncated_flip_expectation(inside, (0, 0, 0, 0), 0.7, 20)
    assert abs(small - exact) < 4 * math.sqrt(1 / (4 * 400))
    assert abs(big - exact) < 4 * math.sqrt(1 / (4 * 4000))


def test_estimate_potential_charges_oracle_per_distinct_vertex():
    cls = FiniteTableClass((0, 1), [(0, 0), (0, 1), (1, 1)], "binary")
    ledger = QueryCostLedger()
    oracle = ConsistencyOracle(cls, ledger)
    gen = RandomStream(9).generator()
    membership = MembershipPredicate.from_oracle((0, 1), oracle.bind)
    estimate_potential(membership, 0, WalkParams(0.5, 6, 50), (gen,))
    # at most all 4 patterns of the 2-cube can be probed
    assert ledger.call_count <= 4
    assert ledger.total_cost == 2 * ledger.call_count


def test_estimate_potential_takes_a_start_code_on_the_predicates_points():
    membership = membership_from_set([(0, 0), (1, 0)], 2)
    params = WalkParams(0.5, 6, 50)
    for start in (-1, 2**2):
        with pytest.raises(ContractViolation):
            estimate_potential(membership, start, params, (RandomStream(1).generator(),))
    # 64 points fill a uint64: a start with the top bit set walks in lockstep
    top = 1 << 63
    membership = MembershipPredicate(64, lambda code: code in (top, top | 1))
    gen = RandomStream(2).generator()
    estimate = estimate_potential(membership, top, WalkParams(0.5, 6, 512), (gen,))[0]
    assert 0.5**2 <= estimate <= 0.5


class _RecordingGenerator(np.random.Generator):
    """A generator that logs the size of each `integers` call."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(seed))
        self.sizes = []

    def integers(self, *args, size=None, **kwargs):
        self.sizes.append(size)
        return super().integers(*args, size=size, **kwargs)


_M = 6
_LOCKSTEP_CASES = {
    # the start lies outside the set: every rollout exits at t = 0, no draw
    "outside": ([unpack(c, _M) for c in range(2**_M) if bin(c).count("1") <= 2],
                pack((1, 1, 1, 0, 0, 0)), WalkParams(0.9, 40, 512), 3),
    # the ball of radius 1: rollouts exit within a few steps, the rows at
    # different steps
    "rows_empty_apart": ([unpack(c, _M) for c in range(2**_M) if bin(c).count("1") <= 1],
                         0, WalkParams(0.9, 40, 512), 8),
    # the whole cube: no rollout exits, every row draws until the horizon
    "full_cube": ([unpack(c, _M) for c in range(2**_M)], 0, WalkParams(0.7, 12, 600), 3),
    "one_row": ([unpack(c, _M) for c in range(2**_M) if c % 5 != 2], 0,
                WalkParams(0.8, 25, 700), 1),
}


@pytest.mark.parametrize("case", sorted(_LOCKSTEP_CASES))
def test_lockstep_rollouts_match_the_one_generator_reference(case):
    # each generator makes the reference's calls and ends in its state, and
    # gives its estimate exactly, whatever rows walk beside it
    inside, start, params, rows = _LOCKSTEP_CASES[case]
    assert params.trials >= oig._VECTOR_TRIALS
    gens = [_RecordingGenerator(seed) for seed in range(rows)]
    estimates = estimate_potential(membership_from_set(inside, _M), start, params, gens)
    assert len(estimates) == rows
    for seed, gen, estimate in zip(range(rows), gens, estimates):
        reference = _RecordingGenerator(seed)
        membership = membership_from_set(inside, _M)
        assert estimate == brute.vectorized_rollouts(start, membership, params, reference)
        assert gen.sizes == reference.sizes
        assert brute.same_generator_state(gen, reference)
    steps = [len(gen.sizes) for gen in gens]
    if case == "outside":
        assert estimates == [1.0] * rows and steps == [0] * rows
    elif case == "rows_empty_apart":
        assert len(set(steps)) > 1 and max(steps) < params.horizon
    elif case == "full_cube":
        assert estimates == [pytest.approx(params.gamma**params.horizon)] * rows
        assert [gen.sizes for gen in gens] == [[params.trials] * params.horizon] * rows


@pytest.mark.parametrize("m", [8, 26])
def test_batch_queries_match_per_code_memo(m):
    # m = 8 reads the dense table, m = 26 the per-batch sort above it
    assert 8 <= oig._TABLE_MAX_POINTS < 26
    gen = np.random.default_rng(m)
    pool = gen.integers(0, 2**m, size=40, dtype=np.uint64)
    inside = frozenset(pool[::3].tolist())
    evaluated = []

    def evaluate(code):
        evaluated.append(code)
        return code in inside

    membership = MembershipPredicate(m, evaluate)
    reference = MembershipPredicate(m, inside.__contains__)
    asked = set(pool[:6].tolist())
    for code in asked:  # already asked one code at a time
        membership.query_packed(code)
    for _ in range(5):
        codes = gen.choice(pool, size=200)  # repeated codes
        asked.update(codes.tolist())
        got = membership.query_packed_batch(codes)
        assert got.dtype == bool
        assert got.tolist() == [reference.query_packed(c) for c in codes.tolist()]
    # each distinct code asked is evaluated exactly once
    assert sorted(evaluated) == sorted(asked)


def test_exact_generating_function_worked_instances():
    values = exact_generating_function([(0,)], Fraction(1, 2))
    assert values == {(0,): Fraction(1, 3)}  # (1,) lies outside the set

    values2 = exact_generating_function([(0, 0), (0, 1)], Fraction(1, 2))
    assert values2 == {(0, 0): Fraction(1, 5), (0, 1): Fraction(1, 5)}
    assert exact_generating_function([], Fraction(1, 2)) == {}


def test_exact_generating_function_residuals_random():
    gen = np.random.default_rng(31)
    for _ in range(60):
        m = int(gen.integers(1, 8))
        size = int(gen.integers(1, min(12, 2**m) + 1))
        codes = gen.choice(2**m, size=size, replace=False)
        inside = [unpack(int(c), m) for c in codes]
        gamma = Fraction(int(gen.integers(30, 99)), 100)
        values = exact_generating_function(inside, gamma)
        assert recursion_residual(values, inside, gamma) <= 1e-10
        whole_cube = size == 2**m  # no exit exists, so the potential vanishes
        for v in inside:
            val = float(values[v])
            assert 0 <= val <= 1
            assert val > 0 or whole_cube


def test_float_solve_above_the_cutoff_matches_fraction_elimination():
    # one pattern past the exact solve's cutoff takes the floating solve
    gen = np.random.default_rng(37)
    m = 8
    size = oig._RATIONAL_CUTOFF + 16
    inside = [unpack(int(c), m) for c in gen.choice(2**m, size=size, replace=False)]
    gamma = Fraction(9, 10)
    approx = exact_generating_function(inside, gamma)
    reference = brute.rational_generating_function(inside, gamma, m)
    for v in inside:
        assert type(approx[v]) is float
        assert approx[v] == pytest.approx(float(reference[v]), abs=1e-12)


def _integer_matches_fraction_elimination(inside, gamma, m):
    solved = exact_generating_function(inside, gamma)
    reference = brute.rational_generating_function(inside, gamma, m)
    assert all(type(v) is Fraction for v in solved.values())
    assert solved == reference


@pytest.mark.parametrize(
    "inside, m",
    [
        ([(0, 1, 1)], 3),  # one pattern: every neighbour lies outside
        ([unpack(c, 3) for c in range(8)], 3),  # the full cube: no exit, all zero
        ([(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 1), (1, 1, 1, 0)], 4),  # two components
    ],
)
def test_integer_solve_matches_fraction_elimination(inside, m):
    for gamma in (lazy_discount(paper_default_params(m).gamma), Fraction(1, 2), Fraction(9, 10)):
        _integer_matches_fraction_elimination(inside, gamma, m)


def test_integer_solve_matches_fraction_elimination_on_interval_system():
    # the interval class on 0..127 projected onto 10 distinct points:
    # 1 + 10*11/2 = 56 patterns, the size of an m=10 flip-walk audit
    gen = np.random.default_rng(43)
    xs = [int(v) for v in gen.choice(128, size=10, replace=False)]
    inside = {tuple(1 if a <= x < b else 0 for x in xs) for a in range(129) for b in range(a, 129)}
    assert len(inside) == 56
    gamma = lazy_discount(paper_default_params(10).gamma)
    _integer_matches_fraction_elimination(inside, gamma, 10)


def test_flip_walk_reparametrization():
    # E[g^tau] for the flip walk equals the lazy generating function at 2g/(1+g)
    assert lazy_discount(Fraction(1, 2)) == Fraction(2, 3)
    gen = np.random.default_rng(41)
    m = 4
    codes = gen.choice(2**m, size=6, replace=False)
    inside = [unpack(int(c), m) for c in codes]
    g = Fraction(4, 5)
    lazy_table = exact_generating_function(inside, lazy_discount(g))
    for v in inside:
        horizon = 400  # truncation error g^400 is negligible
        dp = exact_truncated_flip_expectation(inside, v, float(g), horizon)
        assert dp == pytest.approx(float(lazy_table[v]), abs=1e-9)


def test_truncated_expectation_bias_bound():
    gen = np.random.default_rng(43)
    m = 5
    codes = gen.choice(2**m, size=8, replace=False)
    inside = [unpack(int(c), m) for c in codes]
    g = 0.9
    lazy_table = exact_generating_function(inside, lazy_discount(Fraction(9, 10)))
    for v in inside:
        for horizon in (5, 20, 60):
            dp = exact_truncated_flip_expectation(inside, v, g, horizon)
            assert abs(dp - float(lazy_table[v])) <= g**horizon + 1e-12


def test_default_horizon_inequality():
    for gamma in (0.5, 0.8, 0.95, 0.99):
        L = default_horizon(gamma)
        assert gamma**L <= (1 - gamma) / (32 * math.e) + 1e-15
        assert gamma ** (L - 1) > (1 - gamma) / (32 * math.e)


def test_estimate_potential_double_run_determinism():
    m = 4
    inside = [unpack(c, m) for c in range(16) if c % 3 != 1]
    pred = membership_from_set(inside, m)
    for trials in (100, 600):  # both execution paths
        a = estimate_potential(
            pred, 0, WalkParams(0.8, 15, trials), (RandomStream(11).child(5).generator(),)
        )[0]
        b = estimate_potential(
            pred, 0, WalkParams(0.8, 15, trials), (RandomStream(11).child(5).generator(),)
        )[0]
        assert a == b
