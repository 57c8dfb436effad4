import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oiglearn.brute import (
    AUDIT_MAX_POINTS,
    exact_transductive_audit,
    fresh_memo_transductive_error,
    neighbors,
)
from oiglearn.classes import FiniteTableClass, MarginThresholdClass
from oiglearn.core import ContractViolation, RandomStream, Sample, unpack
from oiglearn.oig import exact_generating_function, lazy_discount
from oiglearn.oracle import ConsistencyOracle, QueryCostLedger
from oiglearn.weak import (
    WeakLearnerParams,
    edge_mass,
    paper_default_params,
    transductive_error,
    weak_realizable,
)


def _full_cube_class(m):
    return FiniteTableClass(tuple(range(m)), list(product((0, 1), repeat=m)), "binary")


def _oracle(cls):
    return ConsistencyOracle(cls, QueryCostLedger()).bind


def _spy(bind_handle, asked):
    """bind_handle, recording the points and labels of each answer it gives in asked."""

    def bind(points):
        answer = bind_handle(points)

        def ask(code):
            asked.append((points, unpack(code, len(points))))
            return answer(code)

        return ask

    return bind


def _interval_class(size):
    """Every interval [a, b) of the points 0..size-1, and the empty one."""
    rows = [(0,) * size] + [
        tuple(1 if a <= x < b else 0 for x in range(size))
        for a in range(size)
        for b in range(a + 1, size + 1)
    ]
    return FiniteTableClass(tuple(range(size)), rows, "binary")


def test_paper_default_params_clamps_small_m():
    p = paper_default_params(2, 1.0)
    assert p.gamma == 0.5  # raw formula lands below the floor
    assert p.lam == 1.0
    assert p.trials == math.ceil(4 * math.log(2) ** 3)
    with pytest.raises(ContractViolation):
        paper_default_params(1)


def test_paper_default_params_scaling():
    base = paper_default_params(16, 1.0)
    doubled = paper_default_params(16, 2.0)
    expected = math.ceil(2 * 16 * 16 * math.log(16) ** 3)
    assert doubled.trials == expected
    assert doubled.trials == math.ceil(2 * 16 * 16 * math.log(16) ** 3)
    # trials scale linearly in c1 (up to the ceilings)
    assert abs(doubled.trials - 2 * base.trials) <= 1
    # horizon obeys its defining inequality
    assert base.gamma ** base.horizon <= (1 - base.gamma) / (32 * math.e)


@pytest.mark.parametrize("c1", [0.5, 1.0, 2.0, 4.0])
def test_paper_default_discount_is_a_small_fraction(c1):
    for m in range(2, 257):
        p = paper_default_params(m, c1)
        formula = min(max(1 - 1 / (c1 * m * math.log(m)), 0.5), 1 - 1e-6)
        assert isinstance(p.gamma, Fraction) and 0 < p.gamma < 1
        assert p.gamma.denominator <= 2**16
        assert abs(p.gamma - Fraction(formula)) < 1e-7
        # the walks run at the float of the discount the audit solves at
        assert p.walk.gamma == float(p.gamma)


def test_paper_default_discount_rounds_then_clamps_at_the_ceiling():
    # 1 - 1/(c1*m*ln m) lies within 1e-6 of 1, and a denominator of at most
    # 2^16 rounds it to 1; the exact ceiling keeps it inside (0, 1)
    p = paper_default_params(2, 1e7)
    assert isinstance(p.gamma, Fraction) and 0 < p.gamma < 1
    assert p.gamma == Fraction(999999, 10**6)
    assert p.walk.gamma == float(p.gamma)


def test_audit_discount_stays_small():
    # the flip-walk audit solves at 2g/(1+g), whose denominator is at most p+q
    for n in range(2, AUDIT_MAX_POINTS + 1):
        assert lazy_discount(paper_default_params(n).gamma).denominator < 2**18


def test_weak_realizable_forced_by_consistency():
    cls = FiniteTableClass((0, 1, 2), [(0, 1, 0)], "binary")
    sample = Sample([(0, 0), (1, 1)])
    params = paper_default_params(3)
    for seed in range(10):
        pred = weak_realizable(sample, 2, params, _oracle(cls), (RandomStream(seed),))[0]
        assert pred.bit == 0  # the 1-completion is inconsistent
        assert pred.sigma_hat == 0.0
    # flipped convention: the 0-completion inconsistent returns 1
    cls1 = FiniteTableClass((0, 1, 2), [(0, 1, 1)], "binary")
    pred = weak_realizable(sample, 2, params, _oracle(cls1), (RandomStream(0),))[0]
    assert pred.bit == 1
    assert pred.sigma_hat == 1.0


def test_weak_realizable_answers_when_both_completions_are_rejected():
    # an unrealizable context: the rejected 0-completion answers 1, as it does
    # when only that completion is rejected, after both queries are charged
    cls = FiniteTableClass((0, 1), [(0, 0)], "binary")
    params = paper_default_params(2)
    ledger = QueryCostLedger()
    oracle = ConsistencyOracle(cls, ledger)
    pred = weak_realizable(Sample([(0, 1)]), 1, params, oracle.bind, (RandomStream(0),))[0]
    assert (pred.bit, pred.sigma_hat) == (1, 1.0)
    assert ledger.snapshot() == (4, 2)  # two queries of two points each


def test_weak_realizable_lambda_zero_is_fair_coin():
    cls = _full_cube_class(3)
    sample = Sample([(0, 0), (1, 1)])
    params = WeakLearnerParams(gamma=0.5, lam=0.0, trials=4, horizon=4)
    bits = []
    for seed in range(400):
        pred = weak_realizable(sample, 2, params, _oracle(cls), (RandomStream(seed),))[0]
        assert pred.sigma_hat == 0.5
        bits.append(pred.bit)
    mean = np.mean(bits)
    assert abs(mean - 0.5) < 5 * math.sqrt(0.25 / 400)


def test_weak_realizable_determinism():
    cls = MarginThresholdClass.regular(0, Fraction(1, 20), 21, Fraction(1, 10))
    sample = Sample([(Fraction(1, 10), 0), (Fraction(9, 10), 1)])
    params = paper_default_params(3)
    stream = RandomStream(77).child(3)
    first = weak_realizable(sample, Fraction(1, 2), params, _oracle(cls), (stream,))[0]
    second = weak_realizable(sample, Fraction(1, 2), params, _oracle(cls), (stream,))[0]
    assert first == second


def test_prediction_charges_at_most_the_projection_and_its_boundary():
    # one memo per prediction charges each vertex once; the walks stay in the
    # projection W and stop at its outer boundary dW, and both feasibility
    # queries land in W or dW, so one prediction makes at most |W u dW| calls
    cls = _interval_class(16)
    gen = np.random.default_rng(41)
    for m in range(2, 7):
        params = paper_default_params(m)
        for k in range(40):
            xs = [int(v) for v in gen.integers(0, 16, size=m + 1)]  # repeats allowed
            a, b = sorted(int(v) for v in gen.integers(0, 17, size=2))
            context = Sample((v, int(a <= v < b)) for v in xs[:m])
            ledger = QueryCostLedger()
            weak_realizable(
                context, xs[m], params, ConsistencyOracle(cls, ledger).bind,
                (RandomStream(k).child(m),),
            )
            inside = cls.project_onto(xs)
            boundary = {w for v in inside for w in neighbors(v)} - inside
            assert ledger.snapshot()[1] <= len(inside) + len(boundary), (context, xs[m])


def _labels_a_repeated_point_both_ways(xs, ys) -> bool:
    seen = {}
    return any(seen.setdefault(x, y) != y for x, y in zip(xs, ys))


def test_no_query_labels_a_repeated_point_both_ways():
    # such a vertex is unrealizable for every class, so the membership memo
    # answers it without the oracle, in single predictions and in the
    # leave-one-out walks alike
    queries = []
    oracle = _spy(_oracle(_interval_class(16)), queries)
    gen = np.random.default_rng(47)
    for m in range(2, 7):
        params = paper_default_params(m)
        for k in range(20):
            xs = [int(v) for v in gen.integers(0, 8, size=m + 1)]  # repeats likely
            a, b = sorted(int(v) for v in gen.integers(0, 17, size=2))
            context = Sample((v, int(a <= v < b)) for v in xs[:m])
            weak_realizable(context, xs[m], params, oracle, (RandomStream(k).child(m),))
    n = 8
    params = paper_default_params(n)
    for k in range(3):
        xs = [int(v) for v in gen.integers(0, 16, size=n)]
        a, b = sorted(int(v) for v in gen.integers(0, 17, size=2))
        sample = Sample((v, int(a <= v < b)) for v in xs)
        transductive_error(sample, params, oracle, 2, RandomStream(k).child(n))
    assert any(len(set(xs)) < len(xs) for xs, _ in queries)
    assert not any(_labels_a_repeated_point_both_ways(xs, ys) for xs, ys in queries)


def test_transductive_error_asks_each_labeled_set_once_per_sample():
    # the contexts share one answer dict keyed in sample order and keep every
    # random draw, so the error equals the fresh-memo reference exactly; every
    # query is one labeling of the sample's points, asked at most once, and
    # in W u dW of the sample's projection, so one sample's charges are at
    # most |W u dW|
    cls = _interval_class(32)
    gen = np.random.default_rng(43)
    n, reps = 8, 20
    params = paper_default_params(n)
    assert params.trials >= 512  # the vectorized rollout engine
    for k in range(10):
        xs = [int(v) for v in gen.integers(0, 32, size=n)]  # repeats allowed
        a, b = sorted(int(v) for v in gen.integers(0, 33, size=2))
        sample = Sample((v, int(a <= v < b)) for v in xs)
        rng = RandomStream(k).child(n)
        ledger = QueryCostLedger()
        queries = []
        oracle = _spy(ConsistencyOracle(cls, ledger).bind, queries)
        err = transductive_error(sample, params, oracle, reps, rng)
        assert err == fresh_memo_transductive_error(sample, params, _oracle(cls), reps, rng)
        asked = [tuple(sorted(zip(qxs, qys))) for qxs, qys in queries]
        assert len(asked) == len(set(asked)) == ledger.snapshot()[1], sample
        inside = cls.project_onto(sample.xs)
        boundary = {w for v in inside for w in neighbors(v)} - inside
        assert ledger.snapshot()[1] <= len(inside) + len(boundary), sample


def test_transductive_error_singleton_is_zero():
    cls = FiniteTableClass((0, 1, 2), [(1, 0, 1)], "binary")
    sample = Sample([(0, 1), (1, 0), (2, 1)])
    params = paper_default_params(3)
    err = transductive_error(sample, params, _oracle(cls), reps=5, rng=RandomStream(3))
    assert err == 0.0


def test_transductive_error_full_cube_is_half():
    cls = _full_cube_class(4)
    sample = Sample([(i, 0) for i in range(4)])
    params = paper_default_params(4)
    err = transductive_error(sample, params, _oracle(cls), reps=100, rng=RandomStream(5))
    sigma = math.sqrt(0.25 / 400)
    assert abs(err - 0.5) < 5 * sigma


def test_audit_orients_edges_by_edge_mass():
    # the audit's mass on the truth vertex is the learner's orientation
    # formula on the exact potentials: edge_mass(f1, f0, lam) on the
    # 1-completion, so its complement edge_mass(f0, f1, lam) on the 0-completion
    # the edge leans toward the endpoint with the lower potential
    assert edge_mass(Fraction(1, 4), Fraction(3, 4), Fraction(1, 2)) == Fraction(5, 8)
    cls = MarginThresholdClass.regular(0, Fraction(1, 30), 31, Fraction(1, 20))
    points = tuple(Fraction(2 * k + 1, 16) for k in range(6))
    truth = tuple(1 if x > Fraction(1, 2) else 0 for x in points)
    sample = Sample(zip(points, truth))
    inside = cls.project_onto(points)
    gamma, lam = Fraction(95, 100), Fraction(1, 2)
    values = exact_generating_function(inside, gamma)
    audit = exact_transductive_audit(cls, sample, gamma, lam, walk="lazy")
    live = 0
    for i, mass in enumerate(audit.edge_mass_on_truth):
        y0 = truth[:i] + (0,) + truth[i + 1 :]
        y1 = truth[:i] + (1,) + truth[i + 1 :]
        if (y0 if truth[i] else y1) not in inside:
            assert mass is None
            continue
        live += 1
        f0, f1 = values[y0], values[y1]
        on_one, on_zero = edge_mass(f1, f0, lam), edge_mass(f0, f1, lam)
        assert on_one + on_zero == 1
        assert mass == float(on_one if truth[i] else on_zero)
    assert live == 2  # the last 0 and the first 1 can each flip


def test_exact_potential_margin_bound():
    # with exact potentials the expected LOO loss obeys the orientation bound
    cls = MarginThresholdClass.regular(0, Fraction(1, 40), 41, Fraction(1, 40))
    points = tuple(Fraction(2 * k + 1, 20) for k in range(10))
    truth = tuple(1 if x > Fraction(1, 2) else 0 for x in points)
    sample = Sample(zip(points, truth))
    gamma = Fraction(19, 20)
    audit = exact_transductive_audit(cls, sample, gamma, 1, walk="lazy")
    assert audit.loo_error <= 0.5 - (1 - float(gamma)) * audit.min_potential + 1e-9


def test_weak_learner_beats_coin_on_thresholds():
    cls = MarginThresholdClass.regular(0, Fraction(1, 50), 51, Fraction(1, 50))
    points = tuple(Fraction(2 * k + 1, 24) for k in range(12))
    truth = tuple(1 if x > Fraction(1, 2) else 0 for x in points)
    sample = Sample(zip(points, truth))
    params = paper_default_params(len(sample), 1.0)
    err = transductive_error(sample, params, _oracle(cls), reps=60, rng=RandomStream(13))
    assert err < 0.5


def test_loo_distributional_error_singleton_is_zero():
    cls = FiniteTableClass((0, 1, 2), [(1, 0, 1)], "binary")
    from oiglearn.core import FiniteDistribution
    from oiglearn.brute import loo_distributional_error

    dist = FiniteDistribution.uniform([(0, 1), (1, 0), (2, 1)])
    params = paper_default_params(3)
    err = loo_distributional_error(dist, 3, params, _oracle(cls), reps=20, rng=RandomStream(31))
    assert err == 0.0


def test_loo_distributional_error_point_mass_degenerates():
    # support on one (x, y): every draw is the constant sample, so the
    # distributional error equals the m-sample transductive error of it
    from oiglearn.core import FiniteDistribution
    from oiglearn.brute import loo_distributional_error

    cls = _full_cube_class(3)
    dist = FiniteDistribution.uniform([(0, 1)])
    params = WeakLearnerParams(gamma=0.5, lam=1.0, trials=3, horizon=4)
    m = 3
    loo = loo_distributional_error(dist, m, params, _oracle(cls), reps=600, rng=RandomStream(33))
    constant = Sample([(0, 1)] * m)
    trans = transductive_error(constant, params, _oracle(cls), reps=600, rng=RandomStream(35))
    sigma = math.sqrt(0.25 / 600)
    assert abs(loo - trans) < 5 * sigma * 2


def test_loo_equals_expected_transductive():
    # exchangeability: E_{S ~ P^m}[transductive error] equals the
    # distributional leave-one-out error; both estimated by Monte Carlo
    from oiglearn.core import FiniteDistribution
    from oiglearn.brute import loo_distributional_error

    cls = MarginThresholdClass.regular(0, Fraction(1, 16), 17, Fraction(1, 32))
    support = [
        (Fraction(2 * j + 1, 12), 1 if Fraction(2 * j + 1, 12) > Fraction(1, 2) else 0)
        for j in range(6)
    ]
    dist = FiniteDistribution.uniform(support)
    params = paper_default_params(4, 1.0)
    m = 4
    reps = 4000
    loo = loo_distributional_error(dist, m, params, _oracle(cls), reps=reps, rng=RandomStream(37))
    total = 0.0
    outer = 400
    for k in range(outer):
        stream = RandomStream(39).child(k)
        sample = dist.draw(stream.child(0).generator(), m)
        total += transductive_error(sample, params, _oracle(cls), reps=3, rng=stream.child(1))
    expected = total / outer
    # both sides are in [0,1]; 5-sigma Monte-Carlo band on the difference
    sigma = math.sqrt(0.25 / reps + 0.25 / (outer * 3 * m))
    assert abs(loo - expected) < 5 * sigma


def test_weak_realizable_double_run_determinism_100_configs():
    gen = np.random.default_rng(41)
    for trial in range(100):
        m_ctx = int(gen.integers(1, 5))
        width = m_ctx + 1
        rows = set()
        want = min(int(gen.integers(1, 9)), 2**width)
        while len(rows) < want:
            rows.add(tuple(int(v) for v in gen.integers(0, 2, size=width)))
        cls = FiniteTableClass(tuple(range(width)), sorted(rows), "binary")
        truth = sorted(rows)[int(gen.integers(0, len(rows)))]
        sample = Sample(list(enumerate(truth[:m_ctx])))
        params = WeakLearnerParams(
            gamma=0.5 + 0.4 * float(gen.random()),
            lam=float(gen.random()),
            trials=int(gen.integers(1, 8)),
            horizon=int(gen.integers(1, 8)),
        )
        stream = RandomStream(5000 + trial)
        first = weak_realizable(sample, m_ctx, params, _oracle(cls), (stream,))[0]
        second = weak_realizable(sample, m_ctx, params, _oracle(cls), (stream,))[0]
        assert first == second
