"""Acceptance suite: one test per release criterion, each printing a PASS line.

Statistical criteria run at fixed seeds with the tolerances stated in the
assertions; exact criteria enumerate.  Shared fixture-style helpers build the
margin-threshold instance (50 thresholds at odd multiples of 1/100, abstention
half-width 1/200) used by the learning-pipeline criteria.
"""

import io
import math
import os
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from oiglearn.boost import adaboost_train
from oiglearn.brute import (
    brute_erm,
    distribution_opt,
    exact_transductive_audit,
    exact_truncated_flip_expectation,
    fat_shattering,
    materialize_menu_class,
    materialize_threshold_class,
    materialize_hprime,
    membership_from_set,
    menu_project,
    natarajan_dimension,
    recursion_residual,
    vc_dimension,
)
from oiglearn.classes import FiniteTableClass, HPrimeClass, MarginThresholdClass
from oiglearn.core import (
    FiniteDistribution,
    RandomStream,
    Sample,
    loss_abs,
    loss_bin,
    loss_mc,
    pack,
    unpack,
)
from oiglearn.harness import ExperimentConfig, build_distribution, emit_report, run_experiment
from oiglearn.ermred import sample_con_real, sample_erm_binary, sample_erm_real
from oiglearn.oig import (
    WalkParams,
    default_horizon,
    estimate_potential,
    exact_generating_function,
)
from oiglearn.oracle import (
    ConsistencyOracle,
    ErmValueOracle,
    QueryCostLedger,
    RangeConsistencyOracle,
)
from oiglearn.pipelines import (
    WeakSpec,
    decode_multiclass,
    fit_multiclass_realizable,
    fit_realizable_partial,
    fit_reg_agnostic,
    fit_reg_realizable,
    make_weak_learner,
)
from oiglearn.weak import paper_default_params, transductive_error

SEED = 20240817


def _report(number, text):
    print(f"ACCEPTANCE {number:>2}: PASS  {text}")


def _random_pattern_set(gen, m, size):
    codes = gen.choice(2**m, size=size, replace=False)
    return [unpack(int(c), m) for c in codes]


def _threshold_class():
    # 50 thresholds at odd multiples of 1/100; half-width 1/200 keeps every
    # gap between adjacent sample points realizably splittable
    return MarginThresholdClass.regular(Fraction(1, 100), Fraction(1, 50), 50, Fraction(1, 200))


def _threshold_support(boundary=Fraction(1, 2)):
    return [
        (Fraction(2 * j + 1, 64), 1 if Fraction(2 * j + 1, 64) > boundary else 0)
        for j in range(32)
    ]


THRESHOLD_CLASS_SPEC = {
    "kind": "margin_threshold",
    "grid": ["1/100", "1/50", 50],
    "margin": "1/200",
}


def test_criterion_01_generating_function_recursion():
    started = time.perf_counter()
    values = exact_generating_function([(0,)], Fraction(1, 2))
    assert values == {(0,): Fraction(1, 3)}
    values = exact_generating_function([(0, 0), (0, 1)], Fraction(1, 2))
    assert values == {(0, 0): Fraction(1, 5), (0, 1): Fraction(1, 5)}
    gen = np.random.default_rng(SEED)
    for _ in range(100):
        m = int(gen.integers(1, 11))
        size = int(gen.integers(1, min(40, 2**m) + 1))
        inside = _random_pattern_set(gen, m, size)
        gamma = Fraction(int(gen.integers(40, 99)), 100)
        solved = exact_generating_function(inside, gamma)
        assert recursion_residual(solved, inside, gamma) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"recursion residuals <= 1e-10 on 100 instances + worked rationals ({elapsed:.1f}s)")


def test_criterion_02_monte_carlo_fidelity():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED + 1)
    worst = 0.0
    for k in range(30):
        m = int(gen.integers(2, 9))
        size = int(gen.integers(1, 2**m + 1))
        inside = _random_pattern_set(gen, m, size)
        start = inside[int(gen.integers(0, len(inside)))]
        gamma = 0.5 + 0.49 * float(gen.random())
        horizon = min(default_horizon(gamma), 400)
        membership = membership_from_set(inside, m)
        estimate = estimate_potential(
            membership, pack(start), WalkParams(gamma, horizon, 100_000),
            (RandomStream(SEED + 1).child(k).generator(),),
        )[0]
        exact = exact_truncated_flip_expectation(inside, start, gamma, horizon)
        worst = max(worst, abs(estimate - exact))
        assert abs(estimate - exact) <= 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(2, f"estimator within 0.01 of exact truncated expectation, worst {worst:.4f} ({elapsed:.1f}s)")


def test_criterion_03_out_degree_bound():
    gen = np.random.default_rng(SEED + 2)
    for trial in range(100):
        m = int(gen.integers(2, 11))
        size = min(int(gen.integers(1, 33)), 2**m)
        rows = set(_random_pattern_set(gen, m, size))
        cls = FiniteTableClass(tuple(range(m)), sorted(rows), "binary")
        truth = sorted(rows)[int(gen.integers(0, len(rows)))]
        sample = Sample(list(enumerate(truth)))
        lam = (Fraction(1, 2), Fraction(1))[trial % 2]
        denom = math.ceil(m * math.log(max(m, 2))) + 1
        gamma = Fraction(denom - 1, denom)
        audit = exact_transductive_audit(cls, sample, gamma, lam, walk="lazy")
        assert audit.slack >= -1e-9
    _report(3, "orientation out-degree bound slack nonnegative on 100 instances")


def test_criterion_04_min_potential_bound():
    gen = np.random.default_rng(SEED + 3)
    floor = 1 / (4 * math.e)
    worst = 1.0
    for m in (10, 12):
        k = math.ceil(4 * m * math.log(m))
        gamma = Fraction(k - 1, k)  # 1/(1-gamma) equals the ceiling exactly
        cap = (2 ** (m - 2)) // m
        for trial in range(50):
            if trial % 2 == 0:
                size = int(gen.integers(1, cap + 1))
                inside = _random_pattern_set(gen, m, size)
            else:
                # clustered variant: a Hamming ball fragment stresses longer exits
                center = int(gen.integers(0, 2**m))
                ball = [center] + [center ^ (1 << j) for j in range(m)]
                ball += [center ^ (1 << i) ^ (1 << j) for i in range(m) for j in range(i + 1, m)]
                inside = [unpack(c, m) for c in dict.fromkeys(ball)][:cap]
            solved = exact_generating_function(inside, gamma)
            low = min(float(solved[v]) for v in inside)
            worst = min(worst, low)
            assert low >= floor - 1e-9
    _report(4, f"min potential {worst:.4f} >= 1/(4e) = {floor:.4f} at m in {{10, 12}}")


def test_criterion_05_weak_learning_margin():
    started = time.perf_counter()
    cls = _threshold_class()
    m = 24
    points = [Fraction(2 * k + 1, 2 * m) for k in range(m)]
    boundary = Fraction(1, 3)
    sample = Sample((x, 1 if x > boundary else 0) for x in points)
    params = paper_default_params(m, 1.0)
    measured = transductive_error(
        sample, params, ConsistencyOracle(cls, QueryCostLedger()).bind,
        reps=200, rng=RandomStream(SEED),
    )
    audit = exact_transductive_audit(cls, sample, params.gamma, 1.0, walk="flip")
    assert measured <= 0.5 - 0.002
    assert measured <= audit.loo_error + 0.01
    elapsed = time.perf_counter() - started
    _report(5, f"transductive error {measured:.4f} <= 0.498 and <= exact {audit.loo_error:.4f} + 0.01 ({elapsed:.0f}s)")


def test_criterion_06_boosting_training_error():
    started = time.perf_counter()
    cls = _threshold_class()
    dist = FiniteDistribution.uniform(_threshold_support())
    n, delta, m = 40, 0.2, 3
    eta = 1 / (m * math.log(m))
    rounds = math.ceil(16 * math.log(2 * n / delta) / eta**2)
    spec = WeakSpec(m=m)
    zero = 0
    runs = 50
    for run in range(runs):
        stream = RandomStream(SEED + 6).child(run)
        sample = dist.draw(stream.child(0).generator(), n)
        oracle = ConsistencyOracle(cls, QueryCostLedger())
        learner = make_weak_learner(spec.learner_params(), oracle.bind)
        model = adaboost_train(sample, learner, m, rounds, stream.child(1))
        zero += model.train_error == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    assert zero >= 0.8 * runs
    _report(6, f"zero training error in {zero}/{runs} boosted runs, T={rounds} ({elapsed:.0f}s)")


def test_criterion_07_realizable_partial_end_to_end():
    config = ExperimentConfig.from_dict(
        {
            "class": THRESHOLD_CLASS_SPEC,
            "distribution": {"support": [[str(x), y] for x, y in _threshold_support()]},
            "pipeline": "realizable_partial",
            "n": 200,
            "m": 3,
            "delta": 0.2,
            "trials": 25,
            "seed": SEED + 7,
        }
    )
    reports = run_experiment(config, measure_wall=False)
    hits = sum(r.test_err <= 0.15 for r in reports)
    worst_cost = max(r.query_cost for r in reports)
    assert hits >= 0.8 * len(reports)
    assert worst_cost <= 10**8
    _report(7, f"held-out error <= 0.15 in {hits}/25 runs, max query cost {worst_cost:.2e}")


def test_criterion_08_agnostic_partial_end_to_end():
    raw = {
        "class": THRESHOLD_CLASS_SPEC,
        "distribution": {
            "support": [[str(x), y] for x, y in _threshold_support()],
            "label_noise": "1/10",
        },
        "pipeline": "agnostic_partial",
        "n": 60,
        "m": 2,
        "delta": 0.2,
        "trials": 25,
        "seed": SEED + 8,
    }
    config = ExperimentConfig.from_dict(raw)
    noised = build_distribution(config)
    opt = float(distribution_opt(_threshold_class(), noised, loss_bin))
    reports = run_experiment(config, measure_wall=False)
    hits = sum(r.test_err <= opt + 0.15 for r in reports)
    assert hits >= 0.8 * len(reports)
    _report(8, f"held-out error <= opt({opt:.2f}) + 0.15 in {hits}/25 noisy runs")


def _random_binary_table(gen, points, max_hyps):
    want = min(int(gen.integers(1, max_hyps + 1)), 2**points)
    rows = set()
    while len(rows) < want:
        rows.add(tuple(int(v) for v in gen.integers(0, 2, size=points)))
    return FiniteTableClass(tuple(range(points)), sorted(rows), "binary")


def test_criterion_09_sample_erm_exactness():
    gen = np.random.default_rng(SEED + 9)
    # binary: the removal vector matches some enumerated minimizer exactly
    for _ in range(200):
        points = int(gen.integers(2, 7))
        cls = _random_binary_table(gen, points, 8)
        n = int(gen.integers(1, 9))
        sample = Sample(
            (int(gen.integers(0, points)), int(gen.integers(0, 2))) for _ in range(n)
        )
        ledger = QueryCostLedger()
        z = sample_erm_binary(sample, ErmValueOracle(cls, ledger))
        assert ledger.call_count <= 2 * n * n
        value, winners = brute_erm(cls, sample, loss_bin)
        assert Fraction(sum(z), n) == value
        vectors = {
            tuple(loss_bin(y, cls.value_at(w, x)) for x, y in sample) for w in winners
        }
        assert z in vectors
    # real: a minimizer of the original sample lies inside every pinned cell
    for _ in range(200):
        points = int(gen.integers(2, 5))
        rows = set()
        want = min(int(gen.integers(1, 6)), 9**points)
        while len(rows) < want:
            rows.add(tuple(Fraction(int(v), 8) for v in gen.integers(0, 9, size=points)))
        cls = FiniteTableClass(tuple(range(points)), sorted(rows), "real")
        n = int(gen.integers(1, 5))
        sample = Sample(
            (int(gen.integers(0, points)), Fraction(int(gen.integers(0, 9)), 8))
            for _ in range(n)
        )
        steps = int(gen.integers(2, 6))
        gamma = Fraction(1, steps)
        ledger = QueryCostLedger()
        out = sample_erm_real(sample, gamma, ErmValueOracle(cls, ledger))
        assert ledger.call_count <= n * steps + 4
        _, winners = brute_erm(cls, sample, loss_abs)
        assert any(
            all(lo <= cls.value_at(w, x) <= lo + gamma for (x, _), lo in zip(sample.pairs, out))
            for w in winners
        )
    # range consistency matches enumeration on every instance
    for _ in range(200):
        points = int(gen.integers(2, 5))
        rows = set()
        want = min(int(gen.integers(1, 6)), 9**points)
        while len(rows) < want:
            rows.add(tuple(Fraction(int(v), 8) for v in gen.integers(0, 9, size=points)))
        cls = FiniteTableClass(tuple(range(points)), sorted(rows), "real")
        triples = []
        for _ in range(int(gen.integers(1, 5))):
            lo, hi = sorted(int(v) for v in gen.integers(0, 9, size=2))
            triples.append((int(gen.integers(0, points)), Fraction(lo, 8), Fraction(hi, 8)))
        got = sample_con_real(triples, ErmValueOracle(cls, QueryCostLedger()))
        want_bool = cls.range_consistent_on(
            tuple(t[0] for t in triples),
            tuple(t[1] for t in triples),
            tuple(t[2] for t in triples),
        )
        assert got == want_bool
    _report(9, "weak-ERM reductions exact on 200 binary + 200 real + 200 range instances")


def _multiclass_instance():
    gen = np.random.default_rng(7)
    rows = set()
    while len(rows) < 7:
        rows.add(tuple(int(v) for v in gen.integers(1, 5, size=8)))
    cls = FiniteTableClass(tuple(range(8)), sorted(rows), "multiclass", num_classes=4)
    assert natarajan_dimension(cls) <= 2
    truth = cls.table[0]
    dist = FiniteDistribution.uniform([(i, truth[i]) for i in range(8)])
    return cls, dist


def test_criterion_10_multiclass_reduction():
    gen = np.random.default_rng(SEED + 10)
    # menu round trip: decoding the projected hypothesis recovers its label
    for _ in range(100):
        k = int(gen.integers(2, 7))
        label = int(gen.integers(1, k + 1))
        decoded = decode_multiclass(lambda x, menu: menu_project(label, menu), "pt", k)
        assert decoded == label
    # VC/Natarajan inequality with the explicit constant 2^d <= (K^2 e d / N)^N
    for _ in range(30):
        k = int(gen.integers(2, 5))
        points = int(gen.integers(2, 5))
        if points * k * (k - 1) > 32:
            points = max(2, 32 // (k * (k - 1)))
        want = min(int(gen.integers(1, 7)), k**points)
        rows = set()
        while len(rows) < want:
            rows.add(tuple(int(v) for v in gen.integers(1, k + 1, size=points)))
        base = FiniteTableClass(tuple(range(points)), sorted(rows), "multiclass", num_classes=k)
        d = vc_dimension(materialize_menu_class(base), check_growth=False)
        nat = natarajan_dimension(base)
        if d == 0:
            continue
        assert nat >= 1
        assert 2**d <= (k * k * math.e * d / nat) ** nat + 1e-9
    # end-to-end: K=4 table class of Natarajan dimension <= 2
    cls, dist = _multiclass_instance()
    hits = 0
    budget = 4 * 40**3  # oracle calls <= K * n^3
    worst_calls = 0
    for run in range(25):
        stream = RandomStream(SEED + 10).child(run)
        sample = dist.draw(stream.child(0).generator(), 40)
        ledger = QueryCostLedger()
        predictor = fit_multiclass_realizable(
            sample, 4, WeakSpec(m=2), eta=1 / (2 * math.log(2)), delta=0.2,
            con_oracle=ConsistencyOracle(cls, ledger), rng=stream.child(1),
        )
        err = float(dist.expected_loss(predictor.predict, loss_mc))
        hits += err <= 0.2
        worst_calls = max(worst_calls, ledger.call_count)
        assert ledger.call_count <= budget
    assert hits >= 0.8 * 25
    _report(10, f"menu round-trip + dimension bound + K=4 error <= 0.2 in {hits}/25 runs "
                f"(max {worst_calls} calls <= K*n^3 = {budget})")


def test_criterion_11_regression_reduction():
    gen = np.random.default_rng(SEED + 11)
    # threshold-class VC never exceeds the fat-shattering dimension
    for _ in range(30):
        points = int(gen.integers(2, 5))
        want = min(int(gen.integers(1, 7)), 7**points)
        rows = set()
        while len(rows) < want:
            rows.add(tuple(Fraction(int(v), 6) for v in gen.integers(0, 7, size=points)))
        base = FiniteTableClass(tuple(range(points)), sorted(rows), "real")
        gamma = Fraction(1, int(gen.integers(3, 6)))
        assert vc_dimension(materialize_threshold_class(base, gamma), check_growth=False) <= \
            fat_shattering(base, gamma)
    # realizable pipeline: training error <= 3*beta in at least 80% of runs
    rows = set()
    vgen = np.random.default_rng(9)
    while len(rows) < 5:
        rows.add(tuple(Fraction(int(v), 8) for v in vgen.integers(0, 9, size=6)))
    rcls = FiniteTableClass(tuple(range(6)), sorted(rows), "real")
    hstar = rcls.table[0]
    gamma = Fraction(1, 4)
    ok_realizable = 0
    for run in range(25):
        stream = RandomStream(SEED + 11).child(run)
        idx = stream.child(0).generator().integers(0, 6, size=12)
        sample = Sample((int(i), hstar[int(i)]) for i in idx)
        predictor = fit_reg_realizable(
            sample, WeakSpec(m=2), 1 / (2 * math.log(2)), 0.2, gamma, gamma,
            RangeConsistencyOracle(rcls, QueryCostLedger()), stream.child(1),
        )
        train = max(abs(predictor.predict(x) - y) for x, y in sample)
        ok_realizable += train <= 3 * gamma
    assert ok_realizable >= 0.8 * 25
    # agnostic pipeline under an exact interpolant: <= 6*gamma in every run
    ok_agnostic = 0
    for run in range(25):
        stream = RandomStream(SEED + 12).child(run)
        idx = stream.child(0).generator().integers(0, 6, size=10)
        sample = Sample((int(i), hstar[int(i)]) for i in idx)
        predictor = fit_reg_agnostic(
            sample, WeakSpec(m=2), 1 / (2 * math.log(2)), 0.2, gamma,
            ErmValueOracle(rcls, QueryCostLedger()), stream.child(1),
        )
        train = max(abs(predictor.predict(x) - y) for x, y in sample)
        ok_agnostic += train <= 6 * gamma
    assert ok_agnostic == 25
    _report(11, f"threshold VC <= fat dim; training error <= 3b in {ok_realizable}/25, "
                f"<= 6g in {ok_agnostic}/25")


def test_criterion_12_oracle_separation_class():
    started = time.perf_counter()
    cls = HPrimeClass(bound=4000)
    window = list(range(2, 61))
    table = materialize_hprime(cls, window)
    checked = 0
    for size in (1, 2, 3, 4):
        for xs in combinations(window, size):
            patterns = table.project_onto(xs)
            for ys in product((0, 1), repeat=size):
                assert cls.consistent_on(xs, ys) == (ys in patterns), (xs, ys)
                checked += 1
    small_window = materialize_hprime(cls, list(range(2, 31)))
    dim = vc_dimension(small_window, check_growth=False)
    assert dim <= 3
    elapsed = time.perf_counter() - started
    _report(12, f"consistency matches enumeration on all {checked} labelings; "
                f"window VC dim {dim} <= 3 ({elapsed:.0f}s)")


def test_criterion_13_determinism_byte_identical(monkeypatch):
    raw = {
        "class": THRESHOLD_CLASS_SPEC,
        "distribution": {"support": [[str(x), y] for x, y in _threshold_support()]},
        "pipeline": "realizable_partial",
        "n": 30,
        "m": 2,
        "delta": 0.2,
        "trials": 4,
        "seed": SEED + 13,
    }
    config = ExperimentConfig.from_dict(raw)
    outputs = []
    # with two usable CPUs, jobs 3 on 4 trials runs a pool of 2 processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for jobs in (1, 3, 1):
        reports = run_experiment(config, jobs=jobs, measure_wall=False)
        sink = io.StringIO()
        emit_report(reports, "csv", sink)
        outputs.append(sink.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 5
    _report(13, "repeated seeded runs byte-identical across parallelism levels")


def test_criterion_14_boosted_vote_beats_constants():
    # intervals are a VC-dimension-2 class with ambiguous points, so a weak
    # hypothesis is rarely perfect and boosting runs its rounds: this is the
    # gate that exercises reweighting, the multi-round vote and the
    # training-error <= prod Z bound (Freund & Schapire 1997) with the real
    # weak learner
    started = time.perf_counter()
    domain = range(16)
    rows = [(0,) * 16] + [
        tuple(1 if a <= x < b else 0 for x in domain) for a in domain for b in range(a + 1, 17)
    ]
    cls = FiniteTableClass(tuple(domain), rows, "binary")
    assert vc_dimension(cls) == 2
    dist = FiniteDistribution.uniform([(x, 1 if 5 <= x <= 10 else 0) for x in domain])
    runs, multi_round, test_errors = 10, 0, []
    for run in range(runs):
        stream = RandomStream(SEED + 14).child(run)
        sample = dist.draw(stream.child(0).generator(), 32)
        oracle = ConsistencyOracle(cls, QueryCostLedger())
        predictor = fit_realizable_partial(sample, WeakSpec(m=3), 2.0, 0.2, oracle, stream.child(1))
        model = predictor.model
        multi_round += len(model.rounds) > 1
        if not model.early_stop:
            assert float(model.train_error) <= model.z_product + 1e-9
        test_errors.append(dist.expected_loss(predictor.predict, loss_bin))
    mean_error = sum(test_errors) / runs
    elapsed = time.perf_counter() - started
    assert multi_round > runs // 2
    assert mean_error <= Fraction(1, 8)  # the best constant errs on 6/16
    _report(14, f"{multi_round}/{runs} boosted fits ran more than one round; mean held-out "
                f"error {float(mean_error):.4f} <= 1/8 ({elapsed:.1f}s)")
