"""Brute-force cross-check battery behind the `oig selftest` subcommand.

Each check pits an analytic oracle or a randomized estimator against exhaustive
enumeration on small random instances and prints one pass/fail line.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import permutations

import numpy as np

from . import brute
from .classes import FiniteTableClass, HPrimeClass, MarginThresholdClass
from .core import STAR, RandomStream, Sample, loss_abs, loss_bin, pack, unpack
from .ermred import sample_erm_binary
from .oig import (
    MembershipPredicate,
    WalkParams,
    estimate_potential,
    exact_generating_function,
    lazy_discount,
)
from .oracle import ConsistencyOracle, ErmValueOracle, QueryCostLedger, RangeConsistencyOracle
from .pipelines import menu_consistency_oracle, threshold_consistency_oracle, threshold_grid
from .weak import context_oracles, paper_default_params, transductive_error


def _random_binary_table(gen, num_points=4, num_hyps=6, star_rate=0.15) -> FiniteTableClass:
    rows = set()
    while len(rows) < num_hyps:
        row = tuple(
            STAR if gen.random() < star_rate else int(gen.integers(0, 2))
            for _ in range(num_points)
        )
        rows.add(row)
    return FiniteTableClass(tuple(range(num_points)), sorted(rows, key=str), "binary")


def _check_finite_oracles(gen) -> bool:
    for _ in range(200):
        cls = _random_binary_table(gen)
        n = int(gen.integers(1, 6))
        xs = tuple(int(v) for v in gen.integers(0, len(cls.domain), size=n))
        ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        sample = Sample(zip(xs, ys))
        analytic = cls.consistent_on(xs, ys)
        enumerated = any(
            all(cls.value_at(i, x) == y for x, y in sample)
            for i in range(len(cls.table))
        )
        if analytic != enumerated:
            return False
        value, _ = brute.brute_erm(cls, sample, loss_bin)
        if cls.erm_value_on(xs, ys) != value:
            return False
        if analytic != (value == 0):
            return False
    return True


_TABLE_LABELS = {
    "binary": (0, 1, STAR),
    "multiclass": (1, 2, 3, 4),
    "real": tuple(Fraction(k, 4) for k in range(5)),
}


def _check_table_kernel(gen) -> bool:
    """consistent_on, the bound kernel on a random code and project_onto
    against brute.table_patterns' row scan, on random binary (with STAR),
    multiclass and real tables.  Queries repeat points, so some duplicates
    carry conflicting labels; they include the empty query and labels that no
    row of a column carries."""
    for kind, labels in _TABLE_LABELS.items():
        query_labels = [v for v in labels if v is not STAR]
        for _ in range(60):
            points = int(gen.integers(1, 6))
            rows = {
                tuple(labels[int(i)] for i in gen.integers(0, len(labels), size=points))
                for _ in range(int(gen.integers(1, 9)))
            }
            if kind == "multiclass":
                rows = {tuple(min(v, 3) for v in row) for row in rows}  # label 4 is in no row
            cls = FiniteTableClass(tuple(range(points)), sorted(rows, key=str), kind, num_classes=4)
            for _ in range(10):
                n = int(gen.integers(0, 7))
                xs = tuple(int(v) for v in gen.integers(0, points, size=n))
                ys = tuple(query_labels[int(i)] for i in gen.integers(0, len(query_labels), size=n))
                patterns = brute.table_patterns(cls, xs)
                if cls.project_onto(xs) != patterns:
                    return False
                if cls.consistent_on(xs, ys) != (ys in patterns):
                    return False
                code = int(gen.integers(0, 2**n))
                if cls.bind_consistency(xs)(code) != (unpack(code, n) in patterns):
                    return False
            if cls.consistent_on((0, 0), tuple(query_labels[:2])):
                return False
    return True


def _check_margin_threshold(gen) -> bool:
    """consistent_on, the bound kernel, erm_value_on and project_onto against
    a table materialized from label_of, on a regular and an irregular grid.
    The points lie exactly at t +- margin and on the grid, below the first
    threshold and above the last, below 0, over a denominator coprime to the
    grid's, and are given as int, string and float."""
    regular = MarginThresholdClass.regular(0, Fraction(1, 20), 21, Fraction(1, 10))
    irregular = MarginThresholdClass(["-1/4", 0, "2/9", "1/2", "5/7", 1], "1/12")
    for cls in (regular, irregular):
        first, last = cls.grid[0], cls.grid[-1]
        points = tuple(dict.fromkeys([
            -1, 0, 1, 3, "2/7", "-3/8", 0.35, -0.15,
            first - cls.margin - 1, last + cls.margin + 1,
            *(t + d for t in cls.grid for d in (-cls.margin, 0, cls.margin)),
            *(Fraction(k, 13) for k in range(-3, 17)),
        ]))
        table = brute.materialize_thresholds(cls, points)
        for _ in range(200):
            n = int(gen.integers(1, 6))
            xs = tuple(points[int(i)] for i in gen.integers(0, len(points), size=n))
            ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
            expected = table.consistent_on(xs, ys)
            if cls.consistent_on(xs, ys) != expected or cls.bind_consistency(xs)(pack(ys)) != expected:
                return False
            if cls.erm_value_on(xs, ys) != table.erm_value_on(xs, ys):
                return False
            if cls.project_onto(xs) != brute.table_patterns(table, xs):
                return False
    return True


def _check_threshold_sweep(gen) -> bool:
    """erm_value_on's sorted sweep against brute's scan of every threshold,
    with STAR labels and points on the band edges t +- margin."""
    cls = MarginThresholdClass.regular(0, Fraction(1, 20), 21, Fraction(1, 10))
    points = sorted({t + d for t in cls.grid for d in (-cls.margin, 0, cls.margin)})
    for _ in range(200):
        n = int(gen.integers(1, 31))
        xs = tuple(points[int(i)] for i in gen.integers(0, len(points), size=n))
        ys = tuple((0, 1, STAR)[int(i)] for i in gen.integers(0, 3, size=n))
        if cls.erm_value_on(xs, ys) != brute.threshold_erm_scan(cls, xs, ys, loss_bin):
            return False
    return True


def _check_hprime(gen) -> bool:
    cls = HPrimeClass(bound=80)
    window = list(range(1, 41))
    table = brute.materialize_hprime(cls, window)
    for _ in range(300):
        n = int(gen.integers(1, 5))
        xs = tuple(int(v) for v in gen.integers(1, 41, size=n))
        ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        if cls.consistent_on(xs, ys) != table.consistent_on(xs, ys):
            return False
    return True


def _check_recursion(gen) -> bool:
    for _ in range(50):
        m = int(gen.integers(2, 7))
        count = int(gen.integers(1, min(10, 2**m) + 1))
        codes = gen.choice(2**m, size=count, replace=False)
        inside = [unpack(int(c), m) for c in codes]
        gamma = 0.5 + 0.45 * gen.random()
        values = exact_generating_function(inside, Fraction(gamma).limit_denominator(1000))
        if brute.recursion_residual(values, inside, float(Fraction(gamma).limit_denominator(1000))) > 1e-10:
            return False
    return True


_SIMPLE_DISCOUNTS = (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10), Fraction(99, 100))


def _check_integer_solve(gen) -> bool:
    """The exact solve against brute's Gauss-Jordan elimination in fractions,
    on random subsets of the m-cube, at the flip-walk audit's discount (a
    float's exact value) and at simple rationals."""
    for m in range(1, 7):
        audit_discount = lazy_discount(paper_default_params(max(m, 2)).gamma)
        for _ in range(8):
            count = int(gen.integers(1, min(16, 2**m) + 1))
            inside = [unpack(int(c), m) for c in gen.choice(2**m, size=count, replace=False)]
            simple = _SIMPLE_DISCOUNTS[int(gen.integers(0, len(_SIMPLE_DISCOUNTS)))]
            for gamma in (audit_discount, simple):
                solved = exact_generating_function(inside, gamma)
                if solved != brute.rational_generating_function(inside, gamma, m):
                    return False
    return True


def _check_membership_table(gen) -> bool:
    """Batch answers from the dense table against one query_packed per code,
    on random vertex sets; some codes are asked through query_packed before
    the batches, and every distinct code must be evaluated exactly once."""
    for m in range(8, 13):
        for _ in range(6):
            count = int(gen.integers(1, 2**m // 4))
            inside = frozenset(int(c) for c in gen.choice(2**m, size=count, replace=False))
            evaluated = []

            def evaluate(code):
                evaluated.append(code)
                return code in inside

            membership = MembershipPredicate(m, evaluate)
            reference = MembershipPredicate(m, inside.__contains__)
            pool = gen.integers(0, 2**m, size=64, dtype=np.uint64)
            for code in pool[:8].tolist():
                membership.query_packed(code)
            for _ in range(4):
                codes = gen.choice(pool, size=256)  # repeated codes
                got = membership.query_packed_batch(codes)
                if got.tolist() != [reference.query_packed(c) for c in codes.tolist()]:
                    return False
            if len(evaluated) != len(set(evaluated)):
                return False
    return True


def _repeat_oracles(gen):
    """(handle, raw, pool of points) for a random binary table with STAR,
    margin thresholds, hprime, and the menu and threshold encodings over
    random multiclass and real tables.  handle(ledger) is the bind function
    the weak learner asks, and raw(ledger) a handle asked on labels: the
    class's own oracle, the explicit menu table, or the threshold encoding's
    query on labels.  Each charges the ledger it is given."""
    binary = _random_binary_table(gen)
    for cls, pool in (
        (binary, list(binary.domain)),
        (MarginThresholdClass.regular(0, Fraction(1, 20), 21, Fraction(1, 10)),
         [Fraction(k, 8) for k in range(9)]),
        (HPrimeClass(bound=80), [2, 3, 6, 7, 15, 21]),
    ):
        yield (lambda ledger, cls=cls: ConsistencyOracle(cls, ledger).bind,
               partial(ConsistencyOracle, cls), pool)
    rows = {tuple(int(v) for v in gen.integers(1, 4, size=3)) for _ in range(4)}
    multiclass = FiniteTableClass((0, 1, 2), sorted(rows), "multiclass", num_classes=3)
    menus = [(a, b) for a in range(1, 4) for b in range(1, 4) if a != b]
    yield (lambda ledger: menu_consistency_oracle(ConsistencyOracle(multiclass, ledger)),
           partial(ConsistencyOracle, brute.materialize_menu_class(multiclass)),
           [(x, menu) for x in range(3) for menu in menus])
    gamma = Fraction(1, 4)
    rows = {tuple(Fraction(int(v), 4) for v in gen.integers(0, 5, size=3)) for _ in range(4)}
    real = FiniteTableClass((0, 1, 2), sorted(rows), "real")
    yield (lambda ledger: threshold_consistency_oracle(RangeConsistencyOracle(real, ledger), gamma),
           lambda ledger: brute.threshold_query(RangeConsistencyOracle(real, ledger), gamma),
           [(x, tau) for x in range(3) for tau in threshold_grid(gamma)])


def _same_as_raw_path(membership, points, raw, ledgers, gen, asked, key) -> bool:
    """Every code, twice over in random order: the memo's answer against the
    raw path's.  A code that labels no repeated point both ways is asked of
    raw(ledgers[1]) once per key(labels) (the dict `asked`); after each code
    both ledgers must read the same, so the memo charges exactly when the raw
    path does.  Any other code must be False, from the memo without a charge
    and from the raw handle on a ledger of its own."""
    m = len(points)
    charged, aside = raw(ledgers[1]), raw(QueryCostLedger())
    for code in gen.permutation(2**m).tolist() * 2:
        ys = unpack(code, m)
        got = membership.query_packed(code)
        seen = {}
        if all(seen.setdefault(x, y) == y for x, y in zip(points, ys)):
            k = key(ys)
            if k not in asked:
                asked[k] = charged(points, ys)
            want = asked[k]
        elif aside(points, ys):
            return False
        else:
            want = False
        if got != want or ledgers[0].snapshot() != ledgers[1].snapshot():
            return False
    return True


def _check_repeated_points(gen) -> bool:
    """Membership answers on bound oracles against the raw handles', on
    point tuples with repeats, for every oracle kind: from_oracle's memo, and
    the memos of every leave-one-out context of one sample through
    `context_oracles`, whose raw path asks each labeling once in sample
    order."""

    def repeated_points(pool):
        m = int(gen.integers(2, 7))
        chosen = gen.choice(len(pool), size=min(len(pool), int(gen.integers(1, m))),
                            replace=False)
        return tuple(pool[int(chosen[i])] for i in gen.integers(0, len(chosen), size=m))

    for _ in range(6):
        for handle, raw, pool in _repeat_oracles(gen):
            for _ in range(4):
                points = repeated_points(pool)
                ledgers = (QueryCostLedger(), QueryCostLedger())
                membership = MembershipPredicate.from_oracle(points, handle(ledgers[0]))
                if not _same_as_raw_path(membership, points, raw, ledgers, gen, {},
                                         lambda ys: ys):
                    return False
            points = repeated_points(pool)
            ledgers = (QueryCostLedger(), QueryCostLedger())
            contexts = context_oracles(Sample((x, 0) for x in points), handle(ledgers[0]))
            asked = {}
            for i in range(len(points)):
                context = points[:i] + points[i + 1 :] + (points[i],)
                membership = MembershipPredicate.from_oracle(context, contexts(i))
                # the query point's label goes back to position i
                in_sample_order = lambda ys, i=i: ys[:i] + (ys[-1],) + ys[i:-1]
                if not _same_as_raw_path(membership, context, raw, ledgers, gen, asked,
                                         in_sample_order):
                    return False
    return True


def _check_order_free_answers(gen) -> bool:
    """A bound consistency answer against the answers to every reordering of
    its labeled points, on point tuples with repeats, for every oracle kind;
    transductive_error, whose contexts share answers keyed in sample order,
    against a fresh memo per prediction on small random tables."""
    for _ in range(4):
        for handle, _, pool in _repeat_oracles(gen):
            bind = handle(QueryCostLedger())
            for _ in range(3):
                m = int(gen.integers(2, 6))
                points = tuple(pool[int(i)] for i in gen.integers(0, len(pool), size=m))
                label = {x: int(gen.integers(0, 2)) for x in points}
                ys = [label[x] for x in points]
                # half the time one label flips, so a repeated point may carry both
                ys[int(gen.integers(0, m))] ^= int(gen.integers(0, 2))
                answer = bind(points)(pack(ys))
                for order in permutations(range(m)):
                    reordered = tuple(points[j] for j in order)
                    if bind(reordered)(pack([ys[j] for j in order])) != answer:
                        return False
    for n in (3, 5, 8):  # 8 points walk the lockstep engine
        params = paper_default_params(n)
        for _ in range(3):
            cls = _random_binary_table(gen, num_points=6, num_hyps=8)
            row = cls.table[int(gen.integers(0, len(cls.table)))]
            xs = [int(v) for v in gen.integers(0, 6, size=n)]
            sample = Sample(
                (x, row[x] if row[x] in (0, 1) else int(gen.integers(0, 2))) for x in xs
            )
            rng = RandomStream(int(gen.integers(0, 2**32)))
            bind = ConsistencyOracle(cls, QueryCostLedger()).bind
            shared = transductive_error(sample, params, bind, 3, rng)
            if shared != brute.fresh_memo_transductive_error(sample, params, bind, 3, rng):
                return False
    return True


def _check_lockstep_rollouts(gen) -> bool:
    """The lockstep rollout engine against brute's one-generator loop, on
    random vertex sets and starts (some outside the set, some sets the whole
    cube): each generator's estimate, and its state afterwards, must equal
    those of the reference run on a generator of the same seed."""
    for _ in range(24):
        m = int(gen.integers(6, 13))
        rows = int(gen.integers(1, 9))
        density = (0.3, 0.6, 0.9, 1.0)[int(gen.integers(0, 4))]
        inside = frozenset(np.flatnonzero(gen.random(2**m) < density).tolist())
        start = int(gen.integers(0, 2**m))
        params = WalkParams(0.5 + 0.45 * float(gen.random()), int(gen.integers(1, 30)),
                            int(gen.integers(512, 1025)))
        seeds = gen.integers(0, 2**32, size=rows).tolist()
        gens = [RandomStream(s).generator() for s in seeds]
        estimates = estimate_potential(MembershipPredicate(m, inside.__contains__), start,
                                       params, gens)
        for seed, lockstep_gen, estimate in zip(seeds, gens, estimates):
            reference_gen = RandomStream(seed).generator()
            reference = brute.vectorized_rollouts(
                start, MembershipPredicate(m, inside.__contains__), params, reference_gen
            )
            if estimate != reference:
                return False
            if not brute.same_generator_state(lockstep_gen, reference_gen):
                return False
    return True


def _check_abs_erm(gen) -> bool:
    """erm_value_on under loss_abs on real tables against brute's Fraction
    scan.  The table entries are k/4 or k/6 and the query labels have
    denominators 2 to 7, so some divide the table's common denominator and
    some do not; points repeat."""
    for _ in range(200):
        points = int(gen.integers(1, 6))
        table_dens = (4, 6)[: int(gen.integers(1, 3))]
        rows = {
            tuple(Fraction(int(gen.integers(0, d + 1)), d)
                  for d in gen.choice(table_dens, size=points).tolist())
            for _ in range(int(gen.integers(1, 9)))
        }
        cls = FiniteTableClass(tuple(range(points)), sorted(rows), "real")
        for _ in range(5):
            n = int(gen.integers(1, 11))
            xs = tuple(int(v) for v in gen.integers(0, points, size=n))
            ys = tuple(Fraction(int(gen.integers(0, d + 1)), d)
                       for d in gen.choice((2, 3, 4, 5, 6, 7), size=n).tolist())
            if cls.erm_value_on(xs, ys) != brute.table_erm_scan(cls, xs, ys, loss_abs):
                return False
    return True


def _check_erm_reduction(gen) -> bool:
    for _ in range(100):
        cls = _random_binary_table(gen, num_points=4, num_hyps=5)
        n = int(gen.integers(1, 6))
        xs = tuple(int(v) for v in gen.integers(0, 4, size=n))
        ys = tuple(int(v) for v in gen.integers(0, 2, size=n))
        sample = Sample(zip(xs, ys))
        ledger = QueryCostLedger()
        z = sample_erm_binary(sample, ErmValueOracle(cls, ledger))
        if ledger.call_count > n + 1:
            return False
        reference = ErmValueOracle(cls, QueryCostLedger())
        if z != brute.restarting_erm_binary(sample, reference):
            return False
        value, winners = brute.brute_erm(cls, sample, loss_bin)
        if Fraction(sum(z), n) != value:
            return False
        vectors = {
            tuple(loss_bin(y, cls.value_at(w, x)) for x, y in sample) for w in winners
        }
        if z not in vectors:
            return False
    return True


def _check_stream_generators(gen) -> bool:
    """Stream generators against numpy's SeedSequence path
    (`brute.reference_generator`) on 520 random streams built by `child`.
    Seeds are 0, below 2^32, within 2^16 of 2^64, and past 2^128, with more
    words than SeedSequence's pool.  Labels are 0, 2^32-1, 2^32, 2^64-1,
    negative ones (masked to 64 bits) and random ones of one and two words,
    at depths 0 to 8.  The keys, the whole states, the first 300 draws of
    `integers` and one `random()` must agree, and the stream rebuilt from
    (seed, path) must stand where numpy's does."""
    edges = (0, 2**32 - 1, 2**32, 2**64 - 1)
    for k in range(520):
        seed = (
            0,
            int(gen.integers(0, 2**32)),
            2**64 + int(gen.integers(-(2**16), 2**16)),
            (int(gen.integers(1, 2**40)) << 128) + int(gen.integers(0, 2**63)),
        )[k % 4]
        stream = RandomStream(seed)
        for _ in range(int(gen.integers(0, 9))):
            pick = int(gen.integers(0, 7))
            if pick < 4:
                label = edges[pick]
            elif pick == 4:
                label = -int(gen.integers(1, 2**63))
            elif pick == 5:
                label = int(gen.integers(0, 2**32))
            else:
                label = int(gen.integers(0, 2**64, dtype=np.uint64))
            stream = stream.child(label)
        mine, reference = stream.generator(), brute.reference_generator(stream)
        key = mine.bit_generator.state["state"]["key"]
        if not np.array_equal(key, reference.bit_generator.state["state"]["key"]):
            return False
        if not brute.same_generator_state(mine, reference):
            return False
        rebuilt = RandomStream(seed, stream.path).generator()
        if not brute.same_generator_state(rebuilt, reference):
            return False
        draws = mine.integers(0, 2**64, size=300, dtype=np.uint64)
        if not np.array_equal(draws, reference.integers(0, 2**64, size=300, dtype=np.uint64)):
            return False
        if mine.random() != reference.random():
            return False
    return True


CHECKS = (
    ("finite-table oracles vs enumeration", _check_finite_oracles),
    ("margin-threshold oracles vs materialized table", _check_margin_threshold),
    ("hprime consistency vs materialized window", _check_hprime),
    ("generating-function recursion residuals", _check_recursion),
    ("weak-ERM minimizer extraction vs restarting scan and enumeration", _check_erm_reduction),
    ("finite-table kernel vs row scan", _check_table_kernel),
    ("integer flip-walk solve vs fraction elimination", _check_integer_solve),
    ("threshold ERM sweep vs grid scan", _check_threshold_sweep),
    ("membership table vs per-code memo", _check_membership_table),
    ("real-table absolute-loss ERM vs Fraction scan", _check_abs_erm),
    ("lockstep rollouts vs one-generator rollouts", _check_lockstep_rollouts),
    ("repeated-point membership vs raw oracle", _check_repeated_points),
    ("consistency answers vs reordered queries; shared leave-one-out answers vs fresh memos",
     _check_order_free_answers),
    ("stream generators vs numpy SeedSequence", _check_stream_generators),
)


def run_selftest(seed: int = 20240817) -> int:
    gen = RandomStream(seed).generator()
    failures = 0
    for name, check in CHECKS:
        ok = check(gen)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1
    return failures
