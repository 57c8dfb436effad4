"""Independent brute-force reference oracles for tests and audits.

Everything here enumerates: table projections and ERM by row scans, the
combinatorial dimensions, and an exact orientation audit that recomputes the
one-inclusion out-degree of the ground-truth vertex from the solved generating
function.  Instance-size ceilings are hard contracts, not silent truncations.
The references the tests check the learner against live here too: the margin
thresholds and the hprime class on a finite window, and the menu and threshold
encodings, as explicit tables, and the threshold encoding as a query on
labels; membership over an explicit vertex set; the exact solve in fractions
and its recursion residual; the one-generator vectorized rollouts, which the
lockstep engine must match draw for draw; numpy's own derivation of a
stream's generator; the truncated flip-walk expectation by dynamic
programming; the restarting removal scan of minimizer extraction; and the
leave-one-out error on fresh draws, and on a sample with a fresh memo per
prediction.

Vertices here are 0/1 pattern tuples, flipped by `flip` and `neighbors`,
except where a reference stands beside a walk engine: `vectorized_rollouts`
starts from a packed code, as `oig.estimate_potential` does, and the
predicate of `membership_from_set` answers packed codes.

The audit is production code (`oig audit` and the diagnostic pipelines run
it).  It stays here because it looks up `exact_generating_function` in this
module's globals, which is where a tracer wraps the exact solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product

import numpy as np

from .classes import FiniteTableClass, HPrimeClass, MarginThresholdClass
from .core import (
    STAR,
    ContractViolation,
    FiniteDistribution,
    RandomStream,
    Sample,
    as_fraction,
    loss_bin,
    pack,
)
from .oig import MembershipPredicate, exact_generating_function, lazy_discount
from .pipelines import threshold_grid
from .weak import WeakLearnerParams, edge_mass, weak_realizable

_MAX_DOMAIN = 32
_MAX_TABLE = 2**16
# the most sample points `exact_transductive_audit` accepts; the audit
# pipelines reject larger n when their config is parsed
AUDIT_MAX_POINTS = 24


def table_patterns(concept_class: FiniteTableClass, xs) -> frozenset:
    """Reference projection of a finite table by a scan of every row: the
    star-free patterns the rows give on the point sequence."""
    cols = [concept_class._column(x) for x in xs]
    out = set()
    for row in concept_class.table:
        pattern = tuple(row[c] for c in cols)
        if STAR not in pattern:
            out.add(pattern)
    return frozenset(out)


def flip(v: tuple, i: int) -> tuple:
    """The 0/1 pattern v with coordinate i flipped (0-indexed)."""
    return v[:i] + (1 - v[i],) + v[i + 1 :]


def neighbors(v: tuple) -> list:
    return [flip(v, i) for i in range(len(v))]


def rational_generating_function(inside, gamma, m: int) -> dict:
    """Reference for the exact solve of `oig.exact_generating_function`: the
    lazy-walk recursion built in fractions and solved by Gauss-Jordan
    elimination.  Returns vertex -> value on the inside set."""
    vertices = sorted(set(tuple(v) for v in inside), key=pack)
    index = {v: i for i, v in enumerate(vertices)}
    g = as_fraction(gamma)
    diag = (2 - g) * m / g
    rows, rhs = [], []
    for i, v in enumerate(vertices):
        row = [Fraction(0)] * len(vertices)
        row[i] = diag
        outside = 0
        for w in neighbors(v):
            if w in index:
                row[index[w]] -= 1
            else:
                outside += 1
        rows.append(row)
        rhs.append(Fraction(outside))
    return dict(zip(vertices, _solve_rational(rows, rhs)))


def recursion_residual(values: dict, inside, gamma) -> float:
    """max over solved vertices of |m*M(v) - sum_i M(v^flip i) + m*2(1-g)/g*M(v)|,
    where M(v) is values[v], and 1 for a vertex missing from the dict."""
    g = float(gamma)
    worst = 0.0
    for v in inside:
        v = tuple(v)
        m = len(v)
        total = sum(float(values.get(w, 1)) for w in neighbors(v))
        here = float(values.get(v, 1))
        res = m * here - total + m * (2 * (1 - g) / g) * here
        worst = max(worst, abs(res))
    return worst


def _solve_rational(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with exact fractions and partial pivoting."""
    n = len(rows)
    a = [row[:] + [r] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise RuntimeError("singular recursion system; this should be impossible")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def threshold_erm_scan(concept_class: MarginThresholdClass, xs, ys, loss) -> Fraction:
    """Reference for `MarginThresholdClass.erm_value_on`: the summed loss of
    every grid threshold, point by point."""
    xs = [as_fraction(x) for x in xs]
    best = None
    for t in concept_class.grid:
        total = sum(loss(y, concept_class.label_of(t, x)) for x, y in zip(xs, ys))
        if best is None or total < best:
            best = total
            if best == 0:
                break
    return Fraction(best) / len(xs)


def table_erm_scan(concept_class: FiniteTableClass, xs, ys, loss) -> Fraction:
    """Reference for `FiniteTableClass.erm_value_on`: the least summed loss
    of any row, point by point in fractions, as a mean."""
    cols = [concept_class._column(x) for x in xs]
    best = min(sum(loss(y, row[c]) for y, c in zip(ys, cols)) for row in concept_class.table)
    return Fraction(best) / len(xs)


def _check_size(concept_class: FiniteTableClass):
    if len(concept_class.domain) > _MAX_DOMAIN or len(concept_class.table) > _MAX_TABLE:
        raise ContractViolation("instance too large for exhaustive search")


def vc_dimension(concept_class: FiniteTableClass, check_growth: bool = True) -> int:
    """Largest d with some d-point subset whose projection is the full cube.

    Along the way, every examined projection is checked against the growth
    bound |patterns| <= (e*m/d)^d for the final d.
    """
    _check_size(concept_class)
    domain = concept_class.domain
    max_d = min(len(domain), max(1, int(math.log2(len(concept_class.table)))) + 1)
    examined: list[tuple[int, int]] = []  # (subset size, pattern count)
    dim = 0
    for d in range(1, max_d + 1):
        shattered = False
        for xs in combinations(domain, d):
            patterns = concept_class.project_onto(xs)
            examined.append((d, len(patterns)))
            if len(patterns) == 2**d:
                shattered = True
                break
        if not shattered:
            break
        dim = d
    if check_growth and dim >= 1:
        for m, count in examined:
            if m >= dim:
                bound = (math.e * m / dim) ** dim
                assert count <= bound + 1e-9, f"growth bound violated: {count} > {bound}"
    return dim


def natarajan_dimension(concept_class: FiniteTableClass) -> int:
    """Largest d admitting witness vectors a != b coordinatewise whose mixed
    patterns all appear in the projection."""
    _check_size(concept_class)
    if concept_class.kind != "multiclass":
        raise ContractViolation("Natarajan dimension applies to multiclass tables")
    domain = concept_class.domain
    dim = 0
    max_d = min(len(domain), max(1, int(math.log2(len(concept_class.table)))) + 1)
    for d in range(1, max_d + 1):
        if not _natarajan_witness_exists(concept_class, d):
            break
        dim = d
    return dim


def _natarajan_witness_exists(concept_class, d) -> bool:
    for xs in combinations(concept_class.domain, d):
        patterns = concept_class.project_onto(xs)
        plist = sorted(patterns)
        for ai in range(len(plist)):
            for bi in range(ai + 1, len(plist)):
                a, b = plist[ai], plist[bi]
                if any(u == v for u, v in zip(a, b)):
                    continue
                if all(
                    tuple(a[i] if (mask >> i) & 1 == 0 else b[i] for i in range(d)) in patterns
                    for mask in range(2**d)
                ):
                    return True
    return False


def fat_shattering(concept_class: FiniteTableClass, gamma) -> int:
    """Fat-shattering dimension at scale gamma, witness levels restricted to
    the class's value grid and its midpoints (exact for grid-valued classes)."""
    _check_size(concept_class)
    if concept_class.kind != "real":
        raise ContractViolation("fat-shattering applies to real-valued tables")
    if len(concept_class.domain) > 12 or len(concept_class.table) > 64:
        raise ContractViolation("instance too large for fat-shattering search")
    gamma = as_fraction(gamma)
    domain = concept_class.domain
    dim = 0
    max_d = min(len(domain), max(1, int(math.log2(len(concept_class.table)))) + 1)
    for d in range(1, max_d + 1):
        if not _fat_witness_exists(concept_class, d, gamma):
            break
        dim = d
    return dim


def _level_candidates(concept_class, x) -> list[Fraction]:
    # any feasible witness interval [max_low + g, min_high - g] contains the
    # midpoint of a pair of class values, so pairwise midpoints are exhaustive
    values = sorted({row[concept_class._column(x)] for row in concept_class.table})
    mids = {(a + b) / 2 for i, a in enumerate(values) for b in values[i:]}
    return sorted(set(values) | mids)


def _fat_witness_exists(concept_class, d, gamma) -> bool:
    full = 2**d
    for xs in combinations(concept_class.domain, d):
        candidate_levels = [_level_candidates(concept_class, x) for x in xs]
        cols = [concept_class._column(x) for x in xs]
        rows = [[row[c] for c in cols] for row in concept_class.table]
        for levels in product(*candidate_levels):
            patterns = set()
            for row in rows:
                bits = []
                for value, s in zip(row, levels):
                    if value >= s + gamma:
                        bits.append(1)
                    elif value <= s - gamma:
                        bits.append(0)
                    else:
                        break
                else:
                    patterns.add(tuple(bits))
            if len(patterns) == full:
                return True
    return False


def brute_erm(concept_class: FiniteTableClass, sample: Sample, loss) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum empirical loss and the full set of minimizing table rows."""
    _check_size(concept_class)
    cols = [concept_class._column(x) for x in sample.xs]
    best: Fraction | None = None
    winners: list[int] = []
    for idx, row in enumerate(concept_class.table):
        total = sum(Fraction(loss(y, row[c])) for y, c in zip(sample.ys, cols))
        if best is None or total < best:
            best, winners = total, [idx]
        elif total == best:
            winners.append(idx)
    return best / len(sample), tuple(winners)


def restarting_erm_binary(sample: Sample, erm_oracle) -> tuple[int, ...]:
    """Reference for `ermred.sample_erm_binary`: the greedy removal scan that
    restarts at the lowest kept index after every removal, so it tries an
    entry again after each deletion.  At most 2n^2 oracle calls."""
    def loss_sum(indices):
        return erm_oracle(sample.subset(indices)) * len(indices) if indices else 0

    kept = list(range(len(sample)))
    current = loss_sum(kept)
    removed = True
    while removed:
        removed = False
        for pos in range(len(kept)):
            value = loss_sum(kept[:pos] + kept[pos + 1:])
            if value < current:
                kept.pop(pos)
                current, removed = value, True
                break
    return tuple(0 if i in kept else 1 for i in range(len(sample)))


def distribution_opt(concept_class, distribution: FiniteDistribution, loss) -> Fraction:
    """Best-in-class expected loss under the distribution, by enumeration."""
    if isinstance(concept_class, FiniteTableClass):
        predictors = [partial(concept_class.value_at, i) for i in range(len(concept_class.table))]
    elif isinstance(concept_class, MarginThresholdClass):
        predictors = [
            (lambda t: (lambda x: concept_class.label_of(t, x)))(t) for t in concept_class.grid
        ]
    else:
        raise ContractViolation("no enumerable hypotheses for this class")
    return min(distribution.expected_loss(h, loss) for h in predictors)


# ---------------------------------------------------------------------------
# explicit tables: the analytic classes on a finite window, and the multiclass
# and regression encodings


def _star_sort_key(row):
    return tuple(2 if v is STAR else v for v in row)


def materialize_thresholds(concept_class: MarginThresholdClass, points) -> FiniteTableClass:
    """The margin thresholds restricted to the points, as an explicit table
    with STAR entries."""
    points = tuple(points)
    rows = {tuple(concept_class.label_of(t, x) for x in points) for t in concept_class.grid}
    return FiniteTableClass(points, sorted(rows, key=_star_sort_key), "binary")


def _least_factor(n: int) -> int:
    """The least divisor of n above 1 (n itself when n is prime), by trial
    division."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def trial_division_split(n: int) -> tuple[int, int] | None:
    """(p, q) with p <= q prime and p*q == n, or None, by trial division."""
    p = _least_factor(n)
    q = n // p
    return (p, q) if p < n and _least_factor(q) == q else None


def next_prime_above(n: int) -> int:
    k = n + 1
    while _least_factor(k) != k:
        k += 1
    return k


def materialize_hprime(concept_class: HPrimeClass, points) -> FiniteTableClass:
    """The hprime class restricted to a finite query window, as an explicit table.

    Pair hypotheses whose members exceed the window are represented by a
    single fresh prime above it; their restrictions collapse to indicator
    patterns already expressible inside the window.  Primes and products of
    two primes are found by trial division, not by the class's own number
    theory.
    """
    points = tuple(points)
    concept_class.check_points(points)
    top = max(points)
    small_primes = [k for k in range(2, top + 1) if _least_factor(k) == k]
    big = next_prime_above(top)
    rows = {tuple(0 for _ in points)}  # any hypothesis supported above the window
    candidates = small_primes + [big]
    for i, p in enumerate(candidates):
        for q in candidates[i:]:
            ones = {p, q, p * q}
            rows.add(tuple(1 if x in ones else 0 for x in points))
    for n in points:
        if trial_division_split(n) is None:
            rows.add(tuple(1 if x == n else 0 for x in points))
    return FiniteTableClass(points, sorted(rows), "binary")


def menu_project(label: int, menu: tuple[int, int]):
    """A multiclass value seen through a menu (first, second): 0 on the first
    entry, 1 on the second, undefined elsewhere."""
    first, second = menu
    if first == second:
        raise ContractViolation("menus must pair distinct labels")
    if label == first:
        return 0
    if label == second:
        return 1
    return STAR


def materialize_menu_class(base: FiniteTableClass) -> FiniteTableClass:
    """The menu encoding of a finite multiclass table as an explicit partial
    binary table over (point, menu) inputs; for dimension cross-checks."""
    menus = list(permutations(range(1, base.num_classes + 1), 2))
    points = tuple((x, mu) for x in base.domain for mu in menus)
    rows = {
        tuple(menu_project(row[base._column(x)], mu) for (x, mu) in points)
        for row in base.table
    }
    return FiniteTableClass(points, sorted(rows, key=_star_sort_key), "binary")


def threshold_project(value, tau, gamma):
    """A real value seen at threshold tau: 1 when at least gamma above, 0 when
    at least gamma below, undefined inside the band."""
    value, tau, gamma = as_fraction(value), as_fraction(tau), as_fraction(gamma)
    if value >= tau + gamma:
        return 1
    if value <= tau - gamma:
        return 0
    return STAR


def threshold_query(range_query, gamma):
    """Reference for `pipelines.threshold_consistency_oracle` on labels:
    (xs, ys) over (x, tau) points becomes one range query, bit 1 asking for
    [tau+gamma, 1] and bit 0 for [0, tau-gamma], and is False without one
    when a band leaves [0, 1]."""
    gamma = as_fraction(gamma)

    def query(xs, ys):
        bands = [(tau + gamma, 1) if b else (0, tau - gamma) for (_, tau), b in zip(xs, ys)]
        if any(lo > 1 or hi < 0 for lo, hi in bands):
            return False
        return range_query([(x, lo, hi) for (x, _), (lo, hi) in zip(xs, bands)])

    return query


def materialize_threshold_class(base: FiniteTableClass, gamma) -> FiniteTableClass:
    """The threshold encoding of a finite real-valued table as an explicit
    partial binary table over (point, threshold) inputs."""
    gamma = as_fraction(gamma)
    points = tuple((x, tau) for x in base.domain for tau in threshold_grid(gamma))
    rows = {
        tuple(threshold_project(row[base._column(x)], tau, gamma) for (x, tau) in points)
        for row in base.table
    }
    return FiniteTableClass(points, sorted(rows, key=_star_sort_key), "binary")


# ---------------------------------------------------------------------------
# references for the walk estimator and the weak learner


def membership_from_set(inside, m: int) -> MembershipPredicate:
    """Membership in an explicit vertex set, on m points."""
    packed = frozenset(pack(v) for v in inside)
    return MembershipPredicate(m, lambda code: code in packed)


def vectorized_rollouts(start: int, membership: MembershipPredicate, params, gen) -> float:
    """Reference for the lockstep rollout engine: the truncated rollouts of
    one generator from the packed code `start`, advanced together.  Each
    step asks membership of every live rollout in one batch and, unless none
    is live or t is the horizon, draws one coordinate per live rollout in one
    call, in ascending order."""
    m = membership.m
    L, U = params.horizon, params.trials
    codes = np.full(U, start, dtype=np.uint64)
    stop_t = np.full(U, L, dtype=np.int64)
    alive = np.arange(U)
    for t in range(L + 1):
        inside = membership.query_packed_batch(codes[alive])
        exited = alive[~inside]
        stop_t[exited] = t
        alive = alive[inside]
        if t == L or len(alive) == 0:
            break
        coords = gen.integers(0, m, size=len(alive)).astype(np.uint64)
        codes[alive] ^= np.uint64(1) << coords
    return float(np.mean(params.gamma ** stop_t.astype(np.float64)))


def reference_generator(stream: RandomStream) -> np.random.Generator:
    """The generator of a stream by numpy's own path, which
    `RandomStream.generator` derives incrementally: Philox seeded by
    `SeedSequence(entropy=seed, spawn_key=path)`."""
    seq = np.random.SeedSequence(entropy=stream.seed, spawn_key=stream.path)
    return np.random.Generator(np.random.Philox(seq))


def same_generator_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Whether two generators stand at the same point of the same stream."""

    def same(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
        return np.array_equal(x, y)

    return same(a.bit_generator.state, b.bit_generator.state)


def exact_truncated_flip_expectation(
    inside, y: tuple, gamma: float, horizon: int, m: int | None = None
) -> float:
    """E[gamma^(horizon ∧ exit time)] for the coordinate-flip walk, by dynamic
    programming over the alive-mass distribution.  Independent of the
    Monte-Carlo path; used to validate it."""
    vertices = sorted(set(tuple(v) for v in inside), key=pack)
    y = tuple(y)
    if m is None:
        m = len(y)
    if y not in vertices:
        return 1.0
    size = len(vertices)
    move = np.zeros((size, size))
    exit_prob = np.zeros(size)
    # its own neighbour loop, not the exact solve's, so that one fault cannot
    # hide in both the solver and this check
    index = {v: i for i, v in enumerate(vertices)}
    for i, v in enumerate(vertices):
        outside = 0
        for w in neighbors(v):
            j = index.get(w)
            if j is None:
                outside += 1
            else:
                move[j, i] = 1.0 / m
        exit_prob[i] = outside / m
    p = np.zeros(size)
    p[index[y]] = 1.0
    total = 0.0
    g = float(gamma)
    for t in range(1, horizon + 1):
        total += (g**t) * float(exit_prob @ p)
        p = move @ p
    total += (g**horizon) * float(p.sum())
    return total


def loo_distributional_error(
    distribution,
    m: int,
    params: WeakLearnerParams,
    bind,
    reps: int,
    rng: RandomStream,
) -> float:
    """Monte-Carlo estimate of the expected loss of the learner on a fresh
    point after seeing m-1 i.i.d. examples."""
    if m < 1:
        raise ContractViolation("need m >= 1")
    total = 0
    for rep in range(reps):
        rep_stream = rng.child(rep)
        gen = rep_stream.child(0).generator()
        drawn = distribution.draw(gen, m)
        context = Sample(drawn.pairs[: m - 1])
        x, y = drawn.pairs[m - 1]
        pred = weak_realizable(context, x, params, bind, (rep_stream.child(1),))[0]
        total += loss_bin(y, pred.bit)
    return total / reps


def fresh_memo_transductive_error(
    sample: Sample,
    params: WeakLearnerParams,
    bind,
    reps: int,
    rng: RandomStream,
) -> float:
    """`weak.transductive_error` with one weak prediction, and so one fresh
    membership memo, per (rep, i) on the stream rng.child(rep).child(i)."""
    total = 0
    for rep in range(reps):
        for i in range(len(sample)):
            x, y = sample[i]
            stream = rng.child(rep).child(i)
            pred = weak_realizable(sample.without(i), x, params, bind, (stream,))[0]
            total += loss_bin(y, pred.bit)
    return total / (reps * len(sample))


@dataclass(frozen=True)
class TransductiveAudit:
    """Exact orientation of the truth vertex's edges and its out-degree."""

    out_degree: float
    loo_error: float
    min_potential: float
    bound_rhs: float
    slack: float
    edge_mass_on_truth: tuple  # per coordinate: orientation mass on the truth vertex, or None if the edge is absent


def exact_transductive_audit(
    concept_class,
    sample: Sample,
    gamma,
    lam,
    walk: str = "lazy",
) -> TransductiveAudit:
    """Recompute, with the exact generating function, the random orientation a
    potential-following predictor induces on the edges at the true labeling.

    walk='lazy' solves the hold-with-probability-1/2 recursion at discount
    gamma; walk='flip' audits the uniformly-flipping walk the Monte-Carlo
    rollouts implement, via the discount change 2g/(1+g).  The reported slack
    is against m/2 - (1-g_eff)*lam*m*min(potential), an identity-backed bound
    for the solved potential, so it is nonnegative up to solver residual.
    """
    m = len(sample)
    if m > AUDIT_MAX_POINTS:
        raise ContractViolation(f"audit is limited to m <= {AUDIT_MAX_POINTS}")
    points = sample.xs
    truth = tuple(sample.ys)
    inside = concept_class.project_onto(points)
    if truth not in inside:
        raise ContractViolation("the sample's labeling is not realizable by the class")
    gamma = as_fraction(gamma)
    lam = as_fraction(lam)
    if walk == "lazy":
        effective = gamma
    elif walk == "flip":
        effective = lazy_discount(gamma)
    else:
        raise ContractViolation(f"unknown walk convention {walk!r}")
    values = exact_generating_function(inside, effective)
    masses = []
    total_out = Fraction(0)
    for i in range(m):
        other = flip(truth, i)
        if other not in inside:
            masses.append(None)
            continue
        mass_on_truth = edge_mass(_val(values[truth]), _val(values[other]), lam)
        masses.append(float(mass_on_truth))
        total_out += 1 - mass_on_truth
    min_potential = min(_val(values[v]) for v in inside)
    rhs = Fraction(m, 2) - (1 - effective) * lam * m * min_potential
    return TransductiveAudit(
        out_degree=float(total_out),
        loo_error=float(total_out) / m,
        min_potential=float(min_potential),
        bound_rhs=float(rhs),
        slack=float(rhs - total_out),
        edge_mass_on_truth=tuple(masses),
    )


def _val(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(float(value))
