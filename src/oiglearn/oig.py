"""Hypercube random-walk machinery behind the one-inclusion-graph learner.

A vertex is a 0/1 labeling pattern on m fixed domain points.  The walks,
the membership memo and the exact solve's neighbour search all hold it as a
packed code, the integer whose bit j is the label of point j (`core.pack`),
and the memo asks the consistency oracle codes; the exact solve takes and
returns the class's patterns as tuples.  The learner estimates, per vertex,
the discounted time for a uniform-coordinate-flip walk to leave the
realizable pattern set W; those potentials induce a random
orientation of the one-inclusion graph.  This module provides the Monte-Carlo
estimator and an exact linear-system solver for the walk's generating
function; the references they are checked against live in `brute.py`.

The estimator takes one generator per repetition: the repetitions of one
leave-one-out context walk from the same vertex on the same memo, so from
512 trials they walk in lockstep, one batch membership query per step for
all of them, while each draws its coordinates from its own generator exactly
as it would walking alone.

Two walk conventions coexist.  Rollouts flip a uniformly random coordinate
every step; the closed-form recursion solved by `exact_generating_function`
describes the lazy walk that holds with probability 1/2.  The two are linked
by a discount change: the flip walk's generating function at discount g equals
the lazy walk's at 2g/(1+g).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ContractViolation, as_fraction, pack

# batch rollouts through numpy once this many trials are requested
_VECTOR_TRIALS = 512

# batch queries read a dense table of all 2^m codes up to this many points
# (16 MiB at 24); above it they fall back to sorting each batch's codes
_TABLE_MAX_POINTS = 24

# exact solves of at most this many patterns use rational elimination
_RATIONAL_CUTOFF = 64


@dataclass(frozen=True)
class WalkParams:
    """Discount, truncation horizon and trial count for potential estimation."""

    gamma: float
    horizon: int
    trials: int

    def __post_init__(self):
        if not (0 < self.gamma < 1):
            raise ContractViolation("discount must lie in (0,1)")
        if self.horizon < 0 or self.trials < 1:
            raise ContractViolation("horizon must be >= 0 and trials >= 1")

    @cached_property
    def discounts(self) -> tuple[float, ...]:
        """gamma^0..gamma^horizon, each the float product of the one before
        and gamma, which the sequential engine sums over its rollouts.  Built
        on its first read: a discount near 1 has a horizon in the millions,
        and configs are checked by building their parameters."""
        powers = [1.0]
        for _ in range(self.horizon):
            powers.append(powers[-1] * self.gamma)
        return tuple(powers)


def default_horizon(gamma: float) -> int:
    """Smallest truncation length with gamma^L below the estimator's bias budget."""
    g = float(gamma)
    return int(np.ceil(np.log(32 * np.e / (1 - g)) / np.log(1 / g)))


class MembershipPredicate:
    """Answers 'is this vertex a realizable pattern?' for a fixed point sequence.

    Backed by a callable on packed codes: `from_oracle` binds a
    consistency oracle to the points once (`bind(points)`, such as
    `ConsistencyOracle.bind`) and asks the bound callable each fresh code,
    one oracle call of size m per evaluation; `brute.membership_from_set`
    answers from an explicit vertex set.  Repeated queries for the same
    vertex hit a per-predicate memo and charge the ledger only once.

    A hypothesis gives a point one label, so no class, nor the menu and
    threshold encodings, realizes a vertex that labels two copies of one
    point differently.  `from_oracle` answers such a vertex False itself,
    without an oracle call; every other fresh vertex is asked of the oracle.

    Batch queries (the vectorized walks) read a dense int8 table over all
    2^m codes, allocated on the first batch when m <= 24: -1 marks a code the
    table does not hold yet, and such codes go through `query_packed` in
    ascending order.  The dict memo stays the one authority, so a code is
    evaluated once however it is first asked.
    """

    def __init__(self, m: int, evaluate: Callable[[int], bool]):
        self.m = m
        self._evaluate = evaluate
        self._memo: dict[int, bool] = {}
        self._table: np.ndarray | None = None

    @classmethod
    def from_oracle(cls, points: tuple, bind) -> "MembershipPredicate":
        points = tuple(points)
        answer = bind(points)
        # one bitmask per point that occurs more than once, keyed by its first
        # position; found by equality, as hashing a Fraction costs more
        masks: dict[int, int] = {}
        for j, x in enumerate(points):
            i = points.index(x)
            if i != j:
                masks[i] = masks.get(i, 1 << i) | (1 << j)
        repeats = list(masks.values())

        def evaluate(code: int) -> bool:
            for mask in repeats:
                if (code & mask) not in (0, mask):
                    return False
            return answer(code)

        return cls(len(points), evaluate)

    def query_packed(self, code: int) -> bool:
        memo = self._memo
        val = memo.get(code)
        if val is None:
            val = self._evaluate(code)
            memo[code] = val
        return val

    def query_packed_batch(self, codes: np.ndarray) -> np.ndarray:
        if self.m > _TABLE_MAX_POINTS:
            uniq, inverse = np.unique(codes, return_inverse=True)
            vals = np.empty(len(uniq), dtype=bool)
            for j, code in enumerate(uniq):
                vals[j] = self.query_packed(int(code))
            return vals[inverse]
        table = self._table
        if table is None:
            table = self._table = np.full(1 << self.m, -1, dtype=np.int8)
        vals = table[codes]
        unknown = vals < 0
        if unknown.any():
            for code in np.unique(codes[unknown]).tolist():
                table[code] = self.query_packed(code)
            vals = table[codes]
        return vals > 0


def estimate_potential(
    membership: MembershipPredicate,
    start: int,
    params: WalkParams,
    gens: Sequence[np.random.Generator],
) -> list[float]:
    """Monte-Carlo estimates of E[gamma^(horizon ∧ exit time)] from the vertex
    with packed code `start`, one per generator.

    Each generator drives `params.trials` independent truncated rollouts of
    the coordinate-flip walk, probing membership of the current vertex at
    every step.  Each estimate is the mean discounted (truncated) hitting
    time; it is exactly 1 iff the start itself is not realizable.  A
    generator makes the same calls, and so gives the same estimate, whatever
    generators walk beside it.
    """
    if not 0 <= start < 1 << membership.m:
        raise ContractViolation("start code must label exactly the predicate's points")
    if params.trials >= _VECTOR_TRIALS:
        return _rollouts_lockstep(start, membership, params, gens)
    return _rollouts_sequential(start, membership, params, gens)


def _rollouts_sequential(start, membership, params, gens) -> list[float]:
    m = membership.m
    L, U = params.horizon, params.trials
    discounts = params.discounts
    # the memo answers most steps; `query_packed` evaluates only a miss
    memo = membership._memo
    query = membership.query_packed
    estimates = []
    for gen in gens:
        # buffered coordinate draws keep generator overhead off the inner loop
        buf = gen.integers(0, m, size=max(64, 4 * U)).tolist()
        pos = 0
        total = 0.0
        for _ in range(U):
            code = start
            t = 0
            while True:
                inside = memo.get(code)
                if inside is None:
                    inside = query(code)
                if not inside:
                    break
                if t == L:
                    break
                if pos == len(buf):
                    buf = gen.integers(0, m, size=len(buf)).tolist()
                    pos = 0
                code ^= 1 << buf[pos]
                pos += 1
                t += 1
            total += discounts[t]
        estimates.append(total / U)
    return estimates


def _rollouts_lockstep(start, membership, params, gens) -> list[float]:
    """The rollouts of every generator, one row of `trials` each, advanced
    together: one batch query per step for all live rollouts, and per row
    with live rollouts one draw of a coordinate for each, in ascending order
    (`brute.vectorized_rollouts` is the one-row reference)."""
    m = membership.m
    L, U, R = params.horizon, params.trials, len(gens)
    codes = np.full(R * U, start, dtype=np.uint64)
    stop_t = np.full(R * U, L, dtype=np.int64)
    alive = np.arange(R * U)
    row_starts = np.arange(R + 1) * U
    for t in range(L + 1):
        inside = membership.query_packed_batch(codes[alive])
        stop_t[alive[~inside]] = t
        alive = alive[inside]
        if t == L or len(alive) == 0:
            break
        # alive stays ascending, so each row's live rollouts are one run
        bounds = np.searchsorted(alive, row_starts).tolist()
        coords = np.empty(len(alive), dtype=np.uint64)
        for gen, lo, hi in zip(gens, bounds, bounds[1:]):
            if hi > lo:
                coords[lo:hi] = gen.integers(0, m, size=hi - lo)
        codes[alive] ^= np.uint64(1) << coords
    return [
        float(np.mean(params.gamma ** stop_t[r * U : (r + 1) * U].astype(np.float64)))
        for r in range(R)
    ]


def lazy_discount(flip_gamma) -> Fraction:
    """Discount at which the lazy-walk generating function matches the flip walk's.

    One flip-walk step costs a Geometric(1/2) number of lazy steps, whence
    E[g^tau_flip] equals the lazy generating function at 2g/(1+g).
    """
    g = as_fraction(flip_gamma)
    return 2 * g / (1 + g)


def exact_generating_function(inside: Iterable[tuple], gamma) -> dict:
    """Solve the lazy-walk recursion M(v) = g/((2-g)m) * sum_i M(v^flip i) exactly.

    The set is given as 0/1 pattern tuples of one length m, such as a
    class's projection, and the result is a dict from each of them to M(v);
    M is 1 outside the set.  The size of the set alone picks the solve.
    Systems of up to 64 patterns are solved exactly, by fraction-free
    (Bareiss) integer elimination, so their values are `Fraction`s; larger
    ones fall back to a floating solve, whose values are floats and whose
    residual (`brute.recursion_residual`) stays far below 1e-12 because the
    system is strictly diagonally dominant.
    """
    vertices = sorted(set(tuple(v) for v in inside), key=pack)
    if not vertices:
        return {}
    m = len(vertices[0])
    if any(len(v) != m for v in vertices):
        raise ContractViolation("all vertices must share one dimension")
    if m > 30 or len(vertices) > 4096:
        raise ContractViolation("exact solve is limited to m <= 30 and 4096 patterns")
    size = len(vertices)
    links = _links([pack(v) for v in vertices], m)
    if size <= _RATIONAL_CUTOFF:
        g = as_fraction(gamma)
        diag = (2 - g) * m / g
        solution = _solve_integer(links, diag.numerator, diag.denominator)
    else:
        g = float(gamma)
        a = np.zeros((size, size))
        b = np.zeros(size)
        for i, (inner, outside) in enumerate(links):
            a[i, i] = (2 - g) * m / g
            a[i, inner] -= 1.0
            b[i] = outside
        solution = np.linalg.solve(a, b).tolist()
    return dict(zip(vertices, solution))


def _links(codes: list[int], m: int) -> list[tuple[list[int], int]]:
    """Per code, in order: the indices of its neighbours inside the set, by
    coordinate, and how many of its m neighbours lie outside."""
    index = {c: i for i, c in enumerate(codes)}
    links = []
    for c in codes:
        inner = [index[w] for w in (c ^ 1 << j for j in range(m)) if w in index]
        links.append((inner, m - len(inner)))
    return links


def _solve_integer(links, p: int, q: int) -> list[Fraction]:
    """Exact solution of the recursion system with diagonal p/q, by
    fraction-free (Bareiss) elimination in integers.

    Row i, scaled by q, is p on the diagonal, -q at each inside neighbour and
    outside*q on the right.  The system is strictly diagonally dominant, so no
    pivoting is needed and every division below is exact: forward, by the
    previous pivot; backward, y_i = D*x_i is an integer by Cramer's rule.
    """
    n = len(links)
    a = []
    for i, (inner, outside) in enumerate(links):
        row = [0] * (n + 1)
        row[i] = p
        for j in inner:
            row[j] = -q
        row[n] = outside * q
        a.append(row)
    prev = 1
    for k in range(n):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot == 0:
            raise RuntimeError("singular recursion system; this should be impossible")
        tail = pivot_row[k + 1 :]
        for i in range(k + 1, n):
            # columns up to k of the rows below the pivot are never read again
            row = a[i]
            factor, rest = row[k], row[k + 1 :]
            if factor:
                row[k + 1 :] = [(pivot * x - factor * y) // prev for x, y in zip(rest, tail)]
            else:
                row[k + 1 :] = [pivot * x // prev for x in rest]
        prev = pivot
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        total = det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n) if row[j])
        y[i] = total // row[i]
    return [Fraction(v, det) for v in y]
