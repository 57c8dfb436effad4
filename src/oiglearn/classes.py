"""Concrete concept classes with analytically implemented oracles.

Three families ship here: explicit finite tables (binary-with-star, multiclass
or real valued), margin thresholds over a finite grid (a canonical
VC-dimension-1 partial class), and the primality-based class whose point is
that realizability is cheap to decide while producing a minimizer would factor
integers.  Every oracle answer is exact and cross-checkable by enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from typing import Any, Callable, Iterable, Sequence

_PRIME_CACHE_SIZE = 1 << 16

from .core import LABEL_KINDS, STAR, ContractViolation, as_fraction, check_labels
from .oracle import (
    CONSISTENCY,
    ERM_VALUE,
    PROJECTION,
    RANGE_CONSISTENCY,
    ConceptClass,
)


class FiniteTableClass(ConceptClass):
    """A concept class given by an explicit (hypothesis x domain point) table.

    kind is a key of LABEL_KINDS, whose row parses and bounds the entries and
    fixes the ERM loss; a binary entry may be STAR.  Every oracle answers
    exactly, and only a real table offers range consistency.
    Consistency, on labels or on label codes (`bind_consistency`), and
    projection work on one bitset of rows per (column, label), so they cost
    one AND or split per query point.  The bitsets of a column hold one bit
    per row for each distinct label in it.  ERM on a real
    table sums integer absolute distances column by column: the entries are
    held per column as integers over their common denominator, and each
    query's labels are scaled once to a denominator both divide.  ERM on a
    binary or multiclass table and the range oracle scan the rows in
    fractions.
    """

    capabilities = frozenset({CONSISTENCY, ERM_VALUE, PROJECTION})

    def __init__(self, domain: Sequence, table: Sequence[Sequence], kind: str, num_classes: int | None = None):
        label = LABEL_KINDS.get(kind)
        if label is None:
            raise ContractViolation(f"unknown table kind {kind!r}")
        self.domain = tuple(domain)
        if not self.domain:
            raise ContractViolation("domain must be nonempty")
        self.kind = kind
        self.num_classes = num_classes
        if kind == "real":
            self.capabilities = self.capabilities | {RANGE_CONSISTENCY}
        rows = []
        for row in table:
            # a row whose entries all have the kind's type is kept as it is,
            # so a large table is checked by type and by its set of labels
            row = tuple(row)
            if not {label.type}.issuperset(map(type, row)):
                row = tuple(map(label.parse, row))
            if len(row) != len(self.domain):
                raise ContractViolation("table row length must match the domain")
            check_labels(kind, set(row).difference((STAR,)), num_classes)
            rows.append(row)
        if len(set(rows)) != len(rows):
            raise ContractViolation("table hypotheses must be distinct")
        if not rows:
            raise ContractViolation("table must be nonempty")
        self.table = tuple(rows)
        self._col = {x: i for i, x in enumerate(self.domain)}
        if len(self._col) != len(self.domain):
            raise ContractViolation("domain points must be distinct")
        self._all_rows = (1 << len(rows)) - 1
        self._label_rows: list[dict | None] = [None] * len(self.domain)
        self._scaled_columns: tuple[int, tuple] | None = None

    def value_at(self, row: int, x):
        return self.table[row][self._column(x)]

    def check_points(self, xs) -> None:
        for x in xs:
            self._column(x)

    def _column(self, x) -> int:
        try:
            return self._col[x]
        except KeyError:
            raise ContractViolation(f"point {x!r} is outside the class domain") from None

    def _rows_by_label(self, col: int) -> dict:
        """Label -> bitset of the rows carrying it in column col (bit i for
        row i; STAR rows are in none).  Built on first use of the column, so
        a class costs nothing for columns no query touches."""
        by_label = self._label_rows[col]
        if by_label is None:
            size = (len(self.table) + 7) >> 3
            buffers: dict = {}
            for i, row in enumerate(self.table):
                v = row[col]
                if v is not STAR:
                    buf = buffers.get(v)
                    if buf is None:
                        buf = buffers[v] = bytearray(size)
                    buf[i >> 3] |= 1 << (i & 7)
            by_label = {v: int.from_bytes(buf, "little") for v, buf in buffers.items()}
            self._label_rows[col] = by_label
        return by_label

    def _label_columns(self, xs) -> list[dict]:
        """Per point, its column's label -> rows bitsets; every point is
        checked before any column is built."""
        return [self._rows_by_label(col) for col in [self._column(x) for x in xs]]

    def _consistent(self, xs, ys) -> bool:
        alive = self._all_rows
        for by_label, y in zip(self._label_columns(xs), ys):
            alive &= by_label.get(y, 0)
            if not alive:
                return False
        return True

    def bind_consistency(self, xs) -> Callable[[int], bool]:
        """The consistency kernel on label codes: each point's pair (rows
        labelled 0, rows labelled 1) is looked up once, and an answer ANDs
        the one its bit picks, stopping at an empty set."""
        pairs = [(by_label.get(0, 0), by_label.get(1, 0)) for by_label in self._label_columns(xs)]
        all_rows = self._all_rows

        def answer(code: int) -> bool:
            alive = all_rows
            for pair in pairs:
                alive &= pair[code & 1]
                if not alive:
                    return False
                code >>= 1
            return True

        return answer

    def _integer_columns(self) -> tuple[int, tuple]:
        """(D, columns): D is the lcm of the entries' denominators and
        columns[c] holds column c's entries times D, as ints, one per row in
        row order.  Built on the first absolute-loss ERM query."""
        if self._scaled_columns is None:
            denominator = lcm(*(v.denominator for row in self.table for v in row))
            columns = tuple(
                tuple(v.numerator * (denominator // v.denominator) for v in column)
                for column in zip(*self.table)
            )
            self._scaled_columns = (denominator, columns)
        return self._scaled_columns

    def _abs_erm_value(self, xs, ys) -> Fraction:
        """The least absolute-loss sum over the rows, as a mean, in integers
        over L = lcm(D, label denominators): per query point one list of
        |y*L - (L/D)*(v*D)| over the rows of its column, then each row's sum
        of those, then the least sum."""
        cols = [self._column(x) for x in xs]
        ratios = [y.as_integer_ratio() for y in ys]
        for (num, den), y in zip(ratios, ys):
            if not 0 <= num <= den:
                raise ContractViolation(f"absolute-loss labels must lie in [0,1], got {y}")
        denominator, columns = self._integer_columns()
        scale = lcm(denominator, *(den for _, den in ratios))
        up = scale // denominator
        distances = [
            [abs(target - up * v) for v in columns[col]]
            for col, target in zip(cols, (num * (scale // den) for num, den in ratios))
        ]
        return Fraction(min(map(sum, zip(*distances))), scale * len(xs))

    def _erm_value(self, xs, ys) -> Fraction:
        """The least loss sum over the rows under the kind's loss, as a mean.
        Losses are nonnegative, so the scan stops at the first zero-loss row."""
        if self.kind == "real":
            return self._abs_erm_value(xs, ys)
        loss = LABEL_KINDS[self.kind].loss
        cols = [self._column(x) for x in xs]
        best = None
        for row in self.table:
            total = sum(loss(y, row[c]) for y, c in zip(ys, cols))
            if best is None or total < best:
                best = total
                if best == 0:
                    break
        return Fraction(best) / len(xs)

    def range_consistent_on(self, xs, lower, upper) -> bool:
        self.require(RANGE_CONSISTENCY)
        cols = [self._column(x) for x in xs]
        for row in self.table:
            if all(lo <= row[c] <= hi for c, lo, hi in zip(cols, lower, upper)):
                return True
        return False

    def project_onto(self, xs) -> frozenset:
        """The star-free label patterns the class realizes on the point sequence.

        The row set is split point by point into the rows agreeing on each
        label prefix; the prefixes whose part stays nonempty are the patterns.
        """
        parts = {(): self._all_rows}
        for by_label in self._label_columns(xs):
            parts = {
                prefix + (y,): both
                for prefix, rows in parts.items()
                for y, bits in by_label.items()
                if (both := rows & bits)
            }
        return frozenset(parts)


class MarginThresholdClass(ConceptClass):
    """Threshold hypotheses with an abstention band of half-width `margin`.

    For each grid value t, h_t maps x to 1 when x >= t + margin, to 0 when
    x <= t - margin, and is undefined in between.  Thresholds live on a finite
    grid so that consistency and ERM values stay exactly computable.

    Every oracle reads one integer kernel.  With D the lcm of the margin's and
    the grid's denominators, the grid is held as the sorted ints G = [t*D] and
    the margin as M = margin*D.  A point x = p/q has two cuts, found with
    integer `//` and `bisect` only:
    - lo(x) = bisect_left(G, ceil((p*D + M*q) / q)): h_t at grid index k
      labels x 0 exactly for k >= lo(x);
    - hi(x) = bisect_right(G, floor((p*D - M*q) / q)): it labels x 1 exactly
      for k < hi(x).
    Since margin > 0, hi(x) <= lo(x), and x is STAR for hi(x) <= k < lo(x).
    `label_of` keeps the `Fraction` definition, so the references built on it
    in `brute` stay independent of the kernel.
    """

    capabilities = frozenset({CONSISTENCY, ERM_VALUE, PROJECTION})

    def __init__(self, grid: Iterable, margin):
        self.grid = tuple(sorted(as_fraction(t) for t in grid))
        if not self.grid:
            raise ContractViolation("threshold grid must be nonempty")
        self.margin = as_fraction(margin)
        if not (0 < self.margin < 1):
            raise ContractViolation("margin must lie in (0,1)")
        scale = lcm(self.margin.denominator, *(t.denominator for t in self.grid))
        self._scale = scale
        self._grid_ints = [t.numerator * (scale // t.denominator) for t in self.grid]
        self._margin_int = self.margin.numerator * (scale // self.margin.denominator)

    @classmethod
    def regular(cls, start, step, count, margin) -> "MarginThresholdClass":
        start, step = as_fraction(start), as_fraction(step)
        return cls([start + k * step for k in range(count)], margin)

    def check_points(self, xs) -> None:
        for x in xs:
            as_fraction(x)

    def label_of(self, t: Fraction, x) -> Any:
        x = as_fraction(x)
        if x >= t + self.margin:
            return 1
        if x <= t - self.margin:
            return 0
        return STAR

    def _cuts(self, x) -> tuple[int, int]:
        """(lo(x), hi(x)): the thresholds from grid index lo(x) on label x 0,
        and those below index hi(x) label it 1."""
        x = as_fraction(x)
        p, q = x.numerator * self._scale, x.denominator
        return (bisect_left(self._grid_ints, -(-p // q) + self._margin_int),
                bisect_right(self._grid_ints, p // q - self._margin_int))

    def _consistent(self, xs, ys) -> bool:
        lo, hi = 0, len(self._grid_ints)
        for x, y in zip(xs, ys):
            if y == 1:
                hi = min(hi, self._cuts(x)[1])
            elif y == 0:
                lo = max(lo, self._cuts(x)[0])
            else:
                return False  # no threshold gives any label but 0 or 1
        return lo < hi

    def bind_consistency(self, xs) -> Callable[[int], bool]:
        """The consistency kernel on label codes: each point's cuts are found
        once, which also checks the points, and an answer folds the code's
        bits over them."""
        cuts = [self._cuts(x) for x in xs]
        count = len(self._grid_ints)

        def answer(code: int) -> bool:
            lo, hi = 0, count
            for point_lo, point_hi in cuts:
                if code & 1:
                    if point_hi < hi:
                        hi = point_hi
                elif point_lo > lo:
                    lo = point_lo
                code >>= 1
            return lo < hi

        return answer

    def _erm_value(self, xs, ys) -> Fraction:
        """Least mean 0/1 loss over the grid.  At grid index k, h_t errs on
        #{(x, 1): hi(x) <= k} + #{(x, 0): lo(x) > k} points, and on every
        point with another label (STAR included) whatever k is.  steps[j]
        adds 1 per 1-point with hi(x) = j and takes 1 per 0-point with
        lo(x) = j, so the errors at index k are the 0-points, the other
        labels and steps[0] + ... + steps[k]."""
        count = len(self._grid_ints)
        steps = [0] * (count + 1)
        zeros = always = 0
        for x, y in zip(xs, ys):
            if y == 1:
                steps[self._cuts(x)[1]] += 1
            elif y == 0:
                zeros += 1
                steps[self._cuts(x)[0]] -= 1
            else:
                always += 1
        return Fraction(min(accumulate(steps[:count])) + zeros + always, len(xs))

    def project_onto(self, xs) -> frozenset:
        """The star-free patterns: at grid index k a point is 1 below its hi
        cut, 0 from its lo cut, and STAR in between."""
        cuts = [self._cuts(x) for x in xs]
        return frozenset(
            tuple(1 if k < hi else 0 for _, hi in cuts)
            for k in range(len(self._grid_ints))
            if all(k < hi or k >= lo for lo, hi in cuts)
        )


# deterministic Miller-Rabin witnesses covering all n < 3.3 * 10^24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Exact primality for 64-bit integers (deterministic witness set)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Some nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError(f"factorization failed for {n}")  # unreachable for 64-bit inputs


@lru_cache(maxsize=_PRIME_CACHE_SIZE)
def semiprime_split(n: int) -> tuple[int, int] | None:
    """(p, q) with p <= q prime and p*q == n, or None if n is not such a
    product.  A composite n is a product of two primes exactly when both parts
    of any nontrivial split are prime, so one split decides it."""
    if n < 4 or is_prime(n):
        return None
    p = _pollard_rho(n)
    p, q = sorted((p, n // p))
    return (p, q) if is_prime(p) and is_prime(q) else None


class HPrimeClass(ConceptClass):
    """Indicators of {p, q, pq} for prime pairs, plus point indicators g_n for
    every n that is not a product of two primes.

    Deciding realizability takes at most one semiprime split of a positive
    point; returning an actual minimizer would reveal prime factors, so the
    class offers the consistency oracle only.
    """

    capabilities = frozenset({CONSISTENCY})

    def __init__(self, bound: int):
        if bound < 1:
            raise ContractViolation("bound must be a positive integer")
        self.bound = bound

    def check_points(self, xs) -> None:
        for x in xs:
            if not isinstance(x, int) or x < 1 or x > self.bound:
                raise ContractViolation(
                    f"queries must use integers in [1, {self.bound}], got {x!r}"
                )

    def _consistent(self, xs, ys) -> bool:
        """Some hypothesis is 1 on every positive point and on no zero.  Two
        or more positives need a pair hypothesis, whose ones {p, q, pq} hold
        one composite: a positive composite's split fixes the pair, and
        without one the positive primes are the pair."""
        self.check_points(xs)
        if any(y not in (0, 1) for y in ys):
            raise ContractViolation("labels must be 0 or 1")
        assigned: dict[int, int] = {}
        for x, y in zip(xs, ys):
            if assigned.setdefault(x, y) != y:
                return False  # the same point demanded both labels
        positives = [x for x, y in assigned.items() if y == 1]
        if len(positives) < 2:
            # a lone prime pairs with a fresh prime above the bound, and a
            # lone n that is not pq has its point indicator
            pair = semiprime_split(positives[0]) if positives else None
            if pair is None:
                return True
        else:
            composites = [x for x in positives if not is_prime(x)]
            pair = semiprime_split(composites[0]) if composites else positives[:2]
            if pair is None:
                return False
        p, q = pair
        ones = {p, q, p * q}
        return ones.issuperset(positives) and all(assigned.get(x, 1) for x in ones)


def _margin_threshold(spec) -> ConceptClass:
    grid = spec["grid"]
    if isinstance(grid, (list, tuple)) and len(grid) == 3 and isinstance(grid[2], int):
        return MarginThresholdClass.regular(*grid, spec["margin"])
    return MarginThresholdClass([as_fraction(t) for t in grid], spec["margin"])


def _table(labels):
    return lambda spec: FiniteTableClass(parse_points(spec["domain"]), spec["table"], labels,
                                         num_classes=spec.get("num_classes"))


# per class kind: the labels its hypotheses give, the keys its description
# takes, and the builder that reads them
ClassKind = namedtuple("ClassKind", "labels keys build")
CLASS_KINDS = {
    "finite_table": ClassKind("binary", {"kind", "domain", "table"}, _table("binary")),
    "finite_multiclass": ClassKind("multiclass", {"kind", "domain", "table", "num_classes"},
                                   _table("multiclass")),
    "finite_real": ClassKind("real", {"kind", "domain", "table"}, _table("real")),
    "margin_threshold": ClassKind("binary", {"kind", "grid", "margin"}, _margin_threshold),
    "hprime": ClassKind("binary", {"kind", "bound"}, lambda spec: HPrimeClass(spec["bound"])),
}


def class_from_config(spec: dict) -> ConceptClass:
    """Build a concept class from its structured-text description."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    entry = CLASS_KINDS.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise ContractViolation(f"class config needs a known 'kind' tag, got {kind!r}")
    return entry.build(spec)


def parse_points(values):
    return tuple(as_fraction(v) if isinstance(v, (str, float)) else v for v in values)
