"""Concrete concept classes with analytically implemented oracles.

Three families ship here: explicit finite tables (binary-with-star, multiclass
or real valued), margin thresholds over a finite grid (a canonical
VC-dimension-1 partial class), and the primality-based class whose point is
that realizability is cheap to decide while producing a minimizer would factor
integers.  Every oracle answer is exact and cross-checkable by enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import sub
from typing import Any, Iterable, Sequence

_PRIME_CACHE_SIZE = 1 << 16

from .core import STAR, ContractViolation, as_fraction, loss_abs, loss_bin
from .oracle import (
    CONSISTENCY,
    ERM_VALUE,
    RANGE_CONSISTENCY,
    ConceptClass,
    OracleCapabilityError,
)

_BINARY_ENTRIES = frozenset({0, 1, STAR})


class FiniteTableClass(ConceptClass):
    """A concept class given by an explicit (hypothesis x domain point) table.

    kind is one of 'binary' (labels 0/1/STAR), 'multiclass' (labels 1..K) or
    'real' (rational labels in [0,1]).  All three oracles answer exactly.
    Consistency and projection work on one bitset of rows per (column,
    label), so they cost one AND or split per query point.  The bitsets of a
    column hold one bit per row for each distinct label in it.  ERM under
    absolute loss on a real table sums integer distances: the entries are
    held as integers over their common denominator, and each query's labels
    are scaled once to a denominator both divide.  Every other ERM query and
    the range oracle scan the rows in fractions.
    """

    capabilities = frozenset({CONSISTENCY, ERM_VALUE, RANGE_CONSISTENCY})

    def __init__(self, domain: Sequence, table: Sequence[Sequence], kind: str, num_classes: int | None = None):
        if kind not in ("binary", "multiclass", "real"):
            raise ContractViolation(f"unknown table kind {kind!r}")
        self.domain = tuple(domain)
        if not self.domain:
            raise ContractViolation("domain must be nonempty")
        self.kind = kind
        self.num_classes = num_classes
        rows = []
        for row in table:
            row = tuple(row)
            if len(row) != len(self.domain):
                raise ContractViolation("table row length must match the domain")
            if kind == "binary":
                if not set(row) <= _BINARY_ENTRIES:
                    raise ContractViolation("binary table entries must be 0, 1 or STAR")
            elif kind == "multiclass":
                if num_classes is None:
                    raise ContractViolation("multiclass tables need num_classes")
                if any(not (1 <= v <= num_classes) for v in row):
                    raise ContractViolation("multiclass labels must lie in 1..K")
            else:
                row = tuple(as_fraction(v) for v in row)
                if any(not (0 <= v <= 1) for v in row):
                    raise ContractViolation("real labels must lie in [0,1]")
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
        self._scaled_rows: tuple[int, tuple] | None = None

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

    def _consistent(self, xs, ys) -> bool:
        alive = self._all_rows
        for col, y in zip([self._column(x) for x in xs], ys):
            alive &= self._rows_by_label(col).get(y, 0)
            if not alive:
                return False
        return True

    def _integer_rows(self) -> tuple[int, tuple]:
        """(D, rows): D is the lcm of the entries' denominators and each row
        holds its entries times D, as ints.  Built on the first absolute-loss
        ERM query."""
        if self._scaled_rows is None:
            denominator = lcm(*(v.denominator for row in self.table for v in row))
            rows = tuple(
                tuple(v.numerator * (denominator // v.denominator) for v in row)
                for row in self.table
            )
            self._scaled_rows = (denominator, rows)
        return self._scaled_rows

    def _abs_erm_value(self, xs, ys) -> Fraction:
        """The least absolute-loss sum over the rows, as a mean, in integers
        over L = lcm(D, label denominators): sum |y*L - (L/D)*(v*D)| per row,
        stopping at the first zero."""
        cols = [self._column(x) for x in xs]
        ratios = [y.as_integer_ratio() for y in ys]
        for (num, den), y in zip(ratios, ys):
            if not 0 <= num <= den:
                raise ContractViolation(f"absolute-loss labels must lie in [0,1], got {y}")
        denominator, rows = self._integer_rows()
        scale = lcm(denominator, *(den for _, den in ratios))
        targets = [num * (scale // den) for num, den in ratios]
        up = scale // denominator
        best = None
        for row in rows:
            values = map(row.__getitem__, cols)
            if up != 1:
                values = map(up.__mul__, values)
            total = sum(map(abs, map(sub, targets, values)))
            if best is None or total < best:
                best = total
                if best == 0:
                    break
        return Fraction(best, scale * len(xs))

    def _erm_value(self, xs, ys, loss) -> Fraction:
        """The least loss sum over the rows, as a mean.  Losses are
        nonnegative, so the scan stops at the first zero-loss row."""
        if self.kind == "real" and loss is loss_abs:
            return self._abs_erm_value(xs, ys)
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
        if self.kind != "real":
            raise OracleCapabilityError("range consistency only applies to real-valued tables")
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
        for col in [self._column(x) for x in xs]:
            by_label = self._rows_by_label(col)
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
    """

    capabilities = frozenset({CONSISTENCY, ERM_VALUE})

    def __init__(self, grid: Iterable, margin):
        self.grid = tuple(sorted(as_fraction(t) for t in grid))
        if not self.grid:
            raise ContractViolation("threshold grid must be nonempty")
        self.margin = as_fraction(margin)
        if not (0 < self.margin < 1):
            raise ContractViolation("margin must lie in (0,1)")

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

    def _consistent(self, xs, ys) -> bool:
        lo, hi = None, None
        for x, y in zip(xs, ys):
            x = as_fraction(x)
            if y == 1:
                cap = x - self.margin
                hi = cap if hi is None or cap < hi else hi
            elif y == 0:
                cap = x + self.margin
                lo = cap if lo is None or cap > lo else lo
            else:
                return False  # no threshold gives any label but 0 or 1
        idx = 0 if lo is None else bisect_left(self.grid, lo)
        if idx >= len(self.grid):
            return False
        return hi is None or self.grid[idx] <= hi

    def _erm_value(self, xs, ys, loss) -> Fraction:
        """Least mean loss over the grid.  Under loss_bin, one sorted sweep:
        h_t errs on (x, 1) iff t > x - margin, on (x, 0) iff t < x + margin,
        and on every other label (STAR included) whatever t is."""
        if loss is not loss_bin:
            xs = [as_fraction(x) for x in xs]
            best = min(
                sum(loss(y, self.label_of(t, x)) for x, y in zip(xs, ys)) for t in self.grid
            )
            return Fraction(best) / len(xs)
        above, below, always = [], [], 0
        for x, y in zip(xs, ys):
            if y == 1:
                above.append(as_fraction(x) - self.margin)
            elif y == 0:
                below.append(as_fraction(x) + self.margin)
            else:
                always += 1
        above.sort()
        below.sort()
        best = min(
            bisect_left(above, t) + len(below) - bisect_right(below, t) for t in self.grid
        )
        return Fraction(best + always, len(xs))

    def project_onto(self, xs) -> frozenset:
        xs = [as_fraction(x) for x in xs]
        out = set()
        for t in self.grid:
            pattern = tuple(self.label_of(t, x) for x in xs)
            if STAR not in pattern:
                out.add(pattern)
        return frozenset(out)


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


# per class kind, the labels its hypotheses give and the keys
# `class_from_config` reads
CLASS_KINDS = {
    "finite_table": ("binary", frozenset({"kind", "domain", "table"})),
    "finite_multiclass": ("multiclass", frozenset({"kind", "domain", "table", "num_classes"})),
    "finite_real": ("real", frozenset({"kind", "domain", "table"})),
    "margin_threshold": ("binary", frozenset({"kind", "grid", "margin"})),
    "hprime": ("binary", frozenset({"kind", "bound"})),
}


def class_from_config(spec: dict) -> ConceptClass:
    """Build a concept class from its structured-text description."""
    try:
        kind = spec["kind"]
    except (KeyError, TypeError):
        raise ContractViolation("class config needs a 'kind' tag") from None
    if kind == "finite_table":
        table = [[_parse_binary_label(v) for v in row] for row in spec["table"]]
        return FiniteTableClass(parse_points(spec["domain"]), table, "binary")
    if kind == "finite_multiclass":
        return FiniteTableClass(
            parse_points(spec["domain"]), spec["table"], "multiclass", num_classes=spec["num_classes"]
        )
    if kind == "finite_real":
        table = [[as_fraction(v) for v in row] for row in spec["table"]]
        return FiniteTableClass(parse_points(spec["domain"]), table, "real")
    if kind == "margin_threshold":
        grid = spec["grid"]
        if isinstance(grid, (list, tuple)) and len(grid) == 3 and isinstance(grid[2], int):
            start, step, count = grid
            return MarginThresholdClass.regular(start, step, count, spec["margin"])
        return MarginThresholdClass([as_fraction(t) for t in grid], spec["margin"])
    if kind == "hprime":
        return HPrimeClass(spec["bound"])
    raise ContractViolation(f"unknown class kind {kind!r}")


def _parse_binary_label(v):
    if v in (0, 1):
        return v
    if v in ("*", None):
        return STAR
    raise ContractViolation(f"binary table entries must be 0, 1 or '*', got {v!r}")


def parse_points(values):
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(as_fraction(v))
        elif isinstance(v, float):
            out.append(as_fraction(v))
        else:
            out.append(v)
    return tuple(out)
