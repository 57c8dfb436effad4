"""Oracle interfaces over concept classes, with cumulative query-cost accounting.

Learning algorithms never touch a concept class directly: they hold one of the
oracle handles below, which answer a single bit (consistency, range
consistency) or a scalar (ERM value), and charge a shared ledger by the
number of examples in each query.

The weak learner asks its consistency oracle through `bind(points)`, which
resolves a point sequence once and returns a callable on label codes (bit j
of a code labels points[j], see `core.pack`); each answer is one charged
call of size len(points).  The weak learner takes that bind function
itself, so the menu and threshold encodings and the leave-one-out contexts
are bind functions with no handle around them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .core import STAR, ContractViolation, Sample, as_fraction, unpack

# capability tags a concept class may advertise
CONSISTENCY = "consistency"
ERM_VALUE = "erm_value"
RANGE_CONSISTENCY = "range_consistency"
PROJECTION = "projection"


class OracleCapabilityError(RuntimeError):
    """The concept class does not implement the requested oracle."""


class QueryCostLedger:
    """Running totals of oracle calls and cumulative query cost.

    Cost is the sum of input sizes (number of examples per call).
    """

    def __init__(self):
        self.total_cost = 0
        self.call_count = 0

    def charge(self, size: int):
        if size < 0:
            raise ContractViolation("query size cannot be negative")
        self.total_cost += size
        self.call_count += 1

    def snapshot(self) -> tuple[int, int]:
        return self.total_cost, self.call_count

    def __repr__(self):
        return f"QueryCostLedger(cost={self.total_cost}, calls={self.call_count})"


class ConceptClass:
    """Base for concept classes; subclasses advertise the oracles they implement."""

    capabilities: frozenset = frozenset()

    def require(self, capability: str):
        if capability not in self.capabilities:
            raise OracleCapabilityError(
                f"{type(self).__name__} does not implement the {capability} oracle"
            )

    def check_points(self, xs) -> None:
        """Raise ContractViolation unless every point lies in the class domain."""

    def consistent_on(self, xs: tuple, ys: tuple) -> bool:
        """Does some hypothesis label each point xs[i] with ys[i]?"""
        if len(xs) != len(ys):
            raise ContractViolation("a consistency query needs one label per point")
        return self._consistent(xs, ys)

    def bind_consistency(self, xs: tuple) -> Callable[[int], bool]:
        """code -> _consistent(xs, unpack(code, len(xs))), after checking the
        points once; a class that can resolve the points once overrides it."""
        self.check_points(xs)
        m, consistent = len(xs), self._consistent
        return lambda code: consistent(xs, unpack(code, m))

    def erm_value_on(self, xs: tuple, ys: tuple) -> Fraction:
        """The least mean loss of any hypothesis on the labeled points, under
        the loss of the class's label kind."""
        if len(xs) != len(ys):
            raise ContractViolation("an ERM value query needs one label per point")
        return self._erm_value(xs, ys)

    # raw per-class implementations; only the advertised ones are overridden
    def _consistent(self, xs: tuple, ys: tuple) -> bool:
        raise OracleCapabilityError(f"{type(self).__name__}: no consistency oracle")

    def _erm_value(self, xs: tuple, ys: tuple) -> Fraction:
        raise OracleCapabilityError(f"{type(self).__name__}: no weak ERM oracle")

    def range_consistent_on(self, xs: tuple, lower: tuple, upper: tuple) -> bool:
        raise OracleCapabilityError(f"{type(self).__name__}: no range consistency oracle")


class ConsistencyOracle:
    """Callable handle binding a class's consistency oracle to a ledger:
    `oracle(xs, ys)` asks whether some hypothesis labels each point xs[i]
    ys[i], and `oracle.bind(points)(code)` asks it of the labels a code puts
    on the points."""

    def __init__(self, concept_class: ConceptClass, ledger: QueryCostLedger):
        concept_class.require(CONSISTENCY)
        self.concept_class = concept_class
        self.ledger = ledger

    def __call__(self, xs: tuple, ys: tuple) -> bool:
        if len(xs) != len(ys):
            raise ContractViolation(f"consistency query has {len(xs)} points but {len(ys)} labels")
        for y in ys:
            if y is STAR:
                raise ContractViolation("consistency queries must not contain * labels")
            if y not in (0, 1) and not isinstance(y, int):
                raise ContractViolation(f"unexpected query label {y!r}")
        self.ledger.charge(len(xs))
        return self.concept_class.consistent_on(xs, ys)

    def bind(self, points) -> Callable[[int], bool]:
        """code -> is the labeling with bit j on points[j] consistent?  The
        points are checked here, before any charge; each answer is charged as
        one call of size len(points)."""
        points = tuple(points)
        answer = self.concept_class.bind_consistency(points)
        charge, size = self.ledger.charge, len(points)

        def ask(code: int) -> bool:
            charge(size)
            return answer(code)

        return ask


class ErmValueOracle:
    """Callable handle for the value-only ERM oracle: the minimum empirical
    loss over the class, exact, under the loss its label kind fixes."""

    def __init__(self, concept_class: ConceptClass, ledger: QueryCostLedger):
        concept_class.require(ERM_VALUE)
        self.concept_class = concept_class
        self.ledger = ledger

    def __call__(self, sample) -> Fraction:
        pairs = sample.pairs if isinstance(sample, Sample) else tuple(sample)
        xs = tuple(x for x, _ in pairs)
        ys = tuple(y for _, y in pairs)
        if not xs:
            raise ContractViolation("ERM value of an empty sample is undefined")
        self.ledger.charge(len(xs))
        return self.concept_class.erm_value_on(xs, ys)


class RangeConsistencyOracle:
    """Callable handle for range consistency: is there a hypothesis with
    lower_i <= h(x_i) <= upper_i for every triple (x_i, lower_i, upper_i)?"""

    def __init__(self, concept_class: ConceptClass, ledger: QueryCostLedger):
        concept_class.require(RANGE_CONSISTENCY)
        self.concept_class = concept_class
        self.ledger = ledger

    def __call__(self, triples) -> bool:
        triples = tuple(triples)
        xs = tuple(t[0] for t in triples)
        lower = tuple(as_fraction(t[1]) for t in triples)
        upper = tuple(as_fraction(t[2]) for t in triples)
        for lo, hi in zip(lower, upper):
            if lo > hi:
                raise ContractViolation(f"empty range [{lo}, {hi}] in range query")
            if lo < 0 or hi > 1:
                raise ContractViolation("range endpoints must lie in [0,1]")
        self.ledger.charge(len(xs))
        return self.concept_class.range_consistent_on(xs, lower, upper)
