"""Shared data model: labels, losses, samples, finite distributions, split streams.

Everything here is an immutable value.  Losses and empirical errors are exact
rationals; floating point only ever enters through Monte-Carlo averages
computed elsewhere.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

import numpy as np


class _Star:
    """The 'undefined' label of partial binary hypotheses."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"

    def __reduce__(self):
        return (_Star, ())


STAR = _Star()

BINARY_LABELS = (0, 1)


def loss_bin(y, y_pred) -> int:
    """0/1 loss for partial binary labels: a star on either side is an error."""
    if y is STAR or y_pred is STAR:
        return 1
    return 0 if y == y_pred else 1


def loss_mc(y: int, y_pred: int) -> int:
    """0/1 multiclass loss."""
    return 0 if y == y_pred else 1


def loss_abs(y, y_pred) -> Fraction:
    """Absolute loss on [0,1], exact."""
    y = Fraction(y)
    y_pred = Fraction(y_pred)
    if not (0 <= y <= 1 and 0 <= y_pred <= 1):
        raise ContractViolation(f"absolute-loss labels must lie in [0,1], got {y}, {y_pred}")
    return abs(y - y_pred)


class ContractViolation(ValueError):
    """An operation was called outside its stated preconditions."""


class Sample:
    """An ordered sequence of (point, label) pairs; repetitions allowed."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[Any, Any]]):
        self.pairs = tuple((x, y) for x, y in pairs)

    @property
    def xs(self) -> tuple:
        return tuple(x for x, _ in self.pairs)

    @property
    def ys(self) -> tuple:
        return tuple(y for _, y in self.pairs)

    def without(self, i: int) -> "Sample":
        """The sample with entry i removed (leave-one-out)."""
        return Sample(self.pairs[:i] + self.pairs[i + 1 :])

    def subset(self, indices: Sequence[int]) -> "Sample":
        return Sample(self.pairs[i] for i in indices)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def __eq__(self, other):
        return isinstance(other, Sample) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Sample({list(self.pairs)!r})"


def empirical_error(sample: Sample, hypothesis: Callable[[Any], Any], loss) -> Fraction:
    """Mean loss of `hypothesis` over the sample, as an exact rational."""
    if len(sample) == 0:
        raise ContractViolation("empirical error of an empty sample is undefined")
    total = sum(Fraction(loss(y, hypothesis(x))) for x, y in sample)
    return total / len(sample)


def as_fraction(value) -> Fraction:
    """Parse ints, Fractions, 'p/q' strings, and decimal literals exactly.

    Floats are converted through their shortest decimal repr, so a config
    value written as 0.02 means exactly 1/50.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ContractViolation("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ContractViolation(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class FiniteDistribution:
    """A finitely supported distribution over (point, label) pairs.

    Weights are exact rationals summing to one, so expectations of exact
    losses are themselves exact.
    """

    support: tuple[tuple[Any, Any], ...]
    weights: tuple[Fraction, ...]
    _cumulative: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.support) == 0:
            raise ContractViolation("distribution support must be nonempty")
        if len(self.support) != len(self.weights):
            raise ContractViolation("support and weights must have equal length")
        weights = tuple(as_fraction(w) for w in self.weights)
        if any(w < 0 for w in weights):
            raise ContractViolation("weights must be nonnegative")
        total = sum(weights)
        if abs(total - 1) > Fraction(1, 10**12):
            raise ContractViolation(f"weights sum to {total}, not 1")
        if total != 1:  # renormalise exactly within the tolerance
            weights = tuple(w / total for w in weights)
        object.__setattr__(self, "weights", weights)
        cum, acc = [], 0.0
        for w in weights:
            acc += float(w)
            cum.append(acc)
        cum[-1] = 1.0
        object.__setattr__(self, "_cumulative", tuple(cum))

    @classmethod
    def uniform(cls, pairs) -> "FiniteDistribution":
        pairs = tuple(pairs)
        return cls(pairs, tuple(Fraction(1, len(pairs)) for _ in pairs))

    def draw(self, gen: np.random.Generator, n: int) -> Sample:
        """n i.i.d. draws via inverse CDF over the cumulative weights."""
        us = gen.random(n)
        return Sample(self.support[bisect_right(self._cumulative, u)] for u in us)

    def expected_loss(self, hypothesis: Callable[[Any], Any], loss):
        """Exact E[loss(h(x), y)]; rational whenever the loss is."""
        return sum(
            (w * Fraction(loss(y, hypothesis(x))) for (x, y), w in zip(self.support, self.weights)),
            start=Fraction(0),
        )

    def with_label_noise(self, rate, labels) -> "FiniteDistribution":
        """Move each label to a uniformly chosen other one of `labels` with
        probability `rate`, as an exact mixture; on labels (0, 1) that is a
        flip."""
        rate = as_fraction(rate)
        if not (0 <= rate <= 1):
            raise ContractViolation("noise rate must lie in [0,1]")
        if rate == 0:
            return self
        pairs, weights = [], []
        for (x, y), w in zip(self.support, self.weights):
            if y not in labels:
                raise ContractViolation(f"label noise requires labels in {tuple(labels)}")
            pairs.append((x, y))
            weights.append(w * (1 - rate))
            others = [k for k in labels if k != y]
            for k in others:
                pairs.append((x, k))
                weights.append(w * rate / len(others))
        return FiniteDistribution(tuple(pairs), tuple(weights))


def stable_hash64(obj) -> int:
    """A 64-bit hash of plain values that is stable across processes.

    Python's builtin hash is salted per process, which would break replay of
    stored models; this one is a fixed function of the value.
    """
    h = hashlib.blake2b(digest_size=8)
    _feed(h, obj)
    return int.from_bytes(h.digest(), "big")


def _feed(h, obj):
    if obj is None:
        h.update(b"N")
    elif obj is STAR:
        h.update(b"*")
    elif isinstance(obj, bool):
        h.update(b"B" + bytes([obj]))
    elif isinstance(obj, int):
        h.update(b"I" + str(obj).encode())
    elif isinstance(obj, Fraction):
        h.update(b"Q" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"F" + repr(obj).encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode())
    elif isinstance(obj, bytes):
        h.update(b"Y" + obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"T" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    else:
        raise ContractViolation(f"unhashable domain value {obj!r}")


@dataclass(frozen=True)
class RandomStream:
    """A splittable counter-based randomness source.

    A stream is identified by (seed, path); children append a 64-bit label to
    the path.  Streams with equal identity produce identical outputs, and
    sibling streams are independent, so parallel work keyed by child labels is
    reproducible regardless of scheduling.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, label: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + (int(label) & 0xFFFFFFFFFFFFFFFF,))

    def child_for(self, obj) -> "RandomStream":
        """Child keyed by the stable hash of an arbitrary plain value."""
        return self.child(stable_hash64(obj))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))
