"""Shared data model: labels, losses, samples, finite distributions, split streams.

Everything here is an immutable value.  Losses and empirical errors are exact
rationals; floating point only ever enters through Monte-Carlo averages
computed elsewhere.
"""

from __future__ import annotations

import hashlib
import operator
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from numbers import Integral
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


def pack(v: tuple) -> int:
    """The label code of a 0/1 pattern: the integer whose bit j is v[j]."""
    code = 0
    for j, b in enumerate(v):
        if b:
            code |= 1 << j
    return code


def unpack(code: int, m: int) -> tuple:
    """The 0/1 pattern on m points whose label code is `code`."""
    return tuple((code >> j) & 1 for j in range(m))


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
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ContractViolation(f"{value!r} has a zero denominator") from None
    raise ContractViolation(f"cannot interpret {value!r} as a rational")


def as_integer(value) -> int:
    """Parse integers and decimal strings; int() would run true as 1 and 2.7 as 2."""
    if isinstance(value, bool) or not isinstance(value, (str, Integral)):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _binary_label(value):
    # a table writes an undefined entry as "*" or null
    return STAR if value is STAR or value is None or value == "*" else as_integer(value)


# One row per label kind: its learners' loss, the type its labels parse to and
# the parser of one, the least and greatest label at num_classes K (label noise
# moves a label to another integer between them), and its pipelines' key.
LabelKind = namedtuple("LabelKind", "loss type parse bounds requires")
LABEL_KINDS = {
    "binary": LabelKind(loss_bin, int, _binary_label, lambda k: (0, 1), None),
    "multiclass": LabelKind(loss_mc, int, as_integer, lambda k: (1, k), "num_classes"),
    "real": LabelKind(loss_abs, Fraction, as_fraction, lambda k: (0, 1), "gamma"),
}


def check_labels(kind: str, labels, num_classes=None) -> None:
    """Raise ContractViolation naming a parsed label outside its kind's bounds."""
    row = LABEL_KINDS[kind]
    low, high = row.bounds(num_classes)
    if high is None:
        raise ContractViolation(f"{kind} labels need {row.requires}")
    for y in set(labels):
        if y is STAR or not low <= y <= high:
            raise ContractViolation(f"{kind} labels must lie in [{low}, {high}], got {y}")


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


# numpy's SeedSequence constants (numpy.random.bit_generator), after O'Neill's
# seed_seq: the entropy hash, the pool mix, and the output hash
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _hashmix(value: int, h: int) -> tuple[int, int]:
    value ^= h
    h = h * _MULT_A & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


# the output hash's running constant before and after each of the four words
# `generate_state(2, np.uint64)` hashes
_OUT_HASH = tuple(_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32 for k in range(5))


def _non_negative(n) -> int:
    """n as numpy's `_int_to_uint32_array` accepts it: a non-negative integer."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return n


def _root_mix(seed: int) -> tuple[int, int, int, int, int]:
    """The pool and hash constant of a SeedSequence after the seed's words.

    The first four words fill the pool, zeros past the seed's last word, as
    numpy pads the run entropy to the pool size under a spawn key (and as its
    unpadded pool fill hashes them without one); every pool word is then mixed
    into every other, and any words past the pool are absorbed."""
    seed = _non_negative(seed)
    h = _INIT_A
    pool = []
    for shift in (0, 32, 64, 96):
        word, h = _hashmix(seed >> shift & _MASK32, h)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if dst != src:
                word, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], word)
    state = (*pool, h)
    return _absorb(state, seed >> 128) if seed >> 128 else state


def _absorb(state: tuple, n: int) -> tuple[int, int, int, int, int]:
    """The state after the 32-bit words of n, low word first (one word for
    n < 2^32, including 0), each hashed once per pool word and mixed into it,
    as SeedSequence mixes every entropy word past the pool size.  Unrolled:
    it runs for every label of every stream that builds a generator."""
    a, b, c, d, h = state
    while True:
        w = n & _MASK32
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        a = (_MIX_L * a - _MIX_R * (v ^ v >> 16)) & _MASK32
        a ^= a >> 16
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        b = (_MIX_L * b - _MIX_R * (v ^ v >> 16)) & _MASK32
        b ^= b >> 16
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        c = (_MIX_L * c - _MIX_R * (v ^ v >> 16)) & _MASK32
        c ^= c >> 16
        v = w ^ h
        h = h * _MULT_A & _MASK32
        v = v * h & _MASK32
        d = (_MIX_L * d - _MIX_R * (v ^ v >> 16)) & _MASK32
        d ^= d >> 16
        n >>= 32
        if not n:
            return a, b, c, d, h


@cache
def _philox_key_type() -> type:
    """A seed sequence that hands Philox the key words it holds; a bit
    generator seeded through it builds no SeedSequence of its own.  Defined
    on first use, as importing `numpy.random` costs a process that draws
    nothing tens of milliseconds."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype is not np.uint64:
                raise ContractViolation("a Philox key is two 64-bit words")
            return self.key

    return PhiloxKey


@dataclass(frozen=True)
class RandomStream:
    """A splittable counter-based randomness source.

    A stream is identified by (seed, path); children append a 64-bit label to
    the path.  Streams with equal identity produce identical outputs, and
    sibling streams are independent, so parallel work keyed by child labels is
    reproducible regardless of scheduling.

    The generator is Philox keyed by numpy's documented SeedSequence
    derivation, `SeedSequence(entropy=seed, spawn_key=path)`, carried
    incrementally: a stream keeps SeedSequence's mixing state after its path
    (the 4-word pool and the running hash constant), computed at most once,
    and a child starts from its parent's and absorbs only its own label.  The
    key is `generate_state(2, np.uint64)`'s output hash of that pool.
    `brute.reference_generator` is numpy's own path, and `oig selftest`
    compares the two.  The cached state takes no part in equality, hashing,
    repr or pickling.
    """

    seed: int
    path: tuple[int, ...] = ()
    _mix: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _parent: "RandomStream | None" = field(default=None, init=False, compare=False, repr=False)

    def child(self, label: int) -> "RandomStream":
        child = RandomStream(self.seed, self.path + (int(label) & 0xFFFFFFFFFFFFFFFF,))
        object.__setattr__(child, "_parent", self)
        return child

    def child_for(self, obj) -> "RandomStream":
        """Child keyed by the stable hash of an arbitrary plain value."""
        return self.child(stable_hash64(obj))

    def __getstate__(self):
        return {"seed": self.seed, "path": self.path}

    def _mixing_state(self) -> tuple[int, int, int, int, int]:
        state = self._mix
        if state is None:
            if self._parent is not None:
                state = _absorb(self._parent._mixing_state(), self.path[-1])
            else:
                state = _root_mix(self.seed)
                for label in self.path:
                    state = _absorb(state, _non_negative(label))
            object.__setattr__(self, "_mix", state)
        return state

    def generator(self) -> np.random.Generator:
        a, b, c, d, _ = self._mixing_state()
        h0, h1, h2, h3, h4 = _OUT_HASH
        lo0 = (a ^ h0) * h1 & _MASK32
        hi0 = (b ^ h1) * h2 & _MASK32
        lo1 = (c ^ h2) * h3 & _MASK32
        hi1 = (d ^ h3) * h4 & _MASK32
        key = np.array(
            [lo0 ^ lo0 >> 16 | (hi0 ^ hi0 >> 16) << 32, lo1 ^ lo1 >> 16 | (hi1 ^ hi1 >> 16) << 32],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(_philox_key_type()(key)))
