"""AdaBoost over a randomized weak learner, with deterministic replay.

Each round resamples a small dataset from the current weights, fits the weak
learner with a fresh child stream, and reweights by the usual exponential
rule.  The trained model keeps its weak learner and stores no hypothesis: each
round holds its resampled sample, its vote weight alpha, the weak learner's
stream and the answers its hypothesis has given.  A point the round has not
answered is replayed on demand from the same sample and stream, so prediction
is a fixed function of the model and the query point.  The training error is
that same vote at the training points, read from the rounds' answers without a
weak-learner call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import ContractViolation, RandomStream, Sample

# weak learner contract: (sample, point, stream) -> bit in {0,1}
WeakLearner = Callable[[Sample, object, RandomStream], int]


def epsilon_alpha(dist: np.ndarray, h_bits, y_bits) -> tuple[float, float]:
    """Weighted error of the round hypothesis and its vote weight.

    alpha is +inf / -inf at the degenerate errors 0 / 1; callers early-stop
    there, keeping the single (possibly negated) hypothesis.
    """
    h = np.asarray(h_bits)
    y = np.asarray(y_bits)
    eps = float(dist[h != y].sum())
    if eps <= 0.0:
        return 0.0, math.inf
    if eps >= 1.0:
        return 1.0, -math.inf
    return eps, 0.5 * math.log((1 - eps) / eps)


def reweight(dist: np.ndarray, alpha: float, h_bits, y_bits) -> tuple[np.ndarray, float]:
    """Exponential reweighting; returns the new distribution and the
    normalizer Z (in the unnormalized pre-division scale)."""
    if not math.isfinite(alpha):
        raise ContractViolation("reweighting needs a finite alpha")
    h = np.asarray(h_bits, dtype=np.float64)
    y = np.asarray(y_bits, dtype=np.float64)
    w = dist * np.exp(-alpha * (2 * y - 1) * (2 * h - 1))
    z = float(w.sum())
    return w / z, z


@dataclass(frozen=True)
class BoostRound:
    sample: Sample  # the round's resample of the training sample
    alpha: float
    stream: RandomStream  # the weak learner's stream
    # x -> the bit the round's hypothesis gave at x; filled as points are replayed
    answers: dict = field(compare=False, repr=False)


@dataclass
class BoostedModel:
    """The training sample, the weak learner that replays every round, and the
    kept rounds, with the exact training error and the product of the round
    normalizers."""

    sample: Sample
    weak: WeakLearner
    rounds: tuple[BoostRound, ...]
    early_stop: bool = False
    train_error: Fraction | None = None
    z_product: float | None = None


def adaboost_train(
    sample: Sample,
    weak: WeakLearner,
    weak_sample_size: int,
    rounds: int,
    rng: RandomStream,
) -> BoostedModel:
    """Run `rounds` boosting rounds of the weak learner on the sample.

    Labels must be 0/1.  If a round's weighted error hits 0 (or 1) exactly the
    loop stops and the model is that single hypothesis (negated for error 1).
    The returned model carries its exact training error and the product of the
    round normalizers, which always bounds it.
    """
    n = len(sample)
    if n == 0:
        return BoostedModel(sample, weak, ())
    y = np.array([1 if lab == 1 else 0 for lab in sample.ys], dtype=np.int8)
    if any(lab not in (0, 1) for lab in sample.ys):
        raise ContractViolation("boosting requires binary 0/1 labels")
    xs = sample.xs
    dist = np.full(n, 1.0 / n)
    kept: list[BoostRound] = []
    zs: list[float] = []
    early = False
    for t in range(rounds):
        round_stream = rng.child(t)
        gen = round_stream.child(0).generator()
        cum = np.cumsum(dist)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, gen.random(weak_sample_size), side="right")
        round_sample = sample.subset(idx)
        learner_stream = round_stream.child(1)
        answers: dict = {}
        for x in xs:
            if x not in answers:
                answers[x] = weak(round_sample, x, learner_stream)
        bits = np.array([answers[x] for x in xs], dtype=np.int8)
        eps, alpha = epsilon_alpha(dist, bits, y)
        kept.append(BoostRound(round_sample, alpha, learner_stream, answers))
        if not math.isfinite(alpha):
            kept, zs, early = kept[-1:], [], True
            break
        dist, z = reweight(dist, alpha, bits, y)
        zs.append(z)
        total = dist.sum()
        if abs(total - 1.0) > 1e-12:
            raise RuntimeError(f"round weights drifted from 1 by {abs(total - 1.0)}")
    model = BoostedModel(sample, weak, tuple(kept), early_stop=early)
    # every round has answered every training point, so the replay is free
    wrong = sum(adaboost_predict(model, x) != lab for x, lab in sample.pairs)
    model.train_error = Fraction(wrong, n)
    model.z_product = float(np.prod(zs)) if zs else (0.0 if early else 1.0)
    if not early and model.train_error > model.z_product + 1e-9:
        raise RuntimeError("training error exceeded the normalizer product bound")
    return model


def adaboost_predict(model: BoostedModel, x) -> int:
    """Weighted-majority vote at x, replaying each round's hypothesis with the
    model's weak learner on the round's sample and stream; sign(0) votes 1."""
    if not model.rounds:
        return 1
    score = 0.0
    for round_ in model.rounds:
        b = round_.answers.get(x)
        if b is None:
            b = round_.answers[x] = model.weak(round_.sample, x, round_.stream)
        if not math.isfinite(round_.alpha):
            return b if round_.alpha > 0 else 1 - b
        score += round_.alpha * (2 * b - 1)
    return 1 if score >= 0 else 0
