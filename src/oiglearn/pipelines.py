"""End-to-end learners: boosting the weak learner for partial binary samples,
plus the encodings that reduce multiclass and real-valued problems to it.

Multiclass samples become binary 'menu' examples over (point, label-pair)
inputs; regression samples become binary threshold examples over
(point, grid-threshold) inputs whose consistency is answered by range queries.
Agnostic variants first extract a maximum realizable subsample through the
weak-ERM reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .boost import BoostedModel, adaboost_predict, adaboost_train
from .core import ContractViolation, RandomStream, Sample, as_fraction
from .ermred import sample_con_real, sample_erm_binary, sample_erm_real
from .oracle import ErmValueOracle
from .weak import WeakLearnerParams, paper_default_params, weak_realizable


@dataclass(frozen=True)
class WeakSpec:
    """How the boosted pipelines instantiate their weak learner."""

    m: int  # weak-learner sample size
    c1: float = 1.0
    lam: float = 1.0

    def learner_params(self) -> WeakLearnerParams:
        return paper_default_params(self.m, self.c1, self.lam)


def boosting_rounds(n: int, delta: float, eta: float, log_factor: int) -> int:
    """ceil(16*log(log_factor*n/delta)/eta^2); log_factor is 4 for realizable
    pipelines and 6 for the agnostic binary one."""
    if n == 0:
        return 0
    return math.ceil(16 * math.log(log_factor * n / delta) / (eta * eta))


def make_weak_learner(params: WeakLearnerParams, bind):
    def learner(round_sample: Sample, x, stream: RandomStream) -> int:
        return weak_realizable(round_sample, x, params, bind, (stream,))[0].bit

    return learner


@dataclass(frozen=True)
class BoostedPredictor:
    """A boosted model and how a label is read off its vote.  Binary models
    vote on x itself (no decoder); the encoded pipelines' models vote on
    (x, code) inputs, and `decode(j_eval, x)` turns those votes into a label."""

    model: BoostedModel
    decode: Callable | None = None

    def j_eval(self, x, code) -> int:
        return adaboost_predict(self.model, (x, code))

    def predict(self, x):
        if self.decode is None:
            return adaboost_predict(self.model, x)
        return self.decode(self.j_eval, x)


def _boost(sample: Sample, weak: WeakSpec, bind, rounds: int, rng: RandomStream,
           decode=None) -> BoostedPredictor:
    learner = make_weak_learner(weak.learner_params(), bind)
    return BoostedPredictor(adaboost_train(sample, learner, weak.m, rounds, rng), decode)


# ---------------------------------------------------------------------------
# partial binary


def fit_realizable_partial(
    sample: Sample, weak: WeakSpec, eta: float, delta: float, con_oracle, rng: RandomStream,
) -> BoostedPredictor:
    return _boost(sample, weak, con_oracle.bind, boosting_rounds(len(sample), delta, eta, 4), rng)


def fit_agnostic_partial(
    sample: Sample, weak: WeakSpec, eta: float, delta: float,
    erm_oracle: ErmValueOracle, con_oracle, rng: RandomStream,
) -> BoostedPredictor:
    removal = sample_erm_binary(sample, erm_oracle)
    realizable = sample.subset([i for i, z in enumerate(removal) if z == 0])
    return _boost(realizable, weak, con_oracle.bind, boosting_rounds(len(sample), delta, eta, 6),
                  rng)


# ---------------------------------------------------------------------------
# multiclass via menus


def menu_consistency_oracle(base_con_oracle):
    """The bind function of consistency for menu examples through the base
    multiclass oracle: bit b on (x, (first, second)) demands h(x) be the b-th
    menu entry.  Binding splits the menu points into base points and menus
    once; one answer is one base query `base_con_oracle(xs, ys)`, which is
    where the ledger charge happens."""

    def bind(points):
        base_xs = tuple(x for x, _ in points)
        menus = [menu for _, menu in points]

        def answer(code: int) -> bool:
            base_ys = tuple(menu[code >> j & 1] for j, menu in enumerate(menus))
            return base_con_oracle(base_xs, base_ys)

        return answer

    return bind


def build_menu_sample(sample: Sample, num_classes: int) -> Sample:
    """The 2n(K-1) menu examples: first every (x_i, (y_i, other)) labeled 0,
    then every (x_i, (other, y_i)) labeled 1, in index-major order."""
    zeros, ones = [], []
    for x, y in sample.pairs:
        for other in range(1, num_classes + 1):
            if other == y:
                continue
            zeros.append(((x, (y, other)), 0))
            ones.append(((x, (other, y)), 1))
    return Sample(zeros + ones)


def decode_multiclass(j_eval, x, num_classes: int) -> int:
    """The unique label k with J(x,(k,l))=0 and J(x,(l,k))=1 for every other l,
    scanning candidates in order; defaults to 1 when no candidate qualifies."""
    if num_classes < 2:
        raise ContractViolation("need at least two classes")
    for k in range(1, num_classes + 1):
        if all(
            j_eval(x, (k, other)) == 0 and j_eval(x, (other, k)) == 1
            for other in range(1, num_classes + 1)
            if other != k
        ):
            return k
    return 1


def fit_multiclass_realizable(
    sample: Sample, num_classes: int, weak: WeakSpec, eta: float, delta: float,
    con_oracle, rng: RandomStream,
) -> BoostedPredictor:
    return _boost(
        build_menu_sample(sample, num_classes), weak, menu_consistency_oracle(con_oracle),
        boosting_rounds(len(sample) * num_classes, delta, eta, 4), rng,
        decode=partial(decode_multiclass, num_classes=num_classes),
    )


def fit_multiclass_agnostic(
    sample: Sample, num_classes: int, weak: WeakSpec, eta: float, delta: float,
    erm_oracle: ErmValueOracle, con_oracle, rng: RandomStream,
) -> BoostedPredictor:
    removal = sample_erm_binary(sample, erm_oracle)
    kept = sample.subset([i for i, z in enumerate(removal) if z == 0])
    return fit_multiclass_realizable(kept, num_classes, weak, eta, delta, con_oracle, rng)


# ---------------------------------------------------------------------------
# regression via thresholds


@lru_cache(maxsize=64)
def threshold_grid(gamma) -> tuple[Fraction, ...]:
    gamma = as_fraction(gamma)
    if not (0 < gamma < 1):
        raise ContractViolation("grid width must lie in (0,1)")
    count = int(Fraction(1) / gamma)  # floor
    return tuple(gamma * k for k in range(count + 1))


def threshold_consistency_oracle(range_query, gamma):
    """The bind function of consistency for threshold examples via one
    range query: bit 1 at (x, tau) demands h(x) in [tau+gamma, 1], bit 0
    demands [0, tau-gamma].
    Binding builds each point's two triples once, (x, 0, tau-gamma) for bit 0
    and (x, tau+gamma, 1) for bit 1, with None for a band outside [0,1],
    which is unsatisfiable outright.  An answer picks one triple per bit and
    is False at the first None, without a query."""
    gamma = as_fraction(gamma)
    zero, one = Fraction(0), Fraction(1)

    def bind(points):
        bands = []
        for x, tau in points:
            hi, lo = tau - gamma, tau + gamma
            bands.append(((x, zero, hi) if hi >= 0 else None,
                          (x, lo, one) if lo <= 1 else None))

        def answer(code: int) -> bool:
            triples = []
            for band in bands:
                triple = band[code & 1]
                if triple is None:
                    return False
                triples.append(triple)
                code >>= 1
            return range_query(triples)

        return answer

    return bind


def build_threshold_sample(sample: Sample, gamma, beta) -> Sample:
    """Threshold examples at margin beta, skipping in-band (undefined) entries;
    at most 2n*(floor(1/gamma)+1) of them."""
    beta = as_fraction(beta)
    out = []
    for x, y in sample.pairs:
        y = as_fraction(y)
        for tau in threshold_grid(gamma):
            if y >= tau + beta:
                out.append(((x, tau), 1))
            elif y <= tau - beta:
                out.append(((x, tau), 0))
    return Sample(out)


def decode_threshold(j_eval, x, gamma) -> Fraction:
    """gamma times the number of grid thresholds voted 1, clamped to at most 1:
    the grid has floor(1/gamma)+1 thresholds, so a unanimous vote reaches
    1+gamma when 1/gamma is an integer.  The vote is never negative."""
    return min(gamma * sum(j_eval(x, tau) for tau in threshold_grid(gamma)), Fraction(1))


def fit_reg_realizable(
    sample: Sample, weak: WeakSpec, eta: float, delta: float, gamma, beta,
    range_query, rng: RandomStream,
) -> BoostedPredictor:
    gamma = as_fraction(gamma)
    beta = as_fraction(beta)
    if beta < gamma:
        raise ContractViolation("margin beta must be at least the grid width")
    return _boost(
        build_threshold_sample(sample, gamma, beta), weak,
        threshold_consistency_oracle(range_query, gamma),
        boosting_rounds(len(sample), delta, eta, 4), rng,
        decode=partial(decode_threshold, gamma=gamma),
    )


def fit_reg_agnostic(
    sample: Sample, weak: WeakSpec, eta: float, delta: float, gamma,
    erm_oracle: ErmValueOracle, rng: RandomStream,
) -> BoostedPredictor:
    gamma = as_fraction(gamma)
    if gamma.numerator != 1:
        raise ContractViolation("agnostic regression needs gamma = 1/G")
    pinned = sample_erm_real(sample, gamma / 2, erm_oracle)
    snapped = Sample(list(zip(sample.xs, pinned)))
    # each range query becomes one weak-ERM call on the doubled sample
    return fit_reg_realizable(
        snapped, weak, eta, delta, gamma, 2 * gamma,
        lambda triples: sample_con_real(triples, erm_oracle), rng,
    )
