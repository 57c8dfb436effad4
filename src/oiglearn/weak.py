"""The oracle-efficient weak learner for realizable partial binary samples.

Given a realizable context sample and a query point, the learner forms the two
completions of the label pattern, discards one if the consistency oracle rules
it out, and otherwise orients the corresponding one-inclusion-graph edge by
comparing Monte-Carlo exit-time potentials of the two completion vertices.
The output bit is a Bernoulli draw from that orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .core import ContractViolation, RandomStream, Sample, loss_bin, pack
from .oig import MembershipPredicate, WalkParams, default_horizon, estimate_potential


@dataclass(frozen=True)
class WeakLearnerParams:
    """Walk discount/trials plus the orientation sharpness lambda.

    The defaults derived by `paper_default_params` scale the discount toward 1
    and the trial count quadratically with the pattern dimension.  The
    discount is a `Fraction`: the exact audit solves at it, and the walks at
    its float, so both describe one learner; `walk` holds the walks' record,
    built once here.
    """

    gamma: Fraction
    lam: float
    trials: int
    horizon: int
    walk: WalkParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "walk", WalkParams(float(self.gamma), self.horizon, self.trials))


@dataclass(frozen=True)
class WeakPrediction:
    bit: int
    sigma_hat: float


_GAMMA_FLOOR = Fraction(1, 2)
_GAMMA_CEIL = Fraction(999999, 10**6)
# the exact audit's integer elimination grows with the discount's size
_GAMMA_MAX_DENOMINATOR = 2**16


def paper_default_params(m: int, c1: float = 1.0, lam: float = 1.0) -> WeakLearnerParams:
    """Default discount 1 - 1/(c1*m*log m), unit lambda, c1*m^2*log^3 m trials.

    The discount is rounded to the nearest `Fraction` with a denominator of
    at most 2^16, and then clamped into [1/2, 1-1e-6]: at small m the formula
    exits (0,1), and near 1 the rounding reaches 1.  Trial counts are rounded
    up and kept >= 1.
    """
    if m < 2:
        raise ContractViolation("weak-learner defaults need m >= 2")
    if c1 <= 0:
        raise ContractViolation("c1 must be positive")
    log_m = math.log(m)
    # the floor first, in floats: a tiny c1 sends the formula to -inf
    raw = max(1 - 1 / (c1 * m * log_m), _GAMMA_FLOOR)
    gamma = min(Fraction(raw).limit_denominator(_GAMMA_MAX_DENOMINATOR), _GAMMA_CEIL)
    trials = max(1, math.ceil(c1 * m * m * log_m**3))
    return WeakLearnerParams(gamma, lam, trials, default_horizon(gamma))


def edge_mass(f_here, f_there, lam):
    """The mass an edge of the one-inclusion graph puts on its endpoint whose
    exit-time potential is f_here, when its other endpoint's is f_there:
    (1 + lam*(f_there - f_here))/2, so the edge leans toward the endpoint with
    the lower potential, the one the walk leaves later (Haussler, Littlestone
    & Warmuth 1994).  Potentials in
    [0, 1] and lam in [0, 1] keep the mass in [0, 1]."""
    return (1 + lam * (f_there - f_here)) / 2


def weak_realizable(
    sample: Sample,
    x,
    params: WeakLearnerParams,
    bind,
    streams: Sequence[RandomStream],
) -> list[WeakPrediction]:
    """Predict the label of x from a realizable sample, once per stream, each
    via one oracle-driven edge orientation.

    Each stream is re-keyed by a stable hash of x, so repeated evaluations of
    the same fitted hypothesis at the same point replay identically while
    distinct points stay independent.  The bit is 1 with probability
    `edge_mass(f1, f0, lam)`, where f0 and f1 are the Monte-Carlo potentials
    of the 0- and 1-completions.  The streams' walks run together, and each
    stream's generator draws as it would for that stream alone: its f0
    rollouts, its f1 rollouts, then its bit.

    A rejected 0-completion answers 1 and a rejected 1-completion answers 0;
    both are queried, the 0-completion first.  So when both are rejected (an
    unrealizable sample, or a point where no consistent hypothesis is defined,
    as in a partial class or the multiclass and threshold encodings) the
    prediction is still 1.  A completion that labels a repeated point both
    ways, as when x is also a sample point, is rejected by the membership
    memo without an oracle call.

    Each call builds one membership memo over the points `sample.xs + (x,)`,
    which all its streams share, so an answer one stream's walk paid for is
    not charged again.  The memo binds the consistency oracle to those points
    once (`bind`, such as `ConsistencyOracle.bind`: points -> (code -> bool))
    and asks it label codes: bit j labels sample point j and bit len(sample)
    labels x.
    """
    if any(y not in (0, 1) for y in sample.ys):
        raise ContractViolation("weak learner requires labels in {0,1}")
    # the packed codes of the 0- and 1-completions
    c0 = pack(sample.ys)
    c1 = c0 | 1 << len(sample)
    # the feasibility checks are the walks' first queries, on one memo
    membership = MembershipPredicate.from_oracle(sample.xs + (x,), bind)
    feasible0 = membership.query_packed(c0)
    feasible1 = membership.query_packed(c1)
    if not feasible0:
        return [WeakPrediction(1, 1.0)] * len(streams)
    if not feasible1:
        return [WeakPrediction(0, 0.0)] * len(streams)
    gens = [stream.child_for(x).generator() for stream in streams]
    f0s = estimate_potential(membership, c0, params.walk, gens)
    f1s = estimate_potential(membership, c1, params.walk, gens)
    predictions = []
    for gen, f0, f1 in zip(gens, f0s, f1s):
        sigma_hat = edge_mass(f1, f0, params.lam)
        predictions.append(WeakPrediction(1 if gen.random() < sigma_hat else 0, sigma_hat))
    return predictions


def context_oracles(sample: Sample, bind) -> Callable[[int], Callable]:
    """i -> the bind function of leave-one-out context i, whose points are
    `sample.without(i).xs + (x_i,)`.

    The oracle is bound to `sample.xs` once.  A context's code moves back
    to sample order, and every context reads one answer dict keyed by that
    code, so only a labeling no context has asked reaches the bound oracle:
    the oracle is deterministic, so the cost counts each distinct query once
    per sample.
    """
    m = len(sample)
    bound = bind(sample.xs)
    answers: dict[int, bool] = {}

    def context_oracle(i: int) -> Callable:
        low, high = (1 << i) - 1, (1 << (m - 1 - i)) - 1

        def answer(c: int) -> bool:
            # bits below i stay, the query point's bit m-1 goes to i, and
            # bits i..m-2 move up one
            key = c & low | (c >> (m - 1) & 1) << i | (c >> i & high) << (i + 1)
            found = answers.get(key)
            if found is None:
                found = answers[key] = bound(key)
            return found

        return lambda points: answer

    return context_oracle


def transductive_error(
    sample: Sample,
    params: WeakLearnerParams,
    bind,
    reps: int,
    rng: RandomStream,
) -> float:
    """Monte-Carlo leave-one-out loss: each point predicted from the others,
    `reps` times over, asking the consistency oracle that `bind` (such as
    `ConsistencyOracle.bind`) binds to point sequences.

    Each leave-one-out context is asked once for all its repetitions, so they
    share one membership memo and walk in lockstep.  Context i asks its
    queries on `sample.without(i).xs + (x_i,)`, the sample's points in another
    order, and whether some hypothesis labels each x_j y_j does not depend on
    the order of the pairs.  So the contexts ask through `context_oracles`,
    which answers each labeling once per sample.  Prediction
    (rep, i) runs on the stream rng.child(rep).child(i), whose generator makes
    the calls it would make alone, so every random draw, and with it the
    error, is what a fresh memo per prediction gives.
    """
    m = len(sample)
    if m == 0:
        raise ContractViolation("transductive error needs a nonempty sample")
    context_oracle = context_oracles(sample, bind)
    total = 0
    for i in range(m):
        x, y = sample[i]
        streams = [rng.child(rep).child(i) for rep in range(reps)]
        for pred in weak_realizable(sample.without(i), x, params, context_oracle(i), streams):
            total += loss_bin(y, pred.bit)
    return total / (reps * m)
