"""Extracting per-point minimizer behavior from value-only ERM oracles.

A weak ERM oracle only reports the minimum empirical loss of a sample.  The
routines here turn that scalar into (a) the exact loss vector of some
minimizer under a binary-valued loss, (b) a grid approximation of a
minimizer's values under the absolute loss, and (c) a range-consistency bit.
All comparisons happen on unnormalized loss sums reconstructed exactly from
the rational oracle answers.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ContractViolation, Sample, as_fraction
from .oracle import ErmValueOracle


def sample_erm_binary(sample: Sample, erm_oracle: ErmValueOracle) -> tuple[int, ...]:
    """Greedy index removal in one forward scan.

    Returns z with z_i = 1 iff entry i was removed.  The retained entries form
    a maximum realizable subsample, and z equals the loss vector of some
    empirical minimizer.  Entry i is tried once, against the entries kept
    before it and every entry after it, and removed if that lowers the least
    loss sum.  Deleting i fails to lower the sum exactly when no minimizer of
    the current sample errs on i, and each later deletion keeps only
    minimizers of the larger sample, so an entry that once stayed never
    becomes removable.  The result is therefore the removal vector of the
    scan that restarts at the lowest index after every removal
    (`brute.restarting_erm_binary`), from at most n+1 oracle calls, and from
    one call on a realizable sample.
    """
    n = len(sample)
    current = _loss_sum(erm_oracle, sample)
    kept: list[int] = []
    for i in range(n):
        if current == 0:  # no deletion lowers a zero sum: keep the rest unasked
            kept.extend(range(i, n))
            break
        value = _loss_sum(erm_oracle, sample.subset(kept + list(range(i + 1, n))))
        if value < current:
            current = value
        else:
            kept.append(i)
    kept_set = set(kept)
    return tuple(0 if i in kept_set else 1 for i in range(n))


def _loss_sum(erm_oracle: ErmValueOracle, sample: Sample) -> Fraction:
    """The least loss sum, exactly: the oracle's mean times the sample size.
    The empty sample's sum is vacuously 0 and costs no call."""
    return erm_oracle(sample) * len(sample) if len(sample) else Fraction(0)


def sample_erm_real(sample: Sample, gamma, erm_oracle: ErmValueOracle) -> tuple[Fraction, ...]:
    """Pin down, one point at a time, a grid cell containing some minimizer's value.

    gamma must be 1/G for an integer G.  For each i the G candidate cells
    [gamma*l, gamma*(l+1)] are scored by querying the ERM value of the running
    constraint set plus the full sample plus the two cell endpoints at x_i;
    the lowest-l minimizer wins and its endpoints join the constraint set.
    Exactly n*G oracle calls.  Some empirical minimizer h* of the original
    sample satisfies h*(x_i) in [y'_i, y'_i + gamma] for every i.
    """
    gamma = as_fraction(gamma)
    if gamma <= 0 or gamma.numerator != 1:
        raise ContractViolation("grid width must be 1/G for an integer G")
    steps = gamma.denominator
    base = list(sample.pairs)
    pinned: list = []
    out: list[Fraction] = []
    for x, _ in sample.pairs:
        best_level, best_value = None, None
        for level in range(steps):
            probe = Sample(
                pinned + base + [(x, gamma * level), (x, gamma * (level + 1))]
            )
            value = erm_oracle(probe)
            if best_value is None or value < best_value:
                best_level, best_value = level, value
        pinned_value = gamma * best_level
        out.append(pinned_value)
        pinned.append((x, pinned_value))
        pinned.append((x, pinned_value + gamma))
    return tuple(out)


def sample_con_real(triples, erm_oracle: ErmValueOracle) -> bool:
    """Range consistency from one ERM-value call: feasibility of all the bands
    [lower_i, upper_i] holds iff the minimum loss sum on the doubled sample
    {(x_i, lower_i), (x_i, upper_i)} equals the total slack sum(upper-lower)."""
    triples = tuple(triples)
    if not triples:
        return True
    pairs = []
    slack = 0
    for x, lo, hi in triples:
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo > hi:
            raise ContractViolation(f"empty range [{lo}, {hi}]")
        pairs.append((x, lo))
        pairs.append((x, hi))
        slack += hi - lo
    return _loss_sum(erm_oracle, Sample(pairs)) == slack
