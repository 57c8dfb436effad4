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
from math import lcm

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
    cells = [(gamma * level, gamma * (level + 1)) for level in range(gamma.denominator)]
    base = list(sample.pairs)
    pinned: list = []
    out: list[Fraction] = []
    for x, _ in sample.pairs:
        best_cell, best_value = None, None
        for lo, hi in cells:
            value = erm_oracle(pinned + base + [(x, lo), (x, hi)])
            if best_value is None or value < best_value:
                best_cell, best_value = (lo, hi), value
        lo, hi = best_cell
        out.append(lo)
        pinned += ((x, lo), (x, hi))
    return tuple(out)


def sample_con_real(triples, erm_oracle: ErmValueOracle) -> bool:
    """Range consistency from one ERM-value call: feasibility of all the bands
    [lower_i, upper_i] holds iff the minimum loss sum on the doubled sample
    {(x_i, lower_i), (x_i, upper_i)} equals the total slack sum(upper-lower).
    The slack is summed in integers over L, the lcm of the endpoints'
    denominators, so with the oracle's mean p/q on the 2k points the test is
    p * 2k * L == slack * q."""
    bands = [(x, as_fraction(lo), as_fraction(hi)) for x, lo, hi in triples]
    if not bands:
        return True
    scale = lcm(*(end.denominator for _, lo, hi in bands for end in (lo, hi)))
    slack = 0
    pairs = []
    for x, lo, hi in bands:
        width = hi.numerator * (scale // hi.denominator) - lo.numerator * (scale // lo.denominator)
        if width < 0:
            raise ContractViolation(f"empty range [{lo}, {hi}]")
        slack += width
        pairs += ((x, lo), (x, hi))
    value = erm_oracle(pairs)
    return value.numerator * len(pairs) * scale == slack * value.denominator
