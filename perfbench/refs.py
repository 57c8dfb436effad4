"""Correctness references for the benchmark, written without the program.

Nothing here imports `oiglearn`: the input generators, the opt enumeration
and the leave-one-out solve are re-derived from the definitions, so a fault
in the program cannot also hide in its own check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np


def interval_table(domain_size: int) -> list[list[int]]:
    """Every interval [a, b) of the points 0..domain_size-1 as a 0/1 row,
    the empty interval first: 1 + D(D+1)/2 distinct rows."""
    rows = [[0] * domain_size]
    for a in range(domain_size):
        for b in range(a + 1, domain_size + 1):
            rows.append([1 if a <= x < b else 0 for x in range(domain_size)])
    return rows


def interval_patterns(xs, domain_size: int) -> set[tuple[int, ...]]:
    """The labelings the interval class realizes on the point sequence xs."""
    out = {tuple(0 for _ in xs)}
    for a in range(domain_size):
        for b in range(a + 1, domain_size + 1):
            out.add(tuple(1 if a <= x < b else 0 for x in xs))
    return out


def real_table(rnd: random.Random, points: int, rows: int, steps: int) -> list[list[Fraction]]:
    """`rows` distinct rows of values k/steps, 0 <= k <= steps, sorted."""
    if rows > (steps + 1) ** points:
        raise ValueError("more rows requested than distinct rows exist")
    table: set[tuple[Fraction, ...]] = set()
    while len(table) < rows:
        table.add(tuple(Fraction(rnd.randrange(0, steps + 1), steps) for _ in range(points)))
    return [list(row) for row in sorted(table)]


def threshold_opt(grid, margin, support, noise) -> Fraction:
    """Least expected 0/1 loss over the margin thresholds of `grid`.

    Threshold t labels x as 1 when x >= t + margin, 0 when x <= t - margin,
    and leaves it undefined in between; an undefined label is always wrong.
    `support` is a list of (x, clean label) with equal weights, and each label
    is flipped with probability `noise`.
    """
    weight = Fraction(1, len(support))
    best = None
    for t in grid:
        loss = Fraction(0)
        for x, y in support:
            if x >= t + margin:
                label = 1
            elif x <= t - margin:
                label = 0
            else:
                loss += weight
                continue
            loss += weight * (noise if label == y else 1 - noise)
        best = loss if best is None else min(best, loss)
    return best


def flip_walk_discount(m: int, c1: float = 1.0) -> float:
    """The weak learner's default discount for m points: 1 - 1/(c1 m ln m),
    held inside [1/2, 1 - 1e-6]."""
    g = 1 - 1 / (c1 * m * math.log(m))
    return min(max(g, 0.5), 1 - 1e-6)


def flip_walk_potential(inside, m: int, g: float) -> dict[tuple[int, ...], float]:
    """Solve f(v) = (g/m) * sum_i f(v xor e_i) on `inside`, with f = 1 outside.

    f(v) is E[g^T] for the walk that flips one uniformly chosen coordinate per
    step and stops at the first vertex outside the set.
    """
    vertices = sorted(inside)
    index = {v: i for i, v in enumerate(vertices)}
    a = np.eye(len(vertices))
    b = np.zeros(len(vertices))
    for v, i in index.items():
        for k in range(m):
            w = v[:k] + (1 - v[k],) + v[k + 1:]
            j = index.get(w)
            if j is None:
                b[i] += g / m
            else:
                a[i, j] -= g / m
    solution = np.linalg.solve(a, b)
    return {v: float(solution[i]) for v, i in index.items()}


def flip_walk_loo_error(truth, inside, g: float, lam: float = 1.0) -> float:
    """Expected leave-one-out loss of the potential-oriented predictor.

    For each coordinate whose flip is also realizable, the edge puts mass
    (1 + lam (f(flip) - f(truth))) / 2 on the truth; the loss is the rest.
    Coordinates whose flip is not realizable are forced and cost nothing.
    """
    truth = tuple(truth)
    m = len(truth)
    f = flip_walk_potential(inside, m, g)
    total = 0.0
    for k in range(m):
        other = truth[:k] + (1 - truth[k],) + truth[k + 1:]
        if other in f:
            total += 1 - (1 + lam * (f[other] - f[truth])) / 2
    return total / m
