"""The four benchmark workloads: an `oig run` config built from the seed, and
the checks its trial results must pass.

Each workload aims at one hot layer; README.md gives the reasons for each
size.  `build(seed)` returns the raw config dict that `oig run --config`
would read.  `check(trials, samples)` returns a list of failure messages for
the trials that completed.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction

from refs import (
    flip_walk_discount,
    flip_walk_loo_error,
    interval_patterns,
    interval_table,
    real_table,
    threshold_opt,
)

TOL = 1e-9

THRESHOLD_GRID = [Fraction(1, 100) + k * Fraction(1, 50) for k in range(50)]
THRESHOLD_MARGIN = Fraction(1, 200)
THRESHOLD_SUPPORT = [(Fraction(2 * i + 1, 64), 0 if i < 16 else 1) for i in range(32)]
THRESHOLD_NOISE = Fraction(1, 10)
THRESHOLD_N = 12

# the target interval [a, b) of each interval workload
BOOST_DOMAIN, BOOST_TARGET, BOOST_N = 32, (6, 26), 32
LOO_DOMAIN, LOO_TARGET, LOO_N, LOO_REPS = 128, (24, 104), 8, 20

REG_POINTS, REG_ROWS, REG_STEPS, REG_N = 6, 8, 8, 4
REG_GAMMA = Fraction(1, 8)


def _frac(v) -> str:
    return f"{v.numerator}/{v.denominator}"


def _is_multiple(value: float, denominator: int) -> bool:
    scaled = value * denominator
    return abs(scaled - round(scaled)) <= TOL * denominator


def _interval_config(seed, domain, target, pipeline, n, extra):
    a, b = target
    config = {
        "class": {"kind": "finite_table", "domain": list(range(domain)),
                  "table": interval_table(domain)},
        "distribution": {"support": [[x, 1 if a <= x < b else 0] for x in range(domain)]},
        "pipeline": pipeline,
        "n": n,
        "trials": 1,
        "seed": seed,
    }
    config.update(extra)
    return config


# --------------------------------------------------------------------------
# threshold_agnostic


def build_threshold_agnostic(seed: int) -> dict:
    return {
        "class": {"kind": "margin_threshold", "grid": ["1/100", "1/50", 50],
                  "margin": _frac(THRESHOLD_MARGIN)},
        "distribution": {"support": [[_frac(x), y] for x, y in THRESHOLD_SUPPORT],
                         "label_noise": _frac(THRESHOLD_NOISE)},
        "pipeline": "agnostic_partial",
        "n": THRESHOLD_N,
        "m": 2,
        "trials": 1,
        "seed": seed,
    }


def check_threshold_agnostic(trials, samples) -> list[str]:
    opt = threshold_opt(THRESHOLD_GRID, THRESHOLD_MARGIN, THRESHOLD_SUPPORT, THRESHOLD_NOISE)
    # every support pair weighs (1/32)(9/10) or (1/32)(1/10)
    denominator = 32 * THRESHOLD_NOISE.denominator
    errors = []
    for t in trials:
        if t["test_err"] < float(THRESHOLD_NOISE) - TOL:
            errors.append(f"trial {t['trial']}: held-out error {t['test_err']} below the noise floor")
        if not _is_multiple(t["test_err"], denominator):
            errors.append(f"trial {t['trial']}: held-out error {t['test_err']} is not k/{denominator}")
        if not _is_multiple(t["train_err"], THRESHOLD_N):
            errors.append(f"trial {t['trial']}: training error {t['train_err']} is not k/{THRESHOLD_N}")
    mean = statistics.fmean(t["test_err"] for t in trials)
    if mean > float(opt) + 0.15:
        errors.append(f"mean held-out error {mean} exceeds opt {opt} + 0.15")
    return errors


# --------------------------------------------------------------------------
# interval_boost


def build_interval_boost(seed: int) -> dict:
    # eta = 3 plans 12 rounds; with ~20 distinct training points a lucky
    # zero-error round is rare, so nearly every trial runs them all
    return _interval_config(seed, BOOST_DOMAIN, BOOST_TARGET,
                            "realizable_partial", BOOST_N, {"m": 3, "eta": 3})


def check_interval_boost(trials, samples) -> list[str]:
    errors = []
    for t in trials:
        if not _is_multiple(t["test_err"], BOOST_DOMAIN):
            errors.append(f"trial {t['trial']}: held-out error {t['test_err']} is not k/{BOOST_DOMAIN}")
        if not _is_multiple(t["train_err"], BOOST_N):
            errors.append(f"trial {t['trial']}: training error {t['train_err']} is not k/{BOOST_N}")
    mean = statistics.fmean(t["test_err"] for t in trials)
    if mean > 0.15:
        errors.append(f"mean held-out error {mean} exceeds 0.15")
    return errors


# --------------------------------------------------------------------------
# interval_loo


def build_interval_loo(seed: int) -> dict:
    return _interval_config(seed, LOO_DOMAIN, LOO_TARGET,
                            "weak_transductive", LOO_N, {"reps": LOO_REPS})


def check_interval_loo(trials, samples) -> list[str]:
    """train_err is the Monte-Carlo leave-one-out error, test_err the exact one."""
    g = flip_walk_discount(LOO_N)
    errors = []
    gaps = []
    for t in trials:
        xs, ys = samples[t["trial"]]
        exact = flip_walk_loo_error(ys, interval_patterns(xs, LOO_DOMAIN), g)
        if abs(exact - t["test_err"]) > TOL:
            errors.append(f"trial {t['trial']}: exact leave-one-out error {t['test_err']} "
                          f"differs from the reference {exact}")
        if not _is_multiple(t["train_err"], LOO_REPS * LOO_N):
            errors.append(f"trial {t['trial']}: measured error {t['train_err']} "
                          f"is not k/{LOO_REPS * LOO_N}")
        if t["train_err"] >= 0.5:
            errors.append(f"trial {t['trial']}: measured error {t['train_err']} is not below 1/2")
        gaps.append(t["train_err"] - exact)
    gap = statistics.fmean(gaps)
    if abs(gap) > 0.05:
        errors.append(f"measured leave-one-out error is off the exact one by {gap} on average")
    return errors


# --------------------------------------------------------------------------
# regression_agnostic


def _regression_instance():
    # one fixed table and target: a table drawn per seed moves the cost of a
    # trial by up to a quarter, which would swamp the run-to-run spread
    rnd = random.Random("regression_agnostic")
    table = real_table(rnd, REG_POINTS, REG_ROWS, REG_STEPS)
    return table, table[rnd.randrange(len(table))]


def build_regression_agnostic(seed: int) -> dict:
    table, target = _regression_instance()
    return {
        "class": {"kind": "finite_real", "domain": list(range(REG_POINTS)),
                  "table": [[_frac(v) for v in row] for row in table]},
        "distribution": {"support": [[x, _frac(v)] for x, v in enumerate(target)]},
        "pipeline": "reg_agnostic",
        "gamma": _frac(REG_GAMMA),
        "n": REG_N,
        "m": 2,
        # one boosting round: every round replays range queries through the
        # ERM oracle for each threshold example, and the default ~120 planned
        # rounds, stopped early after 1 to 14, make a trial's cost luck
        "eta": 9,
        "trials": 1,
        "seed": seed,
    }


def check_regression_agnostic(trials, samples) -> list[str]:
    # the target is a row of the table, so the best in class has zero loss;
    # predictions are multiples of gamma and the support is uniform
    held_out = REG_POINTS * REG_GAMMA.denominator
    train = REG_N * REG_GAMMA.denominator
    errors = []
    for t in trials:
        if not _is_multiple(t["test_err"], held_out):
            errors.append(f"trial {t['trial']}: held-out error {t['test_err']} is not k/{held_out}")
        if not _is_multiple(t["train_err"], train):
            errors.append(f"trial {t['trial']}: training error {t['train_err']} is not k/{train}")
    mean = statistics.fmean(t["test_err"] for t in trials)
    if mean > 2 * float(REG_GAMMA):
        errors.append(f"mean held-out error {mean} exceeds 2 gamma = {2 * REG_GAMMA}")
    return errors


WORKLOADS = {
    "threshold_agnostic": (build_threshold_agnostic, check_threshold_agnostic),
    "interval_boost": (build_interval_boost, check_interval_boost),
    "interval_loo": (build_interval_loo, check_interval_loo),
    "regression_agnostic": (build_regression_agnostic, check_regression_agnostic),
}

# only this workload's check needs the drawn samples
NEEDS_SAMPLES = {"interval_loo"}
