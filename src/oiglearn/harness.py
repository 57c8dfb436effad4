"""Seeded experiment runner: config in, per-trial error/cost metrics out.

Each trial draws a training sample from the configured finite distribution
with a per-trial child stream, fits the selected pipeline, and evaluates the
held-out error exactly by weighted enumeration over the distribution's
support (no evaluation sampling noise).  Reports serialize to CSV or JSONL
with fixed 17-significant-digit formatting, so identical seeds give identical
bytes; wall-clock measurement can be disabled to make entire files
reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import IO, Callable

from .brute import AUDIT_MAX_POINTS, exact_transductive_audit
from .classes import CLASS_KINDS, class_from_config, parse_points
from .core import (
    LABEL_KINDS,
    ContractViolation,
    FiniteDistribution,
    RandomStream,
    Sample,
    as_fraction,
    as_integer,
    check_labels,
    empirical_error,
)
from .oracle import (
    CONSISTENCY,
    ERM_VALUE,
    PROJECTION,
    RANGE_CONSISTENCY,
    ConceptClass,
    ConsistencyOracle,
    ErmValueOracle,
    OracleCapabilityError,
    QueryCostLedger,
    RangeConsistencyOracle,
)
from .pipelines import (
    WeakSpec,
    boosting_rounds,
    fit_agnostic_partial,
    fit_multiclass_agnostic,
    fit_multiclass_realizable,
    fit_realizable_partial,
    fit_reg_agnostic,
    fit_reg_realizable,
)
from .weak import WeakLearnerParams, paper_default_params, transductive_error


class ConfigError(ValueError):
    """The experiment configuration could not be parsed or validated."""


# A learner's trial body fits its pipeline and returns the fitted
# `BoostedPredictor`; `run_trial` scores it under the loss of the pipeline's
# label kind.  A diagnostic's trial body returns its two report values.  Trial
# bodies and `run_trial` look up fit_*, transductive_error,
# exact_transductive_audit and empirical_error in this module's globals at run
# time, so rebinding one (as a tracer does) reaches it.


def _boosting(config):
    return config.weak_spec(), config.eta, config.delta


def _realizable_partial(config, concept_class, sample, ledger, rng):
    con = ConsistencyOracle(concept_class, ledger)
    return fit_realizable_partial(sample, *_boosting(config), con, rng)


def _agnostic_partial(config, concept_class, sample, ledger, rng):
    con = ConsistencyOracle(concept_class, ledger)
    erm = ErmValueOracle(concept_class, ledger)
    return fit_agnostic_partial(sample, *_boosting(config), erm, con, rng)


def _multiclass_realizable(config, concept_class, sample, ledger, rng):
    con = ConsistencyOracle(concept_class, ledger)
    return fit_multiclass_realizable(sample, config.num_classes, *_boosting(config), con, rng)


def _multiclass_agnostic(config, concept_class, sample, ledger, rng):
    con = ConsistencyOracle(concept_class, ledger)
    erm = ErmValueOracle(concept_class, ledger)
    return fit_multiclass_agnostic(sample, config.num_classes, *_boosting(config), erm, con, rng)


def _reg_realizable(config, concept_class, sample, ledger, rng):
    beta = config.beta if config.beta is not None else config.gamma
    range_query = RangeConsistencyOracle(concept_class, ledger)
    return fit_reg_realizable(sample, *_boosting(config), config.gamma, beta, range_query, rng)


def _reg_agnostic(config, concept_class, sample, ledger, rng):
    erm = ErmValueOracle(concept_class, ledger)
    return fit_reg_agnostic(sample, *_boosting(config), config.gamma, erm, rng)


def audit_sample(config, concept_class, sample, walk):
    """The exact leave-one-out audit of a drawn sample at the diagnostics'
    discount, for a class with projection.  A sample the audit cannot take
    (an unrealizable labeling, more patterns than the exact solve allows, or
    a size whose walk count overflows at C1) is a config error, and so is a
    pipeline whose labels are not the integers 0 and 1: the audit flips a
    label as 1 - y."""
    labels = PIPELINES[config.pipeline].labels
    kind = LABEL_KINDS[labels]
    if kind.type is not int or kind.bounds(config.num_classes) != (0, 1):
        raise ConfigError(f"the exact audit takes binary labels; pipeline {config.pipeline} "
                          f"takes {labels} labels")
    concept_class.require(PROJECTION)
    try:
        gamma = config.transductive_params().gamma
        return exact_transductive_audit(concept_class, sample, gamma, config.lam, walk=walk)
    except (ContractViolation, OverflowError) as exc:
        raise ConfigError(f"cannot audit the drawn sample: {exc}") from exc


def _weak_transductive(config, concept_class, sample, ledger, rng):
    # the audit is deterministic and charges nothing, so it runs first: a
    # sample it rejects fails before the Monte-Carlo estimate
    audit = audit_sample(config, concept_class, sample, "flip")
    con = ConsistencyOracle(concept_class, ledger)
    measured = transductive_error(sample, config.transductive_params(), con.bind, config.reps, rng)
    return measured, audit.loo_error


def _audit(config, concept_class, sample, ledger, rng):
    audit = audit_sample(config, concept_class, sample, "lazy")
    return audit.loo_error, audit.slack


@dataclass(frozen=True)
class Pipeline:
    """The oracles a pipeline needs, its label kind (a key of `LABEL_KINDS`)
    and its trial body.  A diagnostic's trial body reports its own two values
    instead of a predictor to score; it runs the exact audit and derives its
    walk from n, so it takes n from 2 to `AUDIT_MAX_POINTS`."""

    capabilities: tuple
    labels: str
    run: Callable
    diagnostic: bool = False


PIPELINES = {
    "realizable_partial": Pipeline((CONSISTENCY,), "binary", _realizable_partial),
    "agnostic_partial": Pipeline((CONSISTENCY, ERM_VALUE), "binary", _agnostic_partial),
    "multiclass_realizable": Pipeline((CONSISTENCY,), "multiclass", _multiclass_realizable),
    "multiclass_agnostic": Pipeline((CONSISTENCY, ERM_VALUE), "multiclass", _multiclass_agnostic),
    "reg_realizable": Pipeline((RANGE_CONSISTENCY,), "real", _reg_realizable),
    "reg_agnostic": Pipeline((ERM_VALUE,), "real", _reg_agnostic),
    # diagnostics: train_err/test_err are the Monte-Carlo and the exact flip-walk
    # leave-one-out error, or the exact lazy-walk leave-one-out error and the bound
    # slack; their walk comes from n (`transductive_params`), which needs n >= 2
    "weak_transductive": Pipeline((CONSISTENCY, PROJECTION), "binary", _weak_transductive,
                                  diagnostic=True),
    "audit": Pipeline((PROJECTION,), "binary", _audit, diagnostic=True),
}


_REQUIRED = object()
# the largest sample size n: a trial draws and holds all n points
_MAX_N = 10**6


# One row per top-level scalar key: the key, the attribute it sets, its
# parser, its default (`_REQUIRED` if none), and the range a value must meet,
# as `holds(v)`, which NaN fails, and in words.  A given value is checked even
# where the pipeline does not read it, so a bad grid fails before any trial.
# A null value leaves a field whose default is None unset.
_Field = namedtuple("_Field", "key attr parse default holds rule")
_FIELDS = (
    _Field("n", "n", as_integer, 10, lambda v: 1 <= v <= _MAX_N, "from 1 to 10^6"),
    # the lockstep walks hold the labels of m sample points and the query
    # point in one uint64
    _Field("m", "m", as_integer, 3, lambda v: 2 <= v <= 63, "from 2 to 63"),
    # unset, it is 1/(m ln m)
    _Field("eta", "eta", float, None, lambda v: 0 < v < math.inf, "positive and finite"),
    # a failure probability: at 1 or more, boosting could plan zero rounds
    _Field("delta", "delta", float, 0.2, lambda v: 0 < v < 1, "in (0, 1)"),
    _Field("C1", "c1", float, 1.0, lambda v: 0 < v < math.inf, "positive and finite"),
    # beyond [0, 1] an edge mass leaves [0, 1] and the audit no longer
    # describes the learner
    _Field("lambda", "lam", float, 1.0, lambda v: 0 <= v <= 1, "in [0, 1]"),
    _Field("gamma", "gamma", as_fraction, None, lambda v: 0 < v < 1, "in (0, 1)"),
    _Field("beta", "beta", as_fraction, None, lambda v: v > 0, "positive"),
    _Field("num_classes", "num_classes", as_integer, None, lambda v: v >= 2, "at least 2"),
    _Field("trials", "trials", as_integer, 1, lambda v: v >= 0, "at least 0"),
    _Field("seed", "seed", as_integer, _REQUIRED, lambda v: v >= 0, "at least 0"),
    _Field("reps", "reps", as_integer, 50, lambda v: v >= 1, "at least 1"),
)
_CONFIG_KEYS = frozenset({"pipeline", "class", "distribution", *(row.key for row in _FIELDS)})
_DISTRIBUTION_KEYS = frozenset({"support", "weights", "label_noise"})


def _parse_fields(raw: dict) -> dict:
    """The attributes the rows of `_FIELDS` set: each given value parsed and
    checked by its row, the defaults for the rest."""
    given = {}
    for row in _FIELDS:
        if row.key in raw and (raw[row.key] is not None or row.default is not None):
            try:
                value = row.parse(raw[row.key])
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ConfigError(f"bad {row.key}: {exc}") from exc
            if not row.holds(value):
                raise ConfigError(f"{row.key} must be {row.rule}, got {value!r}")
            given[row.attr] = value
    for row in _FIELDS:
        if given.setdefault(row.attr, row.default) is _REQUIRED:
            raise ConfigError(f"config needs {row.key}")
    given["eta"] = given["eta"] or 1.0 / (given["m"] * math.log(given["m"]))
    return given


def _reject_unknown_keys(raw: dict, allowed: frozenset, where: str) -> None:
    # a misspelled key would otherwise silently take its default
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    class_spec: dict
    support: tuple
    weights: tuple | None
    label_noise: Fraction
    pipeline: str
    n: int
    m: int
    c1: float
    lam: float
    eta: float
    delta: float
    gamma: Fraction | None
    beta: Fraction | None
    num_classes: int | None
    trials: int
    seed: int
    reps: int

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Parse a config: the `_FIELDS` rows, then the rules across fields."""
        try:
            pipeline = raw["pipeline"]
            _reject_unknown_keys(raw, _CONFIG_KEYS, "config")
            if pipeline not in PIPELINES:
                raise ConfigError(f"unknown pipeline {pipeline!r}")
            entry = PIPELINES[pipeline]
            values = _parse_fields(raw)
            label = LABEL_KINDS[entry.labels]
            if label.requires is not None and values[label.requires] is None:
                raise ConfigError(f"pipeline {pipeline} needs {label.requires}")
            class_spec = raw["class"]
            if not isinstance(class_spec, dict):
                raise ConfigError("class must be an object")
            # an unknown kind is left to class_from_config, which names it
            class_kind = CLASS_KINDS.get(class_spec.get("kind"))
            if class_kind is not None:
                _reject_unknown_keys(class_spec, class_kind.keys, f"{class_spec['kind']} class")
                if class_kind.labels != entry.labels:
                    raise ConfigError(
                        f"pipeline {pipeline} takes {entry.labels} labels, but a "
                        f"{class_spec['kind']} class gives {class_kind.labels} labels"
                    )
                # labels the class cannot give would widen the menus and the decoder
                key = label.requires
                if key in class_kind.keys and class_spec.get(key) != values[key]:
                    raise ConfigError(f"{key} {values[key]} differs from the class's "
                                      f"{class_spec.get(key)!r}")
            dist = raw["distribution"]
            _reject_unknown_keys(dist, _DISTRIBUTION_KEYS, "distribution")
            support = tuple((*parse_points([x]), label.parse(y)) for x, y in dist["support"])
            check_labels(entry.labels, (y for _, y in support), values["num_classes"])
            weights = dist.get("weights")
            weights = weights if weights is None else tuple(map(as_fraction, weights))
            noise = as_fraction(dist.get("label_noise", 0))
            config = cls(class_spec, support, weights, noise, pipeline, **values)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        if entry.diagnostic and not 2 <= config.n <= AUDIT_MAX_POINTS:
            raise ConfigError(f"pipeline {pipeline} takes n from 2 to {AUDIT_MAX_POINTS}")
        if config.gamma is not None and config.beta is not None and config.beta < config.gamma:
            raise ConfigError("beta must be at least gamma")
        if pipeline == "reg_agnostic" and config.gamma.numerator != 1:
            raise ConfigError("reg_agnostic needs gamma = 1/G for an integer G")
        # the most rounds a learner plans, the agnostic binary one's or the
        # multiclass menus', must be a finite count, and so must the weak
        # learner's walk count C1 m^2 ln^3 m at m, and at n for the diagnostics
        factor = max(6, 4 * (config.num_classes or 1))
        try:
            boosting_rounds(config.n * factor, config.delta, config.eta, 1)
            paper_default_params(config.m, config.c1, config.lam)
            if entry.diagnostic:
                config.transductive_params()
        except (ZeroDivisionError, OverflowError):
            raise ConfigError(f"eta {config.eta!r}, C1 {config.c1!r} and m {config.m} plan no "
                              "finite boosting round or walk count") from None
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def with_seed(self, seed) -> "ExperimentConfig":
        """This config at another seed, which the seed row parses and checks."""
        return replace(self, seed=_parse_fields({"seed": seed})["seed"])

    def weak_spec(self) -> WeakSpec:
        return WeakSpec(self.m, self.c1, self.lam)

    def transductive_params(self) -> WeakLearnerParams:
        """The walk of the leave-one-out diagnostics.  Their contexts have size
        n-1, so it comes from the sample size, not the weak-sample size m."""
        return paper_default_params(self.n, self.c1, self.lam)


@dataclass(frozen=True)
class TrialReport:
    trial: int
    train_err: float
    test_err: float
    oracle_calls: int
    query_cost: int
    wall_ms: int
    seed: int


def build_distribution(config: ExperimentConfig) -> FiniteDistribution:
    if config.weights is None:
        dist = FiniteDistribution.uniform(config.support)
    else:
        dist = FiniteDistribution(config.support, config.weights)
    low, high = LABEL_KINDS[PIPELINES[config.pipeline].labels].bounds(config.num_classes)
    return dist.with_label_noise(config.label_noise, range(low, high + 1))


def validate_capabilities(config: ExperimentConfig, concept_class) -> None:
    missing = set(PIPELINES[config.pipeline].capabilities) - set(concept_class.capabilities)
    if missing:
        raise OracleCapabilityError(
            f"pipeline {config.pipeline} needs oracle(s) {sorted(missing)} "
            f"that {type(concept_class).__name__} does not implement"
        )


def setup_experiment(config: ExperimentConfig) -> tuple[ConceptClass, FiniteDistribution]:
    """The concept class and the distribution of a parsed config.  A class or
    distribution it cannot describe, or a support point outside the class
    domain, is a ConfigError; a class without an oracle the pipeline needs is
    an OracleCapabilityError."""
    try:
        concept_class = class_from_config(config.class_spec)
        validate_capabilities(config, concept_class)
        concept_class.check_points([x for x, _ in config.support])
        distribution = build_distribution(config)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc
    return concept_class, distribution


def draw_trial(config: ExperimentConfig, distribution, trial: int) -> tuple[Sample, RandomStream]:
    """The training sample of trial `trial` and the stream its pipeline runs on."""
    stream = RandomStream(config.seed).child(trial)
    return distribution.draw(stream.child(0).generator(), config.n), stream.child(1)


def run_trial(config: ExperimentConfig, concept_class, distribution, trial: int,
              measure_wall: bool = True) -> TrialReport:
    entry = PIPELINES[config.pipeline]
    ledger = QueryCostLedger()
    started = time.perf_counter() if measure_wall else 0.0
    sample, rng = draw_trial(config, distribution, trial)
    fitted = entry.run(config, concept_class, sample, ledger, rng)
    if entry.diagnostic:
        train_err, test_err = fitted
    else:
        loss = LABEL_KINDS[entry.labels].loss
        train_err = empirical_error(sample, fitted.predict, loss)
        test_err = distribution.expected_loss(fitted.predict, loss)
    wall_ms = int(round((time.perf_counter() - started) * 1000)) if measure_wall else 0
    cost, calls = ledger.snapshot()
    return TrialReport(
        trial=trial,
        train_err=float(train_err),
        test_err=float(test_err),
        oracle_calls=calls,
        query_cost=cost,
        wall_ms=wall_ms,
        seed=config.seed,
    )


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   measure_wall: bool = True) -> list[TrialReport]:
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    concept_class, distribution = setup_experiment(config)
    trial = functools.partial(
        run_trial, config, concept_class, distribution, measure_wall=measure_wall
    )
    # trials share no state, so each worker process runs whole trials; a
    # worker beyond the trial count or the CPUs this process may run on would
    # only cost its start-up and memory.  Workers are spawned, not forked: a
    # fork copies the locks of numpy's threads.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, config.trials, cpus or 1)
    if workers <= 1:
        return [trial(t) for t in range(config.trials)]
    # imported only here, so a serial run does not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(trial, range(config.trials)))


_REPORT_FIELDS = tuple(field.name for field in fields(TrialReport))
CSV_HEADER = ",".join(_REPORT_FIELDS)


def _fmt(value) -> str:
    if isinstance(value, bool):
        raise ContractViolation("unexpected boolean field")
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def emit_report(reports: list[TrialReport], fmt: str, sink: IO[str]) -> None:
    """Write one line per trial with the fields of TrialReport in order; floats
    are written to 17 significant digits in CSV and round-trip exactly in JSONL."""
    if fmt == "csv":
        sink.write(CSV_HEADER + "\n")
        for r in reports:
            sink.write(",".join(_fmt(getattr(r, name)) for name in _REPORT_FIELDS) + "\n")
    elif fmt == "jsonl":
        for r in reports:
            sink.write(json.dumps({name: getattr(r, name) for name in _REPORT_FIELDS}) + "\n")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
