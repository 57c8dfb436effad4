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
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import IO, Callable

from .brute import AUDIT_MAX_POINTS, exact_transductive_audit
from .classes import CLASS_KINDS, class_from_config, parse_points
from .core import (
    ContractViolation,
    FiniteDistribution,
    RandomStream,
    Sample,
    as_fraction,
    empirical_error,
    loss_abs,
    loss_bin,
    loss_mc,
)
from .oracle import (
    CONSISTENCY,
    ERM_VALUE,
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
    erm = ErmValueOracle(concept_class, loss_bin, ledger)
    return fit_agnostic_partial(sample, *_boosting(config), erm, con, rng)


def _multiclass_realizable(config, concept_class, sample, ledger, rng):
    con = ConsistencyOracle(concept_class, ledger)
    return fit_multiclass_realizable(sample, config.num_classes, *_boosting(config), con, rng)


def _multiclass_agnostic(config, concept_class, sample, ledger, rng):
    con = ConsistencyOracle(concept_class, ledger)
    erm = ErmValueOracle(concept_class, loss_mc, ledger)
    return fit_multiclass_agnostic(sample, config.num_classes, *_boosting(config), erm, con, rng)


def _reg_realizable(config, concept_class, sample, ledger, rng):
    beta = config.beta if config.beta is not None else config.gamma
    range_query = RangeConsistencyOracle(concept_class, ledger)
    return fit_reg_realizable(sample, *_boosting(config), config.gamma, beta, range_query, rng)


def _reg_agnostic(config, concept_class, sample, ledger, rng):
    erm = ErmValueOracle(concept_class, loss_abs, ledger)
    return fit_reg_agnostic(sample, *_boosting(config), config.gamma, erm, rng)


def audit_sample(config, concept_class, sample, walk):
    """The exact leave-one-out audit of a drawn sample at the diagnostics'
    discount.  A sample the audit cannot take (an unrealizable labeling, or
    more patterns than the exact solve allows, or too few points for the
    discount) is a config error."""
    try:
        gamma = config.transductive_params().gamma
        return exact_transductive_audit(concept_class, sample, gamma, config.lam, walk=walk)
    except ContractViolation as exc:
        raise ConfigError(f"cannot audit the drawn sample: {exc}") from exc


def _weak_transductive(config, concept_class, sample, ledger, rng):
    # the audit is deterministic and charges nothing, so it runs first: a
    # sample it rejects fails before the Monte-Carlo estimate
    audit = audit_sample(config, concept_class, sample, "flip")
    con = ConsistencyOracle(concept_class, ledger)
    measured = transductive_error(sample, config.transductive_params(), con, config.reps, rng)
    return measured, audit.loo_error


def _audit(config, concept_class, sample, ledger, rng):
    audit = audit_sample(config, concept_class, sample, "lazy")
    return audit.loo_error, audit.slack


# per label kind: the loss a learner's errors are measured in, and the config
# field its pipelines require
_LABEL_KINDS = {
    "binary": (loss_bin, None),
    "multiclass": (loss_mc, "num_classes"),
    "real": (loss_abs, "gamma"),
}


@dataclass(frozen=True)
class Pipeline:
    """The oracles a pipeline needs, its label kind ("binary", "multiclass" or
    "real": how support labels parse, which label noise applies, and through
    `_LABEL_KINDS` which loss scores the learner and which config field it
    requires), its trial body and the sample sizes n it takes.  A diagnostic's
    trial body reports its own two values instead of a predictor to score."""

    capabilities: tuple
    labels: str
    run: Callable
    max_n: int | None = None
    min_n: int = 1
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
    "weak_transductive": Pipeline(
        (CONSISTENCY,), "binary", _weak_transductive, AUDIT_MAX_POINTS, min_n=2, diagnostic=True
    ),
    "audit": Pipeline(
        (CONSISTENCY,), "binary", _audit, AUDIT_MAX_POINTS, min_n=2, diagnostic=True
    ),
}


_CONFIG_KEYS = frozenset({
    "pipeline", "class", "distribution", "m", "eta", "gamma", "beta", "num_classes",
    "n", "C1", "c1", "lambda", "delta", "trials", "seed", "reps",
})
_DISTRIBUTION_KEYS = frozenset({"support", "weights", "label_noise"})


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
        try:
            pipeline = raw["pipeline"]
            _reject_unknown_keys(raw, _CONFIG_KEYS, "config")
            if pipeline not in PIPELINES:
                raise ConfigError(f"unknown pipeline {pipeline!r}")
            entry = PIPELINES[pipeline]
            _, required = _LABEL_KINDS[entry.labels]
            if required is not None and raw.get(required) is None:
                raise ConfigError(f"pipeline {pipeline} needs {required}")
            class_spec = raw["class"]
            if not isinstance(class_spec, dict):
                raise ConfigError("class must be an object")
            # an unknown kind is left to class_from_config, which names it
            class_kind = CLASS_KINDS.get(class_spec.get("kind"))
            if class_kind is not None:
                class_labels, class_keys = class_kind
                _reject_unknown_keys(class_spec, class_keys, f"{class_spec['kind']} class")
                if class_labels != entry.labels:
                    raise ConfigError(
                        f"pipeline {pipeline} takes {entry.labels} labels, but a "
                        f"{class_spec['kind']} class gives {class_labels} labels"
                    )
            dist = raw["distribution"]
            _reject_unknown_keys(dist, _DISTRIBUTION_KEYS, "distribution")
            # int() would run 2.7 as 2 and true as 1
            for name in ("n", "m", "trials", "seed", "reps", "num_classes"):
                if isinstance(raw.get(name), (bool, float)):
                    raise ConfigError(f"{name} must be an integer, got {raw[name]!r}")
            if raw.get("num_classes") is not None and int(raw["num_classes"]) < 2:
                raise ConfigError("num_classes must be at least 2")
            # labels the class cannot give would widen the menus and the decoder
            if (entry.labels == "multiclass" and class_spec.get("kind") == "finite_multiclass"
                    and class_spec.get("num_classes") != int(raw["num_classes"])):
                raise ConfigError(
                    f"num_classes {raw['num_classes']} differs from the class's "
                    f"num_classes {class_spec.get('num_classes')!r}"
                )
            parse_label = as_fraction if entry.labels == "real" else int
            support = tuple((_parse_point(x), parse_label(y)) for x, y in dist["support"])
            low, high = (1, int(raw["num_classes"])) if entry.labels == "multiclass" else (0, 1)
            if any(not low <= y <= high for _, y in support):
                raise ConfigError(f"{entry.labels} support labels must lie in [{low}, {high}]")
            weights = dist.get("weights")
            if weights is not None:
                weights = tuple(as_fraction(w) for w in weights)
            m = int(raw.get("m", 3))
            if m < 2:
                raise ConfigError("weak sample size m must be at least 2")
            eta = raw.get("eta")
            eta = float(eta) if eta is not None else 1.0 / (m * math.log(m))
            gamma = raw.get("gamma")
            beta = raw.get("beta")
            num_classes = raw.get("num_classes")
            c1 = float(raw.get("C1", raw.get("c1", 1.0)))
            if "c1" in raw and float(raw["c1"]) != c1:
                raise ConfigError(f"C1 {raw['C1']!r} and c1 {raw['c1']!r} differ")
            config = cls(
                class_spec=class_spec,
                support=support,
                weights=weights,
                label_noise=as_fraction(dist.get("label_noise", 0)),
                pipeline=pipeline,
                n=int(raw.get("n", 10)),
                m=m,
                c1=c1,
                lam=float(raw.get("lambda", 1.0)),
                eta=eta,
                delta=float(raw.get("delta", 0.2)),
                gamma=as_fraction(gamma) if gamma is not None else None,
                beta=as_fraction(beta) if beta is not None else None,
                num_classes=int(num_classes) if num_classes is not None else None,
                trials=int(raw.get("trials", 1)),
                seed=int(raw["seed"]),
                reps=int(raw.get("reps", 50)),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, ContractViolation) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        for name, low in (("n", entry.min_n), ("reps", 1), ("trials", 0)):
            if getattr(config, name) < low:
                raise ConfigError(f"{name} must be at least {low}")
        for name in ("eta", "delta", "c1"):
            if not getattr(config, name) > 0:
                raise ConfigError(f"{name} must be positive")
        # delta is a failure probability; a delta of 1 or more, or an infinite
        # eta, can plan ceil(16 log(4n/delta) / eta^2) = 0 boosting rounds,
        # and an infinite C1 asks the weak learner for infinitely many walks
        if not config.delta < 1:
            raise ConfigError("delta must lie in (0, 1)")
        for name in ("eta", "c1"):
            if not math.isfinite(getattr(config, name)):
                raise ConfigError(f"{name} must be finite")
        # beyond [0, 1] an edge mass leaves [0, 1] and the audit no longer
        # describes the learner
        if not 0 <= config.lam <= 1:
            raise ConfigError("lambda must lie in [0, 1]")
        if entry.max_n is not None and config.n > entry.max_n:
            raise ConfigError(f"pipeline {pipeline} takes at most n = {entry.max_n} points")
        # a given field is checked by the rule of the pipelines that read it,
        # whether or not this pipeline does, so a bad grid fails before any trial
        if config.gamma is not None and not (0 < config.gamma < 1):
            raise ConfigError("gamma must lie strictly between 0 and 1")
        if config.beta is not None and not config.beta > 0:
            raise ConfigError("beta must be positive")
        if config.gamma is not None and config.beta is not None and config.beta < config.gamma:
            raise ConfigError("beta must be at least gamma")
        if pipeline == "reg_agnostic" and config.gamma.numerator != 1:
            raise ConfigError("reg_agnostic needs gamma = 1/G for an integer G")
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return ExperimentConfig(**{**self.__dict__, "seed": seed})

    def weak_spec(self) -> WeakSpec:
        return WeakSpec(self.m, self.c1, self.lam)

    def transductive_params(self) -> WeakLearnerParams:
        """The walk of the leave-one-out diagnostics.  Their contexts have size
        n-1, so it comes from the sample size, not the weak-sample size m."""
        return paper_default_params(self.n, self.c1, self.lam)


def _parse_point(x):
    return parse_points([x])[0]


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
    if config.label_noise != 0:
        if PIPELINES[config.pipeline].labels == "multiclass":
            dist = dist.with_multiclass_label_noise(config.label_noise, config.num_classes)
        else:
            dist = dist.with_binary_label_noise(config.label_noise)
    return dist


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
    except (KeyError, TypeError, ValueError) as exc:
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
        loss, _ = _LABEL_KINDS[entry.labels]
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
    concept_class, distribution = setup_experiment(config)
    trial = functools.partial(
        run_trial, config, concept_class, distribution, measure_wall=measure_wall
    )
    # trials share no state, so each worker process runs whole trials; a
    # worker beyond the trial count would only cost its start-up.  Workers
    # are spawned, not forked: a fork copies the locks of numpy's threads.
    workers = min(jobs, config.trials)
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
