"""Per-layer spans and counters for the traced benchmark run.

`install()` wraps the public functions at each layer boundary, in the module
namespace their callers look them up in, and `Tracer` keeps per-trial totals
in memory: calls, inclusive CPU time and self CPU time (inclusive time minus
the time of the spans nested inside).  Nothing in the program changes; the
wrappers pass every argument and result through, and the benchmark compares
the traced run's report lines with the untraced run's.
"""

from __future__ import annotations

import time
from collections import Counter

_clock = time.process_time_ns

STAGE_OF = {
    "pipelines.fit": "fit",
    "harness.train_eval": "train_eval",
    "harness.heldout_eval": "heldout",
    "harness.audit": "audit",
}


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # [start_ns, child_ns] per open span
        self.active: Counter = Counter()
        self.stage = "none"

    def reset(self) -> Counter:
        """Hand over the finished trial's totals and start a fresh set."""
        done, self.counts = self.counts, Counter()
        return done

    def span(self, name: str, fn):
        stage = STAGE_OF.get(name)

        def wrapper(*args, **kwargs):
            saved_stage = self.stage
            if stage is not None:
                self.stage = stage
            frame = [_clock(), 0]
            self.stack.append(frame)
            self.active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                self.active[name] -= 1
                self.stack.pop()
                duration = end - frame[0]
                if self.stack:
                    self.stack[-1][1] += duration
                counts = self.counts
                counts[name + ".calls"] += 1
                counts[name + ".ns"] += duration
                counts[name + ".self_ns"] += duration - frame[1]
                self.stage = saved_stage

        wrapper.__wrapped__ = fn
        return wrapper

    def charge(self, fn):
        """Ledger charges, split by the enclosing stage and reduction."""

        def charge(ledger, size):
            counts = self.counts
            counts["oracle.calls." + self.stage] += 1
            counts["oracle.cost." + self.stage] += size
            active = self.active
            if active["ermred.sample_erm_binary"]:
                counts["ermred.sample_erm_binary.oracle_calls"] += 1
            if active["ermred.sample_erm_real"]:
                counts["ermred.sample_erm_real.oracle_calls"] += 1
            if active["oig.estimate_potential"]:
                # a membership query reaches the oracle only on a memo miss
                counts["oig.membership.misses"] += 1
            return fn(ledger, size)

        return charge

    def estimate(self, fn):
        def estimate(points, y, params, *args, **kwargs):
            self.counts["oig.rollouts"] += params.trials
            return fn(points, y, params, *args, **kwargs)

        return self.span("oig.estimate_potential", estimate)

    def weak(self, fn):
        def weak(*args, **kwargs):
            counts = self.counts
            if self.active["boost.adaboost_predict"]:
                counts["boost.replayed_predictions"] += 1
            before = counts["oig.estimate_potential.calls"]
            result = fn(*args, **kwargs)
            if counts["oig.estimate_potential.calls"] == before:
                counts["weak.forced"] += 1
            return result

        return self.span("weak.weak_realizable", weak)

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def membership(self, fn):
        def query_packed(predicate, code):
            self.counts["oig.membership.queries"] += 1
            return fn(predicate, code)

        return query_packed


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from oiglearn import boost, brute, classes, core, harness, oig, oracle, pipelines, weak

    def wrap(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    def span(name):
        return lambda fn: tracer.span(name, fn)

    for cls in (classes.FiniteTableClass, classes.MarginThresholdClass):
        wrap(cls, "consistent_on", span("classes.consistent_on"))
        wrap(cls, "erm_value_on", span("classes.erm_value_on"))
        wrap(cls, "project_onto", span("classes.project_onto"))
    wrap(oracle.QueryCostLedger, "charge", tracer.charge)
    wrap(oig.MembershipPredicate, "query_packed", tracer.membership)
    wrap(weak, "estimate_potential", tracer.estimate)
    wrap(brute, "exact_generating_function", span("oig.exact_generating_function"))
    for owner in (weak, pipelines):
        wrap(owner, "weak_realizable", tracer.weak)
    wrap(boost, "epsilon_alpha", lambda fn: tracer.counter("boost.rounds_run", fn))
    wrap(pipelines, "adaboost_train", span("boost.adaboost_train"))
    wrap(pipelines, "adaboost_predict", span("boost.adaboost_predict"))
    wrap(pipelines, "sample_erm_binary", span("ermred.sample_erm_binary"))
    wrap(pipelines, "sample_erm_real", span("ermred.sample_erm_real"))
    wrap(pipelines, "sample_con_real", lambda fn: tracer.counter("ermred.sample_con_real.calls", fn))
    for name in dir(harness):
        if name.startswith("fit_") or name == "transductive_error":
            wrap(harness, name, span("pipelines.fit"))
    wrap(harness, "exact_transductive_audit", span("harness.audit"))
    wrap(harness, "empirical_error", span("harness.train_eval"))
    wrap(core.FiniteDistribution, "expected_loss", span("harness.heldout_eval"))
    wrap(core.RandomStream, "generator", span("core.generator"))


PER_LAYER = {
    # name: unit
    "classes.consistent_on.calls": "count",
    "classes.consistent_on.self_ms": "ms",
    "classes.erm_value_on.calls": "count",
    "classes.erm_value_on.self_ms": "ms",
    "classes.project_onto.self_ms": "ms",
    "oracle.calls.fit": "count",
    "oracle.calls.train_eval": "count",
    "oracle.calls.heldout": "count",
    "oracle.cost.fit": "count",
    "oracle.cost.heldout": "count",
    "oig.estimate_potential.calls": "count",
    "oig.estimate_potential.self_ms": "ms",
    "oig.rollouts": "count",
    "oig.membership.queries": "count",
    "oig.membership.hit_ratio": "ratio",
    "oig.exact_generating_function.self_ms": "ms",
    "weak.weak_realizable.calls": "count",
    "weak.weak_realizable.self_ms": "ms",
    "weak.forced_ratio": "ratio",
    "boost.rounds_run": "count",
    "boost.adaboost_train.self_ms": "ms",
    "boost.adaboost_predict.calls": "count",
    "boost.adaboost_predict.self_ms": "ms",
    "boost.replayed_predictions": "count",
    "ermred.sample_erm_binary.self_ms": "ms",
    "ermred.sample_erm_binary.oracle_calls": "count",
    "ermred.sample_erm_real.self_ms": "ms",
    "ermred.sample_erm_real.oracle_calls": "count",
    "ermred.sample_con_real.calls": "count",
    "pipelines.fit.ms": "ms",
    "harness.audit.ms": "ms",
    "harness.train_eval.ms": "ms",
    "harness.heldout_eval.ms": "ms",
    "harness.trial.ms": "ms",
    "core.generator.calls": "count",
    "core.generator.self_ms": "ms",
}


def per_layer_metrics(per_trial: list[Counter]) -> dict[str, float]:
    """Means per trial of every per-layer metric; ratios pool all trials."""
    total: Counter = Counter()
    for counts in per_trial:
        total.update(counts)
    trials = max(len(per_trial), 1)
    out = {}
    for name in PER_LAYER:
        if name == "oig.membership.hit_ratio":
            queries = total["oig.membership.queries"]
            value = 1 - total["oig.membership.misses"] / queries if queries else 0.0
        elif name == "weak.forced_ratio":
            calls = total["weak.weak_realizable.calls"]
            value = total["weak.forced"] / calls if calls else 0.0
        elif name.endswith(".self_ms"):
            value = total[name[: -len("_ms")] + "_ns"] / 1e6 / trials
        elif name.endswith(".ms"):
            value = total[name[: -len("ms")] + "ns"] / 1e6 / trials
        else:
            value = total[name] / trials
        out[name] = value
    return out
