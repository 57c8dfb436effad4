"""One benchmark process: set up an `oig run` config, run trials, report.

Reads a JSON job from stdin and writes one JSON result to stdout.  The job
names the raw config, how long to keep starting trials (`seconds`), the
least and most trials to run, whether to trace, and whether to keep the
drawn samples.  All times are this process's CPU time; `setup_s` is the CPU
time spent from interpreter start until the class and distribution exist.
Reference-loop samples taken after set-up and around every trial record the
machine's speed, which `run.py` scales the times by.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction

REFERENCE_ITERATIONS = 200  # about 1 ms of CPU on the machine in README.md
SETUP_REFERENCE_SAMPLES = 9


def reference_loop() -> Fraction:
    """Fixed pure-Python work, independent of the program: rational
    arithmetic, tuple keys and dict updates, like the oracle kernels."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(REFERENCE_ITERATIONS):
        acc += Fraction(i % 7, 64) - Fraction(1, 3)
        key = (i & 63, i % 3)
        seen[key] = seen.get(key, 0) + 1
    return acc


def reference_ms() -> float:
    """CPU time of one reference loop: a sample of the machine's speed."""
    start = time.process_time_ns()
    reference_loop()
    return (time.process_time_ns() - start) / 1e6


def main() -> int:
    job = json.load(sys.stdin)
    from oiglearn.classes import class_from_config
    from oiglearn.core import FiniteDistribution
    from oiglearn.harness import (
        ExperimentConfig,
        build_distribution,
        emit_report,
        run_trial,
        validate_capabilities,
    )

    config = ExperimentConfig.from_dict(job["config"])
    concept_class = class_from_config(config.class_spec)
    validate_capabilities(config, concept_class)
    distribution = build_distribution(config)
    setup_s = time.process_time()
    setup_reference_ms = [reference_ms() for _ in range(SETUP_REFERENCE_SAMPLES)]

    samples = {}
    t = 0
    if job["keep_samples"]:
        draw = FiniteDistribution.draw

        def keep_draw(self, gen, n):
            sample = draw(self, gen, n)
            samples[t] = sample
            return sample

        FiniteDistribution.draw = keep_draw

    trial_fn = run_trial
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        trial_fn = tracer.span("harness.trial", run_trial)

    reports, trials, layer_counts = [], [], []
    speed = []  # reference samples, one before each trial and one after the last
    failed = 0
    started = time.perf_counter()
    while t < job["max_trials"] and (
        t < job["min_trials"] or time.perf_counter() - started < job["seconds"]
    ):
        speed.append(reference_ms())
        wall0 = time.perf_counter()
        cpu0 = time.process_time_ns()
        try:
            report = trial_fn(config, concept_class, distribution, t, measure_wall=False)
        except Exception:  # a failed trial is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            if tracer is not None:
                tracer.reset()
            failed += 1
            t += 1
            continue
        cpu_ms = (time.process_time_ns() - cpu0) / 1e6
        wall_ms = (time.perf_counter() - wall0) * 1000
        reports.append(report)
        trials.append({
            "trial": t, "cpu_ms": cpu_ms, "wall_ms": wall_ms,
            "train_err": report.train_err, "test_err": report.test_err,
            "calls": report.oracle_calls, "cost": report.query_cost,
        })
        if tracer is not None:
            layer_counts.append(tracer.reset())
        t += 1

    speed.append(reference_ms())
    for entry in trials:
        # the machine's speed around the trial: the samples just before and after it
        entry["ref_ms"] = (speed[entry["trial"]] + speed[entry["trial"] + 1]) / 2

    sink = io.StringIO()
    emit_report(reports, "csv", sink)
    csv = sink.getvalue()
    result = {
        "setup_s": setup_s,
        "setup_reference_ms": setup_reference_ms,
        "attempted": t,
        "failed": failed,
        "trials": trials,
        "report_lines": csv.splitlines()[1:],
        "report_sha256": hashlib.sha256(csv.encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": {
            str(k): [[_plain(x) for x in s.xs], [_plain(y) for y in s.ys]]
            for k, s in samples.items()
        },
    }
    if tracer is not None:
        result["layer_counts"] = [dict(c) for c in layer_counts]
        result["per_layer"] = tracing.per_layer_metrics(layer_counts)
    json.dump(result, sys.stdout)
    return 0


def _plain(value):
    if isinstance(value, int):
        return value
    raise TypeError(f"sample value {value!r} is not an integer point or label")


if __name__ == "__main__":
    sys.exit(main())
