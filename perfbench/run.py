"""CPU-timed benchmark of `oig run` workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's config from the seed, then starts fresh single-threaded
Python processes on the program in `src/`: a few that only set up (and the
first of them also runs trial 0), then one that runs trials for S seconds.
Times are CPU times scaled to a reference machine speed (see REFERENCE_MS).
With --trace 1 the trial process wraps each layer's functions and the result
holds the per-layer metrics instead of the end-to-end ones.  The outputs are
checked against the references in refs.py, trial 0 must come out identical in
two processes, and every report line must match the lines an earlier run of
the same code and seed recorded under perfbench/out/.  The last line printed
is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3  # set-up only processes; setup_s is the median over these and the trial process
MIN_TRIALS = 40  # so the tail percentile has ten trials beyond it
PROCESS_TIMEOUT_S = 170

# CPU times are scaled to the machine speed at which worker.reference_loop
# takes REFERENCE_MS, about its mean on the machine in README.md.  On a
# shared host the CPU time of fixed work flips between a fast and a slow
# state, up to 1.7x apart, several times a second.  Each trial is scaled by
# the reference samples taken just before and just after it, each set-up by
# the samples taken after it.
REFERENCE_MS = 1.25

END_TO_END = {
    "trials_per_cpu_s": "1/s",
    "trial_cpu_ms_p50": "ms",
    "trial_cpu_ms_tail": "ms",
    "setup_s": "s",
    "oracle_calls_per_trial": "count",
    "query_cost_per_trial": "count",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _spawn(job: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # subprocess.run kills and reaps the worker on a timeout or any exception
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def _tail(values: list[float]) -> float:
    """The highest percentile with at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def _compare_record(path: Path, code: str, lines: list[str]) -> list[str]:
    """Check the report lines against an earlier run of the same code and
    seed, then keep the longer of the two records."""
    record = None
    if path.exists():
        record = json.loads(path.read_text())
        if record.get("code") != code:
            record = None
    problems = []
    if record is not None:
        for old, new in zip(record["lines"], lines):
            if old != new:
                problems.append(f"report line differs from an earlier run: {old!r} != {new!r}")
                break
    if record is None or len(lines) > len(record["lines"]):
        path.write_text(json.dumps({"code": code, "lines": lines}))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running worker is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "oiglearn" / "__init__.py").is_file():
        return _fail(f"no program sources under {SRC}")
    sys.path.insert(0, str(HERE))
    from workloads import NEEDS_SAMPLES, WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    build, check = WORKLOADS[args.workload]
    config = build(args.seed)
    job = {"config": config, "trace": False, "keep_samples": False,
           "seconds": 0, "min_trials": 0, "max_trials": 0}

    try:
        probes = [
            _spawn({**job, "min_trials": 1, "max_trials": 1} if i == 0 else job,
                   PROCESS_TIMEOUT_S)
            for i in range(SETUP_PROBES)
        ]
        main_run = _spawn({
            **job, "trace": bool(args.trace),
            "keep_samples": args.workload in NEEDS_SAMPLES,
            "seconds": args.seconds, "min_trials": MIN_TRIALS,
            "max_trials": 1_000_000,
        }, PROCESS_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return _fail(str(exc))

    OUT.mkdir(exist_ok=True)
    trials = main_run["trials"]
    if not trials:
        return _fail("no trial completed")
    samples = {int(k): v for k, v in main_run["samples"].items()}
    problems = check(trials, samples)
    lines = main_run["report_lines"]
    if probes[0]["report_lines"] != lines[:1]:
        problems.append(f"trial 0 differs between two processes: "
                        f"{probes[0]['report_lines']} != {lines[:1]}")
    stem = f"{args.workload}-seed{args.seed}"
    problems += _compare_record(OUT / f"{stem}.json", _code_digest(), lines)
    (OUT / f"{stem}-trace{args.trace}.result.json").write_text(json.dumps({
        "report_sha256": main_run["report_sha256"],
        "setup": [{"setup_s": p["setup_s"], "reference_ms": p["setup_reference_ms"]}
                  for p in probes + [main_run]],
        "trials": trials,
    }))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        from tracing import PER_LAYER

        metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                   for name, value in main_run["per_layer"].items()}
        (OUT / f"{stem}.trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trial_cpu_ms": [t["cpu_ms"] for t in trials],
            "layer_counts": main_run["layer_counts"],
        }))
    else:
        cpu_ms = [t["cpu_ms"] * REFERENCE_MS / t["ref_ms"] for t in trials]
        setup_s = [p["setup_s"] * REFERENCE_MS / statistics.fmean(p["setup_reference_ms"])
                   for p in probes + [main_run]]
        values = {
            "trials_per_cpu_s": len(trials) / (sum(cpu_ms) / 1000),
            "trial_cpu_ms_p50": statistics.median(cpu_ms),
            "trial_cpu_ms_tail": _tail(cpu_ms),
            "setup_s": statistics.median(setup_s),
            "oracle_calls_per_trial": statistics.fmean(t["calls"] for t in trials),
            "query_cost_per_trial": statistics.fmean(t["cost"] for t in trials),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
