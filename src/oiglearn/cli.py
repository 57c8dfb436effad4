"""Command-line front end: run experiments, audit orientations, self-test.

Exit codes: 0 success, 1 selftest failure, 2 pipeline/oracle capability
mismatch, 3 unreadable or invalid config, 4 unwritable output sink.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    audit_sample,
    draw_trial,
    emit_report,
    run_experiment,
    setup_experiment,
)
from .oracle import OracleCapabilityError

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_CAPABILITY = 2
EXIT_CONFIG = 3
EXIT_SINK = 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oig", description="Oracle-efficient PAC learning experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run seeded trials and emit a report")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default="-", help="output path, or - for stdout")
    run_p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    run_p.add_argument(
        "--jobs", type=int, default=1,
        help="run trials in up to this many worker processes, at most one per usable "
        "CPU (default 1: in-process)",
    )
    run_p.add_argument(
        "--no-wall",
        action="store_true",
        help="report wall_ms as 0 so repeated runs are byte-identical",
    )

    audit_p = sub.add_parser("audit", help="exact orientation audit for a drawn sample")
    audit_p.add_argument("--config", required=True)

    sub.add_parser("selftest", help="run the brute-force cross-check battery")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return _cmd_selftest()
    try:
        config = _load_config(args.config)
        if args.command == "run":
            return _cmd_run(config, args)
        return _cmd_audit(config)
    except OracleCapabilityError as exc:
        print(f"capability mismatch: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _load_config(path) -> ExperimentConfig:
    config = ExperimentConfig.from_file(path)
    env_seed = os.environ.get("OIG_SEED")
    if env_seed is not None:
        try:
            config = config.with_seed(env_seed)
        except ConfigError as exc:
            raise ConfigError(f"OIG_SEED {env_seed!r}: {exc}") from None
    return config


def _cmd_run(config, args) -> int:
    reports = run_experiment(config, jobs=args.jobs, measure_wall=not args.no_wall)
    try:
        if args.out == "-":
            emit_report(reports, args.format, sys.stdout)
        else:
            with open(args.out, "w") as fh:
                emit_report(reports, args.format, fh)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_SINK
    return EXIT_OK


def _cmd_audit(config) -> int:
    concept_class, distribution = setup_experiment(config)
    # trial 0's sample at the discount of the audit pipeline
    sample, _ = draw_trial(config, distribution, 0)
    for walk in ("lazy", "flip"):
        audit = audit_sample(config, concept_class, sample, walk)
        print(
            f"walk={walk} out_degree={audit.out_degree:.6f} "
            f"loo_error={audit.loo_error:.6f} min_potential={audit.min_potential:.6f} "
            f"bound_rhs={audit.bound_rhs:.6f} slack={audit.slack:.6g}"
        )
        masses = ", ".join(
            "absent" if m is None else f"{m:.4f}" for m in audit.edge_mass_on_truth
        )
        print(f"  per-edge mass on truth: [{masses}]")
    return EXIT_OK


def _cmd_selftest() -> int:
    from .selftest import run_selftest

    failures = run_selftest()
    return EXIT_OK if failures == 0 else EXIT_SELFTEST_FAILED


if __name__ == "__main__":
    sys.exit(main())
