"""The benchmark's own instances, run through the harness as its worker runs them.

A benchmark run fails when its workload check reports a problem, when trial 0
differs between two processes, or when the check finds no recorded sample
because the training draw no longer goes through `FiniteDistribution.draw`.
interval_loo is the one workload whose check reads `train_err` as the
Monte-Carlo leave-one-out error and `test_err` as the exact one, and
recomputes the exact error from the drawn samples with the benchmark's own
reference.  This runs its first trials the way the benchmark's worker does.
On regression_agnostic every ERM answer and every range answer is checked
against the table's row scan.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from oiglearn import pipelines
from oiglearn.brute import table_erm_scan
from oiglearn.classes import FiniteTableClass, class_from_config
from oiglearn.core import FiniteDistribution, loss_abs
from oiglearn.harness import (
    ExperimentConfig,
    build_distribution,
    emit_report,
    run_trial,
    validate_capabilities,
)

ROOT = Path(__file__).resolve().parents[1]
SEED = 201
TRIALS = 4

TRIAL_0 = """
import io, sys
from workloads import build_interval_loo
from oiglearn.classes import class_from_config
from oiglearn.harness import ExperimentConfig, build_distribution, emit_report, run_trial

config = ExperimentConfig.from_dict(build_interval_loo(int(sys.argv[1])))
report = run_trial(config, class_from_config(config.class_spec), build_distribution(config), 0,
                   measure_wall=False)
sink = io.StringIO()
emit_report([report], "csv", sink)
print(sink.getvalue().splitlines()[1])
"""


def _report_line(report) -> str:
    sink = io.StringIO()
    emit_report([report], "csv", sink)
    return sink.getvalue().splitlines()[1]


def test_interval_loo_passes_the_benchmark_check(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import build_interval_loo, check_interval_loo

    config = ExperimentConfig.from_dict(build_interval_loo(SEED))
    concept_class = class_from_config(config.class_spec)
    validate_capabilities(config, concept_class)
    distribution = build_distribution(config)

    # the samples are recorded as the worker records them: the trial's last draw
    samples = {}
    trial = 0
    draw = FiniteDistribution.draw

    def keep_draw(self, gen, n):
        sample = draw(self, gen, n)
        samples[trial] = [list(sample.xs), list(sample.ys)]
        return sample

    monkeypatch.setattr(FiniteDistribution, "draw", keep_draw)
    reports, trials = [], []
    for trial in range(TRIALS):
        report = run_trial(config, concept_class, distribution, trial, measure_wall=False)
        reports.append(report)
        trials.append(
            {"trial": trial, "train_err": report.train_err, "test_err": report.test_err}
        )
    assert sorted(samples) == list(range(TRIALS))
    assert check_interval_loo(trials, samples) == []

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", TRIAL_0, str(SEED)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == _report_line(reports[0])


def _regression_agnostic(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import build_regression_agnostic

    config = ExperimentConfig.from_dict(build_regression_agnostic(SEED))
    return config, class_from_config(config.class_spec), build_distribution(config)


def test_regression_agnostic_erm_answers_match_the_row_scan(monkeypatch):
    config, concept_class, distribution = _regression_agnostic(monkeypatch)
    erm_value_on = FiniteTableClass.erm_value_on
    answered = []

    def checked(self, xs, ys):
        value = erm_value_on(self, xs, ys)
        assert value == table_erm_scan(self, xs, ys, loss_abs), (xs, ys)
        answered.append(value)
        return value

    monkeypatch.setattr(FiniteTableClass, "erm_value_on", checked)
    for trial in range(3):
        run_trial(config, concept_class, distribution, trial, measure_wall=False)
    assert len(answered) > 500


def test_regression_agnostic_range_answers_match_the_row_scan(monkeypatch):
    """Every range answer of the encoded weak learner equals the table's
    Fraction row scan and costs one ERM call on the doubled sample."""
    config, concept_class, distribution = _regression_agnostic(monkeypatch)
    sample_con_real = pipelines.sample_con_real
    answered = []

    def checked(triples, erm_oracle):
        cost, calls = erm_oracle.ledger.snapshot()
        got = sample_con_real(triples, erm_oracle)
        assert erm_oracle.ledger.snapshot() == (cost + 2 * len(triples), calls + 1)
        xs, lower, upper = zip(*triples)
        assert got == concept_class.range_consistent_on(xs, lower, upper), triples
        answered.append(got)
        return got

    monkeypatch.setattr(pipelines, "sample_con_real", checked)
    for trial in range(3):
        run_trial(config, concept_class, distribution, trial, measure_wall=False)
    assert len(answered) > 300
    assert set(answered) == {True, False}
