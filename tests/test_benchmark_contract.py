"""The benchmark's own instances, run through the harness as its worker runs them.

A benchmark run fails when its workload check reports a problem, when trial 0
differs between two processes, or when the check finds no recorded sample
because the training draw no longer goes through `FiniteDistribution.draw`.
interval_loo is the one workload whose check reads `train_err` as the
Monte-Carlo leave-one-out error and `test_err` as the exact one, and
recomputes the exact error from the drawn samples with the benchmark's own
reference.  This runs its first trials the way the benchmark's worker does.
On regression_agnostic every ERM answer is checked against the row scan.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_regression_agnostic_erm_answers_match_the_row_scan(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import build_regression_agnostic

    config = ExperimentConfig.from_dict(build_regression_agnostic(SEED))
    concept_class = class_from_config(config.class_spec)
    distribution = build_distribution(config)
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
