"""The benchmark's traced mode still sees every layer of the pipelines.

`perfbench/tracing.py` wraps functions by name in the module namespaces their
callers look them up in, so a rename or a changed call path would silently
leave a per-layer metric at zero.  This runs one trial of tiny configs under
the tracer, in a fresh process so the wrappers stay out of this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _intervals(size):
    return [[0] * size] + [
        [1 if a <= x < b else 0 for x in range(size)]
        for a in range(size) for b in range(a + 1, size + 1)
    ]


CONFIGS = {
    "realizable_partial": {
        "class": {"kind": "finite_table", "domain": list(range(8)), "table": _intervals(8)},
        "distribution": {"support": [[x, 1 if 2 <= x < 6 else 0] for x in range(8)]},
        "pipeline": "realizable_partial", "n": 6, "m": 2, "eta": 3, "seed": 5,
    },
    "agnostic_partial": {
        "class": {"kind": "margin_threshold", "grid": ["1/100", "1/50", 50], "margin": "1/200"},
        "distribution": {
            "support": [["1/8", 0], ["3/8", 0], ["5/8", 1], ["7/8", 1]], "label_noise": "1/10",
        },
        "pipeline": "agnostic_partial", "n": 6, "m": 2, "eta": 3, "seed": 5,
    },
    "reg_agnostic": {
        "class": {
            "kind": "finite_real", "domain": [0, 1],
            "table": [["1/8", "3/4"], ["1/4", "1/2"]],
        },
        "distribution": {"support": [[0, "1/8"], [1, "3/4"]]},
        "pipeline": "reg_agnostic", "gamma": "1/4", "n": 3, "m": 2, "eta": 9, "seed": 5,
    },
}

# the spans every config must reach, beyond fitting, weak learning and boosting
EXTRA_SPANS = {
    "realizable_partial": (),
    "agnostic_partial": ("ermred.sample_erm_binary.calls",),
    "reg_agnostic": ("ermred.sample_erm_real.calls", "ermred.sample_con_real.calls"),
}

SCRIPT = """
import json, sys
import tracing
from oiglearn.classes import class_from_config
from oiglearn.harness import ExperimentConfig, build_distribution, run_trial

tracer = tracing.Tracer()
tracing.install(tracer)
counts = {}
for name, raw in json.loads(sys.stdin.read()).items():
    config = ExperimentConfig.from_dict(raw)
    cls = class_from_config(config.class_spec)
    run_trial(config, cls, build_distribution(config), 0, measure_wall=False)
    counts[name] = dict(tracer.reset())
print(json.dumps(counts))
"""


def _traced_counts(configs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], input=json.dumps(configs),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_counts_every_boosted_layer():
    counts = _traced_counts(CONFIGS)
    for name, extra in EXTRA_SPANS.items():
        for span in (
            "pipelines.fit.calls",
            "weak.weak_realizable.calls",
            "boost.adaboost_train.calls",
            "boost.adaboost_predict.calls",
            *extra,
        ):
            assert counts[name].get(span, 0) >= 1, (name, span)


# n = 8 plans 576 rollouts per estimate, so the vectorized walk engine runs
DIAGNOSTIC = {
    "class": {"kind": "finite_table", "domain": list(range(16)), "table": _intervals(16)},
    "distribution": {"support": [[x, 1 if 4 <= x < 12 else 0] for x in range(16)]},
    "pipeline": "weak_transductive", "n": 8, "reps": 2, "seed": 5,
}


def test_tracer_counts_the_diagnostic_layers():
    counts = _traced_counts({"weak_transductive": DIAGNOSTIC})["weak_transductive"]
    for span in (
        "pipelines.fit.calls",
        "harness.audit.calls",
        "oig.estimate_potential.calls",
        "oig.exact_generating_function.calls",
        "weak.weak_realizable.calls",
    ):
        assert counts.get(span, 0) >= 1, span
