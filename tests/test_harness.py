import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest

from oiglearn import cli

from oiglearn.harness import (
    CSV_HEADER,
    PIPELINES,
    ConfigError,
    ExperimentConfig,
    _FIELDS,
    _REQUIRED,
    build_distribution,
    draw_trial,
    emit_report,
    run_experiment,
    setup_experiment,
    validate_capabilities,
)
from oiglearn.classes import CLASS_KINDS, class_from_config
from oiglearn.core import LABEL_KINDS
from oiglearn.oracle import OracleCapabilityError


def _singleton_config(**overrides):
    raw = {
        "class": {"kind": "finite_table", "domain": [0, 1, 2], "table": [[1, 0, 1]]},
        "distribution": {"support": [[0, 1], [1, 0], [2, 1]]},
        "pipeline": "realizable_partial",
        "n": 6,
        "m": 2,
        "eta": 0.8,
        "delta": 0.2,
        "trials": 3,
        "seed": 11,
    }
    raw.update(overrides)
    return raw


def test_config_parsing_and_defaults():
    config = ExperimentConfig.from_dict(_singleton_config())
    assert config.pipeline == "realizable_partial"
    assert config.n == 6 and config.m == 2
    defaulted = ExperimentConfig.from_dict(_singleton_config(eta=None))
    import math

    assert defaulted.eta == pytest.approx(1 / (2 * math.log(2)))


# configs that parse but describe no concept class or no distribution, or
# whose support leaves the class domain
_BAD_SETUPS = (
    {"class": {"kind": "no_such_kind"}},
    {"class": {"kind": "finite_table", "domain": [0, 1, 2], "table": [[1, 0]]}},  # short row
    {"class": {"kind": "finite_table", "domain": 5, "table": [[1]]}},
    {"distribution": {"support": [[0, 1], [1, 0]], "weights": [1]}},
    {"distribution": {"support": []}},
    {"distribution": {"support": [[0, 1], [7, 0]]}},
    {"class": {"kind": "hprime", "bound": 10}, "distribution": {"support": [[70, 1]]}},
)

# diagnostics whose exact audit cannot take the drawn sample: too many
# points, rejected by the parser, or an unrealizable labeling, rejected by
# the first trial before its Monte-Carlo estimate
_TOO_LARGE_FOR_AUDIT = ({"pipeline": "audit", "n": 30}, {"pipeline": "weak_transductive", "n": 30})
# the diagnostics' walk comes from n, and the weak-learner defaults need n >= 2
_TOO_SMALL_FOR_THE_WALK = ({"pipeline": "audit", "n": 1}, {"pipeline": "weak_transductive", "n": 1})
_UNREALIZABLE = tuple(
    {"pipeline": pipeline, "n": 4, "distribution": {"support": [[2, 0]]}}
    for pipeline in ("audit", "weak_transductive")
)

_THRESHOLD_CLASS = {"kind": "margin_threshold", "grid": ["1/100", "1/50", 50], "margin": "1/200"}

# multiclass pipelines with one class, which no menu can encode
_ONE_CLASS = tuple(
    {"pipeline": pipeline, "num_classes": 1,
     "class": {"kind": "finite_multiclass", "domain": [0, 1, 2], "table": [[1, 1, 1]],
               "num_classes": 1},
     "distribution": {"support": [[0, 1], [1, 1], [2, 1]]}}
    for pipeline in ("multiclass_realizable", "multiclass_agnostic")
)

# a top-level num_classes other than the class's own: the menus and the
# decoder would range over labels no hypothesis gives
_MULTICLASS_CLASS = {"kind": "finite_multiclass", "domain": [0, 1, 2],
                     "table": [[1, 2, 3], [2, 3, 4]], "num_classes": 4}
_MISMATCHED_CLASSES = tuple(
    {"pipeline": pipeline, "num_classes": k, "class": _MULTICLASS_CLASS,
     "distribution": {"support": [[0, 1], [1, 2], [2, 3]]}}
    for pipeline in ("multiclass_realizable", "multiclass_agnostic")
    for k in (3, 6)
)

# integer fields given a bool or a non-whole number, which int() would truncate
_BAD_INTEGERS = (
    {"n": 2.7}, {"m": 2.5}, {"trials": True}, {"seed": 11.5}, {"reps": True},
    {"num_classes": 2.5},
)

# values out of range for every pipeline that reads the field: a field is
# checked whenever it is given, even where this binary pipeline ignores it
_OUT_OF_RANGE = (
    {"lambda": 1000}, {"lambda": -2}, {"lambda": 1.01}, {"lambda": "nan"},
    {"gamma": "7"}, {"gamma": "0"}, {"beta": "-3"}, {"beta": 0},
    {"gamma": "1/4", "beta": "1/8"}, {"num_classes": 1}, {"num_classes": 0},
    # each of these would plan zero boosting rounds or infinitely many walks
    {"delta": 1}, {"delta": 1000}, {"eta": "inf"}, {"eta": "-inf"}, {"eta": "nan"},
    {"C1": "inf"},
    # a random stream needs a non-negative seed
    {"seed": -1},
    # 16 ln(f n / delta) / eta^2 boosting rounds: eta^2 underflows to 0, or
    # the count overflows to inf
    {"eta": 1e-300}, {"eta": 1e-160},
    # a sample too large to draw
    {"n": 10**30}, {"n": 10**6 + 1},
    # m sample points and the query point fill a uint64 at m = 63
    {"m": 64},
)


# misspelled keys, which would otherwise run with the default silently
_UNKNOWN_KEYS = (
    {"trails": 5},
    {"Trials": 5},
    {"distribution": {"support": [[0, 1], [1, 0], [2, 1]], "label_nosie": "1/10"}},
    {"class": {**_THRESHOLD_CLASS, "marign": "1/200"}},
    {"class": {"kind": "finite_table", "domain": [0, 1, 2], "table": [[1, 0, 1]], "bound": 2}},
    {"memoize": False},
)

# support labels outside the pipeline's label set
_BAD_LABELS = (
    {"distribution": {"support": [[0, 1], [1, 2]]}},
    {"distribution": {"support": [[0, -1]]}},
)


# regression settings that every trial would reject; the config parser must
# reject them first, so `oig run` exits 3 rather than failing inside a trial
_REAL_CLASS = {
    "kind": "finite_real",
    "domain": [0, 1],
    "table": [["1/8", "3/4"], ["1/2", "1/4"]],
}
_BAD_REGRESSION = (
    {"pipeline": "reg_agnostic", "gamma": "2/5"},
    {"pipeline": "reg_agnostic", "gamma": "1"},
    {"pipeline": "reg_agnostic", "gamma": "0"},
    {"pipeline": "reg_realizable", "gamma": "1"},
    {"pipeline": "reg_realizable", "gamma": "1/4", "beta": "1/8"},
    {"pipeline": "reg_agnostic", "gamma": "1/4", "beta": "-3"},
)

# a class whose labels are not the pipeline's: real values for a binary
# learner, binary labels for a multiclass one, thresholds for a regressor
_MISMATCHED_KINDS = (
    {"pipeline": "agnostic_partial", "class": _REAL_CLASS,
     "distribution": {"support": [[0, 1], [1, 0]]}},
    {"pipeline": "multiclass_realizable", "num_classes": 2,
     "distribution": {"support": [[0, 1], [1, 2], [2, 1]]}},
    {"pipeline": "reg_agnostic", "gamma": "1/4", "class": _THRESHOLD_CLASS,
     "distribution": {"support": [["1/64", 0], ["63/64", 1]]}},
)


def _regression_config(**overrides):
    raw = _singleton_config(
        **{"class": _REAL_CLASS, "distribution": {"support": [[0, "1/8"], [1, "3/4"]]}},
        n=3, trials=1,
    )
    raw.update(overrides)
    return raw


def test_config_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_singleton_config(pipeline="nope"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"pipeline": "realizable_partial"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_singleton_config(m=1))
    for bad in ({"n": 0}, {"reps": 0}, {"trials": -2}, {"class": None},
                {"eta": 0}, {"delta": -0.2}, {"C1": -1},
                {"pipeline": "reg_agnostic"}, {"pipeline": "multiclass_realizable"},
                *_UNKNOWN_KEYS, *_TOO_LARGE_FOR_AUDIT, *_TOO_SMALL_FOR_THE_WALK, *_BAD_LABELS,
                *_ONE_CLASS, *_MISMATCHED_CLASSES, *_MISMATCHED_KINDS, *_BAD_INTEGERS,
                *_OUT_OF_RANGE):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_singleton_config(**bad))
    ExperimentConfig.from_dict(_singleton_config(
        **{**_MISMATCHED_CLASSES[0], "num_classes": 4}
    ))
    for bad in _BAD_REGRESSION:
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(_regression_config(**bad))
    with pytest.raises(ConfigError, match="trails"):
        ExperimentConfig.from_dict(_singleton_config(trails=5))
    # the constant has one name, C1
    with pytest.raises(ConfigError, match="unknown config key.*c1"):
        ExperimentConfig.from_dict(_singleton_config(c1=2))
    # every accepted key at once
    ExperimentConfig.from_dict(_singleton_config(
        C1=2, reps=5, gamma=None, beta=None, num_classes=None,
        **{"lambda": 1, "distribution": {"support": [[0, 1], [1, 0]], "weights": ["1/4", "3/4"],
                                         "label_noise": "1/10"}},
    ))
    # in range, so accepted, although this binary pipeline reads none of them
    for good in ({"lambda": 0}, {"gamma": "1/4", "beta": "1/2", "num_classes": 9}):
        ExperimentConfig.from_dict(_singleton_config(**good))
    # eta 1e-150 plans about 1e302 boosting rounds, a finite count, and the
    # boosting stops early
    run_experiment(ExperimentConfig.from_dict(_singleton_config(eta=1e-150)), measure_wall=False)
    for good in ({"pipeline": "reg_agnostic", "gamma": "1/4"},
                 {"pipeline": "reg_realizable", "gamma": "2/5", "beta": "1/2"}):
        ExperimentConfig.from_dict(_regression_config(**good))
    ExperimentConfig.from_dict(_singleton_config(**{"class": _THRESHOLD_CLASS}))
    for bad_setup in _BAD_SETUPS + _UNREALIZABLE:
        config = ExperimentConfig.from_dict(_singleton_config(**bad_setup))
        with pytest.raises(ConfigError):
            run_experiment(config, measure_wall=False)


def test_every_field_default_meets_its_range():
    for row in _FIELDS:
        if row.default is not None and row.default is not _REQUIRED:
            assert row.holds(row.parse(row.default)), row.key


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_table_lists_the_fields():
    # the first column of the README's config-key table, one key per row
    text = README.read_text().split("### Config format", 1)[1]
    table = text.split("| key |", 1)[1].split("\n\n", 1)[0]
    keys = [line.split("|")[1].strip().strip("`") for line in table.splitlines()[2:]]
    assert keys == [row.key for row in _FIELDS]


def test_readme_label_kind_table_lists_the_kinds():
    # the README's label-kind table: kind, values, noise labels, loss, required key
    text = README.read_text().split("### Config format", 1)[1]
    table = text.split("| label kind |", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.split("|")[1:-1]] for line in table.splitlines()[2:]]
    assert [row[0].strip("`") for row in rows] == list(LABEL_KINDS)
    for (kind, _, _, loss, key), label in zip(rows, LABEL_KINDS.values()):
        assert loss.startswith(f"`{label.loss.__name__}`"), kind
        assert key == (f"`{label.requires}`" if label.requires else ""), kind


def test_capability_validation():
    config = ExperimentConfig.from_dict(
        _singleton_config(
            **{"class": {"kind": "hprime", "bound": 50}, "pipeline": "agnostic_partial"}
        )
    )
    with pytest.raises(OracleCapabilityError):
        validate_capabilities(config, class_from_config(config.class_spec))


CONFIGS_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))

# stand-ins for a value: wrong types, None and negative numbers
_WRONG_VALUES = (None, -1, -3, -0.5, "-1/2", "x", "", True, [], [-1], {}, {"kind": -1})


def _slots(node):
    """Every (container, key) of the dicts and lists nested in a config."""
    keys = node if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _mutate(raw: dict, rand: random.Random) -> dict:
    """A copy of the config with one key dropped or misspelled, or one value
    swapped for a wrong one."""
    raw = copy.deepcopy(raw)
    holder, key = rand.choice(list(_slots(raw)))
    action = rand.choice(("drop", "misspell", "swap"))
    if action == "drop":
        del holder[key]
    elif action == "misspell" and isinstance(holder, dict):
        i = rand.randrange(len(key))
        typo = key[:i] + key[i + 1 :] if len(key) > 1 else key + key
        holder[typo] = holder.pop(key)
    else:
        holder[key] = rand.choice(_WRONG_VALUES)
    return raw


def test_config_fuzz_fails_only_with_config_errors():
    # parsing and setup of a malformed config either succeed or raise one of
    # the two errors the CLI maps to exit codes, never anything else; each
    # shipped config is tried under every pipeline, then mutated under one
    rand = random.Random(6)
    outcomes = {"ok": 0, "rejected": 0}
    for path in SHIPPED_CONFIGS:
        base = json.loads(path.read_text())
        swapped = [{**base, "pipeline": name} for name in sorted(PIPELINES)]
        for raw in swapped + [_mutate(rand.choice(swapped), rand) for _ in range(80)]:
            try:
                config = ExperimentConfig.from_dict(raw)
                _, distribution = setup_experiment(config)
                # the first trial's draw, which a config that parses must allow
                draw_trial(config, distribution, 0)
                outcomes["ok"] += 1
            except (ConfigError, OracleCapabilityError):
                outcomes["rejected"] += 1
    assert outcomes["ok"] > 0 and outcomes["rejected"] > 0


def test_zero_trials_gives_header_only_csv():
    config = ExperimentConfig.from_dict(_singleton_config(trials=0))
    reports = run_experiment(config, measure_wall=False)
    assert reports == []
    sink = io.StringIO()
    emit_report(reports, "csv", sink)
    assert sink.getvalue() == CSV_HEADER + "\n"


def test_singleton_class_zero_error_every_trial():
    config = ExperimentConfig.from_dict(_singleton_config())
    reports = run_experiment(config, measure_wall=False)
    assert len(reports) == 3
    for r in reports:
        assert r.test_err == 0.0
        assert r.train_err == 0.0
        assert r.oracle_calls > 0
        assert r.query_cost >= r.oracle_calls


def test_same_seed_byte_identical_csv_across_parallelism(monkeypatch):
    config = ExperimentConfig.from_dict(_singleton_config(trials=4))
    outputs = []
    # with two usable CPUs, jobs 3 and 8 on 4 trials each run a pool of 2 processes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for jobs in (1, 3, 8):
        reports = run_experiment(config, jobs=jobs, measure_wall=False)
        sink = io.StringIO()
        emit_report(reports, "csv", sink)
        outputs.append(sink.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    again = io.StringIO()
    emit_report(run_experiment(config, measure_wall=False), "csv", again)
    assert again.getvalue() == outputs[0]
    empty = ExperimentConfig.from_dict(_singleton_config(trials=0))
    assert run_experiment(empty, jobs=2, measure_wall=False) == []


def test_jobs_are_capped_at_the_usable_cpus_and_the_trials(monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = ExperimentConfig.from_dict(_singleton_config(trials=6))
    serial = run_experiment(config, measure_wall=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert run_experiment(config, jobs=5000, measure_wall=False) == serial
    assert run_experiment(config, jobs=2, measure_wall=False) == serial
    # without an affinity mask, the CPU count caps the pool
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert run_experiment(config, jobs=5000, measure_wall=False) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_experiment(config, jobs=5000, measure_wall=False) == serial
    assert sizes == [3, 2, 6]
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match="jobs must be at least 1"):
            run_experiment(config, jobs=jobs, measure_wall=False)


def test_jsonl_mode_matches_csv_fields():
    config = ExperimentConfig.from_dict(_singleton_config(trials=2))
    reports = run_experiment(config, measure_wall=False)
    sink = io.StringIO()
    emit_report(reports, "jsonl", sink)
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert len(lines) == 2
    assert list(lines[0]) == CSV_HEADER.split(",")


def test_label_noise_changes_distribution():
    config = ExperimentConfig.from_dict(
        _singleton_config(distribution={"support": [[0, 1], [1, 0]], "label_noise": "1/5"})
    )
    dist = build_distribution(config)
    assert len(dist.support) == 4
    assert sum(dist.weights) == 1


def test_weak_transductive_pipeline_runs():
    raw = _singleton_config(
        pipeline="weak_transductive", n=4, reps=3, trials=1,
        distribution={"support": [[0, 1], [1, 0], [2, 1]]},
    )
    config = ExperimentConfig.from_dict(raw)
    (report,) = run_experiment(config, measure_wall=False)
    assert report.train_err == 0.0  # singleton class forces every prediction
    assert report.test_err == 0.0


def test_audit_pipeline_reports_slack():
    config = ExperimentConfig.from_dict(_singleton_config(pipeline="audit", n=4, trials=1))
    (report,) = run_experiment(config, measure_wall=False)
    assert report.train_err == 0.0  # truth vertex is isolated
    assert report.test_err >= 0.0  # nonnegative bound slack


def _run_cli(args, env_extra=None):
    """`oig` in this process: `cli.main(args)` with stdout and stderr captured,
    as a `CompletedProcess`.  An uncaught exception fails the test, where a
    separate process would have printed a traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env_extra or {}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        returncode = cli.main(args)
    return subprocess.CompletedProcess(args, returncode, stdout.getvalue(), stderr.getvalue())


# a rational with a zero denominator, or an integer too large for a float
_ARITHMETIC_FAULTS = (
    {"gamma": "1/0"},
    {"distribution": {"support": [[0, 1], [1, 0]], "weights": ["1/0", "1/2"]}},
    {"distribution": {"support": [[0, 1], [1, 0]], "label_noise": "1/0"}},
    {"class": _THRESHOLD_CLASS, "distribution": {"support": [["1/0", 0], ["63/64", 1]]}},
    {"class": {**_THRESHOLD_CLASS, "margin": "1/0"},
     "distribution": {"support": [["1/64", 0], ["63/64", 1]]}},
    {"m": 10**400},
    {"eta": 10**400},
    # the weak learner's walk count C1 m^2 ln^3 m overflows at m, or at n
    # for a diagnostic
    {"C1": 1e308, "m": 3},
    {"C1": 1e308, "pipeline": "audit", "n": 4},
)


def _spawn_cli(args):
    """`python -m oiglearn.cli` in a new process, which pins the entry point
    and the exit code it hands to `sys.exit`.  One call per command."""
    cmd = [sys.executable, "-m", "oiglearn.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_cli_run_and_exit_codes(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(_singleton_config(trials=2)))
    out_path = tmp_path / "report.csv"
    proc = _run_cli(["run", "--config", str(config_path), "--out", str(out_path), "--no-wall"])
    assert proc.returncode == 0, proc.stderr
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _spawn_cli(["run", "--config", str(bad)]).returncode == 3

    missing = tmp_path / "missing.json"
    assert _run_cli(["run", "--config", str(missing)]).returncode == 3

    for jobs in ("0", "-3"):
        proc = _run_cli(["run", "--config", str(config_path), "--jobs", jobs])
        assert proc.returncode == 3 and "jobs must be at least 1" in proc.stderr

    bad_configs = [
        _singleton_config(**bad)
        for bad in (_BAD_SETUPS + _UNKNOWN_KEYS + _TOO_LARGE_FOR_AUDIT + _TOO_SMALL_FOR_THE_WALK
                    + _BAD_LABELS + _ONE_CLASS + _MISMATCHED_CLASSES + _MISMATCHED_KINDS
                    + _BAD_INTEGERS)
    ] + [
        _singleton_config(n=0),
        _singleton_config(pipeline="weak_transductive", reps=0),
        _singleton_config(trials=-2),
        _singleton_config(**{"lambda": 1000}),
        _singleton_config(delta=1000),
        _singleton_config(seed=-1),
        _singleton_config(eta=1e-160),
    ] + [_singleton_config(trials=1, **bad) for bad in _UNREALIZABLE + _ARITHMETIC_FAULTS] + [
        _regression_config(**bad) for bad in _BAD_REGRESSION
    ]
    for k, raw in enumerate(bad_configs):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(raw))
        proc = _run_cli(["run", "--config", str(path)])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr

    cap = tmp_path / "cap.json"
    cap.write_text(
        json.dumps(
            _singleton_config(
                **{"class": {"kind": "hprime", "bound": 50}, "pipeline": "agnostic_partial"}
            )
        )
    )
    assert _run_cli(["run", "--config", str(cap)]).returncode == 2

    sink = tmp_path / "nodir" / "report.csv"
    proc = _run_cli(["run", "--config", str(config_path), "--out", str(sink)])
    assert proc.returncode == 4

    # the OIG_SEED override is checked by the seed row of the config
    for env_seed in ("-5", "x", "2.5"):
        proc = _run_cli(["run", "--config", str(config_path)], env_extra={"OIG_SEED": env_seed})
        assert proc.returncode == 3, proc.stderr
        assert "OIG_SEED" in proc.stderr


def test_cli_runs_where_no_hypothesis_is_defined(tmp_path):
    # a weak prediction whose two completions are both rejected answers 1:
    # a noisy sample drawn for a realizable pipeline, and a point that is '*'
    # in every row of the table
    noisy = json.loads((CONFIGS_DIR / "threshold_realizable.json").read_text())
    noisy["distribution"]["label_noise"] = "1/10"
    noisy["trials"] = 1
    starred = _singleton_config(
        pipeline="agnostic_partial", trials=1,
        **{"class": {"kind": "finite_table", "domain": [0, 1, 2],
                     "table": [[1, 0, "*"], [0, 1, "*"]]}},
    )
    for k, raw in enumerate((noisy, starred)):
        path = tmp_path / f"undefined{k}.json"
        path.write_text(json.dumps(raw))
        proc = _run_cli(["run", "--config", str(path), "--no-wall"])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stdout.splitlines()) == 2


def test_cli_seed_env_override(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(_singleton_config(trials=2)))
    base = _run_cli(["run", "--config", str(config_path), "--no-wall"])
    overridden = _run_cli(
        ["run", "--config", str(config_path), "--no-wall"], env_extra={"OIG_SEED": "99"}
    )
    assert base.returncode == overridden.returncode == 0
    assert base.stdout != overridden.stdout
    assert ",99" in overridden.stdout.splitlines()[1]


def test_cli_audit_rejects_labels_that_are_not_binary(tmp_path):
    # the audit flips a label as 1 - y, which no other label kind survives
    spec, support = _EVERY_CLASS_KIND["finite_multiclass"]
    path = tmp_path / "multiclass.json"
    path.write_text(json.dumps(_singleton_config(
        pipeline="multiclass_realizable", num_classes=2, n=4,
        **{"class": spec, "distribution": {"support": support}})))
    for config in (str(CONFIGS_DIR / "reg_realizable.json"), str(path)):
        assert _run_cli(["run", "--config", config, "--no-wall"]).returncode == 0
        proc = _run_cli(["audit", "--config", config])
        assert proc.returncode == 3, proc.stderr
        assert "binary labels" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_audit_runs(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(_singleton_config(n=4, trials=1)))
    proc = _run_cli(["audit", "--config", str(config_path)])
    assert proc.returncode == 0, proc.stderr
    assert "walk=lazy" in proc.stdout and "walk=flip" in proc.stdout
    # the last: a realizable_partial config with one point, audited at its n
    bad_configs = [_singleton_config(**{"n": 4, "trials": 1, **bad})
                   for bad in (_BAD_SETUPS + _UNREALIZABLE + _TOO_LARGE_FOR_AUDIT
                               + _TOO_SMALL_FOR_THE_WALK + _MISMATCHED_KINDS + ({"n": 1},))]
    for k, raw in enumerate(bad_configs):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(raw))
        proc = _run_cli(["audit", "--config", str(path)])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
    # a config of another pipeline whose sample is too large to audit
    proc = _run_cli(["audit", "--config", str(CONFIGS_DIR / "threshold_agnostic.json")])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    # a learner's config whose walk count overflows at n, though not at m
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_singleton_config(n=4, trials=1, C1=1e307)))
    assert _run_cli(["audit", "--config", str(path)]).returncode == 3

    # `oig audit` audits trial 0's sample at the audit pipeline's discount
    shipped = str(CONFIGS_DIR / "threshold_audit.json")
    proc = _spawn_cli(["audit", "--config", shipped])
    assert proc.returncode == 0, proc.stderr
    report = run_experiment(ExperimentConfig.from_file(shipped), measure_wall=False)[0]
    lazy = next(line for line in proc.stdout.splitlines() if line.startswith("walk=lazy"))
    assert f"loo_error={report.train_err:.6f}" in lazy
    assert f"slack={report.test_err:.6g}" in lazy


# labels that are not integers, which int() would truncate: the support
# labels fail the parser, the table entries the class set-up; each message
# names the label
_NOT_INTEGER_LABELS = (
    (_singleton_config(**{"distribution": {"support": [[0, 0.7], [1, 0]]}}), "0.7"),
    (_singleton_config(**{"distribution": {"support": [[0, 1], [1, True]]}}), "True"),
    *((_singleton_config(**{
        "pipeline": "multiclass_realizable", "num_classes": 4,
        "class": {**_MULTICLASS_CLASS, "table": [[1, 2, 3], [2, entry, 4]]},
        "distribution": {"support": [[0, 1], [1, 2], [2, 3]]}}), shown)
      for entry, shown in ((1.5, "1.5"), (True, "True"))),
)


def test_cli_rejects_labels_that_are_not_integers(tmp_path):
    for k, (raw, shown) in enumerate(_NOT_INTEGER_LABELS):
        path = tmp_path / f"label{k}.json"
        path.write_text(json.dumps(raw))
        proc = _run_cli(["run", "--config", str(path)])
        assert proc.returncode == 3, proc.stderr
        assert f"got {shown}" in proc.stderr


def test_diagnostics_need_projection(tmp_path):
    # HPrimeClass answers consistency but cannot list its patterns, which
    # the exact audit enumerates
    hprime = {"class": {"kind": "hprime", "bound": 100}, "n": 4, "trials": 1, "seed": 3,
              "distribution": {"support": [[6, 1], [2, 1], [3, 1], [5, 0], [7, 0], [9, 0]]}}
    for pipeline, command in (("audit", "run"), ("weak_transductive", "run"),
                              ("realizable_partial", "audit")):
        path = tmp_path / f"{pipeline}.json"
        path.write_text(json.dumps({**hprime, "pipeline": pipeline}))
        proc = _run_cli([command, "--config", str(path)])
        assert proc.returncode == 2, proc.stderr
        assert "projection" in proc.stderr


# one small class of each kind, with support points its hypotheses label
_EVERY_CLASS_KIND = {
    "finite_table": ({"kind": "finite_table", "domain": [0, 1, 2],
                      "table": [[1, 0, 1], [0, 0, 1]]}, [[0, 1], [1, 0], [2, 1]]),
    "finite_multiclass": ({"kind": "finite_multiclass", "domain": [0, 1, 2], "num_classes": 2,
                           "table": [[1, 2, 1], [2, 2, 1]]}, [[0, 1], [1, 2], [2, 1]]),
    "finite_real": ({"kind": "finite_real", "domain": [0, 1, 2],
                     "table": [["1/2", 0, 1], [0, 0, 1]]}, [[0, "1/2"], [1, 0], [2, 1]]),
    "margin_threshold": (_THRESHOLD_CLASS, [["1/64", 0], ["63/64", 1]]),
    "hprime": ({"kind": "hprime", "bound": 100},
               [[6, 1], [2, 1], [3, 1], [5, 0], [7, 0], [9, 0]]),
}


def test_every_pipeline_on_every_class_kind_exits_cleanly(tmp_path):
    # each pair runs, or is refused with a capability (2) or config (3)
    # error, and `oig audit` likewise; none ends in an uncaught exception
    assert set(_EVERY_CLASS_KIND) == set(CLASS_KINDS)
    codes = set()
    for kind, (spec, support) in _EVERY_CLASS_KIND.items():
        for pipeline in PIPELINES:
            raw = {"class": spec, "distribution": {"support": support}, "pipeline": pipeline,
                   "n": 4, "m": 2, "eta": 8, "reps": 1, "trials": 1, "seed": 3,
                   "num_classes": 2, "gamma": "1/2"}
            path = tmp_path / f"{kind}-{pipeline}.json"
            path.write_text(json.dumps(raw))
            for command in ("run", "audit"):
                proc = _run_cli([command, "--config", str(path)])
                assert proc.returncode in (0, 2, 3), (kind, pipeline, command, proc.stderr)
                assert "Traceback" not in proc.stderr
                codes.add(proc.returncode)
    assert codes == {0, 2, 3}


def test_cli_selftest_passes():
    proc = _spawn_cli(["selftest"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
