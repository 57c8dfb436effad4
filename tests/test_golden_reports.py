"""Reports of the shipped configs, compared byte for byte with committed copies.

`tests/golden/<config>.csv` and `.jsonl` hold the reports of every file in
`configs/` with wall time off.  A change that is meant to keep behaviour must
leave them equal at any `jobs`; a change that moves a report on purpose
rewrites them with `python tests/test_golden_reports.py` and says why.  That
script prints, per config, which report columns changed value and in how many
rows `oracle_calls` or `query_cost` rose.

`tests/golden/threshold_audit.audit.txt` holds the stdout of
`oig audit --config configs/threshold_audit.json`, and the same script
rewrites it.
"""

import contextlib
import io
import json
import pathlib

import pytest

from oiglearn import cli
from oiglearn.harness import (
    PIPELINES,
    ExperimentConfig,
    draw_trial,
    emit_report,
    run_experiment,
    setup_experiment,
)
from oiglearn.oracle import QueryCostLedger
from oiglearn.pipelines import boosting_rounds

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"
FORMATS = ("csv", "jsonl")
COST_COLUMNS = ("oracle_calls", "query_cost")
AUDIT_CONFIG = ROOT / "configs" / "threshold_audit.json"
AUDIT_GOLDEN = GOLDEN / "threshold_audit.audit.txt"


def _reports(path, jobs=1):
    return run_experiment(ExperimentConfig.from_file(path), jobs=jobs, measure_wall=False)


def _emit(reports, fmt) -> str:
    sink = io.StringIO()
    emit_report(reports, fmt, sink)
    return sink.getvalue()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_reports_match_golden(path, jobs):
    reports = _reports(path, jobs)
    for fmt in FORMATS:
        expected = (GOLDEN / f"{path.stem}.{fmt}").read_text()
        assert _emit(reports, fmt) == expected, f"{path.stem}.{fmt} at jobs={jobs}"


def _audit_stdout() -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert cli.main(["audit", "--config", str(AUDIT_CONFIG)]) == cli.EXIT_OK
    return sink.getvalue()


def test_audit_matches_golden():
    assert _audit_stdout() == AUDIT_GOLDEN.read_text()


def test_interval_vote_goldens_rest_on_multi_round_votes():
    # interval_vote is criterion 14's shape: its fits plan 26 rounds, and some
    # run past the first without a zero-error round, so the golden bytes
    # depend on alpha, the reweighting and the weighted vote
    config = ExperimentConfig.from_file(ROOT / "configs" / "interval_vote.json")
    assert boosting_rounds(config.n, config.delta, config.eta, 4) == 26
    concept_class, distribution = setup_experiment(config)
    kept = []
    for trial in range(config.trials):
        sample, rng = draw_trial(config, distribution, trial)
        model = PIPELINES[config.pipeline].run(
            config, concept_class, sample, QueryCostLedger(), rng
        ).model
        kept.append(len(model.rounds))
        if not model.early_stop:
            assert float(model.train_error) <= model.z_product + 1e-9
    assert any(k > 1 for k in kept), kept


def _changes(name: str, jsonl: str) -> str:
    """One line comparing a new JSONL report with the committed copy: the
    columns whose value moved in some row, and in how many rows each cost
    column rose."""
    committed = GOLDEN / f"{name}.jsonl"
    old = []
    if committed.exists():
        old = [json.loads(line) for line in committed.read_text().splitlines()]
    new = [json.loads(line) for line in jsonl.splitlines()]
    pairs = list(zip(old, new))
    columns = list(dict.fromkeys(
        k for o, r in pairs for k in (*r, *o) if o.get(k) != r.get(k)
    ))
    rose = ", ".join(
        f"{k} {sum(k in o and k in r and r[k] > o[k] for o, r in pairs)}" for k in COST_COLUMNS
    )
    rows = "" if len(old) == len(new) else f"; rows {len(old)} -> {len(new)}"
    return f"{name}: changed {', '.join(columns) or 'nothing'}; rows that rose: {rose}{rows}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in CONFIGS:
        reports = _reports(path)
        print(_changes(path.stem, _emit(reports, "jsonl")))
        for fmt in FORMATS:
            (GOLDEN / f"{path.stem}.{fmt}").write_text(_emit(reports, fmt))
    AUDIT_GOLDEN.write_text(_audit_stdout())
