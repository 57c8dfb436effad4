"""Reports of the shipped configs, compared byte for byte with committed copies.

`tests/golden/<config>.csv` and `.jsonl` hold the reports of every file in
`configs/` with wall time off.  A change that is meant to keep behaviour must
leave them equal at any `jobs`; a change that moves a report on purpose
rewrites them with `python tests/test_golden_reports.py` and says why.
"""

import io
import pathlib

import pytest

from oiglearn.harness import ExperimentConfig, emit_report, run_experiment

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"
FORMATS = ("csv", "jsonl")


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path in CONFIGS:
        reports = _reports(path)
        for fmt in FORMATS:
            (GOLDEN / f"{path.stem}.{fmt}").write_text(_emit(reports, fmt))
