"""The benchmark's workloads and their correctness gates, from perfbench/workloads.py as it is.

perfbench/run.py serves each workload in rounds and calls a run incorrect once a request has a defect.  One
round of each at seed 1 here holds the package to those gates before any timed run.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["sweep-drude", "verify", "point-requests"])
def test_benchmark_round_passes_its_gates(name, tmp_path, monkeypatch):
    """No request has a defect, and the sweep and the point requests fail no operation; verify's suites may miss
    their fixed tolerance at a seed (a known defect, counted in failed but no defect)."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    workload = workloads.WORKLOADS[name](1, tmp_path)
    verdicts = [workload.check(workload.request(i)) for i in range(workload.distinct_requests)]
    assert [defect for verdict in verdicts for defect in verdict.defects] == []
    if name != "verify":
        assert sum(verdict.failed for verdict in verdicts) == 0
