"""The library names that the benchmark times, counts and clocks by.

bench/tracing.py reports a traced name that no longer resolves as absent,
and bench/run.py falls back to the median round time when a workload's clock
does not resolve; neither fails the run. A rename in the library is caught
here instead.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

TRACED = {**tracing.SPANS, **tracing.COUNTS}


@pytest.mark.parametrize("metric", sorted(TRACED))
def test_traced_name_resolves(metric):
    assert tracing._resolve(*TRACED[metric]) is not None, TRACED[metric]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_clock_resolves(workload):
    clock = workloads.WORKLOADS[workload].clock
    assert tracing._resolve(*clock) is not None, clock
