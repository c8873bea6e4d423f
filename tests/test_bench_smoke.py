"""The benchmark runs end to end: one short round of each workload.

Each workload runs bench/run.py from a copy of bench/ and src/ in a
temporary directory, so the run's inputs and records stay out of the
checkout. A round must pass its checks, and no CLI invocation may fail
except the one known fault: the fixed train-wcl run of wcl-train, which
collapses the encoder at the CLI defaults and fails in every round.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_of_each_workload(tmp_path, workload):
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith("record "))[len("record "):])
    assert record["problems"] == []
    assert record["rounds"] >= 1
    if workload == "wcl-train":
        assert len(record["faults"]) == 1
        assert 2 * record["failed"] == record["attempted"]
    else:
        assert record["faults"] == []
        assert record["failed"] == 0
