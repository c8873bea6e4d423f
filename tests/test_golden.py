"""Byte identity of stats, eval and correct against recorded digests.

tests/golden.json holds the sha256 of each run's stdout and output files,
written by tests/make_golden.py. A change that alters one of these outputs
on purpose regenerates the file and lists each changed digest.
"""
import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return make_golden.run_digests(tmp_path_factory.mktemp("golden"))


def test_golden_file_lists_every_run():
    assert sorted(GOLDEN) == sorted(make_golden.RUNS)


@pytest.mark.parametrize("run", sorted(make_golden.RUNS))
def test_outputs_match_golden_digests(digests, run):
    assert digests[run] == GOLDEN[run]
