"""Byte identity of every subcommand's outputs against recorded digests.

tests/golden.json holds the sha256 of each run's stdout and output files,
written by tests/make_golden.py. A change that alters one of these outputs
on purpose regenerates the file and lists each changed digest. The float
runs (make_golden.FLOAT_RUNS) are compared only on the numpy and BLAS that
made the digests; elsewhere they skip and name the difference. The synth
fixture digests depend on numpy's Generator streams alone, so they are
compared only on the recorded numpy.
"""
import json

import pytest

import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return make_golden.run_digests(tmp_path_factory.mktemp("golden"))


def test_golden_file_lists_every_run():
    assert sorted(GOLDEN["runs"]) == sorted(make_golden.RUNS)


@pytest.fixture(scope="module")
def stack_diff():
    """{field: (recorded, here)} for each of numpy and BLAS that differs."""
    here = make_golden.stack()
    return {k: (GOLDEN["stack"][k], here[k]) for k in ("numpy", "blas")
            if GOLDEN["stack"][k] != here[k]}


@pytest.mark.parametrize("run", sorted(make_golden.RUNS))
def test_outputs_match_golden_digests(digests, stack_diff, run):
    if run in make_golden.FLOAT_RUNS and stack_diff:
        pytest.skip(f"digests were made on another stack (recorded, here): {stack_diff}")
    assert digests[run] == GOLDEN["runs"][run]


def test_synth_fixtures_match_golden_digests(stack_diff):
    if "numpy" in stack_diff:
        pytest.skip(f"digests were made on another numpy (recorded, here): "
                    f"{stack_diff['numpy']}")
    assert make_golden.fixture_digests() == GOLDEN["fixtures"]
