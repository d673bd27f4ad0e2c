"""The default seed's outputs against the benchmark's recorded reference, by the benchmark's own checks.

This runs ``perfbench/workloads.py``: for ``sweep-snr``, ``link`` and ``design``
the workload's ``prepare()`` and ``finish()`` must find no problems. ``finish()``
compares the seed-0 outputs with ``perfbench/reference.json`` at the benchmark's
tolerances, so a bit-level drift shows in the test suite first; the reference file
is only read. A change that reshapes ``WORKLOADS`` must keep ``prepare()`` and
``finish()`` or update this test.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

import jcasbeam
import jcasbeam.cli  # noqa: F401  (the workloads call it as jcasbeam.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def seed0_problems(name, tmp_path):
    """The problems ``name``'s workload finds in its set-up and in its seed-0 outputs."""
    workload = WORKLOADS[name](jcasbeam, tmp_path, REFERENCE)
    return workload.prepare(), workload.finish()


def test_sweep_snr_seed0_matches_the_benchmark_reference(tmp_path):
    assert seed0_problems("sweep-snr", tmp_path) == ([], [])


def test_default_design_seed0_matches_the_benchmark_reference(tmp_path):
    assert seed0_problems("design", tmp_path) == ([], [])


@pytest.fixture(scope="module")
def link(tmp_path_factory):
    """The ``link`` workload after its set-up, with the problems its set-up found."""
    workload = WORKLOADS["link"](jcasbeam, tmp_path_factory.mktemp("link"), REFERENCE)
    return workload, workload.prepare()


def test_link_covariance_objectives_match_the_benchmark_reference(link):
    workload, setup_problems = link
    assert sorted(workload.covariances) == list(range(16))  # the set-up solves every carrier
    assert setup_problems == []


def test_link_designs_seed0_match_the_benchmark_reference(link):
    workload, _ = link
    assert workload.finish() == []


def test_link_reports_a_reference_rate_moved_by_1e7(link, monkeypatch):
    workload, _ = link
    drifted = copy.deepcopy(REFERENCE)
    drifted["link_seed0"][0]["rates"][3] *= 1 + 1e-7
    monkeypatch.setattr(workload, "reference", drifted)
    assert workload.finish() == ["reference rho=0.25 J=4 rates: relative error 1.000e-07 > 1e-08"]
