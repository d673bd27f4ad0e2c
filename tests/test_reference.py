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
import tracemalloc
from pathlib import Path

import pytest

import jcasbeam
import jcasbeam.cli  # noqa: F401  (the workloads call it as jcasbeam.cli)
from jcasbeam import manifold, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import LINK_SUBCARRIERS, REFERENCE_SEED, WORKLOADS, link_designs  # noqa: E402

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


@pytest.fixture(scope="module")
def link_seed0_rcg(link):
    """The RCG batches of the seed-0 ``link`` designs: the inputs of each and the width and
    row count of every line-search round they ran."""
    workload, _ = link
    batches, rounds = [], []
    solve, decide = pipeline.solve_rcg_batch, manifold._armijo_decide

    def spy_solve(f0, cov, f_comm, rho, power):
        batches.append((f0, cov, f_comm, rho, power))
        return solve(f0, cov, f_comm, rho, power)

    def spy_decide(values, *args):
        rounds.append(values.shape)
        return decide(values, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "solve_rcg_batch", spy_solve)
        mp.setattr(manifold, "_armijo_decide", spy_decide)
        link_designs(jcasbeam, workload.cfg, workload.grid, workload.covariances, REFERENCE_SEED)
    return batches, rounds


def test_link_rcg_batch_transient_memory(link_seed0_rcg):
    # each J=16 batch's traced peak: the line search's ladder tables, with the
    # accepted rung's residual kept for the gradient and freed before the next ladder
    batches, _ = link_seed0_rcg
    full = [batch for batch in batches if len(batch[0]) == LINK_SUBCARRIERS]
    assert len(full) == 3
    for batch in full:
        tracemalloc.start()
        try:
            manifold.solve_rcg_batch(*batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 470 * 1024, peak / 1024


def test_link_line_search_first_round_decides_nearly_every_search(link_seed0_rcg):
    # round 2 costs a full ladder per search: were it common, link would run several times slower
    _, rounds = link_seed0_rcg
    first = sum(m for m, n in rounds if n == manifold.LADDER_CHUNK)
    second = sum(m for m, n in rounds if n == len(manifold._ladder()))
    assert first + second == sum(m for m, _ in rounds) and first > 1000
    assert second <= 0.002 * first, (second, first)
