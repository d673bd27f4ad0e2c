"""The default seed's outputs against the benchmark's recorded reference, by the benchmark's own checks.

This runs ``perfbench/workloads.py``: for ``sweep-snr``, ``link`` and ``design``
the workload's ``prepare()`` and ``finish()`` must find no problems. ``finish()``
compares the seed-0 outputs with ``perfbench/reference.json`` at the benchmark's
tolerances, so a bit-level drift shows in the test suite first; the reference file
is only read. A change that reshapes ``WORKLOADS`` must keep ``prepare()`` and
``finish()`` or update this test. The seed-0 ``link`` RCG batches also certify how
far the solver stops from a stationary point: Riemannian Newton steps
(``conftest.riemannian_newton``) from each stop reach one, a strict local minimum.
"""

import copy
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import jcasbeam
import jcasbeam.cli  # noqa: F401  (the workloads call it as jcasbeam.cli)
from jcasbeam import manifold, pipeline
from jcasbeam.manifold import project_to_tangent, retract, tradeoff_objective

from conftest import real_coords, riemannian_newton, sphere_gradient_hessian

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


@pytest.fixture(scope="module")
def link_seed0_newton(link_seed0_rcg):
    """Each seed-0 ``link`` RCG batch with its solver's stops and three Riemannian Newton steps from them:
    (inputs, stops, endpoints, objective at each Newton iterate)."""
    batches, _ = link_seed0_rcg
    out = []
    for batch in batches:
        stops = np.array([r.precoder for r in manifold.solve_rcg_batch(*batch)])
        ends, gammas = riemannian_newton(stops, *batch[1:], steps=3)
        out.append((batch, stops, ends, gammas))
    return out


def test_newton_from_each_link_rcg_stop_reaches_a_stationary_point(link_seed0_newton):
    # the RCG stops on the plateau at gradient norms of about 1e-6 to 1e-5 (over sqrt(P));
    # three Newton steps take every carrier to the roundoff floor
    for (_, cov, f_comm, rho, power), stops, ends, _ in link_seed0_newton:
        before = np.linalg.norm(sphere_gradient_hessian(stops, cov, f_comm, rho, power)[0], axis=(-2, -1))
        after = np.linalg.norm(sphere_gradient_hessian(ends, cov, f_comm, rho, power)[0], axis=(-2, -1))
        assert before.min() > 1e-7 * np.sqrt(power)
        assert after.max() <= 1e-13 * np.sqrt(power), after.max() / np.sqrt(power)


def test_newton_from_each_link_rcg_stop_never_raises_the_objective(link_seed0_newton):
    # the first step lowers every carrier's objective; later steps, at the roundoff floor,
    # may move it by an ulp either way
    for _, _, _, gammas in link_seed0_newton:
        assert np.all(gammas[1] < gammas[0])
        assert np.all(gammas[1:] <= gammas[:-1] * (1.0 + 4.0 * np.finfo(float).eps))


def smallest_tangent_curvature(f, cov, f_comm, rho, power):
    """The smallest eigenvalue of each carrier's Hessian on the tangent space at f, F^perp in real coordinates."""
    _, hess = sphere_gradient_hessian(f, cov, f_comm, rho, power)
    tangent = np.linalg.svd(real_coords(f)[:, None, :])[2][:, 1:].mT  # (B, d, d - 1), orthonormal
    return np.linalg.eigvalsh(tangent.mT @ hess @ tangent)[:, 0]


def test_newton_endpoints_of_the_link_designs_are_strict_local_minima(link_seed0_newton):
    # the tangent Hessian at each endpoint is positive definite; its smallest eigenvalue is 0.021
    for (_, *problem), _, ends, _ in link_seed0_newton:
        assert smallest_tangent_curvature(ends, *problem).min() > 0.01


def test_link_rcg_stops_lie_near_their_newton_endpoints(link_seed0_newton):
    # today's precoders, in relative Frobenius distance from the stationary point: up to
    # 2.0e-5 at rho 0.25, 3.9e-5 at 0.5 and 2.0e-4 at 0.75, where the tangent Hessian's
    # smallest eigenvalue falls to 0.021. Each lies within |grad| / lambda_min of its endpoint,
    # the distance its gradient norm and the endpoint's curvature allow.
    for (_, *problem), stops, ends, _ in link_seed0_newton:
        dist = np.linalg.norm(stops - ends, axis=(-2, -1))
        power = problem[-1]
        assert np.all(dist <= 3e-4 * np.sqrt(power)), dist.max() / np.sqrt(power)
        grad_norm = np.linalg.norm(sphere_gradient_hessian(stops, *problem)[0], axis=(-2, -1))
        assert np.all(dist <= grad_norm / smallest_tangent_curvature(ends, *problem))


def test_newton_gradient_and_hessian_match_finite_differences(link_seed0_rcg):
    # along random unit tangent directions xi at each design's starting point, the first and
    # second central differences of gamma along the normalization retraction, a second-order
    # one, give <grad, xi> and <Hess xi, xi>, to 1e-6 of |grad| and of the Hessian's norm
    batches, _ = link_seed0_rcg
    rng = np.random.default_rng(0)
    h = 3e-4
    for f0, cov, f_comm, rho, power in batches:
        f = retract(f0, 0.0, np.zeros_like(f0), power)
        grad, hess = sphere_gradient_hessian(f, cov, f_comm, rho, power)
        grad_scale, hess_scale = np.linalg.norm(grad, axis=(-2, -1)), np.linalg.norm(hess, 2, axis=(-2, -1))
        for _ in range(4):
            xi = project_to_tangent(f, rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape), power)
            xi /= np.linalg.norm(xi, axis=(-2, -1))[:, None, None]
            up, mid, down = (tradeoff_objective(retract(f, t, xi, power), cov, f_comm, rho) for t in (h, 0.0, -h))
            x = real_coords(xi)
            slope = np.sum(real_coords(grad) * x, axis=-1)
            curve = np.einsum("bi,bij,bj->b", x, hess, x)
            assert np.all(np.abs((up - down) / (2 * h) - slope) <= 1e-6 * grad_scale)
            assert np.all(np.abs((up - 2 * mid + down) / h**2 - curve) <= 1e-6 * hess_scale)
