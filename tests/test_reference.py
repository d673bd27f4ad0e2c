"""The default seed's outputs against the benchmark's recorded reference, by the benchmark's own checks.

This runs ``perfbench/workloads.py``: for ``sweep-snr``, ``link`` and ``design``
the workload's ``prepare()`` and ``finish()`` must find no problems. ``finish()``
compares the seed-0 outputs with ``perfbench/reference.json`` at the benchmark's
tolerances, so a bit-level drift shows in the test suite first; the reference file
is only read. A change that reshapes ``WORKLOADS`` must keep ``prepare()`` and
``finish()`` or update this test. The RCG batches of the seed-0 ``link`` designs and
of the default design also certify how far the solver stops from a stationary point:
Riemannian Newton steps (``conftest.riemannian_newton``) from each stop reach one, a
strict local minimum. At rho = 1 the package's designs start at the closed-form strict design
(``manifold.strict_precoders``) and stop there; on the ``link`` covariances they are checked against
the RCG run from the eigenmode precoders.
"""

import copy
import json
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jcasbeam
import jcasbeam.cli  # noqa: F401  (the workloads call it as jcasbeam.cli)
from jcasbeam import manifold, pipeline
from jcasbeam.manifold import _each, _normalize, project_to_tangent, tradeoff_objective
from jcasbeam.precoding import link_rates

from conftest import ladder_points, real_coords, riemannian_newton, sphere_gradient_hessian

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


def spy_rcg_batches(mp, batches):
    """Append the inputs of every RCG batch the pipeline runs, while ``mp`` holds, to ``batches``."""
    solve = pipeline.solve_rcg_batch

    def spy_solve(f0, cov, f_comm, rho, power):
        batches.append((f0, cov, f_comm, rho, power))
        return solve(f0, cov, f_comm, rho, power)

    mp.setattr(pipeline, "solve_rcg_batch", spy_solve)


@pytest.fixture(scope="module")
def design_seed0(tmp_path_factory):
    """The problems the ``design`` workload finds in its set-up and its seed-0 outputs, and the
    inputs of the one RCG batch its seed-0 design ran."""
    batches = []
    with pytest.MonkeyPatch.context() as mp:
        spy_rcg_batches(mp, batches)
        problems = seed0_problems("design", tmp_path_factory.mktemp("design"))
    (batch,) = batches
    return problems, batch


def test_default_design_seed0_matches_the_benchmark_reference(design_seed0):
    assert design_seed0[0] == ([], [])


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
    decide = manifold._armijo_decide

    def spy_decide(values, *args):
        rounds.append(values.shape)
        return decide(values, *args)

    with pytest.MonkeyPatch.context() as mp:
        spy_rcg_batches(mp, batches)
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


def test_link_rcg_is_converged_exactly_where_its_gradient_meets_the_tolerance(link_seed0_rcg):
    # the gradient norm is checked before the plateau and the cap, so a carrier is converged when,
    # and only when, its returned point meets GRAD_TOL; the gradient norms nearest the tolerance
    # over link seeds 0-2 are 8.9e-7 and 1.03e-6, so no carrier sits on the boundary
    batches, _ = link_seed0_rcg
    results = [r for batch in batches for r in manifold.solve_rcg_batch(*batch)]
    for r in results:
        assert r.converged == (r.stop_reason == "gradient_norm") == (r.grad_norm <= manifold.GRAD_TOL), r
    assert any(r.converged for r in results)


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


def test_default_design_rcg_stops_lie_near_strict_local_minima(design_seed0):
    # the link tests' certificate on the default design's 16 carriers (rho 0.5, P = 10): the RCG
    # stops at gradient norms of 1.6e-6 to 1.1e-5 (over sqrt(P)), three Newton steps reach 1.4e-15,
    # the first lowering every objective; the tangent Hessian's smallest eigenvalue is 0.127 to
    # 0.502, and the stops lie 1.8e-6 to 1.7e-5 (relative Frobenius) from their endpoints, 0.14 to
    # 0.73 of |grad| / lambda_min
    _, batch = design_seed0
    problem, power = batch[1:], batch[-1]
    stops = np.array([r.precoder for r in manifold.solve_rcg_batch(*batch)])
    ends, gammas = riemannian_newton(stops, *problem, steps=3)
    after = np.linalg.norm(sphere_gradient_hessian(ends, *problem)[0], axis=(-2, -1))
    assert after.max() <= 1e-13 * np.sqrt(power), after.max() / np.sqrt(power)
    assert np.all(gammas[1] < gammas[0])
    assert np.all(gammas[1:] <= gammas[:-1] * (1.0 + 4.0 * np.finfo(float).eps))
    curvature = smallest_tangent_curvature(ends, *problem)
    assert curvature.min() > 0.1
    dist = np.linalg.norm(stops - ends, axis=(-2, -1))
    assert np.all(dist <= 3e-5 * np.sqrt(power)), dist.max() / np.sqrt(power)
    grad_norm = np.linalg.norm(sphere_gradient_hessian(stops, *problem)[0], axis=(-2, -1))
    assert np.all(dist <= grad_norm / curvature)


def test_newton_gradient_and_hessian_match_finite_differences(link_seed0_rcg):
    # along random unit tangent directions xi at each design's starting point, the first and
    # second central differences of gamma along the normalization retraction, a second-order
    # one, give <grad, xi> and <Hess xi, xi>, to 1e-6 of |grad| and of the Hessian's norm
    batches, _ = link_seed0_rcg
    rng = np.random.default_rng(0)
    h = 3e-4
    for f0, cov, f_comm, rho, power in batches:
        f = _normalize(np.array(f0, dtype=complex), _each(np.sqrt(power)))  # the solver's starting point
        grad, hess = sphere_gradient_hessian(f, cov, f_comm, rho, power)
        grad_scale, hess_scale = np.linalg.norm(grad, axis=(-2, -1)), np.linalg.norm(hess, 2, axis=(-2, -1))
        for _ in range(4):
            xi = project_to_tangent(f, rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape), power)
            xi /= np.linalg.norm(xi, axis=(-2, -1))[:, None, None]
            points = ladder_points(f, [h, 0.0, -h], xi, power)
            up, mid, down = (tradeoff_objective(points[:, k], cov, f_comm, rho) for k in range(3))
            x = real_coords(xi)
            slope = np.sum(real_coords(grad) * x, axis=-1)
            curve = np.einsum("bi,bij,bj->b", x, hess, x)
            assert np.all(np.abs((up - down) / (2 * h) - slope) <= 1e-6 * grad_scale)
            assert np.all(np.abs((up - 2 * mid + down) / h**2 - curve) <= 1e-6 * hess_scale)


@pytest.fixture(scope="module")
def link_strict(link):
    """The rho = 1, J = 16 designs of seeds 0-9 on the ``link`` covariances, each with its carriers' RCG
    run from the eigenmode precoders under the same bounds: (design, cov, f_comm, power, RCG results),
    one per seed."""
    workload, _ = link
    out = []
    for seed in range(10):
        cfg = replace(workload.cfg, rho=1.0, n_jcas=LINK_SUBCARRIERS, seed=seed)
        result = jcasbeam.run_design(cfg, grid=workload.grid, covariances=workload.covariances)
        cov = np.array([sol.matrix for sol in result.covariances.values()])
        f_comm = result.eigen_precoders[result.jcas_subcarriers]
        power = cfg.effective_power
        out.append((result, cov, f_comm, power, manifold.solve_rcg_batch(f_comm, cov, f_comm, 1.0, power)))
    return out


def test_strict_closed_form_solves_the_rho1_link_carriers(link_strict):
    # every one of the 160 carriers starts at its strict design and stops there, at iteration 0 on the
    # gradient norm (at most 2.1e-14 sqrt(P)), on the sphere to 3.6e-16, with gamma at most 4.9e-20,
    # where the RCG from F_hat stops at 7.2e-13 to 8.7e-8 (at seed 0 on the plateau, after 40-96
    # iterations); its rate is the link's log-det to 5.3e-15
    assert sum(len(result.refinements) for result, *_ in link_strict) == 160
    for result, cov, f_comm, power, rcg in link_strict:
        refined = list(result.refinements.values())
        assert all(r.iterations == 0 and r.stop_reason == "gradient_norm" and r.converged for r in refined)
        assert max(r.grad_norm for r in refined) <= 1e-12
        f = np.array([r.precoder for r in refined])
        assert np.all(tradeoff_objective(f, cov, f_comm, 1.0) <= [r.objective for r in rcg])
        assert np.all(np.abs(np.linalg.norm(f, axis=(-2, -1)) ** 2 - power) <= 1e-12 * power)
        grad = np.linalg.norm(sphere_gradient_hessian(f, cov, f_comm, 1.0, power)[0], axis=(-2, -1))
        assert grad.max() <= 1e-12 * np.sqrt(power), grad.max() / np.sqrt(power)
        jcas = result.jcas_subcarriers
        np.testing.assert_array_equal(result.precoders[jcas], f)
        hf = result.channels[jcas] @ f
        gram = np.eye(hf.shape[1]) + hf @ hf.conj().mT / result.config.effective_noise
        log_det = np.linalg.slogdet(gram)[1] / np.log(2.0)
        np.testing.assert_allclose(result.rates[jcas], log_det, rtol=0, atol=1e-9)


def test_strict_closed_form_lies_near_the_rho1_link_designs(link_strict):
    # F F^H lies within 4.7e-5 (relative Frobenius) of the RCG's from F_hat, and the per-carrier rates
    # move by at most 2.8e-3 bit/s/Hz, which the RCG's plateau stop, short of F F^H = R, leaves
    for result, _, _, _, rcg in link_strict:
        jcas = result.jcas_subcarriers
        f, f_rcg = result.precoders[jcas], np.array([r.precoder for r in rcg])
        ours, theirs = f @ f.conj().mT, f_rcg @ f_rcg.conj().mT
        dist = np.linalg.norm(ours - theirs, axis=(-2, -1)) / np.linalg.norm(theirs, axis=(-2, -1))
        assert dist.max() <= 1e-4, dist.max()
        moved = result.rates[jcas] - link_rates(result.channels[jcas], f_rcg, 1.0 / result.config.effective_noise)
        assert np.abs(moved).max() <= 5e-3, np.abs(moved).max()
