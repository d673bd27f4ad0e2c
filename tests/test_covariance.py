"""Radar covariance solver: projections, feasibility, and brute-force oracles."""

from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcasbeam import covariance
from jcasbeam.beamgrid import build_grid
from jcasbeam.config import SystemConfig
from jcasbeam.covariance import (
    psd_project,
    solve_radar_covariance,
    solve_radar_covariances,
)
from jcasbeam.errors import ConfigError, SolverError
from jcasbeam.evaluation import precoder_pattern, sweep
from jcasbeam.pipeline import run_design

from conftest import assert_same_result, disk_scan, random_complex, reference_pattern, ula_grid


def _hermitian(rng, n):
    a = random_complex(rng, (n, n))
    return (a + a.conj().T) / 2


def test_psd_project_clips_negative_modes(rng):
    m = np.diag([1.0, -2.0]).astype(complex)
    np.testing.assert_allclose(psd_project(m), np.diag([1.0, 0.0]), atol=1e-14)
    h = _hermitian(rng, 5)
    p = psd_project(h)
    assert np.linalg.eigvalsh(p).min() >= -1e-12
    np.testing.assert_allclose(p, psd_project(p), atol=1e-12)  # idempotent


def test_psd_project_keeps_psd_input(rng):
    a = random_complex(rng, (4, 4))
    m = a @ a.conj().T
    np.testing.assert_allclose(psd_project(m), m, atol=1e-10)


def _objectives(mats, powers, steering, mask):
    """The package's objectives of matrices (P, K, n, n) at powers (P,) on steering (K, T, n) against a mask."""
    g = covariance._pattern_matrix(steering, np.triu_indices(steering.shape[-1], 1))
    return covariance._objectives(mats, np.asarray(powers, dtype=float), g, np.asarray(mask, dtype=float) - 1.0)


def test_pattern_formulas_match_naive_loop(rng):
    # the objective, through the ADMM's pattern map, and the precoder pattern, from F, against a^H R a per angle
    steering = np.exp(2j * np.pi * rng.random((9, 4)))  # unit modulus, as the pattern map assumes
    mask = np.array([1.0, 0, 0, 1, 1, 0, 0, 0, 1])
    r = _hermitian(rng, 4)
    np.fill_diagonal(r, 3.0 / 4)
    naive = np.array([np.real(a.conj() @ r @ a) for a in steering])
    got = _objectives(r[None, None], [3.0], steering[None], mask)[0, 0]
    assert got == pytest.approx(np.abs(3.0 * mask - naive).sum(), rel=1e-12)
    f = random_complex(rng, (4, 2))
    naive = np.array([np.real(a.conj() @ f @ f.conj().T @ a) for a in steering])
    np.testing.assert_allclose(precoder_pattern(f, steering), naive, rtol=1e-12, atol=0)


def _feasible(rng, powers, n_car, n, exact_hermitian):
    """Random psd matrices (P, K, n, n) with diagonal power / n, Hermitian exactly or only to roundoff."""
    c = random_complex(rng, (len(powers), n_car, n, n))
    gram = c @ c.conj().mT
    scale = np.sqrt(np.asarray(powers)[:, None, None] / n / np.diagonal(gram, axis1=-2, axis2=-1).real)
    mats = gram * scale[..., :, None] * scale[..., None, :]
    if exact_hermitian:
        mats = 0.5 * (mats + mats.conj().mT)
    else:  # rebuilt from its eigenpairs, as the finish's psd projection rebuilds a matrix
        vals, vecs = np.linalg.eigh(mats)
        mats = (vecs * vals[..., None, :]) @ vecs.conj().mT
        if n > 1:  # a rebuilt 2x2 is often Hermitian exactly: one entry an ulp off its mirror's conjugate
            mats[..., 1, 0] = np.nextafter(mats[..., 0, 1].real, np.inf) - 1j * mats[..., 0, 1].imag
    diag = np.arange(n)
    mats[..., diag, diag] = (np.asarray(powers) / n)[:, None, None]
    return mats


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    n_car=st.integers(0, 3),
    powers=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3),
    exact_hermitian=st.booleans(),
)
@example(seed=0, n=4, n_car=2, powers=[2.0, 10.0], exact_hermitian=False)
@example(seed=1, n=1, n_car=2, powers=[3.0], exact_hermitian=True)
@example(seed=2, n=3, n_car=0, powers=[1.0, 5.0], exact_hermitian=True)
def test_objective_matches_the_reference_on_random_feasible_matrices(seed, n, n_car, powers, exact_hermitian):
    rng = np.random.default_rng(seed)
    n_grid = 11
    steering = np.exp(2j * np.pi * rng.random((n_car, n_grid, n)))
    mask = rng.integers(0, 2, n_grid)
    mats = _feasible(rng, powers, n_car, n, exact_hermitian)
    if not exact_hermitian and n > 1 and n_car:
        assert not np.array_equal(mats, mats.conj().mT)  # the case the Hermitian-part read must handle
    got = _objectives(mats, powers, steering, mask)
    assert got.shape == (len(powers), n_car)
    p = np.asarray(powers)[:, None]
    want = np.sum(np.abs(p[..., None] * mask - reference_pattern(mats, steering)), axis=-1)
    # relative to the objective, or to P where the objective is ~0: the reference's own roundoff is of size P
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, p)), np.max(np.abs(got - want) / np.maximum(want, p))
    for i in range(len(powers)):  # a stacked call gives each pair the bits of its one-pair call
        for k in range(n_car):
            solo = _objectives(mats[i:i + 1, k:k + 1], powers[i:i + 1], steering[k:k + 1], mask)
            assert solo[0, 0] == got[i, k]


def test_single_angle_broadside_matches_exactly():
    # one broadside angle, desired gain = budget: the diagonal matrix is exact
    p = 1.0
    sol = solve_radar_covariance(ula_grid([0.0], [1.0], 2), p)[0]
    assert sol.objective <= 1e-9
    np.testing.assert_allclose(sol.matrix, (p / 2) * np.eye(2), atol=1e-8)
    assert sol.converged


def test_two_antenna_brute_force_oracle():
    """Solver objective within 1e-2*P of a dense scan over the feasible disk.

    For n_tx=2 the matrix is fully described by its off-diagonal entry z with
    |z| <= P/2; the pattern is P + 2*Re(z * a1_t) per grid angle.
    """
    p = 2.0
    grid = ula_grid([-60.0, -30.0, 0.0, 30.0, 60.0], [1.0, 1.0, 0.0, 1.0, 1.0], 2)
    offset = p * grid.desired_gain - p
    a1 = grid.steering(0)[:, 1]
    z0, _ = disk_scan(offset, a1, p, 0.0, p / 2, 401)
    z1, best = disk_scan(offset, a1, p, z0, p / 400, 401)  # refine around the coarse optimum

    sol = solve_radar_covariance(grid, p)[0]
    assert abs(sol.objective - best) <= 1e-2 * p
    assert abs(sol.matrix[0, 1] - z1) <= 0.02


def test_two_antenna_gap_bounds_the_scanned_minimum():
    # weak duality on the disk oracle: the bound the gap certifies lies below
    # the scanned minimum, which lies below the ADMM's objective
    p = 2.0
    grid = ula_grid([-60.0, -30.0, 0.0, 30.0, 60.0], [1.0, 1.0, 0.0, 1.0, 1.0], 2)
    offset = p * grid.desired_gain - p
    a1 = grid.steering(0)[:, 1]
    z0, _ = disk_scan(offset, a1, p, 0.0, p / 2, 401)
    _, best = disk_scan(offset, a1, p, z0, p / 400, 401)
    sol = solve_radar_covariance(grid, p)[0]
    bound = sol.objective * (1.0 - sol.gap)
    assert bound <= best <= sol.objective, (bound, best, sol.objective)
    assert 0.0 < sol.gap <= 1e-5


def _reference_bounds(mats, powers, steering, mask, duals):
    """P (lam . m - lambda_max(A - D) - tr D / n) per (power, carrier), A built from the steering.

    A = sum_t lam_t a_t a_t^H, lam is the duals clipped to [-1, 1], and D
    the complementary-slackness diagonal of each matrix (K, n, n) against
    the whole A, diagonal included.
    """
    lam = np.clip(duals[..., 0], -1.0, 1.0)
    a = np.einsum("kt,kti,ktj->kij", lam, steering, steering.conj())
    d = np.real(np.sum(mats.conj() * (a @ mats), axis=-1)) / np.sum(np.abs(mats) ** 2, axis=-1)
    top = np.linalg.eigvalsh(a - d[..., None] * np.eye(mats.shape[-1]))[..., -1]
    return np.asarray(powers)[:, None] * (lam @ mask - top - d.sum(axis=-1) / mats.shape[-1])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    n_car=st.integers(1, 3),
    powers=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3),
)
def test_dual_bound_is_at_most_every_feasible_objective(seed, n, n_car, powers):
    # any duals (clipped to [-1, 1]) and any unit-budget matrices to read D
    # from give a bound below the objective of every feasible matrix
    rng = np.random.default_rng(seed)
    n_grid = 11
    steering = np.exp(2j * np.pi * rng.random((n_car, n_grid, n)))
    mask = rng.integers(0, 2, n_grid).astype(float)
    duals = rng.uniform(-2.0, 2.0, (n_car, n_grid, 1))
    slack_source = _feasible(rng, [1.0], n_car, n, True)[0]
    g = covariance._pattern_matrix(steering, np.triu_indices(n, 1))
    p = np.asarray(powers)[:, None]
    bounds = p * covariance._dual_bounds(slack_source, g, mask - 1.0, duals)
    scale = p * n_grid
    np.testing.assert_allclose(bounds, _reference_bounds(slack_source, powers, steering, mask, duals),
                               rtol=0, atol=1e-12 * scale.max())
    for mats in (p[..., None, None] * slack_source, _feasible(rng, powers, n_car, n, True),
                 _feasible(rng, powers, n_car, n, False)):
        objectives = np.sum(np.abs(p[..., None] * mask - reference_pattern(mats, steering)), axis=-1)
        assert np.all(bounds <= objectives + 1e-12 * scale)


def test_solved_gap_bounds_every_feasible_objective(rng):
    # the bound built from the ADMM's own duals is tight, and below the objective of random feasible matrices
    grid = _small_grid()
    powers = [1.5, 7.5]
    sols = solve_radar_covariances(grid, powers, range(grid.n_subcarriers))
    for power, by_k in zip(powers, sols):
        others = _feasible(rng, [power] * 50, grid.n_subcarriers, grid.n_tx, False)
        for k, sol in by_k.items():
            assert 0.0 <= sol.gap <= 1e-4, (k, sol.gap)
            objectives = np.abs(power * grid.desired_gain - reference_pattern(others[:, k], grid.steering(k))).sum(-1)
            assert sol.objective * (1.0 - sol.gap) <= objectives.min()


def test_feasibility_on_small_mask_instance():
    cfg = SystemConfig(
        n_tx=3, n_rx=2, n_streams=2, n_subcarriers=4, n_jcas=1, grid_size=21, power_budget=2.0
    )
    grid = build_grid(cfg)
    sol = solve_radar_covariance(grid, 2.0, [0])[0]
    np.testing.assert_allclose(np.diag(sol.matrix).real, 2.0 / 3, atol=1e-8)
    np.testing.assert_allclose(sol.matrix, sol.matrix.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(sol.matrix).min() >= -1e-8
    assert sol.converged and 0.0 < sol.residual < covariance.TOL


def test_budget_scaling_is_exact():
    cfg = SystemConfig(n_tx=4, grid_size=41)
    grid = build_grid(cfg)
    one = solve_radar_covariance(grid, 1.0, [0])[0]
    two = solve_radar_covariance(grid, 2.0, [0])[0]
    np.testing.assert_allclose(two.matrix, 2.0 * one.matrix, rtol=1e-9, atol=1e-12)
    assert two.objective == pytest.approx(2.0 * one.objective, rel=1e-9)


def test_objective_reported_at_returned_matrix():
    # the stacked finish scores every (power, subcarrier) pair as a one-carrier, one-power solve does,
    # and the score is the mask error of the returned matrix
    grid = _small_grid()
    powers = [1.5, 7.5]
    sols = solve_radar_covariances(grid, powers, [2, 5])
    for power, by_k in zip(powers, sols):
        for k, sol in by_k.items():
            solo = solve_radar_covariances(grid, [power], [k])[0][k]
            np.testing.assert_array_equal(sol.matrix, solo.matrix)
            assert sol.objective == solo.objective
            direct = np.abs(power * grid.desired_gain - reference_pattern(sol.matrix, grid.steering(k))).sum()
            assert sol.objective == pytest.approx(direct, rel=1e-12)


def test_solver_error_carries_iterate_and_residuals(monkeypatch):
    grid = build_grid(SystemConfig())
    monkeypatch.setattr(covariance, "MAX_ITER", 3)
    monkeypatch.setattr(covariance, "FALLBACK_TOL", 1e-9)
    with pytest.raises(SolverError) as err:
        solve_radar_covariance(grid, 10.0, [0])
    assert err.value.last_iterate is not None
    assert err.value.residual > covariance.FALLBACK_TOL
    assert f"residual {err.value.residual:.3e} after 3 iterations" in str(err.value)


def test_radar_covariance_subset_and_error_context(monkeypatch):
    cfg = SystemConfig(n_tx=4, n_subcarriers=6, n_jcas=2, grid_size=41)
    grid = build_grid(cfg)
    sols = solve_radar_covariance(grid, 2.0, subcarriers=[4, 1])
    assert sorted(sols) == [1, 4]
    assert all(isinstance(k, int) for k in sols)
    for sol in sols.values():
        np.testing.assert_allclose(np.diag(sol.matrix).real, 0.5, atol=1e-8)
    monkeypatch.setattr(covariance, "MAX_ITER", 2)
    monkeypatch.setattr(covariance, "FALLBACK_TOL", 1e-12)
    with pytest.raises(SolverError, match="subcarrier 4"):
        solve_radar_covariance(grid, 2.0, subcarriers=[4])


def test_trivial_single_antenna_budget():
    sol = solve_radar_covariance(ula_grid([-45.0, 0.0, 45.0], [1.0, 1.0, 1.0], 1), 1.0)[0]
    np.testing.assert_allclose(sol.matrix, [[1.0]], atol=1e-12)


def _small_grid():
    return build_grid(SystemConfig(n_tx=4, n_subcarriers=6, n_jcas=2, grid_size=41))


def test_psd_project_stack_matches_single(rng):
    stack = np.stack([_hermitian(rng, 4) for _ in range(3)])
    out = psd_project(stack)
    for i in range(3):
        np.testing.assert_array_equal(out[i], psd_project(stack[i]))


def test_batched_radar_covariance_matches_solo_solves():
    grid = _small_grid()
    ks = [5, 0, 2, 3]
    batch = solve_radar_covariance(grid, 2.0, ks)
    assert list(batch) == ks
    assert len({sol.iterations for sol in batch.values()}) > 1  # carriers stop at different iterations
    for k in ks:
        assert_same_result(batch[k], solve_radar_covariance(grid, 2.0, [k])[k])


# Recorded with the per-iteration residual histories still in place (the final
# residual was the last history entry): carriers that stop below TOL, after two
# penalty rebalancings (n_tx=3) or after dozens (n_tx=4), at power 2.
# tools/output_digests.py imports this table and saves each grid's solves.
EARLY_STOPS = {
    "n_tx=3": (
        dict(n_tx=3, n_rx=2, n_streams=2, n_subcarriers=4, n_jcas=1, grid_size=21),
        {0: 232, 1: 232, 2: 233, 3: 233},
        {0: 9.835948128638832e-07, 1: 9.954332894902792e-07, 2: 6.485722971806841e-07, 3: 6.487428515074684e-07},
        {
            0: [(0.005601524483931013+1.5851611861069842e-16j), (-0.6665725354938662+7.254049944177655e-17j),
                (0.005601524483836498+1.0855715211246884e-16j)],
            2: [(0.005931479607534404+1.36251012119573e-15j), (-0.6665611193835167+1.324400457387646e-16j),
                (0.005931479607475526+1.5080980453792734e-15j)],
        },
    ),
    "n_tx=4": (
        dict(n_tx=4, n_subcarriers=6, n_jcas=2, grid_size=41),
        {0: 4821, 1: 3057, 2: 2789, 3: 3063, 4: 2938, 5: 3064},
        {0: 5.140547900665838e-07, 1: 9.693143679871507e-07, 2: 9.659427932471704e-07, 3: 9.91402282337853e-07,
         4: 9.679414181877008e-07, 5: 9.610917765087342e-07},
        {
            0: [(-0.32272174343077753+3.9574568684579494e-13j), (-0.3335963788299373+4.124101572482398e-13j),
                (0.4891253646446714+1.467328046272413e-14j), (0.48912536464459655+1.640579607065412e-14j),
                (-0.3335963788291158-3.9871515695708364e-13j), (-0.3227217434308091-4.1492996114765296e-13j)],
            2: [(-0.32338200793481314-1.1265944948726527e-13j), (-0.33390628647885334-1.144932022919707e-13j),
                (0.48947571376317606+5.40743572040865e-16j), (0.4894757293015357+9.612468411960009e-17j),
                (-0.3339062864788557+1.1465985438607537e-13j), (-0.32338200793482147+1.1289958292463841e-13j)],
        },
    ),
}


@pytest.mark.parametrize("name", list(EARLY_STOPS))
def test_early_stop_carriers_are_pinned(name):
    overrides, iterations, residuals, upper = EARLY_STOPS[name]
    sols = solve_radar_covariance(build_grid(SystemConfig(**overrides)), 2.0)
    assert {k: sol.iterations for k, sol in sols.items()} == iterations
    assert all(sol.converged for sol in sols.values())
    assert {k: sol.residual for k, sol in sols.items()} == residuals
    iu = np.triu_indices(overrides["n_tx"], 1)
    for k, entries in upper.items():
        np.testing.assert_array_equal(sols[k].matrix[iu], entries)


def test_admm_stops_iterating_at_the_last_carriers_stop(monkeypatch):
    # _soft_threshold runs once per ADMM iteration and nowhere else, so its
    # calls count the iterations of the whole stack
    calls = []
    threshold = covariance._soft_threshold
    monkeypatch.setattr(covariance, "_soft_threshold", lambda *a: calls.append(1) or threshold(*a))
    sols = solve_radar_covariance(build_grid(SystemConfig(**EARLY_STOPS["n_tx=3"][0])), 2.0)
    assert all(sol.converged for sol in sols.values())
    assert len(calls) == max(sol.iterations for sol in sols.values()) == 233


# (iterations, converged, residual) per carrier with the iteration cap off the
# rebalancing period, so the last iteration alone computes the final residual:
# at 137 no carrier has converged; at 232 two stop on it and two are capped
# just above TOL. Recorded with the consensus residual computed on every
# iteration.
LAST_ITERATION_STOPS = {
    137: ("n_tx=4", {
        0: (137, False, 0.04831002365182954), 1: (137, False, 0.04818294343596113),
        2: (137, False, 0.048075256088067835), 3: (137, False, 0.047968529701302),
        4: (137, False, 0.047877025215302745), 5: (137, False, 0.047802888946418175),
    }),
    232: ("n_tx=3", {
        0: (232, True, 9.835948128638832e-07), 1: (232, True, 9.954332894902792e-07),
        2: (232, False, 1.0071865630560424e-06), 3: (232, False, 1.0188375980727333e-06),
    }),
}


@pytest.mark.parametrize("max_iter", list(LAST_ITERATION_STOPS))
def test_residual_at_a_cap_off_the_rebalancing_period_is_pinned(monkeypatch, max_iter):
    name, want = LAST_ITERATION_STOPS[max_iter]
    assert max_iter % covariance.BALANCE_EVERY != 0
    monkeypatch.setattr(covariance, "MAX_ITER", max_iter)
    monkeypatch.setattr(covariance, "FALLBACK_TOL", 1.0)
    sols = solve_radar_covariance(build_grid(SystemConfig(**EARLY_STOPS[name][0])), 2.0)
    assert {k: (sol.iterations, sol.converged, sol.residual) for k, sol in sols.items()} == want


def test_one_solve_finished_at_two_powers_equals_fresh_solves():
    grid = _small_grid()
    powers = [2.0, 4.0, 2.0]
    both = solve_radar_covariances(grid, powers, [1, 3])
    assert len(both) == len(powers)
    assert all(list(sols) == [1, 3] for sols in both)
    for power, sols in zip(powers, both):
        fresh = solve_radar_covariance(grid, power, list(sols))
        for k, sol in sols.items():
            assert_same_result(sol, fresh[k])
            assert_same_result(sol, solve_radar_covariance(grid, power, [k])[k])
            np.testing.assert_allclose(np.diag(sol.matrix).real, power / 4, atol=1e-8)


def _finish_alone(unit, power):
    """One pair's finish as a per-pair loop computes it, with its polish round count.

    Scale, symmetrize and set the diagonal, then alternate psd and diagonal
    projections until the minimum eigenvalue clears ``POLISH_FLOOR * min(1, power)``.
    """
    n = unit.shape[-1]
    mat = power * unit
    out = 0.5 * (mat + mat.conj().T)
    np.fill_diagonal(out, power / n)
    for rounds in range(covariance.POLISH_MAX_ROUNDS):
        if np.linalg.eigvalsh(out)[0] >= covariance.POLISH_FLOOR * min(1.0, power):
            return out, rounds
        out = psd_project(out)
        np.fill_diagonal(out, power / n)
    return out, covariance.POLISH_MAX_ROUNDS


def test_stacked_finish_equals_per_pair_finish(rng):
    n = 4
    c = random_complex(rng, (n, n))
    gram = c @ c.conj().T
    scale = 1.0 / np.sqrt(n * np.diag(gram).real)
    psd = gram * np.outer(scale, scale)  # diagonal 1 / n, well inside the psd cone
    a = np.exp(1j * np.pi * 0.3 * np.arange(n))
    indefinite = np.outer(a, a.conj()) / n + 1e-3 * _hermitian(rng, n)  # minimum eigenvalue about -5e-3
    np.fill_diagonal(indefinite, 1.0 / n)
    unit = np.stack([psd, indefinite])
    unit = 0.5 * (unit + unit.conj().mT)  # exactly Hermitian, as the ADMM's solves are
    np.testing.assert_array_equal(unit, unit.conj().mT)
    powers = np.array([0.5, 10.0])
    got = covariance._finished(unit, powers)
    assert got.shape == (len(powers), len(unit), n, n)
    rounds = []
    for p, power in enumerate(powers):
        for i in range(len(unit)):
            want, used = _finish_alone(unit[i], power)
            np.testing.assert_array_equal(got[p, i], want)
            rounds.append(used)
    assert rounds[0] == rounds[2] == 0  # the psd matrix leaves before any projection
    assert min(rounds[1], rounds[3]) >= 20  # the indefinite one polishes for many rounds


def test_design_far_below_unit_power_returns_feasible_certified_covariances():
    # at --snr -200 (P about 1e-20) an absolute eigenvalue floor let the scaled
    # ADMM iterates through unpolished, minimum eigenvalue -1.3e-4 P and gaps
    # below zero; the floor scales with the power below P = 1
    base = SystemConfig(n_subcarriers=16, n_jcas=2)
    cfg = replace(base, power_budget=base.snr_power(-200.0))
    res = run_design(cfg)
    assert len(res.covariances) == 2
    for k, sol in res.covariances.items():
        assert sol.gap >= 0.0, (k, sol.gap)
        assert np.linalg.eigvalsh(sol.matrix)[0] >= -1e-10 * cfg.effective_power, k


def test_unit_solves_are_hermitian_bit_for_bit():
    # the finish scales them without symmetrizing: the lower triangle must
    # already be the conjugate of the upper, bit for bit
    grid = _small_grid()
    g = covariance._pattern_matrix(grid.steering(range(grid.n_subcarriers)), np.triu_indices(4, 1))
    mats = covariance._admm_unit(g, grid.desired_gain - 1.0, 4)[0]
    np.testing.assert_array_equal(mats, mats.conj().mT)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_car=st.integers(1, 5), m=st.integers(1, 12), n_grid=st.integers(1, 30))
@example(seed=0, n_car=16, m=56, n_grid=181)  # the size of the K=16 link set-up
def test_penalty_inverses_equal_the_stacked_inverse_bit_for_bit(seed, n_car, m, n_grid):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_car, n_grid, m))
    gtg = g.mT @ g  # the stack the function never forms
    beta = 2.0 ** rng.integers(-10, 11, (2, n_car, 1, 1)).astype(float)  # penalties stay powers of two
    b1, b2 = beta
    solve_mat = np.full_like(gtg, np.nan)
    covariance._set_penalty_inverses(solve_mat, g, b1, b2, range(n_car))  # the start: every carrier
    assert _same_bits(solve_mat, np.linalg.inv(b1 * gtg + b2 * (2.0 * np.eye(m))))
    kept = solve_mat.copy()
    changed = rng.random(n_car) < 0.5
    beta[:, changed] *= 2.0 ** rng.integers(-1, 2, (2, np.count_nonzero(changed), 1, 1))  # a rebalance
    covariance._set_penalty_inverses(solve_mat, g, b1, b2, np.flatnonzero(changed))
    assert _same_bits(solve_mat[changed], np.linalg.inv(b1 * gtg + b2 * (2.0 * np.eye(m)))[changed])
    assert _same_bits(solve_mat[~changed], kept[~changed])


def test_covariance_solve_makes_no_stack_sized_copies(monkeypatch):
    # K=16 carriers on the default grid, capped at 250 iterations: the ADMM
    # rebalances at iterations 100 and 200, and each re-forms every carrier's
    # system. The traced memory on entry to _soft_threshold, which runs once
    # per iteration, is the loop's live state: the grid's kept steering rows,
    # g, the inverses and the iterates, which hold less than one more
    # (K, 2M, 2M) stack. A G^T G stack kept beside them breaks the upper bound.
    monkeypatch.setattr(covariance, "MAX_ITER", 250)
    monkeypatch.setattr(covariance, "FALLBACK_TOL", 1.0)
    grid = build_grid(SystemConfig(n_subcarriers=16))
    formed, live = [], []
    set_inverses, threshold = covariance._set_penalty_inverses, covariance._soft_threshold
    monkeypatch.setattr(covariance, "_set_penalty_inverses", lambda *a: formed.append(len(a[-1])) or set_inverses(*a))
    monkeypatch.setattr(covariance, "_soft_threshold",
                        lambda *a: live.append(tracemalloc.get_traced_memory()[0]) or threshold(*a))
    tracemalloc.start()
    try:
        solve_radar_covariance(grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert formed == [16, 16, 16]
    n_car, n_grid, n = grid.n_subcarriers, len(grid.angles), grid.n_tx
    system = n_car * (n * (n - 1)) ** 2 * 8  # bytes of one (K, 2M, 2M) stack
    operators = n_car * n_grid * n * (n - 1) * 8 + system  # g and the inverses
    rows = n_car * n_grid * n * 16  # the steering rows the grid keeps
    assert min(live) > operators
    assert max(live) < operators + rows + system, (max(live) - operators - rows) / system
    assert peak < max(live) + system, (peak - max(live)) / system


@pytest.mark.parametrize("power", [0.0, -1.0, np.nan, np.inf])
def test_radar_covariance_rejects_a_power_that_is_not_positive_and_finite(power):
    # a negative budget would scale the unit solve into a matrix with diagonal
    # -P/n and a negative eigenvalue, and nan would reach the eigen solver
    grid = _small_grid()
    with pytest.raises(ConfigError, match=f"^power budget {power:g} must be positive and finite$"):
        solve_radar_covariance(grid, power, [0])
    with pytest.raises(ConfigError, match=f"^power budget {power:g} must be positive and finite$"):
        solve_radar_covariances(grid, [2.0, power], [0, 1])


@pytest.mark.parametrize("mask", ["grid", "ones", "zeros"])
def test_radar_covariance_empty_and_single_antenna(mask):
    # both run the general ADMM loop: an empty stack, and a single antenna,
    # whose one feasible matrix is the budget and whose x has no entries
    grid = _small_grid()
    assert solve_radar_covariance(grid, 2.0, []) == {}
    assert solve_radar_covariances(grid, [2.0], []) == [{}]
    single = build_grid(SystemConfig(n_tx=1, n_rx=1, n_streams=1, n_subcarriers=3, n_jcas=1, grid_size=9))
    if mask != "grid":
        single = replace(single, desired_gain=np.full(9, float(mask == "ones")))
    sols = solve_radar_covariance(single, 3.0)
    for sol in sols.values():
        # the pattern is the budget 3 at every angle, so the mask's zeros cost 3 each
        np.testing.assert_array_equal(sol.matrix, [[3.0]])
        assert sol.objective == 3.0 * np.sum(1.0 - single.desired_gain)
        assert (sol.converged, sol.gap) == (True, 0.0)
        assert 0 < sol.iterations < covariance.MAX_ITER
        assert sol.residual < covariance.TOL


def test_batched_solver_error_names_first_failing_carrier(monkeypatch):
    grid = _small_grid()
    monkeypatch.setattr(covariance, "MAX_ITER", 2)
    monkeypatch.setattr(covariance, "FALLBACK_TOL", 1e-12)
    with pytest.raises(SolverError, match="^subcarrier 3: ") as err:
        solve_radar_covariance(grid, 2.0, subcarriers=[3, 1])
    with pytest.raises(SolverError) as solo:
        solve_radar_covariance(grid, 2.0, subcarriers=[3])
    with pytest.raises(SolverError) as multi:
        solve_radar_covariances(grid, [2.0, 5.0], [3, 1])  # the iterate is carried at the first power
    for got in (err, multi):
        assert str(got.value) == str(solo.value)
        np.testing.assert_array_equal(got.value.last_iterate, solo.value.last_iterate)
        assert got.value.residual == solo.value.residual


@pytest.mark.parametrize(
    "overrides",
    [dict(n_jcas=0), dict(n_tx=1, n_rx=1, n_streams=1)],
    ids=["no-sensing", "single-antenna"],
)
def test_edge_configs_run_through_design_and_sweep(small_cfg, overrides):
    cfg = replace(small_cfg, **overrides)
    res = run_design(cfg, covariances=None)
    assert sorted(res.covariances) == [int(k) for k in res.jcas_subcarriers]
    assert len(res.covariances) == cfg.n_jcas
    assert np.all(np.isfinite(res.rates))
    out = sweep(cfg, [0.0, 5.0], [0.5], [cfg.n_jcas], n_realizations=1)
    assert [p.snr_db for p in out.points] == [0.0, 5.0]
    assert all(np.isfinite(p.avg_rate) for p in out.points)
