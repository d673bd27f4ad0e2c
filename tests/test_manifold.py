"""Sphere geometry, line search, and the conjugate-gradient refinement solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcasbeam import manifold
from jcasbeam.errors import ConfigError
from jcasbeam.manifold import (
    ARMIJO_C,
    CONTRACTION,
    MAX_BACKTRACKS,
    _armijo_decide,
    _ladder,
    _normalize,
    polak_ribiere_mu,
    project_to_tangent,
    solve_rcg_batch,
    tradeoff_objective,
)

from conftest import (assert_same_result, finite_difference_gradient, ladder_points, random_complex, random_psd,
                      random_sphere_point, rcg_gradient)


def solve_one(f0, cov, f_comm, rho, power):
    """One carrier's refinement: the batched solver on a stack of one."""
    return solve_rcg_batch(f0[None], cov[None], f_comm[None], rho, power)[0]


def real_inner(a, b):
    return float(np.real(np.vdot(a, b)))


def test_objective_scalar_hand_case():
    f = np.array([[1.5 + 0j]])
    cov = np.array([[2.0 + 0j]])
    f_comm = np.array([[1.0 + 0j]])
    rho = 0.6
    expected = 0.6 * (1.5 ** 2 - 2.0) ** 2 + 0.4 * 0.5 ** 2
    assert tradeoff_objective(f, cov, f_comm, rho) == pytest.approx(expected, abs=1e-12)
    g = 4 * 0.6 * (1.5 ** 2 - 2.0) * 1.5 + 2 * 0.4 * 0.5
    assert rcg_gradient(f, cov, f_comm, rho)[0, 0] == pytest.approx(g, abs=1e-12)


def test_gradient_matches_finite_differences(rng):
    # 20 random 4x2 instances, full-coordinate central differences.
    for _ in range(20):
        f = random_complex(rng, (4, 2))
        cov = random_psd(rng, 4, 2.0)
        f_comm = random_complex(rng, (4, 2))
        rho = float(rng.uniform(0.05, 0.95))
        g = rcg_gradient(f, cov, f_comm, rho)
        g_fd = finite_difference_gradient(f, cov, f_comm, rho)
        rel = np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd)
        assert rel <= 1e-5


def test_tangent_projection_residual(rng):
    power = 3.0
    for _ in range(20):
        f = random_sphere_point(rng, (4, 2), power)
        g = random_complex(rng, (4, 2))
        t = project_to_tangent(f, g, power)
        assert abs(real_inner(f, t)) <= 1e-8
        # projecting twice changes nothing
        np.testing.assert_allclose(project_to_tangent(f, t, power), t, atol=1e-12)


def test_retraction_stays_on_sphere(rng):
    # the line search's form: a column of 20 points retracted by a row of 5 steps
    power = 2.5
    f = np.array([random_sphere_point(rng, (4, 2), power) for _ in range(20)])
    d = project_to_tangent(f, random_complex(rng, (20, 4, 2)), power)
    out = ladder_points(f, rng.uniform(0.0, 2.0, 5), d, power)
    assert np.all(np.abs(np.linalg.norm(out, axis=(-2, -1)) - np.sqrt(power)) <= 1e-9)


def test_transport_lands_in_tangent_space(rng):
    # the solver carries a tangent vector to a new point by projecting it there
    power = 1.0
    f = random_sphere_point(rng, (4, 2), power)
    f_new = random_sphere_point(rng, (4, 2), power)
    v = project_to_tangent(f, random_complex(rng, (4, 2)), power)
    carried = project_to_tangent(f_new, v, power)
    assert abs(real_inner(f_new, carried)) <= 1e-8


def test_polak_ribiere_values():
    g_new = np.array([[1.0 + 0j], [0.0]])
    g_prev = np.array([[0.0 + 0j], [1.0]])
    assert polak_ribiere_mu(g_new, g_prev, g_prev) == pytest.approx(1.0, abs=1e-12)
    # exact conjugacy resets to zero, as does a vanished previous gradient
    assert polak_ribiere_mu(g_new, g_prev, g_new) == 0.0
    zero = np.zeros_like(g_new)
    assert polak_ribiere_mu(g_new, zero, zero) == 0.0


def test_polak_ribiere_nonnegative(rng):
    for _ in range(20):
        a = random_complex(rng, (3, 2))
        b = random_complex(rng, (3, 2))
        c = random_complex(rng, (3, 2))
        assert polak_ribiere_mu(a, b, c) >= 0.0


def test_rcg_rungs_are_exact_powers_of_the_contraction():
    # the ladder is built from CONTRACTION and MAX_BACKTRACKS; its repeated
    # products are the exact powers, so each rung is the step a sequential
    # search tries at that round
    assert np.array_equal(_ladder(), CONTRACTION ** np.arange(2 * MAX_BACKTRACKS + 1))


def test_rcg_ladder_follows_the_line_search_constants(rng, monkeypatch):
    # a solve reads CONTRACTION and MAX_BACKTRACKS when it runs, and hands
    # every search the ladder they make: 2 * 3 + 1 powers of 0.25
    seen = []
    decide = manifold._armijo_decide

    def spy(values, rungs, phi0, slope, c, max_backtracks):
        seen.append((rungs.copy(), max_backtracks))
        return decide(values, rungs, phi0, slope, c, max_backtracks)

    monkeypatch.setattr(manifold, "_armijo_decide", spy)
    monkeypatch.setattr(manifold, "CONTRACTION", 0.25)
    monkeypatch.setattr(manifold, "MAX_BACKTRACKS", 3)
    power = 2.0
    f0 = np.stack([random_sphere_point(rng, (4, 2), power) for _ in range(2)])
    cov = np.stack([random_psd(rng, 4, power) for _ in range(2)])
    f_comm = np.stack([random_sphere_point(rng, (4, 2), power) for _ in range(2)])
    solve_rcg_batch(f0, cov, f_comm, 0.5, power)
    assert seen
    for rungs, max_backtracks in seen:
        assert max_backtracks == 3
        np.testing.assert_array_equal(rungs, 0.25 ** np.arange(7))


def armijo_on_ladder(phi, phi0, slope):
    """(step, value, ok) of each search, decided on the solver's full ladder of rungs.

    ``phi`` maps a step to the value of every search, as an array.
    """
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    rungs = _ladder()
    values = np.stack([np.broadcast_to(phi(step), phi0.shape) for step in rungs], axis=1)
    final, decided, ok = _armijo_decide(values, rungs, phi0, slope, ARMIJO_C, MAX_BACKTRACKS)
    assert decided.all()
    return rungs[final], values[np.arange(len(final)), final], ok


def test_line_search_raises_on_a_search_its_ladder_leaves_undecided(rng):
    # a direction so long that the first sufficient decrease is at rung 8: on
    # a 9-rung ladder the search cannot tell whether polishing goes on
    power = np.array([2.0])
    f = random_sphere_point(rng, (4, 2), 2.0)[None]
    f_comm = random_sphere_point(rng, (4, 2), 2.0)[None]
    cov = random_psd(rng, 4, 2.0)[None]
    rho = np.array([0.5])
    gamma = tradeoff_objective(f, cov, f_comm, rho)
    grad = project_to_tangent(f, rcg_gradient(f, cov, f_comm, rho), power)
    rungs = _ladder()[:9]

    def first_sufficient(direction):
        points = ladder_points(f, rungs, direction, power)
        bound = gamma + ARMIJO_C * rungs * real_inner(grad[0], direction[0])
        return np.flatnonzero(tradeoff_objective(points, cov, f_comm, rho)[0] <= bound)[0]

    direction = next(-scale * grad for scale in 2.0 ** np.arange(40) if first_sufficient(-scale * grad) == 8)
    slope = np.array([real_inner(grad[0], direction[0])])
    with pytest.raises(ValueError, match="1 line searches undecided on a 9-rung ladder"):
        manifold._line_search(f, direction, cov, f_comm, rho, 1.0 - rho, np.sqrt(power), gamma, slope, rungs)


def test_armijo_quadratic():
    delta, value, ok = armijo_on_ladder(lambda d: (2.0 * d - 1.0) ** 2, phi0=1.0, slope=-4.0)
    assert (delta[0], value[0], ok[0]) == (0.5, 0.0, True)


def test_armijo_accepts_first_trial():
    delta, value, ok = armijo_on_ladder(lambda d: (1.0 - d) ** 2, phi0=1.0, slope=-2.0)
    assert (delta[0], value[0], ok[0]) == (1.0, 0.0, True)


def test_armijo_reports_failure_on_ascent():
    delta, value, ok = armijo_on_ladder(lambda d: 1.0 + d, phi0=1.0, slope=-1.0)
    assert not ok[0]
    assert value[0] >= 1.0


def _small_instance(rng, power=2.0):
    cov = random_psd(rng, 4, power)
    f_comm = random_sphere_point(rng, (4, 2), power)
    f0 = random_sphere_point(rng, (4, 2), power)
    return f0, cov, f_comm


def test_rcg_monotone_descent(rng):
    power = 2.0
    for _ in range(20):
        f0, cov, f_comm = _small_instance(rng, power)
        res = solve_one(f0, cov, f_comm, 0.5, power)
        assert np.all(np.diff(res.objective_trace) <= 1e-12)
        assert abs(np.linalg.norm(res.precoder) - np.sqrt(power)) <= 1e-9
        assert res.objective == pytest.approx(
            tradeoff_objective(res.precoder, cov, f_comm, 0.5), abs=1e-12
        )


def test_rcg_pure_communications_recovers_target(rng):
    # rho = 0 turns the objective into distance to a point on the sphere.
    power = 2.0
    f_comm = random_sphere_point(rng, (4, 2), power)
    f0 = random_sphere_point(rng, (4, 2), power)
    res = solve_one(f0, np.zeros((4, 4), dtype=complex), f_comm, 0.0, power)
    assert res.objective <= 1e-8
    np.testing.assert_allclose(res.precoder, f_comm, atol=1e-4)


def test_rcg_starts_at_optimum(rng):
    power = 1.5
    f_comm = random_sphere_point(rng, (3, 2), power)
    res = solve_one(f_comm, np.zeros((3, 3), dtype=complex), f_comm, 0.0, power)
    assert res.converged
    assert res.stop_reason == "gradient_norm"
    assert res.iterations == 0


def test_rcg_pure_sensing_rank_one(rng):
    # rho = 1 with a rank-1 covariance whose trace matches the budget: the
    # exact factor is reachable and the objective should vanish.
    power = 1.0
    v = random_sphere_point(rng, (2, 1), power)
    cov = v @ v.conj().T
    f0 = random_sphere_point(rng, (2, 1), power)
    res = solve_one(f0, cov, np.zeros((2, 1), dtype=complex), 1.0, power)
    assert res.objective <= 1e-10


def test_rcg_max_iteration_stop(rng, monkeypatch):
    f0, cov, f_comm = _small_instance(rng)
    monkeypatch.setattr(manifold, "MAX_ITER", 1)
    monkeypatch.setattr(manifold, "GRAD_TOL", 1e-300)
    res = solve_one(f0, cov, f_comm, 0.5, 2.0)
    assert res.iterations == 1
    assert res.stop_reason in ("max_iterations", "objective_plateau", "line_search_stall")
    if res.stop_reason == "max_iterations":
        assert not res.converged


def test_rcg_batch_stopped_at_iteration_0_runs_no_line_search(rng, monkeypatch):
    # rho 0 from f0 = f_comm: every carrier meets the gradient tolerance at its start, and
    # the loop ends at its head before any line search, projection or Polak-Ribiere step
    power = 2.0
    f_comm = np.array([random_sphere_point(rng, (4, 2), power) for _ in range(3)])
    cov = np.array([random_psd(rng, 4, power) for _ in range(3)])
    calls = []
    search = manifold._line_search
    monkeypatch.setattr(manifold, "_line_search", lambda f, *a: calls.append(len(f)) or search(f, *a))
    batch = solve_rcg_batch(f_comm, cov, f_comm, 0.0, power)
    assert calls == []
    for f, c, got in zip(f_comm, cov, batch):
        assert (got.iterations, got.stop_reason, got.converged) == (0, "gradient_norm", True)
        np.testing.assert_allclose(got.precoder, f, rtol=1e-15, atol=1e-15)
        assert got.objective_trace.tolist() == [got.objective] == [tradeoff_objective(got.precoder, c, f, 0.0)]


def test_rcg_gradient_stop_at_the_cap_is_convergence(rng, monkeypatch):
    # a carrier that first meets the gradient tolerance at the iteration cap stops on the
    # gradient norm, converged, and not on the cap
    f0, cov, f_comm = _small_instance(rng)
    monkeypatch.setattr(manifold, "PLATEAU_TOL", 0.0)
    monkeypatch.setattr(manifold, "GRAD_TOL", 0.0)
    capped = []  # the solve stopped by each cap: one trajectory, cut after 0, 1, ..., 7 iterations
    for cap in range(8):
        monkeypatch.setattr(manifold, "MAX_ITER", cap)
        capped.append(solve_one(f0, cov, f_comm, 0.5, 2.0))
        assert (capped[-1].iterations, capped[-1].stop_reason) == (cap, "max_iterations")
    norms = [r.grad_norm for r in capped]
    cap = max(k for k in range(1, 8) if norms[k] < min(norms[:k]))
    monkeypatch.setattr(manifold, "MAX_ITER", cap)
    monkeypatch.setattr(manifold, "GRAD_TOL", (norms[cap] + min(norms[:cap])) / 2)
    got = solve_one(f0, cov, f_comm, 0.5, 2.0)
    assert (got.iterations, got.stop_reason, got.converged) == (cap, "gradient_norm", True)
    np.testing.assert_array_equal(got.precoder, capped[cap].precoder)
    np.testing.assert_array_equal(got.objective_trace, capped[cap].objective_trace)


def test_rcg_multistart_consistency(rng):
    # Several random starts of one instance land on (numerically) one optimum.
    power = 2.0
    f0, cov, f_comm = _small_instance(rng, power)
    finals = []
    for _ in range(5):
        start = random_sphere_point(rng, (4, 2), power)
        finals.append(solve_one(start, cov, f_comm, 0.5, power).objective)
    assert max(finals) - min(finals) <= 1e-3


@pytest.mark.parametrize("power", [0.0, -1.0, math.nan, math.inf])
def test_rcg_rejects_a_power_that_is_not_positive_and_finite(rng, power):
    # at P = 0 the solver would run MAX_ITER iterations on nan; a negative or
    # nan power would be reported as one whose objective overflows
    f0, cov, f_comm = _small_instance(rng)
    message = f"^power budget {power:g} must be positive and finite$"
    with pytest.raises(ConfigError, match=message):
        solve_one(f0, cov, f_comm, 0.5, power)
    # among powers per carrier, the bad one is named
    stack = np.stack([f0, f0]), np.stack([cov, cov]), np.stack([f_comm, f_comm])
    with pytest.raises(ConfigError, match=message):
        solve_rcg_batch(*stack, 0.5, np.array([2.0, power]))


def test_rcg_reports_a_finite_power_whose_objective_overflows(rng):
    f0, cov, f_comm = _small_instance(rng)
    with pytest.raises(ConfigError, match=r"^power budget 1e\+200 is too large: the RCG objective"):
        solve_one(f0, cov, f_comm, 0.5, 1e200)


# Stop rules of the mixed-stop batch: an absolute gradient tolerance of 1e-13
# at P = 2, no plateau tolerance, and a cap of 45 iterations.
MIXED_STOP_RULES = dict(GRAD_TOL=1e-13 / math.sqrt(2.0), PLATEAU_TOL=0.0, MAX_ITER=45)


@pytest.fixture
def mixed_stop_rules(monkeypatch):
    for name, value in MIXED_STOP_RULES.items():
        monkeypatch.setattr(manifold, name, value)


def _mixed_stop_instance(per_carrier=False):
    """A 17-carrier batch that, under ``MIXED_STOP_RULES``, ends on every stop reason.

    Every carrier has rho 0.5 and power 2, or with ``per_carrier`` a rho and
    a power of its own.
    """
    rng = np.random.default_rng(5)
    rhos, powers = np.full(17, 0.5), np.full(17, 2.0)
    if per_carrier:
        rhos, powers = np.linspace(0.05, 0.95, 17), np.geomspace(0.5, 8.0, 17)
    f0s, covs, f_comms = [], [], []
    for power in powers[:16]:
        f0s.append(random_sphere_point(rng, (4, 2), power))
        f_comms.append(random_sphere_point(rng, (4, 2), power))
        covs.append(random_psd(rng, 4, power))
    f_opt = random_sphere_point(rng, (4, 2), powers[16])
    f0s.append(f_opt)
    f_comms.append(f_opt)
    covs.append(f_opt @ f_opt.conj().T)
    settings = dict(rho=rhos, power=powers) if per_carrier else dict(rho=0.5, power=2.0)
    return (np.array(f0s), np.array(covs), np.array(f_comms)), settings


def test_rcg_batch_matches_solo_exactly_across_stop_reasons(mixed_stop_rules):
    # Near the roundoff floor (tiny gradient tolerance, plateau tolerance 0)
    # some carriers stall in the line search and some plateau; the cap stops
    # the slow ones; a carrier started at its optimum stops on the gradient
    # norm at once.
    stack, settings = _mixed_stop_instance()
    batch = solve_rcg_batch(*stack, **settings)
    assert {r.stop_reason for r in batch} == {
        "gradient_norm", "line_search_stall", "objective_plateau", "max_iterations"
    }
    for f0, cov, f_comm, got in zip(*stack, batch):
        assert_same_result(got, solve_one(f0, cov, f_comm, **settings))
    # an empty stack runs the same path, with shared or (0,) settings
    empty = np.zeros((0, 4, 2)), np.zeros((0, 4, 4)), np.zeros((0, 4, 2))
    assert solve_rcg_batch(*empty, 0.5, 2.0) == []
    assert solve_rcg_batch(*empty, np.zeros(0), np.zeros(0)) == []


@pytest.mark.parametrize("reason", ["gradient_norm", "line_search_stall"])
def test_rcg_batch_that_empties_mid_iteration_matches_solo(mixed_stop_rules, monkeypatch, reason):
    # every carrier stops on one reason, so the last stop empties the stack. The gradient
    # stop empties it at the loop head; the last stalled line search empties it
    # mid-iteration and goes back to the head. Either way the loop ends there, so no
    # projection, Polak-Ribiere or norm step runs on 0 carriers
    stack, settings = _mixed_stop_instance()
    if reason == "gradient_norm":  # rho 0 from the target: the gradient stop at iteration 0
        stack, settings = (stack[2][:4], stack[1][:4], stack[2][:4]), dict(rho=0.0, power=2.0)
    else:  # the mixed batch's three stalled carriers
        stack = tuple(a[[10, 12, 15]] for a in stack)
    sizes = []
    for name in ("polak_ribiere_mu", "project_to_tangent", "_norms"):
        step = getattr(manifold, name)
        monkeypatch.setattr(manifold, name, lambda g, *a, step=step: sizes.append(len(g)) or step(g, *a))
    batch = solve_rcg_batch(*stack, **settings)
    assert sizes and 0 not in sizes
    assert {r.stop_reason for r in batch} == {reason}
    for f0, cov, f_comm, got in zip(*stack, batch):
        assert_same_result(got, solve_one(f0, cov, f_comm, **settings))


def test_rcg_converged_means_the_gradient_norm_stop(mixed_stop_rules):
    # only the gradient-norm stop is convergence: a plateau or a stalled line
    # search ends short of the stationary point, as the iteration cap does
    stack, settings = _mixed_stop_instance()
    batch = solve_rcg_batch(*stack, **settings)
    flags = {r.stop_reason: set() for r in batch}
    for r in batch:
        flags[r.stop_reason].add(r.converged)
    assert flags == {"gradient_norm": {True}, "objective_plateau": {False},
                     "line_search_stall": {False}, "max_iterations": {False}}


def test_rcg_batch_with_rho_and_power_per_carrier_matches_solo_scalar_calls(mixed_stop_rules):
    # (B,) arrays of rho and power: each carrier as if solved alone with its
    # own scalars, on every stop reason
    stack, settings = _mixed_stop_instance(per_carrier=True)
    batch = solve_rcg_batch(*stack, **settings)
    assert {r.stop_reason for r in batch} == {
        "gradient_norm", "line_search_stall", "objective_plateau", "max_iterations"
    }
    for f0, cov, f_comm, rho, power, got in zip(*stack, settings["rho"], settings["power"], batch):
        assert_same_result(got, solve_one(f0, cov, f_comm, float(rho), float(power)))
    # a shared rho or power may come as a scalar or as a (B,) array
    stack, settings = _mixed_stop_instance()
    shared = solve_rcg_batch(*stack, **settings)
    for got, want in zip(solve_rcg_batch(*stack, rho=np.full(17, 0.5), power=2.0), shared):
        assert_same_result(got, want)


def test_float_power_squares_like_libm_pow():
    # the objective squares its norms with np.float_power where a scalar ``** 2``
    # calls libm pow; x * x rounds apart on about 0.1% of values, and one ulp
    # can move the absolute plateau stop
    rng = np.random.default_rng(11)
    n = 1_000_000
    x = np.r_[rng.standard_normal(n) * 10.0 ** rng.uniform(-150.0, 150.0, n), 12.428327649956394]
    want = np.array([math.pow(v, 2) for v in x.tolist()])
    assert np.count_nonzero(x * x != want) > 100
    np.testing.assert_array_equal(np.float_power(x, 2.0), want)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_stacked_objective_squares_norms_like_a_scalar(rng, rho):
    # On the last carrier both norms land on v, where libm pow(v, 2) and
    # v * v round apart; rho in {0, 1} keeps the odd square in the sum.
    v = 12.428327649956394
    assert math.pow(v, 2) != v * v
    odd = np.zeros((2, 2), dtype=complex)
    odd[0, 0] = -v
    stack = np.concatenate([random_complex(rng, (3, 2, 1)), np.zeros((1, 2, 1), dtype=complex)])
    cov = np.concatenate([random_complex(rng, (3, 2, 2)), odd[None]])
    f_comm = np.concatenate([random_complex(rng, (3, 2, 1)), odd[None, :, :1]])
    stacked = tradeoff_objective(stack, cov, f_comm, rho)
    assert stacked.shape == (4,)
    assert stacked[3] == math.pow(v, 2)
    for f, c, fc, got in zip(stack, cov, f_comm, stacked):
        # the one-matrix formula, squaring each norm as a float scalar
        want = rho * np.linalg.norm(f @ f.conj().T - c) ** 2 + (1 - rho) * np.linalg.norm(f - fc) ** 2
        assert got == want == tradeoff_objective(f, c, fc, rho)


def test_stacked_primitives_match_one_matrix_calls(rng):
    power = 2.0
    f = np.array([random_sphere_point(rng, (4, 2), power) for _ in range(5)])
    g = random_complex(rng, (5, 4, 2))
    d = random_complex(rng, (5, 4, 2))
    cov = np.array([random_psd(rng, 4, power) for _ in range(5)])
    steps = rng.uniform(0.0, 2.0, 5)
    # one rho and one power per carrier, as the RCG core passes them
    rhos = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
    powers = rng.uniform(0.5, 4.0, 5)
    stacked = (
        rcg_gradient(f, cov, g, 0.4),
        project_to_tangent(f, g, power),
        polak_ribiere_mu(g, d, f),
        tradeoff_objective(f, cov, g, rhos),
        rcg_gradient(f, cov, g, rhos),
    )
    for b in range(5):
        np.testing.assert_array_equal(stacked[0][b], rcg_gradient(f[b], cov[b], g[b], 0.4))
        np.testing.assert_array_equal(stacked[1][b], project_to_tangent(f[b], g[b], power))
        assert stacked[2][b] == polak_ribiere_mu(g[b], d[b], f[b])
        assert stacked[3][b] == tradeoff_objective(f[b], cov[b], g[b], float(rhos[b]))
        np.testing.assert_array_equal(stacked[4][b], rcg_gradient(f[b], cov[b], g[b], float(rhos[b])))
    # the line search's retraction: a column of matrices by a row of steps, with
    # one power shared or one per matrix, against each point normalized alone
    ladder = ladder_points(f, steps, d, power)
    ladder_powers = ladder_points(f, steps, d, powers)
    assert ladder.shape == ladder_powers.shape == (5, 5, 4, 2)
    for b, r in np.ndindex(5, 5):
        np.testing.assert_array_equal(ladder[b, r], _normalize(f[b] + steps[r] * d[b], np.sqrt(power)))
        np.testing.assert_array_equal(ladder_powers[b, r], _normalize(f[b] + steps[r] * d[b], np.sqrt(powers[b])))


def test_armijo_searches_run_side_by_side_as_alone():
    # each item is a different 1-d function; one ascends and fails
    scales = np.array([2.0, 1.0, 0.3, -1.0])
    phi = lambda d: (scales * d - 1.0) ** 2 + (scales < 0) * d
    phi0 = np.ones(4)
    slope = np.array([-4.0, -2.0, -0.6, -1.0])
    together = armijo_on_ladder(phi, phi0, slope)
    for b in range(4):
        alone = armijo_on_ladder(lambda d: (scales[b] * d - 1.0) ** 2 + (scales[b] < 0) * d, 1.0, slope[b])
        assert tuple(a[b] for a in together) == tuple(a[0] for a in alone)
    assert list(together[2]) == [True, True, True, False]


@pytest.mark.parametrize("per_carrier", [False, True])
def test_rcg_grad_norm_is_the_returned_points_gradient_norm(mixed_stop_rules, per_carrier):
    # the recorded norm, over sqrt(P), against one recomputed from each returned precoder, on every stop reason
    stack, settings = _mixed_stop_instance(per_carrier)
    batch = solve_rcg_batch(*stack, **settings)
    rhos, powers = (np.broadcast_to(settings[name], 17) for name in ("rho", "power"))
    assert {r.stop_reason for r in batch} == {
        "gradient_norm", "line_search_stall", "objective_plateau", "max_iterations"
    }
    for r, cov, f_comm, rho, power in zip(batch, stack[1], stack[2], rhos, powers):
        f = r.precoder
        want = np.linalg.norm(project_to_tangent(f, rcg_gradient(f, cov, f_comm, rho), power)) / np.sqrt(power)
        assert type(r.grad_norm) is float
        assert abs(r.grad_norm - want) <= 1e-12 * want, (r.stop_reason, r.grad_norm, want)
        assert r.grad_norm <= manifold.GRAD_TOL or not r.converged


# (iterations, stop_reason, objective) of each carrier of the mixed-stop batch
# above, recorded with the sequential line search (one stacked phi round per
# trial step) that the stacked Armijo ladder replaced; any change in the line
# search's arithmetic or decisions moves these.
MIXED_STOP_RECORD = [
    (45, "max_iterations", 0.6010792965588513),
    (45, "max_iterations", 0.5331578480620717),
    (43, "objective_plateau", 0.5627723864204226),
    (45, "max_iterations", 0.37700363602691656),
    (45, "max_iterations", 0.9556827185075248),
    (45, "max_iterations", 0.8857647893269565),
    (36, "objective_plateau", 0.23513758328539708),
    (45, "max_iterations", 0.7634049252605076),
    (37, "objective_plateau", 0.431389797641476),
    (45, "max_iterations", 0.6948027903946365),
    (41, "line_search_stall", 0.3829678735124877),
    (45, "max_iterations", 0.5808171596435456),
    (37, "line_search_stall", 0.4647153662458852),
    (45, "max_iterations", 0.6711999452511292),
    (45, "max_iterations", 0.7007822044511652),
    (43, "line_search_stall", 0.41774507994568527),
    (0, "gradient_norm", 9.533353224716817e-33),
]


def test_rcg_mixed_stop_batch_matches_its_record(mixed_stop_rules, monkeypatch):
    rounds = []  # (width, phi0, ok) of each call of the line search's decision
    decide = manifold._armijo_decide

    def spy(values, rungs, phi0, *args):
        final, decided, ok = decide(values, rungs, phi0, *args)
        rounds.append((values.shape[1], phi0, ok))
        return final, decided, ok

    monkeypatch.setattr(manifold, "_armijo_decide", spy)
    stack, settings = _mixed_stop_instance()
    batch = solve_rcg_batch(*stack, **settings)
    assert [(r.iterations, r.stop_reason, r.objective) for r in batch] == MIXED_STOP_RECORD
    # a stalled search fails at rung MAX_BACKTRACKS, past round 1: each stalled
    # carrier's last search, from its final objective, ran and failed in round 2
    assert manifold.LADDER_CHUNK <= MAX_BACKTRACKS
    failed = {float(g) for width, phi0, ok in rounds if width == len(_ladder()) for g in phi0[~ok]}
    stalled = {obj for _, reason, obj in MIXED_STOP_RECORD if reason == "line_search_stall"}
    assert len(stalled) == 3 and stalled <= failed


@pytest.mark.parametrize("chunk", [1, 2, 3, len(_ladder())])
def test_rcg_ladder_chunk_does_not_change_results(mixed_stop_rules, monkeypatch, chunk):
    # small chunks leave most searches undecided after round 1; at the full
    # width round 1 decides every search and round 2 never runs
    stack, settings = _mixed_stop_instance()
    want = solve_rcg_batch(*stack, **settings)
    monkeypatch.setattr(manifold, "LADDER_CHUNK", chunk)
    for got, ref in zip(solve_rcg_batch(*stack, **settings), want):
        assert_same_result(got, ref)


def _sequential_armijo(phi, phi0, slope, delta0=1.0, contraction=0.5, c=1e-4, max_backtracks=50):
    """The line search the ladder replaced: one phi round per trial step, kept verbatim."""
    phi0 = np.asarray(phi0, dtype=float)
    slope = np.asarray(slope, dtype=float)
    delta = np.full(phi0.shape, float(delta0))
    value = np.asarray(phi(delta), dtype=float)
    live = np.ones(phi0.shape, dtype=bool)  # still backtracking or polishing
    polishing = np.zeros(phi0.shape, dtype=bool)
    failed = np.zeros(phi0.shape, dtype=bool)
    began = np.zeros(phi0.shape, dtype=int)  # round in which polishing began
    rnd = 0  # every search still backtracking has backtracked rnd times
    while True:
        searching = live & ~polishing
        if np.count_nonzero(searching):
            bound = phi0 + c * delta * slope
            if rnd < max_backtracks:
                accepted = searching & (value <= bound)
            else:
                # out of backtracks: only a value above the bound fails (nan goes on)
                failed = searching & (value > bound)
                live &= ~failed
                accepted = searching & ~failed
            polishing |= accepted
            began[accepted] = rnd
        if rnd >= max_backtracks:
            live &= ~(polishing & (rnd - began == max_backtracks))
        if not np.count_nonzero(live):
            break
        trial = delta * contraction
        values = np.asarray(phi(trial), dtype=float)
        # a polishing probe that does not strictly improve ends that search
        live &= ~(polishing & (values >= value))
        delta = np.where(live, trial, delta)
        value = np.where(live, values, value)
        rnd += 1
    ok = ~failed
    if phi0.ndim == 0:
        return float(delta), float(value), bool(ok)
    return delta, value, ok


def check_ladder_against_sequential(table, phi0, slope, c, max_backtracks, chunk):
    """The table-fed decision, fed ``chunk`` rungs at a time, ends every search where
    the sequential search does, once it holds the last rung that search evaluates."""
    rows = np.arange(len(table))
    rungs = 0.5 ** np.arange(table.shape[1])  # exact: the repeated halvings of 1
    rung_of = {float(d): r for r, d in enumerate(rungs)}

    def lookup(items, steps):
        return table[items, [rung_of[float(s)] for s in np.ravel(steps)]]

    settings = dict(c=c, max_backtracks=max_backtracks)
    want = _sequential_armijo(lambda steps: lookup(rows, steps), phi0, slope, **settings)
    # the highest rung each search evaluates when run alone
    last = []
    for i in rows:
        seen = []
        _sequential_armijo(
            lambda step: seen.append(rung_of[float(step)]) or table[i, seen[-1]],
            phi0[i], slope[i], **settings,
        )
        last.append(max(seen))
    assert max(last) < table.shape[1]

    for n in range(chunk, table.shape[1] + chunk, chunk):
        n = min(n, table.shape[1])
        final, decided, ok = _armijo_decide(table[:, :n], rungs, phi0, slope, c, max_backtracks)
        np.testing.assert_array_equal(decided, np.array(last) < n)
        for i in np.flatnonzero(decided):
            assert rungs[final[i]] == want[0][i]
            np.testing.assert_array_equal(table[i, final[i]], want[1][i])
            assert ok[i] == want[2][i]
        if decided.all():
            break


LADDER_VALUES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, math.nan])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ladder_decision_equals_sequential_search(data):
    max_backtracks = data.draw(st.integers(1, 5), label="max_backtracks")
    m = data.draw(st.integers(1, 4), label="searches")
    width = 2 * max_backtracks + 2
    table = np.array(data.draw(
        st.lists(st.lists(LADDER_VALUES, min_size=width, max_size=width), min_size=m, max_size=m),
        label="table",
    ))
    phi0 = np.array(data.draw(st.lists(LADDER_VALUES, min_size=m, max_size=m), label="phi0"))
    slope = np.array(data.draw(
        st.lists(st.sampled_from([-8.0, -2.0, -0.5, 0.0, 1.0]), min_size=m, max_size=m), label="slope"
    ))
    c = data.draw(st.sampled_from([1e-4, 0.5]), label="c")
    chunk = data.draw(st.integers(1, 8), label="chunk")
    check_ladder_against_sequential(table, phi0, slope, c, max_backtracks, chunk)


NAN = math.nan


@pytest.mark.parametrize(
    "row, phi0, chunk",
    [
        # accepted on the last rung of the first chunk; its polish probe, in the
        # next chunk, ties and ends the search back on that rung
        ([3.0, 3.0, 0.5, 0.5, 0.2, 0.1, 0.0], 1.0, 3),
        # out of backtracks: the search fails on rung max_backtracks
        ([2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0], 1.0, 2),
        # out of backtracks on a nan: accepted, and polishing goes on through nan
        ([2.0, 2.0, 2.0, NAN, NAN, 1.0, 0.5], 1.0, 4),
        # ties: a probe equal to the current value ends polishing
        ([1.0, 0.5, 0.5, 0.25, 0.0, 0.0, 0.0], 1.0, 2),
        # every polishing probe improves: it stops after max_backtracks of them
        ([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3], 1.0, 5),
    ],
)
def test_ladder_decision_edge_tables(row, phi0, chunk):
    table = np.array([row])
    check_ladder_against_sequential(table, np.array([phi0]), np.array([-0.5]), 1e-4, 3, chunk)
