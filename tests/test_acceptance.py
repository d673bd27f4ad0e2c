"""Headline acceptance checks, one test and one printed verdict per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the six summary lines.
The pattern and trend checks average over many channel realizations and
together take several minutes. Two tests assert targets this implementation
provably cannot reach and therefore fail by design, printing the measured
numbers instead of loosening the thresholds (see README): the peak-to-sidelobe
clause of the beampattern check, and both quantitative bands of the spot
check. test_spot_check_error_floor, which prints no verdict, computes the
floor that puts the spot check's error band out of reach. Three more tests,
which print no verdict either, check the clauses that pass today but sit
behind those failing asserts: the peak locations, the sign of the spot
check's rate gain, and its pattern error against the floor. Each reads the
same sweeps as the failing test, from a module fixture that runs them once,
so each clause is judged on the realizations its verdict reports. One more
test reads the covariance solutions of the spot check's sweeps: the duality
gap and the status flags of every default-grid carrier. And one checks the
reason for the failing 3x clause: a semidefinite certificate that no
covariance the covariance stage can return holds every target at 3x every
sidelobe.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from jcasbeam import covariance, evaluation
from jcasbeam.beamgrid import build_grid, steering_vector
from jcasbeam.cli import main
from jcasbeam.config import SystemConfig
from jcasbeam.covariance import solve_radar_covariance, solve_radar_covariances
from jcasbeam.evaluation import sweep
from jcasbeam.manifold import project_to_tangent, simplex_projection, solve_rcg_batch
from jcasbeam.precoding import waterfill

from conftest import (disk_scan, finite_difference_gradient, ladder_points, random_complex, random_psd,
                      random_sphere_point, rcg_gradient, reference_pattern, two_stream_grid_rate,
                      waterfill_kkt_residual)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


def test_property_suite():
    """Numerical properties of the solvers, all at their stated tolerances."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    power = 2.0
    failures = []

    worst_grad = worst_norm = worst_tan = 0.0
    for _ in range(20):
        f = random_complex(rng, (4, 2))
        cov = random_psd(rng, 4, power)
        f_comm = random_complex(rng, (4, 2))
        rho = float(rng.uniform(0.05, 0.95))
        g = rcg_gradient(f, cov, f_comm, rho)
        g_fd = finite_difference_gradient(f, cov, f_comm, rho)
        worst_grad = max(worst_grad, np.linalg.norm(g - g_fd) / np.linalg.norm(g_fd))

        on_sphere = random_sphere_point(rng, (4, 2), power)
        tangent = project_to_tangent(on_sphere, random_complex(rng, (4, 2)), power)
        worst_tan = max(worst_tan, abs(np.real(np.vdot(on_sphere, tangent))))
        moved = ladder_points(on_sphere[None], [rng.uniform(0.0, 2.0)], tangent[None], power)[0, 0]
        worst_norm = max(worst_norm, abs(np.linalg.norm(moved) - np.sqrt(power)))
    if worst_grad > 1e-5:
        failures.append(f"gradient vs finite differences {worst_grad:.2e} > 1e-5")
    if worst_norm > 1e-9:
        failures.append(f"retraction norm error {worst_norm:.2e} > 1e-9")
    if worst_tan > 1e-8:
        failures.append(f"tangency residual {worst_tan:.2e} > 1e-8")

    worst_ascent = -np.inf
    for _ in range(20):
        f0 = random_sphere_point(rng, (4, 2), power)
        cov = random_psd(rng, 4, power)
        f_comm = random_sphere_point(rng, (4, 2), power)
        res = solve_rcg_batch(f0[None], cov[None], f_comm[None], float(rng.uniform(0.1, 0.9)), power)[0]
        worst_ascent = max(worst_ascent, float(np.max(np.diff(res.objective_trace))))
    if worst_ascent > 1e-12:
        failures.append(f"objective ascent {worst_ascent:.2e} in a descent trace")

    worst_kkt = 0.0
    for _ in range(20):
        gains = rng.uniform(0.05, 5.0, size=int(rng.integers(2, 6)))
        total = float(rng.uniform(0.5, 8.0))
        noise = float(rng.uniform(0.3, 2.0))
        (powers,), (level,), _ = waterfill(gains[None], total, noise)
        worst_kkt = max(worst_kkt, waterfill_kkt_residual(gains, powers, level, total, noise))
    if worst_kkt > 1e-8:
        failures.append(f"water-filling KKT residual {worst_kkt:.2e} > 1e-8")

    cfg = SystemConfig()
    grid = build_grid(cfg)
    sol = solve_radar_covariance(grid, cfg.power_budget, [0])[0]
    diag_err = float(np.max(np.abs(np.diag(sol.matrix).real - cfg.power_budget / cfg.n_tx)))
    min_eig = float(np.linalg.eigvalsh(sol.matrix)[0])
    if diag_err > 1e-8:
        failures.append(f"covariance diagonal error {diag_err:.2e} > 1e-8")
    if min_eig < -1e-8:
        failures.append(f"covariance minimum eigenvalue {min_eig:.2e} < -1e-8")

    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"property suite took {elapsed:.0f}s, budget 120s")

    _verdict(
        "properties",
        not failures,
        f"grad {worst_grad:.1e}, retract {worst_norm:.1e}, tangent {worst_tan:.1e}, "
        f"kkt {worst_kkt:.1e}, diag {diag_err:.1e}, eig {min_eig:.1e}, {elapsed:.0f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert not failures, "; ".join(failures)


def test_oracle_equivalence():
    """Solvers agree with brute-force and multistart oracles."""
    failures = []

    # Two-antenna covariance: the feasible set is one complex off-diagonal
    # entry on a disk, so the global optimum is scannable.
    power = 2.0
    cfg = SystemConfig(
        n_tx=2, n_rx=2, n_streams=1, n_subcarriers=2, n_jcas=1,
        power_budget=power, grid_size=5, target_angles=(-45.0, 45.0), seed=0,
    )
    grid = build_grid(cfg)
    desired = power * grid.desired_gain
    sol = solve_radar_covariance(grid, power, [0])[0]
    a1 = grid.steering(0)[:, 1]
    base = desired - power  # a^H R a = power + 2 Re(z a1)
    z_best, best = disk_scan(base, a1, power, 0.0, power / 2, 401)
    z_best, best = disk_scan(base, a1, power, z_best, power / 200, 201)
    gap = sol.objective - best
    if not abs(gap) <= 1e-2 * power:
        failures.append(f"covariance objective off brute force by {gap:.3e}")

    # Water-filling vs an exhaustive two-stream split.
    rng = np.random.default_rng(5)
    worst_wf = 0.0
    for _ in range(5):
        gains = rng.uniform(0.2, 5.0, size=2)
        total = float(rng.uniform(0.5, 4.0))
        (powers,), _, _ = waterfill(gains[None], total, 1.0)
        wf_rate = float(np.sum(np.log2(1 + gains * powers)))
        worst_wf = max(worst_wf, abs(wf_rate - two_stream_grid_rate(gains, total)))
    if worst_wf > 1e-6:
        failures.append(f"water-filling off grid oracle by {worst_wf:.2e}")

    # Refinement solver vs a 50-start oracle on small instances.
    rng = np.random.default_rng(11)
    worst_gap = -np.inf
    for _ in range(10):
        p = 2.0
        cov = random_psd(rng, 4, p)
        f_comm = random_sphere_point(rng, (4, 2), p)
        rho = float(rng.uniform(0.2, 0.8))
        single = solve_rcg_batch(f_comm[None], cov[None], f_comm[None], rho, p)[0].objective
        starts = np.array([random_sphere_point(rng, (4, 2), p) for _ in range(50)])
        stack = np.repeat(cov[None], 50, axis=0), np.repeat(f_comm[None], 50, axis=0)
        oracle = min(r.objective for r in solve_rcg_batch(starts, *stack, rho, p))
        worst_gap = max(worst_gap, single - oracle)
    if worst_gap > 1e-3:
        failures.append(f"refinement misses the multistart optimum by {worst_gap:.2e}")

    _verdict(
        "oracles",
        not failures,
        f"covariance gap {gap:+.2e}, waterfill gap {worst_wf:.1e}, "
        f"multistart gap {worst_gap:+.2e}"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert not failures, "; ".join(failures)


def _peak_offsets(pattern, angles, targets) -> dict:
    """Distance in degrees from each target to the nearest interior local maximum of ``pattern``."""
    interior_max = (pattern[1:-1] >= pattern[:-2]) & (pattern[1:-1] >= pattern[2:])
    peak_angles = angles[1:-1][interior_max]
    return {target: float(np.min(np.abs(peak_angles - target))) for target in targets}


@pytest.fixture(scope="module")
def pattern_sweep():
    """The 20-realization pattern sweep of the beampattern checks, run once: (pattern, angles, seconds taken)."""
    t0 = time.monotonic()
    res = sweep(SystemConfig(), snrs=[10.0], rhos=[0.5], jcas_counts=[16], n_realizations=20)
    return res.pattern_avg[(0.5, 16)], res.angles, time.monotonic() - t0


def test_beampattern_shape(pattern_sweep):
    """Averaged emitted pattern peaks at the targets and dominates sidelobes.

    The peak-location clause passes. The 3x peak-to-sidelobe clause cannot:
    the covariance stage fits the binary mask by least absolute deviations
    under a fixed uniform diagonal, and that optimum provably carries a
    near-peak-height lobe around +-13 degrees (the certified interior-point
    optimum of the same problem has it too: its highest peak stands 1.016,
    1.043 and 1.124 times the +-13 degree lobe on carriers 0, 31 and 63). A
    semidefinite certificate shows no feasible covariance holds all four
    target gains at 3x the sidelobe level on this array: four mainlobes at
    +-30/+-60 with an inter-lobe gap narrower than the array beamwidth
    exhaust what an 8-element pattern can shape. The assert below records
    that honestly. The time budget is the pattern sweep's own time.
    """
    cfg = SystemConfig()
    pat, angles, elapsed = pattern_sweep

    offsets = _peak_offsets(pat, angles, cfg.target_angles)
    mainlobes = np.zeros(angles.shape, dtype=bool)
    for target in cfg.target_angles:
        mainlobes |= np.abs(angles - target) <= cfg.mainlobe_halfwidth
    sidelobe = float(pat[~mainlobes].max())
    peak = float(pat.max())

    failures = []
    for target, off in offsets.items():
        if off > 2.0:
            failures.append(f"no local maximum within 2 deg of {target:g} (closest {off:.1f})")
    if peak < 3.0 * sidelobe:
        failures.append(f"peak {peak:.3f} below 3x sidelobe {sidelobe:.3f}")
    if elapsed > 600.0:
        failures.append(f"took {elapsed:.0f}s, budget 600s")

    _verdict(
        "beampattern",
        not failures,
        "peak offsets "
        + ", ".join(f"{t:g}:{o:.1f}deg" for t, o in sorted(offsets.items()))
        + f"; peak/sidelobe {peak / sidelobe:.2f}; {elapsed:.0f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )
    assert not failures, "; ".join(failures)


def test_beampattern_peaks_lie_within_2_deg_of_the_targets(pattern_sweep):
    """The peak-location clause of test_beampattern_shape, on its own and on the same 20-realization average.

    Its peaks lie 1 deg from +-30 and 2 deg from +-60.
    """
    pat, angles, _ = pattern_sweep
    offsets = _peak_offsets(pat, angles, SystemConfig().target_angles)
    assert max(offsets.values()) <= 2.0, offsets


def _pair_sum(mu, targets, sidelobes):
    """Per carrier, sum over (target t, sidelobe s) of mu_ts (a_t a_t^H - 3 a_s a_s^H).

    ``targets`` and ``sidelobes`` are (K, ., n_tx) steering rows; ``mu`` is
    (targets, sidelobes). Its inner product with R is the mu-weighted sum of
    a_t^H R a_t - 3 a_s^H R a_s.
    """
    return (targets.mT * mu.sum(axis=1)) @ targets.conj() - 3.0 * (sidelobes.mT * mu.sum(axis=0)) @ sidelobes.conj()


def _three_x_certificate(iterations=200):
    """Multipliers that no default-grid covariance holds every target gain at 3x every sidelobe.

    If R is psd with diagonal c > 0 and some mu >= 0 (not all zero) and real
    diagonal D give sum mu_ts (a_t a_t^H - 3 a_s a_s^H) - D <= 0 (negative
    semidefinite) and tr D < 0, then sum mu_ts (a_t^H R a_t - 3 a_s^H R a_s)
    <= <D, R> = c tr D < 0, so some target's gain is below 3x some sidelobe's.
    One mu serves every carrier, each with its own D. For mu on the simplex
    and a diagonal d, the least D is diag(d) + lambda_max(sum - diag(d)) I,
    of trace sum(d) + n lambda_max: projected subgradient ascent on minus that
    trace (its mean over the carriers for mu) finds mu and d. Returns the
    iterate of least worst-carrier trace as (mu, D's diagonals (K, n_tx),
    target rows, sidelobe rows), D lifted by 1e-9 so that roundoff cannot
    put the largest eigenvalue above 0.
    """
    cfg = SystemConfig()
    grid = build_grid(cfg)
    n_tx = grid.n_tx
    targets = steering_vector(cfg.target_angles, grid.frequencies[:, None], n_tx, grid.spacing)
    sidelobes = grid.steering(range(grid.n_subcarriers))[:, grid.desired_gain == 0]
    mu = np.full((targets.shape[1], sidelobes.shape[1]), 1.0 / (targets.shape[1] * sidelobes.shape[1]))
    d = np.zeros((len(targets), n_tx))
    best = (np.inf,)
    for i in range(iterations):
        w, v = np.linalg.eigh(_pair_sum(mu, targets, sidelobes) - d[:, None, :] * np.eye(n_tx))
        trace = d.sum(axis=1) + n_tx * w[:, -1]
        if trace.max() < best[0]:
            best = trace.max(), mu, d + w[:, -1:] + 1e-9
        # subgradients of the trace at the top eigenvector v: 1 - n |v_i|^2 in d_i, and
        # n (|a_t^H v|^2 - 3 |a_s^H v|^2) in mu_ts, of which only the direction is used
        top = v[:, None, :, -1]
        grad_d = 1.0 - n_tx * np.abs(top[:, 0]) ** 2
        gains_t = np.mean(np.abs(np.sum(targets.conj() * top, axis=-1)) ** 2, axis=0)
        gains_s = np.mean(np.abs(np.sum(sidelobes.conj() * top, axis=-1)) ** 2, axis=0)
        grad_mu = gains_t[:, None] - 3.0 * gains_s
        step = 1.0 / np.sqrt(i + 1.0)
        d = d - step * grad_d / np.linalg.norm(grad_d, axis=1, keepdims=True)
        mu = simplex_projection((mu - 0.1 * step * grad_mu / np.linalg.norm(grad_mu)).ravel(), 1.0).reshape(mu.shape)
    return best[1], best[2], targets, sidelobes


def test_no_default_grid_covariance_holds_every_target_at_3x_every_sidelobe():
    """The reason for test_beampattern_shape's failing 3x clause, checked with ``eigvalsh``.

    On every carrier of the default grid, the searched multipliers mu >= 0
    and diagonal D give sum mu_ts (a_t a_t^H - 3 a_s a_s^H) - D <= 0 and
    tr D < 0 (see ``_three_x_certificate``): no psd covariance with a uniform
    diagonal, as the covariance stage's are, holds all four target gains at
    3x the largest sidelobe. The sidelobes are the grid angles outside the
    mainlobes, as test_beampattern_shape takes them. About 1 s.
    """
    mu, diag, targets, sidelobes = _three_x_certificate()
    assert np.all(mu >= 0.0) and mu.sum() > 0.0
    residual = _pair_sum(mu, targets, sidelobes) - diag[:, None, :] * np.eye(diag.shape[1])
    top = np.linalg.eigvalsh(residual)[:, -1]
    assert np.all(top <= 0.0), top.max()
    assert np.all(diag.sum(axis=1) < 0.0), diag.sum(axis=1).max()


def _trend_failures(points):
    pts = {(p.rho, p.n_jcas): p for p in points}
    rhos = sorted({p.rho for p in points})
    counts = sorted({p.n_jcas for p in points})
    full = max(counts)
    failures = []
    for rho in rhos:
        prop, conv = pts[(rho, 16)], pts[(rho, full)]
        if not prop.avg_rate > conv.avg_rate:
            failures.append(
                f"rate Prop(J=16, rho={rho:g}) {prop.avg_rate:.4f} "
                f"not above Conv {conv.avg_rate:.4f}"
            )
    for count in counts:
        mses = [pts[(rho, count)].avg_mse for rho in rhos]
        if not all(b <= a + 1e-12 for a, b in zip(mses, mses[1:])):
            failures.append(f"mse not nonincreasing in rho at J={count}: {mses}")
    for rho in rhos:
        rates = [pts[(rho, count)].avg_rate for count in counts]
        if not all(b <= a + 1e-12 for a, b in zip(rates, rates[1:])):
            failures.append(f"rate not nonincreasing in J at rho={rho:g}: {rates}")
    return failures


def test_tradeoff_trends():
    """Directional trends of rate and pattern error across rho and J.

    The pattern-error metric compares emitted gains against the unit-height
    mask, so the trend is read under the unit-power rate formula where the two
    are commensurate. A failed pass is retried once on fresh realizations;
    only two consecutive failures count.
    """
    cfg = replace(SystemConfig(), rate_formula="literal")
    kwargs = dict(snrs=[10.0], rhos=[0.25, 0.5, 0.75], jcas_counts=[8, 16, 64],
                  n_realizations=20)
    failures = _trend_failures(sweep(cfg, **kwargs).points)
    retried = False
    if failures:
        retried = True
        failures = _trend_failures(
            sweep(replace(cfg, seed=cfg.seed + 1000), **kwargs).points
        )
    _verdict(
        "trends",
        not failures,
        ("second seed; " if retried else "first seed; ")
        + ("all inequalities hold" if not failures else "; ".join(failures)),
    )
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def spot_check():
    """The spot check's two 100-realization sweeps, run once: rate gain, Prop, Conv, pattern error, covariances.

    The rate gain, in percent, is that of Prop (J=16, rho=0.75) over Conv
    (J=64, rho=0.5) at 10 dB. The pattern error has every carrier sensing at
    rho=0.25, 12 dB, unit-power rates. The covariances are every solution
    the two sweeps solved, one ``{k: CovarianceSolution}`` dict per sweep:
    all 64 carriers of the default grid at the sweep's design power.
    """
    solved = []

    def recording(*args):
        out = solve_radar_covariances(*args)
        solved.extend(out)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "solve_radar_covariances", recording)
        res = sweep(SystemConfig(), snrs=[10.0], rhos=[0.5, 0.75], jcas_counts=[16, 64], n_realizations=100)
        lit = replace(SystemConfig(), rate_formula="literal")
        mse = sweep(lit, snrs=[12.0], rhos=[0.25], jcas_counts=[64], n_realizations=100).points[0].avg_mse
    pts = {(p.rho, p.n_jcas): p for p in res.points}
    prop, conv = pts[(0.75, 16)], pts[(0.5, 64)]
    return 100.0 * (prop.avg_rate - conv.avg_rate) / conv.avg_rate, prop, conv, mse, solved


def test_rate_and_mse_spot_check(spot_check):
    """Quantitative bands for the headline rate gain and the pattern error.

    Both measured values fall outside their bands for this implementation:
    the rate gain lands near +20 percent, and the pattern error cannot reach
    the band at all. The smallest achievable error against the unit mask is
    at least 0.334 on every carrier for any covariance of trace P = 1
    (certified by test_spot_check_error_floor), which is already above the
    band's upper edge, so the assert below records an expected, honest
    failure.
    """
    improvement, prop, conv, mse, _ = spot_check

    rate_ok = 40.0 <= improvement <= 80.0
    mse_ok = 0.06 <= mse <= 0.26
    _verdict(
        "spot-check",
        rate_ok and mse_ok,
        f"rate gain {improvement:.1f}% (band 40-80), "
        f"pattern error {mse:.3f} (band 0.06-0.26, feasibility floor ~0.335)",
    )
    assert rate_ok, (
        f"rate improvement {improvement:.1f}% outside the 40-80% band "
        f"(Prop {prop.avg_rate:.4f} vs Conv {conv.avg_rate:.4f} bit/s/Hz)"
    )
    assert mse_ok, (
        f"pattern error {mse:.3f} outside [0.06, 0.26]; no covariance of "
        f"trace P can go below ~0.334 against the unit mask here"
    )


def _trace_projection(mats: np.ndarray, power: float) -> np.ndarray:
    """Nearest matrices of {R psd, tr R = power} to a Hermitian stack: eigenvalues onto the simplex."""
    w, v = np.linalg.eigh(mats)
    return (v * simplex_projection(w, power)[:, None, :]) @ v.conj().mT


@pytest.fixture(scope="module")
def certified_floor():
    """Per carrier of the default grid, a certified lower bound on the spot check's pattern error.

    Its pattern error is mean_t |d_t - a_t^H F F^H a_t|^2 at P = 1, and every
    precoder on the power sphere gives an R = F F^H in {R psd, tr R = P}. So
    the convex minimum f* of that error over the set bounds every design from
    below. An accelerated projected gradient gives an R; by convexity
    f* >= f(R) - gap, with the Frank-Wolfe gap <grad f(R), R> - P
    lambda_min(grad f(R)), for any Hermitian R.
    """
    grid = build_grid(SystemConfig())
    a, d, power = grid.steering(range(grid.n_subcarriers)), grid.desired_gain, 1.0
    n_angles, n_tx = a.shape[1:]

    def error_and_gradient(r):
        e = reference_pattern(r, a) - d
        return np.mean(e**2, axis=1), (a.mT * (2.0 * e / n_angles)[:, None, :]) @ a.conj()

    # the error is quadratic in R; its Hessian's largest eigenvalue is 2/T times that of |a_t^H a_s|^2
    lipschitz = 2.0 / n_angles * np.linalg.eigvalsh(np.abs(a.conj() @ a.mT) ** 2)[:, -1, None, None]
    r = y = np.broadcast_to(power / n_tx * np.eye(n_tx, dtype=complex), (len(a), n_tx, n_tx))
    t = 1.0
    for _ in range(300):
        r_next = _trace_projection(y - error_and_gradient(y)[1] / lipschitz, power)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = r_next + (t - 1.0) / t_next * (r_next - r)
        r, t = r_next, t_next
    err, g = error_and_gradient(r)
    gap = np.real(np.sum(g.conj() * r, axis=(1, 2))) - power * np.linalg.eigvalsh(g)[:, 0]
    return err - gap


def test_spot_check_error_floor(certified_floor):
    """The spot-check's error band lies below a certified floor on every carrier.

    The floor exceeds the band's upper edge, 0.26, on all 64 carriers of the
    default grid.
    """
    floor = certified_floor
    assert np.all(floor > 0.26), f"certified floor {floor.min():.4f} on carrier {floor.argmin()} is inside the band"


def test_spot_check_rate_gain_is_positive(spot_check):
    """The sign of the spot check's rate gain, on its own and on the same 100 realizations."""
    improvement, prop, conv, _, _ = spot_check
    assert improvement > 0.0, f"Prop {prop.avg_rate:.4f} not above Conv {conv.avg_rate:.4f} bit/s/Hz"


def test_spot_check_error_is_at_least_the_certified_floor(spot_check, certified_floor):
    """The spot check's pattern error, on the same 100 realizations, is finite and not below the certified floor.

    Every carrier senses, so the error is a mean over all 64 carriers, each
    at least its own floor.
    """
    mse = spot_check[3]
    assert np.isfinite(mse) and mse >= np.mean(certified_floor), (mse, np.mean(certified_floor))


def test_covariance_gap_is_at_most_2e_4_on_every_default_grid_carrier(spot_check):
    """The duality gap and the status flags of every default-grid carrier's covariance, at both sweeps' powers.

    Most of the 64 solves stop at the iteration cap, with a primal residual
    above the tight tolerance (carriers 1 and 3 meet it, at 4,744 and 4,995
    iterations); the gap says how far its objective can lie above the
    optimum (2.4e-8 to 1.37e-4 measured). A carrier is ``converged`` exactly
    when its residual is below ``TOL``, and one that is not ran to the cap.
    """
    solved = spot_check[4]
    assert len(solved) == 2 and all(sorted(sols) == list(range(64)) for sols in solved)
    sols = [sol for power_sols in solved for sol in power_sols.values()]
    gaps = np.array([sol.gap for sol in sols])
    assert np.all((gaps >= 0.0) & (gaps <= 2e-4)), (gaps.min(), gaps.max())
    for sol in sols:
        assert sol.converged == (sol.residual < covariance.TOL), (sol.converged, sol.residual)
        assert sol.converged or sol.iterations == covariance.MAX_ITER, sol.iterations


def test_sweep_determinism(tmp_path):
    """Repeating a seeded sweep reproduces every output byte."""
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            [
                "sweep", "--seed", "7", "--snr", "10", "--rho", "0.5",
                "--jcas", "16", "--realizations", "2", "--out-dir", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    names = [
        "rates.csv", "beampattern_avg.csv", "beampattern_member.csv",
        "sweep_manifest.json",
    ]
    differing = [
        n for n in names if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()
    ]
    _verdict(
        "determinism",
        not differing,
        "byte-identical outputs" if not differing else f"differs: {differing}",
    )
    assert not differing, f"outputs differ: {differing}"
