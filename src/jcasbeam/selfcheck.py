"""Fast numerical self-diagnostics runnable from the command line.

Each check exercises one mathematical invariant the design relies on. They
use small random instances, finish in a couple of seconds combined, and are
meant to catch a broken build or numerics environment, not replace the test
suite.
"""

from __future__ import annotations

import numpy as np

from .beamgrid import build_grid
from .config import SystemConfig
from .covariance import solve_radar_covariance
from .errors import SolverError
from .manifold import (
    project_to_tangent,
    retract,
    solve_rcg_batch,
    tradeoff_gradient,
    tradeoff_objective,
)
from .pipeline import run_design
from .precoding import waterfill


def _random_sphere_point(rng, shape, power):
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.sqrt(power) * f / np.linalg.norm(f)


def _random_psd(rng, n, scale):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return scale * m / np.trace(m).real


def run_selfcheck(seed: int = 0):
    """Run all checks; returns (all_ok, [(name, ok, detail), ...])."""
    rng = np.random.default_rng(seed)
    checks = []
    power = 4.0
    n_tx, n_streams = 4, 2

    # tangent projection kills the radial component, retraction restores power
    f = _random_sphere_point(rng, (n_tx, n_streams), power)
    g = rng.standard_normal((n_tx, n_streams)) + 1j * rng.standard_normal((n_tx, n_streams))
    tangent = project_to_tangent(f, g, power)
    radial = abs(np.real(np.vdot(f, tangent)))
    checks.append(("tangency", radial <= 1e-8 * power, f"residual {radial:.2e}"))
    moved = retract(f, 0.7, tangent, power)
    norm_err = abs(np.linalg.norm(moved) ** 2 - power)
    checks.append(("retraction-norm", norm_err <= 1e-9 * power, f"error {norm_err:.2e}"))

    # directional derivative through the retraction matches the gradient
    cov = _random_psd(rng, n_tx, power)
    f_comm = _random_sphere_point(rng, (n_tx, n_streams), power)
    rho = 0.6
    direction = project_to_tangent(f, g, power)
    direction /= np.linalg.norm(direction)
    rgrad = project_to_tangent(f, tradeoff_gradient(f, cov, f_comm, rho), power)
    analytic = float(np.real(np.vdot(rgrad, direction)))
    h = 1e-6
    fd = (
        tradeoff_objective(retract(f, h, direction, power), cov, f_comm, rho)
        - tradeoff_objective(retract(f, -h, direction, power), cov, f_comm, rho)
    ) / (2 * h)
    rel = abs(fd - analytic) / max(1.0, abs(analytic))
    checks.append(("gradient-derivative", rel <= 1e-5, f"relative error {rel:.2e}"))

    # descent trace never increases
    result = solve_rcg_batch(f_comm[None], cov[None], f_comm[None], rho, power)[0]
    increases = float(np.max(np.diff(result.objective_trace), initial=0.0))
    checks.append(("descent-monotone", increases <= 1e-10, f"max increase {increases:.2e}"))

    # water-filling satisfies its optimality conditions
    gains = rng.uniform(0.1, 4.0, size=6)
    total, noise = 2.5, 0.7
    (powers,), (level,), _ = waterfill(gains[None], total, noise)
    budget_err = abs(powers.sum() - total)
    kkt_err = 0.0
    for p, gval in zip(powers, gains):
        if p > 0:
            kkt_err = max(kkt_err, abs(level - (noise / gval + p)))
        else:
            kkt_err = max(kkt_err, max(0.0, level - noise / gval))
    ok = budget_err <= 1e-8 and kkt_err <= 1e-8
    checks.append(("waterfill-kkt", ok, f"budget {budget_err:.2e} kkt {kkt_err:.2e}"))

    # covariance solve returns a feasible matrix: 3 antennas, one target at broadside
    grid = build_grid(SystemConfig(
        n_tx=3, n_rx=1, n_streams=1, n_subcarriers=1, n_jcas=1, grid_size=21,
        target_angles=(0.0,), mainlobe_halfwidth=20.0,
    ))
    try:
        sol = solve_radar_covariance(grid, 2.0)[0]
        diag_err = float(np.max(np.abs(np.diag(sol.matrix) - 2.0 / 3.0)))
        min_eig = float(np.linalg.eigvalsh(sol.matrix)[0])
        ok = diag_err <= 1e-8 and min_eig >= -1e-8
        detail = f"diag error {diag_err:.2e} min eig {min_eig:.2e}"
    except SolverError as exc:
        ok, detail = False, str(exc)
    checks.append(("covariance-feasible", ok, detail))

    # a miniature end-to-end design completes with sane outputs
    cfg = SystemConfig(
        n_tx=4,
        n_rx=2,
        n_streams=2,
        n_subcarriers=6,
        n_jcas=2,
        power_budget=2.0,
        grid_size=41,
        target_angles=(-40.0, 30.0),
        seed=seed,
    )
    try:
        res = run_design(cfg)
        norms = np.array([np.linalg.norm(res.precoders[k]) ** 2 for k in range(6)])
        ok = (
            np.all(np.isfinite(res.rates))
            and np.all(res.rates >= 0)
            and np.max(np.abs(norms - cfg.effective_power)) <= 1e-6 * cfg.effective_power
        )
        detail = f"avg rate {res.avg_rate:.3f}"
    except Exception as exc:  # a smoke check reports rather than propagates
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    checks.append(("design-smoke", ok, detail))

    return all(ok for _, ok, _ in checks), checks
