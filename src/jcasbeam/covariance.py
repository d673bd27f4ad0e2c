"""Radar covariance design: match a desired beampattern under per-antenna power.

Per subcarrier this solves

    minimize_R   sum_t | p_t - a_t^H R a_t |
    subject to   diag(R) = P / n_tx,   R Hermitian,   R psd

with an operator-splitting (ADMM) scheme over the off-diagonal entries of R.
The uniform diagonal is built into the parametrization, the absolute-error
objective becomes a soft-threshold step on per-angle residuals, and the psd
constraint is enforced through a consensus copy projected by eigenvalue clip.

One ADMM core serves every caller. It runs on the unit-budget problem
(target ``q = mask - 1`` for the grid's binary mask), so tolerances behave
identically for any transmit power, and it is batched over a leading carrier
axis, each carrier stopping exactly where it would if solved alone. Power
enters only in the finish, and the normalized target of the mask is the
same at every power, so one solve per subcarrier serves every power. The
finish is one stacked call on a (power, subcarrier) array: it scales the
unit-budget solves, sets their diagonals and polishes them by alternating
psd and diagonal projections, each matrix leaving at its own round. Each
is scored through the ADMM's own pattern map, a^H R a = P + g . x(R), so
its objective is the one the ADMM minimizes, scaled by P.

Convergence note: the optimum generically sits on the psd boundary with many
active pattern kinks, a degenerate geometry where splitting methods slow to a
crawl near the end. The solver stops early once its primal residual is below
``TOL``; otherwise it accepts the iterate at ``MAX_ITER`` provided the residual
is below the coarse ``FALLBACK_TOL``, whose objective error is far inside the
accuracy anything downstream consumes, and raises otherwise. The solver keeps
only what these rules read, and computes it only where they read it. The
primal residual is hypot(p1, p2), with p1 the pattern half and p2 the psd
consensus half, so it is below ``TOL`` only where p1 is: p2 is computed on
an iteration where some carrier's p1 is below ``TOL``, on the iterations
that rebalance the penalties (with the dual residual), and on the last
iteration, whose primal residual a capped carrier reports. These rules, and
the polish's, are fixed module constants, read at call time. No rule reads
the duality gap each solution reports: it is built once, after the solve,
from the pattern dual each carrier recorded at its stop, and bounds how far
the returned objective can lie above the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamgrid import BeamGrid
from .errors import SolverError

# Over-relaxation and per-block penalty balancing; both penalties start at 1.
OVERRELAX = 1.6
BALANCE_EVERY = 100
BALANCE_RATIO = 3.0
# Stopping rules, on the primal residual of the unit-budget problem (so in raw
# units they read TOL * P and FALLBACK_TOL * P): stop early below TOL; at
# MAX_ITER accept an iterate below FALLBACK_TOL, else raise SolverError.
TOL = 1e-6
FALLBACK_TOL = 1e-2
MAX_ITER = 5000
# The finished matrix alternates psd and diagonal projections until its
# minimum eigenvalue is at least POLISH_FLOOR * min(1, P), for at most
# POLISH_MAX_ROUNDS: relative to the power below P = 1, so a small power's
# matrix is polished as far as a unit power's.
POLISH_FLOOR = -1e-10
POLISH_MAX_ROUNDS = 200


def psd_project(mat: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) Hermitian psd matrix: symmetrize, clip eigenvalues.

    Works on one (n, n) matrix or a stack (..., n, n).
    """
    herm = 0.5 * (mat + mat.conj().mT)
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.maximum(vals, 0.0)[..., None, :]) @ vecs.conj().mT


def _herm_params(mats: np.ndarray, upper, lower) -> np.ndarray:
    """Packed params (..., 2M, 1) of the Hermitian part 0.5 * (A + A^H), read off the triangles."""
    flat = mats.reshape(mats.shape[:-2] + (mats.shape[-1] ** 2,))  # not -1, which an empty stack cannot infer
    half = 0.5 * (flat[..., upper] + flat[..., lower].conj())
    return np.ascontiguousarray(half).view(np.float64)[..., None]


def _unpack(x: np.ndarray, n: int, upper, lower, diag_value: float) -> np.ndarray:
    """(..., 2M, 1) params -> Hermitian (..., n, n) with uniform diagonal."""
    vals = np.ascontiguousarray(x[..., 0]).view(complex)
    r = np.zeros(x.shape[:-2] + (n * n,), dtype=complex)
    r[..., upper] = vals
    r[..., lower] = vals.conj()
    r[..., :: n + 1] = diag_value
    return r.reshape(x.shape[:-2] + (n, n))


def _pattern_matrix(steering: np.ndarray, iu) -> np.ndarray:
    """Rows g_t with a_t^H R a_t = budget + g_t . x for unit-modulus steering.

    ``steering`` holds the K' carriers to map, (K', T, n_tx); the result is
    (K', T, 2M). Column 2i multiplies the real part of the i-th
    upper-triangle entry of R, column 2i+1 its imaginary part. The loop maps
    one carrier at a time, so no temporary the size of the stack is made.
    The covariance stage has no other pattern formula.
    """
    g = np.empty(steering.shape[:2] + (2 * len(iu[0]),))
    for g_k, a in zip(g, steering):
        w = np.conj(a[:, iu[0]]) * a[:, iu[1]]  # (T, M)
        g_k[:, 0::2] = 2.0 * w.real
        g_k[:, 1::2] = -2.0 * w.imag
    return g


def _triangles(n: int):
    iu = np.triu_indices(n, 1)
    return iu[0] * n + iu[1], iu[1] * n + iu[0]  # flat positions of the upper triangle and of its mirror


def _objectives(mats, powers, g, q) -> np.ndarray:
    """sum_t |P q_t - g_t . x(R)| = sum_t |P (q_t + 1) - a_t^H R a_t| per (power, carrier).

    Matrices (P, K, n, n) with diagonal P / n at powers (P,) give (P, K).
    Each sum runs along the last axis: a pair has the same bits in any stack.
    """
    gx = g @ _herm_params(mats, *_triangles(mats.shape[-1]))  # (P, K, T, 1)
    return np.sum(np.abs(powers[:, None, None] * q - gx[..., 0]), axis=-1)


def _dual_bounds(mats, g, q, duals) -> np.ndarray:
    """Per carrier (K,), a lower bound on the objective of every feasible matrix, over the power.

    With m = q + 1 the mask, for any lam in [-1, 1]^T and any real
    diagonal D, every R psd with diagonal P / n has
    sum_t |P m_t - a_t^H R a_t| >= P (lam . m - lambda_max(A(lam) - D) - tr D / n),
    with A(lam) = sum_t lam_t a_t a_t^H: each |e_t| >= lam_t e_t, and
    tr((A - D) R) <= P lambda_max(A - D). A(lam) is (sum lam) I plus an
    off-diagonal part whose upper triangle packs as g^T lam / 2, so with D
    shifted by sum lam, which moves no bound, the bound over P reads
    lam . q - lambda_max(A_off - D) - tr D / n. Here lam is the duals
    (K, T, 1) clipped to [-1, 1], and D comes from complementary slackness
    with the carriers' matrices (K, n, n): where (A_off - D) R = mu R, row i
    gives d_i + mu = Re<R_i, (A_off R)_i> / |R_i|^2, and the shift mu moves
    no bound either.
    """
    n = mats.shape[-1]
    lam = np.clip(duals, -1.0, 1.0)
    a_off = _unpack(0.5 * (g.mT @ lam), n, *_triangles(n), 0.0)
    d = np.real(np.sum(mats.conj() * (a_off @ mats), axis=-1)) / np.sum(np.abs(mats) ** 2, axis=-1)
    top = np.linalg.eigvalsh(a_off - d[..., None] * np.eye(n))[..., -1]
    return (q @ lam)[:, 0] - top - np.sum(d, axis=-1) / n  # q @ lam: one dot per carrier


def _soft_threshold(v: np.ndarray, kappa) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def _set_penalty_inverses(solve_mat, g, b1, b2, rows) -> None:
    """Set ``solve_mat[c]`` to inv(b1 G^T G + 2 b2 I) of each carrier ``c`` in ``rows``.

    These are the ADMM's x-update systems: ``g`` is the (K, T, 2M) pattern
    map, ``solve_mat`` (K, 2M, 2M), the penalties ``b1`` and ``b2`` (K, 1, 1).
    Each system is formed from its carrier's slice of ``g`` when it is
    inverted: G_c^T G_c, which has the bits of ``(g.mT @ g)[c]``, is scaled
    by b1 in place and gets 2 b2 added on its diagonal, which gives the bits
    of ``(b1 * (g.mT @ g) + b2 * (2 I))[c]``. It is inverted alone, by the
    LAPACK call a stacked ``inv`` makes for it: one carrier's system and
    inverse at a time, so no G^T G or system stack is kept or made.
    """
    diag = np.arange(g.shape[-1])
    for c in rows:
        mat = g[c].mT @ g[c]
        mat *= b1[c]
        mat[diag, diag] += 2.0 * b2[c, 0]
        solve_mat[c] = np.linalg.inv(mat)


@dataclass(frozen=True)
class CovarianceSolution:
    """Result of one covariance solve, with convergence diagnostics attached.

    ``converged`` records whether the tight stopping tolerance was met; a
    False value means the fallback acceptance fired at the iteration cap.
    ``residual`` is the final primal residual of the unit-budget problem, the
    value the stopping rules compare with ``TOL`` and ``FALLBACK_TOL``.
    ``gap`` certifies the objective: (objective - bound) / objective, with
    the bound a lower bound on the objective of every feasible matrix, built
    from the ADMM's pattern dual at its stop; the optimum lies within
    ``gap * objective`` below the objective. A zero objective is optimal,
    with gap 0. A negative gap says the matrix is not feasible to that
    precision: no feasible matrix scores below the bound.
    """

    matrix: np.ndarray            # Hermitian psd with exact uniform diagonal
    objective: float              # sum_t |p_t - a^H R a| at the returned matrix
    iterations: int
    converged: bool
    residual: float
    gap: float


def _admm_unit(g, q, n):
    """Run ADMM on the unit-budget problem for a stack of carriers.

    ``g`` (K, T, 2M) is the carriers' pattern map for ``n`` antennas and
    ``q`` (T,) the normalized target they share; each carrier starts from
    the uniform budget. Carriers share only the stacked calls: each has its
    own penalties and balancing, and stops at the iteration where its primal
    residual drops below ``TOL`` or at ``MAX_ITER``, whichever comes first.
    The loop's one record block records a stopped carrier's iterate,
    residual, dual and iteration count, and the carrier stays in the stack,
    which runs on until every carrier has stopped: a stack whose carriers
    stop far apart keeps paying for the stopped ones, which the measured
    workloads seldom do (a few carriers, at most a few hundred iterations
    before the cap). The iterates are
    column stacks (K, m, 1), so every product is one stacked ``@`` that
    makes the same BLAS call per carrier as the one-carrier formula, and a
    squared norm is ``v.mT @ v``: a carrier's iterates are bit-identical
    whatever batch it runs in. Each x-update system b1 G^T G + 2 b2 I is
    formed from its carrier's slice of ``g`` when it is inverted, one
    carrier at a time, every carrier at the start and at a rebalance only
    those whose penalties changed. So the loop holds only G, the inverses
    and the iterates: no G^T G stack, and no copy or temporary of a whole
    (K, 2M, 2M) stack. A single antenna, whose x is empty, and an empty
    stack run the same loop as any other.

    Returns the stacked recorded iterates (K, n, n), Hermitian with
    diagonal 1 / n, per carrier (K,) the iteration count, the
    ``converged`` flag (the residual below ``TOL``) and the final primal
    residual, and the carriers'
    pattern duals -b1 u (K, T, 1) at their stops, which a rebalance does
    not change (it scales b1 and u inversely, exactly).
    """
    n_car, n_grid = g.shape[:2]
    upper, lower = _triangles(n)
    diag_value = 1.0 / n
    q = q[:, None]  # a column, like the iterates
    gt = g.mT                                        # (K, 2M, T), a view like g.T: same BLAS kernel

    beta = np.ones((2, n_car, 1, 1))  # per carrier, the pattern-residual and psd-consensus block penalties
    b1, b2 = beta  # views: a rebalance scales beta in place
    solve_mat = np.empty((n_car, g.shape[2], g.shape[2]))
    _set_penalty_inverses(solve_mat, g, b1, b2, range(n_car))
    b2x2, inv_b1 = 2.0 * b2, 1.0 / b1

    x = np.zeros((n_car, g.shape[2], 1))
    z = q - g @ x
    r_mat = _unpack(x, n, upper, lower, diag_value)  # its diagonal stays; each iteration writes the rest
    r_flat = r_mat.reshape(n_car, n * n)  # a view; not -1, which an empty stack cannot infer
    s = psd_project(r_mat)
    u = np.zeros((n_car, n_grid, 1))
    u_mat = np.zeros((n_car, n, n), dtype=complex)

    final_x = np.empty_like(x)
    final_dual = np.empty_like(u)
    final_primal = np.empty(n_car)
    iterations = np.zeros(n_car, dtype=int)  # 0 while a carrier runs

    for it in range(MAX_ITER):
        if iterations.all():  # every carrier has stopped; an empty stack runs no iteration
            break
        y = _herm_params(s - u_mat, upper, lower)
        q_z = q - z
        x = solve_mat @ (b1 * (gt @ (q_z - u)) + b2x2 * y)

        gx = g @ x
        vals = x[..., 0].view(complex)
        r_flat[:, upper] = vals
        r_flat[:, lower] = vals.conj()
        gx_rel = OVERRELAX * gx + (1.0 - OVERRELAX) * q_z
        r_mat_rel = OVERRELAX * r_mat + (1.0 - OVERRELAX) * s
        z_old, s_old = z, s
        z = _soft_threshold(q - gx_rel - u, inv_b1)
        s = psd_project(r_mat_rel + u_mat)
        u = u + gx_rel + z - q
        u_mat = u_mat + (r_mat_rel - s)

        # p2 only where a rule reads it: hypot(p1, p2) >= p1 stops no carrier
        # until some p1 is below TOL (see the module docstring)
        res = gx + z - q
        p1 = np.sqrt(res.mT @ res)[:, 0, 0]
        balance = (it + 1) % BALANCE_EVERY == 0
        if not (balance or it == MAX_ITER - 1 or np.count_nonzero(p1 < TOL)):
            continue
        r_diff = (r_mat - s).reshape(n_car, n * n, 1)
        re, im = r_diff.real, r_diff.imag
        p2 = np.sqrt(re.mT @ re + im.mT @ im)[:, 0, 0]
        primal = np.hypot(p1, p2)

        # Rebalancing: a block's penalty doubles where its primal residual dominates
        # the dual one and halves where the dual dominates, and its scaled dual takes
        # the inverse step, exactly (a power of two). It leaves x alone, so a carrier
        # that stops below keeps its iterate whether or not it was rebalanced first.
        if balance:
            dz = gt @ (z - z_old)
            ds = _herm_params(s - s_old, upper, lower)
            dual = beta * np.stack([np.sqrt(dz.mT @ dz), np.sqrt(2.0 * np.sum(ds**2, axis=(1, 2), keepdims=True))])
            prim = np.stack([p1, p2])[..., None, None]
            step = np.where(prim > BALANCE_RATIO * np.maximum(dual, 1e-300), 2.0,
                            np.where(dual > BALANCE_RATIO * prim, 0.5, 1.0))
            beta *= step
            b2x2, inv_b1 = 2.0 * b2, 1.0 / b1
            u /= step[0]
            u_mat /= step[1]
            changed = np.any(step != 1.0, axis=(0, 2, 3))
            _set_penalty_inverses(solve_mat, g, b1, b2, np.flatnonzero(changed))

        done = ((primal < TOL) | (it == MAX_ITER - 1)) & (iterations == 0)
        final_x[done] = x[done]
        final_dual[done] = -b1[done] * u[done]
        final_primal[done] = primal[done]
        iterations[done] = it + 1
    return _unpack(final_x, n, upper, lower, diag_value), iterations, final_primal < TOL, final_primal, final_dual


def _finished(unit: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Unit-budget solves (K, n, n) scaled to every power (P,) and polished: (P, K, n, n).

    The solves are Hermitian by construction (each lower triangle is the
    conjugate of the upper), so each scaled matrix is too. Its diagonal is
    set to power / n, then psd and diagonal projections alternate until its
    minimum eigenvalue is at least ``POLISH_FLOOR * min(1, power)``, for at
    most ``POLISH_MAX_ROUNDS``; it leaves the loop at its own round, bit for
    bit.
    """
    n = unit.shape[-1]
    diag = np.arange(n)
    out = powers[:, None, None, None] * unit
    out[..., diag, diag] = (powers / n)[:, None, None]
    flat = out.reshape((-1, n, n))
    diag_values = flat[:, diag, diag]
    floors = np.repeat(POLISH_FLOOR * np.minimum(1.0, powers), len(unit))
    todo = np.arange(len(flat))
    for _ in range(POLISH_MAX_ROUNDS):
        todo = todo[~(np.linalg.eigvalsh(flat[todo])[:, 0] >= floors[todo])]
        if todo.size == 0:
            break
        polished = psd_project(flat[todo])
        polished[:, diag, diag] = diag_values[todo]
        flat[todo] = polished
    return flat.reshape(out.shape)


def solve_radar_covariances(grid: BeamGrid, powers, subcarriers) -> list[dict[int, CovarianceSolution]]:
    """Covariances of the mask pattern for every subcarrier at every power, at once.

    The desired pattern at power P is P times the grid's binary mask, whose
    normalized target ``mask - 1`` does not depend on P, so each subcarrier
    is solved once, in one batched ADMM call, and every (power, subcarrier)
    pair is then finished in one stacked call (scale, polish) and scored
    through the pattern map the ADMM fits, built once from the solved rows.
    Returns one ``{k: solution}`` dict per power, in the order of
    ``powers``. A solve whose residual at ``MAX_ITER`` misses even
    ``FALLBACK_TOL`` raises a :class:`SolverError` that names the first
    failing subcarrier and carries its last iterate at the first listed
    power, with its final residual.
    """
    ks = list(dict.fromkeys(int(k) for k in subcarriers))
    n, q = grid.n_tx, grid.desired_gain - 1.0
    g = _pattern_matrix(grid.steering(ks), np.triu_indices(n, 1))
    mats, iterations, converged, residual, duals = _admm_unit(g, q, n)
    failed = ~converged & (residual > FALLBACK_TOL)
    if failed.any():
        c = int(np.argmax(failed))
        raise SolverError(
            f"subcarrier {ks[c]}: covariance solver residual {residual[c]:.3e} after "
            f"{iterations[c]} iterations exceeds even the fallback tolerance "
            f"{FALLBACK_TOL:g} (tight tolerance {TOL:g})",
            last_iterate=powers[0] * mats[c],
            residual=float(residual[c]),
        )
    powers = np.asarray(powers, dtype=float)
    finished = _finished(mats, powers)
    objectives = _objectives(finished, powers, g, q)
    slack = objectives - powers[:, None] * _dual_bounds(mats, g, q, duals)
    gaps = np.divide(slack, objectives, out=np.zeros_like(slack), where=objectives > 0)
    stats = [(int(i), bool(c), float(r)) for i, c, r in zip(iterations, converged, residual)]
    return [
        {k: CovarianceSolution(mat, obj, *stat, gap)
         for k, mat, obj, gap, stat in zip(ks, power_mats, power_objs, power_gaps, stats)}
        for power_mats, power_objs, power_gaps in zip(finished, objectives.tolist(), gaps.tolist())
    ]


def solve_radar_covariance(
    grid: BeamGrid, power_budget: float, subcarriers=None
) -> dict[int, CovarianceSolution]:
    """Solve the covariance problem on each requested subcarrier, in one batch.

    The desired pattern is ``power_budget`` times the grid's binary mask, so a
    unit mask asks for the full budget toward each target. Returns a dict
    keyed by subcarrier index. Solver failures carry the subcarrier index.
    """
    if subcarriers is None:
        subcarriers = range(grid.n_subcarriers)
    return solve_radar_covariances(grid, [power_budget], subcarriers)[0]
