"""Riemannian conjugate gradient on the fixed-power sphere of precoders.

The feasible set is { F : ||F||_F^2 = P }. The solver minimizes the weighted
tradeoff between matching a sensing covariance and staying close to the
communications precoder,

    gamma(F) = rho * ||F F^H - R||_F^2 + (1 - rho) * ||F - F_hat||_F^2,

using projected gradients, Polak-Ribiere (nonnegative) conjugate directions
with projection-based transport, an Armijo backtracking line search along the
normalization retraction, and monotone descent by construction.

One RCG core, :func:`solve_rcg_batch`, serves every caller. It runs a stack
of carriers ``(B, n_tx, n_streams)`` through stacked numpy calls: the geometry
primitives below accept a leading carrier axis, and every carrier keeps its
own Armijo step, accepted flag, backtrack and polish counts, Polak-Ribiere
coefficient, plateau counter and stop reason. A line-search round evaluates
every carrier of the current iteration, masks decide which values are kept,
and the running operands are gathered again only when a carrier stops. The
core steps until every carrier is done. :func:`solve_rcg` is a batch of one.

Exactness: the plateau stop is absolute (``plateau_tol`` = 1e-10 against an
objective of order P^2), so it is sensitive to roundoff: a 1-ulp change in one
objective value can move the stop iteration and the returned precoder by
~1e-5. The stacked code therefore repeats the one-matrix arithmetic bit for
bit. A Frobenius norm is two BLAS dots over the strided real and imaginary
parts (what ``np.linalg.norm`` does on one matrix, not ``norm(axis=...)``),
an inner product is the conjugating BLAS dot that ``np.vdot`` makes (through
``np.vecdot``), and a norm is squared by libm ``pow``, as a float scalar's
``** 2`` is, not as ``x * x``, which rounds differently on about 0.1% of
values. So a carrier's result is the same whatever batch it runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _ctranspose(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def _each(values, like: np.ndarray):
    """Per-matrix values shaped to broadcast over the matrices of ``like``; scalars pass."""
    if getattr(values, "ndim", 0) == 0:
        return values
    return values.reshape(like.shape[:-2] + (1, 1))


def _norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, m) stack, as a (B,) array.

    ``np.linalg.norm`` of one complex matrix is sqrt(re.re + im.im), two BLAS
    dots over the strided real and imaginary views (one dot for a real
    matrix); ``np.vecdot`` over those views makes the same dots per matrix.
    """
    flat = mats.reshape(-1, mats.shape[-2] * mats.shape[-1])
    if not np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat, flat))
    parts = flat[..., None].view(np.float64)  # (B, n, re/im)
    sq = np.vecdot(parts, parts, axis=1)
    return np.sqrt(sq[:, 0] + sq[:, 1])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product Re tr(A^H B) of each matrix pair, as a (B,) array.

    ``np.vecdot`` conjugates its first operand with the BLAS complex dot that
    ``np.vdot`` makes on one pair.
    """
    n = a.shape[-2] * a.shape[-1]
    return np.vecdot(a.reshape(-1, n), b.reshape(-1, n)).real


def tradeoff_objective(f: np.ndarray, cov: np.ndarray, f_comm: np.ndarray, rho: float):
    """gamma(F): a float for one precoder, a (B,) array for a (B, n_tx, n_streams) stack.

    Each norm is squared by ``math.pow``, as a scalar ``** 2`` squares it.
    """
    sens = _norms(f @ _ctranspose(f) - cov).tolist()
    comm = _norms(f - f_comm).tolist()
    gamma = [rho * math.pow(s, 2) + (1.0 - rho) * math.pow(c, 2) for s, c in zip(sens, comm)]
    return gamma[0] if f.ndim == 2 else np.array(gamma)


def tradeoff_gradient(f: np.ndarray, cov: np.ndarray, f_comm: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean (conjugate-coordinate) gradient of the tradeoff objective, per matrix."""
    return 4.0 * rho * ((f @ _ctranspose(f) - cov) @ f) + 2.0 * (1.0 - rho) * (f - f_comm)


def project_to_tangent(f: np.ndarray, g: np.ndarray, power: float) -> np.ndarray:
    """Remove the radial component of g at the sphere point f (||f||^2 = power)."""
    return g - _each(_inner(f, g) / power, f) * f


def retract(f: np.ndarray, step, direction: np.ndarray, power: float) -> np.ndarray:
    """Move along ``direction`` then renormalize back onto the power sphere.

    ``step`` is one float, or one step per matrix of a stack.
    """
    v = f + _each(step, f) * direction
    return math.sqrt(power) * v / _each(_norms(v), v)


def transport(f_new: np.ndarray, g: np.ndarray, power: float) -> np.ndarray:
    """Carry a tangent vector to the new point by projecting onto its tangent space."""
    return project_to_tangent(f_new, g, power)


def polak_ribiere_mu(g_new: np.ndarray, g_prev: np.ndarray, g_prev_transported: np.ndarray):
    """Nonnegative Polak-Ribiere coefficient; zero resets to steepest descent.

    A float for one matrix, a (B,) array for a stack.
    """
    denom = _inner(g_prev, g_prev)
    num = _inner(g_new, g_new - g_prev_transported)
    ratio = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
    mu = np.where(ratio > 0.0, ratio, 0.0)
    return float(mu[0]) if g_new.ndim == 2 else mu


def armijo_step(
    phi,
    phi0,
    slope,
    delta0: float = 1.0,
    contraction: float = 0.5,
    c: float = 1e-4,
    max_backtracks: int = 50,
):
    """Backtracking line search on ``phi``, for one or many independent searches.

    ``phi0`` and ``slope`` are floats, or arrays with one search per item; then
    ``phi`` maps an array of steps to the array of values. Returns
    (delta, value, ok): ok is True when the sufficient-decrease condition
    phi(delta) <= phi0 + c * delta * slope held; otherwise the last trial point
    is returned so the caller can decide whether it still helps.

    An accepted step is polished by probing further contractions while they
    strictly improve. The first acceptable step often straddles the 1-d
    minimizer (phi(delta) can sit barely below phi0 on the far side of the
    valley), and stopping there makes descent stagnate; the probe costs one
    evaluation and keeps the sufficient-decrease condition intact, since
    shrinking delta only weakens the required decrease.

    Each search takes the trial steps it would take alone. Every round
    evaluates ``phi`` on all items at once and keeps the values of the items
    still searching or polishing.
    """
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


@dataclass(frozen=True)
class RcgResult:
    """Solver output with the full descent trace for diagnostics."""

    precoder: np.ndarray
    objective: float
    objective_trace: np.ndarray  # gamma per iterate, monotone nonincreasing
    gradient_norms: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str


def solve_rcg_batch(
    f0: np.ndarray,
    cov: np.ndarray,
    f_comm: np.ndarray,
    rho: float,
    power: float,
    grad_tol: float | None = None,
    max_iter: int = 500,
    plateau_tol: float = 1e-10,
    plateau_runs: int = 3,
    callback=None,
) -> list[RcgResult]:
    """Minimize the tradeoff objective on each carrier of a stack, from ``f0``.

    ``f0`` and ``f_comm`` are (B, n_tx, n_streams), ``cov`` is (B, n_tx, n_tx);
    ``rho`` and ``power`` are shared. Each carrier stops on its own, with the
    rules of :func:`solve_rcg`, and its result is bit-identical to solving it
    alone. ``callback(it, carriers, f, grad)`` runs after every iteration with
    the indices of the carriers that took it and their stacked iterates.
    """
    if grad_tol is None:
        grad_tol = 1e-6 * np.sqrt(power)
    n_car = len(f0)
    if n_car == 0:
        return []

    f = np.sqrt(power) * f0 / _each(_norms(f0), f0)
    gamma = tradeoff_objective(f, cov, f_comm, rho)
    grad = project_to_tangent(f, tradeoff_gradient(f, cov, f_comm, rho), power)
    direction = -grad
    grad_norm = _norms(grad)

    trace = np.empty((n_car, max_iter + 1))
    grad_norms = np.empty((n_car, max_iter + 1))
    trace[:, 0] = gamma
    grad_norms[:, 0] = grad_norm
    final_f = np.empty_like(f)
    final_gamma = np.empty(n_car)
    iterations = np.zeros(n_car, dtype=int)
    reasons = [""] * n_car
    act = np.arange(n_car)  # original index of each running carrier
    plateau = np.zeros(n_car, dtype=int)
    it = 0

    def drop(done, reason, *extra):
        """Record the carriers in ``done`` as stopped and gather the rest (and ``extra``)."""
        nonlocal act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm
        idx = act[done]
        final_f[idx] = f[done]
        final_gamma[idx] = gamma[done]
        iterations[idx] = it
        for i in idx:
            reasons[i] = reason
        keep = ~done
        act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm = (
            a[keep] for a in (act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm)
        )
        return [a[keep] for a in extra]

    while act.size:
        if it >= max_iter:
            drop(np.ones(act.size, dtype=bool), "max_iterations")
            break
        small = grad_norm <= grad_tol
        if np.count_nonzero(small):
            drop(small, "gradient_norm")
            if not act.size:
                break

        slope = _inner(grad, direction)
        lost = slope >= 0.0
        if np.count_nonzero(lost):
            # conjugate direction lost descent; fall back to steepest descent
            direction = np.where(_each(lost, direction), -grad, direction)
            slope = np.where(lost, [-math.pow(g, 2) for g in grad_norm.tolist()], slope)

        def phi(step):
            return tradeoff_objective(retract(f, step, direction, power), cov, f_comm, rho)

        delta, value, ok = armijo_step(phi, gamma, slope)
        stall = ~ok & (value >= gamma)
        if np.count_nonzero(stall):
            delta, value = drop(stall, "line_search_stall", delta, value)
            if not act.size:
                break

        f_new = retract(f, delta, direction, power)
        grad_new = project_to_tangent(f_new, tradeoff_gradient(f_new, cov, f_comm, rho), power)
        mu = polak_ribiere_mu(grad_new, grad, transport(f_new, grad, power))
        direction = -grad_new + _each(mu, f_new) * transport(f_new, direction, power)

        decrease = gamma - value
        f, grad, gamma = f_new, grad_new, value
        it += 1
        grad_norm = _norms(grad)
        trace[act, it] = gamma
        grad_norms[act, it] = grad_norm
        if callback is not None:
            callback(it, act, f, grad)

        plateau = np.where(np.abs(decrease) <= plateau_tol, plateau + 1, 0)
        flat = plateau >= plateau_runs
        if np.count_nonzero(flat):
            drop(flat, "objective_plateau")

    return [
        RcgResult(
            precoder=final_f[c],
            objective=float(final_gamma[c]),
            objective_trace=trace[c, : iterations[c] + 1],
            gradient_norms=grad_norms[c, : iterations[c] + 1],
            iterations=int(iterations[c]),
            converged=reasons[c] != "max_iterations",
            stop_reason=reasons[c],
        )
        for c in range(n_car)
    ]


def solve_rcg(
    f0: np.ndarray,
    cov: np.ndarray,
    f_comm: np.ndarray,
    rho: float,
    power: float,
    grad_tol: float | None = None,
    max_iter: int = 500,
    plateau_tol: float = 1e-10,
    plateau_runs: int = 3,
    callback=None,
) -> RcgResult:
    """Minimize the tradeoff objective over the fixed-power sphere from ``f0``.

    Stops when the Riemannian gradient norm falls below ``grad_tol``
    (default 1e-6 * sqrt(power)), when the objective decrease stays below
    ``plateau_tol`` for ``plateau_runs`` consecutive iterations, when the line
    search cannot make progress, or after ``max_iter`` iterations.
    ``callback(it, f, grad)`` runs after every iteration.

    This is the batched core, :func:`solve_rcg_batch`, run on a batch of
    one. The plateau test is absolute (1e-10 against an objective of order
    P^2), so it is sensitive to roundoff: one ulp can move the stop
    iteration. The core therefore repeats this one-carrier arithmetic
    exactly (see the module docstring), and a carrier solved in any batch
    returns this result bit for bit.
    """
    step_hook = None if callback is None else (lambda it, _, f, grad: callback(it, f[0], grad[0]))
    return solve_rcg_batch(
        np.asarray(f0)[None],
        np.asarray(cov)[None],
        np.asarray(f_comm)[None],
        rho,
        power,
        grad_tol=grad_tol,
        max_iter=max_iter,
        plateau_tol=plateau_tol,
        plateau_runs=plateau_runs,
        callback=step_hook,
    )[0]
