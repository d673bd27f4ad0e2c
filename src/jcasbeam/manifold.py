"""Riemannian conjugate gradient on the fixed-power sphere of precoders.

The feasible set is { F : ||F||_F^2 = P }. The solver minimizes the weighted
tradeoff between matching a sensing covariance and staying close to the
communications precoder,

    gamma(F) = rho * ||F F^H - R||_F^2 + (1 - rho) * ||F - F_hat||_F^2,

using projected gradients, Polak-Ribiere (nonnegative) conjugate directions
with transport by projection onto the new tangent space, an Armijo
backtracking line search along the normalization retraction, and monotone
descent by construction. Its rules are module constants, read at call time:
the line search's ``CONTRACTION``, ``ARMIJO_C`` and ``MAX_BACKTRACKS``, and
the stops ``GRAD_TOL``, ``PLATEAU_TOL``, ``PLATEAU_RUNS`` and ``MAX_ITER``.

One RCG core, :func:`solve_rcg_batch`, serves every caller; one carrier is a
stack of one. It runs a stack of carriers ``(B, n_tx, n_streams)`` through
stacked numpy calls: the geometry primitives below act on every matrix of a
stack ``(..., n, m)``, and every carrier keeps its own Armijo step, accepted
flag, Polak-Ribiere coefficient, plateau counter and stop reason. The running
operands are gathered again only when a carrier stops, and the core steps
until every carrier is done.

The Armijo line search runs on a ladder. Its trial steps are fixed rungs, rung
r being CONTRACTION**r, so the values of a whole chunk of rungs
(``LADDER_CHUNK``) are known before any is judged: one :func:`retract` of the
column of running carriers by the row of rungs, and one stacked objective
call, evaluate every carrier at every rung of the chunk, and carriers still
undecided at its end get the next chunk. One routine, ``_armijo_decide``,
reads each carrier's row of values and finds where a sequential backtracking
search (with its polishing probes) would end. The rungs are formed by the same
repeated multiplication by ``CONTRACTION`` as a shrinking step (exact powers
for the contraction 0.5 used here), so each rung is bit for bit the step the
sequential search tries at that round, and the ladder ends every search on the
same step with the same value. The accepted rung's retracted point, already
computed on the ladder, becomes the new iterate. The ladder keeps only points
and values: its residuals F F^H - R, (n_tx, n_tx) per rung, would be its
largest table, so the gradient's residual is formed again at the new
iterate, by the same per-matrix products, which keeps a batch's peak memory
small.

Exactness: the plateau stop is absolute (``PLATEAU_TOL`` = 1e-10 against an
objective of order P^2), so it is sensitive to roundoff: a 1-ulp change in one
objective value can move the stop iteration and the returned precoder by
~1e-5. The stacked code therefore repeats the one-matrix arithmetic bit for
bit. Products are the per-matrix BLAS calls of a stacked matmul. A Frobenius
norm is two BLAS dots over the strided real and imaginary parts (what
``np.linalg.norm`` does on one matrix, not ``norm(axis=...)``), an inner
product is the conjugating BLAS dot that ``np.vdot`` makes (through
``np.vecdot``), and a norm is squared by libm ``pow``, as a float scalar's
``** 2`` is, not as ``x * x``, which rounds differently on about 0.1% of
values. The stack squares all its norms in one ``np.float_power(x, 2.0)``
call, whose loop calls that same ``pow`` (a test holds it equal to
``math.pow`` on a million values). A per-carrier rho or power enters each
product as the scalar would, elementwise. So a carrier's result is the same
whatever batch it runs in, and whatever rho and power its neighbours have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# the line search of the RCG solver
CONTRACTION = 0.5
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 50
# rungs evaluated per stacked round: 99.9% of searches are decided within the first 7
LADDER_CHUNK = 7
# the stopping rules of the RCG solver (see solve_rcg_batch); the gradient
# tolerance is relative, GRAD_TOL * sqrt(P)
GRAD_TOL = 1e-6
PLATEAU_TOL = 1e-10
PLATEAU_RUNS = 3
MAX_ITER = 500
# Every step a search can try, up to the last polishing probe: rung r is
# CONTRACTION**r, formed by repeated multiplication as a search shrinks its step.
_RCG_RUNGS = np.cumprod(np.r_[1.0, np.full(2 * MAX_BACKTRACKS, CONTRACTION)])
_RUNG_STEPS = _RCG_RUNGS[:, None, None]  # the rungs, shaped to scale a stack of directions


def _each(values):
    """Values shaped like a stack's leading axes, made to broadcast over its matrices."""
    return np.asarray(values)[..., None, None]


def _norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., n, m) stack, shaped (...).

    ``np.linalg.norm`` of one complex matrix is sqrt(re.re + im.im), two BLAS
    dots over the strided real and imaginary views (one dot for a real
    matrix); ``np.vecdot`` over those views makes the same dots per matrix.
    """
    flat = mats.reshape(-1, mats.shape[-2] * mats.shape[-1])
    if not np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat, flat)).reshape(mats.shape[:-2])
    parts = flat[..., None].view(np.float64)  # (B, n, re/im)
    sq = np.vecdot(parts, parts, axis=1)
    return np.sqrt(sq[:, 0] + sq[:, 1]).reshape(mats.shape[:-2])


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product Re tr(A^H B) of each matrix pair, broadcast over the leading axes.

    ``np.vecdot`` conjugates its first operand with the BLAS complex dot that
    ``np.vdot`` makes on one pair.
    """
    n = a.shape[-2] * a.shape[-1]
    return np.vecdot(a.reshape(a.shape[:-2] + (n,)), b.reshape(b.shape[:-2] + (n,))).real


def _residual_objective(f: np.ndarray, cov: np.ndarray, f_comm: np.ndarray, rho, rho_c):
    """The residuals F F^H - R and the objective values of a (..., n_tx, n_streams) stack.

    ``rho`` and ``rho_c`` = 1 - rho broadcast against the stack's leading
    axes. Each norm is squared by libm ``pow`` (``np.float_power``), as a
    scalar ``** 2`` squares it.
    """
    comm = np.float_power(_norms(f - f_comm), 2.0)
    gram = f @ f.conj().mT
    # in place on a complex stack: on the line-search ladder these are the largest temporaries
    resid = np.subtract(gram, cov, out=gram if gram.dtype.kind == "c" else None)
    sens = np.float_power(_norms(resid), 2.0)
    return resid, rho * sens + rho_c * comm


def tradeoff_objective(f: np.ndarray, cov: np.ndarray, f_comm: np.ndarray, rho):
    """gamma(F) of each precoder of a (..., n_tx, n_streams) stack, shaped (...)."""
    return _residual_objective(f, cov, f_comm, rho, 1.0 - rho)[1]


def _gradient(f: np.ndarray, resid: np.ndarray, f_comm: np.ndarray, c_sens, c_comm) -> np.ndarray:
    """Euclidean gradient at ``f`` from its residual F F^H - R; c_sens = 4 rho, c_comm = 2 (1 - rho)."""
    return c_sens * (resid @ f) + c_comm * (f - f_comm)


def tradeoff_gradient(f: np.ndarray, cov: np.ndarray, f_comm: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean (conjugate-coordinate) gradient of the tradeoff objective, per matrix."""
    return _gradient(f, f @ f.conj().mT - cov, f_comm, 4.0 * rho, 2.0 * (1.0 - rho))


def project_to_tangent(f: np.ndarray, g: np.ndarray, power) -> np.ndarray:
    """Remove the radial component of g at the sphere point f (||f||^2 = power).

    ``g`` may carry more leading axes than ``f``: a stack of vectors at each
    point is projected in one call. ``power`` is a float or one per point.
    """
    return g - _each(_inner(f, g) / power) * f


def _normalize(v: np.ndarray, root) -> np.ndarray:
    """Scale each matrix of a stack onto the power sphere of radius ``root`` = sqrt(P).

    ``root`` broadcasts against the stack: a float, or one per matrix shaped
    like the leading axes with two trailing unit axes.
    """
    return root * v / _each(_norms(v))


def retract(f: np.ndarray, step, direction: np.ndarray, power: float) -> np.ndarray:
    """Move along ``direction`` then renormalize back onto the power sphere.

    ``step`` broadcasts over the leading axes of the stack: one float, one
    step per matrix, or, as the line search uses it, a row of steps against
    a column of matrices.
    """
    return _normalize(f + _each(step) * direction, math.sqrt(power))


def polak_ribiere_mu(g_new: np.ndarray, g_prev: np.ndarray, g_prev_transported: np.ndarray):
    """Nonnegative Polak-Ribiere coefficient of each matrix; zero resets to steepest descent."""
    denom = _inner(g_prev, g_prev)
    num = _inner(g_new, g_new - g_prev_transported)
    ratio = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
    return np.where(ratio > 0.0, ratio, 0.0)


def _armijo_decide(values, rungs, phi0, slope, c, max_backtracks):
    """Armijo decision of each search from its values at the first rungs.

    ``values`` is (m, n): row i holds search i's objective at ``rungs[:n]``.
    Returns (final, decided, ok), each (m,). A decided search ends on rung
    ``final``; an undecided one needs values at more rungs. Values appended
    later never change a decision already made.

    The rule is the sequential backtracking search's. The first rung whose
    value is within the sufficient-decrease bound is accepted. At rung
    ``max_backtracks`` any value not above the bound is accepted, nan
    included; a value above it fails the search, which ends there with ok
    False. An accepted search then steps on to the next rung while its value
    does not rise, for at most ``max_backtracks`` steps: the first acceptable
    step often straddles the 1-d minimizer, and stopping there makes descent
    stagnate, while a shorter step only weakens the required decrease.
    """
    m, n = values.shape
    r = np.arange(n)
    bound = phi0[:, None] + c * rungs[:n] * slope[:, None]
    sufficient = values <= bound
    if n > max_backtracks:
        last = max_backtracks
        sufficient[:, last] = ~(values[:, last] > bound[:, last])
        sufficient[:, last + 1 :] = False
    accepted = sufficient.any(axis=1)
    first = np.argmax(sufficient, axis=1)
    rise = np.zeros((m, n), dtype=bool)
    rise[:, 1:] = values[:, 1:] >= values[:, :-1]
    rise &= r > first[:, None]
    rose = rise.any(axis=1)
    # polishing ends on the rung before the first rise, or after max_backtracks steps
    final = np.minimum(np.where(rose, np.argmax(rise, axis=1) - 1, n), first + max_backtracks)
    failed = ~accepted & (n > max_backtracks)
    final[failed] = max_backtracks
    decided = failed | accepted & (rose | (first + max_backtracks < n))
    return final, decided, ~failed


def _line_search(f, direction, cov, f_comm, rho, rho_c, root, gamma, slope):
    """Armijo searches of a stack of carriers along the retraction, on the ladder.

    The carriers' ``rho`` and ``rho_c`` = 1 - rho come shaped (B, 1) and
    ``root`` = sqrt(P) shaped (B, 1, 1, 1), to broadcast over the rungs.
    Each round retracts the undecided carriers to the next ``LADDER_CHUNK``
    rungs and evaluates them in one stacked call; the first round takes
    every carrier. Returns (value, ok, f_new): each carrier's objective,
    success flag and retracted point at its final rung, where a sequential
    backtracking search would end.
    """
    todo = slice(None)
    tables = None  # points and values of every carrier at the rungs so far
    while True:
        lo = 0 if tables is None else tables[1].shape[1]
        steps = _RUNG_STEPS[lo : lo + LADDER_CHUNK]
        points = _normalize(f[todo, None] + steps * direction[todo, None], root[todo])
        values = _residual_objective(points, cov[todo, None], f_comm[todo, None], rho[todo], rho_c[todo])[1]
        chunk = (points, values)
        if tables is None:
            tables = chunk
        else:
            tables = tuple(_append_rows(t, new, todo) for t, new in zip(tables, chunk))
        final, decided, ok = _armijo_decide(
            tables[1], _RCG_RUNGS, gamma, slope, ARMIJO_C, MAX_BACKTRACKS
        )
        if decided.all():
            break
        todo = ~decided
    points, values = tables
    rows = np.arange(len(final))
    return values[rows, final], ok, points[rows, final]


def _append_rows(table: np.ndarray, new: np.ndarray, rows) -> np.ndarray:
    """``table`` (m, n, ...) with ``new`` appended as further columns of ``rows``.

    The other rows get zeros there; their decisions are already made.
    """
    more = np.zeros(table.shape[:1] + new.shape[1:], dtype=table.dtype)
    more[rows] = new
    return np.concatenate([table, more], axis=1)


@dataclass(frozen=True)
class RcgResult:
    """Solver output with the objective trace of its descent."""

    precoder: np.ndarray
    objective: float
    objective_trace: np.ndarray  # gamma per iterate, monotone nonincreasing
    iterations: int
    converged: bool
    stop_reason: str


def solve_rcg_batch(
    f0: np.ndarray,
    cov: np.ndarray,
    f_comm: np.ndarray,
    rho,
    power,
) -> list[RcgResult]:
    """Minimize the tradeoff objective on each carrier of a stack, from ``f0``.

    ``f0`` and ``f_comm`` are (B, n_tx, n_streams), ``cov`` is (B, n_tx, n_tx);
    ``rho`` and ``power`` are each a float shared by every carrier or a (B,)
    array, one per carrier. Each carrier stops on its own: when its
    Riemannian gradient norm is at most ``GRAD_TOL * sqrt(power)``, when its
    objective decrease is at most ``PLATEAU_TOL`` for ``PLATEAU_RUNS``
    consecutive iterations, when its line search cannot make progress, or
    after ``MAX_ITER`` iterations. The trace of each carrier's descent is on
    its :class:`RcgResult`. A carrier's result is the same bit for bit
    whatever batch it runs in, a batch of one included (see the module
    docstring). A power whose starting objective is not finite (it overflows
    near P = 1e154) raises :class:`ConfigError` naming the first such power.
    """
    n_car = len(f0)
    if n_car == 0:
        return []
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (n_car,))
    power = np.broadcast_to(np.asarray(power, dtype=float), (n_car,))
    # per-carrier coefficients, shaped to broadcast where they are used
    rho_c = 1.0 - rho
    root = np.sqrt(power)[:, None, None, None]  # against the (B, rungs, n_tx, n_streams) ladder
    c_sens, c_comm = _each(4.0 * rho), _each(2.0 * rho_c)
    grad_tol = GRAD_TOL * np.sqrt(power)
    rho_w, rho_cw = rho[:, None], rho_c[:, None]  # against the ladder's (B, rungs) values

    f = _normalize(f0, root[:, 0])
    with np.errstate(over="ignore"):  # an overflow is reported below
        resid, gamma = _residual_objective(f, cov, f_comm, rho, rho_c)
    if not np.all(np.isfinite(gamma)):
        bad = power[np.argmin(np.isfinite(gamma))]
        raise ConfigError(f"power budget {bad:g} is too large: the RCG objective, of order P^2, overflows")
    grad = project_to_tangent(f, _gradient(f, resid, f_comm, c_sens, c_comm), power)
    direction = -grad
    grad_norm = _norms(grad)

    trace = np.empty((n_car, MAX_ITER + 1))
    trace[:, 0] = gamma
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
        nonlocal power, root, c_sens, c_comm, grad_tol, rho_w, rho_cw
        idx = act[done]
        final_f[idx] = f[done]
        final_gamma[idx] = gamma[done]
        iterations[idx] = it
        for i in idx:
            reasons[i] = reason
        keep = ~done
        (act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm,
         power, root, c_sens, c_comm, grad_tol, rho_w, rho_cw) = (
            a[keep] for a in (act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm,
                              power, root, c_sens, c_comm, grad_tol, rho_w, rho_cw)
        )
        return [a[keep] for a in extra]

    while act.size:
        if it >= MAX_ITER:
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
            direction = np.where(_each(lost), -grad, direction)
            slope = np.where(lost, -np.float_power(grad_norm, 2.0), slope)

        value, ok, f_new = _line_search(f, direction, cov, f_comm, rho_w, rho_cw, root, gamma, slope)
        stall = ~ok & (value >= gamma)
        if np.count_nonzero(stall):
            value, f_new = drop(stall, "line_search_stall", value, f_new)
            if not act.size:
                break

        # the new gradient, and the old gradient and direction transported to f_new, in one projection
        euclid = _gradient(f_new, f_new @ f_new.conj().mT - cov, f_comm, c_sens, c_comm)
        moved = project_to_tangent(f_new, np.stack([euclid, grad, direction]), power)
        grad_new, grad_moved, direction_moved = moved
        mu = polak_ribiere_mu(grad_new, grad, grad_moved)
        direction = -grad_new + _each(mu) * direction_moved

        decrease = gamma - value
        f, grad, gamma = f_new, grad_new, value
        it += 1
        grad_norm = _norms(grad)
        trace[act, it] = gamma

        plateau = np.where(np.abs(decrease) <= PLATEAU_TOL, plateau + 1, 0)
        flat = plateau >= PLATEAU_RUNS
        if np.count_nonzero(flat):
            drop(flat, "objective_plateau")

    return [
        RcgResult(
            precoder=final_f[c],
            objective=float(final_gamma[c]),
            # a copy, so the batch's (B, MAX_ITER + 1) table is freed on return
            objective_trace=trace[c, : iterations[c] + 1].copy(),
            iterations=int(iterations[c]),
            converged=reasons[c] != "max_iterations",
            stop_reason=reasons[c],
        )
        for c in range(n_car)
    ]
