"""Riemannian conjugate gradient on the fixed-power sphere of precoders.

The feasible set is { F : ||F||_F^2 = P }. The solver minimizes the weighted
tradeoff between matching a sensing covariance and staying close to the
communications precoder,

    gamma(F) = rho * ||F F^H - R||_F^2 + (1 - rho) * ||F - F_hat||_F^2,

using projected gradients, Polak-Ribiere (nonnegative) conjugate directions
with transport by projection onto the new tangent space, an Armijo
backtracking line search along the normalization retraction, and monotone
descent by construction. Its rules are module constants: the line search's
``CONTRACTION``, ``ARMIJO_C`` and ``MAX_BACKTRACKS``, and the stops
``GRAD_TOL``, ``PLATEAU_TOL``, ``PLATEAU_RUNS`` and ``MAX_ITER``. Each is read
at call time: each solve builds its ladder of trial steps from ``CONTRACTION``
and ``MAX_BACKTRACKS`` (:func:`_ladder`).

One RCG core, :func:`solve_rcg_batch`, serves every caller; one carrier is a
stack of one. It runs a stack of carriers ``(B, n_tx, n_streams)`` through
stacked numpy calls: the geometry primitives below act on every matrix of a
stack ``(..., n, m)``, and every carrier keeps its own Armijo step, accepted
flag, Polak-Ribiere coefficient, plateau counter and stop reason. Its
per-carrier constants, sqrt(P), the gradient tolerance, 1 - rho, 4 rho and
2 (1 - rho), are formed once per solve, and each carrier input is held once:
the line search shapes the running carriers' own arrays against its row of
rungs. The running operands and these constants are gathered again only when
a carrier stops, and the core steps until every carrier is done.

The Armijo line search runs on a ladder. Its trial steps are fixed rungs, rung
r being CONTRACTION**r, so the values of many rungs are known before any is
judged: one retraction of the column of running carriers by the row of rungs,
and one objective call, evaluate every carrier at every rung of a round. Round
1 takes the first ``LADDER_CHUNK`` rungs of every carrier; the few it leaves
undecided take, in round 2, every rung of the solve's :func:`_ladder`, up to
the last polishing probe. One routine, ``_armijo_decide``, reads each carrier's
row of values and finds where a sequential backtracking search (with its
polishing probes) would end. The rungs are formed by the same repeated
multiplication by ``CONTRACTION`` as a shrinking step (exact powers for the
contraction 0.5 used here), so each rung is bit for bit the step the
sequential search tries at that round: the ladder ends every search on the
same step with the same value, and its retracted point becomes the new
iterate.
The objective forms each trial point's residual F F^H - R on the way to its
value. The line search keeps the final rung's residual, and the gradient at
the new iterate reads it, as the first gradient reads the starting point's,
so each point the solver visits forms one gram, not two. A round's tables,
residuals included, are freed when it returns, round 1's before round 2 is
built, and a kept residual is dropped once the gradient has read it. So a
ladder's tables are the largest arrays alive (a test bounds a batch's peak
memory on the ``link`` benchmark's J=16 batches).

At rho = 1 the minimizers are known in closed form: every F = L Q, with L the
top-``n_streams`` eigenfactor of R, its eigenvalues projected onto the scaled
simplex by water-filling's ``precoding.simplex_projection``, and Q unitary, attains
the least gamma, and :func:`strict_precoders` gives the one nearest F_hat, the strict
design of Liu et al. (IEEE TSP 2018). Its Riemannian gradient is at roundoff, so
an RCG started there stops at iteration 0 on its gradient test; the pipeline
starts its rho = 1 carriers there (``pipeline.refine_carriers``).

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
``math.pow`` on a million values). The primitives take a rho or a power per
carrier, which enters each product as the scalar would, elementwise, and the
core calls them with its carriers' own. So a carrier's result is the same
whatever batch it runs in, and whatever rho and power its neighbours have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_powers
from .precoding import simplex_projection

# the line search of the RCG solver
CONTRACTION = 0.5
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 50
# the rungs of the line search's first round, which decides 99.9% of searches
LADDER_CHUNK = 7
# the stopping rules of the RCG solver (see solve_rcg_batch); the gradient
# tolerance is relative, GRAD_TOL * sqrt(P)
GRAD_TOL = 1e-6
PLATEAU_TOL = 1e-10
PLATEAU_RUNS = 3
MAX_ITER = 500


def _ladder() -> np.ndarray:
    """Every step a search can try, up to the last polishing probe: 2 * MAX_BACKTRACKS + 1 rungs.

    Rung r is CONTRACTION**r, formed by repeated multiplication as a search
    shrinks its step.
    """
    return np.cumprod(np.r_[1.0, np.full(2 * MAX_BACKTRACKS, CONTRACTION)])


def _each(values):
    """Values shaped like a stack's leading axes, made to broadcast over its matrices."""
    return np.asarray(values)[..., None, None]


def _norms(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex (..., n, m) stack, shaped (...).

    ``np.linalg.norm`` of one complex matrix is sqrt(re.re + im.im), two BLAS
    dots over the strided real and imaginary views; ``np.vecdot`` over those
    views makes the same dots per matrix.
    """
    flat = mats.reshape(-1, mats.shape[-2] * mats.shape[-1])
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


def _objective(f, cov, f_comm, rho, rho_c):
    """gamma(F) of each precoder of a stack, shaped (...), and its residual F F^H - R.

    ``rho`` and ``rho_c``, which is 1 - rho, broadcast against the leading axes.
    """
    comm = np.float_power(_norms(f - f_comm), 2.0)
    resid = f @ f.conj().mT
    # in place: on the line-search ladder these residuals are the largest temporaries
    np.subtract(resid, cov, out=resid)
    return rho * np.float_power(_norms(resid), 2.0) + rho_c * comm, resid


def _gradient(f, resid, f_comm, four_rho, two_rho_c):
    """Euclidean gradient of each matrix from its residual F F^H - R.

    ``four_rho`` and ``two_rho_c`` are 4 rho and 2 (1 - rho), shaped to
    broadcast over the matrices.
    """
    return four_rho * (resid @ f) + two_rho_c * (f - f_comm)


def project_to_tangent(f: np.ndarray, g: np.ndarray, power) -> np.ndarray:
    """Remove the radial component of g at the sphere point f (||f||^2 = power).

    ``g`` may carry more leading axes than ``f``: a stack of vectors at each
    point is projected in one call. ``power`` is a float or one per point.
    """
    return g - _each(_inner(f, g) / power) * f


def _normalize(v: np.ndarray, root) -> np.ndarray:
    """Scale each matrix of a complex stack, in place, to Frobenius norm ``root``.

    ``root`` is sqrt(power), shaped to broadcast over the matrices. In place, so a
    line-search round's retraction makes no table beyond its trial points.
    """
    norms = _each(_norms(v))
    v *= root
    v /= norms
    return v


def polak_ribiere_mu(g_new: np.ndarray, g_prev: np.ndarray, g_prev_transported: np.ndarray):
    """Nonnegative Polak-Ribiere coefficient of each matrix; zero resets to steepest descent."""
    denom = _inner(g_prev, g_prev)
    num = _inner(g_new, g_new - g_prev_transported)
    ratio = np.divide(num, denom, out=np.zeros(num.shape), where=denom > 0.0)
    return np.where(ratio > 0.0, ratio, 0.0)


def _armijo_decide(values, rungs, phi0, slope, c, max_backtracks):
    """Armijo decision of each search from its values at the first rungs.

    ``values`` is (m, n): row i holds search i's objective at ``rungs[:n]``.
    Returns (final, decided, ok), each (m,). A decided search ends on rung
    ``final`` with success flag ``ok``; an undecided one needs values at more
    rungs, and its ``final``, a rung of the table, and ``ok`` are
    placeholders. Values appended later never change a decision already made.

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
    bound = phi0[:, None] + c * rungs[:n] * slope[:, None]
    sufficient = values <= bound
    wide = n > max_backtracks
    if wide:
        last = max_backtracks
        sufficient[:, last] = ~(values[:, last] > bound[:, last])
        sufficient[:, last + 1 :] = False
    # after[:, r]: the search has accepted a rung r or below, so rung r + 1 is a polishing probe
    after = np.logical_or.accumulate(sufficient, axis=1)
    # rise[:, r]: that probe does not fall below rung r, and polishing ends on rung r
    rise = values[:, 1:] >= values[:, :-1]
    rise &= after[:, :-1]
    rose = rise.any(axis=1)
    final = np.argmax(rise, axis=1) if n > 1 else np.zeros(m, dtype=np.intp)
    accepted = after[:, -1]
    if not wide:
        # no search fails and none reaches its polishing cap on a round this narrow
        return final, rose, accepted
    # polishing also ends after max_backtracks steps; an undecided search points at the last rung
    cap = np.argmax(sufficient, axis=1) + max_backtracks
    final = np.minimum(np.where(rose, final, n - 1), cap)
    final[~accepted] = max_backtracks
    return final, rose | (cap < n) | ~accepted, accepted


def _line_search(f, direction, cov, f_comm, rho, rho_c, root, gamma, slope, rungs):
    """Armijo searches of a stack of carriers along the retraction, on the ladder, in two rounds.

    ``cov``, ``f_comm``, ``rho``, ``rho_c`` (1 - rho) and ``root`` (sqrt(P)) are the
    carriers' own stacks and (B,) arrays, ``gamma`` and ``slope`` their (B,) arrays, and
    ``rungs`` is :func:`_ladder`'s. Each round shapes the rows it runs into a column
    against its row of rungs (``a[rows, None]``): in round 1, ``rows`` is a slice, so
    these are views. Round 1 takes the first ``LADDER_CHUNK`` rungs of every carrier,
    round 2 all of ``rungs`` for the searches round 1 leaves undecided. Returns (value,
    ok, f_new, resid): each carrier's objective, success flag, retracted point and its
    residual F F^H - R at its final rung, where a sequential backtracking search would
    end.
    """
    steps = rungs[:, None, None]

    def ladder(rows, n_rungs):
        """Each search of ``rows`` on the first ``n_rungs`` rungs: (value, ok, f_new, resid, decided).

        The round's tables are freed on return: only the final rung's point and residual are kept.
        """
        points = _normalize(f[rows, None] + steps[:n_rungs] * direction[rows, None], root[rows, None, None, None])
        values, resid = _objective(points, cov[rows, None], f_comm[rows, None], rho[rows, None], rho_c[rows, None])
        final, decided, ok = _armijo_decide(values, rungs, gamma[rows], slope[rows], ARMIJO_C, MAX_BACKTRACKS)
        pick = np.arange(len(final)), final
        return values[pick], ok, points[pick], resid[pick], decided

    value, ok, f_new, resid, decided = ladder(slice(None), LADDER_CHUNK)
    if not decided.all():
        # every rung up to the last polishing probe decides every search
        redo = ~decided
        value[redo], ok[redo], f_new[redo], resid[redo], _ = ladder(redo, len(rungs))
    return value, ok, f_new, resid


@dataclass(frozen=True)
class RcgResult:
    """Solver output with the objective trace of its descent."""

    precoder: np.ndarray
    objective: float
    objective_trace: np.ndarray  # gamma per iterate, monotone nonincreasing
    iterations: int
    converged: bool  # stopped on the gradient norm (GRAD_TOL); no other stop counts
    stop_reason: str
    grad_norm: float  # Riemannian gradient norm at the precoder, over sqrt(P)


def solve_rcg_batch(
    f0: np.ndarray,
    cov: np.ndarray,
    f_comm: np.ndarray,
    rho,
    power,
) -> list[RcgResult]:
    """Minimize the tradeoff objective on each carrier of a stack, from ``f0``.

    ``f0`` and ``f_comm`` are (B, n_tx, n_streams), ``cov`` is (B, n_tx, n_tx),
    each taken as complex; ``rho`` and ``power`` are each a float shared by
    every carrier or a (B,) array, one per carrier, which the core hands to
    the primitives as they are. Each carrier stops on its own: when its
    Riemannian gradient norm is at most ``GRAD_TOL * sqrt(power)``, when its
    objective decrease is at most ``PLATEAU_TOL`` for ``PLATEAU_RUNS``
    consecutive iterations, when its line search cannot make progress, or
    after ``MAX_ITER`` iterations. A carrier leaves the stack when it stops.
    Every stop but the stall is recorded in one block at the loop's head, in
    this order: the gradient norm, the plateau, the cap. So a carrier whose
    gradient meets the tolerance on the iteration that completes its plateau
    run, or at the cap, stops on the gradient norm, and ``converged``, which
    is true only on that stop, says whether the returned point meets the
    tolerance. The loop ends at its head when the stack is empty, whichever
    stop emptied it, so no step runs on an empty stack. The trace of each
    carrier's descent is on its
    :class:`RcgResult`, with the Riemannian gradient norm over
    sqrt(power) at the point it returns, read off the iterate's own
    gradient. A carrier's result is the same bit for bit whatever batch it
    runs in, a batch of one included (see the module docstring), and an
    empty batch, B = 0, returns no results. A rho outside [0, 1], nan
    included, raises :class:`ConfigError` naming the first such rho; so does
    a power that is not positive and finite, or whose starting objective is
    not (it overflows near P = 1e154), naming the first such power.

    The first trial step and the plateau test do not scale with the power.
    With P in the thousands some carriers reach ``MAX_ITER``, from about
    P = 1e5 all do, from about 1e12 most stop on the stall, and from about
    1e20 every carrier stalls at iteration 1. From about P = 1e103 the line
    search's trial points overflow in the norms (a ``RuntimeWarning``, no
    error), below the start objective's overflow.
    """
    f = np.array(f0, dtype=complex)  # a copy, normalized in place below
    cov, f_comm = (np.asarray(a, dtype=complex) for a in (cov, f_comm))
    n_car = len(f)
    check_powers(power)
    rho, power = (np.broadcast_to(np.asarray(a, dtype=float), (n_car,)) for a in (rho, power))
    outside = ~((rho >= 0.0) & (rho <= 1.0))  # the comparisons reject nan too
    if outside.any():
        raise ConfigError(f"rho {rho[np.argmax(outside)]:g} must lie in [0, 1]")

    rungs = _ladder()
    # per-carrier constants, gathered with the running carriers when some stop
    root = np.sqrt(power)
    tol = GRAD_TOL * root
    rho_c = 1.0 - rho
    four_rho, two_rho_c = _each(4.0 * rho), _each(2.0 * rho_c)

    f = _normalize(f, _each(root))
    with np.errstate(over="ignore"):  # an overflow is reported below
        gamma, resid = _objective(f, cov, f_comm, rho, rho_c)
    if not np.all(np.isfinite(gamma)):
        bad = power[np.argmin(np.isfinite(gamma))]
        raise ConfigError(f"power budget {bad:g} is too large: the RCG objective, of order P^2, overflows")
    grad = project_to_tangent(f, _gradient(f, resid, f_comm, four_rho, two_rho_c), power)
    del resid
    direction = -grad
    grad_norm = _norms(grad)

    trace = np.empty((n_car, MAX_ITER + 1))
    trace[:, 0] = gamma
    final_f = np.empty_like(f)
    iterations = np.zeros(n_car, dtype=int)
    reasons = np.empty(n_car, dtype=object)
    final_grad = np.empty(n_car)
    act = np.arange(n_car)  # original index of each running carrier
    plateau = np.zeros(n_car, dtype=int)
    it = 0

    def drop(done, reason, *extra):
        """Record the carriers in ``done``, if any, as stopped and gather the rest (and ``extra``)."""
        nonlocal act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm, rho, rho_c, power, root, tol
        nonlocal four_rho, two_rho_c
        if not np.count_nonzero(done):
            return extra
        idx = act[done]
        final_f[idx] = f[done]
        iterations[idx] = it
        reasons[idx] = reason
        final_grad[idx] = grad_norm[done] / root[done]
        keep = ~done
        (act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm, rho, rho_c, power, root, tol, four_rho,
         two_rho_c) = (a[keep] for a in (act, f, grad, direction, gamma, grad_norm, plateau, cov, f_comm, rho, rho_c,
                                         power, root, tol, four_rho, two_rho_c))
        return [a[keep] for a in extra]

    while True:
        # every stop but the stall, in this order: a carrier that meets two stops on one iterate takes the first
        drop(grad_norm <= tol, "gradient_norm")
        drop(plateau >= PLATEAU_RUNS, "objective_plateau")
        drop(np.full(act.size, it == MAX_ITER), "max_iterations")
        if not act.size:
            break

        slope = _inner(grad, direction)
        lost = slope >= 0.0
        if np.count_nonzero(lost):
            # conjugate direction lost descent; fall back to steepest descent
            direction = np.where(_each(lost), -grad, direction)
            slope = np.where(lost, -np.float_power(grad_norm, 2.0), slope)

        value, ok, f_new, resid = _line_search(f, direction, cov, f_comm, rho, rho_c, root, gamma, slope, rungs)
        euclid = _gradient(f_new, resid, f_comm, four_rho, two_rho_c)
        # each array is freed once read: one kept longer leaves a hole among the arrays made
        # after it, and over many solves the heap, and peak RSS, grow
        del resid
        if not ok.all():  # only a round wider than MAX_BACKTRACKS fails a search
            value, f_new, euclid = drop(~ok & (value >= gamma), "line_search_stall", value, f_new, euclid)
            if not act.size:
                continue

        # the new gradient, and the old gradient and direction transported to f_new, in one projection
        moved = np.empty((3,) + f_new.shape, dtype=complex)
        moved[0] = euclid
        moved[1] = grad
        moved[2] = direction
        del euclid
        moved = project_to_tangent(f_new, moved, power)
        grad_new, grad_moved, direction_moved = moved
        mu = polak_ribiere_mu(grad_new, grad, grad_moved)
        direction = _each(mu) * direction_moved - grad_new

        plateau = np.where(np.abs(gamma - value) <= PLATEAU_TOL, plateau + 1, 0)
        f, grad, gamma = f_new, grad_new, value
        it += 1
        grad_norm = _norms(grad)
        trace[act, it] = gamma

    return [
        RcgResult(
            precoder=final_f[c],
            objective=float(trace[c, iterations[c]]),
            # a copy, so the batch's (B, MAX_ITER + 1) table is freed on return
            objective_trace=trace[c, : iterations[c] + 1].copy(),
            iterations=int(iterations[c]),
            converged=reasons[c] == "gradient_norm",
            stop_reason=reasons[c],
            grad_norm=float(final_grad[c]),
        )
        for c in range(n_car)
    ]


def strict_precoders(cov: np.ndarray, f_comm: np.ndarray, power) -> np.ndarray:
    """The minimizers of the tradeoff objective at rho = 1 nearest ``f_comm``, one per carrier.

    At rho = 1 the objective is ||F F^H - R||^2 on ||F||^2 = P. For ``cov`` (B, n, n), ``f_comm`` (B, n, m)
    and ``power`` a float or (B,), one stacked ``eigh`` gives each R's top m eigenpairs (V, lambda); the
    eigenvalues projected onto {mu >= 0, sum mu = P} by water-filling's ``precoding.simplex_projection``
    give L = V diag(sqrt(mu)), and every F = L Q, Q unitary, attains the minimum. The one nearest
    ``f_comm`` is L polar(L^H f_comm), the polar factor U W^H of L^H f_comm = U S W^H read off one
    stacked SVD: the strict-constraint design of Liu et al., "Toward dual-functional radar-communication
    systems: optimal waveform design", IEEE TSP 2018.
    An empty stack, B = 0, gives none.
    """
    m = f_comm.shape[-1]
    w, v = (a[..., :-m - 1:-1] for a in np.linalg.eigh(cov))  # the top m eigenpairs, largest first
    lead = v * np.sqrt(simplex_projection(w, power))[..., None, :]
    u, _, wh = np.linalg.svd(lead.conj().mT @ f_comm)
    return lead @ (u @ wh)
