from dataclasses import fields

import numpy as np
import pytest

from jcasbeam.beamgrid import BeamGrid
from jcasbeam.config import SPEED_OF_LIGHT, SystemConfig
from jcasbeam.manifold import _each, _gradient, _normalize, _objective

# Small but non-trivial setup: 4x2 link, 6 subcarriers, coarse angle grid.
# Covariance solves and RCG runs complete in milliseconds at this size.
SMALL = dict(
    n_tx=4,
    n_rx=2,
    n_streams=2,
    n_subcarriers=6,
    n_jcas=2,
    power_budget=2.0,
    noise_power=1.0,
    grid_size=41,
    seed=3,
)


@pytest.fixture
def small_cfg():
    return SystemConfig(**SMALL)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_sphere_point(rng, shape, power):
    f = random_complex(rng, shape)
    return np.sqrt(power) * f / np.linalg.norm(f)


def random_psd(rng, n, trace):
    a = random_complex(rng, (n, n))
    m = a @ a.conj().T
    return trace * m / np.real(np.trace(m))


def reference_pattern(mat, steering):
    """a_t^H R a_t over the grid rows, as the three-operand einsum; the tests' reference pattern.

    ``mat`` (n, n) with ``steering`` (T, n) gives (T,); stacks (..., n, n)
    and (..., T, n) broadcast over their leading axes.
    """
    return np.real(np.einsum("...ti,...ij,...tj->...t", np.conj(steering), mat, steering))


def ula_grid(angles, mask, n_tx, freq=2.0e9):
    """A one-subcarrier BeamGrid: a half-wavelength ULA at ``freq`` and a hand-made mask."""
    return BeamGrid(np.asarray(angles, dtype=float), np.array([freq]), n_tx, SPEED_OF_LIGHT / (2 * freq),
                    np.asarray(mask, dtype=float))


def rcg_objective(f, cov, f_comm, rho):
    """The tradeoff objective gamma(F) of each matrix of a stack as ``solve_rcg_batch`` forms it, shaped (...).

    ``_objective``'s value, with 1 - rho; ``rho`` is a float or one per matrix.
    """
    return _objective(f, cov, f_comm, rho, 1.0 - rho)[0]


def finite_difference_gradient(f, cov, f_comm, rho, h=1e-5):
    """Central differences of the RCG tradeoff objective over every real coordinate of f."""
    grad = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        for part in (1.0, 1.0j):
            e = np.zeros_like(f)
            e[idx] = part
            hi = rcg_objective(f + h * e, cov, f_comm, rho)
            lo = rcg_objective(f - h * e, cov, f_comm, rho)
            grad += ((hi - lo) / (2.0 * h)) * e
    return grad


def rcg_gradient(f, cov, f_comm, rho):
    """Euclidean gradient of each matrix of a stack as ``solve_rcg_batch`` forms it, shaped like ``f``.

    ``_gradient`` reads the residual F F^H - R of ``_objective``, with 4 rho and 2 (1 - rho) shaped by
    ``_each``; ``rho`` is a float or one per matrix.
    """
    rho = np.asarray(rho, dtype=float)
    rho_c = 1.0 - rho
    resid = _objective(f, cov, f_comm, rho, rho_c)[1]
    return _gradient(f, resid, f_comm, _each(4.0 * rho), _each(2.0 * rho_c))


def ladder_points(f, steps, direction, power):
    """The line search's trial points: each matrix of ``f`` (B, n, m) moved along its ``direction`` by
    each of ``steps`` (R,) and normalized to its power, (B, R, n, m).

    The form ``manifold._line_search`` writes: a column of matrices by a row of steps, with sqrt(power)
    shaped against both; ``power`` is a float or one per matrix.
    """
    steps = np.asarray(steps, dtype=float)
    root = np.sqrt(np.broadcast_to(np.asarray(power, dtype=float), (len(f),)))
    return _normalize(f[:, None] + steps[:, None, None] * direction[:, None], root[:, None, None, None])


def real_coords(mats):
    """Real coordinates (Re, Im) of each matrix of a complex (..., n, m) stack: (..., 2 n m).

    Their dot product is Re tr(A^H B), the inner product of the RCG's sphere.
    """
    flat = mats.reshape(mats.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def sphere_gradient_hessian(f, cov, f_comm, rho, power):
    """Riemannian gradient (B, n, m) and Hessian (B, 2nm, 2nm) of the RCG tradeoff objective on ||F||^2 = P.

    ``f``, ``cov`` and ``f_comm`` are stacks; ``rho`` and ``power`` floats or one per carrier. The
    Hessian, in ``real_coords``, is the Euclidean Hessian 4 rho [(eta F^H + F eta^H) F + (F F^H - R) eta]
    + 2 (1 - rho) eta, applied to each basis vector, less (Re<F, G>/P) I, G the Euclidean gradient; on
    tangent vectors, projected onto the tangent space, it is the Riemannian Hessian (Boumal 2023, 5.5).
    """
    b, n, m = f.shape
    rho, power = (np.broadcast_to(np.asarray(a, dtype=float), (b,))[:, None, None] for a in (rho, power))
    resid = f @ f.conj().mT - cov
    euclid = 4.0 * rho * (resid @ f) + 2.0 * (1.0 - rho) * (f - f_comm)
    lam = np.real(np.sum(f.conj() * euclid, axis=(-2, -1)))[:, None, None] / power
    eye = np.eye(n * m)
    basis = np.concatenate([eye, 1j * eye]).reshape(2 * n * m, n, m)[None]
    fs, rs, rh = f[:, None], resid[:, None], rho[:, None]
    d_euclid = 4.0 * rh * ((basis @ fs.conj().mT + fs @ basis.conj().mT) @ fs + rs @ basis) + 2.0 * (1.0 - rh) * basis
    hess = real_coords(d_euclid).mT - lam * np.eye(2 * n * m)
    return euclid - lam * f, hess


def tangent_curvature(f, cov, f_comm, rho, power):
    """The smallest eigenpair of each carrier's Hessian on the tangent space at f: (B,) and (B, n, m).

    The Hessian of ``sphere_gradient_hessian`` is restricted to the tangent space, F^perp in
    ``real_coords``, through the orthonormal basis that a complete QR of real_coords(F) gives past its
    first column. A negative eigenvalue marks a saddle, and its eigenvector, returned as a unit tangent
    matrix, is a direction of descent.
    """
    _, hess = sphere_gradient_hessian(f, cov, f_comm, rho, power)
    tangent = np.linalg.qr(real_coords(f)[..., None], mode="complete")[0][..., 1:]  # (B, d, d - 1)
    values, vectors = np.linalg.eigh(tangent.mT @ hess @ tangent)
    x = (tangent @ vectors[..., :1])[..., 0]
    half = x.shape[-1] // 2
    return values[:, 0], (x[:, :half] + 1j * x[:, half:]).reshape(f.shape)


def riemannian_newton(f, cov, f_comm, rho, power, steps):
    """``steps`` Riemannian Newton steps on each carrier of a stack, retracting by normalization.

    Each step solves one bordered real system per carrier, [H, F; F^T, 0] [eta; s] = [-grad; 0],
    H the Hessian of ``sphere_gradient_hessian`` and F as the border that keeps eta tangent, with
    one ``np.linalg.solve`` over the stack (Absil-Mahony-Sepulchre 2008, ch. 6). No step is
    safeguarded: from an RCG stop each step lands in the basin, and a test checks that the
    objective does not rise beyond roundoff. Returns the endpoints and the objective at each
    iterate, (steps + 1, B).
    """
    b, n, m = f.shape
    d = 2 * n * m
    root = np.sqrt(np.broadcast_to(np.asarray(power, dtype=float), (b,)))[:, None, None]
    gammas = [rcg_objective(f, cov, f_comm, rho)]
    for _ in range(steps):
        grad, hess = sphere_gradient_hessian(f, cov, f_comm, rho, power)
        system = np.zeros((b, d + 1, d + 1))
        system[:, :d, :d] = hess
        system[:, :d, d] = system[:, d, :d] = real_coords(f)  # the border keeps eta tangent
        rhs = np.zeros((b, d + 1, 1))
        rhs[:, :d, 0] = -real_coords(grad)
        x = np.linalg.solve(system, rhs)[:, :d, 0]
        step = f + (x[:, : n * m] + 1j * x[:, n * m :]).reshape(f.shape)
        f = root * step / np.linalg.norm(step, axis=(-2, -1))[:, None, None]
        gammas.append(rcg_objective(f, cov, f_comm, rho))
    return f, np.array(gammas)


def _center(state, derivatives, inside, weight):
    """Damped Newton steps on each case's barrier function at its ``weight``, toward its minimizer.

    ``derivatives(state, weight)`` gives the gradient (B, N) and Hessian (B, N, N) of each case's
    function, which is self-concordant, so the damped step 1 / (1 + sqrt(decrement)) stays in its
    domain (Nesterov-Nemirovski 1994); ``inside(state)`` (B,) guards that against roundoff, halving a
    step that leaves the domain, up to 60 times. A case stops once its Newton decrement is at most
    1e-6, or after 60 steps. The Hessian is scaled to unit diagonal before the solve.
    """
    active = np.ones(len(state), dtype=bool)
    for _ in range(60):
        grad, hess = derivatives(state, weight)
        scale = 1.0 / np.sqrt(np.diagonal(hess, axis1=1, axis2=2))
        step = -scale * np.linalg.solve(scale[:, :, None] * hess * scale[:, None, :], (scale * grad)[..., None])[..., 0]
        dec = np.maximum(-np.sum(grad * step, axis=1), 0.0)
        active &= dec > 1e-6
        if not active.any():
            break
        size = np.where(active, np.where(dec > 0.0625, 1.0 / (1.0 + np.sqrt(dec)), 1.0), 0.0)
        trial = state + size[:, None] * step
        for _ in range(60):
            out = ~inside(trial)
            if not out.any():
                break
            size[out] /= 2.0
            trial = state + size[:, None] * step
        state = trial
    return state


def interior_point_covariance(steering, mask, power):
    """The covariance problem of ``covariance.py`` solved by interior-point barrier paths, with a certificate.

    For each case, steering (T, n) of a ULA with first entry 1, ``mask`` (T,) and a power P, it
    minimizes sum_t |P m_t - a_t^H R a_t| over Hermitian R with diag R = P/n and R psd. The
    pattern reads R only through its trace and its n - 1 diagonal sums: a_t^H R a_t = P + g14_t . y,
    y the (Re, Im) of the sums at offsets 1..n-1, which are ``sel`` @ x of the off-diagonal
    parameters x (Re, Im of the upper triangle). The problem and its dual (the primal-dual pair of
    Helmberg-Rendl-Vanderbei-Wolkowicz 1996) are each solved by a log-barrier path, followed by
    damped Newton steps (Boyd-Vandenberghe 2004, 11.3), at a weight w:
    - the primal minimizes sum_t h(r_t) - log det R(x) over x, r = P m - a^H R a, where h(r) =
      min_s (w s - log(s^2 - r^2)) = u - log(1 + u) + const, u = hypot(1, w r), is the barrier of
      the epigraph of |r| with s eliminated; the pattern part of its Hessian is sel^T (g14^T
      diag(h'') g14) sel, a product of the 2(n - 1) columns;
    - the dual maximizes lam . (P m) - (P/n) sum d over |lam| < 1 and Z = Diag(d) - sum_t lam_t
      a_t a_t^H positive definite, whose value bounds every feasible objective from below (weak
      duality, as ``covariance._dual_bounds`` states it), with barriers -log det Z and
      -sum log(1 - lam^2).
    The weight starts at 2T + n over the objective at x = 0 and grows tenfold a round for 11
    rounds, which certifies a relative gap of about 1e-10; each path's point stays strictly
    feasible. Returns R (B, n, n), the objective at R (B,) and the certified relative gap
    (objective - dual value) / objective (B,), the dual value lowered by P times any negative
    eigenvalue of Z that roundoff leaves.
    """
    n_case, n_grid, n = steering.shape
    power = np.broadcast_to(np.asarray(power, dtype=float), (n_case,))
    want = power[:, None] * mask
    lead = steering[..., 1:] * steering[..., :1].conj()  # e^{j d phi_t} at offsets d = 1..n-1
    g14 = np.empty((n_case, n_grid, 2 * (n - 1)))
    g14[..., 0::2], g14[..., 1::2] = 2.0 * lead.real, -2.0 * lead.imag
    iu = np.triu_indices(n, 1)
    pairs, offset = np.arange(len(iu[0])), iu[1] - iu[0] - 1
    sel = np.zeros((2 * (n - 1), 2 * len(pairs)))
    sel[2 * offset, 2 * pairs] = sel[2 * offset + 1, 2 * pairs + 1] = 1.0
    g = g14 @ sel
    basis = np.zeros((2 * len(pairs), n, n), dtype=complex)  # R(x) = (P/n) I + sum_k x_k basis_k
    basis[2 * pairs, iu[0], iu[1]] = basis[2 * pairs, iu[1], iu[0]] = 1.0
    basis[2 * pairs + 1, iu[0], iu[1]], basis[2 * pairs + 1, iu[1], iu[0]] = 1.0j, -1.0j
    basis_t = basis.mT.reshape(len(basis), n * n).T  # Re tr(M basis_l) = Re (M.flat @ basis_t)[l]
    eye = np.eye(n)

    def primal_matrix(x):
        return (power / n)[:, None, None] * eye + np.tensordot(x, basis, axes=1)

    def primal_derivatives(x, weight):
        r = want - power[:, None] - (g @ x[..., None])[..., 0]
        u = np.hypot(1.0, weight[:, None] * r)
        inv = np.linalg.inv(primal_matrix(x))
        slope = weight[:, None] ** 2 * r / (1.0 + u)  # h'(r)
        grad = -(g.mT @ slope[..., None])[..., 0] - np.real(inv.reshape(n_case, -1) @ basis_t)
        curve = weight[:, None] ** 2 / (u * (1.0 + u))  # h''(r)
        spread = (inv[:, None] @ basis @ inv[:, None]).reshape(n_case, len(basis), n * n)
        return grad, sel.T @ (g14.mT @ (curve[..., None] * g14)) @ sel + np.real(spread @ basis_t)

    def dual_matrix(v):
        return v[:, n_grid:, None] * eye - (steering * v[:, :n_grid, None]).mT @ steering.conj()

    def dual_derivatives(v, weight):
        lam = v[:, :n_grid]
        inv = np.linalg.inv(dual_matrix(v))
        za = steering @ inv.mT  # row t: (Z^-1 a_t)^T
        grad = np.concatenate([-weight[:, None] * want + np.real(np.sum(steering.conj() * za, axis=2))
                               + 2.0 * lam / (1.0 - lam**2),
                               (weight * power / n)[:, None] - np.real(np.diagonal(inv, axis1=1, axis2=2))], axis=1)
        cross = -np.abs(za) ** 2
        hess = np.block([[np.abs(steering.conj() @ za.mT) ** 2, cross], [cross.mT, np.abs(inv) ** 2]])
        hess[:, np.arange(n_grid), np.arange(n_grid)] += 2.0 * (1.0 + lam**2) / (1.0 - lam**2) ** 2
        return grad, hess

    def primal_inside(x):
        return np.linalg.eigvalsh(primal_matrix(x))[:, 0] > 0.0

    def dual_inside(v):
        return (np.abs(v[:, :n_grid]).max(axis=1) < 1.0) & (np.linalg.eigvalsh(dual_matrix(v))[:, 0] > 0.0)

    x = np.zeros((n_case, len(basis)))
    v = np.concatenate([np.zeros((n_case, n_grid)), np.ones((n_case, n))], axis=1)
    weight = (2 * n_grid + n) / np.sum(np.abs(want - power[:, None]), axis=1)
    for _ in range(11):
        x = _center(x, primal_derivatives, primal_inside, weight)
        v = _center(v, dual_derivatives, dual_inside, weight)
        weight = 10.0 * weight
    mats = primal_matrix(x)
    objective = np.sum(np.abs(want - reference_pattern(mats, steering)), axis=1)
    dual = np.sum(v[:, :n_grid] * want, axis=1) - power / n * np.sum(v[:, n_grid:], axis=1)
    dual += power * np.minimum(np.linalg.eigvalsh(dual_matrix(v))[:, 0], 0.0)
    return mats, objective, (objective - dual) / objective


def oblique_least_squares_covariance(steering, mask, power, steps):
    """Least-squares fit of the pattern to the scaled mask over {R psd, diag R = P/n}, by ``steps`` gradient steps.

    For each case, steering (T, n) and ``mask`` (T,), it minimizes mean_t |P m_t - a_t^H R a_t|^2, the
    pattern error that ``certified_floor`` bounds at P = 1, with R = V V^H: the rows of V (n, n) keep
    squared norm P/n, so V lies on a complex oblique manifold and R meets the covariance stage's
    constraints exactly. A step moves V along the Euclidean gradient 2 G V, G = (2/T) sum_t e_t a_t a_t^H
    with e the pattern residual, by 1/(2 L P), L = (2/T) lambda_max(|a_t^H a_s|^2) the gradient's
    Lipschitz constant in R, then renormalizes each row (Absil-Gallivan, "Joint diagonalization on the
    oblique manifold", 2006). It starts at V = sqrt(P/n) I. Returns R (B, n, n) and its pattern error
    (B,). The pattern is |a_t^H V|^2, so no R is formed until the end.
    """
    n_case, n_grid, n = steering.shape
    power = np.broadcast_to(np.asarray(power, dtype=float), (n_case,))[:, None, None]
    lipschitz = 2.0 / n_grid * np.linalg.eigvalsh(np.abs(steering.conj() @ steering.mT) ** 2)[:, -1, None, None]
    want = power[..., 0] * mask
    root = np.sqrt(power / n)
    v = root * np.eye(n, dtype=complex)
    for _ in range(steps):
        rows = steering.conj() @ v  # a_t^H V
        resid = np.sum(np.abs(rows) ** 2, axis=-1) - want
        v = v - steering.mT @ ((2.0 / n_grid) * resid[..., None] * rows) / (lipschitz * power)
        v *= root / np.linalg.norm(v, axis=-1, keepdims=True)
    mats = v @ v.conj().mT
    return mats, np.mean((reference_pattern(mats, steering) - want) ** 2, axis=-1)


def waterfill_kkt_residual(gains, powers, level, total_power, noise_power=1.0):
    """Largest violation of the water-filling optimality conditions."""
    g = np.asarray(gains, dtype=float)
    res = abs(powers.sum() - total_power)
    for gi, pi in zip(g, powers):
        if gi <= 0:
            res = max(res, abs(pi))
            continue
        floor = noise_power / gi
        if pi > 0:
            res = max(res, abs(floor + pi - level))
        else:
            res = max(res, max(level - floor, 0.0))
    return res


def two_stream_grid_rate(gains, total_power):
    """Best two-stream sum rate (unit noise) over a grid of power splits: a coarse scan, then a local one."""
    p1 = np.linspace(0.0, total_power, 4001)
    rates = np.log2(1 + gains[0] * p1) + np.log2(1 + gains[1] * (total_power - p1))
    best = p1[np.argmax(rates)]
    lo, hi = max(best - total_power / 4000, 0.0), min(best + total_power / 4000, total_power)
    p1 = np.linspace(lo, hi, 4001)
    rates = np.log2(1 + gains[0] * p1) + np.log2(1 + gains[1] * (total_power - p1))
    return float(np.max(rates))


def disk_scan(offset, a1, power, center, radius, n):
    """(z, objective) at the best point of an n x n grid of half-width ``radius`` about ``center``.

    A two-antenna covariance of trace P is fixed by its off-diagonal z, |z| <= P/2 (the grid is
    kept to that disk, up to 1e-12 past its edge), and its pattern is P + 2 Re(z a1_t); with
    ``offset`` the desired pattern less P, the objective is sum_t |offset_t - 2 Re(z a1_t)|.
    """
    side = np.linspace(-radius, radius, n)
    zs = center + side[:, None] + 1j * side[None, :]
    zs = zs[np.abs(zs) <= power / 2 + 1e-12]
    errs = np.abs(offset[None, :] - 2.0 * np.real(np.outer(zs, a1))).sum(axis=1)
    i = int(np.argmin(errs))
    return complex(zs[i]), float(errs[i])


def assert_same_result(got, want):
    """Every field of two solver records (an RcgResult or a CovarianceSolution) equal bit for bit."""
    for field in fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def assert_same_design(got, want):
    """Two DesignResults equal bit for bit: every array, covariance and RCG result."""
    for name in ("channels", "eigen_precoders", "eigen_rates", "jcas_subcarriers",
                 "precoders", "rates"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.config == want.config
    for records in ("covariances", "refinements"):
        mine, theirs = getattr(got, records), getattr(want, records)
        assert list(mine) == list(theirs), records
        for k, rec in theirs.items():
            assert_same_result(mine[k], rec)
