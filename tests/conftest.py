from dataclasses import fields

import numpy as np
import pytest

from jcasbeam.beamgrid import BeamGrid
from jcasbeam.config import SPEED_OF_LIGHT, SystemConfig
from jcasbeam.manifold import tradeoff_objective

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


def finite_difference_gradient(f, cov, f_comm, rho, h=1e-5):
    """Central differences of the RCG tradeoff objective over every real coordinate of f."""
    grad = np.zeros_like(f)
    for idx in np.ndindex(f.shape):
        for part in (1.0, 1.0j):
            e = np.zeros_like(f)
            e[idx] = part
            hi = tradeoff_objective(f + h * e, cov, f_comm, rho)
            lo = tradeoff_objective(f - h * e, cov, f_comm, rho)
            grad += ((hi - lo) / (2.0 * h)) * e
    return grad


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
