import numpy as np
import pytest

from jcasbeam.beamgrid import BeamGrid, steering_vector
from jcasbeam.config import SPEED_OF_LIGHT, SystemConfig

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


def ula_grid(angles, mask, n_tx, freq=2.0e9):
    """A one-subcarrier BeamGrid: a half-wavelength ULA at ``freq`` and a hand-made mask."""
    angles = np.asarray(angles, dtype=float)
    steering = steering_vector(angles, freq, n_tx, SPEED_OF_LIGHT / (2 * freq))
    return BeamGrid(angles, np.array([freq]), steering[None], np.asarray(mask, dtype=float))


def assert_same_design(got, want):
    """Two DesignResults equal bit for bit: every array, covariance and RCG result."""
    for name in ("channels", "eigen_precoders", "eigen_rates", "jcas_subcarriers",
                 "precoders", "rates"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.config == want.config
    assert list(got.covariances) == list(want.covariances)
    for k, sol in want.covariances.items():
        np.testing.assert_array_equal(got.covariances[k].matrix, sol.matrix)
        assert got.covariances[k].objective == sol.objective
    assert list(got.refinements) == list(want.refinements)
    for k, res in want.refinements.items():
        mine = got.refinements[k]
        np.testing.assert_array_equal(mine.precoder, res.precoder)
        np.testing.assert_array_equal(mine.objective_trace, res.objective_trace)
        assert (mine.objective, mine.iterations, mine.converged, mine.stop_reason) == (
            res.objective, res.iterations, res.converged, res.stop_reason
        )
