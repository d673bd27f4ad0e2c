"""Angle grid, steering vectors, and the desired beampattern mask."""

import numpy as np
import pytest

from jcasbeam.beamgrid import (
    angle_grid,
    build_grid,
    carrier_frequencies,
    desired_beampattern,
    steering_vector,
)
from jcasbeam.config import SystemConfig


def test_carrier_frequencies_oracle():
    cfg = SystemConfig()
    freqs = carrier_frequencies(cfg)
    assert freqs.shape == (64,)
    assert freqs[0] == pytest.approx(2.0e9)
    assert freqs[1] - freqs[0] == pytest.approx(100.0e3)
    assert freqs[-1] == pytest.approx(2.0e9 + 63 * 100.0e3)


def test_steering_vector_quarter_turns():
    # f*spacing/c = 1/2 and sin(30 deg) = 1/2 give phase steps of pi/2
    c = 3.0e8
    f = 1.0e9
    a = steering_vector(30.0, f, 4, c / (2.0 * f))
    np.testing.assert_allclose(a, [1.0, 1.0j, -1.0, -1.0j], atol=1e-12)


def test_steering_vector_broadside_is_all_ones():
    a = steering_vector(0.0, 2.0e9, 8, 0.0749)
    np.testing.assert_allclose(a, np.ones(8), atol=1e-15)


def test_steering_vector_unit_modulus():
    a = steering_vector(-47.3, 2.1e9, 16, 0.07)
    np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-13)


def test_angle_grid_covers_quadrant_to_quadrant():
    g = angle_grid(181)
    assert g.shape == (181,)
    assert g[0] == -90.0 and g[-1] == 90.0
    np.testing.assert_allclose(np.diff(g), 1.0)


def test_desired_mask_halfwidth_edges_inclusive():
    angles = angle_grid(181)
    mask = desired_beampattern(angles, (-60.0, -30.0, 30.0, 60.0), 8.0)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    # each lobe spans 17 one-degree points, no overlap between the four
    assert mask.sum() == 68
    by_angle = dict(zip(angles, mask))
    assert by_angle[-68.0] == 1.0 and by_angle[-52.0] == 1.0
    assert by_angle[-69.0] == 0.0 and by_angle[-51.0] == 0.0
    assert by_angle[0.0] == 0.0


def test_desired_mask_single_target_width():
    angles = angle_grid(19)  # 10-degree steps
    mask = desired_beampattern(angles, (0.0,), 10.0)
    assert mask.sum() == 3  # -10, 0, 10


def test_build_grid_shapes_and_consistency():
    cfg = SystemConfig(n_tx=4, n_rx=2, n_streams=2, n_subcarriers=6, n_jcas=2, grid_size=41)
    grid = build_grid(cfg)
    assert grid.steering(range(6)).shape == (6, 41, 4)
    assert grid.angles.shape == (41,)
    assert grid.frequencies.shape == (6,)
    assert grid.desired_gain.shape == (41,)
    # every carrier's steering matrix equals a direct one-frequency call, bit for bit
    for k, freq in enumerate(grid.frequencies):
        np.testing.assert_array_equal(grid.steering(k), steering_vector(grid.angles, freq, 4, cfg.spacing))
    assert len(grid.angles) == 41 and grid.n_subcarriers == 6
    assert (grid.n_tx, grid.spacing) == (4, cfg.spacing)


def test_steering_rows_equal_the_full_stack_bit_for_bit():
    # the stack every grid once built in one broadcast call, against rows built on demand in other groupings
    cfg = SystemConfig()
    grid = build_grid(cfg)
    full = steering_vector(grid.angles, grid.frequencies[:, None], cfg.n_tx, cfg.spacing)
    assert full.shape == (64, cfg.grid_size, cfg.n_tx)
    rng = np.random.default_rng(0)
    shuffled = rng.permutation(64)
    requests = [
        shuffled[:5],                         # five rows, built in one call
        7,                                    # an int: one row, (T, n_tx)
        np.array([3, 3, 9, shuffled[0], 3]),  # repeats, some built, some kept
        shuffled.reshape(4, 16),              # 2-D, as the sweep's (S, J) ranks: the rest of the 64
        rng.integers(0, 64, (2, 3, 5)),       # every row kept now
        np.array([], dtype=int),
        np.zeros((3, 0), dtype=int),
    ]
    for ks in requests:
        got = grid.steering(ks)
        assert got.shape == np.shape(ks) + full.shape[1:] and got.dtype == full.dtype
        np.testing.assert_array_equal(got, full[ks])
    # a fresh grid asked for all 64 in shuffled order: one call, the same bits
    np.testing.assert_array_equal(build_grid(cfg).steering(shuffled), full[shuffled])


def test_steering_returns_a_new_array_each_call(small_cfg):
    grid = build_grid(small_cfg)
    grid.steering([1, 2])[:] = 0.0  # writing to one call's rows leaves the kept rows alone
    grid.steering(1)[:] = 0.0
    np.testing.assert_array_equal(grid.steering([1, 2]), build_grid(small_cfg).steering([1, 2]))


def test_grid_mask_matches_targets(small_cfg):
    grid = build_grid(small_cfg)
    on = grid.angles[grid.desired_gain == 1.0]
    for target in small_cfg.target_angles:
        assert np.all(np.abs(on - target).min() <= small_cfg.mainlobe_halfwidth)
