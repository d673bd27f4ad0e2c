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
    assert grid.steering.shape == (6, 41, 4)
    assert grid.angles.shape == (41,)
    assert grid.frequencies.shape == (6,)
    assert grid.desired_gain.shape == (41,)
    # a sampled entry matches a direct steering_vector call
    np.testing.assert_allclose(
        grid.steering[3, 7],
        steering_vector(grid.angles[7], grid.frequencies[3], 4, cfg.spacing),
        atol=1e-14,
    )
    assert len(grid.angles) == 41 and grid.n_subcarriers == 6


def test_grid_mask_matches_targets(small_cfg):
    grid = build_grid(small_cfg)
    on = grid.angles[grid.desired_gain == 1.0]
    for target in small_cfg.target_angles:
        assert np.all(np.abs(on - target).min() <= small_cfg.mainlobe_halfwidth)
