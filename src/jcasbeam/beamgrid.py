"""Angular grid, steering vectors, and the desired beampattern mask.

The transmit array is a uniform linear array whose steering vector phase
depends on the actual subcarrier frequency, not just the carrier, so every
subcarrier gets its own steering matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, SystemConfig


def carrier_frequencies(cfg: SystemConfig) -> np.ndarray:
    """Per-subcarrier frequencies f_k = f0 + k * spacing, shape (K,)."""
    k = np.arange(cfg.n_subcarriers, dtype=float)
    return cfg.base_freq + k * cfg.subcarrier_spacing


def steering_vector(theta_deg, freq, n_tx: int, spacing: float) -> np.ndarray:
    """Unit-modulus ULA steering vector(s) at angle(s) ``theta_deg`` and frequency ``freq``.

    Entry n is exp(j*2*pi*n*(freq*spacing/c)*sin(theta)); the first entry is
    always 1. At one frequency a scalar angle gives shape (n_tx,), an array of
    T angles (T, n_tx); a (K, 1) column of frequencies gives (K, T, n_tx).
    """
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    phase_per_elem = 2.0 * np.pi * freq * spacing / SPEED_OF_LIGHT * np.sin(theta)
    n = np.arange(n_tx, dtype=float)
    steering = 1j * np.multiply.outer(phase_per_elem, n)
    return np.exp(steering, out=steering)  # in place: no second (K, T, n_tx) array for a whole grid


def angle_grid(grid_size: int) -> np.ndarray:
    """Uniform angle grid over [-90, 90] degrees inclusive, shape (T,)."""
    return np.linspace(-90.0, 90.0, grid_size)


def desired_beampattern(angles_deg: np.ndarray, targets, halfwidth: float) -> np.ndarray:
    """Binary mask: 1 within ``halfwidth`` degrees of any target, else 0."""
    angles = np.asarray(angles_deg, dtype=float)
    mask = np.zeros(angles.shape, dtype=float)
    for t in targets:
        mask[np.abs(angles - t) <= halfwidth] = 1.0
    return mask


@dataclass(frozen=True)
class BeamGrid:
    """Precomputed per-subcarrier steering matrices and the target mask.

    steering[k, t] is the steering vector at grid angle t on subcarrier k;
    desired_gain[t] is the binary beampattern mask (identical across
    subcarriers since the targets are).
    """

    angles: np.ndarray        # (T,) degrees
    frequencies: np.ndarray   # (K,) Hz
    steering: np.ndarray      # (K, T, n_tx) complex
    desired_gain: np.ndarray  # (T,) in {0, 1}

    @property
    def n_subcarriers(self) -> int:
        return self.frequencies.shape[0]


def build_grid(cfg: SystemConfig) -> BeamGrid:
    angles = angle_grid(cfg.grid_size)
    freqs = carrier_frequencies(cfg)
    steering = steering_vector(angles, freqs[:, None], cfg.n_tx, cfg.spacing)
    desired = desired_beampattern(angles, cfg.target_angles, cfg.mainlobe_halfwidth)
    return BeamGrid(angles=angles, frequencies=freqs, steering=steering, desired_gain=desired)
