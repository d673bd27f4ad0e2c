"""Angular grid, steering vectors, and the desired beampattern mask.

The transmit array is a uniform linear array whose steering vector phase
depends on the actual subcarrier frequency, not just the carrier, so every
subcarrier gets its own steering matrix. A grid builds a subcarrier's matrix
only when a run first asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    The formula is elementwise in frequency, so a carrier's matrix has the
    same bits whichever other frequencies share the call.
    """
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    phase_per_elem = 2.0 * np.pi * freq * spacing / SPEED_OF_LIGHT * np.sin(theta)
    n = np.arange(n_tx, dtype=float)
    steering = 1j * np.multiply.outer(phase_per_elem, n)
    return np.exp(steering, out=steering)  # in place: no second (K, T, n_tx) array


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
    """The angle grid, the subcarriers' ULA geometry and the target mask.

    ``steering(ks)`` gives the steering matrices of subcarriers ``ks``: entry
    [..., t, :] is the steering vector at grid angle t. desired_gain[t] is
    the binary beampattern mask (identical across subcarriers since the
    targets are). No matrix is built with the grid: a call builds the ones
    no earlier call asked for, all in one :func:`steering_vector` call, and
    the grid keeps them, so a run builds each carrier it uses once and no
    carrier it does not use.
    """

    angles: np.ndarray        # (T,) degrees
    frequencies: np.ndarray   # (K,) Hz
    n_tx: int
    spacing: float            # antenna spacing, m
    desired_gain: np.ndarray  # (T,) in {0, 1}
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # k -> (T, n_tx)

    @property
    def n_subcarriers(self) -> int:
        return self.frequencies.shape[0]

    def steering(self, ks) -> np.ndarray:
        """Steering matrices of subcarriers ``ks``, shaped ``np.shape(ks) + (T, n_tx)``.

        An int gives (T, n_tx), a (J,) array (J, T, n_tx), and an (S, J)
        array (S, J, T, n_tx). Each call returns a new array.
        """
        ks = np.asarray(ks, dtype=int)
        flat = ks.ravel().tolist()
        new = [k for k in dict.fromkeys(flat) if k not in self._rows]
        if new:
            self._rows.update(zip(new, steering_vector(self.angles, self.frequencies[new][:, None],
                                                       self.n_tx, self.spacing)))
        rows = np.array([self._rows[k] for k in flat], dtype=complex)
        return rows.reshape(ks.shape + (len(self.angles), self.n_tx))


def build_grid(cfg: SystemConfig) -> BeamGrid:
    angles = angle_grid(cfg.grid_size)
    desired = desired_beampattern(angles, cfg.target_angles, cfg.mainlobe_halfwidth)
    return BeamGrid(angles=angles, frequencies=carrier_frequencies(cfg), n_tx=cfg.n_tx, spacing=cfg.spacing,
                    desired_gain=desired)
