"""Rayleigh channel generation.

Channels are i.i.d. CN(0,1) per entry: real and imaginary parts drawn
independently from N(0, 1/2). One (n_rx, n_tx) matrix per subcarrier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelSet:
    """Per-subcarrier channel matrices, shape (K, n_rx, n_tx)."""

    matrices: np.ndarray
    seed: int | None = None

    @property
    def n_subcarriers(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_rx(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_tx(self) -> int:
        return self.matrices.shape[2]


def generate_rayleigh(n_subcarriers: int, n_rx: int, n_tx: int, seed: int) -> ChannelSet:
    """Draw K independent CN(0,1) channel matrices from a seeded generator."""
    rng = np.random.default_rng(seed)
    shape = (n_subcarriers, n_rx, n_tx)
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    h = (real + 1j * imag) / np.sqrt(2.0)
    return ChannelSet(matrices=h, seed=seed)

