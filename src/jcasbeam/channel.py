"""Rayleigh channel generation.

Channels are i.i.d. CN(0,1) per entry: real and imaginary parts drawn
independently from N(0, 1/2). One (n_rx, n_tx) matrix per subcarrier.
"""

from __future__ import annotations

import numpy as np


def generate_rayleigh(n_subcarriers: int, n_rx: int, n_tx: int, seed: int) -> np.ndarray:
    """Draw K independent CN(0,1) channel matrices, one (K, n_rx, n_tx) complex array."""
    rng = np.random.default_rng(seed)
    shape = (n_subcarriers, n_rx, n_tx)
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    return (real + 1j * imag) / np.sqrt(2.0)
