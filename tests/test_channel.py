"""Rayleigh channel draws."""

import numpy as np
import pytest

from jcasbeam.channel import generate_rayleigh


def test_shapes_and_dtype():
    ch = generate_rayleigh(6, 2, 4, seed=0)
    assert ch.matrices.shape == (6, 2, 4)
    assert np.iscomplexobj(ch.matrices)
    assert ch.n_subcarriers == 6 and ch.n_rx == 2 and ch.n_tx == 4
    assert ch.seed == 0


def test_seed_determinism():
    a = generate_rayleigh(4, 2, 3, seed=7)
    b = generate_rayleigh(4, 2, 3, seed=7)
    c = generate_rayleigh(4, 2, 3, seed=8)
    np.testing.assert_array_equal(a.matrices, b.matrices)
    assert not np.array_equal(a.matrices, c.matrices)


def test_unit_entry_variance():
    # E|h|^2 = 1 with Re and Im each at variance 1/2
    ch = generate_rayleigh(200, 4, 8, seed=1)
    h = ch.matrices.ravel()
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)
    assert np.var(h.real) == pytest.approx(0.5, abs=0.05)
    assert np.var(h.imag) == pytest.approx(0.5, abs=0.05)
    assert abs(np.mean(h)) < 0.05

