"""Rayleigh channel draws."""

import numpy as np
import pytest

from jcasbeam.channel import generate_rayleigh


def test_shapes_and_dtype():
    h = generate_rayleigh(6, 2, 4, seed=0)
    assert isinstance(h, np.ndarray)
    assert h.shape == (6, 2, 4)
    assert h.dtype == np.complex128


def test_seed_determinism():
    a = generate_rayleigh(4, 2, 3, seed=7)
    b = generate_rayleigh(4, 2, 3, seed=7)
    c = generate_rayleigh(4, 2, 3, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_unit_entry_variance():
    # E|h|^2 = 1 with Re and Im each at variance 1/2
    h = generate_rayleigh(200, 4, 8, seed=1).ravel()
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.05)
    assert np.var(h.real) == pytest.approx(0.5, abs=0.05)
    assert np.var(h.imag) == pytest.approx(0.5, abs=0.05)
    assert abs(np.mean(h)) < 0.05

