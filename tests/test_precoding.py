"""Water-filling, eigenmode precoders, combiners, and rate computation."""

import warnings

import numpy as np
import pytest

from jcasbeam.channel import generate_rayleigh
from jcasbeam.errors import DegenerateChannelError
from jcasbeam.precoding import (
    _waterfill_rows,
    achievable_rate,
    eigenmode_precoder,
    eigenmode_precoders,
    link_rates,
    optimal_combiner,
    waterfill,
)

from conftest import random_complex


def waterfill_kkt_residual(gains, alloc, total_power, noise_power=1.0):
    """Largest violation of the water-filling optimality conditions."""
    g = np.asarray(gains, dtype=float)
    p = alloc.powers
    res = abs(p.sum() - total_power)
    for gi, pi in zip(g, p):
        if gi <= 0:
            res = max(res, abs(pi))
            continue
        floor = noise_power / gi
        if pi > 0:
            res = max(res, abs(floor + pi - alloc.level))
        else:
            res = max(res, max(alloc.level - floor, 0.0))
    return res


def sum_rate(gains, powers, noise_power=1.0):
    g = np.asarray(gains, dtype=float)
    return float(np.sum(np.log2(1.0 + g * np.asarray(powers) / noise_power)))


def test_waterfill_two_stream_oracle():
    # Hand-solved: floors 1/4 and 1, level (1 + 5/4)/2 = 9/8.
    alloc = waterfill([4.0, 1.0], 1.0, 1.0)
    assert alloc.level == pytest.approx(1.125, abs=1e-12)
    np.testing.assert_allclose(alloc.powers, [0.875, 0.125], atol=1e-12)
    assert alloc.n_active == 2


def test_waterfill_drops_weak_stream():
    # Budget too small to lift the weak mode above its floor.
    alloc = waterfill([4.0, 0.1], 0.5, 1.0)
    assert alloc.n_active == 1
    assert alloc.powers[1] == 0.0
    assert alloc.powers[0] == pytest.approx(0.5, abs=1e-12)


def test_waterfill_zero_gain_gets_nothing():
    alloc = waterfill([2.0, 0.0], 1.0)
    assert alloc.powers[1] == 0.0
    assert alloc.powers[0] == pytest.approx(1.0, abs=1e-12)


def test_waterfill_all_zero_gains_degenerate():
    with pytest.raises(DegenerateChannelError):
        waterfill([0.0, 0.0], 1.0)


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill([1.0, -0.5], 1.0)
    with pytest.raises(ValueError):
        waterfill([1.0], 0.0)


def test_waterfill_kkt_random(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gains = rng.uniform(0.0, 4.0, size=n)
        if not np.any(gains > 0):
            gains[0] = 1.0
        total = float(rng.uniform(0.1, 10.0))
        noise = float(rng.uniform(0.2, 3.0))
        alloc = waterfill(gains, total, noise)
        assert waterfill_kkt_residual(gains, alloc, total, noise) <= 1e-8
        assert np.all(alloc.powers >= 0)


def test_waterfill_matches_grid_oracle(rng):
    # Two-stream exhaustive split: coarse scan then local refinement.
    for _ in range(10):
        gains = rng.uniform(0.2, 5.0, size=2)
        total = float(rng.uniform(0.5, 4.0))
        alloc = waterfill(gains, total, 1.0)
        p1 = np.linspace(0.0, total, 4001)
        rates = np.log2(1.0 + gains[0] * p1) + np.log2(1.0 + gains[1] * (total - p1))
        best = p1[np.argmax(rates)]
        lo, hi = max(best - total / 4000, 0.0), min(best + total / 4000, total)
        p1 = np.linspace(lo, hi, 4001)
        rates = np.log2(1.0 + gains[0] * p1) + np.log2(1.0 + gains[1] * (total - p1))
        grid_rate = float(np.max(rates))
        wf_rate = sum_rate(gains, alloc.powers)
        assert wf_rate >= grid_rate - 1e-6
        assert abs(wf_rate - grid_rate) <= 1e-6


def test_eigenmode_precoder_diagonal_channel():
    h = np.diag([2.0, 1.0]).astype(complex)
    f_hat, sv, alloc = eigenmode_precoder(h, 2, 1.0, 1.0)
    np.testing.assert_allclose(sv, [2.0, 1.0], atol=1e-12)
    expected = np.diag([np.sqrt(0.875), np.sqrt(0.125)])
    np.testing.assert_allclose(f_hat, expected, atol=1e-12)


def test_eigenmode_precoder_power_and_orthogonality(rng):
    for _ in range(10):
        h = random_complex(rng, (4, 6))
        f_hat, _, _ = eigenmode_precoder(h, 3, 2.5, 1.0)
        assert np.linalg.norm(f_hat) ** 2 == pytest.approx(2.5, abs=1e-10)
        gram = f_hat.conj().T @ f_hat
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)


def test_eigenmode_precoder_deterministic(rng):
    h = random_complex(rng, (3, 5))
    f1, _, _ = eigenmode_precoder(h, 2, 1.0, 1.0)
    f2, _, _ = eigenmode_precoder(h.copy(), 2, 1.0, 1.0)
    np.testing.assert_array_equal(f1, f2)


def test_eigenmode_precoder_rank_deficient_zero_columns():
    # Rank-1 channel: second stream gets a zero beam, power still adds up.
    h = np.outer([1.0, 1.0], [1.0, 0.0, 0.0]).astype(complex)
    f_hat, _, alloc = eigenmode_precoder(h, 2, 1.0, 1.0)
    assert alloc.powers[1] == 0.0
    np.testing.assert_allclose(f_hat[:, 1], 0.0, atol=1e-12)
    assert np.linalg.norm(f_hat) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_eigenmode_precoder_zero_channel_degenerate():
    with pytest.raises(DegenerateChannelError):
        eigenmode_precoder(np.zeros((2, 3), dtype=complex), 2, 1.0, 1.0)


def test_eigenmode_precoder_unitary_invariant_rate(rng):
    # Left rotation of the channel must not change the eigenmode rate.
    h = random_complex(rng, (4, 4))
    q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    r0 = _eigen_rate(h, 3, 2.0)
    r1 = _eigen_rate(q @ h, 3, 2.0)
    assert r1 == pytest.approx(r0, abs=1e-9)


def _eigen_rate(h, n_streams, power, noise=1.0):
    f, _, _ = eigenmode_precoder(h, n_streams, power, noise)
    w = optimal_combiner(h, f)
    return achievable_rate(h, f, w, 1.0 / noise)


def test_eigenmode_beats_random_feasible(rng):
    h = random_complex(rng, (3, 4))
    power = 1.5
    best = _eigen_rate(h, 3, power)
    w_by_f = lambda f: optimal_combiner(h, f)
    for _ in range(100):
        f = random_complex(rng, (4, 3))
        f *= np.sqrt(power) / np.linalg.norm(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rate = achievable_rate(h, f, w_by_f(f), 1.0)
        assert rate <= best + 1e-9


def test_rate_monotone_in_power(rng):
    h = random_complex(rng, (3, 4))
    rates = [_eigen_rate(h, 2, p) for p in np.linspace(0.25, 8.0, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_combiner_orthonormal(rng):
    h = random_complex(rng, (4, 6))
    f = random_complex(rng, (6, 3))
    w = optimal_combiner(h, f)
    assert w.shape == (4, 3)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-12)


def test_combiner_warns_on_rank_deficiency():
    h = np.eye(3, dtype=complex)
    f = np.zeros((3, 2), dtype=complex)
    f[0, 0] = 1.0
    with pytest.warns(RuntimeWarning, match="rank"):
        w = optimal_combiner(h, f)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)


def test_rate_scalar_case():
    h = np.array([[1.0 + 0j]])
    f = np.array([[np.sqrt(10.0) + 0j]])
    w = np.array([[1.0 + 0j]])
    assert achievable_rate(h, f, w, 1.0) == pytest.approx(np.log2(11.0), abs=1e-12)


def test_rate_zero_precoder():
    h = np.array([[1.0 + 0j]])
    assert achievable_rate(h, np.zeros((1, 1)), np.eye(1), 1.0) == 0.0


def test_rate_zero_channel():
    h = np.zeros((2, 3), dtype=complex)
    f = np.ones((3, 2), dtype=complex)
    assert achievable_rate(h, f, np.eye(2)[:, :2], 1.0) == 0.0


def test_rate_diagonal_integration_oracle():
    # diag(2,1) channel, unit budget: closed-form rate
    # log2(1 + 4*7/8) + log2(1 + 1/8).
    h = np.diag([2.0, 1.0]).astype(complex)
    f, _, _ = eigenmode_precoder(h, 2, 1.0, 1.0)
    w = optimal_combiner(h, f)
    expected = np.log2(4.5) + np.log2(1.125)
    assert achievable_rate(h, f, w, 1.0) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(2.3398500028846243, abs=1e-12)


def test_rate_matches_direct_determinant(rng):
    for _ in range(10):
        h = random_complex(rng, (3, 4))
        f = random_complex(rng, (4, 2))
        w, _ = np.linalg.qr(random_complex(rng, (3, 2)))
        pref = float(rng.uniform(0.2, 3.0))
        eff = np.linalg.pinv(w) @ h @ f
        m = np.eye(2) + pref * eff @ eff.conj().T
        expected = float(np.log2(np.linalg.det(m).real))
        assert achievable_rate(h, f, w, pref) == pytest.approx(expected, abs=1e-9)


def _pinv_rate(h, f, w, prefactor):
    """The pseudo-inverse and determinant formula of the rate."""
    eff = np.linalg.pinv(w) @ h @ f
    m = np.eye(w.shape[1]) + prefactor * eff @ eff.conj().T
    return max(float(np.log2(np.linalg.det(m).real)), 0.0)


def test_rate_with_orthonormal_combiner_equals_pinv_formula(rng):
    for _ in range(20):
        h = random_complex(rng, (4, 6))
        f = random_complex(rng, (6, 3))
        w, _ = np.linalg.qr(random_complex(rng, (4, 3)))
        pref = float(rng.uniform(0.2, 3.0))
        assert achievable_rate(h, f, w, pref) == pytest.approx(_pinv_rate(h, f, w, pref), rel=1e-12)
    # rank-deficient carrier: the combiner's extra column is the orthonormal complement
    h = random_complex(rng, (4, 6))
    f = random_complex(rng, (6, 1)) @ random_complex(rng, (1, 3))
    with pytest.warns(RuntimeWarning, match="rank 1"):
        w = optimal_combiner(h, f)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-12)
    assert achievable_rate(h, f, w, 2.0) == pytest.approx(_pinv_rate(h, f, w, 2.0), rel=1e-12)


def test_stacked_eigen_stage_equals_one_matrix_calls(rng):
    h = random_complex(rng, (12, 4, 6))
    h[5] = np.outer([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # rank 1
    f_hat, sv, (powers, level, n_active) = eigenmode_precoders(h, 3, 2.5, 0.7)
    for k in range(len(h)):
        f_k, sv_k, alloc = eigenmode_precoder(h[k], 3, 2.5, 0.7)
        np.testing.assert_array_equal(f_hat[k], f_k)
        np.testing.assert_array_equal(sv[k], sv_k)
        np.testing.assert_array_equal(powers[k], alloc.powers)
        assert (level[k], n_active[k]) == (alloc.level, alloc.n_active)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        combiners, rates = link_rates(h, f_hat, 1.0 / 0.7)
        for k in range(len(h)):
            w = optimal_combiner(h[k], f_hat[k])
            np.testing.assert_array_equal(combiners[k], w)
            assert rates[k] == achievable_rate(h[k], f_hat[k], w, 1.0 / 0.7)


def test_stacked_waterfill_rows_equal_one_row_calls(rng):
    gains = rng.uniform(0.0, 4.0, size=(30, 5))
    gains[rng.uniform(size=gains.shape) < 0.3] = 0.0
    gains[:, 0] = np.maximum(gains[:, 0], 0.1)
    powers, level, n_active = _waterfill_rows(gains, 3.0, 0.8)
    for g, p, lv, n in zip(gains, powers, level, n_active):
        alloc = waterfill(g, 3.0, 0.8)
        np.testing.assert_array_equal(p, alloc.powers)
        assert (lv, n) == (alloc.level, alloc.n_active)


def test_degenerate_channel_in_a_stack_names_its_subcarrier(rng):
    h = random_complex(rng, (6, 2, 3))
    h[3] = 0.0
    with pytest.raises(DegenerateChannelError, match=r"^subcarrier 3: channel matrix has no usable"):
        eigenmode_precoders(h, 2, 1.0, 1.0)
    with pytest.raises(DegenerateChannelError, match=r"^channel matrix has no usable"):
        eigenmode_precoder(h[3], 2, 1.0, 1.0)


def test_stacked_combiners_warn_once_per_rank_deficient_carrier():
    # 0 dB on 64 carriers of a 4x8 link: water-filling drops weak streams, so
    # many effective channels lose rank
    h = generate_rayleigh(64, 4, 8, seed=0).matrices
    f_hat = eigenmode_precoders(h, 4, 1.0, 1.0)[0]
    with warnings.catch_warnings(record=True) as stacked:
        warnings.simplefilter("always")
        link_rates(h, f_hat, 1.0)
    with warnings.catch_warnings(record=True) as solo:
        warnings.simplefilter("always")
        for h_k, f_k in zip(h, f_hat):
            optimal_combiner(h_k, f_k)
    assert len(stacked) > 0
    assert [(w.category, str(w.message)) for w in stacked] == [
        (w.category, str(w.message)) for w in solo
    ]


def test_stacked_beams_have_real_positive_pivots(rng):
    # each column's largest-magnitude entry is rotated onto the positive real axis
    h = random_complex(rng, (10, 4, 6))
    f_hat = eigenmode_precoders(h, 3, 2.0, 1.0)[0]
    combiners, _ = link_rates(h, f_hat, 1.0)
    for beams in (f_hat, combiners):
        pivots = np.take_along_axis(beams, np.argmax(np.abs(beams), axis=1)[:, None, :], axis=1)
        assert np.all(pivots.real > 0.0) and np.all(np.abs(pivots.imag) <= 1e-15 * pivots.real)
