"""Water-filling, eigenmode precoders, and rate computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcasbeam.errors import ConfigError, DegenerateChannelError
from jcasbeam.precoding import eigenmode_precoders, link_rates, simplex_projection, waterfill

from conftest import random_complex, two_stream_grid_rate, waterfill_kkt_residual


def waterfill_one(gains, total_power, noise_power=1.0):
    """Water-filling of one gain vector, as a stack of one: (powers, level, n_active)."""
    powers, level, n_active = waterfill(np.asarray(gains, dtype=float)[None], total_power, noise_power)
    return powers[0], level[0], n_active[0]


def eigen_one(h, n_streams, total_power, noise_power):
    """Eigenmode precoder of one channel matrix, as a stack of one: (f_hat, sv, powers).

    The singular values come from ``np.linalg.svd`` of ``h``, and the stream
    powers are the squared column norms of the precoder.
    """
    f_hat = eigenmode_precoders(h[None], n_streams, total_power, noise_power)[0]
    sv = np.linalg.svd(h, compute_uv=False)[:n_streams]
    return f_hat, sv, np.sum(np.abs(f_hat) ** 2, axis=0)


def link_one(h, f, prefactor):
    """Rate of one link under its optimal combiner, as a stack of one."""
    return float(link_rates(h[None], f[None], prefactor)[0])


def sum_rate(gains, powers, noise_power=1.0):
    g = np.asarray(gains, dtype=float)
    return float(np.sum(np.log2(1.0 + g * np.asarray(powers) / noise_power)))


def test_waterfill_two_stream_oracle():
    # Hand-solved: floors 1/4 and 1, level (1 + 5/4)/2 = 9/8.
    powers, level, n_active = waterfill_one([4.0, 1.0], 1.0, 1.0)
    assert level == pytest.approx(1.125, abs=1e-12)
    np.testing.assert_allclose(powers, [0.875, 0.125], atol=1e-12)
    assert n_active == 2


def test_waterfill_drops_weak_stream():
    # Budget too small to lift the weak mode above its floor.
    powers, _, n_active = waterfill_one([4.0, 0.1], 0.5, 1.0)
    assert n_active == 1
    assert powers[1] == 0.0
    assert powers[0] == pytest.approx(0.5, abs=1e-12)


def test_waterfill_zero_gain_gets_nothing():
    powers, _, _ = waterfill_one([2.0, 0.0], 1.0)
    assert powers[1] == 0.0
    assert powers[0] == pytest.approx(1.0, abs=1e-12)


def test_waterfill_all_zero_gains_degenerate():
    with pytest.raises(DegenerateChannelError):
        waterfill_one([0.0, 0.0], 1.0)
    # one dead row in a stack is enough
    with pytest.raises(DegenerateChannelError, match="no positive channel gains"):
        waterfill([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]], 1.0)


def test_waterfill_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        waterfill_one([1.0, -0.5], 1.0)
    with pytest.raises(ConfigError, match="power budget 0 must be positive and finite"):
        waterfill_one([1.0], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        waterfill([[1.0, 2.0], [1.0, -0.5]], 1.0)


def test_waterfill_kkt_random(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gains = rng.uniform(0.0, 4.0, size=n)
        if not np.any(gains > 0):
            gains[0] = 1.0
        total = float(rng.uniform(0.1, 10.0))
        noise = float(rng.uniform(0.2, 3.0))
        powers, level, _ = waterfill_one(gains, total, noise)
        assert waterfill_kkt_residual(gains, powers, level, total, noise) <= 1e-8
        assert np.all(powers >= 0)


@st.composite
def gain_rows(draw):
    """A (K, n) stack of nonnegative gains, each row with at least one positive entry."""
    width = draw(st.integers(1, 8))
    gain = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    row = st.lists(gain, min_size=width, max_size=width).filter(lambda r: any(g > 0 for g in r))
    return np.array(draw(st.lists(row, min_size=1, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(gains=gain_rows(), total=st.floats(1e-3, 1e3), noise=st.floats(1e-3, 1e6))
def test_waterfill_kkt_property(gains, total, noise):
    # floors noise / gain reach 1e9, up to 1e12 times the total
    powers, level, n_active = waterfill(gains, total, noise)
    assert np.all(powers >= 0)
    assert np.all(np.abs(powers.sum(axis=1) - total) <= 1e-12 * total)
    floor = noise / np.where(gains > 0, gains, np.nan)  # nan: no floor for a zero gain
    active = powers > 0
    np.testing.assert_array_equal(active.sum(axis=1), n_active)
    level = np.broadcast_to(level[:, None], gains.shape)
    # an active carrier's floor plus its power is the water level; an inactive one's floor is above it
    np.testing.assert_allclose((floor + powers)[active], level[active], rtol=1e-9)
    assert np.all(floor[~active & (gains > 0)] >= level[~active & (gains > 0)])


def test_waterfill_meets_the_budget_under_floors_far_above_it():
    # floors about 1e6 against a total of 1e-3: level - floor misses the
    # budget by 4.7e-8 relative before the rescale
    for gains in ([1e-3, 1.1e-3, 1.2e-3], [1e-3, 0.0, 0.0]):
        powers, _, _ = waterfill_one(gains, 1e-3, 1e3)
        assert abs(powers.sum() - 1e-3) <= 1e-12 * 1e-3


def test_waterfill_total_below_the_roundoff_of_the_strongest_floor():
    # 1e-20 + 0.25 rounds to 0.25, so no candidate level lies above its floor;
    # the strongest stream still takes the whole total, and no other stream any
    powers, level, n_active = waterfill_one([4.0, 1.0, 0.5, 0.25], 1e-20, 1.0)
    np.testing.assert_array_equal(powers, [1e-20, 0.0, 0.0, 0.0])
    assert (level, n_active) == (0.25, 1)


def test_waterfill_normal_row_keeps_its_bits():
    gains = np.array([[4.0, 1.0, 0.25, 0.0], [2.0, 3.0, 0.5, 1.5]])
    powers, level, _ = waterfill(gains, 1.0, 1.0)
    floor = np.where(gains > 0, 1.0 / np.where(gains > 0, gains, 1.0), np.inf)
    np.testing.assert_array_equal(powers, np.maximum(level[:, None] - floor, 0.0))


# rows at extreme scales, with their totals: a float or one per row
EXTREME_ROWS = [
    # entries that dwarf the total: the leading candidate level, (1 - 1e20) / 1, rounds to -1e20,
    # so no entry has x + candidate > 0, and x + level is 0 on every entry
    ([[1e20, 1.0, 0.5]], 1.0),
    ([[1e300, -1e300, 1e299], [1e-300, -1e-300, 0.0], [-5e-324, 0.0, 5e-324]], [1e300, 1e-300, 1.0]),
    ([[3.0, -2.0, 1.0, 0.5], [4.0, 4.0, 4.0, 4.0]], 1e-20),
    ([[-1e10, -1e10 - 5.0, 7.0, 1e-30], [1e16, 1e16 + 2.0, -1e16, 3.0]], [1e5, 1e-8]),
]


@pytest.mark.parametrize("rows, total", EXTREME_ROWS)
def test_simplex_projection_is_feasible_at_extreme_scales(rows, total):
    y = simplex_projection(np.array(rows), total)
    total = np.broadcast_to(total, len(rows))
    assert np.all(y >= 0.0)
    assert np.all(np.abs(y.sum(axis=1) - total) <= 1e-12 * total), (y, total)


def test_simplex_projection_puts_a_dwarfed_total_on_the_largest_entry():
    np.testing.assert_array_equal(simplex_projection(np.array([[0.5, 1e20, 1.0]]), 1.0), [[0.0, 1.0, 0.0]])


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 8).flatmap(lambda n: st.lists(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n),
                                                          min_size=1, max_size=4)),
       total=st.floats(1e-300, 1e300))
def test_simplex_projection_property(rows, total):
    y = simplex_projection(np.array(rows), total)
    assert np.all(y >= 0.0)
    assert np.all(np.abs(y.sum(axis=1) - total) <= 1e-12 * total)


@pytest.mark.parametrize("total", [math.inf, math.nan, 0.0, -1.0])
def test_projections_reject_a_total_that_is_not_positive_and_finite(total):
    message = f"^power budget {total:g} must be positive and finite$"
    with pytest.raises(ConfigError, match=message):
        waterfill([[1.0, 2.0]], total)
    with pytest.raises(ConfigError, match=message):
        simplex_projection(np.array([[1.0, 2.0]]), total)
    # among totals per row, the bad one is named
    with pytest.raises(ConfigError, match=message):
        simplex_projection(np.array([[1.0, 2.0], [0.5, 0.5]]), [1.0, total])


def test_waterfill_is_the_projection_of_the_negated_floors(rng):
    gains = rng.uniform(0.0, 4.0, size=(20, 5))
    gains[rng.uniform(size=gains.shape) < 0.3] = 0.0
    gains[:, 0] = np.maximum(gains[:, 0], 0.1)
    floor = np.where(gains > 0, 0.8 / np.where(gains > 0, gains, 1.0), np.inf)
    np.testing.assert_array_equal(waterfill(gains, 3.0, 0.8)[0], simplex_projection(-floor, 3.0))


def test_waterfill_matches_grid_oracle(rng):
    # Two-stream exhaustive split: coarse scan then local refinement.
    for _ in range(10):
        gains = rng.uniform(0.2, 5.0, size=2)
        total = float(rng.uniform(0.5, 4.0))
        powers, _, _ = waterfill_one(gains, total, 1.0)
        grid_rate = two_stream_grid_rate(gains, total)
        wf_rate = sum_rate(gains, powers)
        assert wf_rate >= grid_rate - 1e-6
        assert abs(wf_rate - grid_rate) <= 1e-6


def test_eigenmode_precoder_diagonal_channel():
    h = np.diag([2.0, 1.0]).astype(complex)
    f_hat, sv, _ = eigen_one(h, 2, 1.0, 1.0)
    np.testing.assert_allclose(sv, [2.0, 1.0], atol=1e-12)
    expected = np.diag([np.sqrt(0.875), np.sqrt(0.125)])
    np.testing.assert_allclose(f_hat, expected, atol=1e-12)


def test_eigenmode_precoder_power_and_orthogonality(rng):
    for _ in range(10):
        h = random_complex(rng, (4, 6))
        f_hat, _, _ = eigen_one(h, 3, 2.5, 1.0)
        assert np.linalg.norm(f_hat) ** 2 == pytest.approx(2.5, abs=1e-10)
        gram = f_hat.conj().T @ f_hat
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)


def test_eigenmode_precoder_deterministic(rng):
    h = random_complex(rng, (3, 5))
    f1, _, _ = eigen_one(h, 2, 1.0, 1.0)
    f2, _, _ = eigen_one(h.copy(), 2, 1.0, 1.0)
    np.testing.assert_array_equal(f1, f2)


def test_eigenmode_precoder_rank_deficient_zero_columns():
    # Rank-1 channel: second stream gets a zero beam, power still adds up.
    h = np.outer([1.0, 1.0], [1.0, 0.0, 0.0]).astype(complex)
    f_hat, _, powers = eigen_one(h, 2, 1.0, 1.0)
    assert powers[1] == 0.0
    np.testing.assert_allclose(f_hat[:, 1], 0.0, atol=1e-12)
    assert np.linalg.norm(f_hat) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_eigenmode_precoder_zero_channel_degenerate():
    with pytest.raises(DegenerateChannelError):
        eigen_one(np.zeros((2, 3), dtype=complex), 2, 1.0, 1.0)


def test_eigenmode_precoder_unitary_invariant_rate(rng):
    # Left rotation of the channel must not change the eigenmode rate.
    h = random_complex(rng, (4, 4))
    q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    r0 = _eigen_rate(h, 3, 2.0)
    r1 = _eigen_rate(q @ h, 3, 2.0)
    assert r1 == pytest.approx(r0, abs=1e-9)


def _eigen_rate(h, n_streams, power, noise=1.0):
    f, _, _ = eigen_one(h, n_streams, power, noise)
    return link_one(h, f, 1.0 / noise)


def test_eigenmode_beats_random_feasible(rng):
    h = random_complex(rng, (3, 4))
    power = 1.5
    best = _eigen_rate(h, 3, power)
    for _ in range(100):
        f = random_complex(rng, (4, 3))
        f *= np.sqrt(power) / np.linalg.norm(f)
        assert link_one(h, f, 1.0) <= best + 1e-9


def test_rate_monotone_in_power(rng):
    h = random_complex(rng, (3, 4))
    rates = [_eigen_rate(h, 2, p) for p in np.linspace(0.25, 8.0, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_rate_scalar_case():
    h = np.array([[1.0 + 0j]])
    f = np.array([[np.sqrt(10.0) + 0j]])
    assert link_one(h, f, 1.0) == pytest.approx(np.log2(11.0), abs=1e-12)


def test_rate_zero_precoder():
    h = np.array([[1.0 + 0j]])
    assert link_one(h, np.zeros((1, 1)), 1.0) == 0.0


def test_rate_zero_channel():
    h = np.zeros((2, 3), dtype=complex)
    f = np.ones((3, 2), dtype=complex)
    assert link_one(h, f, 1.0) == 0.0


def test_rate_diagonal_integration_oracle():
    # diag(2,1) channel, unit budget: closed-form rate
    # log2(1 + 4*7/8) + log2(1 + 1/8).
    h = np.diag([2.0, 1.0]).astype(complex)
    f, _, _ = eigen_one(h, 2, 1.0, 1.0)
    expected = np.log2(4.5) + np.log2(1.125)
    assert link_one(h, f, 1.0) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(2.3398500028846243, abs=1e-12)


def test_rate_matches_direct_determinant(rng):
    # with n_streams <= n_rx the optimal combiner keeps every singular value
    # of HF, so the rate is log2 det(I + prefactor (HF)^H HF)
    for _ in range(10):
        h = random_complex(rng, (3, 4))
        f = random_complex(rng, (4, 2))
        pref = float(rng.uniform(0.2, 3.0))
        hf = h @ f
        m = np.eye(2) + pref * hf.conj().T @ hf
        expected = float(np.log2(np.linalg.det(m).real))
        assert link_one(h, f, pref) == pytest.approx(expected, abs=1e-9)


def _pinv_rate(h, f, prefactor):
    """The rate under the optimal combiner W, by the pseudo-inverse and determinant formula.

    W is the top n_streams left singular vectors of HF, taken from its full
    SVD, so its columns are orthonormal even where HF is rank deficient.
    """
    hf = h @ f
    w = np.linalg.svd(hf)[0][:, : f.shape[1]]
    np.testing.assert_allclose(w.conj().T @ w, np.eye(f.shape[1]), atol=1e-12)
    eff = np.linalg.pinv(w) @ hf
    m = np.eye(w.shape[1]) + prefactor * eff @ eff.conj().T
    return max(float(np.log2(np.linalg.det(m).real)), 0.0)


def test_rate_with_orthonormal_combiner_equals_pinv_formula(rng):
    for _ in range(20):
        h = random_complex(rng, (4, 6))
        f = random_complex(rng, (6, 3))
        pref = float(rng.uniform(0.2, 3.0))
        assert link_one(h, f, pref) == pytest.approx(_pinv_rate(h, f, pref), rel=1e-12)
    # rank-1 carrier: the combiner's two extra columns are orthogonal to the range of HF
    h = random_complex(rng, (4, 6))
    f = random_complex(rng, (6, 1)) @ random_complex(rng, (1, 3))
    assert link_one(h, f, 2.0) == pytest.approx(_pinv_rate(h, f, 2.0), rel=1e-12)


def test_stacked_eigen_stage_equals_one_matrix_calls(rng):
    # each carrier of a stack is the same bit for bit as that carrier on a stack of one
    h = random_complex(rng, (12, 4, 6))
    h[5] = np.outer([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # rank 1
    f_hat = eigenmode_precoders(h, 3, 2.5, 0.7)
    for k in range(len(h)):
        np.testing.assert_array_equal(f_hat[k], eigenmode_precoders(h[k:k + 1], 3, 2.5, 0.7)[0])
    rates = link_rates(h, f_hat, 1.0 / 0.7)
    for k in range(len(h)):
        assert rates[k] == link_one(h[k], f_hat[k], 1.0 / 0.7)


def test_stacked_waterfill_rows_equal_one_row_calls(rng):
    gains = rng.uniform(0.0, 4.0, size=(30, 5))
    gains[rng.uniform(size=gains.shape) < 0.3] = 0.0
    gains[:, 0] = np.maximum(gains[:, 0], 0.1)
    powers, level, n_active = waterfill(gains, 3.0, 0.8)
    for g, p, lv, n in zip(gains, powers, level, n_active):
        p_one, lv_one, n_one = waterfill_one(g, 3.0, 0.8)
        np.testing.assert_array_equal(p, p_one)
        assert (lv, n) == (lv_one, n_one)


def test_degenerate_channel_in_a_stack_names_its_subcarrier(rng):
    h = random_complex(rng, (6, 2, 3))
    h[3] = 0.0
    with pytest.raises(DegenerateChannelError, match=r"^subcarrier 3: channel matrix has no usable"):
        eigenmode_precoders(h, 2, 1.0, 1.0)
    with pytest.raises(DegenerateChannelError, match=r"^subcarrier 0: channel matrix has no usable"):
        eigenmode_precoders(h[3:4], 2, 1.0, 1.0)


def test_stacked_beams_have_real_positive_pivots(rng):
    # each column's largest-magnitude entry is rotated onto the positive real axis
    h = random_complex(rng, (10, 4, 6))
    f_hat = eigenmode_precoders(h, 3, 2.0, 1.0)
    pivots = np.take_along_axis(f_hat, np.argmax(np.abs(f_hat), axis=1)[:, None, :], axis=1)
    assert np.all(pivots.real > 0.0) and np.all(np.abs(pivots.imag) <= 1e-15 * pivots.real)
