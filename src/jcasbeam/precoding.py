"""Communications-side precoding: water-filling, eigenmode beams, rates.

Every stage runs on a stack of subcarriers at once, and a single matrix is a
stack of one: :func:`eigenmode_precoders` takes one SVD of the
(K, n_rx, n_tx) channel stack, water-fills every carrier with
:func:`waterfill` through a cumulative sum over its sorted noise floors and
fixes the column phases of all carriers together; :func:`link_rates` takes
one values-only SVD of the stack of effective channels HF. Stacked numpy
linear algebra makes the same LAPACK call per matrix as on one matrix, and
the running sums are taken in the same order, so a carrier's precoder and
rate are the same bit for bit whatever stack it is in.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChannelError


def waterfill(gains, total_power: float, noise_power: float = 1.0):
    """Exact water-filling of each row of a (K, n) stack of channel power gains.

    Per row, maximizes sum_i log(1 + g_i p_i / noise) subject to
    sum p_i = total and p_i >= 0 by the closed-form active-set construction.
    Returns (powers (K, n), levels (K,), active counts (K,)). Rows are sorted
    by floor noise/gain (zero gains last, at an infinite floor); the candidate
    level with the m strongest channels active is (total + sum of their
    floors) / m, summed in order by ``cumsum`` as a running sum would, and a
    row keeps the leading candidates that lie above their own floor, and
    always its strongest stream. A row whose powers miss the total by more
    than 1e-12 relative is rescaled onto it, and one whose level - floor
    rounds to zero on every stream puts the whole total on its strongest
    stream; every other row keeps the bits of level - floor.
    Negative gains or a non-positive total raise ``ValueError``, and a row
    without a positive gain raises :class:`DegenerateChannelError`.
    """
    gains = np.asarray(gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("channel gains must be nonnegative")
    if not total_power > 0:
        raise ValueError("total_power must be positive")
    positive = gains > 0
    if not np.all(np.any(positive, axis=-1)):
        raise DegenerateChannelError("no positive channel gains to allocate power over")
    floor = np.full(gains.shape, np.inf)
    floor[positive] = noise_power / gains[positive]
    by_floor = np.take_along_axis(floor, np.argsort(floor, axis=-1, kind="stable"), axis=-1)
    candidate = (total_power + np.cumsum(by_floor, axis=-1)) / np.arange(1, gains.shape[-1] + 1)
    # total + floor rounds to the floor where the total is below the floor's roundoff
    n_active = np.maximum(np.logical_and.accumulate(candidate > by_floor, axis=-1).sum(axis=-1), 1)
    level = np.take_along_axis(candidate, n_active[:, None] - 1, axis=-1)[:, 0]
    powers = np.maximum(level[:, None] - floor, 0.0)
    powers[~positive] = 0.0
    # where the floors dwarf the total, level - floor carries the level's roundoff, or
    # rounds to zero on every stream: then the strongest stream takes the whole total
    sums = powers.sum(axis=-1)
    lost = sums == 0
    powers[lost, np.argmin(floor[lost], axis=-1)] = sums[lost] = total_power
    off = np.abs(sums - total_power) > 1e-12 * total_power
    powers[off] *= total_power / sums[off, None]
    return powers, level, n_active


def _fix_column_phases(mat: np.ndarray) -> np.ndarray:
    """Rotate each column of a (..., n, m) stack so its largest-magnitude entry is real positive.

    Removes the per-column phase ambiguity of singular vectors so repeated
    factorizations of the same matrix give identical beams. Its columns are
    unit singular vectors, so no pivot is zero.
    """
    pivot = np.take_along_axis(mat, np.argmax(np.abs(mat), axis=-2)[..., None, :], axis=-2)
    return mat * (np.conj(pivot) / np.abs(pivot))


def eigenmode_precoders(h: np.ndarray, n_streams: int, total_power: float, noise_power: float):
    """Capacity-achieving precoders of a (K, n_rx, n_tx) channel stack.

    One SVD over the stack, water-filling of every carrier at once and one
    column-phase fix. Returns the precoders, shape (K, n_tx, n_streams); a
    column's squared norm is its stream's water-filled power. A channel with
    no usable signal dimension raises :class:`DegenerateChannelError` naming
    its carrier.
    """
    h = np.asarray(h)
    _, s, vh = np.linalg.svd(h, full_matrices=False)
    sv = s[:, :n_streams]
    dead = ~np.any(sv > 0, axis=-1) | (sv.shape[-1] < n_streams)
    if np.any(dead):
        raise DegenerateChannelError(
            f"subcarrier {int(np.argmax(dead))}: channel matrix has no usable signal dimension"
        )
    v = _fix_column_phases(vh.conj().mT[:, :, :n_streams])
    powers = waterfill(sv ** 2, total_power, noise_power)[0]
    return v * np.sqrt(powers)[:, None, :]


def link_rates(h: np.ndarray, f: np.ndarray, prefactor) -> np.ndarray:
    """Achievable rate of each carrier of a stack under its optimal combiner.

    ``h`` is (K, n_rx, n_tx) and ``f`` (K, n_tx, n_streams); ``prefactor``
    is a float, or one per carrier shaped (K,). Returns the rates (K,) in
    bit/s/Hz. The optimal combiner W is the top left singular vectors of HF,
    so W^H HF = S V^H and the rate log2 det(I + prefactor (W^H HF)(W^H HF)^H)
    is sum_i log2(1 + prefactor s_i^2) over the singular values s_i of HF:
    one values-only SVD over the stack, and never negative.
    """
    s = np.linalg.svd(h @ f, compute_uv=False)
    return np.log1p(np.asarray(prefactor)[..., None] * s**2).sum(axis=-1) / np.log(2.0)
