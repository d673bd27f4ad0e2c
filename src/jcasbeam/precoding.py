"""Communications-side precoding: water-filling, eigenmode beams, rates.

Every stage runs on a stack of subcarriers at once, and a single matrix is a
stack of one: :func:`eigenmode_precoders` takes one SVD of the
(K, n_rx, n_tx) channel stack, water-fills every carrier with
:func:`waterfill` and fixes the column phases of all carriers together;
:func:`link_rates` takes one values-only SVD of the stack of effective
channels HF. Water-filling is the Euclidean projection of the negated noise
floors onto the scaled simplex {p >= 0, sum p = P}, and
:func:`simplex_projection`, a cumulative sum over each row's sorted entries,
is the one such projection in the package: the rho = 1 strict design
(``manifold.strict_precoders``) allocates its covariance's top eigenvalues
with it too. Stacked numpy linear algebra makes the same LAPACK call per
matrix as on one matrix, and the running sums are taken in the same order,
so a carrier's precoder and rate are the same bit for bit whatever stack it
is in.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChannelError, check_powers


def _project(x: np.ndarray, total):
    """Nearest points of {y >= 0, sum y = total} to the rows of a (K, n) stack, with levels and active counts.

    ``total`` is a float or one per row. Per row, sorted in descending order, the candidate level with
    the m largest entries active is (total - their running sum) / m, summed by ``cumsum``; the row keeps
    the leading run of entries x_m with x_m + candidate m > 0, and always its largest, and y = max(x +
    level, 0). A row whose y rounds to zero on every entry puts the whole total on its largest
    entry, and a row whose sum misses the total by more than 1e-12 relative is rescaled onto it; every
    other row keeps the bits of x + level. Returns (y (K, n), levels (K,), active counts (K,)). A total
    that is not positive and finite raises :class:`ConfigError` naming it.
    """
    check_powers(total)
    total = np.broadcast_to(np.asarray(total, dtype=float), x.shape[:-1])
    desc = -np.sort(-x, axis=-1)
    levels = (total[:, None] - np.cumsum(desc, axis=-1)) / np.arange(1, x.shape[-1] + 1)
    # total - sum rounds to -sum where the total is below the roundoff of the largest entry
    n_active = np.maximum(np.logical_and.accumulate(-desc < levels, axis=-1).sum(axis=-1), 1)
    level = np.take_along_axis(levels, n_active[:, None] - 1, axis=-1)[:, 0]
    y = np.maximum(x + level[:, None], 0.0)
    # where the entries dwarf the total, x + level carries the level's roundoff, or rounds
    # to zero on every entry: then the largest entry takes the whole total
    sums = y.sum(axis=-1)
    lost = sums == 0
    y[lost, np.argmax(x[lost], axis=-1)] = sums[lost] = total[lost]
    off = np.abs(sums - total) > 1e-12 * total
    y[off] *= total[off, None] / sums[off, None]
    return y, level, n_active


def simplex_projection(x, total) -> np.ndarray:
    """Nearest points of {y >= 0, sum y = total} to the rows of a (K, n) stack, by :func:`_project`.

    ``total`` is a float or one per row.
    """
    return _project(x, total)[0]


def waterfill(gains, total_power: float, noise_power: float = 1.0):
    """Exact water-filling of each row of a (K, n) stack of channel power gains.

    Per row, maximizes sum_i log(1 + g_i p_i / noise) subject to
    sum p_i = total and p_i >= 0. The optimum is max(level - floor_i, 0),
    floor_i = noise/g_i (infinite for a zero gain): the projection of the
    negated floors onto {p >= 0, sum p = total} (:func:`_project`, with its
    rules for a total below the roundoff of the strongest floor). Returns
    (powers (K, n), levels (K,), active counts (K,)). Negative gains raise
    ``ValueError``, a total that is not positive and finite raises
    :class:`ConfigError`, and a row without a positive gain raises
    :class:`DegenerateChannelError`.
    """
    gains = np.asarray(gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("channel gains must be nonnegative")
    positive = gains > 0
    if not np.all(np.any(positive, axis=-1)):
        raise DegenerateChannelError("no positive channel gains to allocate power over")
    floor = np.divide(noise_power, gains, out=np.full(gains.shape, np.inf), where=positive)
    return _project(-floor, total_power)


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
