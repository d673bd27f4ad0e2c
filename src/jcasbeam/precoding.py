"""Communications-side precoding: water-filling, eigenmode beams, combiners, rates.

Every stage runs on a stack of subcarriers at once, and a single matrix is a
stack of one: :func:`eigenmode_precoders` takes one SVD of the
(K, n_rx, n_tx) channel stack, water-fills every carrier with
:func:`waterfill` through a cumulative sum over its sorted noise floors and
fixes the column phases of all carriers together; :func:`link_rates` takes
one SVD of the stack of effective channels HF for the combiners and one
log-determinant for the rates. Stacked numpy linear algebra makes the same
LAPACK call per matrix as on one matrix, and the running sums are taken in
the same order, so a carrier's precoder and combiner are the same bit for
bit whatever stack it is in.
"""

from __future__ import annotations

import warnings

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
    row keeps the leading candidates that lie above their own floor.
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
    n_active = np.logical_and.accumulate(candidate > by_floor, axis=-1).sum(axis=-1)
    level = np.take_along_axis(candidate, n_active[:, None] - 1, axis=-1)[:, 0]
    powers = np.maximum(level[:, None] - floor, 0.0)
    powers[~positive] = 0.0
    return powers, level, n_active


def _ctranspose(mat: np.ndarray) -> np.ndarray:
    return mat.conj().swapaxes(-1, -2)


def _fix_column_phases(mat: np.ndarray) -> np.ndarray:
    """Rotate each column of a (..., n, m) stack so its largest-magnitude entry is real positive.

    Removes the per-column phase ambiguity of singular vectors so repeated
    factorizations of the same matrix give identical beams. An all-zero
    column is left as it is.
    """
    pivot = np.take_along_axis(mat, np.argmax(np.abs(mat), axis=-2)[..., None, :], axis=-2)
    size = np.abs(pivot)
    nonzero = size > 0
    turn = np.conj(pivot) / np.where(nonzero, size, 1.0)
    return np.where(nonzero, mat * turn, mat)


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
    v = _fix_column_phases(_ctranspose(vh)[:, :, :n_streams])
    powers = waterfill(sv ** 2, total_power, noise_power)[0]
    return v * np.sqrt(powers)[:, None, :]


def _combiners(hf: np.ndarray, n_streams: int) -> np.ndarray:
    """Left singular vectors of each effective channel of a (K, n_rx, n_streams) stack.

    Each rank-deficient carrier emits one RuntimeWarning.
    """
    u, s, _ = np.linalg.svd(hf, full_matrices=True)
    top = s[:, 0] if s.shape[-1] else np.zeros(len(hf))
    tol = max(hf.shape[1:]) * np.finfo(float).eps * top
    for rank in np.sum(s > tol[:, None], axis=-1).tolist():
        if rank < n_streams:
            warnings.warn(
                f"effective channel rank {rank} is below the stream count {n_streams}; "
                "filling the combiner with an orthonormal complement",
                RuntimeWarning,
            )
    return _fix_column_phases(u[:, :, :n_streams])


def link_rates(h: np.ndarray, f: np.ndarray, prefactor: float):
    """Optimal combiner and achievable rate of each carrier of a stack.

    ``h`` is (K, n_rx, n_tx) and ``f`` (K, n_tx, n_streams); returns the
    combiners (K, n_rx, n_streams) and the rates (K,), from one SVD and one
    log-determinant over the stack of effective channels HF. A combiner is
    the top left singular vectors of HF, its columns orthonormal (filled out
    with an orthonormal complement where HF is rank deficient), so W^H is its
    pseudo-inverse and the rate is log2 det(I + prefactor * W^H HF (W^H HF)^H)
    in bit/s/Hz, clamped at zero against roundoff.
    """
    hf = h @ f
    combiners = _combiners(hf, f.shape[-1])
    eff = _ctranspose(combiners) @ hf
    m = np.eye(combiners.shape[-1]) + prefactor * (eff @ _ctranspose(eff))
    _, logdet = np.linalg.slogdet(m)
    return combiners, np.maximum(logdet / np.log(2.0), 0.0)
