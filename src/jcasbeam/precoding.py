"""Communications-side precoding: water-filling, eigenmode beams, combiners, rates."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError


@dataclass(frozen=True)
class WaterfillAllocation:
    """Power split across eigenmodes with the water level that produced it."""

    powers: np.ndarray
    level: float
    n_active: int


def waterfill(gains, total_power: float, noise_power: float = 1.0) -> WaterfillAllocation:
    """Exact water-filling over channels with the given power gains.

    Maximizes sum_i log(1 + g_i p_i / noise) subject to sum p_i = total and
    p_i >= 0 by the closed-form active-set construction: try progressively
    larger active sets (strongest gains first) and keep the largest one whose
    weakest member still gets positive power.
    """
    g = np.asarray(gains, dtype=float)
    if np.any(g < 0):
        raise ValueError("channel gains must be nonnegative")
    if not total_power > 0:
        raise ValueError("total_power must be positive")
    positive = g > 0
    if not np.any(positive):
        raise DegenerateChannelError("no positive channel gains to allocate power over")

    floor = np.full(g.shape, np.inf)
    floor[positive] = noise_power / g[positive]
    order = np.argsort(floor, kind="stable")
    n_pos = int(np.count_nonzero(positive))

    level = 0.0
    n_active = 0
    running = 0.0
    for m in range(1, n_pos + 1):
        running += floor[order[m - 1]]
        candidate = (total_power + running) / m
        if candidate > floor[order[m - 1]]:
            level = candidate
            n_active = m
        else:
            break

    powers = np.maximum(level - floor, 0.0)
    powers[~positive] = 0.0
    return WaterfillAllocation(powers=powers, level=float(level), n_active=n_active)


def _fix_column_phases(mat: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Removes the per-column phase ambiguity of singular vectors so repeated
    factorizations of the same matrix give identical beams.
    """
    out = mat.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if np.abs(pivot) > 0:
            out[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return out


def eigenmode_precoder(h: np.ndarray, n_streams: int, total_power: float, noise_power: float):
    """Capacity-achieving precoder for one channel matrix.

    Returns (f_hat, singular_values, allocation): f_hat has orthogonal columns
    along the top right singular vectors of ``h`` scaled by the water-filled
    per-stream powers, so ||f_hat||_F^2 equals ``total_power``.
    """
    h = np.asarray(h)
    _, s, vh = np.linalg.svd(h, full_matrices=False)
    sv = s[:n_streams]
    if sv.size < n_streams or not np.any(sv > 0):
        raise DegenerateChannelError("channel matrix has no usable signal dimension")
    v = _fix_column_phases(vh.conj().T[:, :n_streams])
    alloc = waterfill(sv ** 2, total_power, noise_power)
    f_hat = v * np.sqrt(alloc.powers)
    return f_hat, sv, alloc


def optimal_combiner(h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Left singular vectors of the effective channel HF, one column per stream.

    If HF is rank deficient the missing columns are filled with an orthonormal
    complement (the extra streams then carry no signal) and a RuntimeWarning
    is emitted.
    """
    hf = np.asarray(h) @ np.asarray(f)
    n_streams = f.shape[1]
    u, s, _ = np.linalg.svd(hf, full_matrices=True)
    tol = max(hf.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if rank < n_streams:
        warnings.warn(
            f"effective channel rank {rank} is below the stream count {n_streams}; "
            "filling the combiner with an orthonormal complement",
            RuntimeWarning,
        )
    return _fix_column_phases(u[:, :n_streams])


def achievable_rate(h: np.ndarray, f: np.ndarray, w: np.ndarray, prefactor: float) -> float:
    """Spectral efficiency log2 det(I + prefactor * W^+ H F F^H H^H W) in bit/s/Hz.

    W^+ is the pseudo-inverse (equal to W^H for the orthonormal combiners
    produced here). Clamped at zero against roundoff; the determinant is >= 1
    for any orthonormal W.
    """
    w_pinv = np.linalg.pinv(w)
    eff = w_pinv @ h @ f
    m = np.eye(w.shape[1]) + prefactor * (eff @ (f.conj().T @ h.conj().T @ w))
    _, logdet = np.linalg.slogdet(m)
    return max(float(logdet) / np.log(2.0), 0.0)


def link_rates(h: np.ndarray, f: np.ndarray, prefactor: float):
    """Optimal combiner and achievable rate of each carrier of a stack.

    ``h`` is (K, n_rx, n_tx) and ``f`` (K, n_tx, n_streams); returns the
    combiners (K, n_rx, n_streams) and the rates (K,).
    """
    combiners = np.empty(h.shape[:2] + f.shape[2:], dtype=complex)
    rates = np.empty(len(h))
    for k, (h_k, f_k) in enumerate(zip(h, f)):
        w = optimal_combiner(h_k, f_k)
        combiners[k] = w
        rates[k] = achievable_rate(h_k, f_k, w, prefactor)
    return combiners, rates
