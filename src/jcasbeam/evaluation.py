"""Beampattern metrics and the multi-configuration experiment sweep.

The sweep runs the full design over a grid of (SNR, rho, sensing subcarrier
count) settings with paired channel realizations: realization r always uses
seed base_seed + r, so every configuration sees the same channels and the
comparisons are matched. It runs in three passes:

1. Per realization and SNR, one eigen stage finds the sensing sets of every
   sensing count.
2. The covariance problem of the binary mask depends on the subcarrier alone
   once normalized by the design power, so each needed subcarrier is solved
   once for every SNR, in one batched call, and finished at each design
   power that needs it.
3. Per realization and SNR, one eigen stage again, from which every
   (rho, J) design of that SNR is refined. Recomputing it rather than
   keeping pass 1's keeps memory flat in the realization count. The
   sensing subcarriers of every (SNR, rho, J) design of a realization run
   in one RCG batch, each at its design's rho and power, and are relinked
   in one stacked call; a realization's designs are held together until
   its metrics are taken, so memory grows with the designs per
   realization, not with the realizations. One worker function, bound to
   the inputs every realization shares (the grid and every covariance
   solution of the sweep, about 1.7 MB pickled for the default sweep:
   3 SNRs, all 64 subcarriers, 1.5 MB of it the grid), is mapped over the
   seeds. Under ``jobs`` > 1 the seeds go out in at most ``jobs``
   contiguous blocks, so the shared inputs are pickled once per block, not
   once per realization.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
import math
import multiprocessing

import numpy as np

from .beamgrid import BeamGrid, build_grid
from .channel import generate_rayleigh
from .config import SystemConfig
from .covariance import beampattern_values as beampattern_gain
from .covariance import solve_radar_covariances
from .errors import ConfigError
from .pipeline import DesignResult, _refine, eigen_stage, select_jcas_subcarriers


def precoder_pattern(f: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Transmit beampattern a^H (F F^H) a over the grid.

    One precoder (n_tx, n_streams) with its (T, n_tx) steering gives (T,); a
    stack (J, n_tx, n_streams) with (J, T, n_tx) steering gives (J, T).
    """
    return beampattern_gain(f @ f.conj().mT, steering)


def _jcas_patterns(precoders: np.ndarray, jcas_subcarriers, grid: BeamGrid) -> np.ndarray:
    """Beampatterns of the sensing subcarriers, one (J, T) stack."""
    jcas = np.asarray(jcas_subcarriers, dtype=int)
    return precoder_pattern(precoders[jcas], grid.steering[jcas])


def beampattern_mse(precoders: np.ndarray, jcas_subcarriers, grid: BeamGrid) -> float:
    """Mean squared pattern error vs the binary mask over sensing subcarriers.

    Averages |desired - a^H F F^H a|^2 over all grid angles and all
    subcarriers in the sensing set; nan when the set is empty.
    """
    if len(jcas_subcarriers) == 0:
        return float("nan")
    errs = np.abs(grid.desired_gain - _jcas_patterns(precoders, jcas_subcarriers, grid)) ** 2
    return float(np.mean(errs))


def average_jcas_pattern(result: DesignResult) -> np.ndarray:
    """Beampattern averaged over the sensing subcarriers of one design run."""
    return np.mean(_jcas_patterns(result.precoders, result.jcas_subcarriers, result.grid), axis=0)


def median_member_pattern(result: DesignResult) -> np.ndarray:
    """Beampattern of the median-index sensing subcarrier (ascending order)."""
    jcas = result.jcas_subcarriers
    k = int(jcas[(len(jcas) - 1) // 2])
    return precoder_pattern(result.precoders[k], result.grid.steering[k])


@dataclass(frozen=True)
class SweepPoint:
    """Averaged metrics for one (SNR, rho, sensing-count) configuration."""

    snr_db: float
    rho: float
    n_jcas: int
    avg_rate: float
    avg_mse: float
    label: str  # "Conv." when every subcarrier senses, else "Prop."


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    pattern_snr: float
    angles: np.ndarray
    pattern_avg: dict     # (rho, n_jcas) -> mean pattern over realizations
    pattern_member: dict  # (rho, n_jcas) -> median-subcarrier pattern, averaged
    n_realizations: int
    base_seed: int


def _realization_links(base: SystemConfig, snrs, seed: int):
    """Channels of realization ``seed``, and per SNR its design config and eigen stage.

    The configs carry the SNR's power budget and ``seed``; their rho and
    sensing count are the base's.
    """
    channels = generate_rayleigh(base.n_subcarriers, base.n_rx, base.n_tx, seed)
    stages = []
    for snr in snrs:
        cfg = replace(base, power_budget=base.snr_power(snr), seed=seed)
        stages.append((cfg, eigen_stage(cfg, channels)))
    return channels, stages


def _realization_designs(base, snrs, rhos, jcas_counts, grid, covariances, seed):
    """Every (SNR, rho, J) design on the channel realization of ``seed``, refined together.

    Returns ``[(snr, rho, n_jcas, DesignResult)]`` in SNR, rho, J order.
    """
    channels, stages = _realization_links(base, snrs, seed)
    keys, designs = [], []
    for snr, (snr_cfg, eigen) in zip(snrs, stages):
        covs = covariances.get(snr_cfg.effective_power, {})
        for rho in rhos:
            for n_jcas in jcas_counts:
                keys.append((snr, rho, n_jcas))
                designs.append((replace(snr_cfg, rho=rho, n_jcas=n_jcas), eigen, covs))
    return [(*key, result) for key, result in zip(keys, _refine(channels, grid, designs))]


def _realization_metrics(base, snrs, rhos, jcas_counts, grid, covariances, pattern_snr, seed):
    """Metrics for every configuration on the channel realization of ``seed``.

    Module-level so worker processes can import it. Returns
    ({(snr, rho, J): (avg_rate, mse)}, {(rho, J): (avg_pattern, member_pattern)}).
    """
    point_metrics = {}
    patterns = {}
    designs = _realization_designs(base, snrs, rhos, jcas_counts, grid, covariances, seed)
    for snr, rho, n_jcas, result in designs:
        mse = beampattern_mse(result.precoders, result.jcas_subcarriers, grid)
        point_metrics[(snr, rho, n_jcas)] = (result.avg_rate, mse)
        if snr == pattern_snr and n_jcas > 0:
            patterns[(rho, n_jcas)] = (
                average_jcas_pattern(result),
                median_member_pattern(result),
            )
    return point_metrics, patterns


def sweep(
    base_cfg: SystemConfig,
    snrs,
    rhos,
    jcas_counts,
    n_realizations: int,
    base_seed: int | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Run the design across a configuration grid with paired realizations.

    Beampatterns are recorded at the listed SNR within 1e-9 of 10 dB when
    there is one, else at the last SNR. An empty ``snrs``, ``rhos`` or
    ``jcas_counts`` raises :class:`ConfigError`. ``jobs`` > 1 hands the
    realizations to worker processes in contiguous blocks, at most one per
    worker; the reduction order is fixed either way, so results are
    reproducible.
    """
    snrs = [float(s) for s in snrs]
    rhos = [float(r) for r in rhos]
    jcas_counts = [int(j) for j in jcas_counts]
    for name, values in (("snrs", snrs), ("rhos", rhos), ("jcas_counts", jcas_counts)):
        if not values:
            raise ConfigError(f"{name} must not be empty")
    if n_realizations < 1:
        raise ConfigError("n_realizations must be at least 1")
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    if base_seed is None:
        base_seed = base_cfg.seed
    grid = build_grid(base_cfg)
    pattern_snr = next((s for s in snrs if abs(s - 10.0) < 1e-9), snrs[-1])

    for rho in rhos:  # reject a bad rho or sensing count before any solve
        for n_jcas in jcas_counts:
            replace(base_cfg, rho=rho, n_jcas=n_jcas)

    # Pass 1: find which subcarriers any run needs at each design power.
    needed = {}
    for r in range(n_realizations):
        _, stages = _realization_links(base_cfg, snrs, base_seed + r)
        for cfg, (_, rates) in stages:
            ks = needed.setdefault(cfg.effective_power, set())
            for n_jcas in jcas_counts:
                ks.update(int(k) for k in select_jcas_subcarriers(rates, n_jcas))

    # Pass 2: solve each needed subcarrier once, finished at each power.
    covariances = solve_radar_covariances(
        grid, {power: sorted(ks) for power, ks in sorted(needed.items())}
    )

    # Pass 3: every design per realization, optionally in parallel.
    run = partial(
        _realization_metrics, base_cfg, tuple(snrs), tuple(rhos), tuple(jcas_counts),
        grid, covariances, pattern_snr,
    )
    seeds = range(base_seed, base_seed + n_realizations)
    if jobs > 1:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            outputs = list(pool.map(run, seeds, chunksize=math.ceil(n_realizations / jobs)))
    else:
        outputs = list(map(run, seeds))
    metrics, patterns = zip(*outputs)

    def mean(values):  # summed in realization order, so the result is reproducible
        return sum(values) / n_realizations

    points = tuple(
        SweepPoint(
            snr_db=snr,
            rho=rho,
            n_jcas=n_jcas,
            avg_rate=mean(m[(snr, rho, n_jcas)][0] for m in metrics),
            avg_mse=mean(m[(snr, rho, n_jcas)][1] for m in metrics),
            label="Conv." if n_jcas == base_cfg.n_subcarriers else "Prop.",
        )
        for snr in snrs
        for rho in rhos
        for n_jcas in jcas_counts
    )
    return SweepResult(
        points=points,
        pattern_snr=pattern_snr,
        angles=grid.angles,
        pattern_avg={key: mean(p[key][0] for p in patterns) for key in patterns[0]},
        pattern_member={key: mean(p[key][1] for p in patterns) for key in patterns[0]},
        n_realizations=n_realizations,
        base_seed=base_seed,
    )
