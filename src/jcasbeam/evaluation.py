"""Beampattern metrics and the multi-configuration experiment sweep.

The sweep runs the full design over a grid of (SNR, rho, sensing subcarrier
count) settings with paired channel realizations: realization r always uses
seed ``base_cfg.seed + r``, so every configuration sees the same channels
and the comparisons are matched. One routine, :func:`_realization_links`,
makes a realization's channels, one eigen stage per SNR and one ranking per
SNR: :func:`select_jcas_subcarriers` at the largest sensing count, whose
ranked prefix holds every smaller count's set. The sweep runs in three
passes:

1. Per realization, the links and their ranking; the needed subcarriers
   are the union of the ranked prefixes. The pass ends once every
   subcarrier is needed.
2. The covariance problem of the binary mask depends on the subcarrier alone
   once normalized by the design power, so each needed subcarrier is solved
   once for every SNR, in one batched call, and finished at every SNR's
   design power.
3. Per realization, the links and their ranking again, so pass 3 refines
   exactly the prefixes pass 1 solved. Recomputing the eigen stage rather
   than keeping pass 1's keeps memory flat in the realization count. A
   carrier's refinement depends on its SNR and rho, never on the sensing
   count, so each prefix is refined once at every (SNR, rho), all of a
   realization's in one RCG batch on one covariance stack, one stacked
   relink and one pattern stack; every (SNR, rho, J) point reads its first
   J ranks off them. One
   worker function, bound to the inputs every realization shares (the grid,
   which holds the steering rows of pass 2's subcarriers only, and every
   covariance solution of the sweep: about 1.7 MB pickled for the default
   sweep, 3 SNRs and all 64 subcarriers, 1.5 MB of it the grid, and 0.14 MB
   for 3 SNRs at J=4 on one realization), is mapped over the seeds. Under
   ``jobs`` > 1 the seeds go out in at most ``jobs`` contiguous blocks, so
   the shared inputs are pickled once per block, not once per realization.

Importing the package loads the process pool (``multiprocessing`` and
``concurrent.futures.process``) only when a sweep runs under ``jobs`` > 1,
here, and the INI parser only when ``config.load_config`` or
``config.write_config`` runs: about 1.5 MB resident and 25 ms of import that
a design or a one-job sweep does not pay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
import math

import numpy as np

from .beamgrid import BeamGrid, build_grid
from .channel import generate_rayleigh
from .config import SystemConfig
from .covariance import solve_radar_covariances
from .errors import ConfigError
from .pipeline import eigen_stage, refine_carriers, select_jcas_subcarriers


def precoder_pattern(f: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Transmit beampattern a^H F F^H a = sum_s |(A conj(F))_ts|^2, straight from the precoders.

    One precoder (n_tx, n_streams) with its (T, n_tx) steering A gives (T,);
    a stack (J, n_tx, n_streams) with (J, T, n_tx) steering gives (J, T),
    and stacks broadcast over their leading axes like any ``@``.
    """
    return np.sum(np.abs(steering @ f.conj()) ** 2, axis=-1)


def mask_mse(patterns: np.ndarray, grid: BeamGrid) -> float:
    """Mean of |desired - pattern|^2 over a (J, T) pattern stack; nan when J = 0."""
    return float(np.mean(np.abs(grid.desired_gain - patterns) ** 2)) if len(patterns) else float("nan")


def beampattern_mse(precoders: np.ndarray, jcas_subcarriers, grid: BeamGrid) -> float:
    """Mean squared pattern error vs the binary mask over sensing subcarriers.

    Averages |desired - a^H F F^H a|^2 over all grid angles and all
    subcarriers in the sensing set; nan when the set is empty.
    """
    jcas = np.asarray(jcas_subcarriers, dtype=int)
    return mask_mse(precoder_pattern(precoders[jcas], grid.steering(jcas)), grid)


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


def _realization_links(cfgs, seed: int, count: int):
    """Channels of realization ``seed``, each SNR's eigen stage on them, and its ranked carriers.

    The ranking is :func:`select_jcas_subcarriers` of each SNR's rates at
    ``count``, one row per SNR in an (S, count) table: the sweep's one
    selection, which pass 1 takes the union of and pass 3 refines.
    """
    channels = generate_rayleigh(cfgs[0].n_subcarriers, cfgs[0].n_rx, cfgs[0].n_tx, seed)
    stages = [eigen_stage(cfg, channels) for cfg in cfgs]
    return channels, stages, np.stack([select_jcas_subcarriers(rates, count) for _, rates in stages])


def _realization_metrics(cfgs, rhos, jcas_counts, grid, covariances, pattern_s, seed):
    """Metrics for every configuration on the channel realization of ``seed``.

    Per SNR :func:`_realization_links` ranks the max(J) lowest-rate
    carriers, as for pass 1, and they are refined at every rho, all of them
    in one :func:`refine_carriers` call on one covariance stack and one
    pattern stack. That stack reads each SNR's ranked steering rows,
    asked of the grid once and broadcast over rho rather than copied once
    per rho; pass 2 built them, so this builds none. A point (SNR, rho, J)
    reads its first J ranks, with its pattern rows in ascending subcarrier
    order as a design's are, so each mean adds the same values in the same
    order as :func:`run_design`'s.
    ``cfgs`` holds one config per SNR and ``covariances`` one solution dict
    per SNR, in the same order. Module-level so worker processes can import
    it. Returns, by list position, (avg_rate, mse) per point (S, rho, J, 2)
    and the (average, member) patterns at SNR ``pattern_s`` (rho, J, 2, T).
    """
    shape = (len(cfgs), len(rhos), max(jcas_counts))
    channels, stages, ranked = _realization_links(cfgs, seed, shape[2])
    # the refined carriers, SNR-major, then rho, then rank
    snr_of, rho_of, rank = np.indices(shape).reshape(3, -1)
    ks = ranked[snr_of, rank]
    cov = np.array([covariances[s][k].matrix for s, k in zip(snr_of.tolist(), ks.tolist())])
    _, precoders, rates = refine_carriers(
        channels[ks],
        np.stack([eigen[0] for eigen in stages])[snr_of, ks],
        cov.reshape(-1, grid.n_tx, grid.n_tx),  # (0, n_tx, n_tx) without sensing carriers
        np.array(rhos)[rho_of],
        np.array([cfg.effective_power for cfg in cfgs])[snr_of],
        np.array([1.0 / cfg.effective_noise for cfg in cfgs])[snr_of],
    )
    rates = rates.reshape(shape)
    # (S, 1, J, T, n_tx): each SNR's ranked steering rows, broadcast over rho
    steering = grid.steering(ranked)[:, None]
    patterns = precoder_pattern(precoders.reshape(shape + precoders.shape[1:]), steering)

    metrics = np.empty(shape[:2] + (len(jcas_counts), 2))
    pattern_means = np.zeros((shape[1], len(jcas_counts), 2, len(grid.angles)))
    for s, ((_, eigen_rates), order) in enumerate(zip(stages, ranked)):
        for r in range(shape[1]):
            for j, n_jcas in enumerate(jcas_counts):
                top = order[:n_jcas]
                link = eigen_rates.copy()
                link[top] = rates[s, r, :n_jcas]
                rows = patterns[s, r, np.argsort(top)]
                metrics[s, r, j] = np.mean(link), mask_mse(rows, grid)
                if s == pattern_s and n_jcas:
                    pattern_means[r, j] = np.mean(rows, axis=0), rows[(n_jcas - 1) // 2]
    return metrics, pattern_means


def sweep(
    base_cfg: SystemConfig,
    snrs,
    rhos,
    jcas_counts,
    n_realizations: int,
    jobs: int = 1,
) -> SweepResult:
    """Run the design across a configuration grid with paired realizations.

    Realization r uses seed ``base_cfg.seed + r``; pass ``replace(base_cfg,
    seed=...)`` for other seeds. Beampatterns are recorded at the listed SNR
    within 1e-9 of 10 dB when there is one, else at the last SNR. An empty
    ``snrs``, ``rhos`` or ``jcas_counts`` raises :class:`ConfigError`.
    ``jobs`` > 1 hands the realizations to worker processes in contiguous
    blocks, at most one per worker; the reduction order is fixed either way,
    so results are reproducible.
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
    grid = build_grid(base_cfg)
    pattern_s = next((s for s, snr in enumerate(snrs) if abs(snr - 10.0) < 1e-9), len(snrs) - 1)

    for rho in rhos:  # reject a bad rho or sensing count before any solve
        for n_jcas in jcas_counts:
            replace(base_cfg, rho=rho, n_jcas=n_jcas)

    # Pass 1: find which subcarriers any run needs, over every SNR and the realizations
    # until all are; the largest count's set holds every smaller count's.
    cfgs = [replace(base_cfg, power_budget=base_cfg.snr_power(snr)) for snr in snrs]
    seeds = range(base_cfg.seed, base_cfg.seed + n_realizations)
    needed = set()
    for seed in seeds:
        needed.update(_realization_links(cfgs, seed, max(jcas_counts))[2].ravel().tolist())
        if len(needed) == base_cfg.n_subcarriers:
            break

    # Pass 2: solve each needed subcarrier once, finished at every SNR's power.
    covariances = solve_radar_covariances(grid, [cfg.effective_power for cfg in cfgs], sorted(needed))

    # Pass 3: every design per realization, optionally in parallel.
    run = partial(_realization_metrics, cfgs, tuple(rhos), tuple(jcas_counts), grid, covariances, pattern_s)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            outputs = list(pool.map(run, seeds, chunksize=math.ceil(n_realizations / jobs)))
    else:
        outputs = list(map(run, seeds))
    # summed in realization order, so the result is reproducible
    metrics, patterns = (sum(parts) / n_realizations for parts in zip(*outputs))
    points = tuple(
        SweepPoint(snr, rho, n_jcas, *metrics[s, r, j].tolist(),
                   "Conv." if n_jcas == base_cfg.n_subcarriers else "Prop.")
        for s, snr in enumerate(snrs)
        for r, rho in enumerate(rhos)
        for j, n_jcas in enumerate(jcas_counts)
    )
    index = {(rho, n_jcas): (r, j) for r, rho in enumerate(rhos) for j, n_jcas in enumerate(jcas_counts) if n_jcas}
    return SweepResult(
        points=points,
        pattern_snr=snrs[pattern_s],
        angles=grid.angles,
        pattern_avg={key: patterns[r, j, 0] for key, (r, j) in index.items()},
        pattern_member={key: patterns[r, j, 1] for key, (r, j) in index.items()},
    )
