"""End-to-end design: eigenmode stage, subcarrier selection, sensing refinement.

The flow per run:

1. :func:`eigen_stage`: eigenmode precoders, combiners and achievable rates
   of all subcarriers, each one stacked call over the subcarriers.
2. Pick the n_jcas subcarriers with the lowest rates for sensing duty.
3. Solve the beampattern covariance problem on those subcarriers.
4. Refine each sensing subcarrier's precoder on the power sphere, trading
   covariance match against distance from the eigenmode precoder, all of
   them in one batched RCG call.
5. Reassemble: refined precoders on sensing subcarriers, eigenmode elsewhere.
   Combiners and rates are recomputed on the sensing subcarriers; elsewhere
   the precoder is the eigenmode one, so its eigen-stage combiner and rate
   are kept.

Steps 2-5 read the eigen stage without writing to it, so the sweep runs one
eigen stage per SNR and refines every (rho, J) design of that SNR from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamgrid import BeamGrid, build_grid
from .channel import generate_rayleigh
from .config import SystemConfig
from .covariance import CovarianceSolution, solve_radar_covariance
from .manifold import solve_rcg_batch
from .precoding import eigenmode_precoders, link_rates


def select_jcas_subcarriers(rates, n_jcas: int) -> np.ndarray:
    """Indices of the ``n_jcas`` lowest-rate subcarriers, ascending by index.

    Ties go to the lower subcarrier index (stable sort).
    """
    rates = np.asarray(rates)
    picked = np.argsort(rates, kind="stable")[:n_jcas]
    return np.sort(picked)


def eigen_stage(cfg: SystemConfig, channels: np.ndarray):
    """Eigenmode precoders with their combiners and rates on every subcarrier.

    ``channels`` is the complex (K, n_rx, n_tx) channel stack. Returns
    (precoders, combiners, rates) with shapes (K, n_tx, n_streams),
    (K, n_rx, n_streams) and (K,). A subcarrier whose channel has no usable
    signal dimension raises :class:`DegenerateChannelError` naming it.
    """
    precoders = eigenmode_precoders(channels, cfg.n_streams, cfg.effective_power, cfg.effective_noise)
    combiners, rates = link_rates(channels, precoders, 1.0 / cfg.effective_noise)
    return precoders, combiners, rates


@dataclass(frozen=True)
class DesignResult:
    """Everything a design run produced, stage by stage."""

    config: SystemConfig
    channels: np.ndarray          # (K, n_rx, n_tx)
    grid: BeamGrid
    eigen_precoders: np.ndarray   # (K, n_tx, n_streams)
    eigen_rates: np.ndarray       # (K,)
    jcas_subcarriers: np.ndarray  # (n_jcas,) ascending
    covariances: dict             # subcarrier -> CovarianceSolution
    refinements: dict             # subcarrier -> RcgResult
    precoders: np.ndarray         # (K, n_tx, n_streams) final
    combiners: np.ndarray         # (K, n_rx, n_streams)
    rates: np.ndarray             # (K,) final

    @property
    def avg_rate(self) -> float:
        return float(np.mean(self.rates))

    @property
    def eigen_avg_rate(self) -> float:
        return float(np.mean(self.eigen_rates))


def run_design(
    cfg: SystemConfig,
    channels: np.ndarray | None = None,
    grid: BeamGrid | None = None,
    covariances: dict[int, CovarianceSolution] | None = None,
) -> DesignResult:
    """Run the full design for one channel realization.

    ``channels`` (a (K, n_rx, n_tx) array, taken as complex), ``grid``, and
    ``covariances`` may be supplied to reuse work across runs; covariances
    missing for the sensing set are solved here in one batched call.
    Provided covariances must have been solved at
    ``cfg.effective_power`` on this grid. All sensing subcarriers are refined
    in one batched RCG call, each exactly as if solved alone.
    """
    if grid is None:
        grid = build_grid(cfg)
    if channels is None:
        channels = generate_rayleigh(cfg.n_subcarriers, cfg.n_rx, cfg.n_tx, cfg.seed)
    channels = np.asarray(channels, dtype=complex)
    if channels.shape != (cfg.n_subcarriers, cfg.n_rx, cfg.n_tx):
        raise ValueError(
            f"channel shape {channels.shape} does not match the "
            f"configured ({cfg.n_subcarriers}, {cfg.n_rx}, {cfg.n_tx})"
        )
    return _refine(cfg, channels, grid, covariances or {}, eigen_stage(cfg, channels))


def _refine(cfg, channels, grid, covariances, eigen) -> DesignResult:
    """Steps 2-5 of a design from ``eigen``, the :func:`eigen_stage` of ``cfg`` on ``channels``.

    ``eigen`` is only read, so one eigen stage can serve every design at its
    power. Covariances missing from ``covariances`` are solved here.
    """
    eigen_precoders, eigen_combiners, eigen_rates = eigen
    power = cfg.effective_power
    jcas = select_jcas_subcarriers(eigen_rates, cfg.n_jcas)

    missing = [k for k in jcas if k not in covariances]
    if missing:
        covariances = dict(covariances)
        covariances.update(solve_radar_covariance(grid, power, missing))

    precoders = eigen_precoders.copy()
    refinements = {}
    if jcas.size:
        results = solve_rcg_batch(
            f0=eigen_precoders[jcas],
            cov=np.stack([covariances[int(k)].matrix for k in jcas]),
            f_comm=eigen_precoders[jcas],
            rho=cfg.rho,
            power=power,
        )
        refinements = dict(zip(jcas.tolist(), results))
        precoders[jcas] = [res.precoder for res in results]

    # off the sensing set the precoder is the eigenmode one: its combiner and rate stand
    combiners, rates = eigen_combiners.copy(), eigen_rates.copy()
    combiners[jcas], rates[jcas] = link_rates(channels[jcas], precoders[jcas], 1.0 / cfg.effective_noise)

    return DesignResult(
        config=cfg,
        channels=channels,
        grid=grid,
        eigen_precoders=eigen_precoders,
        eigen_rates=eigen_rates,
        jcas_subcarriers=jcas,
        covariances={int(k): covariances[int(k)] for k in jcas},
        refinements=refinements,
        precoders=precoders,
        combiners=combiners,
        rates=rates,
    )


def build_run_manifest(result: DesignResult) -> dict:
    """JSON-ready summary of one design run (no arrays beyond per-k scalars)."""
    return {
        "config": result.config.to_dict(),
        "jcas_subcarriers": [int(k) for k in result.jcas_subcarriers],
        "eigen_avg_rate": result.eigen_avg_rate,
        "avg_rate": result.avg_rate,
        "rates": [float(r) for r in result.rates],
        "covariance": {
            str(k): {
                "iterations": sol.iterations,
                "objective": sol.objective,
                "converged": bool(sol.converged),
                "residual": sol.residual,
            }
            for k, sol in result.covariances.items()
        },
        "refinement": {
            str(k): {
                "iterations": res.iterations,
                "objective": res.objective,
                "converged": bool(res.converged),
                "stop_reason": res.stop_reason,
            }
            for k, res in result.refinements.items()
        },
    }
