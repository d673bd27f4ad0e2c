"""End-to-end design: eigenmode stage, subcarrier selection, sensing refinement.

The flow per run:

1. :func:`eigen_stage`: eigenmode precoders and achievable rates of all
   subcarriers, each one stacked call over the subcarriers. A rate is taken
   under the optimal combiner from the singular values of HF alone, so no
   combiner is formed.
2. Pick the n_jcas subcarriers with the lowest rates for sensing duty.
3. Solve the beampattern covariance problem on those subcarriers.
4. Refine each sensing subcarrier's precoder on the power sphere, trading
   covariance match against distance from the eigenmode precoder, all of
   them in one batched RCG call, with rho and power per subcarrier.
5. Reassemble: refined precoders on sensing subcarriers, eigenmode elsewhere.
   Rates are recomputed on the sensing subcarriers; elsewhere the precoder
   is the eigenmode one, so its eigen-stage rate is kept.

Steps 2-5 read the eigen stage without writing to it, so the sweep runs one
eigen stage per SNR and refines every (rho, J) design of that SNR from it.
One helper runs steps 2-5 for any number of designs on one channel
realization: :func:`run_design` hands it one design, the sweep every
(SNR, rho, J) design of a realization, whose sensing subcarriers then share
one RCG batch and one stacked relink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamgrid import BeamGrid, build_grid
from .channel import generate_rayleigh
from .config import SystemConfig
from .covariance import CovarianceSolution, solve_radar_covariances
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
    """Eigenmode precoders with their rates on every subcarrier.

    ``channels`` is the complex (K, n_rx, n_tx) channel stack. Returns
    (precoders, rates) with shapes (K, n_tx, n_streams) and (K,). A
    subcarrier whose channel has no usable signal dimension raises
    :class:`DegenerateChannelError` naming it.
    """
    precoders = eigenmode_precoders(channels, cfg.n_streams, cfg.effective_power, cfg.effective_noise)
    return precoders, link_rates(channels, precoders, 1.0 / cfg.effective_noise)


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
    return _refine(channels, grid, [(cfg, eigen_stage(cfg, channels), covariances or {})])[0]


def _refine(channels, grid, designs) -> list[DesignResult]:
    """Steps 2-5 of every design in ``designs``, all on the channel realization ``channels``.

    Each design is ``(cfg, eigen, covariances)``: its config, the
    :func:`eigen_stage` of ``cfg`` on ``channels``, and covariances solved at
    ``cfg.effective_power``. ``eigen`` is only read, so one eigen stage can
    serve every design at its power. Covariances missing for a design are
    solved here, all of them in one batched call. The sensing subcarriers of
    every design are then refined in one RCG batch, each at its design's rho
    and power, and relinked in one stacked call, so each design comes out bit
    for bit as if run alone. Returns one :class:`DesignResult` per design, in
    order.
    """
    jcas = [select_jcas_subcarriers(eigen[1], cfg.n_jcas) for cfg, eigen, _ in designs]

    requests = {}
    for (cfg, _, covs), ks in zip(designs, jcas):
        missing = [k for k in ks.tolist() if k not in covs]
        if missing:
            requests.setdefault(cfg.effective_power, []).extend(missing)
    solved = solve_radar_covariances(grid, requests) if requests else {}
    covariances = [
        {k: covs[k] if k in covs else solved[cfg.effective_power][k] for k in ks.tolist()}
        for (cfg, _, covs), ks in zip(designs, jcas)
    ]

    # the sensing carriers of every design, stacked in design order, each with its design's settings
    counts = [len(ks) for ks in jcas]
    f_hat = np.concatenate([eigen[0][ks] for (_, eigen, _), ks in zip(designs, jcas)])
    settings = [(cfg.rho, cfg.effective_power, 1.0 / cfg.effective_noise) for cfg, _, _ in designs]
    rho, power, prefactor = np.repeat(np.array(settings), counts, axis=0).T

    refined = []
    if len(f_hat):
        refined = solve_rcg_batch(
            f0=f_hat,
            cov=np.stack([sol.matrix for covs in covariances for sol in covs.values()]),
            f_comm=f_hat,
            rho=rho,
            power=power,
        )
    f_new = np.array([res.precoder for res in refined]).reshape(f_hat.shape)
    new_rates = link_rates(channels[np.concatenate(jcas)], f_new, prefactor)

    results = []
    ends = np.cumsum(counts).tolist()
    for (cfg, eigen, _), ks, covs, end, n in zip(designs, jcas, covariances, ends, counts):
        eigen_precoders, eigen_rates = eigen
        own = slice(end - n, end)
        precoders = eigen_precoders.copy()
        precoders[ks] = f_new[own]
        # off the sensing set the precoder is the eigenmode one: its rate stands
        rates = eigen_rates.copy()
        rates[ks] = new_rates[own]
        results.append(DesignResult(
            config=cfg,
            channels=channels,
            grid=grid,
            eigen_precoders=eigen_precoders,
            eigen_rates=eigen_rates,
            jcas_subcarriers=ks,
            covariances=covs,
            refinements=dict(zip(ks.tolist(), refined[own])),
            precoders=precoders,
            rates=rates,
        ))
    return results


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
