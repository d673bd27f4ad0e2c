"""End-to-end design: eigenmode stage, subcarrier selection, sensing refinement.

The flow per run:

1. :func:`eigen_stage`: eigenmode precoders and achievable rates of all
   subcarriers, each one stacked call over the subcarriers. A rate is taken
   under the optimal combiner from the singular values of HF alone, so no
   combiner is formed.
2. Rank the subcarriers by rate and give the n_jcas lowest sensing duty.
3. Solve the beampattern covariance problem on those subcarriers.
4. Refine each sensing subcarrier's precoder on the power sphere, trading
   covariance match against distance from the eigenmode precoder, all of
   them in one batched RCG call, with rho and power per subcarrier. A
   subcarrier whose rho is 1 starts at the closed-form strict design
   (:func:`~jcasbeam.manifold.strict_precoders`), where the RCG stops at
   iteration 0 on its gradient test; every other starts at its eigenmode
   precoder.
5. Reassemble: refined precoders on sensing subcarriers, eigenmode elsewhere.
   Rates are recomputed on the sensing subcarriers; elsewhere the precoder
   is the eigenmode one, so its eigen-stage rate is kept.

A sensing subcarrier's refinement and relinked rate depend only on its own
channel, eigenmode precoder and covariance, and on rho and the power, never
on the sensing count. So steps 4 and 5 are one per-carrier routine,
:func:`refine_carriers`, shared by :func:`run_design`, which hands it its
sensing set, and by the sweep, which hands it the ranked prefix of
:func:`select_jcas_subcarriers` at the largest count for every (SNR, rho) of
a realization at once and reads every sensing count off it. Both hand it
one covariance stack.

The module only computes: the command line (``cli.py``) writes a
:class:`DesignResult` out, ``design_manifest.json`` included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamgrid import BeamGrid, build_grid
from .channel import generate_rayleigh
from .config import SystemConfig
from .covariance import CovarianceSolution, solve_radar_covariance
from .errors import ConfigError
from .manifold import solve_rcg_batch, strict_precoders
from .precoding import eigenmode_precoders, link_rates


def select_jcas_subcarriers(rates, n_jcas: int) -> np.ndarray:
    """Indices of the ``n_jcas`` lowest-rate subcarriers, ranked: lowest rate first.

    Ties go to the lower subcarrier index (stable sort), so a smaller count's
    selection is a prefix of a larger count's.
    """
    return np.argsort(rates, kind="stable")[:n_jcas]


def eigen_stage(cfg: SystemConfig, channels: np.ndarray):
    """Eigenmode precoders with their rates on every subcarrier.

    ``channels`` is the complex (K, n_rx, n_tx) channel stack. Returns
    (precoders, rates) with shapes (K, n_tx, n_streams) and (K,). A
    subcarrier whose channel has no usable signal dimension raises
    :class:`DegenerateChannelError` naming it, and a power budget whose link
    rate overflows (near 1e308) raises :class:`ConfigError` naming it.
    """
    precoders = eigenmode_precoders(channels, cfg.n_streams, cfg.effective_power, cfg.effective_noise)
    with np.errstate(over="ignore"):  # an overflow is reported below
        rates = link_rates(channels, precoders, 1.0 / cfg.effective_noise)
    if not np.all(np.isfinite(rates)):
        raise ConfigError(f"power budget {cfg.power_budget:g} is too large: the link rate overflows")
    return precoders, rates


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
    ``covariances`` may be supplied to reuse work across runs. Without
    ``covariances`` the sensing set's are solved here in one batched call;
    a supplied dict is used as it is, and must hold every sensing
    subcarrier, solved at ``cfg.effective_power`` on this grid: a missing
    subcarrier, one whose matrix is not (n_tx, n_tx), or one whose diagonal
    is not ``cfg.effective_power / cfg.n_tx`` to 1e-12 relative, raises
    :class:`ValueError` naming it. The sensing covariances then form one
    (J, n_tx, n_tx) stack, all refined in one batched RCG call, each exactly
    as if solved alone.
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
    eigen_precoders, eigen_rates = eigen_stage(cfg, channels)
    jcas = np.sort(select_jcas_subcarriers(eigen_rates, cfg.n_jcas))
    if covariances is None:
        covariances = solve_radar_covariance(grid, cfg.effective_power, jcas)
    for k in jcas.tolist():
        if k not in covariances:
            raise ValueError(f"subcarrier {k}: no covariance supplied for this sensing subcarrier")
        if (shape := np.shape(covariances[k].matrix)) != (cfg.n_tx, cfg.n_tx):
            raise ValueError(f"subcarrier {k}: covariance shape {shape} is not {(cfg.n_tx, cfg.n_tx)}")
    covariances = {k: covariances[k] for k in jcas.tolist()}
    cov = np.array([sol.matrix for sol in covariances.values()]).reshape(-1, cfg.n_tx, cfg.n_tx)
    budget = cfg.effective_power / cfg.n_tx
    diagonals = cov.diagonal(axis1=1, axis2=2).real
    wrong = np.any(np.abs(diagonals - budget) > 1e-12 * budget, axis=1)
    if wrong.any():
        c = int(np.argmax(wrong))
        raise ValueError(
            f"subcarrier {jcas[c]}: covariance diagonal {diagonals[c].mean():.6g} does not match "
            f"the design power per antenna {budget:.6g}"
        )
    refined, f_new, new_rates = refine_carriers(
        channels[jcas], eigen_precoders[jcas], cov, cfg.rho, cfg.effective_power, 1.0 / cfg.effective_noise
    )
    precoders = eigen_precoders.copy()
    precoders[jcas] = f_new
    # off the sensing set the precoder is the eigenmode one: its rate stands
    rates = eigen_rates.copy()
    rates[jcas] = new_rates
    return DesignResult(
        config=cfg,
        channels=channels,
        grid=grid,
        eigen_precoders=eigen_precoders,
        eigen_rates=eigen_rates,
        jcas_subcarriers=jcas,
        covariances=covariances,
        refinements=dict(zip(jcas.tolist(), refined)),
        precoders=precoders,
        rates=rates,
    )


def refine_carriers(channels, f_hat, cov, rho, power, prefactor):
    """Refine a stack of sensing carriers and relink them: steps 4 and 5 per carrier.

    ``channels`` (B, n_rx, n_tx), ``f_hat`` (B, n_tx, n_streams) the eigenmode
    precoders and ``cov`` (B, n_tx, n_tx) the covariances, one per carrier;
    ``rho``, ``power`` and ``prefactor`` are each a float shared by every
    carrier or a (B,) array. A carrier's refinement reads only its own row,
    so it comes out bit for bit as if refined alone, whatever the stack. A
    carrier whose rho is 1 starts at its strict design, the closed-form
    minimizer nearest its eigenmode precoder; every other at that precoder.
    One RCG batch and one stacked relink; an empty stack, B = 0, refines
    nothing. Returns (list of
    :class:`RcgResult`, refined precoders (B, n_tx, n_streams), rates (B,)).
    """
    f0 = np.array(f_hat, dtype=complex)
    strict = np.broadcast_to(rho, f0.shape[:1]) == 1.0
    if strict.any():
        f0[strict] = strict_precoders(cov[strict], f0[strict], np.broadcast_to(power, strict.shape)[strict])
    refined = solve_rcg_batch(f0=f0, cov=cov, f_comm=f_hat, rho=rho, power=power)
    precoders = np.array([res.precoder for res in refined]).reshape(f_hat.shape)
    return refined, precoders, link_rates(channels, precoders, prefactor)
