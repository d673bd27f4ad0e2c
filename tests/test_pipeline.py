"""Subcarrier selection, refinement assembly, and full design runs."""

import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcasbeam import pipeline
from jcasbeam.beamgrid import build_grid
from jcasbeam.cli import _design_manifest
from jcasbeam.channel import generate_rayleigh
from jcasbeam.config import SystemConfig
from jcasbeam.covariance import solve_radar_covariance, solve_radar_covariances
from jcasbeam.errors import DegenerateChannelError
from jcasbeam.manifold import solve_rcg_batch, strict_precoders
from jcasbeam.precoding import link_rates
from jcasbeam.pipeline import (
    eigen_stage,
    run_design,
    select_jcas_subcarriers,
)

from conftest import assert_same_design, assert_same_result, rcg_objective


def test_selection_picks_lowest_rates():
    picked = select_jcas_subcarriers([3.0, 1.0, 2.0], 1)
    np.testing.assert_array_equal(picked, [1])
    picked = select_jcas_subcarriers([3.0, 1.0, 2.0], 2)
    np.testing.assert_array_equal(picked, [1, 2])


def test_selection_tie_breaks_to_lower_index():
    picked = select_jcas_subcarriers([1.0, 1.0, 2.0], 1)
    np.testing.assert_array_equal(picked, [0])


@pytest.mark.parametrize("rates", [
    [3.0, 1.0, 2.0, 0.5, 4.0],
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [2.0, 1.0, 2.0, 1.0, 2.0, 0.0],
    [0.0, 0.0, 5.0, 0.0, 5.0, 5.0, 0.0],
])
def test_smaller_counts_select_subsets_of_larger_ones(rates):
    # the sweep selects at the largest count alone: every smaller count's
    # set must be its prefix, tied rates included, where the stable sort decides
    for big in range(len(rates) + 1):
        larger = select_jcas_subcarriers(rates, big)
        for small in range(big + 1):
            np.testing.assert_array_equal(select_jcas_subcarriers(rates, small), larger[:small])


def test_selection_sorted_and_sized():
    # ranked: lowest rate first, so a run sorts the set by index itself
    rates = np.array([5.0, 1.0, 4.0, 0.5, 3.0])
    picked = select_jcas_subcarriers(rates, 3)
    np.testing.assert_array_equal(picked, [3, 1, 4])
    assert list(rates[picked]) == sorted(rates[picked])
    # selected mean rate can never exceed the mean of the rest
    rest = [r for i, r in enumerate(rates) if i not in set(picked)]
    assert np.mean(rates[picked]) <= np.mean(rest)


def test_selection_edge_counts():
    rates = [2.0, 1.0, 3.0]
    np.testing.assert_array_equal(select_jcas_subcarriers(rates, 0), [])
    np.testing.assert_array_equal(select_jcas_subcarriers(rates, 3), [1, 0, 2])


def test_assembly_substitutes_only_selected(small_cfg):
    res = run_design(small_cfg)
    jcas = set(int(k) for k in res.jcas_subcarriers)
    for k in range(small_cfg.n_subcarriers):
        if k in jcas:
            np.testing.assert_array_equal(res.precoders[k], res.refinements[k].precoder)
        else:
            np.testing.assert_array_equal(res.precoders[k], res.eigen_precoders[k])


def test_eigen_stage_shapes_and_positive_rates(small_cfg):
    channels = generate_rayleigh(
        small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, 0
    )
    precoders, rates = eigen_stage(small_cfg, channels)
    assert precoders.shape == (6, 4, 2)
    assert rates.shape == (6,)
    assert np.all(rates > 0)
    for k in range(6):
        assert np.linalg.norm(precoders[k]) ** 2 == pytest.approx(
            small_cfg.effective_power, abs=1e-9
        )


def test_run_design_power_invariant(small_cfg):
    res = run_design(small_cfg)
    for k in range(small_cfg.n_subcarriers):
        assert np.linalg.norm(res.precoders[k]) ** 2 == pytest.approx(
            small_cfg.effective_power, abs=1e-8
        )


def test_run_design_refinement_only_on_selected(small_cfg):
    res = run_design(small_cfg)
    jcas = set(int(k) for k in res.jcas_subcarriers)
    assert set(res.refinements) == jcas
    assert set(res.covariances) == jcas
    for k in range(small_cfg.n_subcarriers):
        if k not in jcas:
            np.testing.assert_array_equal(res.precoders[k], res.eigen_precoders[k])
            assert res.rates[k] == pytest.approx(res.eigen_rates[k], abs=1e-12)


def test_run_design_refined_rates_never_improve(small_cfg):
    # Moving away from the eigenmode precoder can only cost rate.
    res = run_design(small_cfg)
    for k in res.jcas_subcarriers:
        assert res.rates[k] <= res.eigen_rates[k] + 1e-9


def test_run_design_refinement_improves_objective(small_cfg):
    res = run_design(small_cfg)
    for k in res.jcas_subcarriers:
        k = int(k)
        start = rcg_objective(
            res.eigen_precoders[k],
            res.covariances[k].matrix,
            res.eigen_precoders[k],
            small_cfg.rho,
        )
        assert res.refinements[k].objective <= start + 1e-12


def test_run_design_rho_zero_keeps_eigen(small_cfg):
    res = run_design(replace(small_cfg, rho=0.0))
    np.testing.assert_allclose(res.precoders, res.eigen_precoders, atol=1e-6)
    np.testing.assert_allclose(res.rates, res.eigen_rates, atol=1e-6)


def test_run_design_no_sensing(small_cfg):
    res = run_design(replace(small_cfg, n_jcas=0))
    assert len(res.jcas_subcarriers) == 0
    assert res.refinements == {}
    np.testing.assert_array_equal(res.precoders, res.eigen_precoders)


def test_run_design_deterministic(small_cfg):
    a = run_design(small_cfg)
    b = run_design(small_cfg)
    np.testing.assert_array_equal(a.precoders, b.precoders)
    np.testing.assert_array_equal(a.rates, b.rates)
    np.testing.assert_array_equal(a.jcas_subcarriers, b.jcas_subcarriers)


def test_run_design_rejects_mismatched_channels(small_cfg):
    bad = generate_rayleigh(small_cfg.n_subcarriers, 3, small_cfg.n_tx, 0)
    with pytest.raises(ValueError, match="does not match"):
        run_design(small_cfg, channels=bad)


def test_run_design_accepts_precomputed_covariances(small_cfg):
    grid = build_grid(small_cfg)
    ref = run_design(small_cfg, grid=grid)
    covs = solve_radar_covariance(
        grid, small_cfg.effective_power, [int(k) for k in ref.jcas_subcarriers]
    )
    res = run_design(small_cfg, grid=grid, covariances=covs)
    np.testing.assert_allclose(res.precoders, ref.precoders, atol=1e-12)
    extra_key = int(ref.jcas_subcarriers[0])
    assert res.covariances[extra_key].iterations == covs[extra_key].iterations


def test_run_design_rejects_supplied_covariances_missing_a_sensing_carrier(small_cfg):
    cfg = replace(small_cfg, n_jcas=4)
    grid = build_grid(cfg)
    jcas = run_design(cfg, grid=grid).jcas_subcarriers.tolist()
    supplied = solve_radar_covariance(grid, cfg.effective_power, jcas[:-1])
    with pytest.raises(ValueError, match=f"^subcarrier {jcas[-1]}: no covariance supplied"):
        run_design(cfg, grid=grid, covariances=supplied)


def test_run_design_rejects_wrongly_shaped_supplied_covariances(small_cfg):
    # a supplied matrix that is not (n_tx, n_tx) is named before the stack is
    # formed, whether one carrier's is wrong (a ragged stack) or every one's
    cfg = replace(small_cfg, n_jcas=3)
    grid = build_grid(cfg)
    jcas = run_design(cfg, grid=grid).jcas_subcarriers.tolist()
    right = solve_radar_covariance(grid, cfg.effective_power, jcas)
    for shape in [(3, 3), (4, 3), (16,)]:
        for bad in (jcas[1:], jcas):
            supplied = dict(right)
            for k in bad:
                supplied[k] = replace(right[k], matrix=right[k].matrix.reshape(-1)[: np.prod(shape)].reshape(shape))
            with pytest.raises(ValueError, match=f"^subcarrier {bad[0]}: covariance shape ") as err:
                run_design(cfg, grid=grid, covariances=supplied)
            assert str(err.value).endswith(f"{shape} is not (4, 4)")


@pytest.mark.parametrize("rate_formula", ["consistent", "literal"])
def test_run_design_rejects_covariances_solved_at_another_power(small_cfg, rate_formula):
    # supplied covariances must carry the design power on their diagonal
    cfg = replace(small_cfg, rate_formula=rate_formula, power_budget=7.0)
    grid = build_grid(cfg)
    jcas = run_design(cfg, grid=grid).jcas_subcarriers.tolist()
    right = solve_radar_covariance(grid, cfg.effective_power, jcas)
    assert_same_design(run_design(cfg, grid=grid, covariances=right), run_design(cfg, grid=grid))
    wrong = solve_radar_covariance(grid, 2.0 * cfg.effective_power, jcas)
    with pytest.raises(ValueError, match=f"^subcarrier {jcas[0]}: covariance diagonal"):
        run_design(cfg, grid=grid, covariances=wrong)


def test_run_design_reuses_supplied_channels(small_cfg):
    channels = generate_rayleigh(
        small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, 99
    )
    res = run_design(small_cfg, channels=channels)
    assert res.channels is channels


def test_manifest_is_json_ready(small_cfg):
    # the manifest is built in the CLI; the pattern error is its own input, so any float serves here
    res = run_design(small_cfg)
    manifest = _design_manifest(res, 0.5)
    text = json.dumps(manifest)
    back = json.loads(text)
    assert back["config"]["n_tx"] == small_cfg.n_tx
    assert back["config"]["target_angles"] == list(small_cfg.target_angles)
    assert back["jcas_subcarriers"] == [int(k) for k in res.jcas_subcarriers]
    assert back["avg_rate"] == pytest.approx(res.avg_rate)
    assert len(back["rates"]) == small_cfg.n_subcarriers
    for k in res.jcas_subcarriers:
        entry = back["refinement"][str(int(k))]
        assert entry["objective"] >= 0
        assert entry["stop_reason"]
        assert back["covariance"][str(int(k))]["iterations"] >= 1


def test_avg_rate_properties(small_cfg):
    res = run_design(small_cfg)
    assert res.avg_rate == pytest.approx(float(np.mean(res.rates)))
    assert res.eigen_avg_rate == pytest.approx(float(np.mean(res.eigen_rates)))
    assert res.avg_rate <= res.eigen_avg_rate + 1e-9


def test_manifest_reports_covariance_convergence(small_cfg):
    res = run_design(small_cfg)
    back = json.loads(json.dumps(_design_manifest(res, 0.5)))
    assert sorted(back["covariance"]) == sorted(str(k) for k in res.covariances)
    for k, sol in res.covariances.items():
        entry = back["covariance"][str(k)]
        assert entry["converged"] is bool(sol.converged)
        assert entry["iterations"] == sol.iterations
        assert entry["objective"] == sol.objective


def assert_links_recomputed_everywhere(res):
    """Rates equal a fresh computation on every subcarrier."""
    rates = link_rates(res.channels, res.precoders, 1.0 / res.config.effective_noise)
    np.testing.assert_array_equal(res.rates, rates)


def test_run_design_regression_pin():
    # The RCG plateau stop is absolute, so any roundoff change in the solver
    # moves these iteration counts; they were recorded with the solver run
    # one subcarrier at a time.
    res = run_design(SystemConfig(n_subcarriers=16, n_jcas=4, rho=0.5))
    assert res.jcas_subcarriers.tolist() == [6, 9, 10, 11]
    assert [res.refinements[k].iterations for k in (6, 9, 10, 11)] == [134, 50, 55, 35]
    assert {r.stop_reason for r in res.refinements.values()} == {"objective_plateau"}
    assert res.avg_rate == pytest.approx(15.017346666031594, abs=1e-12)
    assert_links_recomputed_everywhere(res)


def test_run_design_without_sensing_refines_an_empty_stack(small_cfg, monkeypatch):
    stacks = []

    def spy(f0, cov, f_comm, rho, power):
        stacks.append((f0.shape, cov.shape))
        return solve_rcg_batch(f0, cov, f_comm, rho, power)

    monkeypatch.setattr(pipeline, "solve_rcg_batch", spy)
    res = run_design(replace(small_cfg, n_jcas=0))
    n_tx, n_streams = small_cfg.n_tx, small_cfg.n_streams
    assert stacks == [((0, n_tx, n_streams), (0, n_tx, n_tx))]
    assert res.refinements == {} and res.covariances == {}
    np.testing.assert_array_equal(res.rates, res.eigen_rates)
    assert_links_recomputed_everywhere(res)


def test_run_design_every_subcarrier_sensing_matches_solo_solves(small_cfg):
    cfg = replace(small_cfg, n_jcas=small_cfg.n_subcarriers)
    res = run_design(cfg)
    assert sorted(res.refinements) == list(range(cfg.n_subcarriers))
    for k, got in res.refinements.items():
        f_hat = res.eigen_precoders[k]
        solo = solve_rcg_batch(
            f_hat[None], res.covariances[k].matrix[None], f_hat[None], cfg.rho, cfg.effective_power
        )[0]
        for field in fields(solo):
            a, b = getattr(got, field.name), getattr(solo, field.name)
            assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, (k, field.name)
        np.testing.assert_array_equal(res.precoders[k], got.precoder)
    assert_links_recomputed_everywhere(res)


def test_run_design_single_transmit_antenna():
    # One antenna: the sphere point is fixed up to phase and the covariance
    # term vanishes on it, so the eigenmode precoder is already optimal.
    cfg = SystemConfig(n_tx=1, n_rx=2, n_streams=1, n_subcarriers=4, n_jcas=2, grid_size=31)
    res = run_design(cfg)
    assert len(res.refinements) == 2
    for k, ref in res.refinements.items():
        assert (ref.iterations, ref.stop_reason) == (0, "gradient_norm")
        assert abs(ref.precoder[0, 0]) ** 2 == pytest.approx(cfg.effective_power, rel=1e-12)
    np.testing.assert_allclose(res.precoders, res.eigen_precoders, rtol=1e-12)
    assert np.all(res.rates > 0)
    assert_links_recomputed_everywhere(res)


def test_run_design_with_power_far_below_the_noise_keeps_every_precoder_on_its_sphere(small_cfg):
    # P = 1e-300 against noise 1e300: every noise floor dwarfs the budget, so
    # the strongest stream of each subcarrier takes all of it
    cfg = replace(small_cfg, power_budget=1e-300, noise_power=1e300)
    res = run_design(cfg)
    for precoders in (res.eigen_precoders, res.precoders):
        np.testing.assert_allclose(np.sum(np.abs(precoders) ** 2, axis=(1, 2)), 1e-300, rtol=1e-12)
    assert np.all(np.count_nonzero(np.linalg.norm(res.eigen_precoders, axis=1), axis=1) == 1)


def test_run_design_names_the_degenerate_subcarrier(small_cfg):
    channels = generate_rayleigh(
        small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, small_cfg.seed
    )
    channels[3] = 0.0
    with pytest.raises(DegenerateChannelError, match=r"^subcarrier 3: "):
        run_design(small_cfg, channels=channels)


def test_run_design_on_real_valued_channels_keeps_complex_beams(small_cfg):
    # the refined precoders are complex even when the channels (and so the
    # eigen-stage beams) are real
    rng = np.random.default_rng(0)
    matrices = rng.standard_normal((small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx))
    res = run_design(small_cfg, channels=matrices)
    assert res.precoders.dtype == complex
    assert np.any(res.precoders[res.jcas_subcarriers].imag != 0.0)
    assert_links_recomputed_everywhere(res)


def assert_sane_design(res):
    """Finite non-negative rates, and every precoder on the power sphere to 1e-9."""
    assert np.all(np.isfinite(res.rates)) and np.all(res.rates >= 0)
    norms = np.linalg.norm(res.precoders, axis=(1, 2)) ** 2
    np.testing.assert_allclose(norms, res.config.effective_power, rtol=0, atol=1e-9)


def test_run_design_pure_sensing_weight(small_cfg):
    # at rho = 1 every sensing carrier starts at its strict design and stops there: at iteration 0, on
    # its gradient test, with the gradient at roundoff
    res = run_design(replace(small_cfg, rho=1.0))
    assert sorted(res.refinements) == res.jcas_subcarriers.tolist()
    for rec in res.refinements.values():
        assert (rec.iterations, rec.stop_reason, rec.converged) == (0, "gradient_norm", True)
        assert rec.grad_norm <= 1e-12
    assert_sane_design(res)
    assert_links_recomputed_everywhere(res)


def test_run_design_on_rank_deficient_channels():
    # rank-2 channels under 4 streams: every effective channel HF is rank
    # deficient, and its rate is still the determinant formula, with no warning
    cfg = SystemConfig(
        n_tx=4, n_rx=4, n_streams=4, n_subcarriers=8, n_jcas=3, power_budget=2.0, grid_size=41
    )
    rng = np.random.default_rng(0)
    left = rng.standard_normal((8, 4, 2)) + 1j * rng.standard_normal((8, 4, 2))
    right = rng.standard_normal((8, 2, 4)) + 1j * rng.standard_normal((8, 2, 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_design(cfg, channels=left @ right)
    assert [w for w in caught if w.category is RuntimeWarning] == []
    assert len(res.refinements) == 3
    assert_sane_design(res)
    assert_links_recomputed_everywhere(res)
    hf = res.channels @ res.precoders
    gram = np.eye(cfg.n_streams) + (hf.conj().mT @ hf) / cfg.effective_noise
    np.testing.assert_allclose(res.rates, np.log2(np.linalg.det(gram).real), rtol=1e-12)


def test_refine_carriers_batch_equals_solo(small_cfg):
    # one stack at mixed rho (1 among them, whose carrier starts at its strict
    # design), power and prefactor, a carrier repeated, must equal each carrier
    # refined alone at shared float settings, as run_design refines, and leave
    # its inputs as they were; an empty stack refines nothing
    grid = build_grid(small_cfg)
    channels = generate_rayleigh(small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, small_cfg.seed)
    powers = [small_cfg.effective_power, 5.0 * small_cfg.effective_power]
    covs = dict(zip(powers, solve_radar_covariances(grid, powers, range(small_cfg.n_subcarriers))))
    eigen = {p: eigen_stage(replace(small_cfg, power_budget=p), channels)[0] for p in powers}
    rows = [(0, 0.75, powers[0], 1.0), (3, 0.25, powers[1], 0.5), (0, 1.0, powers[0], 2.0),
            (5, 0.0, powers[1], 1.0), (3, 0.25, powers[1], 0.5), (2, 0.5, powers[0], 1.0)]
    ks, rho, power, prefactor = (np.array(column) for column in zip(*rows))
    args = (channels[ks], np.stack([eigen[p][k] for k, _, p, _ in rows]),
            np.stack([covs[p][k].matrix for k, _, p, _ in rows]), rho, power, prefactor)
    before = [a.copy() for a in args]
    refined, precoders, rates = pipeline.refine_carriers(*args)
    assert len(refined) == len(rows)
    for i, (_, r, p, c) in enumerate(rows):
        [solo], solo_precoders, solo_rates = pipeline.refine_carriers(*(a[i:i + 1] for a in args[:3]), r, p, c)
        np.testing.assert_equal(vars(refined[i]), vars(solo))
        np.testing.assert_array_equal(precoders[i], solo_precoders[0])
        np.testing.assert_array_equal(rates[i], solo_rates[0])
    for a, b in zip(args, before):
        np.testing.assert_array_equal(a, b)
    refined, precoders, rates = pipeline.refine_carriers(*(a[:0] for a in args))
    assert refined == [] and precoders.shape == (0, small_cfg.n_tx, small_cfg.n_streams) and rates.shape == (0,)


def test_refine_carriers_starts_only_its_rho1_carriers_at_the_strict_design(small_cfg):
    # in a stack that mixes rho 0.5 and 1 (whose batch = solo is test_refine_carriers_batch_equals_solo's),
    # the rho 0.5 rows equal a stack with no rho 1 row and the RCG run from the eigenmode precoders, bit
    # for bit; each rho 1 carrier starts at its strict design and stops there, at iteration 0 on its gradient
    power, prefactor = small_cfg.effective_power, 1.0 / small_cfg.effective_noise
    channels = generate_rayleigh(small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, small_cfg.seed)
    f_hat = eigen_stage(small_cfg, channels)[0]
    cov = np.stack([sol.matrix for sol in solve_radar_covariance(build_grid(small_cfg), power).values()])
    rho = np.array([1.0, 0.5, 0.5, 1.0, 0.5, 1.0])
    refined, precoders, rates = pipeline.refine_carriers(channels, f_hat, cov, rho, power, prefactor)
    half = rho == 0.5
    alone, alone_precoders, alone_rates = pipeline.refine_carriers(
        channels[half], f_hat[half], cov[half], 0.5, power, prefactor)
    rcg = solve_rcg_batch(f_hat[half], cov[half], f_hat[half], 0.5, power)
    for i, rec, direct in zip(np.flatnonzero(half), alone, rcg):
        assert_same_result(refined[i], rec)
        assert_same_result(rec, direct)
    np.testing.assert_array_equal(precoders[half], alone_precoders)
    np.testing.assert_array_equal(rates[half], alone_rates)
    strict = strict_precoders(cov[~half], f_hat[~half], power)
    for i in np.flatnonzero(~half):
        assert (refined[i].iterations, refined[i].stop_reason, refined[i].converged) == (0, "gradient_norm", True)
    np.testing.assert_allclose(precoders[~half], strict, rtol=0, atol=1e-12 * np.sqrt(power))


@st.composite
def edge_designs(draw):
    """A small config at -10 to 20 dB, and its channels: None (the seeded draw) or a product of thin factors."""
    n_tx, n_rx, n_subcarriers = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cfg = SystemConfig(
        n_tx=n_tx,
        n_rx=n_rx,
        n_streams=draw(st.integers(1, min(n_tx, n_rx))),
        n_subcarriers=n_subcarriers,
        n_jcas=draw(st.integers(0, n_subcarriers)),
        rho=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        grid_size=draw(st.integers(1, 15)),
        power_budget=10.0 ** (draw(st.floats(-10.0, 20.0)) / 10.0),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    rank = draw(st.none() | st.integers(0, min(n_tx, n_rx)))
    if rank is None:
        return cfg, None
    left = generate_rayleigh(n_subcarriers, n_rx, rank, cfg.seed)
    return cfg, left @ generate_rayleigh(n_subcarriers, rank, n_tx, cfg.seed + 1)


@settings(max_examples=40, deadline=None)
@given(design=edge_designs())
def test_edge_configurations_design_cleanly(design):
    # n_tx=1, n_jcas in {0, K}, rho in {0, 1} and rank-deficient channels:
    # a sane design, or a DegenerateChannelError exactly where a channel is zero
    cfg, channels = design
    zero = channels is not None and not np.all(np.any(channels, axis=(1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = run_design(cfg, channels=channels)
        except DegenerateChannelError:
            assert zero
            return
    assert not zero
    norms = np.linalg.norm(res.precoders, axis=(1, 2)) ** 2
    np.testing.assert_allclose(norms, cfg.effective_power, rtol=1e-9, atol=0)
    assert np.all(np.isfinite(res.rates)) and np.all(res.rates >= 0)
    assert len(res.jcas_subcarriers) == cfg.n_jcas
    assert sorted(res.refinements) == res.jcas_subcarriers.tolist()
