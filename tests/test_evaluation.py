"""Pattern metrics, sweep aggregation, and table formatting."""

import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcasbeam import beamgrid, evaluation, pipeline
from jcasbeam.beamgrid import build_grid
from jcasbeam.channel import generate_rayleigh
from jcasbeam.config import SystemConfig
from jcasbeam.covariance import solve_radar_covariances
from jcasbeam.errors import ConfigError
from jcasbeam.manifold import solve_rcg_batch
from jcasbeam.evaluation import (
    beampattern_mse,
    mask_mse,
    precoder_pattern,
    sweep,
)
from jcasbeam.pipeline import run_design
from jcasbeam.precoding import eigenmode_precoders
from jcasbeam.tables import write_table

from conftest import SMALL, random_complex, reference_pattern


def test_precoder_pattern_matches_direct_quadratic(rng, small_cfg):
    grid = build_grid(small_cfg)
    f = random_complex(rng, (small_cfg.n_tx, small_cfg.n_streams))
    pat = precoder_pattern(f, grid.steering(0))
    cov = f @ f.conj().T
    direct = np.array(
        [np.real(a.conj() @ cov @ a) for a in grid.steering(0)]
    )
    np.testing.assert_allclose(pat, direct, atol=1e-10)
    assert np.all(pat >= -1e-10)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_car=st.integers(0, 3),
    n_tx=st.integers(1, 5),
    n_streams=st.integers(1, 3),
    rank=st.integers(0, 3),
)
@example(seed=0, n_car=0, n_tx=4, n_streams=2, rank=2)
@example(seed=1, n_car=2, n_tx=4, n_streams=1, rank=1)
@example(seed=2, n_car=3, n_tx=4, n_streams=3, rank=1)
def test_precoder_pattern_matches_the_gram_reference(seed, n_car, n_tx, n_streams, rank):
    # F of rank min(rank, n_tx, n_streams), so rank-deficient (down to F = 0) as often as full
    rng = np.random.default_rng(seed)
    rank = min(rank, n_tx, n_streams)
    f = random_complex(rng, (n_car, n_tx, rank)) @ random_complex(rng, (n_car, rank, n_streams))
    steering = random_complex(rng, (n_car, 13, n_tx))
    got = precoder_pattern(f, steering)
    assert got.shape == (n_car, 13)
    want = reference_pattern(f @ f.conj().mT, steering)
    # relative to |a|^2 ||F||^2, the bound of a^H F F^H a, which a null's roundoff scales with
    bound = np.sum(np.abs(steering) ** 2, axis=-1) * np.sum(np.abs(f) ** 2, axis=(1, 2))[:, None]
    assert np.all(np.abs(got - want) <= 1e-12 * bound)
    for j in range(n_car):  # a stacked call gives each carrier the bits of its one-carrier call
        np.testing.assert_array_equal(got[j], precoder_pattern(f[j], steering[j]))


def test_mse_double_loop_oracle(rng, small_cfg):
    grid = build_grid(small_cfg)
    precoders = random_complex(
        rng, (small_cfg.n_subcarriers, small_cfg.n_tx, small_cfg.n_streams)
    )
    jcas = [1, 4]
    total = 0.0
    count = 0
    for k in jcas:
        cov = precoders[k] @ precoders[k].conj().T
        for t in range(grid.angles.size):
            a = grid.steering(k)[t]
            gain = np.real(a.conj() @ cov @ a)
            total += abs(grid.desired_gain[t] - gain) ** 2
            count += 1
    assert beampattern_mse(precoders, jcas, grid) == pytest.approx(
        total / count, rel=1e-12
    )


class _FlatGrid:
    """Minimal stand-in grid: one subcarrier, unit steering, fixed desired."""

    def __init__(self, n_angles, desired):
        self.angles = np.zeros(n_angles)
        self.desired_gain = np.asarray(desired, dtype=float)

    def steering(self, ks):
        return np.ones(np.shape(ks) + (len(self.angles), 1), dtype=complex)


def test_mse_perfect_match_is_zero():
    # A single antenna emits |f|^2 at every angle; ask for exactly that.
    precoders = np.full((1, 1, 1), 0.5, dtype=complex)
    grid = _FlatGrid(3, [0.25, 0.25, 0.25])
    assert beampattern_mse(precoders, [0], grid) == 0.0


def test_mse_single_point_arithmetic():
    precoders = np.zeros((1, 1, 1), dtype=complex)
    # emitted gain 0, desired 0.5: squared error 0.25
    grid = _FlatGrid(1, [0.5])
    assert beampattern_mse(precoders, [0], grid) == pytest.approx(0.25, abs=1e-15)


def test_mse_empty_sensing_set_is_nan(small_cfg):
    grid = build_grid(small_cfg)
    precoders = np.zeros((6, 4, 2), dtype=complex)
    assert np.isnan(beampattern_mse(precoders, [], grid))


def jcas_patterns(res):
    """The (J, T) pattern stack of a design's sensing carriers, as the design command scores it."""
    return precoder_pattern(res.precoders[res.jcas_subcarriers], res.grid.steering(res.jcas_subcarriers))


def test_pattern_summaries(small_cfg):
    res = run_design(small_cfg)
    avg = np.mean(jcas_patterns(res), axis=0)
    assert avg.shape == (small_cfg.grid_size,)
    pats = [
        precoder_pattern(res.precoders[int(k)], res.grid.steering(int(k)))
        for k in res.jcas_subcarriers
    ]
    np.testing.assert_allclose(avg, np.mean(pats, axis=0), atol=1e-12)


@pytest.fixture(scope="module")
def small_sweep():
    from jcasbeam.config import SystemConfig

    cfg = SystemConfig(**SMALL)
    return cfg, sweep(cfg, snrs=[0.0, 10.0], rhos=[0.5], jcas_counts=[2, 6], n_realizations=3)


def test_sweep_point_grid_and_labels(small_sweep):
    cfg, res = small_sweep
    assert len(res.points) == 4
    keys = [(p.snr_db, p.rho, p.n_jcas) for p in res.points]
    assert keys == [(0.0, 0.5, 2), (0.0, 0.5, 6), (10.0, 0.5, 2), (10.0, 0.5, 6)]
    labels = {p.n_jcas: p.label for p in res.points}
    assert labels == {2: "Prop.", 6: "Conv."}
    assert all(p.avg_rate >= 0 and p.avg_mse >= 0 for p in res.points)


def test_sweep_pattern_bookkeeping(small_sweep):
    cfg, res = small_sweep
    assert res.pattern_snr == 10.0
    assert set(res.pattern_avg) == {(0.5, 2), (0.5, 6)}
    assert res.pattern_avg[(0.5, 2)].shape == (cfg.grid_size,)


# recorded before the sweep refined every (rho, J) design of an SNR from one eigen
# stage; the two 10 dB rates re-recorded (1 ulp each) when rates came to be taken
# from the singular values of HF; the two J=2 pattern errors re-recorded (1 ulp each,
# 0.7201298108476419 and 98.57306945443833 before) when patterns came to be taken
# from F rather than F F^H
SMALL_SWEEP_POINTS = [
    (0.0, 0.5, 2, 2.907573594875025, 0.7201298108476418),
    (0.0, 0.5, 6, 2.6048524073371113, 0.657836035600238),
    (10.0, 0.5, 2, 7.4683179506134385, 98.57306945443831),
    (10.0, 0.5, 6, 5.85224751841313, 98.84131027242245),
]


def test_sweep_regression_pin(small_sweep):
    _, res = small_sweep
    got = [(p.snr_db, p.rho, p.n_jcas, p.avg_rate, p.avg_mse) for p in res.points]
    assert got == SMALL_SWEEP_POINTS


def test_sweep_runs_one_eigen_stage_per_realization_snr_and_pass(small_cfg, monkeypatch):
    # pass 3 runs one eigen stage per (realization, SNR), and the (rho, J)
    # designs of an SNR share it; pass 1 does too, until every subcarrier is
    # needed: with max(J) = K that is after the first realization, and with
    # at most 2 x 2 carriers needed a realization, never before the last
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigenmode_precoders(*args, **kwargs)

    monkeypatch.setattr(pipeline, "eigenmode_precoders", counting)
    snrs, rhos, n_realizations = [0.0, 10.0], [0.25, 0.75], 2
    for jcas_counts, pass1_realizations in (([1, 2], n_realizations), ([1, 2, small_cfg.n_subcarriers], 1)):
        calls.clear()
        sweep(small_cfg, snrs, rhos, jcas_counts, n_realizations=n_realizations)
        assert len(calls) == len(snrs) * (pass1_realizations + n_realizations)
        assert set(calls) == {(small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx)}


def test_sweep_matches_manual_average(small_sweep):
    cfg, res = small_sweep
    point = next(p for p in res.points if p.snr_db == 10.0 and p.n_jcas == 2)
    rates = []
    for r in range(3):
        run_cfg = replace(
            cfg, power_budget=10.0, rho=0.5, n_jcas=2, seed=cfg.seed + r
        )
        rates.append(run_design(run_cfg).avg_rate)
    assert point.avg_rate == pytest.approx(np.mean(rates), rel=1e-12)


def test_sweep_seeding_contract(small_cfg):
    # Doubling the realization count reuses the first half's draws.
    one = sweep(small_cfg, [5.0], [0.5], [2], n_realizations=1)
    two = sweep(small_cfg, [5.0], [0.5], [2], n_realizations=2)
    shifted = sweep(replace(small_cfg, seed=small_cfg.seed + 1), [5.0], [0.5], [2], n_realizations=1)
    a = one.points[0].avg_rate
    b = shifted.points[0].avg_rate
    assert two.points[0].avg_rate == pytest.approx((a + b) / 2, rel=1e-12)


def test_sweep_deterministic(small_cfg):
    r1 = sweep(small_cfg, [5.0], [0.25], [2], n_realizations=2)
    r2 = sweep(small_cfg, [5.0], [0.25], [2], n_realizations=2)
    assert r1.points == r2.points
    np.testing.assert_array_equal(r1.pattern_avg[(0.25, 2)], r2.pattern_avg[(0.25, 2)])


def assert_same_sweep(got, want):
    # a design without sensing has a nan pattern error, equal to itself here
    assert [replace(p, avg_mse=0.0) for p in got.points] == [replace(p, avg_mse=0.0) for p in want.points]
    np.testing.assert_array_equal([p.avg_mse for p in got.points], [p.avg_mse for p in want.points])
    for patterns in ("pattern_avg", "pattern_member"):
        assert list(getattr(got, patterns)) == list(getattr(want, patterns))
        for key, pattern in getattr(want, patterns).items():
            np.testing.assert_array_equal(getattr(got, patterns)[key], pattern)


# even blocks, an uneven last block, and more workers than realizations
@pytest.mark.parametrize("jobs, n_realizations", [(2, 2), (2, 3), (3, 2)])
def test_sweep_in_worker_processes_matches_in_process(small_cfg, jobs, n_realizations):
    # jobs > 1 runs the realizations in a spawn-context process pool
    args = (small_cfg, [0.0, 10.0], [0.5], [2, 6], n_realizations)
    assert_same_sweep(sweep(*args, jobs=jobs), sweep(*args))


class _InlinePool:
    """Stand-in process pool that runs ``map`` in this process and records each call in ``calls``."""

    def __init__(self, calls):
        self.calls = calls

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, seeds, chunksize):
        seeds = list(seeds)
        chunks = [seeds[i:i + chunksize] for i in range(0, len(seeds), chunksize)]
        self.calls.append((fn, chunks))
        return [fn(seed) for chunk in chunks for seed in chunk]


@pytest.mark.parametrize("jobs, n_realizations", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_sweep_ships_one_function_in_one_chunk_per_worker(small_cfg, monkeypatch, jobs, n_realizations):
    # the shared inputs travel with the function, pickled once per chunk:
    # min(jobs, R) chunks of consecutive seeds, not one payload per realization
    calls, workers = [], []

    def pool(max_workers, mp_context):
        workers.append(max_workers)
        return _InlinePool(calls)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pool)
    args = (small_cfg, [5.0], [0.5], [2], n_realizations)
    pooled = sweep(*args, jobs=jobs)
    [(fn, chunks)] = calls
    assert workers == [jobs]
    assert fn.func is evaluation._realization_metrics
    assert len(chunks) == min(jobs, n_realizations)
    assert [seed for chunk in chunks for seed in chunk] == list(range(small_cfg.seed, small_cfg.seed + n_realizations))
    assert_same_sweep(pooled, sweep(*args))


@pytest.mark.parametrize("rate_formula", ["consistent", "literal"])
def test_pass3_designs_equal_run_design_bit_for_bit(small_cfg, monkeypatch, rate_formula):
    # pass 3 refines the max(J) lowest-rate carriers of every (SNR, rho) of a
    # realization in one refine_carriers call and reads each J off them:
    # designs without sensing (J=0), with every carrier sensing (J=K), and at
    # rho 0 and 1 must each equal run_design on the same inputs, carrier by
    # carrier, in their metrics, and in their average and median-member
    # patterns; under the literal rate both SNRs design at power 1 and still
    # read one solution dict each
    small_cfg = replace(small_cfg, rate_formula=rate_formula)
    snrs, rhos, jcas_counts, seed = [0.0, 10.0], [0.0, 0.5, 1.0], [0, 2, 6], small_cfg.seed + 1
    grid = build_grid(small_cfg)
    cfgs = [replace(small_cfg, power_budget=small_cfg.snr_power(snr)) for snr in snrs]
    covariances = solve_radar_covariances(
        grid, [cfg.effective_power for cfg in cfgs], range(small_cfg.n_subcarriers)
    )
    calls = []

    def spy(*args):
        calls.append(pipeline.refine_carriers(*args))
        return calls[-1]

    monkeypatch.setattr(evaluation, "refine_carriers", spy)
    metrics, patterns = evaluation._realization_metrics(
        cfgs, rhos, jcas_counts, grid, covariances, snrs.index(10.0), seed
    )
    assert metrics.shape == (len(snrs), len(rhos), len(jcas_counts), 2)
    assert patterns.shape == (len(rhos), len(jcas_counts), 2, len(grid.angles))
    [(refined, precoders, rates)] = calls
    n_top = max(jcas_counts)
    assert len(refined) == len(snrs) * len(rhos) * n_top
    channels = generate_rayleigh(small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, seed)
    blocks = [(s, snr, rho) for s, snr in enumerate(snrs) for rho in rhos]
    for block, (s, snr, rho) in enumerate(blocks):
        rows = slice(block * n_top, (block + 1) * n_top)  # SNR-major, then rho, then rank
        r = block % len(rhos)
        for j, n_jcas in enumerate(jcas_counts):
            cfg = replace(small_cfg, power_budget=small_cfg.snr_power(snr), rho=rho, n_jcas=n_jcas, seed=seed)
            want = run_design(cfg, channels=channels, grid=grid, covariances=covariances[s])
            ranked = np.argsort(want.eigen_rates, kind="stable")[:n_jcas]
            np.testing.assert_array_equal(np.sort(ranked), want.jcas_subcarriers)
            np.testing.assert_array_equal(precoders[rows][:n_jcas], want.precoders[ranked])
            np.testing.assert_array_equal(rates[rows][:n_jcas], want.rates[ranked])
            for got, k in zip(refined[rows], ranked.tolist()):
                np.testing.assert_equal(vars(got), vars(want.refinements[k]))
            mse = beampattern_mse(want.precoders, want.jcas_subcarriers, grid)
            np.testing.assert_equal(metrics[s, r, j], (want.avg_rate, mse))
            if snr == 10.0 and n_jcas:
                avg, member = patterns[r, j]
                np.testing.assert_array_equal(avg, np.mean(jcas_patterns(want), axis=0))
                k = want.jcas_subcarriers[(n_jcas - 1) // 2]  # the lower middle of the ascending set
                np.testing.assert_array_equal(member, precoder_pattern(want.precoders[k], grid.steering(k)))
    assert not patterns[:, jcas_counts.index(0)].any()  # no pattern without sensing


def test_pass1_solves_once_for_the_largest_counts_sets(small_cfg, monkeypatch):
    # pass 1 selects at the largest count only: the one covariance solve asks,
    # at every SNR's power, for the union of that count's sets over the
    # realizations and SNRs
    base = replace(small_cfg, n_subcarriers=12)
    snrs, jcas_counts, n_realizations = [0.0, 10.0], [1, 2, 6], 2
    requests = []

    def spy(grid, powers, subcarriers):
        requests.append((list(powers), list(subcarriers)))
        return solve_radar_covariances(grid, powers, subcarriers)

    monkeypatch.setattr(evaluation, "solve_radar_covariances", spy)
    sweep(base, snrs, [0.5], jcas_counts, n_realizations=n_realizations)
    [request] = requests
    cfgs = [replace(base, power_budget=base.snr_power(snr)) for snr in snrs]
    want = set()
    for seed in range(base.seed, base.seed + n_realizations):
        channels = generate_rayleigh(base.n_subcarriers, base.n_rx, base.n_tx, seed)
        for cfg in cfgs:
            rates = pipeline.eigen_stage(cfg, channels)[1]
            want.update(pipeline.select_jcas_subcarriers(rates, max(jcas_counts)).tolist())
    assert request == ([cfg.effective_power for cfg in cfgs], sorted(want))


def _spy_steering_builds(monkeypatch):
    """The frequencies of every steering_vector call a grid makes, one array per call."""
    calls = []
    build = beamgrid.steering_vector

    def spy(angles, freq, n_tx, spacing):
        calls.append(np.ravel(freq))
        return build(angles, freq, n_tx, spacing)

    monkeypatch.setattr(beamgrid, "steering_vector", spy)
    return calls


def test_sweep_builds_each_needed_carriers_steering_once(monkeypatch):
    # at the sweep-snr benchmark settings: pass 2 builds the needed carriers' rows in one
    # call, and pass 3, which ranks a subset of them, builds none
    cfg = SystemConfig()
    calls = _spy_steering_builds(monkeypatch)
    requests = []

    def spy(grid, powers, subcarriers):
        requests.append(list(subcarriers))
        return solve_radar_covariances(grid, powers, subcarriers)

    monkeypatch.setattr(evaluation, "solve_radar_covariances", spy)
    sweep(cfg, [0.0, 5.0, 10.0], [0.25, 0.5, 0.75], [4], n_realizations=1)
    [needed] = requests
    assert 4 <= len(needed) < cfg.n_subcarriers
    [built] = calls
    np.testing.assert_array_equal(built, build_grid(cfg).frequencies[needed])


def test_beampattern_mse_builds_no_kept_row(monkeypatch, rng, small_cfg):
    grid = build_grid(small_cfg)
    precoders = random_complex(rng, (small_cfg.n_subcarriers, small_cfg.n_tx, small_cfg.n_streams))
    calls = _spy_steering_builds(monkeypatch)
    first = beampattern_mse(precoders, [1, 4], grid)
    assert len(calls) == 1
    for _ in range(3):
        assert beampattern_mse(precoders, [1, 4], grid) == first
        beampattern_mse(precoders, [4], grid)
    assert len(calls) == 1
    beampattern_mse(precoders, [0, 1, 4, 5], grid)  # only the two new rows, in one call
    np.testing.assert_array_equal(calls[1], grid.frequencies[[0, 5]])
    assert len(calls) == 2


def test_sweep_repeated_settings_equal_their_first_occurrence(small_cfg):
    # unsorted lists with repeats: every listed setting has its point, a
    # repeat equal to its first occurrence, and each sensing (rho, J) has
    # its patterns once, in the order of first occurrence
    snrs, rhos, jcas_counts = [10.0, 0.0, 10.0], [0.75, 0.25, 0.75], [6, 2, 0, 2]
    res = sweep(small_cfg, snrs, rhos, jcas_counts, n_realizations=2)
    settings = [(snr, rho, n_jcas) for snr in snrs for rho in rhos for n_jcas in jcas_counts]
    assert [(p.snr_db, p.rho, p.n_jcas) for p in res.points] == settings
    first = {}
    for setting, point in zip(settings, res.points):
        want = first.setdefault(setting, point)
        assert replace(point, avg_mse=0.0) == replace(want, avg_mse=0.0)
        np.testing.assert_array_equal(point.avg_mse, want.avg_mse)  # nan at J = 0
    assert len(first) == 2 * 2 * 3
    keys = [(0.75, 6), (0.75, 2), (0.25, 6), (0.25, 2)]
    assert list(res.pattern_avg) == list(res.pattern_member) == keys
    once = sweep(small_cfg, [10.0], [0.75, 0.25], [6, 2], n_realizations=2)
    for patterns in ("pattern_avg", "pattern_member"):
        for key in keys:
            np.testing.assert_array_equal(getattr(res, patterns)[key], getattr(once, patterns)[key])


def test_sweep_without_sensing_refines_empty_stacks(small_cfg, monkeypatch):
    # without sensing carriers each realization refines one empty stack
    stacks = []

    def spy(f0, cov, f_comm, rho, power):
        stacks.append((np.shape(f0), np.shape(cov)))
        return solve_rcg_batch(f0, cov, f_comm, rho, power)

    monkeypatch.setattr(pipeline, "solve_rcg_batch", spy)
    res = sweep(small_cfg, [0.0, 10.0], [0.5], [0], n_realizations=2)
    n_tx, n_streams = small_cfg.n_tx, small_cfg.n_streams
    assert stacks == [((0, n_tx, n_streams), (0, n_tx, n_tx))] * 2
    assert all(np.isfinite(p.avg_rate) and np.isnan(p.avg_mse) for p in res.points)


def test_design_and_sweep_hand_refine_carriers_one_covariance_stack(small_cfg, monkeypatch):
    # both callers gather their carriers' covariances into one (B, n_tx, n_tx) array
    refine, stacks = pipeline.refine_carriers, []

    def spy(channels, f_hat, cov, *settings):
        stacks.append(cov)
        return refine(channels, f_hat, cov, *settings)

    monkeypatch.setattr(pipeline, "refine_carriers", spy)
    monkeypatch.setattr(evaluation, "refine_carriers", spy)
    run_design(small_cfg)
    sweep(small_cfg, [0.0, 10.0], [0.25, 0.75], [0, 2], n_realizations=1)
    n = small_cfg.n_tx
    assert [type(cov) for cov in stacks] == [np.ndarray] * 2
    assert [cov.shape for cov in stacks] == [(small_cfg.n_jcas, n, n), (2 * 2 * 2, n, n)]


def test_sweep_refines_each_ranked_carrier_once_per_snr_and_rho(small_cfg, monkeypatch):
    # a carrier's refinement does not depend on J: each realization refines the
    # max(J) lowest-rate carriers once per (SNR, rho), in one RCG batch, not
    # the sensing set of every (SNR, rho, J) design on its own
    sizes = []

    def spy(f0, cov, f_comm, rho, power):
        sizes.append(len(f0))
        return solve_rcg_batch(f0, cov, f_comm, rho, power)

    monkeypatch.setattr(pipeline, "solve_rcg_batch", spy)
    snrs, rhos, jcas_counts, n_realizations = [0.0, 10.0], [0.25, 0.75], [2, 6], 2
    sweep(small_cfg, snrs, rhos, jcas_counts, n_realizations=n_realizations)
    assert sizes == [len(snrs) * len(rhos) * max(jcas_counts)] * n_realizations


def test_sweep_edge_designs_in_worker_processes_match_in_process(small_cfg):
    # J in {0, K} and rho in {0, 1} share each realization's RCG batch
    args = (small_cfg, [0.0, 10.0], [0.0, 1.0], [0, 2, 6], 2)
    assert_same_sweep(sweep(*args, jobs=2), sweep(*args))


def test_sweep_patterns_at_the_listed_snr_near_10_and_empty_lists_rejected(small_cfg, monkeypatch):
    # an SNR within 1e-9 of 10 dB is the pattern SNR as listed, so its patterns are recorded
    near = 10.0 + 1e-10
    res = sweep(small_cfg, [0.0, near], [0.5], [2], n_realizations=1)
    assert res.pattern_snr == near
    assert set(res.pattern_avg) == set(res.pattern_member) == {(0.5, 2)}

    def no_solve(*args, **kwargs):
        raise AssertionError("covariances solved for a sweep with an empty list")

    monkeypatch.setattr(evaluation, "solve_radar_covariances", no_solve)
    for args, key in ((([], [0.5], [2]), "snrs"), (([5.0], [], [2]), "rhos"), (([5.0], [0.5], []), "jcas_counts")):
        with pytest.raises(ConfigError, match=key):
            sweep(small_cfg, *args, n_realizations=1)


def test_sweep_rejects_empty_realizations(small_cfg):
    with pytest.raises(ValueError, match="realizations"):
        sweep(small_cfg, [5.0], [0.5], [2], n_realizations=0)


@pytest.mark.parametrize("rhos, jcas_counts, key", [([0.5, 1.5], [2], "rho"), ([0.5], [2, 7], "n_jcas")])
def test_sweep_rejects_a_bad_point_before_any_solve(small_cfg, monkeypatch, rhos, jcas_counts, key):
    def no_solve(*args, **kwargs):
        raise AssertionError("covariances solved for a sweep with a bad point")

    monkeypatch.setattr(evaluation, "solve_radar_covariances", no_solve)
    with pytest.raises(ConfigError, match=key):
        sweep(small_cfg, [5.0], rhos, jcas_counts, n_realizations=1)


def test_write_table_number_formats(tmp_path):
    # integer columns bare; every other value as format(x, ".6g")
    path = tmp_path / "t.csv"
    floats = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1234567.0]
    write_table(path, {"k": np.arange(-2, 5), "J": [0, 7, 16, 64, 1234567, -3, 2], "x": floats})
    k, j, x = zip(*(row.split(",") for row in path.read_text().splitlines()[1:]))
    assert k == ("-2", "-1", "0", "1", "2", "3", "4")
    assert j == ("0", "7", "16", "64", "1234567", "-3", "2")
    assert x == tuple(format(v, ".6g") for v in floats)


def test_write_table_newlines_and_header(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {"a": [1], "b": [0.5]})
    assert path.read_bytes() == b"a,b\n1,0.5\n"
    # a table with no rows is its header line alone
    write_table(path, {"theta": np.zeros(0), "J": np.zeros(0, dtype=int)})
    assert path.read_bytes() == b"theta,J\n"


def test_emit_parse_round_trip(tmp_path):
    # written, read back with csv, written again: the same bytes
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_table(first, {"snr": [0.0, 10.0], "J": [16, 64], "avg_rate": [1.234567, 9.87654], "avg_mse": [0.5, 0.128]})
    with first.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["snr", "J", "avg_rate", "avg_mse"]
    assert float(rows[0]["avg_rate"]) == pytest.approx(1.23457, abs=1e-6)
    columns = {name: [(int if name == "J" else float)(r[name]) for r in rows] for name in rows[0]}
    write_table(second, columns)
    assert second.read_bytes() == first.read_bytes()


def test_write_table_round_trips(tmp_path):
    path = tmp_path / "rates.csv"
    write_table(path, {"k": np.arange(2), "rate": [1.5, 2.25]})
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["k", "rate"]
    assert [(int(r["k"]), float(r["rate"])) for r in rows] == [(0, 1.5), (1, 2.25)]


def test_stacked_pattern_metrics_equal_per_carrier_formula(rng, small_cfg):
    cfg = replace(small_cfg, n_subcarriers=8, n_jcas=5, grid_size=61)
    grid = build_grid(cfg)
    precoders = random_complex(rng, (8, cfg.n_tx, cfg.n_streams))
    jcas = np.array([0, 2, 3, 6, 7])

    def pattern(f, steering):  # the reference pattern of one carrier's F F^H
        return reference_pattern(f @ f.conj().T, steering)

    errs = [np.abs(grid.desired_gain - pattern(precoders[k], grid.steering(k))) ** 2 for k in jcas]
    assert beampattern_mse(precoders, jcas, grid) == pytest.approx(np.mean(errs), rel=1e-12)
    res = run_design(cfg)
    pats = [pattern(res.precoders[k], res.grid.steering(k)) for k in res.jcas_subcarriers]
    np.testing.assert_allclose(np.mean(jcas_patterns(res), axis=0), np.mean(pats, axis=0), rtol=1e-12, atol=0)
    # an empty sensing set: nan, as before; a design without sensing scores an empty stack
    assert np.isnan(beampattern_mse(precoders, np.array([], dtype=int), grid))
    empty = jcas_patterns(run_design(replace(cfg, n_jcas=0)))
    assert empty.shape == (0, len(grid.angles))
    assert np.isnan(mask_mse(empty, grid))
