"""Pattern metrics, sweep aggregation, and table formatting."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from jcasbeam import evaluation, pipeline
from jcasbeam.beamgrid import build_grid
from jcasbeam.channel import generate_rayleigh
from jcasbeam.covariance import solve_radar_covariances
from jcasbeam.errors import ConfigError
from jcasbeam.evaluation import (
    average_jcas_pattern,
    beampattern_mse,
    median_member_pattern,
    precoder_pattern,
    sweep,
)
from jcasbeam.pipeline import run_design
from jcasbeam.precoding import eigenmode_precoders
from jcasbeam.tables import emit_table, format_value, parse_table, write_table

from conftest import SMALL, assert_same_design, random_complex


def test_precoder_pattern_matches_direct_quadratic(rng, small_cfg):
    grid = build_grid(small_cfg)
    f = random_complex(rng, (small_cfg.n_tx, small_cfg.n_streams))
    pat = precoder_pattern(f, grid.steering[0])
    cov = f @ f.conj().T
    direct = np.array(
        [np.real(a.conj() @ cov @ a) for a in grid.steering[0]]
    )
    np.testing.assert_allclose(pat, direct, atol=1e-10)
    assert np.all(pat >= -1e-10)


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
            a = grid.steering[k, t]
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
        self.steering = np.ones((1, n_angles, 1), dtype=complex)
        self.desired_gain = np.asarray(desired, dtype=float)


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


def test_pattern_summaries(small_cfg):
    res = run_design(small_cfg)
    avg = average_jcas_pattern(res)
    member = median_member_pattern(res)
    assert avg.shape == (small_cfg.grid_size,)
    assert member.shape == (small_cfg.grid_size,)
    pats = [
        precoder_pattern(res.precoders[int(k)], res.grid.steering[int(k)])
        for k in res.jcas_subcarriers
    ]
    np.testing.assert_allclose(avg, np.mean(pats, axis=0), atol=1e-12)
    # median member: lower middle of the ascending index list
    idx = int(res.jcas_subcarriers[(len(res.jcas_subcarriers) - 1) // 2])
    np.testing.assert_allclose(
        member, precoder_pattern(res.precoders[idx], res.grid.steering[idx]), atol=1e-12
    )


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
    assert res.n_realizations == 3
    assert res.base_seed == cfg.seed


# recorded before the sweep refined every (rho, J) design of an SNR from one eigen
# stage; the two 10 dB rates re-recorded (1 ulp each) when rates came to be taken
# from the singular values of HF
SMALL_SWEEP_POINTS = [
    (0.0, 0.5, 2, 2.907573594875025, 0.7201298108476419),
    (0.0, 0.5, 6, 2.6048524073371113, 0.657836035600238),
    (10.0, 0.5, 2, 7.4683179506134385, 98.57306945443833),
    (10.0, 0.5, 6, 5.85224751841313, 98.84131027242245),
]


def test_sweep_regression_pin(small_sweep):
    _, res = small_sweep
    got = [(p.snr_db, p.rho, p.n_jcas, p.avg_rate, p.avg_mse) for p in res.points]
    assert got == SMALL_SWEEP_POINTS


def test_sweep_runs_one_eigen_stage_per_realization_snr_and_pass(small_cfg, monkeypatch):
    # pass 1 and pass 3 each run one eigen stage per (realization, SNR); the
    # (rho, J) designs of an SNR share it
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigenmode_precoders(*args, **kwargs)

    monkeypatch.setattr(pipeline, "eigenmode_precoders", counting)
    snrs, rhos, jcas_counts, n_realizations = [0.0, 10.0], [0.25, 0.75], [1, 2, 6], 2
    sweep(small_cfg, snrs, rhos, jcas_counts, n_realizations=n_realizations)
    assert len(calls) == 2 * len(snrs) * n_realizations
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
    shifted = sweep(small_cfg, [5.0], [0.5], [2], n_realizations=1,
                    base_seed=small_cfg.seed + 1)
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

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", pool)
    args = (small_cfg, [5.0], [0.5], [2], n_realizations)
    pooled = sweep(*args, jobs=jobs)
    [(fn, chunks)] = calls
    assert workers == [jobs]
    assert fn.func is evaluation._realization_metrics
    assert len(chunks) == min(jobs, n_realizations)
    assert [seed for chunk in chunks for seed in chunk] == list(range(small_cfg.seed, small_cfg.seed + n_realizations))
    assert_same_sweep(pooled, sweep(*args))


def test_pass3_designs_equal_run_design_bit_for_bit(small_cfg):
    # pass 3 refines every (SNR, rho, J) design of a realization in one RCG
    # batch: designs without sensing (J=0), with every carrier sensing (J=K),
    # and at rho 0 and 1 must each equal run_design on the same inputs
    snrs, rhos, jcas_counts, seed = [0.0, 10.0], [0.0, 0.5, 1.0], [0, 2, 6], small_cfg.seed + 1
    grid = build_grid(small_cfg)
    powers = [replace(small_cfg, power_budget=small_cfg.snr_power(snr)).effective_power for snr in snrs]
    covariances = solve_radar_covariances(grid, {power: range(small_cfg.n_subcarriers) for power in powers})
    designs = evaluation._realization_designs(small_cfg, snrs, rhos, jcas_counts, grid, covariances, seed)
    assert [d[:3] for d in designs] == [(s, r, j) for s in snrs for r in rhos for j in jcas_counts]
    channels = generate_rayleigh(small_cfg.n_subcarriers, small_cfg.n_rx, small_cfg.n_tx, seed)
    for (snr, rho, n_jcas, got), power in zip(designs, np.repeat(powers, len(rhos) * len(jcas_counts))):
        cfg = replace(small_cfg, power_budget=small_cfg.snr_power(snr), rho=rho, n_jcas=n_jcas, seed=seed)
        assert_same_design(got, run_design(cfg, channels=channels, grid=grid, covariances=covariances[power]))


def test_sweep_without_sensing_makes_no_rcg_call(small_cfg, monkeypatch):
    def no_call(*args, **kwargs):
        raise AssertionError("RCG called without sensing subcarriers")

    monkeypatch.setattr(pipeline, "solve_rcg_batch", no_call)
    res = sweep(small_cfg, [0.0, 10.0], [0.5], [0], n_realizations=2)
    assert all(np.isfinite(p.avg_rate) and np.isnan(p.avg_mse) for p in res.points)


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


def test_format_value_rules():
    assert format_value(3) == "3"
    assert format_value(np.int64(-2)) == "-2"
    assert format_value(0.5) == "0.5"
    assert format_value(1234567.0) == "1.23457e+06"
    assert format_value(np.float64(0.1)) == "0.1"
    with pytest.raises(TypeError):
        format_value(True)
    with pytest.raises(TypeError):
        format_value(np.bool_(False))


def test_emit_parse_round_trip():
    rows = [
        {"snr": 0.0, "rho": 0.25, "J": 16, "avg_rate": 1.234567, "avg_mse": 0.5},
        {"snr": 10.0, "rho": 0.75, "J": 64, "avg_rate": 9.87654, "avg_mse": 0.128},
    ]
    cols = ["snr", "rho", "J", "avg_rate", "avg_mse"]
    text = emit_table(rows, cols)
    header, parsed = parse_table(text)
    assert header == cols
    assert parsed[0]["avg_rate"] == pytest.approx(1.23457, abs=1e-6)
    again = emit_table(parsed, cols)
    assert again == text


def test_emit_table_newlines_and_header():
    text = emit_table([{"a": 1}], ["a"])
    assert text == "a\n1\n"
    assert "\r" not in text


def test_parse_table_rejects_bad_shapes():
    with pytest.raises(ValueError, match="empty"):
        parse_table("")
    with pytest.raises(ValueError, match="fields"):
        parse_table("a,b\n1\n")


def test_write_table_round_trips(tmp_path):
    path = tmp_path / "rates.csv"
    rows = [{"k": 0, "rate": 1.5}, {"k": 1, "rate": 2.25}]
    write_table(path, rows, ["k", "rate"])
    header, parsed = parse_table(path.read_text())
    assert header == ["k", "rate"]
    assert parsed[1]["rate"] == 2.25


def _one_carrier_pattern(f, steering):
    """a^H F F^H a of one carrier, in the one-matrix einsum."""
    return np.real(np.einsum("ti,ij,tj->t", steering.conj(), f @ f.conj().T, steering))


def test_stacked_pattern_metrics_equal_per_carrier_formula(rng, small_cfg):
    cfg = replace(small_cfg, n_subcarriers=8, n_jcas=5, grid_size=61)
    grid = build_grid(cfg)
    precoders = random_complex(rng, (8, cfg.n_tx, cfg.n_streams))
    jcas = np.array([0, 2, 3, 6, 7])
    errs = [np.abs(grid.desired_gain - _one_carrier_pattern(precoders[k], grid.steering[k])) ** 2 for k in jcas]
    assert beampattern_mse(precoders, jcas, grid) == pytest.approx(np.mean(errs), rel=1e-12)
    res = run_design(cfg)
    pats = [_one_carrier_pattern(res.precoders[k], res.grid.steering[k]) for k in res.jcas_subcarriers]
    np.testing.assert_allclose(average_jcas_pattern(res), np.mean(pats, axis=0), rtol=1e-12, atol=0)
    # an empty sensing set: nan, as before
    assert np.isnan(beampattern_mse(precoders, np.array([], dtype=int), grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # mean of an empty stack
        assert np.all(np.isnan(average_jcas_pattern(run_design(replace(cfg, n_jcas=0)))))
