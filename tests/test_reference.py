"""The default seed's outputs against the benchmark's recorded reference.

The benchmark checks these after its timed runs: the nine sweep-snr points,
in the manifest and in rates.csv, the six link designs and the link set-up's
16 covariance objectives. Its `design` workload, which is run by hand and
not gated, checks the default design's sensing set, rates and covariance
objectives.
Checking them here too shows a bit-level drift in the test suite first. The
reference file is only read.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jcasbeam import (
    SystemConfig,
    beampattern_mse,
    build_grid,
    generate_rayleigh,
    run_design,
    solve_radar_covariance,
)
from jcasbeam.cli import main
from jcasbeam.tables import parse_table

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
RTOL = 1e-8  # the benchmark's tolerance on final rates and pattern errors
COV_RTOL = 1e-6  # and on covariance objectives
LINK_SUBCARRIERS = 16


def rel_errors(values, reference):
    values, reference = np.asarray(values, dtype=float), np.asarray(reference, dtype=float)
    assert values.shape == reference.shape
    return np.abs(values - reference) / np.abs(reference)


def test_sweep_snr_seed0_matches_the_benchmark_reference(tmp_path):
    ref = json.loads(REFERENCE.read_text())["sweep_seed0"]["points"]
    argv = ["sweep", "--snr", "0", "5", "10", "--rho", "0.25", "0.5", "0.75", "--jcas", "4",
            "--realizations", "1", "--jobs", "1", "--seed", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    points = json.loads((tmp_path / "sweep_manifest.json").read_text())["points"]
    def keys(pts):
        return [(p["snr_db"], p["rho"], p["n_jcas"]) for p in pts]

    assert keys(points) == keys(ref)
    _, rows = parse_table((tmp_path / "rates.csv").read_text())
    for key in ("avg_rate", "avg_mse"):
        assert np.all(rel_errors([p[key] for p in points], [p[key] for p in ref]) <= RTOL), key
        # the CSV holds 6 significant digits: it reads as the reference rounded so
        assert [r[key] for r in rows] == [float(f"{p[key]:.6g}") for p in ref], key


def test_default_design_seed0_matches_the_benchmark_reference():
    reference = json.loads(REFERENCE.read_text())
    ref, objectives = reference["design_seed0"], reference["covariance_objectives"]["k64_p10"]
    result = run_design(SystemConfig())
    assert result.jcas_subcarriers.tolist() == ref["jcas_subcarriers"]
    assert np.all(rel_errors(result.rates, ref["rates"]) <= RTOL)
    ks = sorted(result.covariances)
    assert ks == ref["jcas_subcarriers"]
    got = [result.covariances[k].objective for k in ks]
    assert np.all(rel_errors(got, [objectives[k] for k in ks]) <= COV_RTOL)


@pytest.fixture(scope="module")
def link_setup():
    """The link workload's set-up: the 16-carrier grid and its covariances at the default power."""
    cfg = SystemConfig(n_subcarriers=LINK_SUBCARRIERS)
    grid = build_grid(cfg)
    return cfg, grid, solve_radar_covariance(grid, cfg.effective_power)


def test_link_covariance_objectives_match_the_benchmark_reference(link_setup):
    ref = json.loads(REFERENCE.read_text())["covariance_objectives"]["k16_p10"]
    _, _, sols = link_setup
    assert sorted(sols) == list(range(LINK_SUBCARRIERS))
    assert np.all(rel_errors([sols[k].objective for k in range(LINK_SUBCARRIERS)], ref) <= COV_RTOL)


def test_link_designs_seed0_match_the_benchmark_reference(link_setup):
    cfg, grid, sols = link_setup
    refs = json.loads(REFERENCE.read_text())["link_seed0"]
    assert [(r["rho"], r["J"]) for r in refs] == [(rho, j) for rho in (0.25, 0.5, 0.75) for j in (4, 16)]
    channels = generate_rayleigh(cfg.n_subcarriers, cfg.n_rx, cfg.n_tx, 0)
    for ref in refs:
        label = f"rho={ref['rho']} J={ref['J']}"
        result = run_design(replace(cfg, rho=ref["rho"], n_jcas=ref["J"], seed=0),
                            channels=channels, grid=grid, covariances=sols)
        want = np.asarray(ref["precoders_re"]) + 1j * np.asarray(ref["precoders_im"])
        diff = np.linalg.norm(result.precoders - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
        assert np.all(diff <= RTOL), label
        assert np.all(rel_errors(result.rates, ref["rates"]) <= RTOL), label
        mse = beampattern_mse(result.precoders, result.jcas_subcarriers, grid)
        assert np.all(rel_errors([mse], [ref["mse"]]) <= RTOL), label
