"""The default seed's sweep-snr points against the benchmark's recorded reference.

The benchmark checks these nine points after its timed run; checking them here
too shows a bit-level drift of the sweep in the test suite first. The
reference file is only read.
"""

import json
from pathlib import Path

import numpy as np

from jcasbeam.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
RTOL = 1e-8  # the benchmark's tolerance on final rates and pattern errors


def test_sweep_snr_seed0_matches_the_benchmark_reference(tmp_path):
    ref = json.loads(REFERENCE.read_text())["sweep_seed0"]["points"]
    argv = ["sweep", "--snr", "0", "5", "10", "--rho", "0.25", "0.5", "0.75", "--jcas", "4",
            "--realizations", "1", "--jobs", "1", "--seed", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    points = json.loads((tmp_path / "sweep_manifest.json").read_text())["points"]
    def keys(pts):
        return [(p["snr_db"], p["rho"], p["n_jcas"]) for p in pts]

    assert keys(points) == keys(ref)
    for key in ("avg_rate", "avg_mse"):
        got = np.array([p[key] for p in points])
        want = np.array([p[key] for p in ref])
        assert np.all(np.abs(got - want) <= RTOL * np.abs(want)), key
