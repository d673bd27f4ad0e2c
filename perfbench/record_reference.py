"""Record the outputs the benchmark's checks compare against.

Run from the root of a checkout, on the commit whose outputs are the
reference (about three minutes)::

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: covariance objectives on every
subcarrier of the default 64-carrier grid and of the 16-carrier ``link``
grid at 10 dB, and the full outputs of each workload at the package's
default seed.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import jcasbeam  # noqa: E402
import jcasbeam.cli  # noqa: E402
import workloads  # noqa: E402


def covariance_objectives(n_subcarriers):
    cfg = jcasbeam.SystemConfig(n_subcarriers=n_subcarriers)
    grid = jcasbeam.build_grid(cfg)
    sols = jcasbeam.solve_radar_covariance(grid, cfg.effective_power)
    return [sols[k].objective for k in range(n_subcarriers)], cfg, grid, sols


def main():
    work = run.WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    seed = workloads.REFERENCE_SEED
    try:
        design = workloads.DesignWorkload(jcasbeam, work, {})
        code, out = design.run(0, seed)
        if code != 0:
            raise SystemExit(f"design exited {code}")
        manifest = json.loads((out / "design_manifest.json").read_text())

        sweep = workloads.SweepSnrWorkload(jcasbeam, work, {})
        code, out = sweep.run(1, seed)
        if code != 0:
            raise SystemExit(f"sweep exited {code}")
        points = json.loads((out / "sweep_manifest.json").read_text())["points"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    k64, _, _, _ = covariance_objectives(64)
    k16, cfg, grid, sols = covariance_objectives(workloads.LINK_SUBCARRIERS)
    link = [
        {
            "rho": rho,
            "J": n_jcas,
            "rates": result.rates.tolist(),
            "mse": mse,
            "precoders_re": result.precoders.real.tolist(),
            "precoders_im": result.precoders.imag.tolist(),
        }
        for rho, n_jcas, result, mse in workloads.link_designs(jcasbeam, cfg, grid, sols, seed)
    ]
    reference = {
        "source_sha256": run.source_digest(),
        "git_commit": run.git_commit(),
        "covariance_objectives": {"k64_p10": k64, "k16_p10": k16},
        "design_seed0": {
            "jcas_subcarriers": manifest["jcas_subcarriers"],
            "rates": manifest["rates"],
            "avg_rate": manifest["avg_rate"],
        },
        "sweep_seed0": {"points": points},
        "link_seed0": link,
    }
    run.REFERENCE.write_text(json.dumps(reference) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
