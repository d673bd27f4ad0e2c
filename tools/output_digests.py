"""Save the package's outputs, or compare two saves, to see whether and how far a change moves them:

    python tools/output_digests.py --save A    # in one checkout
    python tools/output_digests.py --save B    # in the other
    python tools/output_digests.py --compare A B

Exactly one of ``--save`` and ``--compare`` is required. ``--save DIR`` runs every covered
case with ``jcasbeam`` imported from this checkout's ``src/`` and writes each output to
``DIR/outputs.npz``, one entry per key path (``link-covariances/3/objective``; a file's
bytes as ``uint8``; a file the run does not write has no entry). ``--compare A B`` runs
nothing: per key path of the two saves it prints ``identical`` (same dtype, shape and
bytes) or the largest relative difference: of an array against its largest magnitude, of
each number in a file's text (whose text around the numbers must match) against itself.
It exits 1 if any key differs, so a change meant to keep every output bit for bit reads
every key ``identical`` and exits 0.

Covered: the sweep files of the ``sweep-snr`` benchmark's seed-0 sweep, run by its
workload's own ``run`` in ``perfbench/workloads.py``, of a seed-7 sweep
at ``--jobs`` 1 and 2, of a K=16 sweep whose sensing counts include 0 and K and of a K=16
``literal``-rate sweep whose SNR list repeats one SNR, so that every SNR designs at
power 1 and two list entries are the same SNR; of a K=16 sweep at ``--jobs`` 1 and 2
whose SNR, rho and sensing-count lists are unsorted and repeat entries (with a
count of 0), and of a K=16 sweep with two SNRs within 1e-9 of 10 dB, the one that
records the patterns listed first: these are the cases where a sweep setting is
found by its position in a list rather than by its value; the ``design``
files of ``design --seed 0``, of a K=16 ``design --jcas 0``, which writes no
pattern file, and of a K=16 ``design --snr -200 --jcas 2``, whose power is below the
roundoff of every carrier's strongest noise floor, so that water-filling puts it all
on the strongest stream; the ``link`` workload's 16 covariances and its 18 designs at
seeds 0-2, by the workload's own ``link_designs``, and two more K=16 ``link`` designs: at rho 0, where every carrier stops at iteration 0 on
the gradient norm, and at rho 1, where every carrier starts at its closed-form
strict design and stops there, at iteration 0 on the gradient norm; the
default design (``design-seed0``, the ``DesignResult`` of ``design --seed 0``); the covariances at power 2 of the two small grids of
``EARLY_STOPS``, imported from ``tests/test_covariance.py``, whose carriers stop below the
tight tolerance at different iterations (232-233 and 2789-4821), so that the
record of each carrier's stop is covered; and the config files that
``write_config`` writes for the default config and for one that sets an antenna
spacing, two target angles, the literal rate and a seed; and the scaled-simplex
projection that water-filling and the rho = 1 strict design share, on a fixed table
(``projection-table``): ``waterfill`` on gain rows with zero gains at a total of 1, at
a total below the roundoff of every row's strongest floor and under floors far above
the total, and ``simplex_projection`` on mixed-sign rows at one total and at one total
per row, and on the edge row [1e20, 1, 0.5] at total 1, whose entries dwarf the total.
The ``link`` designs reach both rounds of the RCG line search: the second, which takes the searches
the first leaves undecided, runs for 4 of the 9,580 searches at seeds 0-2 (the
rho 0 and rho 1 designs run none). Each field of a ``CovarianceSolution`` or an
``RcgResult`` is saved under its own key (its field name), so a change that moves
one field of the solver records, such as the ``converged`` flag, shows up as
exactly that field's keys changing. Each design also saves its pattern error
(``mse``) and its sensing patterns (``patterns``, a (J, T) array) at full precision,
which the 6-digit pattern files do not show. So do the ``sweep-snr`` case and the K=16
sweep whose sensing counts include 0 and K: each saves its ``SweepResult``'s
``pattern_avg`` and ``pattern_member`` at full precision, one key per (rho, J)
(``sweep-snr/pattern_avg/rho0.25-J4``).
"""

import argparse, contextlib, io, re, sys, tempfile  # noqa: E401
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import jcasbeam as jb  # noqa: E402
from jcasbeam import precoding  # noqa: E402
from jcasbeam.cli import main as cli  # noqa: E402
from jcasbeam.evaluation import precoder_pattern  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))  # the benchmark's cases, only read
from workloads import LINK_SUBCARRIERS, REFERENCE_SEED, SWEEP_FILES, SweepSnrWorkload, link_designs  # noqa: E402
sys.path.insert(0, str(ROOT / "tests"))  # the early-stop grids, only read
from test_covariance import EARLY_STOPS  # noqa: E402

SEED7 = "--snr 10 --rho 0.5 --jcas 2 16 --realizations 3 --seed 7 --jobs"
REPEATS = "--snr 10 0 10 --rho 0.75 0.25 0.75 --jcas 16 2 0 2 --realizations 2 --config {k16} --jobs"
SWEEPS = {"seed7-jobs1": f"{SEED7} 1", "seed7-jobs2": f"{SEED7} 2",
          "k16-J0-to-K": "--snr 0 10 --rho 0.5 1 --jcas 0 4 16 --realizations 2 --seed 3 --config {k16}",
          "k16-literal-snr-repeated": "--snr 0 10 10 --rho 0.5 1 --jcas 2 16 --realizations 2 --config {k16lit}",
          "k16-repeats-jobs1": f"{REPEATS} 1", "k16-repeats-jobs2": f"{REPEATS} 2",
          "k16-snr-near-10": "--snr 10.0000000001 10 5 --rho 0.5 --jcas 4 16 --realizations 2 --config {k16}"}
PATTERN_SWEEPS = ("sweep-snr", "k16-J0-to-K")
DESIGNS = {"cli-design-seed0": "--seed 0", "cli-design-k16-J0": "--jcas 0 --config {k16}",
           "cli-design-k16-snr-200": "--snr -200 --jcas 2 --config {k16}"}
DESIGN_FILES = ("design_manifest.json", "rates.csv", "beampattern.csv")
CONFIGS = {"config-default": {}, "config-set": dict(antenna_spacing=0.07, target_angles=(-45.0, 12.5),
                                                    rate_formula="literal", seed=11)}
DESIGN_ARRAYS = ("channels", "eigen_precoders", "eigen_rates", "jcas_subcarriers", "precoders", "rates")
# the projection's table: gain rows with zero gains, each case's (total, noise), and rows to project
GAINS = [[4.0, 1.0, 0.5, 0.25], [2.0, 0.0, 1.0, 0.0], [0.0, 0.0, 3.0, 1e-3], [1e-3, 1.1e-3, 1.2e-3, 0.0]]
WATERFILLS = {"total1": (1.0, 1.0), "total-below-roundoff": (1e-20, 1.0), "floors-above-total": (1e-3, 1e3)}
ROWS = [[0.3, -0.2, 1.5, 0.7], [2.0, 2.0, 2.0, 2.0], [-1.0, -3.0, -2.0, -0.5]]
PROJECTIONS = {"rows": (ROWS, 2.0), "per-row-total": (ROWS, [1.0, 0.5, 3.0]), "edge": ([[1e20, 1.0, 0.5]], 1.0)}


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def leaves(tree: dict, prefix: str = ""):
    """(key path, value) of every leaf of a nested dict, the keys joined by '/'."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}/")
        else:
            yield f"{prefix}{key}", value


def record_values(records: dict) -> dict:
    """Per key of ``records``, the fields of its result record, by field name."""
    return {k: dict(vars(rec)) for k, rec in records.items()}


def design_values(res) -> dict:
    out = {name: getattr(res, name) for name in DESIGN_ARRAYS}
    out["covariances"] = record_values(res.covariances)
    out["refinements"] = record_values(res.refinements)
    out["mse"] = jb.beampattern_mse(res.precoders, res.jcas_subcarriers, res.grid)
    jcas = res.jcas_subcarriers
    out["patterns"] = precoder_pattern(res.precoders[jcas], res.grid.steering(jcas))
    return out


def sweep_patterns(result) -> dict:
    """A sweep's average and member patterns, by field and then by (rho, J)."""
    return {field: {f"rho{rho}-J{n_jcas}": pattern for (rho, n_jcas), pattern in getattr(result, field).items()}
            for field in ("pattern_avg", "pattern_member")}


def file_bytes(path: Path):
    """A file's bytes, None where the run wrote none."""
    return path.read_bytes() if path.exists() else None


def outputs() -> dict:
    """Every covered output, nested by key: file bytes, result arrays and record fields."""
    out, swept, designed = {}, [], []

    def recorded_sweep(*args, **kwargs):  # the command's sweep, its result kept
        swept.append(jb.sweep(*args, **kwargs))
        return swept[-1]

    def recorded_design(*args, **kwargs):  # the command's design, its result kept
        designed.append(jb.run_design(*args, **kwargs))
        return designed[-1]

    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          mock.patch("jcasbeam.cli.sweep", recorded_sweep),
          mock.patch("jcasbeam.cli.run_design", recorded_design)):
        k16, k16lit = f"{tmp}/k16.ini", f"{tmp}/k16-literal.ini"
        jb.write_config(jb.SystemConfig(n_subcarriers=16), k16)
        jb.write_config(jb.SystemConfig(n_subcarriers=16, rate_formula="literal"), k16lit)

        def record(name, directory, files):  # a command's files, and a sweep's patterns
            out[name] = {f: file_bytes(directory / f) for f in files}
            if name in PATTERN_SWEEPS:
                out[name].update(sweep_patterns(swept[-1]))

        code, directory = SweepSnrWorkload(jb, Path(tmp), None).run(-1, REFERENCE_SEED)
        assert code == 0
        record("sweep-snr", directory, SWEEP_FILES)
        for command, runs, files in (("sweep", SWEEPS, SWEEP_FILES), ("design", DESIGNS, DESIGN_FILES)):
            for name, flags in runs.items():
                assert cli([command, *flags.format(k16=k16, k16lit=k16lit).split(), "--out-dir", f"{tmp}/{name}"]) == 0
                record(name, Path(tmp, name), files)
                if name == "cli-design-seed0":
                    out["design-seed0"] = design_values(designed[-1])
        for name, fields in CONFIGS.items():
            jb.write_config(jb.SystemConfig(**fields), f"{tmp}/{name}.ini")
            out[name] = file_bytes(Path(tmp, f"{name}.ini"))
    cfg = jb.SystemConfig(n_subcarriers=LINK_SUBCARRIERS)
    grid = jb.build_grid(cfg)
    covs = jb.solve_radar_covariance(grid, cfg.effective_power)
    out["link-covariances"] = record_values(covs)
    for seed in range(3):
        for rho, n_jcas, res, _ in link_designs(jb, cfg, grid, covs, seed):
            out[f"link-seed{seed}-rho{rho}-J{n_jcas}"] = design_values(res)
    channels = jb.generate_rayleigh(cfg.n_subcarriers, cfg.n_rx, cfg.n_tx, 0)
    for rho in (0.0, 1.0):
        res = jb.run_design(replace(cfg, rho=rho, n_jcas=16, seed=0), channels, grid, covs)
        out[f"link-seed0-rho{rho}-J16"] = design_values(res)
    for name, (overrides, *_) in EARLY_STOPS.items():
        sols = jb.solve_radar_covariance(jb.build_grid(jb.SystemConfig(**overrides)), 2.0)
        out[f"early-stops-{name}"] = record_values(sols)
    out["projection-table"] = projection_table()
    return out


def projection_table() -> dict:
    """``waterfill``'s three returns and ``simplex_projection``'s rows on the fixed table."""
    out = {"waterfill": {}, "simplex_projection": {}}
    for name, (total, noise) in WATERFILLS.items():
        out["waterfill"][name] = dict(zip(("powers", "level", "n_active"), precoding.waterfill(GAINS, total, noise)))
    for name, (rows, total) in PROJECTIONS.items():
        out["simplex_projection"][name] = precoding.simplex_projection(np.array(rows), total)
    return out


def save(tree: dict, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {path: np.frombuffer(value, dtype=np.uint8) if isinstance(value, bytes) else np.asarray(value)
              for path, value in leaves(tree) if value is not None}
    np.savez(directory / "outputs.npz", **arrays)


def difference(a: np.ndarray, b: np.ndarray) -> str:
    """How two saved values of one key differ, in words.

    An array is one quantity, measured against its own largest magnitude:
    max |a - b| / max(|a|, |b|) with both maxima over the array. The numbers
    of a file are separate quantities, each measured against itself:
    max over them of |a - b| / max(|a|, |b|). For a scalar both read the same.
    """
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return "identical"
    per_number = a.dtype == b.dtype == np.uint8  # a file: its numbers, where the text around them matches
    if per_number:
        texts = [x.tobytes().decode() for x in (a, b)]
        if NUMBER.sub("#", texts[0]) != NUMBER.sub("#", texts[1]):
            return "differs beyond its numbers"
        a, b = (np.array([float(n) for n in NUMBER.findall(t)]) for t in texts)
    if a.shape != b.shape or a.dtype.kind not in "iufc" or b.dtype.kind not in "iufc":
        return f"differs ({a.dtype}{list(a.shape)} against {b.dtype}{list(b.shape)})"
    a, b = a.astype(complex), b.astype(complex)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):  # 0 / 0 where both are 0, which a == b takes
        rel = np.where(a == b, 0.0, np.abs(a - b) / (scale if per_number else scale.max(initial=0.0)))
    return f"max relative difference {rel.max(initial=0.0):.3g}"


def compare(first: Path, second: Path) -> int:
    with np.load(first / "outputs.npz") as a, np.load(second / "outputs.npz") as b:
        lines = []
        for key in sorted(set(a.files) | set(b.files)):
            if key not in b.files or key not in a.files:
                lines.append(f"{key}: only in {first if key in a.files else second}")
            else:
                lines.append(f"{key}: {difference(a[key], b[key])}")
    moved = [line for line in lines if not line.endswith(": identical")]
    print("\n".join(lines))
    print(f"{len(lines)} keys, {len(lines) - len(moved)} identical, {len(moved)} differ")
    return 1 if moved else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--save", type=Path, metavar="DIR", help="run every case and write its outputs to DIR/outputs.npz")
    group.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="compare two --save directories")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    save(outputs(), args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
