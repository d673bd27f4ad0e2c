"""The benchmark's workloads: inputs from a seed, one op, and its output checks.

Each workload calls the package's public entry points in this process. A
workload is set up once per run (``prepare``), then ops run one after
another in a closed loop with a single caller. ``run`` is the timed op;
``check`` inspects its outputs afterwards and returns the problems found,
so a failed check marks that op failed without stopping the run.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

# Tolerances from the ROADMAP gates.
COV_OBJECTIVE_RTOL = 1e-6
FINAL_RTOL = 1e-8
SPHERE_RTOL = 1e-9
COV_DIAG_ATOL = 1e-8
COV_EIG_FLOOR = -1e-8
CSV_DIGITS = 6  # significant digits of the package's CSV tables

SWEEP_FILES = ("rates.csv", "beampattern_avg.csv", "beampattern_member.csv", "sweep_manifest.json")
LINK_RHOS = (0.25, 0.5, 0.75)
LINK_JCAS = (4, 16)
LINK_SUBCARRIERS = 16
REFERENCE_SEED = 0  # the package's default seed


def op_seed(base, index):
    """Seed of op ``index`` in a run started with ``--seed base``."""
    return base * 1000 + index


def rel_errors(values, reference):
    """Elementwise |values - reference| / |reference|; inf everywhere on a shape mismatch."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return np.full(max(values.size, reference.size), np.inf)
    return np.abs(values - reference) / np.maximum(np.abs(reference), np.finfo(float).tiny)


def close_to(label, values, reference, rtol):
    """[] when every value is within ``rtol`` of its reference, else one problem."""
    err = rel_errors(values, reference)
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= rtol:
        return [f"{label}: relative error {worst:.3e} > {rtol:g}"]
    return []


def read_table(path):
    """Columns and float rows of a CSV result table; raises on a malformed file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, map(float, line), strict=True)) for line in reader if line]
    return header, rows


def finite_nonneg(label, values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return [f"{label}: no values"]
    if not np.all(np.isfinite(values)):
        return [f"{label}: non-finite value"]
    if np.any(values < 0):
        return [f"{label}: negative value {float(values.min()):g}"]
    return []


def finite(label, values):
    values = np.asarray(values, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return [f"{label}: missing or non-finite values"]
    return []


class Workload:
    """Base: one op per seed; subclasses set ``points_per_op`` and ``group``."""

    name = ""
    points_per_op = 1
    group = 1  # ops that share a seed and always run together

    def __init__(self, jb, work_dir: Path, reference: dict):
        self.jb = jb
        self.work_dir = work_dir
        self.reference = reference

    def seed_of(self, base, index):
        return op_seed(base, index // self.group)

    def prepare(self):
        """Set up for the ops; returns problems found in the set-up's own outputs."""
        return []

    def run(self, index, seed):
        raise NotImplementedError

    def check(self, index, seed, output):
        return []

    def finish(self):
        """Checks after the timed ops; returns problems found."""
        return []


class DesignWorkload(Workload):
    name = "design"

    def run(self, index, seed):
        out = self.work_dir / f"op{index}"
        code = self.jb.cli.main(["design", "--seed", str(seed), "--out-dir", str(out)])
        return code, out

    def check(self, index, seed, output):
        code, out = output
        try:
            return self._check(code, out, seed)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, code, out, seed):
        if code != 0:
            return [f"design exited {code}"]
        manifest = json.loads((out / "design_manifest.json").read_text())
        problems = finite_nonneg("manifest rates", manifest["rates"])
        problems += finite_nonneg("manifest avg_rate", [manifest["avg_rate"]])
        _, rows = read_table(out / "rates.csv")
        problems += finite_nonneg("rates.csv", [r["rate"] for r in rows])
        if len(rows) != len(manifest["rates"]):
            problems.append("rates.csv and manifest disagree on the subcarrier count")
        _, rows = read_table(out / "beampattern.csv")
        problems += finite("beampattern.csv", [r["gain"] for r in rows])

        ref_obj = self.reference["covariance_objectives"]["k64_p10"]
        ks = sorted(int(k) for k in manifest["covariance"])
        problems += close_to(
            "covariance objectives",
            [manifest["covariance"][str(k)]["objective"] for k in ks],
            [ref_obj[k] for k in ks],
            COV_OBJECTIVE_RTOL,
        )
        if seed == REFERENCE_SEED:
            ref = self.reference["design_seed0"]
            if manifest["jcas_subcarriers"] != ref["jcas_subcarriers"]:
                problems.append("sensing subcarriers differ from the reference")
            problems += close_to("rates vs reference", manifest["rates"], ref["rates"], FINAL_RTOL)
        return problems

    def finish(self):
        """The default seed's design against the reference, whatever seed the run had."""
        return self.check(-1, REFERENCE_SEED, self.run(-1, REFERENCE_SEED))


class SweepSnrWorkload(Workload):
    name = "sweep-snr"
    points_per_op = 9
    group = 2  # the second op of a pair repeats the first's seed, for determinism

    SNRS = ("0", "5", "10")
    RHOS = ("0.25", "0.5", "0.75")

    def __init__(self, *args):
        super().__init__(*args)
        self._first_of_pair = None

    def run(self, index, seed):
        out = self.work_dir / f"op{index}"
        argv = ["sweep", "--snr", *self.SNRS, "--rho", *self.RHOS, "--jcas", "4",
                "--realizations", "1", "--jobs", "1", "--seed", str(seed), "--out-dir", str(out)]
        return self.jb.cli.main(argv), out

    def check(self, index, seed, output):
        problems, files, _ = self._outputs(output)
        if files is None:
            return problems
        if index % 2 == 0:
            self._first_of_pair = files
        elif self._first_of_pair is None:
            problems.append("no first op to compare against")
        else:
            for name in SWEEP_FILES:
                if files[name] != self._first_of_pair[name]:
                    problems.append(f"{name} differs between two ops with seed {seed}")
            self._first_of_pair = None
        return problems

    def _outputs(self, output):
        """Problems in one sweep's outputs, the bytes of its files, and its points.

        The points are ``(rates.csv rows, manifest points)``. Files and points
        are None when the sweep exited non-zero.
        """
        code, out = output
        try:
            if code != 0:
                return [f"sweep exited {code}"], None, None
            files = {name: (out / name).read_bytes() for name in SWEEP_FILES}
            _, rows = read_table(out / "rates.csv")
            patterns = {name: read_table(out / name)[1] for name in ("beampattern_avg.csv", "beampattern_member.csv")}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        points = json.loads(files["sweep_manifest.json"])["points"]
        problems = finite_nonneg("rates.csv avg_rate", [r["avg_rate"] for r in rows])
        problems += finite("rates.csv avg_mse", [r["avg_mse"] for r in rows])
        if len(rows) != len(self.SNRS) * len(self.RHOS):
            problems.append(f"rates.csv has {len(rows)} points")
        for name, pattern in patterns.items():
            problems += finite(name, [r["gain"] for r in pattern])
        problems += finite_nonneg("manifest avg_rate", [p["avg_rate"] for p in points])
        return problems, files, (rows, points)

    def finish(self):
        """The default seed's sweep against the reference, whatever seed the run had.

        The timed ops use other seeds, so only this sweep compares rates and
        pattern errors, at every SNR, with the recorded reference.
        """
        problems, files, tables = self._outputs(self.run(-1, REFERENCE_SEED))
        if files is None:
            return problems
        rows, points = tables
        ref = self.reference["sweep_seed0"]["points"]
        for key in ("avg_rate", "avg_mse"):
            problems += close_to(f"sweep manifest {key} vs reference", [p[key] for p in points],
                                 [p[key] for p in ref], FINAL_RTOL)
            # the CSV holds CSV_DIGITS significant digits: it must read as the reference rounded so
            problems += close_to(f"sweep rates.csv {key} vs reference", [r[key] for r in rows],
                                 [float(f"{p[key]:.{CSV_DIGITS}g}") for p in ref], 0.0)
        return problems


def link_designs(jb, cfg, grid, covariances, seed):
    """Sweep pass 3 for one realization: every (rho, J) design plus its pattern error."""
    channels = jb.generate_rayleigh(cfg.n_subcarriers, cfg.n_rx, cfg.n_tx, seed)
    out = []
    for rho in LINK_RHOS:
        for n_jcas in LINK_JCAS:
            design_cfg = replace(cfg, rho=rho, n_jcas=n_jcas, seed=seed)
            result = jb.run_design(design_cfg, channels=channels, grid=grid, covariances=covariances)
            mse = jb.beampattern_mse(result.precoders, result.jcas_subcarriers, grid)
            out.append((rho, n_jcas, result, mse))
    return out


def covariance_problems(covariances, power, n_tx, ref_objectives):
    """Feasibility of set-up covariances and their objectives against the reference."""
    problems = []
    for k, sol in sorted(covariances.items()):
        diag_err = float(np.max(np.abs(np.diag(sol.matrix).real - power / n_tx)))
        min_eig = float(np.linalg.eigvalsh(sol.matrix)[0])
        if not diag_err <= COV_DIAG_ATOL:
            problems.append(f"covariance {k}: diagonal error {diag_err:.2e}")
        if not min_eig >= COV_EIG_FLOOR:
            problems.append(f"covariance {k}: minimum eigenvalue {min_eig:.2e}")
    ks = sorted(covariances)
    problems += close_to(
        "set-up covariance objectives",
        [covariances[k].objective for k in ks],
        [ref_objectives[k] for k in ks],
        COV_OBJECTIVE_RTOL,
    )
    return problems


class LinkWorkload(Workload):
    name = "link"
    points_per_op = len(LINK_RHOS) * len(LINK_JCAS)

    def prepare(self):
        jb = self.jb
        self.cfg = jb.SystemConfig(n_subcarriers=LINK_SUBCARRIERS)
        self.grid = jb.build_grid(self.cfg)
        self.covariances = jb.solve_radar_covariance(self.grid, self.cfg.effective_power)
        return covariance_problems(
            self.covariances,
            self.cfg.effective_power,
            self.cfg.n_tx,
            self.reference["covariance_objectives"]["k16_p10"],
        )

    def run(self, index, seed):
        return link_designs(self.jb, self.cfg, self.grid, self.covariances, seed)

    def check(self, index, seed, output):
        problems = []
        power = self.cfg.effective_power
        for rho, n_jcas, result, mse in output:
            label = f"rho={rho} J={n_jcas}"
            norms = np.sum(np.abs(result.precoders) ** 2, axis=(1, 2))
            worst = float(np.max(np.abs(norms - power))) / power
            if not worst <= SPHERE_RTOL:
                problems.append(f"{label}: precoder off the power sphere by {worst:.2e}")
            for k, ref in result.refinements.items():
                if np.any(np.diff(ref.objective_trace) > 0):
                    problems.append(f"{label}: RCG objective increased on subcarrier {k}")
            problems += finite_nonneg(f"{label} rates", result.rates)
            problems += finite(f"{label} mse", [mse])
        return problems

    def finish(self):
        """The default seed's designs against the reference recorded with the benchmark."""
        got = link_designs(self.jb, self.cfg, self.grid, self.covariances, REFERENCE_SEED)
        problems = self.check(-1, REFERENCE_SEED, got)
        for (rho, n_jcas, result, mse), ref in zip(got, self.reference["link_seed0"], strict=True):
            label = f"reference rho={rho} J={n_jcas}"
            ref_f = np.asarray(ref["precoders_re"]) + 1j * np.asarray(ref["precoders_im"])
            diff = np.linalg.norm(result.precoders - ref_f, axis=(1, 2))
            worst = float(np.max(diff / np.linalg.norm(ref_f, axis=(1, 2))))
            if not worst <= FINAL_RTOL:
                problems.append(f"{label}: precoders differ by {worst:.2e}")
            problems += close_to(f"{label} rates", result.rates, ref["rates"], FINAL_RTOL)
            problems += close_to(f"{label} mse", [mse], [ref["mse"]], FINAL_RTOL)
        return problems


WORKLOADS = {w.name: w for w in (DesignWorkload, SweepSnrWorkload, LinkWorkload)}
