"""The package's public API: what ``import jcasbeam`` exports, and what it imports."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import jcasbeam

PUBLIC_API = [
    "BeamGrid",
    "ConfigError",
    "CovarianceSolution",
    "DegenerateChannelError",
    "DesignResult",
    "RcgResult",
    "SolverError",
    "SweepPoint",
    "SweepResult",
    "SystemConfig",
    "beampattern_mse",
    "build_grid",
    "build_run_manifest",
    "generate_rayleigh",
    "load_config",
    "run_design",
    "solve_radar_covariance",
    "solve_radar_covariances",
    "solve_rcg_batch",
    "sweep",
    "write_config",
    "write_table",
]


def test_all_is_the_public_api():
    assert jcasbeam.__all__ == PUBLIC_API


def test_every_exported_name_resolves():
    for name in jcasbeam.__all__:
        assert getattr(jcasbeam, name) is not None, name


# Each solver has one fixed set of rules, module constants: no per-call tuning values.
SOLVER_SIGNATURES = {
    "solve_rcg_batch": ["f0", "cov", "f_comm", "rho", "power"],
    "solve_radar_covariances": ["grid", "powers", "subcarriers"],
    "solve_radar_covariance": ["grid", "power_budget", "subcarriers=None"],
}


def test_solver_signatures_take_no_tuning_values():
    for name, want in SOLVER_SIGNATURES.items():
        params = inspect.signature(getattr(jcasbeam, name)).parameters.values()
        got = [p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params]
        assert got == want, name


def test_runtime_dependency_is_numpy_only():
    # every import of the package's modules, at any depth, is numpy, the
    # package itself, or the standard library
    allowed = {"numpy", "jcasbeam"} | set(sys.stdlib_module_names)
    sources = sorted(Path(jcasbeam.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_import_leaves_the_process_pool_and_the_ini_parser_unloaded():
    # only sweep --jobs > 1 uses the pool and only config files the parser, so a
    # fresh interpreter's import of the package and its CLI loads neither
    lazy = ("multiprocessing", "concurrent.futures.process", "configparser")
    src = str(Path(jcasbeam.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import jcasbeam, jcasbeam.cli; "
            f"print(jcasbeam.__file__); print(*(m for m in {lazy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    imported, loaded = out.splitlines()
    assert Path(imported).resolve() == Path(jcasbeam.__file__).resolve()
    assert loaded == ""
