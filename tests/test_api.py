"""The package's public API: what ``import jcasbeam`` exports."""

import inspect

import jcasbeam
import jcasbeam.cli

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
    "average_jcas_pattern",
    "beampattern_mse",
    "build_grid",
    "build_run_manifest",
    "generate_rayleigh",
    "load_config",
    "run_design",
    "run_selfcheck",
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


def test_benchmark_entry_points_are_present():
    # the names the benchmark harness calls on the package
    for name in ("SystemConfig", "build_grid", "solve_radar_covariance", "generate_rayleigh",
                 "run_design", "beampattern_mse"):
        assert callable(getattr(jcasbeam, name)), name
    assert callable(jcasbeam.cli.main)


# Each solver has one fixed set of rules, module constants: no per-call tuning values.
SOLVER_SIGNATURES = {
    "solve_rcg_batch": ["f0", "cov", "f_comm", "rho", "power"],
    "solve_radar_covariances": ["grid", "requests"],
    "solve_radar_covariance": ["grid", "power_budget", "subcarriers=None"],
}


def test_solver_signatures_take_no_tuning_values():
    for name, want in SOLVER_SIGNATURES.items():
        params = inspect.signature(getattr(jcasbeam, name)).parameters.values()
        got = [p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params]
        assert got == want, name
