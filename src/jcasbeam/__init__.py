"""Joint communications and sensing beamformer design for multi-carrier MIMO.

Design flow: eigenmode precoding per subcarrier, selection of the weakest
subcarriers for sensing duty, beampattern-matching covariance design, and
Riemannian refinement of the sensing precoders on the transmit power sphere.

The package exports the entry points of the command line and of each stage,
with their result and error types; every other function stays importable
from its submodule.
"""

from .beamgrid import BeamGrid, build_grid
from .channel import generate_rayleigh
from .config import SystemConfig, load_config, write_config
from .covariance import (
    CovarianceSolution,
    solve_radar_covariance,
    solve_radar_covariances,
)
from .errors import ConfigError, DegenerateChannelError, SolverError
from .evaluation import SweepPoint, SweepResult, beampattern_mse, sweep
from .manifold import RcgResult, solve_rcg_batch
from .pipeline import DesignResult, build_run_manifest, run_design
from .tables import write_table

__version__ = "0.1.0"

__all__ = [
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
