"""Radar resource management for split-aperture phased arrays.

Evaluates the Van Keuk-Blackman tracking quality/resource model per
task, solves the budgeted utility-maximization problem with a Q-RAM
greedy over concave majorants, and reproduces split- versus
full-aperture Monte Carlo comparisons.
"""

from .radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    evaluate,
    linear_to_db,
)
from .qram import (
    ControlGrid,
    allocate,
    brute_force_allocate,
    build_majorant,
    enumerate_setpoints,
)
from .scenario import SceneConfig, generate_scene
from .experiment import SweepConfig, read_run_csv, read_runs, sweep

__version__ = "1.0.0"

__all__ = [
    "ControlPoint",
    "Environment",
    "RadarConstants",
    "UtilityShape",
    "evaluate",
    "linear_to_db",
    "ControlGrid",
    "allocate",
    "brute_force_allocate",
    "build_majorant",
    "enumerate_setpoints",
    "SceneConfig",
    "generate_scene",
    "SweepConfig",
    "read_run_csv",
    "read_runs",
    "sweep",
    "__version__",
]
