"""The eps > 0 entry points, defined in :mod:`.stepping`."""
# re-exports only: code imports step_eps/run_eps from here, and bench/probes.py
# patches run_eps, run_simulation and make_state by name on this module
from .state import make_state  # noqa: F401
from .stepping import run_eps, run_simulation, step_eps  # noqa: F401
