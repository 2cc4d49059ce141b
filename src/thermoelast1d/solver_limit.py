"""The eps = 0 entry points, defined in :mod:`.stepping`."""
# re-exports only: code imports step_limit/run_limit, prepare_rough_data and
# ROUGH_KINDS from here, and bench/probes.py patches run_limit, run_simulation
# and make_state by name on this module
from .initial_data import ROUGH_KINDS, prepare_rough_data  # noqa: F401
from .state import make_state  # noqa: F401
from .stepping import run_limit, run_simulation, step_limit  # noqa: F401
