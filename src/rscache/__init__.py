"""Rate-splitting downlink analysis with cache-aided receivers.

Closed-form SINR distributions and achieved-rate formulas for a two-class
(center/edge) cell under four caching modes, cross-validated by an
independent Monte-Carlo simulator, with a coded-caching engine supplying
the pre-log factors.
"""

from .caching import Mode, parse_subcase_token
from .model import PowerSplit, SystemParams
from .montecarlo import SimConfig, estimate_rates
from .rates import evaluate_subcase
from .sweep import SweepSpec, compare_csv, figure_presets, run_sweep, run_sweeps

__all__ = [
    "Mode",
    "PowerSplit",
    "SimConfig",
    "SweepSpec",
    "SystemParams",
    "compare_csv",
    "estimate_rates",
    "evaluate_subcase",
    "figure_presets",
    "parse_subcase_token",
    "run_sweep",
    "run_sweeps",
]

__version__ = "0.1.0"
