"""streamrate: rate-recovery bounds and simulators for zero-delay streaming
of Markov sources over burst-erasure channels."""

import importlib

from .errors import (
    ConvergenceError,
    InfeasibleDistortionError,
    NumericalError,
    PrecisionError,
    ValidationError,
)
from .gauss_markov import (
    GmBounds,
    GmConfig,
    TestChannel,
    compute_bounds,
    eta_multi,
    finite_t_lower,
    gamma_single,
    high_res_rate,
    kalman_steady_sigma,
    lower_bound_single,
    naive_wz_rate,
    rate_upper_multi,
    rate_upper_single,
    solve_test_channel_single,
)
from .sliding import (
    BaselineRates,
    DecodeReport,
    DistortionVector,
    LayerPlan,
    baseline_rates,
    decodability_check,
    layer_plan,
    rate_recovery,
    reduce_window,
)

__version__ = "0.1.0"

# numpy-backed modules, imported on first use so the analytic core loads
# without numpy (PEP 562): module -> the names the package re-exports from it
_LAZY = {
    "markov": (
        "LosslessBounds", "MarkovChain", "binary_symmetric_chain", "conditional_entropy_lag",
        "is_symmetric", "lossless_bounds", "multiterminal_sum_rate", "stationary_distribution",
        "window_conditional_entropy",
    ),
    "oracle": (
        "ErasurePattern", "GaussianSystem", "VerificationReport", "conditional_variance",
        "decode_mmse", "decode_rate", "enumerate_multi_burst", "verify_exchange_inequalities",
        "verify_multi_burst_worst_case", "verify_single_burst_worst_case",
    ),
    "sim": (
        "BinningConfig", "BinningResult", "BurstSweepReport", "SimConfig", "StreamResult",
        "simulate_binning", "simulate_gm_stream", "sweep_burst_position",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = name if name in _LAZY else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    return mod if module == name else getattr(mod, name)
