"""streamrate: rate-recovery bounds and simulators for zero-delay streaming
of Markov sources over burst-erasure channels."""

import importlib

from .errors import (
    ConvergenceError,
    NumericalError,
    PrecisionError,
    ValidationError,
)

__version__ = "0.1.0"

# every submodule is imported on first use (PEP 562), so `import streamrate`
# loads only `errors` and a command loads only the modules it runs.  numpy,
# the optional `sim` extra, is imported by sim and by oracle's dense Schur
# API alone.  module -> the names the package re-exports from it
_LAZY = {
    "gauss_markov": (
        "GmBounds", "GmConfig", "TestChannel", "compute_bounds", "eta_multi", "finite_t_lower",
        "gamma_single", "high_res_rate", "kalman_steady_sigma", "lower_bound_single", "naive_wz_rate",
        "rate_upper_multi", "rate_upper_single", "solve_test_channel_single",
    ),
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
    "sliding": (
        "BaselineRates", "DistortionVector", "LayerPlan", "baseline_rates", "layer_plan",
        "rate_recovery", "reduce_window",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}
__all__ = ["ConvergenceError", "NumericalError", "PrecisionError", "ValidationError", *_OWNER]


def __getattr__(name: str):
    module = name if name in _LAZY else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    return mod if module == name else getattr(mod, name)
