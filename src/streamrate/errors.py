"""Exception types shared across the library, and the input rules that
every module checks its parameters with: integers in a range, numbers
strictly inside (0, 1), finite variances and seeds.

The CLI maps validation failures to exit 1 and numerical failures (including
convergence and precision problems) to exit 2.  Each rule raises
ValidationError naming the parameter, and NaN fails every rule.  The rules
belong at the public boundary: inner loops, such as the root finders'
objectives, run on values already checked.
"""

import math
import numbers


class ValidationError(ValueError):
    """Inputs violate a documented precondition or type invariant."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class NumericalError(RuntimeError):
    """A linear-algebra or root-finding step is singular or inconsistent."""


class PrecisionError(NumericalError):
    """The requested target sits below attainable floating-point resolution."""


class InfeasibleDistortionError(NumericalError):
    """No test-channel noise in the search bracket attains the target distortion."""


def check_int(name: str, value, lo: int = 0, hi: int | None = None) -> None:
    """An integer, not a bool, with lo <= value (<= hi unless hi is None)."""
    # `type is int` first: the ABC check costs about 0.4 us
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {span}, got {value!r}")


def check_open_unit(name: str, value) -> None:
    """A number strictly inside (0, 1)."""
    try:
        ok = 0.0 < value < 1.0
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def check_variance(name: str, value, zero_ok: bool = False) -> None:
    """A finite number > 0, or >= 0 when zero_ok."""
    try:
        ok = 0.0 < value < math.inf or (zero_ok and value == 0.0)
    except TypeError:
        ok = False
    if not ok:
        kind = "nonnegative" if zero_ok else "positive"
        raise ValidationError(f"{name} must be {kind} and finite, got {value!r}")


def check_seed(value) -> None:
    """An integer in [0, 2**64), the keys both the Philox stream and
    `numpy.random.default_rng` accept."""
    check_int("seed", value, 0, 2**64 - 1)
