"""Exact streaming rate for i.i.d. unit-variance Gaussian sources when the
decoder must, at every time i, reproduce the last K+1 sources within a
non-decreasing distortion vector d = (d_0, ..., d_K).

The optimal scheme quantizes each source into B+1 refinement layers, packs
layer j of source i-j into the packet sent at time i, and bins the packed
packets.  The rate function, the layer construction and four baseline
schemes live here; the tests check the packing's decodability symbolically.
"""

from __future__ import annotations

import math

from .errors import Record, ValidationError, check_int, check_probability

WINDOW_CAP = 10**4  # B and W: the layer plan and the reduced window hold B + W + 1 entries


class DistortionVector(Record):
    """Non-decreasing per-lag distortion targets in (0, 1]."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[float, ...]):
        vals = tuple([check_probability("each distortion", v, zero_ok=False) for v in values])
        if not vals:
            raise ValidationError("distortion vector must have at least one entry")
        # below 2**-1024 the reciprocal overflows and every rate is infinite
        if not all(1.0 / v < math.inf for v in vals):
            raise ValidationError("distortions must have a finite reciprocal")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValidationError("distortions must be non-decreasing with lag")
        Record.__init__(self, vals)

    @property
    def K(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def _check_bw(B: int, W: int) -> tuple[int, int]:
    return check_int("B", B, 0, WINDOW_CAP), check_int("W", W, 0, WINDOW_CAP)


def reduce_window(d: DistortionVector, B: int, W: int) -> DistortionVector:
    """Effective length-(B+W+1) vector: pad with 1.0 (zero-rate layers) when
    the window is shorter, truncate when longer (old lags cost no rate)."""
    B, W = _check_bw(B, W)
    target = B + W + 1
    vals = list(d.values[:target])
    vals.extend([1.0] * (target - len(vals)))
    return DistortionVector(tuple(vals))


def rate_recovery(d: DistortionVector, B: int, W: int) -> float:
    """Minimum rate in bits:
    (1/2) log2(1/d_0) + 1/(W+1) * sum_{k=1}^{min(K-W, B)} (1/2) log2(1/d_{W+k})."""
    B, W = _check_bw(B, W)
    rate = 0.5 * math.log2(1.0 / d[0])
    top = min(d.K - W, B)
    for k in range(1, top + 1):
        rate += 0.5 * math.log2(1.0 / d[W + k]) / (W + 1)
    return rate


class LayerPlan(Record):
    """Refinement rates of the B + 1 layers and their suffix sums, in bits.

    cum_rates[j] is the rate of everything from refinement layer j up, so
    cum_rates[0] = (1/2) log2(1/d_0) and the sequence is non-increasing.
    """

    _fields = ("tilde_rates", "W")
    __slots__ = _fields + ("_cum",)

    def __init__(self, tilde_rates: tuple[float, ...], W: int):
        if not tilde_rates:
            raise ValidationError("a layer plan needs at least one layer")
        if any(r < -1e-12 for r in tilde_rates):
            raise ValidationError("layer rates must be nonnegative")
        Record.__init__(self, tilde_rates, W)
        object.__setattr__(self, "_cum", tuple([sum(tilde_rates[j:]) for j in range(len(tilde_rates))]))

    @property
    def B(self) -> int:
        return len(self.tilde_rates) - 1

    @property
    def cum_rates(self) -> tuple[float, ...]:
        return self._cum

    @property
    def amortized_rate(self) -> float:
        return self.cum_rates[0] + sum(self.cum_rates[1:]) / (self.W + 1)


def layer_plan(d: DistortionVector, B: int, W: int) -> LayerPlan:
    """Refinement-layer construction on the effective window.

    Layer 0 refines from d_{W+1} down to d_0, layer j (1 <= j < B) from
    d_{W+j+1} to d_{W+j}, and layer B carries the base description to
    d_{W+B}, that is from d_{W+B+1} = 1.  Equal consecutive distortions give
    zero-rate layers.
    """
    B, W = _check_bw(B, W)
    eff = reduce_window(d, B, W).values + (1.0,)
    return LayerPlan(tuple([0.5 * math.log2(eff[W + j + 1] / eff[W + j if j else 0]) for j in range(B + 1)]), W)


class BaselineRates(Record):
    """Rates of the four reference schemes, in bits."""

    __slots__ = _fields = ("still_image", "wyner_ziv", "predictive_fec", "gop")

    def __init__(self, still_image: float, wyner_ziv: float, predictive_fec: float, gop: float):
        Record.__init__(self, still_image, wyner_ziv, predictive_fec, gop)

    def minimum(self) -> float:
        return min(self.still_image, self.wyner_ziv, self.predictive_fec, self.gop)


def baseline_rates(d: DistortionVector, B: int, W: int) -> BaselineRates:
    """Reference schemes evaluated on the original distortion vector:
    memoryless coding of the whole window, coding against the delayed
    reconstruction, predictive coding protected by erasure-correcting parity,
    and periodic sync frames every W+1 steps."""
    B, W = _check_bw(B, W)
    half_logs = [0.5 * math.log2(1.0 / v) for v in d.values]
    still = sum(half_logs)
    wz = sum(half_logs[: min(B, d.K) + 1])
    fec = (B + W + 1) / (W + 1) * half_logs[0]
    gop = still / (W + 1) + W / (W + 1) * half_logs[0]
    return BaselineRates(still_image=still, wyner_ziv=wz, predictive_fec=fec, gop=gop)
