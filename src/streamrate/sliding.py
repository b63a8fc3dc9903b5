"""Exact streaming rate for i.i.d. unit-variance Gaussian sources when the
decoder must, at every time i, reproduce the last K+1 sources within a
non-decreasing distortion vector d = (d_0, ..., d_K).

The optimal scheme quantizes each source into B+1 refinement layers, packs
layer j of source i-j into the packet sent at time i, and bins the packed
packets.  The rate function, the layer construction, the combinatorial
decodability checker for the packing, and four baseline schemes live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, check_int

WINDOW_CAP = 10**4  # B and W: the layer plan and the reduced window hold B + W + 1 entries


@dataclass(frozen=True)
class DistortionVector:
    """Non-decreasing per-lag distortion targets in (0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValidationError("distortion vector must have at least one entry")
        # below 2**-1024 the reciprocal overflows and every rate is infinite
        if not all(0.0 < v <= 1.0 and 1.0 / v < math.inf for v in vals):
            raise ValidationError("distortions must lie in (0, 1], with a finite reciprocal")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValidationError("distortions must be non-decreasing with lag")
        object.__setattr__(self, "values", vals)

    @property
    def K(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def _check_bw(B: int, W: int) -> None:
    check_int("B", B, 0, WINDOW_CAP)
    check_int("W", W, 0, WINDOW_CAP)


def reduce_window(d: DistortionVector, B: int, W: int) -> DistortionVector:
    """Effective length-(B+W+1) vector: pad with 1.0 (zero-rate layers) when
    the window is shorter, truncate when longer (old lags cost no rate)."""
    _check_bw(B, W)
    target = B + W + 1
    vals = list(d.values[:target])
    vals.extend([1.0] * (target - len(vals)))
    return DistortionVector(tuple(vals))


def rate_recovery(d: DistortionVector, B: int, W: int) -> float:
    """Minimum rate in bits:
    (1/2) log2(1/d_0) + 1/(W+1) * sum_{k=1}^{min(K-W, B)} (1/2) log2(1/d_{W+k})."""
    _check_bw(B, W)
    rate = 0.5 * math.log2(1.0 / d[0])
    top = min(d.K - W, B)
    for k in range(1, top + 1):
        rate += 0.5 * math.log2(1.0 / d[W + k]) / (W + 1)
    return rate


@dataclass(frozen=True)
class LayerPlan:
    """Per-layer refinement rates and cumulative layer rates, in bits.

    cum_rates[j] is the rate of everything from refinement layer j up, so
    cum_rates[0] = (1/2) log2(1/d_0) and the sequence is non-increasing.
    """

    tilde_rates: tuple[float, ...]
    cum_rates: tuple[float, ...]
    B: int
    W: int
    effective_K: int

    def __post_init__(self):
        if len(self.tilde_rates) != self.B + 1 or len(self.cum_rates) != self.B + 1:
            raise ValidationError("need exactly B + 1 layers")
        if any(r < -1e-12 for r in self.tilde_rates):
            raise ValidationError("layer rates must be nonnegative")
        for j in range(self.B + 1):
            if abs(self.cum_rates[j] - sum(self.tilde_rates[j:])) > 1e-9:
                raise ValidationError("cumulative rates must be suffix sums of layer rates")

    @property
    def amortized_rate(self) -> float:
        return self.cum_rates[0] + sum(self.cum_rates[1:]) / (self.W + 1)


def layer_plan(d: DistortionVector, B: int, W: int) -> LayerPlan:
    """Refinement-layer construction on the effective window.

    Layer 0 refines from d_{W+1} down to d_0, layer j (1 <= j < B) from
    d_{W+j+1} to d_{W+j}, and layer B carries the base description to
    d_{W+B}.  Equal consecutive distortions give zero-rate layers.
    """
    _check_bw(B, W)
    eff = reduce_window(d, B, W)
    if B == 0:
        r0 = 0.5 * math.log2(1.0 / eff[0])
        return LayerPlan((r0,), (r0,), 0, int(W), eff.K)
    tilde = [0.5 * math.log2(eff[W + 1] / eff[0])]
    for j in range(1, B):
        tilde.append(0.5 * math.log2(eff[W + j + 1] / eff[W + j]))
    tilde.append(0.5 * math.log2(1.0 / eff[W + B]))
    cum = [float(sum(tilde[j:])) for j in range(B + 1)]
    return LayerPlan(tuple(tilde), tuple(cum), int(B), int(W), eff.K)


@dataclass(frozen=True)
class BaselineRates:
    """Rates of the four reference schemes, in bits."""

    still_image: float
    wyner_ziv: float
    predictive_fec: float
    gop: float

    def minimum(self) -> float:
        return min(self.still_image, self.wyner_ziv, self.predictive_fec, self.gop)


def baseline_rates(d: DistortionVector, B: int, W: int) -> BaselineRates:
    """Reference schemes evaluated on the original distortion vector:
    memoryless coding of the whole window, coding against the delayed
    reconstruction, predictive coding protected by erasure-correcting parity,
    and periodic sync frames every W+1 steps."""
    _check_bw(B, W)
    half_logs = [0.5 * math.log2(1.0 / v) for v in d.values]
    still = float(sum(half_logs))
    wz = float(sum(half_logs[: min(B, d.K) + 1]))
    fec = (B + W + 1) / (W + 1) * half_logs[0]
    gop = still / (W + 1) + W / (W + 1) * half_logs[0]
    return BaselineRates(still_image=still, wyner_ziv=wz, predictive_fec=fec, gop=gop)


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of the symbolic decodability simulation."""

    passed: bool
    first_failure: dict | None
    steady_decodes: int
    joint_decodes: int
    checked_times: int


def decodability_check(
    B: int, W: int, K: int, horizon: int, burst_start: int, burst_len: int
) -> DecodeReport:
    """Symbolically simulate which refinement layers the decoder can hold.

    The packet at time i carries layer j of source i-j for j in [0, B]
    (each layer's index set contains all coarser ones).  A received packet is
    decoded when the previous packet was decoded (steady state) or when the
    last W+1 packets all arrived (joint recovery right after a burst).  At
    every time outside the burst and its W-slot grace window, every source at
    lag l in [0, K] must be held at a distortion index at most l; sources
    older than the stream start count as known constants.  The first
    violation, if any, is reported.
    """
    _check_bw(B, W)
    check_int("K", K)
    check_int("horizon", horizon)
    check_int("burst_start", burst_start)
    check_int("burst_len", burst_len, 0, B)
    if horizon < burst_start + burst_len + W + K:
        raise ValidationError(
            "invalid window geometry: need horizon >= burst_start + burst_len + W + K"
        )

    def received(i: int) -> bool:
        return not (burst_start <= i < burst_start + burst_len)

    # distortion index delivered by holding layer j of a source
    def dist_index(j: int) -> int:
        return 0 if j == 0 else W + j

    min_layer = [None] * horizon  # finest layer held per source
    got_packet = [False] * horizon  # c_i recovered
    steady = joint = checked = 0
    failure = None

    def absorb(i: int) -> None:
        got_packet[i] = True
        for j in range(0, min(B, i) + 1):
            src = i - j
            if min_layer[src] is None or j < min_layer[src]:
                min_layer[src] = j

    for i in range(horizon):
        if received(i):
            window = range(max(0, i - W), i + 1)
            if i == 0 or got_packet[i - 1]:
                if not got_packet[i]:
                    absorb(i)
                    steady += 1
            elif all(received(j) for j in window):
                for j in window:
                    if not got_packet[j]:
                        absorb(j)
                joint += 1
        in_outage = burst_len > 0 and burst_start <= i <= burst_start + burst_len + W - 1
        if in_outage:
            continue
        checked += 1
        for lag in range(0, K + 1):
            src = i - lag
            if src < 0:
                continue
            achieved = None if min_layer[src] is None else dist_index(min_layer[src])
            if achieved is None or achieved > lag:
                if failure is None:
                    failure = {
                        "time": i,
                        "lag": lag,
                        "required_index": lag,
                        "achieved_index": achieved,
                    }
    return DecodeReport(
        passed=failure is None,
        first_failure=failure,
        steady_decodes=steady,
        joint_decodes=joint,
        checked_times=checked,
    )
