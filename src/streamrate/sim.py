"""Monte-Carlo validation of the analytic bounds.

Two experiments:

* Gauss-Markov streaming through the additive test channel with an erasure
  schedule.  The decoder is the exact conditional-mean filter (Kalman
  recursion that skips erased measurements), so the per-time exact MMSE trace
  accompanies the empirical one.

* Toy lossless binning for the binary symmetric Markov source.  All 2^n
  length-n blocks are partitioned into near-equal bins by a seeded random
  permutation; the decoder picks the most likely bin member given the true
  previous block.

Reproducibility contract: every random draw comes from a single
``numpy.random.Philox`` counter-based stream keyed by the config seed.  For
the stream simulator the draw order is: the length-``trials`` vector of
pre-stream states, then for each time step the innovation vector followed by
the observation-noise vector (each of length ``trials``), so trial k always
reads lane k of each draw.  For the binning experiment the order is: the bin
permutation of all 2^n blocks, the side-information blocks, then the
per-trial flip bits.  Same seed and config give bit-identical results; ties
in the bin decoder break toward the earliest member in permutation order.

The draw order does not depend on the erasure schedule, so the burst-position
sweep shares one Philox stream among its offsets.  It runs the stream with the
no-erasure filter (the trunk) and takes the sorted burst starts in groups of
up to ``SWEEP_LANES``.  Each group replays the stream once, from its first
start to the decode time: each slot draws the source once, and every open
filter predicts and updates from those draws.  A burst's filter (a lane)
opens at its burst start as a copy of the trunk.  The trunk runs on with the
lanes to the next group's first start, where ``bit_generator.state``, the
source state and the trunk are saved; the next group starts from them once
every lane has given its statistics at the decode time.  The last group's
last lane takes the trunk over.  Each lane makes the same floating-point
operations on the same draws in the same order as a ``simulate_gm_stream``
run with its burst, so the sweep's output equals those runs bit for bit.  The
sweep places its own burst and ignores ``cfg.bursts``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    Record, ValidationError, check_int, check_open_unit, check_real, check_seed, check_variance,
    source_constants,
)

HORIZON_CAP = 10**4
BLOCK_CAP = 16
TRIALS_CAP = 10**7  # a stream run holds three float64 arrays of this length, a sweep seven
DECODE_CHUNK = 1 << 18  # binning candidate-table entries decoded at once
UPDATE_CHUNK = 1 << 14  # filter-update scratch entries, so the scratch stays short
# burst filters per sweep replay.  Each lane is one float64 array of length
# trials; with the source, the observations, the trunk and the saved source a
# sweep holds SWEEP_LANES + 4 of them.  One sweep at 1e5 trials, B = 2 and
# decode time 49, in a fresh process with numpy imported (2 vCPU Xeon,
# Python 3.11, numpy 2.4): 37.9 / 39.5 / 40.3 MB peak RSS with 1 / 3 / 4
# lanes, against 40.3 MB for the replay per burst start it replaced; each
# lane costs 0.8 MB, so 3 leaves the peak below the old one
SWEEP_LANES = 3
_Z95 = 1.959963984540054  # 95% normal quantile


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


class SimConfig(Record):
    """Streaming experiment: source/channel parameters plus erased bursts
    given as (start, length) pairs, kept as a tuple of int pairs."""

    __slots__ = _fields = ("rho", "sigma_z2", "horizon", "trials", "seed", "bursts")

    def __init__(self, rho: float, sigma_z2: float, horizon: int, trials: int, seed: int,
                 bursts: tuple[tuple[int, int], ...] = ()):
        rho = check_open_unit("rho", rho)
        sigma_z2 = check_variance("sigma_z2", sigma_z2)
        horizon = check_int("horizon", horizon, 1, HORIZON_CAP)
        trials = check_int("trials", trials, 1, TRIALS_CAP)
        seed = check_seed(seed)
        try:
            pairs = [(start, length) for start, length in bursts]
        except (TypeError, ValueError):
            raise ValidationError(f"bursts must be (start, length) pairs, got {bursts!r}") from None
        bursts = []
        for start, length in pairs:
            start, length = check_int("burst start", start), check_int("burst length", length)
            if start + length > horizon:
                raise ValidationError(f"burst ({start}, {length}) outside the horizon")
            bursts.append((start, length))
        spans = sorted(bursts)
        if any(s1 < s0 + n0 for (s0, n0), (s1, _) in zip(spans, spans[1:])):
            raise ValidationError("bursts must not overlap")
        Record.__init__(self, rho, sigma_z2, horizon, trials, seed, tuple(bursts))

    def erased_mask(self) -> np.ndarray:
        mask = np.zeros(self.horizon, dtype=bool)
        for start, length in self.bursts:
            mask[start : start + length] = True
        return mask


class StreamResult(Record):
    """Per-time empirical mean-square error with its standard error, next to
    the exact filter MMSE for the same erasure schedule, at times 0, 1, ..."""

    __slots__ = _fields = ("mse", "stderr", "exact_mmse", "erased")

    def __init__(self, mse: np.ndarray, stderr: np.ndarray, exact_mmse: np.ndarray, erased: np.ndarray):
        Record.__init__(self, mse, stderr, exact_mmse, erased)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.mse))

    __hash__ = None  # numpy fields

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._values(), other._values()))

    def rows(self):
        for t in range(len(self.mse)):
            yield (
                t,
                float(self.mse[t]),
                float(self.stderr[t]),
                float(self.exact_mmse[t]),
                bool(self.erased[t]),
            )


class _Stream:
    """One seeded source and its observations through the test channel,
    advanced in place one slot at a time.  After `advance`, ``w`` holds the
    slot's observations; once every filter has taken them it is free scratch.
    ``u`` is a short scratch lane that filter updates go through chunk by
    chunk."""

    def __init__(self, cfg: SimConfig):
        self.rho = cfg.rho
        self.a, self.q, _, _ = source_constants(cfg.rho, 2)  # the filters' predict step
        self.sigma_z2 = cfg.sigma_z2
        self.innov_std = math.sqrt(self.q)
        self.z_std = math.sqrt(cfg.sigma_z2)
        self.rng = _philox(cfg.seed)
        self.s = self.rng.standard_normal(cfg.trials)
        self.w = np.empty(cfg.trials)
        self.u = np.empty(min(cfg.trials, UPDATE_CHUNK))

    def advance(self) -> None:
        w = self.w
        self.rng.standard_normal(out=w)
        w *= self.innov_std
        self.s *= self.rho
        self.s += w
        self.rng.standard_normal(out=w)
        w *= self.z_std
        w += self.s

    def stats(self, mean: np.ndarray) -> tuple[float, float]:
        """Empirical mean-square error of the estimates ``mean`` across trials
        and its standard error.  The spread is the reduction ``std(ddof=1)``
        makes, bit for bit, in place in ``w`` instead of a temporary."""
        sq = np.subtract(self.s, mean, out=self.w)
        sq *= sq
        n = sq.size
        m = np.add.reduce(sq) / n
        if n == 1:
            return float(m), 0.0
        sq -= m
        sq *= sq
        return float(m), math.sqrt(np.add.reduce(sq) / (n - 1)) / math.sqrt(n)


class _Filter:
    """The conditional-mean filter of one erasure schedule: the per-trial
    estimates ``mean`` and the exact MMSE ``var`` that every trial shares."""

    __slots__ = ("mean", "var")

    def __init__(self, mean: np.ndarray, var: float):
        self.mean = mean
        self.var = var

    def step(self, stream: _Stream, erased: bool) -> None:
        """Predict, and update from the slot's observations unless erased."""
        self.mean *= stream.rho
        self.var = stream.a * self.var + stream.q
        if not erased:
            gain = self.var / (self.var + stream.sigma_z2)
            u = stream.u
            for a in range(0, self.mean.size, u.size):
                mean = self.mean[a : a + u.size]
                d = np.subtract(stream.w[a : a + u.size], mean, out=u[: mean.size])
                d *= gain
                mean += d
            self.var = (1.0 - gain) * self.var


def _start_filter(stream: _Stream) -> _Filter:
    # the pre-stream state is known to the decoder: zero error variance,
    # so the first predict step gives mean rho*s and var 1 - rho^2
    return _Filter(stream.s.copy(), 0.0)


def simulate_gm_stream(cfg: SimConfig) -> StreamResult:
    """Stream the source through the test channel and decode with the exact
    conditional-mean filter, skipping erased measurements."""
    stream = _Stream(cfg)
    filt = _start_filter(stream)
    T = cfg.horizon
    erased = cfg.erased_mask()
    mse = np.empty(T)
    stderr = np.empty(T)
    exact = np.empty(T)
    for t in range(T):
        stream.advance()
        filt.step(stream, erased[t])
        mse[t], stderr[t] = stream.stats(filt.mean)
        exact[t] = filt.var
    return StreamResult(mse=mse, stderr=stderr, exact_mmse=exact, erased=erased)


class BurstSweepReport(Record):
    """Empirical and exact MMSE at a fixed decode time as one burst slides
    away from it; the hardest position is offset zero."""

    __slots__ = _fields = ("offsets", "empirical", "stderr", "exact", "decode_time")

    def __init__(self, offsets: tuple[int, ...], empirical: tuple[float, ...], stderr: tuple[float, ...],
                 exact: tuple[float, ...], decode_time: int):
        Record.__init__(self, offsets, empirical, stderr, exact, decode_time)

    @property
    def exact_nonincreasing(self) -> bool:
        return all(b <= a + 1e-12 for a, b in zip(self.exact, self.exact[1:]))

    @property
    def empirical_tracks_exact(self) -> bool:
        return all(abs(e - x) <= 3.0 * s for e, s, x in zip(self.empirical, self.stderr, self.exact))

    @property
    def passed(self) -> bool:
        return self.exact_nonincreasing and self.empirical_tracks_exact


def sweep_burst_position(
    cfg: SimConfig, B: int, decode_time: int | None = None, offsets=None
) -> BurstSweepReport:
    """MMSE at the decode time with a length-B burst ending offset slots
    before it, for each offset.  Replays one shared stream once per group of
    up to ``SWEEP_LANES`` burst starts, with one filter per burst (see the
    module docstring), so every result equals a ``simulate_gm_stream`` run
    with that burst bit for bit; ``cfg.bursts`` is ignored."""
    B = check_int("B", B, 1)
    t = check_int("decode_time", cfg.horizon - 1 if decode_time is None else decode_time, 0, cfg.horizon - 1)
    offsets = tuple(range(0, min(10, t - B) + 1) if offsets is None else offsets)
    if not offsets:
        raise ValidationError("no burst offset to sweep: need 0 <= k <= decode_time - B")
    offsets = tuple([check_int("offset", k, 0, t - B) for k in offsets])

    starts = sorted({t - B - k for k in offsets})
    groups = [starts[g : g + SWEEP_LANES] for g in range(0, len(starts), SWEEP_LANES)]
    stream = _Stream(cfg)
    trunk = _start_filter(stream)  # the filter with no erasure
    for _ in range(groups[0][0]):
        stream.advance()
        trunk.step(stream, False)
    at_start = {}
    for group, after in zip(groups, groups[1:] + [None]):
        lanes = []
        for j in range(group[0], t + 1):
            if after and j == after[0]:
                # the next group's checkpoint: the trunk stops here
                saved = stream.rng.bit_generator.state, stream.s.copy(), trunk
                trunk = None
            if len(lanes) < len(group) and j == group[len(lanes)]:
                # a burst's filter is the trunk's until its start; the last
                # group's last lane takes the trunk over
                if not after and len(lanes) == len(group) - 1:
                    lanes.append(trunk)
                    trunk = None
                else:
                    lanes.append(_Filter(trunk.mean.copy(), trunk.var))
            stream.advance()
            if trunk is not None:
                trunk.step(stream, False)
            for start, lane in zip(group, lanes):
                lane.step(stream, j < start + B)
        for start, lane in zip(group, lanes):
            at_start[start] = (*stream.stats(lane.mean), lane.var)
        if after:
            stream.rng.bit_generator.state, stream.s, trunk = saved
    emp, err, exact = zip(*(at_start[t - B - k] for k in offsets))
    return BurstSweepReport(offsets=offsets, empirical=emp, stderr=err, exact=exact, decode_time=t)


class BinningConfig(Record):
    """Toy binning experiment: block length n <= 16, flip probability q,
    rate in bits per symbol, at most 1 (bin count round(2^(n*rate)))."""

    __slots__ = _fields = ("n", "q", "rate", "trials", "seed")

    def __init__(self, n: int, q: float, rate: float, trials: int, seed: int):
        n = check_int("block length n", n, 1, BLOCK_CAP)
        q = check_open_unit("flip probability q", q)
        trials = check_int("trials", trials, 1, TRIALS_CAP)
        seed = check_seed(seed)
        rate = check_real("rate", rate)
        if not -math.inf < rate <= 1.0:
            raise ValidationError("rate must be finite and at most 1 bit per symbol")
        Record.__init__(self, n, q, rate, trials, seed)
        if self.bin_count < 1:
            raise ValidationError("rate yields fewer than one bin")

    @property
    def bin_count(self) -> int:
        return int(round(2.0 ** (self.n * self.rate)))


class BinningResult(Record):
    """Block error count with its estimate and a normal-approximation binomial interval."""

    __slots__ = _fields = ("errors", "trials")

    def __init__(self, errors: int, trials: int):
        Record.__init__(self, errors, trials)

    @property
    def p_hat(self) -> float:
        return self.errors / self.trials

    @property
    def stderr(self) -> float:
        return math.sqrt(max(self.p_hat * (1.0 - self.p_hat), 0.0) / self.trials)

    @property
    def ci_low(self) -> float:
        return max(0.0, self.p_hat - _Z95 * self.stderr)

    @property
    def ci_high(self) -> float:
        return min(1.0, self.p_hat + _Z95 * self.stderr)


def simulate_binning(cfg: BinningConfig) -> BinningResult:
    """Estimate the block error probability of bin-index coding with the true
    previous block as side information and exhaustive in-bin decoding.

    Trials are decoded in chunks of at most ``DECODE_CHUNK`` candidate-table
    entries; the flip bits are drawn chunk by chunk in row order, which is
    the order of one whole draw, so the results do not depend on the chunking.
    """
    rng = _philox(cfg.seed)
    size = 1 << cfg.n
    nb = cfg.bin_count

    perm = rng.permutation(size)
    # balanced partition: position p in the permutation goes to bin p mod nb,
    # so row b of the padded permutation's transpose holds bin b in
    # permutation order; a short bin repeats its first member
    width = -(-size // nb)
    pad = nb * width - size
    members = np.concatenate([perm, perm[nb - pad : nb]]).reshape(width, nb).T.copy()
    bin_of = np.empty(size, dtype=np.int64)
    bin_of[perm] = np.arange(size) % nb

    popcount = np.zeros(size, dtype=np.uint8)
    for bit in range(cfg.n):
        popcount += (np.arange(size) >> bit).astype(np.uint8) & 1
    weights = 1 << np.arange(cfg.n)
    # the earliest member at the least (q <= 1/2) or greatest (q > 1/2) distance
    closest = np.argmax if cfg.q > 0.5 else np.argmin

    prev = rng.integers(0, size, size=cfg.trials)
    rows = max(1, DECODE_CHUNK // width)
    errors = 0
    for lo in range(0, cfg.trials, rows):
        side = prev[lo : lo + rows]
        flips = (rng.random((len(side), cfg.n)) < cfg.q) @ weights
        diff = members[bin_of[side ^ flips]]  # (rows, width): candidates xor side information
        diff ^= side[:, None]
        picked = diff[np.arange(len(side)), closest(popcount[diff], axis=1)]
        # the decoded block differs from the sent one exactly when picked != flips
        errors += int(np.count_nonzero(picked != flips))

    return BinningResult(errors=errors, trials=cfg.trials)
