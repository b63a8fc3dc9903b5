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
sweep shares one Philox stream among its offsets: it runs the stream without
erasures, saves ``bit_generator.state`` and the filter state at each burst
start, runs that burst to the decode time, and restores the saved state.  Its
output equals per-offset ``simulate_gm_stream`` runs bit for bit.  The sweep
places its own burst and ignores ``cfg.bursts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int, check_open_unit, check_seed, check_variance

HORIZON_CAP = 10**4
BLOCK_CAP = 16
TRIALS_CAP = 10**7  # the stream filter holds four float64 lanes of this length


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class SimConfig:
    """Streaming experiment: source/channel parameters plus erased bursts
    given as (start, length) pairs."""

    rho: float
    sigma_z2: float
    horizon: int
    trials: int
    seed: int
    bursts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        check_open_unit("rho", self.rho)
        check_variance("sigma_z2", self.sigma_z2)
        check_int("horizon", self.horizon, 1, HORIZON_CAP)
        check_int("trials", self.trials, 1, TRIALS_CAP)
        check_seed(self.seed)
        spans = []
        for start, length in self.bursts:
            check_int("burst start", start)
            check_int("burst length", length)
            if start + length > self.horizon:
                raise ValidationError(f"burst ({start}, {length}) outside the horizon")
            spans.append((start, start + length))
        for (a0, a1), (b0, b1) in zip(sorted(spans), sorted(spans)[1:]):
            if b0 < a1:
                raise ValidationError("bursts must not overlap")

    def erased_mask(self) -> np.ndarray:
        mask = np.zeros(self.horizon, dtype=bool)
        for start, length in self.bursts:
            mask[start : start + length] = True
        return mask


@dataclass(frozen=True)
class StreamResult:
    """Per-time empirical mean-square error with its standard error, next to
    the exact filter MMSE for the same erasure schedule."""

    times: np.ndarray
    mse: np.ndarray
    stderr: np.ndarray
    exact_mmse: np.ndarray
    erased: np.ndarray

    def rows(self):
        for t in range(len(self.times)):
            yield (
                int(self.times[t]),
                float(self.mse[t]),
                float(self.stderr[t]),
                float(self.exact_mmse[t]),
                bool(self.erased[t]),
            )


class _Stream:
    """One seeded stream and its conditional-mean filter, advanced in place
    one slot at a time.  ``w`` and ``u`` are scratch lanes; ``var`` is the
    exact filter MMSE shared by every trial."""

    def __init__(self, cfg: SimConfig):
        self.rho = cfg.rho
        self.sigma_z2 = cfg.sigma_z2
        self.innov_std = math.sqrt(1.0 - cfg.rho**2)
        self.z_std = math.sqrt(cfg.sigma_z2)
        self.rng = _philox(cfg.seed)
        # the pre-stream state is known to the decoder: zero error variance,
        # so the first predict step gives mean rho*s and var 1 - rho^2
        self.s = self.rng.standard_normal(cfg.trials)
        self.mean = self.s.copy()
        self.var = 0.0
        self.w = np.empty(cfg.trials)
        self.u = np.empty(cfg.trials)

    def step(self, erased: bool) -> None:
        rho, w, u = self.rho, self.w, self.u
        self.mean *= rho
        self.var = rho**2 * self.var + (1.0 - rho**2)
        self.rng.standard_normal(out=w)
        w *= self.innov_std
        self.s *= rho
        self.s += w
        self.rng.standard_normal(out=u)
        u *= self.z_std
        u += self.s
        if not erased:
            gain = self.var / (self.var + self.sigma_z2)
            np.subtract(u, self.mean, out=w)
            w *= gain
            self.mean += w
            self.var = (1.0 - gain) * self.var

    def stats(self) -> tuple[float, float]:
        """Empirical mean-square error across trials and its standard error."""
        sq = np.subtract(self.s, self.mean, out=self.w)
        sq *= sq
        n = sq.size
        return float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0

    def save(self):
        return self.rng.bit_generator.state, self.s.copy(), self.mean.copy(), self.var

    def restore(self, saved) -> None:
        self.rng.bit_generator.state, s, mean, self.var = saved
        self.s[...] = s
        self.mean[...] = mean


def simulate_gm_stream(cfg: SimConfig) -> StreamResult:
    """Stream the source through the test channel and decode with the exact
    conditional-mean filter, skipping erased measurements."""
    stream = _Stream(cfg)
    T = cfg.horizon
    erased = cfg.erased_mask()
    mse = np.empty(T)
    stderr = np.empty(T)
    exact = np.empty(T)
    for t in range(T):
        stream.step(erased[t])
        mse[t], stderr[t] = stream.stats()
        exact[t] = stream.var
    return StreamResult(
        times=np.arange(T), mse=mse, stderr=stderr, exact_mmse=exact, erased=erased
    )


@dataclass(frozen=True)
class BurstSweepReport:
    """Empirical and exact MMSE at a fixed decode time as one burst slides
    away from it; the hardest position is offset zero."""

    offsets: tuple[int, ...]
    empirical: tuple[float, ...]
    stderr: tuple[float, ...]
    exact: tuple[float, ...]
    decode_time: int
    exact_nonincreasing: bool
    empirical_tracks_exact: bool

    @property
    def passed(self) -> bool:
        return self.exact_nonincreasing and self.empirical_tracks_exact


def sweep_burst_position(
    cfg: SimConfig, B: int, decode_time: int | None = None, offsets=None
) -> BurstSweepReport:
    """MMSE at the decode time with a length-B burst ending offset slots
    before it, for each offset.  Replays one shared stream from each burst
    start (see the module docstring), so every result equals a
    ``simulate_gm_stream`` run with that burst bit for bit; ``cfg.bursts``
    is ignored."""
    t = cfg.horizon - 1 if decode_time is None else decode_time
    check_int("B", B, 1)
    check_int("decode_time", t, 0, cfg.horizon - 1)
    offsets = tuple(range(0, min(10, t - B) + 1) if offsets is None else offsets)
    if not offsets:
        raise ValidationError("no burst offset to sweep: need 0 <= k <= decode_time - B")
    for k in offsets:
        check_int("offset", k, 0, t - B)
    offsets = tuple(int(k) for k in offsets)

    stream = _Stream(cfg)
    at_start = {}
    slot = 0
    for start in sorted({t - B - k for k in offsets}):
        for _ in range(slot, start):
            stream.step(False)
        slot = start
        saved = stream.save()
        for j in range(start, t + 1):
            stream.step(j < start + B)
        at_start[start] = (*stream.stats(), stream.var)
        stream.restore(saved)
    emp, err, exact = zip(*(at_start[t - B - k] for k in offsets))
    noninc = all(b <= a + 1e-12 for a, b in zip(exact, exact[1:]))
    tracks = all(abs(e - x) <= 3.0 * s for e, s, x in zip(emp, err, exact))
    return BurstSweepReport(
        offsets=offsets,
        empirical=emp,
        stderr=err,
        exact=exact,
        decode_time=t,
        exact_nonincreasing=noninc,
        empirical_tracks_exact=tracks,
    )


@dataclass(frozen=True)
class BinningConfig:
    """Toy binning experiment: block length n <= 16, flip probability q,
    rate in bits per symbol, at most 1 (bin count round(2^(n*rate)))."""

    n: int
    q: float
    rate: float
    trials: int
    seed: int

    def __post_init__(self):
        check_int("block length n", self.n, 1, BLOCK_CAP)
        check_open_unit("flip probability q", self.q)
        check_int("trials", self.trials, 1, TRIALS_CAP)
        check_seed(self.seed)
        if not -math.inf < self.rate <= 1.0:
            raise ValidationError("rate must be finite and at most 1 bit per symbol")
        if self.bin_count < 1:
            raise ValidationError("rate yields fewer than one bin")

    @property
    def bin_count(self) -> int:
        return int(round(2.0 ** (self.n * self.rate)))


@dataclass(frozen=True)
class BinningResult:
    """Block error estimate with a normal-approximation binomial interval."""

    errors: int
    trials: int
    p_hat: float
    stderr: float
    ci_low: float
    ci_high: float


def simulate_binning(cfg: BinningConfig) -> BinningResult:
    """Estimate the block error probability of bin-index coding with the true
    previous block as side information and exhaustive in-bin decoding."""
    rng = _philox(cfg.seed)
    size = 1 << cfg.n
    nb = cfg.bin_count

    perm = rng.permutation(size)
    # balanced partition: position p in the permutation goes to bin p mod nb
    width = -(-size // nb)
    members = np.empty((nb, width), dtype=np.int64)
    for b in range(nb):
        chunk = perm[b::nb]
        members[b, : len(chunk)] = chunk
        members[b, len(chunk) :] = chunk[0] if len(chunk) else 0
    bin_of = np.empty(size, dtype=np.int64)
    bin_of[perm] = np.arange(size) % nb

    popcount = np.zeros(size, dtype=np.uint8)
    for bit in range(cfg.n):
        popcount += (np.arange(size) >> bit).astype(np.uint8) & 1

    prev = rng.integers(0, size, size=cfg.trials)
    flip_bits = rng.random((cfg.trials, cfg.n)) < cfg.q
    flips = flip_bits @ (1 << np.arange(cfg.n))
    sent = prev ^ flips

    cand = members[bin_of[sent]]  # (trials, width)
    dist = popcount[cand ^ prev[:, None]].astype(np.int16)
    if cfg.q > 0.5:
        dist = -dist
    decoded = cand[np.arange(cfg.trials), np.argmin(dist, axis=1)]
    errors = int(np.count_nonzero(decoded != sent))

    p = errors / cfg.trials
    se = math.sqrt(max(p * (1.0 - p), 0.0) / cfg.trials)
    z = 1.959963984540054  # 95% normal quantile
    return BinningResult(
        errors=errors,
        trials=cfg.trials,
        p_hat=p,
        stderr=se,
        ci_low=max(0.0, p - z * se),
        ci_high=min(1.0, p + z * se),
    )
