"""Exact Gaussian conditioning over arbitrary erasure patterns.

Two engines answer variance queries about the Gauss-Markov source observed
through the additive test channel, u_i = s_i + z_i.

The dense API (`GaussianSystem`, `conditional_variance`, `decode_rate`,
`decode_mmse`) builds the joint covariance of (s_{-1}, s_0..s_t, u_0..u_t)
and answers any query by Schur complement, at O(t^3) per query.  It is the
general public interface and the independent cross-check in the tests.

The worst-case-erasure checks run on a scalar Kalman filter instead.  The
state is scalar and s_{-1} is known, so conditioning on any set of received
u_i is a Riccati recursion that skips the erased slots (the Kalman filter
with intermittent observations, Sinopoli et al., IEEE TAC 2004).  A pattern
costs O(t), and the multi-burst enumeration walks the pattern tree once,
carrying the filter state down, so patterns that share a prefix share its
cost.  Every claimed inequality about which erasure pattern is hardest is
restated as a variance inequality (for jointly Gaussian variables,
differential-entropy ordering is variance ordering) and verified by
exhaustive enumeration at small horizons.

Reports are plain dataclasses serializable to JSON: pass/fail, instance
counts, the minimum slack observed, and the worst instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

RIDGE = 1e-12
SLACK_TOL = 1e-12
DENSE_T_CAP = 30  # single-burst and exchange horizons
ENUM_T_CAP = 26  # multi-burst check horizon; the check streams its patterns
LIST_T_CAP = 22  # enumerate_multi_burst, which returns every pattern as a list

VarId = tuple[str, int]


def _runs(indices: tuple[int, ...]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers as (start, length) pairs."""
    runs = []
    for i in sorted(indices):
        if runs and i == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((i, 1))
    return runs


@dataclass(frozen=True)
class ErasurePattern:
    """Non-erased packet indices up to (not including) the decoding time t.

    Index t itself is never erased: decoding happens when the time-t packet
    arrives.
    """

    t: int
    received: tuple[int, ...]

    def __post_init__(self):
        if self.t < 0:
            raise ValidationError("decoding time must be nonnegative")
        rec = tuple(sorted(set(int(i) for i in self.received)))
        if rec and (rec[0] < 0 or rec[-1] >= self.t):
            raise ValidationError("received indices must lie in [0, t)")
        object.__setattr__(self, "received", rec)

    @property
    def erased(self) -> tuple[int, ...]:
        received = set(self.received)
        return tuple(i for i in range(self.t) if i not in received)

    @classmethod
    def no_erasure(cls, t: int) -> "ErasurePattern":
        return cls(t=t, received=tuple(range(t)))

    @classmethod
    def single_burst(cls, t: int, burst_len: int, offset: int) -> "ErasurePattern":
        """Burst of burst_len erased packets ending offset slots before t,
        i.e. erasing [t - burst_len - offset, t - offset - 1]."""
        if burst_len < 0 or offset < 0 or offset > t - burst_len:
            raise ValidationError(f"burst (len={burst_len}, offset={offset}) does not fit before t={t}")
        gone = set(range(t - burst_len - offset, t - offset))
        return cls(t=t, received=tuple(i for i in range(t) if i not in gone))

    @classmethod
    def multi_burst(cls, t: int, received: tuple[int, ...], B: int, L: int) -> "ErasurePattern":
        """Validate that erased runs have length <= B and consecutive runs are
        separated by at least L intact slots."""
        pat = cls(t=t, received=tuple(received))
        runs = _runs(pat.erased)
        for start, length in runs:
            if length > B:
                raise ValidationError(f"erased run at {start} has length {length} > B={B}")
        for (s1, l1), (s2, _) in zip(runs, runs[1:]):
            if s2 - (s1 + l1) < L:
                raise ValidationError(f"guard between runs at {s1} and {s2} is shorter than L={L}")
        return pat


def worst_multi_burst(t: int, B: int, L: int) -> ErasurePattern:
    """Guard-respecting pattern packing bursts of length B toward time t;
    the earliest burst is truncated if fewer than B slots remain."""
    erased: set[int] = set()
    i = t - 1
    while i >= 0:
        lo = max(0, i - B + 1)
        erased.update(range(lo, i + 1))
        i = lo - 1 - L
    received = tuple(j for j in range(t) if j not in erased)
    return ErasurePattern.multi_burst(t, received, B, L)


def enumerate_multi_burst(t: int, B: int, L: int) -> list[ErasurePattern]:
    """Every feasible pattern of erased runs (length <= B, gaps >= L) in [0, t)."""
    if t > LIST_T_CAP:
        raise ValidationError(f"enumeration horizon capped at t <= {LIST_T_CAP}")
    layouts: list[tuple[int, ...]] = []

    def extend(next_free: int, erased: tuple[int, ...]) -> None:
        layouts.append(erased)
        for start in range(next_free, t):
            for length in range(1, min(B, t - start) + 1):
                run = tuple(range(start, start + length))
                extend(start + length + L, erased + run)

    extend(0, ())
    out = []
    for erased in layouts:
        gone = set(erased)
        received = tuple(i for i in range(t) if i not in gone)
        out.append(ErasurePattern.multi_burst(t, received, B, L))
    return out


def _validate_model(rho: float, sigma_z2: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ValidationError("rho must lie strictly inside (0, 1)")
    if not 0.0 <= sigma_z2 < math.inf:
        raise ValidationError("sigma_z2 must be nonnegative and finite")


def _require_rate_noise(sigma_z2: float) -> None:
    if sigma_z2 <= 0.0:
        raise ValidationError("decode_rate needs a strictly positive test-channel noise")


@dataclass(frozen=True)
class GaussianSystem:
    """Joint covariance of (s_{-1}, s_0..s_t, u_0..u_t) with u_i = s_i + z_i.

    Cov(s_i, s_j) = rho^|i-j|, Cov(u_i, u_j) adds sigma_z2 on the diagonal,
    and Cov(s_i, u_j) = rho^|i-j|.
    """

    rho: float
    sigma_z2: float
    t: int

    def __post_init__(self):
        _validate_model(self.rho, self.sigma_z2)
        if self.t < 0:
            raise ValidationError("horizon t must be nonnegative")
        times = np.concatenate([np.arange(-1, self.t + 1), np.arange(0, self.t + 1)])
        cov = self.rho ** np.abs(times[:, None] - times[None, :])
        n_s = self.t + 2
        u_diag = np.arange(n_s, n_s + self.t + 1)
        cov[u_diag, u_diag] += self.sigma_z2
        cov.setflags(write=False)
        object.__setattr__(self, "_cov", cov)
        object.__setattr__(self, "_n_s", n_s)

    @property
    def covariance(self) -> np.ndarray:
        return self._cov

    def index(self, var: VarId) -> int:
        name, i = var
        if name == "s":
            if not -1 <= i <= self.t:
                raise ValidationError(f"s index {i} outside [-1, {self.t}]")
            return i + 1
        if name == "u":
            if not 0 <= i <= self.t:
                raise ValidationError(f"u index {i} outside [0, {self.t}]")
            return self._n_s + i
        raise ValidationError(f"unknown variable kind {name!r}")

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self._cov)[0])


def conditional_variance(sys: GaussianSystem, target: VarId, given) -> float:
    """Var(target | given) by Schur complement with a Cholesky solve.

    Retries once with a small diagonal ridge when the conditioning block is
    numerically singular (test channels with near-zero noise), and raises
    NumericalError with a condition-number diagnostic if that also fails.
    """
    ti = sys.index(target)
    gi = [sys.index(v) for v in given]
    if ti in gi:
        raise ValidationError("conditioning set must not contain the target")
    cov = sys.covariance
    prior = float(cov[ti, ti])
    if not gi:
        return prior
    cross = cov[np.ix_([ti], gi)][0]
    block = cov[np.ix_(gi, gi)]
    for ridge in (0.0, RIDGE):
        try:
            factor = np.linalg.cholesky(block + ridge * np.eye(len(gi)))
            y = np.linalg.solve(factor, cross)
            return max(prior - float(y @ y), 0.0)
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        f"conditioning block singular beyond ridge {RIDGE:.0e}; "
        f"condition number {np.linalg.cond(block):.3e}"
    )


def decode_rate(sys: GaussianSystem, pattern: ErasurePattern) -> float:
    """Bits needed to recover the time-t packet given the received history:
    (1/2) log2(Var(u_t | u_received, s_{-1}) / sigma_z2)."""
    if pattern.t != sys.t:
        raise ValidationError("pattern and system horizons disagree")
    _require_rate_noise(sys.sigma_z2)
    given = [("u", i) for i in pattern.received] + [("s", -1)]
    var = conditional_variance(sys, ("u", sys.t), given)
    return 0.5 * float(np.log2(var / sys.sigma_z2))


def decode_mmse(sys: GaussianSystem, pattern: ErasurePattern) -> float:
    """Reconstruction error Var(s_t | u_received, u_t, s_{-1})."""
    if pattern.t != sys.t:
        raise ValidationError("pattern and system horizons disagree")
    given = [("u", i) for i in pattern.received] + [("u", sys.t), ("s", -1)]
    return conditional_variance(sys, ("s", sys.t), given)


@dataclass
class VerificationReport:
    """Outcome of one exhaustive inequality check."""

    name: str
    passed: bool
    checks: int
    violations: int
    min_slack: float
    worst: dict | None
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "violations": self.violations,
            "min_slack": self.min_slack,
            "worst": self.worst,
            "notes": self.notes,
            "details": self.details,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class _SlackTracker:
    """Check and violation counts, and the first instance of the smallest slack.

    `add` takes the instance as a builder and its arguments.  The builder runs
    once, in `report`, so a check allocates no dict.
    """

    def __init__(self):
        self.checks = 0
        self.violations = 0
        self.min_slack = np.inf
        self._worst = None

    def add(self, slack: float, describe, *args) -> None:
        self.checks += 1
        if not slack >= -SLACK_TOL:  # a NaN slack is a violation too
            self.violations += 1
        if slack < self.min_slack:
            self.min_slack = float(slack)
            self._worst = (describe, args)

    def merge(self, later: "_SlackTracker") -> None:
        """Fold in checks that come after every check added so far."""
        self.checks += later.checks
        self.violations += later.violations
        if later.min_slack < self.min_slack:
            self.min_slack = later.min_slack
            self._worst = later._worst

    def report(self, name: str, notes=None, details=None) -> VerificationReport:
        worst = None
        if self._worst is not None:
            describe, args = self._worst
            worst = describe(*args)
        return VerificationReport(
            name=name,
            passed=self.violations == 0,
            checks=self.checks,
            violations=self.violations,
            min_slack=float(self.min_slack) if self.checks else 0.0,
            worst=worst,
            notes=list(notes or []),
            details=dict(details or {}),
        )


def _fields(*keys):
    """Instance builder for `_SlackTracker.add` that pairs keys with its arguments."""
    return lambda *values: dict(zip(keys, values))


class _Filter:
    """Scalar Kalman filter for s_i = rho s_{i-1} + n_i seen through u_i = s_i + z_i.

    The state P is the error variance of s_{i-1} given s_{-1} and the received
    u_0..u_{i-1}; s_{-1} is known, so P starts at 0.  Slot i predicts,
    P <- rho^2 P + 1 - rho^2, and a received u_i then updates,
    P <- P sigma_z2 / (P + sigma_z2); an erased slot only predicts.  With
    P_pred the prediction at the decoding time t:

        Var(s_t | .)      = P_pred
        Var(u_t | .)      = P_pred + sigma_z2
        Var(s_t | ., u_t) = P_pred sigma_z2 / (P_pred + sigma_z2)

    Every path applies the same two steps in slot order, so a pattern gets
    bit-identical values however its prefix was reached.
    """

    def __init__(self, rho: float, sigma_z2: float):
        _validate_model(rho, sigma_z2)
        self.a = rho * rho
        self.q = 1.0 - self.a
        self.s2 = sigma_z2

    def predict(self, p: float) -> float:
        return self.a * p + self.q

    def update(self, p: float) -> float:
        return p * self.s2 / (p + self.s2)

    def predicted(self, t: int, received) -> float:
        """P_pred at t given s_{-1} and u_i for i in received, all below t."""
        received = set(received)
        p = 0.0
        for i in range(t):
            p = self.predict(p)
            if i in received:
                p = self.update(p)
        return self.predict(p)

    def rate(self, pred: float) -> float:
        """The `decode_rate` value, (1/2) log2(Var(u_t | .) / sigma_z2)."""
        return 0.5 * math.log2((pred + self.s2) / self.s2)

    def mmse(self, pred: float) -> float:
        """The `decode_mmse` value, Var(s_t | ., u_t)."""
        return self.update(pred)


def _walk_multi_burst(filt: _Filter, B: int, L: int, t_max: int):
    """Yield (t, runs, P_pred) for every guard-respecting layout of erased runs
    and every horizon 1 <= t <= t_max that the layout fits.

    `runs` is a tuple of (start, length).  For each t the layouts come in the
    order of `enumerate_multi_burst(t, B, L)`: the tree of runs by (start,
    length), in preorder.  A node's filter states are computed once and
    shared by its horizons and its children.
    """
    predict, update = filt.predict, filt.update

    def visit(runs, end, p):
        states = []  # states[k]: the state at slot end + k, after u_end..u_{end+k-1}
        for t in range(end, t_max + 1):
            states.append(p)
            pred = predict(p)
            if t:
                yield t, runs, pred
            p = update(pred)
        for start in range(end + L if runs else 0, t_max):
            p = states[start - end]
            for length in range(1, min(B, t_max - start) + 1):
                p = predict(p)
                yield from visit(runs + ((start, length),), start + length, p)

    yield from visit((), 0, 0.0)


def _received(t: int, runs) -> list[int]:
    gone = {i for start, length in runs for i in range(start, start + length)}
    return [i for i in range(t) if i not in gone]


def _multi_instance(side: str, t: int, runs) -> dict:
    return {"side": side, "t": t, "received": _received(t, runs)}


_PROP_LEN_OFFSET = _fields("property", "side", "t", "len", "offset")
_PROP_LEN = _fields("property", "side", "t", "len")
_PROP = _fields("property", "side", "t")
_MONOTONE = _fields("side", "t")
_REPLACE = _fields("kind", "t", "len", "offset")
_DOMINATE = _fields("kind", "A", "B")


def verify_single_burst_worst_case(
    rho: float, sigma_z2: float, B: int, t_max: int
) -> VerificationReport:
    """Exhaustively check, for all t <= t_max, that the hardest single burst is
    the longest one ending right before the decoding time, and that its rate
    and distortion requirements grow with t.

    Four families of inequalities, for both the rate and distortion sides:
      1. moving the burst closer to t never helps (offset 0 is worst);
      2. longer bursts are worse (length B is worst);
      3. requirements at offset 0 / length B are non-decreasing in t >= B;
      4. everything before time B is dominated by decoding at t = B.
    Degenerate identity instances (no erased packet) are skipped so the
    minimum slack reflects strict comparisons.
    """
    if t_max > DENSE_T_CAP:
        raise ValidationError(f"t_max capped at {DENSE_T_CAP}")
    if t_max < B + 1:
        raise ValidationError("t_max must be at least B + 1")
    if B < 0:
        raise ValidationError("burst length B must be nonnegative")
    filt = _Filter(rho, sigma_z2)
    _require_rate_noise(sigma_z2)

    def pair(t: int, burst_len: int, offset: int) -> tuple[float, float]:
        pred = filt.predicted(t, ErasurePattern.single_burst(t, burst_len, offset).received)
        return filt.rate(pred), filt.mmse(pred)

    track = _SlackTracker()
    notes: list[str] = []

    for t in range(t_max + 1):
        for bl in range(1, min(B, t) + 1):
            base = pair(t, bl, 0)
            for k in range(1, t - bl + 1):
                moved = pair(t, bl, k)
                track.add(base[0] - moved[0], _PROP_LEN_OFFSET, 1, "rate", t, bl, k)
                track.add(base[1] - moved[1], _PROP_LEN_OFFSET, 1, "mmse", t, bl, k)
    for t in range(B, t_max + 1):
        full = pair(t, B, 0)
        for bl in range(0, B):
            short = pair(t, bl, 0)
            track.add(full[0] - short[0], _PROP_LEN, 2, "rate", t, bl)
            track.add(full[1] - short[1], _PROP_LEN, 2, "mmse", t, bl)
    for t in range(B, t_max):
        now, nxt = pair(t, B, 0), pair(t + 1, B, 0)
        track.add(nxt[0] - now[0], _PROP, 3, "rate", t)
        track.add(nxt[1] - now[1], _PROP, 3, "mmse", t)

    anchor = pair(B, B, 0)
    prop4 = 0
    for t in range(0, min(B, t_max + 1)):
        for bl in range(1, t + 1):
            for k in range(0, t - bl + 1):
                small = pair(t, bl, k)
                track.add(anchor[0] - small[0], _PROP_LEN_OFFSET, 4, "rate", t, bl, k)
                track.add(anchor[1] - small[1], _PROP_LEN_OFFSET, 4, "mmse", t, bl, k)
                prop4 += 2
    if prop4 == 0:
        notes.append("property 4 has no nontrivial instances (t < B forces an empty burst when B <= 1)")

    # before time B the trend in t is reported but not asserted
    below_steady = [
        {"t": t, "rate": pair(t, min(B, t), 0)[0], "mmse": pair(t, min(B, t), 0)[1]}
        for t in range(0, min(B, t_max + 1))
    ]
    return track.report(
        "single-burst-worst-case",
        notes=notes,
        details={
            "rho": rho,
            "sigma_z2": sigma_z2,
            "B": B,
            "t_max": t_max,
            "property4_instances": prop4,
            "below_steady": below_steady,
        },
    )


def verify_multi_burst_worst_case(
    rho: float, sigma_z2: float, B: int, L: int, t_max: int
) -> VerificationReport:
    """Enumerate every guard-respecting erasure pattern up to t_max and check
    that the pattern packing maximal bursts toward the decoding time maximizes
    both the rate and the distortion requirement, and that those worst-case
    requirements are non-decreasing in t.

    Ties go to the first pattern in `enumerate_multi_burst` order, so an
    argmax can differ from `star_received` only by a pattern whose values
    equal the star's.  This happens at long horizons, e.g. from t = 21 on at
    rho = 0.9, sigma_z2 = 0.1, B = 2, L = 3: extra erasures of the oldest
    slots change the variance by less than double precision resolves, and
    such a pattern is counted with slack exactly 0.0, not as a violation.

    Patterns are streamed, so memory stays flat, but time grows with their
    count: up to 2^t patterns at horizon t when B >= t_max and L = 1.
    """
    if t_max > ENUM_T_CAP:
        raise ValidationError(f"t_max capped at {ENUM_T_CAP}")
    if B < 0 or L < 1:
        raise ValidationError("need burst length B >= 0 and guard L >= 1")
    filt = _Filter(rho, sigma_z2)
    _require_rate_noise(sigma_z2)

    horizons = range(1, t_max + 1)
    n = t_max + 1
    stars = [None] + [worst_multi_burst(t, B, L) for t in horizons]
    star_runs = [None] + [tuple(_runs(star.erased)) for star in stars[1:]]
    star_rate, star_mmse = [0.0] * n, [0.0] * n
    for t in horizons:
        pred = filt.predicted(t, stars[t].received)
        star_rate[t], star_mmse[t] = filt.rate(pred), filt.mmse(pred)

    # per-horizon accumulators, filled in one walk over all horizons
    accs = [_SlackTracker() for _ in range(n)]
    counts = [0] * n
    best_rate, best_rate_runs = [-np.inf] * n, [None] * n
    best_mmse, best_mmse_runs = [-np.inf] * n, [None] * n
    for t, runs, pred in _walk_multi_burst(filt, B, L, t_max):
        r, g = filt.rate(pred), filt.mmse(pred)
        counts[t] += 1
        if r > best_rate[t]:
            best_rate[t], best_rate_runs[t] = r, runs
        if g > best_mmse[t]:
            best_mmse[t], best_mmse_runs[t] = g, runs
        if runs != star_runs[t]:
            acc = accs[t]
            acc.add(star_rate[t] - r, _multi_instance, "rate", t, runs)
            acc.add(star_mmse[t] - g, _multi_instance, "mmse", t, runs)

    track = _SlackTracker()
    details: dict = {"rho": rho, "sigma_z2": sigma_z2, "B": B, "L": L, "t_max": t_max}
    for t in horizons:
        track.merge(accs[t])
        if t > 1:
            track.add(star_rate[t] - star_rate[t - 1], _MONOTONE, "rate-monotone", t)
            track.add(star_mmse[t] - star_mmse[t - 1], _MONOTONE, "mmse-monotone", t)
        details[f"t{t}"] = {
            "patterns": counts[t],
            "star_received": list(stars[t].received),
            "argmax_rate_received": _received(t, best_rate_runs[t]),
            "argmax_mmse_received": _received(t, best_mmse_runs[t]),
        }

    return track.report("multi-burst-worst-case", details=details)


def verify_exchange_inequalities(
    rho: float,
    sigma_z2: float,
    t: int = 20,
    samples: int = 500,
    seed: int = 0,
    max_set_size: int = 6,
) -> VerificationReport:
    """Check the two observation-exchange facts behind the worst-case proofs,
    as variance inequalities.

    Replacement: swapping the oldest erased-adjacent observation for the
    newest one (keeping everything else) never hurts the estimate of either
    the current source or the current channel output, over a grid of
    (t, burst length, offset).

    Domination: for index sets A, B with a_i <= b_i entrywise, conditioning on
    the later set B is at least as informative; sampled over random dominating
    pairs with |A| = |B| <= max_set_size.
    """
    if t > DENSE_T_CAP:
        raise ValidationError(f"t capped at {DENSE_T_CAP}")
    if t < max_set_size + 2:
        raise ValidationError("horizon too small for the requested set size")
    if samples < 0:
        raise ValidationError("samples must be nonnegative")
    filt = _Filter(rho, sigma_z2)
    s2 = filt.s2
    track = _SlackTracker()
    rng = np.random.default_rng(seed)

    for tt in sorted({max(4, t // 3), max(6, (2 * t) // 3), t}):
        for bl in range(1, min(3, tt) + 1):
            for k in range(1, tt - bl + 1):
                # old: the burst erases [tt-bl-k, tt-k); new: it moves one slot later
                old = filt.predicted(tt, ErasurePattern.single_burst(tt, bl, k).received)
                new = filt.predicted(tt, ErasurePattern.single_burst(tt, bl, k - 1).received)
                track.add((new + s2) - (old + s2), _REPLACE, "replace-u", tt, bl, k)
                track.add(filt.mmse(new) - filt.mmse(old), _REPLACE, "replace-s", tt, bl, k)

    for _ in range(samples):
        r = int(rng.integers(1, max_set_size + 1))
        later = np.sort(rng.choice(np.arange(1, t), size=r, replace=False))
        earlier = []
        prev = 0
        for i in range(r):
            lo = prev + 1
            hi = int(later[i])
            pick = int(rng.integers(lo, hi + 1))
            earlier.append(pick)
            prev = pick
        later = [int(x) for x in later]
        v_a = filt.predicted(t, earlier)
        v_b = filt.predicted(t, later)
        track.add(v_a - v_b, _DOMINATE, "dominate-s", earlier, later)
        track.add((v_a + s2) - (v_b + s2), _DOMINATE, "dominate-u", earlier, later)

    return track.report(
        "exchange-inequalities",
        details={"rho": rho, "sigma_z2": sigma_z2, "t": t, "samples": samples, "seed": seed},
    )
