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
with intermittent observations, Sinopoli et al., IEEE TAC 2004).  Every
claimed inequality about which erasure pattern is hardest is restated as a
variance inequality (for jointly Gaussian variables, differential-entropy
ordering is variance ordering) and checked over every pattern, without
listing the patterns:

* The single-burst and exchange checks read every burst layout from the
  shared states of burst-free prefixes, O(t^2 B) filter steps in all.
* The multi-burst check is a dynamic program.  The filter's predict step
  a p + q and its update p s2 / (p + s2) are both non-decreasing in p, so
  of two prefixes that end in the same state of the burst-constraint
  automaton, the larger P stays at least as large under every
  continuation.  Keeping the top two P per automaton state, with the path
  that reached each, gives per horizon the largest P over all patterns and
  the largest P of any other pattern, which is all the check needs; a
  counting pass gives the exact number of patterns.  The cost is
  O(t (B + L)) filter steps for all horizons up to t, where the patterns
  number up to 2^t.  Ties go to the star, and a failing report counts
  failing (horizon, side) checks, not patterns (see
  `verify_multi_burst_worst_case`).

Every value is produced by the same floating-point steps in the same slot
order as a filter run over the whole pattern, so it is bit-identical to it.
Rounding can still break the monotonicity where nearly equal values meet,
and the DP then keeps a pattern whose value is an ulp below the largest.
A fuzz of the DP against full enumeration (t <= 15, B <= 6, L <= 5) saw
this in 7 of about 860,000 random configurations, by one ulp each time:
far inside the 1e-12 slack tolerance.

Reports are plain dataclasses serializable to JSON: pass/fail, instance
counts, the minimum slack observed, and the worst instance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import NumericalError, ValidationError, check_int, check_open_unit, check_seed, check_variance

RIDGE = 1e-12
SLACK_TOL = 1e-12
DENSE_T_CAP = 30  # single-burst and exchange horizons
ENUM_T_CAP = 500  # multi-burst check horizon: the report alone grows as t^2
LIST_T_CAP = 22  # enumerate_multi_burst, which returns every pattern as a list
MAX_SET_SIZE = 6  # largest conditioning set the exchange check samples
SAMPLES_CAP = 10**4  # exchange samples, about 40 us each

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
        check_int("decoding time t", self.t)
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


def enumerate_multi_burst(t: int, B: int, L: int) -> list[ErasurePattern]:
    """Every feasible pattern of erased runs (length <= B, gaps >= L) in [0, t)."""
    check_int("t", t, 0, LIST_T_CAP)
    check_int("B", B)
    check_int("L", L, 1)
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
        check_open_unit("rho", self.rho)
        check_variance("sigma_z2", self.sigma_z2, zero_ok=True)
        check_int("horizon t", self.t)
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
    check_variance("decode_rate: sigma_z2", sys.sigma_z2)
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
        self.min_slack = math.inf
        self._worst = None

    def add(self, slack: float, describe, *args, checks: int = 1) -> None:
        """Record `checks` instances whose smallest slack is `slack`; they
        count as one violation when that slack fails."""
        self.checks += checks
        if not slack >= -SLACK_TOL:  # a NaN slack is a violation too
            self.violations += 1
        if slack < self.min_slack:
            self.min_slack = float(slack)
            self._worst = (describe, args)

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
        check_open_unit("rho", rho)
        check_variance("sigma_z2", sigma_z2, zero_ok=True)
        self.a = rho * rho
        self.q = 1.0 - self.a
        self.s2 = sigma_z2

    def predict(self, p: float) -> float:
        return self.a * p + self.q

    def update(self, p: float) -> float:
        return p * self.s2 / (p + self.s2)

    def predicted(self, t: int, received) -> float:
        """P_pred at t given s_{-1} and u_i for i in received, all below t."""
        a, q, s2 = self.a, self.q, self.s2
        received = set(received)
        p = 0.0
        for i in range(t):
            p = a * p + q
            if i in received:
                p = p * s2 / (p + s2)
        return a * p + q

    def rate(self, pred: float) -> float:
        """The `decode_rate` value, (1/2) log2(Var(u_t | .) / sigma_z2)."""
        return 0.5 * math.log2((pred + self.s2) / self.s2)

    def mmse(self, pred: float) -> float:
        """The `decode_mmse` value, Var(s_t | ., u_t)."""
        return self.update(pred)


def _burst_preds(filt: _Filter, t_max: int, B: int) -> list:
    """preds[bl][t][k]: P_pred at t after one burst erasing the bl slots that
    end k slots before t, i.e. [t - bl - k, t - k), for bl <= B and
    bl + k <= t <= t_max.  Only k = 0 is kept for bl = 0 (no erasure).

    Each value starts from the state of the burst-free prefix u_0..u_{s-1}
    at the burst start s, predicts through the burst and then steps over the
    received slots one at a time: the steps of `_Filter.predicted` in the
    same slot order, with no pattern built.
    """
    a, q, s2 = filt.a, filt.q, filt.s2
    prefix = [0.0]  # prefix[s]: the state after u_0..u_{s-1}, all received
    for _ in range(t_max):
        p = a * prefix[-1] + q
        prefix.append(p * s2 / (p + s2))
    preds = [[[a * p + q] for p in prefix]]
    for bl in range(1, B + 1):
        table = [[0.0] * (t - bl + 1) if t >= bl else [] for t in range(t_max + 1)]
        for start in range(t_max - bl + 1):
            p = prefix[start]
            for _ in range(bl):
                p = a * p + q
            for t in range(start + bl, t_max + 1):
                pred = a * p + q
                table[t][t - start - bl] = pred
                p = pred * s2 / (pred + s2)
        preds.append(table)
    return preds


def _stars(filt: _Filter, B: int, L: int, t_max: int) -> tuple[list, list]:
    """Received slots and P_pred of the star, the guard-respecting pattern
    that packs bursts of length B toward t, for every horizon 0 <= t <= t_max.

    The star at t >= B + L is the star at t - B - L followed by L received
    and B erased slots, so its received list and its filter state extend
    those of the earlier star, by the steps of `_Filter.predicted` in the
    same slot order.  Before that it receives [0, t - B) and erases the rest.
    """
    a, q, s2 = filt.a, filt.q, filt.s2
    period = B + L
    received: list[list[int]] = []
    states: list[float] = []  # the state after the star's slots below t
    clear = 0.0  # the state after u_0..u_{t-B-1}, all received, while t < B + L
    for t in range(t_max + 1):
        if t < period:
            if t > B:
                p = a * clear + q
                clear = p * s2 / (p + s2)
            rec, p, erased = list(range(max(0, t - B))), clear, min(B, t)
        else:
            rec, p, erased = received[t - period] + list(range(t - period, t - B)), states[t - period], B
            for _ in range(L):
                p = a * p + q
                p = p * s2 / (p + s2)
        for _ in range(erased):
            p = a * p + q
        received.append(rec)
        states.append(p)
    return received, [a * p + q for p in states]


def _multi_burst_tops(filt: _Filter, B: int, L: int, t_max: int):
    """Yield (t, patterns, top) for every horizon 1 <= t <= t_max, in one pass
    over the slots.

    A guard-respecting pattern is a path through the burst-constraint
    automaton: erased runs of length <= B, separated by at least L received
    slots, where the first run may start at slot 0.  Its states are "g
    received slots since the last run", capped at L, where a run may start
    and where every path begins, and "inside a run of length r".  Distinct
    patterns are distinct paths.

    Both filter steps are non-decreasing in P, so the two largest P among the
    paths into a state, after one more step, are the two largest among the
    paths out of it (up to the rounding noted in the module docstring).
    Each state therefore keeps at most two entries, and a
    count of its paths: `guard` holds entries (P, path, g) and `runs`
    entries (P, path, r), where `path` links the closed runs as (start,
    length, earlier path).  `patterns` is the exact number of patterns of
    horizon t, and `top` holds the two largest P over all of them, largest
    first, as (P, path, length of the open run) for `_path_received`.
    """
    B, L = min(B, t_max), max(1, min(L, t_max))  # longer runs and guards do not fit
    a, q, s2 = filt.a, filt.q, filt.s2
    guard, runs = [(0.0, None, L)], []
    guard_n, runs_n = [0] * L, [0] * B  # paths per state, by g - 1 and r - 1
    guard_n[-1] = 1
    for i in range(t_max):
        guard = [(a * p + q, path, g) for p, path, g in guard]
        runs = [(a * p + q, path, r) for p, path, r in runs]
        # slot i received: the guard grows, or the run of length r over [i - r, i) closes
        received = [(p * s2 / (p + s2), path, g + (g < L)) for p, path, g in guard]
        received += _top_two([(p * s2 / (p + s2), (i - r, r, path), 1) for p, path, r in runs])
        # slot i erased: a run starts after a full guard, or grows
        runs = [(p, path, 1) for p, path, g in guard if B and g == L] + [
            (p, path, r + 1) for p, path, r in runs if r < B
        ]
        guard = [e for e in received if e[2] < L] + _top_two([e for e in received if e[2] == L])
        full = guard_n[-1]
        guard_n = [sum(runs_n)] + guard_n[:-1]
        guard_n[-1] += full
        runs_n = ([full] + runs_n)[:B]
        ends = [(p, path, 0) for p, path, _ in guard] + runs
        yield i + 1, sum(guard_n) + sum(runs_n), sorted(ends, key=_VALUE, reverse=True)[:2]


_VALUE = itemgetter(0)


def _top_two(entries: list) -> list:
    return entries if len(entries) < 3 else sorted(entries, key=_VALUE, reverse=True)[:2]


def _path_received(t: int, entry) -> list[int]:
    """Received slots below t of the pattern behind a `_multi_burst_tops` entry."""
    _, path, open_run = entry
    erased = set(range(t - open_run, t))
    while path is not None:
        start, length, path = path
        erased.update(range(start, start + length))
    return [i for i in range(t) if i not in erased]


def _other_instance(side: str, t: int, top: list, star: list[int]) -> dict:
    """The pattern with the largest value other than the star at horizon t:
    the first top entry, or the second when the first is the star."""
    first = _path_received(t, top[0])
    return {"side": side, "t": t, "received": first if first != star else _path_received(t, top[1])}


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
    check_int("B", B)
    check_int("t_max", t_max, B + 1, DENSE_T_CAP)
    check_variance("sigma_z2", sigma_z2)
    filt = _Filter(rho, sigma_z2)

    preds = _burst_preds(filt, t_max, B)

    def pair(t: int, burst_len: int, offset: int) -> tuple[float, float]:
        pred = preds[burst_len][t][offset]
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
    """Check, over every guard-respecting erasure pattern at every horizon
    t <= t_max, that the pattern packing maximal bursts toward the decoding
    time (the star) maximizes both the rate and the distortion requirement,
    and that those worst-case requirements are non-decreasing in t.

    The patterns are not listed: `_multi_burst_tops` gives per horizon their
    exact count and the two largest filter values over all of them, so the
    largest value of any pattern other than the star is the top value, or
    the second one when the top is the star.  Each (horizon, side)
    check stands for the `patterns - 1` comparisons of the star with another
    pattern, which is what `checks` counts, and the slack reported is the
    smallest of them.  A failing (horizon, side) check counts as one
    violation, however many patterns beat the star there; a failing report
    says so in its notes.  `passed` does not depend on that count.

    Ties go to the star: an argmax differs from `star_received` only when
    another pattern's value is strictly larger.  Among other patterns of
    equal value the argmax is one the DP kept.  Extra erasures of the oldest
    slots can change the variance by less than double precision resolves,
    e.g. from t = 22 on at rho = 0.9, sigma_z2 = 0.1, B = 2, L = 3; such a
    pattern has slack exactly 0.0, which is not a violation.

    Cost: O(t_max (B + L)) filter steps, with B and L clipped at t_max, for
    the DP and as many for the stars; the report's received lists hold
    O(t_max^2) integers, which is what ENUM_T_CAP bounds.
    """
    check_int("t_max", t_max, 1, ENUM_T_CAP)
    check_int("B", B)
    check_int("L", L, 1)
    check_variance("sigma_z2", sigma_z2)
    filt = _Filter(rho, sigma_z2)

    stars_received, star_preds = _stars(filt, B, L, t_max)

    track = _SlackTracker()
    details: dict = {"rho": rho, "sigma_z2": sigma_z2, "B": B, "L": L, "t_max": t_max}
    prev = None
    for t, patterns, top in _multi_burst_tops(filt, B, L, t_max):
        star_received, star_pred = stars_received[t], star_preds[t]
        star = (filt.rate(star_pred), filt.mmse(star_pred))
        preds = [filt.predict(p) for p, _, _ in top]
        first_is_star = patterns > 1 and preds[0] == star_pred and _path_received(t, top[0]) == star_received
        argmax = []
        for side, value, star_value in (("rate", filt.rate, star[0]), ("mmse", filt.mmse, star[1])):
            best = [value(pred) for pred in preds]
            if patterns > 1:
                other = best[1] if first_is_star else best[0]
                track.add(
                    star_value - other, _other_instance, side, t, top, star_received, checks=patterns - 1
                )
            argmax.append(star_received if star_value >= best[0] else _path_received(t, top[0]))
        if prev is not None:
            track.add(star[0] - prev[0], _MONOTONE, "rate-monotone", t)
            track.add(star[1] - prev[1], _MONOTONE, "mmse-monotone", t)
        prev = star
        details[f"t{t}"] = {
            "patterns": patterns,
            "star_received": star_received,
            "argmax_rate_received": argmax[0],
            "argmax_mmse_received": argmax[1],
        }

    notes = []
    if track.violations:
        notes.append(
            "violations count failing (horizon, side) checks, each standing for every "
            "pattern compared with the star there, and failing monotone checks; not patterns"
        )
    return track.report("multi-burst-worst-case", notes=notes, details=details)


def verify_exchange_inequalities(
    rho: float,
    sigma_z2: float,
    t: int = 20,
    samples: int = 500,
    seed: int = 0,
) -> VerificationReport:
    """Check the two observation-exchange facts behind the worst-case proofs,
    as variance inequalities.

    Replacement: swapping the oldest erased-adjacent observation for the
    newest one (keeping everything else) never hurts the estimate of either
    the current source or the current channel output, over a grid of
    (t, burst length, offset).

    Domination: for index sets A, B with a_i <= b_i entrywise, conditioning on
    the later set B is at least as informative; sampled over random dominating
    pairs with |A| = |B| <= MAX_SET_SIZE.
    """
    check_int("t", t, MAX_SET_SIZE + 2, DENSE_T_CAP)
    check_int("samples", samples, 0, SAMPLES_CAP)
    check_seed(seed)
    filt = _Filter(rho, sigma_z2)
    s2 = filt.s2
    track = _SlackTracker()
    rng = np.random.default_rng(seed)

    horizons = sorted({max(4, t // 3), max(6, (2 * t) // 3), t})
    preds = _burst_preds(filt, horizons[-1], 3)
    for tt in horizons:
        for bl in range(1, min(3, tt) + 1):
            for k in range(1, tt - bl + 1):
                # old: the burst erases [tt-bl-k, tt-k); new: it moves one slot later
                old, new = preds[bl][tt][k], preds[bl][tt][k - 1]
                track.add((new + s2) - (old + s2), _REPLACE, "replace-u", tt, bl, k)
                track.add(filt.mmse(new) - filt.mmse(old), _REPLACE, "replace-s", tt, bl, k)

    for _ in range(samples):
        r = int(rng.integers(1, MAX_SET_SIZE + 1))
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
