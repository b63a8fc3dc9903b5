"""Exact Gaussian conditioning over arbitrary erasure patterns.

Two engines answer variance queries about the Gauss-Markov source observed
through the additive test channel, u_i = s_i + z_i.

The dense API (`GaussianSystem`, `conditional_variance`, `decode_rate`,
`decode_mmse`) builds the joint covariance of (s_{-1}, s_0..s_t, u_0..u_t)
and answers any query by Schur complement, at O(t^3) per query.  It is the
general public interface and the independent cross-check in the tests; it
imports numpy when called, not when the module loads.

The worst-case-erasure checks run on a scalar Kalman filter instead.  The
state is scalar and s_{-1} is known, so conditioning on any set of received
u_i is a Riccati recursion that skips the erased slots (the Kalman filter
with intermittent observations, Sinopoli et al., IEEE TAC 2004).  Every
claimed inequality about which erasure pattern is hardest is restated as a
variance inequality (for jointly Gaussian variables, differential-entropy
ordering is variance ordering) and checked over every pattern, without
listing the patterns:

* The exchange check reads its burst layouts off the shared states of
  burst-free prefixes.  Its domination pairs are drawn from the seeded
  Mersenne Twister's `getrandbits` alone, the same pairs on CPython 3.10
  to 3.13, and each set's value steps from a predict-only prefix that the
  sets share through the runs between its received slots.
* The multi-burst check is a dynamic program, and the single-burst check
  is the same program with a guard as long as the horizon, which leaves
  room for one burst only.  The filter's predict step
  a p + q and its update p s2 / (p + s2) are both non-decreasing in p, so
  of two prefixes that end in the same state of the burst-constraint
  automaton, the larger P stays at least as large under every
  continuation.  Keeping the top two P per automaton state, with the path
  that reached each, gives per horizon the largest P over all patterns and
  the largest P of any other pattern, which is all the check needs; a
  counting pass gives the exact number of patterns.  Guard states that can
  no longer reach a full guard before the last horizon are merged into
  one, so the cost is O(t (B + min(L, t - L + 1))) filter steps for all
  horizons up to t, O(t B) for the single-burst check, where the patterns
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

Reports are plain records serializable to JSON: pass/fail, instance
counts, the minimum slack observed, and the worst instance.

Every check runs on the standard library alone, so `streamrate oracle`
starts without loading numpy; only the dense API imports it.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter

from .errors import (
    NumericalError, Record, ValidationError, check_int, check_open_unit, check_seed, check_variance,
    json_text, source_constants,
)

RIDGE = 1e-12
SLACK_TOL = 1e-12
EXCHANGE_T_CAP = 30  # exchange check horizon
ENUM_T_CAP = 500  # worst-case check horizon: the report alone grows as t^2
LIST_T_CAP = 22  # enumerate_multi_burst, which returns every pattern as a list
MAX_SET_SIZE = 6  # largest conditioning set the exchange check samples
SAMPLES_CAP = 10**4  # exchange samples, about 5.5 us each at t = 30 (2 vCPU Xeon, CPython 3.11)

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


class ErasurePattern(Record):
    """Non-erased packet indices up to (not including) the decoding time t.

    Index t itself is never erased: decoding happens when the time-t packet
    arrives.
    """

    __slots__ = _fields = ("t", "received")

    def __init__(self, t: int, received: tuple[int, ...]):
        t = check_int("decoding time t", t)
        Record.__init__(self, t, tuple(sorted({check_int("received index", i, 0, t - 1) for i in received})))

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
        t = check_int("decoding time t", t)
        burst_len, offset = check_int("burst length", burst_len), check_int("offset", offset)
        if offset > t - burst_len:
            raise ValidationError(f"burst (len={burst_len}, offset={offset}) does not fit before t={t}")
        gone = set(range(t - burst_len - offset, t - offset))
        return cls(t=t, received=tuple(i for i in range(t) if i not in gone))

    @classmethod
    def multi_burst(cls, t: int, received: tuple[int, ...], B: int, L: int) -> "ErasurePattern":
        """Validate that erased runs have length <= B and consecutive runs are
        separated by at least L intact slots."""
        B, L = check_int("B", B), check_int("L", L, 1)
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
    t, B, L = check_int("t", t, 0, LIST_T_CAP), check_int("B", B), check_int("L", L, 1)
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


class GaussianSystem(Record):
    """Joint covariance of (s_{-1}, s_0..s_t, u_0..u_t) with u_i = s_i + z_i.

    Cov(s_i, s_j) = rho^|i-j|, Cov(u_i, u_j) adds sigma_z2 on the diagonal,
    and Cov(s_i, u_j) = rho^|i-j|.
    """

    _fields = ("rho", "sigma_z2", "t")
    __slots__ = _fields + ("_cov",)

    def __init__(self, rho: float, sigma_z2: float, t: int):
        Record.__init__(self, rho, sigma_z2, t)
        self.__post_init__()  # looked up on the class, so a wrapper installed there sees every system

    def __post_init__(self):
        rho = check_open_unit("rho", self.rho)
        sigma_z2 = check_variance("sigma_z2", self.sigma_z2, zero_ok=True)
        Record.__init__(self, rho, sigma_z2, check_int("horizon t", self.t))
        import numpy as np

        times = np.concatenate([np.arange(-1, self.t + 1), np.arange(0, self.t + 1)])
        cov = self.rho ** np.abs(times[:, None] - times[None, :])
        u_diag = np.arange(self.t + 2, 2 * self.t + 3)
        cov[u_diag, u_diag] += self.sigma_z2
        cov.setflags(write=False)
        object.__setattr__(self, "_cov", cov)

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
            return self.t + 2 + i
        raise ValidationError(f"unknown variable kind {name!r}")

    def min_eigenvalue(self) -> float:
        import numpy as np

        return float(np.linalg.eigvalsh(self._cov)[0])


def conditional_variance(sys: GaussianSystem, target: VarId, given) -> float:
    """Var(target | given) by Schur complement with a Cholesky solve.

    Retries once with a small diagonal ridge when the conditioning block is
    numerically singular (test channels with near-zero noise), and raises
    NumericalError with a condition-number diagnostic if that also fails.
    """
    import numpy as np

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
    _check_rate_noise(sys.sigma_z2)
    given = [("u", i) for i in pattern.received] + [("s", -1)]
    var = conditional_variance(sys, ("u", sys.t), given)
    return 0.5 * math.log2(var / sys.sigma_z2)


def decode_mmse(sys: GaussianSystem, pattern: ErasurePattern) -> float:
    """Reconstruction error Var(s_t | u_received, u_t, s_{-1})."""
    if pattern.t != sys.t:
        raise ValidationError("pattern and system horizons disagree")
    given = [("u", i) for i in pattern.received] + [("u", sys.t), ("s", -1)]
    return conditional_variance(sys, ("s", sys.t), given)


class VerificationReport(Record):
    """Outcome of one exhaustive inequality check.  Its list and dict fields
    make it unhashable."""

    __slots__ = _fields = (
        "name", "passed", "checks", "violations", "min_slack", "worst", "notes", "details",
    )

    def __init__(self, name: str, passed: bool, checks: int, violations: int, min_slack: float,
                 worst: dict | None, notes: list[str] | None = None, details: dict | None = None):
        Record.__init__(self, name, passed, checks, violations, min_slack, worst,
                        [] if notes is None else notes, {} if details is None else details)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def to_json(self) -> str:
        """The report as the CLI writes it: `json.dumps(self.to_dict(), indent=2)`."""
        return json_text(self.to_dict())


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
    P <- a P + q with the `source_constants` a = rho^2 and q = 1 - rho^2, and
    a received u_i then updates, P <- P sigma_z2 / (P + sigma_z2); an erased
    slot only predicts.  With P_pred the prediction at the decoding time t:

        Var(s_t | .)      = P_pred
        Var(u_t | .)      = P_pred + sigma_z2
        Var(s_t | ., u_t) = P_pred sigma_z2 / (P_pred + sigma_z2)

    Every path applies the same two steps in slot order, so a pattern gets
    bit-identical values however its prefix was reached.
    """

    def __init__(self, rho: float, sigma_z2: float):
        self.rho = check_open_unit("rho", rho)
        self.s2 = check_variance("sigma_z2", sigma_z2, zero_ok=True)
        self.a, self.q, _, _ = source_constants(self.rho, 2)
        self._free = [0.0]  # _free[i]: the state after i slots that only predict

    def predict(self, p: float) -> float:
        return self.a * p + self.q

    def update(self, p: float) -> float:
        return p * self.s2 / (p + self.s2)

    def predicted(self, t: int, received) -> float:
        """P_pred at t given s_{-1} and u_i for i in received, distinct,
        increasing and all below t.

        The slots before the first received one only predict from P = 0, so
        their state is read from a prefix that grows with the filter; then
        each received slot updates and the erased run after it predicts.
        """
        a, q, s2 = self.a, self.q, self.s2
        received = iter(received)
        last = next(received, t)
        free = self._free
        while len(free) <= last + 1:
            free.append(a * free[-1] + q)
        p = free[last + 1]
        if last < t:
            p = p * s2 / (p + s2)
            for i in received:
                for _ in range(i - last):
                    p = a * p + q
                p = p * s2 / (p + s2)
                last = i
            for _ in range(t - last):
                p = a * p + q
        return p

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
    Each state therefore keeps at most two entries, and a count of its
    paths.  A guard state g < L whose paths cannot reach g = L by slot
    t_max - 1 only ever receives, so the DP merges all such states into one,
    `dead`; a run closed at slot i is dead from birth when i > t_max - L,
    which leaves the single-burst check (L = t_max) O(B) entries per slot.
    `guard` holds the other entries (P, path, g) with g < L, oldest first,
    `dead` and `full` (the state g = L) entries (P, path, 0), and `runs`
    entries (P, path, r), where `path` links the closed runs as (start,
    length, earlier path).  Each horizon lists them guard, dead, full, runs:
    the order of the DP with one state per guard length, so every tie-break
    is that DP's.
    `patterns` is the exact number of patterns of horizon t, and `top` holds
    the two largest P over all of them, largest first, as (P, path, length
    of the open run) for `_path_received`.
    """
    B, L = min(B, t_max), max(1, min(L, t_max))  # longer runs and guards do not fit
    a, q, s2 = filt.a, filt.q, filt.s2
    guard, dead, full, runs = [], [], [(0.0, None, 0)], []
    # paths into the full guard and into each run length r (runs_n[r - 1]), and
    # born_n[j] into the guard states of the runs closed at slot j <= t_max - L
    full_n, runs_n, born_n, patterns = 1, [0] * B, [], 1
    for i in range(t_max):
        full = [(a * p + q, path, 0) for p, path, _ in full]
        runs = [(a * p + q, path, r) for p, path, r in runs]
        # slot i received: the guard grows, or the run of length r over [i - r, i) closes
        closed = _top_two([(p * s2 / (p + s2), (i - r, r, path), 0) for p, path, r in runs])
        closed_n = sum(runs_n)
        dead = [((p := a * x + q) * s2 / (p + s2), path, 0) for x, path, _ in dead]
        guard = [((p := a * x + q) * s2 / (p + s2), path, g + 1) for x, path, g in guard]
        grown = [(p * s2 / (p + s2), path, 0) for p, path, _ in full]
        grown_n = full_n
        if L == 1:
            grown += closed
            grown_n += closed_n
        else:
            if i >= L - 1:  # the guard of the runs closed at slot i - L + 1 is full
                grown = [(p, path, 0) for p, path, g in guard if g == L] + grown
                guard = [e for e in guard if e[2] < L]
                grown_n += born_n[i - L + 1]
            if i <= t_max - L:
                guard += [(p, path, 1) for p, path, _ in closed]
                born_n.append(closed_n)
            else:
                dead = _top_two(dead + closed)
        # slot i erased: a run starts after a full guard, or grows
        runs = [(p, path, 1) for p, path, _ in full if B] + [(p, path, r + 1) for p, path, r in runs if r < B]
        runs_n = ([full_n] + runs_n)[:B]
        full, full_n = _top_two(grown), grown_n
        patterns += sum(runs_n)  # each pattern goes on received, and erased where a run may start or grow
        ends = [(p, path, 0) for p, path, _ in guard] + dead + full + runs
        yield i + 1, patterns, sorted(ends, key=_VALUE, reverse=True)[:2]


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


def _check_rate_noise(sigma_z2: float) -> float:
    """The rate side divides by sigma_z2, and Var(u_t | .) is at most
    1 + sigma_z2: past where that ratio overflows, rates read inf and their
    slacks NaN, a false violation.  Returns sigma_z2 as a float."""
    sigma_z2 = check_variance("sigma_z2", sigma_z2)
    if not math.isfinite((1.0 + sigma_z2) / sigma_z2):
        raise NumericalError(
            f"sigma_z2 = {sigma_z2!r} is too small: the rate (1/2) log2(Var(u_t) / sigma_z2) overflows"
        )
    return sigma_z2


_MONOTONE = _fields("side", "t")
_REPLACE = _fields("kind", "t", "len", "offset")
_DOMINATE = _fields("kind", "A", "B")


def verify_single_burst_worst_case(
    rho: float, sigma_z2: float, B: int, t_max: int
) -> VerificationReport:
    """Check, over every single burst of length <= B at every horizon
    t <= t_max, that the longest burst ending right before the decoding time
    maximizes both the rate and the distortion requirement, and that those
    worst-case requirements are non-decreasing in t, for B < t_max <= ENUM_T_CAP.

    This is the multi-burst check with the guard L = t_max, which leaves
    room for one burst only, and its report without `L`.  That offset 0 is
    also the worst among the bursts of each shorter length is a property
    the tests check, not this report."""
    B = check_int("B", B, 0, ENUM_T_CAP - 1)  # first, so that no range below is empty
    t_max = check_int("t_max", t_max, B + 1, ENUM_T_CAP)
    keys = {"B": B, "t_max": t_max}
    return _worst_case_report("single-burst-worst-case", rho, sigma_z2, B, t_max, t_max, keys)


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

    Cost: O(t_max (B + min(L, t_max - L + 1))) filter steps, with B and L
    clipped at t_max, for the DP, so O(t_max B) at the single-burst guard
    L = t_max, and at most O(t_max (B + L)) for the stars, O(t_max) at
    L = t_max; the report's received lists hold O(t_max^2) integers, which
    is what ENUM_T_CAP bounds.  At t_max = 500, B = 3 the single-burst DP
    takes about 3 ms and the whole report about 12 ms; writing its 4.8 MB
    of JSON takes about 40 ms more (2 vCPU Xeon, CPython 3.11).
    """
    t_max = check_int("t_max", t_max, 1, ENUM_T_CAP)
    B, L = check_int("B", B), check_int("L", L, 1)
    keys = {"B": B, "L": L, "t_max": t_max}
    return _worst_case_report("multi-burst-worst-case", rho, sigma_z2, B, L, t_max, keys)


def _worst_case_report(name: str, rho: float, sigma_z2: float, B: int, L: int, t_max: int, keys: dict):
    """The DP's report; its `details` hold rho, sigma_z2, then `keys`, then
    one block per horizon.  Both public checks call this rather than each
    other, so a wrapper on either sees only its own calls."""
    filt = _Filter(rho, _check_rate_noise(sigma_z2))
    details = {"rho": filt.rho, "sigma_z2": filt.s2, **keys}

    stars_received, star_preds = _stars(filt, B, L, t_max)
    a, q, s2 = filt.a, filt.q, filt.s2

    def sides(pred: float) -> tuple[float, float]:
        """`filt.rate(pred)` and `filt.mmse(pred)`, by the same float steps."""
        return 0.5 * math.log2((pred + s2) / s2), pred * s2 / (pred + s2)

    track = _SlackTracker()
    prev = None
    for t, patterns, top in _multi_burst_tops(filt, B, L, t_max):
        star_received, star_pred = stars_received[t], star_preds[t]
        star = sides(star_pred)
        pred = a * top[0][0] + q
        best = other = sides(pred)
        if patterns > 1:
            if pred == star_pred and _path_received(t, top[0]) == star_received:
                other = sides(a * top[1][0] + q)
            track.add(star[0] - other[0], _other_instance, "rate", t, top, star_received, checks=patterns - 1)
            track.add(star[1] - other[1], _other_instance, "mmse", t, top, star_received, checks=patterns - 1)
        if prev is not None:
            track.add(star[0] - prev[0], _MONOTONE, "rate-monotone", t)
            track.add(star[1] - prev[1], _MONOTONE, "mmse-monotone", t)
        prev = star
        details[f"t{t}"] = {
            "patterns": patterns,
            "star_received": star_received,
            "argmax_rate_received": star_received if star[0] >= best[0] else _path_received(t, top[0]),
            "argmax_mmse_received": star_received if star[1] >= best[1] else _path_received(t, top[0]),
        }

    notes = []
    if track.violations:
        notes.append(
            "violations count failing (horizon, side) checks, each standing for every "
            "pattern compared with the star there, and failing monotone checks; not patterns"
        )
    return track.report(name, notes=notes, details=details)


def _dominating_pairs(getrandbits, t: int, samples: int):
    """Yield `samples` dominating pairs (earlier, later) of increasing index
    lists in [1, t), of one size r <= MAX_SET_SIZE, with earlier[i] <= later[i].

    The pairs are those that, for `rng = random.Random(seed)`, the calls
    r = rng.randint(1, MAX_SET_SIZE), later = sorted(rng.sample(range(1, t), r))
    and, per later index b, rng.randint(prev + 1, b) give on CPython 3.10 to
    3.13, drawn here from `rng.getrandbits` alone, without the calls.  Each
    draw below m is CPython's `_randbelow(m)`, written out: getrandbits of
    m.bit_length() bits until the draw is below m.  `sample` takes r from a
    pool that it shrinks while the population is no larger than its set-size
    threshold, and otherwise draws indices into the population until r are
    distinct.
    """
    n = t - 1  # the population size
    bits = [w.bit_length() for w in range(max(n, MAX_SET_SIZE) + 1)]
    # `sample`'s threshold: below it a list of n costs less than a set of r
    pooled = [n <= 21 + (4 ** math.ceil(math.log(3 * r, 4)) if r > 5 else 0) for r in range(MAX_SET_SIZE + 1)]
    k_size, k_n = bits[MAX_SET_SIZE], bits[n]
    population = list(range(1, n + 1))

    for _ in range(samples):
        j = getrandbits(k_size)
        while j >= MAX_SET_SIZE:
            j = getrandbits(k_size)
        r = j + 1
        if pooled[r]:
            pool = population[:]
            later = []
            for m in range(n, n - r, -1):
                k = bits[m]
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                later.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            chosen = set()
            for _ in range(r):
                j = getrandbits(k_n)
                while j >= n or j in chosen:  # a draw below n, again while it repeats
                    j = getrandbits(k_n)
                chosen.add(j)
            later = [j + 1 for j in chosen]
        later.sort()
        earlier, prev = [], 0
        for b in later:
            m = b - prev
            k = bits[m]
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            prev += j + 1
            earlier.append(prev)
        yield earlier, later


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
    pairs with |A| = |B| <= MAX_SET_SIZE.  The pairs are a function of the
    seed through the Mersenne Twister `random.Random(seed).getrandbits` alone
    (see `_dominating_pairs`), so a seed draws the same pairs on CPython 3.10
    to 3.13.
    """
    t = check_int("t", t, MAX_SET_SIZE + 2, EXCHANGE_T_CAP)
    samples = check_int("samples", samples, 0, SAMPLES_CAP)
    seed = check_seed(seed)
    filt = _Filter(rho, sigma_z2)
    s2 = filt.s2
    track = _SlackTracker()

    horizons = sorted({max(4, t // 3), max(6, (2 * t) // 3), t})
    preds = _burst_preds(filt, horizons[-1], 3)
    add = track.add
    for tt in horizons:
        for bl in range(1, min(3, tt) + 1):
            row = preds[bl][tt]
            for k in range(1, tt - bl + 1):
                # old: the burst erases [tt-bl-k, tt-k); new: it moves one slot later
                old, new = row[k], row[k - 1]
                add((new + s2) - (old + s2), _REPLACE, "replace-u", tt, bl, k)
                add(new * s2 / (new + s2) - old * s2 / (old + s2), _REPLACE, "replace-s", tt, bl, k)  # the MMSEs

    predicted = filt.predicted
    for earlier, later in _dominating_pairs(random.Random(seed).getrandbits, t, samples):
        v_a = predicted(t, earlier)
        v_b = predicted(t, later)
        add(v_a - v_b, _DOMINATE, "dominate-s", earlier, later)
        add((v_a + s2) - (v_b + s2), _DOMINATE, "dominate-u", earlier, later)

    return track.report(
        "exchange-inequalities",
        details={"rho": filt.rho, "sigma_z2": s2, "t": t, "samples": samples, "seed": seed},
    )
