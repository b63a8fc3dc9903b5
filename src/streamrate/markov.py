"""Exact information measures on stationary finite-alphabet Markov chains.

All entropies and mutual informations are computed from exact matrix powers
of the transition matrix (no sampling), in bits, with the 0*log(0) = 0
convention.  This module also builds the streaming rate bounds for lossless
recovery after a burst of up to B erased packets followed by a grace window
of W slots: both bounds equal the ideal predictive-coding rate H(s1|s0) plus
a recovery penalty that decays like 1/(W+1).

Chains are small (at most ALPHABET_CAP symbols), so everything runs on the
standard library: matrices are tuples of row tuples of floats.
"""

from __future__ import annotations

import math
from functools import reduce
from math import log2
from operator import and_, mul

from .errors import (
    ConvergenceError,
    NumericalError,
    Record,
    ValidationError,
    check_int,
    check_probability,
    check_real,
    check_variance,
    read_json_object,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
# lags, B and W: P^k built by repeated squaring drifts off row-stochastic by
# about 1e-17 k, so at 2**40 the lag entropies are wrong in the 5th digit
LAG_CAP = 10**6
# symbols: the costliest legal call is lossless_bounds with lags of many set
# bits, such as B = 983038, W = 786430 (73 matrix products: 20 squarings
# shared by the lags, then 53 to combine them); on a 2 vCPU Xeon sandbox with
# Python 3.11 it took 0.43-0.57 s at 48 symbols and 1.05-1.22 s at 64 (the
# work grows like n**3)
ALPHABET_CAP = 48

Matrix = tuple[tuple[float, ...], ...]


def _matrix(transition) -> Matrix:
    """transition as a tuple matrix, checked square and row-stochastic."""
    try:
        rows = list(transition)
        check_int("alphabet size", len(rows), 1, ALPHABET_CAP)
        P = tuple([tuple([check_real("each probability", p) for p in row]) for row in rows])
    except TypeError as exc:
        raise ValidationError(f"transition matrix must be a nested sequence of numbers: {exc}")
    n = len(P)
    for row in P:
        if len(row) != n:
            raise ValidationError(f"transition matrix must be square, got a row of {len(row)} in {n} rows")
        if not all(-ROW_SUM_TOL <= p <= 1.0 + ROW_SUM_TOL for p in row):  # NaN fails too
            raise ValidationError("transition probabilities must be finite and lie in [0, 1]")
        row_err = abs(math.fsum(row) - 1.0)
        if row_err > ROW_SUM_TOL:
            raise ValidationError(f"rows must sum to 1 within {ROW_SUM_TOL}, error {row_err:.3e}")
    return P


def _check_law(P: Matrix, pi: tuple[float, ...]) -> None:
    """pi is a finite probability vector with pi P = pi, all within STATIONARY_TOL."""
    if not all(map(math.isfinite, pi)):
        raise ValidationError("stationary vector must be finite")
    if abs(math.fsum(pi) - 1.0) > STATIONARY_TOL or min(pi) < -STATIONARY_TOL:
        raise ValidationError("stationary vector must be a probability vector")
    residual = max(abs(sum(map(mul, pi, col)) - p) for col, p in zip(zip(*P), pi))
    if residual > STATIONARY_TOL:
        raise ValidationError(f"stationary vector fails pi P = pi within {STATIONARY_TOL}")


def _closed_class(P: Matrix) -> list[int]:
    """The states of the one closed class of P's support graph (entries > 0).

    reach[i] is the bitmask of the states reachable from i, by Warshall's
    transitive closure.  Every state reaches some closed class, and a closed
    class reaches nothing outside itself, so the states that every state
    reaches form the closed class when there is one, and none are left when
    there are two or more.  With every entry > 0 each state reaches every
    other in one step, so all of them are the class and Warshall is skipped.
    """
    n = len(P)
    if min(map(min, P)) > 0.0:
        return list(range(n))
    reach = [sum(1 << j for j, p in enumerate(row) if p > 0.0) | 1 << i for i, row in enumerate(P)]
    for k in range(n):
        bit, through = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= through
    common = reduce(and_, reach)
    if not common:
        raise ConvergenceError("chain has no unique stationary law (more than one closed class)")
    return [i for i in range(n) if common >> i & 1]


def _gth(A: list[list[float]]) -> list[float]:
    """Stationary law, up to scale, of an irreducible nonnegative matrix with
    unit row sums, by GTH state reduction (Grassmann, Taksar & Heyman, Oper.
    Res. 33(5), 1985); A is overwritten.

    State k is censored out by spreading its entry into each lower state over
    k's exits to the states below it.  No step subtracts, so every entry keeps
    its relative accuracy however nearly reducible the chain is.  The
    back-substitution keeps the largest weight at 1, so a law spanning more
    than the float range underflows in its light states instead of
    overflowing in its heavy ones.
    """
    m = len(A)
    exits = [0.0] * m
    for k in range(m - 1, 0, -1):
        row = A[k]
        s = exits[k] = sum(row[:k])
        if s > 0.0:  # zero only when the exits underflowed
            spread = [v / s for v in row[:k]]
            for r in A[:k]:
                f = r[k]
                if f:
                    r[:k] = [a + f * w for a, w in zip(r, spread)]
    x = [1.0] * m
    for k in range(1, m):
        t = sum([x[i] * A[i][k] for i in range(k)])
        s = exits[k]
        if t > s:  # state k outweighs the states before it
            x[:k] = [v * (s / t) for v in x[:k]]
            x[k] = 1.0
        else:
            x[k] = t / s
    return x


def _solve(P: Matrix) -> tuple[float, ...]:
    """Stationary law of a checked matrix: GTH on its one closed class, and
    exactly 0 on the transient states."""
    states = _closed_class(P)
    # round-off negatives within ROW_SUM_TOL count as zeros, as in the support
    # graph; a conditional, not max(p, 0.0), which costs a call per entry
    x = _gth([[0.0 if (p := row[j]) < 0.0 else p for j in states] for row in [P[i] for i in states]])
    total = math.fsum(x)
    pi = [0.0] * len(P)
    for i, v in zip(states, x):
        pi[i] = v / total
    return tuple(pi)


def stationary_distribution(transition) -> tuple[float, ...]:
    """Stationary law of a row-stochastic matrix (any nested real sequence).

    The closed classes come from the support graph; with exactly one, its law
    is solved by GTH state reduction and the transient states get 0.
    Periodic chains are solved like any other.  Chains with no unique
    stationary law (more than one closed class) raise ConvergenceError.
    """
    return _solve(_matrix(transition))


class MarkovChain(Record):
    """Stationary first-order chain: row-stochastic transition + stationary law.

    The constructor takes any nested real sequences (lists, numpy arrays) and
    stores them as tuples of floats, so a chain is immutable.
    """

    __slots__ = _fields = ("alphabet_size", "transition", "stationary")

    def __init__(self, alphabet_size: int, transition: Matrix, stationary: tuple[float, ...]):
        alphabet_size = check_int("alphabet_size", alphabet_size, 1, ALPHABET_CAP)
        P = _matrix(transition)
        if alphabet_size != len(P):
            raise ValidationError(f"alphabet_size {alphabet_size} does not match matrix of size {len(P)}")
        try:
            pi = tuple([check_real("each probability", p) for p in stationary])
        except TypeError as exc:
            raise ValidationError(f"stationary vector must be a sequence of numbers: {exc}")
        if len(pi) != len(P):
            raise ValidationError("stationary vector has wrong shape")
        _check_law(P, pi)
        Record.__init__(self, alphabet_size, P, pi)

    @classmethod
    def from_transition(cls, transition) -> "MarkovChain":
        """The chain of a row-stochastic matrix, with its stationary law solved."""
        P = _matrix(transition)
        pi = _solve(P)
        _check_law(P, pi)
        # P is checked already, so skip the constructor's second pass over it
        chain = object.__new__(cls)
        Record.__init__(chain, len(P), P, pi)
        return chain

    @classmethod
    def from_json(cls, source) -> "MarkovChain":
        """Load {"alphabet_size": n, "transition": [[...], ...]} from a path,
        file object, or dict.  The stationary vector is always recomputed."""
        doc = read_json_object(source, "transition")
        chain = cls.from_transition(doc["transition"])
        if "alphabet_size" in doc:
            size = check_int("alphabet_size", doc["alphabet_size"])
            if size != chain.alphabet_size:
                raise ValidationError("alphabet_size field disagrees with transition matrix")
        return chain


def binary_symmetric_chain(q: float) -> MarkovChain:
    """Binary chain that flips state with probability q each step."""
    q = check_probability("flip probability q", q)
    return MarkovChain.from_transition([[1.0 - q, q], [q, 1.0 - q]])


class LosslessBounds(Record):
    """Upper/lower bounds on the lossless streaming rate, in bits per symbol.

    Both bounds dominate the predictive-coding rate H(s1|s0) and coincide when
    W = 0.
    """

    __slots__ = _fields = ("upper", "lower", "predictive_rate", "B", "W")

    def __init__(self, upper: float, lower: float, predictive_rate: float, B: int, W: int):
        tol = 1e-12
        if lower > upper + tol:
            raise NumericalError("lower bound exceeds upper bound")
        if upper < predictive_rate - tol or lower < predictive_rate - tol:
            raise NumericalError("bounds fell below the predictive-coding rate")
        if W == 0 and abs(upper - lower) > tol:
            raise NumericalError("bounds must coincide at W = 0")
        Record.__init__(self, upper, lower, predictive_rate, B, W)


def _entropy_bits(ps) -> float:
    """Shannon entropy in bits of the positive entries of ps: zeros, and the
    tiny negative entries the row-sum tolerance admits, are skipped, so
    0*log(0) = 0."""
    return -sum([p * log2(p) for p in ps if p > 0.0])


def _matmul(A: Matrix, B: Matrix) -> Matrix:
    cols = list(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in A])


def _powers(P: Matrix, lags) -> dict[int, Matrix]:
    """P^k for each lag k >= 1 from one squaring ladder P, P^2, P^4, ...
    shared by the lags: each power multiplies the rungs of k's set bits from
    the lowest, as numpy.linalg.matrix_power takes them, so it is bit for bit
    the power that repeated squaring for k alone would make."""
    ladder = [P]
    while 1 << len(ladder) <= max(lags):
        ladder.append(_matmul(ladder[-1], ladder[-1]))
    powers = {}
    for k in lags:
        result = None
        for i, rung in enumerate(ladder):
            if k >> i & 1:
                result = rung if result is None else _matmul(result, rung)
        powers[k] = result
    return powers


def _lag_entropies(chain: MarkovChain, lags) -> dict[int, float]:
    """H(s_k | s_0) in bits for each lag k: the pi-weighted row entropies of P^k."""
    return {
        k: sum([pa * _entropy_bits(row) for pa, row in zip(chain.stationary, Pk)])
        for k, Pk in _powers(chain.transition, lags).items()
    }


def conditional_entropy_lag(chain: MarkovChain, lag: int) -> float:
    """H(s_lag | s_0) in bits for the stationary chain; lag >= 1."""
    lag = check_int("lag", lag, 1, LAG_CAP)
    return _lag_entropies(chain, (lag,))[lag]


def window_conditional_entropy(chain: MarkovChain, B: int, W: int) -> float:
    """H(s_{B+1}, ..., s_{B+W+1} | s_0) in bits via the chain-rule decomposition
    H(s_{B+1}|s_0) + W * H(s_1|s_0)."""
    B, W = check_int("B", B, 0, LAG_CAP), check_int("W", W, 0, LAG_CAP)
    h = conditional_entropy_lag(chain, B + 1)
    if W:
        h += W * conditional_entropy_lag(chain, 1)
    return h


def lossless_bounds(chain: MarkovChain, B: int, W: int) -> LosslessBounds:
    """Rate bounds for lossless recovery after a burst of <= B erasures with a
    W-slot grace window.

    upper = H(s1|s0) + I(s_B; s_{B+1} | s_0) / (W+1)
    lower = H(s1|s0) + I(s_B; s_{B+W+1} | s_0) / (W+1)

    The conditional mutual informations reduce to differences of lag
    entropies through the Markov property: I(s_B; s_{B+j} | s_0) =
    H(s_{B+j}|s_0) - H(s_j|s_0).  At B = 0 both penalties vanish and the
    bounds equal the predictive rate.

    Each distinct lag entropy is computed once: lag 1 alone when B = 0,
    otherwise lags 1, B+1, W+1 and B+W+1, all powered from one squaring
    ladder.  Against rounding, both mutual informations are floored at 0 and
    the lower bound is capped at the upper one (the data-processing
    inequality orders them), so predictive <= lower <= upper holds exactly;
    a non-finite bound raises NumericalError.
    """
    B, W = check_int("B", B, 0, LAG_CAP), check_int("W", W, 0, LAG_CAP)
    lags = {1} if B == 0 else {1, B + 1, W + 1, B + W + 1}
    h = _lag_entropies(chain, lags)
    h1 = h[1]
    if B == 0:
        mi_upper = mi_lower = 0.0
    else:
        mi_upper = max(h[B + 1] - h1, 0.0)
        mi_lower = max(h[B + W + 1] - h[W + 1], 0.0)
    upper = h1 + mi_upper / (W + 1)
    lower = min(h1 + mi_lower / (W + 1), upper)
    if not all(map(math.isfinite, (h1, upper, lower))):
        raise NumericalError(f"lossless bounds are not finite: {h1!r}, {lower!r}, {upper!r}")
    return LosslessBounds(upper=upper, lower=lower, predictive_rate=h1, B=B, W=W)


def multiterminal_sum_rate(chain: MarkovChain) -> float:
    """Sum-rate floor H(s1|s0,s2) + H(s3|s0) of the two-decoder side-information
    problem; equals twice the (B=1, W=1) lower bound.

    H(s1|s0,s2) comes from the joint pmf of (s0, s1, s2) and is cross-checked
    against its Markov form 2 H(s1|s0) - H(s2|s0), from lags 1 and 2."""
    P = chain.transition
    h_joint = h_ends = 0.0  # H(s0, s1, s2) and H(s0, s2)
    for pa, row in zip(chain.stationary, P):
        triples = [[pa * pab * pbc for pbc in nxt] for pab, nxt in zip(row, P)]
        h_joint += sum(map(_entropy_bits, triples))
        h_ends += _entropy_bits(map(math.fsum, zip(*triples)))
    h_mid = h_joint - h_ends
    h1, h2, h3 = _lag_entropies(chain, (1, 2, 3)).values()
    if not abs(h_mid - (2.0 * h1 - h2)) <= 1e-10:
        raise NumericalError(
            f"H(s1|s0,s2) = {h_mid:.12f} from the joint pmf disagrees with "
            f"2 H(s1|s0) - H(s2|s0) = {2.0 * h1 - h2:.12f}"
        )
    return h_mid + h3


def is_symmetric(chain: MarkovChain, tol: float) -> bool:
    """True iff the chain is reversible: pi(a) P(a,b) == pi(b) P(b,a) entrywise,
    so adjacent pairs can be exchanged without changing the joint law."""
    tol = check_variance("tol", tol)
    P, pi = chain.transition, chain.stationary
    n = chain.alphabet_size
    return all(abs(pi[a] * P[a][b] - pi[b] * P[b][a]) <= tol for a in range(n) for b in range(a + 1, n))
