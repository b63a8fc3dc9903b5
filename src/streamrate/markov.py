"""Exact information measures on stationary finite-alphabet Markov chains.

All entropies and mutual informations are computed from exact matrix powers
of the transition matrix (no sampling), in bits, with the 0*log(0) = 0
convention.  This module also builds the streaming rate bounds for lossless
recovery after a burst of up to B erased packets followed by a grace window
of W slots: both bounds equal the ideal predictive-coding rate H(s1|s0) plus
a recovery penalty that decays like 1/(W+1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError, check_int

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
# lags, B and W: P^k built by repeated squaring drifts off row-stochastic by
# about 1e-17 k, so at 2**40 the lag entropies are wrong in the 5th digit
LAG_CAP = 10**6


def _entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy of a probability vector/array in bits, 0*log(0) = 0."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _validate_transition(transition: np.ndarray) -> np.ndarray:
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
        raise ValidationError(f"transition matrix must be square, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValidationError("transition probabilities must be finite")
    if np.any(P < -ROW_SUM_TOL) or np.any(P > 1.0 + ROW_SUM_TOL):
        raise ValidationError("transition probabilities must lie in [0, 1]")
    row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
    if row_err > ROW_SUM_TOL:
        raise ValidationError(f"rows must sum to 1 within {ROW_SUM_TOL}, max error {row_err:.3e}")
    return P


def _stationary_null_space(P: np.ndarray) -> np.ndarray | None:
    """Unique probability vector in the null space of (P^T - I), or None when
    the chain has no unique stationary law (more than one closed class)."""
    n = P.shape[0]
    _, s, vt = np.linalg.svd(P.T - np.eye(n))
    null_dim = int(np.sum(s < 1e-10 * max(1.0, s[0])))
    if null_dim != 1:
        return None
    v = vt[-1]
    v = v / v.sum()
    if np.any(v < -1e-9):
        return None
    v = np.clip(v, 0.0, None)
    return v / v.sum()


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary law of a row-stochastic matrix, by one null-space solve of
    (P^T - I).

    Periodic chains and reducible chains with a single closed class have a
    unique law and are solved like any other.  Chains with no unique
    stationary law (more than one closed class) raise ConvergenceError.
    """
    P = _validate_transition(transition)
    pi = _stationary_null_space(P)
    if pi is None:
        raise ConvergenceError("chain has no unique stationary law (more than one closed class)")
    return pi


@dataclass(frozen=True)
class MarkovChain:
    """Stationary first-order chain: row-stochastic transition + stationary law."""

    alphabet_size: int
    transition: np.ndarray
    stationary: np.ndarray

    def __post_init__(self):
        P = _validate_transition(self.transition)
        if self.alphabet_size != P.shape[0]:
            raise ValidationError(
                f"alphabet_size {self.alphabet_size} does not match matrix of size {P.shape[0]}"
            )
        pi = np.asarray(self.stationary, dtype=float)
        if pi.shape != (self.alphabet_size,):
            raise ValidationError("stationary vector has wrong shape")
        if abs(pi.sum() - 1.0) > STATIONARY_TOL or np.any(pi < -STATIONARY_TOL):
            raise ValidationError("stationary vector must be a probability vector")
        if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
            raise ValidationError(f"stationary vector fails pi P = pi within {STATIONARY_TOL}")
        P.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "transition", P)
        object.__setattr__(self, "stationary", pi)

    @classmethod
    def from_transition(cls, transition) -> "MarkovChain":
        try:
            P = np.asarray(transition, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"transition matrix must hold numbers: {exc}")
        pi = stationary_distribution(P)  # validates P before its solve
        return cls(alphabet_size=P.shape[0], transition=P, stationary=pi)

    @classmethod
    def from_json(cls, source) -> "MarkovChain":
        """Load {"alphabet_size": n, "transition": [[...], ...]} from a path,
        file object, or dict.  The stationary vector is always recomputed."""
        if isinstance(source, dict):
            doc = source
        elif hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        chain = cls.from_transition(doc["transition"])
        if "alphabet_size" in doc:
            size = doc["alphabet_size"]
            check_int("alphabet_size", size)
            if size != chain.alphabet_size:
                raise ValidationError("alphabet_size field disagrees with transition matrix")
        return chain


def binary_symmetric_chain(q: float) -> MarkovChain:
    """Binary chain that flips state with probability q each step."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError("flip probability must lie in [0, 1]")
    return MarkovChain.from_transition([[1.0 - q, q], [q, 1.0 - q]])


@dataclass(frozen=True)
class LosslessBounds:
    """Upper/lower bounds on the lossless streaming rate, in bits per symbol.

    Both bounds dominate the predictive-coding rate H(s1|s0) and coincide when
    W = 0.
    """

    upper: float
    lower: float
    predictive_rate: float
    B: int
    W: int

    def __post_init__(self):
        tol = 1e-12
        if self.lower > self.upper + tol:
            raise ValidationError("lower bound exceeds upper bound")
        if self.upper < self.predictive_rate - tol or self.lower < self.predictive_rate - tol:
            raise ValidationError("bounds fell below the predictive-coding rate")
        if self.W == 0 and abs(self.upper - self.lower) > tol:
            raise ValidationError("bounds must coincide at W = 0")


def _lag_entropy(chain: MarkovChain, lag: int) -> float:
    """H(s_lag | s_0) in bits: the pi-weighted row entropies of P^lag, all rows
    in one pass.  Entries that are not positive (zeros, and the tiny negative
    entries the row-sum tolerance admits) are skipped, so 0*log(0) = 0."""
    Pk = np.linalg.matrix_power(chain.transition, lag)
    logs = np.zeros_like(Pk)
    np.log2(Pk, out=logs, where=Pk > 0.0)
    return float(-(chain.stationary @ (Pk * logs).sum(axis=1)))


def conditional_entropy_lag(chain: MarkovChain, lag: int) -> float:
    """H(s_lag | s_0) in bits for the stationary chain; lag >= 1."""
    check_int("lag", lag, 1, LAG_CAP)
    return _lag_entropy(chain, int(lag))


def window_conditional_entropy(chain: MarkovChain, B: int, W: int) -> float:
    """H(s_{B+1}, ..., s_{B+W+1} | s_0) in bits via the chain-rule decomposition
    H(s_{B+1}|s_0) + W * H(s_1|s_0)."""
    check_int("B", B, 0, LAG_CAP)
    check_int("W", W, 0, LAG_CAP)
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
    otherwise lags 1, B+1, W+1 and B+W+1.  The cross-check against the joint
    window entropy H(s_{B+1}|s_0) + W * H(s_1|s_0) reads those same values,
    which are exactly what `window_conditional_entropy` returns.
    """
    check_int("B", B, 0, LAG_CAP)
    check_int("W", W, 0, LAG_CAP)
    lags = {1} if B == 0 else {1, B + 1, W + 1, B + W + 1}
    h = {k: _lag_entropy(chain, k) for k in lags}
    h1 = h[1]
    if B == 0:
        mi_upper = mi_lower = 0.0
    else:
        mi_upper = h[B + 1] - h1
        mi_lower = h[B + W + 1] - h[W + 1]
    upper = h1 + mi_upper / (W + 1)
    lower = h1 + mi_lower / (W + 1)
    window = h[B + 1] + W * h1
    if not abs(upper * (W + 1) - window) <= 1e-10:  # NaN fails too
        raise NumericalError(
            f"amortized upper bound {upper * (W + 1):.12f} disagrees with the joint "
            f"window entropy {window:.12f}"
        )
    return LosslessBounds(upper=upper, lower=max(lower, h1), predictive_rate=h1, B=int(B), W=int(W))


def multiterminal_sum_rate(chain: MarkovChain) -> float:
    """Sum-rate floor H(s1|s0,s2) + H(s3|s0) of the two-decoder side-information
    problem; equals twice the (B=1, W=1) lower bound.

    H(s1|s0,s2) comes from the joint pmf of (s0, s1, s2) and is cross-checked
    against its Markov form 2 H(s1|s0) - H(s2|s0), from lags 1 and 2."""
    P = chain.transition
    pi = chain.stationary
    joint3 = pi[:, None, None] * P[:, :, None] * P[None, :, :]
    h_mid = _entropy_bits(joint3) - _entropy_bits(joint3.sum(axis=1))
    h1, h2, h3 = (_lag_entropy(chain, k) for k in (1, 2, 3))
    if not abs(h_mid - (2.0 * h1 - h2)) <= 1e-10:
        raise NumericalError(
            f"H(s1|s0,s2) = {h_mid:.12f} from the joint pmf disagrees with "
            f"2 H(s1|s0) - H(s2|s0) = {2.0 * h1 - h2:.12f}"
        )
    return h_mid + h3


def is_symmetric(chain: MarkovChain, tol: float) -> bool:
    """True iff the chain is reversible: pi(a) P(a,b) == pi(b) P(b,a) entrywise,
    so adjacent pairs can be exchanged without changing the joint law."""
    if not (0.0 < tol < math.inf):
        raise ValidationError("tolerance must be positive and finite")
    flow = chain.stationary[:, None] * chain.transition
    return bool(np.max(np.abs(flow - flow.T)) <= tol)
