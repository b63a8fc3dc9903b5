"""Shared brute-force oracles and generators for the test suite.

The Markov oracle enumerates the full joint pmf of (s_0, ..., s_m) for small
alphabets and computes any conditional entropy by direct marginalization,
independent of the matrix-power path used by the library.
"""

from __future__ import annotations

import numpy as np

from streamrate import LosslessBounds, MarkovChain


def joint_pmf(chain: MarkovChain, length: int) -> np.ndarray:
    """Exact pmf of (s_0, ..., s_length) as an array of that many axes."""
    n = chain.alphabet_size
    pmf = np.array(chain.stationary, dtype=float)
    P = np.asarray(chain.transition)
    for _ in range(length):
        pmf = pmf[..., None] * P[(None,) * (pmf.ndim - 1) + (slice(None), slice(None))]
    return pmf


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def oracle_conditional_entropy(chain: MarkovChain, targets, given) -> float:
    """H(s_targets | s_given) in bits from the enumerated joint pmf."""
    targets = sorted(set(targets))
    given = sorted(set(given))
    if set(targets) & set(given):
        raise ValueError("targets and conditioning indices overlap")
    m = max(targets + given) if (targets or given) else 0
    pmf = joint_pmf(chain, m)
    keep_joint = sorted(set(targets) | set(given))
    drop = tuple(i for i in range(m + 1) if i not in keep_joint)
    p_joint = pmf.sum(axis=drop) if drop else pmf
    if not given:
        return entropy_bits(p_joint)
    # axes of p_joint correspond to keep_joint in order
    drop_t = tuple(i for i, idx in enumerate(keep_joint) if idx not in given)
    p_given = p_joint.sum(axis=drop_t)
    return entropy_bits(p_joint) - entropy_bits(p_given)


def random_chain(rng: np.random.Generator, alphabet: int) -> MarkovChain:
    """Random irreducible chain: Dirichlet rows with a floor on every entry."""
    raw = rng.dirichlet(np.ones(alphabet), size=alphabet) + 0.05
    return MarkovChain.from_transition(raw / raw.sum(axis=1, keepdims=True))


def oracle_lag_entropy(chain: MarkovChain, lag: int) -> float:
    """H(s_lag | s_0) in bits, one row of P^lag at a time."""
    Pk = np.linalg.matrix_power(np.asarray(chain.transition), lag)
    return float(sum(chain.stationary[a] * entropy_bits(Pk[a]) for a in range(chain.alphabet_size)))


def oracle_lossless_bounds(chain: MarkovChain, B: int, W: int) -> LosslessBounds:
    """The lossless bounds with every lag entropy recomputed where it is used."""
    h1 = oracle_lag_entropy(chain, 1)
    if B == 0:
        mi_upper = mi_lower = 0.0
    else:
        mi_upper = oracle_lag_entropy(chain, B + 1) - h1
        mi_lower = oracle_lag_entropy(chain, B + W + 1) - oracle_lag_entropy(chain, W + 1)
    upper = h1 + mi_upper / (W + 1)
    lower = h1 + mi_lower / (W + 1)
    return LosslessBounds(upper=upper, lower=max(lower, h1), predictive_rate=h1, B=B, W=W)
