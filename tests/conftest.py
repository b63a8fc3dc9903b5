"""Shared brute-force oracles and generators for the test suite, and the
switches that let it run without numpy.

The Markov oracle enumerates the full joint pmf of (s_0, ..., s_m) for small
alphabets and computes any conditional entropy by direct marginalization,
independent of the matrix-power path used by the library.

Every command but `simulate` runs on the standard library, and so does this
suite: a test that needs numpy carries the `needs_numpy` mark (on a test, a
class or a parameter) and is skipped through `pytest.importorskip` where numpy
is not installed.  Values that a module builds from numpy at collection come
from `numpy_or_none` and `numpy_params`; the oracles below import numpy when
they are called.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import streamrate
from streamrate import LosslessBounds, MarkovChain


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_numpy: skipped where numpy is not installed")


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_numpy") is not None:
        pytest.importorskip("numpy")


def numpy_or_none():
    """numpy, or None where it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_params(make, width=1):
    """make(numpy), a list of parameters; where numpy is not installed, one
    parameter of width values, marked needs_numpy, in their place."""
    np = numpy_or_none()
    if np is None:
        return [pytest.param(*[None] * width, marks=pytest.mark.needs_numpy)]
    return make(np)


# A meta-path finder that refuses numpy, so that the interpreter runs as if it
# were not installed.  `sys.modules["numpy"] = None` does that for one command,
# but hypothesis reads that entry and fails, so a pytest run needs the finder.
REFUSE_NUMPY = """\
import sys


class RefuseNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, RefuseNumpy)
"""


def run_without_numpy(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter where `import numpy` fails, with
    streamrate importable; its stdout and stderr are captured as text."""
    src = os.path.dirname(os.path.dirname(streamrate.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", REFUSE_NUMPY + code], env=env, capture_output=True, text=True)


def joint_pmf(chain: MarkovChain, length: int):
    """Exact pmf of (s_0, ..., s_length) as an array of that many axes."""
    import numpy as np

    n = chain.alphabet_size
    pmf = np.array(chain.stationary, dtype=float)
    P = np.asarray(chain.transition)
    for _ in range(length):
        pmf = pmf[..., None] * P[(None,) * (pmf.ndim - 1) + (slice(None), slice(None))]
    return pmf


def entropy_bits(p) -> float:
    import numpy as np

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


def random_chain(rng, alphabet: int) -> MarkovChain:
    """Random irreducible chain from a numpy Generator: Dirichlet rows with a
    floor on every entry."""
    import numpy as np

    raw = rng.dirichlet(np.ones(alphabet), size=alphabet) + 0.05
    return MarkovChain.from_transition(raw / raw.sum(axis=1, keepdims=True))


def oracle_lag_entropy(chain: MarkovChain, lag: int) -> float:
    """H(s_lag | s_0) in bits, one row of P^lag at a time."""
    import numpy as np

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
