import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    numpy_or_none,
    oracle_conditional_entropy,
    oracle_lag_entropy,
    oracle_lossless_bounds,
    random_chain,
)
from oracles import reference_closed_class, reference_lossless, reference_matrix_power, reference_stationary
import streamrate.markov as markov
from streamrate import (
    ConvergenceError,
    LosslessBounds,
    MarkovChain,
    NumericalError,
    ValidationError,
    binary_symmetric_chain,
    conditional_entropy_lag,
    is_symmetric,
    lossless_bounds,
    multiterminal_sum_rate,
    stationary_distribution,
    window_conditional_entropy,
)

np = numpy_or_none()


def hb(q: float) -> float:
    """Binary entropy in bits."""
    if q in (0.0, 1.0):
        return 0.0
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


class TestStationaryDistribution:
    @pytest.mark.needs_numpy
    def test_symmetric_flip_is_uniform(self):
        pi = stationary_distribution(np.array([[0.9, 0.1], [0.1, 0.9]]))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    @pytest.mark.needs_numpy
    def test_identity_is_reducible(self):
        with pytest.raises(ConvergenceError):
            stationary_distribution(np.eye(2))

    @pytest.mark.needs_numpy
    def test_hand_solved_two_state(self):
        # pi P = pi gives pi = (0.4, 0.6) for this matrix
        pi = stationary_distribution(np.array([[0.7, 0.3], [0.2, 0.8]]))
        assert np.allclose(pi, [0.4, 0.6], atol=1e-10)

    @pytest.mark.needs_numpy
    def test_non_stochastic_row_rejected(self):
        with pytest.raises(ValidationError):
            stationary_distribution(np.array([[0.5, 0.4], [0.5, 0.5]]))

    @pytest.mark.needs_numpy
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN passes every range comparison, so it must be rejected by name
        with pytest.raises(ValidationError):
            stationary_distribution(np.array([[bad, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            MarkovChain.from_transition([[bad, 1.0], [0.0, 1.0]])

    @pytest.mark.needs_numpy
    @pytest.mark.parametrize(
        "P, expected",
        [
            ([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
            # period 2 with unequal parts: the uniform start is not stationary
            ([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [0.5, 0.25, 0.25]),
        ],
        ids=["swap", "unequal-parts"],
    )
    def test_periodic_deterministic_swap(self, P, expected):
        pi = stationary_distribution(np.array(P))
        assert np.allclose(pi, expected, rtol=0, atol=1e-12)

    @pytest.mark.needs_numpy
    def test_single_closed_class_with_transient_state(self):
        pi = stationary_distribution(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert np.allclose(pi, [1.0, 0.0], rtol=0, atol=1e-12)

    @pytest.mark.needs_numpy
    def test_two_blocks_with_tiny_cross_mass(self):
        # cross mass far below any singular-value threshold: still one closed class
        eps = 1e-200
        P = [[0.7, 0.3 - eps, eps, 0.0], [0.4, 0.6 - eps, 0.0, eps],
             [eps, 0.0, 0.5 - eps, 0.5], [0.0, eps, 0.2, 0.8 - eps]]
        chain = MarkovChain.from_transition(P)
        # each block keeps its own law, at half the mass (the cross flows balance)
        assert chain.stationary == pytest.approx((4 / 14, 3 / 14, 2 / 14, 5 / 14), rel=1e-12)
        _assert_law_and_ordered_bounds(P)

    def test_law_wider_than_the_float_range(self):
        # state 2 outweighs state 1 by 1e200 and state 1 outweighs state 0 by
        # 1e200: state 0's mass underflows to 0 instead of the others overflowing
        P = [[0.0, 1.0, 0.0], [1e-200, 0.0, 1.0 - 1e-200], [0.0, 1e-200, 1.0 - 1e-200]]
        pi = stationary_distribution(P)
        assert pi[0] == 0.0 and pi[2] == 1.0
        assert pi[1] == pytest.approx(1e-200, rel=1e-12)

    def test_round_off_negatives_solve_as_zeros(self):
        # entries within ROW_SUM_TOL below 0 (rows off by as much) reach GTH as exact zeros
        zeros = [[0.2, 0.3, 0.5], [0.6, 0.4, 0.0], [0.1, 0.0, 0.9]]
        negatives = [[0.2, 0.3, 0.5], [0.6, 0.4, -1e-13], [0.1, -1e-13, 0.9]]
        assert stationary_distribution(negatives) == stationary_distribution(zeros)


class TestMarkovChainType:
    @pytest.mark.needs_numpy
    def test_from_json_roundtrip(self, tmp_path):
        doc = {"alphabet_size": 2, "transition": [[0.7, 0.3], [0.2, 0.8]]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        chain = MarkovChain.from_json(path)
        assert np.allclose(chain.stationary, [0.4, 0.6], atol=1e-10)

    def test_from_json_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            MarkovChain.from_json({"alphabet_size": 3, "transition": [[0.5, 0.5], [0.5, 0.5]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"transition": "ab"},
            {"transition": [[0.5, "x"], [0.5, 0.5]]},
            {"transition": [[0.5, 0.5], [0.5]]},
            {"alphabet_size": "x", "transition": [[0.5, 0.5], [0.5, 0.5]]},
            {"alphabet_size": 2.5, "transition": [[0.5, 0.5], [0.5, 0.5]]},
        ],
        ids=["string-matrix", "string-entry", "ragged", "string-size", "fractional-size"],
    )
    def test_from_json_wrong_types(self, doc):
        with pytest.raises(ValidationError):
            MarkovChain.from_json(doc)

    @pytest.mark.parametrize(
        "source",
        [{"alphabet_size": 2}, "[[0.5, 0.5], [0.5, 0.5]]", "{bad", "MISSING"],
        ids=["no-transition", "not-an-object", "malformed", "missing-file"],
    )
    def test_from_json_unreadable_is_validation_error(self, source, tmp_path):
        path = tmp_path / "chain.json"
        if isinstance(source, str) and source != "MISSING":
            path.write_text(source)
        with pytest.raises(ValidationError):
            MarkovChain.from_json(source if isinstance(source, dict) else path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_stationary_rejected(self, bad):
        # every tolerance comparison is False on NaN
        with pytest.raises(ValidationError, match="finite"):
            MarkovChain(2, [[0.5, 0.5], [0.5, 0.5]], [bad, 1.0])

    @pytest.mark.needs_numpy
    def test_bad_stationary_rejected(self):
        with pytest.raises(ValidationError):
            MarkovChain(2, np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0.5, 0.5]))

    def test_immutability(self):
        chain = binary_symmetric_chain(0.2)
        with pytest.raises(TypeError):
            chain.transition[0][0] = 0.0


class TestConditionalEntropyLag:
    def test_fair_coin(self):
        assert conditional_entropy_lag(binary_symmetric_chain(0.5), 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.needs_numpy
    def test_lag_one_binary(self):
        chain = binary_symmetric_chain(0.1)
        got = conditional_entropy_lag(chain, 1)
        assert got == pytest.approx(hb(0.1), abs=1e-12)
        assert got == pytest.approx(oracle_conditional_entropy(chain, [1], [0]), abs=1e-12)
        assert got == pytest.approx(0.4689955935892812, abs=1e-12)

    @pytest.mark.needs_numpy
    def test_lag_two_binary(self):
        # two-step flip probability 2 q (1 - q) = 0.18
        chain = binary_symmetric_chain(0.1)
        got = conditional_entropy_lag(chain, 2)
        assert got == pytest.approx(hb(0.18), abs=1e-12)
        assert got == pytest.approx(oracle_conditional_entropy(chain, [2], [0]), abs=1e-12)

    def test_zero_lag_rejected(self):
        with pytest.raises(ValidationError):
            conditional_entropy_lag(binary_symmetric_chain(0.1), 0)


class TestWindowEntropy:
    @pytest.mark.needs_numpy
    def test_binary_window(self):
        chain = binary_symmetric_chain(0.1)
        got = window_conditional_entropy(chain, 1, 1)
        assert got == pytest.approx(hb(0.18) + hb(0.1), abs=1e-12)
        assert got == pytest.approx(oracle_conditional_entropy(chain, [2, 3], [0]), abs=1e-10)

    def test_degenerate_window(self):
        chain = binary_symmetric_chain(0.3)
        assert window_conditional_entropy(chain, 0, 0) == pytest.approx(
            conditional_entropy_lag(chain, 1), abs=1e-12
        )

    def test_iid_window(self):
        assert window_conditional_entropy(binary_symmetric_chain(0.5), 3, 2) == pytest.approx(
            3.0, abs=1e-12
        )


class TestLosslessBounds:
    def test_w0_collapse(self):
        chain = binary_symmetric_chain(0.1)
        b = lossless_bounds(chain, 1, 0)
        assert b.upper == pytest.approx(b.lower, abs=1e-12)
        assert b.upper == pytest.approx(hb(0.18), abs=1e-12)

    @pytest.mark.needs_numpy
    def test_b1_w1_binary(self):
        chain = binary_symmetric_chain(0.1)
        b = lossless_bounds(chain, 1, 1)
        assert b.upper == pytest.approx(0.5 * (hb(0.18) + hb(0.1)), abs=1e-12)
        three_step = 0.5 * (1 - (1 - 0.2) ** 3)
        assert b.lower == pytest.approx(hb(0.1) + 0.5 * (hb(three_step) - hb(0.18)), abs=1e-12)
        # joint-pmf oracle for both mutual-information terms
        mi_up = oracle_conditional_entropy(chain, [2], [0]) - oracle_conditional_entropy(chain, [2], [0, 1])
        mi_lo = oracle_conditional_entropy(chain, [3], [0]) - oracle_conditional_entropy(chain, [3], [0, 1])
        h1 = oracle_conditional_entropy(chain, [1], [0])
        assert b.upper == pytest.approx(h1 + mi_up / 2, abs=1e-10)
        assert b.lower == pytest.approx(h1 + mi_lo / 2, abs=1e-10)

    def test_b0_equals_predictive(self):
        chain = binary_symmetric_chain(0.23)
        b = lossless_bounds(chain, 0, 3)
        assert b.upper == pytest.approx(b.predictive_rate, abs=1e-12)
        assert b.lower == pytest.approx(b.predictive_rate, abs=1e-12)

    def test_large_w_limit(self):
        chain = binary_symmetric_chain(0.1)
        w = 10**4
        b = lossless_bounds(chain, 5, w)
        cap = 1.0 / (w + 1)  # H(s) = 1 bit for the binary symmetric chain
        assert b.upper - b.lower <= cap + 1e-12
        assert abs(b.upper - b.predictive_rate) <= cap + 1e-12
        assert abs(b.lower - b.predictive_rate) <= cap + 1e-12
        # the lower bound's mutual-information penalty has fully mixed away
        assert (b.lower - b.predictive_rate) * (w + 1) <= 1e-6

    def test_monotone_in_b_and_w(self):
        for q in (0.05, 0.15, 0.3, 0.45):
            chain = binary_symmetric_chain(q)
            grid = {
                (B, W): lossless_bounds(chain, B, W) for B in range(4) for W in range(4)
            }
            for B in range(4):
                for W in range(3):
                    assert grid[(B, W + 1)].upper <= grid[(B, W)].upper + 1e-12
                    assert grid[(B, W + 1)].lower <= grid[(B, W)].lower + 1e-12
            for W in range(4):
                for B in range(3):
                    assert grid[(B + 1, W)].upper >= grid[(B, W)].upper - 1e-12
                    assert grid[(B + 1, W)].lower >= grid[(B, W)].lower - 1e-12

    def test_invariant_enforced(self):
        # misordered output on legal input is a numerical failure, exit 2
        with pytest.raises(NumericalError):
            LosslessBounds(upper=0.4, lower=0.5, predictive_rate=0.3, B=1, W=1)

    def test_long_window_ordered(self):
        # upper (W + 1) and H(s_{B+1}|s_0) + W H(s_1|s_0) are equal in exact
        # arithmetic; compared in floats, their rounding alone failed this call
        chain = MarkovChain.from_transition([[0.8, 0.2], [0.4, 0.6]])
        b = lossless_bounds(chain, 1, 10**6)
        assert all(map(math.isfinite, (b.predictive_rate, b.lower, b.upper)))
        assert b.predictive_rate <= b.lower <= b.upper


class TestMultiterminalSumRate:
    def test_iid(self):
        assert multiterminal_sum_rate(binary_symmetric_chain(0.5)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.needs_numpy
    def test_binary_q01(self):
        chain = binary_symmetric_chain(0.1)
        got = multiterminal_sum_rate(chain)
        assert got == pytest.approx(2 * lossless_bounds(chain, 1, 1).lower, abs=1e-10)
        oracle = oracle_conditional_entropy(chain, [1], [0, 2]) + oracle_conditional_entropy(
            chain, [3], [0]
        )
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_deterministic_chain(self):
        # deterministic swap chain carries no conditional uncertainty
        assert multiterminal_sum_rate(binary_symmetric_chain(1.0)) == pytest.approx(0.0, abs=1e-9)
        assert multiterminal_sum_rate(binary_symmetric_chain(1e-9)) == pytest.approx(0.0, abs=1e-6)


class TestIsSymmetric:
    def test_binary_symmetric_always(self):
        for q in (0.05, 0.3, 0.5, 0.9):
            assert is_symmetric(binary_symmetric_chain(q), 1e-12)

    def test_two_state_always_reversible(self):
        chain = MarkovChain.from_transition([[0.7, 0.3], [0.2, 0.8]])
        assert is_symmetric(chain, 1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # a NaN tol made every chain asymmetric and an infinite one every chain symmetric
        with pytest.raises(ValidationError):
            is_symmetric(binary_symmetric_chain(0.1), tol)

    @pytest.mark.needs_numpy
    def test_cycle_not_reversible(self):
        P = np.full((3, 3), 0.0)
        for a in range(3):
            P[a, (a + 1) % 3] = 0.9
            P[a, a] = 0.1
        assert not is_symmetric(MarkovChain.from_transition(P), 1e-6)

    @pytest.mark.needs_numpy
    def test_matches_pairwise_joint_exchange(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            chain = random_chain(rng, 3)
            pmf2 = np.asarray(chain.stationary)[:, None] * np.asarray(chain.transition)
            exchangeable = bool(np.max(np.abs(pmf2 - pmf2.T)) <= 1e-10)
            assert is_symmetric(chain, 1e-10) == exchangeable


@pytest.mark.needs_numpy
class TestOracleAgreement:
    def test_random_chains_against_joint_pmf(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            alphabet = int(rng.integers(2, 5))
            chain = random_chain(rng, alphabet)
            B = int(rng.integers(0, 4))
            W = int(rng.integers(0, 4 - min(B, 2)))
            if B + W + 1 > 6:
                continue
            b = lossless_bounds(chain, B, W)
            h1 = oracle_conditional_entropy(chain, [1], [0])
            if B == 0:
                mi_up = mi_lo = 0.0
            else:
                mi_up = oracle_conditional_entropy(chain, [B + 1], [0]) - oracle_conditional_entropy(
                    chain, [B + 1], [0, B]
                )
                mi_lo = oracle_conditional_entropy(chain, [B + W + 1], [0]) - oracle_conditional_entropy(
                    chain, [B + W + 1], [0, B]
                )
            assert b.upper == pytest.approx(h1 + mi_up / (W + 1), abs=1e-10)
            assert b.lower == pytest.approx(h1 + mi_lo / (W + 1), abs=1e-10)
            window = window_conditional_entropy(chain, B, W)
            targets = list(range(B + 1, B + W + 2))
            assert window == pytest.approx(oracle_conditional_entropy(chain, targets, [0]), abs=1e-10)

    def test_corollary_identity_random_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            chain = random_chain(rng, int(rng.integers(2, 4)))
            B, W = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            b = lossless_bounds(chain, B, W)
            assert b.upper * (W + 1) == pytest.approx(
                window_conditional_entropy(chain, B, W), abs=1e-10
            )


def _stochastic(raw):
    raw = np.asarray(raw, dtype=float)
    return raw / raw.sum(axis=1, keepdims=True)


_positive = st.floats(0.01, 1.0)


@st.composite
def _positive_block(draw, rows: int, cols: int):
    from hypothesis.extra import numpy as hnp

    return _stochastic(draw(hnp.arrays(float, (rows, cols), elements=_positive)))


@st.composite
def random_stochastic(draw):
    """Any n x n stochastic matrix, n = 1..8; zeros allowed, so some are reducible."""
    from hypothesis.extra import numpy as hnp

    n = draw(st.integers(1, 8))
    raw = draw(hnp.arrays(float, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    empty = raw.sum(axis=1) == 0.0
    raw[empty] = np.eye(n)[empty]  # an all-zero row becomes an absorbing state
    return _stochastic(raw)


@st.composite
def bipartite_periodic(draw):
    """Period-2 chain that alternates between parts of unequal sizes."""
    a, b = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda ab: ab[0] != ab[1]))
    P = np.zeros((a + b, a + b))
    P[:a, a:] = draw(_positive_block(a, b))
    P[a:, :a] = draw(_positive_block(b, a))
    return P


@st.composite
def nearly_reducible(draw):
    """Two positive blocks joined by cross mass eps in [1e-6, 0.1]."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    eps = 10.0 ** draw(st.floats(-6.0, -1.0))
    P = np.zeros((a + b, a + b))
    P[:a, :a] = (1.0 - eps) * draw(_positive_block(a, a))
    P[a:, a:] = (1.0 - eps) * draw(_positive_block(b, b))
    P[:a, a:] = eps * draw(_positive_block(a, b))
    P[a:, :a] = eps * draw(_positive_block(b, a))
    return P


@st.composite
def block_diagonal(draw):
    """Two closed classes: no unique stationary law."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    P = np.zeros((a + b, a + b))
    P[:a, :a] = draw(_positive_block(a, a))
    P[a:, a:] = draw(_positive_block(b, b))
    return P


def _assert_law_and_ordered_bounds(P) -> None:
    """A chain either raises a typed error or has a valid law and ordered bounds."""
    try:
        chain = MarkovChain.from_transition(P)
    except (ValidationError, ConvergenceError):
        return
    pi = np.asarray(chain.stationary)
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(pi @ np.asarray(chain.transition) - pi)) <= 1e-12
    for B in range(4):
        for W in range(4):
            b = lossless_bounds(chain, B, W)
            assert np.isfinite([b.predictive_rate, b.lower, b.upper]).all()
            assert b.predictive_rate <= b.lower <= b.upper + 1e-12


_chain_settings = settings(max_examples=40, deadline=None)


@pytest.mark.needs_numpy
class TestStationaryProperties:
    @_chain_settings
    @given(random_stochastic())
    def test_random_stochastic(self, P):
        _assert_law_and_ordered_bounds(P)

    @_chain_settings
    @given(bipartite_periodic())
    def test_bipartite_periodic(self, P):
        pi = np.asarray(stationary_distribution(P))
        a = int(np.count_nonzero(P[0] == 0.0))  # the first part is where row 0 puts no mass
        assert pi[:a].sum() == pytest.approx(0.5, abs=1e-12)
        _assert_law_and_ordered_bounds(P)

    @_chain_settings
    @given(nearly_reducible())
    def test_nearly_reducible(self, P):
        _assert_law_and_ordered_bounds(P)

    @_chain_settings
    @given(block_diagonal())
    def test_block_diagonal_has_no_unique_law(self, P):
        with pytest.raises(ConvergenceError):
            stationary_distribution(P)


@pytest.mark.needs_numpy
class TestClosedClass:
    """The closed class against Warshall's closure: all-positive chains take
    the one-step class, chains with zeros the closure itself."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_stochastic(), st.integers(1, 8).flatmap(lambda n: _positive_block(n, n))))
    def test_matches_warshall(self, P):
        P = markov._matrix(P)
        want = reference_closed_class(P)
        if want is None:
            with pytest.raises(ConvergenceError):
                markov._closed_class(P)
        else:
            assert markov._closed_class(P) == want


def _assert_matches_reference(P) -> None:
    """Wherever the SVD reference solves, the chain has its law and bounds.

    They agree within 1e-12 plus a hundred times the reference's own error:
    its null vector is good to about 1e-16 / sigma, sigma the second-smallest
    singular value of P^T - I, which nearly reducible chains make small."""
    ref = reference_stationary(P)
    if ref is None:
        return
    chain = MarkovChain.from_transition(P)
    s = np.linalg.svd(P.T - np.eye(len(P)), compute_uv=False)
    tol = 1e-12 + (1e-14 / s[-2] if len(s) > 1 else 0.0)
    assert np.max(np.abs(np.asarray(chain.stationary) - ref)) <= tol
    for B in range(4):
        for W in range(4):
            b = lossless_bounds(chain, B, W)
            want = reference_lossless(P, ref, B, W)
            assert np.max(np.abs(np.subtract((b.predictive_rate, b.lower, b.upper), want))) <= tol


@pytest.mark.needs_numpy
class TestAgainstReference:
    """GTH and the stdlib lag entropies against the SVD null space and numpy's
    matrix power."""

    @_chain_settings
    @given(random_stochastic())
    def test_random_stochastic(self, P):
        _assert_matches_reference(P)

    @_chain_settings
    @given(bipartite_periodic())
    def test_bipartite_periodic(self, P):
        _assert_matches_reference(P)

    @_chain_settings
    @given(nearly_reducible())
    def test_nearly_reducible(self, P):
        _assert_matches_reference(P)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValidationError, NumericalError) as exc:
        return exc


class TestEntropyKernel:
    """The one-pass lag entropy against the row-by-row loop it replaced."""

    @pytest.mark.needs_numpy
    @settings(max_examples=100, deadline=None)
    @given(random_stochastic(), st.integers(1, 12), st.integers(0, 4), st.integers(0, 4))
    def test_matches_row_loop(self, P, lag, B, W):
        try:
            chain = MarkovChain.from_transition(P)
        except (ValidationError, ConvergenceError):
            return
        assert conditional_entropy_lag(chain, lag) == pytest.approx(
            oracle_lag_entropy(chain, lag), rel=0, abs=1e-12
        )
        got = _outcome(lossless_bounds, chain, B, W)
        expected = _outcome(oracle_lossless_bounds, chain, B, W)
        assert type(got) is type(expected)
        if isinstance(expected, LosslessBounds):
            for field in ("upper", "lower", "predictive_rate"):
                assert getattr(got, field) == pytest.approx(getattr(expected, field), rel=0, abs=1e-12)
            assert (got.B, got.W) == (expected.B, expected.W)

    @pytest.mark.parametrize(
        "B, W, powers", [(0, 3, 1), (1, 0, 2), (1, 1, 3), (2, 1, 4), (3, 4, 4)]
    )
    def test_each_lag_powered_once(self, monkeypatch, B, W, powers):
        # one squaring ladder up to the largest lag, shared by every lag: at
        # (3, 4) the lags 1, 4, 5, 8 take the squarings to P^8 and P^4 P
        products = {(0, 3): 0, (1, 0): 1, (1, 1): 2, (2, 1): 3, (3, 4): 4}[B, W]
        chain = binary_symmetric_chain(0.1)
        lags, calls = [], []
        powers_of, matmul = markov._powers, markov._matmul
        monkeypatch.setattr(markov, "_powers", lambda P, ks: lags.extend(ks) or powers_of(P, ks))
        monkeypatch.setattr(markov, "_matmul", lambda A, M: calls.append(1) or matmul(A, M))
        lossless_bounds(chain, B, W)
        assert len(lags) == len(set(lags)) == powers
        assert len(calls) == products

    @pytest.mark.needs_numpy
    def test_sum_rate_powers_each_lag_once(self, monkeypatch):
        # H(s3|s0) was computed twice: once for the sum, once in its cross-check;
        # now lags 1, 2, 3 take one squaring and one product, P^2 P
        chain = random_chain(np.random.default_rng(5), 4)
        expected = multiterminal_sum_rate(chain)
        calls = []
        matmul = markov._matmul
        monkeypatch.setattr(markov, "_matmul", lambda A, M: calls.append(1) or matmul(A, M))
        assert multiterminal_sum_rate(chain) == expected
        assert len(calls) == 2

    @pytest.mark.needs_numpy
    @settings(max_examples=30, deadline=None)
    @given(random_stochastic(), st.sets(st.integers(1, 70), min_size=1, max_size=4))
    def test_ladder_powers_are_the_per_lag_powers(self, P, lags):
        # bit for bit: sharing the squarings changes no rounding
        P = markov._matrix(P)
        powers = markov._powers(P, tuple(lags))
        assert powers == {k: reference_matrix_power(P, k) for k in lags}

    def test_sum_rate_cross_check_fires(self, monkeypatch):
        # the joint-pmf H(s1|s0,s2) against 2 H(s1|s0) - H(s2|s0), from a wrong lag entropy
        chain = binary_symmetric_chain(0.1)
        lag_entropies = markov._lag_entropies
        monkeypatch.setattr(
            markov, "_lag_entropies",
            lambda c, ks: {k: h + (1e-9 if k == 2 else 0.0) for k, h in lag_entropies(c, ks).items()},
        )
        with pytest.raises(NumericalError, match="joint pmf"):
            multiterminal_sum_rate(chain)

    @pytest.mark.parametrize(
        "P",
        [
            [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
            # a negative entry within the row-sum tolerance is skipped like a zero
            [[-1e-13, 1.0 + 1e-13], [0.5, 0.5]],
        ],
        ids=["periodic-zeros", "negative-round-off"],
    )
    def test_zero_entries_raise_no_warning(self, P):
        chain = MarkovChain.from_transition(P)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lag in range(1, 6):
                assert math.isfinite(conditional_entropy_lag(chain, lag))
            for B in range(4):
                for W in range(4):
                    lossless_bounds(chain, B, W)
