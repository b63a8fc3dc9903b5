import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import streamrate.oracle as oracle
from streamrate import (
    ErasurePattern,
    GaussianSystem,
    GmConfig,
    NumericalError,
    ValidationError,
    compute_bounds,
    conditional_variance,
    decode_mmse,
    decode_rate,
    enumerate_multi_burst,
    gamma_single,
    rate_upper_multi,
    rate_upper_single,
    solve_test_channel_single,
    verify_exchange_inequalities,
    verify_multi_burst_worst_case,
    verify_single_burst_worst_case,
)
from conftest import numpy_or_none
from oracles import (
    reference_dominating_pairs,
    reference_exchange_report,
    reference_multi_burst_tops,
    reference_predicted,
    reference_worst_case_report,
    worst_multi_burst,
)
from streamrate.oracle import (
    ENUM_T_CAP,
    MAX_SET_SIZE,
    _burst_preds,
    _Filter,
    _multi_burst_tops,
    _path_received,
    _SlackTracker,
    _stars,
)

np = numpy_or_none()


def _walk_multi_burst(filt, B, L, t_max):
    """Yield (t, runs, P_pred) for every guard-respecting layout of erased runs
    and every horizon 1 <= t <= t_max that the layout fits.

    `runs` is a tuple of (start, length).  For each t the layouts come in the
    order of `enumerate_multi_burst(t, B, L)`: the tree of runs by (start,
    length), in preorder.  A node's filter states are computed once and
    shared by its horizons and its children.  This is the enumeration the
    multi-burst check ran on before its dynamic program, kept as its oracle.
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


def _received(t, runs):
    gone = {i for start, length in runs for i in range(start, start + length)}
    return [i for i in range(t) if i not in gone]


class TestErasurePattern:
    def test_single_burst_layout(self):
        pat = ErasurePattern.single_burst(t=10, burst_len=3, offset=2)
        assert pat.erased == (5, 6, 7)
        assert 9 in pat.received and 8 in pat.received

    def test_single_burst_must_fit(self):
        with pytest.raises(ValidationError):
            ErasurePattern.single_burst(t=5, burst_len=3, offset=3)

    def test_multi_burst_guard_enforced(self):
        # erased runs {2,3} and {6} separated by only 2 intact slots
        received = tuple(i for i in range(10) if i not in (2, 3, 6))
        with pytest.raises(ValidationError):
            ErasurePattern.multi_burst(10, received, B=2, L=3)
        ErasurePattern.multi_burst(10, received, B=2, L=2)

    def test_received_range(self):
        with pytest.raises(ValidationError):
            ErasurePattern(t=4, received=(0, 4))

    def test_worst_pattern_single_when_guard_exceeds_horizon(self):
        pat = worst_multi_burst(t=5, B=2, L=6)
        assert pat.erased == (3, 4)

    def test_worst_pattern_truncates_earliest_burst(self):
        pat = worst_multi_burst(t=18, B=2, L=3)
        assert pat.received == (0, 3, 4, 5, 8, 9, 10, 13, 14, 15)

    @pytest.mark.parametrize("B, L", [(0, 0), (2, 0), (-1, 1), (-1, 0)])
    def test_worst_pattern_rejects_bad_burst_or_guard(self, B, L):
        # with L = 0 (or B < 0) the packing loop never moved its index and hung
        with pytest.raises(ValidationError):
            worst_multi_burst(5, B, L)

    def test_enumeration_contains_no_erasure_and_star(self):
        pats = enumerate_multi_burst(8, 2, 3)
        received_sets = {p.received for p in pats}
        assert tuple(range(8)) in received_sets
        assert worst_multi_burst(8, 2, 3).received in received_sets
        assert len(received_sets) == len(pats)


@pytest.mark.needs_numpy
class TestConditionalVariance:
    def test_prior(self):
        sys = GaussianSystem(0.9, 0.1, 5)
        assert conditional_variance(sys, ("s", 5), []) == pytest.approx(1.0, abs=1e-12)

    def test_one_step_prediction(self):
        sys = GaussianSystem(0.9, 0.1, 5)
        got = conditional_variance(sys, ("s", 5), [("s", 4)])
        assert got == pytest.approx(1 - 0.81, abs=1e-12)

    def test_scalar_observation(self):
        sys = GaussianSystem(0.9, 0.1, 3)
        got = conditional_variance(sys, ("s", 3), [("u", 3)])
        assert got == pytest.approx(0.1 / 1.1, abs=1e-12)

    def test_target_in_given_rejected(self):
        sys = GaussianSystem(0.9, 0.1, 3)
        with pytest.raises(ValidationError):
            conditional_variance(sys, ("s", 3), [("s", 3)])

    def test_ridge_handles_noiseless_channel(self):
        # with sigma_z2 = 0 the pair (s_1, u_1) is perfectly collinear
        sys = GaussianSystem(0.9, 0.0, 4)
        got = conditional_variance(sys, ("s", 4), [("s", 1), ("u", 1)])
        assert got == pytest.approx(1 - 0.9 ** 6, abs=1e-6)

    def test_psd_generated_systems(self):
        for rho, s2, t in ((0.9, 0.1, 12), (0.5, 0.5, 20), (0.99, 1e-4, 15)):
            assert GaussianSystem(rho, s2, t).min_eigenvalue() >= -1e-10


@pytest.mark.needs_numpy
class TestDecodeQuantities:
    def test_rate_at_stream_start(self):
        sys = GaussianSystem(0.9, 0.1, 0)
        got = decode_rate(sys, ErasurePattern.no_erasure(0))
        assert got == pytest.approx(0.5 * np.log2(1 + 0.19 / 0.1), abs=1e-12)

    def test_mmse_at_stream_start(self):
        sys = GaussianSystem(0.9, 0.1, 0)
        got = decode_mmse(sys, ErasurePattern.no_erasure(0))
        assert got == pytest.approx(1 / (1 / 0.1 + 1 / 0.19), abs=1e-12)

    def test_rate_vanishes_with_useless_channel(self):
        sys = GaussianSystem(0.9, 1e8, 12)
        for pat in (
            ErasurePattern.no_erasure(12),
            ErasurePattern.single_burst(12, 3, 0),
            worst_multi_burst(12, 2, 3),
        ):
            assert decode_rate(sys, pat) < 1e-6

    def test_steady_state_matches_closed_forms(self):
        cfg = GmConfig(rho=0.9, B=1, D=0.2)
        tc = solve_test_channel_single(cfg)
        sys = GaussianSystem(0.9, tc.sigma_z2, 40)
        pat = ErasurePattern.single_burst(40, 1, 0)
        assert decode_rate(sys, pat) == pytest.approx(rate_upper_single(cfg), abs=1e-5)
        assert decode_mmse(sys, pat) == pytest.approx(gamma_single(cfg, tc), abs=1e-5)

    def test_full_history_beats_worst_case(self):
        cfg = GmConfig(rho=0.9, B=2, D=0.3)
        tc = solve_test_channel_single(cfg)
        sys = GaussianSystem(0.9, tc.sigma_z2, 25)
        assert decode_mmse(sys, ErasurePattern.no_erasure(25)) <= 0.3

    def test_subnormal_noise_is_numerical_error(self):
        # the ratio Var(u_t) / sigma_z2 overflows, as in the worst-case checks
        pat = ErasurePattern(3, (0, 1))
        with pytest.raises(NumericalError, match="too small"):
            decode_rate(GaussianSystem(0.9, 5e-324, 3), pat)
        assert math.isfinite(decode_rate(GaussianSystem(0.9, 1e-300, 3), pat))

    def test_information_monotonicity_random_patterns(self):
        # growing the received set never increases the rate or the error
        rng = np.random.default_rng(13)
        sys = GaussianSystem(0.85, 0.2, 14)
        for _ in range(200):
            size = int(rng.integers(0, 13))
            received = tuple(sorted(rng.choice(14, size=size, replace=False)))
            missing = [i for i in range(14) if i not in received]
            if not missing:
                continue
            extra = tuple(sorted(received + (int(rng.choice(missing)),)))
            base = ErasurePattern(14, received)
            more = ErasurePattern(14, extra)
            assert decode_rate(sys, more) <= decode_rate(sys, base) + 1e-10
            assert decode_mmse(sys, more) <= decode_mmse(sys, base) + 1e-10


class TestWorstCaseVerification:
    def test_single_burst_b2(self):
        rep = verify_single_burst_worst_case(0.9, 0.1, B=2, t_max=12)
        assert rep.passed and rep.violations == 0
        assert rep.min_slack > 0

    def test_single_burst_near_lossless(self):
        rep = verify_single_burst_worst_case(0.9, 1e-6, B=2, t_max=10)
        assert rep.passed and rep.violations == 0

    def test_horizon_cap(self):
        with pytest.raises(ValidationError):
            verify_single_burst_worst_case(0.9, 0.1, B=1, t_max=ENUM_T_CAP + 1)
        rep = verify_single_burst_worst_case(0.9, 0.1, B=3, t_max=ENUM_T_CAP)
        assert rep.passed and rep.violations == 0
        assert rep.details[f"t{ENUM_T_CAP}"]["patterns"] == 1 + sum(ENUM_T_CAP - bl + 1 for bl in (1, 2, 3))
        rep = verify_multi_burst_worst_case(0.9, 0.1, B=3, L=1, t_max=ENUM_T_CAP)
        assert rep.passed and rep.violations == 0

    def test_multi_burst_small(self):
        rep = verify_multi_burst_worst_case(0.7, 0.3, B=1, L=2, t_max=14)
        assert rep.passed and rep.violations == 0

    def test_multi_burst_argmax_is_packed_pattern(self):
        rep = verify_multi_burst_worst_case(0.9, 0.1, B=2, L=3, t_max=10)
        assert rep.passed
        info = rep.details["t10"]
        assert info["argmax_rate_received"] == info["star_received"]
        assert info["argmax_mmse_received"] == info["star_received"]

    def test_report_serializes(self):
        rep = verify_single_burst_worst_case(0.8, 0.2, B=1, t_max=5)
        doc = rep.to_json()
        assert '"passed": true' in doc

    def test_exchange_inequalities(self):
        for rho in (0.5, 0.9):
            for s2 in (0.05, 0.5):
                rep = verify_exchange_inequalities(rho, s2, t=20, samples=125, seed=11)
                assert rep.passed and rep.violations == 0

    def test_exchange_sampler_draws_dominating_pairs(self, monkeypatch):
        t, samples = 20, 300
        sets = []
        predicted = _Filter.predicted

        def record(filt, horizon, received):
            assert horizon == t
            sets.append(list(received))
            return predicted(filt, horizon, received)

        monkeypatch.setattr(_Filter, "predicted", record)
        first = verify_exchange_inequalities(0.9, 0.1, t=t, samples=samples, seed=5)
        assert len(sets) == 2 * samples
        for earlier, later in zip(sets[::2], sets[1::2]):
            assert 1 <= len(later) == len(earlier) <= MAX_SET_SIZE
            assert len(set(later)) == len(later) and all(1 <= b < t for b in later)
            assert all(a <= b for a, b in zip(earlier, later))
            assert all(a < a2 for a, a2 in zip(earlier, earlier[1:]))
        assert verify_exchange_inequalities(0.9, 0.1, t=t, samples=samples, seed=5) == first

    def test_exchange_identical_sets_tie(self, monkeypatch):
        # a sampler whose every earlier set is its later set, of the largest
        # size, makes each dominating pair a tie: slack 0
        def ties(getrandbits, t, samples):
            rng = random.Random(getrandbits(32))
            for _ in range(samples):
                later = sorted(rng.sample(range(1, t), MAX_SET_SIZE))
                yield list(later), later

        pairs = []
        add = _SlackTracker.add

        def record(tracker, slack, describe, *args, **kwargs):
            if args[0].startswith("dominate"):
                pairs.append((slack, *args))
            return add(tracker, slack, describe, *args, **kwargs)

        monkeypatch.setattr(oracle, "_dominating_pairs", ties)
        monkeypatch.setattr(_SlackTracker, "add", record)
        rep = verify_exchange_inequalities(0.9, 0.1, t=20, samples=40, seed=3)
        assert rep.passed and rep.violations == 0
        assert len(pairs) == 2 * 40
        for slack, _, earlier, later in pairs:
            assert earlier == later and len(later) == MAX_SET_SIZE
            assert slack == 0.0


def _dense_values(sys, received):
    """Var(u_t | .), Var(s_t | .) and Var(s_t | ., u_t) by the dense Schur path."""
    given = [("u", i) for i in received] + [("s", -1)]
    return (
        conditional_variance(sys, ("u", sys.t), given),
        conditional_variance(sys, ("s", sys.t), given),
        conditional_variance(sys, ("s", sys.t), given + [("u", sys.t)]),
    )


def _filter_values(filt, pred):
    return pred + filt.s2, pred, filt.mmse(pred)


@pytest.mark.needs_numpy
class TestFilterAgainstDense:
    """The scalar filter behind the checks against the dense Schur complement."""

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("s2", [1e-6, 0.1, 1.0])
    @pytest.mark.parametrize("B,L", [(1, 2), (2, 3), (3, 2)])
    def test_every_multi_burst_pattern(self, rho, s2, B, L):
        t_max = 12
        filt = _Filter(rho, s2)
        walked = {t: [] for t in range(1, t_max + 1)}
        for t, runs, pred in _walk_multi_burst(filt, B, L, t_max):
            walked[t].append((runs, pred))
        for t, layouts in walked.items():
            sys = GaussianSystem(rho, s2, t)
            pats = enumerate_multi_burst(t, B, L)
            assert [p.received for p in pats] == [tuple(_received(t, runs)) for runs, _ in layouts]
            for pat, (_, pred) in zip(pats, layouts):
                want = _dense_values(sys, pat.received)
                got = _filter_values(filt, pred)
                assert np.allclose(got, want, rtol=0, atol=1e-12)
                assert filt.rate(pred) == pytest.approx(decode_rate(sys, pat), abs=1e-12)

    @pytest.mark.parametrize("rho,s2", [(0.5, 1.0), (0.9, 0.1), (0.9, 1e-6), (0.99, 0.05)])
    def test_every_single_burst(self, rho, s2):
        filt = _Filter(rho, s2)
        for t in range(13):
            sys = GaussianSystem(rho, s2, t)
            for length in range(t + 1):
                for offset in range(t - length + 1):
                    pat = ErasurePattern.single_burst(t, length, offset)
                    pred = filt.predicted(t, pat.received)
                    assert np.allclose(_filter_values(filt, pred), _dense_values(sys, pat.received), rtol=0, atol=1e-12)

    def test_seeded_exchange_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            rho, s2 = float(rng.uniform(0.3, 0.99)), float(rng.choice([0.0, 1e-4, 0.1, 2.0]))
            t = int(rng.integers(1, 25))
            received = sorted(rng.choice(t, size=int(rng.integers(0, t + 1)), replace=False).tolist())
            filt = _Filter(rho, s2)
            sys = GaussianSystem(rho, s2, t)
            got = _filter_values(filt, filt.predicted(t, received))
            assert np.allclose(got, _dense_values(sys, received), rtol=0, atol=1e-12)


def _dense_multi_report(rho, s2, B, L, t_max):
    """The multi-burst check written directly on the dense decode quantities."""
    checks = violations = 0
    min_slack = math.inf
    details = {"rho": rho, "sigma_z2": s2, "B": B, "L": L, "t_max": t_max}
    prev = None
    for t in range(1, t_max + 1):
        sys = GaussianSystem(rho, s2, t)
        star = worst_multi_burst(t, B, L)
        star_vals = (decode_rate(sys, star), decode_mmse(sys, star))
        best = [(-math.inf, None), (-math.inf, None)]
        slacks = []
        pats = enumerate_multi_burst(t, B, L)
        for pat in pats:
            vals = (decode_rate(sys, pat), decode_mmse(sys, pat))
            for side in (0, 1):
                if vals[side] > best[side][0]:
                    best[side] = (vals[side], pat)
            if pat.received != star.received:
                slacks += [star_vals[0] - vals[0], star_vals[1] - vals[1]]
        if prev is not None:
            slacks += [star_vals[0] - prev[0], star_vals[1] - prev[1]]
        prev = star_vals
        for slack in slacks:
            checks += 1
            violations += slack < -1e-12
            min_slack = min(min_slack, slack)
        details[f"t{t}"] = {
            "patterns": len(pats),
            "star_received": list(star.received),
            "argmax_rate_received": list(best[0][1].received),
            "argmax_mmse_received": list(best[1][1].received),
        }
    return violations == 0, checks, violations, min_slack, details


@pytest.mark.needs_numpy
@pytest.mark.parametrize(
    "rho,s2,B,L,t_max",
    [
        (0.9, 0.1, 2, 3, 14),
        (0.7, 0.3, 1, 2, 12),
        (0.8, 0.5, 3, 2, 10),
        (0.9, 0.1, 0, 2, 6),
        (0.9, 0.1, 2, 14, 14),  # one burst: the single-burst check
        (0.5, 1e-3, 4, 12, 12),
    ],
)
def test_multi_burst_report_matches_dense_reference(rho, s2, B, L, t_max):
    """Same report as the dense loop.  The configurations keep distinct
    patterns apart by more than rounding: where two patterns' values agree
    to double precision (low rho, or sigma_z2 near 0), the first-max argmax
    follows rounding noise and may pick a different tied pattern."""
    passed, checks, violations, min_slack, details = _dense_multi_report(rho, s2, B, L, t_max)
    rep = verify_multi_burst_worst_case(rho, s2, B, L, t_max)
    assert (rep.passed, rep.checks, rep.violations) == (passed, checks, violations)
    assert rep.details == details
    assert rep.min_slack == pytest.approx(min_slack, abs=1e-12)


def test_multi_burst_long_horizon():
    """t_max = 24 passes, and ties go to the star.  From t = 22 on other
    patterns differ from the star only by erasures of the oldest slots,
    whose effect is below double precision, so their values equal the
    star's exactly (slack 0.0, not a violation); the first maximum in
    enumeration order is then such a pattern, yet the argmax is the star.
    By then the star's own requirement has converged, and the monotone check
    sees differences of rounding size, well inside the tolerance."""
    rep = verify_multi_burst_worst_case(0.9, 0.1, B=2, L=3, t_max=24)
    assert rep.passed and rep.violations == 0
    assert rep.min_slack > -1e-15
    for t in range(1, 25):
        info = rep.details[f"t{t}"]
        assert info["argmax_rate_received"] == info["star_received"]
        assert info["argmax_mmse_received"] == info["star_received"]
    filt = _Filter(0.9, 0.1)
    star = rep.details["t22"]["star_received"]
    best_runs, best = None, -math.inf
    for t, runs, pred in _walk_multi_burst(filt, 2, 3, 22):
        if t == 22 and filt.rate(pred) > best:
            best_runs, best = runs, filt.rate(pred)
    assert _received(22, best_runs) != star
    assert best == filt.rate(filt.predicted(22, star))


@settings(max_examples=100, deadline=None)
@given(
    rho=st.floats(0.05, 0.99),
    s2=st.floats(1e-4, 2.0),
    B=st.integers(0, 4),
    L=st.integers(1, 16),  # past t_max too, where the DP merges every closed run's guard states
    t_max=st.integers(1, 14),
)
def test_dp_top_two_equals_walk(rho, s2, B, L, t_max):
    """Per horizon the DP's pattern count equals the walk's, and each of its
    two entries is a distinct pattern whose filter run gives the entry's
    value.  Its two values equal the walk's two largest, except where
    rounding breaks the filter's monotonicity (see the next test): then they
    are real values at most 2 ulps below."""
    filt = _Filter(rho, s2)
    walked = {t: [] for t in range(1, t_max + 1)}
    for t, _, pred in _walk_multi_burst(filt, B, L, t_max):
        walked[t].append(pred)
    for t, patterns, top in _multi_burst_tops(filt, B, L, t_max):
        assert patterns == len(walked[t])
        preds = [filt.predict(p) for p, _, _ in top]
        kept = [_path_received(t, entry) for entry in top]
        assert len(kept) == min(2, patterns) and len({tuple(r) for r in kept}) == len(kept)
        for received, pred in zip(kept, preds):
            ErasurePattern.multi_burst(t, tuple(received), B, L)
            assert reference_predicted(filt, t, received) == pred
        for got, want in zip(preds, sorted(walked[t], reverse=True)[:2]):
            assert want - 2 * math.ulp(want) <= got <= want


def test_dp_rounding_limit():
    """The monotonicity behind the DP is exact in real arithmetic only: here
    (found by fuzzing the DP against the walk) the update rounds two nearly
    equal prefixes into the other order, so at t = 8 the second value the DP
    keeps is one ulp below the walk's.  The reported slack moves by that ulp,
    far inside SLACK_TOL, and the report still passes."""
    rho, s2 = 0.9856578503856197, 7.790346067651549e-05
    filt = _Filter(rho, s2)
    walked = sorted(pred for t, _, pred in _walk_multi_burst(filt, 1, 3, 8) if t == 8)[::-1][:2]
    (_, _, top), = [step for step in _multi_burst_tops(filt, 1, 3, 8) if step[0] == 8]
    preds = [filt.predict(p) for p, _, _ in top]
    assert preds[0] == walked[0]
    assert preds[1] == walked[1] - math.ulp(walked[1])
    assert verify_multi_burst_worst_case(rho, s2, 1, 3, 8).passed


def _walk_multi_report(rho, s2, B, L, t_max):
    """The multi-burst report from the enumeration of every pattern, with the
    rules of the check: each non-star pattern is one check per side, each
    failing (horizon, side) one violation, and ties go to the star, then to
    the first maximum in enumeration order."""
    filt = _Filter(rho, s2)
    walked = {t: [] for t in range(1, t_max + 1)}
    for t, runs, pred in _walk_multi_burst(filt, B, L, t_max):
        walked[t].append((_received(t, runs), pred))
    checks = violations = 0
    min_slack = math.inf
    details = {"rho": rho, "sigma_z2": s2, "B": B, "L": L, "t_max": t_max}
    prev = None
    for t in range(1, t_max + 1):
        star = list(worst_multi_burst(t, B, L).received)
        star_pred = reference_predicted(filt, t, star)
        row = {"patterns": len(walked[t]), "star_received": star}
        values = []
        for side, value in (("rate", filt.rate), ("mmse", filt.mmse)):
            star_value = value(star_pred)
            slacks = [star_value - value(pred) for received, pred in walked[t] if received != star]
            if slacks:
                checks += len(slacks)
                violations += not min(slacks) >= -oracle.SLACK_TOL
                min_slack = min(min_slack, *slacks)
            best_received, best = star, star_value
            for received, pred in walked[t]:
                if value(pred) > best:
                    best_received, best = received, value(pred)
            row[f"argmax_{side}_received"] = best_received
            values.append(star_value)
        if prev is not None:
            for now, before in zip(values, prev):
                checks += 1
                violations += not now - before >= -oracle.SLACK_TOL
                min_slack = min(min_slack, now - before)
        prev = values
        details[f"t{t}"] = row
    return violations == 0, checks, violations, min_slack, details


@pytest.mark.parametrize(
    "rho,s2,B,L,t_max",
    [
        (0.9, 0.1, 2, 3, 18),
        (0.7, 0.3, 1, 2, 16),
        (0.8, 0.5, 3, 2, 12),
        (0.5, 1e-3, 3, 1, 14),
        (0.3, 0.05, 2, 1, 14),
        (0.95, 2.0, 4, 1, 12),
        (0.9, 0.1, 0, 2, 6),
        (0.9, 0.1, 2, 14, 14),  # one burst: the single-burst check
        (0.5, 1e-3, 4, 12, 12),
    ],
)
@pytest.mark.parametrize("tol", [oracle.SLACK_TOL, -1.0], ids=["tol", "every-check-fails"])
def test_multi_burst_report_matches_walk(rho, s2, B, L, t_max, tol, monkeypatch):
    """The DP's report equals the one from enumerating every pattern.  With a
    tolerance of -1 every slack below 1 fails, so each (horizon, side) check
    and each monotone check counts one violation, and the notes say so."""
    monkeypatch.setattr(oracle, "SLACK_TOL", tol)
    rep = verify_multi_burst_worst_case(rho, s2, B, L, t_max)
    assert (rep.passed, rep.checks, rep.violations, rep.min_slack, rep.details) == _walk_multi_report(
        rho, s2, B, L, t_max
    )
    if tol < 0:
        multi = sum(rep.details[f"t{t}"]["patterns"] > 1 for t in range(1, t_max + 1))
        assert rep.violations == 2 * multi + 2 * (t_max - 1)
        assert any("(horizon, side)" in note for note in rep.notes)
    else:
        assert rep.passed and rep.notes == []


def test_multi_burst_counts_at_the_cap():
    """At L = 1 with B >= t every subset of slots is a pattern: 2^t of them,
    counted exactly at every horizon up to the cap."""
    rep = verify_multi_burst_worst_case(0.9, 0.1, B=ENUM_T_CAP, L=1, t_max=ENUM_T_CAP)
    assert rep.passed
    assert all(rep.details[f"t{t}"]["patterns"] == 2**t for t in range(1, ENUM_T_CAP + 1))
    assert rep.checks == sum(2 * (2**t - 1) for t in range(1, ENUM_T_CAP + 1)) + 2 * (ENUM_T_CAP - 1)


@pytest.mark.parametrize("B,L", [(0, 1), (0, 3), (1, 1), (2, 3), (3, 1), (4, 2), (5, 5), (40, 1), (1, 40)])
def test_stars_equal_worst_multi_burst(B, L):
    filt = _Filter(0.7, 0.3)
    received, preds = _stars(filt, B, L, 30)
    for t in range(31):
        star = worst_multi_burst(t, B, L).received
        assert received[t] == list(star)
        assert preds[t] == reference_predicted(filt, t, star)


def _rebuilt_burst_preds(filt, t_max, B):
    """The table of `_burst_preds`, each value from a filter run over its whole pattern."""
    return [
        [
            [reference_predicted(filt, t, ErasurePattern.single_burst(t, bl, k).received)
             for k in range(t - bl + 1 if bl else 1)]
            if t >= bl else []
            for t in range(t_max + 1)
        ]
        for bl in range(B + 1)
    ]


@pytest.mark.needs_numpy
@pytest.mark.parametrize("seed", range(6))
def test_single_and_exchange_reports_equal_pattern_rebuild(seed, monkeypatch):
    """Seeded configurations: the single-burst tables and the exchange report
    equal those computed with every value rebuilt from its whole pattern.
    The single-burst report is the DP's, which the walk tests cover."""
    rng = np.random.default_rng(seed)
    rho, s2 = float(rng.uniform(0.05, 0.99)), float(rng.uniform(1e-4, 2.0))
    B = int(rng.integers(0, 5))
    t_max, t = int(rng.integers(B + 1, 21)), int(rng.integers(8, 21))

    def report():
        return verify_exchange_inequalities(rho, s2, t=t, samples=60, seed=seed)

    filt = _Filter(rho, s2)
    assert _burst_preds(filt, t_max, B) == _rebuilt_burst_preds(filt, t_max, B)
    got = report()
    monkeypatch.setattr(oracle, "_burst_preds", _rebuilt_burst_preds)
    monkeypatch.setattr(oracle._Filter, "predicted", reference_predicted)
    assert got == report()


_RHO = st.one_of(st.floats(0.05, 0.99), st.floats(2.0, 6.0).map(lambda e: 1.0 - 10.0**-e))
_NOISE = st.floats(-3.0, 1.0).map(lambda e: 10.0**e)


@settings(max_examples=100, deadline=None)
@given(rho=_RHO, s2=_NOISE, B_t=st.integers(0, 6).flatmap(lambda B: st.tuples(st.just(B), st.integers(B + 1, 40))))
@example(rho=0.9, s2=0.1, B_t=(0, 1))
def test_single_burst_report_is_the_dp_with_one_burst(rho, s2, B_t):
    """The single-burst report is the multi-burst one at the guard L = t_max,
    under its own name and without L."""
    B, t_max = B_t
    single = verify_single_burst_worst_case(rho, s2, B, t_max).to_dict()
    multi = verify_multi_burst_worst_case(rho, s2, B, t_max, t_max).to_dict()
    assert single.pop("name") == "single-burst-worst-case"
    assert multi.pop("name") == "multi-burst-worst-case"
    assert multi["details"].pop("L") == t_max
    assert single == multi


@settings(max_examples=100, deadline=None)
@given(rho=_RHO, s2=_NOISE, B=st.integers(0, 6), L=st.integers(1, 45), t_max=st.integers(1, 40))
@example(rho=0.9, s2=0.1, B=3, L=40, t_max=40)  # tied patterns from t = 22 on
@example(rho=0.9, s2=0.1, B=2, L=3, t_max=40)
def test_merged_dp_reports_equal_unmerged_reference(rho, s2, B, L, t_max):
    """The DP that merges the guard states which can no longer reach a full
    guard gives, per horizon, the count and top entries of the DP with one
    state per guard length, so the multi-burst report at L, and the
    single-burst report where t_max > B, are the reference's byte for byte,
    tie-breaks included."""
    filt = _Filter(rho, s2)
    assert list(_multi_burst_tops(filt, B, L, t_max)) == list(reference_multi_burst_tops(filt, B, L, t_max))
    got = verify_multi_burst_worst_case(rho, s2, B, L, t_max).to_json()
    assert got == reference_worst_case_report(rho, s2, B, L, t_max).to_json()
    if t_max > B:
        got = verify_single_burst_worst_case(rho, s2, B, t_max).to_json()
        assert got == reference_worst_case_report(rho, s2, B, L, t_max, single=True).to_json()


@settings(max_examples=100, deadline=None)
@given(rho=_RHO, s2=_NOISE, B=st.integers(1, 6), t_max=st.integers(1, 30))
def test_offset_zero_is_the_worst_burst_of_each_length(rho, s2, B, t_max):
    """For every burst length bl <= B, the burst ending right before t is
    the worst of length bl, on the rate and the MMSE side.  The single-burst
    check covers only the longest bursts; this covers the shorter ones."""
    filt = _Filter(rho, s2)
    preds = _burst_preds(filt, t_max, B)
    for bl in range(1, B + 1):
        for t in range(bl, t_max + 1):
            worst = preds[bl][t][0]
            for moved in preds[bl][t][1:]:
                assert filt.rate(worst) - filt.rate(moved) >= -oracle.SLACK_TOL
                assert filt.mmse(worst) - filt.mmse(moved) >= -oracle.SLACK_TOL


class TestExchangeDrawsAndRuns:
    """The exchange check's `getrandbits` draws and run-form filter against
    the `random.Random` calls and the per-slot loop they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), t=st.integers(8, 30), samples=st.integers(0, 300))
    def test_pairs_equal_reference(self, seed, t, samples):
        got = list(oracle._dominating_pairs(random.Random(seed).getrandbits, t, samples))
        assert got == reference_dominating_pairs(seed, t, samples)

    @pytest.mark.parametrize("t", [8, 22, 23, 30])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_pairs_equal_reference_in_both_sample_branches(self, t, seed):
        # `sample` draws a set of r <= 5 from a pool up to t = 22 and into a
        # set from t = 23; a set of 6 always comes from the pool.  In 300
        # draws every size occurs (a size is missing with probability about 1e-23)
        pairs = list(oracle._dominating_pairs(random.Random(seed).getrandbits, t, 300))
        assert pairs == reference_dominating_pairs(seed, t, 300)
        assert {len(later) for _, later in pairs} == set(range(1, MAX_SET_SIZE + 1))

    @settings(max_examples=100, deadline=None)
    @given(
        rho=st.floats(0.01, 0.999),
        s2=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        queries=st.lists(st.integers(0, 30).flatmap(
            lambda t: st.tuples(st.just(t), st.sets(st.integers(0, max(0, t - 1))).map(sorted))
            if t else st.just((0, []))), min_size=1, max_size=6),
    )
    @example(rho=0.9, s2=0.0, queries=[(0, []), (20, []), (20, [0]), (20, [19]), (1, [0])])
    @example(rho=0.5, s2=0.1, queries=[(30, [29]), (0, []), (5, [0, 1, 2, 3, 4])])
    def test_predicted_equals_reference_bit_for_bit(self, rho, s2, queries):
        # one filter serves every query, so its predict-only prefix is grown
        # by one query and read by the next
        filt = _Filter(rho, s2)
        for t, received in queries:
            assert filt.predicted(t, received).hex() == reference_predicted(filt, t, received).hex()

    @settings(max_examples=60, deadline=None)
    @given(
        rho=st.floats(0.01, 0.999),
        s2=st.floats(1e-3, 10.0),
        t=st.integers(8, 30),
        samples=st.integers(0, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_report_equals_reference(self, rho, s2, t, samples, seed):
        got = verify_exchange_inequalities(rho, s2, t=t, samples=samples, seed=seed)
        assert got.to_dict() == reference_exchange_report(rho, s2, t=t, samples=samples, seed=seed).to_dict()


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(0.3, 0.95),
    B=st.integers(1, 4),
    L=st.integers(1, 6),
    D=st.floats(0.01, 0.9),
)
def test_multi_burst_worst_case_within_printed_upper_multi(rho, B, L, D):
    """At the channel that `rate_upper_multi` solves, the largest rate over
    every guard-respecting pattern stays within the printed upper_multi, and
    its MMSE within D, at every horizon up to 300 (seen at most 1.6e-15 over
    in a 600-configuration probe)."""
    cfg = GmConfig(rho=rho, B=B, D=D, L=L)
    bound = compute_bounds(cfg).upper_multi
    _, tc = rate_upper_multi(cfg)
    filt = _Filter(rho, tc.sigma_z2)
    for _, _, top in _multi_burst_tops(filt, B, L, 300):
        pred = filt.predict(top[0][0])
        assert filt.rate(pred) <= bound + 1e-12
        assert filt.mmse(pred) <= D + 1e-12


class TestCheckValidation:
    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.5, 1.5])
    def test_rho_outside_unit_interval(self, rho):
        with pytest.raises(ValidationError):
            verify_single_burst_worst_case(rho, 0.1, B=1, t_max=4)
        with pytest.raises(ValidationError):
            verify_multi_burst_worst_case(rho, 0.1, B=1, L=2, t_max=4)
        with pytest.raises(ValidationError):
            verify_exchange_inequalities(rho, 0.1, t=10, samples=5)

    def test_noise(self):
        with pytest.raises(ValidationError):
            verify_exchange_inequalities(0.9, -0.1, t=10, samples=5)
        assert verify_exchange_inequalities(0.9, 0.0, t=10, samples=5).passed
        for s2 in (0.0, -0.1):
            with pytest.raises(ValidationError):
                verify_single_burst_worst_case(0.9, s2, B=1, t_max=4)
            with pytest.raises(ValidationError):
                verify_multi_burst_worst_case(0.9, s2, B=1, L=2, t_max=4)

    @pytest.mark.parametrize("s2", [float("nan"), float("inf")])
    def test_non_finite_noise(self, s2):
        with pytest.raises(ValidationError):
            verify_single_burst_worst_case(0.9, s2, B=1, t_max=4)
        with pytest.raises(ValidationError):
            verify_multi_burst_worst_case(0.9, s2, B=1, L=2, t_max=4)
        with pytest.raises(ValidationError):
            verify_exchange_inequalities(0.9, s2, t=10, samples=5)

    def test_negative_samples(self):
        with pytest.raises(ValidationError):
            verify_exchange_inequalities(0.9, 0.1, t=10, samples=-1)

    def test_nan_slack_is_a_violation(self):
        track = _SlackTracker()
        track.add(0.5, dict)
        track.add(float("nan"), dict)
        report = track.report("nan")
        assert report.violations == 1 and not report.passed

    def test_horizons_and_sizes(self):
        with pytest.raises(ValidationError):
            verify_multi_burst_worst_case(0.9, 0.1, B=1, L=2, t_max=ENUM_T_CAP + 1)
        with pytest.raises(ValidationError):
            enumerate_multi_burst(23, 1, 2)
        with pytest.raises(ValidationError):
            verify_single_burst_worst_case(0.9, 0.1, B=3, t_max=3)
        with pytest.raises(ValidationError):
            verify_exchange_inequalities(0.9, 0.1, t=31)
        with pytest.raises(ValidationError):
            verify_exchange_inequalities(0.9, 0.1, t=7)
        for B, L in ((-1, 2), (2, 0)):
            with pytest.raises(ValidationError):
                verify_multi_burst_worst_case(0.9, 0.1, B=B, L=L, t_max=6)
