import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrate import (
    DistortionVector,
    ValidationError,
    baseline_rates,
    layer_plan,
    rate_recovery,
    reduce_window,
)
from conftest import numpy_or_none
from oracles import decodability_check

np = numpy_or_none()

FIG_D = DistortionVector((0.1, 0.25, 0.4, 0.55, 0.7, 0.85))


def half_log2_inv(x: float) -> float:
    return 0.5 * math.log2(1.0 / x)


def random_distortions(rng, K: int) -> DistortionVector:
    vals = np.sort(rng.uniform(0.02, 1.0, size=K + 1))
    return DistortionVector(tuple(vals))


class TestDistortionVector:
    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError):
            DistortionVector((0.2, 0.1))

    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            DistortionVector((0.0, 0.5))
        with pytest.raises(ValidationError):
            DistortionVector((0.5, 1.2))
        # NaN fails every comparison, so each entry is checked against (0, 1]
        for values in ((float("nan"), 0.2), (0.2, float("nan"), 0.5), (0.2, float("inf"))):
            with pytest.raises(ValidationError):
                DistortionVector(values)

    def test_plateaus_allowed(self):
        d = DistortionVector((0.3, 0.3, 0.3))
        assert d.K == 2


class TestReduceWindow:
    def test_pads_with_unit_distortion(self):
        d = DistortionVector((0.1, 0.2, 0.3))
        eff = reduce_window(d, 2, 2)
        assert eff.values == (0.1, 0.2, 0.3, 1.0, 1.0)

    def test_identity_when_matched(self):
        eff = reduce_window(FIG_D, 3, 2)
        assert eff.values == FIG_D.values

    @pytest.mark.needs_numpy
    def test_truncation_preserves_rate(self):
        rng = np.random.default_rng(2)
        d = random_distortions(rng, 8)
        eff = reduce_window(d, 2, 1)
        assert eff.K == 3
        assert rate_recovery(eff, 2, 1) == pytest.approx(rate_recovery(d, 2, 1), abs=1e-12)


class TestRateRecovery:
    def test_reference_w0(self):
        # longhand: (1/2) log2(10) + (1/2) log2(4) + (1/2) log2(2.5)
        expected = half_log2_inv(0.1) + half_log2_inv(0.25) + half_log2_inv(0.4)
        assert rate_recovery(FIG_D, 2, 0) == pytest.approx(expected, abs=1e-12)
        assert rate_recovery(FIG_D, 2, 0) == pytest.approx(3.3219, abs=1e-4)

    def test_reference_w1(self):
        expected = half_log2_inv(0.1) + 0.5 * (half_log2_inv(0.4) + half_log2_inv(0.55))
        assert rate_recovery(FIG_D, 2, 1) == pytest.approx(expected, abs=1e-12)
        assert rate_recovery(FIG_D, 2, 1) == pytest.approx(2.207070190228038, abs=1e-12)

    def test_unit_distortions_are_free(self):
        assert rate_recovery(DistortionVector((1.0, 1.0, 1.0)), 2, 1) == 0.0

    def test_window_larger_than_vector(self):
        d = DistortionVector((0.5, 0.6))
        # W beyond the vector leaves only the fresh-source term
        assert rate_recovery(d, 2, 4) == pytest.approx(half_log2_inv(0.5), abs=1e-12)

    @pytest.mark.needs_numpy
    def test_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = random_distortions(rng, int(rng.integers(1, 7)))
            B, W = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            base = rate_recovery(d, B, W)
            assert rate_recovery(d, B, W + 1) <= base + 1e-12
            assert rate_recovery(d, B + 1, W) >= base - 1e-12
            tighter = DistortionVector(tuple(v * 0.9 for v in d.values))
            assert rate_recovery(tighter, B, W) >= base - 1e-12


class TestLayerPlan:
    def test_reference_plan(self):
        plan = layer_plan(FIG_D, 2, 0)
        assert plan.cum_rates[0] == pytest.approx(half_log2_inv(0.1), abs=1e-12)
        assert plan.cum_rates[1] == pytest.approx(1.0, abs=1e-12)
        assert plan.cum_rates[2] == pytest.approx(half_log2_inv(0.4), abs=1e-12)
        assert plan.tilde_rates[0] == pytest.approx(0.5 * math.log2(0.25 / 0.1), abs=1e-12)

    def test_flat_vector_collapses_to_base_layer(self):
        d = DistortionVector((0.3, 0.3, 0.3, 0.3))
        plan = layer_plan(d, 2, 1)
        assert plan.tilde_rates[0] == pytest.approx(0.0, abs=1e-12)
        assert plan.tilde_rates[1] == pytest.approx(0.0, abs=1e-12)
        assert plan.tilde_rates[2] == pytest.approx(half_log2_inv(0.3), abs=1e-12)

    def test_no_refinement_layers(self):
        plan = layer_plan(DistortionVector((0.25,)), 0, 2)
        assert plan.tilde_rates == plan.cum_rates
        assert plan.cum_rates[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.needs_numpy
    def test_amortized_identity_random_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = random_distortions(rng, int(rng.integers(0, 7)))
            B, W = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            plan = layer_plan(d, B, W)
            assert plan.amortized_rate == pytest.approx(rate_recovery(d, B, W), abs=1e-12)


class TestBaselines:
    def test_reference_values_w0(self):
        base = baseline_rates(FIG_D, 2, 0)
        expected_si = sum(half_log2_inv(v) for v in FIG_D.values)
        assert base.still_image == pytest.approx(expected_si, abs=1e-12)
        assert base.still_image == pytest.approx(4.1277, abs=1e-4)
        assert base.predictive_fec == pytest.approx(3 * half_log2_inv(0.1), abs=1e-12)
        assert base.predictive_fec == pytest.approx(4.9829, abs=1e-4)
        assert base.gop == pytest.approx(base.still_image, abs=1e-12)

    @pytest.mark.needs_numpy
    def test_delayed_side_info_matches_optimum_at_w0(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = random_distortions(rng, int(rng.integers(1, 7)))
            B = int(rng.integers(0, 4))
            assert baseline_rates(d, B, 0).wyner_ziv == pytest.approx(
                rate_recovery(d, B, 0), abs=1e-12
            )

    def test_unit_distortions(self):
        d = DistortionVector((1.0, 1.0))
        base = baseline_rates(d, 1, 1)
        assert base.still_image == base.wyner_ziv == base.predictive_fec == base.gop == 0.0

    @pytest.mark.needs_numpy
    def test_optimum_dominated_random_grid(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = random_distortions(rng, int(rng.integers(0, 7)))
            B, W = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            rate = rate_recovery(d, B, W)
            assert rate <= baseline_rates(d, B, W).minimum() + 1e-12


class TestDecodability:
    def test_no_erasure(self):
        rep = decodability_check(B=2, W=2, K=4, horizon=15, burst_start=0, burst_len=0)
        assert rep.passed and rep.joint_decodes == 0

    def test_burst_with_grace_window(self):
        rep = decodability_check(B=2, W=1, K=3, horizon=20, burst_start=5, burst_len=2)
        assert rep.passed
        assert rep.joint_decodes >= 1

    def test_burst_without_grace_window(self):
        rep = decodability_check(B=2, W=0, K=2, horizon=15, burst_start=6, burst_len=2)
        assert rep.passed

    def test_window_longer_than_layers(self):
        rep = decodability_check(B=1, W=0, K=6, horizon=25, burst_start=8, burst_len=1)
        assert rep.passed

    def test_geometry_validated(self):
        with pytest.raises(ValidationError):
            decodability_check(B=2, W=1, K=3, horizon=8, burst_start=5, burst_len=2)
        with pytest.raises(ValidationError):
            decodability_check(B=2, W=1, K=3, horizon=30, burst_start=5, burst_len=3)

    def test_sweep_small(self):
        for B in (1, 2):
            for W in (0, 1, 2):
                for K in (1, 2, 4):
                    for burst_len in range(1, B + 1):
                        for start in range(0, 24 - burst_len - W - K, 3):
                            rep = decodability_check(
                                B=B, W=W, K=K, horizon=24, burst_start=start, burst_len=burst_len
                            )
                            assert rep.passed, (B, W, K, start, burst_len, rep.first_failure)


@st.composite
def distortion_vectors(draw) -> DistortionVector:
    """Non-decreasing d of 1..8 entries, each a legal distortion."""
    values = draw(st.lists(st.floats(sys.float_info.min, 1.0), min_size=1, max_size=8))
    return DistortionVector(tuple(sorted(values)))


_window = st.integers(0, 4)


class TestRateProperties:
    def test_reciprocal_overflow_rejected(self):
        # 1/d is infinite below 2**-1024, which made every rate infinite
        for values in ((1e-310, 0.5), (5e-324,), (0.1, 1e-309)):
            with pytest.raises(ValidationError):
                DistortionVector(tuple(sorted(values)))

    @settings(max_examples=200, deadline=None)
    @given(distortion_vectors(), _window, _window)
    def test_rate_plan_and_baselines(self, d, B, W):
        rate = rate_recovery(d, B, W)
        assert math.isfinite(rate) and rate >= 0.0
        plan = layer_plan(d, B, W)
        assert plan.amortized_rate == pytest.approx(rate, rel=0, abs=1e-9)
        assert all(r >= 0.0 for r in plan.tilde_rates)
        assert all(b <= a for a, b in zip(plan.cum_rates, plan.cum_rates[1:]))
        assert baseline_rates(d, B, W).minimum() >= rate - 1e-9
        assert rate_recovery(d, B, W + 1) <= rate + 1e-12
        assert rate_recovery(d, B + 1, W) >= rate - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(distortion_vectors(), st.data(), _window, _window)
    def test_rate_does_not_rise_as_an_entry_grows(self, d, data, B, W):
        i = data.draw(st.integers(0, d.K))
        v = data.draw(st.floats(d[i], d[i + 1] if i < d.K else 1.0))
        grown = DistortionVector(d.values[:i] + (v,) + d.values[i + 1:])
        assert rate_recovery(grown, B, W) <= rate_recovery(d, B, W) + 1e-12
