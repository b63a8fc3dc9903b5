import math

import pytest

np = pytest.importorskip("numpy")  # streamrate.sim runs on numpy

from streamrate import (
    BinningConfig,
    ErasurePattern,
    GaussianSystem,
    GmConfig,
    SimConfig,
    ValidationError,
    decode_mmse,
    sim,
    simulate_binning,
    simulate_gm_stream,
    solve_test_channel_single,
    sweep_burst_position,
)


def hb(q: float) -> float:
    return -q * math.log2(q) - (1 - q) * math.log2(1 - q)


class TestSimConfig:
    def test_overlapping_bursts_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(rho=0.9, sigma_z2=0.1, horizon=20, trials=10, seed=0, bursts=((3, 4), (5, 2)))

    def test_burst_outside_horizon_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(rho=0.9, sigma_z2=0.1, horizon=10, trials=10, seed=0, bursts=((8, 5),))

    def test_horizon_cap(self):
        with pytest.raises(ValidationError):
            SimConfig(rho=0.9, sigma_z2=0.1, horizon=10**4 + 1, trials=1, seed=0)

    @pytest.mark.parametrize("sigma_z2", [math.nan, math.inf])
    def test_non_finite_noise_rejected(self, sigma_z2):
        with pytest.raises(ValidationError):
            SimConfig(rho=0.9, sigma_z2=sigma_z2, horizon=10, trials=1, seed=0)


class TestGmStream:
    def test_deterministic(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=30, trials=500, seed=7, bursts=((10, 2),))
        a = simulate_gm_stream(cfg)
        b = simulate_gm_stream(cfg)
        assert np.array_equal(a.mse, b.mse)
        assert np.array_equal(a.stderr, b.stderr)

    def test_filter_trace_matches_conditioning_oracle(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.25, horizon=16, trials=2, seed=1, bursts=((6, 3),))
        res = simulate_gm_stream(cfg)
        erased = set(range(6, 9))
        for t in (0, 3, 9, 12, 15):
            sys = GaussianSystem(0.9, 0.25, t)
            received = tuple(i for i in range(t) if i not in erased)
            if t in erased:
                continue
            pat = ErasurePattern(t, received)
            assert res.exact_mmse[t] == pytest.approx(decode_mmse(sys, pat), abs=1e-12)

    def test_no_erasure_steady_state(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.1, horizon=60, trials=40000, seed=3)
        res = simulate_gm_stream(cfg)
        for t in (20, 40, 59):
            assert abs(res.mse[t] - res.exact_mmse[t]) <= 3 * res.stderr[t]

    def test_useless_channel_gives_prior_variance(self):
        cfg = SimConfig(rho=0.9, sigma_z2=1e8, horizon=40, trials=20000, seed=5)
        res = simulate_gm_stream(cfg)
        assert abs(res.mse[30] - 1.0) <= 3 * res.stderr[30]

    def test_post_burst_distortion_hits_target(self):
        gm_cfg = GmConfig(rho=0.9, B=1, D=0.2)
        tc = solve_test_channel_single(gm_cfg)
        cfg = SimConfig(
            rho=0.9, sigma_z2=tc.sigma_z2, horizon=50, trials=30000, seed=11, bursts=((48, 1),)
        )
        res = simulate_gm_stream(cfg)
        assert abs(res.mse[49] - 0.2) <= 3 * res.stderr[49]

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_update_chunk_does_not_change_results(self, monkeypatch, chunk):
        # the filter update is elementwise, so its scratch length is free
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=30, trials=64, seed=9, bursts=((20, 3),))
        whole = simulate_gm_stream(cfg)
        sweep = sweep_burst_position(cfg, B=2)
        monkeypatch.setattr(sim, "UPDATE_CHUNK", chunk)
        chunked = simulate_gm_stream(cfg)
        for field in ("mse", "stderr", "exact_mmse"):
            assert np.array_equal(getattr(chunked, field), getattr(whole, field))
        assert sweep_burst_position(cfg, B=2) == sweep

    def test_never_statistically_below_exact(self):
        # estimator optimality: empirical error cannot undershoot the MMSE
        for bursts in ((), ((12, 2),)):
            cfg = SimConfig(
                rho=0.85, sigma_z2=0.3, horizon=40, trials=20000, seed=13, bursts=bursts
            )
            res = simulate_gm_stream(cfg)
            assert np.all(res.mse >= res.exact_mmse - 4 * res.stderr)


class TestStreamStats:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 4097, 100000])
    def test_equals_mean_and_std(self, n):
        # the reduction made in place in the observation lane is numpy's own, bit for bit
        rng = np.random.default_rng(n)
        stream = sim._Stream(SimConfig(rho=0.9, sigma_z2=0.2, horizon=1, trials=n, seed=0))
        stream.s[...] = rng.standard_normal(n)
        mean = rng.standard_normal(n) * 0.3 + stream.s
        sq = (stream.s - mean) ** 2
        mse, stderr = stream.stats(mean)
        assert mse == float(sq.mean())
        assert stderr == (float(sq.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0)


class TestBurstPositionSweep:
    def test_worst_position_is_adjacent(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=31, trials=8000, seed=17)
        rep = sweep_burst_position(cfg, B=2, decode_time=30, offsets=range(0, 11))
        assert rep.passed
        assert rep.exact[0] == max(rep.exact)
        assert all(b <= a + 1e-12 for a, b in zip(rep.exact, rep.exact[1:]))

    def test_longer_burst_hurts_more(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=31, trials=4000, seed=19)
        one = sweep_burst_position(cfg, B=1, decode_time=30, offsets=(0,))
        two = sweep_burst_position(cfg, B=2, decode_time=30, offsets=(0,))
        assert two.exact[0] > one.exact[0]

    @pytest.mark.parametrize(
        "trials, B, decode_time, offsets",
        [
            (1, 1, None, None),
            (1, 3, 15, None),
            (7, 2, None, (4, 0, 9, 0, 4)),
            (7, 4, 12, (8, 1, 3)),
            (64, 5, 20, None),
            (64, 5, 9, (4, 0, 2)),
            # groups of SWEEP_LANES starts: 2, 4 and 7 distinct offsets leave
            # a partial group
            (5, 2, None, (1, 0, 1)),
            (5, 2, None, (3, 0, 1, 2)),
            (5, 1, 18, tuple(range(7))),
            (9, 2, 21, (0, 5, 9)),  # one group of starts 4 and 5 slots apart
            (9, 6, 21, (0, 2, 4, 1)),  # each burst outlasts the gap to the next start
            (1, 4, 21, (0, 3, 6, 9, 12)),
        ],
    )
    def test_equals_per_offset_runs(self, trials, B, decode_time, offsets):
        # seed contract: the sweep replays the runs one burst at a time would
        # make, so the comparison is exact
        cfg = SimConfig(rho=0.87, sigma_z2=0.3, horizon=22, trials=trials, seed=101)
        rep = sweep_burst_position(cfg, B=B, decode_time=decode_time, offsets=offsets)
        t = rep.decode_time
        expected = tuple(range(0, min(10, t - B) + 1)) if offsets is None else offsets
        assert rep.offsets == expected
        for i, k in enumerate(rep.offsets):
            run = SimConfig(
                rho=cfg.rho, sigma_z2=cfg.sigma_z2, horizon=cfg.horizon, trials=trials,
                seed=cfg.seed, bursts=((t - B - k, B),),
            )
            res = simulate_gm_stream(run)
            assert rep.empirical[i] == float(res.mse[t])
            assert rep.stderr[i] == float(res.stderr[t])
            assert rep.exact[i] == float(res.exact_mmse[t])

    def test_replays_share_the_source_draws(self, monkeypatch):
        # at decode time 49 with B = 2, the 11 starts 37..47 take three
        # replays of three lanes and one of two: 37 slots to the first start
        # and 13 + 10 + 7 + 4 replayed, 71 slot steps of two draws each after
        # the pre-stream state (one replay per start took 135)
        calls = []

        class CountingGenerator:
            def __init__(self, rng):
                self.rng = rng
                self.bit_generator = rng.bit_generator

            def standard_normal(self, *args, **kwargs):
                calls.append(1)
                return self.rng.standard_normal(*args, **kwargs)

        philox = sim._philox
        monkeypatch.setattr(sim, "_philox", lambda seed: CountingGenerator(philox(seed)))
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=50, trials=4, seed=5)
        rep = sweep_burst_position(cfg, B=2, decode_time=49)
        assert rep.offsets == tuple(range(11))
        assert len(calls) == 1 + 2 * 71

    def test_config_bursts_ignored(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=20, trials=50, seed=3)
        with_burst = SimConfig(
            rho=0.9, sigma_z2=0.2, horizon=20, trials=50, seed=3, bursts=((2, 3),)
        )
        assert sweep_burst_position(cfg, B=2) == sweep_burst_position(with_burst, B=2)

    @pytest.mark.parametrize("decode_time, offsets", [(1, None), (10, ())])
    def test_empty_offset_set_rejected(self, decode_time, offsets):
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=20, trials=10, seed=0)
        with pytest.raises(ValidationError):
            sweep_burst_position(cfg, B=2, decode_time=decode_time, offsets=offsets)

    def test_burst_at_stream_start_is_mildest(self):
        cfg = SimConfig(rho=0.9, sigma_z2=0.2, horizon=25, trials=2000, seed=23)
        t = 24
        B = 2
        rep = sweep_burst_position(cfg, B=B, decode_time=t, offsets=(0, 5, t - B))
        assert rep.exact[-1] == min(rep.exact)


class TestBinning:
    def test_deterministic(self):
        cfg = BinningConfig(n=10, q=0.1, rate=0.8, trials=4000, seed=29)
        assert simulate_binning(cfg).p_hat == simulate_binning(cfg).p_hat

    def test_full_rate_is_lossless(self):
        for q in (0.1, 0.3):
            cfg = BinningConfig(n=8, q=q, rate=1.0, trials=4000, seed=31)
            assert simulate_binning(cfg).errors == 0

    def test_error_decreases_with_block_length(self):
        for q in (0.05, 0.1):
            rate = hb(q) + 0.3
            ps = []
            for n in (8, 16):
                cfg = BinningConfig(n=n, q=q, rate=rate, trials=20000, seed=37)
                ps.append(simulate_binning(cfg).p_hat)
            assert ps[1] < ps[0]
        # q = 0.2 would push the rate past one bit per symbol, the cap: bins
        # become singletons and both error rates are exactly zero
        rate = min(hb(0.2) + 0.3, 1.0)
        ps = []
        for n in (8, 16):
            cfg = BinningConfig(n=n, q=0.2, rate=rate, trials=20000, seed=37)
            ps.append(simulate_binning(cfg).p_hat)
        assert ps[1] <= ps[0]

    def test_rate_below_entropy_fails(self):
        cfg = BinningConfig(n=16, q=0.1, rate=0.2, trials=4000, seed=41)
        assert simulate_binning(cfg).p_hat > 0.1

    def test_confidence_interval_brackets_estimate(self):
        res = simulate_binning(BinningConfig(n=8, q=0.1, rate=0.7, trials=5000, seed=43))
        assert res.ci_low <= res.p_hat <= res.ci_high

    @pytest.mark.parametrize(
        "n, q, rate, trials, seed, errors",
        [
            (16, 0.1, 0.77, 20000, 5, 796),  # the benchmark's shape: one chunk of 20000 x 13
            (16, 0.1, 0.0, 300, 2, 248),  # one bin of 2^16: 75 chunks of 4 trials
            (12, 0.6, 0.5, 3000, 1, 2813),  # q > 1/2: the farthest member is decoded
        ],
    )
    def test_errors_are_frozen(self, n, q, rate, trials, seed, errors):
        # the Philox seed contract: error counts of the unchunked decoder
        assert simulate_binning(BinningConfig(n=n, q=q, rate=rate, trials=trials, seed=seed)).errors == errors

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        cfg = BinningConfig(n=10, q=0.08, rate=0.6, trials=3001, seed=47)
        whole = simulate_binning(cfg)
        monkeypatch.setattr(sim, "DECODE_CHUNK", 1)  # one trial per chunk
        assert simulate_binning(cfg) == whole

    def test_validation(self):
        with pytest.raises(ValidationError):
            BinningConfig(n=17, q=0.1, rate=0.5, trials=10, seed=0)
        with pytest.raises(ValidationError):
            BinningConfig(n=8, q=0.1, rate=-1.0, trials=10, seed=0)
        with pytest.raises(ValidationError):
            BinningConfig(n=8, q=1.0, rate=0.5, trials=10, seed=0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 1.0 + 1e-9, 5.0])
    def test_rate_must_be_finite_and_at_most_one_bit(self, rate):
        with pytest.raises(ValidationError):
            BinningConfig(n=16, q=0.1, rate=rate, trials=10, seed=0)
