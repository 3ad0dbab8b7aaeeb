"""Received-signal model, filter output decomposition, and the SIR estimator."""

import math

import numpy as np
import pytest

from echo_model import EchoScenario, mmf_output, simulate_received, simulate_trial
from phasecode.codes import as_code, lag_values, shifted
from phasecode.echo import _SIR_CHUNK, empirical_sir
from phasecode.fitness import matched_filter_scr, optimal_filter, scr
from reference import random_code


def quiet_scenario(n, h0=1.0):
    return EchoScenario(h0=h0, clutter_rcs=np.zeros(2 * n - 2))


class TestLagValues:
    def test_order_and_count(self):
        lags = lag_values(4)
        assert lags.tolist() == [-3, -2, -1, 1, 2, 3]

    def test_never_contains_zero(self):
        assert 0 not in lag_values(59)


class TestSimulateReceived:
    def test_clean_echo_returns_code(self):
        rng = np.random.default_rng(0)
        s = random_code(11, rng)
        y = simulate_received(s, quiet_scenario(11))
        assert np.array_equal(y, np.asarray(s, float))

    def test_single_clutter_bin(self):
        rng = np.random.default_rng(1)
        s = random_code(9, rng)
        rcs = np.zeros(16)
        lag_index = {int(l): j for j, l in enumerate(lag_values(9))}
        rcs[lag_index[1]] = 1.0
        y = simulate_received(s, EchoScenario(h0=0.0, clutter_rcs=rcs))
        assert np.array_equal(y, shifted(s, 1))

    def test_wrong_clutter_length_rejected(self):
        s = as_code([1, -1, 1])
        with pytest.raises(ValueError):
            simulate_received(s, EchoScenario(h0=1.0, clutter_rcs=np.zeros(3)))

    def test_negative_noise_rejected(self):
        s = as_code([1, -1, 1])
        with pytest.raises(ValueError):
            simulate_received(
                s, EchoScenario(h0=1.0, clutter_rcs=np.zeros(4), noise_std=-1.0)
            )

    def test_noise_needs_rng(self):
        s = as_code([1, -1, 1])
        with pytest.raises(ValueError):
            simulate_received(
                s, EchoScenario(h0=1.0, clutter_rcs=np.zeros(4), noise_std=0.5)
            )

    def test_sample_mean_converges_to_signal_term(self):
        # zero-mean random clutter and noise average out: mean of y over many
        # trials stays in a 3-sigma band of h0 * s per entry
        n, trials = 7, 20_000
        rng = np.random.default_rng(2)
        s = random_code(n, rng)
        acc = np.zeros(n)
        for _ in range(trials):
            scen = EchoScenario(
                h0=1.0, clutter_rcs=rng.standard_normal(2 * n - 2), noise_std=0.5
            )
            acc += simulate_received(s, scen, rng)
        mean = acc / trials
        # per-entry variance of y: sum of squared shifted entries + noise^2
        var = np.zeros(n)
        for lag in lag_values(n):
            var += shifted(s, int(lag)) ** 2
        var += 0.25
        band = 3.0 * np.sqrt(var / trials)
        assert np.all(np.abs(mean - np.asarray(s, float)) <= band)


class TestMmfOutput:
    def test_matched_clean_echo_gives_length(self):
        rng = np.random.default_rng(3)
        s = random_code(13, rng)
        y = simulate_received(s, quiet_scenario(13))
        assert mmf_output(np.asarray(s, float), y) == pytest.approx(13.0)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=10)
        y1 = rng.normal(size=10)
        y2 = rng.normal(size=10)
        assert mmf_output(x, y1 + y2) == pytest.approx(
            mmf_output(x, y1) + mmf_output(x, y2), abs=1e-12
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mmf_output(np.ones(3), np.ones(4))


class TestSimulateTrial:
    def test_decomposition_matches_filter_output(self):
        n = 11
        rng = np.random.default_rng(5)
        s = random_code(n, rng)
        x = rng.normal(size=n)
        scen = EchoScenario(
            h0=1.7, clutter_rcs=rng.standard_normal(2 * n - 2), noise_std=0.3
        )
        y, trial = simulate_trial(s, x, scen, rng)
        assert mmf_output(x, y) == pytest.approx(trial.total, abs=1e-12)

    def test_components_match_independent_recompute(self):
        n = 9
        rng = np.random.default_rng(6)
        s = random_code(n, rng)
        x = rng.normal(size=n)
        rcs = rng.standard_normal(2 * n - 2)
        scen = EchoScenario(h0=2.5, clutter_rcs=rcs)
        _, trial = simulate_trial(s, x, scen)
        assert trial.signal_component == pytest.approx(
            2.5 * float(x @ np.asarray(s, float)), abs=1e-12
        )
        clutter = sum(
            h * float(x @ shifted(s, int(lag)))
            for h, lag in zip(rcs, lag_values(n))
        )
        assert trial.clutter_component == pytest.approx(clutter, abs=1e-12)
        assert trial.noise_component == 0.0

    def test_noise_does_not_touch_clutter_component(self):
        n = 9
        rng = np.random.default_rng(7)
        s = random_code(n, rng)
        x = rng.normal(size=n)
        rcs = rng.standard_normal(2 * n - 2)
        _, quiet = simulate_trial(s, x, EchoScenario(h0=1.0, clutter_rcs=rcs))
        _, noisy = simulate_trial(
            s, x, EchoScenario(h0=1.0, clutter_rcs=rcs, noise_std=2.0),
            np.random.default_rng(8),
        )
        assert noisy.clutter_component == quiet.clutter_component
        assert noisy.noise_component != 0.0


class TestEmpiricalSir:
    def test_matches_literal_echo_model_draw_for_draw(self):
        # The same seed drives both: one standard_normal(2N-2) per trial is
        # the row empirical_sir draws for that trial, across chunk borders.
        n, trials = 7, _SIR_CHUNK + 1808
        assert trials > _SIR_CHUNK
        rng = np.random.default_rng(18)
        s = random_code(n, rng)
        x = rng.normal(size=n)
        draws = np.random.default_rng(19)
        power = 0.0
        for _ in range(trials):
            scen = EchoScenario(h0=1.0, clutter_rcs=draws.standard_normal(2 * n - 2))
            _, trial = simulate_trial(s, x, scen)
            power += trial.clutter_component**2
        peak = trial.signal_component
        est = empirical_sir(s, x, trials, np.random.default_rng(19))
        assert est == pytest.approx(peak**2 / (power / trials), rel=1e-12)

    def test_converges_to_analytic_scr(self):
        # denominator over 1e5 gaussian trials has relative std sqrt(2/T);
        # 20 random pairs each inside a 3-sigma band
        trials = 100_000
        tol = 3.0 * math.sqrt(2.0 / trials)
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(4, 16))
            s = random_code(n, rng)
            x = rng.normal(size=n)
            analytic = scr(s, x)
            est = empirical_sir(s, x, trials, np.random.default_rng(rng.integers(1 << 30)))
            assert abs(est - analytic) / analytic <= tol

    def test_matched_filter_estimate(self):
        rng = np.random.default_rng(10)
        s = random_code(21, rng)
        est = empirical_sir(s, np.asarray(s, float), 100_000, np.random.default_rng(11))
        assert est == pytest.approx(matched_filter_scr(s), rel=0.03)

    def test_optimal_filter_estimate(self):
        rng = np.random.default_rng(12)
        s = random_code(21, rng)
        x = optimal_filter(s)
        est = empirical_sir(s, x, 100_000, np.random.default_rng(13))
        assert est == pytest.approx(scr(s, x), rel=0.03)

    def test_uniform_clutter_mode_converges_too(self):
        rng = np.random.default_rng(14)
        s = random_code(15, rng)
        x = rng.normal(size=15)
        est = empirical_sir(
            s, x, 100_000, np.random.default_rng(15), distribution="uniform"
        )
        assert est == pytest.approx(scr(s, x), rel=0.05)

    def test_unknown_distribution_rejected(self):
        rng = np.random.default_rng(16)
        s = random_code(8, rng)
        with pytest.raises(ValueError):
            empirical_sir(s, np.ones(8), 10, rng, distribution="cauchy")

    def test_fixed_seed_reproduces_bitwise(self):
        rng = np.random.default_rng(17)
        s = random_code(12, rng)
        x = rng.normal(size=12)
        a = empirical_sir(s, x, 5000, np.random.default_rng(42))
        b = empirical_sir(s, x, 5000, np.random.default_rng(42))
        assert a == b

    def test_zero_filter_rejected(self):
        # The same rule as ``scr``: a zero filter has no SCR, even 0/0.
        s = as_code([1, -1, 1])
        with pytest.raises(ValueError, match="zero vector"):
            empirical_sir(s, np.zeros(3), 100, np.random.default_rng(0))

    def test_underflowing_clutter_is_undefined_like_scr(self):
        # Squared responses of 1e-200 underflow to 0: both routes read 0/0.
        s = as_code([1, -1, 1])
        x = np.full(3, 1e-200)
        assert math.isnan(scr(s, x))
        assert math.isnan(empirical_sir(s, x, 100, np.random.default_rng(0)))

    def test_needs_at_least_one_trial(self):
        s = as_code([1, -1, 1])
        with pytest.raises(ValueError):
            empirical_sir(s, np.ones(3), 0, np.random.default_rng(0))
