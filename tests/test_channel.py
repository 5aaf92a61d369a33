"""Tests for the transceiver design, the aggregation kernels and the
channel draws and budgets the chain feeds them."""

import numpy as np
import pytest

from iseasim import pipeline
from iseasim.channel import (
    TransceiverDesign,
    md_received,
    mse_at_rx,
    mse_min_rx,
)
from iseasim.validation import ValidationError


def per_subcarrier_mse(gains, tx, rx, est_vars, noise):
    """mse_at_rx of each subcarrier alone: (K, N) columns as N one-column
    instances."""
    return mse_at_rx(gains.T[:, :, None], tx.T[:, :, None], rx[:, None],
                     est_vars.T[:, :, None], noise)


class TestTransceiverDesign:
    def test_power_violation_names_device(self):
        with pytest.raises(ValidationError, match="device 2"):
            TransceiverDesign(tx=[[0.1, 0.1], [3.0, 3.0]], rx=[1.0, 1.0],
                              scheme="fdm", power_budgets=[1.0, 1.0],
                              moments=np.ones((2, 2)))

    def test_tdm_budget_is_per_slot(self):
        # summed across slots this would exceed the budget, per slot it fits
        TransceiverDesign(tx=[[0.9, 0.9]], rx=[1.0, 1.0], scheme="tdm",
                          power_budgets=[1.0], moments=np.ones((1, 2)))
        with pytest.raises(ValidationError):
            TransceiverDesign(tx=[[0.9, 0.9]], rx=[1.0, 1.0], scheme="fdm",
                              power_budgets=[1.0], moments=np.ones((1, 2)))

    def test_tiny_relative_slack_tolerated(self):
        TransceiverDesign(tx=[[1.0 + 4e-10]], rx=[1.0], scheme="fdm",
                          power_budgets=[1.0], moments=np.ones((1, 1)))


class TestAnalyticMse:
    def test_exact_alignment_is_zero(self):
        out = per_subcarrier_mse(np.full((3, 2), 2.0), np.full((3, 2), 0.5),
                                 np.ones(2), np.ones((3, 2)), 0.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_zero_design_gives_total_variance(self):
        sigma_hat = np.arange(1.0, 7.0).reshape(3, 2)
        np.testing.assert_allclose(
            per_subcarrier_mse(np.ones((3, 2)), np.zeros((3, 2)), np.zeros(2),
                               sigma_hat, 0.4),
            sigma_hat.sum(axis=0))
        np.testing.assert_allclose(
            mse_min_rx(np.ones((3, 2)), np.zeros((3, 2)), sigma_hat, 0.4),
            sigma_hat.sum(axis=0))

    def test_monte_carlo_oracle(self):
        # statistical-error oracle: draw device signals independently with
        # the declared variances plus receiver noise, compare to the sum
        rng = np.random.default_rng(4)
        K, N = 3, 2
        gains = rng.uniform(0.4, 2.0, (K, N))
        tx = rng.uniform(0.05, 0.5, (K, N))
        rx = rng.uniform(0.4, 1.2, N)
        sigma_hat = rng.uniform(0.3, 1.5, (K, N))
        noise = 0.3
        n = 400_000
        x = rng.normal(size=(n, K, N)) * np.sqrt(sigma_hat)
        w = rng.normal(size=(n, N)) * np.sqrt(noise)
        y = rx * (np.sum(gains * tx * x, axis=1) + w)
        emp = np.mean((y - x.sum(axis=1)) ** 2, axis=0)
        np.testing.assert_allclose(
            emp, per_subcarrier_mse(gains, tx, rx, sigma_hat, noise), rtol=0.01)

    def test_symbolic_expansion_spot_check(self):
        rng = np.random.default_rng(5)
        K, N = 2, 3
        gains = rng.uniform(0.4, 2.0, (K, N))
        tx = rng.uniform(0.05, 0.5, (K, N))
        rx = rng.uniform(0.4, 1.2, N)
        sigma_hat = rng.uniform(0.3, 1.5, (K, N))
        out = per_subcarrier_mse(gains, tx, rx, sigma_hat, 0.7)
        for n in range(N):
            g = rx[n] * gains[:, n] * tx[:, n]
            expanded = np.sum(g * g * sigma_hat[:, n]) \
                - 2 * np.sum(g * sigma_hat[:, n]) + np.sum(sigma_hat[:, n]) \
                + rx[n] ** 2 * 0.7
            assert out[n] == pytest.approx(expanded, rel=1e-12)
        assert mse_at_rx(gains, tx, rx, sigma_hat, 0.7) \
            == pytest.approx(out.sum(), rel=1e-12)


class TestReceivedMd:
    def test_zero_transmit_is_zero(self):
        np.testing.assert_array_equal(
            md_received(np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)), 0.1,
                        np.array([1.0, 1.0])), 0.0)

    def test_unit_case(self):
        out = md_received(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)), 0.0,
                          np.array([1.0]))
        assert out[0] == pytest.approx(1.0)

    def test_rx_invariance_exact(self):
        # the MD of the received aggregate a_n y_n does not depend on a_n
        rng = np.random.default_rng(6)
        gains = rng.uniform(0.5, 2.0, (3, 2))
        sigma_hat = rng.uniform(0.2, 1.0, (3, 2))
        tx = rng.uniform(0.05, 0.4, (3, 2))
        delta = np.array([0.5, 2.0])
        hb = gains * tx
        out = md_received(gains, tx, sigma_hat, 0.2, delta)
        for rx in (np.ones(2), np.array([7.0, 0.1])):
            signal = (rx * hb.sum(axis=0)) ** 2
            noise = rx ** 2 * (np.sum(hb * hb * sigma_hat, axis=0) + 0.2)
            np.testing.assert_allclose(out, delta * signal / noise, rtol=1e-12)

    def test_monotone_under_uniform_power_scaling(self):
        rng = np.random.default_rng(7)
        gains = rng.uniform(0.5, 2.0, (3, 2))
        sigma_hat = rng.uniform(0.2, 1.0, (3, 2))
        tx = rng.uniform(0.05, 0.2, (3, 2))
        delta = np.ones(2)
        prev = md_received(gains, tx, sigma_hat, 0.3, delta)
        for c in (1.5, 2.0, 4.0):
            cur = md_received(gains, c * tx, sigma_hat, 0.3, delta)
            assert np.all(cur >= prev - 1e-12)
            prev = cur


def draw_gains(scheme, trial_indices, **overrides):
    """Channel gains (T, K, N) of the pipeline's per-trial draws."""
    cfg = pipeline.ExperimentConfig(scheme=scheme, solver="equal", comm_snr_db=(10.0,),
                                    calibration_samples=100, **overrides)
    ctx = pipeline.build_context(cfg, "comm_snr", 10.0, 0)
    return pipeline._draw_trials(ctx, trial_indices)[3]


class TestSampleChannel:
    def test_tdm_columns_identical(self):
        gains = draw_gains("tdm", range(20), num_subcarriers=6)
        np.testing.assert_array_equal(gains, np.tile(gains[:, :, :1], (1, 1, 6)))

    def test_second_moment_matches_scale(self):
        # unit-scale Rayleigh magnitudes: gain^2 is exponential with mean 1
        gains = draw_gains("fdm", range(4000), num_devices=5, num_subcarriers=5)
        emp = np.mean(gains ** 2)
        assert abs(emp - 1.0) < 3.0 / np.sqrt(gains.size)

    def test_reproducible(self):
        a = draw_gains("fdm", range(6))
        np.testing.assert_array_equal(a, draw_gains("fdm", range(6)))
        # a trial's draw does not depend on which trials share its batch
        np.testing.assert_array_equal(a[4:5], draw_gains("fdm", [4]))


class TestCommSnr:
    def test_ten_db_example(self):
        cfg = pipeline.ExperimentConfig(noise_var=0.1)
        np.testing.assert_allclose(pipeline.power_budgets(cfg, 10.0), 1.0, rtol=1e-15)

    def test_zero_db(self):
        cfg = pipeline.ExperimentConfig(noise_var=0.7)
        np.testing.assert_array_equal(pipeline.power_budgets(cfg, 0.0), 0.7)

    def test_doubling_power_adds_three_db(self):
        cfg = pipeline.ExperimentConfig(noise_var=0.25, num_devices=4)
        budgets = pipeline.power_budgets(cfg, 5.0)
        assert budgets.shape == (4,)
        np.testing.assert_allclose(pipeline.power_budgets(cfg, 5.0 + 10 * np.log10(2.0)),
                                   2 * budgets, rtol=1e-12)


def decode_context():
    """A sweep point's context (three devices, four features)."""
    cfg = pipeline.ExperimentConfig(solver="equal", comm_snr_db=(10.0,),
                                    calibration_samples=100)
    return pipeline.build_context(cfg, "comm_snr", 10.0, 0)


class TestEffectiveGains:
    def test_unit_alignment_gives_device_count(self):
        # a_n sum_k h b = 3 when a = 1 and h b = 1 for each of three devices
        hb = np.ones((1, 3, 4))
        y_hat = np.arange(1.0, 5.0)[None, :]
        decoded, observed = pipeline._decode(decode_context(), y_hat,
                                             np.ones((1, 4)), hb)
        np.testing.assert_allclose(decoded, y_hat / 3.0, rtol=1e-15)
        assert observed.all()


class TestTransmitAggregate:
    def test_perfect_alignment_reproduces_average(self):
        # equal h b across devices and no receiver noise: the decoded
        # aggregate is the average of the device estimates
        rng = np.random.default_rng(1)
        X_hat = rng.normal(size=(5, 3, 4))
        gains = rng.uniform(0.5, 2.0, (5, 3, 4))
        tx = 0.3 / gains
        rx = rng.uniform(0.5, 1.5, (5, 4))
        hb = gains * tx
        y_hat = rx * np.sum(hb * X_hat, axis=1)
        decoded, observed = pipeline._decode(decode_context(), y_hat, rx, hb)
        np.testing.assert_allclose(decoded, X_hat.mean(axis=1), rtol=1e-12)
        assert observed.all()

    def test_zero_transmit_is_pure_noise(self):
        # with b = 0 the aggregate carries only receiver noise: gated decode
        # erases every element and yields zeros, not noise / 0
        rng = np.random.default_rng(2)
        y_hat = rng.normal(size=(6, 4))
        hb = np.zeros((6, 3, 4))
        decoded, observed = pipeline._decode(decode_context(), y_hat,
                                             np.ones((6, 4)), hb)
        assert not observed.any()
        np.testing.assert_array_equal(decoded, 0.0)
