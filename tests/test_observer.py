import math

import numpy as np
import pytest

from stifflab.config import ConfigError
from stifflab.observer import (
    BernoulliObserver,
    SdtObserver,
    WeibullObserver,
    alpha_for_target,
    d_prime,
    inverse_normal_cdf,
    normal_cdf,
)


class TestWeibull:
    def test_zero_difference_gives_floor(self):
        obs = WeibullObserver(alpha=1.0, beta=2.0, gamma=0.05, lapse=0.02)
        assert obs.p_different(0.0, 67.5) == pytest.approx(0.05)

    def test_large_difference_approaches_ceiling(self):
        obs = WeibullObserver(alpha=1.0, beta=2.0, gamma=0.05, lapse=0.02)
        assert obs.p_different(1e6, 67.5) == pytest.approx(0.98)

    def test_monotone_and_bounded_on_grid(self):
        obs = WeibullObserver(alpha=1.3, beta=3.0, gamma=0.05, lapse=0.02)
        grid = np.linspace(0.0, 10.0, 500)
        values = [obs.p_different(d, 67.5) for d in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.05 <= v <= 0.98 for v in values)

    def test_alpha_inversion_hits_target(self):
        # place the 83.15% point at delta_k = 1.1684
        alpha = alpha_for_target(1.1684, 0.8315, beta=2.0, gamma=0.05, lapse=0.02)
        obs = WeibullObserver(alpha=alpha, beta=2.0, gamma=0.05, lapse=0.02)
        assert obs.p_different(1.1684, 67.5) == pytest.approx(
            0.8315, abs=1e-9)

    def test_velocity_scaling_shifts_alpha(self):
        obs = WeibullObserver(alpha=1.0, beta=2.0, gamma=0.0, lapse=0.0,
                              velocity_scaling={112.5: 0.5})
        # halving alpha at the fast velocity makes the same delta easier
        assert obs.p_different(0.5, 112.5) > \
            obs.p_different(0.5, 67.5)
        # unlisted velocities fall back to a unit multiplier
        assert obs.p_different(0.5, 99.0) == \
            obs.p_different(0.5, 67.5)

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_tiny_alpha_gives_the_ceiling_not_an_error(self, scale):
        # (delta_k / alpha') ** beta overflows, or alpha' underflows to 0
        obs = WeibullObserver(alpha=1e-300, beta=3.0, velocity_scaling={67.5: scale})
        assert obs.p_different(0.1, 67.5) == 0.05 + (1.0 - 0.05 - 0.02)
        assert obs.p_different(0.0, 67.5) == 0.05

    def test_negative_delta_rejected(self):
        obs = WeibullObserver(alpha=1.0, beta=2.0)
        with pytest.raises(ValueError):
            obs.p_different(-0.1, 67.5)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0, "beta": 2.0},
        {"alpha": 1.0, "beta": -1.0},
        {"alpha": 1.0, "beta": 2.0, "gamma": 0.5, "lapse": 0.6},
        {"alpha": 1.0, "beta": 2.0, "velocity_scaling": {67.5: 0.0}},
        {"alpha": 1.0, "beta": 2.0, "velocity_scaling": {67.5: 1.0, 112.5: -1.0}},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigError):
            WeibullObserver(**kwargs)


class TestSdt:
    def test_noise_free_different(self):
        obs = SdtObserver(sigma=1e-12, criterion=0.1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert obs.respond(1.0, 2.0, 67.5, rng) == "different"

    def test_noise_free_same(self):
        obs = SdtObserver(sigma=1e-12, criterion=0.1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert obs.respond(1.5, 1.5, 67.5, rng) == "same"

    def test_false_alarm_rate_matches_closed_form(self):
        # estimate difference ~ N(0, sqrt(2) sigma); P(Different) follows
        sigma, criterion = 1.0, 1.3859
        expected = 2.0 * (1.0 - normal_cdf(criterion / math.sqrt(2.0)))
        assert expected == pytest.approx(0.3274, abs=1e-3)
        obs = SdtObserver(sigma=sigma, criterion=criterion)
        rng = np.random.default_rng(42)
        n = 1_000_000
        hits = sum(
            obs.respond(2.0, 2.0, 67.5, rng) == "different"
            for _ in range(n))
        assert hits / n == pytest.approx(expected, abs=0.003)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_nonpositive_velocity_scaling_rejected(self, scale):
        # a negative sigma' would reach NumPy's normal() only at run time
        with pytest.raises(ConfigError):
            SdtObserver(sigma=1.0, criterion=0.5, velocity_scaling={67.5: scale})

    def test_nonpositive_stiffness_rejected(self):
        obs = SdtObserver(sigma=1.0, criterion=0.5)
        with pytest.raises(ValueError):
            obs.respond(0.0, 1.0, 67.5, np.random.default_rng(0))


class TestBernoulli:
    def test_rate(self):
        obs = BernoulliObserver(p_different=0.25)
        rng = np.random.default_rng(7)
        n = 100_000
        count = sum(obs.respond(1.0, 2.0, 67.5, rng) == "different"
                    for _ in range(n))
        assert count / n == pytest.approx(0.25, abs=0.005)


class TestDPrime:
    def test_unit_sensitivity(self):
        assert d_prime(0.84134, 0.5) == pytest.approx(1.0, abs=1e-3)

    def test_antisymmetry(self):
        assert d_prime(0.5, 0.84134) == pytest.approx(-1.0, abs=1e-3)
        for h, f in [(0.9, 0.2), (0.7, 0.4), (0.99, 0.01)]:
            assert d_prime(h, f) == pytest.approx(-d_prime(f, h), abs=1e-12)

    def test_equal_rates_give_zero(self):
        for p in (0.1, 0.5, 0.9, 0.999):
            assert d_prime(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_hit_rate(self):
        values = [d_prime(h, 0.3) for h in np.linspace(0.31, 0.99, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("h,f", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_degenerate_rates_rejected(self, h, f):
        with pytest.raises(ValueError, match="is degenerate; apply a correction"):
            d_prime(h, f)


def _bisect_quantile(p, lo=-10.0, hi=10.0):
    # independent oracle: bisection on the exact normal CDF
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseNormalCdf:
    def test_median(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_97_5_percentile(self):
        assert inverse_normal_cdf(0.975) == pytest.approx(1.95996, abs=1e-5)

    def test_against_bisection_oracle(self):
        for p in (1e-6, 0.001, 0.02425, 0.3, 0.8, 0.97575, 0.999, 1 - 1e-6):
            assert inverse_normal_cdf(p) == pytest.approx(
                _bisect_quantile(p), abs=1e-9)

    def test_round_trip_error(self):
        ps = np.concatenate([
            np.geomspace(1e-6, 0.5, 200),
            1.0 - np.geomspace(1e-6, 0.5, 200),
        ])
        worst = max(abs(normal_cdf(inverse_normal_cdf(p)) - p) for p in ps)
        assert worst < 1e-9

    def test_strictly_increasing(self):
        ps = np.linspace(1e-6, 1 - 1e-6, 2000)
        zs = [inverse_normal_cdf(p) for p in ps]
        assert all(b > a for a, b in zip(zs, zs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_out_of_domain(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)
