"""Simulated participants and signal-detection utilities.

Observers map a presented spring pair and an exploration velocity to the
response "same" or "different".  Two families are provided: a Weibull
psychometric observer (direct control of the percent-correct point the
staircase should converge to) and a differencing signal-detection observer
(noisy internal stiffness estimates compared against a criterion).  A
constant-probability Bernoulli responder is included for convergence
validation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import ConfigError, read, read_object

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = statistics.NormalDist()


@dataclass(frozen=True)
class WeibullObserver:
    """Weibull psychometric observer on the stiffness difference.

    P(Different) = gamma + (1 - gamma - lapse) * (1 - exp(-(dk/alpha')^beta))
    with alpha' = alpha * velocity_scaling[velocity] (1.0 when the velocity
    is not listed).  ``gamma`` is the false-"Different" floor, ``lapse`` the
    lapse rate.
    """

    family: ClassVar[str] = "weibull"  # the config's name for the class
    alpha: float
    beta: float
    gamma: float = 0.05
    lapse: float = 0.02
    velocity_scaling: dict[float, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("alpha and beta must be positive")
        if not 0 <= self.gamma < 1 - self.lapse <= 1:
            raise ConfigError("need 0 <= gamma < 1 - lapse <= 1")
        if any(scale <= 0 for scale in self.velocity_scaling.values()):
            raise ConfigError("velocity_scaling values must be positive")

    def p_different(self, delta_k: float, velocity: float) -> float:
        if delta_k < 0:
            raise ValueError("delta_k must be nonnegative")
        alpha = self.alpha * self.velocity_scaling.get(velocity, 1.0)
        try:
            decay = math.exp(-((delta_k / alpha) ** self.beta))
        except (OverflowError, ZeroDivisionError):  # alpha' tiny or underflowed to 0
            decay = 0.0 if delta_k > 0 else 1.0
        return self.gamma + (1.0 - self.gamma - self.lapse) * (1.0 - decay)

    def respond(
        self,
        k_first: float,
        k_second: float,
        velocity: float,
        rng: np.random.Generator,
    ) -> str:
        p = self.p_different(abs(k_second - k_first), velocity)
        return "different" if rng.random() < p else "same"


def alpha_for_target(
    delta_k: float,
    target_p: float,
    beta: float,
    gamma: float = WeibullObserver.gamma,
    lapse: float = WeibullObserver.lapse,
) -> float:
    """Alpha placing the P(Different) = target_p point at ``delta_k``.

    Closed-form inversion of the Weibull psychometric function.
    """
    if not gamma < target_p < 1 - lapse:
        raise ConfigError("target_p must lie between gamma and 1 - lapse")
    inner = 1.0 - (target_p - gamma) / (1.0 - gamma - lapse)
    return delta_k / (-math.log(inner)) ** (1.0 / beta)


@dataclass(frozen=True)
class SdtObserver:
    """Differencing signal-detection observer.

    Each interval yields an internal estimate k + noise with standard
    deviation sigma * velocity_scaling[velocity]; the response is Different
    iff the absolute estimate difference exceeds criterion + bias.
    """

    family: ClassVar[str] = "sdt"
    sigma: float
    criterion: float
    bias: float = 0.0
    velocity_scaling: dict[float, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.criterion < 0:
            raise ConfigError("criterion must be nonnegative")
        if any(scale <= 0 for scale in self.velocity_scaling.values()):
            raise ConfigError("velocity_scaling values must be positive")

    def respond(
        self,
        k_first: float,
        k_second: float,
        velocity: float,
        rng: np.random.Generator,
    ) -> str:
        if k_first <= 0 or k_second <= 0:
            raise ValueError("stiffness values must be positive")
        sigma = self.sigma * self.velocity_scaling.get(velocity, 1.0)
        est_first = k_first + rng.normal(0.0, sigma)
        est_second = k_second + rng.normal(0.0, sigma)
        if abs(est_first - est_second) > self.criterion + self.bias:
            return "different"
        return "same"


@dataclass(frozen=True)
class BernoulliObserver:
    """Responds Different with fixed probability, independent of the pair."""

    family: ClassVar[str] = "bernoulli"
    p_different: float

    def __post_init__(self):
        if not 0 <= self.p_different <= 1:
            raise ConfigError("p_different must be in [0, 1]")

    def respond(
        self,
        k_first: float,
        k_second: float,
        velocity: float,
        rng: np.random.Generator,
    ) -> str:
        return "different" if rng.random() < self.p_different else "same"


Observer = WeibullObserver | SdtObserver | BernoulliObserver


def observer_from_config(cfg) -> Observer:
    """The observer that a config's ``observer`` object describes: its
    ``family`` names the class, and the other keys set that class's fields
    (read as ``config.read`` reads a section)."""
    cfg = read_object(cfg, "observer")
    family = cfg.get("family")
    for cls in (WeibullObserver, SdtObserver, BernoulliObserver):
        if cls.family == family:
            return read(cls, {k: v for k, v in cfg.items() if k != "family"}, "observer")
    raise ConfigError(f"observer: unknown observer family: {family!r}")


def normal_cdf(z: float) -> float:
    # erfc, not 1 + erf: the sum cancels to 0 in the lower tail (z < -8.3)
    return 0.5 * math.erfc(-z / _SQRT2)


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile (the standard library's ``inv_cdf``)."""
    if not 0.0 < p < 1.0:  # inv_cdf returns nan for nan rather than raising
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


def d_prime(hit_rate: float, false_alarm_rate: float) -> float:
    """Sensitivity index z(hits) - z(false alarms)."""
    for rate, name in ((hit_rate, "hit_rate"), (false_alarm_rate, "false_alarm_rate")):
        if not 0.0 < rate < 1.0:
            raise ValueError(
                f"{name}={rate} is degenerate; apply a correction before calling"
            )
    return inverse_normal_cdf(hit_rate) - inverse_normal_cdf(false_alarm_rate)
