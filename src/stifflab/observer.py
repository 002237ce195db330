"""Simulated participants and signal-detection utilities.

Observers map a presented spring pair and an exploration velocity to a
Same/Different response.  Two families are provided: a Weibull psychometric
observer (direct control of the percent-correct point the staircase should
converge to) and a differencing signal-detection observer (noisy internal
stiffness estimates compared against a criterion).  A constant-probability
Bernoulli responder is included for convergence validation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .config import ConfigError, read, read_object

_SQRT2 = math.sqrt(2.0)


class Response(str, enum.Enum):
    SAME = "same"
    DIFFERENT = "different"


class DegenerateRateError(ValueError):
    """Hit or false-alarm rate of exactly 0 or 1; caller must correct."""


class ObserverConfigError(ValueError):
    pass


def _scale_for(velocity: float, scaling: dict[float, float]) -> float:
    return scaling.get(velocity, 1.0)


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
            raise ObserverConfigError("alpha and beta must be positive")
        if not 0 <= self.gamma < 1 - self.lapse <= 1:
            raise ObserverConfigError("need 0 <= gamma < 1 - lapse <= 1")

    def p_different(self, delta_k: float, velocity: float) -> float:
        if delta_k < 0:
            raise ValueError("delta_k must be nonnegative")
        alpha = self.alpha * _scale_for(velocity, self.velocity_scaling)
        return self.gamma + (1.0 - self.gamma - self.lapse) * (
            1.0 - math.exp(-((delta_k / alpha) ** self.beta))
        )

    def respond(
        self,
        k_first: float,
        k_second: float,
        velocity: float,
        rng: np.random.Generator,
    ) -> Response:
        p = self.p_different(abs(k_second - k_first), velocity)
        return Response.DIFFERENT if rng.random() < p else Response.SAME


def alpha_for_target(
    delta_k: float,
    target_p: float,
    beta: float,
    gamma: float = 0.05,
    lapse: float = 0.02,
) -> float:
    """Alpha placing the P(Different) = target_p point at ``delta_k``.

    Closed-form inversion of the Weibull psychometric function.
    """
    if not gamma < target_p < 1 - lapse:
        raise ObserverConfigError("target_p must lie between gamma and 1 - lapse")
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
            raise ObserverConfigError("sigma must be positive")
        if self.criterion < 0:
            raise ObserverConfigError("criterion must be nonnegative")

    def respond(
        self,
        k_first: float,
        k_second: float,
        velocity: float,
        rng: np.random.Generator,
    ) -> Response:
        if k_first <= 0 or k_second <= 0:
            raise ValueError("stiffness values must be positive")
        sigma = self.sigma * _scale_for(velocity, self.velocity_scaling)
        est_first = k_first + rng.normal(0.0, sigma)
        est_second = k_second + rng.normal(0.0, sigma)
        if abs(est_first - est_second) > self.criterion + self.bias:
            return Response.DIFFERENT
        return Response.SAME


@dataclass(frozen=True)
class BernoulliObserver:
    """Responds Different with fixed probability, independent of the pair."""

    family: ClassVar[str] = "bernoulli"
    p_different: float

    def __post_init__(self):
        if not 0 <= self.p_different <= 1:
            raise ObserverConfigError("p_different must be in [0, 1]")

    def respond(
        self,
        k_first: float,
        k_second: float,
        velocity: float,
        rng: np.random.Generator,
    ) -> Response:
        return (
            Response.DIFFERENT
            if rng.random() < self.p_different
            else Response.SAME
        )


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
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


# Coefficients of Acklam's rational approximation to the normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile, |cdf(result) - p| < 1e-9.

    Rational approximation refined by one Newton step on the exact CDF.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        z = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        z = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        z = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        z -= (normal_cdf(z) - p) / pdf
    return z


def d_prime(hit_rate: float, false_alarm_rate: float) -> float:
    """Sensitivity index z(hits) - z(false alarms)."""
    for rate, name in ((hit_rate, "hit_rate"), (false_alarm_rate, "false_alarm_rate")):
        if not 0.0 < rate < 1.0:
            raise DegenerateRateError(
                f"{name}={rate} is degenerate; apply a correction before calling"
            )
    return inverse_normal_cdf(hit_rate) - inverse_normal_cdf(false_alarm_rate)
