"""Simulated 1-DoF rotary device and forearm.

Minimum-jerk metronome-paced pronation strokes, second-order limb dynamics,
virtual-spring torque rendered from the quantized encoder angle with
saturation, LED target-window events, and achieved-velocity checks.

Angles are in degrees, stiffness in mNm/deg, torques in mNm at the module
boundary; the integrator works in SI internally.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

_DEG = math.pi / 180.0  # rad per degree
_MNM = 1e-3             # Nm per mNm


class UnstableIntegrationError(RuntimeError):
    """Angle exceeded 10x amplitude; tracking gains are likely bad."""


def _require_finite(config) -> None:
    """Reject a NaN or infinite float field: NaN passes every range check
    (each comparison with it is false) and infinity every positivity check."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DeviceConfig:
    encoder_counts_per_rev: int = 4096  # 1024 lines x 4 quadrature
    torque_limit: float = 300.0         # mNm
    control_rate: float = 1000.0        # Hz

    def __post_init__(self):
        _require_finite(self)
        if self.encoder_counts_per_rev < 4:
            raise ValueError("encoder_counts_per_rev must be at least 4")
        if self.torque_limit <= 0 or self.control_rate <= 0:
            raise ValueError("torque_limit and control_rate must be positive")


@dataclass(frozen=True)
class SpringParam:
    k: float  # mNm/deg

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("stiffness must be nonnegative")


@dataclass(frozen=True)
class TrajectoryConfig:
    """The stroke every exploration follows, bar its pace."""

    amplitude: float = 90.0  # deg, normal position to pronation target
    led_window: float = 2.5  # deg


@dataclass(frozen=True)
class TrajectoryPlan:
    amplitude: float       # deg, normal position to pronation target
    beat_duration: float   # s per stroke (60 / metronome bpm)
    sample_rate: float     # Hz
    led_window: float = TrajectoryConfig.led_window  # deg

    def __post_init__(self):
        _require_finite(self)
        if min(self.amplitude, self.beat_duration, self.sample_rate, self.led_window) <= 0:
            raise ValueError("amplitude, beat_duration, sample_rate and led_window "
                             "must be positive")

    @property
    def mean_speed(self) -> float:
        return self.amplitude / self.beat_duration


def plan_for_bpm(bpm: float, amplitude: float = TrajectoryConfig.amplitude,
                 sample_rate: float = DeviceConfig.control_rate,
                 led_window: float = TrajectoryConfig.led_window) -> TrajectoryPlan:
    return TrajectoryPlan(amplitude=amplitude, beat_duration=60.0 / bpm,
                          sample_rate=sample_rate, led_window=led_window)


@dataclass(frozen=True)
class LimbConfig:
    inertia: float = 0.004              # kg m^2
    damping: float = 0.01               # Nm s/rad
    tracking_stiffness_gain: float = 5.0   # Nm/rad
    tracking_damping_gain: float = 0.05    # Nm s/rad
    motor_noise_std: float = 0.0        # Nm
    muscle_torque_max: float = 500.0    # mNm, activation normalizer

    def __post_init__(self):
        _require_finite(self)
        if self.inertia <= 0:
            raise ValueError("inertia must be positive")
        if min(self.damping, self.tracking_stiffness_gain,
               self.tracking_damping_gain, self.motor_noise_std) < 0:
            raise ValueError("damping, gains and noise must be nonnegative")
        if self.muscle_torque_max <= 0:
            raise ValueError("muscle_torque_max must be positive")


@dataclass(frozen=True)
class ReferenceTrajectory:
    time: np.ndarray      # s
    angle: np.ndarray     # deg
    velocity: np.ndarray  # deg/s
    acceleration: np.ndarray  # deg/s^2


def min_jerk_trajectory(plan: TrajectoryPlan) -> ReferenceTrajectory:
    """Out-and-back minimum-jerk stroke pair.

    Out stroke: theta(t) = A (10 s^3 - 15 s^4 + 6 s^5), s = t/T; the return
    stroke is the mirror image.  Endpoint velocity and acceleration vanish;
    mean speed per stroke is A/T and peak speed 1.875 A/T.
    """
    big_t = plan.beat_duration
    amp = plan.amplitude
    n = int(round(2.0 * big_t * plan.sample_rate)) + 1
    t = np.arange(n) / plan.sample_rate
    s = np.where(t <= big_t, t, t - big_t) / big_t
    s = np.clip(s, 0.0, 1.0)
    pos = amp * (10 * s**3 - 15 * s**4 + 6 * s**5)
    vel = amp / big_t * (30 * s**2 - 60 * s**3 + 30 * s**4)
    acc = amp / big_t**2 * (60 * s - 180 * s**2 + 120 * s**3)
    out = t <= big_t
    angle = np.where(out, pos, amp - pos)
    velocity = np.where(out, vel, -vel)
    acceleration = np.where(out, acc, -acc)
    return ReferenceTrajectory(time=t, angle=angle, velocity=velocity,
                               acceleration=acceleration)


def spring_torque(spring: SpringParam, angle: float, device: DeviceConfig) -> float:
    """Restoring torque -k * angle, saturated at the device limit."""
    tau = -spring.k * angle
    return min(max(tau, -device.torque_limit), device.torque_limit)


def quantize_angle(angle: float, device: DeviceConfig) -> float:
    resolution = 360.0 / device.encoder_counts_per_rev
    return math.floor(angle / resolution) * resolution


@dataclass(frozen=True)
class TrialRecording:
    time: np.ndarray
    angle: np.ndarray
    quantized_angle: np.ndarray
    commanded_torque: np.ndarray   # mNm, device spring rendering
    muscle_torque: np.ndarray      # mNm
    activation: np.ndarray         # [0, 1]
    led_events: tuple[float, ...]  # s, at most one per stroke
    achieved_mean_velocity: float  # deg/s

    def digest(self) -> str:
        h = hashlib.sha256()
        for series in (self.time, self.angle, self.quantized_angle,
                       self.commanded_torque, self.muscle_torque, self.activation):
            h.update(np.ascontiguousarray(series, dtype=np.float64).tobytes())
        h.update(np.asarray(self.led_events, dtype=np.float64).tobytes())
        h.update(np.float64(self.achieved_mean_velocity).tobytes())
        return h.hexdigest()


def simulate_exploration(
    spring: SpringParam,
    plan: TrajectoryPlan,
    limb: LimbConfig,
    device: DeviceConfig,
    rng: np.random.Generator,
) -> TrialRecording:
    """Simulate one out-and-back exploration of a virtual spring.

    Limb dynamics: inertia * accel = muscle - damping * vel + device torque,
    where the device renders the spring at the quantized angle.  Muscle
    torque is inverse-dynamics feedforward along the reference trajectory
    plus PD tracking feedback plus white noise, zero-order-held over each
    control period; the state is advanced with fixed-step RK4.
    """
    ref = min_jerk_trajectory(plan)
    n = len(ref.time)
    dt = 1.0 / plan.sample_rate
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    inertia, damping = limb.inertia, limb.damping
    kp, kd = limb.tracking_stiffness_gain, limb.tracking_damping_gain
    k_si = spring.k * _MNM / _DEG  # Nm/rad
    neg_k = -spring.k
    resolution = 360.0 / device.encoder_counts_per_rev
    torque_max = device.torque_limit
    torque_min = -torque_max
    deg, mnm, floor = _DEG, _MNM, math.floor

    # feedforward: inverse dynamics of the reference against the nominal spring
    tau_ff = (inertia * ref.acceleration * _DEG
              + damping * ref.velocity * _DEG
              + k_si * ref.angle * _DEG)  # Nm
    noise = (rng.normal(0.0, limb.motor_noise_std, size=n)
             if limb.motor_noise_std > 0 else np.zeros(n))

    # The loop runs on Python floats and keeps only the state; the recorded
    # series are derived from it afterwards.  quantize_angle, spring_torque
    # and the RK4 derivative are written out in place, and every operation
    # keeps the order of those definitions, so the series are bit for bit
    # theirs.  (RK4 of this linear ODE as one affine map x' = M x + N u would
    # be faster but rounds differently, and the logged digests and rejected
    # velocities would change in their last bits.)
    theta = omega = 0.0  # deg, deg/s
    angle: list[float] = []
    velocity: list[float] = []
    angle_append, velocity_append = angle.append, velocity.append
    try:
        for ff, a_ref, v_ref, w in zip(tau_ff.tolist(), ref.angle.tolist(),
                                       ref.velocity.tolist(), noise.tolist()):
            t_dev = neg_k * (floor(theta / resolution) * resolution)  # mNm
            if t_dev < torque_min:
                t_dev = torque_min
            elif t_dev > torque_max:
                t_dev = torque_max
            angle_append(theta)
            velocity_append(omega)
            # muscle plus device torque, held over the step; d(theta)/dt is
            # omega, d(omega)/dt is (tau - damping * omega) / inertia.  The
            # step after the last sample is taken and dropped.
            tau_const = (ff + kp * (a_ref - theta) * deg
                         + kd * (v_ref - omega) * deg + w + t_dev * mnm)  # Nm
            d1o = (tau_const - damping * omega * deg) / inertia / deg
            d2t = omega + half_dt * d1o
            d2o = (tau_const - damping * d2t * deg) / inertia / deg
            d3t = omega + half_dt * d2o
            d3o = (tau_const - damping * d3t * deg) / inertia / deg
            d4t = omega + dt * d3o
            d4o = (tau_const - damping * d4t * deg) / inertia / deg
            theta = theta + sixth_dt * (omega + 2.0 * d2t + 2.0 * d3t + d4t)
            omega = omega + sixth_dt * (d1o + 2.0 * d2o + 2.0 * d3o + d4o)
    finally:
        # the first sample past the limit, also when the loop stopped later
        # on an angle too large to quantize
        theta_arr = np.array(angle)
        beyond = np.flatnonzero(np.abs(theta_arr) > 10.0 * plan.amplitude)
        if beyond.size:
            i = beyond[0]
            raise UnstableIntegrationError(
                f"angle {angle[i]:.1f} deg exceeds 10x amplitude "
                f"at t={ref.time[i]:.3f}s") from None

    # the series as the loop saw them, elementwise in the same order
    # (+ 0.0 turns the -0.0 of np.floor into math.floor's 0)
    q_angle = np.floor(theta_arr / resolution) * resolution + 0.0
    tau_dev = np.minimum(np.maximum(neg_k * q_angle, torque_min), torque_max)
    tau_mus = (tau_ff + kp * (ref.angle - theta_arr) * deg
               + kd * (ref.velocity - np.array(velocity)) * deg + noise) / mnm
    activation = np.clip(np.abs(tau_mus) / limb.muscle_torque_max, 0.0, 1.0)
    # one LED event per stroke, at the first sample inside its target window
    out = ref.time <= plan.beat_duration
    near = np.where(out, np.abs(theta_arr - plan.amplitude),
                    np.abs(theta_arr)) < plan.led_window
    led = tuple(ref.time[hits.argmax()].item()
                for hits in (near & out, near & ~out) if hits.any())
    # path length as a left fold from 0.0 (theta starts at 0.0): cumsum adds
    # in order, while np.sum adds pairwise and rounds differently
    path_length = np.cumsum(np.abs(np.diff(theta_arr, prepend=0.0)))[-1]
    return TrialRecording(
        time=ref.time,
        angle=theta_arr,
        quantized_angle=q_angle,
        commanded_torque=tau_dev,
        muscle_torque=tau_mus,
        activation=activation,
        led_events=led,
        achieved_mean_velocity=path_length / ref.time[-1],
    )


def achieved_velocity_ok(
    rec: TrialRecording, plan: TrajectoryPlan, tolerance: float
) -> bool:
    """Accept the exploration iff mean speed is on target and the LED fired
    on both strokes."""
    if len(rec.led_events) < 2:
        return False
    return abs(rec.achieved_mean_velocity - plan.mean_speed) <= tolerance
