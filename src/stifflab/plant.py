"""Simulated 1-DoF rotary device and forearm.

Minimum-jerk metronome-paced pronation strokes, second-order limb dynamics,
virtual-spring torque rendered from the quantized encoder angle with
saturation, LED target-window events, and achieved-velocity checks.

Angles are in degrees, stiffness in mNm/deg, torques in mNm at the module
boundary; the integrator works in SI internally.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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


# an exploration's samples at most, 2.8 h at 1 kHz (the protocol's slower pace
# has 2,668): far more could not be allocated
MAX_SAMPLES = 10**7


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
        samples = 2.0 * self.beat_duration * self.sample_rate
        if samples > MAX_SAMPLES:
            raise ValueError(f"an exploration's 2 x beat_duration x sample_rate samples "
                             f"must be at most {MAX_SAMPLES:,}, got {samples:.3g}")
        # past the first sample, so that an exploration takes time
        if round(samples) < 1:
            raise ValueError(f"an exploration's 2 x beat_duration x sample_rate samples "
                             f"must round to at least 1, got {samples:.3g}")
        if self.beat_duration ** 2 == 0:  # min_jerk_trajectory divides by it
            raise ValueError(f"beat_duration {self.beat_duration:g} s is too short: "
                             "its square is 0")

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


@functools.lru_cache(maxsize=8)  # a run explores one plan throughout
def _plan_reference(plan: TrajectoryPlan) -> tuple[ReferenceTrajectory, list, list, np.ndarray]:
    """What an exploration needs of its plan alone: the reference trajectory,
    its angle and velocity as float lists and its out-stroke mask.  Keyed by
    the plan's value (a cache on the instance would grow with the plans the
    exploration memo keeps alive); the arrays are read-only, as recordings
    share ``time``."""
    ref = min_jerk_trajectory(plan)
    out = ref.time <= plan.beat_duration
    for series in (ref.time, ref.angle, ref.velocity, ref.acceleration, out):
        series.flags.writeable = False
    return ref, ref.angle.tolist(), ref.velocity.tolist(), out


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
        *series, led_events, achieved_mean_velocity = vars(self).values()  # in field order
        return _recording_hash(hashlib.sha256(), series, led_events,
                               achieved_mean_velocity).hexdigest()


def _recording_hash(h, series, led_events, achieved_mean_velocity):
    """``h`` updated with each of ``series`` as float64 bytes, then the LED
    event times and the achieved velocity: a recording's digest, where the
    series are its fields in their order and ``h`` holds those before them."""
    for values in series:
        h.update(np.ascontiguousarray(values, dtype=np.float64))  # no copy
    h.update(np.asarray(led_events, dtype=np.float64).tobytes())
    h.update(np.float64(achieved_mean_velocity).tobytes())
    return h


class LaneOutcome(NamedTuple):
    """What a lane keeps of its recording, as TrialRecording gives it."""
    digest: Callable[[], str]  # the finished hash's hexdigest
    led_events: tuple[float, ...]
    achieved_mean_velocity: float


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
    ref, ref_angle, ref_velocity, out = _plan_reference(plan)
    n = len(ref.time)
    dt = 1.0 / plan.sample_rate
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    inertia, damping = limb.inertia, limb.damping
    kp, kd = limb.tracking_stiffness_gain, limb.tracking_damping_gain
    neg_k = -spring.k
    resolution = 360.0 / device.encoder_counts_per_rev
    torque_max = device.torque_limit
    torque_min = -torque_max
    deg, mnm, floor = _DEG, _MNM, math.floor

    tau_ff = _feedforward(ref, limb, spring)
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
        for ff, a_ref, v_ref, w in zip(tau_ff.tolist(), ref_angle, ref_velocity,
                                       noise.tolist()):
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
    except (OverflowError, ValueError):  # math.floor of an infinite or NaN angle
        angle_append(theta)  # the angle it could not floor
        _check_stable(np.array(angle), plan, ref.time)  # past the limit by then
        raise
    theta = np.array(angle)
    _check_stable(theta, plan, ref.time)
    # the series as the loop saw them, elementwise in its order: the muscle
    # torque of each step, summed as the loop sums it (Nm), and the quantized
    # angle (+ 0.0 turns the -0.0 of np.floor into math.floor's 0)
    with np.errstate(all="ignore"):  # as in _feedforward: a huge gain overflows
        muscle = (tau_ff + kp * (ref.angle - theta) * deg
                  + kd * (ref.velocity - np.array(velocity)) * deg + noise)
    q_angle = np.floor(theta / resolution) * resolution + 0.0
    # one LED event per stroke, at the first sample inside its target window
    near = np.where(out, np.abs(theta - plan.amplitude),
                    np.abs(theta)) < plan.led_window
    led = tuple(ref.time[hits.argmax()].item()
                for hits in (near & out, near & ~out) if hits.any())
    # path length as a left fold from 0.0 (theta starts at 0.0): cumsum adds
    # in order, while np.sum adds pairwise and rounds differently
    path_length = np.cumsum(np.abs(np.diff(theta, prepend=0.0)))[-1]
    return TrialRecording(ref.time, theta,
                          *_recorded_series(spring, limb, device, q_angle, muscle),
                          led_events=led, achieved_mean_velocity=path_length / ref.time[-1])


def _feedforward(ref: ReferenceTrajectory, limb: LimbConfig,
                 spring: SpringParam) -> np.ndarray:
    """Nm: inverse dynamics of the reference against the nominal spring."""
    k_si = spring.k * _MNM / _DEG  # Nm/rad
    with np.errstate(all="ignore"):  # a huge limb overflows; its angle then fails
        return (limb.inertia * ref.acceleration * _DEG
                + limb.damping * ref.velocity * _DEG
                + k_si * ref.angle * _DEG)


def _check_stable(theta: np.ndarray, plan: TrajectoryPlan, time: np.ndarray) -> None:
    """Raise UnstableIntegrationError at the first angle past 10x amplitude
    or not finite."""
    beyond = np.flatnonzero(~(np.abs(theta) <= 10.0 * plan.amplitude))  # NaN too
    if beyond.size:
        i = beyond[0]
        how = "exceeds 10x amplitude" if np.isfinite(theta[i]) else "is not finite"
        raise UnstableIntegrationError(
            f"angle {theta[i]:.1f} deg {how} at t={time[i]:.3f}s") from None


def _recorded_series(spring: SpringParam, limb: LimbConfig, device: DeviceConfig,
                     q_angle: np.ndarray, muscle: np.ndarray) -> tuple[np.ndarray, ...]:
    """An integrated exploration's recorded series after its angle, in
    TrialRecording's order, from its quantized angle and its muscle torque
    ``muscle`` (Nm): both paths call this once per exploration they keep."""
    tau_dev = np.minimum(np.maximum(-spring.k * q_angle, -device.torque_limit),
                         device.torque_limit)
    with np.errstate(all="ignore"):  # as in _feedforward: a tiny torque_max overflows
        tau_mus = muscle / _MNM
        activation = np.clip(np.abs(tau_mus) / limb.muscle_torque_max, 0.0, 1.0)
    return q_angle, tau_dev, tau_mus, activation


# A slice of fewer lanes than this is left to run_session's scalar loop, or,
# as a pass's tail, to its other slices.  A lane step (49 NumPy calls) costs
# about the same up to a few hundred lanes (20-50 us on a 2-core x86 host), a
# scalar sample ~1 us: lanes of both paces break even at 28-32 explorations,
# with noise or without (14 noise-free ones take ~83 ms in lanes, ~44 ms one
# by one).  No workload has a block below 40 to measure a lower cut on.
MIN_LANES = 40
# The bytes a slice's lanes are packed to, with noise or without (a slice that
# takes a tail passes them by fewer than MIN_LANES lanes): on the default
# encoder ~37 KB a lane at 45 bpm, ~26 KB at 75 bpm, 2 KB more with noise.
LANE_BYTES = 5_500_000
NOISE_CHUNK = 256  # samples a lane draws noise for, and gathers reference for, at once


def simulate_lanes(explorations: dict, limb: LimbConfig, device: DeviceConfig) -> dict:
    """For each key -> ``(spring, plan, rng)`` of ``explorations`` that a
    lane integrates, key -> the digest, LED events and achieved velocity of
    the recording ``simulate_exploration(spring, plan, limb, device, rng)``
    gives, bit for bit, or None where that raises, and ``rng`` left where
    that call leaves it (each its own; None without motor noise).  Lanes
    never raise.

    The explorations are integrated one NumPy lane each, on one clock (so
    their plans share a sample rate), and every lane operation is the scalar
    loop's, in its order.  Longest first, they are cut into slices whose own
    lanes take at most LANE_BYTES; a last slice under MIN_LANES lanes joins
    the others, and a slice still that narrow is left out, not integrated."""
    global _lane_memory
    plans = dict.fromkeys(plan for _, plan, _ in explorations.values())
    if len({plan.sample_rate for plan in plans}) > 1:
        raise ValueError("lanes step on one clock: the plans' sample rates differ")
    # a lane keeps its encoder counts, floor(angle / resolution) for angles
    # within the 10 x amplitude limit, in the narrowest type that holds them
    bound = 10.0 * max((plan.amplitude for plan in plans), default=0.0) \
        / (360.0 / device.encoder_counts_per_rev) + 1.0
    count_type = next((t for t in (np.int8, np.int16, np.int32, np.int64)
                       if bound <= np.iinfo(t).max), np.float64)
    # a lane's bytes: per sample its muscle torque and count, per chunk sample
    # its gathered reference (3 floats), staged torque and angle (2) and noise
    cost = {plan: len(_plan_reference(plan)[0].time) * (8 + np.dtype(count_type).itemsize)
            + 8 * NOISE_CHUNK * (5 + (limb.motor_noise_std > 0)) for plan in plans}
    slices, room = [], 0
    for key in sorted(explorations, key=lambda key: -cost[explorations[key][1]]):
        if cost[explorations[key][1]] > room:
            slices.append([])
            room = LANE_BYTES
        slices[-1].append(key)
        room -= cost[explorations[key][1]]
    if len(slices) > 1 and len(slices[-1]) < MIN_LANES:  # a tail, dealt to the others
        slices = [keys + slices[-1][i::len(slices) - 1] for i, keys in enumerate(slices[:-1])]
    outcomes = {}
    for keys in slices:
        if len(keys) < MIN_LANES:
            continue
        # one block for every slice, kept for the next call: a fresh block
        # would fault its pages in again (~4% of a call), and blocks this size
        # allocated and freed per call fragment the heap
        if _lane_memory.size < (size := sum(cost[explorations[key][1]] for key in keys)):
            _lane_memory = np.empty(max(size, LANE_BYTES), np.uint8)
        for index, outcome in _lane_slice([explorations[key] for key in keys], limb,
                                          device, count_type, _lane_memory):
            outcomes[keys[index]] = outcome
    return outcomes


_lane_memory = np.empty(0, np.uint8)  # the block simulate_lanes' slices use


def _lane_slice(explorations: list, limb: LimbConfig, device: DeviceConfig,
                count_type, memory: np.ndarray):
    """``simulate_lanes`` of one slice, whose per-lane arrays are views of
    ``memory``.  Lanes are ordered by sample count, longest first, so the
    lanes still integrating are a prefix: plan p's phase steps the lanes of
    plans 0..p up to plan p's last sample, and then they yield.  Every
    NOISE_CHUNK samples, the lanes gather their reference and feedforward,
    and a noisy lane draws its noise in place: the values and RNG state of
    simulate_exploration's one draw of them all.  The lanes stage their
    muscle torque and angle at each step and fold each chunk into what they
    keep: torques, encoder counts, the digest (from the plan's hash of
    ``time`` on), LED hits, path length and the 10 x amplitude check."""
    plans = sorted(dict.fromkeys(plan for _, plan, _ in explorations),
                   key=lambda plan: -len(_plan_reference(plan)[0].time))
    lanes = [[j for j, (_, p, _) in enumerate(explorations) if p == plan] for plan in plans]
    order = [j for group in lanes for j in group]
    refs = [_plan_reference(plan)[0] for plan in plans]
    sizes = [len(ref.time) for ref in refs] + [0]
    starts = np.cumsum([0] + [len(group) for group in lanes])
    # per sample: every plan's reference angle, then velocity, then the
    # feedforward terms that do not depend on the spring (see _feedforward)
    table = np.zeros((sizes[0], 3, len(plans)))
    for p, ref in enumerate(refs):
        with np.errstate(all="ignore"):  # as in _feedforward
            table[:sizes[p], :, p] = np.transpose([
                ref.angle, ref.velocity,
                limb.inertia * ref.acceleration * _DEG + limb.damping * ref.velocity * _DEG])
    table = table.reshape(sizes[0], -1)
    plan_of = np.repeat(np.arange(len(plans)), np.diff(starts))
    chunk, noisy, width = NOISE_CHUNK, limb.motor_noise_std > 0, len(order)
    # per chunk sample a lane's gathered reference, staged torque and angle and
    # noise (the scalar loop's w = 0.0 without), per sample each plan's lanes'
    # torques and counts, the floats first so that each view is aligned
    views, used = [], 0
    for shape, dtype in ([((chunk * 3 * width,), float), ((chunk * 2 * width,), float)]
                         + [((width, chunk), float)] * noisy
                         + [((len(group), n), float) for group, n in zip(lanes, sizes)]
                         + [((len(group), n), count_type) for group, n in zip(lanes, sizes)]):
        size = math.prod(shape) * np.dtype(dtype).itemsize
        views.append(memory[used:used + size].view(dtype).reshape(shape))
        used += size
    gathered_block, staged_block, *views = views
    noise = views.pop(0) if noisy else np.zeros((width, chunk))
    muscles, counts = views[:len(plans)], views[len(plans):]
    rngs = [explorations[j][2] for j in order]
    k = np.array([explorations[j][0].k for j in order])
    k_si, neg_k = k * _MNM / _DEG, -k
    amplitude, window, out_samples = np.array([
        (plan.amplitude, plan.led_window, np.count_nonzero(_plan_reference(plan)[3]))
        for plan in plans])[plan_of].T
    ok = np.ones(width, bool)  # finite and within 10 x amplitude so far
    led = np.full((2, width), -1)  # the first sample in the out and return window
    path, last = np.zeros(width), np.zeros(width)  # the path length and angle so far
    hashes = [hashlib.sha256(ref.time) for ref in refs]
    hashes = [hashes[p].copy() for p in plan_of]
    dt = 1.0 / plans[0].sample_rate
    # the scalar loop's constants as 0-d arrays, which NumPy takes faster
    # than Python floats
    dt, half_dt, sixth_dt, inertia, damping, resolution, torque_max, torque_min, \
        deg, mnm, zero, two = map(np.array, (
            dt, 0.5 * dt, dt / 6.0, limb.inertia, limb.damping,
            360.0 / device.encoder_counts_per_rev, device.torque_limit,
            -device.torque_limit, _DEG, _MNM, 0.0, 2.0))
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide

    x = np.zeros((19, len(k)))
    for p in reversed(range(len(plans))):
        # the phase's lanes 0..b: a row of x per lane vector, and two adjacent
        # rows as one vector of 2b, which takes a pair of the scalar loop's
        # like operations in one call
        b, step = starts[p + 1], sizes[p + 1]
        x, prev = np.zeros((19, b)), x
        x[1:3] = prev[1:3, :b]
        tau, th, om, d1o, d2t, d2o, d3t, d3o, d4t, d4o, q, t_dev, tc, tmp, *_, \
            p_term, d_term = x
        tau_th, th_om, d1, d2, d3, d4, tmp2, s, pd = (
            x[r:r + 2].reshape(-1) for r in (0, 1, 2, 4, 6, 8, 13, 15, 17))
        gains = np.repeat([limb.tracking_stiffness_gain, limb.tracking_damping_gain], b)
        k_si, neg_k = k_si[:b], neg_k[:b]
        # each step's reference angles and velocities, then feedforwards
        gathered = gathered_block[:chunk * 3 * b].reshape(chunk, 3 * b)
        staged = staged_block[:chunk * 2 * b].reshape(chunk, 2 * b)
        columns = (len(plans) * np.arange(3)[:, None] + plan_of[:b]).ravel()
        amp, win = amplitude[:b], window[:b]
        # RK4 stage by stage: the angle at which the velocity's derivative
        # is taken, that derivative, and the next stage's angle and step
        stages = ((om, d1o, d2t, half_dt), (d2t, d2o, d3t, half_dt),
                  (d3t, d3o, d4t, dt), (d4t, d4o, None, None))
        with np.errstate(all="ignore"):  # a diverging lane overflows
            while step < sizes[p]:
                at, stop = step % chunk, min(sizes[p], step - step % chunk + chunk)
                if noisy and at == 0:
                    for c in range(b):
                        rngs[c].standard_normal(
                            out=noise[c, :min(chunk, sizes[plan_of[c]] - step)])
                    noise *= limb.motor_noise_std
                    noise += 0.0  # normal() adds its loc: -0.0 becomes 0.0
                g = gathered[:stop - step]
                table[step:stop].take(columns, 1, g, "clip")
                add(g[:, 2 * b:], k_si * g[:, :b] * deg, g[:, 2 * b:])
                for i, ref, ff, w in zip(range(stop - step), g[:, :2 * b], g[:, 2 * b:],
                                         noise[:b, at:].T):
                    div(th, resolution, q)
                    np.floor(q, q)
                    add(q, zero, q)  # math.floor's 0 for np.floor's -0.0
                    mul(q, resolution, q)
                    mul(neg_k, q, t_dev)
                    np.maximum(t_dev, torque_min, out=t_dev)
                    np.minimum(t_dev, torque_max, out=t_dev)
                    sub(ref, th_om, pd)  # kp (a_ref - theta) deg, kd (v_ref - omega) deg
                    mul(pd, gains, pd)
                    mul(pd, deg, pd)
                    add(ff, p_term, tau)
                    add(tau, d_term, tau)
                    add(tau, w, tau)
                    staged[i] = tau_th
                    mul(t_dev, mnm, tmp)
                    add(tau, tmp, tc)
                    for y, dy, z, h in stages:
                        mul(y, damping, tmp)
                        mul(tmp, deg, tmp)
                        sub(tc, tmp, dy)
                        div(dy, inertia, dy)
                        div(dy, deg, dy)
                        if z is not None:
                            mul(dy, h, z)
                            add(om, z, z)
                    # the angle's and the velocity's update at once
                    mul(d2, two, s)
                    add(d1, s, s)
                    mul(d3, two, tmp2)
                    add(s, tmp2, s)
                    add(s, d4, s)
                    mul(s, sixth_dt, s)
                    add(th_om, s, th_om)
                # the chunk lane by lane, where its gathered reference was:
                # torques and counts kept, the angle hashed and folded in
                n = stop - step
                lanewise = g.reshape(-1)[:2 * b * n].reshape(2 * b, n)
                lanewise[...] = staged[:n].T
                theta, spare = lanewise[b:], g.reshape(-1)[2 * b * n:].reshape(b, n)
                div(theta, resolution, spare)  # the counts as the loop floors them
                np.floor(spare, spare)
                add(spare, zero, spare)
                for r in range(p + 1):
                    muscles[r][:, step:stop] = lanewise[starts[r]:starts[r + 1]]
                    counts[r][:, step:stop] = spare[starts[r]:starts[r + 1]]
                for c in range(b):
                    hashes[c].update(theta[c])
                high, low = theta.max(1), theta.min(1)
                ok[:b] &= (high <= 10.0 * amp) & (low >= -10.0 * amp)  # NaN fails
                # the first sample in a stroke's target window, looked for where
                # a lane's extremes reach a window it has not hit yet
                for c in np.flatnonzero((led[0, :b] < 0) & (step < out_samples[:b])
                                        & (high - amp > -win) & (low - amp < win)
                                        | (led[1, :b] < 0) & (stop > out_samples[:b])
                                        & (high > -win) & (low < win)):
                    out = np.arange(step, stop) < out_samples[c]
                    near = np.abs(theta[c] - amp[c] * out) < win[c]
                    for hits, first in ((near & out, led[0]), (near & ~out, led[1])):
                        if first[c] < 0 and hits.any():
                            first[c] = step + hits.argmax()
                # the path length's left fold: cumsum adds in order
                sub(theta[:, 1:], theta[:, :-1], spare[:, 1:])
                sub(theta[:, 0], last[:b], spare[:, 0])
                np.abs(spare, spare)
                add(spare[:, 0], path[:b], spare[:, 0])
                np.cumsum(spare, 1, out=spare)
                path[:b], last[:b] = spare[:, -1], theta[:, -1]
                step = stop
        for row, (c, j) in enumerate(zip(range(starts[p], b), lanes[p])):
            outcome = None  # the scalar loop raises past the limit or at NaN
            if ok[c]:
                events = tuple(refs[p].time[led[:, c][led[:, c] >= 0]].tolist())
                velocity = path[c] / refs[p].time[-1]
                series = _recorded_series(explorations[j][0], limb, device,
                                          counts[p][row] * resolution, muscles[p][row])
                digest = _recording_hash(hashes[c], series, events, velocity).hexdigest
                outcome = LaneOutcome(digest, events, velocity)
            yield j, outcome


@functools.lru_cache(maxsize=4)  # a trial explores two springs, often again
def _noise_response(k: float, plan: TrajectoryPlan, limb: LimbConfig):
    """simulate_exploration's loop as a linear map, the spring ``k`` rendered
    unquantised and unsaturated: ``(size, response)``, the angle's transfer
    function from standard normal noise (deg per draw) on the ``size``-point
    rfft grid.  Its circular convolution with n draws gives their response's
    first n samples, plus what of each draw's ringing the loop has not damped
    ``size`` - n samples on, which the grid wraps round into them."""
    n, dt, deg = len(_plan_reference(plan)[0].time), 1.0 / plan.sample_rate, _DEG
    size = 1 << (3 * n // 2).bit_length()
    stiffness = limb.tracking_stiffness_gain * deg + k * _MNM  # Nm/deg

    def step(theta, omega, tau):  # the loop's RK4 step
        tau -= stiffness * theta + limb.tracking_damping_gain * deg * omega
        d = [0.0]
        for h in (0.0, dt / 2, dt / 2, dt):
            d.append((tau - limb.damping * deg * (omega + h * d[-1])) / limb.inertia / deg)
        return (theta + dt * omega + dt * dt / 6 * (d[1] + d[2] + d[3]),
                omega + dt / 6 * (d[1] + 2 * d[2] + 2 * d[3] + d[4]))

    # the step x' = [[a, b], [c, d]] x + (p, q) tau, whose angle's transfer
    # function from tau is ((z - d) p + b q) / ((z - a)(z - d) - b c)
    (a, c), (b, d), (p, q) = step(1.0, 0.0, 0.0), step(0.0, 1.0, 0.0), step(0.0, 0.0, 1.0)
    z = np.exp(2j * np.pi * np.fft.rfftfreq(size))
    with np.errstate(all="ignore"):  # as in _feedforward: an extreme limb overflows
        return size, limb.motor_noise_std * ((z - d) * p + b * q) / ((z - a) * (z - d) - b * c)


def predicted_velocity_ok(spring: SpringParam, plan: TrajectoryPlan, limb: LimbConfig,
                          rng: np.random.Generator, tolerance: float) -> bool:
    """A guess at ``achieved_velocity_ok`` of ``simulate_exploration(spring,
    plan, limb, device, rng)``: the reference angle (the feedforward is its
    inverse dynamics, so the loop follows it without noise) plus the loop's
    linear response to the same motor noise (s x ``standard_normal()``, as
    ``normal(0, s)`` draws it), leaving ``rng`` where that call leaves it.
    The out stroke is a prefix of the samples."""
    ref, _, _, out = _plan_reference(plan)
    size, response = _noise_response(spring.k, plan, limb)
    noise, stroke = rng.standard_normal(len(ref.time)), np.count_nonzero(out)
    with np.errstate(all="ignore"):
        theta = ref.angle + np.fft.irfft(response * np.fft.rfft(noise, size), size)[:len(noise)]
        achieved = (np.abs(np.diff(theta)).sum() + abs(theta[0])) / ref.time[-1]
        return bool((np.abs(theta[:stroke] - plan.amplitude) < plan.led_window).any()
                    and (np.abs(theta[stroke:]) < plan.led_window).any()
                    and abs(achieved - plan.mean_speed) <= tolerance)


def achieved_velocity_ok(
    rec: TrialRecording, plan: TrajectoryPlan, tolerance: float
) -> bool:
    """Accept the exploration iff mean speed is on target and the LED fired
    on both strokes."""
    if len(rec.led_events) < 2:
        return False
    return abs(rec.achieved_mean_velocity - plan.mean_speed) <= tolerance
