import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stifflab import plant
from stifflab.plant import (
    DeviceConfig,
    LimbConfig,
    SpringParam,
    TrajectoryPlan,
    TrialRecording,
    UnstableIntegrationError,
    _plan_reference,
    achieved_velocity_ok,
    min_jerk_trajectory,
    plan_for_bpm,
    predicted_velocity_ok,
    quantize_angle,
    simulate_exploration,
    simulate_lanes,
    spring_torque,
)
from stifflab.staircase import default_config


def _min_jerk_velocity(amplitude, beat_duration, s):
    return amplitude / beat_duration * (30 * s**2 - 60 * s**3 + 30 * s**4)


class TestMinJerk:
    @pytest.mark.parametrize("bpm,period,mean", [
        (45.0, 60.0 / 45.0, 67.5),
        (75.0, 0.8, 112.5),
    ])
    def test_metronome_pacing(self, bpm, period, mean):
        plan = plan_for_bpm(bpm)
        assert plan.beat_duration == pytest.approx(period, abs=1e-9)
        assert plan.mean_speed == pytest.approx(mean, abs=1e-9)

    def test_boundary_conditions(self):
        # 75 bpm puts the stroke boundary exactly on the 1 kHz grid
        plan = plan_for_bpm(75.0)
        ref = min_jerk_trajectory(plan)
        n_half = int(round(plan.beat_duration * plan.sample_rate))
        assert plan.beat_duration * plan.sample_rate == n_half
        assert ref.angle[0] == pytest.approx(0.0, abs=1e-9)
        assert ref.angle[n_half] == pytest.approx(plan.amplitude, abs=1e-9)
        assert ref.angle[-1] == pytest.approx(0.0, abs=1e-9)
        for idx in (0, n_half, len(ref.time) - 1):
            assert ref.velocity[idx] == pytest.approx(0.0, abs=1e-9)
            assert ref.acceleration[idx] == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_endpoints_any_period(self):
        amp, period = 90.0, 60.0 / 45.0
        for s, angle in ((0.0, 0.0), (1.0, amp)):
            assert amp * (10 * s**3 - 15 * s**4 + 6 * s**5) == pytest.approx(
                angle, abs=1e-9)
            assert _min_jerk_velocity(amp, period, s) == pytest.approx(
                0.0, abs=1e-9)

    def test_mean_and_peak_speed(self):
        plan = plan_for_bpm(45.0)
        # closed-form peak at midstroke is 1.875 x mean speed
        peak = _min_jerk_velocity(plan.amplitude, plan.beat_duration, 0.5)
        assert peak == pytest.approx(1.875 * plan.mean_speed, abs=1e-9)
        assert peak == pytest.approx(126.5625, abs=1e-9)
        ref = min_jerk_trajectory(plan)
        assert ref.velocity.max() <= peak + 1e-9
        assert ref.velocity.max() == pytest.approx(peak, rel=1e-4)
        # displacement-based mean speed over a grid-exact out stroke
        exact = plan_for_bpm(75.0)
        ref75 = min_jerk_trajectory(exact)
        n_half = int(round(exact.beat_duration * exact.sample_rate))
        mean = (ref75.angle[n_half] - ref75.angle[0]) / exact.beat_duration
        assert mean == pytest.approx(exact.mean_speed, abs=1e-9)

    def test_return_stroke_mirrors_out_stroke(self):
        ref = min_jerk_trajectory(plan_for_bpm(75.0))
        n_half = (len(ref.angle) - 1) // 2
        out = ref.angle[:n_half + 1]
        back = ref.angle[n_half:]
        assert np.allclose(back, out[-1] - out, atol=1e-9)


class TestRendering:
    def test_reference_spring_at_full_pronation(self):
        tau = spring_torque(SpringParam(k=1.11), 90.0, DeviceConfig())
        assert abs(tau) == pytest.approx(99.9, abs=1e-9)
        assert tau < 0  # restoring

    def test_threshold_spring_at_full_pronation(self):
        k = (1.0 + 0.838) * 1.11
        tau = spring_torque(SpringParam(k=k), 90.0, DeviceConfig())
        assert abs(tau) == pytest.approx(183.6162, abs=1e-9)

    def test_zero_displacement(self):
        assert spring_torque(SpringParam(k=1.11), 0.0, DeviceConfig()) == 0.0

    def test_saturation(self):
        device = DeviceConfig(torque_limit=100.0)
        assert spring_torque(SpringParam(k=10.0), 90.0, device) == -100.0
        assert spring_torque(SpringParam(k=10.0), -90.0, device) == 100.0


class TestQuantization:
    def test_default_resolution(self):
        device = DeviceConfig()
        assert 360.0 / device.encoder_counts_per_rev == pytest.approx(
            0.087890625, abs=1e-12)

    def test_zero_fixed(self):
        assert quantize_angle(0.0, DeviceConfig()) == 0.0

    def test_lattice_fixed_points(self):
        device = DeviceConfig()
        r = 360.0 / device.encoder_counts_per_rev
        for n in (-10, -1, 0, 3, 117):
            assert quantize_angle(n * r, device) == pytest.approx(n * r, abs=1e-12)

    @given(angle=st.floats(-360.0, 360.0, allow_nan=False).filter(
        lambda a: a == 0.0 or abs(a) > 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_floor_within_resolution(self, angle):
        device = DeviceConfig()
        r = 360.0 / device.encoder_counts_per_rev
        q = quantize_angle(angle, device)
        assert 0.0 <= angle - q < r


class TestSimulation:
    @pytest.fixture
    def setup(self):
        return (SpringParam(k=1.11), plan_for_bpm(45.0), LimbConfig(),
                DeviceConfig())

    def test_achieved_velocity_tracks_target(self, setup):
        spring, plan, limb, device = setup
        rec = simulate_exploration(spring, plan, limb, device,
                                   np.random.default_rng(0))
        assert rec.achieved_mean_velocity == pytest.approx(67.5, abs=1.0)
        assert achieved_velocity_ok(rec, plan, tolerance=5.0)

    def test_zero_stiffness_renders_zero_torque(self, setup):
        _, plan, limb, device = setup
        rec = simulate_exploration(SpringParam(k=0.0), plan, limb, device,
                                   np.random.default_rng(0))
        assert np.all(rec.commanded_torque == 0.0)

    def test_doubling_stiffness_doubles_peak_torque(self, setup):
        spring, plan, limb, device = setup
        rec1 = simulate_exploration(spring, plan, limb, device,
                                    np.random.default_rng(0))
        rec2 = simulate_exploration(SpringParam(k=2 * spring.k), plan, limb,
                                    device, np.random.default_rng(0))
        ratio = np.abs(rec2.commanded_torque).max() / \
            np.abs(rec1.commanded_torque).max()
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_torque_rendered_from_quantized_angle(self, setup):
        spring, plan, limb, device = setup
        rec = simulate_exploration(spring, plan, limb, device,
                                   np.random.default_rng(3))
        expected = np.clip(-spring.k * rec.quantized_angle,
                           -device.torque_limit, device.torque_limit)
        assert np.array_equal(rec.commanded_torque, expected)
        assert np.all(np.abs(rec.commanded_torque) <= device.torque_limit)

    def test_quantized_angle_within_resolution(self, setup):
        spring, plan, limb, device = setup
        rec = simulate_exploration(spring, plan, limb, device,
                                   np.random.default_rng(1))
        r = 360.0 / device.encoder_counts_per_rev
        err = rec.angle - rec.quantized_angle
        assert np.all((err >= 0.0) & (err < r))

    def test_spring_is_conservative_without_quantization(self, setup):
        spring, plan, limb, _ = setup
        fine = DeviceConfig(encoder_counts_per_rev=2**40)
        rec = simulate_exploration(spring, plan, limb, fine,
                                   np.random.default_rng(2))
        # net work over the closed out-and-back path vanishes (trapezoid)
        mid = 0.5 * (rec.commanded_torque[:-1] + rec.commanded_torque[1:])
        work = np.sum(mid * np.diff(rec.angle))
        peak_energy = 0.5 * spring.k * plan.amplitude**2
        assert abs(work) < 1e-3 * peak_energy

    def test_led_fires_once_per_stroke(self, setup):
        spring, plan, limb, device = setup
        rec = simulate_exploration(spring, plan, limb, device,
                                   np.random.default_rng(0))
        assert len(rec.led_events) == 2
        assert 0.0 < rec.led_events[0] <= plan.beat_duration
        assert plan.beat_duration < rec.led_events[1] <= 2 * plan.beat_duration

    def test_series_lengths_consistent(self, setup):
        spring, plan, limb, device = setup
        rec = simulate_exploration(spring, plan, limb, device,
                                   np.random.default_rng(0))
        n = len(rec.time)
        for series in (rec.angle, rec.quantized_angle, rec.commanded_torque,
                       rec.muscle_torque, rec.activation):
            assert len(series) == n
        assert np.all((rec.activation >= 0.0) & (rec.activation <= 1.0))

    def test_unstable_gains_diagnosed(self, setup):
        spring, plan, _, device = setup
        bad = LimbConfig(tracking_stiffness_gain=1e7,
                         tracking_damping_gain=0.0)
        with pytest.raises(UnstableIntegrationError):
            simulate_exploration(spring, plan, bad, device,
                                 np.random.default_rng(0))

    def test_deterministic_per_seed(self, setup):
        spring, plan, limb, device = setup
        limb = LimbConfig(motor_noise_std=0.01)
        rec1 = simulate_exploration(spring, plan, limb, device,
                                    np.random.default_rng(9))
        rec2 = simulate_exploration(spring, plan, limb, device,
                                    np.random.default_rng(9))
        assert rec1.digest() == rec2.digest()


def _reference_exploration(spring, plan, limb, device, rng):
    """simulate_exploration as first written: NumPy scalar indexing, the
    quantize_angle/spring_torque helpers and a per-step derivative closure.
    The kernel must reproduce it bit for bit."""
    ref = min_jerk_trajectory(plan)
    n = len(ref.time)
    dt = 1.0 / plan.sample_rate
    deg, mnm = np.pi / 180.0, 1e-3
    inertia, damping = limb.inertia, limb.damping
    kp, kd = limb.tracking_stiffness_gain, limb.tracking_damping_gain
    k_si = spring.k * mnm / deg
    tau_ff = (inertia * ref.acceleration * deg + damping * ref.velocity * deg
              + k_si * ref.angle * deg)
    noise = (rng.normal(0.0, limb.motor_noise_std, size=n)
             if limb.motor_noise_std > 0 else np.zeros(n))
    theta = omega = path_length = 0.0
    angle, q_angle, tau_dev, tau_mus = (np.empty(n) for _ in range(4))
    led, stroke_seen = [], [False, False]
    for i in range(n):
        theta_q = quantize_angle(theta, device)
        t_dev = spring_torque(spring, theta_q, device)
        t_mus = (tau_ff[i] + kp * (ref.angle[i] - theta) * deg
                 + kd * (ref.velocity[i] - omega) * deg + noise[i])
        angle[i], q_angle[i], tau_dev[i], tau_mus[i] = theta, theta_q, t_dev, t_mus / mnm
        stroke = 0 if ref.time[i] <= plan.beat_duration else 1
        target = plan.amplitude if stroke == 0 else 0.0
        if not stroke_seen[stroke] and abs(theta - target) < plan.led_window:
            stroke_seen[stroke] = True
            led.append(float(ref.time[i]))
        if abs(theta) > 10.0 * plan.amplitude:
            raise UnstableIntegrationError(
                f"angle {theta:.1f} deg exceeds 10x amplitude at t={ref.time[i]:.3f}s")
        if i == n - 1:
            break
        tau_const = t_mus + t_dev * mnm

        def deriv(th, om):
            return om, (tau_const - damping * om * deg) / inertia / deg

        d1t, d1o = deriv(theta, omega)
        d2t, d2o = deriv(theta + 0.5 * dt * d1t, omega + 0.5 * dt * d1o)
        d3t, d3o = deriv(theta + 0.5 * dt * d2t, omega + 0.5 * dt * d2o)
        d4t, d4o = deriv(theta + dt * d3t, omega + dt * d3o)
        new_theta = theta + dt / 6.0 * (d1t + 2 * d2t + 2 * d3t + d4t)
        omega = omega + dt / 6.0 * (d1o + 2 * d2o + 2 * d3o + d4o)
        path_length += abs(new_theta - theta)
        theta = new_theta
    return TrialRecording(
        time=ref.time, angle=angle, quantized_angle=q_angle,
        commanded_torque=tau_dev, muscle_torque=tau_mus,
        activation=np.clip(np.abs(tau_mus) / limb.muscle_torque_max, 0.0, 1.0),
        led_events=tuple(led), achieved_mean_velocity=path_length / ref.time[-1])


def _assert_matches_reference(args, seed):
    """simulate_exploration gives _reference_exploration's recording bit for
    bit, or raises its error with its message; returns the recording."""
    try:
        slow = _reference_exploration(*args, np.random.default_rng(seed))
    except (UnstableIntegrationError, ArithmeticError, ValueError) as exc:
        with pytest.raises(Exception) as fast:
            simulate_exploration(*args, np.random.default_rng(seed))
        assert (type(fast.value), str(fast.value)) == (type(exc), str(exc))
        return None
    fast = simulate_exploration(*args, np.random.default_rng(seed))
    assert fast.digest() == slow.digest()
    assert fast.led_events == slow.led_events
    assert (np.float64(fast.achieved_mean_velocity).tobytes()
            == np.float64(slow.achieved_mean_velocity).tobytes())
    return fast


class TestKernelMatchesReference:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("bpm", [45.0, 75.0])
    @pytest.mark.parametrize("k", [0.0, 1.11, 2.22, 30.0])
    def test_bit_identical(self, k, bpm, noise):
        _assert_matches_reference((SpringParam(k=k), plan_for_bpm(bpm),
                                   LimbConfig(motor_noise_std=noise),
                                   DeviceConfig()), 3)

    @given(k=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
           bpm=st.floats(30.0, 100.0),
           noise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           counts=st.one_of(st.integers(4, 64), st.integers(64, 2**20)),
           torque_limit=st.floats(0.5, 300.0),
           led_window=st.sampled_from([2.5, 0.5, 0.05]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_property(self, k, bpm, noise, counts, torque_limit,
                                    led_window, seed):
        # k up to 40 mNm/deg against limits down to 0.5 mNm saturates the
        # spring; 4 to 64 counts per revolution quantize coarsely
        _assert_matches_reference(
            (SpringParam(k=k), plan_for_bpm(bpm, led_window=led_window),
             LimbConfig(motor_noise_std=noise),
             DeviceConfig(encoder_counts_per_rev=counts, torque_limit=torque_limit)),
            seed)

    def test_bit_identical_when_saturated_and_coarse(self):
        # a 2 mNm limit saturates the spring on most of the stroke and a
        # 7-count encoder makes every quantization step visible
        fast = _assert_matches_reference(
            (SpringParam(k=1.41), plan_for_bpm(60.0), LimbConfig(),
             DeviceConfig(encoder_counts_per_rev=7, torque_limit=2.0)), 0)
        assert np.any(np.abs(fast.commanded_torque) == 2.0)

    def test_saturation_at_the_negative_limit(self):
        # 40 mNm/deg would need 3600 mNm at full pronation
        fast = _assert_matches_reference(
            (SpringParam(k=40.0), plan_for_bpm(45.0), LimbConfig(),
             DeviceConfig()), 0)
        assert fast.commanded_torque.min() == -300.0

    @pytest.mark.parametrize("k,bpm,led_events", [
        (10.0, 75.0, 1),  # the return stroke misses its 0.05 deg window
        (40.0, 45.0, 1),  # the out stroke misses it
    ])
    def test_missed_led_is_rejected(self, k, bpm, led_events):
        plan = plan_for_bpm(bpm, led_window=0.05)
        fast = _assert_matches_reference(
            (SpringParam(k=k), plan, LimbConfig(), DeviceConfig()), 0)
        assert len(fast.led_events) == led_events
        assert not achieved_velocity_ok(fast, plan, tolerance=1e9)

    @pytest.mark.parametrize("beat_duration,samples", [
        (0.0005, 2), (0.00075, 3), (0.002, 5)])
    def test_plans_of_a_few_samples(self, beat_duration, samples):
        plan = TrajectoryPlan(amplitude=90.0, beat_duration=beat_duration,
                              sample_rate=1000.0)
        fast = _assert_matches_reference(
            (SpringParam(k=1.11), plan, LimbConfig(), DeviceConfig()), 0)
        assert len(fast.angle) == samples

    def _assert_same_instability(self, gain):
        args = (SpringParam(k=1.11), plan_for_bpm(45.0),
                LimbConfig(tracking_stiffness_gain=gain, tracking_damping_gain=0.0),
                DeviceConfig())
        with pytest.raises(UnstableIntegrationError) as slow:
            _reference_exploration(*args, np.random.default_rng(0))
        with pytest.raises(UnstableIntegrationError) as fast:
            simulate_exploration(*args, np.random.default_rng(0))
        assert str(fast.value) == str(slow.value)

    def test_same_instability_diagnosis(self):
        # the angle overflows to NaN after the limit, before the plan ends
        self._assert_same_instability(1e7)

    def test_same_instability_diagnosis_without_overflow(self):
        # the angle passes the limit and stays finite to the end of the plan
        self._assert_same_instability(300.0)


class TestLanesMatchScalar:
    FEW = TrajectoryPlan(amplitude=90.0, beat_duration=0.002, sample_rate=1000.0)  # 5 samples

    @staticmethod
    def _lanes(explorations, limb, device):
        """simulate_lanes' recordings by index; no lane may warn or raise."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lanes = simulate_lanes(dict(enumerate(explorations)), limb, device)
        assert sorted(lanes) == list(range(len(explorations)))
        return lanes

    def test_mixed_lanes_match_the_scalar_loop(self, monkeypatch):
        # both paces and a plan of a few samples in one slice of 21 lanes; on
        # a 64-count encoder, k = 300 saturates a 10 N m limit, and k = 1000
        # and 1e6 diverge (the limit holds their angle finite)
        monkeypatch.setattr("stifflab.plant.MIN_LANES", 1)
        limb = LimbConfig()
        device = DeviceConfig(encoder_counts_per_rev=64, torque_limit=1e4)
        explorations = [(SpringParam(k=k), plan, None)
                        for k in (0.0, 1.11, 1.665, 2.22, 300.0, 1000.0, 1e6)
                        for plan in (plan_for_bpm(45.0), plan_for_bpm(75.0), self.FEW)]
        lanes = self._lanes(explorations, limb, device)
        diverged, saturated = [], []
        for index, (spring, plan, _) in enumerate(explorations):
            try:
                scalar = simulate_exploration(spring, plan, limb, device,
                                              np.random.default_rng(0))
            except UnstableIntegrationError:
                assert lanes[index] is None
                diverged.append((spring.k, len(_plan_reference(plan)[0].time)))
                continue
            lane = lanes[index]
            assert lane.digest() == scalar.digest()
            assert lane.led_events == scalar.led_events
            assert (np.float64(lane.achieved_mean_velocity).tobytes()
                    == np.float64(scalar.achieved_mean_velocity).tobytes())
            if np.any(np.abs(scalar.commanded_torque) == device.torque_limit):
                saturated.append((spring.k, len(scalar.time)))
        assert diverged == [(1000.0, 2668), (1000.0, 1601),
                            (1e6, 2668), (1e6, 1601), (1e6, 5)]
        assert saturated == [(300.0, 2668), (300.0, 1601)]

    # encoder counts kept as int16, int32 and int64, and as float64 past int64
    @pytest.mark.parametrize("counts,width", [(4096, 2), (2**20, 4), (2**40, 8), (2**62, 8)])
    @pytest.mark.parametrize("limb", [
        LimbConfig(), LimbConfig(motor_noise_std=0.3),
        # noise that trips the velocity check now and then, and noise that
        # rounds to subnormals and zeros of either sign
        LimbConfig(motor_noise_std=3.0), LimbConfig(motor_noise_std=5e-324)])
    def test_noisy_lanes_match_the_scalar_loop(self, limb, counts, width, monkeypatch):
        # slices of lanes of three paces, longest first, each lane's
        # reference gathered and noise drawn in chunks of 100 samples, over
        # lanes that end mid-chunk
        monkeypatch.setattr("stifflab.plant.NOISE_CHUNK", 100)
        monkeypatch.setattr("stifflab.plant.LANE_BYTES", 600_000)
        monkeypatch.setattr("stifflab.plant.MIN_LANES", 12)
        slices, lane_slice = [], plant._lane_slice
        monkeypatch.setattr("stifflab.plant._lane_slice",
                            lambda e, *a: slices.append(e) or lane_slice(e, *a))
        device = DeviceConfig(encoder_counts_per_rev=counts)
        plans = (plan_for_bpm(45.0), plan_for_bpm(75.0), self.FEW)
        explorations = [(SpringParam(k=0.5 + 0.1 * i), plans[i % 3],
                         np.random.default_rng(i)) for i in range(40)]
        lanes = self._lanes(explorations, limb, device)
        # a lane's bytes: its muscle torque and count per sample, and its
        # reference, staged torque and angle, and noise per chunk sample
        noisy = limb.motor_noise_std > 0

        def lane_bytes(exploration):
            return (len(_plan_reference(exploration[1])[0].time) * (8 + width)
                    + 8 * 100 * (5 + noisy))
        taken = [sum(map(lane_bytes, lanes)) for lanes in slices]
        assert max(taken) <= 600_000
        assert all(used + lane_bytes(later[0]) > 600_000
                   for used, later in zip(taken, slices[1:]))
        assert [len(lanes) for lanes in slices] == {
            (2, False): [22, 18], (2, True): [21, 19], (4, False): [18, 22],
            (4, True): [17, 23], (8, False): [12, 28], (8, True): [12, 28],
        }[width, noisy]
        for index, (spring, plan, rng) in enumerate(explorations):
            scalar_rng = np.random.default_rng(index)
            scalar = simulate_exploration(spring, plan, limb, device, scalar_rng)
            assert lanes[index].digest() == scalar.digest()
            assert lanes[index].led_events == scalar.led_events
            assert (np.float64(lanes[index].achieved_mean_velocity).tobytes()
                    == np.float64(scalar.achieved_mean_velocity).tobytes())
            assert rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_overflowing_lanes_are_left_out_without_a_warning(self, monkeypatch):
        # tracking gains that overflow the angle to inf and NaN before the
        # plan ends: the scalar loop stops at math.floor of it
        monkeypatch.setattr("stifflab.plant.MIN_LANES", 1)
        limb = LimbConfig(tracking_stiffness_gain=1e7, tracking_damping_gain=0.0)
        explorations = [(SpringParam(k=1.11), plan_for_bpm(bpm)) for bpm in (45.0, 75.0)]
        assert self._lanes([e + (None,) for e in explorations], limb,
                           DeviceConfig()) == {0: None, 1: None}
        for exploration in explorations:
            with pytest.raises(UnstableIntegrationError) as diverged:
                simulate_exploration(*exploration, limb, DeviceConfig(),
                                     np.random.default_rng(0))
            assert isinstance(diverged.value.__context__, (OverflowError, ValueError))

    def test_lanes_past_the_lower_limit_are_left_out(self, monkeypatch):
        # a stiff undamped tracker swings a 9-sample stroke to -1412 deg,
        # finite and never past +10x amplitude
        monkeypatch.setattr("stifflab.plant.MIN_LANES", 1)
        plan = TrajectoryPlan(amplitude=90.0, beat_duration=0.004, sample_rate=1000.0)
        limb = LimbConfig(tracking_stiffness_gain=3e4, tracking_damping_gain=0.0)
        assert self._lanes([(SpringParam(k=1.11), plan, None)], limb,
                           DeviceConfig()) == {0: None}
        with pytest.raises(UnstableIntegrationError, match="angle -1412.2 deg exceeds"):
            simulate_exploration(SpringParam(k=1.11), plan, limb, DeviceConfig(),
                                 np.random.default_rng(0))

    @pytest.mark.parametrize("limb", [LimbConfig(), LimbConfig(motor_noise_std=0.3)])
    def test_refused_lane_sets(self, limb):
        explorations = [(SpringParam(k=1.11), plan, np.random.default_rng(0))
                        for plan in (plan_for_bpm(45.0), plan_for_bpm(45.0, sample_rate=500.0))]
        with pytest.raises(ValueError, match="sample rates differ"):
            simulate_lanes(dict(enumerate(explorations)), limb, DeviceConfig())


def _predictions(limb, bpm, tolerance, trials):
    """predicted_velocity_ok and the simulated outcome of the staircase's
    explorations: per trial the reference spring and a comparison from the
    floor to the cap of the default levels, each drawing its noise where the
    one before left the RNG.  The outcomes are simulate_lanes', bit for bit
    simulate_exploration's, and each lane's RNG ends where its prediction
    left the RNG."""
    plan, staircase = plan_for_bpm(bpm), default_config(1.11)
    levels = np.linspace(staircase.level_floor, staircase.level_cap, 25)
    rng, explorations, guesses, after = np.random.default_rng(7), {}, [], []
    for trial in range(trials):
        for spring in (SpringParam(k=1.11), SpringParam(k=1.11 + levels[trial * 7 % 25])):
            before = np.random.default_rng(0)
            before.bit_generator.state = rng.bit_generator.state
            explorations[len(guesses)] = spring, plan, before
            guesses.append(predicted_velocity_ok(spring, plan, limb, rng, tolerance))
            after.append(rng.bit_generator.state)
    lanes = simulate_lanes(explorations, limb, DeviceConfig())
    assert sorted(lanes) == list(explorations)
    assert [rng.bit_generator.state for _, _, rng in explorations.values()] == after
    return guesses, [lanes[i] is not None and achieved_velocity_ok(lanes[i], plan, tolerance)
                     for i in range(len(guesses))]


class TestPrediction:
    # each noise level with a velocity tolerance near its median miss of
    # the pace, so that many predictions are close calls, 750 explorations
    # a pace and noise level
    @pytest.mark.parametrize("sigma,tolerance", [(0.3, 3.0), (1.0, 20.0), (3.0, 125.0)])
    @pytest.mark.parametrize("bpm", [45.0, 75.0])
    def test_prediction_agrees_with_the_plant(self, bpm, sigma, tolerance):
        guesses, outcomes = _predictions(LimbConfig(motor_noise_std=sigma), bpm, tolerance, 375)
        assert sum(guess != outcome for guess, outcome in zip(guesses, outcomes)) <= 1
        assert set(outcomes) == {True, False}

    # the noisy session's motor noise and velocity tolerance at the slower
    # pace, 300 explorations each: a limb 5 x heavier than the default, whose
    # loop rings long and which accepts every one, and weak tracking gains,
    # whose angle the unsaturated, unquantised model misses by up to 0.6 deg
    # and whose ringing the 4,096-point grid wraps into the samples, so that
    # 3 close calls tip over
    @pytest.mark.parametrize("limb,wrong,outcomes", [
        (LimbConfig(inertia=0.02, motor_noise_std=0.3), 0, {True}),
        (LimbConfig(tracking_stiffness_gain=1.0, tracking_damping_gain=0.01,
                    motor_noise_std=0.3), 3, {True, False}),
    ], ids=["heavy", "weak_gains"])
    def test_prediction_follows_other_limbs(self, limb, wrong, outcomes):
        guesses, simulated = _predictions(limb, 45.0, 5.0, 150)
        assert sum(guess != outcome for guess, outcome in zip(guesses, simulated)) <= wrong
        assert set(simulated) == outcomes

    def test_prediction_draws_the_noise_of_the_exploration(self):
        limb = LimbConfig(motor_noise_std=0.3)
        predicted, simulated = np.random.default_rng(4), np.random.default_rng(4)
        plan = plan_for_bpm(45.0)
        guess = predicted_velocity_ok(SpringParam(k=1.11), plan, limb, predicted, 5.0)
        recording = simulate_exploration(SpringParam(k=1.11), plan, limb, DeviceConfig(),
                                         simulated)
        assert predicted.bit_generator.state == simulated.bit_generator.state
        assert guess == achieved_velocity_ok(recording, plan, 5.0)


class TestPlanReferenceCache:
    def test_recording_time_is_read_only(self):
        rec = simulate_exploration(SpringParam(k=1.11), plan_for_bpm(45.0), LimbConfig(),
                                   DeviceConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="read-only"):
            rec.time[0] = 1.0
        # the public trajectory is built afresh, so its callers may change it
        ref = min_jerk_trajectory(plan_for_bpm(45.0))
        ref.time[0] = 1.0
        assert rec.time[0] == 0.0

    def test_keyed_by_plan_value(self):
        assert plan_for_bpm(45.0) is not plan_for_bpm(45.0)
        assert _plan_reference(plan_for_bpm(45.0)) is _plan_reference(plan_for_bpm(45.0))

    def test_size_stays_within_its_bound(self):
        bound = _plan_reference.cache_info().maxsize
        for bpm in range(40, 40 + 3 * bound):
            simulate_exploration(SpringParam(k=1.11), plan_for_bpm(bpm, sample_rate=100.0),
                                 LimbConfig(), DeviceConfig(), np.random.default_rng(0))
            assert _plan_reference.cache_info().currsize <= bound


_SERIES = ("time", "angle", "quantized_angle", "commanded_torque", "muscle_torque",
           "activation")


def _digest_by_copy(rec):
    """TrialRecording.digest as first written: each series copied by tobytes."""
    h = hashlib.sha256()
    for name in _SERIES:
        h.update(np.ascontiguousarray(getattr(rec, name), dtype=np.float64).tobytes())
    h.update(np.asarray(rec.led_events, dtype=np.float64).tobytes())
    h.update(np.float64(rec.achieved_mean_velocity).tobytes())
    return h.hexdigest()


class TestDigest:
    @pytest.mark.parametrize("layout", [
        lambda a: a,                                     # contiguous float64
        lambda a: np.repeat(a, 2)[::2],                  # strided
        lambda a: a.astype(np.float32),                  # not float64
        lambda a: np.round(a * 100.0).astype(np.int64),  # not float
    ], ids=["contiguous", "strided", "float32", "int64"])
    def test_equals_the_digest_of_copied_bytes(self, layout):
        rec = simulate_exploration(SpringParam(k=1.11), plan_for_bpm(75.0),
                                   LimbConfig(motor_noise_std=0.3), DeviceConfig(),
                                   np.random.default_rng(4))
        rec = dataclasses.replace(rec, **{name: layout(getattr(rec, name))
                                          for name in _SERIES})
        assert rec.digest() == _digest_by_copy(rec)


class TestVelocityCheck:
    def _recording(self, achieved, led_events):
        from stifflab.plant import TrialRecording
        n = 10
        z = np.zeros(n)
        return TrialRecording(time=z, angle=z, quantized_angle=z,
                              commanded_torque=z, muscle_torque=z,
                              activation=z, led_events=led_events,
                              achieved_mean_velocity=achieved)

    def test_off_target_velocity_rejected(self):
        plan = plan_for_bpm(45.0)
        rec = self._recording(60.0, (1.0, 2.0))
        assert not achieved_velocity_ok(rec, plan, tolerance=5.0)

    def test_missing_stroke_led_rejected(self):
        plan = plan_for_bpm(45.0)
        rec = self._recording(67.5, (1.0,))
        assert not achieved_velocity_ok(rec, plan, tolerance=5.0)

    def test_on_target_accepted(self):
        plan = plan_for_bpm(45.0)
        rec = self._recording(67.5, (1.0, 2.0))
        assert achieved_velocity_ok(rec, plan, tolerance=5.0)


class TestConfigValidation:
    def test_bad_device(self):
        with pytest.raises(ValueError):
            DeviceConfig(encoder_counts_per_rev=2)
        with pytest.raises(ValueError):
            DeviceConfig(torque_limit=0.0)

    def test_bad_plan(self):
        with pytest.raises(ValueError):
            TrajectoryPlan(amplitude=0.0, beat_duration=1.0, sample_rate=1000.0)

    @pytest.mark.parametrize("beat_duration,sample_rate,match", [
        # one sample: the exploration would take 0 s
        (0.0002, 1000.0, "must round to at least 1, got 0.4"),
        (1e-200, 1e205, "its square is 0"),
    ])
    def test_plan_too_short(self, beat_duration, sample_rate, match):
        with pytest.raises(ValueError, match=match):
            TrajectoryPlan(amplitude=90.0, beat_duration=beat_duration,
                           sample_rate=sample_rate)

    def test_bad_limb(self):
        with pytest.raises(ValueError):
            LimbConfig(inertia=0.0)

    def test_bad_spring(self):
        with pytest.raises(ValueError):
            SpringParam(k=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("make,field", [
        (LimbConfig, name) for name in ("inertia", "damping",
                                        "tracking_stiffness_gain",
                                        "tracking_damping_gain",
                                        "motor_noise_std", "muscle_torque_max")
    ] + [(DeviceConfig, "torque_limit"), (DeviceConfig, "control_rate")] + [
        (lambda **kw: TrajectoryPlan(**{"amplitude": 90.0, "beat_duration": 0.8,
                                        "sample_rate": 1000.0, **kw}), name)
        for name in ("amplitude", "beat_duration", "sample_rate", "led_window")
    ])
    def test_non_finite_numbers_rejected(self, make, field, value):
        # NaN passes every range check, since each comparison with it is false
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            make(**{field: value})
