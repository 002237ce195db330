import numpy as np
import pytest
from scipy import signal as sps

from stifflab.emg import (
    _CHUNK,
    EmgSignal,
    apply_filter,
    design_butterworth_lowpass,
    frequency_response,
    linear_envelope,
    rectify,
    remove_dc,
    section_poles,
    synthesize_emg,
    write_signal_csv,
)

FS = 2000.0
FC = 5.5


@pytest.fixture
def spec():
    return design_butterworth_lowpass(FC, FS)


def db(h):
    return 20.0 * np.log10(np.abs(h))


class TestFilterDesign:
    @pytest.mark.parametrize("fs", [500.0, 1000.0, 2000.0, 10000.0])
    def test_half_power_point_at_cutoff(self, fs):
        spec = design_butterworth_lowpass(FC, fs)
        h = frequency_response(spec, np.array([FC]))
        assert db(h)[0] == pytest.approx(-3.0103, abs=0.05)

    def test_dc_gain_unity(self, spec):
        h = frequency_response(spec, np.array([0.0]))
        assert abs(h[0]) == pytest.approx(1.0, abs=1e-6)

    def test_stopband_matches_continuous_prototype(self, spec):
        # |H(j 10 wc)|^2 = 1 / (1 + 10^6) for the analog prototype
        continuous_db = -10.0 * np.log10(1.0 + 10.0**6)
        h = frequency_response(spec, np.array([10 * FC]))
        assert abs(db(h)[0] - continuous_db) < 3.0

    def test_structure(self, spec):
        assert len(spec.sections) == 2
        # one degenerate first-order section
        assert any(s[2] == 0.0 and s[5] == 0.0 for s in spec.sections)

    @pytest.mark.parametrize("fs,fc", [
        (2000.0, 5.5), (1000.0, 5.5), (250.0, 5.5), (2000.0, 100.0),
        (100.0, 20.0), (48.0, 10.0),
    ])
    def test_matches_scipy_design(self, fs, fc):
        spec = design_butterworth_lowpass(fc, fs)
        sos = sps.butter(3, fc, fs=fs, output="sos")
        freqs = np.linspace(0.0, fs / 2 * 0.999, 512)
        mine = frequency_response(spec, freqs)
        _, theirs = sps.sosfreqz(sos, worN=2 * np.pi * freqs / fs)
        assert np.allclose(np.abs(mine), np.abs(theirs), atol=1e-9)

    @pytest.mark.parametrize("fs,fc", [
        (2000.0, 5.5), (1000.0, 40.0), (250.0, 100.0), (48.0, 23.0),
        (10000.0, 1.0),
    ])
    def test_poles_strictly_inside_unit_circle(self, fs, fc):
        spec = design_butterworth_lowpass(fc, fs)
        finite = [p for p in section_poles(spec) if p != 0]
        assert all(abs(p) < 1.0 for p in finite)

    def test_magnitude_monotone_nonincreasing(self, spec):
        freqs = np.linspace(0.0, FS / 2, 1024)
        mags = np.abs(frequency_response(spec, freqs))
        assert np.all(np.diff(mags) <= 1e-12)

    @pytest.mark.parametrize("fc", [0.0, -1.0, 1000.0, 2000.0])
    def test_invalid_cutoff(self, fc):
        with pytest.raises(ValueError, match=f"cutoff {fc} Hz must lie in"):
            design_butterworth_lowpass(fc, FS)


class TestApplyFilter:
    def test_zero_in_zero_out(self, spec):
        out = apply_filter(EmgSignal(FS, np.zeros(1000)), spec)
        assert np.all(out.samples == 0.0)

    def test_step_settles_to_dc_gain(self, spec):
        out = apply_filter(EmgSignal(FS, np.ones(8000)), spec)
        assert out.samples[-1] == pytest.approx(1.0, abs=1e-6)

    def test_matches_scipy_sosfilt(self, spec):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        mine = apply_filter(EmgSignal(FS, x), spec).samples
        sos = np.asarray(spec.sections)
        theirs = sps.sosfilt(sos, x)
        assert np.allclose(mine, theirs, atol=1e-9)

    def test_forward_backward_zero_phase_passband(self, spec):
        f = 0.1 * FC
        n = int(20 / f * FS)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * f * t)
        y = apply_filter(EmgSignal(FS, x), spec, mode="forward_backward").samples
        core = slice(n // 4, 3 * n // 4)  # ignore edge transients
        amp = y[core].max()
        assert amp == pytest.approx(1.0, rel=0.01)
        # zero phase: cross-correlation peak at lag 0 (+/- 1 sample)
        lags = np.arange(-5, 6)
        corr = [np.dot(x[core], np.roll(y, lag)[core]) for lag in lags]
        assert abs(lags[int(np.argmax(corr))]) <= 1

    def test_unknown_mode(self, spec):
        with pytest.raises(ValueError):
            apply_filter(EmgSignal(FS, np.zeros(4)), spec, mode="backward")

    def test_deterministic(self, spec):
        x = np.sin(np.linspace(0, 10, 5000))
        a = apply_filter(EmgSignal(FS, x), spec).samples
        b = apply_filter(EmgSignal(FS, x.copy()), spec).samples
        assert np.array_equal(a, b)


def _reference_sos_forward(samples, spec):
    """_sos_forward as first written: one sample at a time over NumPy
    scalars.  The chunked Python-float loop must reproduce it bit for bit."""
    y = np.array(samples, dtype=np.float64, copy=True)
    for b0, b1, b2, _, a1, a2 in spec.sections:
        z1 = 0.0
        z2 = 0.0
        out = np.empty_like(y)
        for i, x in enumerate(y):
            v = b0 * x + z1
            z1 = b1 * x - a1 * v + z2
            z2 = b2 * x - a2 * v
            out[i] = v
        y = out
    return y


class TestBitExactRecurrence:
    @pytest.mark.parametrize("fs,fc", [(2000.0, 5.5), (48000.0, 1.0), (48.0, 23.0)])
    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 120000])
    def test_matches_reference_loop(self, fs, fc, n):
        spec = design_butterworth_lowpass(fc, fs)
        x = np.random.default_rng(n).standard_normal(n) + 0.3
        # raw noise and a rectified, reversed (negative-stride) view of it
        for samples in (x, np.abs(x)[::-1]):
            forward = _reference_sos_forward(samples, spec)
            both = _reference_sos_forward(forward[::-1], spec)[::-1]
            for mode, expected in (("forward", forward), ("forward_backward", both)):
                got = apply_filter(EmgSignal(fs, samples), spec, mode=mode).samples
                assert got.tobytes() == expected.tobytes(), mode


class TestStages:
    def test_rectify(self):
        sig = EmgSignal(FS, np.array([-1.0, 2.0, -3.0]))
        assert np.array_equal(rectify(sig).samples, [1.0, 2.0, 3.0])

    def test_rectify_idempotent_and_even(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        once = rectify(EmgSignal(FS, x)).samples
        assert np.array_equal(rectify(EmgSignal(FS, once)).samples, once)
        assert np.array_equal(rectify(EmgSignal(FS, -x)).samples, once)

    def test_remove_dc_constant(self):
        out = remove_dc(EmgSignal(FS, np.full(10, 3.7)))
        assert np.allclose(out.samples, 0.0, atol=1e-12)

    def test_remove_dc_example(self):
        out = remove_dc(EmgSignal(FS, np.array([1.0, 3.0])))
        assert np.array_equal(out.samples, [-1.0, 1.0])

    def test_remove_dc_zero_mean_fixed_point(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        x -= x.mean()
        out = remove_dc(EmgSignal(FS, x)).samples
        assert np.allclose(out, x, atol=1e-12 * np.abs(x).max())

    def test_remove_dc_empty(self):
        with pytest.raises(ValueError, match="cannot remove DC from an empty signal"):
            remove_dc(EmgSignal(FS, np.array([])))


class TestSynthesis:
    def test_zero_activation_gives_offset(self):
        sig = synthesize_emg(np.zeros(1000), FS, dc_offset=0.25,
                             rng=np.random.default_rng(0))
        assert np.all(sig.samples == 0.25)

    def test_unit_activation_unit_variance(self):
        n = int(10 * FS)
        sig = synthesize_emg(np.ones(n), FS, gain=1.0,
                             rng=np.random.default_rng(5))
        assert sig.samples.std() == pytest.approx(1.0, abs=0.02)

    def test_linear_in_activation_under_same_seed(self):
        n = 2000
        act = np.full(n, 0.3)
        a = synthesize_emg(act, FS, dc_offset=0.5,
                           rng=np.random.default_rng(11))
        b = synthesize_emg(2 * act, FS, dc_offset=0.5,
                           rng=np.random.default_rng(11))
        assert np.allclose(b.samples - 0.5, 2 * (a.samples - 0.5), atol=1e-12)

    def test_band_out_of_range(self):
        with pytest.raises(ValueError, match=r"not inside \(0, Nyquist\)"):
            synthesize_emg(np.ones(100), 800.0, rng=np.random.default_rng(0))

    def test_activation_out_of_range(self):
        with pytest.raises(ValueError):
            synthesize_emg(np.array([0.5, 1.5]), FS, rng=np.random.default_rng(0))


class TestEnvelope:
    def test_pure_dc_gives_zero_envelope(self, spec):
        env = linear_envelope(EmgSignal(FS, np.full(2000, 0.8)), spec)
        assert np.allclose(env.samples, 0.0, atol=1e-12)

    def test_tracks_smooth_activation(self, spec):
        n = int(10 * FS)
        t = np.arange(n) / FS
        act = 0.5 + 0.4 * np.sin(2 * np.pi * 0.5 * t)  # bandwidth < 2 Hz
        sig = synthesize_emg(act, FS, dc_offset=0.2,
                             rng=np.random.default_rng(3))
        env = linear_envelope(sig, spec)
        r = np.corrcoef(env.samples, act)[0, 1]
        assert r >= 0.9

    def test_homogeneous_in_scale(self, spec):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4000)
        one = linear_envelope(EmgSignal(FS, x), spec).samples
        two = linear_envelope(EmgSignal(FS, 2.0 * x), spec).samples
        assert np.allclose(two, 2.0 * one, atol=1e-12)

    def test_undershoot_bounded(self, spec):
        rng = np.random.default_rng(6)
        act = np.clip(0.5 + 0.4 * np.sin(np.linspace(0, 20, 8000)), 0, 1)
        sig = synthesize_emg(act, FS, rng=rng)
        env = linear_envelope(sig, spec)
        assert env.samples.min() >= -0.05 * env.samples.max()

    def test_bit_identical_repeat(self, spec):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(3000)
        a = linear_envelope(EmgSignal(FS, x), spec).samples
        b = linear_envelope(EmgSignal(FS, x.copy()), spec).samples
        assert np.array_equal(a, b)


class TestIo:
    def test_csv_round_trip(self, tmp_path):
        sig = EmgSignal(FS, np.sin(np.linspace(0, 3, 500)))
        path = tmp_path / "sig.csv"
        write_signal_csv(sig, path)
        assert path.read_text().startswith("time,value\n")
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(back[:, 0], np.arange(500) / FS, atol=1e-12)
        assert np.allclose(back[:, 1], sig.samples, atol=1e-12)
