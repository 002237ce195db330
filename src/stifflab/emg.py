"""Synthetic surface-EMG signals and the linear-envelope pipeline.

The envelope chain is DC-offset removal, full-wave rectification, then a
3rd-order Butterworth low-pass at 5.5 Hz realized as a second-order section
cascade (one section degenerate to first order).  Synthetic EMG is
band-limited unit-variance noise amplitude-modulated by a muscle activation
trace, standing in for recordings that are not available here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_CHUNK = 8192  # samples per Python-float pass of the section recurrence
_BAND = (20.0, 450.0)  # Hz, the synthetic carrier's pass band


@dataclass(frozen=True)
class EmgSignal:
    sample_rate: float
    samples: np.ndarray  # mV

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")


@dataclass(frozen=True)
class FilterSpec:
    """Cascade of (b0, b1, b2, 1, a1, a2) second-order sections."""

    sample_rate: float
    sections: tuple[tuple[float, float, float, float, float, float], ...]


def synthesize_emg(
    activation: np.ndarray,
    sample_rate: float,
    gain: float = 1.0,
    dc_offset: float = 0.0,
    *,
    rng: np.random.Generator,
) -> EmgSignal:
    """dc_offset + gain * activation(t) * n(t), n band-limited unit-variance noise.

    The carrier depends only on the random stream and the record length, so
    scaling the activation scales the offset-free signal pointwise.
    """
    activation = np.asarray(activation, dtype=np.float64)
    if activation.size == 0:
        raise ValueError("activation series is empty")
    if np.any(activation < 0) or np.any(activation > 1):
        raise ValueError("activation values must lie in [0, 1]")
    lo, hi = _BAND
    if not hi < sample_rate / 2:
        raise ValueError(f"band {_BAND} Hz not inside (0, Nyquist) at "
                         f"{sample_rate:g} Hz")

    n = activation.size
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    carrier = np.fft.irfft(spectrum, n)
    std = carrier.std()
    if std > 0:
        carrier = carrier / std
    return EmgSignal(sample_rate=sample_rate,
                     samples=dc_offset + gain * activation * carrier)


def rectify(signal: EmgSignal) -> EmgSignal:
    return replace(signal, samples=np.abs(signal.samples))


def remove_dc(signal: EmgSignal) -> EmgSignal:
    if signal.samples.size == 0:
        raise ValueError("cannot remove DC from an empty signal")
    return replace(signal, samples=signal.samples - signal.samples.mean())


def design_butterworth_lowpass(cutoff: float, sample_rate: float) -> FilterSpec:
    """3rd-order Butterworth low-pass via prewarped bilinear transform.

    Analog prototype poles sit equally spaced on the left half unit circle;
    prewarping places the discrete half-power (-3.0103 dB) point exactly at
    ``cutoff``.  Returned as one biquad plus one first-order section, each
    normalized to unit DC gain.
    """
    if not 0 < cutoff < sample_rate / 2:
        raise ValueError(
            f"cutoff {cutoff} Hz must lie in (0, {sample_rate / 2}) Hz"
        )
    w = math.tan(math.pi * cutoff / sample_rate)  # warped analog cutoff

    # conjugate pole pair: H(s) = w^2 / (s^2 + w s + w^2)
    d0 = 1.0 + w + w * w
    biquad = (
        w * w / d0, 2.0 * w * w / d0, w * w / d0,
        1.0, (2.0 * w * w - 2.0) / d0, (1.0 - w + w * w) / d0,
    )
    # real pole: H(s) = w / (s + w)
    e0 = 1.0 + w
    first_order = (w / e0, w / e0, 0.0, 1.0, (w - 1.0) / e0, 0.0)
    return FilterSpec(sample_rate=sample_rate, sections=(biquad, first_order))


def section_poles(spec: FilterSpec) -> np.ndarray:
    """Discrete poles of every section, for stability checks."""
    poles = []
    for _, _, _, a0, a1, a2 in spec.sections:
        poles.extend(np.roots([a0, a1, a2]))
    return np.asarray(poles)


def frequency_response(spec: FilterSpec, freqs: np.ndarray) -> np.ndarray:
    """Complex response of the cascade at the given frequencies (Hz)."""
    z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=np.float64) / spec.sample_rate)
    h = np.ones_like(z)
    for b0, b1, b2, a0, a1, a2 in spec.sections:
        h *= (b0 + b1 * z + b2 * z**2) / (a0 + a1 * z + a2 * z**2)
    return h


def _sos_forward(samples: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Causal DF2T section cascade, each section in place over one copy.

    The recurrence runs on Python floats (the same IEEE doubles, in the same
    operation order, as NumPy scalars) one chunk of ``_CHUNK`` samples at a
    time, so the float lists never hold more than one chunk; ``z1``/``z2``
    carry over from one chunk to the next.
    """
    y = np.array(samples, dtype=np.float64, copy=True)
    for b0, b1, b2, _, a1, a2 in spec.sections:
        z1 = 0.0
        z2 = 0.0
        for start in range(0, y.size, _CHUNK):
            chunk = y[start:start + _CHUNK]
            out = []
            for x in chunk.tolist():
                v = b0 * x + z1
                z1 = b1 * x - a1 * v + z2
                z2 = b2 * x - a2 * v
                out.append(v)
            chunk[:] = out
    return y


def apply_filter(
    signal: EmgSignal, spec: FilterSpec, mode: str = "forward"
) -> EmgSignal:
    """Run the section cascade over the signal.

    ``forward`` is causal direct-form-II-transposed filtering;
    ``forward_backward`` runs it a second time on the reversed output for
    zero phase and squared magnitude.
    """
    if mode not in ("forward", "forward_backward"):
        raise ValueError(f"unknown filter mode: {mode!r}")
    y = _sos_forward(signal.samples, spec)
    if mode == "forward_backward":
        y = _sos_forward(y[::-1], spec)[::-1]
    return replace(signal, samples=y)


def linear_envelope(
    signal: EmgSignal,
    spec: FilterSpec,
    mode: str = "forward",
) -> EmgSignal:
    """DC removal, rectification, low-pass — the linear-envelope chain."""
    return apply_filter(rectify(remove_dc(signal)), spec, mode=mode)


def write_signal_csv(signal: EmgSignal, path) -> None:
    t = np.arange(signal.samples.size) / signal.sample_rate
    np.savetxt(path, np.column_stack([t, signal.samples]),
               delimiter=",", comments="", header="time,value")
