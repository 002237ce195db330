"""Host-speed probe: how fast this machine runs interpreter work right now.

On a shared host the speed of one core drifts by a factor of 1.5 to 2 over
tens of seconds, so raw rates from runs made minutes apart disagree more
than any bound worth having.  The probe is a fixed mix of the kinds of work
stifflab's hot paths do (iterating a NumPy array with scalar arithmetic and
element stores, frozen-dataclass churn, floor/clamp arithmetic, JSON
encoding and decoding).  It shares no code with stifflab, so a change to
the program cannot change the probe.  ``Sampler`` runs it from a timer
signal every INTERVAL_S throughout the measured window, and its ``clock``
excludes the time the probes took; the runner scales each run's
rates to a host on which the probe takes REFERENCE_S.
"""

from __future__ import annotations

import dataclasses
import json
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.006  # probe time on the reference host (2-core Xeon VM)
INTERVAL_S = 0.25    # one probe per interval: about 3% of the measured time
NEAREST = 20         # probes that scale a piece too short to hold as many

_ARRAY = np.linspace(0.0, 50.0, 2000)


@dataclasses.dataclass(frozen=True)
class _State:
    level: float
    trial: int


def _work() -> list:
    out = np.empty_like(_ARRAY)
    z = 0.0
    for i, x in enumerate(_ARRAY):
        v = 0.3 * x + z
        z = 0.2 * x - 0.1 * v
        out[i] = v
    state = _State(0.0, 0)
    for i in range(400):
        state = dataclasses.replace(state, level=state.level + 1.0, trial=i)
    acc = 0.0
    for i in range(1500):
        acc += min(max(math.floor(_ARRAY[i] / 0.0879) * 0.0879, -3.0), 3.0)
    events = [{"seq": i, "kind": "Responded", "payload": {"x": i * 0.1, "y": [acc, i]}}
              for i in range(200)]
    text = "\n".join(json.dumps(e, sort_keys=True) for e in events)
    return [json.loads(line) for line in text.splitlines()]


def probe() -> float:
    """Seconds one pass of the probe work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Sampler:
    """Probe the host every INTERVAL_S while the ``with`` block runs.

    The handler runs in the main thread between bytecodes, so the probe
    interleaves with the op it samples.  ``clock`` is ``perf_counter``
    minus the time spent probing, for timing ops inside the block.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        while True:  # retry if a probe ran between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def _tick(self, signum, frame) -> None:
        t = probe()
        self.samples.append((time.perf_counter(), t))
        self.spent += t

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def probe_near(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Median time of the probes made during [start, end], or of the NEAREST
    probes closest to it when fewer ran inside: one probe alone is noisy."""
    near = [t for at, t in samples if start <= at <= end]
    if len(near) < NEAREST:
        by_distance = sorted(samples, key=lambda s: max(start - s[0], s[0] - end))
        near = [t for _, t in by_distance[:NEAREST]]
    return statistics.median(near)
