"""In-memory span recorder that wraps stifflab's public functions from outside.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
traced function in every ``stifflab`` module namespace that holds it (so
``stifflab.session.simulate_exploration`` and ``stifflab.plant
.simulate_exploration`` are both wrapped) and each traced method on its
class; ``Tracer.uninstall`` puts the originals back.  A span is (name,
start, end, parent span, op id); spans and counters stay in memory until
``write`` dumps them at the end of a run.

Per-sample helpers (``quantize_angle``, ``spring_torque``, the filter's
inner loop) are deliberately not wrapped: one span per sample would cost
more than the work.  Sample counts come from array lengths instead.

Wrappers only read arguments and results, so tracing draws no random
numbers and moves no output byte.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# layer -> (module, public names); "Class.method" entries wrap a method
LAYERS = {
    "cli": ("stifflab.cli", ("main", "cmd_simulate", "cmd_replay")),
    "session": ("stifflab.session", (
        "run_session", "config_from_dict", "config_to_dict", "serialize_log",
        "parse_log", "replay", "summary_rows")),
    "staircase": ("stifflab.staircase", (
        "new_staircase", "record_response", "threshold_estimate")),
    "observer": ("stifflab.observer", (
        "observer_from_config", "WeibullObserver.respond",
        "SdtObserver.respond", "BernoulliObserver.respond")),
    "plant": ("stifflab.plant", (
        "simulate_exploration", "min_jerk_trajectory", "achieved_velocity_ok")),
    "emg": ("stifflab.emg", (
        "design_butterworth_lowpass", "synthesize_emg", "remove_dc", "rectify",
        "apply_filter", "linear_envelope")),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_explorations: set = set()
        self._observers = {
            "plant.simulate_exploration": self._on_exploration,
            "plant.achieved_velocity_ok": self._on_velocity_check,
            "staircase.record_response": self._on_record_response,
            "session.serialize_log": self._on_serialize,
            "emg.synthesize_emg": self._on_synthesize,
            "emg.apply_filter": self._on_filter,
        }

    # -- op boundaries -------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        """Start an op; exploration repeats are counted within one op (batch)."""
        self.op_id = op_id
        self._seen_explorations = set()

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name: str, fn):
        names, start, end, parent, op = (self.names, self.start, self.end,
                                         self.parent, self.op)
        stack = self._stack
        observe = self._observers.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "stifflab"
                                         or key.startswith("stifflab."))]
        for layer, (module_name, attrs) in LAYERS.items():
            home = sys.modules[module_name]
            for attr in attrs:
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- counters read from arguments and results ------------------------
    def _on_exploration(self, args, kwargs, rec) -> None:
        spring, plan, limb, device = args[:4]
        self.counts["plant.explorations"] += 1
        self.counts["plant.samples"] += len(rec.time)
        if limb.motor_noise_std == 0:
            key = (spring, plan, limb, device)
            if key in self._seen_explorations:
                self.counts["plant.repeats"] += 1
            self._seen_explorations.add(key)

    def _on_velocity_check(self, args, kwargs, ok) -> None:
        self.counts["plant.checks"] += 1
        self.counts["plant.accepted"] += int(bool(ok))

    def _on_record_response(self, args, kwargs, state) -> None:
        self.counts["staircase.reversals"] += \
            len(state.reversals) - len(args[0].reversals)

    def _on_serialize(self, args, kwargs, text) -> None:
        self.counts["session.events"] += len(args[0])
        self.counts["session.log_bytes"] += len(text.encode())

    def _on_synthesize(self, args, kwargs, signal) -> None:
        self.counts["emg.synthesized"] += signal.samples.size

    def _on_filter(self, args, kwargs, signal) -> None:
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "forward")
        passes = 2 if mode == "forward_backward" else 1
        self.counts["emg.filtered"] += passes * signal.samples.size

    # -- reduction -------------------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive ns, self ns, calls) per span name."""
        n = len(self.names)
        if n == 0:
            return {}, {}, Counter()
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        incl: dict[str, float] = {}
        own: dict[str, float] = {}
        for name, d, s in zip(self.names, dur.tolist(), self_ns.tolist()):
            incl[name] = incl.get(name, 0) + d
            own[name] = own.get(name, 0) + s
        return incl, own, Counter(self.names)

    def layer_busy_ns(self, layer: str) -> int:
        """Time inside the layer's outermost spans (nested same-layer spans once)."""
        prefix = layer + "."
        total = 0
        for i, name in enumerate(self.names):
            if not name.startswith(prefix):
                continue
            p = self.parent[i]
            if p >= 0 and self.names[p].startswith(prefix):
                continue
            total += self.end[i] - self.start[i]
        return total

    def span_cost_s(self, calls: int = 20_000) -> float:
        """Seconds one span adds to a call: a wrapped no-op against a bare one,
        best of five, on a scratch tracer."""
        def noop():
            return None

        scratch = Tracer()
        wrapped = scratch._wrap("cost.noop", noop)
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(calls):
                noop()
            costs.append((t1 - t0) - (time.perf_counter() - t1))
        return max(min(costs), 0.0) / calls

    def write(self, path) -> None:
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        base = min(self.start) if self.start else 0
        spans = [[index[name], s - base, e - base, p, o] for name, s, e, p, o
                 in zip(self.names, self.start, self.end, self.parent, self.op)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": table, "spans": spans,
                       "counts": dict(self.counts)}, fh)
