import csv
import errno
import functools
import hashlib
import itertools
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stifflab import plant, session
from stifflab.cli import build_parser, main
from stifflab.config import ConfigError
from stifflab.plant import (
    SpringParam,
    UnstableIntegrationError,
    plan_for_bpm,
    simulate_exploration,
)
from stifflab.session import (
    SUMMARY_COLUMNS,
    Event,
    append_amendment,
    config_from_dict,
    config_to_dict,
    default_config_dict,
    parse_log,
    replay,
    run_session,
    run_sessions,
    serialize_log,
    summary_rows,
)
from stifflab.staircase import default_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config_dict(seed=1, plant_mode="ideal")))
    return str(path)


@pytest.fixture
def serial_pools(monkeypatch):
    """The sizes of the process pools started, each a stand-in that maps in
    this process."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return pools


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestSimulate:
    def test_single_session(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path,
                     "--out", str(out)]) == 0
        logs = sorted(out.glob("session_*.jsonl"))
        assert len(logs) == 1
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("session_id,seed,velocity_deg_s")
        assert len(summary) == 3  # header + two velocities
        replay(logs[0].read_text())  # log is well formed

    def test_multiple_sessions_deterministic(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", config_path,
                         "--sessions", "3", "--out", str(out)]) == 0
        logs1 = sorted(out1.glob("session_*.jsonl"))
        assert len(logs1) == 3
        for log in logs1:
            assert log.read_bytes() == (out2 / log.name).read_bytes()
        assert (out1 / "summary.csv").read_text() == \
            (out2 / "summary.csv").read_text()

    def test_refuses_overwrite_without_force(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 2
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--force"]) == 0

    def test_seed_override(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--seed", "77"]) == 0
        assert (out / "session_00000077.jsonl").exists()

    def test_malformed_config(self, tmp_path, capsys):
        raw = default_config_dict()
        raw["gravity"] = 9.81
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "gravity" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("sessions", ["0", "-3"])
    def test_no_sessions_exits_2_and_writes_nothing(self, tmp_path, config_path, capsys,
                                                    sessions):
        out = tmp_path / "o"
        assert main(["simulate", "--config", config_path, "--sessions", sessions,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --sessions must be at least 1, got {sessions}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r["velocities"][0].update(bpm=0), "bpm"),
        (lambda r: r["velocities"][1].update(bpm=-75), "bpm"),
        (lambda r: r["velocities"][0].pop("bpm"), "bpm"),
        (lambda r: r.update(seed=1.9), "seed"),
        (lambda r: r.update(seed=-1), "seed"),
        (lambda r: r["observer"]["velocity_scaling"].update({"112": 0.9}),
         "velocity_scaling"),
        (lambda r: r["observer"].update(family="weibul"),
         "unknown observer family: 'weibul'"),
        (lambda r: r["observer"].update(alpha=-1), "alpha and beta must be positive"),
        # alpha' = 0 would divide by zero in the Weibull observer at run time
        (lambda r: r["observer"]["velocity_scaling"].update({"67.5": 0}),
         "observer: velocity_scaling values must be positive"),
        # sigma' < 0 would be refused by NumPy's normal() at run time
        (lambda r: r.update(observer={"family": "sdt", "sigma": 0.3, "criterion": 0.2,
                                      "velocity_scaling": {"67.5": -1}}),
         "observer: velocity_scaling values must be positive"),
        (lambda r: r.update(limb={"inertia": 0}), "inertia must be positive"),
        (lambda r: r.update(device={"control_rate": 0}),
         "torque_limit and control_rate must be positive"),
        (lambda r: r.update(staircase={"up_step": -1}), "up_step must be positive"),
        (lambda r: r["velocities"].append({"bpm": 45, "deg_s": 67.5}),
         "deg_s 67.5 appears twice"),
        (lambda r: r.update(staircase={"down_rule": 2.9}),
         "staircase.down_rule must be an integer, got 2.9"),
        (lambda r: r.update(repeat_cap=2.5), "repeat_cap must be an integer"),
        (lambda r: r.update(limb={"inertia": True}),
         "limb.inertia must not be a boolean"),
        (lambda r: r.update(staircase={"down_rule": True}),
         "staircase.down_rule must not be a boolean"),
        # NaN would read as noise-free (both `> 0` and `== 0` are false for it)
        (lambda r: r.update(limb={"motor_noise_std": float("nan")}),
         "limb.motor_noise_std must be a finite number, got nan"),
        # an infinite window would let every stroke light its LED
        (lambda r: r.update(trajectory={"led_window": float("inf")}),
         "trajectory.led_window must be a finite number, got inf"),
        (lambda r: r.update(device={"torque_limit": float("-inf")}),
         "device.torque_limit must be a finite number, got -inf"),
        (lambda r: r.update(trajectory={"led_window": -1}),
         "trajectory: amplitude, beat_duration, sample_rate and led_window "
         "must be positive"),
        (lambda r: r.update(velocity_tolerance="abc"),
         "velocity_tolerance must be a finite number, got 'abc'"),
        (lambda r: r.update(trajectory={"amplitude": "x"}),
         "trajectory.amplitude must be a finite number, got 'x'"),
        (lambda r: r.update(velocities=[3]),
         "velocities[0] must be a JSON object, got 3"),
        (lambda r: r["velocities"][0].update(bpm="abc"),
         "velocities[0].bpm must be a finite number, got 'abc'"),
        (lambda r: r["observer"].update(velocity_scaling=[]),
         "observer.velocity_scaling must be a JSON object, got []"),
        (lambda r: r["observer"]["velocity_scaling"].update({"67.5": float("nan")}),
         "observer.velocity_scaling.67.5 must be a finite number, got nan"),
        (lambda r: r.update(catch_trial_rate="0.1"),
         "catch_trial_rate must be a finite number, got '0.1'"),
        (lambda r: r.update(velocity_tolerance=-1),
         "velocity_tolerance must be nonnegative and finite"),
        (lambda r: r.update(velocity_tolerance=float("nan")),
         "velocity_tolerance must be a finite number, got nan"),
        # a float conversion of it would overflow in the plant
        (lambda r: r.update(device={"encoder_counts_per_rev": 10**400}),
         "device.encoder_counts_per_rev must be at most 1.79769e+308 in magnitude"),
        # paces whose explorations no array could hold, refused in ideal mode too
        (lambda r: r.update(velocities=[{"bpm": 1e-300}],
                            observer={**r["observer"], "velocity_scaling": {}}),
         "trajectory: an exploration's 2 x beat_duration x sample_rate samples "
         "must be at most 10,000,000, got 1.2e+305"),
        (lambda r: r.update(velocities=[{"bpm": 1e-9}],
                            observer={**r["observer"], "velocity_scaling": {}}),
         "trajectory: an exploration's 2 x beat_duration x sample_rate samples "
         "must be at most 10,000,000, got 1.2e+14"),
        (lambda r: r.update(device={"control_rate": 1e300}),
         "trajectory: an exploration's 2 x beat_duration x sample_rate samples "
         "must be at most 10,000,000, got 2.67e+300"),
        # a pace too fast for the control rate: one sample takes no time, and
        # a beat of 6e-299 s squares to 0
        (lambda r: r["velocities"][0].update(bpm=1e6),
         "trajectory: an exploration's 2 x beat_duration x sample_rate samples "
         "must round to at least 1, got 0.12"),
        (lambda r: r["velocities"][0].update(bpm=1e300),
         "trajectory: an exploration's 2 x beat_duration x sample_rate samples "
         "must round to at least 1, got 1.2e-295"),
        (lambda r: r.update(device={"control_rate": 1e200},
                            velocities=[{"bpm": 1e196, "deg_s": 67.5}]),
         "trajectory: beat_duration 6e-195 s is too short: its square is 0"),
        # angles up to 10x the amplitude would overflow a float in counts
        (lambda r: r.update(device={"encoder_counts_per_rev": 17 * 10**307}),
         "device.encoder_counts_per_rev 1.7e+308 resolves 10 x trajectory.amplitude "
         "(90 deg) into more counts than a float holds"),
        # a run that would never end
        (lambda r: r.update(staircase={"reversal_limit": 2**63}),
         "staircase.reversal_limit must be at most 1,000, got 9.22337e+18"),
        # nor one whose rejected intervals repeat for ever, an event each
        (lambda r: r.update(repeat_cap=10**9, velocity_tolerance=0),
         "repeat_cap must be from 1 to 1,000, got 1e+09"),
    ])
    def test_invalid_config_exits_2(self, tmp_path, capsys, mutate, match):
        raw = default_config_dict(plant_mode="ideal")
        mutate(raw)
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and match in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_tiny_weibull_alpha_runs_and_replays(self, tmp_path, capsys, scale):
        """(delta_k / alpha') ** beta overflows, or alpha' underflows to 0:
        the observer answers at its ceiling instead of raising."""
        raw = default_config_dict(plant_mode="ideal")
        raw["observer"].update(alpha=1e-300, velocity_scaling={"67.5": scale})
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
        assert main(["replay", "--log", str(out / "session_00000000.jsonl")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["simulate", "trace"])
    @pytest.mark.parametrize("update,match", [
        # valid configs whose explorations cannot be met
        ({"velocity_tolerance": 0},
         "error: interval 0 of trial 0 failed the velocity check 5 times"),
        ({"limb": {"tracking_stiffness_gain": 1e7, "tracking_damping_gain": 0}},
         "error: angle -912552.2 deg exceeds 10x amplitude at t=0.005s"),
        # the angle is NaN one RK4 step after it was small
        ({"limb": {"inertia": 1e-300}}, "error: angle nan deg is not finite at t=0.002s"),
        # a finite limb whose feedforward overflows: the error alone, no NumPy
        # warning, from the lanes (the lane diverges) and from the scalar loop
        # that then integrates the exploration and raises it
        ({"limb": {"inertia": 1.7e308}}, "error: angle nan deg is not finite at t=0.002s"),
        ({"limb": {"damping": 1.7e308}}, "error: angle nan deg is not finite at t=0.002s"),
        ({"limb": {"inertia": 1.7e308, "motor_noise_std": 0.3}},
         "error: angle nan deg is not finite at t=0.002s"),
        # a gain whose muscle torque overflows at 45 bpm over a 2 s control period
        ({"limb": {"tracking_stiffness_gain": 1.7e308}, "device": {"control_rate": 0.5},
          "velocities": [{"bpm": 45, "deg_s": 67.5}],
          "observer": {**default_config_dict()["observer"], "velocity_scaling": {}}},
         "error: interval 0 of trial 0 failed the velocity check 5 times"),
        # a second run (600 bpm at seed 0) whose explorations cannot be met:
        # trace, which reports the first run alone, refuses it as simulate does
        ({"velocities": [{"bpm": 45}, {"bpm": 600}],
          "observer": {**default_config_dict()["observer"], "velocity_scaling": {}}},
         "error: interval 0 of trial 0 failed the velocity check 5 times"),
    ])
    @pytest.mark.filterwarnings("error")  # pytest would keep a warning off stderr
    def test_unmet_explorations_exit_2_and_write_nothing(
            self, tmp_path, capsys, command, update, match):
        path = write_config(tmp_path, {**default_config_dict(), **update})
        out = tmp_path / ("o" if command == "simulate" else "trace.csv")
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == match + "\n"
        assert not out.exists()

    # activation |muscle torque| / 1e-300 overflows and clips to 1: in lanes
    # (the two sessions' explorations, and the 40 of the session at seed 0)
    # and in the scalar loop (the 38 of the session at seed 1, under MIN_LANES)
    @pytest.mark.parametrize("command", [["simulate", "--sessions", "2"], ["trace"],
                                         ["trace", "--seed", "1"]])
    @pytest.mark.filterwarnings("error")  # pytest would keep a warning off stderr
    def test_tiny_muscle_torque_max_runs_without_a_warning(self, tmp_path, capsys, command):
        raw = {**default_config_dict(), "limb": {"inertia": 1e9, "muscle_torque_max": 1e-300}}
        out = tmp_path / "o"
        assert main([*command, "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("existing", [False, True])
    def test_write_error_leaves_no_output(self, tmp_path, capsys, existing):
        # a seed whose log file name is too long for the file system: the
        # first file fails before any session runs; an --out given with
        # --force keeps what it held
        seed = 10**300
        path = write_config(tmp_path, default_config_dict(seed=seed, plant_mode="ideal"))
        out = tmp_path / "new" / "o"
        if existing:
            out.mkdir(parents=True)
            (out / "summary.csv").write_text("kept")
        assert main(["simulate", "--config", path, "--out", str(out), "--force"]) == 2
        err = capsys.readouterr().err
        code = errno.ENAMETOOLONG
        assert err.startswith(f"error: [Errno {code}] {os.strerror(code)}: '{tmp_path}")
        assert err.endswith(f"session_{seed}.jsonl'\n")
        if existing:
            assert sorted(tmp_path.rglob("*")) == [tmp_path / "config.json", out.parent,
                                                   out, out / "summary.csv"]
            assert (out / "summary.csv").read_text() == "kept"
        else:
            assert sorted(tmp_path.rglob("*")) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("threads", ["0", "2"])
    def test_a_name_too_long_is_refused_before_any_session(self, tmp_path, capsys,
                                                           monkeypatch, threads):
        monkeypatch.setattr("stifflab.cli.run_sessions", None)  # never called
        monkeypatch.setenv("STIFFLAB_THREADS", threads)
        path = write_config(tmp_path, default_config_dict(seed=10**300, plant_mode="full"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out),
                     "--sessions", "2"]) == 2
        assert f"[Errno {errno.ENAMETOOLONG}]" in capsys.readouterr().err
        assert not out.exists()

    def test_force_refuses_a_directory_target(self, tmp_path, config_path, capsys):
        # refused before any session runs, so no old file is replaced
        out = tmp_path / "o"
        (out / "summary.csv").mkdir(parents=True)
        (out / "session_00000001.jsonl").write_text("kept")
        assert main(["simulate", "--config", config_path, "--out", str(out),
                     "--force"]) == 2
        assert capsys.readouterr().err == \
            f"error: {out / 'summary.csv'} is a directory; it is not overwritten\n"
        assert sorted(out.rglob("*")) == [out / "session_00000001.jsonl",
                                          out / "summary.csv"]
        assert (out / "session_00000001.jsonl").read_text() == "kept"

    def test_a_directory_target_is_refused_as_one_without_force(self, tmp_path, config_path,
                                                                capsys):
        # refused as a directory, not as an existing file to pass --force for
        out = tmp_path / "o"
        (out / "session_00000000.jsonl").mkdir(parents=True)
        (out / "summary.csv").write_text("kept")
        assert main(["simulate", "--config", config_path, "--seed", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {out / 'session_00000000.jsonl'} is a directory; it is not overwritten\n"
        assert (out / "summary.csv").read_text() == "kept"

    def test_files_are_staged_inside_out(self, tmp_path, config_path, monkeypatch):
        # when a session starts, the log of each one before it is already in
        # the one hidden directory inside --out (the first finds the empty
        # name probe there); nothing is written beside --out, and the files
        # are those of a plain run
        plain, out, staged = tmp_path / "plain", tmp_path / "o", []
        argv = ["simulate", "--config", config_path, "--sessions", "3", "--out"]
        assert main([*argv, str(plain)]) == 0

        alone = session._session

        def observed(config, *args):
            assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", out, plain]
            (staging,) = out.iterdir()
            staged.append((staging.name[0], {p.name: p.read_bytes() for p in staging.iterdir()}))
            return alone(config, *args)
        monkeypatch.setattr("stifflab.session._session", observed)
        assert main([*argv, str(out)]) == 0
        logs = {p.name: p.read_bytes() for p in sorted(plain.glob("*.jsonl"))}
        first, second, _ = logs
        assert staged == [(".", {first: b""}), (".", {first: logs[first]}),
                          (".", {first: logs[first], second: logs[second]})]
        assert sorted(tmp_path.iterdir()) == [tmp_path / "config.json", out, plain]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == \
            {p.name: p.read_bytes() for p in plain.iterdir()}

    @pytest.mark.parametrize("failure", ["session", "write", "interrupt"])
    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("threads", ["0", "2"])
    def test_an_error_mid_batch_leaves_no_output(self, tmp_path, config_path, capsys,
                                                  monkeypatch, serial_pools, failure,
                                                  existing, threads):
        # once the first of three sessions has its log staged, the second
        # raises, its log cannot be written, or Ctrl-C comes: serially, and
        # in a worker whose block holds both, nothing is written
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("STIFFLAB_THREADS", threads)
        out, staged = tmp_path / "new" / "o", []
        if existing:
            out.mkdir(parents=True)
            (out / "session_00000001.jsonl").write_text("kept")
        exc = {"session": session.RepeatLimitError("cap reached"),
               "write": OSError(errno.ENOSPC, "disk full"),
               "interrupt": KeyboardInterrupt()}[failure]

        def fail():
            (staging,) = out.glob(".*")
            staged.extend((p.name, p.read_bytes()) for p in staging.iterdir())
            raise exc
        if failure == "write":
            monkeypatch.setattr("stifflab.cli.open", lambda name, *a, **k: fail()
                                if name.endswith("2.jsonl") else open(name, *a, **k),
                                raising=False)
        else:
            alone = session._session
            monkeypatch.setattr("stifflab.session._session", lambda c, *a: fail()
                                if c.seed == 2 else alone(c, *a))
        argv = ["simulate", "--config", config_path, "--sessions", "3", "--out", str(out),
                "--force"]
        if failure == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {exc}\n"
        first = run_session(config_from_dict(json.loads(Path(config_path).read_text())))
        assert staged == [("session_00000001.jsonl", first.log_text.encode())]
        assert serial_pools == ([2] if threads == "2" else [])
        if existing:
            assert sorted(tmp_path.rglob("*")) == [tmp_path / "config.json", out.parent,
                                                   out, out / "session_00000001.jsonl"]
            assert (out / "session_00000001.jsonl").read_text() == "kept"
        else:
            assert sorted(tmp_path.rglob("*")) == [tmp_path / "config.json"]

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs a user whom directory permissions bind")
    def test_force_into_an_out_whose_parent_is_read_only(self, tmp_path, config_path):
        # the files are staged inside --out, never beside it
        out = tmp_path / "ro" / "o"
        out.mkdir(parents=True)
        (out / "summary.csv").write_text("old")
        out.parent.chmod(0o555)
        try:
            assert main(["simulate", "--config", config_path, "--out", str(out),
                         "--force"]) == 0
        finally:
            out.parent.chmod(0o755)
        assert sorted(p.name for p in out.iterdir()) == ["session_00000001.jsonl",
                                                         "summary.csv"]
        assert (out / "summary.csv").read_text().startswith("session_id,")

    @pytest.mark.parametrize("document", ["[1, 2]", "3", '"config"', "null"])
    def test_seed_flag_on_a_config_that_is_no_object_exits_2(self, tmp_path, capsys,
                                                            document):
        path = tmp_path / "config.json"
        path.write_text(document)
        assert main(["simulate", "--config", str(path), "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_negative_seed_flag_exits_2(self, tmp_path, config_path, capsys):
        assert main(["simulate", "--config", config_path, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_non_integer_thread_count_exits_2(self, tmp_path, config_path,
                                              capsys, monkeypatch):
        monkeypatch.setenv("STIFFLAB_THREADS", "two")
        assert main(["simulate", "--config", config_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert "error: STIFFLAB_THREADS must be an integer, got 'two'" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_thread_count_exits_2(self, tmp_path, config_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("STIFFLAB_THREADS", "-3")
        assert main(["simulate", "--config", config_path,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == (
            "", "error: STIFFLAB_THREADS must be a nonnegative integer, got '-3'\n")
        assert not (tmp_path / "o").exists()

    # the pool size is STIFFLAB_THREADS capped at the CPUs this process may
    # run on (every CPU where sched_getaffinity is missing), then at one
    # worker per block of seeds; a single worker runs without a pool
    @pytest.mark.parametrize("threads,sessions,cpus,affinity,pools_started", [
        ("5000", 2, 8, True, [2]), ("3", 4, 8, True, [2]), ("2", 3, 8, True, [2]),
        ("4", 4, 8, True, [4]), ("5000", 6, 3, True, [3]), ("5000", 6, 3, False, [3]),
        ("4", 4, 2, True, [2]), ("4", 4, 1, True, []), ("4", 4, 1, False, [])])
    def test_worker_pool_starts_one_worker_per_seed_block(
            self, tmp_path, config_path, monkeypatch, serial_pools, threads, sessions,
            cpus, affinity, pools_started):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1000)
        else:  # a platform without sched_getaffinity counts every CPU
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        outs = {}
        for env in ("0", threads):
            monkeypatch.setenv("STIFFLAB_THREADS", env)
            outs[env] = tmp_path / f"threads_{env}"
            assert main(["simulate", "--config", config_path, "--sessions",
                         str(sessions), "--out", str(outs[env])]) == 0
        assert serial_pools == pools_started
        for path in outs["0"].iterdir():
            assert path.read_bytes() == (outs[threads] / path.name).read_bytes()

    def test_worker_processes_write_the_serial_bytes(self, tmp_path, monkeypatch):
        raw = default_config_dict(seed=4, plant_mode="full")
        raw["staircase"] = {"reversal_limit": 4, "reversals_averaged": 4}
        path = write_config(tmp_path, raw)
        outs = {}
        for threads in (None, "2"):
            if threads is None:
                monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("STIFFLAB_THREADS", threads)
            outs[threads] = tmp_path / f"threads_{threads}"
            assert main(["simulate", "--config", path, "--sessions", "3",
                         "--out", str(outs[threads])]) == 0
        names = sorted(p.name for p in outs[None].iterdir())
        assert names == sorted(p.name for p in outs["2"].iterdir())
        assert len(names) == 4  # three logs and summary.csv
        for name in names:
            assert (outs[None] / name).read_bytes() == (outs["2"] / name).read_bytes()

    def _assert_writes_separate_sessions(self, tmp_path, raw, sessions):
        """`simulate` writes each session's log and summary row as
        run_session gives them for the session alone, whose explorations
        are each simulated through the scalar loop."""
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, raw),
                     "--sessions", str(sessions), "--out", str(out)]) == 0
        summary = io.StringIO()
        writer = csv.DictWriter(summary, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for seed in range(raw["seed"], raw["seed"] + sessions):
            config = config_from_dict({**raw, "seed": seed})
            run = run_session(config)
            name = f"session_{seed:08d}"
            assert (out / f"{name}.jsonl").read_bytes() == run.log_text.encode()
            writer.writerows(summary_rows(name, seed, run.result))
        assert (out / "summary.csv").read_bytes() == summary.getvalue().encode()

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_lanes_write_the_bytes_of_separate_sessions(self, tmp_path, monkeypatch,
                                                        threads):
        # six default sessions, or two blocks of three: enough distinct
        # explorations for the lanes, in slices of at most 2 MB (~55 lanes
        # at 45 bpm), with recording digests in every log; serially, the
        # last session is past the speculated ones and integrates what it
        # alone reaches
        calls, lane_slice = [], plant._lane_slice  # each call's slices
        monkeypatch.setattr("stifflab.session.simulate_lanes",
                            lambda *a: calls.append([]) or plant.simulate_lanes(*a))
        monkeypatch.setattr("stifflab.plant._lane_slice",
                            lambda e, *a: calls[-1].append(e) or lane_slice(e, *a))
        monkeypatch.setattr("stifflab.plant.LANE_BYTES", 48 * 8 * 2 * 2668)
        monkeypatch.setattr("stifflab.session.PRESIMULATED_SESSIONS", 5)
        if threads is None:
            monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
        else:
            monkeypatch.setenv("STIFFLAB_THREADS", threads)
        self._assert_writes_separate_sessions(
            tmp_path, default_config_dict(seed=0, plant_mode="full"), 6)
        if threads is None:  # worker processes count in their own copy
            assert sum(map(len, calls)) > 1

            def samples(exploration):
                return len(plant._plan_reference(exploration[1])[0].time)

            def lane_bytes(exploration):  # a muscle torque and an int16 count a sample
                return samples(exploration) * 10 + 8 * plant.NOISE_CHUNK * 5
            for slices in calls:  # longest first, each as wide as its bytes allow
                lengths = [samples(e) for lanes in slices for e in lanes]
                assert lengths == sorted(lengths, reverse=True)
                taken = [sum(map(lane_bytes, lanes)) for lanes in slices]
                assert max(taken) <= 48 * 8 * 2 * 2668
                assert all(used + lane_bytes(later[0]) > 48 * 8 * 2 * 2668
                           for used, later in zip(taken, slices[1:]))

    def test_slices_under_min_lanes_write_the_same_bytes(self, tmp_path, monkeypatch):
        # four speculated default sessions list 76 explorations, which fill a
        # slice of 62 lanes and leave a tail of 14: the tail joins the other
        # slice, all 76 step in one, and the speculated sessions integrate
        # none of theirs in the scalar loop
        given, sliced, lane_slice = [], [], plant._lane_slice
        monkeypatch.setattr("stifflab.session.simulate_lanes",
                            lambda e, *a: given.append(len(e)) or plant.simulate_lanes(e, *a))
        monkeypatch.setattr("stifflab.plant._lane_slice",
                            lambda e, *a: sliced.append(len(e)) or lane_slice(e, *a))
        scalar, reached = [], {}  # seed -> the explorations its session integrated
        monkeypatch.setattr("stifflab.session.simulate_exploration",
                            lambda *a: scalar.append(a) or simulate_exploration(*a))

        alone = session._session

        def counted(config, *args):
            before = len(scalar)
            run = alone(config, *args)
            # the batch's session, not the run_session it is compared with
            reached.setdefault(config.seed, len(scalar) - before)
            return run
        monkeypatch.setattr("stifflab.session._session", counted)
        monkeypatch.setattr("stifflab.plant.LANE_BYTES", 48 * 8 * 2 * 2668)
        monkeypatch.setattr("stifflab.session.PRESIMULATED_SESSIONS", 4)
        monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
        self._assert_writes_separate_sessions(
            tmp_path, default_config_dict(seed=0, plant_mode="full"), 6)
        assert given == sliced == [76]
        assert [reached[seed] for seed in range(4)] == [0, 0, 0, 0]

    def test_a_tail_under_min_lanes_steps_in_the_other_slices(self, tmp_path, monkeypatch):
        # three short noisy sessions list 160 explorations in one pass, which
        # slices of at most 1.7 MB (43 noisy lanes at 45 bpm) cut into three
        # slices and a tail of 21: the tail joins the others, and no
        # exploration of the batch is integrated in the scalar loop
        calls, lane_slice, scalar, at_return = [], plant._lane_slice, [], []
        monkeypatch.setattr("stifflab.session.simulate_lanes",
                            lambda e, *a: calls.append((list(e.values()), []))
                            or plant.simulate_lanes(e, *a))
        monkeypatch.setattr("stifflab.plant._lane_slice",
                            lambda e, *a: calls[-1][1].append(e) or lane_slice(e, *a))
        monkeypatch.setattr("stifflab.session.simulate_exploration",
                            lambda *a: scalar.append(a) or simulate_exploration(*a))

        def batch(*args):  # the scalar explorations so far, when the batch returns
            runs = list(run_sessions(*args))
            at_return.append(len(scalar))
            return runs
        monkeypatch.setattr("stifflab.cli.run_sessions", batch)
        monkeypatch.setattr("stifflab.plant.LANE_BYTES", 1_700_000)
        monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
        raw = default_config_dict(seed=0, plant_mode="full")
        raw.update(limb={"motor_noise_std": 0.3}, catch_trial_rate=0.1,
                   staircase={"reversal_limit": 2, "reversals_averaged": 2})
        self._assert_writes_separate_sessions(tmp_path, raw, 3)
        assert at_return == [0]
        for given, slices in calls:  # each listed exploration in one slice
            assert sorted(map(id, given)) == sorted(id(e) for lanes in slices for e in lanes)

        def lane_bytes(exploration):  # a muscle torque and an int16 count a sample
            samples = len(plant._plan_reference(exploration[1])[0].time)
            return samples * 10 + 8 * plant.NOISE_CHUNK * 6
        given, slices = calls[0]
        cut, room = [], 0  # the longest-first packing before the tail is spread
        for size in sorted(map(lane_bytes, given), reverse=True):
            if size > room:
                cut, room = cut + [0], 1_700_000
            cut[-1], room = cut[-1] + 1, room - size
        assert cut == [43, 43, 53, 21]
        assert sorted(map(len, slices)) == [50, 50, 60]  # the 21 taken round robin
        assert max(sum(map(lane_bytes, lanes)) for lanes in slices) > 1_700_000

    def test_too_few_explorations_for_lanes_write_the_same_bytes(self, tmp_path,
                                                                 monkeypatch):
        raw = default_config_dict(seed=3, plant_mode="full")
        raw["velocities"] = [{"bpm": 45, "deg_s": 67.5}]
        raw["observer"]["velocity_scaling"] = {"67.5": 1.0}
        raw["staircase"] = {"reversal_limit": 4, "reversals_averaged": 4}
        monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
        monkeypatch.setattr("stifflab.plant._lane_slice", None)  # never called
        self._assert_writes_separate_sessions(tmp_path, raw, 3)

    def test_batch_builds_its_config_document_once(self, tmp_path, monkeypatch):
        raw = default_config_dict(seed=6, plant_mode="ideal")
        path = write_config(tmp_path, raw)
        calls = []
        monkeypatch.setattr("stifflab.session.config_to_dict",
                            lambda c: calls.append(c) or config_to_dict(c))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--sessions", "3",
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        # each session logs its own seed, as a session run alone does
        monkeypatch.undo()
        for seed in (6, 7, 8):
            raw["seed"] = seed
            assert (out / f"session_{seed:08d}.jsonl").read_text() == \
                run_session(config_from_dict(raw)).log_text


# each leaf of the config document is set to each of these in turn
SWEEP_VALUES = [0, -1, 1e-300, 1e300, 10**400, 2**63, 17 * 10**307, 0.5, 3, True, "x",
                None, [], {}]


def _leaves(node, path=()):
    """The paths to the values of a JSON document that are no object or array."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from _leaves(value, (*path, key))


class _Overran(Exception):
    """A swept case ran past its time."""


class TestConfigSweep:
    # no full trace: it is run_sessions of one seed, which the full
    # one-session simulate case already sweeps
    @pytest.mark.parametrize("plant_mode,command", [
        ("ideal", ["simulate", "--sessions", "2"]), ("full", ["simulate", "--sessions", "1"]),
        ("ideal", ["trace"])])
    def test_every_leaf_at_every_boundary_exits_0_or_2(self, tmp_path, capsys,
                                                       monkeypatch, plant_mode, command):
        # every field the config document writes, so a new one is swept too;
        # a case must exit 0, or 2 writing nothing, within 10 s and warn of nothing
        monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
        raw = default_config_dict(plant_mode=plant_mode)
        raw["staircase"] = {"reversal_limit": 3, "reversals_averaged": 3}
        document = config_to_dict(config_from_dict(raw))

        def overran(signum, frame):
            raise _Overran
        previous = signal.signal(signal.SIGALRM, overran)
        failures = []
        try:
            for path in _leaves(document):
                for value in SWEEP_VALUES:
                    case = json.loads(json.dumps(document))
                    *parents, leaf = path
                    functools.reduce(lambda node, key: node[key], parents, case)[leaf] = value
                    out = tmp_path / "o"
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        signal.setitimer(signal.ITIMER_REAL, 10.0)
                        try:
                            code = main([*command, "--config", write_config(tmp_path, case),
                                         "--out", str(out)])
                        except Exception as exc:  # _Overran too
                            code = exc
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    capsys.readouterr()
                    if code not in (0, 2) or code == 2 and out.exists() or caught:
                        failures.append((path, value, code, [str(w.message) for w in caught]))
                    if out.is_dir():  # simulate's directory, or trace's file
                        shutil.rmtree(out)
                    out.unlink(missing_ok=True)
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert failures == []

    def test_every_pair_of_plant_fields_at_its_extremes_integrates(self):
        # each pair of the plant's numeric fields at each pair of these values
        # (an encoder count as an integer of at least 4): a valid config's
        # first exploration gives an outcome or UnstableIntegrationError,
        # within 5 s and warning of nothing
        fields = [("limb", name) for name in (
            "inertia", "damping", "tracking_stiffness_gain", "tracking_damping_gain",
            "motor_noise_std", "muscle_torque_max")] + [
            ("device", name) for name in (
                "encoder_counts_per_rev", "torque_limit", "control_rate")] + [
            ("trajectory", "amplitude"), ("trajectory", "led_window"),
            ("reference_stiffness",), ("velocity_tolerance",)]
        values = [1e-300, 1e-9, 0.5, 3, 1e9, 1e300, 1.7e308]

        def overran(signum, frame):
            raise _Overran
        previous = signal.signal(signal.SIGALRM, overran)
        failures = []
        try:
            for pair in itertools.combinations(fields, 2):
                for pair_values in itertools.product(values, repeat=2):
                    case = default_config_dict()
                    for (*parents, leaf), value in zip(pair, pair_values):
                        node = functools.reduce(lambda node, key: node.setdefault(key, {}),
                                                parents, case)
                        node[leaf] = (max(4, int(value)) if leaf == "encoder_counts_per_rev"
                                      else value)
                    try:
                        config = config_from_dict(case)
                    except ConfigError:
                        continue
                    plan = plan_for_bpm(config.velocities[0].bpm, config.trajectory.amplitude,
                                        config.device.control_rate,
                                        config.trajectory.led_window)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        signal.setitimer(signal.ITIMER_REAL, 5.0)
                        error = None
                        try:
                            session._outcome(config, plan, simulate_exploration(
                                SpringParam(k=config.reference_stiffness), plan,
                                config.limb, config.device, np.random.default_rng(0)))
                        except UnstableIntegrationError:
                            pass
                        except Exception as exc:  # _Overran too
                            error = exc
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    if error is not None or caught:
                        failures.append((pair, pair_values, error,
                                         [str(w.message) for w in caught]))
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert failures == []


class TestValidateConvergence:
    def test_passes_at_default_parameters(self, capsys):
        assert main(["validate-convergence", "--runs", "300",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.8315" in out
        assert "PASS" in out

    def test_too_few_runs(self, capsys):
        assert main(["validate-convergence", "--runs", "50"]) == 2

    def test_rule_and_ratio_default_to_the_protocol(self):
        args = build_parser().parse_args(["validate-convergence"])
        protocol = default_config(default_config_dict()["reference_stiffness"])
        assert (args.rule, args.ratio) == (protocol.down_rule, protocol.down_up_ratio)

    @pytest.mark.parametrize("flags,expected", [
        ([], """\
zero-drift proportion-correct target: 0.8315 (rule=3-down, ratio=0.7393)
mean signed step per trial (up-step units): +0.00030
tail proportion correct over 100 runs: 0.8272 (target 0.8315)
mean recovered threshold: 100.01% of reference (SE 0.77%), observer target point 100%
PASS
"""),
        (["--rule", "2", "--ratio", "0.5"], """\
zero-drift proportion-correct target: 0.8165 (rule=2-down, ratio=0.5)
mean signed step per trial (up-step units): +0.00039
tail proportion correct over 100 runs: 0.8131 (target 0.8165)
mean recovered threshold: 100.99% of reference (SE 0.78%), observer target point 100%
PASS
"""),
    ])
    def test_output_is_pinned(self, capsys, flags, expected):
        assert main(["validate-convergence", "--runs", "100", "--seed", "0",
                     *flags]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("flags", [["--rule", "0"], ["--ratio", "2"],
                                       ["--ratio", "nan"], ["--rule", "50"],
                                       ["--seed", "-1"]])
    def test_refused_parameters_exit_2(self, capsys, flags):
        # --rule 50 puts the target above the Weibull observer's ceiling
        assert main(["validate-convergence", "--runs", "100", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_negative_seed_message(self, capsys):
        assert main(["validate-convergence", "--seed", "-1"]) == 2
        assert capsys.readouterr() == \
            ("", "error: --seed must be a nonnegative integer, got -1\n")

    def test_overridden_rule_and_ratio_pass(self, capsys):
        # threshold recovery must aim at the overridden target, not 0.8315
        assert main(["validate-convergence", "--runs", "300", "--seed", "1",
                     "--rule", "3", "--ratio", "1.0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_overridden_ratio_reports_new_target(self, capsys):
        code = main(["validate-convergence", "--runs", "100", "--seed", "0",
                     "--ratio", "1.0", "--rule", "3"])
        out = capsys.readouterr().out
        assert "0.7937" in out
        assert code in (0, 1)


class TestTrace:
    def test_header_and_reversal_count(self, tmp_path):
        raw = default_config_dict(seed=3, plant_mode="ideal")
        path = write_config(tmp_path, raw)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "trial,level_pct,response,reversal_flag"
        flags = [int(line.split(",")[3]) for line in lines[1:]]
        assert sum(flags) == 10

    def test_levels_are_those_presented_in_the_first_run(self, tmp_path):
        raw = default_config_dict(seed=3, plant_mode="ideal")
        path = write_config(tmp_path, raw)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        events = parse_log(run_session(config_from_dict(raw)).log_text)
        second_run = [e.seq for e in events if e.kind == "RunStarted"][1]
        presented = [(e.payload["trial"], e.payload["level"])
                     for e in events[:second_run]
                     if e.kind == "Presented" and not e.payload["catch"]]
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(int(r[0]), float(r[1])) for r in rows] == \
            [(trial, 100.0 * level / raw["reference_stiffness"])
             for trial, level in presented]

    def test_always_correct_is_non_increasing(self, tmp_path):
        raw = default_config_dict(seed=0, plant_mode="ideal")
        raw["observer"] = {"family": "bernoulli", "p_different": 1.0}
        path = write_config(tmp_path, raw)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        levels = [float(line.split(",")[1])
                  for line in out.read_text().splitlines()[1:]]
        assert all(b <= a for a, b in zip(levels, levels[1:]))

    @pytest.mark.parametrize("plant_mode,seed,update,digest", [
        ("ideal", 0, {},
         "ba30cf9b4f45631be23ba055cb3c7b21981bdc6152ae886be86f4888c45e5082"),
        ("ideal", 1, {},
         "0b4d27c666d56812f2195a4ac8599ce78280ac56d45e19b53edd0ca5ef0cf3f8"),
        ("ideal", 2, {},
         "191ea59c0b66d81b8c21e409a8ce45257bbcabaeb77f759320bdb37e2f4012a1"),
        ("full", 0, {},
         "ba30cf9b4f45631be23ba055cb3c7b21981bdc6152ae886be86f4888c45e5082"),
        # the first run holds catch trials, two of them in a row
        ("full", 0, {"limb": {"motor_noise_std": 0.3}, "catch_trial_rate": 0.1},
         "a2fc89715e49ddba16460715ba9fdebc9888007b724361720420c9f0536baec9"),
    ])
    def test_csv_is_pinned(self, tmp_path, plant_mode, seed, update, digest):
        raw = {**default_config_dict(seed=seed, plant_mode=plant_mode), **update}
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_explorations_step_in_lanes(self, tmp_path, monkeypatch, capsys):
        # the noisy session at seed 0 is a batch of one: its explorations,
        # both runs', step in two slices of lanes and none in the scalar loop
        scalar, sliced, lane_slice = [], [], plant._lane_slice
        monkeypatch.setattr("stifflab.session.simulate_exploration",
                            lambda *a: scalar.append(a) or simulate_exploration(*a))
        monkeypatch.setattr("stifflab.plant._lane_slice",
                            lambda e, *a: sliced.append(len(e)) or lane_slice(e, *a))
        monkeypatch.delenv("STIFFLAB_THREADS", raising=False)
        raw = {**default_config_dict(seed=0), "limb": {"motor_noise_std": 0.3},
               "catch_trial_rate": 0.1}
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
        assert (len(scalar), sliced) == (0, [141, 114])
        assert capsys.readouterr().out == \
            f"wrote {out} (66 trials, velocity 67.5 deg/s)\n"

    def test_refuses_overwrite(self, tmp_path):
        raw = default_config_dict(seed=3, plant_mode="ideal")
        path = write_config(tmp_path, raw)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        assert main(["trace", "--config", path, "--out", str(out)]) == 2


class TestEmgDemo:
    def test_writes_four_files(self, tmp_path):
        out = tmp_path / "emg"
        assert main(["emg-demo", "--duration", "2", "--out", str(out),
                     "--seed", "4"]) == 0
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == ["pq_envelope.csv", "pq_raw.csv",
                         "pt_envelope.csv", "pt_raw.csv"]

    def test_envelope_undershoot_bounded(self, tmp_path):
        out = tmp_path / "emg"
        assert main(["emg-demo", "--duration", "2", "--out", str(out),
                     "--seed", "4"]) == 0
        for name in ("pq_envelope.csv", "pt_envelope.csv"):
            data = np.loadtxt(out / name, delimiter=",", skiprows=1)
            values = data[:, 1]
            assert values.min() >= -0.05 * values.max()

    def test_same_seed_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["emg-demo", "--duration", "2", "--out", str(out),
                         "--seed", "9"]) == 0
        for p in out1.glob("*.csv"):
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_bad_duration(self):
        assert main(["emg-demo", "--duration", "0"]) == 2

    @pytest.mark.parametrize("duration", ["0.0001", "nan", "inf"])
    def test_duration_without_samples_exits_2(self, tmp_path, capsys, duration):
        # 0.0001 s rounds to zero 2 kHz samples; nan and inf have no count
        out = tmp_path / "emg"
        assert main(["emg-demo", "--duration", duration, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --duration")
        assert not out.exists()

    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "emg"
        assert main(["emg-demo", "--duration", "1", "--out", str(out),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr() == \
            ("", "error: --seed must be a nonnegative integer, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("duration,shown", [
        ("1e12", "1000000000000.0"),  # 2e15 samples: NumPy refuses the allocation
        ("1e16", "1e+16"),  # past NumPy's array size limit: np.arange refuses it
        ("1e300", "1e+300"),
    ])
    def test_record_too_long_to_hold_exits_2_and_writes_nothing(
            self, tmp_path, capsys, duration, shown):
        # each is refused at once, allocating nothing
        out = tmp_path / "emg"
        assert main(["emg-demo", "--duration", duration, "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: --duration {shown} s is too long: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestReplayCommand:
    def test_replays_written_log(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", config_path, "--out", str(out)])
        log = next(out.glob("session_*.jsonl"))
        assert main(["replay", "--log", str(log)]) == 0
        assert "threshold" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["truncated-line",
                                        "responded-without-correct",
                                        "list-payload"])
    def test_malformed_log_exits_2(self, tmp_path, config_path, capsys, damage):
        out = tmp_path / "out"
        main(["simulate", "--config", config_path, "--out", str(out)])
        log = next(out.glob("session_*.jsonl"))
        lines = log.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        if damage == "truncated-line":
            lines[5] = lines[5][:30]
        elif damage == "responded-without-correct":
            i = next(i for i, e in enumerate(events) if e["kind"] == "Responded")
            del events[i]["payload"]["correct"]
            lines[i] = json.dumps(events[i], sort_keys=True)
        else:
            events[2]["payload"] = ["not", "an", "object"]
            lines[2] = json.dumps(events[2], sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--log", str(log)]) == 2
        assert "corrupt log" in capsys.readouterr().err

    def test_amended_log_is_checked_as_logged(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", config_path, "--out", str(out)])
        log = next(out.glob("session_*.jsonl"))
        text = log.read_text()
        events = parse_log(text)
        last = [e for e in events if e.kind == "Responded"][-1]
        noop = {"response": last.payload["response"]}
        log.write_text(append_amendment(text, last.seq, noop))
        assert main(["replay", "--log", str(log)]) == 0
        moved = next(e for e in events if e.kind == "StaircaseMoved")
        lines = text.splitlines()
        lines[moved.seq] = json.dumps({**moved._asdict(), "payload": {
            **moved.payload, "level_after": 9.0}}, sort_keys=True)
        # append_amendment refuses to write this log: append its line unchecked
        amendment = Event(len(events), "Amendment", events[-1].t_wall,
                          {"target_seq": last.seq, "update": noop})
        log.write_text("\n".join(lines) + "\n" + serialize_log([amendment]))
        capsys.readouterr()
        assert main(["replay", "--log", str(log)]) == 2
        assert capsys.readouterr().err == (f"corrupt log: seq {moved.seq}: "
                                           "StaircaseMoved.level_after disagrees with "
                                           "the re-emitted log\n")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_prints_the_digest_of_the_lf_text(self, tmp_path, config_path, capsys,
                                              newline):
        out = tmp_path / "out"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        log = next(out.glob("session_*.jsonl"))
        text = log.read_bytes()
        log.write_bytes(text.replace(b"\n", newline))
        capsys.readouterr()
        assert main(["replay", "--log", str(log)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"log digest: {hashlib.sha256(text).hexdigest()}"
        assert len(lines) == 3  # one line per run, then the digest

    def test_corrupt_log(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        main(["simulate", "--config", config_path, "--out", str(out)])
        log = next(out.glob("session_*.jsonl"))
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["replay", "--log", str(log)]) == 2
        assert "corrupt" in capsys.readouterr().err


@functools.cache
def _logged_events(plant_mode):
    """The events of a short seed-5 session, as JSON objects."""
    raw = default_config_dict(seed=5, plant_mode=plant_mode)
    raw["staircase"] = {"reversal_limit": 4, "reversals_averaged": 4}
    return json.dumps([json.loads(line) for line in
                       run_session(config_from_dict(raw)).log_text.splitlines()])


def _first(events, kind):
    return next(e for e in events if e["kind"] == kind)


def _reject_past_the_cap(events):
    """Insert rejections of the first interval one past repeat_cap, each
    logged as the runner would have logged it."""
    index = events.index(_first(events, "Presented"))
    t_wall = events[index]["t_wall"]
    cap = events[0]["payload"]["config"]["repeat_cap"]
    for attempt in range(1, cap + 2):
        t_wall += 2.0 * (60.0 / _first(events, "RunStarted")["payload"]["bpm"])
        events.insert(index + attempt, {
            "seq": 0, "kind": "ExplorationRejected", "t_wall": t_wall,
            "payload": {"trial": 0, "interval": 0, "attempt": attempt,
                        "achieved_mean_velocity": 50.0, "led_events": 0}})
    for seq, event in enumerate(events):
        event["seq"] = seq


def _huge_integer(text, key, value):
    """``text`` with the first ``key``'s ``value`` written as 1 followed by
    5,000 zeros, an integer past int()'s default limit of 4,300 digits."""
    old = f'"{key}": {value}'
    assert old in text
    return text.replace(old, f'"{key}": 1{"0" * 5000}', 1)


_NO_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                     reason="this Python reads integers of any length")


class TestMalformedBytes:
    @pytest.mark.parametrize("command,damage,message", [
        pytest.param("simulate", lambda text: _huge_integer(text, "seed", 1)
                     .encode(), "Exceeds the limit (4300 digits)", marks=_NO_DIGIT_LIMIT),
        ("simulate", lambda text: text.replace("ideal", "ide\udcffal").encode(
            "utf-8", "surrogateescape"), "can't decode byte 0xff in position"),
        pytest.param("replay", lambda text: _huge_integer(text, "duration_s", 120.0)
                     .encode(), "corrupt log: line 2: Exceeds the limit (4300 digits)",
                     marks=_NO_DIGIT_LIMIT),
        ("replay", lambda text: text.replace("RunStarted", "Run\udcffStarted")
         .encode("utf-8", "surrogateescape"),
         "corrupt log: line 3 is not UTF-8: byte "),
    ])
    def test_exit_2_with_one_line(self, tmp_path, config_path, capsys, command,
                                  damage, message):
        """A file holding a too-long integer or bytes that are not UTF-8 is a
        config error or a corrupt log, not a traceback."""
        if command == "simulate":
            path = Path(config_path)
            args = ["--config", config_path, "--out", str(tmp_path / "o")]
            prefix = f"error: {config_path}: "
        else:
            assert main(["simulate", "--config", config_path,
                         "--out", str(tmp_path / "log")]) == 0
            path = next((tmp_path / "log").glob("session_*.jsonl"))
            args = ["--log", str(path)]
            prefix = "corrupt log: line "
        path.write_bytes(damage(path.read_text()))
        capsys.readouterr()
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and message in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_ends_replay_as_text_mode_reads_them(
            self, tmp_path, config_path, capsys, newline):
        assert main(["simulate", "--config", config_path,
                     "--out", str(tmp_path / "log")]) == 0
        path = next((tmp_path / "log").glob("session_*.jsonl"))
        capsys.readouterr()
        assert main(["replay", "--log", str(path)]) == 0
        expected = capsys.readouterr()
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        assert main(["replay", "--log", str(path)]) == 0
        assert capsys.readouterr() == expected


class TestReplayInputs:
    @pytest.mark.parametrize("plant_mode,damage,match", [
        ("ideal", lambda events: _first(events, "Presented")["payload"].update(catch=0),
         "Presented.catch must be a boolean, got 0"),
        ("ideal", lambda events: _first(events, "Responded")["payload"].update(
            response="maybe"),
         "Responded.response must be \"same\" or \"different\", got 'maybe'"),
        ("full", lambda events: _first(events, "Responded")["payload"].update(
            recording_digests="ab"),
         "Responded.recording_digests must be a list of two strings, got 'ab'"),
        ("full", _reject_past_the_cap, "interval 0 rejected repeat_cap (5) times"),
        ("ideal", lambda events: events[0]["payload"]["config"]["observer"].update(
            family="weibul"),
         "seq 0: SessionStarted config: observer: unknown observer family"),
        ("full", lambda events: events[0]["payload"]["config"].update(repeat_cap=1001),
         "seq 0: SessionStarted config: repeat_cap must be from 1 to 1,000, got 1001"),
    ])
    def test_mistyped_input_is_a_corrupt_log(self, tmp_path, capsys, plant_mode,
                                             damage, match):
        events = json.loads(_logged_events(plant_mode))
        damage(events)
        log = tmp_path / "session.jsonl"
        log.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
        assert main(["replay", "--log", str(log)]) == 2
        err = capsys.readouterr().err  # main returns: no exception escaped
        assert err.startswith("corrupt log: seq ") and match in err


class TestUsage:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("args", [["simulate", "--config", "{dir}", "--out", "{dir}/o"],
                                      ["replay", "--log", "{dir}"]])
    def test_directory_path_exits_2(self, tmp_path, capsys, args):
        args = [arg.format(dir=tmp_path) for arg in args]
        assert main(args) == 2  # main returns: no IsADirectoryError escaped
        assert capsys.readouterr().err == \
            f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_flag(self):
        assert main(["simulate", "--config", "x", "--frobnicate"]) == 2

    def test_unknown_command(self):
        assert main(["teleport"]) == 2


class TestParserReuse:
    def test_one_process_matches_separate_processes(self, tmp_path, config_path,
                                                    capsys):
        out = tmp_path / "out"
        log = str(out / "session_00000001.jsonl")
        calls = [
            ["simulate", "--config", config_path, "--out", str(out), "--force"],
            ["simulate"],  # --config missing: a usage error
            ["replay", "--log", log],
            ["replay", "--log", str(tmp_path / "missing.jsonl")],
            ["replay", "--log", log],
        ]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, capsys.readouterr().out))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("STIFFLAB_THREADS", None)
        separate = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-m", "stifflab.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
            separate.append((done.returncode, done.stdout))
        assert [code for code, _ in in_process] == [0, 2, 0, 2, 0]
        assert in_process == separate
        assert in_process[2][1] and in_process[2] == in_process[4]

    def test_namespaces_hold_only_their_subcommands_options(self):
        parser = build_parser()
        assert parser is build_parser()
        simulate = vars(parser.parse_args(["simulate", "--config", "c.json"]))
        replay_args = vars(parser.parse_args(["replay", "--log", "x.jsonl"]))
        trace = vars(parser.parse_args(["trace", "--config", "c.json",
                                        "--out", "t.csv"]))
        assert set(replay_args) == {"command", "log"}
        assert set(simulate) == {"command", "config", "sessions", "out", "seed",
                                 "force"}
        assert trace["seed"] is None and not trace["force"]
        assert vars(parser.parse_args(["simulate", "--config", "c.json"])) == simulate

    def test_commands_are_looked_up_when_main_runs(self, monkeypatch, capsys):
        # a wrapper installed after the parser was built still runs
        assert main(["replay", "--help"]) == 0
        calls = []
        monkeypatch.setattr("stifflab.cli.cmd_replay",
                            lambda args: calls.append(args.log) or 0)
        assert main(["replay", "--log", "x.jsonl"]) == 0
        assert calls == ["x.jsonl"]
