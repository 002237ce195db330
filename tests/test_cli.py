import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stifflab.cli import build_parser, main
from stifflab.session import (
    config_from_dict,
    default_config_dict,
    parse_log,
    replay,
    run_session,
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config_dict(seed=1, plant_mode="ideal")))
    return str(path)


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

    @pytest.mark.parametrize("command", ["simulate", "trace"])
    @pytest.mark.parametrize("update,match", [
        # valid configs whose explorations cannot be met
        ({"velocity_tolerance": 0},
         "error: interval 0 of trial 0 failed the velocity check 5 times"),
        ({"limb": {"tracking_stiffness_gain": 1e7, "tracking_damping_gain": 0}},
         "error: angle -912552.2 deg exceeds 10x amplitude at t=0.005s"),
    ])
    def test_unmet_explorations_exit_2_and_write_nothing(
            self, tmp_path, capsys, command, update, match):
        path = write_config(tmp_path, {**default_config_dict(), **update})
        out = tmp_path / ("o" if command == "simulate" else "trace.csv")
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == match + "\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("threads,sessions,blocks", [
        ("5000", 2, 2), ("3", 4, 2), ("2", 3, 2), ("4", 4, 4)])
    def test_worker_pool_starts_one_worker_per_seed_block(
            self, tmp_path, config_path, monkeypatch, threads, sessions, blocks):
        pools = []

        class SerialPool:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("stifflab.cli.ProcessPoolExecutor", SerialPool)
        outs = {}
        for env in ("0", threads):
            monkeypatch.setenv("STIFFLAB_THREADS", env)
            outs[env] = tmp_path / f"threads_{env}"
            assert main(["simulate", "--config", config_path, "--sessions",
                         str(sessions), "--out", str(outs[env])]) == 0
        assert pools == [blocks]
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


class TestValidateConvergence:
    def test_passes_at_default_parameters(self, capsys):
        assert main(["validate-convergence", "--runs", "300",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.8315" in out
        assert "PASS" in out

    def test_too_few_runs(self, capsys):
        assert main(["validate-convergence", "--runs", "50"]) == 2

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
