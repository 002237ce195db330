import functools
import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stifflab import plant, session
from stifflab.observer import (
    BernoulliObserver,
    SdtObserver,
    WeibullObserver,
    alpha_for_target,
)
from stifflab.plant import min_jerk_trajectory, simulate_exploration
from stifflab.session import (
    ConfigError,
    CorruptLogError,
    Event,
    RepeatLimitError,
    append_amendment,
    config_from_dict,
    config_to_dict,
    default_config_dict,
    parse_log,
    replay,
    run_session,
    serialize_log,
    summary_rows,
)


def ideal_config(seed=0, **overrides):
    raw = default_config_dict(seed=seed, plant_mode="ideal")
    raw.update(overrides)
    return config_from_dict(raw)


def full_config(seed=0, **overrides):
    raw = default_config_dict(seed=seed, plant_mode="full")
    raw.update(overrides)
    return config_from_dict(raw)


def noisy_config(seed=0, **overrides):
    """Motor noise 0.3 Nm and 10% catch trials, as in the noisy benchmark."""
    return full_config(seed, limb={"motor_noise_std": 0.3}, catch_trial_rate=0.1,
                       **overrides)


class TestConfig:
    @pytest.mark.parametrize("observer,cls", [
        ({"family": "weibull", "alpha": 1.2, "beta": 3.0,
          "velocity_scaling": {"67.5": 1.0, "112.5": 0.85}}, WeibullObserver),
        ({"family": "sdt", "sigma": 0.3, "criterion": 0.2, "bias": 0.05}, SdtObserver),
        ({"family": "bernoulli", "p_different": 0.8}, BernoulliObserver),
    ])
    def test_round_trip(self, observer, cls):
        config = ideal_config(seed=3, observer=observer)
        assert type(config.observer) is cls
        again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert again == config

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_any_mutation_is_rejected_or_round_trips(self, data):
        # one changed value, dropped key or added key, at any depth
        raw = json.loads(json.dumps(data.draw(st.sampled_from(_mutation_bases()))))
        paths = list(_field_paths(raw))

        def at(path):
            return functools.reduce(lambda value, step: value[step], path, raw)

        kind = data.draw(st.sampled_from(["change", "drop", "add"]), label="kind")
        if kind == "add":
            path = data.draw(st.sampled_from(
                [()] + [p for p in paths if isinstance(at(p), dict)]), label="path")
            key = data.draw(st.sampled_from(_config_keys()) | st.text(max_size=6))
        else:
            *path, key = data.draw(st.sampled_from(paths), label="path")
        owner = at(path)
        if kind == "drop":
            del owner[key]
        else:
            old = owner.get(key) if isinstance(owner, dict) else owner[key]
            # extremes find what overflows: a derived deg_s or staircase cap
            extremes = st.sampled_from([1e308, -1e308, 5e-324, 10**400])
            owner[key] = data.draw(st.one_of(extremes, st.sampled_from(_nearby(old)),
                                             _JSON_VALUES), label="new value")
        try:
            config = config_from_dict(raw)
        except ConfigError:
            return
        document = config_to_dict(config)
        again = config_from_dict(json.loads(json.dumps(document)))
        assert again == config
        assert config_to_dict(again) == document

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.update(extra=1), "extra"),
        (lambda r: r["staircase"].update(step="big"), "step"),
        (lambda r: r["staircase"].update(reference_stiffness=1.0),
         "unknown key in staircase: 'reference_stiffness'"),
        (lambda r: r["velocities"][0].update(tempo=1), "tempo"),
        (lambda r: r.update(device={"gear_ratio": 3}), "gear_ratio"),
        (lambda r: r["observer"].update(bogus=1), "unknown key in observer: 'bogus'"),
    ])
    def test_unknown_keys_rejected(self, mutate, match):
        raw = default_config_dict()
        raw["staircase"] = {}
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_missing_key(self):
        raw = default_config_dict()
        del raw["observer"]
        with pytest.raises(ConfigError, match="observer"):
            config_from_dict(raw)

    @pytest.mark.parametrize("bpm", [0, -45, float("inf")])
    def test_nonpositive_bpm_rejected(self, bpm):
        raw = default_config_dict()
        raw["velocities"][0]["bpm"] = bpm
        with pytest.raises(ConfigError, match="bpm"):
            config_from_dict(raw)

    @pytest.mark.parametrize("seed", [1.9, -1, "3", True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(default_config_dict(seed=seed))

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.update(reference_stiffness=0), "reference_stiffness"),
        (lambda r: r.update(reference_stiffness="stiff"), "reference_stiffness"),
        (lambda r: r.update(observer=["weibull"]), "observer"),
        (lambda r: r["observer"].update(beta="steep"), "observer"),
        (lambda r: r.update(limb={"damping": "low"}), "limb"),
        (lambda r: r.update(staircase={"down_rule": "three"}), "staircase"),
        (lambda r: r["velocities"].append({"bpm": 45}), "appears twice"),
        (lambda r: r["observer"].update(family="oracle"),
         "observer: unknown observer family: 'oracle'"),
        (lambda r: r.update(observer={"family": "sdt", "sigma": 0.3}),
         "missing required key in observer: 'criterion'"),
        (lambda r: r.update(plant_mode=3), "plant_mode must be a string, got 3"),
        # the staircase's default cap divides by the amplitude
        (lambda r: r.update(trajectory={"amplitude": 0}),
         "trajectory: amplitude, beat_duration, sample_rate and led_window"),
        (lambda r: r.update(trajectory={"amplitude": 0.1},
                            device={"torque_limit": 1e308}),
         "staircase: level_cap must be finite, got inf"),
        (lambda r: r.update(velocities=[{"bpm": 1e308}]),  # deg_s = 90 * bpm / 60
         r"velocities\[0\]: deg_s must be finite, got inf"),
    ])
    def test_sub_object_errors_are_config_errors(self, mutate, match):
        raw = default_config_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_integral_float_seed_accepted(self):
        assert config_from_dict(default_config_dict(seed=3.0)).seed == 3

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.update(staircase={"down_rule": 2.9}),
         "staircase.down_rule must be an integer, got 2.9"),
        (lambda r: r.update(staircase={"reversal_limit": 10.9}),
         "staircase.reversal_limit"),
        (lambda r: r.update(staircase={"reversals_averaged": "8"}),
         "staircase.reversals_averaged"),
        (lambda r: r.update(staircase={"down_rule": float("inf")}),
         "staircase.down_rule"),
        (lambda r: r.update(repeat_cap=2.5), "repeat_cap must be an integer"),
        (lambda r: r.update(device={"encoder_counts_per_rev": 4096.5}),
         "device.encoder_counts_per_rev"),
    ])
    def test_integer_fields_take_only_integral_numbers(self, mutate, match):
        raw = default_config_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_integral_floats_read_as_integers(self):
        raw = default_config_dict()
        raw.update(staircase={"down_rule": 2.0, "reversal_limit": 12.0,
                              "reversals_averaged": 6.0},
                   repeat_cap=4.0, device={"encoder_counts_per_rev": 2048.0})
        config = config_from_dict(raw)
        read = (config.staircase.down_rule, config.staircase.reversal_limit,
                config.staircase.reversals_averaged, config.repeat_cap,
                config.device.encoder_counts_per_rev)
        assert read == (2, 12, 6, 4, 2048)
        assert all(type(value) is int for value in read)

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.update(limb={"inertia": True}), "limb.inertia"),
        (lambda r: r.update(staircase={"down_rule": True}), "staircase.down_rule"),
        (lambda r: r.update(staircase={"up_step": True}), "staircase.up_step"),
        (lambda r: r.update(reference_stiffness=True), "reference_stiffness"),
        (lambda r: r["velocities"][1].update(bpm=True), r"velocities\[1\].bpm"),
        (lambda r: r.update(trajectory={"amplitude": True}),
         "trajectory.amplitude"),
        (lambda r: r.update(device={"torque_limit": True}), "device.torque_limit"),
        (lambda r: r["observer"].update(alpha=True), "observer.alpha"),
        (lambda r: r["observer"]["velocity_scaling"].update({"67.5": True}),
         r"observer.velocity_scaling.67\.5"),
        (lambda r: r.update(catch_trial_rate=False), "catch_trial_rate"),
        (lambda r: r.update(repeat_cap=True), "repeat_cap"),
    ])
    def test_booleans_rejected_in_numeric_fields(self, mutate, match):
        raw = default_config_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match + " must not be a boolean"):
            config_from_dict(raw)

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.update(velocity_tolerance="5"), "velocity_tolerance"),
        (lambda r: r.update(reference_stiffness=float("nan")), "reference_stiffness"),
        (lambda r: r.update(staircase={"up_step": float("inf")}), "staircase.up_step"),
        (lambda r: r.update(limb={"inertia": "0.004"}), "limb.inertia"),
        (lambda r: r.update(device={"control_rate": float("nan")}),
         "device.control_rate"),
        (lambda r: r["velocities"][1].update(deg_s=float("nan")),
         r"velocities\[1\].deg_s"),
        (lambda r: r["observer"].update(alpha=float("nan")), "observer.alpha"),
        (lambda r: r.update(velocity_tolerance=10**400), "velocity_tolerance"),
    ])
    def test_float_fields_take_only_finite_numbers(self, mutate, match):
        raw = default_config_dict()
        mutate(raw)
        with pytest.raises(ConfigError, match=match + " must be a finite number"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section", ["staircase", "trajectory", "limb",
                                         "device", "observer"])
    def test_sections_must_be_objects(self, section):
        raw = {**default_config_dict(), section: [1.0]}
        with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
            config_from_dict(raw)

    def test_velocities_must_be_a_list(self):
        raw = {**default_config_dict(), "velocities": {"bpm": 45}}
        with pytest.raises(ConfigError, match="velocities must be a JSON array"):
            config_from_dict(raw)

    def test_float_fields_are_logged_as_floats(self):
        raw = default_config_dict()
        raw.update(limb={"inertia": 1}, device={"torque_limit": 300})
        raw["observer"].update(alpha=2)
        logged = config_to_dict(config_from_dict(raw))
        read = (logged["limb"]["inertia"], logged["device"]["torque_limit"],
                logged["observer"]["alpha"])
        assert read == (1.0, 300.0, 2.0)
        assert all(type(value) is float for value in read)

    @pytest.mark.parametrize("key", ["112", "112.50001", "fast", "67.50"])
    def test_velocity_scaling_key_must_name_a_velocity(self, key):
        raw = default_config_dict()
        raw["observer"]["velocity_scaling"] = {"67.5": 1.0, key: 0.847}
        with pytest.raises(ConfigError, match="velocity_scaling"):
            config_from_dict(raw)

    def test_velocity_scaling_key_may_be_written_as_any_equal_number(self):
        raw = default_config_dict()
        raw["observer"]["velocity_scaling"] = {"67.50": 1.0, "1.125e2": 0.847}
        config_from_dict(raw)

    def test_staircase_defaults(self):
        config = ideal_config()
        stair = config.staircase
        assert stair.initial_level == 1.11
        assert stair.up_step == pytest.approx(0.111)
        assert stair.down_up_ratio == 0.7393
        # cap from the device torque limit at full deflection
        assert stair.level_cap == pytest.approx(300.0 / 90.0 - 1.11)

    def test_bad_plant_mode(self):
        with pytest.raises(ConfigError):
            ideal_config(plant_mode="simulated")


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        config = ideal_config(seed=11)
        a = run_session(config)
        b = run_session(config)
        assert a.log_text == b.log_text
        assert a.result == b.result

    def test_different_seed_differs(self):
        assert run_session(ideal_config(seed=1)).log_text != \
            run_session(ideal_config(seed=2)).log_text

    def test_full_plant_mode_deterministic(self):
        raw = default_config_dict(seed=5, plant_mode="full")
        config = config_from_dict(raw)
        a = run_session(config)
        b = run_session(config)
        assert a.log_text == b.log_text


class TestProtocol:
    def test_one_run_per_velocity(self):
        run = run_session(ideal_config(seed=4))
        assert len(run.result.runs) == 2
        assert sorted(r.velocity for r in run.result.runs) == [67.5, 112.5]
        order = parse_log(run.log_text)[-1].payload["velocity_order"]
        assert order == [r.velocity for r in run.result.runs]

    def test_velocity_order_is_seed_shuffled(self):
        orders = {tuple(r.velocity for r in run_session(ideal_config(seed=s)).result.runs)
                  for s in range(8)}
        assert len(orders) == 2  # both permutations occur

    def test_threshold_consistent_with_reversals(self):
        run = run_session(ideal_config(seed=6))
        for r in run.result.runs:
            tail = r.reversal_levels[-8:]
            assert r.threshold.absolute == pytest.approx(
                sum(tail) / len(tail), abs=1e-12)

    def test_presentation_order_balanced(self):
        first_ref = total = 0
        seed = 0
        while total < 10_000:
            run = run_session(ideal_config(seed=seed))
            for event in parse_log(run.log_text):
                if event.kind == "Presented":
                    total += 1
                    first_ref += event.payload["reference_first"]
            seed += 1
        assert 0.48 <= first_ref / total <= 0.52

    def test_velocity_effect_ordering(self):
        ref = 1.11
        slow_point, fast_point = 1.0526 * ref, 0.8918 * ref
        alpha = alpha_for_target(slow_point, 0.8315, beta=5.0)
        observer = {
            "family": "weibull", "alpha": alpha, "beta": 5.0,
            "gamma": 0.05, "lapse": 0.02,
            "velocity_scaling": {"67.5": 1.0,
                                 "112.5": fast_point / slow_point},
        }
        wins = 0
        for seed in range(50):
            result = run_session(ideal_config(seed=seed,
                                              observer=observer)).result
            by_velocity = {r.velocity: r.threshold.percent_of_reference
                           for r in result.runs}
            wins += by_velocity[112.5] < by_velocity[67.5]
        assert wins >= 45


class TestExplorationRepetition:
    def test_zero_tolerance_hits_repeat_cap(self):
        raw = default_config_dict(seed=0, plant_mode="full")
        raw["velocity_tolerance"] = 0.0
        with pytest.raises(RepeatLimitError):
            run_session(config_from_dict(raw))

    def test_rejections_do_not_advance_staircase(self):
        # noisy limb with a tight tolerance: some explorations get rejected
        raw = default_config_dict(seed=2, plant_mode="full")
        raw["limb"] = {"motor_noise_std": 0.2}
        raw["velocity_tolerance"] = 2.3
        raw["repeat_cap"] = 12
        raw["staircase"] = {"reversal_limit": 4, "reversals_averaged": 4}
        run = run_session(config_from_dict(raw))
        events = parse_log(run.log_text)
        assert any(e.kind == "ExplorationRejected" for e in events), \
            "scenario produced no rejections"
        # trial indices restart per run; count moves per (run, trial)
        moves_per_trial = {}
        run_index = -1
        for e in events:
            if e.kind == "RunStarted":
                run_index += 1
            elif e.kind == "StaircaseMoved":
                key = (run_index, e.payload["trial"])
                moves_per_trial[key] = moves_per_trial.get(key, 0) + 1
        assert all(count == 1 for count in moves_per_trial.values())
        assert replay(run.log_text) == run.result


class TestCatchTrials:
    def test_catch_trials_logged_but_do_not_move_staircase(self):
        observer = {"family": "sdt", "sigma": 1e-9, "criterion": 0.05}
        config = ideal_config(seed=9, catch_trial_rate=0.3, observer=observer)
        run = run_session(config)
        events = parse_log(run.log_text)
        catch = [e for e in events
                 if e.kind == "Responded" and e.payload["catch"]]
        assert catch, "no catch trials occurred"
        # near-noiseless observer answers Same on identical pairs
        assert all(e.payload["response"] == "same" and e.payload["correct"]
                   for e in catch)
        assert replay(run.log_text) == run.result


class TestReplay:
    def test_replay_equals_result(self):
        run = run_session(ideal_config(seed=12))
        assert replay(run.log_text) == run.result

    def test_replay_full_plant(self):
        raw = default_config_dict(seed=13, plant_mode="full")
        raw["staircase"] = {"reversal_limit": 4, "reversals_averaged": 2}
        run = run_session(config_from_dict(raw))
        assert replay(run.log_text) == run.result

    def test_log_in_an_older_spelling_replays(self):
        # logs once held the config as given: the observer without its
        # defaults, integers in float fields, scaling keys as spelled
        observer = {"family": "sdt", "sigma": 0.3, "criterion": 0.2}
        config = ideal_config(seed=10, catch_trial_rate=0.25, observer=observer,
                              device={"torque_limit": 300})
        events = _events(config)
        logged = events[0]["payload"]["config"]
        assert logged["observer"] == {**observer, "bias": 0.0, "velocity_scaling": {}}
        logged["observer"] = observer
        logged["device"]["torque_limit"] = 300
        assert replay(_log(events)).runs == run_session(config).result.runs
        events = _events(ideal_config(seed=11))
        events[0]["payload"]["config"]["observer"]["velocity_scaling"] = \
            {"67.50": 1.0, "1.125e2": 0.847}
        assert replay(_log(events)).runs == run_session(ideal_config(seed=11)).result.runs

    def test_amendment_overrides_response(self):
        run = run_session(ideal_config(seed=14))
        events = parse_log(run.log_text)
        target = next(e.seq for e in events if e.kind == "Responded")
        original = events[target].payload
        amended_text = append_amendment(run.log_text, target, {
            "correct": not original["correct"],
            "response": "same" if original["response"] == "different"
            else "different",
        })
        amended = replay(amended_text)
        # the flipped first response changes the staircase path
        assert amended.runs[0].reversal_levels != \
            run.result.runs[0].reversal_levels

    def test_amending_response_alone_moves_staircase(self):
        run = run_session(ideal_config(seed=14))
        events = parse_log(run.log_text)
        target = next(e for e in events if e.kind == "Responded")
        flipped = "same" if target.payload["response"] == "different" \
            else "different"
        response_only = replay(append_amendment(
            run.log_text, target.seq, {"response": flipped}))
        both = replay(append_amendment(run.log_text, target.seq, {
            "response": flipped, "correct": not target.payload["correct"]}))
        assert response_only.runs != run.result.runs
        assert response_only.runs == both.runs

    @pytest.mark.parametrize("kind,update,key", [
        ("Presented", {"level": 99}, "Presented.level"),
        ("Presented", {"k_first": 5}, "Presented.k_first"),
        ("Responded", {"bogus": 1}, "Responded.bogus"),
        ("Responded", {"response": "different", "trial": 3}, "Responded.trial"),
        ("Responded", {"response": "maybe"}, "Responded.response"),
        ("Responded", {"response": ["same"]}, "Responded.response"),
        ("StaircaseMoved", {}, "target_seq"),
        ("RunTerminated", {"threshold_pct": 1.0}, "RunTerminated.threshold_pct"),
    ])
    def test_amendment_of_anything_but_a_response_rejected(self, kind, update, key):
        run = run_session(ideal_config(seed=14))
        events = parse_log(run.log_text)
        target = next(e for e in events if e.kind == kind)
        with pytest.raises(CorruptLogError, match=key) as err:
            replay(append_amendment(run.log_text, target.seq, update))
        assert err.value.seq == len(events)

    def test_amended_correct_must_agree_with_the_response(self):
        run = run_session(ideal_config(seed=14))
        events = parse_log(run.log_text)
        target = next(e for e in events if e.kind == "Responded")
        correct, response = target.payload["correct"], target.payload["response"]
        flipped = "same" if response == "different" else "different"
        for update in ({"correct": not correct}, {"correct": int(correct)},
                       {"response": flipped, "correct": correct}):
            with pytest.raises(CorruptLogError, match="Responded.correct") as err:
                replay(append_amendment(run.log_text, target.seq, update))
            assert err.value.seq == len(events)
        # agreeing with the response as amended so far, by earlier amendments too
        assert replay(append_amendment(run.log_text, target.seq,
                                       {"correct": correct})).runs == run.result.runs
        text = append_amendment(run.log_text, target.seq, {"response": flipped})
        text = append_amendment(text, target.seq, {"correct": not correct})
        assert replay(text).runs == replay(append_amendment(
            run.log_text, target.seq, {"response": flipped})).runs

    def test_amended_log_is_compared_as_logged(self):
        # a no-op amendment: the last response, set to its own value
        events = _events(ideal_config(seed=0))
        assert events[7]["kind"] == "StaircaseMoved"
        events[7]["payload"]["level_after"] = 9.0
        last = [e for e in events if e["kind"] == "Responded"][-1]
        text = _log(events) + _amendment_line(_log(events), last["seq"],
                                              {"response": last["payload"]["response"]})
        with pytest.raises(CorruptLogError) as err:
            replay(text)
        assert str(err.value) == \
            "seq 7: StaircaseMoved.level_after disagrees with the re-emitted log"
        assert err.value.seq == 7

    @pytest.mark.parametrize("kind", ["StaircaseMoved", "SessionEnded"])
    def test_amendment_before_session_end_rejected(self, kind):
        events = _events(ideal_config(seed=0))
        responded = next(e for e in events if e["kind"] == "Responded")
        at = next(e["seq"] for e in events if e["kind"] == kind)
        events.insert(at, {"seq": 0, "kind": "Amendment", "t_wall": events[at]["t_wall"],
                           "payload": {"target_seq": responded["seq"], "update": {
                               "response": responded["payload"]["response"]}}})
        for seq, event in enumerate(events):
            event["seq"] = seq
        with pytest.raises(CorruptLogError, match=f"logged Amendment where the "
                                                  f"re-emitted log has {kind}") as err:
            replay(_log(events))
        assert err.value.seq == at

    def test_amendment_replay_would_refuse_is_not_written(self):
        run = run_session(ideal_config(seed=0))
        events = parse_log(run.log_text)
        presented = next(e for e in events if e.kind == "Presented")
        with pytest.raises(CorruptLogError, match="not Presented.level") as err:
            append_amendment(run.log_text, presented.seq, {"level": 99})
        assert err.value.seq == len(events)
        # a response flip that changes the first run's trial count
        flipped = "same" if events[27].payload["response"] == "different" else "different"
        with pytest.raises(CorruptLogError, match="with the amended responses, run "
                                                  "ends before its staircase does"):
            append_amendment(run.log_text, 27, {"response": flipped})
        with pytest.raises(CorruptLogError, match="amendment targets missing event"):
            append_amendment(run.log_text, -1, {"response": "same"})

    @pytest.mark.parametrize("target,seq,message", [
        (27, 2, "run ends before its staircase does"),
        (82, 106, "Presented after its run's staircase ended"),
    ])
    def test_amendment_that_changes_the_trial_count_is_named(self, target, seq, message):
        run = run_session(ideal_config(seed=0))
        responded = parse_log(run.log_text)[target]
        assert responded.kind == "Responded"
        flipped = "same" if responded.payload["response"] == "different" else "different"
        assert replay(run.log_text) == run.result
        with pytest.raises(CorruptLogError) as err:
            replay(append_amendment(run.log_text, target, {"response": flipped}))
        assert str(err.value) == f"seq {seq}: with the amended responses, {message}"
        assert err.value.seq == seq

    @pytest.mark.parametrize("key,value,expected", [
        *[("achieved_mean_velocity", value, "a finite number")
          for value in ("fast", None, [1, 2], True, math.inf, math.nan)],
        *[("led_events", value, "a nonnegative integer")
          for value in ("fast", None, [1, 2], False, -1, 2.0)],
        ("achieved_mean_velocity", 50, None), ("achieved_mean_velocity", -1e300, None),
        ("led_events", 0, None), ("led_events", 10**30, None),
    ])
    def test_rejected_exploration_inputs_are_type_checked(self, key, value, expected):
        logged = _log([json.loads(line) for line in _edit_target_logs()[2][1]])  # noisy
        events = [json.loads(line) for line in logged.splitlines()]
        rejected = next(e for e in events if e["kind"] == "ExplorationRejected")
        rejected["payload"][key] = value
        if expected is None:  # taken as logged
            assert replay(_log(events)).runs == replay(logged).runs
            return
        with pytest.raises(CorruptLogError) as err:
            replay(_log(events))
        assert str(err.value) == (f"seq {rejected['seq']}: ExplorationRejected.{key} "
                                  f"must be {expected}, got {value!r}")

    def test_flipped_correct_rejected(self):
        run = run_session(ideal_config(seed=19))
        lines = run.log_text.splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["kind"] == "Responded":
                event["payload"]["correct"] = not event["payload"]["correct"]
                lines[i] = json.dumps(event, sort_keys=True)
                break
        with pytest.raises(CorruptLogError, match="correct"):
            replay("\n".join(lines) + "\n")

    def test_run_without_termination_rejected(self):
        run = run_session(ideal_config(seed=20))
        lines = [line for line in run.log_text.splitlines()
                 if '"kind": "RunTerminated"' not in line]
        renumbered = []
        for seq, line in enumerate(lines):
            event = json.loads(line)
            event["seq"] = seq
            renumbered.append(json.dumps(event, sort_keys=True))
        with pytest.raises(CorruptLogError, match="re-emitted log has RunTerminated"):
            replay("\n".join(renumbered) + "\n")

    def test_truncated_log_rejected(self):
        run = run_session(ideal_config(seed=15))
        lines = run.log_text.splitlines()
        truncated = "\n".join(lines[:-1]) + "\n"
        with pytest.raises(CorruptLogError, match="SessionEnded"):
            replay(truncated)

    def test_sequence_gap_rejected(self):
        run = run_session(ideal_config(seed=16))
        lines = run.log_text.splitlines()
        del lines[3]
        with pytest.raises(CorruptLogError, match="seq"):
            replay("\n".join(lines) + "\n")

    def test_tampered_threshold_rejected(self):
        run = run_session(ideal_config(seed=17))
        lines = run.log_text.splitlines()
        for i, line in enumerate(lines):
            event = json.loads(line)
            if event["kind"] == "RunTerminated":
                event["payload"]["threshold_pct"] += 1.0
                lines[i] = json.dumps(event, sort_keys=True)
                break
        with pytest.raises(CorruptLogError, match="disagrees"):
            replay("\n".join(lines) + "\n")

    @pytest.mark.parametrize("field,edit", [
        ("velocity_deg_s", lambda v: v + 1.0),
        ("trials", lambda v: v + 1),
        ("threshold_absolute", lambda v: v * 1.01),
        ("threshold_pct", lambda v: v + 1.0),
        ("proportion_correct_tail", lambda v: 0.5 if v != 0.5 else 0.6),
        ("reversals", lambda v: v - 1),
    ])
    def test_edited_session_summary_rejected(self, field, edit):
        events = _events(ideal_config(seed=24))
        ended = events[-1]
        assert ended["kind"] == "SessionEnded"
        summary = ended["payload"]["runs"][0]
        summary[field] = edit(summary[field])
        with pytest.raises(CorruptLogError, match="SessionEnded") as err:
            replay(_log(events))
        assert err.value.seq == ended["seq"]

    def test_reordered_velocity_order_rejected(self):
        events = _events(ideal_config(seed=24))
        events[-1]["payload"]["velocity_order"].reverse()
        with pytest.raises(CorruptLogError, match="SessionEnded") as err:
            replay(_log(events))
        assert err.value.seq == events[-1]["seq"]

    @pytest.mark.parametrize("field", ["k_first", "k_second", "level"])
    def test_edited_presentation_rejected(self, field):
        events = _events(ideal_config(seed=25))
        presented = next(e for e in events if e["kind"] == "Presented")
        presented["payload"][field] += 0.01
        with pytest.raises(CorruptLogError, match="Presented") as err:
            replay(_log(events))
        assert err.value.seq == presented["seq"]

    def test_flipped_presentation_order_rejected(self):
        events = _events(ideal_config(seed=25))
        presented = next(e for e in events if e["kind"] == "Presented")
        presented["payload"]["reference_first"] = \
            not presented["payload"]["reference_first"]
        with pytest.raises(CorruptLogError, match="Presented") as err:
            replay(_log(events))
        assert err.value.seq == presented["seq"]

    def test_catch_trial_must_present_the_reference_twice(self):
        events = _events(ideal_config(seed=26, catch_trial_rate=0.3))
        presented = next(e for e in events if e["kind"] == "Presented"
                         and e["payload"]["catch"])
        payload = presented["payload"]
        assert payload["k_first"] == payload["k_second"]
        payload["k_first" if payload["reference_first"] else "k_second"] += \
            payload["level"]
        with pytest.raises(CorruptLogError, match="Presented") as err:
            replay(_log(events))
        assert err.value.seq == presented["seq"]

    def test_springs_checked_against_the_configured_reference(self):
        events = _events(ideal_config(seed=27))
        events[0]["payload"]["config"]["reference_stiffness"] = 1.2
        first = next(e for e in events if e["kind"] == "RunStarted")
        with pytest.raises(CorruptLogError, match="RunStarted.staircase") as err:
            replay(_log(events))
        assert err.value.seq == first["seq"]

    def test_presentation_outside_a_run_rejected(self):
        events = _events(ideal_config(seed=28))
        presented = next(e for e in events if e["kind"] == "Presented")
        events.insert(1, json.loads(json.dumps(presented)))
        for seq, event in enumerate(events):
            event["seq"] = seq
        with pytest.raises(CorruptLogError, match="outside an active run") as err:
            replay(_log(events))
        assert err.value.seq == 1

    def test_empty_log_rejected(self):
        with pytest.raises(CorruptLogError):
            replay("")

    def test_line_cut_mid_json_rejected_with_its_line(self):
        lines = run_session(ideal_config(seed=19)).log_text.splitlines()
        lines[7] = lines[7][:25]
        with pytest.raises(CorruptLogError, match="line 8 is not JSON"):
            replay("\n".join(lines) + "\n")

    def test_responded_without_correct_rejected_with_its_seq(self):
        events = [json.loads(line) for line in
                  run_session(ideal_config(seed=20)).log_text.splitlines()]
        target = next(e for e in events if e["kind"] == "Responded")
        del target["payload"]["correct"]
        text = "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
        with pytest.raises(CorruptLogError, match="correct") as err:
            replay(text)
        assert err.value.seq == target["seq"]

    @pytest.mark.parametrize("payload", [[], "x", None, 3])
    def test_non_object_payload_rejected_with_its_seq(self, payload):
        events = [json.loads(line) for line in
                  run_session(ideal_config(seed=21)).log_text.splitlines()]
        events[4]["payload"] = payload
        text = "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
        with pytest.raises(CorruptLogError, match="object payload") as err:
            replay(text)
        assert err.value.seq == 4

    @pytest.mark.parametrize("line", ['[1, 2]', '{"seq": 0, "kind": "x"}',
                                      '{"seq": "0", "kind": "SessionStarted", '
                                      '"t_wall": 0.0, "payload": {}}'])
    def test_line_that_is_no_event_rejected(self, line):
        with pytest.raises(CorruptLogError, match="line 1"):
            replay(line + "\n")

    def test_missing_run_staircase_rejected(self):
        events = [json.loads(line) for line in
                  run_session(ideal_config(seed=22)).log_text.splitlines()]
        target = next(e for e in events if e["kind"] == "RunStarted")
        target["payload"]["staircase"] = {"up_step": 1.0}
        text = "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"
        with pytest.raises(CorruptLogError, match="RunStarted.staircase"):
            replay(text)

    @pytest.mark.parametrize("update", [{"target_seq": 1.0, "update": {}},
                                        {"target_seq": 1, "update": ["x"]},
                                        {"target_seq": 1}])
    def test_malformed_amendment_rejected(self, update):
        text = run_session(ideal_config(seed=23)).log_text
        n = len(text.splitlines())
        line = json.dumps({"seq": n, "kind": "Amendment", "t_wall": 0.0,
                           "payload": update}, sort_keys=True)
        with pytest.raises(CorruptLogError, match="amendment") as err:
            replay(text + line + "\n")
        assert err.value.seq == n


@functools.cache
def _edit_target_logs():
    """(plant mode, log lines) of the logs the field-edit property edits."""
    return (
        ("ideal", run_session(ideal_config(seed=3)).log_text.splitlines()),
        ("full", run_session(full_config(seed=3, staircase=SHORT_STAIRCASE))
         .log_text.splitlines()),
        ("full", run_session(noisy_config(seed=2, staircase=SHORT_STAIRCASE))
         .log_text.splitlines()),
    )


def _field_paths(value, path=()):
    """The path of every key and index below ``value``."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _field_paths(item, path + (key,))


def _nearby(value):
    """Edits close to ``value``, which random values rarely hit."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value + 1, value - 1, -value, value * 1.01, value + 1e-9, 0]
    if isinstance(value, str):
        return [value + "x", "same", "different", "up", "down", "Presented",
                "Responded", "StaircaseMoved", "Reversal", "ExplorationRejected"]
    return [[], {}, None]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5)


@functools.cache
def _mutation_bases():
    """Valid config documents: as users write them, and with every field."""
    derived = {**default_config_dict(plant_mode="ideal"),  # deg_s from bpm
               "velocities": [{"bpm": 45}, {"bpm": 75}], "trajectory": {"amplitude": 60.0},
               "observer": {"family": "sdt", "sigma": 0.3, "criterion": 0.2,
                            "velocity_scaling": {"75": 0.9}}}
    return (default_config_dict(), derived,
            config_to_dict(noisy_config(staircase=SHORT_STAIRCASE)))


@functools.cache
def _config_keys():
    """Every key of a config document."""
    return sorted({path[-1] for base in _mutation_bases()
                   for path in _field_paths(base) if isinstance(path[-1], str)}
                  | {"family", "bias", "p_different", "deg_s"})


def _exempt(mode, event, path, new):
    """Whether ``path`` of ``event`` is an input replay cannot recompute,
    and ``new`` a value of that input's type."""
    kind, field = event["kind"], path[:2]
    return (mode == "full" and kind == "Responded"
            and field == ("payload", "recording_digests")) \
        or (kind == "ExplorationRejected" and (
            field == ("payload", "interval")
            or field == ("payload", "achieved_mean_velocity")
            and (type(new) is int or type(new) is float and math.isfinite(new))
            or field == ("payload", "led_events") and type(new) is int and new >= 0)) \
        or (kind == "Presented" and event["payload"]["catch"]
            and field == ("payload", "reference_first"))


@functools.cache
def _amended_edit_target_logs():
    """(plant mode, log lines, amendment line): each field-edit log with one
    appended amendment, the last response flip that still replays and
    changes the result."""
    logs = []
    for mode, lines in _edit_target_logs():
        text = "\n".join(lines) + "\n"
        for event in reversed(parse_log(text)):
            if event.kind != "Responded":
                continue
            flipped = "same" if event.payload["response"] == "different" else "different"
            try:
                amended = append_amendment(text, event.seq, {"response": flipped})
                if replay(amended).runs != replay(text).runs:
                    break
            except CorruptLogError:  # the flip changes a run's trial count
                pass
        else:
            raise AssertionError(f"no response flip of a {mode} log replays")
        logs.append((mode, lines, amended[len(text):]))
    return tuple(logs)


def _edit_one_field(data, logs):
    """Replay one of ``logs`` with one field of one of its events edited,
    and fail unless the edit is rejected or exempt."""
    mode, lines, amendment = data.draw(st.sampled_from(logs))
    index = data.draw(st.integers(1, len(lines) - 1), label="seq")
    event = json.loads(lines[index])
    path = data.draw(st.sampled_from(list(_field_paths(event))), label="path")
    *parents, key = path
    owner = functools.reduce(lambda value, step: value[step], parents, event)
    old = owner[key]
    owner[key] = data.draw(st.one_of(st.sampled_from(_nearby(old)), _JSON_VALUES)
                           .filter(lambda new: new != old), label="new value")
    edited = lines[:index] + [json.dumps(event, sort_keys=True)] + lines[index + 1:]
    try:
        replay("\n".join(edited) + "\n" + amendment)
    except CorruptLogError:
        return
    assert _exempt(mode, json.loads(lines[index]), path, owner[key]), \
        f"replay accepted {owner[key]!r} for {old!r} at {path} of seq {index}"


class TestReplayRecomputesEveryField:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_edited_field_is_rejected(self, data):
        _edit_one_field(data, [(mode, lines, "") for mode, lines in _edit_target_logs()])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_edited_field_of_an_amended_log_is_rejected(self, data):
        _edit_one_field(data, _amended_edit_target_logs())


def _events(config):
    return [json.loads(line) for line in run_session(config).log_text.splitlines()]


def _log(events):
    return "\n".join(json.dumps(e, sort_keys=True) for e in events) + "\n"


def _reference_parse_log(text):
    """The plain parser parse_log must stay equivalent to: one json.loads
    per nonblank line, then the same event checks."""
    events = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            event = Event(d["seq"], d["kind"], d["t_wall"], d["payload"])
        except json.JSONDecodeError as exc:
            raise CorruptLogError(f"line {number} is not JSON: {exc.msg}") from None
        except (KeyError, TypeError):
            event = None
        if event is None or len(d) != 4 or type(event.seq) is not int \
                or type(event.kind) is not str or type(event.payload) is not dict \
                or type(event.t_wall) not in (int, float):
            seq = event.seq if event is not None and type(event.seq) is int else None
            raise CorruptLogError(f"line {number} is not an event with an integer "
                                  "seq, a string kind, a numeric t_wall and an "
                                  "object payload", seq)
        events.append(event)
    return events


def _parsed(parse, text):
    """The events, or the CorruptLogError's message and seq."""
    try:
        return parse(text)
    except CorruptLogError as exc:
        return str(exc), exc.seq


def _amendment_line(text, target, update):
    """The line of an Amendment of ``update`` to ``target`` appended to the
    log ``text``, written unchecked, as append_amendment would refuse it."""
    last = parse_log(text)[-1]
    return serialize_log([Event(last.seq + 1, "Amendment", last.t_wall,
                                {"target_seq": target, "update": update})])


@functools.cache
def _small_log():
    return run_session(ideal_config(seed=30)).log_text


SHORT_STAIRCASE = {"reversal_limit": 4, "reversals_averaged": 4}


class TestParseEquivalence:
    @pytest.mark.parametrize("make", [
        lambda: run_session(ideal_config(seed=31)).log_text,
        lambda: run_session(full_config(seed=32, staircase=SHORT_STAIRCASE)).log_text,
        lambda: run_session(noisy_config(seed=33, staircase=SHORT_STAIRCASE)).log_text,
        lambda: _small_log() + _amendment_line(_small_log(), 5, {"note": "checked"}),
    ])
    def test_valid_logs_parse_to_the_same_events(self, make):
        text = make()
        events = parse_log(text)
        assert events == _reference_parse_log(text)
        assert all(type(e) is Event for e in events)

    @pytest.mark.parametrize("mutate", [
        lambda line: " " + line,
        lambda line: line + " ",
        lambda line: "\t" + line + "\t",
        lambda line: "\ufeff" + line,
        lambda line: line + "\ufeff",
        lambda line: "1, 2",
        lambda line: line + "}",
        lambda line: line[:-1],
        lambda line: "NaN",
        lambda line: line.replace('"t_wall": 0.0', '"t_wall": NaN'),
        lambda line: "[]",
        lambda line: '{"seq": 2, "kind": "Metadata", "t_wall": 0.0}',
        lambda line: line + "\n\x0c\n",
        lambda line: "\x0c" + line,
        lambda line: "",
    ])
    @pytest.mark.parametrize("index", [0, 2])
    def test_mutated_line_reads_as_json_loads_reads_it(self, mutate, index):
        lines = _small_log().splitlines()
        lines[index] = mutate(lines[index])
        text = "\n".join(lines) + "\n"
        assert _parsed(parse_log, text) == _parsed(_reference_parse_log, text)

    @settings(max_examples=300, deadline=None)
    @given(index=st.integers(0, 6),
           prefix=st.text(" \t\ufeff\x0c{}[],:\"0123456789.eEaNI-", max_size=4),
           suffix=st.text(" \t\ufeff\x0c{}[],:\"0123456789.eEaNI-", max_size=4),
           cut=st.integers(0, 3))
    def test_any_padding_or_cut_reads_as_json_loads_reads_it(self, index, prefix,
                                                            suffix, cut):
        lines = _small_log().splitlines()[:7]
        line = lines[index]
        lines[index] = prefix + line[:len(line) - cut] + suffix
        text = "\n".join(lines) + "\n"
        assert _parsed(parse_log, text) == _parsed(_reference_parse_log, text)


def _reference_line(event):
    """One log line as the log was first encoded: a new JSONEncoder call per
    event, which the prebuilt encoder must match byte for byte."""
    seq, kind, t_wall, payload = event
    return json.JSONEncoder(sort_keys=True).encode(
        {"seq": seq, "kind": kind, "t_wall": t_wall, "payload": payload})


def _reference_serialize_log(events):
    return "\n".join(_reference_line(e) for e in events) + "\n"


# quotes, backslashes, control characters, non-ASCII and lone surrogates
_STRINGS = st.text(st.characters(exclude_categories=()), max_size=8) \
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "caf\u00e9", "\U0001f600"])
_PAYLOAD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**60, 10**60)
    | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
    | _STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=12)
_PAYLOADS = st.dictionaries(_STRINGS, _PAYLOAD_VALUES, max_size=5)
_EVENT_TUPLES = st.tuples(st.integers(-2**70, 2**70), _STRINGS,
                          st.floats() | st.integers(), _PAYLOADS)


class _Float(float):
    """A float that spells itself otherwise, as NumPy's float64 does."""

    def __repr__(self):
        return f"_Float({float(self)!r})"

    __str__ = __repr__


class _Str(str):
    """A string that spells itself otherwise, as an enum member may."""

    def __str__(self):
        return f"_Str({str.__str__(self)!r})"

    __repr__ = __str__

    def __format__(self, spec):
        return str(self)


def _mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


# the payload keys of each kind written from a template, and values for them:
# mostly values of the kind the emitter writes, else values the template must
# leave to json's encoder (NaN, infinities, ints and bools for floats,
# subclasses, strings that need escaping, digest lists of another length)
_FLOATS = _mostly(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.builds(_Float, st.floats()) | st.integers(-3, 3) | st.booleans())
_INTS = _mostly(st.integers(-2**70, 2**70),
                st.booleans() | st.floats(-3, 3) | st.builds(_Float, st.integers(0, 3)))
_BOOLS = _mostly(st.booleans(), st.integers(0, 1) | st.none())
_WORDS = ["same", "different", "up", "down"]
_ODD_WORDS = st.sampled_from(["none", "Up", "", *map(_Str, _WORDS)]) \
    | st.builds(_Str, st.sampled_from(_WORDS)) | _STRINGS
_RESPONSE_WORDS = _mostly(st.sampled_from(["same", "different"]), _ODD_WORDS)
_DIRECTION_WORDS = _mostly(st.sampled_from(["up", "down"]), _ODD_WORDS)
_DIGEST = _mostly(st.sampled_from(["ideal", hashlib.sha256(b"").hexdigest()])
                  | st.text("0123456789abcdefXYZ", min_size=1, max_size=8),
                  # letters and digits past ASCII, and characters json escapes
                  st.text("0a\u00e9\u00b2\u0663 \"\\\x00\u2028", max_size=4) | _STRINGS)
_DIGESTS = _mostly(st.lists(_DIGEST, min_size=2, max_size=2),
                   st.lists(_DIGEST, max_size=3) | st.tuples(_DIGEST, _DIGEST))
_FIELDS = {
    "Presented": {"catch": _BOOLS, "k_first": _FLOATS, "k_second": _FLOATS,
                  "level": _FLOATS, "reference_first": _BOOLS, "trial": _INTS},
    "Responded": {"catch": _BOOLS, "correct": _BOOLS, "recording_digests": _DIGESTS,
                  "response": _RESPONSE_WORDS, "trial": _INTS},
    "StaircaseMoved": {"direction": _DIRECTION_WORDS, "level_after": _FLOATS,
                       "level_before": _FLOATS, "trial": _INTS},
    "Reversal": {"index": _INTS, "level": _FLOATS, "new_direction": _DIRECTION_WORDS,
                 "trial": _INTS},
}


@st.composite
def _template_events(draw):
    """An event of a kind written from a template, with the kind's keys
    (or one too few or too many) and the values above."""
    kind = draw(st.sampled_from(sorted(_FIELDS)))
    payload = {key: draw(values) for key, values in _FIELDS[kind].items()}
    change = draw(_mostly(st.just(None), st.sampled_from(["drop", "add"])))
    if change == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif change == "add":
        payload[draw(_STRINGS)] = draw(_PAYLOAD_VALUES)
    return (draw(_mostly(st.integers(0, 2**70), st.booleans())),
            draw(_mostly(st.just(kind), st.just(_Str(kind)))), draw(_FLOATS), payload)


# a valid payload of each template kind, and for each type of field the
# values its template must leave to json's encoder
_VALID_PAYLOADS = {
    "Presented": {"catch": False, "k_first": 1.11, "k_second": 2.22, "level": 1.11,
                  "reference_first": True, "trial": 0},
    "Responded": {"catch": False, "correct": True, "recording_digests": ["ideal", "ideal"],
                  "response": "different", "trial": 0},
    "StaircaseMoved": {"direction": "up", "level_after": 1.221, "level_before": 1.11,
                       "trial": 1},
    "Reversal": {"index": 1, "level": 1.665, "new_direction": "down", "trial": 10},
}
_NONFINITE = [float("nan"), float("inf"), float("-inf")]
_UNTEMPLATED = {
    float: [*_NONFINITE, 1, True, _Float(1.5), None],
    bool: [1, 0, None],
    int: [True, 1.0, _Float(1.0), None],
    "response": ["maybe", "", "Same", _Str("same"), _Str("different"), "\u2028", None],
    "direction": ["none", "", _Str("up"), _Str("down"), None],
    "digests": [["caf\u00e9", "ideal"], ["ideal", "x\u00b2"], ["\u0663", "ideal"],
                ["a b", "ideal"], ['a"', "ideal"], ["a\\", "ideal"], ["", "ideal"],
                ["ideal"], ["ideal"] * 3, ("ideal", "ideal"), [_Str("ideal"), "ideal"],
                [1, "ideal"], None],
}


def _untemplated_events():
    """Valid template events with one value, the kind, seq or t_wall
    replaced by one its template must leave to json, or one key too many
    or too few."""
    for kind, payload in _VALID_PAYLOADS.items():
        for key, value in payload.items():
            field = {"response": "response", "direction": "direction",
                     "new_direction": "direction",
                     "recording_digests": "digests"}.get(key, type(value))
            for odd in _UNTEMPLATED[field]:
                yield (7, kind, 120.0, {**payload, key: odd})
            less = dict(payload)
            del less[key]
            yield (7, kind, 120.0, less)
        yield (7, kind, 120.0, {**payload, "extra": 1})
        yield (7, _Str(kind), 120.0, payload)
        for seq in (True, 7.0, _Float(7.0)):
            yield (seq, kind, 120.0, payload)
        for t_wall in (*_NONFINITE, 120, _Float(120.0)):
            yield (7, kind, t_wall, payload)


class TestLogEncoding:
    @settings(max_examples=500, deadline=None)
    @given(events=st.lists(_template_events(), max_size=6))
    def test_template_lines_match_the_json_encoder(self, events):
        expected = _reference_serialize_log(events)
        assert serialize_log(events) == expected

    def test_each_guard_leaves_its_value_to_json(self):
        events = list(_untemplated_events())
        encoded, encode = [], session._encode
        with mock.patch.object(session, "_encode",
                               lambda obj, level: encoded.append(obj) or encode(obj, level)):
            for event in events:
                assert serialize_log([event]) == _reference_line(event) + "\n"
            assert len(encoded) == len(events)
            # the valid events themselves are written from their templates
            valid = [(7, kind, 120.0, payload) for kind, payload in _VALID_PAYLOADS.items()]
            assert serialize_log(valid) == _reference_serialize_log(valid)
            assert len(encoded) == len(events)

    @pytest.mark.parametrize("config,others", [
        (ideal_config(seed=0), set()),
        (noisy_config(seed=1, staircase=SHORT_STAIRCASE), {"ExplorationRejected"}),
    ])
    def test_only_other_kinds_reach_the_json_encoder(self, config, others):
        encoded, encode = [], session._encode
        with mock.patch.object(session, "_encode",
                               lambda obj, level: encoded.append(obj["kind"])
                               or encode(obj, level)):
            text = run_session(config).log_text
        assert text == _reference_serialize_log(parse_log(text))
        assert encoded == [e.kind for e in parse_log(text) if e.kind not in _FIELDS]
        assert set(encoded) == {"SessionStarted", "Metadata", "RunStarted",
                                "RunTerminated", "SessionEnded", *others}

    @settings(max_examples=300, deadline=None)
    @given(events=st.lists(_EVENT_TUPLES, max_size=4))
    def test_lines_match_the_json_encoder(self, events):
        expected = _reference_serialize_log(events)
        assert serialize_log(events) == expected
        assert serialize_log([Event._make(e) for e in events]) == expected

    def test_session_log_matches_the_json_encoder(self):
        run = run_session(noisy_config(seed=1, staircase=SHORT_STAIRCASE))
        assert run.log_text == _reference_serialize_log(parse_log(run.log_text))

    @settings(max_examples=50, deadline=None)
    @given(target=st.integers(0, 20), update=_PAYLOADS)
    def test_amendment_line_matches_the_json_encoder(self, target, update):
        text = _small_log()
        last = parse_log(text)[-1]
        expected = text + _reference_line(Event(
            last.seq + 1, "Amendment", last.t_wall,
            {"target_seq": target, "update": update})) + "\n"
        assert text + _amendment_line(text, target, update) == expected


class TestSummary:
    def test_rows_match_runs(self):
        config = ideal_config(seed=18)
        run = run_session(config)
        rows = summary_rows("s18", config, run.result)
        assert len(rows) == 2
        for row, result in zip(rows, run.result.runs):
            assert row["velocity_deg_s"] == result.velocity
            assert row["threshold_pct"] == \
                result.threshold.percent_of_reference
            assert row["seed"] == 18


# sha256 of reference logs: a change to any of these bytes must be deliberate
PINNED_IDEAL = {
    0: "df3bb1d339eb0d77869acabc1b79e1265d456a6e3d2ab59d75610d6a6299b600",
    1: "de2da816285d77d4502a586066fcc7342872936ed2c8e9bba5b3ce770f33fa67",
    2: "8106b387017250015daac8489d46e129b37435cfcc28aec79155dd6e62ed8bd4",
    3: "b4e72b48e1a0e4b12678edce4411d1af42af9699ff44d2c61da1e051998be8a8",
    4: "2a7309ccd642a1d1df8cb4715ed20b0750cc51ddb2b55b6a5e5e95a274681ec1",
}
PINNED_FULL_SEED0_BLANKED = \
    "61c0451688c581b13ed953799550cc2ca9a7dd988b32a9a8a091330688df339d"
# full logs with their recording digests: the plant's float arrays bit for bit
PINNED_FULL_SEED0 = \
    "fb313daf2085e638f9d0d0121b72f8960091e54fd673005f67a4f5f6e8a41bed"
PINNED_NOISY_SEED0 = \
    "44533cebc27ff09000a935e158cc3acd64356069b0f0eb184bd755851d81de5f"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestOneSourceOfTruth:
    def test_default_config_file_matches_default_config_dict(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        assert json.loads(path.read_text()) == default_config_dict()

    @pytest.mark.parametrize("seed", sorted(PINNED_IDEAL))
    def test_ideal_log_bytes_pinned(self, seed):
        assert _sha256(run_session(ideal_config(seed=seed)).log_text) == \
            PINNED_IDEAL[seed]

    def test_full_log_pinned_without_recording_digests(self):
        # recording digests hash plant floats bit for bit; everything else
        # in the log is pinned
        text = run_session(config_from_dict(default_config_dict(seed=0))).log_text
        lines = []
        for line in text.splitlines():
            event = json.loads(line)
            if event["kind"] == "Responded":
                digests = event["payload"]["recording_digests"]
                event["payload"]["recording_digests"] = ["" for _ in digests]
            lines.append(json.dumps(event, sort_keys=True))
        assert _sha256("\n".join(lines) + "\n") == PINNED_FULL_SEED0_BLANKED

    def test_full_log_pinned(self):
        assert _sha256(run_session(full_config(seed=0)).log_text) == \
            PINNED_FULL_SEED0

    def test_noisy_log_pinned(self):
        assert _sha256(run_session(noisy_config(seed=0)).log_text) == \
            PINNED_NOISY_SEED0


def _explorations(log_text):
    """Explorations behind a full-plant log: two per trial plus rejections."""
    events = parse_log(log_text)
    return sum(2 if e.kind == "Responded" else 1 for e in events
               if e.kind in ("Responded", "ExplorationRejected"))


class TestExplorationMemo:
    SHORT = {"staircase": {"reversal_limit": 4, "reversals_averaged": 4}}

    def test_shared_memo_writes_the_logs_of_separate_sessions(self):
        memo = {}
        shared = [run_session(full_config(seed=s), memo).log_text for s in range(3)]
        separate = [run_session(full_config(seed=s)).log_text for s in range(3)]
        assert shared == separate
        # noise-free explorations repeat (k, bpm) within and across sessions
        assert 0 < len(memo) < sum(_explorations(t) for t in shared) / 2

    def test_noisy_config_never_hits_the_memo(self, monkeypatch):
        calls = []
        monkeypatch.setattr("stifflab.session.simulate_exploration",
                            lambda *a: calls.append(a[0]) or simulate_exploration(*a))
        memo = {}
        run = run_session(noisy_config(seed=1, **self.SHORT), memo)
        assert memo == {}
        assert len(calls) == _explorations(run.log_text)
        assert any(e.kind == "ExplorationRejected" for e in parse_log(run.log_text))

    def test_noisy_session_builds_each_plan_reference_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(plant, "min_jerk_trajectory",
                            lambda plan: calls.append(plan) or min_jerk_trajectory(plan))
        plant._plan_reference.cache_clear()
        run = run_session(noisy_config(seed=1, **self.SHORT))
        assert _explorations(run.log_text) > 50
        assert len(calls) == len(set(calls)) == 2  # one per pace, not per exploration

    def test_noise_free_session_simulates_each_exploration_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr("stifflab.session.simulate_exploration",
                            lambda *a: calls.append(a[:4]) or simulate_exploration(*a))
        run_session(full_config(seed=1, **self.SHORT))
        assert calls and len(calls) == len(set(calls))
