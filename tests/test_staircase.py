from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stifflab.config import ConfigError
from stifflab.staircase import (
    ReversalRecord,
    StaircaseConfig,
    StaircaseState,
    convergence_target,
    default_config,
    new_staircase,
    record_response,
    threshold_estimate,
)

REF = 1.11
# (1 / (1 + 0.7393)) ** (1/3) to 30 digits via mpmath, frozen
TARGET_3_07393 = 0.831524725745046590039163773492


@pytest.fixture
def cfg():
    return default_config(REF)


def run_responses(cfg, responses):
    state = new_staircase(cfg)
    for correct in responses:
        state = record_response(state, correct, cfg)
    return state


class TestConfig:
    def test_defaults_match_protocol(self, cfg):
        assert cfg.initial_level == REF  # comparison starts at 2x reference
        assert cfg.up_step == pytest.approx(0.1 * REF)
        assert cfg.down_up_ratio == 0.7393
        assert cfg.down_step == pytest.approx(0.0820623, abs=1e-7)
        assert cfg.down_rule == 3
        assert cfg.reversal_limit == 10
        assert cfg.reversals_averaged == 8

    @pytest.mark.parametrize("overrides", [
        {"up_step": 0.0},
        {"up_step": -1.0},
        {"down_up_ratio": 0.0},
        {"down_up_ratio": 1.5},
        {"down_rule": 0},
        {"reversals_averaged": 11},
        {"level_floor": 0.0},
        {"level_floor": 2.0},  # above initial_level
        {"level_cap": 0.5},    # below initial_level
    ])
    def test_invalid_config_rejected(self, overrides):
        kwargs = dict(
            reference_stiffness=REF, initial_level=REF, up_step=0.111,
            down_up_ratio=0.7393, down_rule=3, reversal_limit=10,
            reversals_averaged=8, level_floor=0.0820623, level_cap=2.22,
        )
        kwargs.update(overrides)
        with pytest.raises(ConfigError):
            StaircaseConfig(**kwargs)


class TestTransitions:
    def test_initial_state(self, cfg):
        state = new_staircase(cfg)
        assert state.level == REF
        assert state.consecutive_correct == 0
        assert state.last_move_direction == "none"
        assert state.reversals == ()
        assert not state.terminated

    def test_three_correct_moves_down(self, cfg):
        state = run_responses(cfg, [True, True, True])
        assert state.level == pytest.approx(1.11 - 0.0820623, abs=1e-12)
        assert state.consecutive_correct == 0
        assert state.last_move_direction == "down"

    def test_incorrect_moves_up(self, cfg):
        state = run_responses(cfg, [False])
        assert state.level == pytest.approx(1.221, abs=1e-12)
        assert state.last_move_direction == "up"

    def test_interrupted_streak_resets_counter(self, cfg):
        state = run_responses(cfg, [True, True, False])
        assert state.level == pytest.approx(1.221, abs=1e-12)
        assert state.consecutive_correct == 0
        # only the up move happened
        assert state.last_move_direction == "up"
        assert state.reversals == ()

    def test_reversal_records_local_extremum(self, cfg):
        # down to 1.0279377, then wrong: reversal at the valley level
        state = run_responses(cfg, [True, True, True, False])
        assert len(state.reversals) == 1
        rev = state.reversals[0]
        assert rev.level_at_reversal == pytest.approx(1.0279377, abs=1e-12)
        assert rev.new_direction == "up"
        assert state.level == pytest.approx(1.0279377 + 0.111, abs=1e-12)

    @pytest.mark.parametrize("responses,reversals", [
        ([True, True, True], ["down"]),  # the down move reverses the up
        ([False], []),  # a second up move does not
    ])
    def test_directions_compare_by_value(self, cfg, responses, reversals):
        # a direction built at run time is an equal string, not the literal
        literal = run_responses(cfg, [False])
        built = literal._replace(last_move_direction="".join(["u", "p"]))
        assert built.last_move_direction is not literal.last_move_direction
        for correct in responses:
            literal = record_response(literal, correct, cfg)
            built = record_response(built, correct, cfg)
        assert built == literal
        assert [r.new_direction for r in built.reversals] == reversals

    def test_terminated_raises(self, cfg):
        rng = np.random.default_rng(0)
        state = new_staircase(cfg)
        while not state.terminated:
            state = record_response(state, bool(rng.random() < 0.8), cfg)
        assert len(state.reversals) == cfg.reversal_limit
        with pytest.raises(ValueError, match="staircase already terminated"):
            record_response(state, True, cfg)

    def test_termination_exactly_at_reversal_limit(self, cfg):
        rng = np.random.default_rng(1)
        state = new_staircase(cfg)
        while not state.terminated:
            assert len(state.reversals) < cfg.reversal_limit
            state = record_response(state, bool(rng.random() < 0.8), cfg)
        assert len(state.reversals) == cfg.reversal_limit


class TestBounds:
    def test_always_correct_descends_then_bounces_at_floor(self, cfg):
        state = new_staircase(cfg)
        levels = [state.level]
        while not state.terminated:
            state = record_response(state, True, cfg)
            levels.append(state.level)
        # non-increasing all the way down
        assert all(b <= a for a, b in zip(levels, levels[1:]))
        assert state.level >= cfg.level_floor
        # floor bouncing still produced a full set of reversals
        assert len(state.reversals) == cfg.reversal_limit
        est = threshold_estimate(state, cfg)
        assert est.absolute == pytest.approx(cfg.level_floor)

    def test_descent_step_size_until_floor(self, cfg):
        state = new_staircase(cfg)
        prev = state.level
        while not state.terminated:
            for _ in range(3):
                state = record_response(state, True, cfg)
                if state.terminated:
                    break
            if not state.terminated and prev - cfg.down_step >= cfg.level_floor:
                assert state.level == pytest.approx(prev - cfg.down_step, abs=1e-12)
            prev = state.level

    def test_always_incorrect_climbs_to_cap(self, cfg):
        state = new_staircase(cfg)
        prev = state.level
        while not state.terminated:
            state = record_response(state, False, cfg)
            assert state.level <= cfg.level_cap
            if prev + cfg.up_step <= cfg.level_cap:
                assert state.level == pytest.approx(prev + cfg.up_step, abs=1e-12)
            prev = state.level
        assert len(state.reversals) == cfg.reversal_limit
        est = threshold_estimate(state, cfg)
        assert est.absolute == pytest.approx(cfg.level_cap)


class TestThreshold:
    def _terminated_state(self, levels):
        directions = ["up" if i % 2 == 0 else "down"
                      for i in range(len(levels))]
        reversals = tuple(
            ReversalRecord(trial_index=i, level_at_reversal=lv, new_direction=d)
            for i, (lv, d) in enumerate(zip(levels, directions))
        )
        return StaircaseState(
            level=levels[-1], consecutive_correct=0,
            last_move_direction=directions[-1], reversals=reversals,
            trial_index=len(levels), terminated=True,
        )

    def test_equal_reversals(self, cfg):
        state = self._terminated_state([1.0] * 10)
        est = threshold_estimate(state, cfg)
        assert est.absolute == pytest.approx(1.0)
        assert est.percent_of_reference == pytest.approx(100.0 / 1.11, abs=1e-9)

    def test_alternating_reversals(self, cfg):
        levels = [9.9, 9.9] + [1.0, 1.1] * 4
        state = self._terminated_state(levels)
        est = threshold_estimate(state, cfg)
        assert est.absolute == pytest.approx(1.05)

    def test_not_terminated_raises(self, cfg):
        state = new_staircase(cfg)
        with pytest.raises(ValueError, match="staircase has 0 of 10 reversals"):
            threshold_estimate(state, cfg)

    def test_replayed_run_hits_table_value(self, cfg):
        # frozen response sequence whose last-8-reversal mean lands on the
        # 83.8% column (found by seeded search, then verified by replay)
        responses = "111110111111011111101111111111111101101110111"
        state = run_responses(cfg, [c == "1" for c in responses])
        assert state.terminated
        est = threshold_estimate(state, cfg)
        assert round(est.percent_of_reference, 1) == 83.8
        assert est.percent_of_reference == pytest.approx(83.84725, abs=1e-5)


class TestConvergenceTarget:
    def test_symmetric_one_down(self):
        assert convergence_target(1, 1.0) == pytest.approx(0.5)

    def test_two_down(self):
        assert convergence_target(2, 1.0) == pytest.approx(0.5 ** 0.5, abs=1e-9)

    def test_protocol_target(self):
        value = convergence_target(3, 0.7393)
        assert value == pytest.approx(TARGET_3_07393, abs=1e-12)
        assert value == pytest.approx(0.8315, abs=5e-5)

    @pytest.mark.parametrize("rule,ratio", [(0, 0.7), (3, 0.0), (3, -1.0)])
    def test_invalid_inputs(self, rule, ratio):
        with pytest.raises(ConfigError):
            convergence_target(rule, ratio)


class TestProperties:
    @given(up_step=st.floats(0.01, 10.0), ratio=st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_step_ratio_exact(self, up_step, ratio):
        cfg = StaircaseConfig(
            reference_stiffness=1.0, initial_level=100.0, up_step=up_step,
            down_up_ratio=ratio, down_rule=3, reversal_limit=100,
            reversals_averaged=8, level_floor=1e-6, level_cap=1e6,
        )
        state = new_staircase(cfg)
        down = record_response(
            record_response(record_response(state, True, cfg), True, cfg),
            True, cfg)
        up = record_response(state, False, cfg)
        # the exact levels: a ratio of the two differences would lose digits
        # to cancellation against the level of 100
        assert down.level == 100.0 - ratio * up_step
        assert up.level == 100.0 + up_step

    @given(responses=st.lists(st.booleans(), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tail_counts_match_a_recount(self, responses):
        """The state counts the responses given after its second reversal,
        as a driver that counts them itself does (``_run_staircase`` in
        test_acceptance.py)."""
        cfg = replace(default_config(REF), reversal_limit=20, reversals_averaged=8)
        state = new_staircase(cfg)
        tail_correct = tail_total = given_responses = 0
        for correct in responses:
            if state.terminated:
                break
            if len(state.reversals) >= 2:
                tail_total += 1
                tail_correct += int(correct)
            state = record_response(state, correct, cfg)
            given_responses += 1
            assert (state.tail_correct, state.tail_total) == (tail_correct, tail_total)
        assert state.trial_index == given_responses

    @given(seed=st.integers(0, 10_000), p=st.floats(0.2, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_reversal_directions_alternate(self, seed, p):
        cfg = default_config(REF)
        rng = np.random.default_rng(seed)
        state = new_staircase(cfg)
        while not state.terminated:
            state = record_response(state, bool(rng.random() < p), cfg)
        directions = [r.new_direction for r in state.reversals]
        assert all(a is not b for a, b in zip(directions, directions[1:]))
        assert len(state.reversals) == cfg.reversal_limit

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_level_stays_in_bounds(self, seed):
        cfg = default_config(REF)
        rng = np.random.default_rng(seed)
        state = new_staircase(cfg)
        while not state.terminated:
            state = record_response(state, bool(rng.random() < 0.5), cfg)
            assert cfg.level_floor <= state.level <= cfg.level_cap
