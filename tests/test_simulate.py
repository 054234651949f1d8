"""Concrete runs on explicit rational valuations."""

from fractions import Fraction

import pytest

from zonereach import parse_query, parse_spec
from zonereach.simulate import (
    enabled_actions,
    find_concrete_run,
    invariants_hold,
    sim_action,
    sim_delay,
    sim_reach_oracle,
)

GATED = """specification gated
Clocks x y nil
States s0 s1 nil
Labels a nil
Automata
  ( Locations s0 s1 nil
    Labels a nil
    Invariants
      s0 : x<=4 ^ true
      s1 : true
      nil
    Transitions
      s0 , a : x>2 ^ x<3 ^ true, y nil, s1 .
      nil
  ) .
  nil
end
"""


@pytest.fixture(scope="module")
def gated():
    return parse_spec(GATED)


def v(net, *values):
    return {c: Fraction(x) for c, x in zip(net.clocks, values)}


def test_delay_respects_invariants(gated):
    locs = (gated.locations[0],)
    assert sim_delay(gated, locs, v(gated, 0, 0), Fraction(3)) == v(gated, 3, 3)
    assert sim_delay(gated, locs, v(gated, 0, 0), Fraction(5)) is None  # x<=4 bars it
    assert sim_delay(gated, locs, v(gated, 5, 0), Fraction(0)) is None  # already outside
    with pytest.raises(ValueError):
        sim_delay(gated, locs, v(gated, 0, 0), Fraction(-1))


def test_action_guard_reset_and_choices(gated):
    s0, s1 = gated.locations
    t = gated.automata[0].transitions[0]
    blocked = sim_action(gated, (s0,), v(gated, 2, 7), t.label, {0: t})
    assert blocked is None  # guard x>2 fails at x=2
    fired = sim_action(gated, (s0,), v(gated, Fraction(5, 2), 7), t.label, {0: t})
    assert fired == ((s1,), v(gated, Fraction(5, 2), 0))  # y reset, x kept
    with pytest.raises(ValueError):
        sim_action(gated, (s0,), v(gated, 0, 0), t.label, {})  # participant missing


def test_action_rejects_target_invariant_violations():
    net = parse_spec(
        """specification inv
Clocks x nil
States p q nil
Labels a nil
Automata
  ( Locations p q nil
    Labels a nil
    Invariants
      p : true
      q : x<=1 ^ true
      nil
    Transitions
      p , a : true, nil, q .
      nil
  ) .
  nil
end
"""
    )
    p, q = net.locations
    t = net.automata[0].transitions[0]
    assert sim_action(net, (p,), {net.clocks[0]: Fraction(2)}, t.label, {0: t}) is None


def test_enabled_actions_on_the_initial_train_state(train_net):
    initial = tuple(aut.locations[0] for aut in train_net.automata)
    zero = train_net.initial_like()
    assert invariants_hold(train_net, initial, zero)
    moves = list(enabled_actions(train_net, initial, zero))
    assert [label.name for label, _, _ in moves] == ["app"]
    label, vector, after = moves[0]
    assert [l.name for l in vector] == ["Near", "Up", "u1"]
    assert all(x == 0 for x in after.values())  # X and Z reset, Y was 0


def test_oracle_needs_a_fine_enough_grid(gated):
    q = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s1.nil/true)", gated)
    coarse = sim_reach_oracle(gated, q, horizon=Fraction(6), granularity=Fraction(1))
    assert (gated.locations[1],) not in coarse.vectors  # x>2 ^ x<3 holds at no integer
    fine = sim_reach_oracle(gated, q, horizon=Fraction(6), granularity=Fraction(1, 2))
    assert (gated.locations[1],) in fine.vectors
    assert not fine.inconclusive


def test_oracle_flags_state_explosions(train_net):
    q = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", train_net)
    res = sim_reach_oracle(train_net, q, horizon=Fraction(12), granularity=Fraction(1, 2), max_states=50)
    assert res.inconclusive


@pytest.mark.parametrize("granularity, reachable", [(Fraction(1), False), (Fraction(1, 2), True)])
def test_oracle_and_concrete_run_agree_on_the_grid(gated, granularity, reachable):
    q = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s1.nil/true)", gated)
    oracle = sim_reach_oracle(gated, q, horizon=Fraction(6), granularity=granularity)
    run = find_concrete_run(gated, q, list(gated.labels), horizon=Fraction(6), granularity=granularity)
    assert ((gated.locations[1],) in oracle.vectors) is reachable
    assert (run is not None) is reachable


def test_find_concrete_run_checks_out_step_by_step(train_net):
    q = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", train_net)
    by_name = {l.name: l for l in train_net.labels}
    labels = [by_name[n] for n in ("app", "lower", "down", "enter")]
    run = find_concrete_run(train_net, q, labels, horizon=Fraction(12), granularity=Fraction(1, 2))
    assert run is not None
    assert [s.label for s in run] == labels
    # replay the run through the single-step semantics
    state = tuple(aut.locations[0] for aut in train_net.automata)
    valuation = train_net.initial_like()
    now = Fraction(0)
    for step in run:
        assert step.time >= now
        valuation = sim_delay(train_net, state, valuation, step.time - now)
        assert valuation is not None
        now = step.time
        moves = [
            (vec, after)
            for label, vec, after in enabled_actions(train_net, state, valuation)
            if label == step.label and vec == step.locations
        ]
        assert moves, f"{step.label.name} not enabled at t={now}"
        state, valuation = moves[0]
        assert tuple(valuation[c] for c in train_net.clocks) == step.valuation
    assert state == q.target.locations
    assert q.target.constraint.holds(valuation)


def test_find_concrete_run_rejects_impossible_sequences(train_net):
    q = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", train_net)
    by_name = {l.name: l for l in train_net.labels}
    bad = [by_name[n] for n in ("enter",)]  # enter needs Near first
    assert find_concrete_run(train_net, q, bad, horizon=Fraction(12), granularity=Fraction(1, 2)) is None
    # right labels, but a horizon too short to satisfy X>2 before enter
    good = [by_name[n] for n in ("app", "lower", "down", "enter")]
    assert find_concrete_run(train_net, q, good, horizon=Fraction(2), granularity=Fraction(1, 2)) is None


def test_find_concrete_run_gives_up_past_max_states(train_net):
    q = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", train_net)
    by_name = {l.name: l for l in train_net.labels}
    labels = [by_name[n] for n in ("app", "lower", "down", "enter")]
    grid = dict(horizon=Fraction(12), granularity=Fraction(1, 2))
    assert find_concrete_run(train_net, q, labels, **grid) is not None
    assert find_concrete_run(train_net, q, labels, **grid, max_states=10) is None
