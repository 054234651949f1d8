"""Concrete semantics: single steps and brute-force reachability.

These functions run the network on explicit rational clock valuations.
They are deliberately naive; the point is to have a second, independent
account of the semantics against which the symbolic engine can be
checked.  ``sim_reach_oracle`` only ever claims reachability it has
witnessed (delays are restricted to multiples of a granularity within a
time horizon), so its answer is one-sided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from .model import (
    ClockConstraint,
    ClockId,
    LabelId,
    LocationId,
    Network,
    Query,
    Transition,
    joint_moves,
)

Valuation = dict[ClockId, Fraction]
LocationVector = tuple[LocationId, ...]


def invariants_hold(net: Network, locations: LocationVector, v: Valuation) -> bool:
    return all(
        aut.invariants[loc].holds(v) for aut, loc in zip(net.automata, locations)
    )


def sim_delay(
    net: Network, locations: LocationVector, v: Valuation, d: Fraction
) -> Optional[Valuation]:
    """Let time pass, or None when an invariant forbids it.

    Invariants are convex, so holding at both endpoints of the delay
    means holding throughout.
    """
    if d < 0:
        raise ValueError("negative delay")
    if not invariants_hold(net, locations, v):
        return None
    shifted = {clock: value + d for clock, value in v.items()}
    if not invariants_hold(net, locations, shifted):
        return None
    return shifted


def sim_action(
    net: Network,
    locations: LocationVector,
    v: Valuation,
    label: LabelId,
    choices: Mapping[int, Transition],
) -> Optional[tuple[LocationVector, Valuation]]:
    """Fire one label jointly, or None when blocked.

    ``choices`` picks one transition per participating automaton; the
    participants are exactly the automata whose alphabet contains the
    label, and all of them must move for the label to fire.
    """
    participants = net.participants.get(label, ())
    if set(choices) != set(participants):
        raise ValueError("choices must cover exactly the participating automata")
    new_locations = list(locations)
    resets: set[ClockId] = set()
    for i in participants:
        t = choices[i]
        if t.label != label or t.source != locations[i]:
            return None
        if not t.guard.holds(v):
            return None
        new_locations[i] = t.target
        resets.update(t.resets)
    new_v = {clock: (Fraction(0) if clock in resets else value) for clock, value in v.items()}
    vector = tuple(new_locations)
    if not invariants_hold(net, vector, new_v):
        return None
    return vector, new_v


def enabled_actions(
    net: Network, locations: LocationVector, v: Valuation
) -> Iterator[tuple[LabelId, LocationVector, Valuation]]:
    """All joint moves available right now, in declaration order."""
    for label, moves in joint_moves(net, locations):
        step = sim_action(net, locations, v, label, dict(moves))
        if step is not None:
            yield label, step[0], step[1]


@dataclass(frozen=True)
class OracleResult:
    vectors: frozenset[LocationVector]
    inconclusive: bool


def _freeze(locations: LocationVector, v: Valuation, clocks: Sequence[ClockId]):
    return locations, tuple(v[c] for c in clocks)


def _seed_valuations(
    net: Network, constraint: ClockConstraint, granularity: Fraction, limit: int = 4096
) -> list[Valuation]:
    """Concrete valuations satisfying the source constraint.

    The all-zero valuation is the customary start and is used alone when
    it qualifies; otherwise grid points are scanned, which is only
    viable for small clock counts.
    """
    zero = net.initial_like()
    if constraint.holds(zero):
        return [zero]
    bound = max((abs(int(a.const)) for a in constraint.atoms), default=0) + 1
    steps = int(Fraction(bound) / granularity) + 1
    seeds = []
    values = [granularity * i for i in range(steps + 1)]
    for combo in product(values, repeat=len(net.clocks)):
        candidate = dict(zip(net.clocks, combo))
        if constraint.holds(candidate):
            seeds.append(candidate)
            if len(seeds) >= limit:
                break
    return seeds


def sim_reach_oracle(
    net: Network,
    query: Query,
    horizon: Fraction,
    granularity: Fraction,
    max_states: int = 200_000,
) -> OracleResult:
    """Location vectors reachable with grid delays within the horizon.

    Breadth-first over (locations, valuation) pairs, delaying one
    granularity step at a time.  Everything returned is genuinely
    reachable; missing vectors prove nothing.  Exceeding ``max_states``
    flags the result as inconclusive.
    """
    horizon = Fraction(horizon)
    granularity = Fraction(granularity)
    reached: set[LocationVector] = set()
    best: dict = {}
    queue: deque = deque()
    source = query.source
    for v in _seed_valuations(net, source.constraint, granularity):
        if invariants_hold(net, source.locations, v):
            key = _freeze(source.locations, v, net.clocks)
            best[key] = Fraction(0)
            queue.append((source.locations, v, Fraction(0)))
            reached.add(source.locations)
    inconclusive = False
    while queue:
        locations, v, elapsed = queue.popleft()
        if len(best) > max_states:
            inconclusive = True
            break
        if elapsed + granularity <= horizon:
            shifted = sim_delay(net, locations, v, granularity)
            if shifted is not None:
                key = _freeze(locations, shifted, net.clocks)
                t = elapsed + granularity
                if best.get(key, None) is None or best[key] > t:
                    best[key] = t
                    queue.append((locations, shifted, t))
        for _label, vector, new_v in enabled_actions(net, locations, v):
            key = _freeze(vector, new_v, net.clocks)
            if best.get(key, None) is None or best[key] > elapsed:
                best[key] = elapsed
                reached.add(vector)
                queue.append((vector, new_v, elapsed))
    return OracleResult(frozenset(reached), inconclusive)


@dataclass(frozen=True)
class ConcreteStep:
    time: Fraction  # absolute time at which the label fires
    label: LabelId
    locations: LocationVector
    valuation: tuple[Fraction, ...]


def find_concrete_run(
    net: Network,
    query: Query,
    labels: Sequence[LabelId],
    horizon: Fraction,
    granularity: Fraction,
    max_states: int = 500_000,
) -> Optional[list[ConcreteStep]]:
    """A timed run following exactly the given label sequence, if the
    grid search finds one: delays are multiples of the granularity and
    their total stays within the horizon.
    """
    horizon = Fraction(horizon)
    granularity = Fraction(granularity)
    target = query.target
    start_states = []
    for v in _seed_valuations(net, query.source.constraint, granularity):
        if invariants_hold(net, query.source.locations, v):
            start_states.append((query.source.locations, v))
    # state: (locations, valuation, position in the label sequence); a state
    # revisited with strictly less elapsed time is expanded again, since the
    # leftover delay budget is what decides feasibility downstream.
    best: dict = {}
    queue: deque = deque()
    parents: dict = {}
    for locations, v in start_states:
        key = (_freeze(locations, v, net.clocks), 0)
        if best.get(key) is None:
            best[key] = Fraction(0)
            queue.append((locations, v, 0, Fraction(0), key))
            parents[key] = None
    while queue:
        if len(best) > max_states:
            return None
        locations, v, pos, elapsed, key = queue.popleft()
        if elapsed > best[key]:
            continue
        if pos == len(labels) and locations == target.locations and target.constraint.holds(v):
            # Parent pointers may have been rerouted by cheaper arrivals,
            # so elapsed stamps are recomputed while walking the chain.
            edges = []
            cursor = key
            while parents[cursor] is not None:
                prev_key, step = parents[cursor]
                edges.append(step)
                cursor = prev_key
            edges.reverse()
            steps = []
            t = Fraction(0)
            for edge in edges:
                if edge is None:
                    t += granularity
                else:
                    steps.append(ConcreteStep(t, edge.label, edge.locations, edge.valuation))
            return steps
        if elapsed + granularity <= horizon:
            shifted = sim_delay(net, locations, v, granularity)
            if shifted is not None:
                t = elapsed + granularity
                nkey = (_freeze(locations, shifted, net.clocks), pos)
                if best.get(nkey) is None or best[nkey] > t:
                    best[nkey] = t
                    parents[nkey] = (key, None)
                    queue.append((locations, shifted, pos, t, nkey))
        if pos < len(labels):
            wanted = labels[pos]
            for label, vector, new_v in enabled_actions(net, locations, v):
                if label != wanted:
                    continue
                nkey = (_freeze(vector, new_v, net.clocks), pos + 1)
                if best.get(nkey) is None or best[nkey] > elapsed:
                    best[nkey] = elapsed
                    step = ConcreteStep(
                        elapsed, label, vector, tuple(new_v[c] for c in net.clocks)
                    )
                    parents[nkey] = (key, step)
                    queue.append((vector, new_v, pos + 1, elapsed, nkey))
    return None
