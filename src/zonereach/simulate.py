"""Concrete semantics: single steps and one grid search.

These functions run the network on explicit rational clock valuations.
They are deliberately naive: a second, independent account of the
semantics against which the symbolic engine is checked.  One
breadth-first search walks grid states, delaying one granularity step
at a time within a time horizon, in two modes: ``sim_reach_oracle``
fires every label and reports the location vectors reached, and
``find_concrete_run`` fires a given label sequence and returns a timed
run along it.  Both are one-sided: what they find is genuinely
reachable, and what they miss proves nothing.
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
    LocationVector,
    Network,
    Query,
    Transition,
    joint_moves,
)

Valuation = dict[ClockId, Fraction]


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
    return _delayed_within(net, locations, v, d)


def _delayed_within(
    net: Network, locations: LocationVector, v: Valuation, d: Fraction
) -> Optional[Valuation]:
    """``sim_delay`` for a valuation already known to satisfy the
    invariants: only the delayed end is checked."""
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


def _grid_search(
    net: Network,
    query: Query,
    labels: Optional[Sequence[LabelId]],
    horizon: Fraction,
    granularity: Fraction,
    max_states: int,
):
    """Breadth-first over grid states (locations, valuation, position).

    With ``labels`` None every label fires and the position stays 0;
    otherwise only ``labels[position]`` fires and advances it.  Returns
    ``(found, goal, capped)``: ``found`` maps each key ``((locations,
    values), position)`` to ``(least elapsed, (parent key, label or None
    for a delay))``, or ``(0, None)`` for a source; ``goal`` is the first
    expanded state past the last label that meets the target, or None;
    ``capped`` says more than ``max_states`` states were found.
    """
    horizon = Fraction(horizon)
    granularity = Fraction(granularity)
    clocks, source, target = net.clocks, query.source, query.target
    advance = 0 if labels is None else 1
    found: dict = {}
    queue: deque = deque()
    for v in _seed_valuations(net, source.constraint, granularity):
        if invariants_hold(net, source.locations, v):
            key = ((source.locations, tuple(v[c] for c in clocks)), 0)
            found[key] = (Fraction(0), None)
            queue.append((source.locations, v, Fraction(0), key))
    while queue:
        if len(found) > max_states:
            return found, None, True
        locations, v, elapsed, key = queue.popleft()
        if elapsed > found[key][0]:  # stale: found again with less elapsed time
            continue
        pos = key[1]
        if labels is not None and pos == len(labels):
            if locations == target.locations and target.constraint.holds(v):
                return found, key, False
        moves = []
        if elapsed + granularity <= horizon:
            # every queued valuation satisfies its invariants: the seeds
            # are filtered and each move is checked where it lands
            shifted = _delayed_within(net, locations, v, granularity)
            if shifted is not None:
                moves.append((None, locations, shifted, elapsed + granularity, pos))
        if labels is None or pos < len(labels):
            for label, vector, new_v in enabled_actions(net, locations, v):
                if labels is None or label == labels[pos]:
                    moves.append((label, vector, new_v, elapsed, pos + advance))
        for label, vector, new_v, t, npos in moves:
            nkey = ((vector, tuple(new_v[c] for c in clocks)), npos)
            known = found.get(nkey)
            if known is None or known[0] > t:
                found[nkey] = (t, (key, label))
                queue.append((vector, new_v, t, nkey))
    return found, None, False


def sim_reach_oracle(
    net: Network,
    query: Query,
    horizon: Fraction,
    granularity: Fraction,
    max_states: int = 200_000,
) -> OracleResult:
    """Location vectors reachable with grid delays within the horizon
    (missing ones prove nothing); ``inconclusive`` when more than
    ``max_states`` states were found.
    """
    found, _, capped = _grid_search(net, query, None, horizon, granularity, max_states)
    return OracleResult(frozenset(frozen[0] for frozen, _ in found), capped)


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
    found, key, _ = _grid_search(net, query, labels, horizon, granularity, max_states)
    if key is None:
        return None
    # Parent pointers may have been rerouted by cheaper arrivals, so
    # firing times are recounted from the delay steps on the chain.
    chain = []
    while found[key][1] is not None:
        parent, label = found[key][1]
        chain.append((label, key))
        key = parent
    steps = []
    t = Fraction(0)
    for label, ((locations, valuation), _) in reversed(chain):
        if label is None:
            t += Fraction(granularity)
        else:
            steps.append(ConcreteStep(t, label, locations, valuation))
    return steps
