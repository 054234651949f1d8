"""On-the-fly reachability over the synchronized product.

A search state pairs a location vector with a zone.  Stored zones are
closed under delay, so they hold every valuation reachable by letting
time pass within the current invariants; the goal test on a stored
zone therefore already accounts for a trailing delay.  Successors are
computed per label: the automata listing the label in their alphabet
all move (every combination of their enabled transitions), the rest
stay.  Each combination is one move, compiled once into a program of
the zone type (``program``) and applied in one call (``step``):

    constrain by the guards -> empty? -> reset -> constrain by the
    target's invariants -> empty? -> elapse -> constrain by the
    invariants -> free the inactive clocks

where the double invariant constraint is exact because invariants
are convex.  The source zone enters its vector by the same step, with
no guard and no resets.  ``Dbm.step`` runs it in place on one grid,
and after the delay applies only the invariants' upper bounds again:
the delay changes column 0 alone, so every other edge is already met.
A clock is inactive at a vector when it has no L/U entry at any of
its locations (``Network.lu_bounds``: no automaton reads it before
resetting it) and the goal constraint does not read it either; its
value carries no information, so forgetting it is exact and merges
zones that differ only there (Daws & Yovine, RTSS 1996).  Guards,
invariants and goal constraints are applied to the zone directly; no
zone is built for them.

Stored zones are therefore exact, and the abstraction that makes the
search finite sits in the subsumption test only (Herbreteau,
Srivathsan & Walukiewicz, LICS 2012): a new zone Z is pruned when
Z ⊆ Extra⁺_LU(Z') for a zone Z' stored at the same vector, with that
vector's lower and upper bound constants L and U (Behrmann, Bouyer,
Larsen & Pelánek, 2006).  Extra⁺_LU(Z') is computed once per stored
zone, the first time a new zone is compared against it.  LU is
unsound with diagonal atoms (``x - y # c``); where a guard, an
invariant or the target has one, entering a vector ends with the
widening past the maximum constants ``k`` instead (Extra_M), and
stored zones are compared as they are.  Extra_M may reach a goal no
exact run reaches (Bouyer, FMSD 2004), so its True stands only once
``replay_witness`` has followed the witness without extrapolation;
otherwise the search answers Inconclusive.  ``SearchOptions(
extrapolate=False)`` uses neither abstraction.

What follows from the network lives on the ``Network``, built the
first time any search needs it: per location vector its merged moves
(``Network.moves``), and per goal constraint one ``Network.entry`` with
its invariant, the clocks freed on entering it and the L and U bounds,
read off ``Network.lu_bounds`` with the goal's atoms bounding L and U
like one more guard; per zone type and goal constraint the programs of
the moves (``Network._programs``); and the symmetry tables
(``symmetry``).  A ``Search`` holds what one query adds: the zone type,
the abstraction (``k`` or LU), the twins it canonicalises under and the
target's orbit, the visited set and the counters.  ``root_state`` and
``successors`` take it, and ``explore`` and ``replay_witness`` build it
alike, so they walk the same successor relation over the same tables.  The DBM
visited set stores states in a canonical order of their twins, and a
state is a goal when it meets one image σ(target) of the target
(``symmetry``); the formula backend, an independent oracle, is not
reduced.

The search is a plain worklist (LIFO or FIFO).  Every new state, the
source state included, is goal-tested before the visited check, so a
goal is reported even when the state would have been pruned; then it
is pruned or stored in one step (``Search.insert``), and a stored
state is checked against the zone limit.  Visited states are pruned
either by equality of the zones' abstractions or by inclusion in the
abstraction of an already-stored zone; with extrapolation switched on
the abstractions per location vector are finitely many and the search
terminates."""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from .dbm import Dbm
from .formula import Formula
from .model import (
    TRUE,
    ClockConstraint,
    ClockId,
    LabelId,
    LocationVector,
    Network,
    Query,
    StatePattern,
    max_constants,
)
from .symmetry import _goals, _group, _unpermuted

# Both zone types offer the same surface: ``from_constraint(c, clocks)``,
# ``constrain`` (intersection with a constraint), ``reset``, ``free``,
# ``elapse``, ``is_empty``, ``includes``, ``extrapolate`` (Extra_M),
# ``extrapolate_lu`` (Extra⁺_LU), a hashable canonical ``key``, and one
# move in one call: ``program(clocks, guard, resets, invariant, freed)``
# and ``step(program)``, None when the guard or the invariant empties.
Zone = Union[Dbm, Formula]
ZONE_TYPES: dict[str, type] = {"dbm": Dbm, "formula": Formula}


@dataclass(frozen=True)
class StateZone:
    locations: LocationVector
    zone: Zone


class Verdict(Enum):
    REACHABLE = "True"
    UNREACHABLE = "False"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass
class SearchOptions:
    backend: str = "dbm"  # a key of ZONE_TYPES
    order: str = "dfs"  # "dfs" | "bfs"
    subsumption: str = "include"  # "include" | "equal"
    extrapolate: bool = True
    max_zones: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.backend not in ZONE_TYPES:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.order not in ("dfs", "bfs"):
            raise ValueError(f"unknown order {self.order!r}")
        if self.subsumption not in ("include", "equal"):
            raise ValueError(f"unknown subsumption mode {self.subsumption!r}")
        if self.max_zones is not None and self.max_zones < 0:
            raise ValueError(f"negative zone limit {self.max_zones}")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError(f"negative time limit {self.max_seconds}")
        if self.max_seconds is not None and math.isnan(self.max_seconds):
            raise ValueError(f"time limit {self.max_seconds} is not a number")


@dataclass
class SearchStats:
    stored: int = 0
    popped: int = 0
    subsumed: int = 0  # successors the visited set pruned
    disabled: int = 0  # moves whose guard or invariant left nothing
    permuted: int = 0  # stored states whose canonical form differs from the state
    seconds: float = 0.0

    def __str__(self) -> str:
        return (
            f"stored={self.stored} popped={self.popped} subsumed={self.subsumed} "
            f"disabled={self.disabled} permuted={self.permuted} time={self.seconds:.2f}s"
        )


@dataclass
class ExploreResult:
    verdict: Verdict
    witness: Optional[tuple[LabelId, ...]]
    stats: SearchStats
    reason: Optional[str] = None


class Search:
    """One query's search: what it derives from ``(net, query, options)``,
    the states it stores and its counters.  On the DBM backend ``orbits``
    are the twins it canonicalises under (``symmetry._group``); the
    formula backend keeps none.  ``goals`` maps each location vector of
    the target's orbit to its images σ(target) with their σ
    (``symmetry._goals``); ``reads`` is the conjunction of their
    constraints, the target's own one when there are no twins.  Both are
    the network's tables, built by its first search and shared by every
    later one, as is the ``Network.entry`` of each vector and ``reads``:
    what a zone meets on entering the vector (invariant, freed clocks, L
    and U).  So are the programs of this zone type and ``reads``:
    ``programs`` maps a vector to its moves as ``(label, target,
    program)`` (``compile``), and ``entries`` a source vector to the
    program of entering it with no guard and no resets.

    Without diagonal atoms in the network's guards and invariants or in
    the target, stored zones stay exact and ``lu`` is set: the entry's
    ``lower`` and ``upper`` drive Extra⁺_LU in the visited set.  With
    them, LU is unsound and stored zones are widened past the maximum
    constants ``k`` on entry instead (Extra_M).  Under
    ``SearchOptions(extrapolate=False)`` there is neither: ``k`` is None
    and ``lu`` is False.

    ``buckets`` is the visited set, one bucket per location vector
    (``insert``), and ``stats`` counts the search.  A zone's abstraction
    is Extra⁺_LU with its entry's ``lower`` and ``upper`` when ``lu`` is
    set, else the zone itself.  Under ``equal`` a bucket is the set of
    its abstractions' keys; under ``include`` it holds ``[zone,
    abstraction-or-None]``: a stored zone's abstraction is computed the
    first time a new zone is compared against it, then kept."""

    def __init__(self, net: Network, query: Query, options: Optional[SearchOptions] = None):
        if options is None:
            options = SearchOptions()
        self.net = net
        self.query = query
        self.zone_type = ZONE_TYPES[options.backend]
        self.orbits = _group(net, query) if self.zone_type is Dbm else ()
        self.goals, self.reads = _goals(net, self.orbits, query.target)
        diagonal = net.has_diagonal or any(atom.rhs is not None for atom in self.reads.atoms)
        self.k = None
        if options.extrapolate and diagonal:  # the constants of every image of the target
            self.k = max_constants(net, replace(query, target=replace(query.target, constraint=self.reads)))
        self.lu = options.extrapolate and not diagonal
        self.equal = options.subsumption == "equal"
        self.programs, self.entries = net._programs.setdefault((self.zone_type, self.reads), ({}, {}))
        self.stats = SearchStats()
        self.buckets: dict[LocationVector, Union[set, list[list]]] = {}

    def program(self, guard: ClockConstraint, resets: Sequence[ClockId], vector: LocationVector):
        """A move into the vector compiled for this search's zone type."""
        entry = self.net.entry(vector, self.reads)
        return self.zone_type.program(self.net.clocks, guard, resets, entry.invariant, entry.freed)

    def compile(self, vector: LocationVector) -> list[tuple[LabelId, LocationVector, object]]:
        """The vector's moves (``Network.moves``) as ``(label, target,
        program)``, kept in ``programs``: a search of this zone type and
        ``reads`` leaving the vector after this one compiles nothing."""
        moves = self.programs[vector] = [
            (label, target, self.program(guard, resets, target))
            for label, guard, resets, target in self.net.moves(vector)
        ]
        return moves

    def _abstract(self, vector: LocationVector, zone: Zone) -> Zone:
        if not self.lu:
            return zone
        entry = self.net.entry(vector, self.reads)
        return zone.extrapolate_lu(entry.lower, entry.upper)

    def insert(self, state: StateZone) -> bool:
        """Store the state, in canonical form under the search's twins
        (``orbits``), unless it is pruned; False when it is pruned."""
        vector, zone = state.locations, state.zone
        for orbit in self.orbits:
            vector, zone = orbit.canonical(vector, zone)
        bucket = self.buckets.get(vector)
        if self.equal:
            key = self._abstract(vector, zone).key
            if bucket is None:
                bucket = self.buckets[vector] = set()
            if key in bucket:
                return False
            bucket.add(key)
        else:
            if bucket is None:
                bucket = self.buckets[vector] = []
            for stored in bucket:
                wide = stored[1]
                if wide is None:
                    wide = stored[1] = self._abstract(vector, stored[0])
                if wide.includes(zone):
                    return False
            bucket.append([zone, None])
        if zone is not state.zone:
            self.stats.permuted += 1
        return True


def root_state(search: Search) -> Optional[StateZone]:
    """The stored form of the source state, None when the source is empty:
    the source zone entering its vector by a move with no guard and no
    resets."""
    source = search.query.source
    vector = source.locations
    program = search.entries.get(vector)
    if program is None:
        program = search.entries[vector] = search.program(TRUE, (), vector)
    zone = search.zone_type.from_constraint(source.constraint, search.net.clocks).step(program)
    if zone is None:
        return None
    if search.k is not None:
        zone = zone.extrapolate(search.k)
    return StateZone(vector, zone)


def successors(search: Search, state: StateZone) -> Iterator[tuple[LabelId, StateZone]]:
    """All label moves from a state, in the declaration order of
    ``model.joint_moves`` (``Network.moves`` merges each one once)."""
    zone, k = state.zone, search.k
    moves = search.programs.get(state.locations)
    if moves is None:
        moves = search.compile(state.locations)
    for label, target, program in moves:
        succ = zone.step(program)
        if succ is None:
            search.stats.disabled += 1
            continue
        if k is not None:
            succ = succ.extrapolate(k)
        yield label, StateZone(target, succ)


def is_goal(state: StateZone, target: StatePattern) -> bool:
    """Exact location match plus non-empty overlap with the constraint."""
    if state.locations != target.locations:
        return False
    return not state.zone.constrain(target.constraint).is_empty()


@dataclass
class _Node:
    state: StateZone
    parent: Optional["_Node"]
    label: Optional[LabelId]


def _trace(node: _Node) -> tuple[LabelId, ...]:
    labels = []
    while node.parent is not None:
        labels.append(node.label)
        node = node.parent
    labels.reverse()
    return tuple(labels)


def explore(net: Network, query: Query, options: Optional[SearchOptions] = None) -> ExploreResult:
    """Decide whether the target of the query is reachable from its source.

    True and False verdicts are definitive for the abstraction in use;
    hitting a zone or time limit yields the inconclusive verdict
    instead, with the reason recorded, and so does an Extra_M True
    whose witness does not replay without extrapolation.
    """
    if options is None:
        options = SearchOptions()
    started = time.monotonic()
    deadline = None if options.max_seconds is None else started + options.max_seconds
    search = Search(net, query, options)
    stats, goals = search.stats, search.goals

    def result(verdict, witness=None, reason=None):
        stats.seconds = time.monotonic() - started
        return ExploreResult(verdict, witness, stats, reason)

    root = root_state(search)
    if root is None:
        return result(Verdict.UNREACHABLE)
    worklist: deque[_Node] = deque()
    node, batch = None, [(None, root)]  # the root is offered like any successor
    while True:
        for label, succ in batch:
            child = _Node(succ, node, label)
            for image, sigma in goals.get(succ.locations, ()):  # each σ(target) at this vector
                if is_goal(succ, image):
                    witness = _unpermuted(net, sigma, _trace(child))
                    if search.k is not None:  # Extra_M: certify by an exact replay
                        if not replay_witness(net, query, witness, replace(options, extrapolate=False)):
                            return result(Verdict.INCONCLUSIVE, reason="witness does not replay exactly")
                    return result(Verdict.REACHABLE, witness=witness)
            if not search.insert(succ):
                stats.subsumed += 1
                continue
            # A state stored past the limit goes with the visited set.
            if options.max_zones is not None and stats.stored >= options.max_zones:
                return result(Verdict.INCONCLUSIVE, reason="zone limit exceeded")
            stats.stored += 1
            worklist.append(child)
        if not worklist:
            return result(Verdict.UNREACHABLE)
        if deadline is not None and time.monotonic() > deadline:
            return result(Verdict.INCONCLUSIVE, reason="time limit exceeded")
        node = worklist.pop() if options.order == "dfs" else worklist.popleft()
        stats.popped += 1
        batch = list(successors(search, node.state))
        if options.order == "dfs":
            # Reversed so the first-generated successor is explored first.
            batch.reverse()


def replay_witness(
    net: Network, query: Query, labels: Sequence[LabelId], options: Optional[SearchOptions] = None
) -> bool:
    """Check a label sequence: following exactly these labels from the
    source must end in a state satisfying the target."""
    search = Search(net, query, options)
    root = root_state(search)
    if root is None:
        return False
    frontier = [root]
    for wanted in labels:
        frontier = [
            succ
            for state in frontier
            for label, succ in successors(search, state)
            if label == wanted
        ]
        if not frontier:
            return False
    return any(is_goal(state, query.target) for state in frontier)
