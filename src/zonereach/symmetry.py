"""Process symmetry (Ip & Dill, FMSD 1996; Hendriks et al., FORMATS 2003).

``twin_classes`` finds the classes of interchangeable automata (twins)
and their swaps of neighbours, which generate every permutation of a
class; ``_relabelled`` searches each generator's bijection of the
locations of the automata reading the twins' labels (Fischer's lock:
``id_i -> id_j``), and ``permutation`` composes the rest from them.  A
search stores states with the twins its source treats alike
(``_stabilizer``) in a canonical order (``_Orbit``), or those the target
treats alike when that group is larger (``_group``).  A pruned state
stands for every permutation of itself, so a state is a goal when it
meets some image σ(target) of the target under the group (``_goals``);
σ fixes the source, so σ⁻¹ of the witness is a run to the target itself
(``_unpermuted``).  The network keeps all of it (``Network._symmetry``)
for every later search; one without twins builds none of it.  Zones are
read only through their ``cells`` and ``permute``: no zone module is
imported."""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from .model import (Automaton, ClockConstraint, ClockId, LabelId, LocationId, LocationVector, Network, Query,
                    StatePattern)


class Tables:
    """A network's symmetry tables: the ``_Orbit`` of each class and run by
    its members, each pattern's stabilizer, and the target's orbit per
    group and target."""

    def __init__(self) -> None:
        self.orbits: dict[tuple[int, ...], _Orbit] = {}
        self.stabilizers: dict[StatePattern, tuple[_Orbit, ...]] = {}
        self.goals: dict[tuple, tuple[dict, ClockConstraint]] = {}


def twin_classes(net: Network) -> tuple[dict[int, tuple[ClockId, ...]], ...]:
    """The classes of twins, each mapping its twins to their clocks in
    ``_signature`` order: equal ``_signature``s, no shared label, no clock
    another automaton reads, and a ``_swap`` for each pair of neighbours.
    Leaving twins apart is always sound."""
    signatures = [_signature(aut) for aut in net.automata]
    readers = Counter(clock for _, clocks in signatures for clock in clocks)
    candidates: dict[tuple, list[int]] = {}
    for i, (signature, clocks) in enumerate(signatures):
        if all(readers[clock] == 1 for clock in clocks):
            candidates.setdefault(signature, []).append(i)
    found = []
    for members in candidates.values():
        labels = [label for i in members for label in net.automata[i].alphabet]
        if len(members) < 2 or len(set(labels)) != len(labels):
            continue
        swaps = [_swap(net, a, b) for a, b in zip(members, members[1:])]
        if None not in swaps:
            twins = {i: signatures[i][1] for i in members}
            net._symmetry.orbits[tuple(members)] = _Orbit(net, twins, members, swaps)
            found.append(twins)
    return tuple(found)


def permutation(net: Network, twins: dict[int, int]) -> dict[LocationId, LocationId]:
    """The locations moved by permuting twins of one class (automaton ->
    automaton), composed from the class's swaps of neighbours."""
    for members in net.symmetry:
        if twins.keys() <= members.keys():
            return net._symmetry.orbits[tuple(members)].product(twins)
    raise ValueError(f"{twins} permutes no class of twins")


def _swap(net: Network, a: int, b: int) -> Optional[dict[LocationId, LocationId]]:
    """The locations moved by swapping automata ``a`` and ``b``: theirs by
    position, those of each automaton reading their labels by
    ``_relabelled``; None when some reader has no such bijection."""
    first, second = net.automata[a], net.automata[b]
    moved = dict(zip(first.locations, second.locations)) | dict(zip(second.locations, first.locations))
    rename = dict(zip(first.alphabet, second.alphabet)) | dict(zip(second.alphabet, first.alphabet))
    for i, aut in enumerate(net.automata):
        if i not in (a, b) and not rename.keys().isdisjoint(aut.alphabet):
            sigma = _relabelled(aut, rename)
            if sigma is None:
                return None
            moved |= sigma
    return moved


def _signature(aut: Automaton) -> tuple[tuple, tuple[ClockId, ...]]:
    """The automaton with its locations, labels and clocks replaced by their
    positions (clocks in first-use order), and those clocks."""
    location = {loc: i for i, loc in enumerate(aut.locations)}
    label = {lab: i for i, lab in enumerate(aut.alphabet)}
    clock: dict[ClockId, int] = {}

    def at(c: Optional[ClockId]) -> Optional[int]:
        return None if c is None else clock.setdefault(c, len(clock))

    def atoms(c: ClockConstraint) -> tuple:
        return tuple((at(a.lhs), at(a.rhs), a.op, a.const) for a in c.atoms)

    invariants = tuple(atoms(aut.invariants[loc]) for loc in aut.locations)
    moves = tuple((location[t.source], label.get(t.label), atoms(t.guard), tuple(map(at, t.resets)),
                   location[t.target]) for t in aut.transitions)
    return (len(aut.alphabet), invariants, moves), tuple(clock)


def _relabelled(aut: Automaton, rename: dict[LabelId, LabelId]) -> Optional[dict[LocationId, LocationId]]:
    """A bijection of the locations that, with the labels renamed, gives back
    the automaton, or None: each location goes to itself, else to the first
    free one with its invariant and its moves in and out once renamed; the
    transitions are then compared as sets."""
    if {rename.get(lab, lab) for lab in aut.alphabet} != set(aut.alphabet):
        return None
    given = [(t.source, t.label, t.guard, t.resets, t.target) for t in aut.transitions]
    moves = [(source, rename.get(lab, lab), *rest) for source, lab, *rest in given]
    plain, renamed = ({loc: Counter((m[0] == loc, *m[1:4]) for m in ms if loc in (m[0], m[4]))
                       for loc in aut.locations} for ms in (given, moves))
    sigma: dict[LocationId, LocationId] = {}
    for loc in aut.locations:
        fits = [m for m in aut.locations if m not in sigma.values()
                and renamed[loc] == plain[m] and aut.invariants[loc] == aut.invariants[m]]
        if not fits:
            return None
        sigma[loc] = loc if loc in fits else fits[0]
    image = {(sigma[source], *rest, sigma[target]) for source, *rest, target in moves}
    return sigma if image == set(given) else None


def _image(net: Network, twins: dict, perm: dict[int, int], pattern: StatePattern) -> StatePattern:
    """The pattern with twins permuted (automaton -> automaton): each twin's
    location and clocks go to its image, and the locations of the automata
    reading their labels move by ``permutation``."""
    moved = permutation(net, perm)
    vector = list(pattern.locations)
    for a, b in perm.items():
        vector[b] = pattern.locations[a]
    rename = {c: d for a, b in perm.items() for c, d in zip(twins[a], twins[b])}
    atoms = tuple(atom._replace(lhs=rename.get(atom.lhs, atom.lhs), rhs=rename.get(atom.rhs, atom.rhs))
                  for atom in pattern.constraint.atoms)
    return StatePattern(tuple(moved.get(loc, loc) for loc in vector), ClockConstraint(atoms))


def _fixes(net: Network, twins: dict, perm: dict[int, int], pattern: StatePattern) -> bool:
    """Does permuting twins map the pattern onto itself?"""
    image = _image(net, twins, perm, pattern)
    same = set(image.constraint.atoms) == set(pattern.constraint.atoms)
    return same and image.locations == pattern.locations


def _stabilizer(net: Network, pattern: StatePattern) -> tuple[_Orbit, ...]:
    """Per class of ``Network.symmetry``, the runs of twins that the pattern
    treats alike: a twin joins the first run whose last twin it swaps
    with (``_fixes``).  Every permutation of a run fixes the pattern, so a
    run's ``_Orbit`` serves every pattern that has the run."""
    if not net.symmetry:
        return ()
    tables = net._symmetry
    if pattern not in tables.stabilizers:
        orbits = []
        for twins in net.symmetry:
            runs: list[list[int]] = []
            for b in twins:
                fixed = (run for run in runs if _fixes(net, twins, {run[-1]: b, b: run[-1]}, pattern))
                run = next(fixed, None)
                runs.append([b]) if run is None else run.append(b)
            for run in (tuple(run) for run in runs if len(run) > 1):
                if run not in tables.orbits:
                    swaps = [permutation(net, {a: b, b: a}) for a, b in zip(run, run[1:])]
                    tables.orbits[run] = _Orbit(net, twins, list(run), swaps)
                orbits.append(tables.orbits[run])
        tables.stabilizers[pattern] = tuple(orbits)
    return tables.stabilizers[pattern]


def _group(net: Network, query: Query) -> tuple[_Orbit, ...]:
    """The twins a search canonicalises under: the source's stabilizer,
    or the target's when that has more permutations (the target's orbit
    is then the target alone)."""
    source, target = _stabilizer(net, query.source), _stabilizer(net, query.target)
    return target if target and _order(source) < _order(target) else source


def _order(orbits: tuple[_Orbit, ...]) -> int:
    return math.prod(math.factorial(len(orbit.members)) for orbit in orbits)


def _goals(net: Network, orbits: tuple[_Orbit, ...], target: StatePattern) -> tuple[dict, ClockConstraint]:
    """The target's orbit under the group the orbits generate, found by
    closing it under their swaps of neighbours: per location vector, each
    image σ(target) paired with σ, the tuple of each automaton's image;
    and the conjunction of the images' constraints, which is the target's
    own constraint when no image adds an atom."""
    identity = tuple(range(len(net.automata)))
    table = {target.locations: [(target, identity)]}
    if not orbits:
        return table, target.constraint
    if (orbits, target) in net._symmetry.goals:
        return net._symmetry.goals[orbits, target]
    images = [(target, identity)]
    reads = target.constraint
    for pattern, sigma in images:  # grows while it is walked
        for orbit in orbits:
            for a, b in zip(orbit.members, orbit.members[1:]):
                swap = {a: b, b: a}
                image = _image(net, orbit.twins, swap, pattern)
                found = table.setdefault(image.locations, [])
                atoms = set(image.constraint.atoms)
                if all(atoms != set(other.constraint.atoms) for other, _ in found):
                    found.append((image, tuple(swap.get(i, i) for i in sigma)))
                    images.append(found[-1])
                    if not atoms <= set(reads.atoms):
                        reads = ClockConstraint(tuple(dict.fromkeys(reads.atoms + image.constraint.atoms)))
    net._symmetry.goals[orbits, target] = table, reads
    return table, reads


def _unpermuted(net: Network, sigma: tuple[int, ...], witness: tuple[LabelId, ...]) -> tuple[LabelId, ...]:
    """A witness of σ(target) mapped back to the target: each label of
    twin σ(a) becomes twin a's label at the same position."""
    back: dict[LabelId, LabelId] = {}
    for a, b in enumerate(sigma):
        if a != b:
            back |= zip(net.automata[b].alphabet, net.automata[a].alphabet)
    return tuple(back.get(label, label) for label in witness)


class _Orbit:
    """A class of twins, or a run of them that a pattern treats alike,
    with the location maps of its swaps of neighbours.  The twins' own
    locations move by position; the others (those of the automata reading
    the twins' labels) are kept as index arrays over the locations some
    swap moves, and ``product`` composes them.

    The canonical form of a state sorts a run's twins by a key that
    permuting them carries along: the position of the twin's location in
    its automaton, and per clock its bounds against 0 and its sorted row
    and column.  Ties only leave states apart.  Each sort order's table
    is built the first time a state needs it."""

    def __init__(self, net: Network, twins: dict, members: list[int], swaps: list[dict]):
        self.twins, self.members, self.identity = twins, members, tuple(range(len(members)))
        self.automata, self.size = len(net.automata), len(net.clocks) + 1
        self.locations = {a: net.automata[a].locations for a in members}
        self.position = {loc: r for a in members for r, loc in enumerate(self.locations[a])}
        self.cells = [[net.clocks.index(c) + 1 for c in twins[a]] for a in members]
        self.support = tuple(dict.fromkeys(loc for m in swaps for loc in m if loc not in self.position))
        at = {loc: i for i, loc in enumerate(self.support)}
        self.swaps = [[at[moved.get(loc, loc)] for loc in self.support] for moved in swaps]
        self.orders: dict[tuple[int, ...], tuple] = {}

    def product(self, perm: dict[int, int]) -> dict[LocationId, LocationId]:
        """The location map of a permutation of the members: τ_m ∘ … ∘ τ_1
        for the swaps of neighbours τ that bubble-sort it."""
        line = [self.members.index(perm.get(a, a)) for a in self.members]  # position p goes to line[p]
        moved = list(range(len(self.support)))
        for end in range(len(line) - 1, 0, -1):
            for j in range(end):
                if line[j] > line[j + 1]:
                    line[j], line[j + 1] = line[j + 1], line[j]
                    swap = self.swaps[j]
                    moved = [swap[i] for i in moved]
        found = {loc: self.support[i] for loc, i in zip(self.support, moved) if loc != self.support[i]}
        for a, b in perm.items():
            found |= zip(self.locations[a], self.locations[b])
        return found

    def _key(self, k: int, vector: LocationVector, cells: tuple[int, ...], size: int) -> list:
        key = [self.position[vector[self.members[k]]]]
        for x in self.cells[k]:
            row = cells[x * size:(x + 1) * size]
            key += [cells[x], row[0], sorted(row), sorted(cells[x::size])]
        return key

    def canonical(self, vector: LocationVector, zone):
        """The state, a vector and a ``Dbm``, with the twins in sort order."""
        keys = [self._key(k, vector, zone.cells, self.size) for k in self.identity]
        order = tuple(sorted(self.identity, key=keys.__getitem__))
        if order == self.identity:
            return vector, zone
        table = self.orders.get(order)
        if table is None:
            table = self.orders[order] = self._permutation(order)
        moved, slots, index = table
        return tuple([moved.get(vector[i], vector[i]) for i in slots]), zone.permute(index)

    def _permutation(self, order: tuple[int, ...]) -> tuple:
        """Twin q taking twin ``order[q]``'s state: the locations moved, the
        slot each vector slot reads, and ``Dbm.permute``'s index list."""
        size = self.size
        slots, source = list(range(self.automata)), list(range(size))
        for q, p in enumerate(order):
            slots[self.members[q]] = self.members[p]
            for new, old in zip(self.cells[q], self.cells[p]):
                source[new] = old
        index = [source[i] * size + source[j] for i in range(size) for j in range(size)]
        return self.product({self.members[p]: self.members[q] for q, p in enumerate(order)}), slots, index
