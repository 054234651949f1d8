"""Core types for networks of timed automata.

A network is a finite set of automata that move jointly: a label fires
only if every automaton whose alphabet contains it takes one of its
transitions with that label at the same instant, while the remaining
automata stay put.  Clocks are shared, advance at rate one, and are
compared against integer constants (rational inputs are scaled to
integers by ``normalize_constants``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Optional, Union

from .bounds import MAX_CONSTANT

if TYPE_CHECKING:
    from .symmetry import Tables


class ClockId(NamedTuple):
    name: str
    index: int


class LocationId(NamedTuple):
    name: str
    index: int


class LabelId(NamedTuple):
    name: str
    index: int


# One location per automaton, in the network's automaton order.
LocationVector = tuple[LocationId, ...]


COMPARISON_OPS = ("<", "<=", "=", ">=", ">")

Number = Union[int, Fraction]


class Atom(NamedTuple):
    """One comparison: ``lhs op const`` or ``lhs - rhs op const``."""

    lhs: ClockId
    rhs: Optional[ClockId]
    op: str
    const: Number

    def holds(self, valuation: Mapping[ClockId, Number]) -> bool:
        left = valuation[self.lhs]
        if self.rhs is not None:
            left = left - valuation[self.rhs]
        if self.op == "<":
            return left < self.const
        if self.op == "<=":
            return left <= self.const
        if self.op == "=":
            return left == self.const
        if self.op == ">=":
            return left >= self.const
        if self.op == ">":
            return left > self.const
        raise ValueError(f"unknown comparison {self.op!r}")


@dataclass(frozen=True)
class ClockConstraint:
    """Conjunction of atoms; the empty conjunction is ``true``."""

    atoms: tuple[Atom, ...] = ()

    @property
    def is_true(self) -> bool:
        return not self.atoms

    def holds(self, valuation: Mapping[ClockId, Number]) -> bool:
        return all(atom.holds(valuation) for atom in self.atoms)

    @cached_property
    def _dbm_edges(self) -> dict[tuple[ClockId, ...], tuple[tuple[int, int, int], ...]]:
        """Clock tuple -> this constraint's matrix edges, filled in by
        ``dbm`` on first use.  It lives on the instance and takes no part
        in ``==`` or ``hash``: equal constraints may differ in how their
        constants are typed, and each is checked on its own."""
        return {}

    @cached_property
    def _formulas(self) -> dict:
        """Clock tuple -> this constraint as a ``formula.Formula``, filled
        in by ``formula`` on first use and kept like ``_dbm_edges``."""
        return {}


TRUE = ClockConstraint()


@dataclass(frozen=True)
class Transition:
    source: LocationId
    label: LabelId
    guard: ClockConstraint
    resets: tuple[ClockId, ...]
    target: LocationId


@dataclass(frozen=True)
class Automaton:
    locations: tuple[LocationId, ...]
    alphabet: tuple[LabelId, ...]
    invariants: Mapping[LocationId, ClockConstraint]
    transitions: tuple[Transition, ...]


@dataclass(frozen=True)
class Network:
    name: str
    clocks: tuple[ClockId, ...]
    locations: tuple[LocationId, ...]
    labels: tuple[LabelId, ...]
    automata: tuple[Automaton, ...]
    scale: int = 1

    def initial_like(self) -> dict[ClockId, Fraction]:
        return {clock: Fraction(0) for clock in self.clocks}

    # The move index, built on first use.  ``Network`` is unhashable
    # (invariants are dicts), so it is cached on the instance.

    @cached_property
    def participants(self) -> dict[LabelId, tuple[int, ...]]:
        """Label -> indices of the automata whose alphabet holds it."""
        return {
            label: tuple(i for i, aut in enumerate(self.automata) if label in aut.alphabet)
            for label in self.labels
        }

    @cached_property
    def outgoing(self) -> dict[tuple[int, LocationId, LabelId], tuple[Transition, ...]]:
        """(automaton index, source, label) -> transitions, in declaration order."""
        table: dict = {}
        for i, aut in enumerate(self.automata):
            for t in aut.transitions:
                table.setdefault((i, t.source, t.label), []).append(t)
        return {key: tuple(ts) for key, ts in table.items()}

    @cached_property
    def lu_bounds(self) -> tuple[dict[LocationId, dict[ClockId, LUBound]], ...]:
        """Per automaton: location -> {clock: (L, U)}, the largest
        constants the automaton may compare the clock against from below
        (L) and from above (U) there or later, before it resets the clock
        (Behrmann, Bouyer, Larsen & Pelánek, 2006); None where it never
        does.  A clock without an entry is read nowhere ahead: it is
        inactive there (Daws & Yovine, RTSS 1996), and its value carries
        no information."""
        return tuple(_lu_bounds(aut) for aut in self.automata)

    # Process symmetry: ``symmetry`` builds on this module, and the network
    # keeps what it builds, like the tables below.

    @cached_property
    def symmetry(self) -> tuple[dict[int, tuple[ClockId, ...]], ...]:
        """The classes of twins, each mapping its twins to their clocks."""
        from .symmetry import twin_classes
        return twin_classes(self)

    def permutation(self, twins: dict[int, int]) -> dict[LocationId, LocationId]:
        """The locations moved by permuting twins of one class."""
        from .symmetry import permutation
        return permutation(self, twins)

    @cached_property
    def _symmetry(self) -> Tables:
        from .symmetry import Tables
        return Tables()

    @cached_property
    def has_diagonal(self) -> bool:
        """Does some invariant or guard compare two clocks (``x - y # c``)?"""
        constraints = [c for aut in self.automata for c in aut.invariants.values()]
        constraints += [t.guard for aut in self.automata for t in aut.transitions]
        return any(atom.rhs is not None for c in constraints for atom in c.atoms)

    # What a search needs of one location vector, built the first time
    # some search reaches it and shared by every later search on this
    # network; ``dataclasses.replace(net)`` gives a copy with none built.

    @cached_property
    def _moves(self) -> dict[LocationVector, tuple[Move, ...]]:
        return {}

    @cached_property
    def _entries(self) -> dict[tuple[LocationVector, ClockConstraint], Entry]:
        return {}

    @cached_property
    def _programs(self) -> dict[tuple[type, ClockConstraint], tuple[dict, dict]]:
        """(zone type, goal constraint) -> the zone type's compiled moves
        per vector and the programs entering each source vector, filled
        in by ``explorer``."""
        return {}

    def moves(self, vector: LocationVector) -> tuple[Move, ...]:
        """The vector's joint moves in ``joint_moves`` order, each merged
        into ``(label, guard, resets, target vector)``: the conjunction of
        the moving automata's guards, their resets without repeats, and
        the vector after the move."""
        found = self._moves.get(vector)
        if found is None:
            found = self._moves[vector] = tuple(
                _merged(vector, label, combo) for label, combo in joint_moves(self, vector)
            )
        return found

    def entry(self, vector: LocationVector, reads: ClockConstraint) -> Entry:
        """What a zone entering the vector meets when the goal test reads
        ``reads``: the conjunction of the vector's invariants; per clock
        the largest L and U over the ``lu_bounds`` entries of its
        locations and the ``_atom_bounds`` of the atoms of ``reads``, 0
        where there is none; and the clocks, in declaration order, that
        neither feeds.  The goal is one more guard, met at every location
        of the vector.  Kept per ``(vector, reads)``, since searches for
        different targets keep different clocks and constants."""
        key = (vector, reads)
        found = self._entries.get(key)
        if found is None:
            invariants = (aut.invariants[loc] for aut, loc in zip(self.automata, vector))
            atoms = tuple(atom for inv in invariants for atom in inv.atoms)
            bounds = [lu for table, loc in zip(self.lu_bounds, vector) for lu in table[loc].items()]
            bounds += [lu for atom in reads.atoms for lu in _atom_bounds(atom)]
            lower = {clock: 0 for clock in self.clocks}
            upper = dict(lower)
            for clock, (low, up) in bounds:
                if low is not None and low > lower[clock]:
                    lower[clock] = low
                if up is not None and up > upper[clock]:
                    upper[clock] = up
            live = {clock for clock, _ in bounds}
            freed = tuple(clock for clock in self.clocks if clock not in live)
            found = self._entries[key] = Entry(ClockConstraint(atoms), freed, lower, upper)
        return found


class Entry(NamedTuple):
    """One location vector's ``Network.entry`` for one goal constraint."""

    invariant: ClockConstraint
    freed: tuple[ClockId, ...]
    lower: dict[ClockId, int]
    upper: dict[ClockId, int]


# One merged joint move: label, guard, resets, target vector.
Move = tuple[LabelId, ClockConstraint, tuple[ClockId, ...], LocationVector]


def _merged(vector: LocationVector, label: LabelId, combo: tuple[tuple[int, Transition], ...]) -> Move:
    atoms: list[Atom] = []
    resets: list[ClockId] = []
    target = list(vector)
    for i, t in combo:
        atoms.extend(t.guard.atoms)
        resets.extend(c for c in t.resets if c not in resets)
        target[i] = t.target
    return label, ClockConstraint(tuple(atoms)), tuple(resets), tuple(target)


# (L, U) of one clock at one location; None where no atom bounds it that way.
LUBound = tuple[Optional[int], Optional[int]]


def _joined(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return a if b is None else b if a is None else max(a, b)


def _atom_bounds(atom: Atom) -> Iterator[tuple[ClockId, LUBound]]:
    """The (L, U) an atom contributes to each clock it reads, constants
    by magnitude: ``>``, ``>=`` bound the clock from below, ``<``, ``<=``
    from above, ``=`` both ways, and a difference atom feeds both ways
    to both of its clocks."""
    magnitude = abs(int(atom.const))
    if atom.rhs is not None:
        yield atom.lhs, (magnitude, magnitude)
        yield atom.rhs, (magnitude, magnitude)
    else:
        lower = magnitude if atom.op in (">", ">=", "=") else None
        upper = magnitude if atom.op in ("<", "<=", "=") else None
        yield atom.lhs, (lower, upper)


def _lu_bounds(aut: Automaton) -> dict[LocationId, dict[ClockId, LUBound]]:
    """A location's (L, U) takes in the atoms of its invariant and of its
    outgoing guards, and the (L, U) of every clock an outgoing
    transition carries unreset to its target; a fixpoint."""
    table: dict[LocationId, dict[ClockId, LUBound]] = {loc: {} for loc in aut.locations}

    def feed(loc: LocationId, clock: ClockId, lu: LUBound) -> bool:
        held = table[loc].get(clock)
        joined = lu if held is None else (_joined(held[0], lu[0]), _joined(held[1], lu[1]))
        if joined == held:
            return False
        table[loc][clock] = joined
        return True

    for loc in aut.locations:
        for atom in aut.invariants[loc].atoms:
            for clock, lu in _atom_bounds(atom):
                feed(loc, clock, lu)
    for t in aut.transitions:
        for atom in t.guard.atoms:
            for clock, lu in _atom_bounds(atom):
                feed(t.source, clock, lu)
    changed = True
    while changed:
        changed = False
        for t in aut.transitions:
            for clock, lu in list(table[t.target].items()):
                if clock not in t.resets and feed(t.source, clock, lu):
                    changed = True
    return table


@dataclass(frozen=True)
class StatePattern:
    """A location vector plus a clock constraint, one side of a query."""

    locations: LocationVector
    constraint: ClockConstraint


@dataclass(frozen=True)
class Query:
    source: StatePattern
    target: StatePattern


class ValidationError(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def _check_declarations(kind: str, ids: tuple, out: list[str]) -> None:
    seen: dict[str, int] = {}
    for pos, ident in enumerate(ids):
        if ident.name in seen:
            out.append(f"duplicate {kind} name {ident.name!r}")
        seen[ident.name] = pos
        if ident.index != pos:
            out.append(f"{kind} {ident.name!r} has ordinal {ident.index}, expected {pos}")


def _check_constraint(c: ClockConstraint, clocks: set[ClockId], where: str, out: list[str]) -> None:
    for atom in c.atoms:
        if atom.lhs not in clocks:
            out.append(f"{where}: undeclared clock {atom.lhs.name!r}")
        if atom.rhs is not None:
            if atom.rhs not in clocks:
                out.append(f"{where}: undeclared clock {atom.rhs.name!r}")
            if atom.rhs == atom.lhs:
                out.append(f"{where}: difference atom compares {atom.lhs.name!r} with itself")
        if atom.op not in COMPARISON_OPS:
            out.append(f"{where}: unknown operator {atom.op!r}")
        if not isinstance(atom.const, (int, Fraction)):
            out.append(f"{where}: non-rational constant {atom.const!r}")


def network_diagnostics(net: Network) -> list[str]:
    """Every structural violation in the network, empty when well formed."""
    out: list[str] = []
    _check_declarations("clock", net.clocks, out)
    _check_declarations("location", net.locations, out)
    _check_declarations("label", net.labels, out)
    clocks = set(net.clocks)
    locations = set(net.locations)
    labels = set(net.labels)

    claimed: dict[LocationId, int] = {}
    for idx, aut in enumerate(net.automata):
        where = f"automaton {idx}"
        for loc in aut.locations:
            if loc not in locations:
                out.append(f"{where}: location {loc.name!r} not in the global declaration")
            if claimed.get(loc) == idx:
                out.append(f"{where}: location {loc.name!r} is listed twice")
            elif loc in claimed:
                out.append(f"{where}: location {loc.name!r} also belongs to automaton {claimed[loc]}")
            claimed[loc] = idx
        for lab in aut.alphabet:
            if lab not in labels:
                out.append(f"{where}: label {lab.name!r} not in the global declaration")
        own = set(aut.locations)
        for loc in aut.locations:
            if loc not in aut.invariants:
                out.append(f"{where}: location {loc.name!r} has no invariant entry")
        for loc in aut.invariants:
            if loc not in own:
                out.append(f"{where}: invariant for foreign location {loc.name!r}")
        for loc, inv in aut.invariants.items():
            _check_constraint(inv, clocks, f"{where}, invariant of {loc.name}", out)
        for t in aut.transitions:
            where_t = f"{where}, transition {t.source.name}--{t.label.name}->{t.target.name}"
            if t.source not in own:
                out.append(f"{where_t}: source not in this automaton")
            if t.target not in own:
                out.append(f"{where_t}: target not in this automaton")
            if t.label not in set(aut.alphabet):
                out.append(f"{where_t}: label not in this automaton's alphabet")
            _check_constraint(t.guard, clocks, where_t, out)
            if len(set(t.resets)) != len(t.resets):
                out.append(f"{where_t}: repeated clock in reset list")
            for r in t.resets:
                if r not in clocks:
                    out.append(f"{where_t}: reset of undeclared clock {r.name!r}")
    return out


def validate(net: Network) -> Network:
    """Return the network unchanged, or raise with every violation listed."""
    diagnostics = network_diagnostics(net)
    if diagnostics:
        raise ValidationError(diagnostics)
    return net


def scale_constant(const: Number, factor: int, written: Optional[str] = None) -> int:
    """``const * factor`` as an integer.  Raises ValueError naming the
    constant (as ``written`` when given) when the product is not an
    integer or its magnitude exceeds ``bounds.MAX_CONSTANT``."""
    scaled = const * factor
    name = const if written is None else written
    if scaled != int(scaled):
        raise ValueError(f"constant {name} does not scale to an integer by {factor}")
    if abs(scaled) > MAX_CONSTANT:
        raise ValueError(f"constant {name} exceeds {MAX_CONSTANT} once scaled by {factor}")
    return int(scaled)


def _scaled_constraint(c: ClockConstraint, factor: int) -> ClockConstraint:
    return ClockConstraint(tuple(a._replace(const=scale_constant(a.const, factor)) for a in c.atoms))


def _constraint_denominator(c: ClockConstraint) -> int:
    return lcm(*(Fraction(a.const).denominator for a in c.atoms)) if c.atoms else 1


def normalize_constants(net: Network) -> Network:
    """Scale every constant to an integer, recording the multiplier.

    The verdict of a reachability question is invariant under scaling
    all constants (and implicitly all clock rates) by a common positive
    factor, so the checker only ever works on integer constants.
    Already-integral networks pass through with scale 1.  Raises
    ``ValidationError`` naming a constant whose magnitude exceeds
    ``bounds.MAX_CONSTANT`` once scaled.
    """
    denominators = [1]
    for aut in net.automata:
        for inv in aut.invariants.values():
            denominators.append(_constraint_denominator(inv))
        for t in aut.transitions:
            denominators.append(_constraint_denominator(t.guard))
    factor = lcm(*denominators)
    automata = []
    for aut in net.automata:
        try:
            invariants = {loc: _scaled_constraint(inv, factor) for loc, inv in aut.invariants.items()}
            guards = [_scaled_constraint(t.guard, factor) for t in aut.transitions]
        except ValueError as err:  # a constant too large once scaled
            raise ValidationError([str(err)]) from None
        transitions = tuple(replace(t, guard=g) for t, g in zip(aut.transitions, guards))
        automata.append(replace(aut, invariants=invariants, transitions=transitions))
    return replace(net, automata=tuple(automata), scale=net.scale * factor)


def max_constants(net: Network, query: Query | None = None) -> dict[ClockId, int]:
    """Per-clock maximum constant over guards, invariants and the query.

    The magnitude of the constant is what matters for the coarsening of
    zones, so negative constants contribute their absolute value.  It is
    the clock's largest L or U anywhere in ``Network.lu_bounds``, which
    takes in every guard and invariant atom, and in the ``_atom_bounds``
    of the query's atoms.  A clock never compared anywhere gets 0.
    """
    k = {clock: 0 for clock in net.clocks}
    bounds = [lu for table in net.lu_bounds for row in table.values() for lu in row.items()]
    if query is not None:
        atoms = query.source.constraint.atoms + query.target.constraint.atoms
        bounds += [lu for atom in atoms for lu in _atom_bounds(atom)]
    for clock, lu in bounds:
        k[clock] = max(k[clock], *(b for b in lu if b is not None))
    return k


def joint_moves(
    net: Network, locations: LocationVector
) -> Iterator[tuple[LabelId, tuple[tuple[int, Transition], ...]]]:
    """Every joint move from a location vector, in declaration order.

    Labels follow the global declaration list.  A label fires when each
    participating automaton has a transition with it from its current
    location; every combination of those transitions is one move,
    given as (automaton index, transition) pairs.  Guards are not
    consulted.
    """
    outgoing = net.outgoing
    for label in net.labels:
        participants = net.participants[label]
        if not participants:
            continue
        choices = []
        for i in participants:
            ts = outgoing.get((i, locations[i], label))
            if ts is None:
                break
            choices.append(ts)
        else:
            for combo in product(*choices):
                yield label, tuple(zip(participants, combo))
