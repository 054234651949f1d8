"""Zones as conjunctions of difference inequalities, projected by
Fourier-Motzkin elimination.

This backend keeps a zone as a flat list of atoms ``pos - neg < c`` or
``pos - neg <= c`` (either side may be absent, coefficients are +/-1)
plus a ground-false flag.  Emptiness, entailment and projection all go
through variable elimination: to remove a variable, every lower bound
on it is paired with every upper bound, the variable cancels, and a
variable-free combination either drops out (trivially true) or marks
the whole formula false.  The closed bounds that inclusion and the
widenings read take one projection per clock pair, C(n,2)(n-2) + n + 1
elimination steps for n clocks (see ``_closed_cells``).

It deliberately shares no zone logic with the matrix backend; the two
are developed against the same semantics and cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .bounds import INF, ZERO_LE, add, bound, value
from .model import COMPARISON_OPS, ClockConstraint, ClockId

# Fresh variable standing for the elapsed delay while computing the
# future closure; the quote keeps it out of the identifier namespace.
_DELAY = ClockId("'delay", -1)


class LinearAtom(NamedTuple):
    """``pos - neg  (<|<=)  value``, with a missing side read as 0."""

    pos: Optional[ClockId]
    neg: Optional[ClockId]
    bnd: int  # raw bound encoding, see bounds.py


@dataclass(frozen=True)
class Formula:
    clocks: tuple[ClockId, ...]
    atoms: tuple[LinearAtom, ...]
    is_false: bool = False

    @classmethod
    def from_constraint(cls, c: ClockConstraint, clocks: Sequence[ClockId]) -> "Formula":
        clocks = tuple(clocks)
        known = set(clocks)
        items: list[LinearAtom] = []
        for atom in c.atoms:
            if not isinstance(atom.const, int):
                raise ValueError(f"non-integer constant {atom.const!r}; scale the network first")
            if atom.lhs not in known or (atom.rhs is not None and atom.rhs not in known):
                raise ValueError(f"atom {atom} mentions a clock outside the scope")
            if atom.op not in COMPARISON_OPS:
                raise ValueError(f"unknown operator {atom.op!r}")
            p, n, c0 = atom.lhs, atom.rhs, atom.const
            if atom.op in ("<", "<=", "="):
                items.append(LinearAtom(p, n, bound(c0, strict=atom.op == "<")))
            if atom.op in (">", ">=", "="):
                items.append(LinearAtom(n, p, bound(-c0, strict=atom.op == ">")))
        return make_formula(clocks, items)

    @cached_property
    def closed_cells(self) -> Optional[tuple[int, ...]]:
        return _closed_cells(self)

    # The zone surface the explorer calls, shared with ``Dbm``.  The
    # operations stay module functions, looked up at call time.

    def constrain(self, c: ClockConstraint) -> "Formula":
        """Converted once per constraint object and clock tuple and kept
        on the constraint; one that fails a check raises on every call."""
        memo = c._formulas
        other = memo.get(self.clocks)
        if other is None:
            other = memo[self.clocks] = Formula.from_constraint(c, self.clocks)
        return fm_intersect(self, other)

    def reset(self, resets: Sequence[ClockId]) -> "Formula":
        return fm_reset(self, resets)

    def free(self, clocks: Sequence[ClockId]) -> "Formula":
        """Project the clocks away and keep them in scope, non-negative."""
        if not clocks:
            return self
        projected = fm_exists(self, clocks)
        return make_formula(self.clocks, projected.atoms, projected.is_false)

    def elapse(self) -> "Formula":
        return fm_elapse(self)

    def is_empty(self) -> bool:
        return fm_is_empty(self)

    @staticmethod
    def program(
        clocks: tuple[ClockId, ...],
        guard: ClockConstraint,
        resets: Sequence[ClockId],
        invariant: ClockConstraint,
        freed: Sequence[ClockId],
    ) -> tuple:
        """A move for ``step``: its constraints and clocks as given."""
        return guard, tuple(resets), invariant, tuple(freed)

    def step(self, program: tuple) -> Optional["Formula"]:
        """The zone after the move, by the operations above one after the
        other; None when the guard or the invariant leaves nothing."""
        guard, resets, invariant, freed = program
        zone = self.constrain(guard)
        if zone.is_empty():
            return None
        zone = zone.reset(resets).constrain(invariant)
        if zone.is_empty():
            return None
        return zone.elapse().constrain(invariant).free(freed)

    def extrapolate(self, k: Mapping[ClockId, int]) -> "Formula":
        return fm_extrapolate(self, k)

    def extrapolate_lu(self, lower: Mapping[ClockId, int], upper: Mapping[ClockId, int]) -> "Formula":
        return fm_extrapolate_lu(self, lower, upper)

    def includes(self, other: "Formula") -> bool:
        """Does ``other`` entail every atom of this formula?  An atom
        ``pos - neg <= b`` holds on ``other`` when its tightest bound on
        ``pos - neg``, a cell of its closed form, is at most ``b``; those
        bounds are exact, so only ``other`` needs its closure."""
        if self.clocks is not other.clocks and self.clocks != other.clocks:
            raise ValueError("zones over different clock lists")
        theirs = other.closed_cells
        if theirs is None:
            return True
        if self.is_false:
            return False
        size = len(self.clocks) + 1
        index = {None: 0, **{clock: i for i, clock in enumerate(self.clocks, 1)}}
        return all(theirs[index[a.pos] * size + index[a.neg]] <= a.bnd for a in self.atoms)

    @property
    def key(self) -> Optional[tuple[int, ...]]:
        """Hashable and canonical: equal keys mean equal zones."""
        return self.closed_cells


def make_formula(
    clocks: tuple[ClockId, ...], items: Iterable[LinearAtom], is_false: bool = False
) -> Formula:
    """Normalize an atom list into a ``Formula``.

    Adds the implicit non-negativity atom for every clock in scope,
    evaluates variable-free atoms, and keeps only the tightest atom
    per (pos, neg) pair.  The per-pair minimum is a set-preserving
    cleanup; without it the quadratic growth of elimination compounds
    across exploration steps.
    """
    if is_false:
        return Formula(clocks, (), True)
    tightest = {(None, clock): LinearAtom(None, clock, ZERO_LE) for clock in clocks}
    for atom in items:
        pos, neg, bnd = atom
        if bnd == INF:
            continue
        if pos == neg:  # variable-free: 0 (<|<=) value
            if bnd < ZERO_LE:
                return Formula(clocks, (), True)
            continue
        held = tightest.get((pos, neg))
        if held is None or bnd < held.bnd:
            tightest[pos, neg] = atom
    return Formula(clocks, tuple(tightest.values()))


def _eliminate(atoms: Iterable[LinearAtom], var: ClockId) -> Optional[list[LinearAtom]]:
    """One Fourier-Motzkin step; None signals a ground contradiction."""
    lowers: list[LinearAtom] = []
    uppers: list[LinearAtom] = []
    rest: list[LinearAtom] = []
    for a in atoms:
        if a.neg == var:
            lowers.append(a)
        elif a.pos == var:
            uppers.append(a)
        else:
            rest.append(a)
    for lo in lowers:
        for up in uppers:
            combined = add(lo.bnd, up.bnd)
            if lo.pos == up.neg:  # variable-free combination
                if combined < ZERO_LE:
                    return None
                continue
            rest.append(LinearAtom(lo.pos, up.neg, combined))
    return rest


def fm_exists(f: Formula, variables: Sequence[ClockId]) -> Formula:
    """Exact projection: the result describes the solutions of ``f``
    with the given clocks forgotten."""
    variables = tuple(variables)
    for v in variables:
        if v not in f.clocks and v != _DELAY:
            raise ValueError(f"clock {v.name!r} is not in scope")
    remaining = tuple(c for c in f.clocks if c not in variables)
    if f.is_false:
        return Formula(remaining, (), True)
    work: Iterable[LinearAtom] = f.atoms
    for v in variables:
        work = _eliminate(work, v)
        if work is None:
            return Formula(remaining, (), True)
    return make_formula(remaining, work)


def fm_intersect(f1: Formula, f2: Formula) -> Formula:
    if f1.clocks != f2.clocks:
        raise ValueError("formulas over different scopes")
    if f1.is_false or f2.is_false:
        return Formula(f1.clocks, (), True)
    return make_formula(f1.clocks, f1.atoms + f2.atoms)


def fm_reset(f: Formula, resets: Sequence[ClockId]) -> Formula:
    """Project the reset clocks away, then pin each to zero (its lower
    bound 0 is the non-negativity atom ``make_formula`` adds)."""
    projected = fm_exists(f, resets)
    if projected.is_false:
        return Formula(f.clocks, (), True)
    pinned = projected.atoms + tuple(LinearAtom(r, None, ZERO_LE) for r in resets)
    return make_formula(f.clocks, pinned)


def fm_elapse(f: Formula) -> Formula:
    """Future closure: substitute x -> x - delay for a fresh delay >= 0,
    then eliminate the delay."""
    if f.is_false:
        return f
    # the missing side of a one-clock bound becomes the delay
    shifted = [LinearAtom(None, _DELAY, ZERO_LE)]
    shifted += (LinearAtom(pos or _DELAY, neg or _DELAY, bnd) for pos, neg, bnd in f.atoms)
    work = _eliminate(shifted, _DELAY)
    if work is None:
        return Formula(f.clocks, (), True)
    return make_formula(f.clocks, work)


def fm_is_empty(f: Formula) -> bool:
    return fm_exists(f, f.clocks).is_false


def _closed_cells(f: Formula) -> Optional[tuple[int, ...]]:
    """The tightest derivable bound for every clock pair, arranged like
    a closed difference-bound matrix; None when the formula is empty.

    Projection is exact.  The formula is projected once onto each
    clock pair (C(n,2) projections of n-2 steps).  Eliminating the
    partner from one pair's atoms bounds each clock alone (n steps);
    elimination contracts every derivation into a direct atom, so those
    bounds are exact.  Eliminating one clock from its own bounds decides
    emptiness (1 step): C(n,2)(n-2) + n + 1 steps, 7 at n=3 and 17 at
    n=4; one clock takes 1 step and none takes 0.  A pair bound is the
    tighter of the direct atom in the pair's projection and the two
    exact single bounds through zero.
    """
    if f.is_false:
        return None
    clocks, size = f.clocks, len(f.clocks) + 1
    index = {None: 0, **{clock: i for i, clock in enumerate(clocks, 1)}}
    grid = [INF] * (size * size)
    grid[:: size + 1] = [ZERO_LE] * size
    singles = {clocks[0]: f.atoms} if size == 2 else {}
    views = []
    for x, y in combinations(clocks, 2):
        pair = fm_exists(f, [c for c in clocks if c != x and c != y])
        if pair.is_false:
            return None
        views.append(pair.atoms)
        for keep, drop in ((x, y), (y, x)):
            if keep not in singles:
                singles[keep] = _eliminate(pair.atoms, drop)
                if singles[keep] is None:
                    return None
    if clocks and _eliminate(singles[clocks[0]], clocks[0]) is None:
        return None
    for atoms in (*views, *singles.values()):
        for pos, neg, bnd in atoms:
            cell = index[pos] * size + index[neg]
            grid[cell] = min(grid[cell], bnd)
    for i, j in permutations(range(1, size), 2):
        grid[i * size + j] = min(grid[i * size + j], add(grid[i * size], grid[j]))
    return tuple(grid)


def fm_extrapolate(f: Formula, k: Mapping[ClockId, int]) -> Formula:
    """Coarsen beyond the per-clock maximum constants.

    The widening rules must see the tightest derivable bounds, not the
    literal atom list: dropping a loose syntactic atom can otherwise
    widen past what the constants justify.  So the closed bounds are
    computed first and the rules applied to those.
    """
    cells = f.closed_cells
    if cells is None:
        return Formula(f.clocks, (), True)
    size = len(f.clocks) + 1
    limit = [0] + [k[c] for c in f.clocks]
    sides: list[Optional[ClockId]] = [None, *f.clocks]
    items = []
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            raw = cells[i * size + j]
            if raw == INF:
                continue
            if i > 0 and value(raw) > limit[i]:
                continue
            if j > 0 and value(raw) < -limit[j]:
                raw = bound(-limit[j], strict=True)
            items.append(LinearAtom(sides[i], sides[j], raw))
    return make_formula(f.clocks, items)


def fm_extrapolate_lu(
    f: Formula, lower: Mapping[ClockId, int], upper: Mapping[ClockId, int]
) -> Formula:
    """Extra⁺_LU (Behrmann, Bouyer, Larsen & Pelánek 2006): the case
    table applied to the closed bounds, like ``fm_extrapolate``.

    A bound on ``xi - xj`` is dropped when its value exceeds L(xi), or
    when the lower bound of xi does; otherwise, when the lower bound of
    xj exceeds U(xj), it is dropped too, except the lower bound of xj
    itself, which becomes ``xj > U(xj)``.
    """
    cells = f.closed_cells
    if cells is None:
        return Formula(f.clocks, (), True)
    size = len(f.clocks) + 1
    sides: list[Optional[ClockId]] = [None, *f.clocks]

    def lower_bound(i: int) -> int:
        """The value of clock i's lower bound (0 for the reference)."""
        return -value(cells[i]) if i > 0 else 0

    items = []
    for i in range(size):
        for j in range(size):
            raw = cells[i * size + j]
            if i == j or raw == INF:
                continue
            if i > 0 and (value(raw) > lower[sides[i]] or lower_bound(i) > lower[sides[i]]):
                continue
            if j > 0 and lower_bound(j) > upper[sides[j]]:
                if i > 0:
                    continue
                raw = bound(-upper[sides[j]], strict=True)
            items.append(LinearAtom(sides[i], sides[j], raw))
    return make_formula(f.clocks, items)
