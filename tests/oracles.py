"""Independent grid semantics for zones, used to judge both backends.

A zone operation is checked pointwise on the half-step grid
[0, 11]^n: membership of a produced zone (read off its raw
representation) must coincide with membership computed directly from
the defining constraint sets.  Existential questions (projection,
reset, time elapse) are answered analytically per grid point: the
eliminated quantity is confined to one interval whose endpoints are
half-integers, so encoding endpoints in quarter units with a +-1
strictness adjustment decides feasibility exactly, no sampling of the
eliminated axis involved.

Everything here works on ``model.Atom`` lists and plain integer
arrays; nothing is shared with the zone code under test, except that
``fm_entails``, ``fm_includes`` and ``fm_equiv`` compare formulas with
the formula backend's own emptiness test.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from zonereach.bounds import INF, ZERO_LE, add, bound, is_strict, value
from zonereach.dbm import Dbm
from zonereach.formula import Formula, LinearAtom, fm_is_empty, make_formula
from zonereach.model import Atom, ClockConstraint, ClockId

GRID_HI = 11  # real units; constants stay <= 10, so one unit of slack
_BIG = 1 << 40

# Coordinates are in half units (real 1 == 2), interval endpoints in
# quarter units (real 1 == 4); both stay integral for integer
# constants and half-step grid points.


@lru_cache(maxsize=None)
def grid(n: int) -> np.ndarray:
    """All points of the half-step grid, shape (23**n, n), half units."""
    axis = np.arange(0, GRID_HI * 2 + 1, dtype=np.int64)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _normalized(atoms: Sequence[Atom]) -> Iterator[tuple[ClockId, Optional[ClockId], bool, int]]:
    """Rewrite every comparison as ``lhs - rhs (<|<=) c`` triples."""
    for a in atoms:
        if a.op in ("<", "<="):
            yield a.lhs, a.rhs, a.op == "<", a.const
        elif a.op in (">", ">="):
            yield a.rhs, a.lhs, a.op == ">", -a.const
        elif a.op == "=":
            yield a.lhs, a.rhs, False, a.const
            yield a.rhs, a.lhs, False, -a.const
        else:
            raise ValueError(f"unknown operator {a.op!r}")


def negated(raw: int) -> int:
    """Raw encoding of the complement of a bound.

    not(e <= v) is -e < -v and not(e < v) is -e <= -v, so the complement
    flips both the sign of the value and the strictness.  Undefined for
    INF, whose complement would be the empty constraint.
    """
    if raw == INF:
        raise ValueError("the unbounded bound has no complement")
    return bound(-(raw >> 1), strict=bool(raw & 1))


def constraint_clocks(c: ClockConstraint) -> frozenset[ClockId]:
    """The clocks a constraint reads; a difference atom reads both."""
    return frozenset(
        clock for atom in c.atoms for clock in (atom.lhs, atom.rhs) if clock is not None
    )


def _col(side: Optional[ClockId], index: dict, pts: np.ndarray):
    return 0 if side is None else pts[:, index[side]]


def constraint_mask(c: ClockConstraint, clocks: Sequence[ClockId], pts: np.ndarray) -> np.ndarray:
    """Which grid points satisfy the constraint (points are never
    negative, so implicit non-negativity holds for free)."""
    index = {clock: i for i, clock in enumerate(clocks)}
    mask = np.ones(len(pts), dtype=bool)
    for p, n, strict, const in _normalized(c.atoms):
        diff = _col(p, index, pts) - _col(n, index, pts)
        mask &= (diff < 2 * const) if strict else (diff <= 2 * const)
    return mask


def dbm_mask(z: Dbm, pts: np.ndarray) -> np.ndarray:
    """Membership read directly off the matrix cells."""
    if z.cells is None:
        return np.zeros(len(pts), dtype=bool)
    size = len(z.clocks) + 1
    mask = np.ones(len(pts), dtype=bool)
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            raw = z.cells[i * size + j]
            if raw == INF:
                continue
            left = pts[:, i - 1] if i else 0
            right = pts[:, j - 1] if j else 0
            diff = left - right
            lim = 2 * value(raw)
            mask &= (diff < lim) if is_strict(raw) else (diff <= lim)
    return mask


def formula_mask(f: Formula, pts: np.ndarray) -> np.ndarray:
    """Membership read directly off the atom list."""
    if f.is_false:
        return np.zeros(len(pts), dtype=bool)
    index = {clock: i for i, clock in enumerate(f.clocks)}
    mask = np.ones(len(pts), dtype=bool)
    for pos, neg, bnd in f.atoms:
        diff = _col(pos, index, pts) - _col(neg, index, pts)
        lim = 2 * value(bnd)
        mask &= (diff < lim) if is_strict(bnd) else (diff <= lim)
    return mask


def exists_mask(
    c: ClockConstraint, clocks: Sequence[ClockId], var: ClockId, pts: np.ndarray
) -> np.ndarray:
    """Per point: does some value w >= 0 for ``var`` put the point (with
    ``var`` set to w) into the constraint set?  The ``var`` column of
    ``pts`` is ignored.
    """
    index = {clock: i for i, clock in enumerate(clocks)}
    static = np.ones(len(pts), dtype=bool)
    lower = np.zeros(len(pts), dtype=np.int64)  # w >= 0, weak
    upper = np.full(len(pts), _BIG, dtype=np.int64)
    for p, n, strict, const in _normalized(c.atoms):
        if p == var and n == var:
            raise ValueError("atom compares a clock with itself")
        if p == var:  # w - other <= c, so w <= c + other
            endpoint = 4 * const + 2 * _col(n, index, pts)
            np.minimum(upper, endpoint - int(strict), out=upper)
        elif n == var:  # other - w <= c, so w >= other - c
            endpoint = 2 * _col(p, index, pts) - 4 * const
            np.maximum(lower, endpoint + int(strict), out=lower)
        else:
            diff = _col(p, index, pts) - _col(n, index, pts)
            static &= (diff < 2 * const) if strict else (diff <= 2 * const)
    return static & (lower <= upper)


def reset_mask(
    c: ClockConstraint, clocks: Sequence[ClockId], var: ClockId, pts: np.ndarray
) -> np.ndarray:
    """Membership in the set after resetting ``var`` to zero: the
    coordinate is zero and some pre-reset value was admissible."""
    index = {clock: i for i, clock in enumerate(clocks)}
    return (pts[:, index[var]] == 0) & exists_mask(c, clocks, var, pts)


def elapse_mask(c: ClockConstraint, clocks: Sequence[ClockId], pts: np.ndarray) -> np.ndarray:
    """Membership in the future closure: some uniform backward shift
    t >= 0 lands in the constraint set with all coordinates still
    non-negative.  Difference atoms are unaffected by the shift; each
    single-clock atom becomes one bound on t.
    """
    index = {clock: i for i, clock in enumerate(clocks)}
    static = np.ones(len(pts), dtype=bool)
    lower = np.zeros(len(pts), dtype=np.int64)
    upper = np.full(len(pts), _BIG, dtype=np.int64)
    for i in range(len(clocks)):  # p_i - t >= 0
        np.minimum(upper, 2 * pts[:, i], out=upper)
    for p, n, strict, const in _normalized(c.atoms):
        if p is not None and n is not None:
            diff = _col(p, index, pts) - _col(n, index, pts)
            static &= (diff < 2 * const) if strict else (diff <= 2 * const)
        elif p is not None:  # (p - t) <= c, so t >= p - c
            endpoint = 2 * _col(p, index, pts) - 4 * const
            np.maximum(lower, endpoint + int(strict), out=lower)
        else:  # (n - t) >= -c, so t <= n + c
            endpoint = 2 * _col(n, index, pts) + 4 * const
            np.minimum(upper, endpoint - int(strict), out=upper)
    return static & (lower <= upper)


# -- zones from explicit data ------------------------------------------------


def from_bounds(clocks: Sequence[ClockId], cells: Sequence[int]) -> Dbm:
    """The ``Dbm`` of an explicit bound grid, closed here by a plain
    Floyd-Warshall over ``bounds.add``; the empty marker when a diagonal
    cell ends below (0, <=).  Every zone keeps its clocks non-negative,
    so the diagonal and row 0 are first tightened to at most (0, <=).
    A canonical zone comes back with the same cells."""
    clocks = tuple(clocks)
    size = len(clocks) + 1
    work = list(cells)
    if len(work) != size * size:
        raise ValueError("grid size does not match the clock list")
    for i in range(size):
        work[i] = min(work[i], ZERO_LE)
        work[i * size + i] = min(work[i * size + i], ZERO_LE)
    for k, i, j in itertools.product(range(size), repeat=3):
        work[i * size + j] = min(work[i * size + j], add(work[i * size + k], work[k * size + j]))
    if any(work[i * size + i] < ZERO_LE for i in range(size)):
        return Dbm(clocks, None)
    return Dbm(clocks, tuple(work))


def cell(z: Dbm, i: int, j: int) -> int:
    """The bound on xi - xj (index 0 is the zero clock)."""
    return z.cells[i * (len(z.clocks) + 1) + j]


def fm_entails(f: Formula, atom: LinearAtom) -> bool:
    """Does every solution of ``f`` satisfy the atom?

    Checked by conjoining the complement of the atom (still a single
    difference inequality) and testing emptiness, which is complete;
    scanning projected bounds would miss combinations of one-sided
    bounds that only together imply a difference.
    """
    for side in (atom.pos, atom.neg):
        if side is not None and side not in f.clocks:
            raise ValueError(f"clock {side.name!r} is not in scope")
    if atom.bnd == INF or f.is_false:
        return True
    flipped = LinearAtom(atom.neg, atom.pos, negated(atom.bnd))
    return fm_is_empty(make_formula(f.clocks, f.atoms + (flipped,), f.is_false))


def fm_includes(f1: Formula, f2: Formula) -> bool:
    """Does ``f1`` contain ``f2``?  Every atom of the container must be
    entailed by the contained formula."""
    if f1.clocks != f2.clocks:
        raise ValueError("formulas over different scopes")
    if fm_is_empty(f2):
        return True
    return all(fm_entails(f2, a) for a in f1.atoms)


def fm_equiv(f1: Formula, f2: Formula) -> bool:
    """Set equality via mutual entailment of each other's atoms."""
    if f1.clocks != f2.clocks:
        raise ValueError("formulas over different scopes")
    e1, e2 = fm_is_empty(f1), fm_is_empty(f2)
    if e1 or e2:
        return e1 == e2
    return all(fm_entails(f1, a) for a in f2.atoms) and all(fm_entails(f2, a) for a in f1.atoms)


# -- random inputs -----------------------------------------------------------


def make_clocks(n: int) -> tuple[ClockId, ...]:
    return tuple(ClockId(f"c{i}", i) for i in range(n))


def random_constraint(
    rng: random.Random,
    clocks: Sequence[ClockId],
    max_atoms: int = 6,
    max_const: int = 10,
) -> ClockConstraint:
    """A random conjunction; mildly biased towards non-negative
    constants so that not everything collapses to the empty set."""
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        lhs = rng.choice(clocks)
        others = [c for c in clocks if c != lhs]
        rhs = rng.choice(others) if others and rng.random() < 0.4 else None
        op = rng.choice(("<", "<=", "=", ">=", ">"))
        const = rng.randint(-max_const, max_const) if rng.random() < 0.3 else rng.randint(0, max_const)
        atoms.append(Atom(lhs, rhs, op, const))
    return ClockConstraint(tuple(atoms))
