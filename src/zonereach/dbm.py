"""Difference-bound matrices: canonical zone representation.

A zone over clocks x1..xn is an (n+1) x (n+1) matrix of bounds, index 0
being the constant-zero reference clock; entry (i, j) bounds xi - xj.
Bounds use the raw integer encoding of ``bounds``.  Matrices are kept
row-major in a flat tuple.

Every ``Dbm`` handed out by this module is canonical: the matrix is
closed under the triangle inequality (shortest paths), so structural
equality of the cell tuple coincides with equality of the zones, the
most-constrained form is unique, and inclusion is a cellwise check.
The empty zone is a distinguished marker (``cells is None``) rather
than some arbitrary inconsistent matrix.

A transition of the search is one rewrite of the matrix: ``Dbm.program``
compiles a move once (guard edges, reset indices, the target's
invariant edges and the clocks freed there) and ``Dbm.step`` applies it
in one pass over one mutable grid, the same cells as ``constrain``,
``reset``, ``constrain``, ``elapse``, ``constrain`` and ``free`` one
after the other.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

from .bounds import INF, ZERO_LE, bound, is_strict, value
from .model import Atom, ClockConstraint, ClockId


def _close(grid: list[int], size: int) -> bool:
    """The full Floyd-Warshall closure in place, O(n³).  False when a
    diagonal cell ends below (0, <=), i.e. the zone is empty."""
    for k in range(size):
        krow = k * size
        # row k's finite entries, read once per pivot.  Paths with i == k
        # or j == k only add the cell (k, k), which cannot tighten
        # anything unless it is below (0, <=), and then the zone is empty.
        through_k = [(j, kj) for j, kj in enumerate(grid[krow:krow + size]) if kj != INF and j != k]
        for i in range(size):
            ik = grid[i * size + k]
            if ik == INF or i == k:
                continue
            irow = i * size
            for j, kj in through_k:
                # bounds.add for finite bounds: values add, strict wins
                through = ik + kj - ((ik | kj) & 1)
                if through < grid[irow + j]:
                    grid[irow + j] = through
    for i in range(size):
        if grid[i * size + i] < ZERO_LE:
            return False
    return True


def _tighten(grid: list[int], size: int, a: int, b: int, raw: int) -> bool:
    """Add xa - xb bounded by ``raw`` to a closed grid in place, leaving
    it closed (Bengtsson & Yi 2004).  False, with the grid untouched,
    when the zone becomes empty.

    The new edge closes a negative cycle exactly when raw + D[b][a] is
    below (0, <=): an O(1) test.  Otherwise every path it shortens is
    i -> a -> b -> j, so one O(n²) pass over the finite entries of
    column a and row b, D[i][j] = min(D[i][j], D[i][a] + raw + D[b][j]),
    closes the grid again.  The pass leaves column a and row b as they
    were (raw + D[b][a] is at least (0, <=)) apart from the cell (a, b)
    itself, which it sets to ``raw`` through D[a][a] = D[b][b] = (0, <=).
    """
    ba = grid[b * size + a]
    # bounds.add for finite bounds, as in ``_close``
    if ba != INF and raw + ba - ((raw | ba) & 1) < ZERO_LE:
        return False
    brow = b * size
    from_b = [(j, bj) for j, bj in enumerate(grid[brow:brow + size]) if bj != INF]
    for i in range(size):
        ia = grid[i * size + a]
        if ia == INF:
            continue
        via = ia + raw - ((ia | raw) & 1)
        irow = i * size
        for j, bj in from_b:
            through = via + bj - ((via | bj) & 1)
            if through < grid[irow + j]:
                grid[irow + j] = through
    return True


def _reset(grid: list[int], size: int, indices: Sequence[int]) -> None:
    """Set the clocks at the indices to zero in a closed grid, in place;
    it stays closed (see ``Dbm.reset``)."""
    for r in indices:
        for j in range(size):
            grid[r * size + j] = grid[j]          # row 0 entry (0 - xj)
            grid[j * size + r] = grid[j * size]   # column 0 entry (xj - 0)
        grid[r * size + r] = ZERO_LE


def _free(grid: list[int], size: int, indices: Sequence[int]) -> None:
    """Forget the clocks at the indices in a closed grid, in place; it
    stays closed (see ``Dbm.free``)."""
    for x in indices:
        for j in range(size):
            grid[x * size + j] = INF              # no upper bound on x - xj
            grid[j * size + x] = grid[j * size]   # xj - x bounded as xj - 0
        grid[x * size + x] = ZERO_LE


def _index(clocks: tuple[ClockId, ...], clock: ClockId) -> int:
    try:
        return clocks.index(clock) + 1
    except ValueError:
        raise ValueError(f"unknown clock {clock.name!r}") from None


def _edges(c: ClockConstraint, clocks: tuple[ClockId, ...]) -> tuple[tuple[int, int, int], ...]:
    """The constraint as matrix edges ``(i, j, raw)``: xi - xj bounded by
    ``raw``, one edge per atom and two for ``=``.  Compiled once per
    constraint object and clock tuple and kept on the constraint; one
    that fails a check is not kept, so it raises on every call."""
    memo = c._dbm_edges
    found = memo.get(clocks)
    if found is not None:
        return found
    edges = []
    for atom in c.atoms:
        if not isinstance(atom.const, int):
            raise ValueError(f"non-integer constant {atom.const!r}; scale the network first")
        i = _index(clocks, atom.lhs)
        j = _index(clocks, atom.rhs) if atom.rhs is not None else 0
        n = atom.const
        if atom.op == "<":
            edges.append((i, j, bound(n, strict=True)))
        elif atom.op == "<=":
            edges.append((i, j, bound(n, strict=False)))
        elif atom.op == ">":
            edges.append((j, i, bound(-n, strict=True)))
        elif atom.op == ">=":
            edges.append((j, i, bound(-n, strict=False)))
        elif atom.op == "=":
            edges.append((i, j, bound(n, strict=False)))
            edges.append((j, i, bound(-n, strict=False)))
        else:
            raise ValueError(f"unknown operator {atom.op!r}")
    found = memo[clocks] = tuple(edges)
    return found


class Program(NamedTuple):
    """One move compiled for ``Dbm.step``: edges ``(i, j, raw)`` and
    clock indices of one clock tuple."""

    guard: tuple[tuple[int, int, int], ...]
    resets: tuple[int, ...]
    invariant: tuple[tuple[int, int, int], ...]
    upper: tuple[tuple[int, int, int], ...]  # the invariant's edges (i, 0, raw)
    freed: tuple[int, ...]


@dataclass(frozen=True)
class Dbm:
    clocks: tuple[ClockId, ...]
    cells: tuple[int, ...] | None  # None is the empty-zone marker

    # -- construction ------------------------------------------------

    @classmethod
    def universe(cls, clocks: Sequence[ClockId]) -> "Dbm":
        clocks = tuple(clocks)
        size = len(clocks) + 1
        # Row 0 at (0, <=) keeps every clock non-negative; everything else free.
        grid = [INF] * (size * size)
        for i in range(size):
            grid[i] = grid[i * size + i] = ZERO_LE
        return cls(clocks, tuple(grid))

    @classmethod
    def from_constraint(cls, c: ClockConstraint, clocks: Sequence[ClockId]) -> "Dbm":
        return cls.universe(clocks).constrain(c)

    # -- basic queries -----------------------------------------------

    def is_empty(self) -> bool:
        return self.cells is None

    @property
    def key(self) -> tuple[int, ...] | None:
        """Hashable and canonical: equal keys mean equal zones."""
        return self.cells

    def _closed(self, grid: list[int]) -> "Dbm":
        """The zone an edited copy of this zone's cells describes: this
        zone itself when no cell changed (it is canonical already), else
        the grid after a full O(n³) closure, or the empty marker when it
        is inconsistent."""
        if tuple(grid) == self.cells:
            return self
        if not _close(grid, len(self.clocks) + 1):
            return Dbm(self.clocks, None)
        return Dbm(self.clocks, tuple(grid))

    # -- zone operations ----------------------------------------------

    def intersect(self, other: "Dbm") -> "Dbm":
        """Cellwise minimum, then a full O(n³) closure (none when this
        zone already lies inside ``other``)."""
        # The zones of one search share one clock tuple, so identity
        # settles the check without comparing the lists.
        if self.clocks is not other.clocks and self.clocks != other.clocks:
            raise ValueError("zones over different clock lists")
        if self.cells is None or other.cells is None:
            return Dbm(self.clocks, None)
        return self._closed([min(a, b) for a, b in zip(self.cells, other.cells)])

    def constrain(self, c: ClockConstraint) -> "Dbm":
        """Intersect with a constraint: per edge that tightens a cell, an
        O(1) emptiness test and one O(n²) pass (``_tighten``), nothing for
        the others (this zone itself comes back when none does).  The
        edges are compiled once per constraint and clock tuple."""
        if self.cells is None:
            return self
        size = len(self.clocks) + 1
        grid = self.cells
        for a, b, raw in _edges(c, self.clocks):
            if raw < grid[a * size + b]:
                if grid is self.cells:
                    grid = list(grid)
                if not _tighten(grid, size, a, b, raw):
                    return Dbm(self.clocks, None)
        return self if grid is self.cells else Dbm(self.clocks, tuple(grid))

    def permute(self, index: Sequence[int]) -> "Dbm":
        """Cell k from cell ``index[k]``: closed when the index list renames
        clocks, (i, j) from (p(i), p(j)) for a permutation p fixing 0."""
        return Dbm(self.clocks, tuple([self.cells[k] for k in index]))

    def reset(self, resets: Sequence[ClockId]) -> "Dbm":
        """Set the given clocks to zero (the other dimensions keep their
        relations, i.e. assignment, not intersection with x = 0); a
        closed matrix stays closed, so the cost is O(n) per clock."""
        if self.cells is None:
            return self
        grid = list(self.cells)
        _reset(grid, len(self.clocks) + 1, [_index(self.clocks, clock) for clock in resets])
        return Dbm(self.clocks, tuple(grid))

    def free(self, clocks: Sequence[ClockId]) -> "Dbm":
        """Forget the given clocks: each may take any non-negative value,
        the others keep their relations (existential quantification, the
        clock staying in scope).  Row x unbounded and column x a copy of
        column 0 keep a closed matrix closed, so the cost is O(n) per
        clock, nothing when there is none."""
        if self.cells is None or not clocks:
            return self
        grid = list(self.cells)
        _free(grid, len(self.clocks) + 1, [_index(self.clocks, clock) for clock in clocks])
        return Dbm(self.clocks, tuple(grid))

    def elapse(self) -> "Dbm":
        """Future closure: every point shifted by every non-negative delay.

        Dropping the upper bounds (column 0) of a closed matrix keeps it
        closed, so no re-closure is needed: O(n).
        """
        if self.cells is None:
            return self
        size = len(self.clocks) + 1
        grid = list(self.cells)
        for i in range(1, size):
            grid[i * size] = INF
        return Dbm(self.clocks, tuple(grid))

    # -- one move in one pass --------------------------------------------

    @staticmethod
    def program(
        clocks: tuple[ClockId, ...],
        guard: ClockConstraint,
        resets: Sequence[ClockId],
        invariant: ClockConstraint,
        freed: Sequence[ClockId],
    ) -> Program:
        """A move compiled for ``step`` over the clock tuple: the guard, the
        resets, the target's invariant and the clocks freed there."""
        inv = _edges(invariant, clocks)
        return Program(
            _edges(guard, clocks),
            tuple(_index(clocks, clock) for clock in resets),
            inv,
            tuple(edge for edge in inv if edge[1] == 0),
            tuple(_index(clocks, clock) for clock in freed),
        )

    def step(self, p: Program) -> Optional["Dbm"]:
        """The zone after the move: ``constrain(guard)``, ``reset``,
        ``constrain(invariant)``, ``elapse``, ``constrain(invariant)`` and
        ``free``, cell for cell, in place on one grid; None when the guard
        or the invariant leaves nothing.

        After the delay only the invariant's upper bounds (i, 0, raw) are
        applied again.  That is exact: the delay changes column 0 alone
        and keeps the grid closed, so every other cell still holds the
        bound the first invariant pass left in it, at most the edge's.
        Nor can the upper bounds empty the zone, since the zone before
        the delay meets them."""
        if self.cells is None:
            return None
        guard, resets, invariant, upper, freed = p
        size = len(self.clocks) + 1
        grid = list(self.cells)
        for a, b, raw in guard:
            if raw < grid[a * size + b] and not _tighten(grid, size, a, b, raw):
                return None
        _reset(grid, size, resets)
        for a, b, raw in invariant:
            if raw < grid[a * size + b] and not _tighten(grid, size, a, b, raw):
                return None
        for i in range(size, size * size, size):  # as in ``elapse``
            grid[i] = INF
        for a, _, raw in upper:
            if raw < grid[a * size]:
                _tighten(grid, size, a, 0, raw)
        _free(grid, size, freed)
        return Dbm(self.clocks, tuple(grid))

    def includes(self, other: "Dbm") -> bool:
        """Does this zone contain ``other`` as a set?  A cellwise O(n²)
        check, exact because both matrices are canonical."""
        if self.clocks is not other.clocks and self.clocks != other.clocks:
            raise ValueError("zones over different clock lists")
        if other.cells is None:
            return True
        if self.cells is None:
            return False
        return all(map(operator.le, other.cells, self.cells))

    def extrapolate(self, k: Mapping[ClockId, int]) -> "Dbm":
        """Coarsen beyond the per-clock maximum constants.

        Upper bounds above k(xi) become unbounded and lower bounds below
        -k(xj) are clamped to strictly-beyond-k(xj); the result gets a
        full O(n³) closure when a cell changed (several cells may move
        at once, so no one-edge tightening applies).  Zones that only
        differ beyond the constants collapse to the same matrix, which is
        what makes exploration finite.
        """
        if self.cells is None:
            return self
        size = len(self.clocks) + 1
        # value(raw) > k(xi) is raw > (k, <=) and value(raw) < -k(xj) is
        # raw < (-k, <); INF and -INF leave row 0 and column 0 alone, and
        # the diagonal (0, <=) is never beyond a constant k >= 0.
        upper = [INF] + [bound(k[c], strict=False) for c in self.clocks]
        lower = [-INF] + [bound(-k[c], strict=True) for c in self.clocks]
        grid = list(self.cells)
        for i in range(size):
            up = upper[i]
            irow = i * size
            for j in range(size):
                raw = grid[irow + j]
                if up < raw < INF:
                    grid[irow + j] = INF
                elif raw < lower[j]:
                    grid[irow + j] = lower[j]
        return self._closed(grid)

    def extrapolate_lu(self, lower: Mapping[ClockId, int], upper: Mapping[ClockId, int]) -> "Dbm":
        """Extra⁺_LU (Behrmann, Bouyer, Larsen & Pelánek 2006) with the
        per-clock lower-bound constants L and upper-bound constants U.

        Off the diagonal, cell (i, j) becomes unbounded when it exceeds
        L(xi), or when xi's lower bound does; else, when xj's lower bound
        exceeds U(xj), it becomes unbounded (i > 0) or strictly beyond
        U(xj) (i = 0); the conditions read the cells of this zone.  A
        full O(n³) closure follows when a cell changed.  The result
        contains this zone, and it is sound for subsumption only without
        diagonal constraints.
        """
        if self.cells is None:
            return self
        size = len(self.clocks) + 1
        cells = self.cells
        # value(raw) > L(xi) is raw > (L, <=); a lower bound beyond a
        # constant c is a row 0 cell below (-c, <).  Row 0 is never above
        # (0, <=), so it needs no L.
        above_l = [INF] + [bound(lower[c], strict=False) for c in self.clocks]
        beyond_u = [-INF] + [bound(-upper[c], strict=True) for c in self.clocks]
        row_free = [False] + [cells[i] < bound(-lower[c], strict=True)
                              for i, c in enumerate(self.clocks, 1)]
        column_free = [cells[j] < beyond_u[j] for j in range(size)]
        grid = list(cells)
        for i in range(size):
            irow = i * size
            up = above_l[i]
            for j in range(size):
                raw = cells[irow + j]
                if i == j or raw == INF:
                    continue
                if row_free[i] or raw > up:
                    grid[irow + j] = INF
                elif column_free[j]:
                    grid[irow + j] = beyond_u[j] if i == 0 else INF
        return self._closed(grid)

    def to_constraint(self) -> ClockConstraint:
        """Atoms describing the zone exactly; ``true`` for the universe.

        One atom per finite off-diagonal cell, skipping the plain
        non-negativity entries, which every zone carries implicitly.
        An empty zone is rendered as the conventional contradiction
        ``x < 0`` on the first clock.
        """
        if self.cells is None:
            if not self.clocks:
                raise ValueError("cannot express the empty zone without clocks")
            return ClockConstraint((Atom(self.clocks[0], None, "<", 0),))
        size = len(self.clocks) + 1
        atoms = []
        for i in range(1, size):
            xi = self.clocks[i - 1]
            raw = self.cells[i * size]
            if raw != INF:
                atoms.append(Atom(xi, None, "<" if is_strict(raw) else "<=", value(raw)))
            raw = self.cells[i]
            if raw != INF and raw != ZERO_LE:
                atoms.append(Atom(xi, None, ">" if is_strict(raw) else ">=", -value(raw)))
        for i in range(1, size):
            for j in range(1, size):
                if i == j:
                    continue
                raw = self.cells[i * size + j]
                if raw != INF:
                    atoms.append(
                        Atom(
                            self.clocks[i - 1],
                            self.clocks[j - 1],
                            "<" if is_strict(raw) else "<=",
                            value(raw),
                        )
                    )
        return ClockConstraint(tuple(atoms))
