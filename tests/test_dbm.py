"""Difference-bound matrices: worked examples with frozen expectations
(each independently confirmed against the grid oracle) and the
structural laws of the canonical form.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    _normalized,
    cell,
    constraint_mask,
    dbm_mask,
    elapse_mask,
    exists_mask,
    from_bounds,
    grid,
    make_clocks,
    random_constraint,
    reset_mask,
)
from zonereach.bounds import INF, ZERO_LE, bound, value
from zonereach import dbm as dbm_module
from zonereach.dbm import Dbm, _tighten
from zonereach.formula import Formula
from zonereach.model import Atom, ClockConstraint, ClockId, TRUE

X = ClockId("x", 0)
Y = ClockId("y", 1)
CL = (X, Y)


def zone(*atoms) -> Dbm:
    return Dbm.from_constraint(ClockConstraint(atoms), CL)


# -- worked examples, expectations frozen -------------------------------------


def test_closure_derives_the_indirect_bound():
    # x <= 3 and y - x <= 2 force y <= 5
    z = zone(Atom(X, None, "<=", 3), Atom(Y, X, "<=", 2))
    assert z.cells == (1, 1, 1, 7, 1, 7, 11, 5, 1)
    assert Atom(Y, None, "<=", 5) in z.to_constraint().atoms


def test_reset_keeps_the_other_clock_pinned_down():
    # resetting x in {y - x >= 1, y <= 4} leaves y in [1, 4], not [0, 4]
    z = zone(Atom(Y, X, ">=", 1), Atom(Y, None, "<=", 4))
    r = z.reset([X])
    assert r.cells == (1, 1, -1, 1, 1, -1, 9, 9, 1)
    atoms = set(r.to_constraint().atoms)
    assert Atom(Y, None, ">=", 1) in atoms
    assert Atom(X, None, "<=", 0) in atoms


def test_elapse_of_a_point_is_a_diagonal_ray():
    z = zone(Atom(X, None, "=", 1), Atom(Y, None, "=", 0))
    e = z.elapse()
    assert e.cells == (1, -1, 1, INF, 1, 3, INF, -1, 1)
    atoms = set(e.to_constraint().atoms)
    assert atoms == {Atom(X, None, ">=", 1), Atom(X, Y, "<=", 1), Atom(Y, X, "<=", -1)}


def test_extrapolate_forgets_beyond_the_constant():
    z = zone(Atom(X, None, "=", 10))
    e = z.extrapolate({X: 5, Y: 0})
    assert e.cells == (1, -10, 1, INF, 1, INF, INF, INF, 1)
    assert e.to_constraint().atoms == (Atom(X, None, ">", 5),)


def test_free_forgets_one_clock_and_keeps_what_it_implied():
    # freeing y in {x - y <= 2, y <= 3} keeps the derived x <= 5
    z = zone(Atom(X, Y, "<=", 2), Atom(Y, None, "<=", 3))
    f = z.free([Y])
    assert f.cells == (1, 1, 1, 11, 1, 11, INF, INF, 1)
    assert f.to_constraint().atoms == (Atom(X, None, "<=", 5), Atom(X, Y, "<=", 5))
    assert z.free([]) is z
    assert Dbm(CL, None).free([X]).is_empty()


def test_universe_and_empty_extremes():
    u = Dbm.universe(CL)
    assert not u.is_empty()
    assert u.to_constraint() == TRUE
    contradiction = zone(Atom(X, None, "<", 0))
    assert contradiction.is_empty()
    assert contradiction.cells is None
    # an empty zone still prints as an unsatisfiable constraint
    assert not contradiction.to_constraint().holds({X: 0, Y: 0})


def test_strictness_survives_closure():
    z = zone(Atom(X, None, "<", 3), Atom(Y, X, "<=", 2))
    assert cell(z, 2, 0) == bound(5, strict=True)  # y < 5, not y <= 5


def test_intersect_detects_disjointness():
    a = zone(Atom(X, None, "<", 1))
    b = zone(Atom(X, None, ">", 1))
    assert a.intersect(b).is_empty()
    c = zone(Atom(X, None, "<=", 1))
    d = zone(Atom(X, None, ">=", 1))
    meet = c.intersect(d)
    assert not meet.is_empty()
    assert cell(meet, 1, 0) == bound(1, False) and cell(meet, 0, 1) == bound(-1, False)


def test_from_bounds_rejects_bad_grids():
    with pytest.raises(ValueError):
        from_bounds(CL, [ZERO_LE] * 4)  # wrong size


def test_from_bounds_hands_out_canonical_zones_only():
    # a grid that leaves the diagonal and row 0 open is still a zone of
    # non-negative clocks: the universe, not a matrix that includes it
    free = from_bounds(CL, [INF] * 9)
    u = Dbm.universe(CL)
    assert free.key == u.key
    assert free.includes(u) and u.includes(free)
    negative_diagonal = [ZERO_LE] * 9
    negative_diagonal[4] = bound(0, strict=True)  # y - y < 0
    assert from_bounds(CL, negative_diagonal).is_empty()


def test_unknown_clock_is_named():
    with pytest.raises(ValueError, match="unknown clock 'W'$"):
        zone(Atom(ClockId("W", 2), None, "<=", 1))


def test_zones_over_different_clock_lists_are_refused():
    a = zone(Atom(X, None, "<=", 1))
    equal_list = tuple(list(CL))
    assert equal_list is not CL
    b = Dbm.from_constraint(ClockConstraint((Atom(X, None, "<=", 2),)), equal_list)
    assert b.includes(a) and not a.includes(b)
    assert a.intersect(b).key == a.key
    for other_list in ((Y, X), (X,), (X, Y, ClockId("z", 2))):
        other = Dbm.universe(other_list)
        for left, right in ((a, other), (other, a)):
            for op in (left.includes, left.intersect):
                with pytest.raises(ValueError, match="^zones over different clock lists$"):
                    op(right)


@pytest.mark.parametrize(
    "bad, message",
    [
        (Atom(ClockId("W", 2), None, "<=", 1), "unknown clock 'W'$"),
        (Atom(X, None, "<=", 1.5), "non-integer constant 1.5"),
        (Atom(X, Y, "!=", 1), "unknown operator '!='"),
    ],
)
def test_every_atom_is_checked_even_past_an_empty_prefix(bad, message):
    with pytest.raises(ValueError, match=message):
        zone(bad)
    with pytest.raises(ValueError, match=message):
        zone(Atom(X, None, "<", 1), Atom(X, None, ">", 1), bad)


# -- one-edge tightening and the compiled edges --------------------------------


def test_tighten_finds_a_strict_zero_cycle_empty_before_any_pass():
    # x >= 2, then x < 2: raw + D[0][1] is (2, <) + (-2, <=) = (0, <)
    z = zone(Atom(X, None, ">=", 2))
    grid = list(z.cells)
    assert not _tighten(grid, 3, 1, 0, bound(2, strict=True))
    assert grid == list(z.cells)  # nothing written
    assert z.constrain(ClockConstraint((Atom(X, None, "<", 2),))).cells is None


def test_tighten_keeps_a_weak_zero_cycle():
    # x >= 2, then x <= 2: raw + D[0][1] is exactly (0, <=), the point x = 2
    z = zone(Atom(X, None, ">=", 2))
    grid = list(z.cells)
    assert _tighten(grid, 3, 1, 0, bound(2, strict=False))
    assert grid == [1, -3, 1, 5, 1, 5, INF, INF, 1]
    assert from_bounds(CL, grid).cells == tuple(grid)
    assert z.constrain(ClockConstraint((Atom(X, None, "<=", 2),))).cells == tuple(grid)


def test_tighten_through_unbounded_cells():
    # x - y <= -1 on the universe: D[y][x] is INF, so there is no cycle to
    # test, and column x and row y are INF but for row 0 and the diagonal;
    # the pass derives y >= 1 through the finite cells alone
    grid = list(Dbm.universe(CL).cells)
    assert _tighten(grid, 3, 1, 2, bound(-1, strict=False))
    assert grid == [1, 1, -1, INF, 1, -1, INF, INF, 1]
    assert from_bounds(CL, grid).cells == tuple(grid)


def test_one_constraint_compiles_per_clock_tuple():
    c = ClockConstraint((Atom(X, None, "<=", 3), Atom(X, Y, "<", 1)))
    for _ in range(2):  # compiled, then read back from the memo
        xy = Dbm.universe((X, Y)).constrain(c)
        yx = Dbm.universe((Y, X)).constrain(c)
        assert cell(xy, 1, 0) == cell(yx, 2, 0) == bound(3, strict=False)
        assert cell(xy, 1, 2) == cell(yx, 2, 1) == bound(1, strict=True)
        assert cell(xy, 2, 0) == cell(yx, 1, 0) == INF
    assert set(c._dbm_edges) == {(X, Y), (Y, X)}


@pytest.mark.parametrize(
    "bad, message",
    [
        (Atom(ClockId("W", 2), None, "<=", 1), "unknown clock 'W'$"),
        (Atom(X, None, "<=", 1.5), "non-integer constant 1.5"),
        (Atom(X, Y, "!=", 1), "unknown operator '!='"),
    ],
)
def test_an_invalid_constraint_raises_on_every_call(bad, message):
    c = ClockConstraint((Atom(X, None, "<", 1), bad))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            Dbm.universe(CL).constrain(c)
    assert c._dbm_edges == {}


def test_an_equal_constraint_with_a_fraction_is_still_refused():
    whole = ClockConstraint((Atom(X, None, "<", 2),))
    Dbm.universe(CL).constrain(whole)
    fraction = ClockConstraint((Atom(X, None, "<", Fraction(2)),))
    assert fraction == whole
    with pytest.raises(ValueError, match="non-integer constant"):
        Dbm.universe(CL).constrain(fraction)


def test_compiling_leaves_equality_and_hash_alone():
    c = ClockConstraint((Atom(X, None, "<=", 3), Atom(Y, X, ">", 1)))
    fresh = ClockConstraint(c.atoms)
    Dbm.universe(CL).constrain(c)
    assert c._dbm_edges and "_dbm_edges" not in vars(fresh)
    assert c == fresh and hash(c) == hash(fresh)
    assert repr(c) == repr(fresh)


def test_constrain_runs_no_full_closure(monkeypatch):
    callers = Counter()

    def counted(grid, size):
        callers[sys._getframe(1).f_code.co_name] += 1
        return close(grid, size)

    close = dbm_module._close
    monkeypatch.setattr(dbm_module, "_close", counted)
    rng = random.Random(71)
    tightened = empties = 0
    for _ in range(300):
        clocks = make_clocks(rng.randint(1, 5))
        z = random_zone(rng, clocks).elapse()
        got = z.constrain(random_atoms(rng, clocks))
        tightened += got is not z
        empties += got.is_empty()
    assert not callers
    assert tightened > 150 and empties > 30
    # the full closure is reached from ``_closed`` alone
    for _ in range(100):
        clocks = make_clocks(rng.randint(1, 4))
        z, w = random_zone(rng, clocks), random_zone(rng, clocks)
        z.intersect(w)
        z.elapse().extrapolate({c: 2 for c in clocks})
        z.elapse().extrapolate_lu(*random_bounds(rng, clocks))
        z.reset(clocks[:1]).free(clocks[-1:])
    assert set(callers) == {"_closed"}


# -- structural laws over random zones ----------------------------------------


def random_zone(rng, clocks):
    return Dbm.from_constraint(random_constraint(rng, clocks), clocks)


def test_canonical_form_is_unique():
    rng = random.Random(7)
    for _ in range(200):
        clocks = make_clocks(rng.randint(1, 4))
        c = random_constraint(rng, clocks)
        atoms = list(c.atoms)
        rng.shuffle(atoms)
        if atoms:
            atoms.append(rng.choice(atoms))  # duplicates change nothing
        z1 = Dbm.from_constraint(c, clocks)
        z2 = Dbm.from_constraint(ClockConstraint(tuple(atoms)), clocks)
        assert z1.cells == z2.cells
        if z1.cells is not None:  # closure is idempotent
            assert from_bounds(clocks, z1.cells).cells == z1.cells


def test_includes_is_a_partial_order():
    rng = random.Random(11)
    for _ in range(200):
        clocks = make_clocks(rng.randint(1, 3))
        a, b, c = (random_zone(rng, clocks) for _ in range(3))
        assert a.includes(a)
        if a.includes(b) and b.includes(a):
            assert a.key == b.key
        if a.includes(b) and b.includes(c):
            assert a.includes(c)
        assert a.includes(a.intersect(b))
        assert Dbm.universe(clocks).includes(a)
        assert a.includes(Dbm.from_constraint(ClockConstraint((Atom(clocks[0], None, "<", 0),)), clocks))


def test_elapse_grows_and_is_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        clocks = make_clocks(rng.randint(1, 3))
        z = random_zone(rng, clocks)
        e = z.elapse()
        assert e.includes(z)
        assert e.elapse().cells == e.cells


def test_extrapolate_grows_and_is_idempotent():
    rng = random.Random(17)
    for _ in range(200):
        clocks = make_clocks(rng.randint(1, 3))
        z = random_zone(rng, clocks)
        k = {c: rng.randint(0, 10) for c in clocks}
        e = z.extrapolate(k)
        assert e.includes(z)
        assert e.extrapolate(k).cells == e.cells


def test_extrapolate_within_constants_is_identity():
    rng = random.Random(19)
    for _ in range(100):
        clocks = make_clocks(rng.randint(1, 3))
        z = random_zone(rng, clocks)
        if z.cells is None:
            continue
        big = max((abs(c) for c in map(lambda r: r >> 1, z.cells) if c < (INF >> 1)), default=0)
        # nothing changed, so nothing is re-closed: the zone itself comes back
        assert z.extrapolate({c: big for c in clocks}) is z
        assert z.intersect(Dbm.universe(clocks)) is z


def test_reset_composes_clock_by_clock():
    rng = random.Random(23)
    for _ in range(150):
        clocks = make_clocks(rng.randint(2, 4))
        z = random_zone(rng, clocks)
        pair = rng.sample(clocks, 2)
        joint = z.reset(pair)
        assert joint.cells == z.reset([pair[0]]).reset([pair[1]]).cells
        assert joint.cells == z.reset([pair[1]]).reset([pair[0]]).cells
        if joint.cells is not None:  # reset keeps closure
            assert from_bounds(clocks, joint.cells).cells == joint.cells


def test_constrain_is_intersection_with_the_constraint_zone():
    rng = random.Random(31)
    for _ in range(200):
        clocks = make_clocks(rng.randint(1, 4))
        z = random_zone(rng, clocks)
        c = random_constraint(rng, clocks, max_atoms=3)
        assert z.constrain(c).cells == z.intersect(Dbm.from_constraint(c, clocks)).cells


def random_atoms(rng, clocks):
    """Atoms on single clocks and on differences (diagonal atoms), with
    ``=`` and with pairs that contradict or only just touch."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        lhs = rng.choice(clocks)
        rhs = rng.choice([None] + [c for c in clocks if c != lhs])
        const = rng.randint(-3, 8)
        atoms.append(Atom(lhs, rhs, rng.choice(("<", "<=", "=", ">=", ">")), const))
        if rng.random() < 0.2:
            atoms.append(Atom(lhs, rhs, "<=", const))
            atoms.append(Atom(lhs, rhs, rng.choice((">", ">=")), const))
    return ClockConstraint(tuple(atoms))


def test_constrain_equals_the_fully_closed_tightened_grid():
    rng = random.Random(41)
    empties = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        clocks = make_clocks(n)
        z = Dbm.from_constraint(random_constraint(rng, clocks, max_atoms=3), clocks).elapse()
        if z.cells is None:
            continue
        c = random_atoms(rng, clocks)
        index = {None: 0} | {clock: i + 1 for i, clock in enumerate(clocks)}
        size = n + 1
        grid = list(z.cells)
        for lhs, rhs, strict, const in _normalized(c.atoms):
            at = index[lhs] * size + index[rhs]
            grid[at] = min(grid[at], bound(const, strict))
        expected = from_bounds(clocks, grid)
        got = z.constrain(c)
        assert got.cells == expected.cells
        assert (got is z) == (expected.cells == z.cells)
        empties += got.is_empty()
    assert 80 < empties < 240  # both outcomes are exercised


def reference_extrapolate(z, k):
    """Extra_M from its definition, on bound values, then a full closure."""
    size = len(z.clocks) + 1
    limit = [0] + [k[c] for c in z.clocks]
    grid = list(z.cells)
    for i in range(size):
        for j in range(size):
            raw = grid[i * size + j]
            if i == j or raw == INF:
                continue
            if i > 0 and value(raw) > limit[i]:
                grid[i * size + j] = INF
            elif j > 0 and value(raw) < -limit[j]:
                grid[i * size + j] = bound(-limit[j], strict=True)
    return from_bounds(z.clocks, grid)


def test_extrapolate_matches_its_definition():
    rng = random.Random(43)
    changed = 0
    for _ in range(400):
        clocks = make_clocks(rng.randint(1, 6))
        z = random_zone(rng, clocks)
        if rng.random() < 0.5:
            z = z.elapse()
        if z.cells is None:
            continue
        k = {c: rng.choice((0, 0, 1, 2, 3, 5, 8)) for c in clocks}
        got = z.extrapolate(k)
        assert got.cells == reference_extrapolate(z, k).cells
        changed += got is not z
    assert changed > 100


def reference_extrapolate_lu(z, lower, upper):
    """Extra⁺_LU from the case table of Behrmann, Bouyer, Larsen &
    Pelánek (2006), on bound values, then a full closure.  With c the
    bounds of z and x0 the reference clock, cell (i, j), i != j, is

        INF         if c_ij > L(xi)
        INF         if -c_0i > L(xi)
        INF         if -c_0j > U(xj) and i != 0
        (-U(xj), <) if -c_0j > U(xj) and i == 0
        c_ij        otherwise

    where L(x0) = U(x0) = 0."""
    size = len(z.clocks) + 1
    big_l = [0] + [lower[c] for c in z.clocks]
    big_u = [0] + [upper[c] for c in z.clocks]
    c = z.cells
    grid = list(c)
    for i in range(size):
        for j in range(size):
            raw = c[i * size + j]
            if i == j or raw == INF:
                continue
            if value(raw) > big_l[i] or -value(c[i]) > big_l[i]:
                grid[i * size + j] = INF
            elif -value(c[j]) > big_u[j]:
                grid[i * size + j] = INF if i else bound(-big_u[j], strict=True)
    return from_bounds(z.clocks, grid)


def random_bounds(rng, clocks):
    """L and U per clock, often 0 and sometimes far apart."""
    return ({c: rng.choice((0, 0, 1, 2, 3, 5, 8)) for c in clocks},
            {c: rng.choice((0, 0, 1, 2, 3, 5, 8)) for c in clocks})


def test_extrapolate_lu_matches_its_definition():
    rng = random.Random(61)
    changed = 0
    for _ in range(400):
        clocks = make_clocks(rng.randint(1, 6))
        z = random_zone(rng, clocks)
        if rng.random() < 0.5:
            z = z.elapse()
        if z.cells is None:
            continue
        lower, upper = random_bounds(rng, clocks)
        got = z.extrapolate_lu(lower, upper)
        assert got.cells == reference_extrapolate_lu(z, lower, upper).cells
        changed += got is not z
    assert changed > 100
    assert Dbm(CL, None).extrapolate_lu({X: 0, Y: 0}, {X: 0, Y: 0}).is_empty()


def test_extrapolate_lu_grows_and_is_idempotent():
    rng = random.Random(67)
    for _ in range(300):
        clocks = make_clocks(rng.randint(1, 4))
        z = random_zone(rng, clocks)
        if rng.random() < 0.5:
            z = z.elapse()
        lower, upper = random_bounds(rng, clocks)
        e = z.extrapolate_lu(lower, upper)
        assert e.includes(z)
        assert e.extrapolate_lu(lower, upper).cells == e.cells


def test_extrapolate_lu_with_separate_bounds():
    # x in [4, 6] with L(x) = 5, U(x) = 3: the upper bound 6 exceeds L and
    # goes, the lower bound 4 exceeds U and becomes x > 3
    z = zone(Atom(X, None, ">=", 4), Atom(X, None, "<=", 6))
    e = z.extrapolate_lu({X: 5, Y: 0}, {X: 3, Y: 0})
    assert e.to_constraint().atoms == (Atom(X, None, ">", 3),)
    # with L(x) = 6 the upper bound stays; Extra_M with k = max(L, U)
    # keeps the lower bound too
    kept = z.extrapolate_lu({X: 6, Y: 0}, {X: 3, Y: 0})
    assert kept.cells == zone(Atom(X, None, ">", 3), Atom(X, None, "<=", 6)).cells
    assert z.extrapolate({X: 6, Y: 0}) is z


def test_free_grows_stays_canonical_and_composes():
    rng = random.Random(23)
    for _ in range(200):
        clocks = make_clocks(rng.randint(2, 4))
        z = random_zone(rng, clocks)
        a, b = rng.sample(clocks, 2)
        f = z.free([a])
        assert f.includes(z)
        if f.cells is not None:
            assert from_bounds(clocks, f.cells).cells == f.cells
        assert f.free([a]).cells == f.cells
        assert f.free([b]).cells == z.free([b, a]).cells == z.free([b]).free([a]).cells


def random_move(rng, clocks):
    """A guard, resets, an invariant and freed clocks over the clocks, the
    constraints with strict, ``=`` and diagonal atoms (``true`` without
    clocks)."""
    guard = random_atoms(rng, clocks) if clocks else TRUE
    invariant = random_atoms(rng, clocks) if clocks and rng.random() < 0.8 else TRUE
    resets = tuple(rng.sample(clocks, rng.randint(0, len(clocks))))
    freed = tuple(c for c in clocks if rng.random() < 0.3)
    return guard, resets, invariant, freed


def stepped_by_hand(z, guard, resets, invariant, freed):
    """The move as the chain of zone operations, and the stage that
    emptied it (None when the result is not empty)."""
    z = z.constrain(guard)
    if z.is_empty():
        return None, "guard"
    z = z.reset(resets).constrain(invariant)
    if z.is_empty():
        return None, "invariant"
    return z.elapse().constrain(invariant).free(freed), None


def test_step_is_the_chain_of_zone_operations():
    rng = random.Random(89)
    stages = Counter()
    for _ in range(1000):
        clocks = make_clocks(rng.randint(0, 5))
        z = random_zone(rng, clocks) if clocks else Dbm.universe(clocks)
        if z.is_empty():
            continue
        if rng.random() < 0.5:
            z = z.elapse()
        move = random_move(rng, clocks)
        cells = z.cells
        got = z.step(Dbm.program(clocks, *move))
        want, stage = stepped_by_hand(z, *move)
        assert z.cells is cells
        assert (got is None) == (want is None)
        if got is not None:
            assert got.cells == want.cells
            assert from_bounds(clocks, got.cells).cells == got.cells  # canonical
        stages[stage] += 1
    assert min(stages[s] for s in (None, "guard", "invariant")) > 100


def test_formula_step_is_its_own_chain_and_agrees_with_the_dbm():
    rng = random.Random(97)
    stages = Counter()
    for _ in range(150):
        clocks = make_clocks(rng.randint(0, 5))
        c = random_constraint(rng, clocks, max_atoms=3) if clocks else TRUE
        f = Formula.from_constraint(c, clocks)
        if f.is_empty():
            continue
        move = random_move(rng, clocks)
        got = f.step(Formula.program(clocks, *move))
        want, stage = stepped_by_hand(f, *move)
        assert (got is None) == (want is None)
        stepped = Dbm.from_constraint(c, clocks).step(Dbm.program(clocks, *move))
        if got is None:
            assert stepped is None
        else:
            assert got.atoms == want.atoms
            assert got.closed_cells == stepped.cells
        stages[stage] += 1
    assert min(stages[s] for s in (None, "guard", "invariant")) > 10


def test_to_constraint_roundtrips():
    rng = random.Random(31)
    for _ in range(200):
        clocks = make_clocks(rng.randint(1, 4))
        z = random_zone(rng, clocks)
        assert Dbm.from_constraint(z.to_constraint(), clocks).cells == z.cells


# -- grid exactness (the acceptance run does 1000; this is the smoke dose) ----


def test_grid_membership_matches_the_oracle():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 3)
        clocks = make_clocks(n)
        pts = grid(n)
        c1 = random_constraint(rng, clocks)
        c2 = random_constraint(rng, clocks, max_atoms=3)
        z1 = Dbm.from_constraint(c1, clocks)
        assert np.array_equal(dbm_mask(z1, pts), constraint_mask(c1, clocks, pts))
        both = constraint_mask(c1, clocks, pts) & constraint_mask(c2, clocks, pts)
        assert np.array_equal(dbm_mask(z1.intersect(Dbm.from_constraint(c2, clocks)), pts), both)
        assert np.array_equal(dbm_mask(z1.elapse(), pts), elapse_mask(c1, clocks, pts))
        var = rng.choice(clocks)
        assert np.array_equal(dbm_mask(z1.reset([var]), pts), reset_mask(c1, clocks, var, pts))
        assert np.array_equal(dbm_mask(z1.free([var]), pts), exists_mask(c1, clocks, var, pts))
        # the abstraction contains the zone: Z <= Extra+_LU(Z) point by point
        lower, upper = random_bounds(rng, clocks)
        inside = dbm_mask(z1, pts)
        assert not (inside & ~dbm_mask(z1.extrapolate_lu(lower, upper), pts)).any()
