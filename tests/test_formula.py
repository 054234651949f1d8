"""The elimination backend, checked three ways: worked examples, the
cases that motivated its less obvious design choices, and random
cross-checks against the matrix backend (the two share no zone code).
"""

import ast
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    constraint_mask,
    elapse_mask,
    exists_mask,
    fm_entails,
    fm_equiv,
    fm_includes,
    formula_mask,
    grid,
    make_clocks,
    random_constraint,
    reset_mask,
)
from zonereach import dbm, formula as formula_module
from zonereach.bounds import INF, bound
from zonereach.dbm import Dbm
from zonereach.formula import (
    Formula,
    LinearAtom,
    fm_elapse,
    fm_exists,
    fm_extrapolate,
    fm_extrapolate_lu,
    fm_intersect,
    fm_is_empty,
    fm_reset,
)
from zonereach.model import Atom, ClockConstraint, ClockId

X = ClockId("x", 0)
Y = ClockId("y", 1)
CL = (X, Y)


def formula(*atoms) -> Formula:
    return Formula.from_constraint(ClockConstraint(atoms), CL)


def test_projection_combines_lower_and_upper():
    # eliminating x from {y - x <= 2, x <= 3} bounds y: y <= x + 2 <= 5
    g = fm_exists(formula(Atom(Y, X, "<=", 2), Atom(X, None, "<=", 3)), [X])
    assert g.clocks == (Y,)
    assert fm_entails(g, LinearAtom(Y, None, bound(5, False)))
    assert not fm_entails(g, LinearAtom(Y, None, bound(5, True)))
    # without the upper bound on x nothing constrains y from above
    h = fm_exists(formula(Atom(Y, X, "<=", 2)), [X])
    assert not fm_entails(h, LinearAtom(Y, None, bound(1000, False)))


def test_entailment_goes_through_zero():
    # no atom mentions x - y, yet x <= 3 with y >= 1 forces x - y <= 2
    f = formula(Atom(X, None, "<=", 3), Atom(Y, None, ">=", 1))
    assert fm_entails(f, LinearAtom(X, Y, bound(2, False)))
    assert not fm_entails(f, LinearAtom(X, Y, bound(2, True)))
    assert not fm_entails(f, LinearAtom(X, Y, bound(1, False)))


def test_strictness_propagates_through_combination():
    f = formula(Atom(X, None, "<", 3), Atom(Y, X, "<=", 2))
    assert fm_entails(f, LinearAtom(Y, None, bound(5, True)))  # y < 5


def test_ground_contradictions_are_detected():
    assert fm_is_empty(formula(Atom(X, None, "<", 0)))
    assert fm_is_empty(formula(Atom(X, Y, "<", -20), Atom(Y, X, "<", -20)))
    assert fm_is_empty(formula(Atom(X, None, "<", 2), Atom(X, None, ">", 2)))
    assert not fm_is_empty(formula(Atom(X, None, "<=", 2), Atom(X, None, ">=", 2)))


def test_reset_pins_zero_and_keeps_survivors():
    f = fm_reset(formula(Atom(Y, X, ">=", 1), Atom(Y, None, "<=", 4)), [X])
    assert fm_entails(f, LinearAtom(X, None, bound(0, False)))
    assert fm_entails(f, LinearAtom(None, Y, bound(-1, False)))  # y >= 1 survives
    assert not fm_entails(f, LinearAtom(None, Y, bound(-2, False)))


def test_free_projects_and_keeps_the_clock_in_scope():
    f = formula(Atom(X, Y, "<=", 2), Atom(Y, None, "<=", 3)).free([Y])
    assert f.clocks == CL
    assert fm_entails(f, LinearAtom(X, None, bound(5, False)))  # derived through y
    assert fm_entails(f, LinearAtom(None, Y, bound(0, False)))  # y >= 0 is kept
    assert not fm_entails(f, LinearAtom(Y, None, bound(1000, False)))
    empty = formula(Atom(X, None, "<", 0))
    assert empty.free([X]).is_empty() and f.free([]) is f


def test_elapse_keeps_differences_and_drops_uppers():
    f = fm_elapse(formula(Atom(X, None, "=", 1), Atom(Y, None, "=", 0)))
    assert fm_entails(f, LinearAtom(X, Y, bound(1, False)))
    assert fm_entails(f, LinearAtom(Y, X, bound(-1, False)))
    assert fm_entails(f, LinearAtom(None, X, bound(-1, False)))  # x >= 1
    assert not fm_entails(f, LinearAtom(X, None, bound(1000, False)))  # unbounded


def test_extrapolate_widens_closed_bounds_not_literal_atoms():
    """{x <= 3, y - x <= 2, y >= 5} is the single point (3, 5).  Widening
    the literal atom list with k(x) = 2 would drop x <= 3 and admit
    (4, 6), which the region abstraction does not justify; the closed
    bounds restore x = 3 via y."""
    f = formula(Atom(X, None, "<=", 3), Atom(Y, X, "<=", 2), Atom(Y, None, ">=", 5))
    e = fm_extrapolate(f, {X: 2, Y: 5})
    assert fm_equiv(e, f)
    assert fm_entails(e, LinearAtom(Y, None, bound(5, False)))  # (4, 6) stays out


def test_extrapolate_forgets_beyond_the_constant():
    f = formula(Atom(X, None, "=", 10))
    e = fm_extrapolate(f, {X: 5, Y: 0})
    assert fm_entails(e, LinearAtom(None, X, bound(-5, True)))  # x > 5
    assert not fm_entails(e, LinearAtom(X, None, bound(1000, False)))


def test_extrapolate_lu_drops_upper_bounds_past_l_and_lower_bounds_past_u():
    # x in [4, 6] with L(x) = 5, U(x) = 3: x <= 6 goes, x >= 4 becomes x > 3
    f = formula(Atom(X, None, ">=", 4), Atom(X, None, "<=", 6))
    e = fm_extrapolate_lu(f, {X: 5, Y: 0}, {X: 3, Y: 0})
    assert fm_equiv(e, formula(Atom(X, None, ">", 3)))
    kept = fm_extrapolate_lu(f, {X: 6, Y: 0}, {X: 3, Y: 0})
    assert fm_equiv(kept, formula(Atom(X, None, ">", 3), Atom(X, None, "<=", 6)))


def test_extrapolate_lu_grows_and_is_idempotent():
    rng = random.Random(71)
    for _ in range(150):
        n = rng.randint(1, 3)
        clocks = make_clocks(n)
        f = Formula.from_constraint(random_constraint(rng, clocks), clocks)
        if rng.random() < 0.5:
            f = fm_elapse(f)
        lower = {x: rng.choice((0, 1, 2, 5, 8)) for x in clocks}
        upper = {x: rng.choice((0, 1, 2, 5, 8)) for x in clocks}
        e = f.extrapolate_lu(lower, upper)
        assert e.includes(f)
        assert e.extrapolate_lu(lower, upper).closed_cells == e.closed_cells
        pts = grid(n)
        assert not (formula_mask(f, pts) & ~formula_mask(e, pts)).any()


def test_growth_stays_quadratic():
    rng = random.Random(41)
    clocks = make_clocks(4)
    cap = (len(clocks) + 1) ** 2
    f = Formula.from_constraint(random_constraint(rng, clocks, max_atoms=8), clocks)
    for _ in range(40):
        op = rng.randrange(4)
        if op == 0:
            f = fm_intersect(f, Formula.from_constraint(random_constraint(rng, clocks, max_atoms=4), clocks))
        elif op == 1:
            f = fm_elapse(f)
        elif op == 2:
            f = fm_reset(f, [rng.choice(clocks)])
        else:
            f = fm_extrapolate(f, {c: rng.randint(0, 10) for c in clocks})
        assert len(f.atoms) <= cap


def test_scope_and_constant_errors():
    ghost = ClockId("ghost", 9)
    with pytest.raises(ValueError):
        Formula.from_constraint(ClockConstraint((Atom(ghost, None, "<", 1),)), CL)
    with pytest.raises(ValueError):
        Formula.from_constraint(ClockConstraint((Atom(X, None, "<", Fraction(1, 2)),)), CL)
    with pytest.raises(ValueError):
        fm_exists(formula(), [ghost])
    with pytest.raises(ValueError):
        fm_intersect(formula(), Formula.from_constraint(ClockConstraint(), (X,)))


def test_includes_and_equiv_mirror_set_semantics():
    a = formula(Atom(X, None, "<=", 3))
    b = formula(Atom(X, None, "<=", 2), Atom(Y, None, "<", 1))
    assert fm_includes(a, b)
    assert not fm_includes(b, a)
    assert fm_equiv(a, formula(Atom(X, None, "<=", 3), Atom(X, None, "<=", 7)))
    empty1 = formula(Atom(X, None, "<", 0))
    empty2 = formula(Atom(Y, None, "<", -3))
    assert fm_equiv(empty1, empty2)
    assert fm_includes(b, empty1)
    # the cellwise method the search uses agrees
    assert a.includes(b) and not b.includes(a)
    assert b.includes(empty1) and not empty1.includes(b)


def test_includes_refuses_zones_over_different_clock_lists():
    """Cells are read by position, so ``x <= 1`` over (x, y) says nothing
    about ``y <= 1`` over (y, x); both backends refuse the comparison."""
    first = ClockConstraint((Atom(X, None, "<=", 1),))
    second = ClockConstraint((Atom(Y, None, "<=", 1),))
    for zone_type in (Formula, Dbm):
        zone = zone_type.from_constraint(first, (X, Y))
        with pytest.raises(ValueError, match="zones over different clock lists"):
            zone.includes(zone_type.from_constraint(second, (Y, X)))
        assert zone.includes(zone_type.from_constraint(first, [X, Y]))  # an equal list


def test_one_constraint_converts_per_clock_tuple(monkeypatch):
    calls = []
    convert = Formula.from_constraint.__func__

    def counted(cls, c, clocks):
        calls.append(tuple(clocks))
        return convert(cls, c, clocks)

    xy, yx = formula(), Formula.from_constraint(ClockConstraint(), (Y, X))
    monkeypatch.setattr(Formula, "from_constraint", classmethod(counted))
    c = ClockConstraint((Atom(X, None, "<=", 3), Atom(X, Y, "<", 1)))
    for _ in range(2):  # converted, then read back from the memo
        assert fm_entails(xy.constrain(c), LinearAtom(X, Y, bound(1, True)))
        assert fm_entails(yx.constrain(c), LinearAtom(X, Y, bound(1, True)))
    assert calls == [CL, (Y, X)] and set(c._formulas) == {CL, (Y, X)}
    # an equal constraint with a Fraction constant is refused, every time
    fraction = ClockConstraint((Atom(X, None, "<", Fraction(2)),))
    xy.constrain(ClockConstraint((Atom(X, None, "<", 2),)))
    for _ in range(2):
        with pytest.raises(ValueError, match="non-integer constant"):
            xy.constrain(fraction)
    assert fraction._formulas == {}


def test_includes_agrees_with_the_matrix_backend():
    """``Formula.includes`` reads the included zone's closed form only;
    the matrix backend compares two canonical matrices."""
    rng = random.Random(53)
    held = 0
    for _ in range(300):
        clocks = make_clocks(rng.randint(1, 3))
        constraints = [random_constraint(rng, clocks) for _ in range(2)]
        zones = [(Formula.from_constraint(c, clocks), Dbm.from_constraint(c, clocks)) for c in constraints]
        if rng.random() < 0.5:
            zones = [(fm_elapse(f), d.elapse()) for f, d in zones]
        if rng.random() < 0.5:
            lower, upper = ({x: rng.choice((0, 1, 3)) for x in clocks} for _ in range(2))
            f, d = zones[0]
            zones[0] = (f.extrapolate_lu(lower, upper), d.extrapolate_lu(lower, upper))
        (f, d), (g, e) = zones
        assert f.includes(g) == d.includes(e)
        held += d.includes(e)
    assert 30 < held < 270


def test_closed_cells_match_the_matrix_backend():
    """The tightest-bounds form of a formula is exactly the canonical
    matrix of the same zone, from 0 to 6 clocks and after every zone
    operation: the visited-set signatures of the two backends coincide.
    Emptiness comes from eliminating every clock, not from the pair
    projections: in the negative cycle each pair of atoms is satisfiable."""
    x, y, z = make_clocks(3)
    cycle = ClockConstraint((Atom(x, y, "<", 0), Atom(y, z, "<", 0), Atom(z, x, "<", 0)))
    for pair in itertools.combinations(cycle.atoms, 2):
        assert not Formula.from_constraint(ClockConstraint(pair), (x, y, z)).is_empty()
    rng = random.Random(43)
    cases = [((x, y, z), cycle)]
    for _ in range(500):
        clocks = make_clocks(rng.randint(0, 6))
        cases.append((clocks, random_constraint(rng, clocks) if clocks else ClockConstraint()))
    empty = 0
    for clocks, c in cases:
        f, d = Formula.from_constraint(c, clocks), Dbm.from_constraint(c, clocks)
        for _ in range(rng.randint(0, 3) if clocks else 0):
            op, picks = rng.randrange(4), rng.sample(clocks, rng.randint(1, len(clocks)))
            if op == 0:
                f, d = f.elapse(), d.elapse()
            elif op == 1:
                f, d = f.reset(picks), d.reset(picks)
            elif op == 2:
                f, d = f.free(picks), d.free(picks)
            else:
                lower, upper = ({k: rng.randint(0, 10) for k in clocks} for _ in range(2))
                f, d = f.extrapolate_lu(lower, upper), d.extrapolate_lu(lower, upper)
        assert f.closed_cells == d.cells
        assert (f.closed_cells is None) == f.is_empty() == d.is_empty()
        empty += d.is_empty()
    assert Formula.from_constraint(cycle, (x, y, z)).closed_cells is None
    assert 50 < empty < 400


def test_closure_projects_once_per_clock_pair(monkeypatch):
    """One closure of an n-clock formula runs at most C(n,2)(n-2) + n + 1
    elimination steps (n below two clocks), and exactly that many when
    the formula is not empty: n-2 per pair projection, one from a pair
    to each clock alone, and one to decide emptiness."""
    steps = []
    eliminate = formula_module._eliminate

    def counted(atoms, var):
        steps.append(var)
        return eliminate(atoms, var)

    rng = random.Random(67)
    reached = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        clocks = make_clocks(n)
        f = Formula.from_constraint(random_constraint(rng, clocks) if n else ClockConstraint(), clocks)
        if n and rng.random() < 0.5:
            f = f.elapse()
        with monkeypatch.context() as patch:
            patch.setattr(formula_module, "_eliminate", counted)
            steps.clear()
            empty = f.closed_cells is None
        cap = math.comb(n, 2) * (n - 2) + n + 1 if n > 1 else n
        assert len(steps) <= cap
        if not empty:
            assert len(steps) == cap
            reached += n == 4
    assert reached > 10


def test_pipeline_cross_check_against_matrices():
    """Random operation pipelines applied in lockstep must stay
    equivalent cell for cell."""
    rng = random.Random(47)
    for _ in range(120):
        clocks = make_clocks(rng.randint(1, 3))
        c = random_constraint(rng, clocks)
        f = Formula.from_constraint(c, clocks)
        z = Dbm.from_constraint(c, clocks)
        for _ in range(rng.randint(1, 5)):
            op = rng.randrange(6)
            if op == 0:
                other = random_constraint(rng, clocks, max_atoms=3)
                f = fm_intersect(f, Formula.from_constraint(other, clocks))
                z = z.intersect(Dbm.from_constraint(other, clocks))
            elif op == 4:
                other = random_constraint(rng, clocks, max_atoms=3)
                f, z = f.constrain(other), z.constrain(other)
            elif op == 1:
                f, z = fm_elapse(f), z.elapse()
            elif op == 2:
                picks = rng.sample(clocks, rng.randint(1, len(clocks)))
                f, z = fm_reset(f, picks), z.reset(picks)
            elif op == 5:
                lower = {x: rng.randint(0, 10) for x in clocks}
                upper = {x: rng.randint(0, 10) for x in clocks}
                f, z = fm_extrapolate_lu(f, lower, upper), z.extrapolate_lu(lower, upper)
            else:
                k = {x: rng.randint(0, 10) for x in clocks}
                f, z = fm_extrapolate(f, k), z.extrapolate(k)
            assert f.closed_cells == z.cells
            assert fm_is_empty(f) == z.is_empty()


def test_grid_membership_matches_the_oracle():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 3)
        clocks = make_clocks(n)
        pts = grid(n)
        c = random_constraint(rng, clocks)
        f = Formula.from_constraint(c, clocks)
        assert np.array_equal(formula_mask(f, pts), constraint_mask(c, clocks, pts))
        assert np.array_equal(formula_mask(fm_elapse(f), pts), elapse_mask(c, clocks, pts))
        var = rng.choice(clocks)
        assert np.array_equal(formula_mask(fm_reset(f, [var]), pts), reset_mask(c, clocks, var, pts))
        rest = tuple(x for x in clocks if x != var)
        if rest:
            sub = grid(len(rest))
            full = np.zeros((len(sub), n), dtype=np.int64)
            for i, x in enumerate(rest):
                full[:, x.index] = sub[:, i]
            assert np.array_equal(
                formula_mask(fm_exists(f, [var]), sub), exists_mask(c, clocks, var, full)
            )


def test_exists_order_does_not_matter():
    rng = random.Random(59)
    for _ in range(100):
        clocks = make_clocks(rng.randint(2, 4))
        f = Formula.from_constraint(random_constraint(rng, clocks), clocks)
        a, b = rng.sample(clocks, 2)
        one = fm_exists(fm_exists(f, [a]), [b])
        other = fm_exists(fm_exists(f, [b]), [a])
        joint = fm_exists(f, [a, b])
        assert fm_equiv(one, other) and fm_equiv(one, joint)


def _imported_modules(module) -> set[str]:
    """Absolute names of every module a source file imports from."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "zonereach" + (f".{base}" if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_the_two_backends_import_nothing_from_each_other():
    """The formula backend is an independent oracle for the matrices."""
    assert "zonereach.dbm" not in _imported_modules(formula_module)
    assert "zonereach.formula" not in _imported_modules(dbm)
    # nor does it read the matrix edges ``dbm`` compiles onto constraints
    names = set()
    for node in ast.walk(ast.parse(Path(formula_module.__file__).read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert "atoms" in names  # the walk sees the oracle's own atom handling
    assert not {"_dbm_edges", "_close", "_tighten"} & names


def test_the_package_imports_the_standard_library_only():
    """The runtime stays pure standard library.  Each source file is read,
    not imported: importing ``__main__`` would run the command line."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "zonereach"}
    sources = sorted(Path(dbm.__file__).parent.glob("*.py"))
    assert {"__main__.py", "dbm.py", "explorer.py"} <= {path.name for path in sources}
    seen = set()
    for path in sources:
        imported = _imported_modules(SimpleNamespace(__file__=path))
        outside = {name for name in imported if name.split(".")[0] not in allowed}
        assert not outside, f"{path.name} imports {sorted(outside)}"
        seen |= imported
    assert {"dataclasses", "zonereach.model", "zonereach.cli"} <= seen  # the walk sees both kinds
