import random
from fractions import Fraction

import pytest

import gen
from oracles import constraint_clocks
from test_parser import random_network
from zonereach import parse_query, parse_spec
from zonereach.model import (
    Atom,
    Automaton,
    ClockConstraint,
    ClockId,
    LabelId,
    LocationId,
    Network,
    Query,
    StatePattern,
    TRUE,
    Transition,
    ValidationError,
    max_constants,
    network_diagnostics,
    normalize_constants,
    scale_constant,
    validate,
)

X = ClockId("x", 0)
Y = ClockId("y", 1)
S0 = LocationId("s0", 0)
S1 = LocationId("s1", 1)
A = LabelId("a", 0)


def small_net(**overrides) -> Network:
    aut = Automaton(
        locations=(S0, S1),
        alphabet=(A,),
        invariants={S0: TRUE, S1: ClockConstraint((Atom(X, None, "<=", 5),))},
        transitions=(Transition(S0, A, ClockConstraint((Atom(X, None, ">=", 1),)), (Y,), S1),),
    )
    fields = dict(
        name="demo",
        clocks=(X, Y),
        locations=(S0, S1),
        labels=(A,),
        automata=(aut,),
    )
    fields.update(overrides)
    return Network(**fields)


def test_well_formed_net_has_no_diagnostics():
    assert network_diagnostics(small_net()) == []
    assert validate(small_net()) == small_net()


@pytest.mark.parametrize(
    "breakage, fragment",
    [
        (dict(clocks=(X, ClockId("x", 1))), "duplicate clock"),
        (dict(clocks=(ClockId("x", 3),)), "ordinal"),
        (dict(labels=()), "not in the global declaration"),
        (dict(locations=(S0,)), "not in the global declaration"),
    ],
)
def test_structural_breakage_is_reported(breakage, fragment):
    diags = network_diagnostics(small_net(**breakage))
    assert any(fragment in d for d in diags), diags


def test_validate_collects_everything():
    aut = Automaton(
        locations=(S0, S1),
        alphabet=(A,),
        invariants={S0: TRUE},  # S1 missing
        transitions=(
            Transition(S0, LabelId("ghost", 7), TRUE, (Y, Y), S1),  # foreign label, repeated reset
        ),
    )
    net = small_net(automata=(aut,))
    with pytest.raises(ValidationError) as err:
        validate(net)
    text = "\n".join(err.value.diagnostics)
    assert "no invariant entry" in text
    assert "alphabet" in text
    assert "repeated clock in reset list" in text


def test_foreign_invariant_and_undeclared_clock():
    other = ClockId("ghost", 9)
    aut = Automaton(
        locations=(S0,),
        alphabet=(A,),
        invariants={S0: TRUE, S1: TRUE},
        transitions=(Transition(S0, A, ClockConstraint((Atom(other, None, "<", 1),)), (), S0),),
    )
    diags = network_diagnostics(small_net(locations=(S0,), automata=(aut,)))
    assert any("foreign location" in d for d in diags)
    assert any("undeclared clock 'ghost'" in d for d in diags)


def test_location_claimed_twice_across_automata():
    aut1 = Automaton((S0,), (A,), {S0: TRUE}, ())
    aut2 = Automaton((S0, S1), (A,), {S0: TRUE, S1: TRUE}, ())
    diags = network_diagnostics(small_net(automata=(aut1, aut2)))
    assert any("also belongs to automaton 0" in d for d in diags)


def test_location_listed_twice_in_one_automaton():
    aut = Automaton((S0, S0, S1), (A,), {S0: TRUE, S1: TRUE}, ())
    diags = network_diagnostics(small_net(automata=(aut,)))
    assert diags == ["automaton 0: location 's0' is listed twice"]


def test_atom_holds_every_operator():
    v = {X: Fraction(3), Y: Fraction(1)}
    assert Atom(X, None, "<", 4).holds(v)
    assert not Atom(X, None, "<", 3).holds(v)
    assert Atom(X, None, "<=", 3).holds(v)
    assert Atom(X, None, "=", 3).holds(v)
    assert Atom(X, None, ">=", 3).holds(v)
    assert Atom(X, None, ">", 2).holds(v)
    assert Atom(X, Y, "=", 2).holds(v)
    assert not Atom(Y, X, ">", -2).holds(v)


def test_constraint_true_and_holds():
    assert TRUE.is_true
    assert TRUE.holds({})
    c = ClockConstraint((Atom(X, None, "<=", 2), Atom(Y, None, ">", 1)))
    assert not c.is_true
    assert c.holds({X: 2, Y: Fraction(3, 2)})
    assert not c.holds({X: 2, Y: 1})


def test_normalize_scales_to_integers():
    guard = ClockConstraint((Atom(X, None, ">", Fraction(1, 2)),))
    inv = ClockConstraint((Atom(X, None, "<=", Fraction(5, 2)),))
    aut = Automaton(
        (S0, S1), (A,), {S0: TRUE, S1: inv}, (Transition(S0, A, guard, (), S1),)
    )
    net = normalize_constants(small_net(automata=(aut,)))
    assert net.scale == 2
    assert net.automata[0].transitions[0].guard.atoms[0].const == 1
    assert net.automata[0].invariants[S1].atoms[0].const == 5
    # already-integral networks pass through untouched
    again = normalize_constants(net)
    assert again.scale == 2 and again == net


def test_normalize_composes_scales():
    guard = ClockConstraint((Atom(X, None, ">", Fraction(1, 3)),))
    aut = Automaton((S0,), (A,), {S0: TRUE}, (Transition(S0, A, guard, (), S0),))
    once = normalize_constants(small_net(locations=(S0,), automata=(aut,)))
    assert once.scale == 3
    assert once.automata[0].transitions[0].guard.atoms[0].const == 1


def test_scale_constant_for_queries():
    with pytest.raises(ValueError):
        scale_constant(Fraction(3, 2), 1)  # scale 1 cannot carry 1.5
    assert scale_constant(Fraction(3, 2), 2) == 3


def test_max_constants_uses_magnitudes():
    guard = ClockConstraint((Atom(X, Y, "<", -7),))
    inv = ClockConstraint((Atom(X, None, "<=", 5),))
    aut = Automaton((S0, S1), (A,), {S0: inv, S1: TRUE}, (Transition(S0, A, guard, (), S1),))
    net = small_net(automata=(aut,))
    k = max_constants(net)
    assert k == {X: 7, Y: 7}
    query = Query(
        StatePattern((S0,), TRUE),
        StatePattern((S1,), ClockConstraint((Atom(Y, None, ">", 9),))),
    )
    assert max_constants(net, query) == {X: 7, Y: 9}


def test_max_constants_defaults_to_zero():
    aut = Automaton((S0,), (A,), {S0: TRUE}, ())
    net = small_net(locations=(S0,), automata=(aut,))
    assert max_constants(net) == {X: 0, Y: 0}


def _atom_walk(net, query):
    """``max_constants`` as a walk over every atom: per clock the largest
    magnitude of any guard, invariant or query atom that reads it."""
    k = {clock: 0 for clock in net.clocks}
    constraints = [inv for aut in net.automata for inv in aut.invariants.values()]
    constraints += [t.guard for aut in net.automata for t in aut.transitions]
    if query is not None:
        constraints += [query.source.constraint, query.target.constraint]
    for c in constraints:
        for atom in c.atoms:
            for clock in (atom.lhs, atom.rhs):
                if clock is not None:
                    k[clock] = max(k[clock], abs(int(atom.const)))
    return k


def _random_atoms(rng, net):
    atoms = []
    for _ in range(rng.randint(0, 3)):
        lhs = rng.choice(net.clocks)
        others = [c for c in net.clocks if c != lhs]
        rhs = rng.choice(others) if others and rng.random() < 0.4 else None
        op = rng.choice(("<", "<=", "=", ">=", ">"))
        atoms.append(Atom(lhs, rhs, op, rng.randint(-9, 9) * net.scale))
    return ClockConstraint(tuple(atoms))


def test_max_constants_equals_the_walk_over_every_atom():
    rng = random.Random(14)
    diagonal = 0
    for _ in range(500):
        net = normalize_constants(validate(random_network(rng)))
        diagonal += net.has_diagonal
        locations = tuple(aut.locations[0] for aut in net.automata)
        query = Query(StatePattern(locations, _random_atoms(rng, net)),
                      StatePattern(locations, _random_atoms(rng, net)))
        assert max_constants(net) == _atom_walk(net, None)
        assert max_constants(net, query) == _atom_walk(net, query)
    assert diagonal > 100


def names(ids):
    return [x.name for x in ids]


def test_an_entry_is_kept_per_vector_and_goal_constraint(train_net):
    def target(text):
        return parse_query(f"go(Far.Up.u0.nil/true, In.Down.u0.nil/{text})", train_net).target

    net = train_net
    low, high, reads_z = target("X<=1 ^ true"), target("X<=7 ^ true"), target("Z>1 ^ true")
    vector = low.locations
    entry = net.entry(vector, low.constraint)
    assert entry is net.entry(vector, low.constraint)
    assert entry is net.entry(vector, ClockConstraint(low.constraint.atoms))  # equal, not same
    # one vector, two goal constants: X's U follows the goal's X<=c, and
    # never drops below the invariant's X<=5 at In
    by_name = {c.name: c for c in net.clocks}
    x = by_name["X"]
    assert (entry.lower[x], entry.upper[x]) == (0, 5)
    wide = net.entry(vector, high.constraint)
    assert (wide.lower[x], wide.upper[x]) == (0, 7)
    # one vector, goals reading different clocks: each keeps its own
    assert names(entry.freed) == ["Y", "Z"]
    assert names(net.entry(vector, reads_z.constraint).freed) == ["Y"]
    assert entry.invariant == train_net.automata[0].invariants[vector[0]]


def test_goal_atoms_bound_l_and_u_like_guards():
    # no guard or invariant reads a clock: L and U come from the goal alone
    aut = Automaton((S0,), (A,), {S0: TRUE}, (Transition(S0, A, TRUE, (), S0),))
    net = small_net(locations=(S0,), automata=(aut,))
    for op, lu in ((">=", (2, 0)), (">", (2, 0)), ("<=", (0, 2)), ("<", (0, 2)), ("=", (2, 2))):
        entry = net.entry((S0,), ClockConstraint((Atom(X, None, op, 2),)))
        assert (entry.lower[X], entry.upper[X]) == lu, op
        assert entry.freed == (Y,)
    # a difference atom bounds both of its clocks both ways and frees neither
    diagonal = net.entry((S0,), ClockConstraint((Atom(X, Y, "<", 1),)))
    assert diagonal.freed == ()
    assert diagonal.lower == diagonal.upper == {X: 1, Y: 1}
    assert net.entry((S0,), TRUE).freed == (X, Y)


def test_automaton_of_label(train_net):
    by_name = {label.name: label for label in train_net.labels}
    assert train_net.participants[by_name["app"]] == (0, 2)
    assert train_net.participants[by_name["down"]] == (1,)
    assert train_net.participants[by_name["exit"]] == (0, 2)


def active_names(net):
    return [
        {loc.name: sorted(c.name for c in bounds) for loc, bounds in table.items()}
        for table in net.lu_bounds
    ]


def test_active_clocks_of_the_crossing(train_net):
    # each clock is read only between its reset and the return to the
    # location that resets it again
    assert active_names(train_net) == [
        {"Far": [], "Near": ["X"], "In": ["X"], "After": ["X"]},
        {"Up": [], "t1": ["Y"], "Down": [], "t2": ["Y"]},
        {"u0": [], "u1": ["Z"], "u2": ["Z"]},
    ]


def le(clock, n):
    return ClockConstraint((Atom(clock, None, "<=", n),))


def test_active_clocks_of_a_fischer_process():
    # A -try, x:=0-> B (x<=2) -set x<=2, x:=0-> C -enter x>2-> CS -exit-> A,
    # and C -retry, x:=0-> B: x matters only while waiting in B and C
    a, b, c, cs = (LocationId(n, i) for i, n in enumerate(("A", "B", "C", "CS")))
    try_, set_, enter, retry, exit_ = (
        LabelId(n, i) for i, n in enumerate(("try", "set", "enter", "retry", "exit"))
    )
    gt2 = ClockConstraint((Atom(X, None, ">", 2),))
    aut = Automaton(
        locations=(a, b, c, cs),
        alphabet=(try_, set_, enter, retry, exit_),
        invariants={a: TRUE, b: le(X, 2), c: TRUE, cs: TRUE},
        transitions=(
            Transition(a, try_, TRUE, (X,), b),
            Transition(b, set_, le(X, 2), (X,), c),
            Transition(c, enter, gt2, (), cs),
            Transition(c, retry, TRUE, (X,), b),
            Transition(cs, exit_, TRUE, (), a),
        ),
    )
    net = validate(small_net(clocks=(X,), locations=aut.locations, labels=aut.alphabet,
                             automata=(aut,)))
    assert active_names(net) == [{"A": [], "B": ["x"], "C": ["x"], "CS": []}]


def test_a_clock_one_automaton_resets_stays_active_where_another_reads_it():
    # automaton 0 resets x on its only move and never reads it; automaton 1
    # carries x unreset from t0 to t1, where its invariant reads it
    t0, t1 = LocationId("t0", 2), LocationId("t1", 3)
    b = LabelId("b", 1)
    resetter = Automaton((S0, S1), (A,), {S0: TRUE, S1: TRUE}, (Transition(S0, A, TRUE, (X,), S1),))
    reader = Automaton((t0, t1), (b,), {t0: TRUE, t1: le(X, 3)}, (Transition(t0, b, TRUE, (), t1),))
    net = validate(
        small_net(locations=(S0, S1, t0, t1), labels=(A, b), automata=(resetter, reader))
    )
    assert active_names(net) == [{"s0": [], "s1": []}, {"t0": ["x"], "t1": ["x"]}]


def test_a_diagonal_guard_keeps_both_clocks_active():
    aut = Automaton(
        locations=(S0, S1),
        alphabet=(A,),
        invariants={S0: TRUE, S1: TRUE},
        transitions=(Transition(S0, A, ClockConstraint((Atom(X, Y, "<", 1),)), (), S1),),
    )
    net = validate(small_net(automata=(aut,)))
    assert active_names(net) == [{"s0": ["x", "y"], "s1": []}]
    assert constraint_clocks(ClockConstraint((Atom(X, Y, "<", 1),))) == {X, Y}
    # a difference atom feeds its constant both ways to both clocks
    assert lu_names(net) == [{"s0": {"x": (1, 1), "y": (1, 1)}, "s1": {}}]
    assert net.has_diagonal and not small_net().has_diagonal


def lu_names(net):
    return [
        {loc.name: {c.name: lu for c, lu in bounds.items()} for loc, bounds in table.items()}
        for table in net.lu_bounds
    ]


def test_lu_bounds_of_the_crossing(train_net):
    # Near reads X>2 on enter and X<=5 in its invariant; In and After
    # only bound X from above, and Far resets it before any read
    assert lu_names(train_net) == [
        {"Far": {}, "Near": {"X": (2, 5)}, "In": {"X": (None, 5)}, "After": {"X": (None, 5)}},
        {"Up": {}, "t1": {"Y": (None, 1)}, "Down": {}, "t2": {"Y": (None, 2)}},
        {"u0": {}, "u1": {"Z": (1, 1)}, "u2": {"Z": (None, 1)}},
    ]
    assert not train_net.has_diagonal


def test_lu_bounds_of_fischer():
    # B_i: x_i <= 2 (invariant and set guard); C_i: x_i > 2 (enter guard);
    # A_i resets x_i on try and CS_i only leads back to A_i
    net = parse_spec(gen.fischer_spec(2, 2))
    assert lu_names(net) == [
        {"A1": {}, "B1": {"x1": (None, 2)}, "C1": {"x1": (2, None)}, "CS1": {}},
        {"A2": {}, "B2": {"x2": (None, 2)}, "C2": {"x2": (2, None)}, "CS2": {}},
        {"id0": {}, "id1": {}, "id2": {}},
    ]


def test_lu_bounds_follow_unreset_edges_and_magnitudes():
    # s0 -a-> s1 resets y only: x's bounds at s1 reach back to s0, y's do not
    inv = ClockConstraint((Atom(X, None, "<=", 5), Atom(Y, None, "=", -3)))
    guard = ClockConstraint((Atom(X, None, ">", 7),))
    aut = Automaton((S0, S1), (A,), {S0: TRUE, S1: inv},
                    (Transition(S0, A, TRUE, (Y,), S1), Transition(S1, A, guard, (), S1)))
    net = validate(small_net(automata=(aut,)))
    assert lu_names(net) == [{"s0": {"x": (7, 5)}, "s1": {"x": (7, 5), "y": (3, 3)}}]
    assert active_names(net) == [{"s0": ["x"], "s1": ["x", "y"]}]


def test_initial_like_is_zero():
    v = small_net().initial_like()
    assert v == {X: 0, Y: 0} and all(x == Fraction(0) for x in v.values())
