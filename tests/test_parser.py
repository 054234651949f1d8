"""Reader/printer: anchor files, round-trips on generated networks,
hyphen and decimal corner cases, and fuzzing that must always end in a
positioned diagnostic rather than a crash.
"""

import random
from fractions import Fraction

import pytest

from conftest import LITERAL_PATH, TRAIN_PATH
from zonereach.bounds import MAX_CONSTANT
from zonereach.model import (
    Atom,
    Automaton,
    ClockConstraint,
    ClockId,
    LabelId,
    LocationId,
    Network,
    TRUE,
    Transition,
    ValidationError,
    normalize_constants,
    validate,
)
from zonereach.parser import Diagnostic, ParseError, parse_query, parse_spec, pretty_print


def test_train_file_parses_clean(train_net):
    assert train_net.name == "train"
    assert [c.name for c in train_net.clocks] == ["X", "Y", "Z"]
    assert len(train_net.locations) == 11
    assert len(train_net.labels) == 8
    assert len(train_net.automata) == 3
    assert train_net.scale == 1


def test_literal_fixture_parses_clean(literal_net):
    """The verbatim system description is syntactically fine; its
    controller guard Z>1 ^ Z<=1 is unsatisfiable, which is a semantic
    property, not a parse error."""
    assert literal_net.name == "train"
    assert len(literal_net.locations) == 11
    guard = literal_net.automata[2].transitions[1].guard
    assert Atom(literal_net.clocks[2], None, ">", 1) in guard.atoms
    assert Atom(literal_net.clocks[2], None, "<=", 1) in guard.atoms


def test_roundtrip_on_the_anchor_files(train_net, literal_net):
    for net in (train_net, literal_net):
        assert parse_spec(pretty_print(net)) == net


def test_query_roundtrip(train_net):
    text = "go(Far.Up.u0.nil/X<=5 ^ X-Y>2 ^ true, In.Down.u0.nil/true)"
    q = parse_query(text, train_net)
    assert parse_query(pretty_print(q, train_net), train_net) == q
    with pytest.raises(ValueError):
        pretty_print(q)  # the scale lives on the network


def test_an_empty_constraint_is_the_shared_true(train_net):
    # ``Network.entry`` then finds a ``/true`` target's tables by identity
    q = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", train_net)
    assert q.source.constraint is TRUE and q.target.constraint is TRUE
    assert parse_query("go(Far.Up.u0.nil/X<=5 ^ true, In.Down.u0.nil/true)", train_net).source.constraint != TRUE


# -- generated round-trips -----------------------------------------------------

CONSTS = [0, 1, 2, 3, 5, 10, -1, -4, Fraction(1, 2), Fraction(5, 2), Fraction(3, 4), Fraction(7, 10)]


def _random_constraint(rng, clocks):
    atoms = []
    for _ in range(rng.randint(0, 3)):
        lhs = rng.choice(clocks)
        others = [c for c in clocks if c != lhs]
        rhs = rng.choice(others) if others and rng.random() < 0.3 else None
        atoms.append(Atom(lhs, rhs, rng.choice(("<", "<=", "=", ">=", ">")), rng.choice(CONSTS)))
    return ClockConstraint(tuple(atoms))


def random_network(rng) -> Network:
    nclocks = rng.randint(1, 4)
    clocks = tuple(ClockId(f"c{i}", i) for i in range(nclocks))
    label_names = [f"ev{i}" for i in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        label_names[0] = "go-now"  # hyphen inside an identifier
    labels = tuple(LabelId(n, i) for i, n in enumerate(label_names))

    nauts = rng.randint(1, 3)
    per_aut = [rng.randint(1, 3) for _ in range(nauts)]
    location_names = [f"q{a}_{j}" for a in range(nauts) for j in range(per_aut[a])]
    if rng.random() < 0.3:
        location_names[0] = "Turn-L"
    locations = tuple(LocationId(n, i) for i, n in enumerate(location_names))

    automata = []
    offset = 0
    for a in range(nauts):
        own = locations[offset : offset + per_aut[a]]
        offset += per_aut[a]
        alphabet = tuple(l for l in labels if rng.random() < 0.7) or (labels[0],)
        invariants = {loc: (_random_constraint(rng, clocks) if rng.random() < 0.5 else TRUE) for loc in own}
        transitions = []
        for _ in range(rng.randint(0, 4)):
            resets = tuple(c for c in clocks if rng.random() < 0.3)
            transitions.append(
                Transition(
                    rng.choice(own),
                    rng.choice(alphabet),
                    _random_constraint(rng, clocks),
                    resets,
                    rng.choice(own),
                )
            )
        automata.append(Automaton(own, alphabet, invariants, tuple(transitions)))
    return Network("gen", clocks, locations, labels, tuple(automata))


def test_roundtrip_on_generated_networks():
    rng = random.Random(20260815)
    for _ in range(200):
        net = normalize_constants(validate(random_network(rng)))
        text = pretty_print(net)
        parsed = parse_spec(text)
        assert parsed == net
        assert parse_spec(pretty_print(parsed)) == parsed


# -- syntax details -------------------------------------------------------------

SKELETON = """specification s
Clocks {clocks} nil
States a b nil
Labels go nil
Automata
  ( Locations a b nil
    Labels go nil
    Invariants
      a : true
      b : true
      nil
    Transitions
      a , go : {guard}, nil, b .
      nil
  ) .
  nil
end
"""


def guard_atoms(clock_decl: str, guard: str):
    net = parse_spec(SKELETON.format(clocks=clock_decl, guard=guard))
    return net, net.automata[0].transitions[0].guard.atoms


def test_hyphen_binds_to_declared_names_first():
    x, y = ClockId("X", 0), ClockId("Y", 1)
    # X-Y as a difference when only X and Y are declared
    for spelling in ("X-Y>1 ^ true", "X - Y>1 ^ true", "X- Y>1 ^ true", "X -Y>1 ^ true"):
        _, atoms = guard_atoms("X Y", spelling)
        assert atoms == (Atom(x, y, ">", 1),)
    # the whole word wins when X-Y itself is a clock
    net, atoms = guard_atoms("X Y X-Y", "X-Y>1 ^ true")
    assert atoms == (Atom(ClockId("X-Y", 2), None, ">", 1),)
    # and the spaced spelling still reaches the difference
    _, atoms = guard_atoms("X Y X-Y", "X - Y>1 ^ true")
    assert atoms == (Atom(x, y, ">", 1),)


def test_decimal_constants_scale_the_network():
    net, atoms = guard_atoms("X", "X<=2.5 ^ X>0.2 ^ true")
    assert net.scale == 10
    assert atoms == (Atom(ClockId("X", 0), None, "<=", 25), Atom(ClockId("X", 0), None, ">", 2))


def test_negative_constants():
    _, atoms = guard_atoms("X Y", "X-Y>-3 ^ true")
    assert atoms == (Atom(ClockId("X", 0), ClockId("Y", 1), ">", -3),)
    _, atoms = guard_atoms("X Y", "X-Y<=-1.5 ^ true")
    assert atoms == (Atom(ClockId("X", 0), ClockId("Y", 1), "<=", -3),)


def test_comments_and_whitespace_are_invisible():
    text = SKELETON.format(clocks="X", guard="X<=1 ^ true // tail comment\n")
    commented = "// leading comment\n" + text.replace("Clocks", "Clocks // clocks\n")
    assert parse_spec(commented) == parse_spec(text)


# Where each case of test_positioned_diagnostics is reported, (line, col).
POSITIONS = {
    "expected 'specification'": (1, 1),
    "expected a number": (13, 20),
    "unknown clock 'W'": (13, 16),
    "reserved": (3, 10),
    "undeclared location 'zz'": (13, 34),
    "unexpected trailing input": (19, 1),
    "undeclared label 'gone'": (13, 11),
    "unexpected character '?'": (13, 17),
    "duplicate invariant for location 'a'": (10, 16),
    # a comment line does not shift the next line's columns
    "unexpected character '@'": (7, 1),
    # a tab before a token is one column
    "label 'gone'": (13, 12),
    "unexpected trailing input 'extra'": (17, 5),
    "expected 'end', found end of input": (18, 1),
}


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("specification s", "spec s"), "expected 'specification'"),
        (lambda t: t.replace("X<=1", "X<="), "expected a number"),
        (lambda t: t.replace("X<=1", "W<=1"), "unknown clock 'W'"),
        (lambda t: t.replace("States a b nil", "States a true nil"), "reserved"),
        (lambda t: t.replace("nil, b .", "nil, zz ."), "undeclared location 'zz'"),
        (lambda t: t + "\nextra", "unexpected trailing input"),
        (lambda t: t.replace("go :", "gone :"), "undeclared label 'gone'"),
        (lambda t: t.replace("X<=1", "X?1"), "unexpected character '?'"),
        (lambda t: t.replace("b : true", "b : true a : true"),
         "duplicate invariant for location 'a'"),
        (lambda t: t.replace("Automata\n", "Automata\n// a comment\n@\n"),
         "unexpected character '@'"),
        (lambda t: t.replace("a , go :", "\ta , gone :"), "label 'gone'"),
        (lambda t: t.replace("end\n", "end extra"), "unexpected trailing input 'extra'"),
        (lambda t: t.replace("end\n", "\n"), "expected 'end', found end of input"),
    ],
)
def test_positioned_diagnostics(mangle, fragment):
    text = mangle(SKELETON.format(clocks="X", guard="X<=1 ^ true"))
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    (diag,) = err.value.diagnostics
    assert fragment in diag.message
    assert diag.line >= 1 and diag.col >= 1
    assert str(diag).startswith(f"line {diag.line}, col {diag.col}:")
    assert (diag.line, diag.col) == POSITIONS[fragment]


def test_validation_errors_surface_after_parsing():
    # location b claimed by both automata: syntax fine, structure not
    text = """specification s
Clocks X nil
States a b nil
Labels go nil
Automata
  ( Locations a b nil
    Labels go nil
    Invariants a : true
               b : true nil
    Transitions nil
  ) .
  ( Locations b nil
    Labels go nil
    Invariants b : true nil
    Transitions nil
  ) .
  nil
end
"""
    with pytest.raises(ValidationError) as err:
        parse_spec(text)
    assert any("also belongs" in d for d in err.value.diagnostics)


def test_query_diagnostics(train_net):
    cases = [
        ("go(Far.nil/true)", "expected 3 locations"),
        ("go(Far.Up.u0.nil/true, In.Down.nil/true)", "expected 3 locations"),
        ("go(Up.Far.u0.nil/true, In.Down.u0.nil/true)", "not a location of automaton 0"),
        ("go(Far.Up.u0.nil/W<1 ^ true, In.Down.u0.nil/true)", "unknown clock 'W'"),
        ("go(Far.Up.u0.nil/true, In.Down.u0.nil/true) extra", "trailing input"),
        ("go(Far.Up.u0.nil/X<0.5 ^ true, In.Down.u0.nil/true)", "does not scale"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_query(text, train_net)
        assert fragment in err.value.diagnostics[0].message, text


def test_query_constant_diagnostics_point_at_the_constant_as_written(train_net):
    net = parse_spec(SKELETON.format(clocks="X", guard="X<=0.5 ^ true"))  # scale 2
    half = MAX_CONSTANT // 2 + 1
    cases = [
        (train_net, "go(Far.Up.u0.nil/X<0.5 ^ true, In.Down.u0.nil/true)", 20,
         "constant 0.5 does not scale to an integer by 1"),
        (net, "go(a.nil/true, b.nil/X>-1.25 ^ true)", 24,
         "constant -1.25 does not scale to an integer by 2"),
        (net, f"go(a.nil/X<{half} ^ true, b.nil/true)", 12,
         f"constant {half} exceeds {MAX_CONSTANT} once scaled by 2"),
        (net, f"go(a.nil/true, b.nil/X>=0 ^ X>{MAX_CONSTANT + 1} ^ true)", 31,
         f"constant {MAX_CONSTANT + 1} exceeds {MAX_CONSTANT} once scaled by 2"),
    ]
    for against, text, col, message in cases:
        with pytest.raises(ParseError) as err:
            parse_query(text, against)
        assert err.value.diagnostics == [Diagnostic(1, col, message)], text


def test_query_constants_follow_the_network_scale():
    text = SKELETON.format(clocks="X", guard="X<=0.5 ^ true")
    net = parse_spec(text)
    assert net.scale == 2
    q = parse_query("go(a.nil/X>1.5 ^ true, b.nil/true)", net)
    assert q.source.constraint.atoms[0].const == 3


def test_constants_past_the_bound_limit_are_refused():
    # the raw bound 2 * c + 1 of a larger constant may reach the INF
    # sentinel, and the guard or invariant would then read as no bound
    assert guard_atoms("X", f"X<={MAX_CONSTANT} ^ true")[1][0].const == MAX_CONSTANT
    too_big = [
        (f"X<={MAX_CONSTANT + 1} ^ true", str(MAX_CONSTANT + 1)),
        ("X<=600000000000000000 ^ true", "600000000000000000"),
        (f"X-Y>-{MAX_CONSTANT + 1} ^ true", str(-MAX_CONSTANT - 1)),
        (f"X<0.5 ^ X>{MAX_CONSTANT // 2 + 1} ^ true", "once scaled by 2"),
    ]
    for guard, fragment in too_big:
        with pytest.raises(ValidationError) as err:
            parse_spec(SKELETON.format(clocks="X Y", guard=guard))
        (diag,) = err.value.diagnostics
        assert fragment in diag and "exceeds" in diag, guard

    net = parse_spec(SKELETON.format(clocks="X", guard="X<=0.5 ^ true"))
    for text in (f"go(a.nil/true, b.nil/X>{MAX_CONSTANT + 1} ^ true)",
                 f"go(a.nil/X<{MAX_CONSTANT // 2 + 1} ^ true, b.nil/true)"):
        with pytest.raises(ParseError) as err:
            parse_query(text, net)
        (diag,) = err.value.diagnostics
        assert "exceeds" in diag.message and diag.line == 1 and diag.col > 1, text
    assert parse_query(f"go(a.nil/true, b.nil/X>{MAX_CONSTANT // 2} ^ true)", net)


# -- fuzzing --------------------------------------------------------------------


def _parses_or_diagnoses(text: str) -> None:
    try:
        parse_spec(text)
    except ParseError as err:
        assert err.diagnostics
        for d in err.diagnostics:
            assert isinstance(d, Diagnostic) and d.line >= 1 and d.col >= 1
    except ValidationError as err:
        assert err.diagnostics


def test_truncation_fuzzing_never_crashes():
    text = TRAIN_PATH.read_text()
    for cut in range(0, len(text), 13):
        _parses_or_diagnoses(text[:cut])


def test_corruption_fuzzing_never_crashes():
    rng = random.Random(97)
    base = LITERAL_PATH.read_text()
    alphabet = "abcXYZ019_-.,:()/^<>= \n\t@#"
    for _ in range(300):
        pos = rng.randrange(len(base))
        text = base[:pos] + rng.choice(alphabet) + base[pos + 1 :]
        _parses_or_diagnoses(text)
