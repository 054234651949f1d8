"""The worklist search over symbolic states.

Successor zones for the first two steps of the railroad system are
frozen cell by cell (hand-derived: the controller invariant Z<=1 caps
the first delay, the gate reset pins Y to X-1 on the second step, and
each step frees the clock no automaton reads before resetting it).
"""

import dataclasses
import itertools
import random

import pytest

import gen
from conftest import DIVERGING_PATH, TRAIN_PATH
from oracles import constraint_clocks
from test_parser import random_network
from zonereach import explorer, model, parse_query, parse_spec
from zonereach.bounds import INF
from zonereach.dbm import Dbm
from zonereach.explorer import (
    Search,
    SearchOptions,
    StateZone,
    Verdict,
    explore,
    is_goal,
    replay_witness,
    root_state,
    successors,
)
from zonereach.model import (
    TRUE,
    Atom,
    ClockConstraint,
    Network,
    Query,
    StatePattern,
    normalize_constants,
    validate,
)

ALL_CONFIGS = [
    SearchOptions(backend=b, order=o, subsumption=s)
    for b in ("dbm", "formula")
    for o in ("dfs", "bfs")
    for s in ("equal", "include")
]
FAITHFUL = SearchOptions(subsumption="equal", extrapolate=False)


def names(ids):
    return [x.name for x in ids]


@pytest.fixture
def unreduced(monkeypatch):
    """Run a search with every clock active everywhere, then restore.
    The search gets a fresh copy of the network: the network keeps the
    clocks it frees per vector, and neither the copy's tables may come
    from the reduced search nor the original's from this one."""
    entry = Network.entry

    def run(search, net, *args):
        with monkeypatch.context() as patch:
            patch.setattr(Network, "entry", lambda *args: entry(*args)._replace(freed=()))
            return search(dataclasses.replace(net), *args)

    return run


INSIDE = "go(Far.Up.u0.nil/true, In.Down.u0.nil/true)"


@pytest.fixture(scope="module")
def queries(train_net):
    inside = parse_query(INSIDE, train_net)
    unsafe = parse_query("go(Far.Up.u0.nil/true, In.Up.u0.nil/true)", train_net)
    return inside, unsafe


def test_crossing_verdicts_under_every_configuration(train_net, queries):
    inside, unsafe = queries
    for options in ALL_CONFIGS + [FAITHFUL]:
        assert explore(train_net, inside, options).verdict is Verdict.REACHABLE
        assert explore(train_net, unsafe, options).verdict is Verdict.UNREACHABLE


def test_witness_is_the_forced_schedule(train_net, queries):
    inside, _ = queries
    for options in ALL_CONFIGS:
        result = explore(train_net, inside, options)
        assert names(result.witness) == ["app", "lower", "down", "enter"]
        assert replay_witness(train_net, inside, result.witness, options)


def test_replay_rejects_wrong_sequences(train_net, queries):
    inside, _ = queries
    by_name = {l.name: l for l in train_net.labels}
    wrong = [by_name[n] for n in ("app", "lower", "down", "out")]
    assert not replay_witness(train_net, inside, wrong)
    permuted = [by_name[n] for n in ("lower", "app", "down", "enter")]
    assert not replay_witness(train_net, inside, permuted)
    assert not replay_witness(train_net, inside, [])


def test_first_two_successor_zones_frozen(train_net, queries):
    inside, _ = queries
    search = Search(train_net, inside)
    root = root_state(search)
    # constraint true and no source invariant: the root zone is the whole orthant
    assert root.zone.cells == Dbm.universe(train_net.clocks).cells

    first = list(successors(search, root))
    assert len(first) == 1
    label, state = first[0]
    assert label.name == "app" and names(state.locations) == ["Near", "Up", "u1"]
    # X = Z <= 1 (controller invariant caps the delay).  Up reads Y only
    # after lower resets it, so Y is freed: row Y unbounded, column Y a
    # copy of column 0 (X - Y <= 1 and Z - Y <= 1, where Y - X >= 0 was)
    assert state.zone.cells == (1, 1, 1, 1, 3, 1, 3, 1, INF, INF, 1, INF, 3, 1, 3, 1)

    second = list(successors(search, state))
    assert len(second) == 1
    label, state = second[0]
    assert label.name == "lower" and names(state.locations) == ["Near", "t1", "u0"]
    # lower fires exactly at Z = 1 and resets Y: X - Y = 1, X in [1, 2].
    # u0 resets Z before reading it, so Z is freed: row Z unbounded and
    # column Z a copy of column 0 (X - Z <= 2, Y - Z <= 1, where Z = X was)
    assert state.zone.cells == (1, -1, 1, 1, 5, 1, 3, 5, 3, -1, 1, 3, INF, INF, INF, 1)


def test_exact_successors_follow_the_unwidened_pipeline(diverging_net):
    q = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y>0 ^ true)", diverging_net)
    exact_search = Search(diverging_net, q, SearchOptions(extrapolate=False))
    widening = Search(diverging_net, q)
    assert exact_search.k is None
    k = widening.k
    (aut,) = diverging_net.automata
    (tick,) = aut.transitions
    invariant = aut.invariants[tick.target]
    state = root_state(exact_search)
    for _ in range(3):
        ((_, exact),) = successors(exact_search, state)
        ((_, widened),) = successors(widening, state)
        pipeline = (
            state.zone.constrain(tick.guard).reset(tick.resets)
            .constrain(invariant).elapse().constrain(invariant)
        )
        assert exact.zone.cells == pipeline.cells
        # y - x grows by one per tick; only the widened zone forgets it
        assert widened.zone.cells == pipeline.extrapolate(k).cells != pipeline.cells
        state = exact


def test_goal_respects_location_and_constraint(train_net, queries):
    inside, _ = queries
    universe = Dbm.from_constraint(inside.source.constraint, train_net.clocks)
    assert is_goal(StateZone(inside.target.locations, universe), inside.target)
    assert not is_goal(StateZone(inside.source.locations, universe), inside.target)


def test_source_goal_needs_no_steps(train_net):
    q = parse_query("go(Far.Up.u0.nil/true, Far.Up.u0.nil/X>100 ^ true)", train_net)
    for options in (SearchOptions(), SearchOptions(max_zones=0)):
        result = explore(train_net, q, options)
        assert result.verdict is Verdict.REACHABLE and result.witness == ()
        assert result.stats.stored == 0  # found before anything is stored


def test_unsatisfiable_source_is_unreachable(train_net):
    q = parse_query("go(Far.Up.u0.nil/X<0 ^ true, In.Down.u0.nil/true)", train_net)
    assert explore(train_net, q).verdict is Verdict.UNREACHABLE


def test_source_invariant_restricts_the_start(train_net):
    # Near carries X <= 5, so starting inside Near at X > 5 is vacuous
    q = parse_query("go(Near.Up.u0.nil/X>5 ^ true, In.Down.u0.nil/true)", train_net)
    assert explore(train_net, q).verdict is Verdict.UNREACHABLE


def test_inclusion_never_stores_more_than_equality(train_net, queries):
    _, unsafe = queries
    include = explore(train_net, unsafe, SearchOptions(subsumption="include")).stats
    equal = explore(train_net, unsafe, SearchOptions(subsumption="equal")).stats
    assert include.stored <= equal.stored
    assert include.stored == 9  # one zone per reachable vector on this system
    # 11 without freeing: Far.Up.u0 and Near.Up.u1 were stored again when
    # the crossing came round, differing only in clocks inactive there
    assert equal.stored == 9


@pytest.mark.parametrize(
    "options",
    [SearchOptions(), SearchOptions(subsumption="equal"), FAITHFUL],
    ids=["include", "equal", "equal-exact"],
)
def test_the_visited_set_keeps_one_bucket_per_vector(train_net, queries, options):
    inside, _ = queries
    search = Search(train_net, inside, options)
    assert search.lu is options.extrapolate
    here, there = itertools.islice(
        itertools.product(*(aut.locations for aut in train_net.automata)), 2
    )
    zone = root_state(search).zone
    # one zone offered at two vectors is stored at both
    assert search.insert(StateZone(here, zone))
    assert search.insert(StateZone(there, zone))
    # offered again, as a fresh but equal zone, it is pruned at either
    for vector in (here, there, here):
        assert not search.insert(StateZone(vector, root_state(search).zone))


def test_resource_limits_are_inconclusive_not_wrong(train_net, queries):
    inside, unsafe = queries
    capped = explore(train_net, unsafe, SearchOptions(max_zones=1))
    assert capped.verdict is Verdict.INCONCLUSIVE
    assert capped.reason == "zone limit exceeded"
    timed = explore(train_net, unsafe, SearchOptions(max_seconds=0.0))
    assert timed.verdict is Verdict.INCONCLUSIVE
    assert timed.reason == "time limit exceeded"
    # a goal found before the cap bites still wins
    assert explore(train_net, inside, SearchOptions(max_zones=5)).verdict is Verdict.REACHABLE
    # the limit holds for the root too: no zone at all may be stored
    nothing = explore(train_net, unsafe, SearchOptions(max_zones=0))
    assert nothing.verdict is Verdict.INCONCLUSIVE and nothing.stats.stored == 0


def test_divergence_needs_extrapolation(diverging_net):
    q = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y>0 ^ true)", diverging_net)
    for options in ALL_CONFIGS:
        result = explore(diverging_net, q, options)
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.stored == 2  # the diagonal ray, then its widened tail
    capped = SearchOptions(subsumption="equal", extrapolate=False, max_zones=10_000)
    runaway = explore(diverging_net, q, capped)
    assert runaway.verdict is Verdict.INCONCLUSIVE
    assert runaway.stats.stored == 10_000


def test_literal_guard_blocks_the_gate(literal_net):
    """With the verbatim controller guard Z>1 ^ Z<=1 the lower action
    can never fire, so the gate never comes down."""
    inside = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", literal_net)
    unsafe = parse_query("go(Far.Up.u0.nil/true, In.Up.u0.nil/true)", literal_net)
    for options in (SearchOptions(), SearchOptions(backend="formula")):
        assert explore(literal_net, inside, options).verdict is Verdict.UNREACHABLE
        assert explore(literal_net, unsafe, options).verdict is Verdict.UNREACHABLE


def test_options_are_validated():
    with pytest.raises(ValueError):
        SearchOptions(order="random")
    with pytest.raises(ValueError):
        SearchOptions(subsumption="sometimes")
    with pytest.raises(ValueError):
        SearchOptions(backend="bdd")
    with pytest.raises(ValueError):
        SearchOptions(max_zones=-1)
    with pytest.raises(ValueError):
        SearchOptions(max_seconds=-0.5)
    with pytest.raises(ValueError, match="time limit nan is not a number"):
        SearchOptions(max_seconds=float("nan"))
    SearchOptions(max_zones=0, max_seconds=0.0)  # zero limits stay valid
    SearchOptions(max_seconds=float("inf"))


def test_inactive_clocks_leave_the_goal_clocks_alone(train_net, unreduced):
    # Z is inactive at u0 and X at Far, yet the goal test reads them: app
    # resets X and Z together, so Z - X > 0 never holds inside the crossing
    cases = {
        "go(Far.Up.u0.nil/true, In.Down.u0.nil/Z-X>0 ^ true)": Verdict.UNREACHABLE,
        "go(Far.Up.u0.nil/true, In.Down.u0.nil/Z-X=0 ^ Z>4 ^ true)": Verdict.REACHABLE,
        "go(Far.Up.u0.nil/X=0 ^ true, Far.Up.u0.nil/X>100 ^ true)": Verdict.REACHABLE,
        "go(Far.Up.u0.nil/true, Far.t2.u0.nil/Z-Y>1 ^ true)": Verdict.UNREACHABLE,
    }
    for text, verdict in cases.items():
        q = parse_query(text, train_net)
        for options in ALL_CONFIGS + [FAITHFUL]:
            result = explore(train_net, q, options)
            assert result.verdict is verdict
            assert unreduced(explore, train_net, q, options).verdict is verdict
            if verdict is Verdict.REACHABLE:
                assert replay_witness(train_net, q, result.witness, options)
    vectors = list(itertools.product(*(aut.locations for aut in train_net.automata)))
    for text in cases:
        q = parse_query(text, train_net)
        target = q.target.constraint
        for vector in vectors:
            assert constraint_clocks(target).isdisjoint(train_net.entry(vector, target).freed)
    first = parse_query(next(iter(cases)), train_net)
    clockless = parse_query(INSIDE, train_net)
    assert first.target.locations == clockless.target.locations
    vector = first.target.locations
    assert names(train_net.entry(vector, clockless.target.constraint).freed) == ["Y", "Z"]
    assert names(train_net.entry(vector, first.target.constraint).freed) == ["Y"]


def test_searches_sharing_a_network_answer_as_on_a_fresh_copy(train_net):
    # The network keeps the clocks it frees per vector.  The targets
    # here read different clocks at the same vector (nothing, Z - X, Z),
    # so a table kept per vector alone would hand one search the freed
    # clocks of another: Z, freed for the clock-free target, would make
    # Z - X > 0 reachable.
    texts = [
        INSIDE,
        "go(Far.Up.u0.nil/true, In.Down.u0.nil/Z-X>0 ^ true)",
        INSIDE,
        "go(Far.Up.u0.nil/true, In.Down.u0.nil/Z-X=0 ^ Z>4 ^ true)",
        "go(Far.Up.u0.nil/true, In.Down.u0.nil/Z-X>0 ^ true)",
    ]
    shared = dataclasses.replace(train_net)
    for backend in ("dbm", "formula"):
        for order in ("dfs", "bfs"):
            options = SearchOptions(backend=backend, order=order)
            for text in texts:
                q = parse_query(text, train_net)
                got = explore(shared, q, options)
                want = explore(dataclasses.replace(train_net), q, options)
                assert got.verdict is want.verdict
                assert got.witness == want.witness
                assert (got.stats.stored, got.stats.popped) == (want.stats.stored, want.stats.popped)


def test_a_network_enumerates_each_vectors_moves_once(train_net, queries, monkeypatch):
    calls = []
    enumerate_moves = model.joint_moves

    def counted(net, locations):
        calls.append(locations)
        return enumerate_moves(net, locations)

    monkeypatch.setattr(model, "joint_moves", counted)
    inside, unsafe = queries
    net = dataclasses.replace(train_net)
    explore(net, unsafe)
    first = len(calls)
    assert first > 0 and len(set(calls)) == first
    explore(net, unsafe)
    explore(net, inside)
    assert len(calls) == first
    explore(dataclasses.replace(net), unsafe)
    assert len(calls) == 2 * first


def test_a_second_search_compiles_no_program(monkeypatch):
    compiled = []
    program = Dbm.program

    def counted(*args):
        compiled.append(args)
        return program(*args)

    monkeypatch.setattr(Dbm, "program", staticmethod(counted))
    net = parse_spec(gen.fischer_spec(6, 2))
    text = gen.fischer_mutex_query(6)
    query = parse_query(text, net)
    for order in ("bfs", "dfs"):
        assert explore(net, query, SearchOptions(order=order)).stats.stored == 89
    # each move is compiled once, as is the source's entry; the DFS pops
    # states as generated, at vectors the BFS never left, so it adds some
    (moves, entries), = net._programs.values()
    first = len(compiled)
    assert first == sum(map(len, moves.values())) + len(entries) and len(entries) == 1
    for order in ("bfs", "dfs"):
        assert explore(net, query, SearchOptions(order=order)).stats.stored == 89
    assert len(compiled) == first
    # a target that reads a clock frees other clocks, so it compiles its own
    reads_x1 = parse_query(text.replace("/true)", "/x1>5 ^ true)"), net)
    assert explore(net, reads_x1).verdict is Verdict.UNREACHABLE
    assert len(compiled) > first
    # the tables stay with the network: a copy starts with none
    copy = dataclasses.replace(net)
    assert "_programs" not in vars(copy)
    del compiled[:]
    for order in ("bfs", "dfs"):
        assert explore(copy, query, SearchOptions(order=order)).stats.stored == 89
    assert len(compiled) == first


@pytest.mark.parametrize("backend", ["dbm", "formula"])
def test_disabled_counts_the_moves_whose_step_leaves_nothing(train_net, queries, backend, monkeypatch):
    emptied = []
    walk = explorer.successors

    def counted(search, state):
        found = list(walk(search, state))
        emptied.append(len(search.programs[state.locations]) - len(found))
        return iter(found)

    monkeypatch.setattr(explorer, "successors", counted)
    _, unsafe = queries
    result = explore(dataclasses.replace(train_net), unsafe, SearchOptions(backend=backend))
    assert result.stats.disabled == sum(emptied) > 0
    assert f" disabled={sum(emptied)} " in str(result.stats)


TARGET_BOUNDS_SPEC = """specification late
Clocks x nil
States s0 s1 s2 nil
Labels a b c nil
Automata
  ( Locations s0 s1 s2 nil
    Labels a b c nil
    Invariants s0 : true s1 : true s2 : true nil
    Transitions
      s0 , a : x>=3 ^ true , nil , s1 .
      s0 , b : x>=1 ^ true , nil , s1 .
      s1 , c : true , nil , s2 .
      nil ) .
  nil
end
"""


def test_target_constants_refine_the_subsumption_test():
    # No guard reads x at s1 or later, so only the target's x<=1, an
    # upper bound (U = 1), keeps the zone x>=1 (label b) apart from
    # Extra+_LU of the zone x>=3 (label a, stored first); with L = U = 0
    # it would be pruned, and s2 reached only with x>=3.
    net = parse_spec(TARGET_BOUNDS_SPEC)
    q = parse_query("go(s0.nil/x=0 ^ true, s2.nil/x<=1 ^ true)", net)
    entry = net.entry(q.target.locations, q.target.constraint)
    x = net.clocks[0]
    assert Search(net, q).lu and (entry.lower, entry.upper) == ({x: 0}, {x: 1})
    for options in ALL_CONFIGS + [FAITHFUL]:
        result = explore(net, q, options)
        assert result.verdict is Verdict.REACHABLE
        assert names(result.witness) == ["b", "c"]


def _random_query(rng, net):
    atoms = []
    for _ in range(rng.randint(0, 2)):
        lhs = rng.choice(net.clocks)
        others = [c for c in net.clocks if c != lhs]
        rhs = rng.choice(others) if others and rng.random() < 0.3 else None
        op = rng.choice(("<", "<=", "=", ">=", ">"))
        atoms.append(Atom(lhs, rhs, op, rng.randint(0, 4) * net.scale))
    return Query(
        StatePattern(tuple(aut.locations[0] for aut in net.automata), TRUE),
        StatePattern(tuple(rng.choice(aut.locations) for aut in net.automata),
                     ClockConstraint(tuple(atoms))),
    )


def test_freeing_keeps_verdicts_and_never_stores_more(unreduced):
    rng = random.Random(7)
    configs = [dataclasses.replace(o, max_zones=2000) for o in ALL_CONFIGS + [FAITHFUL]]
    fewer = 0
    for _ in range(200):
        net = normalize_constants(validate(random_network(rng)))
        q = _random_query(rng, net)
        for options in configs:
            reduced = explore(net, q, options)
            plain = unreduced(explore, net, q, options)
            if plain.verdict is not Verdict.INCONCLUSIVE:
                assert reduced.verdict is plain.verdict
            assert reduced.stats.stored <= plain.stats.stored
            fewer += reduced.stats.stored < plain.stats.stored
    assert fewer > 0


@pytest.mark.parametrize("n, stored", [(2, 11), (3, 22)])
def test_fischer_keeps_mutual_exclusion_with_fixed_counts(n, stored):
    net = parse_spec(gen.fischer_spec(n, 2))
    query = parse_query(gen.fischer_mutex_query(n), net)
    for order in ("bfs", "dfs"):
        result = explore(net, query, SearchOptions(order=order))
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.stored == stored


@pytest.mark.parametrize("n, stored", [(2, 11), (3, 15)])
def test_fischer_breaks_mutual_exclusion_when_waiting_too_little(n, stored):
    net = parse_spec(gen.fischer_spec(n, 2, wait=1))
    query = parse_query(gen.fischer_mutex_query(n), net)
    result = explore(net, query, SearchOptions(order="bfs"))
    assert result.verdict is Verdict.REACHABLE
    assert result.stats.stored == stored
    assert names(result.witness) == ["try1", "try2", "set1", "enter1", "set2", "enter2"]
    assert replay_witness(net, query, result.witness, SearchOptions(extrapolate=False))


def test_each_stored_zone_is_abstracted_at_most_once(monkeypatch, diverging_net):
    calls = []
    original = Dbm.extrapolate_lu

    def counted(zone, lower, upper):
        calls.append(zone)
        return original(zone, lower, upper)

    monkeypatch.setattr(Dbm, "extrapolate_lu", counted)
    net = parse_spec(gen.fischer_spec(3, 2))
    query = parse_query(gen.fischer_mutex_query(3), net)
    result = explore(net, query, SearchOptions(order="bfs"))
    assert 0 < len(calls) <= result.stats.stored
    assert len({id(zone) for zone in calls}) == len(calls)
    # no LU without an abstraction, nor with a diagonal target
    calls.clear()
    explore(net, query, SearchOptions(extrapolate=False, max_zones=500))
    diagonal = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y>0 ^ true)", diverging_net)
    explore(diverging_net, diagonal)
    assert calls == []


def test_an_extra_m_true_stands_only_once_its_witness_replays_exactly(
    monkeypatch, diverging_net, train_net
):
    query = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y<0 ^ true)", diverging_net)
    assert Search(diverging_net, query).k is not None  # a diagonal target: Extra_M
    result = explore(diverging_net, query)
    assert result.verdict is Verdict.REACHABLE and names(result.witness) == ["tick"]
    monkeypatch.setattr(explorer, "replay_witness", lambda *args: False)
    result = explore(diverging_net, query)
    assert result.verdict is Verdict.INCONCLUSIVE
    assert result.reason == "witness does not replay exactly"

    def refuse(*args):
        raise AssertionError("a diagonal-free search replays no witness")

    monkeypatch.setattr(explorer, "replay_witness", refuse)
    inside = parse_query("go(Far.Up.u0.nil/true, In.Down.u0.nil/true)", train_net)
    assert explore(train_net, inside).verdict is Verdict.REACHABLE


def test_default_search_agrees_with_the_exact_mode():
    """Stored zones are exact and only the subsumption test abstracts, so
    the verdicts match the exact mode wherever that terminates, and every
    witness replays exactly.  Networks or targets with diagonal atoms
    take the Extra_M path, where this is not guaranteed (Bouyer, FMSD
    2004); the stream holds both kinds, and no search disagrees."""
    rng = random.Random(11)
    exact_options = SearchOptions(subsumption="equal", extrapolate=False, max_zones=2000)
    configs = [SearchOptions(), SearchOptions(order="bfs"), SearchOptions(subsumption="equal"),
               SearchOptions(backend="formula")]
    reachable = {True: 0, False: 0}  # by whether the search abstracts with LU
    for _ in range(400):
        net = normalize_constants(validate(random_network(rng)))
        q = _random_query(rng, net)
        exact = explore(net, q, exact_options)
        lu = Search(net, q).lu
        for options in configs:
            result = explore(net, q, options)
            assert result.verdict is not Verdict.INCONCLUSIVE
            if exact.verdict is not Verdict.INCONCLUSIVE:
                assert result.verdict is exact.verdict
            if result.verdict is Verdict.REACHABLE:
                assert replay_witness(net, q, result.witness, SearchOptions(extrapolate=False))
                reachable[lu] += 1
    assert reachable[True] > 100 and reachable[False] > 200
