"""Process symmetry: which automata ``Network.symmetry`` finds
interchangeable, and that storing one canonical state per orbit of the
source's stabilizer, testing the goal against the target's orbit and
mapping the witness back, changes no verdict.

The unreduced search comes from patching ``Network.symmetry`` to the
trivial group; the formula backend is never reduced.
"""

import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

import gen
from conftest import QUERIES_PATH
from test_explorer import ALL_CONFIGS, FAITHFUL
from zonereach import parse_query, parse_spec
from zonereach.dbm import Dbm
from oracles import from_bounds
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
    Automaton,
    ClockConstraint,
    ClockId,
    LabelId,
    LocationId,
    Network,
    Query,
    StatePattern,
    Transition,
    normalize_constants,
    validate,
)
from zonereach import symmetry
from zonereach.simulate import find_concrete_run
from zonereach.symmetry import _goals, _group, _stabilizer
from test_formula import _imported_modules

EXACT = SearchOptions(extrapolate=False)
CAPPED = [dataclasses.replace(o, max_zones=2000) for o in ALL_CONFIGS + [FAITHFUL] if o.backend == "dbm"]


@pytest.fixture
def unsymmetric(monkeypatch):
    """Run a search with ``Network.symmetry`` patched to the trivial
    group, on a fresh copy of the network."""

    def run(search, net, *args):
        with monkeypatch.context() as patch:
            patch.setattr(Network, "symmetry", property(lambda self: ()))
            return search(dataclasses.replace(net), *args)

    return run


def fischer(n, wait=2):
    net = parse_spec(gen.fischer_spec(n, 2, wait=wait))
    return net, parse_query(gen.fischer_mutex_query(n), net)


def staggered_fischer_spec(n):
    """Fischer with ``wait_i = 1 + i``: every ``x<i>>2`` guard becomes
    ``x<i>>1+i``, so no two processes are alike (mutex still holds)."""
    text = gen.fischer_spec(n, 2)
    for i in range(1, n + 1):
        text, found = re.subn(rf"\bx{i}>2 ", f"x{i}>{1 + i} ", text)
        assert found == 1
    return text


# -- detection ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fischer_processes_form_one_class(n):
    net, _ = fischer(n)
    twins, = net.symmetry
    # the lock is not a twin
    clocks = {i: [c.name for c in own] for i, own in twins.items()}
    assert clocks == {i: [f"x{i + 1}"] for i in range(n)}


def test_a_lock_that_tells_the_processes_apart_breaks_the_class():
    text = gen.fischer_spec(4, 2)
    # the lock reads process 1's clock: process 1 is no twin
    read = parse_spec(text.replace("id0 , try1 : true", "id0 , try1 : x1<=5 ^ true"))
    assert [list(twins) for twins in read.symmetry] == [[1, 2, 3]]
    # process 1 can no longer enter: no swap of 1 and 2 maps the lock onto itself
    stuck = parse_spec(text.replace("      id1 , enter1 : true , nil , id1 .\n", ""))
    assert stuck.symmetry == ()


def test_the_crossing_system_has_no_symmetry(train_net):
    assert train_net.symmetry == ()


@pytest.mark.parametrize("n, stored", [(3, 103), (4, 567)])
def test_fischer_with_staggered_waits_has_none_and_keeps_its_counts(n, stored):
    net = parse_spec(staggered_fischer_spec(n))
    assert net.symmetry == ()
    query = parse_query(gen.fischer_mutex_query(n), net)
    for order in ("bfs", "dfs"):
        result = explore(net, query, SearchOptions(order=order))
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.stored == stored and result.stats.permuted == 0


def test_the_stabilizer_keeps_the_twins_the_target_treats_alike():
    # processes 1 and 2 are in CS and the lock names process 2, so only
    # processes 3..n may be permuted; the formula backend permutes none
    net, query = fischer(5)
    assert [orbit.members for orbit in _stabilizer(net, query.target)] == [[2, 3, 4]]
    assert Search(net, query, SearchOptions(backend="formula")).orbits == ()
    # a clock of process 4 in the target sets it apart
    x4 = net.clocks[3]
    bounded = dataclasses.replace(query.target, constraint=ClockConstraint((Atom(x4, None, "<", 1),)))
    assert [o.members for o in _stabilizer(net, bounded)] == [[2, 4]]


def test_permute_renames_clocks():
    x, y, z = (ClockId(name, i) for i, name in enumerate("xyz"))
    clocks = (x, y, z)
    c = ClockConstraint((Atom(x, None, "<=", 3), Atom(y, x, ">", 1), Atom(z, None, ">=", 2)))
    swapped = ClockConstraint((Atom(y, None, "<=", 3), Atom(x, y, ">", 1), Atom(z, None, ">=", 2)))
    source = [0, 2, 1, 3]  # index 0 is the zero clock; x and y trade places
    index = [source[i] * 4 + source[j] for i in range(4) for j in range(4)]
    zone = Dbm.from_constraint(c, clocks).elapse()
    assert zone.permute(index) == Dbm.from_constraint(swapped, clocks).elapse()


# -- reduction ------------------------------------------------------------------


@pytest.mark.parametrize("n, stored", [(4, 38), (5, 60), (7, 126)])
def test_fischer_stores_one_zone_per_orbit(n, stored):
    net, query = fischer(n)
    for order in ("bfs", "dfs"):
        result = explore(net, query, SearchOptions(order=order))
        assert result.verdict is Verdict.UNREACHABLE
        assert result.stats.stored == stored and result.stats.permuted > 0


def test_the_target_orbit_is_every_pair_in_cs_with_the_lock_naming_the_second():
    net, query = fischer(4)
    orbits = _group(net, query)
    assert [orbit.members for orbit in orbits] == [[0, 1, 2, 3]]
    goals, _ = _goals(net, orbits, query.target)
    images = [(image, sigma) for found in goals.values() for image, sigma in found]
    assert len(images) == len(goals) == 12
    for image, sigma in images:
        names = [loc.name for loc in image.locations]
        a, b = sigma[0] + 1, sigma[1] + 1
        assert names == [f"CS{i}" if i in (a, b) else f"A{i}" for i in range(1, 5)] + [f"id{b}"]
    # without twins the orbit is the target alone
    plain = parse_spec(staggered_fischer_spec(2))
    query = parse_query(gen.fischer_mutex_query(2), plain)
    assert _goals(plain, _group(plain, query), query.target) == (
        {query.target.locations: [(query.target, (0, 1, 2))]}, query.target.constraint)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_mutex_pair_is_broken_by_a_witness_mapped_back_to_it(n):
    net = parse_spec(gen.fischer_spec(n, 2, wait=1))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            query = parse_query(gen.fischer_mutex_query(n, a, b), net)
            for order in ("bfs", "dfs"):
                result = explore(net, query, SearchOptions(order=order))
                assert result.verdict is Verdict.REACHABLE
                assert replay_witness(net, query, result.witness, EXACT)
                if n == 3:
                    assert find_concrete_run(net, query, result.witness, Fraction(12), Fraction(1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_every_image_of_the_target_keeps_its_clock_live(n):
    # a process enters CS more than 2 after writing the lock, so x2<2 never
    # holds in CS2; nothing reads x1 in CS1 either, and freeing it there
    # would let CS1 meet the image x1<2 and answer a wrong True
    net, _ = fischer(n)
    target = gen.fischer_vector(n, {2: "CS"}, 2)
    query = parse_query(f"go({gen.fischer_initial(n)}, {target}/x2<2 ^ true)", net)
    goals, reads = _goals(net, _group(net, query), query.target)
    assert len(goals) == len(reads.atoms) == n
    for order in ("bfs", "dfs"):
        assert explore(net, query, SearchOptions(order=order)).verdict is Verdict.UNREACHABLE


def test_an_asymmetric_source_keeps_the_larger_stabilizer_of_the_target():
    net, _ = fischer(4)
    source = gen.fischer_initial(4).replace("x1=0", "x1=1")
    # every process in CS: the target is fixed by all 24 permutations, the
    # source by the 6 that leave process 1 alone
    query = parse_query(f"go({source}, {gen.fischer_vector(4, {i: 'CS' for i in range(1, 5)}, 0)}/true)", net)
    assert [o.members for o in _stabilizer(net, query.source)] == [[1, 2, 3]]
    assert [o.members for o in _group(net, query)] == [[0, 1, 2, 3]]
    # the pair in CS with the lock naming process 2: the target is fixed by
    # the 2 permutations of processes 3..4, the source by the 6 of 2..4
    mutex = parse_query(f"go({source}, {gen.fischer_vector(4, {1: 'CS', 2: 'CS'}, 2)}/true)", net)
    assert [o.members for o in _group(net, mutex)] == [[1, 2, 3]]
    for q, stored in ((query, 38), (mutex, 119)):
        for order in ("bfs", "dfs"):
            result = explore(net, q, SearchOptions(order=order))
            assert result.verdict is Verdict.UNREACHABLE and result.stats.stored == stored


def test_a_canonical_state_behaves_like_the_state_it_stands_for():
    """A canonical state is the image of the state under an automorphism
    fixing the target: equally many successors, the same successor zones
    up to renaming the clocks, the same goal test, and a closed matrix."""
    for n, wait in ((4, 2), (5, 1)):
        net, query = fischer(n, wait)
        search, orbits = Search(net, query), _stabilizer(net, query.target)
        frontier, permuted = [root_state(search)], 0
        for _ in range(8):
            reached = []
            for state in frontier:
                vector, zone = state.locations, state.zone
                for orbit in orbits:
                    vector, zone = orbit.canonical(vector, zone)
                image = StateZone(vector, zone)
                permuted += image != state
                assert from_bounds(net.clocks, zone.cells).cells == zone.cells
                assert is_goal(image, query.target) == is_goal(state, query.target)
                moves = [succ for _, succ in successors(search, state)]
                image_moves = [succ for _, succ in successors(search, image)]
                shapes = [sorted(sorted(s.zone.cells) for s in ms) for ms in (moves, image_moves)]
                assert shapes[0] == shapes[1]
                reached += moves
            frontier = reached[:150]
        assert permuted > 100


def one_in_cs_query(n, net):
    """Process 1 in CS with the lock naming it: processes 2..n may permute."""
    return parse_query(f"go({gen.fischer_initial(n)}, {gen.fischer_vector(n, {1: 'CS'}, 1)}/true)", net)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("wait", [2, 1])
def test_fischer_verdicts_match_the_unreduced_search(n, wait, unsymmetric):
    net = parse_spec(gen.fischer_spec(n, 2, wait=wait))
    for query in (parse_query(gen.fischer_mutex_query(n), net), one_in_cs_query(n, net)):
        for options in CAPPED:
            reduced = explore(net, query, options)
            plain = unsymmetric(explore, net, query, options)
            if Verdict.INCONCLUSIVE not in (reduced.verdict, plain.verdict):
                assert reduced.verdict is plain.verdict
            if reduced.verdict is Verdict.REACHABLE:
                assert replay_witness(net, query, reduced.witness, EXACT)
    # mutex holds exactly when wait >= bound
    verdict = explore(net, parse_query(gen.fischer_mutex_query(n), net)).verdict
    assert verdict is (Verdict.UNREACHABLE if wait == 2 else Verdict.REACHABLE)


def _atoms(rng, clocks, most=2):
    atoms = []
    for _ in range(rng.randint(0, most)):
        lhs = rng.choice(clocks)
        others = [c for c in clocks if c != lhs]
        rhs = rng.choice(others) if others and rng.random() < 0.2 else None
        atoms.append(Atom(lhs, rhs, rng.choice(("<", "<=", "=", ">=", ">")), rng.randint(0, 3)))
    return ClockConstraint(tuple(atoms))


def symmetric_network(rng, k):
    """``k`` copies of a random process, plus a shared automaton with
    common locations ``c<j>`` and one ``own<i>`` location per copy (like
    Fischer's lock) that moves on some of every copy's labels alike,
    reading a clock ``z`` of its own."""
    nclocks, nlocs, nlabels, ncommon = (rng.randint(1, n) for n in (2, 3, 3, 2))
    process = [(rng.randrange(nlocs), rng.randrange(nlabels), rng.random(), rng.randrange(nlocs),
                rng.random() < 0.5) for _ in range(rng.randint(1, 5))]
    invariants = [rng.random() for _ in range(nlocs)]
    synced = sorted(rng.sample(range(nlabels), rng.randint(1, nlabels)))
    kinds = [f"c{j}" for j in range(ncommon)] + ["own"]
    shared = [(rng.choice(kinds), rng.choice(synced), rng.random(), rng.choice(kinds),
               rng.random() < 0.3) for _ in range(rng.randint(1, 4))]
    seed = rng.random()

    clock_names = [f"x{i}_{c}" for i in range(k) for c in range(nclocks)] + ["z"]
    clocks = tuple(ClockId(name, i) for i, name in enumerate(clock_names))
    location_names = [f"p{i}_{l}" for i in range(k) for l in range(nlocs)]
    location_names += [f"c{j}" for j in range(ncommon)] + [f"own{i}" for i in range(k)]
    locations = {name: LocationId(name, i) for i, name in enumerate(location_names)}
    label_names = [f"a{i}_{r}" for i in range(k) for r in range(nlabels)]
    labels = {name: LabelId(name, i) for i, name in enumerate(label_names)}

    def constraint(draw, mine):
        return _atoms(random.Random(draw), mine) if draw < 0.6 else TRUE

    automata = []
    for i in range(k):
        mine = clocks[i * nclocks:(i + 1) * nclocks]
        loc = [locations[f"p{i}_{l}"] for l in range(nlocs)]
        transitions = tuple(
            Transition(loc[src], labels[f"a{i}_{r}"], constraint(draw, mine),
                       mine[:1] if reset else (), loc[dst])
            for src, r, draw, dst, reset in process
        )
        invariant = {l: constraint(draw, mine) for l, draw in zip(loc, invariants)}
        alphabet = tuple(labels[f"a{i}_{r}"] for r in range(nlabels))
        automata.append(Automaton(tuple(loc), alphabet, invariant, transitions))
    z = clocks[-1:]

    def place(kind, i):
        return locations[f"own{i}" if kind == "own" else kind]

    transitions = tuple(
        Transition(place(src, i), labels[f"a{i}_{r}"], constraint(draw, z),
                   z if reset else (), place(dst, i))
        for i in range(k) for src, r, draw, dst, reset in shared
    )
    lock = tuple(locations[name] for name in location_names[k * nlocs:])
    automata.append(Automaton(lock, tuple(labels[f"a{i}_{r}"] for i in range(k) for r in synced),
                              {l: constraint(seed, z) for l in lock}, transitions))
    net = Network("sym", clocks, tuple(locations.values()), tuple(labels.values()), tuple(automata))
    return normalize_constants(validate(net))


def symmetric_query(rng, net, k):
    nlocs = len(net.automata[0].locations)
    same = rng.randrange(nlocs)  # most copies end at one location
    target = [aut.locations[same if rng.random() < 0.8 else rng.randrange(nlocs)]
              for aut in net.automata[:k]]
    target.append(rng.choice(net.automata[k].locations))
    source = tuple(aut.locations[0] for aut in net.automata)
    start = ClockConstraint(tuple(Atom(c, None, "=", 0) for c in net.clocks if rng.random() < 0.7))
    goal = _atoms(rng, net.clocks, most=1)
    return Query(StatePattern(source, start), StatePattern(tuple(target), goal))


def test_random_symmetric_networks_keep_their_verdicts(unsymmetric):
    rng = random.Random(16)
    found = reduced_searches = fewer = reachable = 0
    for _ in range(150):
        k = rng.randint(2, 3)
        net = symmetric_network(rng, k)
        found += any(list(twins) == list(range(k)) for twins in net.symmetry)
        q = symmetric_query(rng, net, k)
        reduced_searches += bool(_stabilizer(net, q.target))
        for options in CAPPED:
            reduced = explore(net, q, options)
            plain = unsymmetric(explore, net, q, options)
            if Verdict.INCONCLUSIVE not in (reduced.verdict, plain.verdict):
                assert reduced.verdict is plain.verdict
                fewer += reduced.stats.stored < plain.stats.stored
            if reduced.verdict is Verdict.REACHABLE:
                assert replay_witness(net, q, reduced.witness, EXACT)
                reachable += 1
    assert found > 140 and reduced_searches > 50
    assert fewer > 30 and reachable > 100


def _swap_product(net, orbit, perm):
    """The location map of a permutation of the orbit's run, composed from
    ``Network.permutation`` of the swaps of neighbours that bubble-sort it
    (the generators ``_goals`` closes the target's orbit under)."""
    members = orbit.members
    line = [members.index(perm[a]) for a in members]  # position p goes to line[p]
    swaps = []
    for end in range(len(line) - 1, 0, -1):
        for j in range(end):
            if line[j] > line[j + 1]:
                line[j], line[j + 1] = line[j + 1], line[j]
                swaps.append({members[j]: members[j + 1], members[j + 1]: members[j]})
    # line ∘ τ_1 ∘ … ∘ τ_m is the identity, so the permutation is τ_m ∘ … ∘ τ_1
    automaton = {a: a for a in members}
    moved = {loc: loc for loc in net.locations}
    for swap in swaps:
        step = net.permutation(swap)
        automaton = {a: swap.get(b, b) for a, b in automaton.items()}
        moved = {loc: step.get(m, m) for loc, m in moved.items()}
    assert automaton == perm
    return moved


def test_every_permutation_of_a_run_is_the_product_of_its_swaps():
    """A canonical form moves locations by ``Network.permutation`` of the
    whole sort permutation, while the target's orbit is closed under the
    swaps of neighbours: the two must agree on every location."""
    orbits = []
    for n in (3, 4, 5, 6):
        net, mutex = fischer(n)
        orbits += [(net, orbit) for query in (mutex, one_in_cs_query(n, net)) for orbit in _group(net, query)]
    fischer_orbits = len(orbits)
    rng = random.Random(16)  # the networks of test_random_symmetric_networks_keep_their_verdicts
    for _ in range(150):
        k = rng.randint(2, 3)
        net = symmetric_network(rng, k)
        orbits += [(net, orbit) for orbit in _group(net, symmetric_query(rng, net, k))]
    checked = 0
    for net, orbit in orbits:
        for images in itertools.permutations(orbit.members):
            perm = dict(zip(orbit.members, images))
            whole = net.permutation(perm)
            assert whole is not None
            assert {loc: whole.get(loc, loc) for loc in net.locations} == _swap_product(net, orbit, perm)
            checked += 1
    assert fischer_orbits == 8 and len(orbits) > 120 and checked > 2000


# -- per-network tables -----------------------------------------------------------


@pytest.mark.parametrize("n, stored", [(8, 172), (9, 228), (10, 295)])
def test_fischer_counts_at_scale(n, stored):
    net, query = fischer(n)
    for order in ("bfs", "dfs"):
        result = explore(net, query, SearchOptions(order=order))
        assert result.verdict is Verdict.UNREACHABLE and result.stats.stored == stored
    if n == 8:
        net = parse_spec(gen.fischer_spec(n, 2, wait=1))
        query = parse_query(gen.fischer_mutex_query(n), net)
        result = explore(net, query)
        assert result.verdict is Verdict.REACHABLE
        assert replay_witness(net, query, result.witness, EXACT)


def test_a_second_search_builds_no_symmetry_table(monkeypatch, train_net):
    # _relabelled searches a swap's bijections, _image maps a pattern for
    # the stabilizer and the target's orbit
    calls = {"_relabelled": 0, "_image": 0}

    def counted(name):
        original = getattr(symmetry, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(symmetry, name, counted(name))
    net, query = fischer(6)
    assert explore(net, query, SearchOptions(order="bfs")).stats.stored == 89
    generators = sum(len(orbit.members) - 1 for orbit in _group(net, query))
    assert 0 < calls["_relabelled"] <= generators and calls["_image"] > 0
    calls.update(dict.fromkeys(calls, 0))
    assert explore(net, query, SearchOptions(order="dfs")).stats.stored == 89
    assert calls == {"_relabelled": 0, "_image": 0}
    # without twins the network keeps no table, also when a class of
    # look-alikes fails on a swap (no swap of 1 and 2 maps the lock onto itself)
    stuck = parse_spec(gen.fischer_spec(4, 2).replace("      id1 , enter1 : true , nil , id1 .\n", ""))
    for net, text in ((train_net, QUERIES_PATH.read_text().splitlines()[1]),
                      (stuck, gen.fischer_mutex_query(4))):
        explore(net, parse_query(text, net))
        assert net.symmetry == () and "_symmetry" not in vars(net)


def test_symmetry_imports_no_zone_module():
    """Locations and clocks are mapped without zone code: a zone is read
    only through its ``cells`` and ``permute``."""
    imported = _imported_modules(symmetry)
    assert "zonereach.model" in imported
    assert not {"zonereach.dbm", "zonereach.formula", "zonereach.explorer"} & imported
