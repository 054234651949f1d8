"""The release gate.

Seven checks, each printing one pass/fail line.  Every frozen value
below was computed by an independent path before the checked code
existed: the simulation oracle, the grid masks, or a by-hand
derivation recorded next to the assert.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import LITERAL_PATH, TRAIN_PATH
from oracles import (
    constraint_mask,
    dbm_mask,
    elapse_mask,
    exists_mask,
    fm_equiv,
    from_bounds,
    formula_mask,
    grid,
    make_clocks,
    random_constraint,
    reset_mask,
)
from test_parser import random_network
from zonereach import parse_query, parse_spec, pretty_print
from zonereach.dbm import Dbm
from zonereach.explorer import SearchOptions, Verdict, explore, replay_witness
from zonereach.formula import (
    Formula,
    fm_elapse,
    fm_intersect,
    fm_is_empty,
    fm_reset,
)
from zonereach.model import ClockConstraint, ValidationError, normalize_constants, validate
from zonereach.parser import ParseError
from zonereach.simulate import find_concrete_run, sim_reach_oracle

INSIDE = "go(Far.Up.u0.nil/true, In.Down.u0.nil/true)"
UNSAFE = "go(Far.Up.u0.nil/true, In.Up.u0.nil/true)"

EIGHT_CONFIGS = [
    SearchOptions(backend=b, order=o, subsumption=s)
    for b in ("dbm", "formula")
    for o in ("dfs", "bfs")
    for s in ("equal", "include")
]
FAITHFUL = SearchOptions(subsumption="equal", extrapolate=False)

# every product vector the train system can actually occupy, fixed by a
# pre-build simulation sweep (horizon 12, step 1/2)
REACHABLE_VECTORS = frozenset(
    {
        "Far.Up.u0",
        "Far.Down.u2",
        "Far.t2.u0",
        "Near.Up.u1",
        "Near.t1.u0",
        "Near.Down.u0",
        "Near.t2.u1",
        "In.Down.u0",
        "After.Down.u0",
    }
)

TRIALS = 1000


@pytest.fixture
def report(capsys):
    @contextmanager
    def gate(number: int, label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\ncriterion {number}: FAIL  {label}")
            raise
        with capsys.disabled():
            print(f"\ncriterion {number}: PASS  {label}")

    return gate


def _trials(count: int):
    """The shared random-constraint stream for checks 3 and 4."""
    rng = random.Random(4242)
    for _ in range(count):
        n = rng.randint(1, 4)
        clocks = make_clocks(n)
        first = random_constraint(rng, clocks)
        second = random_constraint(rng, clocks)
        var = rng.choice(clocks)
        k = {clock: rng.randint(0, 10) for clock in clocks}
        yield clocks, first, second, var, k


@pytest.fixture(scope="module")
def sweep(train_net):
    """Verdicts for all 48 product vectors under all eight configurations."""
    vectors = [
        ".".join(loc.name for loc in combo)
        for combo in itertools.product(*(a.locations for a in train_net.automata))
    ]
    started = time.perf_counter()
    verdicts: dict[str, set[Verdict]] = {}
    witnesses: dict[str, tuple] = {}
    for name in vectors:
        query = parse_query(f"go(Far.Up.u0.nil/true, {name}.nil/true)", train_net)
        seen = set()
        for options in EIGHT_CONFIGS:
            result = explore(train_net, query, options)
            seen.add(result.verdict)
            if result.verdict is Verdict.REACHABLE:
                witnesses[name] = result.witness
        verdicts[name] = seen
    return vectors, verdicts, witnesses, time.perf_counter() - started


def test_criterion_1_train_verdicts(report, train_net):
    with report(1, "train crossing verdicts under every configuration"):
        inside = parse_query(INSIDE, train_net)
        unsafe = parse_query(UNSAFE, train_net)
        for options in EIGHT_CONFIGS + [FAITHFUL]:
            for query, expected in ((inside, Verdict.REACHABLE), (unsafe, Verdict.UNREACHABLE)):
                started = time.perf_counter()
                result = explore(train_net, query, options)
                assert time.perf_counter() - started < 1.0
                assert result.verdict is expected


def test_criterion_2_safety_sweep(report, train_net, sweep):
    with report(2, "48-target safety sweep agrees and matches the simulation oracle"):
        vectors, verdicts, _, elapsed = sweep
        assert len(vectors) == 48
        for name in vectors:
            assert len(verdicts[name]) == 1, f"configurations disagree on {name}"
        trues = {name for name in vectors if Verdict.REACHABLE in verdicts[name]}
        assert trues == REACHABLE_VECTORS
        oracle = sim_reach_oracle(
            train_net, parse_query(INSIDE, train_net), horizon=Fraction(12), granularity=Fraction(1, 2)
        )
        assert not oracle.inconclusive
        reached = {".".join(loc.name for loc in vector) for vector in oracle.vectors}
        assert reached <= trues  # every concretely reachable vector got a True verdict
        assert elapsed < 120.0


def test_criterion_3_dbm_properties(report):
    with report(3, f"matrix operations exact on {TRIALS} random constraints"):
        rng = random.Random(77)
        for clocks, first, second, var, k in _trials(TRIALS):
            n = len(clocks)
            z = Dbm.from_constraint(first, clocks)
            w = Dbm.from_constraint(second, clocks)

            if z.cells is not None:
                assert from_bounds(clocks, z.cells).cells == z.cells
            shuffled = list(first.atoms)
            rng.shuffle(shuffled)
            assert Dbm.from_constraint(ClockConstraint(tuple(shuffled)), clocks).cells == z.cells

            meet = z.intersect(w)
            wide = z.elapse()
            assert z.includes(z)
            assert z.includes(meet) and w.includes(meet)
            if z.includes(w) and w.includes(z):
                assert z.cells == w.cells
            assert wide.includes(z) and wide.includes(meet)  # transitivity instance

            assert wide.elapse().cells == wide.cells
            assert wide.includes(z)
            coarse = z.extrapolate(k)
            assert coarse.includes(z)
            assert coarse.extrapolate(k).cells == coarse.cells

            pts = grid(n)
            base = constraint_mask(first, clocks, pts)
            assert np.array_equal(dbm_mask(z, pts), base)
            assert np.array_equal(dbm_mask(meet, pts), base & constraint_mask(second, clocks, pts))
            assert np.array_equal(dbm_mask(z.reset([var]), pts), reset_mask(first, clocks, var, pts))
            assert np.array_equal(dbm_mask(wide, pts), elapse_mask(first, clocks, pts))
            assert np.array_equal(dbm_mask(z.free([var]), pts), exists_mask(first, clocks, var, pts))


def test_criterion_4_backend_crosscheck(report):
    with report(4, f"both zone representations agree on {TRIALS} random constraints"):
        for clocks, first, second, var, _ in _trials(TRIALS):
            z = Dbm.from_constraint(first, clocks)
            w = Dbm.from_constraint(second, clocks)
            f = Formula.from_constraint(first, clocks)
            g = Formula.from_constraint(second, clocks)

            assert fm_is_empty(f) == z.is_empty()
            assert fm_intersect(f, g).closed_cells == z.intersect(w).cells
            assert fm_reset(f, [var]).closed_cells == z.reset([var]).cells
            assert fm_elapse(f).closed_cells == z.elapse().cells

            freed = f.free([var])  # fm_exists, with the clock back in scope
            forgot = z.free([var])
            assert freed.closed_cells == forgot.cells
            pts = grid(len(clocks))
            assert np.array_equal(formula_mask(freed, pts), exists_mask(first, clocks, var, pts))
            roundtrip = Formula.from_constraint(forgot.to_constraint(), clocks)
            assert fm_equiv(freed, roundtrip)


def test_criterion_5_divergence_safeguard(report, diverging_net):
    with report(5, "coarsening bounds the diverging loop"):
        query = parse_query("go(s0.nil/x=0 ^ y=0 ^ true, s0.nil/x-y>0 ^ true)", diverging_net)
        # k(x) = 1, k(y) = 0: at most (0 + 2) * (1 + 2) = 6 stored zones
        for options in EIGHT_CONFIGS:
            result = explore(diverging_net, query, options)
            assert result.verdict is Verdict.UNREACHABLE
            assert result.stats.stored == 2  # [pre-build run: diagonal ray + widened tail]
            assert result.stats.stored <= 6
        capped = SearchOptions(subsumption="equal", extrapolate=False, max_zones=10_000)
        runaway = explore(diverging_net, query, capped)
        assert runaway.verdict is Verdict.INCONCLUSIVE
        assert runaway.stats.stored == 10_000


def test_criterion_6_parser(report):
    with report(6, "grammar round-trips and survives truncation"):
        literal = LITERAL_PATH.read_text()
        net = parse_spec(literal)  # zero diagnostics: no exception
        assert parse_spec(pretty_print(net)) == net

        corrected = parse_spec(TRAIN_PATH.read_text())
        assert parse_spec(pretty_print(corrected)) == corrected

        rng = random.Random(31337)
        for _ in range(200):
            generated = normalize_constants(validate(random_network(rng)))
            assert parse_spec(pretty_print(generated)) == generated

        for cut in range(0, len(literal), 13):
            try:
                parse_spec(literal[:cut])
            except (ParseError, ValidationError):
                continue  # a diagnostic, not a crash


def test_criterion_7_witness_validity(report, train_net, sweep):
    with report(7, "every positive verdict replays symbolically and concretely"):
        _, verdicts, witnesses, _ = sweep
        inside = parse_query(INSIDE, train_net)
        for options in EIGHT_CONFIGS + [FAITHFUL]:
            result = explore(train_net, inside, options)
            assert result.verdict is Verdict.REACHABLE
            assert replay_witness(train_net, inside, result.witness, options)
            steps = find_concrete_run(
                train_net, inside, result.witness, horizon=Fraction(12), granularity=Fraction(1, 2)
            )
            assert steps is not None and len(steps) == len(result.witness)

        trues = {name for name in verdicts if Verdict.REACHABLE in verdicts[name]}
        assert set(witnesses) == trues
        for name, witness in sorted(witnesses.items()):
            query = parse_query(f"go(Far.Up.u0.nil/true, {name}.nil/true)", train_net)
            assert replay_witness(train_net, query, witness)
            steps = find_concrete_run(
                train_net, query, witness, horizon=Fraction(12), granularity=Fraction(1, 2)
            )
            assert steps is not None and len(steps) == len(witness)
