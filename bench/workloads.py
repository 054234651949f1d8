"""The benchmark workloads: inputs, the timed answering, reference checks.

Each workload has three parts.  ``prepare`` generates and parses its
inputs (the set-up a user pays before asking anything).  ``answer``
asks every query once and returns one ``Answer`` per search, or one
for a whole command; it is the only timed part.  ``check`` compares
the answers of one repetition with an independent reference and
returns a list of problems.  The program is called through module
attributes (``explorer.explore``, ``cli.main``), which is where the
trace hooks sit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from zonereach import cli, explorer, parser
from zonereach.explorer import SearchOptions
from zonereach.simulate import find_concrete_run, sim_reach_oracle

import gen

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TRAIN_SPEC = ROOT / "specs" / "train_gate_controller.ta"

# Reference simulation: half-step delays within twelve time units.
HORIZON = Fraction(12)
GRID = Fraction(1, 2)


@dataclass(frozen=True)
class Answer:
    query: str
    verdict: str  # "True", "False" or "Inconclusive"
    stored: int
    seconds: float
    witness: Optional[tuple] = None


class Workload:
    """Subclasses define ``prepare``, ``answer`` and ``check``."""

    name = ""
    # Generous per-search guards: hitting one leaves the query
    # undecided, which counts as a failure, never as a verdict.
    guard = SearchOptions(max_zones=200_000, max_seconds=60.0)

    def __init__(self, seed: int):
        self.seed = seed  # only train-sweep draws its inputs; the others are fixed

    def _explore(self, net, query, text: str, options: SearchOptions) -> Answer:
        started = time.perf_counter()
        result = explorer.explore(net, query, options)
        seconds = time.perf_counter() - started
        return Answer(text, str(result.verdict), result.stats.stored, seconds, result.witness)


def _undecided(answers: list[Answer]) -> list[str]:
    return [f"undecided: {a.query}" for a in answers if a.verdict == "Inconclusive"]


def critical_sections(vector) -> int:
    """Fischer processes of a location vector that are in their critical
    section (locations ``CS<i>``, see ``gen.fischer_spec``)."""
    return sum(loc.name.startswith("CS") for loc in vector)


class FischerMutex(Workload):
    """Fischer n=4, delta = Delta = 2: mutual exclusion of processes 1
    and 2, asked once breadth-first and once depth-first."""

    name = "fischer-mutex"
    n, bound = 4, 2
    oracle_states = 20_000  # the full grid run does not fit a benchmark

    def prepare(self):
        net = parser.parse_spec(gen.fischer_spec(self.n, self.bound))
        text = gen.fischer_mutex_query(self.n)
        return net, text, parser.parse_query(text, net)

    def answer(self, inputs) -> list[Answer]:
        net, text, query = inputs
        return [
            self._explore(net, query, f"{order}: {text}", dataclasses.replace(self.guard, order=order))
            for order in ("bfs", "dfs")
        ]

    def check(self, inputs, answers: list[Answer]) -> list[str]:
        net, _, query = inputs
        problems = _undecided(answers)
        # wait >= bound, so Fischer's argument proves mutual exclusion.
        problems += [f"expected False: {a.query}" for a in answers if a.verdict == "True"]
        reached = sim_reach_oracle(net, query, HORIZON, GRID, max_states=self.oracle_states)
        if any(critical_sections(v) > 1 for v in reached.vectors):
            problems.append("the simulation puts two processes in their critical sections")
        return problems


class TrainSweep(Workload):
    """About a thousand seeded queries on the bundled crossing system."""

    name = "train-sweep"
    guard = SearchOptions(max_zones=100_000, max_seconds=10.0)

    def prepare(self):
        net = parser.parse_spec(TRAIN_SPEC.read_text())
        targets = gen.train_targets([[loc.name for loc in a.locations] for a in net.automata])
        texts = gen.train_sweep_queries(self.seed, targets)
        return net, [(text, parser.parse_query(text, net)) for text in texts]

    def answer(self, inputs) -> list[Answer]:
        net, queries = inputs
        return [self._explore(net, query, text, self.guard) for text, query in queries]

    def check(self, inputs, answers: list[Answer]) -> list[str]:
        net, queries = inputs
        return check_against_reference(net, [q for _, q in queries], answers)


def check_against_reference(net, queries, answers: list[Answer]) -> list[str]:
    """Every True replays as a concrete timed run, no False is
    contradicted by the simulation, and the formula backend agrees."""
    problems = _undecided(answers)
    oracle: dict = {}
    formula = SearchOptions(backend="formula")
    for query, a in zip(queries, answers):
        if a.verdict == "True":
            if a.witness is None or find_concrete_run(net, query, a.witness, HORIZON, GRID) is None:
                problems.append(f"no concrete run for the witness: {a.query}")
        elif a.verdict == "False" and query.target.constraint.is_true:
            if query.source not in oracle:
                oracle[query.source] = sim_reach_oracle(net, query, HORIZON, GRID).vectors
            if query.target.locations in oracle[query.source]:
                problems.append(f"the simulation reaches the target: {a.query}")
        reference = str(explorer.explore(net, query, formula).verdict)
        if reference != a.verdict:
            problems.append(f"formula backend says {reference}: {a.query}")
    return problems


class Selftest(Workload):
    """``zonereach --selftest`` on Fischer n=3: the three mutex pairs
    and two reachable targets, each under dbm/formula x dfs/bfs.  The
    command is one answer: what it prints, timed as a whole."""

    name = "selftest"
    n, bound = 3, 2

    def queries(self) -> list[tuple[str, bool]]:
        n, start = self.n, gen.fischer_initial(self.n)
        pairs = [(1, 2), (1, 3), (2, 3)]
        return [(gen.fischer_mutex_query(n, a, b), False) for a, b in pairs] + [
            (f"go({start}, {gen.fischer_vector(n, {1: 'C', 2: 'C', 3: 'C'}, 3)}/true)", True),
            # CS1, not CS2: the depth-first witness for CS2 is 49 labels
            # long and needs 26 time units; the reference's grid search
            # confirms it, but takes over a minute.
            (f"go({start}, {gen.fischer_vector(n, {1: 'CS'}, 1)}/x1>3 ^ true)", True),
        ]

    def prepare(self):
        OUT.mkdir(exist_ok=True)
        spec = OUT / f"fischer{self.n}.ta"
        spec.write_text(gen.fischer_spec(self.n, self.bound))
        argv = [str(spec), "--selftest",
                "--max-zones", str(self.guard.max_zones), "--timeout", str(self.guard.max_seconds)]
        for text, _ in self.queries():
            argv += ["--query", text]
        return argv

    def answer(self, argv) -> list[Answer]:
        """One answer for the whole ``cli.main`` call: its verdict is the
        line the command prints when it exits with success, else
        Inconclusive.  The explorer as the CLI binds it is tapped only to
        count the zones its searches store; the command may search in
        any order and any number of times."""
        stored = []
        original = getattr(cli, "explore", None)

        def tap(*args, **kwargs):
            result = original(*args, **kwargs)
            stored.append(result.stats.stored)
            return result

        if original is not None:
            cli.explore = tap
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(argv)
        finally:
            seconds = time.perf_counter() - started
            if original is not None:
                cli.explore = original
        verdict = out.getvalue().strip() if status == cli.OK else "Inconclusive"
        return [Answer(f"zonereach --selftest, {len(self.queries())} queries",
                       verdict, sum(stored), seconds)]

    def check(self, argv, answers: list[Answer]) -> list[str]:
        """The command reports that every configuration agrees, and,
        searched once more outside the command, every query gets its
        expected verdict: each True replays as a concrete run, and the
        simulation puts no two processes in their critical sections."""
        specs = self.queries()
        expected = f"agree: {len(specs)}/{len(specs)}"
        problems = _undecided(answers) + [
            f"expected {expected!r}, got {a.verdict!r}: {a.query}"
            for a in answers if a.verdict not in (expected, "Inconclusive")]
        net = parser.parse_spec(Path(argv[0]).read_text())
        queries = [parser.parse_query(text, net) for text, _ in specs]
        for query, (text, reachable) in zip(queries, specs):
            result = explorer.explore(net, query, self.guard)
            if str(result.verdict) != str(reachable):
                problems.append(f"expected {reachable}, got {result.verdict}: {text}")
            elif reachable and find_concrete_run(net, query, result.witness, HORIZON, GRID) is None:
                problems.append(f"no concrete run for the witness: {text}")
        reached = sim_reach_oracle(net, queries[0], HORIZON / 2, GRID).vectors
        if any(critical_sections(v) > 1 for v in reached):
            problems.append("the simulation puts two processes in their critical sections")
        return problems


WORKLOADS = {w.name: w for w in (FischerMutex, TrainSweep, Selftest)}
