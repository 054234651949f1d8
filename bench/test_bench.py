"""Tests for the benchmark's own code.

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

import run

run._load_program()

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from zonereach import explorer, parse_query, parse_spec  # noqa: E402
from zonereach.explorer import SearchOptions  # noqa: E402
from zonereach.simulate import sim_reach_oracle  # noqa: E402


@pytest.mark.parametrize(
    "n, order, stored",
    [(2, "bfs", 27), (2, "dfs", 27), (3, "bfs", 253), (3, "dfs", 321)],
)
def test_fischer_keeps_mutual_exclusion_with_fixed_counts(n, order, stored):
    net = parse_spec(gen.fischer_spec(n, 2))
    result = explorer.explore(net, parse_query(gen.fischer_mutex_query(n), net),
                              SearchOptions(order=order))
    assert str(result.verdict) == "False"
    assert result.stats.stored == stored


@pytest.mark.parametrize("n, stored", [(2, 24), (3, 89)])
def test_fischer_breaks_mutual_exclusion_when_waiting_too_little(n, stored):
    net = parse_spec(gen.fischer_spec(n, 2, wait=1))
    result = explorer.explore(net, parse_query(gen.fischer_mutex_query(n), net),
                              SearchOptions(order="bfs"))
    assert str(result.verdict) == "True"
    assert result.stats.stored == stored
    assert [label.name for label in result.witness] == [
        "try1", "try2", "set1", "enter1", "set2", "enter2"]


def test_train_sweep_draw_is_seeded_and_balanced():
    targets = [f"T{i}.nil" for i in range(48)]
    first = gen.train_sweep_queries(7, targets)
    assert first == gen.train_sweep_queries(7, targets)
    assert first != gen.train_sweep_queries(8, targets)
    assert len(first) == 21 * 48
    for i, clock in enumerate(gen.TRAIN_CLOCKS):
        atoms = [re.fullmatch(rf"{clock}(<=|>=|=)(\d)", q.split("/")[1].split(" ^ ")[i])
                 for q in first]
        assert Counter(a[1] for a in atoms) == {op: 7 * 48 for op in ("<=", ">=", "=")}
        assert Counter(a[2] for a in atoms) == {str(c): 3 * 48 for c in range(7)}


def answers_of(workload, inputs, traced: bool):
    if not traced:
        return workload.answer(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        return workload.answer(inputs)
    finally:
        tracer.remove()


class SmallSweep(workloads.TrainSweep):
    """The first few train-sweep queries, to keep the tests quick."""

    def prepare(self):
        net, queries = super().prepare()
        return net, queries[:24]


@pytest.mark.parametrize("workload", [SmallSweep(3), workloads.Selftest(1)])
def test_traced_and_untraced_runs_agree(workload):
    inputs = workload.prepare()
    plain = answers_of(workload, inputs, traced=False)
    traced = answers_of(workload, inputs, traced=True)
    assert run.signature(plain) == run.signature(traced)
    assert run.mismatches(plain, traced) == 0
    assert workload.check(inputs, plain) == []


def test_reference_check_rejects_an_injected_wrong_verdict():
    workload = SmallSweep(3)
    net, queries = inputs = workload.prepare()
    answers = workload.answer(inputs)
    assert workload.check(inputs, answers) == []
    flip = {"True": "False", "False": "True"}
    for i in (next(i for i, a in enumerate(answers) if a.verdict == "True"),
              next(i for i, a in enumerate(answers) if a.verdict == "False")):
        wrong = list(answers)
        wrong[i] = dataclasses.replace(answers[i], verdict=flip[answers[i].verdict])
        problems = workload.check(inputs, wrong)
        assert problems and all(queries[i][0] in p for p in problems)


class FlippedSelftest(workloads.Selftest):
    """Expects the last query, which is reachable, to be unreachable."""

    def queries(self):
        *rest, (text, reachable) = super().queries()
        return rest + [(text, not reachable)]


def test_selftest_check_rejects_a_disagreement_and_a_wrong_verdict():
    workload = workloads.Selftest(1)
    argv = workload.prepare()
    answers = workload.answer(argv)
    assert [a.verdict for a in answers] == ["agree: 5/5"]
    assert answers[0].stored > 0
    wrong = [dataclasses.replace(answers[0], verdict="agree: 4/5")]
    assert workload.check(argv, wrong) == [
        f"expected 'agree: 5/5', got 'agree: 4/5': {answers[0].query}"]
    flipped = FlippedSelftest(1)
    assert flipped.check(argv, answers) == [
        f"expected False, got True: {flipped.queries()[-1][0]}"]


def test_fischer_check_rejects_a_reachable_verdict():
    workload = workloads.FischerMutex(1)
    workload.n, workload.oracle_states = 2, 2_000
    inputs = workload.prepare()
    answers = workload.answer(inputs)
    assert workload.check(inputs, answers) == []
    wrong = [dataclasses.replace(answers[0], verdict="True")] + answers[1:]
    assert workload.check(inputs, wrong) == [f"expected False: {answers[0].query}"]


def test_repetitions_that_differ_count_as_mismatches():
    workload = SmallSweep(3)
    answers = workload.answer(workload.prepare())
    changed = [dataclasses.replace(answers[0], stored=answers[0].stored + 1)] + answers[1:]
    assert run.mismatches(answers, changed) == 1
    assert run.mismatches(answers, answers[:-2]) == 2


def test_self_times_add_up_to_the_measured_time():
    workload = workloads.FischerMutex(1)
    workload.n = 3
    tracer = Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        with tracer.span("bench.rep"):
            workload.answer(workload.prepare())
        wall = time.perf_counter() - started
    finally:
        tracer.remove()
    table = tracer.summary()
    share = run.self_share(table, [run.Rep(wall, [], 0.1)])
    assert 1 - run.SELF_SHARE_SLACK <= share <= 1
    assert table["dbm.close"]["spans"] > 0 and table["formula.fm_intersect"]["spans"] == 0
    assert tracer.counts["explorer.successors.calls"] == 253 + 321
    assert explorer.explore.__module__ == "zonereach.explorer"  # hooks removed


def test_a_missing_hook_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install(hooks=(("gone.function", ("zonereach.explorer:no_such_function",)),
                          ("gone.module", ("zonereach.no_such_module:f",)),
                          ("explorer.is_goal", ("zonereach.explorer:is_goal",))))
    try:
        assert tracer.missing == ["gone.function", "gone.module"]
        assert "explorer.is_goal" in tracer.layers
    finally:
        tracer.remove()


def test_tail_percentile_depends_on_the_query_count_only():
    assert run.tail([1.0, 3.0])[0] == "max"
    assert run.tail(list(map(float, range(20))))[0] == "p50"
    assert run.tail(list(map(float, range(1008))))[0] == "p99"
    label, value = run.tail(list(map(float, range(1001))))
    assert (label, value) == ("p99", 990.0)


def test_query_costs_are_median_latencies_each_scaled_by_its_own_loop():
    def rep(loop, *seconds):
        answers = [workloads.Answer(f"q{i}", "False", 1, s) for i, s in enumerate(seconds)]
        return run.Rep(sum(seconds), answers, loop)

    reps = [rep(0.1, 3.0, 1.0), rep(0.4, 4.0, 10.0), rep(0.05, 1.0, 0.5)]
    assert run.query_costs(reps, calibrated=False) == [3.0, 1.0]
    assert run.query_costs(reps) == pytest.approx([2.0, 1.0])
    assert run.query_costs(reps[1:]) == pytest.approx([(1.0 + 2.0) / 2, (2.5 + 1.0) / 2])


def test_any_vector_with_two_critical_sections_violates_mutual_exclusion():
    net = parse_spec(gen.fischer_spec(3, 2, wait=1))
    query = parse_query(gen.fischer_mutex_query(3), net)
    reached = sim_reach_oracle(net, query, Fraction(4), Fraction(1, 2)).vectors
    violating = {v for v in reached if workloads.critical_sections(v) > 1}
    assert query.target.locations in violating and len(violating) > 1
    assert all(workloads.critical_sections(v) <= 1 for v in reached - violating)
