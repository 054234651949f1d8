"""zonereach benchmark: one workload, untraced or traced, checked.

    python3 bench/run.py --workload train-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (nothing needs to be installed), and the run fails with status
1 before printing any result when the checkout has no program.
Workloads (see ``workloads.py``):

* ``fischer-mutex``: one deep exhaustive search, Fischer n=4, asked
  breadth- and depth-first.  DBM closure and the visited-set scan.
* ``train-sweep``: about a thousand shallow searches on the crossing
  system, drawn from the seed.  Fixed per-query costs.
* ``selftest``: ``zonereach --selftest`` on Fischer n=3.  The formula
  backend and the command line.

Every time is reported in reference seconds: measured seconds scaled
by the speed of a fixed calibration loop timed just before (see
``calibration.py``); the raw figures are printed too.

Set-up is timed apart from answering: ``setup_s`` is the median over
seven fresh interpreters of importing the package, generating and
parsing the inputs.  Then the workload is answered once untimed (to
warm up, and as the repetition checked against the reference) and
again and again until ``--seconds`` have passed, at least once.

``--trace 0`` reports the end-to-end metrics.  Each query is costed
at its median latency over the repetitions (see ``query_costs``);
``wall_s`` sums those costs and ``query_p50_ms`` is their median.
The selftest command is costed as one query and fischer-mutex asks
two, so on those two workloads ``query_p50_ms`` only follows
``wall_s``.  The tail (see ``tail``) is printed with the details but
is not an end-to-end metric: on a shared 2-core VM its spread between
runs reached 23%, too close to any bound it could be given.
``stored_zones`` counts the zones the searches stored,
``decided_frac`` the share of answers that are not Inconclusive, and
``peak_rss_mb`` is the process's peak resident memory.

``--trace 1`` spends half the time untraced and half with spans
around every layer (see ``spans.py``) and reports per-layer calls,
seconds and self seconds per repetition, the useful-work ratios, the
overhead of tracing, and the share of the traced time that the spans'
self times add up to (a run whose spans miss or double-count more
than 1% of it is not correct).

Both modes check the reference repetition against an independent
reference outside the timed part, and require every timed
repetition, traced or not, to reproduce its verdicts and stored-zone
counts exactly; each mismatch is a wrong verdict.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it say the
same for a human.  Per-run results and the spans of traced runs go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEFAULT_SEED = 1
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SELF_SHARE_SLACK = 0.01  # time between a repetition's two root spans


def _load_program() -> None:
    """Import the package from this checkout's sources, nowhere else."""
    package = ROOT / "src" / "zonereach" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"bench: no program at {package.parent}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import zonereach  # noqa: F401

    loaded = Path(sys.modules["zonereach"].__file__).resolve()
    if loaded != package.resolve():
        raise SystemExit(f"bench: imported {loaded}, expected {package}")


def _workload(name: str, seed: int):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed)


def setup_probe(name: str, seed: int) -> float:
    """Import, generate and parse in this (fresh) interpreter; in
    reference seconds."""
    started = time.perf_counter()
    _load_program()
    _workload(name, seed).prepare()
    seconds = time.perf_counter() - started
    return seconds * calibration.scale(calibration.loop_seconds())


def median_setup(name: str, seed: int, probes: int = SETUP_PROBES) -> float:
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def percentile(ordered: list[float], p: float) -> float:
    rank = p / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Rep(NamedTuple):
    wall: float  # seconds, as measured
    answers: list
    loop: float  # median seconds of the calibration loops run just before


def query_costs(reps, calibrated: bool = True) -> list[float]:
    """Each query's median latency over the repetitions, in reference
    seconds (see ``calibration``) unless ``calibrated`` is false.

    Other tenants of the machine slow it down in phases of a fraction
    of a second to minutes, so each repetition is scaled by the loops run
    just before it, and the median drops the repetitions that a burst
    hit between the loops and the work.  On a 2-vCPU VM, over ten
    consecutive stretches of seven selftest repetitions, this median
    spread by 4% (quartile distance over median); the least latency
    scaled by the stretch's median loop spread by 13%, and the
    unscaled median by 7%."""
    return [statistics.median(samples)
            for samples in zip(*[[a.seconds * (calibration.scale(r.loop) if calibrated else 1.0)
                                  for a in r.answers] for r in reps])]


def tail(costs: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten queries beyond it; the
    maximum when there are fewer than twenty queries.  It depends on
    the number of queries only, so it stays fixed across runs."""
    ordered = sorted(costs)
    for p in TAIL_LADDER:
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p:g}", percentile(ordered, p)
    return "max", ordered[-1]


def repeat(workload, inputs, seconds: float, each=None) -> list[Rep]:
    """Answer the workload until ``seconds`` have passed, at least once,
    each time after three runs of the calibration loop."""
    reps = []
    began = time.perf_counter()
    while True:
        gc.collect()
        loop = statistics.median(calibration.loop_seconds() for _ in range(3))
        started = time.perf_counter()
        answers = workload.answer(inputs) if each is None else each()
        reps.append(Rep(time.perf_counter() - started, answers, loop))
        if time.perf_counter() - began >= seconds:
            return reps


def signature(answers) -> list[tuple[str, str, int]]:
    return [(a.query, a.verdict, a.stored) for a in answers]


def mismatches(reference, answers) -> int:
    """Answers whose verdict or stored count differs from the reference
    repetition, plus any missing or extra ones."""
    ref, got = signature(reference), signature(answers)
    return sum(a != b for a, b in zip(ref, got)) + abs(len(ref) - len(got))


def end_to_end(reference, reps, setup_s: float) -> tuple[dict, dict]:
    costs = query_costs(reps)
    label, tail_s = tail(costs)
    decided = sum(a.verdict != "Inconclusive" for r in reps for a in r.answers)
    attempted = sum(len(r.answers) for r in reps)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(costs), "s"),
        "query_p50_ms": (statistics.median(costs) * 1e3, "ms"),
        "stored_zones": (sum(a.stored for a in reference), "count"),
        "decided_frac": (decided / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "repetitions": len(reps),
        "repetition_walls_s": [round(r.wall, 4) for r in reps],
        "calibration_loop_s": [round(r.loop, 4) for r in reps],
        "uncalibrated_wall_s": sum(query_costs(reps, calibrated=False)),
        "queries": len(costs),
        "query_tail_ms": tail_s * 1e3,
        "tail_percentile": label,
        "latency_samples": sum(len(r.answers) for r in reps),
        "verdicts": dict(Counter(a.verdict for a in reference)),
    }
    return metrics, details


def per_layer(tracer, traced_reps, untraced_reps) -> dict:
    """Per traced repetition: calls, seconds and self seconds of every
    hooked layer, the useful-work ratios, and the tracing overhead.
    Seconds are reference seconds, scaled by the traced repetitions'
    median calibration."""
    reps = len(traced_reps)
    per_rep = statistics.median(calibration.scale(r.loop) for r in traced_reps) / reps
    table = tracer.summary()
    count = tracer.counts
    metrics = {}
    for name, row in table.items():
        if name.startswith("bench."):
            continue
        metrics[f"{name}.calls"] = (count.get(name + ".calls", row["spans"]) / reps, "count")
        metrics[f"{name}.s"] = (row["s"] * per_rep, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] * per_rep, "s")
    yielded = count["explorer.successors.yielded"]
    includes = table.get("dbm.includes", {}).get("spans", 0)
    intersects = table.get("dbm.intersect", {}).get("spans", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics.update({
        "explorer.successors.yielded": (yielded / reps, "count"),
        "explorer.useful_ratio": (ratio(count["explorer.explore.stored"], yielded), "ratio"),
        "dbm.intersect.empty_ratio": (ratio(count["dbm.intersect.empty"], intersects), "ratio"),
        "dbm.includes.hit_ratio": (ratio(count["dbm.includes.hits"], includes), "ratio"),
        "dbm.includes.per_successor": (ratio(includes, yielded), "ratio"),
        "bench.setup.self_s": (table["bench.setup"]["self_s"] * per_rep, "s"),
        "bench.rep.self_s": (table["bench.rep"]["self_s"] * per_rep, "s"),
        "trace.wall_s": (tracer.root_seconds() * per_rep, "s"),
        "trace.self_share": (self_share(table, traced_reps), "ratio"),
        "trace_overhead": (
            sum(query_costs(traced_reps)) / sum(query_costs(untraced_reps)), "ratio"),
    })
    return metrics


def self_share(table: dict, traced_reps) -> float:
    """The spans' self times summed, as a share of the measured time of
    the traced repetitions.  Every repetition is two root spans
    (``bench.setup`` and ``bench.rep``), so the share is just below 1
    when nothing is counted twice and nothing escapes the spans."""
    self_sum = sum(row["self_s"] for row in table.values())
    return self_sum / sum(r.wall for r in traced_reps)


def traced_run(workload, seconds: float):
    """Repetitions with every hook installed, each preceded by a traced
    set-up; returns the tracer and the repetitions."""
    from spans import Tracer

    tracer = Tracer()

    def repetition():
        with tracer.span("bench.setup"):
            inputs = workload.prepare()
        with tracer.span("bench.rep"):
            return workload.answer(inputs)

    tracer.install()
    try:
        reps = repeat(workload, None, seconds, repetition)
    finally:
        tracer.remove()
    return tracer, reps


def run(name: str, seed: int, seconds: float, traced: bool) -> int:
    setup_s = None if traced else median_setup(name, seed)
    _load_program()
    workload = _workload(name, seed)
    inputs = workload.prepare()
    # The first repetition is not timed: it lets the allocator and the
    # caches warm up, and it is the one checked against the reference.
    reference = workload.answer(inputs)
    reps = repeat(workload, inputs, seconds / 2 if traced else seconds)
    metrics, details = end_to_end(reference, reps, setup_s)
    trace_problems = []
    if traced:
        tracer, traced_reps = traced_run(workload, seconds / 2)
        metrics = per_layer(tracer, traced_reps, reps)
        share = metrics["trace.self_share"][0]
        if not 1 - SELF_SHARE_SLACK <= share <= 1:
            trace_problems.append(f"span self times add up to {share:.2%} of the traced time")
        details.update(traced_repetitions=len(traced_reps), missing_hooks=tracer.missing)
        tracer.write(HERE / "out" / f"spans-{name}")
        reps += traced_reps
    problems = workload.check(inputs, reference)
    wrong = sum(mismatches(reference, r.answers) for r in reps)
    wrong += sum(not p.startswith("undecided") for p in problems)
    problems += trace_problems
    answered = [a for r in reps for a in r.answers] + reference
    failed = wrong + sum(a.verdict == "Inconclusive" for a in answered)
    details.update(wrong_verdicts=wrong, problems=problems[:20], seed=seed, workload=name)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(answered),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{name}-trace{int(traced)}.json").write_text(
        json.dumps({"details": details, **result}, indent=1) + "\n")
    for key, value in details.items():
        print(f"# {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key}\t{value:.6g}\t{unit}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="zonereach benchmark (see the module docstring)")
    p.add_argument("--workload", required=True, choices=("fischer-mutex", "train-sweep", "selftest"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
