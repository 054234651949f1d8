"""Seeded input generators for the benchmark workloads.

Everything here is plain text in the ``.ta`` query language, so the
program under test receives only specifications and ``go(...)``
queries, exactly as a user would hand them over.
"""

from __future__ import annotations

import itertools
import random


def fischer_spec(n: int, bound: int, wait: int | None = None) -> str:
    """Fischer's mutual-exclusion protocol for ``n`` processes.

    The usual encoding: process ``i`` (clock ``x<i>``) cycles
    A -> B -> C -> CS -> A.  It leaves A only while the shared variable
    ``id`` is 0, must write ``id := i`` within ``bound`` time units of
    leaving A (invariant of B), and enters CS once more than ``wait``
    units have passed since the write and ``id`` still reads ``i``.  A
    process waiting in C that sees ``id`` = 0 again starts over in B
    with its clock reset.  Leaving CS writes ``id := 0``.  The variable
    is a lock automaton with locations ``id0`` .. ``id<n>`` that joins
    every process move through a label of its own.  Mutual exclusion
    holds exactly when ``wait >= bound``; ``wait`` defaults to
    ``bound``.
    """
    if n < 1:
        raise ValueError("Fischer's protocol needs at least one process")
    if wait is None:
        wait = bound
    procs = range(1, n + 1)
    ids = [f"id{j}" for j in range(n + 1)]
    locations = [f"{s}{i}" for i in procs for s in ("A", "B", "C", "CS")]
    labels = [f"{m}{i}" for i in procs for m in ("try", "set", "enter", "retry", "exit")]
    lines = [
        f"specification fischer{n}",
        "Clocks " + " ".join(f"x{i}" for i in procs) + " nil",
        "States " + " ".join(locations + ids) + " nil",
        "Labels " + " ".join(labels) + " nil",
        "Automata",
    ]
    for i in procs:
        x = f"x{i}"
        lines += [
            "  ( Locations " + " ".join(f"{s}{i}" for s in ("A", "B", "C", "CS")) + " nil",
            "    Labels " + " ".join(f"{m}{i}" for m in ("try", "set", "enter", "retry", "exit")) + " nil",
            f"    Invariants A{i} : true B{i} : {x}<={bound} ^ true C{i} : true CS{i} : true nil",
            "    Transitions",
            f"      A{i} , try{i} : true , {x} nil , B{i} .",
            f"      B{i} , set{i} : {x}<={bound} ^ true , {x} nil , C{i} .",
            f"      C{i} , enter{i} : {x}>{wait} ^ true , nil , CS{i} .",
            f"      C{i} , retry{i} : true , {x} nil , B{i} .",
            f"      CS{i} , exit{i} : true , nil , A{i} .",
            "      nil ) .",
        ]
    lock = []
    for i in procs:
        lock.append(f"      id0 , try{i} : true , nil , id0 .")
        lock += [f"      {s} , set{i} : true , nil , id{i} ." for s in ids]
        lock.append(f"      id{i} , enter{i} : true , nil , id{i} .")
        lock.append(f"      id0 , retry{i} : true , nil , id0 .")
        lock += [f"      {s} , exit{i} : true , nil , id0 ." for s in ids]
    lines += [
        "  ( Locations " + " ".join(ids) + " nil",
        "    Labels " + " ".join(labels) + " nil",
        "    Invariants " + " ".join(f"{s} : true" for s in ids) + " nil",
        "    Transitions",
        *lock,
        "      nil ) .",
        "  nil",
        "end",
    ]
    return "\n".join(lines) + "\n"


def fischer_vector(n: int, states: dict[int, str], lock: int) -> str:
    """Location vector text: process ``i`` in ``states.get(i, "A")``."""
    return ".".join([f"{states.get(i, 'A')}{i}" for i in range(1, n + 1)] + [f"id{lock}", "nil"])


def fischer_initial(n: int) -> str:
    """Every process idle, ``id`` = 0, every clock at zero."""
    return fischer_vector(n, {}, 0) + "/" + " ^ ".join(f"x{i}=0" for i in range(1, n + 1)) + " ^ true"


def fischer_mutex_query(n: int, a: int = 1, b: int = 2) -> str:
    """Processes ``a`` and ``b`` both in their critical sections, the
    others idle, ``id`` last written by ``b``."""
    return f"go({fischer_initial(n)}, {fischer_vector(n, {a: 'CS', b: 'CS'}, b)}/true)"


TRAIN_SOURCE = "Far.Up.u0.nil"
TRAIN_CLOCKS = ("X", "Y", "Z")


def train_targets(automata_locations: list[list[str]]) -> list[str]:
    """Every product location vector, in declaration order."""
    return [".".join(combo) + ".nil" for combo in itertools.product(*automata_locations)]


def train_sweep_queries(seed: int, targets: list[str], sources: int = 21) -> list[str]:
    """About a thousand seeded queries on the train/gate/controller.

    ``sources`` source constraints are drawn, each pinning every clock
    with a comparison (``<=``, ``>=`` or ``=``) against a bound in 0..6,
    and each is asked against every target vector with a ``true``
    constraint, in a seeded order.  Per clock, every comparison and
    every bound is used equally often (the draw is a shuffle of a
    balanced list), so seeds differ in which source combines what,
    not in how much work they ask for.  Sharing sources is what a user
    sweeping targets does, and it keeps the independent reference
    affordable: one simulation per source answers all of its targets.
    """
    rng = random.Random(seed)
    ops, consts = ("<=", ">=", "="), range(7)
    columns = []
    for clock in TRAIN_CLOCKS:
        op_column = [ops[i % len(ops)] for i in range(sources)]
        const_column = [consts[i % len(consts)] for i in range(sources)]
        rng.shuffle(op_column)
        rng.shuffle(const_column)
        columns.append([f"{clock}{op}{c}" for op, c in zip(op_column, const_column)])
    queries = []
    for atoms in zip(*columns):
        source = f"{TRAIN_SOURCE}/{' ^ '.join(atoms)} ^ true"
        queries += [f"go({source}, {target}/true)" for target in targets]
    rng.shuffle(queries)
    return queries
