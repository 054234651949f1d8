"""Machine-speed calibration for timings taken on a shared machine.

On a small VM that shares its host, pure-Python code runs up to twice
as slow for seconds to minutes at a time while other tenants are
busy, and the process's own CPU time slows with it, so no repetition
count inside one run averages that out.  So each repetition of a
workload is preceded by runs of a fixed loop that shares no code with
the program, and the repetition's times are scaled by ``REFERENCE_S``
/ (the loop time): they read as seconds on a machine where the loop
takes ``REFERENCE_S``.  The loop is the same kind of work the program
does (small integer matrices closed by Floyd-Warshall, tuples hashed
into a set), so a busy host slows both alike.  Raw times are reported
next to the scaled ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.1
SIZE = 6
ROUNDS = 3000  # about 0.1 s on a quiet 2-core VM


def loop_seconds() -> float:
    """Seconds the fixed loop takes on this machine right now."""
    started = time.perf_counter()
    seen = set()
    for r in range(ROUNDS):
        grid = [((i * 7 + j * 13 + r) % 17) * 2 if i != j else 0
                for i in range(SIZE) for j in range(SIZE)]
        for k in range(SIZE):
            krow = k * SIZE
            for i in range(SIZE):
                ik = grid[i * SIZE + k]
                irow = i * SIZE
                for j in range(SIZE):
                    through = ik + grid[krow + j]
                    if through < grid[irow + j]:
                        grid[irow + j] = through
        seen.add(tuple(grid))
    if len(seen) != 17:  # the loop's result, so that nothing can skip it
        raise RuntimeError("calibration loop computed the wrong closure")
    return time.perf_counter() - started


def scale(loop_s: float) -> float:
    """Factor that turns seconds measured beside ``loop_s`` into
    reference seconds."""
    return REFERENCE_S / loop_s
