"""Arithmetic on clock-difference bounds.

A bound is a pair (value, strictness) standing for ``expr < value`` or
``expr <= value``.  We pack the pair into a single int::

    raw = 2 * value + (0 if strict else 1)

so that plain integer comparison is exactly the bound order: a strict
bound is tighter than the weak bound with the same value, and lower
values are tighter than higher ones.  ``min`` then picks the tighter of
two bounds, which is what shortest-path closure needs in its inner loop.

The unbounded case is the sentinel ``INF``, always treated as weak.
Python ints never overflow, so the only arithmetic hazard is letting
the sentinel take part in an addition; ``add`` guards against that.
"""

from __future__ import annotations

INF = 1 << 60

# The largest magnitude a scaled constant may have.  A closed matrix
# holds shortest paths, each a sum of at most (clocks + 1) raw bounds of
# at most 2 * MAX_CONSTANT + 1, so no finite cell reaches INF below
# 2**18 clocks.  A larger constant could give a raw bound at or above
# INF, which reads as "no bound"; the parser refuses it.
MAX_CONSTANT = 1 << 40

ZERO_LE = 1  # bound(0, strict=False): the canonical diagonal entry


def bound(value: int, strict: bool) -> int:
    """Pack a finite bound into its raw encoding."""
    return 2 * value + (0 if strict else 1)


def add(a: int, b: int) -> int:
    """Bound addition: values add, strict wins, INF absorbs."""
    if a == INF or b == INF:
        return INF
    return ((a >> 1) + (b >> 1)) << 1 | (a & b & 1)


def value(raw: int) -> int:
    return raw >> 1


def is_strict(raw: int) -> bool:
    return not raw & 1
