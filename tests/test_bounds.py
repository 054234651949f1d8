"""The raw bound encoding, pinned down semantically.

A raw bound stands for the predicate ``t < v`` or ``t <= v``; every
algebraic law below is stated against that reading, with the rationals
sampled on a quarter grid around the bound values so that both sides
of every strict/weak distinction are hit.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import negated
from zonereach.bounds import INF, ZERO_LE, add, bound, is_strict, value

values = st.integers(min_value=-1000, max_value=1000)
bounds = st.builds(bound, values, st.booleans())


def satisfies(t: Fraction, raw: int) -> bool:
    if raw == INF:
        return True
    return t < value(raw) if is_strict(raw) else t <= value(raw)


def probes(*raws) -> list[Fraction]:
    pts = []
    for raw in raws:
        if raw == INF:
            continue
        v = Fraction(value(raw))
        pts.extend([v - Fraction(1, 4), v, v + Fraction(1, 4)])
    return pts


@given(values, st.booleans())
def test_roundtrip(v, strict):
    raw = bound(v, strict)
    assert value(raw) == v
    assert is_strict(raw) is strict


def test_zero_le_is_the_weak_zero():
    assert ZERO_LE == bound(0, strict=False)
    assert not is_strict(ZERO_LE)
    assert value(ZERO_LE) == 0


@given(values)
def test_strict_is_tighter_than_weak(v):
    assert bound(v, True) < bound(v, False)
    assert bound(v, False) < bound(v + 1, True)


@given(bounds, bounds)
def test_integer_order_is_implication_order(a, b):
    """raw comparison of the encodings == pointwise implication."""
    implies = all(satisfies(t, b) for t in probes(a, b) if satisfies(t, a))
    assert (a <= b) == implies


@given(bounds, bounds)
def test_add_commutes(a, b):
    assert add(a, b) == add(b, a)


@given(bounds, bounds, bounds)
def test_add_associates(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(bounds)
def test_add_identity_and_inf(a):
    assert add(a, ZERO_LE) == a
    assert add(a, INF) == INF
    assert add(INF, a) == INF


@given(bounds, bounds)
def test_add_is_sound_and_tight(a, b):
    """x + y satisfies add(a, b) whenever x satisfies a and y satisfies b,
    and add(a, b) is exactly the strongest such bound."""
    combined = add(a, b)
    for x in probes(a):
        if not satisfies(x, a):
            continue
        for y in probes(b):
            if satisfies(y, b):
                assert satisfies(x + y, combined)
    # tightness: value adds, and the sum is weak only when both are
    assert value(combined) == value(a) + value(b)
    assert is_strict(combined) == (is_strict(a) or is_strict(b))


@given(bounds)
def test_negated_involution(raw):
    assert negated(negated(raw)) == raw


@given(bounds)
def test_negated_is_the_complement(raw):
    """t fails the bound exactly when -t satisfies the negation."""
    flipped = negated(raw)
    for t in probes(raw):
        assert satisfies(t, raw) != satisfies(-t, flipped)


def test_negated_rejects_inf():
    with pytest.raises(ValueError):
        negated(INF)
