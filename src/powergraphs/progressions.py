"""Arithmetic progressions over the nonnegative integers.

AP(a, d) denotes {a + k*d : k = 0, 1, 2, ...} with step d >= 0; a zero
step gives the singleton {a}.  The pair (0, 0) serves as a sentinel meaning "no relation":
its set {0} never meets the positive integers.  Weight rows store only
non-sentinel cells: an absent key means no relation, and the weight dump
still prints it as (0,0).
"""

from math import gcd, lcm
from typing import NamedTuple


class APPair(NamedTuple):
    """Progression descriptor: initial term and common difference."""

    start: int
    step: int


SENTINEL = APPair(0, 0)

# Row a maps each target b to its non-sentinel cell; absent keys are (0,0).
WeightTable = list[dict[int, APPair]]


def ap_contains(p: APPair, m: int) -> bool:
    """Membership of m in the progression p."""
    if m < p.start:
        return False
    if p.step == 0:
        return m == p.start
    return (m - p.start) % p.step == 0


def aps_intersect_positively(p: APPair, q: APPair) -> bool:
    """Decide whether the two progressions share an element m >= 1.

    No enumeration: with both steps positive, the progressions meet iff
    their starts are congruent modulo gcd of the steps, and common elements
    then form an unbounded increasing progression, so one of them is >= 1.
    Zero-step cases reduce to membership of a single value.
    """
    if p.step == 0 and q.step == 0:
        return p.start >= 1 and p.start == q.start
    if p.step == 0:
        return p.start >= 1 and ap_contains(q, p.start)
    if q.step == 0:
        return q.start >= 1 and ap_contains(p, q.start)
    return (p.start - q.start) % gcd(p.step, q.step) == 0


def aps_intersect_oracle(p: APPair, q: APPair) -> bool:
    """Enumerative ground truth for aps_intersect_positively.

    If any common element m >= 1 exists, the least one is at most
    max(start, 1) + lcm of the (positive) steps; enumerating out to twice
    the lcm leaves margin, so a miss within the bound is a genuine miss.
    """
    span = lcm(max(p.step, 1), max(q.step, 1))
    bound = max(p.start, q.start, 1) + 2 * span
    common = _enumerate_up_to(p, bound) & _enumerate_up_to(q, bound)
    return any(m >= 1 for m in common)


def _enumerate_up_to(p: APPair, bound: int) -> set[int]:
    if p.step == 0:
        return {p.start} if p.start <= bound else set()
    return set(range(p.start, bound + 1, p.step))
