"""Ordered tripartitions of a finite set and the pair-compatibility test.

An ordered tripartition of S is a triple of disjoint subsets (first, middle,
last) whose union is S.  They index degenerations both of strata (where the
middle part becomes the new equality locus) and of torus orbits in
Grassmannians, and in the two-sided situation a pair of tripartitions of
overlapping index sets must satisfy two implication constraints, checked by
``pair_compatible``.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple


class _Parts(NamedTuple):
    first: frozenset
    middle: frozenset
    last: frozenset


class Tripartition(_Parts):
    """A named 3-tuple (first, middle, last): it hashes and compares as the
    plain tuple of its parts.  Construction, ``_make`` and ``_replace``
    reject overlapping parts; ``tuple.__new__(Tripartition, parts)`` skips
    that check, for parts that are disjoint by construction."""

    __slots__ = ()

    def __new__(cls, first, middle, last):
        if not (first.isdisjoint(middle) and first.isdisjoint(last) and middle.isdisjoint(last)):
            raise ValueError("tripartition parts must be disjoint")
        return tuple.__new__(cls, (first, middle, last))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def ambient(self) -> frozenset:
        return self.first | self.middle | self.last


def tripartitions(ambient):
    """All ordered tripartitions of ``ambient``, in a deterministic order,
    generated lazily; their parts are disjoint by construction, so the
    check is skipped."""
    items = sorted(ambient)
    for assignment in product((0, 1, 2), repeat=len(items)):
        parts = ([], [], [])
        for x, slot in zip(items, assignment):
            parts[slot].append(x)
        yield tuple.__new__(Tripartition, (frozenset(parts[0]), frozenset(parts[1]), frozenset(parts[2])))


def pair_compatible(tri_i: Tripartition, tri_j: Tripartition, I, J) -> bool:
    """The two implications constraining a pair of tripartitions.

    With (I', Ibar, I'') a tripartition of I and (J', Jbar, J'') of J:
      * if I' cap J is not within J' cap I, or J'' cap I is not within
        I'' cap J, then J cap (I - I') must lie within J'' cap I;
      * symmetrically with the roles of the two sides swapped.
    """
    I = frozenset(I)
    J = frozenset(J)
    i1, i3 = tri_i.first, tri_i.last
    j1, j3 = tri_j.first, tri_j.last
    if not (i1 & J <= j1 & I) or not (j3 & I <= i3 & J):
        if not (J & (I - i1) <= j3 & I):
            return False
    if not (j1 & I <= i1 & J) or not (i3 & J <= j3 & I):
        if not (I & (J - j1) <= i3 & J):
            return False
    return True
