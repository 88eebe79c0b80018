"""Numerical data attached to a positive weight vector and an integer target.

Given a weight vector mu with positive rational entries indexed by a finite
nonempty set (positions 0..delta-1 here) and an integer upsilon, there is a
unique pair (alpha, rho) with alpha integral and rho rational such that

  (a) 0 < rho_p <= mu_p for every p;
  (b) I := {p : rho_p = mu_p} is nonempty;
  (c) upsilon <= |alpha| < upsilon + |I|;
  (d) mu_p * (alpha_p + 1) - rho_p is the same for every p.

The common value in (d) is called the *level* here.  Conditions (a) and (d)
pin alpha_p and rho_p once the level c is known:

  mu_p * alpha_p <= c < mu_p * (alpha_p + 1),   rho_p = mu_p*(alpha_p+1) - c,

so alpha_p is the integer part of c / mu_p, and p lies in I exactly when c
is an integer multiple of mu_p.  The step function F(c) := sum_p
floor(c / mu_p) increases only at such multiples, jumping by |I(c)|, and
condition (c) says precisely that c is the unique breakpoint with
F(c-) < upsilon <= F(c); equivalently, c is the smallest value with
F(c) >= upsilon.  For upsilon >= 1 that is the upsilon-th smallest of the
multiples k * mu_p (k >= 1), counted with multiplicity.  ``_breakpoint`` is
the shared integer core: on an integer vector m it walks those multiples in
increasing order from a lower bracket c0 with F(c0) < upsilon, at which
fewer than 2 * delta jumps remain, so a call costs O(delta log delta)
whatever upsilon is.  ``associated_data`` (one target) and
``strata.stratum_of`` (both foci, one clearing of mu) read the solution off
it.  The test suite keeps a deliberately naive scan over the breakpoints as
the independent cross-check played against it.

All arithmetic is exact and stays in integers until a value is read.  A
rational mu is cleared to an integer vector m = t * mu first; by
homogeneity (scaling mu by t > 0 keeps alpha and I, scales rho and the
level by t) the result is rescaled back: ``associated_data`` returns rho
and the level as Fractions, while ``strata.StratumData`` keeps m, t and the
breakpoints and makes its rationals when they are read.
``verify_conditions`` puts mu, rho and the level on one integer scale (the
lcm of their denominators) and checks (a)-(d) there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heapreplace
from math import lcm

from .linalg import _integer_scaled


@dataclass(frozen=True)
class NumericalData:
    """The solution (alpha, rho, I) plus the common level of condition (d)."""

    alpha: tuple[int, ...]
    rho: tuple[Fraction, ...]
    I: frozenset[int]
    level: Fraction

    @property
    def alpha_total(self) -> int:
        return sum(self.alpha)


def _clean_mu(mu):
    entries = tuple(m if type(m) is Fraction else Fraction(m) for m in mu)
    if not entries:
        raise ValueError("the index set must be nonempty")
    if any(m.numerator <= 0 for m in entries):
        raise ValueError("all mu entries must be positive")
    return entries


def _pattern(m, c):
    """The integer parts of c / m_p and the nodes where c is a multiple of m_p."""
    return tuple(c // mp for mp in m), frozenset(p for p, mp in enumerate(m) if c % mp == 0)


def _breakpoint(m, upsilon: int) -> int:
    """The breakpoint c with F(c-) < upsilon <= F(c), F(c) = sum floor(c / m_p).

    ``m`` is a vector of positive integers.  With sum 1/m_p = S/L (L the
    lcm of m), F(c) <= c*S/L < F(c) + delta, so c0 = ceil(upsilon*L/S) - 1
    has F(c0) < upsilon and F(c0) > upsilon - 2*delta.  The walk pops the
    multiples of the m_p above c0 in increasing order, F growing by one per
    multiple, and stops at the one that brings F to upsilon.  For
    0 < upsilon <= 2*delta the bracket 0 does as well and needs no lcm.
    """
    if 0 < upsilon <= 2 * len(m):
        c = 0
    else:
        scale = lcm(*m)
        c = -(-upsilon * scale // sum(scale // mp for mp in m)) - 1
    heap = [((c // mp + 1) * mp, mp) for mp in m]
    heapify(heap)
    for _ in range(upsilon - sum(c // mp for mp in m) - 1):
        c, mp = heap[0]
        heapreplace(heap, (c + mp, mp))
    return heap[0][0]


def associated_data(mu, upsilon: int) -> NumericalData:
    """Solve for the unique (alpha, rho, I) attached to (mu, upsilon)."""
    m, t = _integer_scaled(_clean_mu(mu))
    c = _breakpoint(m, upsilon)
    alpha, members = _pattern(m, c)
    rho = tuple(Fraction(mp * (a + 1) - c, t) for mp, a in zip(m, alpha))
    return NumericalData(alpha, rho, members, Fraction(c, t))


def _ratio(value):
    """Numerator and positive denominator of a rational value (an int, a
    Fraction, or anything ``Fraction`` reads)."""
    if type(value) is not int and type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def verify_conditions(mu, upsilon: int, candidate: NumericalData) -> bool:
    """Exact check of conditions (a)-(d) against a candidate solution.

    mu, rho and the level are scaled to integers by the lcm of all their
    denominators, and the conditions are checked on that one scale.  Total:
    returns False on any mismatch, including a malformed mu or candidate
    (an entry that is no number), rather than raising.
    """
    try:
        m, t = _integer_scaled(_clean_mu(mu))
        alpha = tuple(candidate.alpha)
        whole = tuple(map(int, alpha))
        rho = [_ratio(r) for r in candidate.rho]
        level = _ratio(candidate.level)
    except (TypeError, ValueError, ArithmeticError):
        return False
    if whole != alpha or len(alpha) != len(m) or len(rho) != len(m):
        return False
    scale = lcm(t, level[1], *(d for _, d in rho))
    m = [mp * (scale // t) for mp in m]
    rho = [n * (scale // d) for n, d in rho]
    if any(not 0 < r <= mp for r, mp in zip(rho, m)):
        return False
    derived = frozenset(p for p, (r, mp) in enumerate(zip(rho, m)) if r == mp)
    if derived != candidate.I or not derived:
        return False
    if not upsilon <= sum(whole) < upsilon + len(derived):
        return False
    target = level[0] * (scale // level[1])
    return all(mp * (a + 1) - r == target for mp, a, r in zip(m, whole, rho))
