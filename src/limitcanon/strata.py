"""Strata of the variety of limit canonical systems: classify and enumerate.

Each positive rational weight vector mu on the nodes determines two
numerical-data solutions: (alpha, rho, I) at target g_Y and
(beta, sigma', J) at target g_X (the correction numbers and equality loci
of the two foci).  Two weight vectors give the same stratum exactly when
their alpha agree and, in case |alpha| > g_Y, their I agree, together with
the mirror condition on (beta, J); this is captured by ``StratumKey``, in
which the equality locus collapses to a sentinel (None) when |alpha| = g_Y
(resp. |beta| = g_X).

Realizability of candidate data (alpha, I, beta, J) means the joint strict
rational system

    mu_p alpha_p = c for p in I,   mu_p alpha_p < c < mu_p (alpha_p+1) else,
    mu_p beta_p  = d for p in J,   mu_p beta_p  < d < mu_p (beta_p +1) else,
    mu > 0,

has a solution.  Once the ratio r = d/c of the two levels is fixed, the
system splits into one condition per node, so one depth-first search over
the nodes (``_search``) finds every realizable candidate with a feasible
r, an integer pair (rn, rd): the pin of its r-interval, else the midpoint
(lo + 1 when unbounded, so 1 when a genus is zero).  At each node the
search takes per side the options that can still reach that side's
window, then pairs every focus-X option of its list with every focus-Y
option of the other.  Those lists depend only on (total, locus size,
nodes left), so each call keeps one table per side from that triple to
its list; loci are bitmasks during the search, and each distinct locus
becomes one frozenset per call, which every leaf, key and StratumData
with that locus shares (at most 2^delta of them).  The tables and loci
belong to the call and are dropped with it; nothing is cached at module
level.

Scaling mu by t > 0 keeps the data and scales the levels, so a witness
lives on one integer scale (``_witness``): with D = 2 lcm(1 .. max(g_X,
g_Y) + 1) the levels are c = rd D and d = rn D (0 for a zero genus, which
leaves no condition on mu), each node interval ``_node_interval(level,
w_p)``, level/(w_p+1) < mu_p < level/w_p, has integer ends, and mu_p is
level/w_p on a locus and the midpoint of the intersected intervals
elsewhere (the low end plus rd D when unbounded); the fan figure reads the
same interval.  Each witness is checked at these levels (``_at_levels``):
its floor and divisibility pattern at c (focus X) and d (focus Y) must be
the candidate's, within the window g <= total < g + |locus|.  The
numerical data at a target is unique and its level is the one breakpoint
of the ``numdata`` docstring, so this holds exactly when ``stratum_of``
classifies the witness back onto its candidate.  Witnesses of one key are
compared by cross-products (m_i m'_last against m'_i m_last).  Only the
representative kept per key is classified back (``_classify_back``), and
in integers: the breakpoints of m at g_Y and g_X must be its levels
(c, d), which is the independent check of the levels that the window
assumes.

The data stays in integers until it is read.  ``StratumData`` keeps the
witness cleared once (m and the scale t, gcd(m, t) = 1) with the two
breakpoints, and ``stratum_of`` clears mu once and stores the same; the
rationals witness_mu, rho, sigma, gamma and epsilon are made when they are
read, so the classification, the key and the dimension make none.  The
test suite keeps the Fraction witness builder, the Fraction classification
and enumeration, a Fourier-Motzkin solver of the joint system and a
brute-force candidate product as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index
from typing import NamedTuple

from .model import CurveConfig
from .linalg import _integer_scaled
from .numdata import _breakpoint, _clean_mu, _pattern

DEFAULT_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured candidate cap."""


class StratumKey(NamedTuple):
    """Identity of a stratum: correction numbers plus effective equality loci.

    A named 4-tuple: it hashes and compares as the plain tuple
    (alpha, beta, I, J).  None and frozensets have no total order, so
    outputs order keys by ``sort_token``.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    I: frozenset | None
    J: frozenset | None

    def sort_token(self):
        itok = tuple(sorted(self.I)) if self.I is not None else (-1,)
        jtok = tuple(sorted(self.J)) if self.J is not None else (-1,)
        return (self.alpha, self.beta, itok, jtok)


# the public values of a StratumData, in the order its repr and hash take them
_VALUES = (
    "alpha", "I", "beta", "J", "gamma", "epsilon", "alpha_tilde", "beta_tilde", "witness_mu", "rho", "sigma",
)


@dataclass(frozen=True, repr=False)
class StratumData:
    """Full stratum descriptor attached to a witness weight vector.

    The witness is m / t, cleared once: m a vector of positive integers
    and t a positive integer with gcd(m, t) = 1, so equal witnesses store
    equal integers.  c_x and c_y are the breakpoints of m at the targets
    g_Y and g_X (0 for a zero genus), the levels of the two foci on the
    scale of m.  The rationals gamma, epsilon, witness_mu, rho and sigma
    are made from these integers when they are read; the repr and the hash
    are those of the tuple of public values.
    """

    alpha: tuple[int, ...]
    I: frozenset
    beta: tuple[int, ...]
    J: frozenset
    m: tuple[int, ...]
    t: int
    c_x: int
    c_y: int

    @property
    def alpha_total(self) -> int:
        return sum(self.alpha)

    @property
    def beta_total(self) -> int:
        return sum(self.beta)

    @property
    def gamma(self) -> Fraction:
        return Fraction(self.c_x, self.t)

    @property
    def epsilon(self) -> Fraction:
        return Fraction(self.c_y, self.t)

    @property
    def alpha_tilde(self) -> int | None:
        """c_x / c_y in lowest terms, numerator; None when a genus is zero."""
        return self.c_x // gcd(self.c_x, self.c_y) if self.c_x and self.c_y else None

    @property
    def beta_tilde(self) -> int | None:
        """c_x / c_y in lowest terms, denominator; None when a genus is zero."""
        return self.c_y // gcd(self.c_x, self.c_y) if self.c_x and self.c_y else None

    @property
    def witness_mu(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(mp, self.t) for mp in self.m)

    @property
    def rho(self) -> tuple[Fraction, ...]:
        """mu_p (alpha_p + 1) - gamma at each node."""
        c, t = self.c_x, self.t
        return tuple(Fraction(mp * (a + 1) - c, t) for mp, a in zip(self.m, self.alpha))

    @property
    def sigma(self) -> tuple[Fraction, ...]:
        """epsilon - mu_p beta_p at each node."""
        c, t = self.c_y, self.t
        return tuple(Fraction(c - mp * b, t) for mp, b in zip(self.m, self.beta))

    def _values(self):
        return tuple(getattr(self, name) for name in _VALUES)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(_VALUES, self._values()))
        return f"{type(self).__qualname__}({body})"


def stratum_of(config: CurveConfig, mu) -> StratumData:
    """Classify a positive rational weight vector.

    mu is cleared to integers once; both foci read their data off the
    breakpoint of that one integer vector (``numdata._breakpoint``), and
    the descriptor keeps the vector, its scale and the two breakpoints.
    """
    mu = tuple(mu)
    if len(mu) != config.delta:
        raise ValueError("mu length must equal delta")
    m, t = _integer_scaled(_clean_mu(mu))
    c_x, c_y = _breakpoint(m, config.g_y), _breakpoint(m, config.g_x)
    return StratumData(*_pattern(m, c_x), *_pattern(m, c_y), tuple(m), t, c_x, c_y)


def make_key(config: CurveConfig, alpha, I, beta, J) -> StratumKey:
    alpha = tuple(alpha)
    beta = tuple(beta)
    return StratumKey(
        alpha,
        beta,
        frozenset(I) if sum(alpha) > config.g_y else None,
        frozenset(J) if sum(beta) > config.g_x else None,
    )


def stratum_key(config: CurveConfig, s: StratumData) -> StratumKey:
    return make_key(config, s.alpha, s.I, s.beta, s.J)


def stratum_dim(config: CurveConfig, s) -> dict:
    """Dimensions of the stratum and of its two Grassmannian projections."""
    a_total, b_total = sum(s.alpha), sum(s.beta)
    big_a, big_b = a_total > config.g_y, b_total > config.g_x
    dim_x = len(s.I) - 1 if big_a else 0
    dim_y = len(s.J) - 1 if big_b else 0
    if not big_a and not big_b:
        dim = 0
    elif big_a and not big_b:
        dim = len(s.I) - 1
    elif big_b and not big_a:
        dim = len(s.J) - 1
    elif s.I & s.J:
        dim = len(s.I | s.J) - 1
    else:
        dim = len(s.I | s.J) - 2
    return {"dim": dim, "dim_X": dim_x, "dim_Y": dim_y}


def _validate_candidate(config, alpha, I, beta, J):
    delta = config.delta
    try:
        alpha, beta = tuple(map(index, alpha)), tuple(map(index, beta))
    except TypeError:
        raise ValueError("alpha and beta entries must be integers") from None
    I, J = frozenset(I), frozenset(J)
    if len(alpha) != delta or len(beta) != delta:
        raise ValueError("alpha/beta length must equal delta")
    if not I or not J or not I <= set(range(delta)) or not J <= set(range(delta)):
        raise ValueError("I and J must be nonempty subsets of the node set")
    if any(a < 0 or a > config.g_y for a in alpha):
        raise ValueError("alpha entries must lie in [0, g_Y]")
    if any(b < 0 or b > config.g_x for b in beta):
        raise ValueError("beta entries must lie in [0, g_X]")
    if not (config.g_y <= sum(alpha) < config.g_y + len(I)):
        raise ValueError("need g_Y <= |alpha| < g_Y + |I|")
    if not (config.g_x <= sum(beta) < config.g_x + len(J)):
        raise ValueError("need g_X <= |beta| < g_X + |J|")
    if config.g_y > 0 and any(alpha[p] == 0 for p in I):
        raise ValueError("alpha must be positive on I when g_Y > 0")
    if config.g_y == 0 and (any(alpha) or I != set(range(delta))):
        raise ValueError("g_Y = 0 forces alpha = 0 and I = all nodes")
    if config.g_x > 0 and any(beta[p] == 0 for p in J):
        raise ValueError("beta must be positive on J when g_X > 0")
    if config.g_x == 0 and (any(beta) or J != set(range(delta))):
        raise ValueError("g_X = 0 forces beta = 0 and J = all nodes")
    return alpha, I, beta, J


def _node_interval(level, w):
    """Open interval of mu_p off the locus: level/(w+1) < mu_p < level/w.

    The node's weight w puts the level strictly between mu_p w and
    mu_p (w + 1); with w = 0 there is no upper end (None).  The level is
    an integer that w and w + 1 divide, so the ends are exact integers.
    """
    return level // (w + 1), (level // w if w else None)


def _reachable(genus, total, size, left):
    """Whether a side's window genus <= total < genus + size can still hold.

    Each of the ``left`` nodes to come adds at most ``genus`` to the total
    and joins the locus when positive, so total - size never falls.
    """
    return total - size < genus <= total + genus * left


def _narrow(state, a, in_i, b, in_j):
    """Intersect node p's condition on r = d/c into (lo, hi, pin); None once empty.

    With c = 1 and d = r, mu_p is 1/a on I, else in (1/(a+1), 1/a), and
    r/b on J, else in (r/(b+1), r/b).  Eliminating mu_p pins r to b/a on
    I & J; otherwise r lies above b/a on I (else b/(a+1)) and below b/a on
    J (else (b+1)/a), with no upper end when a = 0.  Each bound is an
    integer pair (numerator, positive denominator), compared by
    cross-products.
    """
    lo, hi, pin = state
    if in_i and in_j:
        if pin is not None and pin[0] * a != b * pin[1]:
            return None
        pin = (b, a)
    else:
        den = a if in_i else a + 1
        if b * lo[1] > lo[0] * den:
            lo = (b, den)
        if a:
            num = b if in_j else b + 1
            if hi is None or num * hi[1] < hi[0] * a:
                hi = (num, a)
    if pin is not None:
        if lo[0] * pin[1] < pin[0] * lo[1] and (hi is None or pin[0] * hi[1] < hi[0] * pin[1]):
            return lo, hi, pin
        return None
    return (lo, hi, pin) if hi is None or lo[0] * hi[1] < hi[0] * lo[1] else None


def _leaf_ratio(state):
    """The pair r a leaf yields: the pin, else the midpoint, else lo + 1."""
    lo, hi, pin = state
    if pin is not None:
        return pin
    if hi is None:
        return lo[0] + lo[1], lo[1]
    return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]


def _search(config: CurveConfig):
    """Depth-first search over the nodes for every realizable candidate.

    Yields (alpha, I, beta, J, r), r an integer pair (``_leaf_ratio``).
    At node p each side takes its options (w_p, p in the locus) that can
    still reach its window (``_reachable``); these depend only on (total,
    locus size, nodes left), so each side keeps one table from that triple
    to its option list, filled the first time the search meets it.  The
    search returns from a node whose focus-Y list is empty, and otherwise
    takes every focus-X option and, inside it, every focus-Y option.  With
    both genera positive it narrows the r-interval (``_narrow``) and prunes
    once it is empty; with a zero genus r stays 1.  Loci are bitmasks until
    a leaf, which hands out one frozenset per distinct locus, shared by
    every leaf of the call.  The tables and the loci live as long as the
    generator.
    """
    delta, joint = config.delta, config.g_x > 0 and config.g_y > 0

    def side(genus):
        """The side's reachable-option lookup over its own table."""
        if genus == 0:
            options = ((0, True),)
        else:
            options = ((0, False),) + tuple((w, on) for w in range(1, genus + 1) for on in (False, True))
        table = {}

        def window(total, size, left):
            found = table.get((total, size, left))
            if found is None:
                found = table[total, size, left] = tuple(
                    (w, on) for w, on in options if _reachable(genus, total + w, size + on, left)
                )
            return found

        return window

    window_i, window_j = side(config.g_y), side(config.g_x)
    loci = {}

    def locus(mask):
        found = loci.get(mask)
        if found is None:
            found = loci[mask] = frozenset(p for p in range(delta) if mask >> p & 1)
        return found

    def descend(alpha, I, n_i, sum_a, beta, J, n_j, sum_b, state):
        p = len(alpha)
        if p == delta:
            yield alpha, locus(I), beta, locus(J), _leaf_ratio(state)
            return
        left = delta - 1 - p
        ys = window_j(sum_b, n_j, left)
        if not ys:
            return
        bit = 1 << p
        on_i, on_j = I | bit, J | bit
        for a, in_i in window_i(sum_a, n_i, left):
            locus_i = on_i if in_i else I
            alpha_a = alpha + (a,)
            for b, in_j in ys:
                narrowed = _narrow(state, a, in_i, b, in_j) if joint else state
                if narrowed is not None:
                    yield from descend(
                        alpha_a, locus_i, n_i + in_i, sum_a + a,
                        beta + (b,), on_j if in_j else J, n_j + in_j, sum_b + b, narrowed,
                    )

    return descend((), 0, 0, 0, (), 0, 0, 0, ((0, 1), None, None))


def _witness(config: CurveConfig, alpha, I, beta, J, r):
    """Integer witness m of a candidate the search yielded with r = (rn, rd),
    and its levels (c, d) on the same scale.

    With the scale D = 2 lcm(1 .. max(g_X, g_Y) + 1), c = rd D and d = rn D;
    a side whose genus is zero has level 0 and puts no condition on m.
    Each m_p is level/w_p on that side's locus, and off every locus the
    midpoint of the intersection of both sides' node intervals
    (``_node_interval``, written out here in integers), or its low end plus
    rd D when it is unbounded.
    """
    scale = 2 * lcm(*range(1, max(config.g_x, config.g_y) + 2))
    c = r[1] * scale
    c_x = c if config.g_y else 0
    c_y = r[0] * scale if config.g_x else 0
    m = []
    for p, (a, b) in enumerate(zip(alpha, beta)):
        if c_x and p in I:
            m.append(c_x // a)
        elif c_y and p in J:
            m.append(c_y // b)
        else:
            lo, hi = 0, None
            if c_x:
                lo = c_x // (a + 1)
                if a:
                    hi = c_x // a
            if c_y:
                lo = max(lo, c_y // (b + 1))
                if b and (hi is None or c_y // b < hi):
                    hi = c_y // b
            m.append(lo + c if hi is None else (lo + hi) // 2)
    return m, (c_x, c_y)


def _at_levels(config: CurveConfig, m, levels, alpha, I, beta, J) -> bool:
    """Whether the integer witness m carries its candidate at levels (c, d).

    At focus-X level c each alpha_p must be the integer part of c / m_p and
    I the nodes where c is a multiple of m_p, with g_Y <= |alpha| < g_Y +
    |I|; the mirror holds at focus-Y level d for (beta, J).  By the
    uniqueness of the numerical data this is ``stratum_of`` returning the
    candidate at those levels.
    """
    sides = ((config.g_y, levels[0], alpha, I), (config.g_x, levels[1], beta, J))
    for genus, level, weights, locus in sides:
        if not genus <= sum(weights) < genus + len(locus):
            return False
        for p, (mp, w) in enumerate(zip(m, weights)):
            q, rem = divmod(level, mp)
            if q != w or (rem == 0) != (p in locus):
                return False
    return True


def _precedes(m, n):
    """Whether m / m_last is lexicographically below n / n_last (cross-products)."""
    for a, b in zip(m, n):
        if a * n[-1] != b * m[-1]:
            return a * n[-1] < b * m[-1]
    return False


def _checked_witness(config: CurveConfig, alpha, I, beta, J, r):
    """``_witness`` of a search leaf, checked to carry its candidate at its levels."""
    m, levels = _witness(config, alpha, I, beta, J, r)
    if not _at_levels(config, m, levels, alpha, I, beta, J):
        raise AssertionError("witness does not carry its candidate at its own levels")
    return m, levels


def _classify_back(config: CurveConfig, m, levels, alpha, I, beta, J) -> StratumData:
    """The StratumData of m / m_last, which carries its candidate at ``levels``.

    The classification of m reads the data off its breakpoints at g_Y and
    g_X (0 for a zero genus), so m lands on the candidate exactly when
    those breakpoints are its levels (c, d); checked, then the descriptor
    is built from them, cleared of the common factor of m.
    """
    if (_breakpoint(m, config.g_y), _breakpoint(m, config.g_x)) != levels:
        raise AssertionError("witness classification does not match the candidate")
    g = gcd(*m)
    return StratumData(
        alpha, I, beta, J, tuple(mp // g for mp in m), m[-1] // g, levels[0] // g, levels[1] // g
    )


def realizable(config: CurveConfig, alpha, I, beta, J):
    """Witness weight vector realizing the candidate data, or None.

    Malformed candidates (non-integer weights, bounds violated, empty loci,
    zero entries where positivity is forced) raise ValueError.  A
    well-formed candidate passes every window test of the node search, so
    it is realizable exactly when narrowing the r-interval over its nodes
    (``_narrow``) leaves it nonempty; otherwise the result is None.  The
    witness, built from the ratio that yields (``_leaf_ratio``), has last
    coordinate 1 and is guaranteed to classify back onto the candidate.
    """
    alpha, I, beta, J = _validate_candidate(config, alpha, I, beta, J)
    state = ((0, 1), None, None)
    if config.g_x > 0 and config.g_y > 0:
        for p, (a, b) in enumerate(zip(alpha, beta)):
            state = _narrow(state, a, p in I, b, p in J)
            if state is None:
                return None
    m, levels = _checked_witness(config, alpha, I, beta, J, _leaf_ratio(state))
    return _classify_back(config, m, levels, alpha, I, beta, J).witness_mu


def enumerate_strata(config: CurveConfig, cap: int | None = None, jobs: int = 1):
    """One StratumData per distinct StratumKey, deterministically ordered.

    Every realizable candidate comes from one lazy node search
    (``_search``), gets its integer witness from the ratio the search found
    (``_witness``), and is checked at its own levels (``_at_levels``).
    Its key is built from the search's own tuples and shared loci, as
    ``make_key`` would build it.  Every positive rational weight vector
    classifies onto exactly one of the returned keys.  The stored
    representative keeps the witness that is
    lexicographically smallest once normalized (``_precedes``), so the
    result does not depend on the search order.  Only it is classified
    back, in integers: its breakpoints must be its levels
    (``_classify_back``), and its StratumData is built from the witness and
    those levels; no rational is made until a value is read.  More than
    ``cap`` realizable candidates raise CapExceeded as soon as the search
    finds one too many, so the cap bounds the work done.  ``jobs`` has no
    effect; it is accepted so that existing callers keep working.
    """
    cap = DEFAULT_CAP if cap is None else cap
    g_x, g_y = config.g_x, config.g_y
    kept: dict[StratumKey, tuple] = {}
    for passed, (alpha, I, beta, J, r) in enumerate(_search(config), 1):
        if passed > cap:
            raise CapExceeded(f"candidate count exceeded the cap {cap}")
        m, levels = _checked_witness(config, alpha, I, beta, J, r)
        key = StratumKey(alpha, beta, I if sum(alpha) > g_y else None, J if sum(beta) > g_x else None)
        old = kept.get(key)
        if old is None or _precedes(m, old[0]):
            kept[key] = (m, levels, alpha, I, beta, J)
    return [_classify_back(config, *kept[k]) for k in sorted(kept, key=StratumKey.sort_token)]


@dataclass(frozen=True)
class Constraint:
    """Homogeneous rational constraint sum(coeffs * mu) = 0 or > 0."""

    coeffs: tuple[int, ...]
    relation: str  # "eq" or "gt"


@dataclass(frozen=True)
class RegionDescription:
    """Convex homogeneous region of weight vectors giving one stratum."""

    constraints: tuple[Constraint, ...]
    note: str
    base_index: int


def _row(delta, relation, *terms):
    """The constraint with coefficient c at node p for each (p, c) in terms."""
    coeffs = [0] * delta
    for p, c in terms:
        coeffs[p] += c
    return Constraint(tuple(coeffs), relation)


def _side_region(delta, weights, members, full_locus):
    """Constraints pinning one side's data.

    When the locus is effective (weights total above the genus target) the
    region fixes both the weights and the locus; at the minimum total the
    regions for all loci merge, leaving only the two-sided strict bounds.
    """
    w = weights
    if not full_locus:
        pairs = ((p, q) for p in range(delta) for q in range(delta) if p != q)
        return [_row(delta, "gt", (q, w[q] + 1), (p, -w[p])) for p, q in pairs]
    base = min(members)
    rows = [_row(delta, "eq", (p, w[p]), (base, -w[base])) for p in sorted(members) if p != base]
    for p in range(delta):
        if p not in members:
            rows.append(_row(delta, "gt", (base, w[base]), (p, -w[p])))
            rows.append(_row(delta, "gt", (p, w[p] + 1), (base, -w[base])))
    return rows


def region(config: CurveConfig, s: StratumData) -> RegionDescription:
    """Exact linear description of all mu classifying onto s's stratum."""
    delta = config.delta
    rows = [_row(delta, "gt", (p, 1)) for p in range(delta)]
    rows.extend(_side_region(delta, s.alpha, s.I, s.alpha_total > config.g_y))
    rows.extend(_side_region(delta, s.beta, s.J, s.beta_total > config.g_x))
    return RegionDescription(
        constraints=tuple(rows),
        note="homogeneous: mu and t*mu (t > 0) satisfy the same constraints",
        base_index=delta - 1,
    )
