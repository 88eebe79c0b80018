"""Closure relations between strata and the component structure they induce.

Which strata appear in the closure of a given one is a purely combinatorial
matter: ordered tripartitions (first, middle, last) of the equality locus I
with

    g_Y + |last| <= |alpha| < g_Y + |I| - |first|

describe the admissible degenerations of the focus-X data (the middle
becomes the new equality locus and the correction numbers drop by one on
the last part), the mirror condition governs the focus-Y side, and when
both genera are positive the pair of tripartitions must satisfy the two
implications of ``tripartitions.pair_compatible``, the public definition
of the coupling.  Those implications read the two tripartitions only
through their traces on the shared nodes S = I & J, so ``closure_of``
works one side at a time: it groups each side's degenerations by the
trace (first & S, last & S), held as a pair of integer bitmasks, and takes
the closure as a union of products of per-side key sets, one product per
coupled pair of traces.  Two traces (i1, i3) and (j1, j3) couple in one
of three shapes: they are equal; S - i3 lies within j1; or S - i1 lies
within j3.  Each shape is one integer test, and no tripartition is built
per trace.  The test oracle for the shapes is ``coupling_case`` in
``tests/oracles.py``; the pairwise enumeration there, which keys every
compatible pair of tripartitions and builds a perturbation reaching each,
is the independent check of ``closure_of``, beside a second one that
samples weight vectors in the neighborhood of a witness that
``neighborhood_radius`` bounds.

``closure_of`` makes a new ``StratumKey`` for each member.  ``build_poset``
runs the same routine over a table of its own keys, so every closure
member is one of ``poset.keys`` (the same object, with its shared loci)
and the closures keep no key of their own.  The covering pairs come
from one walk over the closures by key position, which both
``covering_edges`` and ``to_dot`` read.  Each side's degenerations are
computed afresh per stratum: no table outlives the call.

Irreducible components are counted as the maximal strata of the closure
poset; strata are pairwise disjoint and each is irreducible, so maximal
stratum closures are exactly the components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .model import CurveConfig
from .strata import StratumData, StratumKey, enumerate_strata, stratum_dim, stratum_key

__all__ = [
    "ClosurePoset",
    "build_poset",
    "closure_of",
    "components",
    "count_formulas",
    "neighborhood_radius",
    "to_dot",
]


def _side_moves(members, weights, genus_target, shared):
    """One focus's part of every admissible degeneration, grouped by trace.

    Walks the tripartitions (first, middle, last) of ``members`` in the
    window of the module docstring by part size, and writes the side's
    share of the key once per (last, middle): the weights minus one on
    ``last`` and the locus ``middle`` (``None`` when the new total is down
    to the other genus, as in ``make_key``).  Returns a dict from the trace
    ``(first & shared, last & shared)``, as bitmasks over the nodes, to the
    set of side keys of the tripartitions that have it.  Each member's bit
    within ``shared`` is taken once, before the walk.
    """
    total = sum(weights)
    bits = {p: (1 << p) & shared for p in members}
    n_firsts = range(genus_target + len(members) - total)
    groups = {}
    for n_last in range(min(total - genus_target, len(members)) + 1):
        saturated = total - n_last <= genus_target
        for last in combinations(members, n_last):
            dropped = list(weights)
            last_trace = 0
            for p in last:
                dropped[p] -= 1
                last_trace |= bits[p]
            dropped = tuple(dropped)
            rest = members.difference(last)
            whole = (dropped, None)
            for n_first in n_firsts:
                for first in combinations(rest, n_first):
                    first_trace = 0
                    if shared:
                        for p in first:
                            first_trace |= bits[p]
                    side = whole if saturated else (dropped, rest.difference(first))
                    groups.setdefault((first_trace, last_trace), set()).add(side)
    return groups


def _coupled_groups(shared, x_moves, y_moves):
    """Pairs (x_keys, y_keys) of side groups whose traces on the bitmask
    ``shared`` couple: the traces (i1, i3) and (j1, j3) are equal, shared -
    i3 lies within j1, or shared - i1 lies within j3."""
    for (i1, i3), x_keys in x_moves:
        for (j1, j3), y_keys in y_moves:
            if (i1 == j1 and i3 == j3) or not shared & ~(i3 | j1) or not shared & ~(i1 | j3):
                yield x_keys, y_keys


def _closure(config: CurveConfig, s, key) -> frozenset:
    """The closure of ``closure_of``, each member made by ``key`` from the
    plain tuple (alpha, beta, I, J)."""
    shared = 0
    if config.g_x > 0 and config.g_y > 0:
        shared = sum(1 << p for p in s.I & s.J)
    x_moves = _side_moves(s.I, s.alpha, config.g_y, shared).items()
    y_moves = _side_moves(s.J, s.beta, config.g_x, shared).items()
    out = set()
    for x_keys, y_keys in _coupled_groups(shared, x_moves, y_moves):
        out.update(key((a, b, i, j)) for a, i in x_keys for b, j in y_keys)
    return frozenset(out)


def closure_of(config: CurveConfig, s: StratumData) -> frozenset:
    """Keys of every stratum contained in the closure of s (including s).

    The closure is a union of products of per-side key sets: each focus's
    degenerations are grouped by the bitmask trace (first & S, last & S) of
    their tripartition on the shared nodes S = I & J, and a pair of groups
    contributes all of its key pairs when the traces couple.  A trace pair
    (i1, i3), (j1, j3) couples in one of three shapes: the traces are
    equal; S - i3 lies within j1; or S - i1 lies within j3.  These are the
    three patterns of ``coupling_case`` in the test oracles, and together
    they are exactly the two implications of ``pair_compatible`` on the
    traces, so one integer test decides every pair in the two groups.  With
    a zero genus there is no coupling and S is empty: one group per side.
    Each member is a new ``StratumKey``; ``build_poset`` computes the same
    sets over its own keys.
    """
    return _closure(config, s, StratumKey._make)


@dataclass
class ClosurePoset:
    config: CurveConfig
    keys: tuple
    rep: dict
    closure: dict
    dims: dict

    def maximal(self):
        below = set()
        for k in self.keys:
            below |= self.closure[k] - {k}
        return [k for k in self.keys if k not in below]

    def covering_edges(self):
        """Pairs (a, b) with b in the closure of a and one dimension lower.

        Closures are graded by dimension (the stratification is pure), so
        these are exactly the covering pairs.  The keys are in
        ``StratumKey.sort_token`` order, so each a's covered members are
        listed in that order by their position among the keys.
        """
        keys = self.keys
        return [(keys[i], keys[j]) for i, j in _covering_positions(self)]


def _covering_positions(poset: ClosurePoset):
    """The covering pairs as positions (i, j) among the keys, in the order
    of ``ClosurePoset.covering_edges``: one walk over the closures, each
    a's covered members sorted by position."""
    position = {k: i for i, k in enumerate(poset.keys)}
    dims = [poset.dims[k] for k in poset.keys]
    for i, a in enumerate(poset.keys):
        lower = dims[i] - 1
        below = [j for j in map(position.__getitem__, poset.closure[a]) if dims[j] == lower]
        below.sort()
        for j in below:
            yield i, j


def build_poset(config: CurveConfig, strata=None, cap=None) -> ClosurePoset:
    if strata is None:
        strata = enumerate_strata(config, cap=cap)
    rep = {stratum_key(config, s): s for s in strata}
    keys = tuple(sorted(rep, key=StratumKey.sort_token))
    own = {k: k for k in keys}
    closure = {k: _closure(config, rep[k], own.__getitem__) for k in keys}
    dims = {k: stratum_dim(config, rep[k])["dim"] for k in keys}
    return ClosurePoset(config, keys, rep, closure, dims)


def components(config: CurveConfig, poset: ClosurePoset | None = None) -> dict:
    """Irreducible components: the maximal strata and their count."""
    if poset is None:
        poset = build_poset(config)
    maximal = poset.maximal()
    return {"count": len(maximal), "maximal": maximal, "poset": poset}


def n_delta(h: int, delta: int) -> int:
    return comb(h + delta - 1, delta) - comb(h, delta)


def count_formulas(config: CurveConfig) -> dict:
    """Closed-form component counts and bounds (delta > 1 only)."""
    delta = config.delta
    if delta < 2:
        raise ValueError("count formulas need delta > 1")
    g_x, g_y = config.g_x, config.g_y
    gcd_table = {
        (i, j): gcd(g_x + i, g_y + j)
        for i in range(1, delta)
        for j in range(1, delta)
    }
    if g_x == 0 and g_y == 0:
        statement1 = 1
    elif g_x * g_y == 0 or g_x == g_y:
        statement1 = n_delta(max(g_x, g_y), delta)
    else:
        statement1 = None
    if g_x > 0 and g_y > 0:
        lower = n_delta(g_x, delta) + n_delta(g_y, delta) - sum(
            comb(g - 1, delta - 1) for g in gcd_table.values()
        )
    else:
        lower = statement1  # exact in this case
    closed2 = None
    if delta == 2 and (g_x, g_y) != (0, 0):
        closed2 = g_x + g_y - gcd(g_x + 1, g_y + 1) + 1
    return {
        "n_delta_values": {"g_x": n_delta(g_x, delta), "g_y": n_delta(g_y, delta)},
        "gcd_table": gcd_table,
        "lower_bound": lower,
        "closed_form_delta2": closed2,
        "statement1_value": statement1,
    }


def neighborhood_radius(s: StratumData):
    """Integral witness plus the coordinate radius of its safe neighborhood.

    The integral witness is the descriptor's cleared vector m, and rho and
    sigma are taken on its scale t.  The radius is the smallest nonzero
    value among rho_q, mu_q - rho_q, sigma_q and mu_q - sigma_q over all
    nodes q, divided by three times one plus the largest correction number.
    """
    mu, t = s.m, s.t
    pool = []
    for m, r, x in zip(mu, s.rho, s.sigma):
        r, x = r * t, x * t
        pool.extend(v for v in (r, m - r, x, m - x) if v != 0)
    denom = 3 * (1 + max(max(a, b) for a, b in zip(s.alpha, s.beta)))
    return mu, Fraction(min(pool), denom)


def _key_label(config, key: StratumKey, dim: int) -> str:
    def locus(members):
        if members is None:
            return "*"
        return "{" + ",".join(config.labels[p] for p in sorted(members)) + "}"

    return (
        f"a={key.alpha} I={locus(key.I)} "
        f"b={key.beta} J={locus(key.J)} dim={dim}"
    )


def to_dot(poset: ClosurePoset) -> str:
    """DOT digraph of the covering relation, larger strata on top.

    Node i is ``s{i}``, the i-th key; each label is escaped once, so node
    labels holding quotes or backslashes stay valid DOT.
    """
    lines = ["digraph strata {"]
    for i, k in enumerate(poset.keys):
        label = _key_label(poset.config, k, poset.dims[k]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  s{i} [label="{label}"];')
    lines.extend(f"  s{i} -> s{j};" for i, j in _covering_positions(poset))
    lines.append("}")
    return "\n".join(lines) + "\n"
