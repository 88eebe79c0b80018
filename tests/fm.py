"""Strict linear feasibility over Q by exact Fourier-Motzkin elimination.

Test oracle: ``joint_witness`` decides realizability of stratum candidate
data by elimination, independently of the closed-form witness in
``limitcanon.strata``.

Systems here are homogeneous: an equality row c means c.x = 0, an inequality
row (c, strict) means c.x > 0 when strict else c.x >= 0.  Elimination is
exact over the rationals and projection preserves strictness (combining a
strict with any row stays strict).  A witness is rebuilt by walking the
elimination levels backwards and taking midpoints of the open intervals.

Dimensions stay tiny (one variable per node of the curve), so no effort is
spent on redundancy removal beyond row deduplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _normalize_int_row(coeffs):
    """Clear denominators and divide by the gcd; returns a tuple of ints."""
    denom = 1
    for c in coeffs:
        denom = denom * Fraction(c).denominator // gcd(denom, Fraction(c).denominator)
    ints = [int(Fraction(c) * denom) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _echelon_equalities(equalities, nvars):
    """Gaussian elimination on the equality rows.

    Returns ``(subst, free)`` where ``subst`` maps a pivot variable to a
    linear form (dict over free variables) and ``free`` lists the remaining
    variables in order.  Homogeneous systems cannot be inconsistent.
    """
    rows = [[Fraction(c) for c in row] for row in equalities if any(row)]
    pivots = {}
    r = 0
    for col in range(nvars):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
        if r == len(rows):
            break
    free = [v for v in range(nvars) if v not in pivots]
    subst = {}
    for col, row_idx in pivots.items():
        row = rows[row_idx]
        subst[col] = {v: -row[v] for v in free if row[v] != 0}
    return subst, free


def _substitute(row, subst, free, nvars):
    """Rewrite a length-nvars row as a row over the free variables."""
    out = [Fraction(0)] * len(free)
    pos = {v: i for i, v in enumerate(free)}
    for v in range(nvars):
        c = Fraction(row[v])
        if c == 0:
            continue
        if v in pos:
            out[pos[v]] += c
        else:
            for fv, fc in subst[v].items():
                out[pos[fv]] += c * fc
    return out


def solve_homogeneous(nvars, equalities, inequalities):
    """Feasibility of the mixed strict/weak homogeneous system.

    Returns a tuple of Fractions satisfying every constraint, or None.
    """
    subst, free = _echelon_equalities(equalities, nvars)
    rows = set()
    for coeffs, strict in inequalities:
        reduced = _substitute(coeffs, subst, free, nvars)
        if not any(reduced):
            if strict:
                return None  # 0 > 0
            continue
        rows.add((_normalize_int_row(reduced), bool(strict)))

    m = len(free)
    levels = []
    current = rows
    for k in range(m - 1, -1, -1):
        levels.append((k, current))
        nxt = set()
        pos, neg = [], []
        for coeffs, strict in current:
            ck = coeffs[k]
            if ck > 0:
                pos.append((coeffs, strict))
            elif ck < 0:
                neg.append((coeffs, strict))
            else:
                nxt.add((coeffs, strict))
        for pc, ps in pos:
            for qc, qs in neg:
                combo = tuple(pc[k] * q - qc[k] * p for p, q in zip(pc, qc))
                strict = ps or qs
                if not any(combo):
                    if strict:
                        return None
                    continue
                nxt.add((_normalize_int_row(combo), strict))
        current = nxt
    for coeffs, strict in current:
        if strict and not any(coeffs):
            return None

    # back-substitute a witness through the recorded levels
    values = [None] * m
    for k, rows_k in reversed(levels):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, strict in rows_k:
            ck = coeffs[k]
            if ck == 0:
                continue
            rest = sum(
                (Fraction(c) * values[i] for i, c in enumerate(coeffs) if i < k and c),
                Fraction(0),
            )
            bound = -rest / Fraction(ck)
            if ck > 0:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo and strict:
                    lo_strict = True
            else:
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi and strict:
                    hi_strict = True
        if lo is None and hi is None:
            values[k] = Fraction(1)
        elif lo is None:
            values[k] = hi - 1
        elif hi is None:
            values[k] = lo + 1
        elif lo == hi:
            if lo_strict or hi_strict:
                raise AssertionError("empty interval after feasible elimination")
            values[k] = lo
        else:
            values[k] = (lo + hi) / 2

    witness = [Fraction(0)] * nvars
    for i, v in enumerate(free):
        witness[v] = values[i]
    for v, form in subst.items():
        witness[v] = sum((fc * witness[fv] for fv, fc in form.items()), Fraction(0))

    for coeffs, strict in ((tuple(c), s) for c, s in inequalities):
        total = sum(Fraction(c) * w for c, w in zip(coeffs, witness))
        if total < 0 or (strict and total == 0):
            raise AssertionError("Fourier-Motzkin witness failed a constraint")
    for coeffs in equalities:
        if sum(Fraction(c) * w for c, w in zip(coeffs, witness)) != 0:
            raise AssertionError("Fourier-Motzkin witness failed an equality")
    return tuple(witness)


def joint_witness(delta, alpha, I, beta, J):
    """Build the joint strict system of candidate data over mu and solve it."""
    equalities = []
    inequalities = []
    for members, weights in ((I, alpha), (J, beta)):
        base = min(members)
        for p in sorted(members):
            if p != base:
                row = [0] * delta
                row[p] = weights[p]
                row[base] = -weights[base]
                equalities.append(row)
        for p in range(delta):
            if p in members:
                continue
            low = [0] * delta
            low[base] = weights[base]
            low[p] = -weights[p]
            inequalities.append((low, True))  # level above mu_p * w_p
            high = [0] * delta
            high[p] = weights[p] + 1
            high[base] = -weights[base]
            inequalities.append((high, True))  # level below mu_p * (w_p + 1)
    for p in range(delta):
        unit = [0] * delta
        unit[p] = 1
        inequalities.append((unit, True))
    return solve_homogeneous(delta, equalities, inequalities)
