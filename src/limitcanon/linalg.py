"""Exact linear algebra helpers: rational row reduction, integer kernels.

Everything works with ``fractions.Fraction`` (or int) entries; floating
point is never used.  Matrices are sequences of row tuples.  The sizes in
this package are tiny (ambient dimension at most 6 or 7), so the plain
O(n^3) algorithms are fine.  Row reduction clears each row's denominators
once and eliminates fraction-free in integers, dividing by the pivots only
when it writes the reduced rows (every zero entry is one shared
``Fraction(0)``).  ``power_product`` multiplies numerators and
denominators into two integers and makes one ``Fraction`` of them, so a
torus invariant costs one normalization.  There is no general rational
determinant: ``_bareiss`` takes the determinant of an integer matrix, and
``grassmann.pluecker`` calls it on basis rows it has cleared itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)`` where ``reduced_rows`` drops
    zero rows and each pivot entry is 1.  Fraction-free: each row is
    cleared of denominators once and eliminated in integers (a row is
    replaced by pivot * row - entry * pivot row, then divided by its
    content), so every working row is a nonzero multiple of the row that
    elimination over the rationals holds; the reduced rows are divided by
    their pivots only when they are written out.  The column walk stops
    once every row has its pivot, so an empty list of rows costs nothing
    whatever ``ncols`` is.
    """
    mat = [_cleared(row) for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        row_r = mat[r]
        pv = row_r[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(row, row_r)]
                g = gcd(*row)
                mat[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
    reduced = [tuple(Fraction(a, row[c]) if a else _ZERO for a in row) for row, c in zip(mat, pivots)]
    return reduced, pivots


def _cleared(row):
    """The row times the lcm of its entries' denominators, as integers."""
    row = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
    return _integer_scaled(row)[0] if row else row


def _integer_scaled(values):
    """Return (m, t) with m = t*values integral and t a positive integer,
    the lcm of the denominators."""
    t = lcm(*(f.denominator for f in values)) if len(values) > 1 else values[0].denominator
    return [f.numerator * (t // f.denominator) for f in values], t


def _bareiss(mat):
    """Determinant of a square integer matrix by fraction-free elimination.

    Every division is exact (Sylvester's identity), so all intermediate
    entries stay integers; ``mat`` is overwritten.
    """
    n = len(mat)
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        pk, row_k = mat[k][k], mat[k]
        for i in range(k + 1, n):
            row_i = mat[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - f * row_k[j]) // prev
        prev = pk
    return sign * mat[n - 1][n - 1] if n else 1


def _col_addmul(mat, u, j, j0, q):
    """column_j += q * column_j0 on both the working matrix and tracker."""
    for row in mat:
        row[j] += q * row[j0]
    for row in u:
        row[j] += q * row[j0]


def _col_swap(mat, u, j, j0):
    for row in mat:
        row[j], row[j0] = row[j0], row[j]
    for row in u:
        row[j], row[j0] = row[j0], row[j]


def integer_kernel(rows, ncols):
    """Basis of the integer kernel {x in Z^n : A x = 0} of an integer matrix.

    Column reduction with a unimodular tracker; the returned lattice is the
    full (saturated) kernel, which matters for the monomial consistency
    tests built on it.
    """
    m = len(rows)
    mat = [list(map(int, row)) for row in rows]
    tracker = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    lead = 0
    for r in range(m):
        if lead >= ncols:
            break
        while True:
            nz = [j for j in range(lead, ncols) if mat[r][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != lead:
                    _col_swap(mat, tracker, nz[0], lead)
                lead += 1
                break
            j0 = min(nz, key=lambda j: (abs(mat[r][j]), j))
            for j in nz:
                if j == j0:
                    continue
                q = mat[r][j] // mat[r][j0]
                if q:
                    _col_addmul(mat, tracker, j, j0, -q)
    basis = []
    for j in range(lead, ncols):
        if all(mat[r][j] == 0 for r in range(m)):
            basis.append(tuple(tracker[i][j] for i in range(ncols)))
    return basis


def hnf_rows(rows):
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Canonical: pivots positive, entries above each pivot reduced into
    [0, pivot), so every basis of the same lattice gives the same rows.
    The entries above pivots are reduced top-down: a reduction by a lower
    row leaves the columns of the pivots above it alone, while going
    bottom-up would let a later reduction by an upper row undo an earlier
    one.  Used to fix a deterministic basis for relation lattices.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    result = []
    col = 0
    while work and col < ncols:
        nz = [r for r in work if r[col] != 0]
        if not nz:
            col += 1
            continue
        while True:
            nz = [r for r in work if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            for r in nz[1:]:
                q = r[col] // base[col]
                for k in range(ncols):
                    r[k] -= q * base[k]
        pivot_row = next(r for r in work if r[col] != 0)
        work.remove(pivot_row)
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        result.append(pivot_row)
        col += 1
    # reduce entries above pivots
    for i in range(len(result)):
        pcol = next(k for k in range(ncols) if result[i][k] != 0)
        p = result[i][pcol]
        for j in range(i):
            q = result[j][pcol] // p
            if q:
                for k in range(ncols):
                    result[j][k] -= q * result[i][k]
    return [tuple(r) for r in result]


def relation_lattice(vectors):
    """Canonical basis of {n : sum_i n_i * vectors[i] = 0} over Z."""
    if not vectors:
        return []
    dim = len(vectors[0])
    # rows of the constraint matrix = coordinates; columns = the vectors
    rows = [tuple(v[d] for v in vectors) for d in range(dim)]
    return hnf_rows(integer_kernel(rows, len(vectors)))


def power_product(values, exponents):
    """Exact product of values[i] ** exponents[i] over the rationals, for
    int or Fraction values: the numerators and denominators are multiplied
    into two integers, and one Fraction is made of them."""
    num = den = 1
    for v, e in zip(values, exponents):
        if e > 0:
            num *= v.numerator ** e
            den *= v.denominator ** e
        elif e < 0:
            num *= v.denominator ** -e
            den *= v.numerator ** -e
    return Fraction(num, den)


def monomial_system_solvable(characters, values, relation_characters=()):
    """Decide solvability of ``x^chi = value`` over an algebraically closed field.

    ``characters`` are integer exponent vectors of torus characters and
    ``values`` their prescribed nonzero rational values; the characters in
    ``relation_characters`` are constrained to the value 1 (they cut out the
    acting subtorus).  Over an algebraically closed field of characteristic
    zero the system has a solution iff every integer relation among all the
    characters forces the matching product of prescribed values to be 1.
    """
    chars = [tuple(c) for c in characters] + [tuple(c) for c in relation_characters]
    if not chars:
        return True
    k = len(characters)
    for rel in relation_lattice(chars):
        if power_product(values, rel[:k]) != 1:
            return False
    return True
