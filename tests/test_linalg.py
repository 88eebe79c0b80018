"""Unit tests for the exact linear algebra and lattice helpers."""

import random
from fractions import Fraction

from limitcanon.linalg import (
    _bareiss,
    hnf_rows,
    integer_kernel,
    monomial_system_solvable,
    power_product,
    relation_lattice,
    rref,
)
from oracles import fraction_det, fraction_rref, nullspace


def test_rref_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    reduced, pivots = rref(rows, 3)
    assert pivots == [0, 1]
    assert len(reduced) == 2
    for vec in nullspace(rows, 3):
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_rref_matches_fraction_elimination():
    # rational entries, zero rows, dependent rows, wide matrices, short ncols
    rng = random.Random(17)
    for _ in range(300):
        h, n = rng.randint(0, 5), rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(h)
        ]
        if h > 2 and rng.random() < 0.4:
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
        if h > 1 and rng.random() < 0.2:
            rows[rng.randrange(h)] = [0] * n
        ncols = rng.choice([None, n, rng.randint(0, n)])
        assert rref(rows, ncols) == fraction_rref(rows, ncols)


def test_integer_minors_match_fraction_elimination():
    # integer matrices up to 5 x 5; zero pivots force row swaps, and
    # repeated, scaled and zero rows give zero determinants
    assert _bareiss([]) == 1
    assert _bareiss([[0, 1], [1, 0]]) == -1
    assert _bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _bareiss([[0, 2, 1], [0, 3, 4], [5, 6, 7]]) == 25
    rng = random.Random(31)
    swaps = zeros = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            mat[-1] = list(mat[0]) if rng.random() < 0.5 else [-3 * x for x in mat[0]]
        if n > 1 and rng.random() < 0.3:
            mat[0][0] = 0
        swaps += mat[0][0] == 0
        want = fraction_det(mat)
        zeros += want == 0
        assert _bareiss([list(row) for row in mat]) == want, mat
    assert swaps > 50 and zeros > 50


def test_integer_kernel_is_saturated():
    basis = integer_kernel([[2, -2]], 2)
    assert len(basis) == 1
    vec = basis[0]
    assert abs(vec[0]) == 1 and vec[0] == vec[1]  # (1, 1), not (2, 2)


def test_integer_kernel_randomized():
    rng = random.Random(64)
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        basis = integer_kernel(rows, n)
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        reduced, pivots = rref(rows, n)
        assert len(basis) == n - len(pivots)


def test_hnf_rows_canonical():
    lattice = [(2, 0, 1), (0, 3, 1)]
    shuffled = [(0, 3, 1), (2, 3, 2), (2, 0, 1)]
    assert hnf_rows(lattice) == hnf_rows(shuffled)
    assert hnf_rows([]) == []
    assert hnf_rows([(0, 0)]) == []


def _rebased(rng, rows):
    """Other generators of the same lattice: unimodular row moves, then a shuffle."""
    rows = [list(r) for r in rows]
    for _ in range(8):
        i, j = rng.sample(range(len(rows)), 2)
        k = rng.randint(-3, 3)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[j] = [-b for b in rows[j]]
    rng.shuffle(rows)
    return rows


def test_hnf_rows_is_basis_independent():
    rng = random.Random(2718)
    for _ in range(400):
        ncols = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(2, ncols))]
        hnf = hnf_rows(rows)
        assert hnf_rows(_rebased(rng, rows)) == hnf, rows
        for i, row in enumerate(hnf):
            pcol = next(k for k, x in enumerate(row) if x)
            assert row[pcol] > 0
            assert all(0 <= upper[pcol] < row[pcol] for upper in hnf[:i]), hnf


def test_relation_lattice():
    rels = relation_lattice([(1, 0), (0, 1), (1, 1)])
    assert len(rels) == 1
    n = rels[0]
    assert n[0] * 1 + n[2] * 1 == 0 and n[1] * 1 + n[2] * 1 == 0


def test_power_product():
    assert power_product([Fraction(2), Fraction(3)], [3, -1]) == Fraction(8, 3)


def test_monomial_solvability_cases():
    # x^2 = -1 is solvable over an algebraically closed field
    assert monomial_system_solvable([(2,)], [Fraction(-1)])
    # x = a and x = -a cannot both hold for a != 0
    assert not monomial_system_solvable([(1,), (1,)], [Fraction(5), Fraction(-5)])
    # x^2 = 1 together with x = -1 is consistent
    assert monomial_system_solvable([(2,), (1,)], [Fraction(1), Fraction(-1)])
    # x^2 = -1 together with x = -1 is not
    assert not monomial_system_solvable([(2,), (1,)], [Fraction(-1), Fraction(-1)])
    # multiplicative relation among three characters must match the values
    chars = [(1, 0), (0, 1), (1, 1)]
    assert monomial_system_solvable(chars, [Fraction(2), Fraction(3), Fraction(6)])
    assert not monomial_system_solvable(chars, [Fraction(2), Fraction(3), Fraction(7)])
    # relation characters pin their value to 1
    assert monomial_system_solvable([(1, 0)], [Fraction(2)], [(0, 1)])
    assert not monomial_system_solvable([(1, 1)], [Fraction(2)], [(1, 1)])
    assert monomial_system_solvable([], [], [(1, 1)])
