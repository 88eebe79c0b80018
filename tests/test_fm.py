"""Tests for the Fourier-Motzkin strict feasibility solver."""

import random
from fractions import Fraction

from fm import solve_homogeneous


def check(nvars, eqs, ineqs):
    witness = solve_homogeneous(nvars, eqs, ineqs)
    if witness is None:
        return None
    for row in eqs:
        assert sum(Fraction(c) * w for c, w in zip(row, witness)) == 0
    for row, strict in ineqs:
        val = sum(Fraction(c) * w for c, w in zip(row, witness))
        assert val > 0 if strict else val >= 0
    return witness


def test_simple_cone():
    w = check(2, [], [([1, -1], True), ([1, 0], True), ([0, 1], True)])
    assert w is not None and w[0] > w[1] > 0


def test_strictly_infeasible():
    assert solve_homogeneous(1, [], [([1], True), ([-1], True)]) is None


def test_weak_boundary_point():
    w = check(1, [], [([1], False), ([-1], False)])
    assert w == (0,)
    assert solve_homogeneous(1, [], [([1], True), ([-1], False)]) is None


def test_conflicting_equalities():
    # mu2 = 4 mu1 and mu2 = 2 mu1 force mu = 0, killing positivity
    eqs = [[4, -1], [2, -1]]
    ineqs = [([1, 0], True), ([0, 1], True)]
    assert solve_homogeneous(2, eqs, ineqs) is None


def test_equality_substitution():
    w = check(3, [[1, -1, 0]], [([0, 0, 1], True), ([1, 0, -1], True), ([1, 0, 0], True)])
    assert w is not None and w[0] == w[1] and w[0] > w[2] > 0


def test_randomized_against_rejection_sampling():
    rng = random.Random(5150)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            rows.append(
                (
                    [rng.randint(-3, 3) for _ in range(nvars)],
                    rng.random() < 0.7,
                )
            )
        witness = solve_homogeneous(nvars, [], rows)
        if witness is not None:
            for row, strict in rows:
                val = sum(Fraction(c) * w for c, w in zip(row, witness))
                assert val > 0 if strict else val >= 0
        else:
            # dense rational grid search must also fail
            pts = [Fraction(n, 4) for n in range(-12, 13)]
            for _ in range(400):
                cand = [rng.choice(pts) for _ in range(nvars)]
                ok = True
                for row, strict in rows:
                    val = sum(Fraction(c) * x for c, x in zip(row, cand))
                    if val < 0 or (strict and val == 0):
                        ok = False
                        break
                assert not ok
