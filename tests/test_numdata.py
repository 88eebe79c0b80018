"""Tests for the numerical-data solver, played against the scan oracle."""

import random
from fractions import Fraction

import pytest

from conftest import rand_mu
from limitcanon.numdata import NumericalData, associated_data, verify_conditions
from oracles import scan_oracle


def all_solutions_in_window(mu, upsilon):
    """Every breakpoint that satisfies the four conditions.

    Complete: a satisfying level c has upsilon <= F(c) < upsilon + delta, so
    scanning breakpoints until F passes upsilon + delta misses nothing.
    """
    from math import lcm

    mu = [Fraction(m) for m in mu]
    t = lcm(*(f.denominator for f in mu)) if len(mu) > 1 else mu[0].denominator
    m = [int(f * t) for f in mu]

    def jumps(c):
        return sum(c // mp for mp in m)

    lo, step = 0, 1
    while jumps(lo) >= upsilon:
        lo -= step
        step *= 2
    hits = []
    c = lo
    while jumps(c) < upsilon + len(m):
        c = min((c // mp + 1) * mp for mp in m)
        alpha = tuple(c // mp for mp in m)
        rho = tuple(Fraction(mp * (a + 1) - c, t) for mp, a in zip(m, alpha))
        members = frozenset(p for p, mp in enumerate(m) if c % mp == 0)
        cand = NumericalData(alpha, rho, members, Fraction(c, t))
        if verify_conditions(mu, upsilon, cand):
            hits.append(cand)
    return hits


def test_upsilon_zero_is_trivial():
    for mu in [(1, 1), (2, 5, 7), (Fraction(3, 4), Fraction(1, 6))]:
        data = associated_data(mu, 0)
        assert data.alpha == (0,) * len(mu)
        assert data.rho == tuple(Fraction(m) for m in mu)
        assert data.I == frozenset(range(len(mu)))
        assert data.level == 0


def test_small_examples():
    data = associated_data((1, 1), 1)
    assert data == NumericalData((1, 1), (Fraction(1), Fraction(1)), frozenset({0, 1}), Fraction(1))
    data = associated_data((1, 2), 1)
    assert data.alpha == (1, 0)
    assert data.rho == (Fraction(1), Fraction(1))
    assert data.I == frozenset({0})
    assert data.level == 1
    assert scan_oracle((3, 5, 7), 4) == associated_data((3, 5, 7), 4)


@pytest.mark.parametrize("g_y", [2, 3, 4, 5, 6])
def test_one_over_gy_weight(g_y):
    # the weight (1, g_y) at target g_y saturates both nodes
    data = associated_data((1, g_y), g_y)
    assert data.alpha == (g_y, 1)
    assert sum(data.alpha) == g_y + 1
    assert data.I == frozenset({0, 1})
    assert data == scan_oracle((1, g_y), g_y)


def test_verify_conditions_accepts_solver_output():
    data = associated_data((1, 1), 1)
    assert verify_conditions((1, 1), 1, data)


def test_verify_conditions_rejects_wrong_level():
    bad = NumericalData((2, 0), (Fraction(1), Fraction(1)), frozenset({0, 1}), Fraction(1))
    assert not verify_conditions((1, 1), 1, bad)


def test_verify_conditions_rejects_inconsistent_locus():
    # rho = mu at the second node would force it into I, breaking the level
    bad = NumericalData((1, 0), (Fraction(1), Fraction(2)), frozenset({0, 1}), Fraction(1))
    assert not verify_conditions((1, 2), 1, bad)


def test_verify_conditions_rejects_rho_out_of_range_and_an_off_scale_level():
    # each candidate meets every condition but one: rho_p = 0, rho_p > mu_p,
    # and a level 1/4 whose denominator neither mu nor rho has
    one = Fraction(1)
    assert not verify_conditions((1, 1), 1, NumericalData((0, 1), (Fraction(0), one), frozenset({1}), one))
    assert not verify_conditions((1, 1), 3, NumericalData((2, 1), (Fraction(2), one), frozenset({1}), one))
    assert verify_conditions((1, 1), 0, NumericalData((0, 0), (one, one), frozenset({0, 1}), Fraction(0)))
    assert not verify_conditions((1, 1), 0, NumericalData((0, 0), (one, one), frozenset({0, 1}), Fraction(1, 4)))


def test_verify_conditions_is_false_on_malformed_candidates():
    # entries that are no number: a False verdict, not an exception
    good = associated_data((1, 1), 1)
    for bad in (
        NumericalData(("x", 1), good.rho, good.I, good.level),
        NumericalData(good.alpha, ("a", Fraction(1)), good.I, good.level),
        NumericalData(good.alpha, (None, Fraction(1)), good.I, good.level),
    ):
        assert verify_conditions((1, 1), 1, bad) is False


def test_errors():
    with pytest.raises(ValueError):
        associated_data((), 1)
    with pytest.raises(ValueError):
        associated_data((1, 0), 1)
    with pytest.raises(ValueError):
        associated_data((1, Fraction(-2, 3)), 1)


def test_oracle_equivalence_randomized():
    rng = random.Random(20240)
    for _ in range(600):
        delta = rng.randint(1, 6)
        mu = rand_mu(rng, delta, top=50, integral=True)
        upsilon = rng.randint(-30, 50)
        fast = associated_data(mu, upsilon)
        assert fast == scan_oracle(mu, upsilon)
        assert verify_conditions(mu, upsilon, fast)


def test_uniqueness_exhaustive():
    rng = random.Random(77)
    for _ in range(120):
        delta = rng.randint(1, 4)
        mu = rand_mu(rng, delta, top=12, integral=True)
        upsilon = rng.randint(-10, 15)
        hits = all_solutions_in_window(mu, upsilon)
        assert len(hits) == 1
        assert hits[0] == associated_data(mu, upsilon)


def test_sign_laws():
    rng = random.Random(4242)
    for _ in range(300):
        delta = rng.randint(1, 5)
        mu = rand_mu(rng, delta, top=20)
        upsilon = rng.randint(1 - delta, 25)
        data = associated_data(mu, upsilon)
        assert all(a >= 0 for a in data.alpha)
        if any(data.alpha[p] == 0 for p in data.I):
            assert data.alpha == (0,) * delta
            assert data.I == frozenset(range(delta))


def test_homogeneity():
    rng = random.Random(99)
    for _ in range(200):
        delta = rng.randint(1, 5)
        mu = rand_mu(rng, delta, top=20)
        upsilon = rng.randint(-10, 20)
        t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        base = associated_data(mu, upsilon)
        scaled = associated_data(tuple(t * m for m in mu), upsilon)
        assert scaled.alpha == base.alpha
        assert scaled.I == base.I
        assert scaled.rho == tuple(t * r for r in base.rho)
        assert scaled.level == t * base.level
