"""Tests for the semistable-model dual graph, twists, and multidegrees."""

import random
from fractions import Fraction

import pytest

from conftest import rand_mu
from limitcanon.model import (
    CurveConfig,
    X,
    Y,
    aspect_dimensions,
    build_model,
    chain_component,
    correction_numbers,
    intersection,
    multidegree_of_twisted_dualizing,
    twist_divisor_focus_X,
    twist_divisor_focus_Y,
)
from limitcanon.numdata import associated_data
from limitcanon.strata import stratum_of
from oracles import fiber_divisor


def test_build_model_counts():
    cfg = CurveConfig(g_x=1, g_y=1, delta=2)
    m = build_model(cfg, (1, 1))
    assert len(m.components) == 2
    assert len(m.nodes) == 2
    assert all(set(n) == {X, Y} for n in m.nodes)

    cfg1 = CurveConfig(g_x=1, g_y=1, delta=1)
    m1 = build_model(cfg1, (3,))
    assert m1.components == (X, Y, chain_component(0, 1), chain_component(0, 2))
    assert len(m1.nodes) == 3

    cfg3 = CurveConfig(g_x=0, g_y=2, delta=3)
    m3 = build_model(cfg3, (1, 2, 4))
    assert len(m3.components) == 2 + 0 + 1 + 3
    assert sum(1 for n in m3.nodes if set(n) == {X, Y}) == 1


def test_build_model_errors():
    cfg = CurveConfig(g_x=1, g_y=1, delta=2)
    with pytest.raises(ValueError):
        build_model(cfg, (0, 1))
    with pytest.raises(ValueError):
        build_model(cfg, (Fraction(3, 2), 1))


def test_intersection_pairing():
    cfg = CurveConfig(g_x=1, g_y=1, delta=2)
    m = build_model(cfg, (1, 1))
    assert intersection(m, X, Y) == 2
    assert intersection(m, X, X) == -2
    m2 = build_model(cfg, (3, 1))
    z = chain_component(0, 1)
    assert intersection(m2, z, z) == -2
    with pytest.raises(KeyError):
        intersection(m2, X, ("Z", 9, 9))


def test_twist_divisor_trivial_chains():
    # all-ones weights: no chains, the divisor is just gamma * Y
    cfg = CurveConfig(g_x=2, g_y=3, delta=3)
    m = build_model(cfg, (1, 1, 1))
    data = associated_data((1, 1, 1), cfg.g_y)
    div = twist_divisor_focus_X(m, data)
    assert div.coefficients == {Y: int(data.level)}


def test_twist_divisor_closed_form():
    cfg = CurveConfig(g_x=1, g_y=1, delta=2)
    mu = (2, 2)
    m = build_model(cfg, mu)
    data = associated_data(mu, cfg.g_y)
    div = twist_divisor_focus_X(m, data)
    assert div.coeff(Y) == int(data.level)
    for p in range(2):
        for i in range(1, mu[p]):
            expected = data.alpha[p] * i + max(0, i - int(data.rho[p]))
            assert div.coeff(chain_component(p, i)) == expected
    assert div.coeff(X) == 0


def test_multidegree_untwisted_chains():
    cfg = CurveConfig(g_x=1, g_y=2, delta=2)
    m = build_model(cfg, (3, 2))
    zero = twist_divisor_focus_X(m, associated_data((3, 2), 0))  # target 0: zero divisor
    deg = multidegree_of_twisted_dualizing(m, cfg, zero)
    for p, w in enumerate(m.mu):
        for i in range(1, w):
            assert deg.degree(chain_component(p, i)) == 0


def _chain_pattern_ok(cfg, m, data, deg):
    for p, w in enumerate(m.mu):
        for i in range(1, w):
            d = deg.degree(chain_component(p, i))
            if p not in data.I and i == int(data.rho[p]):
                assert d == 1
            else:
                assert d == 0


def test_multidegree_pattern_randomized():
    rng = random.Random(31415)
    for _ in range(150):
        delta = rng.randint(1, 4)
        g_x = rng.randint(0, 3)
        g_y = rng.randint(0, 3)
        if delta == 1 and g_x * g_y == 0:
            continue
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        mu = tuple(rng.randint(1, 6) for _ in range(delta))
        m = build_model(cfg, mu)
        data = associated_data(mu, cfg.g_y)
        deg = multidegree_of_twisted_dualizing(m, cfg, twist_divisor_focus_X(m, data))
        a_total = sum(data.alpha)
        assert deg.degree(X) == 2 * g_x - 2 + delta + a_total
        assert deg.degree(Y) == 2 * g_y - 2 + len(data.I) - a_total
        _chain_pattern_ok(cfg, m, data, deg)
        assert deg.total == 2 * cfg.genus - 2

        data_y = associated_data(mu, cfg.g_x)
        deg_y = multidegree_of_twisted_dualizing(m, cfg, twist_divisor_focus_Y(m, data_y))
        b_total = sum(data_y.alpha)
        assert deg_y.degree(Y) == 2 * g_y - 2 + delta + b_total
        assert deg_y.degree(X) == 2 * g_x - 2 + len(data_y.I) - b_total
        assert deg_y.total == 2 * cfg.genus - 2


def test_fiber_triviality_randomized():
    rng = random.Random(2718)
    for _ in range(60):
        delta = rng.randint(1, 4)
        cfg = CurveConfig(g_x=1, g_y=2, delta=delta)
        m = build_model(cfg, tuple(rng.randint(1, 5) for _ in range(delta)))
        fiber = fiber_divisor(m)
        for comp in m.components:
            assert (
                sum(fiber.coeff(o) * intersection(m, comp, o) for o in m.components)
                == 0
            )


def test_total_degree_independent_of_divisor():
    # the fiber is numerically trivial, so any component-supported twist
    # keeps the total at 2g - 2
    from limitcanon.model import DivisorOnModel

    rng = random.Random(112)
    for _ in range(40):
        delta = rng.randint(1, 3)
        cfg = CurveConfig(g_x=2, g_y=1, delta=delta)
        m = build_model(cfg, tuple(rng.randint(1, 4) for _ in range(delta)))
        coeffs = {c: rng.randint(-3, 3) for c in m.components}
        deg = multidegree_of_twisted_dualizing(m, cfg, DivisorOnModel(m, coeffs))
        assert deg.total == 2 * cfg.genus - 2


def test_second_difference_identity():
    rng = random.Random(1618)
    for _ in range(80):
        delta = rng.randint(1, 3)
        g_y = rng.randint(0, 3)
        if delta == 1 and g_y == 0:
            continue
        cfg = CurveConfig(g_x=1, g_y=g_y, delta=delta)
        mu = tuple(rng.randint(1, 6) for _ in range(delta))
        m = build_model(cfg, mu)
        data = associated_data(mu, g_y)
        div = twist_divisor_focus_X(m, data)
        deg = multidegree_of_twisted_dualizing(m, cfg, div)
        for p, w in enumerate(m.mu):
            coeffs = (
                [0]
                + [div.coeff(chain_component(p, i)) for i in range(1, w)]
                + [div.coeff(Y)]
            )
            for i in range(1, w):
                second = coeffs[i - 1] - 2 * coeffs[i] + coeffs[i + 1]
                assert second == deg.degree(chain_component(p, i))


def test_correction_numbers():
    cfg = CurveConfig(g_x=3, g_y=0, delta=2)
    s = stratum_of(cfg, (1, 1))
    a_map, b_map = correction_numbers(s)
    assert set(a_map.values()) == {0}
    cfg2 = CurveConfig(g_x=1, g_y=1, delta=2)
    s2 = stratum_of(cfg2, (2, 1))
    a2, b2 = correction_numbers(s2)
    assert sorted(a2.values()) == [0, 1] and sorted(b2.values()) == [0, 1]
    rng = random.Random(5)
    for _ in range(50):
        cfg3 = CurveConfig(g_x=rng.randint(0, 4), g_y=rng.randint(0, 4), delta=rng.randint(2, 4))
        s3 = stratum_of(cfg3, rand_mu(rng, cfg3.delta, top=9))
        assert all(0 <= a <= cfg3.g_y for a in s3.alpha)
        assert all(0 <= b <= cfg3.g_x for b in s3.beta)


def test_aspect_dimensions():
    cfg = CurveConfig(g_x=2, g_y=0, delta=3)
    s = stratum_of(cfg, (1, 1, 1))
    dims = aspect_dimensions(cfg, s)
    assert dims["codim_X"] == 0
    assert dims["h0_Y"] == cfg.delta - 1

    cfg2 = CurveConfig(g_x=1, g_y=1, delta=2)
    s2 = stratum_of(cfg2, (1, 2))  # alpha = (1, 0), I = {0}
    assert s2.alpha == (1, 0) and s2.I == frozenset({0})
    dims2 = aspect_dimensions(cfg2, s2)
    assert dims2["h0_X"] == 3 == cfg2.genus
    assert dims2["codim_X"] == 0
