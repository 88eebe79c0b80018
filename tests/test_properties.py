"""Property tests of classification, witnesses and the level check (hypothesis).

The profile registered in ``conftest.py`` keeps them deterministic.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from conftest import level_verdicts
from limitcanon.model import CurveConfig
from limitcanon.numdata import associated_data
from limitcanon.strata import _search, _witness, enumerate_strata, stratum_key, stratum_of

positive = st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64)


@st.composite
def configs(draw, max_genus=4, max_delta=4):
    g_x, g_y = draw(st.integers(0, max_genus)), draw(st.integers(0, max_genus))
    delta = draw(st.integers(1 if g_x * g_y else 2, max_delta))
    return CurveConfig(g_x=g_x, g_y=g_y, delta=delta)


@st.composite
def weights(draw):
    cfg = draw(configs())
    return cfg, tuple(draw(st.lists(positive, min_size=cfg.delta, max_size=cfg.delta)))


@given(weights(), positive)
def test_scaling_keeps_the_key(case, t):
    cfg, mu = case
    scaled = stratum_of(cfg, tuple(t * m for m in mu))
    assert stratum_key(cfg, scaled) == stratum_key(cfg, stratum_of(cfg, mu))


@given(weights())
def test_stratum_of_is_two_associated_data_calls(case):
    cfg, mu = case
    s = stratum_of(cfg, mu)
    x, y = associated_data(mu, cfg.g_y), associated_data(mu, cfg.g_x)
    assert (s.alpha, s.I, s.rho, s.gamma) == (x.alpha, x.I, x.rho, x.level)
    assert (s.beta, s.J, s.epsilon) == (y.alpha, y.I, y.level)
    assert s.sigma == tuple(m - r for m, r in zip(mu, y.rho))
    assert s.witness_mu == mu


@lru_cache(maxsize=None)
def _candidates(cfg):
    return tuple(_search(cfg))


@given(configs(max_genus=3), st.data())
def test_level_check_matches_stratum_of_on_search_candidates(cfg, data):
    # the candidate's own witness, or that witness with one node scaled
    found = _candidates(cfg)
    assume(found)
    alpha, I, beta, J, r = data.draw(st.sampled_from(found))
    mu, levels = _witness(cfg, alpha, I, beta, J, r)
    p = data.draw(st.integers(0, cfg.delta - 1))
    mu[p] *= data.draw(st.sampled_from([Fraction(k, 8) for k in range(4, 13)]))
    fast, slow = level_verdicts(cfg, mu, (alpha, I, beta, J), levels)
    assert fast == slow


# entries that often divide the levels, so loci are nonempty and windows tight
near_loci = st.one_of(st.integers(1, 5).map(lambda k: Fraction(1, k)), positive)


@given(configs(), st.data())
def test_level_check_matches_stratum_of_on_floor_patterns(cfg, data):
    # the candidate is mu's own floor and divisibility pattern at levels 1 and r,
    # which is the data exactly when it meets the window
    mu = data.draw(st.lists(near_loci, min_size=cfg.delta, max_size=cfg.delta))
    r = data.draw(near_loci)
    levels = (1 if cfg.g_y else 0, r if cfg.g_x else 0)
    candidate = ()
    for level in levels:
        candidate += (tuple(level // m for m in mu), frozenset(p for p, m in enumerate(mu) if level % m == 0))
    fast, slow = level_verdicts(cfg, mu, candidate, levels)
    assert fast == slow


@given(configs(max_genus=3), st.data())
def test_witness_classifies_back_at_its_levels(cfg, data):
    # the integer witness lands on its candidate, at levels (1, r) on its own scale
    found = _candidates(cfg)
    assume(found)
    alpha, I, beta, J, r = data.draw(st.sampled_from(found))
    m, levels = _witness(cfg, alpha, I, beta, J, r)
    s = stratum_of(cfg, m)
    assert (s.alpha, s.I, s.beta, s.J) == (alpha, I, beta, J)
    assert (s.gamma, s.epsilon) == levels
    if cfg.g_x and cfg.g_y:
        assert Fraction(levels[1], levels[0]) == Fraction(*r)


@lru_cache(maxsize=None)
def _listed_keys(cfg):
    return frozenset(stratum_key(cfg, s) for s in enumerate_strata(cfg))


@given(weights())
def test_every_weight_vector_lands_on_a_listed_key(case):
    cfg, mu = case
    assert stratum_key(cfg, stratum_of(cfg, mu)) in _listed_keys(cfg)
