"""Property tests of classification, witnesses, the level check, the
enumerated keys against Fourier-Motzkin, the breakpoint walk, the integer
condition check, the model's node pass, Weierstrass totals, closures,
torus-orbit membership, integer power products, the one-elimination
degenerate subspace and the stored Pluecker vector (hypothesis).

The profile registered in ``conftest.py`` keeps them deterministic.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from conftest import level_verdicts
from fm import joint_witness
from limitcanon.grassmann import (
    Subspace,
    closure_orbit_set,
    in_closure,
    orbit_fingerprint,
    pluecker,
    tripartition_degenerate,
)
from limitcanon.model import (
    X,
    CurveConfig,
    DivisorOnModel,
    SemistableModel,
    build_model,
    intersection,
    intersection_matrix,
    multidegree_of_twisted_dualizing,
)
from dataclasses import fields, replace

from limitcanon.linalg import power_product
from limitcanon.numdata import _breakpoint, associated_data, verify_conditions
from limitcanon.poset import build_poset
from limitcanon.strata import _search, _witness, enumerate_strata, make_key, stratum_key, stratum_of
from limitcanon.tripartitions import tripartitions
from limitcanon.weier import weierstrass_degrees
from oracles import (
    brute_side,
    fraction_power_product,
    fraction_stratum_of,
    fraction_verify_conditions,
    galloping_breakpoint,
    lattice_in_closure,
    pairwise_multidegree,
    scan_oracle,
    sum_degenerate,
)

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


# random rationals, integers (integral vectors) and multiples of a few small units
entries = st.one_of(positive, st.integers(1, 12).map(Fraction), st.integers(1, 9).map(lambda k: Fraction(k, 6)))


@given(configs(), st.data())
def test_stratum_of_matches_the_fraction_oracle(cfg, data):
    # configs() draws zero genera too; every value, the repr and the hash agree
    mu = tuple(data.draw(st.lists(entries, min_size=cfg.delta, max_size=cfg.delta)))
    s, want = stratum_of(cfg, mu), fraction_stratum_of(cfg, mu)
    for f in fields(want):
        assert getattr(s, f.name) == getattr(want, f.name), f.name
    assert repr(s) == repr(want) and hash(s) == hash(want)


# which field to change (none, an alpha entry, a rho entry, a rho entry to mu_p,
# a node of I, the level), at which node and by how much
tampering = st.tuples(
    st.sampled_from(["none", "alpha", "rho", "rho_to_mu", "I", "level"]),
    st.integers(0, 4),
    st.sampled_from([Fraction(k, 4) for k in (-8, -4, -2, -1, 1, 2, 4, 8)]),
)


def _tampered(solution, mu, how):
    """The solution with at most one field changed."""
    field, p, shift = how
    p %= len(mu)
    if field == "alpha":
        alpha = list(solution.alpha)
        alpha[p] += int(shift) or 1
        return replace(solution, alpha=tuple(alpha))
    if field in ("rho", "rho_to_mu"):
        rho = list(solution.rho)
        rho[p] = mu[p] if field == "rho_to_mu" else rho[p] + shift
        return replace(solution, rho=tuple(rho))
    if field == "I":
        return replace(solution, I=solution.I ^ {p})
    if field == "level":
        return replace(solution, level=solution.level + shift)
    return solution


@given(st.lists(entries, min_size=1, max_size=5), st.integers(-6, 12), tampering)
def test_verify_conditions_matches_the_fraction_oracle(mu, upsilon, how):
    solution = associated_data(mu, upsilon)
    assert verify_conditions(mu, upsilon, solution)
    candidate = _tampered(solution, mu, how)
    assert verify_conditions(mu, upsilon, candidate) == fraction_verify_conditions(mu, upsilon, candidate)


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


@lru_cache(maxsize=None)
def _fm_keys(cfg):
    """The keys of the brute-force candidate product that Fourier-Motzkin realizes."""
    delta = cfg.delta
    return frozenset(
        make_key(cfg, alpha, I, beta, J)
        for (alpha, I), (beta, J) in product(brute_side(cfg.g_y, delta), brute_side(cfg.g_x, delta))
        if joint_witness(delta, alpha, I, beta, J) is not None
    )


# each config costs up to 0.7 s of Fourier-Motzkin; 25 examples take about 1 s
@settings(max_examples=25)
@given(configs(max_genus=3, max_delta=3))
def test_enumerated_keys_are_the_fm_realizable_keys(cfg):
    assert _listed_keys(cfg) == _fm_keys(cfg)


@given(weights())
def test_every_weight_vector_lands_on_a_listed_key(case):
    cfg, mu = case
    assert stratum_key(cfg, stratum_of(cfg, mu)) in _listed_keys(cfg)


# node weights from 1 to 10^12, small ones often, so multiples coincide
node_weights = st.lists(
    st.one_of(st.integers(1, 12), st.integers(1, 10 ** 12)), min_size=1, max_size=6
)


@given(node_weights, st.one_of(st.integers(-50, 60), st.integers(-50, 10 ** 6)))
def test_breakpoint_walk_matches_galloping_and_scan(m, upsilon):
    c = _breakpoint(m, upsilon)
    assert c == galloping_breakpoint(m, upsilon)
    # the scan visits every breakpoint up to c, so it runs on small targets only
    if upsilon <= 60:
        assert associated_data(m, upsilon) == scan_oracle(m, upsilon)


@st.composite
def twisted_models(draw):
    cfg = draw(configs())
    model = build_model(cfg, draw(st.lists(st.integers(1, 4), min_size=cfg.delta, max_size=cfg.delta)))
    if draw(st.booleans()):
        # a loop at X: nothing the builder makes, but the pairing must still hold
        model = SemistableModel(cfg, model.mu, model.components, model.nodes + ((X, X),))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(model.components), max_size=len(model.components)))
    return cfg, model, DivisorOnModel(model, dict(zip(model.components, coeffs)))


@given(twisted_models())
def test_node_pass_matches_the_pairwise_oracle(case):
    cfg, model, divisor = case
    assert multidegree_of_twisted_dualizing(model, cfg, divisor) == pairwise_multidegree(model, cfg, divisor)
    comps = model.components
    assert intersection_matrix(model) == [[intersection(model, a, b) for b in comps] for a in comps]


@given(weights())
def test_weierstrass_degrees_total_g_cubed_minus_g(case):
    cfg, mu = case
    w = weierstrass_degrees(cfg, stratum_of(cfg, mu))
    g = cfg.genus
    assert w.stratum_form.total == w.normalized.total == g ** 3 - g


@lru_cache(maxsize=None)
def _poset(cfg):
    return build_poset(cfg)


@given(configs(max_genus=3, max_delta=3))
def test_closures_are_reflexive_and_transitive(cfg):
    poset = _poset(cfg)
    for a in poset.keys:
        assert a in poset.closure[a]
        for b in poset.closure[a]:
            assert poset.closure[b] <= poset.closure[a]


def _subspace(rows, n):
    try:
        return Subspace(rows, ambient=n)
    except ValueError:  # dependent rows
        return None


def _matrices(n, h):
    return st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=h, max_size=h)


@st.composite
def general_subspaces(draw, n, h):
    """A subspace of k^n of dimension h with every Pluecker coordinate nonzero."""
    for _ in range(5):
        V = _subspace(draw(_matrices(n, h)), n)
        if V is not None and all(pluecker(V).coords):
            return V
    assume(False)


# every shape with ambient <= 6 and dimension <= 4, points included; those
# with 2 <= h <= n - 2, where the torus does not act with a dense orbit on
# each interval support, are drawn more often
ORBIT_SHAPES = [(n, h) for n in range(1, 7) for h in range(min(n, 4) + 1)]
RICH_SHAPES = [(n, h) for n, h in ORBIT_SHAPES if 2 <= h <= n - 2]


@st.composite
def orbit_queries(draw):
    """(W, V, member): V general; W a torus-scaled degeneration of V (member),
    of another general subspace of the same shape, or an arbitrary subspace."""
    n, h = draw(st.sampled_from(ORBIT_SHAPES) | st.sampled_from(RICH_SHAPES))
    V = draw(general_subspaces(n, h))
    kind = draw(st.sampled_from(("own", "other", "any")))
    if kind == "any":
        W = _subspace(draw(_matrices(n, h)), n)
        assume(W is not None)
        return W, V, False
    source = V if kind == "own" else draw(general_subspaces(n, h))
    qualifying = [t for t in tripartitions(range(n)) if len(t.first) < h <= n - len(t.last)]
    if qualifying:  # a point (h = 0) is its own degeneration
        source = tripartition_degenerate(source, draw(st.sampled_from(qualifying)))
    scalars = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=n, max_size=n))
    W = Subspace([[c * x for c, x in zip(scalars, row)] for row in source.rows], ambient=n)
    return W, V, kind == "own"


@given(orbit_queries())
def test_in_closure_matches_the_lattice_test_and_the_closure_set(query):
    W, V, member = query
    verdict = in_closure(W, V)
    assert verdict == lattice_in_closure(W, V)
    assert verdict == (orbit_fingerprint(pluecker(W)) in closure_orbit_set(V))
    if member:
        assert verdict


rationals = st.integers(-12, 12) | st.fractions(min_value=-12, max_value=12, max_denominator=12)


@given(st.lists(st.tuples(rationals, st.integers(-6, 6)), max_size=6))
def test_power_product_matches_fraction_powers(terms):
    values, exponents = [v for v, _ in terms], [e for _, e in terms]
    if any(v == 0 and e < 0 for v, e in terms):
        with pytest.raises(ZeroDivisionError):
            fraction_power_product(values, exponents)
        with pytest.raises(ZeroDivisionError):
            power_product(values, exponents)
    else:
        out = power_product(values, exponents)
        assert type(out) is Fraction
        assert out == fraction_power_product(values, exponents)


@st.composite
def any_subspaces(draw, dims=st.integers(0, 4)):
    """A subspace of k^n, n <= 6, of dimension h <= 4, with integer or
    fractional entries and often zero Pluecker coordinates; the draws
    start from the largest ambient."""
    h = draw(dims)
    n = 6 - draw(st.integers(0, 6 - h))
    entries = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=h, max_size=h))
    V = _subspace(rows, n)
    assume(V is not None)
    return V


# one case per dimension, so that each of 0-4 is drawn; the ambient starts at 6
@pytest.mark.parametrize("h", range(5))
@settings(max_examples=3)
@given(data=st.data())
def test_tripartition_degenerate_matches_the_sum_construction(h, data):
    V = data.draw(any_subspaces(st.just(h)))
    # every tripartition, qualifying or not, first = the whole ambient included
    for tri in tripartitions(range(V.ambient)):
        assert tripartition_degenerate(V, tri) == sum_degenerate(V, tri)


@settings(max_examples=50)
@given(any_subspaces())
def test_pluecker_is_stored_once_per_subspace(V):
    pv = pluecker(V)
    assert pluecker(V) is pv
    fresh = Subspace(V.rows, ambient=V.ambient)
    # the stored vector takes no part in equality, hashing or the repr
    assert fresh == V and V == fresh and hash(fresh) == hash(V) and repr(fresh) == repr(V)
    assert {V: True}.get(fresh)
    assert pluecker(fresh) == pv
