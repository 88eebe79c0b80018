"""Tests for closure relations, the poset, and component counting."""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import SWEEP_GRID
from limitcanon.model import CurveConfig
from limitcanon.poset import (
    _coupled_groups,
    build_poset,
    closure_of,
    components,
    count_formulas,
    n_delta,
    neighborhood_radius,
    to_dot,
)
from limitcanon.strata import StratumKey, enumerate_strata, make_key, stratum_key, stratum_of
from limitcanon.tripartitions import Tripartition, pair_compatible, tripartitions
from oracles import admissible, coupling_case, direction_probes, drop_on, neighborhood_sample_check


def _poset(g_x, g_y, delta):
    cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
    found = enumerate_strata(cfg)
    return cfg, found, build_poset(cfg, strata=found)


def test_self_in_closure():
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    for s in enumerate_strata(cfg):
        assert stratum_key(cfg, s) in closure_of(cfg, s)


def test_delta2_flanking_closure():
    cfg, found, p = _poset(2, 4, 2)
    key = make_key(cfg, (4, 1), {0, 1}, (2, 0), {0})
    cl = p.closure[key]
    expected = {
        key,
        make_key(cfg, (3, 1), {1}, (2, 0), {0}),
        make_key(cfg, (4, 0), {0}, (2, 0), {0}),
    }
    assert cl == expected
    assert p.dims[key] == 1
    assert all(p.dims[k] == 0 for k in cl - {key})


def test_zero_genera_poset_is_a_point():
    cfg, found, p = _poset(0, 0, 3)
    assert len(p.keys) == 1
    assert p.closure[p.keys[0]] == frozenset({p.keys[0]})
    assert components(cfg, poset=p)["count"] == 1


def test_delta2_chain_structure():
    cfg, found, p = _poset(2, 4, 2)
    maximal = set(p.maximal())
    minimal = [k for k in p.keys if p.dims[k] == 0]
    assert len(maximal) == 6 and len(minimal) == 7
    # each interval stratum lies below one or two marked strata; the whole
    # picture is a connected chain of segments
    degree = {}
    for m in minimal:
        above = [a for a in maximal if m in p.closure[a]]
        assert 1 <= len(above) <= 2
        degree[m] = len(above)
    assert sorted(degree.values()) == [1, 1, 2, 2, 2, 2, 2]


def test_disc_center_profile_delta3_equal_genera():
    cfg, found, p = _poset(3, 3, 3)
    profiles = Counter()
    for k in p.keys:
        if p.dims[k] != 2:
            continue
        rest = p.closure[k] - {k}
        cnt = Counter(p.dims[o] for o in rest)
        profiles[(cnt.get(1, 0), cnt.get(0, 0))] += 1
    # every component here looks like the disc picture: three
    # one-dimensional strata and three points in the boundary
    assert profiles == Counter({(3, 3): 9})


@pytest.mark.parametrize(
    "g_x,g_y,delta,expected",
    [(3, 3, 3, 9), (2, 4, 3, 25), (2, 4, 2, 6), (0, 0, 2, 1)],
)
def test_component_counts(g_x, g_y, delta, expected):
    cfg, found, p = _poset(g_x, g_y, delta)
    assert components(cfg, poset=p)["count"] == expected


def test_count_formulas_values():
    cfg = CurveConfig(g_x=2, g_y=4, delta=3)
    f = count_formulas(cfg)
    assert f["lower_bound"] == 19
    assert f["n_delta_values"] == {"g_x": 4, "g_y": 16}

    cfg2 = CurveConfig(g_x=3, g_y=3, delta=3)
    f2 = count_formulas(cfg2)
    assert f2["statement1_value"] == n_delta(3, 3) == 9

    cfg3 = CurveConfig(g_x=1, g_y=1, delta=2)
    f3 = count_formulas(cfg3)
    assert f3["closed_form_delta2"] == 1  # irreducible exactly when both genera <= 1

    with pytest.raises(ValueError):
        count_formulas(CurveConfig(g_x=1, g_y=1, delta=1))


def test_closure_transitivity():
    for g_x, g_y, delta in ((2, 4, 2), (3, 3, 3), (0, 4, 3), (1, 2, 3)):
        cfg, found, p = _poset(g_x, g_y, delta)
        for k in p.keys:
            for lower in p.closure[k]:
                assert p.closure[lower] <= p.closure[k]


def test_pure_dimension():
    for g_x, g_y, delta in ((2, 4, 2), (1, 3, 3), (0, 5, 2), (3, 3, 3)):
        cfg, found, p = _poset(g_x, g_y, delta)
        maximal = set(p.maximal())
        assert all(p.dims[k] == delta - 1 for k in maximal)
        for k in p.keys:
            assert any(k in p.closure[m] for m in maximal)


def test_neighborhood_sampling():
    cfg = CurveConfig(g_x=3, g_y=3, delta=3)
    found = enumerate_strata(cfg)
    for i, s in enumerate(found[::5]):
        report = neighborhood_sample_check(cfg, s, samples=120, seed=i)
        assert report["ok"], report["violations"][:3]


def test_direction_probes_reach_every_predicted_key():
    for g_x, g_y, delta in ((2, 4, 2), (3, 3, 3), (0, 4, 3)):
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        found = enumerate_strata(cfg)
        for s in found:
            predicted = closure_of(cfg, s)
            _, radius = neighborhood_radius(s)
            reached = set()
            for key, mu0, upsilon in direction_probes(cfg, s):
                t = radius / (1 + 4 * max(mu0)) / 2
                shifted = tuple(Fraction(m) + t * u for m, u in zip(mu0, upsilon))
                got = stratum_key(cfg, stratum_of(cfg, shifted))
                assert got == key
                reached.add(got)
            assert reached == set(predicted)


def test_closure_is_witness_independent():
    # saturated strata admit witnesses with genuinely different equality
    # loci; the closure computed from any of them must coincide
    rng = random.Random(31337)
    cfg = CurveConfig(g_x=2, g_y=4, delta=3)
    found = enumerate_strata(cfg)
    base = {stratum_key(cfg, s): closure_of(cfg, s) for s in found}
    checked = 0
    for _ in range(800):
        mu = tuple(
            Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3)
        )
        s = stratum_of(cfg, mu)
        key = stratum_key(cfg, s)
        assert closure_of(cfg, s) == base[key]
        checked += 1
    assert checked == 800


def test_dot_export():
    cfg, found, p = _poset(1, 1, 2)
    dot = to_dot(p)
    assert dot.startswith("digraph strata {")
    assert dot.count("->") == len(p.covering_edges())


def _scan_covering_edges(p):
    """Oracle: b covers a when no third member of a's closure lies above b."""
    edges = []
    for a in p.keys:
        below = p.closure[a] - {a}
        for b in sorted(below, key=StratumKey.sort_token):
            if not any(c != b and b in p.closure[c] for c in below):
                edges.append((a, b))
    return edges


def test_covering_edges_match_scan():
    triples = [(g_x, g_y, d) for d in (2, 3) for g_x in range(5) for g_y in range(5)]
    triples += [(2, 2, 4), (1, 3, 4), (0, 3, 4)]
    edges = 0
    for g_x, g_y, delta in triples:
        _, _, p = _poset(g_x, g_y, delta)
        fast = p.covering_edges()
        assert fast == _scan_covering_edges(p), (g_x, g_y, delta)
        edges += len(fast)
    assert edges == 3128


def test_pair_compatible_iff_coupling_case():
    # the three coupling patterns behind the probe directions of
    # ``oracles.direction_probes`` and ``grassmann._pair_recipe_cochar``
    universe = range(4)
    sided = [
        (frozenset(I), tri)
        for size in range(1, 5)
        for I in combinations(universe, size)
        for tri in tripartitions(I)
    ]
    assert len(sided) == 255
    for I, ti in sided:
        for J, tj in sided:
            has_case = coupling_case(ti, tj, I, J) is not None
            assert pair_compatible(ti, tj, I, J) == has_case, (ti, tj)


def _pairwise_closure(config, s):
    """Oracle: every admissible tripartition pair of I and J, one key each."""
    need_compat = config.g_x > 0 and config.g_y > 0
    out = set()
    for ti in admissible(s.I, s.alpha, config.g_y):
        for tj in admissible(s.J, s.beta, config.g_x):
            if need_compat and not pair_compatible(ti, tj, s.I, s.J):
                continue
            out.add(
                make_key(config, drop_on(s.alpha, ti.last), ti.middle, drop_on(s.beta, tj.last), tj.middle)
            )
    return frozenset(out)


ORACLE_TRIPLES = [(g_x, g_y, d) for d in (2, 3) for g_x in range(5) for g_y in range(5)]
ORACLE_TRIPLES += [(0, 4, 4), (4, 0, 4), (1, 3, 4), (2, 2, 4)]


def test_closure_matches_pairwise_oracle():
    strata = 0
    for g_x, g_y, delta in ORACLE_TRIPLES:
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        for s in enumerate_strata(cfg):
            assert closure_of(cfg, s) == _pairwise_closure(cfg, s), (g_x, g_y, delta, s)
            strata += 1
    assert strata == 2218


def _trace(tri, shared):
    return Tripartition(tri.first & shared, tri.middle & shared, tri.last & shared)


def test_pair_compatible_reads_only_traces_on_shared_nodes():
    # closure_of tests whole groups of tripartition pairs through their
    # traces on I & J; this is the identity that makes that exact
    sided = [
        (frozenset(I), tri)
        for size in range(1, 4)
        for I in combinations(range(4), size)
        for tri in tripartitions(I)
    ]
    assert len(sided) == 174
    for I, ti in sided:
        for J, tj in sided:
            shared = I & J
            assert pair_compatible(ti, tj, I, J) == pair_compatible(
                _trace(ti, shared), _trace(tj, shared), shared, shared
            ), (ti, tj)


def _mask(part):
    return sum(1 << p for p in part)


def test_coupling_masks_match_pair_compatible():
    # closure_of decides a pair of trace groups by one integer test on the
    # bitmasks (first & S, last & S); play it on every pair of tripartitions
    # of S against the set implications and the three coupling patterns
    pairs = 0
    for n in range(6):
        shared = frozenset(range(n))
        tris = list(tripartitions(shared))
        traces = [(_mask(t.first), _mask(t.last)) for t in tris]
        for ti, x_trace in zip(tris, traces):
            for tj, y_trace in zip(tris, traces):
                groups = _coupled_groups(_mask(shared), [(x_trace, "x")], [(y_trace, "y")])
                coupled = list(groups) == [("x", "y")]
                assert coupled == pair_compatible(ti, tj, shared, shared), (ti, tj)
                assert coupled == (coupling_case(ti, tj, shared, shared) is not None), (ti, tj)
                pairs += 1
    assert pairs == 66430


def test_poset_cpu_guard():
    # one-sided closures are products of side-key sets; keying every
    # tripartition pair took about 1 s here
    cfg = CurveConfig(g_x=0, g_y=3, delta=5)
    found = enumerate_strata(cfg)
    start = time.process_time()
    build_poset(cfg, strata=found)
    assert time.process_time() - start < 0.3


def test_poset_cpu_guard_delta5():
    # both genera positive: the trace pairs are tested on bitmasks; building
    # a Tripartition per trace and testing it with pair_compatible took
    # about 0.45 s here
    cfg = CurveConfig(g_x=3, g_y=4, delta=5)
    found = enumerate_strata(cfg)
    start = time.process_time()
    build_poset(cfg, strata=found)
    assert time.process_time() - start < 0.35


def test_closure_members_are_the_posets_own_keys():
    # build_poset's closures hold its keys themselves, not equal copies;
    # standalone closure_of makes new keys and gives the same sets
    checked = 0
    for triple in SWEEP_GRID:
        cfg = CurveConfig(*triple)
        found = enumerate_strata(cfg)
        p = build_poset(cfg, strata=found)
        own = {id(k) for k in p.keys}
        for s in found:
            key = stratum_key(cfg, s)
            closure = p.closure[key]
            assert all(id(o) in own for o in closure), triple
            fresh = closure_of(cfg, s)
            assert fresh == closure, (triple, key)
            assert all(type(o) is StratumKey and id(o) not in own for o in fresh), triple
            checked += 1
    assert checked == 5004
