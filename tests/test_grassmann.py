"""Tests for the torus-orbit-closure engine on small Grassmannians."""

import random
from fractions import Fraction
from time import perf_counter

import pytest

from limitcanon import grassmann, linalg
from limitcanon import tripartitions as tripartitions_module
from limitcanon.grassmann import (
    Subspace,
    _closure_shapes,
    brute_force_closure_fingerprints,
    closure_orbit_set,
    in_closure,
    in_pair_closure,
    orbit_fingerprint,
    pair_brute_force_fingerprints,
    pair_closure_orbit_set,
    pluecker,
    tripartition_degenerate,
)
from limitcanon.tripartitions import Tripartition, tripartitions
from oracles import (
    OnePSG,
    degenerate_closure_orbit_set,
    degenerate_pair_closure_orbit_set,
    fraction_minors,
    limit_pluecker,
    psg_for_tripartition,
    satisfies_orbit_quadrics,
)


def rand_general_subspace(rng, n, h):
    """Random subspace with all Pluecker coordinates nonzero."""
    while True:
        basis = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(h)]
        try:
            V = Subspace(basis, ambient=n)
        except ValueError:
            continue
        if all(c != 0 for c in pluecker(V).coords):
            return V


def torus_scale(V, scalars):
    return Subspace([[s * x for s, x in zip(scalars, row)] for row in V.rows])


def test_pluecker_basics():
    assert pluecker(Subspace([[1, 0]])).coords == (Fraction(1), Fraction(0))
    assert pluecker(Subspace([[1, 1, 1]])).coords == (Fraction(1),) * 3


def test_pluecker_matches_fraction_elimination():
    # non-integral and negative entries; repeated and zero columns give zero minors
    rng = random.Random(808)
    zeros = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        h = rng.randint(1, min(n, 4))
        basis = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(h)
        ]
        if n > h and rng.random() < 0.5:
            a, b = rng.sample(range(n), 2)
            repeat = rng.random() < 0.5
            for row in basis:
                row[a] = row[b] if repeat else Fraction(0)
        try:
            V = Subspace(basis)
        except ValueError:
            continue
        minors = fraction_minors(V.rows, n)
        scale = next(m for m in minors if m != 0)
        assert pluecker(V).coords == tuple(m / scale for m in minors)
        zeros += minors.count(0)
    assert zeros > 0


def test_pluecker_three_term_relation():
    rng = random.Random(11)
    for _ in range(25):
        V = rand_general_subspace(rng, 4, 2)
        p = dict(zip(pluecker(V).subsets(), pluecker(V).coords))
        assert (
            p[(0, 1)] * p[(2, 3)] - p[(0, 2)] * p[(1, 3)] + p[(0, 3)] * p[(1, 2)]
            == 0
        )


def test_tripartition_degenerate_examples():
    V = Subspace([[1, 1, 1]])
    t = Tripartition(frozenset(), frozenset({0, 1, 2}), frozenset())
    assert tripartition_degenerate(V, t) == V
    t = Tripartition(frozenset(), frozenset({0}), frozenset({1, 2}))
    assert tripartition_degenerate(V, t) == Subspace([[1, 0, 0]])
    t = Tripartition(frozenset(), frozenset({0, 1}), frozenset({2}))
    assert tripartition_degenerate(V, t) == Subspace([[1, 1, 0]])


def test_limit_pluecker_examples():
    V = Subspace([[1, 1, 1]])
    ident = OnePSG((0, 0, 0), (Fraction(1),) * 3)
    assert limit_pluecker(V, ident) == pluecker(V)
    psg = OnePSG((0, 0, 1), (Fraction(1),) * 3)
    assert limit_pluecker(V, psg).coords == (Fraction(1), Fraction(1), Fraction(0))


def test_degeneration_consistency_randomized():
    rng = random.Random(606)
    for _ in range(30):
        n = rng.randint(2, 5)
        h = rng.randint(1, min(3, n))
        V = rand_general_subspace(rng, n, h)
        for tri in tripartitions(range(n)):
            if not (len(tri.first) < h <= n - len(tri.last)):
                continue
            limit = limit_pluecker(V, psg_for_tripartition(tri, n))
            direct = pluecker(tripartition_degenerate(V, tri))
            assert limit == direct


def test_closure_contains_the_open_orbit_in_every_dimension():
    rng = random.Random(909)
    for n in range(1, 7):
        for h in range(min(n, 4) + 1):
            V = rand_general_subspace(rng, n, h)
            assert orbit_fingerprint(pluecker(V)) in closure_orbit_set(V)
    # a point is fixed by the torus: its closure is its own orbit
    point = Subspace([], ambient=3)
    assert closure_orbit_set(point) == {orbit_fingerprint(pluecker(point))}


def test_closure_sets_match_the_degenerate_subspaces():
    rng = random.Random(4)
    for n in range(1, 7):
        for h in range(1, min(n, 4) + 1):
            V = rand_general_subspace(rng, n, h)
            expected = degenerate_closure_orbit_set(V)
            assert closure_orbit_set(V) == expected
            scal = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            assert closure_orbit_set(torus_scale(V, scal)) == expected


# the coupled cases of the benchmark's orbit workload: (I, J, dim V, dim W)
WORKLOAD_PAIR_CASES = (
    (("p", "q"), ("p", "q"), 1, 1),
    (("p", "q", "r"), ("q", "r"), 2, 1),
    (("p", "q", "r"), ("p", "q", "r"), 2, 2),
    (("p", "q"), ("q", "r"), 1, 2),
)


@pytest.mark.parametrize("a_t,b_t", [(1, 1), (1, 2), (2, 3)])
def test_pair_closure_sets_match_the_degenerate_subspaces(a_t, b_t):
    rng = random.Random(2000 + a_t * 10 + b_t)
    for I, J, h1, h2 in WORKLOAD_PAIR_CASES:
        V = rand_general_subspace(rng, len(I), h1)
        W = rand_general_subspace(rng, len(J), h2)
        expected = degenerate_pair_closure_orbit_set(V, W, a_t, b_t, I, J)
        assert pair_closure_orbit_set(V, W, a_t, b_t, I, J) == expected


def test_closure_orbit_set_examples():
    assert len(closure_orbit_set(Subspace([[1, 1, 1]]))) == 7
    full = Subspace([[1, 0], [0, 1]])
    assert len(closure_orbit_set(full)) == 1
    with pytest.raises(ValueError):
        closure_orbit_set(Subspace([[1, 0, 1]]))  # zero coordinate


def test_fingerprints_invariant_under_torus():
    rng = random.Random(515)
    V = rand_general_subspace(rng, 4, 2)
    scal = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4))
    assert closure_orbit_set(V) == closure_orbit_set(torus_scale(V, scal))


def test_closure_completeness_brute_force():
    rng = random.Random(717)
    for n, h in ((3, 1), (4, 2), (5, 2), (5, 3)):
        V = rand_general_subspace(rng, n, h)
        predicted = closure_orbit_set(V)
        sampled = brute_force_closure_fingerprints(V, bound=3)
        assert sampled <= predicted
        assert predicted <= sampled


def test_in_closure_examples():
    rng = random.Random(272)
    V = rand_general_subspace(rng, 4, 2)
    assert in_closure(V, V)
    for tri in tripartitions(range(4)):
        if len(tri.first) < 2 <= 4 - len(tri.last):
            W = tripartition_degenerate(V, tri)
            assert in_closure(W, V)
    # support pattern violating the interval condition
    W_bad = Subspace([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert not in_closure(W_bad, V)
    with pytest.raises(ValueError):
        in_closure(Subspace([[1, 0, 0]]), V)


def test_in_closure_agrees_with_brute_force():
    rng = random.Random(929)
    V = rand_general_subspace(rng, 4, 2)
    predicted = closure_orbit_set(V)
    agree = 0
    for _ in range(250):
        kind = rng.random()
        if kind < 0.4:
            tri = rng.choice(
                [
                    t
                    for t in tripartitions(range(4))
                    if len(t.first) < 2 <= 4 - len(t.last)
                ]
            )
            W = tripartition_degenerate(V, tri)
            scal = tuple(Fraction(rng.randint(1, 7)) for _ in range(4))
            W = torus_scale(W, scal)
        else:
            try:
                W = Subspace(
                    [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)]
                )
            except ValueError:
                continue
        direct = in_closure(W, V)
        via_fingerprint = orbit_fingerprint(pluecker(W)) in predicted
        assert direct == via_fingerprint
        agree += 1
    assert agree > 200


def test_orbit_points_satisfy_quadrics():
    rng = random.Random(123)
    V = rand_general_subspace(rng, 5, 2)
    ref = pluecker(V)
    for fp_tri in tripartitions(range(5)):
        if len(fp_tri.first) < 2 <= 5 - len(fp_tri.last):
            point = pluecker(tripartition_degenerate(V, fp_tri))
            assert satisfies_orbit_quadrics(point, ref)
    # a generic independent subspace generally fails them
    other = rand_general_subspace(rng, 5, 2)
    if pluecker(other) != ref:
        assert not satisfies_orbit_quadrics(pluecker(other), ref)


def _module_caches():
    """Size of every cache and container a module of the orbit layer holds."""
    sizes = {}
    for module in (grassmann, linalg, tripartitions_module):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                sizes[module.__name__, name] = value.cache_info().currsize
            elif isinstance(value, (dict, list, set)) and not name.startswith("__"):
                sizes[module.__name__, name] = len(value)
    return sizes


def test_orbit_fingerprints_keep_no_cache_per_support():
    # random subspaces have many distinct Pluecker supports; a cache keyed
    # by them would grow with the number of inputs
    rng = random.Random(29)
    for n in range(1, 7):
        for h in range(min(n, 4) + 1):
            _closure_shapes(n, h)
    before = _module_caches()
    shapes = _closure_shapes.cache_info().currsize
    seen = 0
    while seen < 500:
        n = rng.randint(2, 6)
        h = rng.randint(1, min(n, 4))
        rows = [[rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(n)] for _ in range(h)]
        try:
            W = Subspace(rows, ambient=n)
        except ValueError:
            continue
        pv = pluecker(W)
        if all(pv.coords):
            continue
        orbit_fingerprint(pv)
        seen += 1
    assert _closure_shapes.cache_info().currsize == shapes
    assert _module_caches() == before


def test_tripartition_is_a_checked_named_tuple():
    a, b = frozenset({0}), frozenset({1, 2})
    t = Tripartition(a, frozenset(), b)
    assert t == (a, frozenset(), b) and hash(t) == hash((a, frozenset(), b))
    assert t.ambient == frozenset({0, 1, 2})
    assert repr(t) == "Tripartition(first=frozenset({0}), middle=frozenset(), last=frozenset({1, 2}))"
    for parts in ((a, a, b), (a, b, a), (a, b, b)):
        with pytest.raises(ValueError):
            Tripartition(*parts)
        with pytest.raises(ValueError):
            Tripartition._make(parts)
    with pytest.raises(ValueError):
        t._replace(middle=a)
    assert t._replace(last=frozenset({1})) == (a, frozenset(), frozenset({1}))
    assert type(Tripartition._make((a, b, frozenset()))) is Tripartition


def test_tripartitions_are_generated_lazily():
    t0 = perf_counter()
    first = next(tripartitions(range(40)))
    assert perf_counter() - t0 < 0.5
    assert first == (frozenset(range(40)), frozenset(), frozenset())


def test_desk_scale_guard():
    big = Subspace([[1 if i == j else 2 for i in range(7)] for j in range(2)])
    with pytest.raises(ValueError):
        pluecker(big)


# -- paired orbits ----------------------------------------------------------


def coupled_scalars(rng, labels, shared, a_t, b_t):
    """(s, t) in the coupling torus: on shared labels take r^a_t and r^b_t."""
    s, t = {}, {}
    for l in labels[0]:
        if l in shared:
            r = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            s[l] = r ** a_t
            t[l] = r ** b_t
        else:
            s[l] = Fraction(rng.randint(1, 7))
    for l in labels[1]:
        if l not in t:
            t[l] = Fraction(rng.randint(1, 7))
    return s, t


def test_pair_torus_constraint_exactness():
    rng = random.Random(314)
    I, J = ("p", "q", "r"), ("q", "r", "s")
    shared = set(I) & set(J)
    for a_t, b_t in ((1, 1), (1, 2), (2, 3)):
        for _ in range(20):
            s, t = coupled_scalars(rng, (I, J), shared, a_t, b_t)
            for i in shared:
                for j in shared:
                    # membership in the lam = a_t, tau = b_t coupling torus
                    assert s[i] ** b_t * t[j] ** a_t == s[j] ** b_t * t[i] ** a_t
            for p in shared:
                assert s[p] ** b_t == t[p] ** a_t


def test_pair_trivial_and_disjoint():
    V, W = Subspace([[1, 1]]), Subspace([[1, 2]])
    fps = pair_closure_orbit_set(V, W, 1, 1, ("p", "q"), ("r", "s"))
    singles = closure_orbit_set(V), closure_orbit_set(W)
    assert len(fps) == len(singles[0]) * len(singles[1])
    assert in_pair_closure((V, W), (V, W), 1, 1, ("p", "q"), ("r", "s"))


@pytest.mark.parametrize("a_t,b_t", [(1, 1), (1, 2), (2, 3)])
def test_pair_brute_force_protocol(a_t, b_t):
    rng = random.Random(1000 + a_t * 10 + b_t)
    cases = [
        (("p", "q"), ("p", "q"), 1, 1),
        (("p", "q", "r"), ("q", "r"), 1, 1),
        (("p", "q", "r"), ("p", "q", "r"), 2, 2),
        (("p", "q"), ("q", "r"), 1, 1),
        # a point factor: the product of its orbit with W's closure
        (("p", "q", "r"), ("q", "r"), 0, 1),
        (("p", "q"), ("p", "q", "r"), 2, 0),
    ]
    for I, J, h1, h2 in cases:
        V = rand_general_subspace(rng, len(I), h1)
        W = rand_general_subspace(rng, len(J), h2)
        predicted = pair_closure_orbit_set(V, W, a_t, b_t, I, J)
        sampled = pair_brute_force_fingerprints(V, W, a_t, b_t, I, J)
        assert sampled <= predicted
        assert predicted <= sampled


def test_in_pair_closure_membership():
    rng = random.Random(77)
    I = J = ("p", "q", "r")
    V = rand_general_subspace(rng, 3, 1)
    W = rand_general_subspace(rng, 3, 1)
    a_t, b_t = 1, 2
    # torus translates stay inside
    s, t = coupled_scalars(rng, (I, J), set(I), a_t, b_t)
    Vs = torus_scale(V, tuple(s[l] for l in I))
    Wt = torus_scale(W, tuple(t[l] for l in J))
    assert in_pair_closure((Vs, Wt), (V, W), a_t, b_t, I, J)
    # an incompatible support pair is rejected
    e0 = Subspace([[1, 0, 0]])
    e2 = Subspace([[0, 0, 1]])
    direct = in_pair_closure((e0, e2), (V, W), a_t, b_t, I, J)
    fps = pair_closure_orbit_set(V, W, a_t, b_t, I, J)
    from limitcanon.grassmann import _pair_fingerprint_from, _pair_spaces

    Ii, Jj, shared, pos_i, pos_j = _pair_spaces(I, J)
    fp = _pair_fingerprint_from(
        pluecker(e0), pluecker(e2), a_t, b_t, Ii, Jj, shared, pos_i, pos_j
    )
    assert direct == (fp in fps)


def test_pair_fingerprint_torus_soundness():
    rng = random.Random(616)
    I = J = ("p", "q", "r")
    a_t, b_t = 1, 2
    V = rand_general_subspace(rng, 3, 1)
    W = rand_general_subspace(rng, 3, 1)
    from limitcanon.grassmann import _pair_fingerprint_from, _pair_spaces

    Ii, Jj, shared, pos_i, pos_j = _pair_spaces(I, J)

    def fp(A, B):
        return _pair_fingerprint_from(
            pluecker(A), pluecker(B), a_t, b_t, Ii, Jj, shared, pos_i, pos_j
        )

    base = fp(V, W)
    # a coupled torus translate leaves the fingerprint unchanged
    s, t = coupled_scalars(rng, (I, J), set(I), a_t, b_t)
    same = fp(
        torus_scale(V, tuple(s[l] for l in I)),
        torus_scale(W, tuple(t[l] for l in J)),
    )
    assert same == base
    # scaling only one factor breaks the coupling and the fingerprint
    skew = fp(torus_scale(V, (Fraction(5), Fraction(1), Fraction(1))), W)
    assert skew != base


def test_recipe_cochars_satisfy_coupling_identity():
    rng = random.Random(40)
    I, J = ("p", "q", "r"), ("q", "r", "s")
    a_t, b_t = 2, 3
    V = rand_general_subspace(rng, 3, 2)
    W = rand_general_subspace(rng, 3, 1)
    from limitcanon.grassmann import _pair_recipe_cochar

    shared = set(I) & set(J)
    for ti in tripartitions(range(3)):
        if not (len(ti.first) < 2 <= 3 - len(ti.last)):
            continue
        for tj in tripartitions(range(3)):
            if not (len(tj.first) < 1 <= 3 - len(tj.last)):
                continue
            sv = pluecker(tripartition_degenerate(V, ti)).support()
            sw = pluecker(tripartition_degenerate(W, tj)).support()
            try:
                u, v = _pair_recipe_cochar(sv, sw, a_t, b_t, I, J, 3, 3)
            except AssertionError:
                continue  # support pair outside the compatible cases
            upos = dict(zip(I, u))
            vpos = dict(zip(J, v))
            for i in shared:
                for j in shared:
                    assert b_t * (upos[i] - upos[j]) == a_t * (vpos[i] - vpos[j])


def test_in_pair_closure_agrees_with_fingerprints():
    rng = random.Random(2024)
    I, J = ("p", "q", "r"), ("q", "r", "s")
    a_t, b_t = 1, 2
    V = rand_general_subspace(rng, 3, 2)
    W = rand_general_subspace(rng, 3, 1)
    predicted = pair_closure_orbit_set(V, W, a_t, b_t, I, J)
    from limitcanon.grassmann import _pair_fingerprint_from, _pair_spaces

    Ii, Jj, shared, pos_i, pos_j = _pair_spaces(I, J)
    checked = 0
    for _ in range(120):
        try:
            Wa = Subspace([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(2)])
            Wb = Subspace([[Fraction(rng.randint(-3, 3)) for _ in range(3)]])
        except ValueError:
            continue
        direct = in_pair_closure((Wa, Wb), (V, W), a_t, b_t, I, J)
        fp = _pair_fingerprint_from(
            pluecker(Wa), pluecker(Wb), a_t, b_t, Ii, Jj, shared, pos_i, pos_j
        )
        assert direct == (fp in predicted)
        checked += 1
    assert checked > 80
