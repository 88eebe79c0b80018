"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line on success (run with -s or read the
captured output); failures surface as ordinary assertion errors.
"""

import random
import time
from fractions import Fraction
from math import gcd

from limitcanon.grassmann import (
    Subspace,
    brute_force_closure_fingerprints,
    closure_orbit_set,
    in_closure,
    orbit_fingerprint,
    pair_brute_force_fingerprints,
    pair_closure_orbit_set,
    pluecker,
    tripartition_degenerate,
)
from limitcanon.model import (
    CurveConfig,
    X,
    Y,
    build_model,
    chain_component,
    multidegree_of_twisted_dualizing,
    twist_divisor_focus_X,
)
from limitcanon.numdata import associated_data, verify_conditions
from limitcanon.poset import build_poset, components, count_formulas
from limitcanon.strata import enumerate_strata
from limitcanon.tripartitions import tripartitions
from limitcanon.weier import weierstrass_degrees
from oracles import base_change_terms, neighborhood_sample_check, scan_oracle


def _report(num, name, elapsed, limit=None):
    budget = "" if limit is None else f" (limit {limit}s)"
    print(f"ACCEPTANCE {num} [{name}]: PASS in {elapsed:.2f}s{budget}")


def test_criterion_01_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(10_000):
        delta = rng.randint(1, 6)
        mu = tuple(rng.randint(1, 50) for _ in range(delta))
        upsilon = rng.randint(-30, 50)
        fast = associated_data(mu, upsilon)
        assert fast == scan_oracle(mu, upsilon)
        assert verify_conditions(mu, upsilon, fast)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "numerical-data oracle equivalence", elapsed, 5)


def test_criterion_02_delta2_closed_form():
    start = time.perf_counter()
    for g_x in range(0, 9):
        for g_y in range(g_x, 9):
            cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=2)
            count = components(cfg)["count"]
            if (g_x, g_y) == (0, 0):
                # the variety degenerates to a single point; the marked-point
                # formula needs at least one positive genus
                assert count == 1
            else:
                assert count == g_x + g_y - gcd(g_x + 1, g_y + 1) + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "delta=2 component closed form", elapsed, 10)


def test_criterion_03_delta3_counts():
    start = time.perf_counter()
    cfg33 = CurveConfig(g_x=3, g_y=3, delta=3)
    assert components(cfg33)["count"] == 9
    cfg24 = CurveConfig(g_x=2, g_y=4, delta=3)
    assert components(cfg24)["count"] == 25
    assert count_formulas(cfg24)["lower_bound"] == 19
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, "delta=3 component counts 9/25, bound 19", elapsed, 60)


def test_criterion_04_equal_or_onesided_counts():
    from limitcanon.poset import n_delta

    start = time.perf_counter()
    for delta in (2, 3):
        seen = set()
        for g_x, g_y in [(0, k) for k in range(7)] + [(k, 0) for k in range(7)] + [
            (k, k) for k in range(7)
        ]:
            if (g_x, g_y) in seen:
                continue
            seen.add((g_x, g_y))
            cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
            expected = 1 if (g_x, g_y) == (0, 0) else n_delta(max(g_x, g_y), delta)
            assert components(cfg)["count"] == expected, (g_x, g_y, delta)
    elapsed = time.perf_counter() - start
    _report(4, "component count n_delta(max) when one-sided or equal", elapsed)


def test_criterion_05_pure_dimension():
    start = time.perf_counter()
    for delta in (2, 3):
        for g_x in range(0, 6):
            for g_y in range(g_x, 6):
                if g_x == g_y == 0:
                    continue
                cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
                poset = build_poset(cfg)
                maximal = set(poset.maximal())
                assert all(poset.dims[k] == delta - 1 for k in maximal)
                for k in poset.keys:
                    assert any(k in poset.closure[m] for m in maximal)
    elapsed = time.perf_counter() - start
    _report(5, "pure dimension delta-1", elapsed)


def test_criterion_06_multidegree_pattern():
    rng = random.Random(606)
    start = time.perf_counter()
    for _ in range(1000):
        delta = rng.randint(1, 4)
        g_x, g_y = rng.randint(0, 4), rng.randint(0, 4)
        if delta == 1 and g_x * g_y == 0:
            continue
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        mu = tuple(rng.randint(1, 6) for _ in range(delta))
        model = build_model(cfg, mu)
        data = associated_data(mu, g_y)
        deg = multidegree_of_twisted_dualizing(
            model, cfg, twist_divisor_focus_X(model, data)
        )
        for p, w in enumerate(mu):
            for i in range(1, w):
                expected = 1 if (p not in data.I and i == int(data.rho[p])) else 0
                assert deg.degree(chain_component(p, i)) == expected
        a_total = sum(data.alpha)
        assert deg.degree(X) == 2 * g_x - 2 + delta + a_total
        assert deg.degree(Y) == 2 * g_y - 2 + len(data.I) - a_total
        assert deg.total == 2 * cfg.genus - 2
    elapsed = time.perf_counter() - start
    _report(6, "twisted multidegree 0/1 chain pattern", elapsed)


def test_criterion_07_weierstrass_conservation():
    start = time.perf_counter()
    for delta in (1, 2, 3):
        for g_x in range(0, 9):
            for g_y in range(g_x, 9):
                g = g_x + g_y + delta - 1
                if g > 8 or g < 1 or (delta == 1 and g_x * g_y == 0):
                    continue
                cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
                for s in enumerate_strata(cfg):
                    degs = weierstrass_degrees(cfg, s)
                    assert degs.stratum_form.total == g ** 3 - g
                    assert degs.normalized.total == g ** 3 - g
                    shifts = base_change_terms(cfg, s)
                    for c1, c2, d in zip(
                        degs.stratum_form.node_coeffs,
                        degs.normalized.node_coeffs,
                        shifts,
                    ):
                        assert c1 - d == c2
    elapsed = time.perf_counter() - start
    _report(7, "Weierstrass total g^3-g and form equivalence", elapsed)


def _general_subspace(rng, n, h):
    while True:
        try:
            V = Subspace(
                [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(h)]
            )
        except ValueError:
            continue
        if all(c != 0 for c in pluecker(V).coords):
            return V


def test_criterion_08_single_orbit_closure():
    rng = random.Random(808)
    start = time.perf_counter()
    for n, h in ((3, 1), (4, 2), (5, 2), (5, 3)):
        V = _general_subspace(rng, n, h)
        predicted = closure_orbit_set(V)
        sampled = brute_force_closure_fingerprints(V, bound=3)
        assert sampled <= predicted
        assert predicted <= sampled
    # 500 membership queries against the fingerprint oracle
    V = _general_subspace(rng, 4, 2)
    predicted = closure_orbit_set(V)
    qualifying = [
        t for t in tripartitions(range(4)) if len(t.first) < 2 <= 4 - len(t.last)
    ]
    queries = 0
    while queries < 500:
        if rng.random() < 0.4:
            W = tripartition_degenerate(V, rng.choice(qualifying))
            scal = [Fraction(rng.randint(1, 9)) for _ in range(4)]
            W = Subspace([[s * x for s, x in zip(scal, row)] for row in W.rows])
        else:
            try:
                W = Subspace(
                    [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(2)]
                )
            except ValueError:
                continue
        assert in_closure(W, V) == (orbit_fingerprint(pluecker(W)) in predicted)
        queries += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(8, "single-orbit closure vs brute force", elapsed, 120)


def test_criterion_09_pair_orbit_closure():
    rng = random.Random(909)
    start = time.perf_counter()
    cases = [
        (("p", "q"), ("p", "q"), 1, 1),
        (("p", "q", "r"), ("q", "r"), 2, 1),
        (("p", "q", "r"), ("p", "q", "r"), 2, 2),
        (("p", "q"), ("q", "r"), 1, 2),
    ]
    for lam, tau in ((1, 1), (1, 2), (2, 3)):
        for I, J, h1, h2 in cases:
            V = _general_subspace(rng, len(I), h1)
            W = _general_subspace(rng, len(J), h2)
            predicted = pair_closure_orbit_set(V, W, lam, tau, I, J)
            sampled = pair_brute_force_fingerprints(V, W, lam, tau, I, J)
            assert sampled <= predicted
            assert predicted <= sampled
    elapsed = time.perf_counter() - start
    _report(9, "pair-orbit closure vs brute force", elapsed)


def test_criterion_10_neighborhood_sampling():
    start = time.perf_counter()
    for g_x, g_y in ((3, 3), (2, 4)):
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=3)
        for index, s in enumerate(enumerate_strata(cfg)):
            report = neighborhood_sample_check(cfg, s, samples=200, seed=index)
            assert report["ok"], (g_x, g_y, s.alpha, report["violations"][:2])
    elapsed = time.perf_counter() - start
    _report(10, "closure sampling with zero violations", elapsed)
