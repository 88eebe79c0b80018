"""Tests for stratum classification, realizability, enumeration, regions."""

import os
import random
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from conftest import SWEEP_GRID, level_verdicts, rand_config_triple, rand_mu
from fm import joint_witness
import limitcanon
from limitcanon import strata
from limitcanon.model import CurveConfig
from limitcanon.numdata import _breakpoint
from limitcanon.poset import build_poset, closure_of
from limitcanon.strata import (
    CapExceeded,
    StratumKey,
    _node_interval,
    _search,
    _witness,
    enumerate_strata,
    make_key,
    realizable,
    region,
    stratum_dim,
    stratum_key,
    stratum_of,
)
from oracles import brute_side, fraction_enumeration, fraction_witness, region_satisfies


def test_stratum_of_zero_genera():
    cfg = CurveConfig(g_x=0, g_y=0, delta=3)
    s = stratum_of(cfg, (1, 5, Fraction(2, 7)))
    assert s.alpha == (0, 0, 0) and s.beta == (0, 0, 0)
    assert s.I == s.J == frozenset(range(3))
    assert s.alpha_tilde is None and s.beta_tilde is None


def test_stratum_of_balanced_weights():
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    s = stratum_of(cfg, (1, 1))
    assert s.alpha == (2, 2) and s.beta == (1, 1)
    assert s.I == s.J == frozenset({0, 1})
    assert (s.alpha_tilde, s.beta_tilde) == (2, 1)


@pytest.mark.parametrize("g_y", [2, 3, 5])
def test_stratum_of_saturated_alpha(g_y):
    cfg = CurveConfig(g_x=1, g_y=g_y, delta=2)
    s = stratum_of(cfg, (1, g_y))
    assert sum(s.alpha) == g_y + 1


def test_stratum_dim_cases():
    cfg = CurveConfig(g_x=2, g_y=4, delta=3)
    for s in enumerate_strata(cfg):
        dims = stratum_dim(cfg, s)
        big_a, big_b = s.alpha_total > cfg.g_y, s.beta_total > cfg.g_x
        if not big_a and not big_b:
            assert dims["dim"] == 0
        if big_a and big_b and s.I & s.J:
            assert dims["dim"] == len(s.I | s.J) - 1
        assert dims["dim_X"] == (len(s.I) - 1 if big_a else 0)
        assert dims["dim_Y"] == (len(s.J) - 1 if big_b else 0)


def test_realizable_trivial():
    cfg = CurveConfig(g_x=0, g_y=0, delta=2)
    w = realizable(cfg, (0, 0), {0, 1}, (0, 0), {0, 1})
    assert w == (Fraction(1), Fraction(1))


def test_realizable_pins_ratio():
    cfg = CurveConfig(g_x=0, g_y=4, delta=2)
    w = realizable(cfg, (4, 1), {0, 1}, (0, 0), {0, 1})
    assert w is not None
    assert 4 * w[0] == 1 * w[1]
    assert w[1] == 1  # normalized at the last label


def test_realizable_joint_infeasible():
    # full loci on both sides force incompatible ratios 4 and 2
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    assert realizable(cfg, (4, 1), {0, 1}, (2, 1), {0, 1}) is None


def test_realizable_rejects_malformed():
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    with pytest.raises(ValueError):
        realizable(cfg, (4, 1), set(), (1, 1), {0, 1})
    with pytest.raises(ValueError):
        realizable(cfg, (5, 1), {0}, (1, 1), {0, 1})  # entry above g_Y
    with pytest.raises(ValueError):
        realizable(cfg, (4, 0), {0, 1}, (1, 1), {0, 1})  # zero on I
    with pytest.raises(ValueError):
        realizable(cfg, (2, 2, 0), {0, 1}, (1, 1), {0, 1})  # wrong length


def test_realizable_rejects_non_integer_weights():
    # a fractional or string weight is malformed, not truncated to an integer
    cfg = CurveConfig(g_x=2, g_y=4, delta=3)
    assert realizable(cfg, (0, 2, 2), {2}, (0, 1, 1), {2}) is not None
    with pytest.raises(ValueError, match="entries must be integers"):
        realizable(cfg, (0, 2.5, 2.5), {2}, (0, 1, 1), {2})
    with pytest.raises(ValueError, match="entries must be integers"):
        realizable(cfg, (0, 2, 2), {2}, ("0", "1", "1"), {2})
    with pytest.raises(ValueError, match="entries must be integers"):
        realizable(cfg, ("0", "2", "2"), {2}, (0, 1, 1), {2})


def _random_side(rng, genus, delta):
    """Random well-formed (weights, locus) for one focus, or None."""
    if genus == 0:
        return (0,) * delta, frozenset(range(delta))
    weights = tuple(rng.randint(0, genus) for _ in range(delta))
    support = [p for p in range(delta) if weights[p] > 0]
    if not support:
        return None
    locus = frozenset(rng.sample(support, rng.randint(1, len(support))))
    if not (genus <= sum(weights) < genus + len(locus)):
        return None
    return weights, locus


def test_realizable_matches_fm_oracle():
    rng = random.Random(808)
    outcomes = {}
    for _ in range(6000):
        g_x, g_y, delta = rand_config_triple(rng, max_delta=4, max_genus=3)
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        side_x, side_y = _random_side(rng, g_y, delta), _random_side(rng, g_x, delta)
        if side_x is None or side_y is None:
            continue
        (alpha, I), (beta, J) = side_x, side_y
        fast = realizable(cfg, alpha, I, beta, J) is not None
        slow = joint_witness(delta, alpha, I, beta, J) is not None
        assert fast == slow, (cfg, alpha, I, beta, J)
        kind = "both" if g_x * g_y else "one-sided" if g_x + g_y else "zero"
        outcomes[kind, fast] = outcomes.get((kind, fast), 0) + 1
    assert outcomes["both", True] > 150 and outcomes["both", False] > 150
    assert outcomes["one-sided", True] > 150
    assert ("one-sided", False) not in outcomes


def test_enumerate_zero_genera_single_stratum():
    for delta in (2, 3, 4):
        cfg = CurveConfig(g_x=0, g_y=0, delta=delta)
        assert len(enumerate_strata(cfg)) == 1


def test_enumerate_counts_against_closed_forms():
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    found = enumerate_strata(cfg)
    dims = [stratum_dim(cfg, s)["dim"] for s in found]
    assert dims.count(1) == 2 + 4 - gcd(3, 5) + 1 == 6
    assert dims.count(0) == 7


def test_partition_and_scaling():
    rng = random.Random(314)
    grid = ((2, 4, 3), (3, 3, 2), (0, 3, 3), (1, 2, 2), (1, 2, 4))
    for g_x, g_y, delta in grid:
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        keys = {stratum_key(cfg, s) for s in enumerate_strata(cfg)}
        for _ in range(250 if delta < 4 else 150):
            mu = rand_mu(rng, delta, top=40)
            key = stratum_key(cfg, stratum_of(cfg, mu))
            assert key in keys
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert stratum_key(cfg, stratum_of(cfg, tuple(t * m for m in mu))) == key


def test_key_soundness():
    rng = random.Random(22)
    cfg = CurveConfig(g_x=2, g_y=3, delta=3)
    samples = [rand_mu(rng, 3, top=25) for _ in range(250)]
    data = [stratum_of(cfg, mu) for mu in samples]
    for i in range(0, len(data), 5):
        for j in range(i, min(i + 5, len(data))):
            a, b = data[i], data[j]
            same_key = stratum_key(cfg, a) == stratum_key(cfg, b)
            criteria = (
                a.alpha == b.alpha
                and (a.I == b.I or a.alpha_total == cfg.g_y)
                and a.beta == b.beta
                and (a.J == b.J or a.beta_total == cfg.g_x)
            )
            assert same_key == criteria


def test_key_is_the_named_four_tuple():
    # keys from make_key, stratum_key and closure_of hash and compare as the
    # plain tuple (alpha, beta, I, J), read by name and refuse assignment
    assert limitcanon.StratumKey is StratumKey
    assert StratumKey._fields == ("alpha", "beta", "I", "J")
    cfg = CurveConfig(g_x=2, g_y=3, delta=3)
    found = enumerate_strata(cfg)
    keys = [make_key(cfg, s.alpha, s.I, s.beta, s.J) for s in found]
    keys += [stratum_key(cfg, s) for s in found]
    keys += [k for s in found for k in closure_of(cfg, s)]
    assert any(k.I is None for k in keys) and any(k.J is None for k in keys)
    for key in keys:
        assert type(key) is StratumKey
        plain = (key.alpha, key.beta, key.I, key.J)
        assert key == plain and tuple(key) == plain and hash(key) == hash(plain)
        for name in StratumKey._fields:
            with pytest.raises(AttributeError):
                setattr(key, name, None)
    key = make_key(cfg, (2, 1, 1), {0, 2}, (1, 1, 0), {0, 1})
    assert repr(key) == "StratumKey(alpha=(2, 1, 1), beta=(1, 1, 0), I=frozenset({0, 2}), J=None)"
    # outputs keep the sort_token order
    listed = [stratum_key(cfg, s) for s in found]
    assert listed == sorted(listed, key=StratumKey.sort_token)
    assert list(build_poset(cfg, strata=found).keys) == listed


def test_convexity_of_regions():
    rng = random.Random(5555)
    cfg = CurveConfig(g_x=2, g_y=4, delta=3)
    found = enumerate_strata(cfg)
    samples = [rand_mu(rng, 3, top=30) for _ in range(300)]
    by_key = {}
    for mu in samples:
        by_key.setdefault(stratum_key(cfg, stratum_of(cfg, mu)), []).append(mu)
    tested = 0
    for key, mus in by_key.items():
        if len(mus) < 2:
            continue
        mu1, mu2 = mus[0], mus[1]
        for _ in range(5):
            t = Fraction(rng.randint(0, 8), 8)
            mid = tuple(t * a + (1 - t) * b for a, b in zip(mu1, mu2))
            assert stratum_key(cfg, stratum_of(cfg, mid)) == key
            tested += 1
    assert tested >= 20


def test_tilde_consistency_on_overlap():
    rng = random.Random(888)
    for _ in range(200):
        g_x, g_y = rng.randint(1, 4), rng.randint(1, 4)
        delta = rng.randint(1, 4)
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        s = stratum_of(cfg, rand_mu(rng, delta, top=20))
        assert gcd(s.alpha_tilde, s.beta_tilde) == 1
        for p in s.I & s.J:
            d = gcd(s.alpha[p], s.beta[p])
            assert s.alpha_tilde == s.alpha[p] // d
            assert s.beta_tilde == s.beta[p] // d


def test_region_self_consistency_and_separation():
    rng = random.Random(9090)
    cfg = CurveConfig(g_x=2, g_y=4, delta=2)
    found = enumerate_strata(cfg)
    regions = {stratum_key(cfg, s): region(cfg, s) for s in found}
    for s in found:
        assert region_satisfies(regions[stratum_key(cfg, s)], s.witness_mu)
    # sampled points lie in exactly the region of their own key
    for _ in range(300):
        mu = rand_mu(rng, 2, top=30)
        key = stratum_key(cfg, stratum_of(cfg, mu))
        hits = [k for k, r in regions.items() if region_satisfies(r, mu)]
        assert hits == [key]


def test_enumerate_witnesses_reproduce_fields():
    cfg = CurveConfig(g_x=1, g_y=3, delta=3)
    for s in enumerate_strata(cfg):
        again = stratum_of(cfg, s.witness_mu)
        assert again == s


@pytest.mark.parametrize(
    "triple, cap",
    [((2, 4, 3), 10), ((12, 12, 5), 1), ((20, 20, 8), 10)],
    ids=["2-4-3-cap10", "12-12-5-cap1", "20-20-8-cap10"],
)
def test_cap_guard(triple, cap):
    # the cap bounds the work: large configs stop as soon as it is passed
    start = time.process_time()
    with pytest.raises(CapExceeded):
        enumerate_strata(CurveConfig(*triple), cap=cap)
    assert time.process_time() - start < 0.25


ORACLE_CONFIGS = [(g_x, g_y, d) for d in (2, 3) for g_x in range(4) for g_y in range(4)]
ORACLE_CONFIGS += [(1, 1, 4), (1, 2, 4)]


def test_search_matches_brute_force_fm_oracle():
    # the search yields exactly the well-formed candidates that Fourier-Motzkin
    # finds realizable, each once, with a ratio whose witness classifies back
    for g_x, g_y, delta in ORACLE_CONFIGS:
        cfg = CurveConfig(g_x=g_x, g_y=g_y, delta=delta)
        expected = {
            (alpha, I, beta, J)
            for (alpha, I), (beta, J) in product(brute_side(g_y, delta), brute_side(g_x, delta))
            if joint_witness(delta, alpha, I, beta, J) is not None
        }
        found = list(_search(cfg))
        assert len({f[:4] for f in found}) == len(found), cfg
        assert {f[:4] for f in found} == expected, cfg
        for alpha, I, beta, J, r in found:
            s = stratum_of(cfg, _witness(cfg, alpha, I, beta, J, r)[0])
            assert (s.alpha, s.I, s.beta, s.J) == (alpha, I, beta, J)


@pytest.mark.parametrize("triple", [(2, 4, 3), (0, 5, 4), (4, 0, 4), (3, 5, 4), (4, 5, 5)])
def test_search_yields_in_option_order(triple):
    # depth-first, node by node: the focus-X option (w_p, p in I) outside and
    # the focus-Y option (w_p, p in J) inside, each in increasing (w, on);
    # with the brute-force test above this pins the sequence _search yields
    def order(found):
        alpha, I, beta, J, _ = found
        return tuple(((a, p in I), (b, p in J)) for p, (a, b) in enumerate(zip(alpha, beta)))

    keys = [order(found) for found in _search(CurveConfig(*triple))]
    assert keys and all(x < y for x, y in zip(keys, keys[1:]))


def _perturbations(cfg, mu, candidate, levels):
    """mu with one node moved to, just inside or just across an end of an interval.

    On a side with positive genus a node's ends are level/(w_p+1) and
    level/w_p: a node on its locus sits at the upper end and moves off it;
    a node off its locus moves inside its node interval, onto a locus at an
    end, or across the end.
    """
    alpha, _, beta, _ = candidate
    both = ((cfg.g_y, levels[0], alpha), (cfg.g_x, levels[1], beta))
    sides = [(level, w) for genus, level, w in both if genus]
    for p in range(cfg.delta):
        for level, w in sides:
            for end in _node_interval(level, w[p]):
                if end is None:
                    continue
                for value in (end * Fraction(63, 64), end, end * Fraction(65, 64)):
                    if value != mu[p]:
                        yield mu[:p] + [value] + mu[p + 1 :]


PERTURB_CONFIGS = [(2, 4, 2), (3, 3, 2), (0, 4, 2), (2, 4, 3), (1, 3, 3), (3, 0, 3), (1, 2, 4), (2, 0, 4)]


def test_level_check_agrees_with_stratum_of_on_perturbed_witnesses():
    tally = {}
    for triple in PERTURB_CONFIGS:
        cfg = CurveConfig(*triple)
        for alpha, I, beta, J, r in _search(cfg):
            candidate = (alpha, I, beta, J)
            mu, levels = _witness(cfg, *candidate, r)
            assert level_verdicts(cfg, mu, candidate, levels) == (True, True), (triple, candidate)
            for moved in _perturbations(cfg, mu, candidate, levels):
                fast, slow = level_verdicts(cfg, moved, candidate, levels)
                assert fast == slow, (triple, candidate, moved)
                tally[fast] = tally.get(fast, 0) + 1
    assert tally[True] > 500 and tally[False] > 2000, tally


@pytest.mark.parametrize("triple", [(2, 4, 3), (3, 5, 4), (4, 0, 4)])
def test_enumerate_classifies_only_the_kept_representatives(monkeypatch, triple):
    # the classify-back takes the two breakpoints of each returned stratum's
    # integer witness, at g_Y then g_X, and of no other candidate's
    seen = []

    def counting(m, upsilon):
        seen.append((tuple(Fraction(mp, m[-1]) for mp in m), upsilon))
        return _breakpoint(m, upsilon)

    monkeypatch.setattr(strata, "_breakpoint", counting)
    cfg = CurveConfig(*triple)
    found = enumerate_strata(cfg)
    assert seen == [(s.witness_mu, g) for s in found for g in (cfg.g_y, cfg.g_x)]


def test_integer_witness_matches_the_fraction_oracle():
    # every candidate's integer witness, normalized, is the witness built in Fractions
    checked = 0
    for triple in SWEEP_GRID + [(4, 4, 4), (3, 5, 4), (3, 4, 5)]:
        cfg = CurveConfig(*triple)
        for alpha, I, beta, J, r in _search(cfg):
            m, _ = _witness(cfg, alpha, I, beta, J, r)
            normalized = tuple(Fraction(mp, m[-1]) for mp in m)
            assert normalized == fraction_witness(cfg, alpha, I, beta, J), (triple, alpha, I, beta, J)
            checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("grid", [SWEEP_GRID, [(4, 4, 4), (3, 5, 4)]], ids=["sweep", "pipeline"])
def test_enumerate_matches_the_fraction_oracle_enumeration(grid):
    # the cross-product dedup keeps the same representative as comparing Fraction tuples
    for triple in grid:
        cfg = CurveConfig(*triple)
        got = enumerate_strata(cfg)
        want = fraction_enumeration(cfg, [found[:4] for found in _search(cfg)])
        assert len(got) == len(want), triple
        for s, t in zip(got, want):
            # the oracle stores every public value, rho, sigma, gamma and epsilon included
            for f in fields(t):
                assert getattr(s, f.name) == getattr(t, f.name), (triple, f.name)
            assert repr(s) == repr(t)
            assert hash(s) == hash(t)


@pytest.mark.parametrize("triple", [(2, 4, 3), (3, 5, 4), (0, 5, 4), (3, 4, 5)])
def test_strata_of_one_call_share_their_loci(triple):
    # one frozenset per distinct locus per call: at most 2^delta objects,
    # shared by the strata, their keys and the poset's keys
    cfg = CurveConfig(*triple)
    found = enumerate_strata(cfg)
    loci = {id(x): x for s in found for x in (s.I, s.J)}
    assert len(loci) <= 2 ** cfg.delta
    assert len(loci) == len(set(loci.values()))
    for key in build_poset(cfg, strata=found).keys:
        assert all(x is None or id(x) in loci for x in (key.I, key.J))


# run in a new interpreter: a cache that fills up in earlier tests of the
# session would no longer grow here
_STATE_SCRIPT = """
from limitcanon import poset, strata
from limitcanon.model import CurveConfig

def size(value, depth=2):
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, set, frozenset, tuple)):
        info = getattr(value, "cache_info", None)
        return info().currsize if info else 0
    return len(value) + (sum(size(v, depth - 1) for v in value) if depth else 0)

def sizes():
    return {(m.__name__, k): size(v) for m in (strata, poset) for k, v in vars(m).items()}

before = sizes()
for triple in [(2, 4, 3), (3, 5, 4), (0, 4, 4), (3, 4, 5)]:
    cfg = CurveConfig(*triple)
    poset.build_poset(cfg, strata=strata.enumerate_strata(cfg))
after = sizes()
print(sorted(k for k in before if before[k] != after[k]))
"""


def test_no_state_outlives_a_call():
    # no module-level container or cache of strata or poset grows
    src = str(Path(strata.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _STATE_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    # the search stays lazy: a cap is met long before the search is done
    start = time.process_time()
    with pytest.raises(CapExceeded):
        enumerate_strata(CurveConfig(4, 5, 6), cap=10)
    assert time.process_time() - start < 0.1


def _loop_seconds():
    """Process time of a fixed loop over small frozensets and a dict, the
    kind of work enumeration does; about 0.047 s on a 2-vCPU VM."""
    start = time.process_time()
    seen = {}
    for i in range(100_000):
        key = frozenset((i % 97, i % 13))
        seen[key] = seen.get(key, 0) + i // 7
    return time.process_time() - start


def test_enumerate_cpu_guard_delta5():
    # both genera positive at delta 5.  On a 2-vCPU VM this took 0.17 s,
    # and 0.28-0.35 s with a window test per option at every node and a
    # new frozenset per leaf.  The VM's speed swings by up to 1.8x for
    # minutes at a time, so the bound, 0.3 s at that VM's quiet speed,
    # scales with the slower of the two loops timed around the
    # enumeration; a fixed 0.25 s bound failed 3 of 8 runs there.
    cfg = CurveConfig(4, 5, 5)
    before = _loop_seconds()
    start = time.process_time()
    found = enumerate_strata(cfg)
    spent = time.process_time() - start
    slowdown = max(before, _loop_seconds()) / 0.047
    assert len(found) == 3351
    assert spent < 0.3 * slowdown
