"""The four benchmark workloads and their correctness gates.

Each workload makes its inputs from the seed, one round at a time: a round
is the workload's whole input set, and round ``r`` is the same for the same
seed.  ``run_op`` performs one operation the way a user of the library
would, opening a span around each call into a library module; ``check``
verifies a finished round outside the timed section and returns one failure
message per failed operation.  ``probe`` runs only in the traced run and
calls the public functions that the operations reach only indirectly.

The layers are the modules of ``limitcanon``: numdata, model, strata (with
fm behind ``realizable``), poset (with tripartitions), weier, grassmann
(with linalg) and the cli serialization.  ``fan`` only draws figures for
delta <= 3 and is not measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from time import perf_counter

from limitcanon.cli import stratum_key_from_obj, stratum_obj
from limitcanon.grassmann import (
    Subspace,
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
from limitcanon.model import (
    CurveConfig,
    build_model,
    multidegree_of_twisted_dualizing,
    twist_divisor_focus_X,
    twist_divisor_focus_Y,
)
from limitcanon.numdata import associated_data, verify_conditions
from limitcanon.poset import build_poset, closure_of, components, neighborhood_radius, to_dot
from limitcanon.strata import enumerate_strata, realizable, stratum_dim, stratum_key, stratum_of
from limitcanon.tripartitions import Tripartition, pair_compatible, tripartitions
from limitcanon.weier import weierstrass_degrees

from spans import NULL

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# ---------------------------------------------------------------------------
# pipeline and sweep: enumerate -> poset -> components -> JSON -> DOT

PIPELINE_CONFIGS = ((4, 4, 4), (3, 5, 4))
# genera (0, 0) give a single point and are left out
SWEEP_CONFIGS = tuple(
    [(gx, gy, d) for d in (2, 3) for gx in range(6) for gy in range(6) if gx or gy]
    + [(0, g, 4) for g in range(1, 6)]
    + [(g, 0, 4) for g in range(1, 6)]
)
WARMUP_CONFIG = (2, 4, 3)
POOL_PAIRS = 3  # serial and jobs=2 enumerations of the pool config, alternated

# strata and component counts stated in the paper and the acceptance suite
KNOWN_COUNTS = {
    (2, 4, 3): (103, 25),
    (3, 3, 3): (37, 9),
    (4, 4, 4): (309, 34),
    (3, 5, 4): (1207, 117),
}


def n_delta(h, delta):
    return comb(h + delta - 1, delta) - comb(h, delta)


def expected_components(g_x, g_y, delta):
    """Component count from a closed form, or None where none is known."""
    if (g_x, g_y) == (0, 0):
        return 1
    if g_x * g_y == 0 or g_x == g_y:
        return n_delta(max(g_x, g_y), delta)
    if delta == 2:
        return g_x + g_y - gcd(g_x + 1, g_y + 1) + 1
    return None


def _token(key):
    return [
        list(key.alpha),
        list(key.beta),
        sorted(key.I) if key.I is not None else [-1],
        sorted(key.J) if key.J is not None else [-1],
    ]


def poset_digest(poset, maximal):
    """sha256 of the keys in order, their dims and closures, and the maximal
    keys.  Witness weight vectors and node labels do not enter it."""
    body = {
        "keys": [
            [_token(k), poset.dims[k], sorted(_token(o) for o in poset.closure[k])]
            for k in poset.keys
        ],
        "maximal": sorted(_token(k) for k in maximal),
    }
    return hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        raw = json.load(handle)
    return {tuple(int(x) for x in k.split(",")): v for k, v in raw["configs"].items()}


def _labels(rng, delta):
    prefix = rng.choice("pqnxv")
    return tuple(f"{prefix}{i + 1}" for i in range(delta))


class Workload:
    """A seeded input stream cut into rounds, with a check per operation."""

    name = unit = ""
    seed = 0

    def rng(self, r):
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round_inputs(self, r):
        return self.rounds.pop(r, None) or self.make_round(r)

    def warm_up(self, items):
        self.check(items, [self.run_op(item, NULL) for item in items])

    def check(self, items, outputs):
        """(index, message) for every op that raised or failed its check."""
        failures = []
        for i, (item, out) in enumerate(zip(items, outputs)):
            reason = out if isinstance(out, str) else self.check_one(item, out, outputs)
            if reason:
                failures.append((i, f"{self.label(item)}: {reason}"))
        return failures

    def probe(self, items, outputs, T):
        pass


class StrataWorkload(Workload):
    """Solve whole configurations: the work behind enumerate/poset/components."""

    unit = "configs"

    def __init__(self, name, configs, reference=None, pool_config=None):
        self.name = name
        self.configs = tuple(configs)
        self.reference = load_reference() if reference is None else reference
        self.pool_config = pool_config

    def setup(self, seed):
        self.seed = seed
        self.rounds = {0: self.make_round(0)}
        self.warm_up([CurveConfig(*WARMUP_CONFIG)])

    def make_round(self, r):
        rng = self.rng(r)
        order = list(self.configs)
        rng.shuffle(order)
        return [CurveConfig(*c, labels=_labels(rng, c[2])) for c in order]

    def run_op(self, config, T):
        with T.span("strata.enumerate_strata"):
            found = enumerate_strata(config, jobs=1)
        with T.span("poset.build_poset"):
            poset = build_poset(config, strata=found)
        with T.span("poset.components"):
            comps = components(config, poset=poset)
        with T.span("cli.serialize"):
            text = json.dumps([stratum_obj(config, s) for s in found], indent=2) + "\n"
        with T.span("poset.to_dot"):
            dot = to_dot(poset)
        if T.enabled:
            T.add("strata.strata_found", len(found))
            T.add("poset.closure_pairs", sum(len(c) for c in poset.closure.values()))
            T.add("cli.serialize.bytes", len(text.encode()))
        return found, poset, comps, text, dot

    def label(self, config):
        return str((config.g_x, config.g_y, config.delta))

    def check_one(self, config, out, outputs):
        found, poset, comps, text, dot = out
        triple = (config.g_x, config.g_y, config.delta)
        ref = self.reference.get(triple)
        if ref is None:
            return "no reference entry"
        n_strata, n_comp = len(found), comps["count"]
        if (n_strata, n_comp) != (ref["strata"], ref["components"]):
            return f"counts {n_strata}/{n_comp} != reference {ref['strata']}/{ref['components']}"
        known = KNOWN_COUNTS.get(triple)
        if known is not None and (n_strata, n_comp) != known:
            return f"counts {n_strata}/{n_comp} != known {known}"
        expected = expected_components(*triple)
        if expected is not None and n_comp != expected:
            return f"component count {n_comp} != closed form {expected}"
        if poset_digest(poset, comps["maximal"]) != ref["digest"]:
            return "poset digest differs from the reference"
        keys = [stratum_key(config, s) for s in found]
        for s, key in zip(found, keys):
            if stratum_key(config, stratum_of(config, s.witness_mu)) != key:
                return f"witness {s.witness_mu} does not classify back onto its key"
        if [stratum_key_from_obj(config, o) for o in json.loads(text)] != keys:
            return "strata JSON does not round-trip to the enumerated keys"
        if dot.count("[label=") != len(poset.keys):
            return "DOT output does not list every stratum"
        return None

    def probe(self, configs, outputs, T):
        for config, out in zip(configs, outputs):
            found, poset = out[0], out[1]
            for s in found:
                with T.span("strata.realizable"):
                    witness = realizable(config, s.alpha, s.I, s.beta, s.J)
                if witness is None:
                    raise AssertionError("a found stratum is not realizable")
                with T.span("poset.closure_of"):
                    closure_of(config, s)
            with T.span("poset.maximal"):
                poset.maximal()
            with T.span("poset.covering_edges"):
                edges = poset.covering_edges()
            T.add("poset.covering_edges.count", len(edges))
        if self.pool_config is not None:
            # the pool's work runs in child processes, so both are timed by
            # the wall clock, alternating to cancel drift of the host
            config = CurveConfig(*self.pool_config)
            for _ in range(POOL_PAIRS):
                for name, jobs in (("strata.enumerate_serial", 1), ("strata.enumerate_pool2", 2)):
                    t0 = perf_counter()
                    enumerate_strata(config, jobs=jobs)
                    T.sample(name, perf_counter() - t0)


# ---------------------------------------------------------------------------
# classify: weight vector -> stratum, dims, Weierstrass degrees, model

CLASSIFY_BASES = ((3, 3, 3), (2, 4, 3))
CLASSIFY_RANDOM = 1200  # random vectors per round
CLASSIFY_PERTURB = 2  # perturbations per base witness per round
CLASSIFY_REPEAT_SHARE = 4  # one scaled repeat per this many fresh vectors
CLASSIFY_INTEGRAL_SHARE = 0.15
# the semistable model has sum(mu) - delta + 2 components and the multidegree
# costs their cube, so integral vectors keep small weights
MODEL_MAX_WEIGHT = 3


def _integral(mu):
    return all(m.denominator == 1 for m in mu)


class ClassifyWorkload(Workload):
    """Classify a stream of weight vectors; no enumeration is timed."""

    name = "classify"
    unit = "vectors"

    def __init__(self, n_random=CLASSIFY_RANDOM, bases=CLASSIFY_BASES):
        self.n_random = n_random
        self.base_configs = bases

    def setup(self, seed):
        self.seed = seed
        self.bases = []
        for triple in self.base_configs:
            config = CurveConfig(*triple)
            for s in enumerate_strata(config, jobs=1):
                mu, radius = neighborhood_radius(s)
                self.bases.append((config, mu, radius, closure_of(config, s)))
        self.rounds = {0: self.make_round(0)}
        self.warm_up(self.rounds[0][:100])

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for _ in range(self.n_random):
            while True:
                delta, g_x, g_y = rng.randint(1, 6), rng.randint(0, 8), rng.randint(0, 8)
                if delta > 1 or g_x * g_y > 0:
                    break
            integral = rng.random() < CLASSIFY_INTEGRAL_SHARE
            while True:
                if integral:
                    mu = tuple(Fraction(rng.randint(1, MODEL_MAX_WEIGHT)) for _ in range(delta))
                else:
                    mu = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(delta))
                if integral == _integral(mu):
                    break
            items.append(("random", CurveConfig(g_x, g_y, delta), mu, None))
        for config, mu, radius, closure in self.bases:
            for _ in range(CLASSIFY_PERTURB):
                shifted = tuple(m + radius * Fraction(rng.randint(-999, 999), 1000) for m in mu)
                items.append(("perturbed", config, shifted, closure))
        fresh = len(items)
        for _ in range(fresh // CLASSIFY_REPEAT_SHARE):
            while True:
                j = rng.randrange(fresh)
                t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                mu = tuple(t * m for m in items[j][2])
                if not _integral(mu) or max(mu) <= MODEL_MAX_WEIGHT:
                    break
            items.append(("repeat", items[j][1], mu, j))
        # a repeat keeps the index of its original, so only the fresh part moves
        head = items[:fresh]
        order = list(range(fresh))
        rng.shuffle(order)
        where = {old: new for new, old in enumerate(order)}
        items = [head[k] for k in order] + [
            (kind, c, mu, where[j]) for kind, c, mu, j in items[fresh:]
        ]
        return items

    def run_op(self, item, T):
        _, config, mu, _ = item
        with T.span("numdata.associated_data"):
            data_x = associated_data(mu, config.g_y)
        with T.span("numdata.associated_data"):
            data_y = associated_data(mu, config.g_x)
        with T.span("strata.stratum_of"):
            s = stratum_of(config, mu)
        with T.span("strata.stratum_key"):
            key = stratum_key(config, s)
        with T.span("strata.stratum_dim"):
            dim = stratum_dim(config, s)["dim"]
        with T.span("weier.weierstrass_degrees"):
            w = weierstrass_degrees(config, s)
        degrees = None
        if _integral(mu):
            with T.span("model.build_model"):
                model = build_model(config, mu)
            with T.span("model.multidegree"):
                degrees = (
                    multidegree_of_twisted_dualizing(model, config, twist_divisor_focus_X(model, data_x)).total,
                    multidegree_of_twisted_dualizing(model, config, twist_divisor_focus_Y(model, data_y)).total,
                )
        return data_x, data_y, key, dim, (w.stratum_form.total, w.normalized.total), degrees

    def label(self, item):
        return f"{item[0]} {item[2]}"

    def check_one(self, item, out, outputs):
        kind, config, mu, extra = item
        data_x, data_y, key, dim, totals, degrees = out
        g = config.genus
        if not verify_conditions(mu, config.g_y, data_x) or not verify_conditions(mu, config.g_x, data_y):
            return "numerical data fails conditions (a)-(d)"
        if key.alpha != data_x.alpha or key.beta != data_y.alpha:
            return "stratum key disagrees with the numerical data"
        if not 0 <= dim <= config.delta - 1:
            return f"dimension {dim} out of range"
        if totals != (g ** 3 - g, g ** 3 - g):
            return f"Weierstrass totals {totals} != g^3 - g"
        if degrees is not None and degrees != (2 * g - 2, 2 * g - 2):
            return f"twisted multidegree totals {degrees} != 2g - 2"
        if kind == "perturbed" and key not in extra:
            return "perturbation left the closure of its base stratum"
        if kind == "repeat" and (isinstance(outputs[extra], str) or outputs[extra][2] != key):
            return "scaled repeat landed on another key"
        return None


# ---------------------------------------------------------------------------
# orbit: torus-orbit closures in small Grassmannians

ORBIT_SHAPES = ((4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4))
ORBIT_PER_SHAPE = 2
ORBIT_QUERIES = 6  # members and as many non-members per subspace
PAIR_COUPLINGS = ((1, 1), (1, 2), (2, 3))
PAIR_CASES = (
    (("p", "q"), ("p", "q"), 1, 1),
    (("p", "q", "r"), ("q", "r"), 2, 1),
    (("p", "q", "r"), ("p", "q", "r"), 2, 2),
    (("p", "q"), ("q", "r"), 1, 2),
)
PAIR_QUERIES = 4  # degenerations along compatible, and along incompatible, pairs
BRUTE_FORCE_AMBIENT = 5


def _general_subspace(rng, n, h):
    while True:
        try:
            V = Subspace([[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(h)])
        except ValueError:
            continue
        if all(c != 0 for c in pluecker(V).coords):
            return V


def _any_subspace(rng, n, h):
    while True:
        try:
            return Subspace([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(h)])
        except ValueError:
            continue


def _qualifying(n, h):
    return [t for t in tripartitions(range(n)) if len(t.first) < h <= n - len(t.last)]


def _labelled(tri, labels):
    return Tripartition(*(frozenset(labels[p] for p in part) for part in (tri.first, tri.middle, tri.last)))


def _support_tri(W, labels):
    """The tripartition (always, sometimes, never in the support) of W."""
    supp = [frozenset(b) for b in pluecker(W).support()]
    low, high = frozenset.intersection(*supp), frozenset.union(*supp)
    rest = frozenset(range(W.ambient))
    return _labelled(Tripartition(low, high - low, rest - high), labels)


class OrbitWorkload(Workload):
    """Closure sets and membership verdicts; only grassmann and linalg work."""

    name = "orbit"
    unit = "queries"

    def __init__(self, shapes=ORBIT_SHAPES, per_shape=ORBIT_PER_SHAPE, couplings=PAIR_COUPLINGS, cases=PAIR_CASES):
        self.shapes = shapes
        self.per_shape = per_shape
        self.couplings = couplings
        self.cases = cases

    def setup(self, seed):
        self.seed = seed
        self.rounds = {0: self.make_round(0)}
        self.warm_up(self.rounds[0][:20])

    def make_round(self, r):
        rng = self.rng(r)
        items = []
        for n, h in self.shapes:
            qualifying = _qualifying(n, h)
            for _ in range(self.per_shape):
                V = _general_subspace(rng, n, h)
                items.append(("closure", V))
                for _ in range(ORBIT_QUERIES):
                    W = tripartition_degenerate(V, rng.choice(qualifying))
                    scal = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(n)]
                    W = Subspace([[s * x for s, x in zip(scal, row)] for row in W.rows])
                    items.append(("in", W, V, True))
                for _ in range(ORBIT_QUERIES):
                    items.append(("in", _any_subspace(rng, n, h), V, None))
        for lam, tau in self.couplings:
            for I, J, h1, h2 in self.cases:
                V, W = _general_subspace(rng, len(I), h1), _general_subspace(rng, len(J), h2)
                items.append(("pair", V, W, lam, tau, I, J))
                verdicts = {True: [], False: []}
                for ti in _qualifying(len(I), h1):
                    for tj in _qualifying(len(J), h2):
                        ok = pair_compatible(_labelled(ti, I), _labelled(tj, J), set(I), set(J))
                        verdicts[ok].append((ti, tj))
                for source in (True, False):
                    for _ in range(PAIR_QUERIES if verdicts[source] else 0):
                        ti, tj = rng.choice(verdicts[source])
                        nu = (tripartition_degenerate(V, ti), tripartition_degenerate(W, tj))
                        items.append(("in_pair", nu, (V, W), lam, tau, I, J, source))
        return items

    def run_op(self, item, T):
        kind = item[0]
        if kind == "closure":
            V = item[1]
            with T.span(f"grassmann.closure_orbit_set.n{V.ambient}"):
                return closure_orbit_set(V)
        if kind == "in":
            with T.span("grassmann.in_closure"):
                return in_closure(item[1], item[2])
        if kind == "pair":
            with T.span("grassmann.pair_closure_orbit_set"):
                return pair_closure_orbit_set(*item[1:])
        with T.span("grassmann.in_pair_closure"):
            return in_pair_closure(*item[1:7])

    def check(self, items, outputs):
        self.sets = {
            item[1]: out for item, out in zip(items, outputs) if item[0] == "closure" and not isinstance(out, str)
        }
        return super().check(items, outputs)

    def label(self, item):
        return item[0]

    def check_one(self, item, out, outputs):
        kind = item[0]
        if kind == "closure":
            if orbit_fingerprint(pluecker(item[1])) not in out:
                return "closure set misses the open orbit"
        elif kind == "in":
            W, V, expect = item[1:]
            closure = self.sets.get(V) or closure_orbit_set(V)
            if out != (orbit_fingerprint(pluecker(W)) in closure):
                return "in_closure disagrees with fingerprint membership"
            if expect and not out:
                return "a torus-scaled degeneration was rejected"
        elif kind == "pair":
            V, W, _, _, I, J = item[1:]
            limit = sum(
                pair_compatible(_labelled(ti, I), _labelled(tj, J), set(I), set(J))
                for ti in _qualifying(V.ambient, V.dim)
                for tj in _qualifying(W.ambient, W.dim)
            )
            if not 1 <= len(out) <= limit:
                return f"pair closure has {len(out)} orbits, outside 1..{limit}"
        else:
            # the verdict follows the tripartitions read off the supports,
            # which can differ from the ones degenerated along
            (W1, W2), _, _, _, I, J, source = item[1:]
            expect = pair_compatible(_support_tri(W1, I), _support_tri(W2, J), set(I), set(J))
            if out != expect:
                return f"in_pair_closure returned {out}, supports say {expect}"
            if source and not out:
                return "a degeneration along a compatible pair was rejected"
        return None

    def verify_brute_force(self, items):
        """Exact equality with one-parameter-subgroup sampling (slow; setup only)."""
        failures = []
        for i, item in enumerate(items):
            if item[0] == "closure" and item[1].ambient <= BRUTE_FORCE_AMBIENT:
                if closure_orbit_set(item[1]) != brute_force_closure_fingerprints(item[1], bound=3):
                    failures.append((i, "closure set differs from brute force"))
            elif item[0] == "pair":
                if pair_closure_orbit_set(*item[1:]) != pair_brute_force_fingerprints(*item[1:]):
                    failures.append((i, "pair closure set differs from brute force"))
        return failures

    def probe(self, items, outputs, T):
        rng = self.rng("probe")
        for item in items:
            if item[0] != "closure":
                continue
            V = item[1]
            with T.span("grassmann.pluecker"):
                pluecker(V)
            for tri in rng.sample(_qualifying(V.ambient, V.dim), 8):
                with T.span("grassmann.tripartition_degenerate"):
                    D = tripartition_degenerate(V, tri)
                with T.span("grassmann.pluecker"):
                    pv = pluecker(D)
                with T.span("grassmann.orbit_fingerprint"):
                    orbit_fingerprint(pv)


def make(name):
    if name == "pipeline":
        return StrataWorkload("pipeline", PIPELINE_CONFIGS, pool_config=(3, 5, 4))
    if name == "sweep":
        return StrataWorkload("sweep", SWEEP_CONFIGS)
    if name == "classify":
        return ClassifyWorkload()
    if name == "orbit":
        return OrbitWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("pipeline", "sweep", "classify", "orbit")
