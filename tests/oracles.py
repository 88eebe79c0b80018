"""Independent checks that only the tests use, kept out of the library.

The pairwise closure rules: ``admissible`` lists the tripartitions
(first, middle, last) of an equality locus in the degeneration window,
``coupling_case`` names which of the three coupling patterns a compatible
pair follows on the shared nodes, and ``direction_probes`` builds, for
every compatible pair, a perturbation of the witness that lands in the
pair's stratum: the constructive cross-check of ``poset.closure_of``;
``neighborhood_sample_check`` samples weight vectors near a witness, each of
which must classify into the predicted closure.  Beside them sit the
binomial orbit-closure equations, one-parameter subgroups and the
Pluecker vector of a limit under one (``limit_pluecker``), with the
standard subgroup of a tripartition, the closure sets computed the slow
way (each degenerate subspace by linear algebra, the pair fingerprints
from their own coupling lattice), single-orbit membership by the
integer-lattice test on the ratios (``lattice_in_closure``), the
degenerate subspace V_T built from V + k_last (``sum_degenerate``, with its
rational ``nullspace``), power products one Fraction power at a time
(``fraction_power_product``), minors by Fraction Gaussian elimination, the base-change terms between the two
Weierstrass presentations, the fiber divisor of a model and the twisted
multidegrees component by component through ``intersection``.  Row
reduction over the rationals checks the fraction-free ``linalg.rref``.  A
naive scan over the breakpoints (``scan_oracle``) and the breakpoint found
by galloping out from 0 and bisecting check the walk over node multiples
in ``numdata``, and conditions (a)-(d) checked in Fractions check the
integer ``verify_conditions``.  The stratum descriptor with every value
stored as a Fraction, the classification that fills it from two
``associated_data`` solutions, stratum witnesses built in Fractions, and an
enumeration that keeps the smallest Fraction witness per key check the
integer witnesses and the lazily read descriptor of ``strata``;
``brute_side`` lists every well-formed candidate side for the
Fourier-Motzkin check of the node search; ``region_satisfies`` evaluates
the constraints of a ``strata.region`` description in Fractions.

Only public names of ``limitcanon`` are imported, so these checks do not
share the library's private helpers.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from limitcanon.grassmann import (
    PairFingerprint,
    PlueckerVector,
    Subspace,
    orbit_fingerprint,
    pluecker,
    tripartition_degenerate,
)
from limitcanon.linalg import hnf_rows, monomial_system_solvable, power_product, relation_lattice, rref
from limitcanon.model import DivisorOnModel, MultiDegree, component_genus, intersection
from limitcanon.poset import closure_of, neighborhood_radius
from limitcanon.numdata import NumericalData, associated_data, verify_conditions
from limitcanon.strata import StratumKey, make_key, stratum_key, stratum_of
from limitcanon.tripartitions import Tripartition, pair_compatible, tripartitions

# ---------------------------------------------------------------------------
# pairwise closure rules


def admissible(members, weights, genus_target):
    """Tripartitions of ``members`` with
    genus_target + |last| <= |weights| < genus_target + |members| - |first|."""
    total = sum(weights)
    return [
        tri
        for tri in tripartitions(members)
        if genus_target + len(tri.last) <= total < genus_target + len(members) - len(tri.first)
    ]


def drop_on(weights, part):
    return tuple(w - 1 if p in part else w for p, w in enumerate(weights))


def coupling_case(ti, tj, I, J):
    """Index of the first coupling pattern the shared nodes I & J follow, or
    None; a pair of tripartitions is compatible exactly when there is one."""
    i1, i2, i3 = ti.first, ti.middle, ti.last
    j1, j2, j3 = tj.first, tj.middle, tj.last
    patterns = (
        (i1 & j1) | (i2 & j2) | (i3 & j3),
        (i1 & j1) | (i2 & j1) | (i3 & j1) | (i3 & j2) | (i3 & j3),
        (i1 & j1) | (i1 & j2) | (i1 & j3) | (i2 & j3) | (i3 & j3),
    )
    return next((k for k, pattern in enumerate(patterns) if I & J == pattern), None)


def _scaled(mu, parts):
    """The vector factor * mu_p on each p of each (part, factor), 0 elsewhere;
    a later part overrides an earlier one."""
    out = [Fraction(0)] * len(mu)
    for part, factor in parts:
        for p in part:
            out[p] = Fraction(factor * mu[p])
    return tuple(out)


def _case_direction(ti, tj, I, J, mu):
    """Joint perturbation direction for a compatible tripartition pair."""
    i1, i2, i3 = ti.first, ti.middle, ti.last
    j1, j2, j3 = tj.first, tj.middle, tj.last
    case = coupling_case(ti, tj, I, J)
    assert case is not None, "compatible pair matches none of the three cases"
    layouts = (
        ((i2 | j2, 1), (i3 | j3, 2)),
        ((i2, 1), (i3 & j1, 2), (j2, 3), (j3 | (i3 - J), 4)),
        ((j2, 1), (j3 & i1, 2), (i2, 3), (i3 | (j3 - I), 4)),
    )
    return _scaled(mu, layouts[case])


def direction_probes(config, s):
    """Constructive perturbation directions reaching each predicted key.

    Returns triples (target_key, integral_mu, upsilon); moving the witness
    by a small positive multiple of upsilon lands in the target stratum.
    """
    mu = neighborhood_radius(s)[0]
    x_tris = admissible(s.I, s.alpha, config.g_y)
    y_tris = admissible(s.J, s.beta, config.g_x)
    probes = []
    if config.g_x > 0 and config.g_y > 0:
        for ti in x_tris:
            for tj in y_tris:
                if pair_compatible(ti, tj, s.I, s.J):
                    key = make_key(
                        config, drop_on(s.alpha, ti.last), ti.middle, drop_on(s.beta, tj.last), tj.middle
                    )
                    probes.append((key, mu, _case_direction(ti, tj, s.I, s.J, mu)))
    elif config.g_y > 0:
        for ti in x_tris:
            key = make_key(config, drop_on(s.alpha, ti.last), ti.middle, s.beta, s.J)
            probes.append((key, mu, _scaled(mu, ((ti.middle, 1), (ti.last, 2)))))
    elif config.g_x > 0:
        for tj in y_tris:
            key = make_key(config, s.alpha, s.I, drop_on(s.beta, tj.last), tj.middle)
            probes.append((key, mu, _scaled(mu, ((tj.middle, 1), (tj.last, 2)))))
    else:
        probes.append((stratum_key(config, s), mu, _scaled(mu, ())))
    return probes


def neighborhood_sample_check(config, s, samples=200, seed=0, closure=None):
    """Sample weight vectors near the witness; each must classify into the
    predicted closure.  Report-based: returns the violations, never raises."""
    mu, radius = neighborhood_radius(s)
    allowed = closure_of(config, s) if closure is None else closure
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        eps = [radius * Fraction(rng.randint(-999, 999), 1000) for _ in mu]
        shifted = tuple(Fraction(m) + e for m, e in zip(mu, eps))
        key = stratum_key(config, stratum_of(config, shifted))
        if key not in allowed:
            violations.append((shifted, key))
    return {"samples": samples, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# Grassmannians, Weierstrass degrees, models


def _vec(cols, n):
    return tuple(1 if i in cols else 0 for i in range(n))


def satisfies_orbit_quadrics(point, reference):
    """Check the binomial orbit-closure equations of ``reference`` on ``point``:
    ref_{b1} ref_{b2} p_{b3} p_{b4} = ref_{b3} ref_{b4} p_{b1} p_{b2}
    whenever b1 + b2 = b3 + b4 as exponent vectors."""
    subsets = reference.subsets()
    n = reference.ambient
    by_sum = {}
    for b1, b2 in combinations(range(len(subsets)), 2):
        key = tuple(x + y for x, y in zip(_vec(subsets[b1], n), _vec(subsets[b2], n)))
        by_sum.setdefault(key, []).append((b1, b2))
    for pairs in by_sum.values():
        for (a1, a2), (a3, a4) in combinations(pairs, 2):
            lhs = reference.coords[a1] * reference.coords[a2] * point.coords[a3] * point.coords[a4]
            rhs = reference.coords[a3] * reference.coords[a4] * point.coords[a1] * point.coords[a2]
            if lhs != rhs:
                return False
    return True


@dataclass(frozen=True)
class OnePSG:
    """One-parameter subgroup r -> (scalars_i * r^exponents_i)."""

    exponents: tuple
    scalars: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.scalars):
            raise ValueError("exponents and scalars must have equal length")
        if any(s == 0 for s in self.scalars):
            raise ValueError("scalars must be nonzero")


def limit_pluecker(V, psg):
    """Pluecker coordinates of the limit of psg(r) . V as r goes to 0: the
    nonzero coordinates of minimal weight sum(exponents[i] for i in b), each
    times the product of the scalars on b, normalized to first nonzero 1."""
    pv = pluecker(V)
    if len(psg.exponents) != V.ambient:
        raise ValueError("one-parameter subgroup size must match the ambient")
    weights = [sum(psg.exponents[i] for i in b) for b in pv.subsets()]
    floor = min(w for w, c in zip(weights, pv.coords) if c != 0)
    out = [
        c * power_product(psg.scalars, _vec(b, V.ambient)) if c != 0 and w == floor else Fraction(0)
        for b, w, c in zip(pv.subsets(), weights, pv.coords)
    ]
    scale = next(v for v in out if v != 0)
    return PlueckerVector(V.ambient, V.dim, tuple(v / scale for v in out))


def psg_for_tripartition(tri, n):
    """The standard degeneration direction: -1 on first, 0 on middle, 1 on last."""
    exps = [0] * n
    for p in tri.first:
        exps[p] = -1
    for p in tri.last:
        exps[p] = 1
    return OnePSG(tuple(exps), tuple(Fraction(1) for _ in range(n)))


def fraction_det(rows):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    result = Fraction(sign)
    for i in range(n):
        result *= mat[i][i]
    return result


def fraction_minors(rows, ncols):
    """All maximal minors by ``fraction_det``, in lexicographic column order."""
    return [
        fraction_det([[row[c] for c in cols] for row in rows])
        for cols in combinations(range(ncols), len(rows))
    ]


def fraction_rref(rows, ncols=None):
    """Reduced row echelon form by Gauss-Jordan elimination over the rationals:
    ``(reduced_rows, pivot_columns)``, zero rows dropped, pivots 1."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    reduced = [tuple(row) for row in mat[:r]]
    return reduced, pivots


def nullspace(rows, ncols):
    """Basis of {x : A x = 0} over Q, from the reduced echelon form."""
    reduced, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def fraction_power_product(values, exponents):
    """Product of values[i] ** exponents[i], one Fraction power at a time."""
    out = Fraction(1)
    for v, e in zip(values, exponents):
        if e:
            out *= Fraction(v) ** e
    return out


def _units(n, positions):
    out = []
    for p in sorted(positions):
        row = [Fraction(0)] * n
        row[p] = Fraction(1)
        out.append(tuple(row))
    return out


def sum_degenerate(V, tri):
    """k_first + (k_middle intersect (V + k_last)) the long way: reduce
    V + k_last, intersect it with k_middle through the kernel of its
    coordinates outside middle, add k_first and reduce again."""
    n = V.ambient
    if tri.ambient != frozenset(range(n)):
        raise ValueError("tripartition must cover the ambient index set")
    extended = list(V.rows) + _units(n, tri.last)
    big, _ = rref(extended, n)
    outside = sorted(frozenset(range(n)) - tri.middle)
    if big and outside:
        constraint = [[row[c] for row in big] for c in outside]
        coeffs = nullspace(constraint, len(big))
    elif big:
        coeffs = nullspace([[Fraction(0)] * len(big)], len(big))
    else:
        coeffs = []
    middle_part = []
    for y in coeffs:
        vec = [Fraction(0)] * n
        for cy, row in zip(y, big):
            if cy:
                for k in range(n):
                    vec[k] += cy * row[k]
        middle_part.append(tuple(vec))
    gens = _units(n, tri.first) + middle_part
    reduced, _ = rref(gens, n)
    return Subspace(reduced, ambient=n)


def _qualifying(n, h):
    return [t for t in tripartitions(range(n)) if len(t.first) < h <= n - len(t.last)]


def degenerate_closure_orbit_set(V):
    """The closure set from the degenerate subspaces V_T themselves."""
    return frozenset(
        orbit_fingerprint(pluecker(tripartition_degenerate(V, tri)))
        for tri in _qualifying(V.ambient, V.dim)
    )


def _ratios(pv, width, offset):
    """Characters e_b - e_base (at ``offset`` in rows of ``width``) and
    ratios pv_b / pv_base, base the first member of the support."""
    live = [(b, c) for b, c in zip(pv.subsets(), pv.coords) if c != 0]
    base, c0 = live[0]
    chars = [
        tuple((i - offset in b) - (i - offset in base) for i in range(width)) for b, _ in live[1:]
    ]
    return chars, [c / c0 for _, c in live[1:]]


def lattice_in_closure(W, V):
    """Membership of W in the torus-orbit closure of V by the lattice test.

    W's support must be a whole interval: every subset of its size between
    the coordinates in all members and those in some.  Then the ratios
    W_b / W_base over V_b / V_base must be the values of W's characters at
    one torus point, which ``linalg.monomial_system_solvable`` decides.
    """
    pv, qw = pluecker(V), pluecker(W)
    supp = qw.support()
    members = [frozenset(b) for b in supp]
    low, high = frozenset.intersection(*members), frozenset.union(*members)
    spanned = {frozenset(b) for b in combinations(sorted(high), W.dim) if low <= frozenset(b)}
    if set(members) != spanned:
        return False
    chars, ratios = _ratios(qw, W.ambient, 0)
    ref = dict(zip(pv.subsets(), pv.coords))
    values = [r / (ref[b] / ref[supp[0]]) for b, r in zip(supp[1:], ratios)]
    return monomial_system_solvable(chars, values)


def _pair_fingerprint(pv, qw, lam, tau, I, J):
    """Support pair plus the values of a canonical basis of the integer
    relations among both supports' characters modulo the characters that
    vanish on the coupling torus (one for every pair of shared nodes)."""
    ni = len(I)
    chars_v, values_v = _ratios(pv, ni + len(J), 0)
    chars_w, values_w = _ratios(qw, ni + len(J), ni)
    chars = chars_v + chars_w
    torus = []
    for l0, l in combinations(sorted(set(I) & set(J)), 2):
        row = [0] * (ni + len(J))
        row[I.index(l)], row[I.index(l0)] = tau, -tau
        row[ni + J.index(l)], row[ni + J.index(l0)] = -lam, lam
        torus.append(tuple(row))
    relations = relation_lattice(chars + torus)
    basis = hnf_rows([rel[: len(chars)] for rel in relations])
    invariants = tuple(power_product(values_v + values_w, rel) for rel in basis)
    return PairFingerprint(pv.support(), qw.support(), invariants)


def degenerate_pair_closure_orbit_set(V, W, lam, tau, I, J):
    """The coupled closure set from the degenerate subspaces of every
    compatible pair of qualifying tripartitions."""
    I, J = tuple(I), tuple(J)
    out = set()
    for ti in _qualifying(V.ambient, V.dim):
        for tj in _qualifying(W.ambient, W.dim):
            if pair_compatible(_labelled(ti, I), _labelled(tj, J), set(I), set(J)):
                pv = pluecker(tripartition_degenerate(V, ti))
                qw = pluecker(tripartition_degenerate(W, tj))
                out.add(_pair_fingerprint(pv, qw, lam, tau, I, J))
    return frozenset(out)


def _labelled(tri, labels):
    return Tripartition(*(frozenset(labels[p] for p in part) for part in (tri.first, tri.middle, tri.last)))


def base_change_terms(config, s):
    """Per-node difference between the two Weierstrass presentations:
    g(g_Y - alpha_p) on the X side plus g(g_X - beta_p) on the Y side."""
    g = config.genus
    return tuple(g * (config.g_y - a) + g * (config.g_x - b) for a, b in zip(s.alpha, s.beta))


def fiber_divisor(model):
    """The whole fiber: every component with coefficient 1."""
    return DivisorOnModel(model, {c: 1 for c in model.components})


def pairwise_multidegree(model, config, divisor):
    """Degrees of omega_model(D), component by component:
    (2 g_E - 2 + #nodes on E) + sum_F D_F * E.F, each E.F by ``intersection``."""
    degrees = []
    for comp in model.components:
        valence = sum(1 for a, b in model.nodes if comp in (a, b))
        base = 2 * component_genus(config, comp) - 2 + valence
        dot = sum(
            coeff * intersection(model, comp, other)
            for other, coeff in divisor.coefficients.items()
        )
        degrees.append((comp, base + dot))
    return MultiDegree(tuple(degrees))


# ---------------------------------------------------------------------------
# numerical data


def scan_oracle(mu, upsilon):
    """Brute-force numerical data: walk the breakpoints upward, test each one.

    Intentionally naive: mu is cleared to integers m = t * mu, the scan
    starts below every breakpoint that reaches upsilon, and the first
    breakpoint c whose data (alpha_p = floor(c / m_p), I where m_p divides
    c) passes ``verify_conditions`` is returned.
    """
    mu = tuple(Fraction(x) for x in mu)
    if not mu or any(x <= 0 for x in mu):
        raise ValueError("mu must be a nonempty vector of positive entries")
    t = lcm(*(x.denominator for x in mu))
    m = [int(x * t) for x in mu]

    def jumps(c):
        return sum(c // mp for mp in m)

    lo, step = 0, 1
    while jumps(lo) >= upsilon:
        lo -= step
        step *= 2
    c = lo
    for _ in range(10 ** 7):
        c = min((c // mp + 1) * mp for mp in m)  # next breakpoint
        total = jumps(c)
        if total >= upsilon:  # below this the third condition already fails
            alpha = tuple(c // mp for mp in m)
            rho = tuple(Fraction(mp * (a + 1) - c, t) for mp, a in zip(m, alpha))
            members = frozenset(p for p, mp in enumerate(m) if c % mp == 0)
            candidate = NumericalData(alpha, rho, members, Fraction(c, t))
            if verify_conditions(mu, upsilon, candidate):
                return candidate
        if total >= upsilon + len(m):
            break
    raise AssertionError("breakpoint scan exhausted without a solution")


def galloping_breakpoint(m, upsilon):
    """The smallest integer c with sum_p floor(c / m_p) >= upsilon, for
    positive integers m, found by galloping out from 0 and bisecting."""

    def jumps(c):
        return sum(c // mp for mp in m)

    if jumps(0) >= upsilon:
        hi, lo, step = 0, -1, 1
        while jumps(lo) >= upsilon:
            hi = lo
            step *= 2
            lo -= step
    else:
        lo, hi = 0, 1
        while jumps(hi) < upsilon:
            lo = hi
            hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if jumps(mid) >= upsilon:
            hi = mid
        else:
            lo = mid
    return hi


def fraction_verify_conditions(mu, upsilon, candidate):
    """Conditions (a)-(d) checked in Fractions, for well-formed inputs."""
    mu = tuple(Fraction(m) for m in mu)
    if not mu or any(m <= 0 for m in mu):
        return False
    alpha, rho = candidate.alpha, candidate.rho
    if len(alpha) != len(mu) or len(rho) != len(mu):
        return False
    if any(a != int(a) for a in alpha):
        return False
    rho = tuple(Fraction(r) for r in rho)
    if any(not (0 < r <= m) for r, m in zip(rho, mu)):
        return False
    derived = frozenset(p for p, (r, m) in enumerate(zip(rho, mu)) if r == m)
    if derived != candidate.I or not derived:
        return False
    total = sum(alpha)
    if not (upsilon <= total < upsilon + len(derived)):
        return False
    levels = {m * (a + 1) - r for m, a, r in zip(mu, alpha, rho)}
    if len(levels) != 1:
        return False
    return levels.pop() == candidate.level


# ---------------------------------------------------------------------------
# strata in Fractions


@dataclass(frozen=True)
class StratumData:
    """The stratum descriptor with every value stored, as Fractions.

    ``limitcanon.strata.StratumData`` keeps integers and makes these values
    when they are read; it must match this class field by field, and in
    repr and hash, which is why the two share a name.
    """

    alpha: tuple
    I: frozenset
    beta: tuple
    J: frozenset
    gamma: Fraction
    epsilon: Fraction
    alpha_tilde: int | None
    beta_tilde: int | None
    witness_mu: tuple
    rho: tuple
    sigma: tuple


def fraction_stratum_of(config, mu):
    """Classify mu from the two foci's numerical data, in Fractions.

    Focus X is the solution at target g_Y, focus Y the one at g_X; sigma is
    mu - rho' of focus Y, and (alpha_tilde, beta_tilde) the ratio of the
    levels in lowest terms when both genera are positive.
    """
    mu = tuple(Fraction(m) for m in mu)
    if len(mu) != config.delta:
        raise ValueError("mu length must equal delta")
    x, y = associated_data(mu, config.g_y), associated_data(mu, config.g_x)
    alpha_tilde = beta_tilde = None
    if config.g_x > 0 and config.g_y > 0:
        ratio = x.level / y.level
        alpha_tilde, beta_tilde = ratio.numerator, ratio.denominator
    return StratumData(
        alpha=x.alpha,
        I=x.I,
        beta=y.alpha,
        J=y.I,
        gamma=x.level,
        epsilon=y.level,
        alpha_tilde=alpha_tilde,
        beta_tilde=beta_tilde,
        witness_mu=mu,
        rho=x.rho,
        sigma=tuple(m - r for m, r in zip(mu, y.rho)),
    )




def _between(lo, hi):
    """A point of the open interval (lo, hi); hi None means unbounded."""
    return lo + 1 if hi is None else (lo + hi) / 2


def _fraction_ratio(alpha, I, beta, J):
    """The ratio r = d/c of a realizable both-sided candidate's witness.

    Node p pins r to b/a on I & J; otherwise r lies above b/a on I (else
    b/(a+1)) and below b/a on J (else (b+1)/a), with no upper end when
    a = 0.  r is the pin, else the midpoint of the interval (lo + 1 when
    it is unbounded).
    """
    lo, hi, pin = Fraction(0), None, None
    for p, (a, b) in enumerate(zip(alpha, beta)):
        if p in I and p in J:
            pin = Fraction(b, a)
            continue
        lo = max(lo, Fraction(b, a if p in I else a + 1))
        if a:
            end = Fraction(b if p in J else b + 1, a)
            hi = end if hi is None else min(hi, end)
    return pin if pin is not None else _between(lo, hi)


def fraction_witness(config, alpha, I, beta, J):
    """The witness of a realizable candidate built in Fractions, last coordinate 1.

    The focus-X level is 1 and the focus-Y level is r (1 when a genus is
    zero); a side whose genus is zero puts no condition on mu.  Each mu_p is
    level/w_p on that side's locus, and off every locus the midpoint of the
    intersected intervals level/(w_p+1) < mu_p < level/w_p, or the low end
    plus 1 when no upper end is left.
    """
    r = _fraction_ratio(alpha, I, beta, J) if config.g_x and config.g_y else Fraction(1)
    both = ((config.g_y, Fraction(1), alpha, I), (config.g_x, r, beta, J))
    sides = [side[1:] for side in both if side[0]]
    mu = []
    for p in range(config.delta):
        pinned = [level / w[p] for level, w, locus in sides if p in locus]
        if pinned:
            mu.append(pinned[0])
            continue
        lo = max((level / (w[p] + 1) for level, w, _ in sides), default=Fraction(0))
        hi = min((level / w[p] for level, w, _ in sides if w[p]), default=None)
        mu.append(_between(lo, hi))
    return tuple(m / mu[-1] for m in mu)


def brute_side(genus, delta):
    """Every well-formed (weights, locus) of one focus, by brute force."""
    if genus == 0:
        return [((0,) * delta, frozenset(range(delta)))]
    out = []
    for weights in product(range(genus + 1), repeat=delta):
        support = [p for p in range(delta) if weights[p]]
        for size in range(1, len(support) + 1):
            if genus <= sum(weights) < genus + size:
                out.extend((weights, frozenset(locus)) for locus in combinations(support, size))
    return out


def region_satisfies(desc, mu):
    """Whether mu meets every constraint of a ``strata.region`` description:
    sum(coeffs * mu) = 0 for "eq" and > 0 for "gt", in Fractions."""
    for c in desc.constraints:
        value = sum(Fraction(k) * Fraction(m) for k, m in zip(c.coeffs, mu))
        if not (value == 0 if c.relation == "eq" else value > 0):
            return False
    return True


def fraction_enumeration(config, candidates):
    """The strata of the realizable candidates, the Fraction way.

    Per ``make_key`` the smallest ``fraction_witness`` (as a Fraction tuple)
    is kept and classified by ``fraction_stratum_of``, in
    ``StratumKey.sort_token`` order.
    """
    kept = {}
    for alpha, I, beta, J in candidates:
        witness = fraction_witness(config, alpha, I, beta, J)
        key = make_key(config, alpha, I, beta, J)
        if key not in kept or witness < kept[key]:
            kept[key] = witness
    return [fraction_stratum_of(config, kept[key]) for key in sorted(kept, key=StratumKey.sort_token)]
