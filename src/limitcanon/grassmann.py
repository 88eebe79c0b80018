"""Exact torus-orbit-closure combinatorics in small Grassmannians.

A subspace V of k^n with all Pluecker coordinates nonzero has a torus orbit
whose closure decomposes into orbits of the degenerate subspaces

    V_T = k_first + (k_middle  intersect  (V + k_last))

over ordered tripartitions T = (first, middle, last) of the coordinate set
with |first| < dim V <= n - |last| (a point, dim V = 0, is fixed by the
torus and its closure is its own orbit).

V_T is the limit of V under the one-parameter subgroup with weights -1 on
first, 0 on middle and +1 on last.  Because every Pluecker coordinate of V
is nonzero (the general-position condition, checked on every call), the
lowest weight is taken exactly on the interval support

    S(T) = {b : first <= b <= first + middle},

so the Pluecker vector of V_T is V's own restricted to S(T) (Gelfand,
Goresky, MacPherson and Serganova, 1987).  Closure sets are
therefore read off one Pluecker vector by masking, without computing any
V_T; the relation lattice of each S(T) depends on (n, dim V) alone and is
computed once per shape.  ``tripartition_degenerate`` builds V_T by linear
algebra for callers that want the subspace itself: k_middle meets
V + k_last in the middle projection of the kernel {v in V : v_first = 0},
which one row reduction of V with the first columns leading gives.

The layer computes in integers up to its outputs.  A ``Subspace`` keeps
its Pluecker vector: ``pluecker`` computes it once, from integer minors,
and returns the stored vector after that.  Each torus invariant is one
``power_product`` of raw Pluecker coordinates, the base coordinate at
minus the sum of the other exponents, so no ratio is built and each
invariant is one ``Fraction`` of two integer products.

Orbits are identified here by
*fingerprints*: the Pluecker support pattern together with the values of a
canonical basis of torus-invariant ratio monomials (the relation lattice of
the support's exponent differences).  Fingerprint equality decides orbit
equality over an algebraically closed field, so W is in the closure of the
orbit of V when its support is some S(T) and its invariants there are V's.
A coupled pair, whose coupling binds only the shared middle nodes, is
decided by an integer-lattice consistency test on the prescribed ratios
(solvable over an algebraically closed extension iff every integer relation
among the exponent vectors forces the matching product of ratios to be 1).
No root extraction is ever attempted; everything stays exact.

The two-factor version couples subspaces V in k^I and W in k^J along the
subtorus  {(s, t) : s_i^tau t_j^lam = s_j^tau t_i^lam for i, j in I cap J}
with lam, tau positive coprime integers (the stratum pipeline orientation
is lam = alpha_tilde, tau = beta_tilde); a pair of tripartitions must in
addition satisfy the two implications of ``tripartitions.pair_compatible``.

Everything is desk scale: ambient size at most 6, dimension at most 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType

from .linalg import (
    _ZERO,
    _bareiss,
    _integer_scaled,
    hnf_rows,
    monomial_system_solvable,
    power_product,
    relation_lattice,
    rref,
)
from .tripartitions import Tripartition, pair_compatible, tripartitions

AMBIENT_MAX = 6
DIM_MAX = 4
_ONE = Fraction(1)


def _desk_guard(n: int, h: int):
    if n > AMBIENT_MAX or h > DIM_MAX:
        raise ValueError(
            f"desk-scale guard: ambient {n} > {AMBIENT_MAX} or dimension {h} > {DIM_MAX}"
        )


class Subspace:
    """Exact rational subspace of k^n, canonicalized to row echelon form.

    Immutable.  ``pluecker`` stores the Pluecker vector on the subspace the
    first time it is asked; it takes no part in equality, hashing or the
    repr.
    """

    __slots__ = ("ambient", "rows", "_pluecker")

    def __init__(self, basis, ambient: int | None = None):
        if ambient is not None and ambient < 0:
            raise ValueError(f"the ambient size must be nonnegative, got {ambient}")
        rows = [tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in basis]
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("basis rows must have equal length")
        else:
            if ambient is None:
                raise ValueError("an empty basis needs an explicit ambient size")
            n = ambient
        if ambient is not None and ambient != n:
            raise ValueError("ambient size does not match the rows")
        reduced, pivots = rref(rows, n)
        if rows and len(reduced) != len(rows):
            raise ValueError("basis must be linearly independent")
        self.ambient = n
        self.rows = tuple(reduced)
        self._pluecker = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


@dataclass(frozen=True)
class PlueckerVector:
    """Maximal minors in lexicographic column-subset order, first nonzero 1."""

    ambient: int
    dim: int
    coords: tuple[Fraction, ...]

    def subsets(self):
        return list(combinations(range(self.ambient), self.dim))

    def support(self):
        return tuple(b for b, c in zip(self.subsets(), self.coords) if c != 0)


@dataclass(frozen=True)
class OrbitFingerprint:
    support: tuple
    invariants: tuple


@dataclass(frozen=True)
class PairFingerprint:
    support_v: tuple
    support_w: tuple
    invariants: tuple


def pluecker(V: Subspace) -> PlueckerVector:
    """Pluecker coordinates of the canonical basis, normalized projectively.

    Each row is cleared of denominators once, which scales every maximal
    minor by one factor that the normalization removes; each minor is then
    an integer Bareiss determinant of the cleared rows.  The vector is
    computed once per subspace: it is stored on V and returned after that.
    """
    pv = V._pluecker
    if pv is not None:
        return pv
    _desk_guard(V.ambient, V.dim)
    if V.dim == 0:
        pv = PlueckerVector(V.ambient, 0, (Fraction(1),))
    else:
        rows = [_integer_scaled(row)[0] for row in V.rows]
        minors = [
            _bareiss([[row[c] for c in cols] for row in rows])
            for cols in combinations(range(V.ambient), V.dim)
        ]
        scale = next(v for v in minors if v)
        pv = PlueckerVector(V.ambient, V.dim, tuple(Fraction(v, scale) for v in minors))
    V._pluecker = pv
    return pv


def _units(n, positions):
    out = []
    for p in sorted(positions):
        row = [_ZERO] * n
        row[p] = _ONE
        out.append(row)
    return out


def tripartition_degenerate(V: Subspace, tri: Tripartition) -> Subspace:
    """The subspace k_first + (k_middle intersect (V + k_last)).

    A vector of k_middle is v + l with v in V and l in k_last exactly when v
    vanishes on first and equals it on middle, so the intersection is the
    middle projection of the kernel {v in V : v_first = 0}.  One row
    reduction of V with the first columns leading and the middle ones next
    gives that kernel: it is spanned by the rows whose pivot is not in
    first, and the rows whose pivot is in middle project to a basis of its
    image.  Outside the qualifying range the dimension may differ from
    dim V; the result is returned as computed, never adjusted.
    """
    n = V.ambient
    if tri.ambient != frozenset(range(n)):
        raise ValueError("tripartition must cover the ambient index set")
    first, middle = sorted(tri.first), sorted(tri.middle)
    order = first + middle + sorted(tri.last)
    reduced, pivots = rref([[row[c] for c in order] for row in V.rows], n)
    lo, hi = len(first), len(first) + len(middle)
    gens = _units(n, first)
    for row, p in zip(reduced, pivots):
        if lo <= p < hi:
            vec = [_ZERO] * n
            for k in range(p, hi):
                vec[order[k]] = row[k]
            gens.append(vec)
    return Subspace(gens, ambient=n)


def _limit_support(support, exps):
    """The support of the limit under exponents exps: the members b of
    ``support`` (a Pluecker support) of minimal weight sum(exps[i] for i in b)."""
    weights = [sum(map(exps.__getitem__, b)) for b in support]
    floor = min(weights)
    return tuple(b for b, w in zip(support, weights) if w == floor)


def _masked(pv: PlueckerVector, supp) -> PlueckerVector:
    """pv with every coordinate outside supp set to zero."""
    coords = tuple(c if b in supp else _ZERO for b, c in zip(pv.subsets(), pv.coords))
    return PlueckerVector(pv.ambient, pv.dim, coords)


def _support_characters(supp, width: int, offset: int = 0):
    """Torus characters of a support: for each member b after the first,
    base, the exponent difference e_b - e_base, placed at ``offset`` in a
    row of ``width`` entries."""
    base = supp[0]
    chars = []
    for b in supp[1:]:
        row = [0] * width
        for i in b:
            row[offset + i] += 1
        for i in base:
            row[offset + i] -= 1
        chars.append(tuple(row))
    return chars


def _characters(pv: PlueckerVector, width: int, offset: int = 0, reference=None):
    """Torus characters and coordinate ratios of pv's support.

    The characters are ``_support_characters``; each comes with the ratio
    pv_b / pv_base, divided by the same ratio of ``reference`` when one is
    given.
    """
    live = [(b, c) for b, c in zip(pv.subsets(), pv.coords) if c != 0]
    (base, base_c), rest = live[0], live[1:]
    ref = None if reference is None else dict(zip(reference.subsets(), reference.coords))
    values = [c / base_c if ref is None else (c / base_c) / (ref[b] / ref[base]) for b, c in rest]
    return _support_characters([b for b, _ in live], width, offset), values


def orbit_fingerprint(pv: PlueckerVector) -> OrbitFingerprint:
    """Support pattern plus canonical torus-invariant cross-ratios.

    An interval support S(T) takes its shape from ``_closure_shapes``; any
    other support has its shape computed here and kept nowhere.
    """
    n, h = pv.ambient, pv.dim
    supp = pv.support()
    desk = n <= AMBIENT_MAX and h <= DIM_MAX
    shape = _closure_shapes(n, h).get(supp) if desk else None
    if shape is None:
        shape = _shape(supp, [k for k, c in enumerate(pv.coords) if c], n)
    return OrbitFingerprint(supp, _invariants(pv, *shape))


def _require_general_position(pv: PlueckerVector):
    if any(c == 0 for c in pv.coords):
        raise ValueError("all Pluecker coordinates must be nonzero")


def _qualifying(n: int, h: int):
    """Tripartitions of range(n) with |first| < h <= n - |last|.

    A point (h = 0) is fixed by the torus, so its closure is its own orbit:
    it gets the one tripartition (empty, empty, everything) its support
    reads, whose degenerate subspace is the point itself.
    """
    if h == 0:
        return [Tripartition(frozenset(), frozenset(), frozenset(range(n)))]
    return [t for t in tripartitions(range(n)) if len(t.first) < h <= n - len(t.last)]


def _interval_support(tri: Tripartition, n: int, h: int):
    """S(T): the h-subsets b with first <= b <= first + middle, in
    lexicographic order."""
    low, high = tri.first, tri.first | tri.middle
    return tuple(b for b in combinations(range(n), h) if low <= frozenset(b) <= high)


def _shape(supp, positions, n: int):
    """The shape of a support: the positions of its members among the
    h-subsets, and for each relation of the lattice of its torus characters
    the exponents of the coordinates at those positions.  A relation rel
    weighs the ratios pv_b / pv_base over the members after the first,
    base, so base gets the exponent -sum(rel) and no ratio is built."""
    relations = relation_lattice(_support_characters(supp, n))
    return tuple(positions), tuple((-sum(rel),) + rel for rel in relations)


@lru_cache(maxsize=None)
def _closure_shapes(n: int, h: int):
    """Read-only map from each distinct S(T) over the qualifying
    tripartitions T to its ``_shape``.  Depends on (n, h) only; the desk
    guard keeps the cache to a few dozen entries."""
    position = {b: k for k, b in enumerate(combinations(range(n), h))}
    shapes = {}
    for tri in _qualifying(n, h):
        supp = _interval_support(tri, n, h)
        if supp not in shapes:
            shapes[supp] = _shape(supp, [position[b] for b in supp], n)
    return MappingProxyType(shapes)


def _invariants(pv: PlueckerVector, positions, exponents):
    """The torus invariants of pv over one shape: for each exponent vector,
    the product of pv's coordinates at the shape's positions."""
    values = [pv.coords[k] for k in positions]
    return tuple(power_product(values, e) for e in exponents)


def closure_orbit_set(V: Subspace):
    """Fingerprints of every orbit in the closure of the torus orbit of V.

    Each orbit is that of V_T, whose Pluecker vector is V's restricted to
    S(T); its invariants are the lattice's products of V's ratios.
    """
    _desk_guard(V.ambient, V.dim)
    pv = pluecker(V)
    _require_general_position(pv)
    return frozenset(
        OrbitFingerprint(supp, _invariants(pv, *shape))
        for supp, shape in _closure_shapes(V.ambient, V.dim).items()
    )


def _support_parts(supp, n: int):
    """The tripartition of range(n) into coordinates in every support member,
    in some and in none; and whether the support is that whole interval,
    every subset of its size containing the first part and missing the last."""
    members = [frozenset(b) for b in supp]
    low, high = frozenset.intersection(*members), frozenset.union(*members)
    spanned = [b for b in combinations(sorted(high), len(supp[0])) if low <= frozenset(b)]
    return Tripartition(low, high - low, frozenset(range(n)) - high), set(supp) == set(spanned)


def in_closure(W: Subspace, V: Subspace) -> bool:
    """Exact membership of W in the closure of the torus orbit of V: W's
    support is some S(T) and its invariants there are V's (the orbit of V_T)."""
    if W.ambient != V.ambient or W.dim != V.dim:
        raise ValueError("subspaces must share ambient and dimension")
    pv = pluecker(V)
    _require_general_position(pv)
    qw = pluecker(W)
    shape = _closure_shapes(W.ambient, W.dim).get(qw.support())
    return shape is not None and _invariants(qw, *shape) == _invariants(pv, *shape)


def brute_force_closure_fingerprints(V: Subspace, bound: int = 3):
    """Fingerprints of limits of V under every 1-PSG with |exponent| <= bound.

    All scalars are 1: the limit point's surviving ratios are those of V, so
    the fingerprint depends only on the minimizing support, which is what the
    enumeration collects before fingerprinting.
    """
    _desk_guard(V.ambient, V.dim)
    pv = pluecker(V)
    live = pv.support()
    supports = {
        _limit_support(live, exps)
        for exps in product(range(-bound, bound + 1), repeat=V.ambient)
    }
    return frozenset(orbit_fingerprint(_masked(pv, supp)) for supp in supports)


# ---------------------------------------------------------------------------
# paired orbits


def _pair_spaces(I, J):
    I, J = tuple(I), tuple(J)
    if len(set(I)) != len(I) or len(set(J)) != len(J):
        raise ValueError("index labels must be distinct")
    shared = sorted(set(I) & set(J))
    pos_i = {l: k for k, l in enumerate(I)}
    pos_j = {l: k for k, l in enumerate(J)}
    return I, J, shared, pos_i, pos_j


def _torus_lattice(lam, tau, I, J, shared, pos_i, pos_j):
    """Generators of the character lattice cutting out the coupling torus."""
    ni, nj = len(I), len(J)
    gens = []
    if len(shared) >= 2:
        l0 = shared[0]
        for l in shared[1:]:
            row = [0] * (ni + nj)
            row[pos_i[l]] += tau
            row[pos_i[l0]] -= tau
            row[ni + pos_j[l]] -= lam
            row[ni + pos_j[l0]] += lam
            gens.append(tuple(row))
    return gens


def _pair_characters(pv, qw, ni, nj, refs=(None, None)):
    """``_characters`` of pv (on the first ni entries) and of qw (on the
    next nj), stacked."""
    chars_v, values_v = _characters(pv, ni + nj, 0, refs[0])
    chars_w, values_w = _characters(qw, ni + nj, ni, refs[1])
    return chars_v + chars_w, values_v + values_w


def _pair_fingerprint_from(pv, qw, lam, tau, I, J, shared, pos_i, pos_j):
    chars, values = _pair_characters(pv, qw, len(I), len(J))
    torus = _torus_lattice(lam, tau, I, J, shared, pos_i, pos_j)
    stacked = chars + torus
    k = len(chars)
    if stacked:
        projections = [rel[:k] for rel in relation_lattice(stacked)]
        basis = hnf_rows(projections)
    else:
        basis = []
    invariants = tuple(power_product(values, rel) for rel in basis)
    return PairFingerprint(pv.support(), qw.support(), invariants)


def _pair_setup(V, W, alpha_tilde, beta_tilde, I, J):
    """Check the arguments of a coupled pair; return the Pluecker vectors of
    V and W (both in general position) and the label data of ``_pair_spaces``."""
    if len(I) != V.ambient or len(J) != W.ambient:
        raise ValueError("label tuples must match the ambient sizes")
    if alpha_tilde < 1 or beta_tilde < 1:
        raise ValueError("the coupling exponents must be positive integers")
    _desk_guard(V.ambient, V.dim)
    _desk_guard(W.ambient, W.dim)
    spaces = _pair_spaces(I, J)
    pv, qw = pluecker(V), pluecker(W)
    _require_general_position(pv)
    _require_general_position(qw)
    return (pv, qw) + spaces


def _labelled(tri: Tripartition, labels):
    """tri with each position p renamed labels[p]; the labels are distinct
    (``_pair_spaces`` checks them), so the parts stay disjoint."""
    return tuple.__new__(Tripartition, (frozenset(labels[p] for p in part) for part in tri))


def _compatible_pairs(V: Subspace, W: Subspace, I, J):
    """Qualifying tripartition pairs of (V, W) whose labelled versions are
    ``pair_compatible``, in a deterministic order."""
    tris_w = [(tj, _labelled(tj, J)) for tj in _qualifying(W.ambient, W.dim)]
    I_set, J_set = frozenset(I), frozenset(J)
    for ti in _qualifying(V.ambient, V.dim):
        labelled_i = _labelled(ti, I)
        for tj, labelled_j in tris_w:
            if pair_compatible(labelled_i, labelled_j, I_set, J_set):
                yield ti, tj


def pair_closure_orbit_set(V: Subspace, W: Subspace, alpha_tilde: int, beta_tilde: int, I, J):
    """Fingerprints of all orbit pairs in the closure of the coupled orbit:
    V and W restricted to S(ti) and S(tj) for each compatible pair."""
    pv, qw, I, J, shared, pos_i, pos_j = _pair_setup(V, W, alpha_tilde, beta_tilde, I, J)
    return frozenset(
        _pair_fingerprint_from(
            _masked(pv, _interval_support(ti, V.ambient, V.dim)),
            _masked(qw, _interval_support(tj, W.ambient, W.dim)),
            alpha_tilde, beta_tilde, I, J, shared, pos_i, pos_j,
        )
        for ti, tj in _compatible_pairs(V, W, I, J)
    )


def in_pair_closure(nu, reference, alpha_tilde: int, beta_tilde: int, I, J) -> bool:
    """Membership of the pair nu = (W1, W2) in the coupled orbit closure of
    reference = (V1, V2)."""
    W1, W2 = nu
    V1, V2 = reference
    pv1, pv2, I, J, shared, pos_i, pos_j = _pair_setup(V1, V2, alpha_tilde, beta_tilde, I, J)
    if W1.ambient != V1.ambient or W2.ambient != V2.ambient:
        raise ValueError("ambient sizes must match")
    if W1.dim != V1.dim or W2.dim != V2.dim:
        raise ValueError("dimensions must match")
    q1, q2 = pluecker(W1), pluecker(W2)
    tri_i, ok1 = _support_parts(q1.support(), W1.ambient)
    tri_j, ok2 = _support_parts(q2.support(), W2.ambient)
    if not ok1 or not ok2:
        return False
    tri_i, tri_j = _labelled(tri_i, I), _labelled(tri_j, J)
    if not pair_compatible(tri_i, tri_j, set(I), set(J)):
        return False
    chars, values = _pair_characters(q1, q2, len(I), len(J), (pv1, pv2))
    middle_shared = sorted(tri_i.middle & tri_j.middle & set(shared))
    torus = _torus_lattice(alpha_tilde, beta_tilde, I, J, middle_shared, pos_i, pos_j)
    return monomial_system_solvable(chars, values, torus)


def _pair_recipe_cochar(supp_v, supp_w, lam, tau, I, J, nV, nW):
    """A coupling 1-PSG whose limit of the reference pair has the given
    supports; follows the three-case construction on the support parts."""
    ti = _labelled(_support_parts(supp_v, nV)[0], I)
    tj = _labelled(_support_parts(supp_w, nW)[0], J)
    I1, I2, I3 = ti.first, ti.middle, ti.last
    J1, J2, J3 = tj.first, tj.middle, tj.last
    shared = set(I) & set(J)
    u = {l: 0 for l in I}
    v = {l: 0 for l in J}
    for l in I1 - shared:
        u[l] = -1
    for l in I3 - shared:
        u[l] = 1
    for l in J1 - shared:
        v[l] = -1
    for l in J3 - shared:
        v[l] = 1
    if shared == (I1 & J1) | (I2 & J2) | (I3 & J3):
        for l in I1 & J1:
            u[l], v[l] = -lam, -tau
        for l in I3 & J3:
            u[l], v[l] = lam, tau
    elif shared == (I1 & J1) | (I2 & J1) | (I3 & J1) | (I3 & J2) | (I3 & J3):
        for l in I1 & J1:
            u[l], v[l] = -lam, -3 * tau
        for l in I2 & J1:
            u[l], v[l] = 0, -2 * tau
        for l in I3 & J1:
            u[l], v[l] = lam, -tau
        for l in I3 & J2:
            u[l], v[l] = 2 * lam, 0
        for l in I3 & J3:
            u[l], v[l] = 3 * lam, tau
    elif shared == (I1 & J1) | (I1 & J2) | (I1 & J3) | (I2 & J3) | (I3 & J3):
        for l in J1 & I1:
            v[l], u[l] = -tau, -3 * lam
        for l in J2 & I1:
            v[l], u[l] = 0, -2 * lam
        for l in J3 & I1:
            v[l], u[l] = tau, -lam
        for l in J3 & I2:
            v[l], u[l] = 2 * tau, 0
        for l in J3 & I3:
            v[l], u[l] = 3 * tau, lam
    else:
        raise AssertionError("support pair matches none of the coupling cases")
    return (
        tuple(u[l] for l in I),
        tuple(v[l] for l in J),
    )


def pair_brute_force_fingerprints(
    V: Subspace, W: Subspace, alpha_tilde: int, beta_tilde: int, I, J
):
    """Fingerprints of limits of (V, W) under a family of coupling 1-PSGs.

    The sampled exponent pairs satisfy the coupling lattice condition
    exactly; the construction-recipe directions for every qualifying
    tripartition pair are included so that every predicted boundary orbit is
    reached by at least one sample.
    """
    pv, qw, I, J, shared, pos_i, pos_j = _pair_setup(V, W, alpha_tilde, beta_tilde, I, J)
    lam, tau = alpha_tilde, beta_tilde
    ni, nj = len(I), len(J)
    free_i = [k for k, l in enumerate(I) if l not in shared]
    free_j = [k for k, l in enumerate(J) if l not in shared]
    live_v, live_w = pv.support(), qw.support()
    support_pairs = set()

    def register(uexps, vexps):
        support_pairs.add((_limit_support(live_v, uexps), _limit_support(live_w, vexps)))

    base_a = range(-3 * lam, 3 * lam + 1)
    base_b = range(-3 * tau, 3 * tau + 1)
    k_range = range(-4, 5)
    free_range = range(-2, 3)
    if shared:
        extras = shared[1:]
        for a in base_a:
            for b in base_b:
                for ks in product(k_range, repeat=len(extras)):
                    u = [0] * ni
                    v = [0] * nj
                    u[pos_i[shared[0]]] = a
                    v[pos_j[shared[0]]] = b
                    for l, k in zip(extras, ks):
                        u[pos_i[l]] = a + lam * k
                        v[pos_j[l]] = b + tau * k
                    for uf in product(free_range, repeat=len(free_i)):
                        for k, val in zip(free_i, uf):
                            u[k] = val
                        for vf in product(free_range, repeat=len(free_j)):
                            for k, val in zip(free_j, vf):
                                v[k] = val
                            register(tuple(u), tuple(v))
    else:
        for uexps in product(free_range, repeat=ni):
            for vexps in product(free_range, repeat=nj):
                register(uexps, vexps)

    for ti, tj in _compatible_pairs(V, W, I, J):
        sv = pluecker(tripartition_degenerate(V, ti)).support()
        sw = pluecker(tripartition_degenerate(W, tj)).support()
        register(*_pair_recipe_cochar(sv, sw, lam, tau, I, J, ni, nj))

    return frozenset(
        _pair_fingerprint_from(
            _masked(pv, supp_v), _masked(qw, supp_w), lam, tau, I, J, shared, pos_i, pos_j
        )
        for supp_v, supp_w in support_pairs
    )
