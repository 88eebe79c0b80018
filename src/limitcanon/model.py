"""Dual graph of the semistable model of a two-component curve, with twists.

The curve has two components X and Y of arithmetic genera g_X, g_Y meeting
at delta nodes.  Replacing the node p by a chain of mu_p - 1 smooth rational
curves Z_{p,1}, ..., Z_{p,mu_p-1} (conventionally Z_{p,0} = X and
Z_{p,mu_p} = Y) yields the semistable model for the weight vector mu.  This
module builds the dual graph, its intersection pairing (self-intersections
are forced by the total fiber being numerically trivial), the two standard
twist divisors supported off X resp. off Y, and the multidegrees of the
dualizing sheaf twisted by such divisors.

As in the paper, the nodes are general points of X and Y: the library
assumes general position throughout, and the dimension formulas
(``aspect_dimensions`` here, ``strata.stratum_dim``) hold under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .numdata import NumericalData

X = "X"
Y = "Y"


def chain_component(p: int, j: int) -> tuple:
    return ("Z", p, j)


@dataclass(frozen=True)
class CurveConfig:
    """Two-component curve data: genera, number of nodes, node labels."""

    g_x: int
    g_y: int
    delta: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be positive")
        if self.g_x < 0 or self.g_y < 0:
            raise ValueError("genera must be nonnegative")
        if self.delta == 1 and self.g_x * self.g_y == 0:
            raise ValueError("need delta > 1 or both genera positive")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"p{i+1}" for i in range(self.delta)))
        if len(self.labels) != self.delta or len(set(self.labels)) != self.delta:
            raise ValueError("labels must be distinct and match delta")

    @property
    def genus(self) -> int:
        return self.g_x + self.g_y + self.delta - 1


@dataclass(frozen=True)
class SemistableModel:
    config: CurveConfig
    mu: tuple[int, ...]
    components: tuple = field(repr=False)
    nodes: tuple = field(repr=False)  # ordered pairs of components

    def component_index(self, comp) -> int:
        try:
            return self.components.index(comp)
        except ValueError:
            raise KeyError(f"unknown component {comp!r}") from None


class DivisorOnModel:
    """Integer combination of components of a semistable model."""

    def __init__(self, model: SemistableModel, coefficients: dict):
        for comp in coefficients:
            model.component_index(comp)
        self.model = model
        self.coefficients = {c: int(v) for c, v in coefficients.items() if v}

    def coeff(self, comp) -> int:
        self.model.component_index(comp)
        return self.coefficients.get(comp, 0)

    def __eq__(self, other):
        return (
            isinstance(other, DivisorOnModel)
            and self.model is other.model
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"DivisorOnModel({self.coefficients!r})"


@dataclass(frozen=True)
class MultiDegree:
    degrees: tuple  # pairs (component, degree) in model component order

    def degree(self, comp) -> int:
        for c, d in self.degrees:
            if c == comp:
                return d
        raise KeyError(comp)

    @property
    def total(self) -> int:
        return sum(d for _, d in self.degrees)


def build_model(config: CurveConfig, mu) -> SemistableModel:
    """Dual graph of the semistable model for integral weights mu."""
    weights = []
    for m in mu:
        f = Fraction(m)
        if f.denominator != 1 or f <= 0:
            raise ValueError("mu entries must be positive integers")
        weights.append(int(f))
    if len(weights) != config.delta:
        raise ValueError("mu length must equal delta")
    comps = [X, Y]
    nodes = []
    for p, m in enumerate(weights):
        comps.extend(chain_component(p, j) for j in range(1, m))
        chain = [X] + [chain_component(p, j) for j in range(1, m)] + [Y]
        nodes.extend((chain[j], chain[j + 1]) for j in range(m))
    return SemistableModel(config, tuple(weights), tuple(comps), tuple(nodes))


def intersection(model: SemistableModel, E, F) -> int:
    """Intersection pairing: shared nodes off-diagonal, row-sum zero on it."""
    model.component_index(E)
    model.component_index(F)
    if E != F:
        return sum(1 for a, b in model.nodes if {a, b} == {E, F})
    return -sum(1 for a, b in model.nodes if (a == E) != (b == E))


def _valence_plus_pairing(model: SemistableModel, vector) -> list:
    """valence(E) + v.E for every component E, in one pass over the nodes.

    ``vector`` holds an integer per component, in component order.  Each end
    E of a node whose other end is F != E gains 1 + v_F - v_E (the node's
    share of the valence and of the pairing, which puts 1 on E.F and -1 on
    E.E); a loop gains 1 and pairs to nothing.
    """
    index = {comp: k for k, comp in enumerate(model.components)}
    out = [0] * len(index)
    for a, b in model.nodes:
        i, j = index[a], index[b]
        if i == j:
            out[i] += 1
        else:
            out[i] += 1 + vector[j] - vector[i]
            out[j] += 1 + vector[i] - vector[j]
    return out


def intersection_matrix(model: SemistableModel):
    """The pairing E_i.E_j, row by row: row k is the pass on the k-th unit
    vector minus the pass on zero (the pairing is symmetric)."""
    size = len(model.components)
    valence = _valence_plus_pairing(model, [0] * size)
    rows = []
    for k in range(size):
        unit = [0] * size
        unit[k] = 1
        rows.append([d - v for d, v in zip(_valence_plus_pairing(model, unit), valence)])
    return rows


def _require_integral(data: NumericalData):
    for r in data.rho:
        if Fraction(r).denominator != 1:
            raise ValueError("twist divisors need integral rho (integral mu)")
    if Fraction(data.level).denominator != 1:
        raise ValueError("twist divisors need an integral level")


def twist_divisor_focus_X(model: SemistableModel, data_x: NumericalData) -> DivisorOnModel:
    """Divisor D with omega(D) the canonical sheaf focused on X.

    Chain coefficients follow the closed form alpha_p * i + max(0, i - rho_p);
    the Y coefficient is the level (the common value gamma), X gets 0.
    """
    _require_integral(data_x)
    coeffs = {Y: int(data_x.level)}
    for p, m in enumerate(model.mu):
        a = data_x.alpha[p]
        r = int(data_x.rho[p])
        for i in range(1, m):
            coeffs[chain_component(p, i)] = a * i + max(0, i - r)
    return DivisorOnModel(model, coeffs)


def twist_divisor_focus_Y(model: SemistableModel, data_y: NumericalData) -> DivisorOnModel:
    """Mirror twist: chain coefficients beta_p*(mu_p - i) + max(0, sigma_p - i),
    where sigma_p = mu_p - (second component of the focus-Y data); X gets the
    level of that data (the common value epsilon)."""
    _require_integral(data_y)
    coeffs = {X: int(data_y.level)}
    for p, m in enumerate(model.mu):
        b = data_y.alpha[p]
        sigma = m - int(data_y.rho[p])
        for i in range(1, m):
            coeffs[chain_component(p, i)] = b * (m - i) + max(0, sigma - i)
    return DivisorOnModel(model, coeffs)


def component_genus(config: CurveConfig, comp) -> int:
    if comp == X:
        return config.g_x
    if comp == Y:
        return config.g_y
    return 0


def multidegree_of_twisted_dualizing(
    model: SemistableModel, config: CurveConfig, divisor: DivisorOnModel
) -> MultiDegree:
    """Degrees of omega_model(D) on every component.

    On a component E this is (2 g_E - 2 + #nodes on E) + D.E; the valence
    and D.E are read in one pass over the nodes, each end E of a node with
    other end F != E taking 1 + D_F - D_E and a loop 1.
    """
    comps = model.components
    twisted = _valence_plus_pairing(model, [divisor.coefficients.get(c, 0) for c in comps])
    return MultiDegree(
        tuple((c, 2 * component_genus(config, c) - 2 + t) for c, t in zip(comps, twisted))
    )


def correction_numbers(stratum):
    """Correction numbers at each node for the two foci: (alpha map, beta map)."""
    return (
        {p: a for p, a in enumerate(stratum.alpha)},
        {p: b for p, b in enumerate(stratum.beta)},
    )


def aspect_dimensions(config: CurveConfig, stratum) -> dict:
    """Section counts and codimensions of the two limit canonical aspects,
    for nodes in general position."""
    a_total = sum(stratum.alpha)
    b_total = sum(stratum.beta)
    size_i = len(stratum.I)
    h0_x = config.g_x + a_total + config.delta - 1
    h0_y = config.g_y + size_i - a_total if config.g_y > 0 else config.delta - 1
    return {
        "h0_X": h0_x,
        "h0_Y": h0_y,
        "codim_X": a_total - config.g_y,
        "codim_Y": b_total - config.g_x,
    }
