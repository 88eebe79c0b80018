"""Degree bookkeeping for limit Weierstrass divisors.

This is a pure degree calculus: ramification divisors themselves need an
actual curve, but their degrees, the node coefficients, and the total are
determined by the stratum data alone.  Two equivalent presentations are
computed: one with systems in the stratum-adapted sheaves (node coefficient
g(g - 1 - alpha_p - beta_p)) and a normalized one with systems in the fixed
ambient sheaves (node coefficient g(delta - 2) at every node); they differ
per node by the base-change terms g(g_Y - alpha_p) + g(g_X - beta_p).  Both
must total g^3 - g, the degree of the Weierstrass divisor on a smooth curve
of genus g.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CurveConfig


@dataclass(frozen=True)
class WeierstrassForm:
    deg_r_x: int
    deg_r_y: int
    node_coeffs: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.deg_r_x + self.deg_r_y + sum(self.node_coeffs)


@dataclass(frozen=True)
class WeierstrassDegrees:
    stratum_form: WeierstrassForm
    normalized: WeierstrassForm

    @property
    def deg_r_x(self) -> int:
        return self.stratum_form.deg_r_x

    @property
    def deg_r_y(self) -> int:
        return self.stratum_form.deg_r_y

    @property
    def node_coeffs(self) -> tuple[int, ...]:
        return self.stratum_form.node_coeffs

    @property
    def total(self) -> int:
        return self.stratum_form.total


def pluecker_ramification_degree(rank: int, degree: int, component_genus: int) -> int:
    """Degree of the ramification divisor of a rank-`rank` linear system of
    the given degree on a smooth curve of the given genus."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return rank * (degree + (rank - 1) * (component_genus - 1))


def weierstrass_degrees(config: CurveConfig, s) -> WeierstrassDegrees:
    """Both degree presentations of the limit Weierstrass divisor for s."""
    g = config.genus
    a_total, b_total = sum(s.alpha), sum(s.beta)
    deg_lx = 2 * config.g_x - 2 + config.delta + a_total
    deg_my = 2 * config.g_y - 2 + config.delta + b_total
    stratum_form = WeierstrassForm(
        deg_r_x=pluecker_ramification_degree(g, deg_lx, config.g_x),
        deg_r_y=pluecker_ramification_degree(g, deg_my, config.g_y),
        node_coeffs=tuple(
            g * (g - 1 - a - b) for a, b in zip(s.alpha, s.beta)
        ),
    )
    deg_amb_x = 2 * config.g_x - 2 + config.delta * (1 + config.g_y)
    deg_amb_y = 2 * config.g_y - 2 + config.delta * (1 + config.g_x)
    normalized = WeierstrassForm(
        deg_r_x=pluecker_ramification_degree(g, deg_amb_x, config.g_x),
        deg_r_y=pluecker_ramification_degree(g, deg_amb_y, config.g_y),
        node_coeffs=tuple(g * (config.delta - 2) for _ in range(config.delta)),
    )
    return WeierstrassDegrees(stratum_form=stratum_form, normalized=normalized)

