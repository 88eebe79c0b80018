"""Tests for the limit Weierstrass degree calculus."""

import pytest

from limitcanon.model import CurveConfig
from limitcanon.strata import enumerate_strata, stratum_of
from limitcanon.weier import pluecker_ramification_degree, weierstrass_degrees
from oracles import base_change_terms


def test_ramification_degree_formula():
    # rank 1: the degree of the zero divisor of a section
    assert pluecker_ramification_degree(1, 7, 1) == 7
    # genus-0 chain piece carrying degree lam + nu
    g, lam, nu = 4, 2, 3
    assert pluecker_ramification_degree(g, lam + nu, 0) == g * (lam + nu - (g - 1))
    assert pluecker_ramification_degree(3, 4, 1) == 12
    with pytest.raises(ValueError):
        pluecker_ramification_degree(0, 4, 1)


@pytest.mark.parametrize("delta", [2, 3, 4, 5])
def test_elliptic_elliptic_normalized_node_coefficient(delta):
    cfg = CurveConfig(g_x=1, g_y=1, delta=delta)
    s = stratum_of(cfg, (1,) * delta)
    degs = weierstrass_degrees(cfg, s)
    assert set(degs.normalized.node_coeffs) == {(delta + 1) * (delta - 2)}


def test_total_is_weierstrass_degree_small_case():
    cfg = CurveConfig(g_x=1, g_y=1, delta=2)  # genus 3
    s = stratum_of(cfg, (1, 1))
    degs = weierstrass_degrees(cfg, s)
    assert degs.stratum_form.total == 24
    assert degs.normalized.total == 24


def _config_grid(max_genus_total):
    for delta in (1, 2, 3):
        for g_x in range(0, max_genus_total + 1):
            for g_y in range(g_x, max_genus_total + 1):
                if g_x + g_y + delta - 1 > max_genus_total:
                    continue
                if delta == 1 and g_x * g_y == 0:
                    continue
                if g_x + g_y + delta - 1 < 1:
                    continue
                yield CurveConfig(g_x=g_x, g_y=g_y, delta=delta)


def test_conservation_and_form_equivalence_on_grid():
    for cfg in _config_grid(8):
        g = cfg.genus
        for s in enumerate_strata(cfg):
            degs = weierstrass_degrees(cfg, s)
            assert degs.stratum_form.total == g ** 3 - g
            assert degs.normalized.total == g ** 3 - g
            shifts = base_change_terms(cfg, s)
            assert degs.normalized.deg_r_x + degs.normalized.deg_r_y == (
                degs.stratum_form.deg_r_x
                + degs.stratum_form.deg_r_y
                + sum(shifts)
            )
            for c_strat, c_norm, shift in zip(
                degs.stratum_form.node_coeffs, degs.normalized.node_coeffs, shifts
            ):
                assert c_strat - shift == c_norm


def test_node_coefficients_nonnegative_for_two_or_more_nodes():
    # alpha_p + beta_p <= g_X + g_Y = g - delta + 1 <= g - 1 once delta >= 2;
    # with a single node the coefficient may go negative (the ramification
    # parts absorb it), so only the delta >= 2 bound is asserted
    for cfg in _config_grid(7):
        g = cfg.genus
        for s in enumerate_strata(cfg):
            for a, b in zip(s.alpha, s.beta):
                if cfg.delta >= 2:
                    assert a + b <= g - 1
                    assert g * (g - 1 - a - b) >= 0
