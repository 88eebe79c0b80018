"""Shared helpers for randomized exact-arithmetic tests.

When ``hypothesis`` is installed, its property tests run under one fixed
profile: derandomized, a fixed example count, no deadline and no example
database, so a run is deterministic and does not depend on earlier runs.
"""

import random
from fractions import Fraction
from math import lcm

from limitcanon.strata import _at_levels, stratum_of

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "limitcanon", derandomize=True, max_examples=100, deadline=None, database=None
    )
    settings.load_profile("limitcanon")


# the perfbench sweep grid: delta 2 and 3 at genera 0-5, and one-sided delta 4
SWEEP_GRID = [(g_x, g_y, d) for d in (2, 3) for g_x in range(6) for g_y in range(6) if g_x or g_y]
SWEEP_GRID += [(0, g, 4) for g in range(1, 6)] + [(g, 0, 4) for g in range(1, 6)]


def rand_mu(rng: random.Random, delta: int, top: int = 50, integral: bool = False):
    if integral:
        return tuple(Fraction(rng.randint(1, top)) for _ in range(delta))
    return tuple(
        Fraction(rng.randint(1, top), rng.randint(1, top)) for _ in range(delta)
    )


def rand_config_triple(rng: random.Random, max_delta=3, max_genus=4):
    while True:
        delta = rng.randint(1, max_delta)
        g_x = rng.randint(0, max_genus)
        g_y = rng.randint(0, max_genus)
        if delta > 1 or g_x * g_y > 0:
            return g_x, g_y, delta


def level_verdicts(cfg, mu, candidate, levels):
    """The level check's and ``stratum_of``'s verdicts on mu for a candidate.

    Both ask whether the rational vector mu carries the candidate at the
    levels (c, d) of focus X and focus Y (0 for a zero genus); the level
    check sees mu and the levels cleared to one integer scale.  A node moved
    alone can keep the data at a shifted level when it is its locus's only
    member; such a vector is no witness at these levels, for either check.
    """
    s = stratum_of(cfg, mu)
    classified = (s.alpha, s.I, s.beta, s.J) == candidate and (s.gamma, s.epsilon) == levels
    scale = lcm(*(Fraction(v).denominator for v in (*mu, *levels)))
    m, scaled = [int(v * scale) for v in mu], tuple(int(v * scale) for v in levels)
    return _at_levels(cfg, m, scaled, *candidate), classified
