"""Exact stratification of limit canonical systems on two-component nodal curves.

The package computes, for a nodal curve with two components meeting at
delta general points: the numerical data attached to node weights, the
semistable model and its twist multidegrees, the stratification of the
variety of limit canonical systems (dimensions, closure relations,
component counts), limit Weierstrass divisor degrees, and exact
torus-orbit-closure checks in small Grassmannians.  All arithmetic is
exact rational.
"""

from .model import (
    CurveConfig,
    DivisorOnModel,
    MultiDegree,
    SemistableModel,
    aspect_dimensions,
    build_model,
    correction_numbers,
    intersection,
    multidegree_of_twisted_dualizing,
    twist_divisor_focus_X,
    twist_divisor_focus_Y,
)
from .numdata import NumericalData, associated_data, verify_conditions
from .poset import (
    ClosurePoset,
    build_poset,
    closure_of,
    components,
    count_formulas,
)
from .strata import (
    CapExceeded,
    RegionDescription,
    StratumData,
    StratumKey,
    enumerate_strata,
    realizable,
    region,
    stratum_dim,
    stratum_key,
    stratum_of,
)
from .weier import WeierstrassDegrees, pluecker_ramification_degree, weierstrass_degrees

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ClosurePoset",
    "CurveConfig",
    "DivisorOnModel",
    "MultiDegree",
    "NumericalData",
    "RegionDescription",
    "SemistableModel",
    "StratumData",
    "StratumKey",
    "WeierstrassDegrees",
    "aspect_dimensions",
    "associated_data",
    "build_model",
    "build_poset",
    "closure_of",
    "components",
    "correction_numbers",
    "count_formulas",
    "enumerate_strata",
    "intersection",
    "multidegree_of_twisted_dualizing",
    "pluecker_ramification_degree",
    "realizable",
    "region",
    "stratum_dim",
    "stratum_key",
    "stratum_of",
    "twist_divisor_focus_X",
    "twist_divisor_focus_Y",
    "verify_conditions",
    "weierstrass_degrees",
]
