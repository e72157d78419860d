"""Finite-dimensional bubble calculus on the standard half-sphere.

The package provides the hemisphere geometry and polynomial curvature
fields, concentration profiles with their interaction coefficients, the
reduced energy with first-class error bars, the critical-point landscape,
the census of admissible asymptotic collections with the combinatorial
existence tests, and the region-classified descent flow in parameter
space.
"""

from .bubbles import BubbleParam, delta, epsilon, phi_approx
from .census import CensusEntry, ExistenceVerdict, enumerate_census, existence_check
from .constants import ConstantsTable, compute_constants
from .fields import ScalarField
from .flow import FlowParams, PseudogradientFlow, Trajectory
from .geometry import (BoundarySpherePoint, HalfSpacePoint, SpherePoint,
                       geodesic_distance, stereographic_to_halfspace)
from .intervals import Bar
from .landscape import CriticalPointRecord, check_assumptions, classify, find_critical_points
from .model import Configuration, ReducedModel

__version__ = "0.1.0"

__all__ = [
    "Bar", "BoundarySpherePoint", "BubbleParam", "CensusEntry", "Configuration",
    "ConstantsTable", "CriticalPointRecord", "ExistenceVerdict", "FlowParams",
    "HalfSpacePoint", "PseudogradientFlow", "ReducedModel",
    "ScalarField", "SpherePoint", "Trajectory", "check_assumptions", "classify",
    "compute_constants", "delta", "enumerate_census", "epsilon", "existence_check",
    "find_critical_points", "geodesic_distance", "phi_approx",
    "stereographic_to_halfspace",
]
