"""Finite-dimensional bubble calculus on the standard half-sphere.

The package provides the hemisphere geometry and polynomial curvature
fields, concentration profiles with their interaction coefficients, the
reduced energy with first-class error bars, the critical-point landscape,
the census of admissible asymptotic collections with the combinatorial
existence tests, and the region-classified descent flow in parameter
space.

``import hemiflow`` loads no submodule: each exported name is looked up in
its submodule on first access (PEP 562), so a CLI process loads only the
layers its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "bubbles": ("BubbleParam", "delta", "epsilon", "phi_approx"),
    "census": ("CensusEntry", "ExistenceVerdict", "enumerate_census", "existence_check"),
    "config": ("FlowParams",),
    "constants": ("ConstantsTable", "compute_constants"),
    "fields": ("ScalarField",),
    "flow": ("PseudogradientFlow", "Trajectory"),
    "geometry": ("BoundarySpherePoint", "HalfSpacePoint", "SpherePoint",
                 "geodesic_distance", "stereographic_to_halfspace"),
    "intervals": ("Bar",),
    "landscape": ("CriticalPointRecord", "check_assumptions", "classify", "find_critical_points"),
    "model": ("Configuration", "ReducedModel"),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_SOURCE_OF)


def __getattr__(name):
    if name not in _SOURCE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCE_OF[name]}", __name__), name)
