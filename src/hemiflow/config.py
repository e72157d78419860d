"""Run configuration: one JSON document drives every subcommand.

Schema (all keys optional except ``field``):

    {
      "dimension": 5,
      "field": {"kappa0": 1.0,
                "terms": [{"monomial": "x1", "coeff": 0.05}, ...]},
      "quadrature_tol": 1e-8,
      "seeds_per_dim": 10,
      "seed": 20240,
      "grid_density": 12,
      "mass_max": 4,
      "flow": {"M0": ..., "M2": ..., "M4": ..., "eta": 0.1, "eps": 0.1,
               "max_qp": 2, "strict_lambda_sign": true},
      "output_dir": "out"
    }

Scalar values can be overridden from the command line; the field family
itself always comes from the file.  ``seeds_per_dim`` (at least 8) and
``seed`` are validated and stamped into artifacts, but the landscape is an
exact enumeration and does not depend on them.  ``grid_density`` is
validated by ``ScalarField.min_max`` (at least 10) but has no effect: the
extrema are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .errors import ConfigError
from .fields import ScalarField
from .flow import FlowParams


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


# settable flow parameters and the type each is converted to
_FLOW_TYPES = {"M0": float, "M2": float, "M4": float, "eta": float, "eps": float,
              "max_qp": int, "strict_lambda_sign": _flag}


@dataclass
class RunConfig:
    n: int
    field_spec: dict
    quadrature_tol: float = 1e-8
    seeds_per_dim: int = 10
    seed: int = 20240
    grid_density: int = 12
    mass_max: int = 4
    flow: FlowParams = dc_field(default_factory=FlowParams)
    output_dir: str = "out"

    def __post_init__(self):
        if self.n < 5:
            raise ConfigError("dimension must be at least 5")
        for name in ("quadrature_tol",):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.seeds_per_dim < 8:
            raise ConfigError("seeds_per_dim must be at least 8")

    def build_field(self) -> ScalarField:
        spec = dict(self.field_spec)
        spec.setdefault("dimension", self.n)
        return ScalarField.from_config(spec)

    def stamp(self) -> dict:
        """Reproducibility header embedded in every artifact."""
        return {
            "dimension": self.n,
            "seed": self.seed,
            "quadrature_tol": self.quadrature_tol,
            "field": self.field_spec,
        }

    @staticmethod
    def load(path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
        return RunConfig.from_json(doc)

    @staticmethod
    def from_json(doc: dict) -> "RunConfig":
        if "field" not in doc:
            raise ConfigError("configuration must provide a 'field' section")
        flow_doc = doc.get("flow", {})
        if not isinstance(flow_doc, dict):
            raise ConfigError("'flow' must be an object")
        unknown = set(flow_doc) - _FLOW_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown flow parameters: {sorted(unknown)}")
        try:
            flow = FlowParams(**{k: _FLOW_TYPES[k](v) for k, v in flow_doc.items()})
            return RunConfig(
                n=int(doc.get("dimension", 5)),
                field_spec=dict(doc["field"]),
                quadrature_tol=float(doc.get("quadrature_tol", 1e-8)),
                seeds_per_dim=int(doc.get("seeds_per_dim", 10)),
                seed=int(doc.get("seed", 20240)),
                grid_density=int(doc.get("grid_density", 12)),
                mass_max=int(doc.get("mass_max", 4)),
                flow=flow,
                output_dir=str(doc.get("output_dir", "out")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid configuration value: {exc}") from exc
