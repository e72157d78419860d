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
validated at load (at least 10) but has no effect: the extrema are exact.
``mass_max`` must be at least 1.  The document must be a JSON object, and
field monomials must be strings such as ``"x1*x2"``.
Flow constants must be finite at load, ``M0``, ``M2``, ``M4``, ``eta`` and
``eps`` positive and ``max_qp`` at least 1; their smallness is checked by
``flow``.
Unset ``M0``/``M2``/``M4`` come from ``FlowParams.for_mass(max_qp, dimension)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .fields import ScalarField


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


# settable flow parameters and the type each is converted to
_FLOW_TYPES = {"M0": float, "M2": float, "M4": float, "eta": float, "eps": float,
              "max_qp": int, "strict_lambda_sign": _flag}


@dataclass(frozen=True)
class FlowParams:
    """The ``flow`` section: the constants of the descent field."""

    M0: float = 1.0e4
    M2: float = 10.0
    M4: float = 1.0e3
    eta: float = 0.1
    eps: float = 0.1
    max_qp: int = 2
    M_drift: float = 50.0   # gate for pairing drift with rate shrink
    strict_lambda_sign: bool = True
    smallness: float = 0.01
    dt_init: float = 0.05
    dt_max: float = 0.25
    stagnation_tol: float = 1e-10
    max_rejects: int = 10

    def check_values(self):
        """Every constant finite, M0, M2, M4, eta and eps positive, max_qp >= 1."""
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"flow constant {name} must be finite, got {value}")
        for name in ("M0", "M2", "M4", "eta", "eps"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"flow constant {name} must be positive, got {value}")
        if self.max_qp < 1:
            raise ConfigError(f"flow constant max_qp must be at least 1, got {self.max_qp}")

    def validate(self):
        # every comparison below is false on NaN, so finiteness comes first
        self.check_values()
        n_free = max(self.max_qp - 1, 1)
        checks = {
            "M0_over_M4sq": self.M0 / self.M4**2,
            "M2_over_M0root": self.M2 / self.M0 ** (1.0 / n_free),
        }
        if checks["M0_over_M4sq"] > self.smallness + 1e-12:
            raise ConfigError(f"M0/M4^2 = {checks['M0_over_M4sq']} exceeds {self.smallness}")
        if checks["M2_over_M0root"] > self.smallness + 1e-12:
            raise ConfigError("M2 too large against M0^{1/(q+p-1)}")
        return checks

    def validate_full(self, n: int):
        self.validate()
        n_free = max(self.max_qp - 1, 1)
        second = self.M2 ** ((n - 1.0) / (n - 2.0)) / self.M0 ** ((0.5 + 1.0 / (n - 2.0)) / n_free)
        if second > self.smallness + 1e-12:
            raise ConfigError("M2^{(n-1)/(n-2)} too large against the M0 root")
        return second

    @staticmethod
    def for_mass(max_qp: int, n: int = 5) -> "FlowParams":
        """The defaults when they meet the smallness budget for max_qp in
        dimension n, else the large constants scaled until they do."""
        p = FlowParams(max_qp=max_qp)
        try:
            p.validate_full(n)
            return p
        except ConfigError:
            pass
        n_free = max(max_qp - 1, 1)
        m2 = 10.0
        need = max((100.0 * m2) ** n_free,
                   (100.0 * m2 ** ((n - 1.0) / (n - 2.0))) ** (n_free / (0.5 + 1.0 / (n - 2.0))))
        m0 = 10.0 ** math.ceil(math.log10(need))
        m4 = 10.0 ** math.ceil(0.5 * math.log10(m0 / 0.01))
        p = FlowParams(M0=m0, M2=m2, M4=m4, max_qp=max_qp)
        p.validate_full(n)
        return p


@dataclass
class RunConfig:
    n: int
    field_spec: dict
    quadrature_tol: float = 1e-8
    seeds_per_dim: int = 10
    seed: int = 20240
    grid_density: int = 12
    mass_max: int = 4
    flow: FlowParams | None = None  # None: FlowParams.for_mass(2, n)
    output_dir: str = "out"

    def __post_init__(self):
        if self.n < 5:
            raise ConfigError("dimension must be at least 5")
        if self.quadrature_tol <= 0:
            raise ConfigError("quadrature_tol must be positive")
        if self.seeds_per_dim < 8:
            raise ConfigError("seeds_per_dim must be at least 8")
        if self.grid_density < 10:
            raise ConfigError("grid_density must be at least 10")
        if self.mass_max < 1:
            raise ConfigError("mass_max must be at least 1")
        if self.flow is None:
            self.flow = FlowParams.for_mass(2, self.n)

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
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
        if "field" not in doc:
            raise ConfigError("configuration must provide a 'field' section")
        flow_doc = doc.get("flow", {})
        if not isinstance(flow_doc, dict):
            raise ConfigError("'flow' must be an object")
        unknown = set(flow_doc) - _FLOW_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown flow parameters: {sorted(unknown)}")
        try:
            given = {k: _FLOW_TYPES[k](v) for k, v in flow_doc.items()}
            cfg = RunConfig(
                n=int(doc.get("dimension", 5)),
                field_spec=dict(doc["field"]),
                quadrature_tol=float(doc.get("quadrature_tol", 1e-8)),
                seeds_per_dim=int(doc.get("seeds_per_dim", 10)),
                seed=int(doc.get("seed", 20240)),
                grid_density=int(doc.get("grid_density", 12)),
                mass_max=int(doc.get("mass_max", 4)),
                output_dir=str(doc.get("output_dir", "out")),
            )
            cfg.flow = replace(FlowParams.for_mass(given.get("max_qp", 2), cfg.n), **given)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration value: {exc}") from exc
        # the smallness checks wait for the flow; a non-finite or out-of-range
        # constant is rejected at load by every subcommand
        cfg.flow.check_values()
        return cfg
