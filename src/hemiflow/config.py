"""Run configuration: one JSON document drives every subcommand.

Schema (all keys optional except ``field``):

    {
      "dimension": 5,
      "field": {"kappa0": 1.0,
                "terms": [{"monomial": "x1", "coeff": 0.05}, ...]},
      "quadrature_tol": 1e-8,
      "seed": 20240,
      "mass_max": 4,
      "flow": {"M0": ..., "M2": ..., "M4": ..., "eta": 0.1, "eps": 0.1,
               "max_qp": 2},
      "output_dir": "out"
    }

Scalar values can be overridden from the command line; the field family
itself always comes from the file.  ``seed`` is validated and stamped into
artifacts, but the landscape is an exact enumeration and does not depend on
it.  ``mass_max`` must be at least 1.  The settable flow keys are ``M0``,
``M2``, ``M4``, ``eta``, ``eps`` and ``max_qp``; the other flow constants
are fixed (``SMALLNESS`` here, the step control in :mod:`hemiflow.flow`).
Older documents still load: ``seeds_per_dim`` (at least 8) and
``grid_density`` (at least 10) are type- and range-checked but unused, and
``flow.strict_lambda_sign`` is accepted only as ``true``, because the rates
grow only in the W region.  The document must be a JSON object, and field
monomials must be strings such as ``"x1*x2"``.  Nothing is coerced:
``dimension``, ``seeds_per_dim``, ``seed``, ``grid_density``, ``mass_max``
and ``max_qp`` take JSON integers only, the other scalars (the field's
``kappa0`` and ``coeff`` too) JSON numbers, and ``output_dir`` a string.
The field section may restate ``dimension`` as a JSON integer equal to the
top-level one; any other value is refused, naming ``field.dimension``.
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
from .fields import ScalarField, _integer, _number

SMALLNESS = 0.01  # budget of the flow constants' smallness ratios


def _true(value) -> bool:
    """The retired ``strict_lambda_sign`` switch, read only as true."""
    if value is not True:
        raise TypeError(f"expected true (rates grow only in the W region), got {value!r}")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# the flow keys a document may carry and the type each is read as; all but
# strict_lambda_sign are settable
_FLOW_TYPES = {"M0": _number, "M2": _number, "M4": _number, "eta": _number, "eps": _number,
              "max_qp": _integer, "strict_lambda_sign": _true}


def _read(doc: dict, key: str, default, kind, section: str = ""):
    """``doc[key]`` (or ``default``) read as ``kind``; a mistyped value is a
    ConfigError that names its key."""
    try:
        return kind(doc.get(key, default))
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"{section}{key}: {exc}") from exc


@dataclass(frozen=True)
class FlowParams:
    """The ``flow`` section: the constants of the descent field."""

    M0: float = 1.0e4
    M2: float = 10.0
    M4: float = 1.0e3
    eta: float = 0.1
    eps: float = 0.1
    max_qp: int = 2

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
        if checks["M0_over_M4sq"] > SMALLNESS + 1e-12:
            raise ConfigError(f"M0/M4^2 = {checks['M0_over_M4sq']} exceeds {SMALLNESS}")
        if checks["M2_over_M0root"] > SMALLNESS + 1e-12:
            raise ConfigError("M2 too large against M0^{1/(q+p-1)}")
        return checks

    def validate_full(self, n: int):
        self.validate()
        n_free = max(self.max_qp - 1, 1)
        second = self.M2 ** ((n - 1.0) / (n - 2.0)) / self.M0 ** ((0.5 + 1.0 / (n - 2.0)) / n_free)
        if second > SMALLNESS + 1e-12:
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
        m4 = 10.0 ** math.ceil(0.5 * math.log10(m0 / SMALLNESS))
        p = FlowParams(M0=m0, M2=m2, M4=m4, max_qp=max_qp)
        p.validate_full(n)
        return p


@dataclass
class RunConfig:
    n: int
    field_spec: dict
    quadrature_tol: float = 1e-8
    seed: int = 20240
    mass_max: int = 4
    flow: FlowParams | None = None  # None: FlowParams.for_mass(2, n)
    output_dir: str = "out"

    def __post_init__(self):
        if self.n < 5:
            raise ConfigError("dimension must be at least 5")
        if "dimension" in self.field_spec:
            # the field's own dimension may restate the top-level one, not change it
            try:
                field_n = _integer(self.field_spec["dimension"])
            except TypeError as exc:
                raise ConfigError(f"field.dimension: {exc}") from exc
            if field_n != self.n:
                raise ConfigError(f"field.dimension: expected the top-level dimension "
                                  f"{self.n}, got {field_n}")
        if self.quadrature_tol <= 0:
            raise ConfigError("quadrature_tol must be positive")
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
        given = {k: _read(flow_doc, k, None, _FLOW_TYPES[k], "flow constant ") for k in flow_doc}
        given.pop("strict_lambda_sign", None)
        if not isinstance(doc["field"], dict):
            raise ConfigError("'field' must be an object")
        try:
            cfg = RunConfig(
                n=_read(doc, "dimension", 5, _integer),
                field_spec=dict(doc["field"]),
                quadrature_tol=_read(doc, "quadrature_tol", 1e-8, _number),
                seed=_read(doc, "seed", 20240, _integer),
                mass_max=_read(doc, "mass_max", 4, _integer),
                output_dir=_read(doc, "output_dir", "out", _string),
            )
            # older documents carry these; both are checked, neither is used
            if _read(doc, "seeds_per_dim", 10, _integer) < 8:
                raise ConfigError("seeds_per_dim must be at least 8")
            if _read(doc, "grid_density", 12, _integer) < 10:
                raise ConfigError("grid_density must be at least 10")
            cfg.flow = replace(FlowParams.for_mass(given.get("max_qp", 2), cfg.n), **given)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid configuration value: {exc}") from exc
        # the smallness checks wait for the flow; a non-finite or out-of-range
        # constant is rejected at load by every subcommand
        cfg.flow.check_values()
        return cfg
