"""Run configuration: one JSON document drives every subcommand.

The configuration and the flow's state file are read by one walker
(``read``) against one table of keys each (``CONFIG_KEYS``, ``STATE_KEYS``;
the README lists them).  A document is refused at its first key that is
unknown, missing, of the wrong JSON kind or out of range, naming its path;
nothing is coerced.  ``seed`` is stamped into artifacts, but the landscape
is an exact enumeration and does not depend on it.  The field's monomials
are parsed here and ``ScalarField`` is imported only to build a field, so
reading or refusing a configuration loads no numpy.  ``FlowParams`` and
``RunConfig`` are plain classes on ``hemiflow.record``'s bases, as every
hemiflow record is: no hemiflow module imports ``dataclasses``, so reading
a configuration loads neither it nor ``inspect``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ConfigError
from .record import FrozenRecord, Record, set_field

if TYPE_CHECKING:
    from .fields import ScalarField

SMALLNESS = 0.01  # budget of the flow constants' smallness ratios

_MONOMIAL_RE = re.compile(r"^x(\d+)(?:\^(2)|\*x(\d+))?$")


def parse_monomial(text: str, ambient_dim: int):
    """Parse a monomial string over x1..x{n+1} of total degree <= 2.

    Accepted forms: ``x3``, ``x3^2``, ``x1*x2`` (1-based variables).
    Returns a tuple of 0-based variable indices of length 1 or 2.
    """
    m = _MONOMIAL_RE.match(text.replace(" ", ""))
    if not m:
        raise ConfigError(f"cannot parse monomial {text!r}")
    i = int(m.group(1))
    if m.group(2):
        j = i
    elif m.group(3):
        j = int(m.group(3))
    else:
        j = None
    for k in (i, j):
        if k is not None and not (1 <= k <= ambient_dim):
            raise ConfigError(f"variable x{k} out of range in {text!r}")
    return (i - 1,) if j is None else (i - 1, j - 1)


class FlowParams(FrozenRecord):
    """The ``flow`` section: the constants of the descent field."""

    M0: float = 1.0e4
    M2: float = 10.0
    M4: float = 1.0e3
    eta: float = 0.1
    eps: float = 0.1
    max_qp: int = 2

    def __init__(self, M0=M0, M2=M2, M4=M4, eta=eta, eps=eps, max_qp=max_qp):
        set_field(self, "M0", M0)
        set_field(self, "M2", M2)
        set_field(self, "M4", M4)
        set_field(self, "eta", eta)
        set_field(self, "eps", eps)
        set_field(self, "max_qp", max_qp)

    def check_values(self):
        """Every constant finite, M0, M2, M4, eta and eps positive, max_qp >= 1."""
        for name in self._fields:
            value = getattr(self, name)
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
            "M0_over_M4sq": self.M0 / self.M4 / self.M4,  # M4**2 may overflow
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
        try:
            m2_power = self.M2 ** ((n - 1.0) / (n - 2.0))
        except OverflowError:  # beyond the float range, and so far beyond the budget
            m2_power = math.inf
        second = m2_power / self.M0 ** ((0.5 + 1.0 / (n - 2.0)) / n_free)
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


class RunConfig(Record):
    n: int
    field_spec: dict
    quadrature_tol: float = 1e-8
    seed: int = 20240
    mass_max: int = 4
    flow: FlowParams | None = None  # None: FlowParams.for_mass(2, n)
    output_dir: str = "out"

    def __init__(self, n, field_spec, quadrature_tol=quadrature_tol, seed=seed,
                 mass_max=mass_max, flow=flow, output_dir=output_dir):
        self.n = n
        self.field_spec = field_spec
        self.quadrature_tol = quadrature_tol
        self.seed = seed
        self.mass_max = mass_max
        self.flow = FlowParams.for_mass(2, n) if flow is None else flow
        self.output_dir = output_dir

    def build_field(self) -> ScalarField:
        return read_field(self.field_spec, self.n)

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
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
        return RunConfig.from_json(doc)

    @staticmethod
    def from_json(doc: dict) -> "RunConfig":
        values = read(doc, CONFIG_KEYS, "configuration")
        n, flow, mass_max = values["dimension"], values["flow"], values["mass_max"]
        _field_args(doc["field"], n)  # the field itself is built after the constants
        if mass_max > mass_limit(n):
            raise ConfigError(f"mass_max must be at most {mass_limit(n)} in dimension {n}, "
                              f"got {mass_max}")
        given = {k: v for k, v in flow.items() if v is not None}
        try:
            # M0, M2 and M4 default by max_qp, computed only when one is unset
            base = (FlowParams() if {"M0", "M2", "M4"} <= given.keys()
                    else FlowParams.for_mass(flow["max_qp"], n))
        except OverflowError:
            raise ConfigError(f"flow constant max_qp: the default M0 for {flow['max_qp']} "
                              f"bubbles is beyond the float range") from None
        flow = base.replace(**given)
        return RunConfig(n, dict(doc["field"]), values["quadrature_tol"], values["seed"],
                         mass_max, flow, values["output_dir"])


def mass_limit(n: int) -> int:
    """6n + 4, the largest mass ``q + 2p`` of a census entry in dimension n.

    An entry takes q distinct boundary and p distinct interior points among
    the critical points of K, that is of b.x + x.Q.x, on a sphere S^{d-1} of
    R^d.  In Q's eigenbasis they solve the secular equation, a polynomial of
    degree 2 per active eigenvalue cluster, or sit on an inactive cluster's
    eigenvector branch, two isolated points per cluster of dimension one
    (:func:`hemiflow.fields.sphere_critical_points`): at most 2d isolated
    points.  So q <= 2n on the equator S^{n-1}, p <= 2(n+1) on S^n, and
    q + 2p <= 2n + 4(n+1); the bands above that mass hold no entry.
    """
    return 6 * n + 4


def read_field(spec, n: int | None = None) -> ScalarField:
    """A configuration's ``field`` section as a field; ``n``, if given, is
    the configuration's dimension, which the section may restate, not change."""
    from .fields import ScalarField
    return ScalarField(*_field_args(spec, n))


def _field_args(spec, n: int | None) -> tuple:
    field_key = next(key for key in CONFIG_KEYS if key.path == "field")
    field = _walk(spec, field_key, "field", CONFIG_KEYS, "configuration")
    given = field["dimension"]
    n = given if n is None else n
    if n is None:
        raise ConfigError("field.dimension: missing")
    if given not in (None, n):
        raise ConfigError(f"field.dimension: expected the top-level dimension {n}, got {given}")
    terms = []
    for k, term in enumerate(field["terms"]):
        try:  # parsed here, so that a refusal names its term
            terms.append((parse_monomial(term["monomial"], n + 1), term["coeff"]))
        except ConfigError as exc:
            raise ConfigError(f"{_FIELD}terms[{k}].monomial: {exc}") from exc
    return n, field["kappa0"], terms


def read_state(doc, document: str = "state", n: int | None = None):
    """A flow state document, ``Configuration.to_json``'s form, which
    refusals call ``document``; with ``n`` given, each point must have
    n + 1 coordinates."""
    from .bubbles import BubbleParam
    from .geometry import BoundarySpherePoint, SpherePoint
    from .model import Configuration
    values = read(doc, STATE_KEYS, document)
    q, p, bubbles = values["q"], values["p"], values["bubbles"]
    where = _STATE.format(document=document)
    if q + p != len(bubbles):
        raise ConfigError(f"{where}q = {q} and p = {p} must add up to the number of bubbles, "
                          f"{len(bubbles)}")
    params = []
    for k, bubble in enumerate(bubbles):
        point, name = bubble["point"], f"{where}bubbles[{k}].point"
        if n is not None and len(point) != n + 1:
            raise ConfigError(f"{name}: expected {n + 1} coordinates, got {len(point)}")
        try:
            point = (BoundarySpherePoint if k < q else SpherePoint)(point)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        params.append(BubbleParam(point, bubble["lambda"]))
    return Configuration(tuple(b["alpha"] for b in bubbles), tuple(params), q, p, values["eps"])


# -- the document schema ------------------------------------------------------

# the JSON kinds, as the Python types a document holds them in, and their names
KINDS = {int: "an integer", float: "a number", str: "a string", dict: "an object",
         list: "a list", True: "true"}


def _is(value, kind) -> bool:
    if kind is True or isinstance(value, bool):
        return value is kind  # a bool is no number
    return isinstance(value, (int, float) if kind is float else kind)


class Bound(NamedTuple):
    """A range: its name in refusals and the README, and its test."""

    name: str
    test: Callable[[float], bool]


def at_least(low: int) -> Bound:
    return Bound(f"at least {low}", lambda v: v >= low)


POSITIVE = Bound("positive", lambda v: v > 0)
TOLERANCE = Bound("between 1e-12 and 1e-4", lambda v: 1e-12 <= v <= 1e-4)
REQUIRED = object()  # the default of a key the document must give


class Key(NamedTuple):
    """One document key.  ``path`` is dotted, ``[]`` standing for each item
    of a list.  A missing key takes ``default`` (``None``: derived from other
    keys), a missing object being read as its default.  A retired key is
    checked, then dropped.  ``prefix`` names the key's parent in refusals
    (``None``: by its path); an unknown key is named as its parent's first
    key is."""

    prefix: str | None
    path: str
    kind: type | bool
    bound: Bound | None = None
    default: object = REQUIRED
    retired: bool = False


_FIELD, _FLOW, _STATE = "invalid field specification: ", "flow constant ", "invalid {document}: "

CONFIG_KEYS = (
    #   prefix  path                         kind     bound         default            retired
    Key("",     "dimension",                 int,     at_least(5),  5),
    Key("",     "field",                     dict),
    Key(_FIELD, "field.kappa0",              float,   POSITIVE),
    Key(_FIELD, "field.terms",               list,    None,         []),
    Key(None,   "field.terms[]",             dict),
    Key(None,   "field.terms[].monomial",    str),
    Key(None,   "field.terms[].coeff",       float),
    Key(None,   "field.dimension",           int,     None,         None),
    Key("",     "quadrature_tol",            float,   TOLERANCE,    RunConfig.quadrature_tol),
    Key("",     "seed",                      int,     None,         RunConfig.seed),
    Key("",     "mass_max",                  int,     at_least(1),  RunConfig.mass_max),
    Key("",     "output_dir",                str,     None,         RunConfig.output_dir),
    Key("",     "flow",                      dict,    None,         {}),
    Key(_FLOW,  "flow.M0",                   float,   POSITIVE,     None),
    Key(_FLOW,  "flow.M2",                   float,   POSITIVE,     None),
    Key(_FLOW,  "flow.M4",                   float,   POSITIVE,     None),
    Key(_FLOW,  "flow.eta",                  float,   POSITIVE,     FlowParams.eta),
    Key(_FLOW,  "flow.eps",                  float,   POSITIVE,     FlowParams.eps),
    Key(_FLOW,  "flow.max_qp",               int,     at_least(1),  FlowParams.max_qp),
    # rates grow only in the W region, so the old switch reads only as true
    Key(_FLOW,  "flow.strict_lambda_sign",   True,    None,         None,              True),
    # the extrema are read exactly off the critical points
    Key("",     "seeds_per_dim",             int,     at_least(8),  None,              True),
    Key("",     "grid_density",              int,     at_least(10), None,              True),
)

STATE_KEYS = (
    Key(_STATE, "q",                         int,     at_least(0)),
    Key(_STATE, "p",                         int,     at_least(0)),
    Key(_STATE, "eps",                       float,   POSITIVE),
    Key(_STATE, "bubbles",                   list),
    Key(None,   "bubbles[]",                 dict),
    Key(None,   "bubbles[].alpha",           float),
    Key(None,   "bubbles[].point",           list),
    Key(None,   "bubbles[].point[]",         float),
    Key(None,   "bubbles[].lambda",          float),
)


def read(doc, keys: tuple, document: str) -> dict:
    """``doc`` read against ``keys``: each key's typed value, retired keys
    dropped and defaults filled in.  Any other document is refused, naming
    the first key at fault; ``document`` names the document itself."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{document} must be a JSON object")
    return _walk(doc, Key("", "", dict), "", keys, document)


def _walk(value, key: Key, name: str, keys: tuple, document: str):
    """``value`` read as ``key``, which refusals call ``name``."""
    if not _is(value, key.kind):
        raise ConfigError(f"{name}: expected {KINDS[key.kind]}, got {value!r}")
    if key.kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name}: expected a number, got an integer beyond the "
                              f"float range") from None
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if key.bound is not None and not key.bound.test(value):
        raise ConfigError(f"{name} must be {key.bound.name}, got {value}")
    if key.kind is list:
        item = next(k for k in keys if k.path == f"{key.path}[]")
        return [_walk(v, item, f"{name}[{i}]", keys, document) for i, v in enumerate(value)]
    if key.kind is not dict:
        return value
    members = {k.path.rpartition(".")[2]: k for k in keys
               if k.path.rpartition(".")[0] == key.path and not k.path.endswith("[]")}
    stems = {step: f"{name}." if k.prefix is None else k.prefix.format(document=document)
             for step, k in members.items()}
    for step in value:
        if step not in members:
            raise ConfigError(f"{next(iter(stems.values()))}{step}: unknown key")
    values = {}
    for step, member in members.items():
        if step not in value and member.default is REQUIRED:
            raise ConfigError(f"{stems[step]}{step}: missing")
        read_value = member.default
        if step in value or member.kind is dict:
            read_value = _walk(value.get(step, member.default), member, stems[step] + step, keys,
                               document)
        if not member.retired:
            values[step] = read_value
    return values
