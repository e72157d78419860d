"""Universal constants of the energy expansions.

Every constant is a dimensional factor times a radial (or vertically
weighted radial) integral over the half-space or the whole space.  The
integrals are reduced analytically to one-dimensional radial integrals,
evaluated by a vectorised adaptive 7/15-point Gauss-Kronrod scheme in numpy,
and cross-checked against Beta/Gamma closed forms.  scipy is not imported
here; only the independent routes in :mod:`hemiflow.oracles` use it.

Roles (all with cp := c0^{2n/(n-2)} = (n(n-2))^{n/2}):

    c0   bubble normalization, (n(n-2))^{(n-2)/4}
    s_n  energy of one boundary bubble:      cp * int_{H} (1+|x|^2)^{-n}
    c2   two-bubble interaction constant:    cp * int_{R^n} (1+|x|^2)^{-(n+2)/2}
    c3   rate-gradient boundary coefficient: (n-2)/2 cp int_H x_n(|x|^2-1)(1+|x|^2)^{-(n+1)}
    c4   point-gradient normal coefficient:  (n-2)  cp int_H x_n (1+|x|^2)^{-(n+1)}
    c5   point-gradient tangential unit:     (n-2)/(2n) cp int_{R^n} x_n^2 (1+|x|^2)^{-(n+1)}
    c6   energy Laplacian coefficient:       (n-2)/n^2 cp int_H |x|^2 (1+|x|^2)^{-n}
    c7   energy normal-derivative coeff:     2(n-2)/n cp int_H x_n (1+|x|^2)^{-n}
    c9   rate-gradient Laplacian coeff:      (n-2)/(4n) cp int_H |x|^2(|x|^2-1)(1+|x|^2)^{-(n+1)}

c9 has no standalone defining integral of its own: it is derived from the
second-moment identity behind the rate-gradient expansion and cross-checked
numerically against finite differences of the integrated energy (see the
oracle suite).  It is flagged "derived" in reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ToleranceNotMet

_ENTRY_NAMES = ("c0", "s_n", "c2", "c3", "c4", "c5", "c6", "c7", "c9")
_DERIVED_ENTRIES = frozenset({"c9"})


def sphere_area(m: int) -> float:
    """Surface area of the unit sphere S^m in R^{m+1}."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def _g_closed(n: int, p: float) -> float:
    """int_{R^n} (1+|x|^2)^{-p} dx = pi^{n/2} Gamma(p - n/2) / Gamma(p)."""
    return math.pi ** (n / 2.0) * math.gamma(p - n / 2.0) / math.gamma(p)


def _x_closed(n: int, p: float) -> float:
    """int_{half-space} x_n (1+|x|^2)^{-p} dx."""
    return math.pi ** ((n - 1) / 2.0) * math.gamma(p - (n + 1) / 2.0) / (2.0 * (p - 1.0) * math.gamma(p - 1.0))


def closed_forms(n: int) -> dict:
    """Beta/Gamma closed forms for every constant that has one."""
    cp = float((n * (n - 2)) ** (n / 2.0))
    g = lambda p: _g_closed(n, p)
    x = lambda p: _x_closed(n, p)
    return {
        "c0": float((n * (n - 2)) ** ((n - 2) / 4.0)),
        "s_n": cp * 0.5 * g(n),
        "c2": cp * g((n + 2) / 2.0),
        "c3": (n - 2) / 2.0 * cp * (x(n) - 2.0 * x(n + 1)),
        "c4": (n - 2) * cp * x(n + 1),
        "c5": (n - 2) / (2.0 * n) * cp * (g(n) - g(n + 1)) / n,
        "c6": (n - 2) / n**2 * cp * 0.5 * (g(n - 1) - g(n)),
        "c7": 2.0 * (n - 2) / n * cp * x(n),
        "c9": (n - 2) / (8.0 * n) * cp * (g(n - 1) - 3.0 * g(n) + 2.0 * g(n + 1)),
    }


# ---------------------------------------------------------------------------
# 1-d radial quadrature
# ---------------------------------------------------------------------------

# QUADPACK's qk15 pair on [-1, 1]: the 15-point Kronrod rule and its embedded
# 7-point Gauss rule (zero weight at the Kronrod-only nodes).  Listed from the
# left end to the centre; the rules are symmetric.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS = np.concatenate((_WG, _WG[-2::-1]))

_EPS = float(np.finfo(float).eps)
_MAX_PANELS = 200


def _gk15(integrand, lo, hi):
    """qk15 on every panel [lo_k, hi_k] in one integrand call.

    Returns the Kronrod values, QUADPACK's error estimates and a mask of
    the panels whose estimate is their round-off floor ``50 eps resabs``.
    """
    half = 0.5 * (hi - lo)
    fv = integrand((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES)
    resk = fv @ _KRONROD
    diff = np.abs((resk - fv @ _GAUSS) * half)
    resabs = (np.abs(fv) @ _KRONROD) * half
    resasc = (np.abs(fv - 0.5 * resk[:, None]) @ _KRONROD) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0.0) & (diff != 0.0),
                       resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5), diff)
    floor = 50.0 * _EPS * resabs
    return resk * half, np.maximum(err, floor), err <= floor


def _radial_quad(f, n: int, weight_power: int, tol: float):
    """Adaptive integral of r^{n-1+weight_power} f(r) over (0, inf).

    Compactified through r = tan(theta); the sign change of the ring factors
    at r = 1 sits at the interior split point pi/4.  Each pass evaluates all
    open panels at once.  It stops when the summed error estimate is at most
    ``max(tol 1e-3, 100 eps) |I|``, and otherwise halves every panel whose
    estimate exceeds its length's share of that target, unless the panel is
    already at its round-off floor.  More than ``_MAX_PANELS`` panels raise
    ToleranceNotMet.  ``f`` must take arrays.
    """
    def integrand(theta):
        r = np.tan(theta)
        return r ** (n - 1 + weight_power) * f(r) / np.cos(theta) ** 2

    rel = max(tol * 1e-3, 100.0 * _EPS)
    lo = np.array([0.0, 0.25 * math.pi])
    hi = np.array([0.25 * math.pi, 0.5 * math.pi])
    done_v, done_e = [], []
    while True:
        v, e, at_floor = _gk15(integrand, lo, hi)
        target = rel * abs(math.fsum([*done_v, *v]))
        converged = math.fsum([*done_e, *e]) <= target
        split = ~at_floor & (e > target * (hi - lo) / (0.5 * math.pi)) & (not converged)
        done_v.extend(v[~split])
        done_e.extend(e[~split])
        if not split.any():
            return math.fsum(done_v), math.fsum(done_e)
        if len(done_v) + 2 * int(split.sum()) > _MAX_PANELS:
            raise ToleranceNotMet(
                f"radial quadrature needs more than {_MAX_PANELS} panels "
                f"(n={n}, weight power {weight_power}, tol {tol:g})")
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))


@dataclass(frozen=True)
class ConstantsTable:
    """Computed constants with per-entry absolute error estimates."""

    n: int
    values: dict
    errors: dict
    tol: float
    version: str = field(default="")

    def __post_init__(self):
        if not self.version:
            object.__setattr__(self, "version", f"constants-v1-n{self.n}-tol{self.tol:.0e}")

    def __getattr__(self, name):
        values = object.__getattribute__(self, "values")
        if name in values:
            return values[name]
        raise AttributeError(name)

    @property
    def cp(self) -> float:
        """c0^{2n/(n-2)}, the recurring prefactor."""
        return float((self.n * (self.n - 2)) ** (self.n / 2.0))

    def derived_entries(self):
        return sorted(_DERIVED_ENTRIES & set(self.values))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tol": self.tol,
            "version": self.version,
            "values": {k: float(v) for k, v in sorted(self.values.items())},
            "errors": {k: float(v) for k, v in sorted(self.errors.items())},
            "derived": self.derived_entries(),
        }

    @staticmethod
    def from_json(doc: dict) -> "ConstantsTable":
        return ConstantsTable(
            n=int(doc["n"]), values=dict(doc["values"]), errors=dict(doc["errors"]),
            tol=float(doc["tol"]), version=str(doc["version"]),
        )

    def report_text(self) -> str:
        lines = [f"# constants report {self.version}", f"n = {self.n}", f"tol = {self.tol:g}"]
        for k in _ENTRY_NAMES:
            flag = " (derived)" if k in _DERIVED_ENTRIES else ""
            lines.append(f"{k} = {self.values[k]!r} +/- {self.errors[k]:.3e}{flag}")
        return "\n".join(lines) + "\n"


_CACHE: dict = {}


def compute_constants(n: int, tol: float = 1e-8) -> ConstantsTable:
    """Quadrature evaluation of the constants table, validated against the
    closed forms."""
    if n < 5:
        raise ConfigError("dimension must be at least 5")
    if not (1e-12 <= tol <= 1e-4):
        raise ConfigError("tolerance must lie in [1e-12, 1e-4]")
    key = (n, tol)
    if key in _CACHE:
        return _CACHE[key]

    cp = float((n * (n - 2)) ** (n / 2.0))
    area = sphere_area(n - 1)
    vball = ball_volume(n - 1)

    # radial profiles
    base_n = lambda r: (1.0 + r * r) ** (-n)
    base_np1 = lambda r: (1.0 + r * r) ** (-(n + 1))
    base_med = lambda r: (1.0 + r * r) ** (-(n + 2) / 2.0)
    ring = lambda r: (r * r - 1.0) * (1.0 + r * r) ** (-(n + 1))

    values, errors = {}, {}

    def put(name, scale, integral, err):
        values[name] = float(scale * integral)
        errors[name] = float(abs(scale) * err)

    v, e = _radial_quad(base_n, n, 0, tol)              # int (1+r^2)^-n
    put("s_n", cp * 0.5 * area, v, e)
    v, e = _radial_quad(base_med, n, 0, tol)
    put("c2", cp * area, v, e)
    v, e = _radial_quad(ring, n, 1, tol)                # x_n-weighted ring
    put("c3", (n - 2) / 2.0 * cp * vball, v, e)
    v, e = _radial_quad(base_np1, n, 1, tol)
    put("c4", (n - 2) * cp * vball, v, e)
    v, e = _radial_quad(base_np1, n, 2, tol)            # x_n^2-weighted, full space
    put("c5", (n - 2) / (2.0 * n) * cp * area / n, v, e)
    v, e = _radial_quad(base_n, n, 2, tol)
    put("c6", (n - 2) / n**2 * cp * 0.5 * area, v, e)
    v, e = _radial_quad(base_n, n, 1, tol)
    put("c7", 2.0 * (n - 2) / n * cp * vball, v, e)
    v, e = _radial_quad(lambda r: r * r * ring(r), n, 0, tol)
    put("c9", (n - 2) / (4.0 * n) * cp * 0.5 * area, v, e)

    values["c0"] = float((n * (n - 2)) ** ((n - 2) / 4.0))
    errors["c0"] = 0.0

    closed = closed_forms(n)
    for name in _ENTRY_NAMES:
        est = errors[name]
        if est > tol * max(1.0, abs(values[name])):
            raise ToleranceNotMet(f"{name}: error estimate {est} above tolerance {tol}")
        ref = closed[name]
        if abs(values[name] - ref) > max(10.0 * est, 1e-9 * abs(ref)) + 1e-13:
            raise ToleranceNotMet(
                f"{name}: quadrature {values[name]!r} disagrees with closed form {ref!r}"
            )

    table = ConstantsTable(n=n, values=values, errors=errors, tol=tol)
    _CACHE[key] = table
    return table


def radial_moment(n: int, weight_power: int, profile_power: float, tol: float = 1e-8):
    """cp-free helper: int_0^inf r^{n-1+weight_power} (1+r^2)^{-profile_power} dr."""
    return _radial_quad(lambda r: (1.0 + r * r) ** (-profile_power), n, weight_power, tol)


def c2_interaction_constant(n: int, tol: float = 1e-8) -> float:
    """The two-bubble interaction constant via its defining quadrature."""
    return compute_constants(n, tol).values["c2"]


def save_report(table: ConstantsTable, json_path, text_path=None):
    with open(json_path, "w") as fh:
        json.dump(table.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if text_path is not None:
        with open(text_path, "w") as fh:
            fh.write(table.report_text())
