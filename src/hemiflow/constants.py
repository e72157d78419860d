"""Universal constants of the energy expansions.

Every constant is a dimensional factor times an integral over the
half-space H = {x_n > 0} or the whole space.  Each integral is a Beta
function, so the table is computed from closed forms, three Gamma ratios
and rational multiples of them, with a rounding bound per entry.  No
quadrature runs here and numpy is not imported; the independent
Gauss-Legendre route in :mod:`hemiflow.oracles` checks the table in
``verify`` and in the tests.

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

Closed forms.  In polar coordinates, and with x_n = r cos(angle) on H,

    g(p) := int_{R^n} (1+|x|^2)^{-p} dx = pi^{n/2} Gamma(p - n/2) / Gamma(p),
    x(p) := int_H x_n (1+|x|^2)^{-p} dx = pi^{(n-1)/2} Gamma(p - (n+1)/2) / (2 Gamma(p)).

The weights |x|^2 = (1+|x|^2) - 1 and |x|^2 - 1 = (1+|x|^2) - 2 shift p
by one, and x_n^2 averages to |x|^2/n over the whole space, so

    s_n = cp g(n)/2,              c2 = cp g((n+2)/2),        c7 = 2(n-2)/n cp x(n),
    c3 = (n-2)/2 cp (x(n) - 2 x(n+1)),                       c4 = (n-2) cp x(n+1),
    c5 = (n-2)/(2n^2) cp (g(n) - g(n+1)),                    c6 = (n-2)/(2n^2) cp (g(n-1) - g(n)),
    c9 = (n-2)/(8n) cp (g(n-1) - 3 g(n) + 2 g(n+1)).

Gamma(z+1) = z Gamma(z) gives g(n+1) = g(n)/2, g(n-1) = 2(n-1)/(n-2) g(n)
and x(n+1) = (n-1)/(2n) x(n).  The differences then cancel exactly, and
every entry is one of three Gamma ratios or a rational multiple of one:

    s_n = 1/2 cp pi^{n/2} Gamma(n/2) / Gamma(n)
    c2  = cp pi^{n/2} / Gamma(n/2 + 1)
    c7  = (n-2)/n cp pi^{(n-1)/2} Gamma((n-1)/2) / Gamma(n)
    c3 = c7/4,  c4 = (n-1) c7/4,  c5 = (n-2) s_n/(2n^2),  c6 = s_n/n,  c9 = s_n/(2n).

Evaluated as differences, the same forms lose digits to cancellation; the
products do not.

Rounding.  ``ConstantsTable.errors`` bounds each entry's rounding error
from its operation count.  With u = 2^-53: each float product, quotient
and the ratio (n-2)/n rounds by at most u; a float ``**`` is within one
ulp, 2u (glibc's pow); ``math.gamma`` is within 10 ulps, 20u (CPython's
Lanczos sum); and ``math.pi`` is pi to within 3.9e-17 relative, which its
power pi^{m/2} multiplies by m/2.  An entry with k u's and the power m/2
of pi is within (k u + m/2 3.9e-17)/(1 - k u - m/2 3.9e-17) of its value,
relative.  The counts are s_n 47 (3 products, two powers, two Gammas), c2
26, c7 49, c3 = c7/4 49 (a quarter is exact), c4 50, c5 49, c6 48, c9 48
and c0 2.  The tests hold every entry within its bound against 50-digit
values of the difference forms above at every n from 5 to 92.  From n = 93
on ``compute_constants`` raises ToleranceNotMet: that range is not
certified, and above it a one-bubble flow's energy is NaN by n = 110.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ToleranceNotMet

_ENTRY_NAMES = ("c0", "s_n", "c2", "c3", "c4", "c5", "c6", "c7", "c9")
_DERIVED_ENTRIES = frozenset({"c9"})
N_MAX = 92            # the largest dimension whose rounding bounds the tests certify
_U = 2.0 ** -53
_PI_REL = 3.9e-17     # |pi - math.pi| / pi


def sphere_area(m: int) -> float:
    """Surface area of the unit sphere S^m in R^{m+1}."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


@dataclass(frozen=True)
class ConstantsTable:
    """The constants with per-entry absolute rounding bounds."""

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
    """The constants table of dimension n from its closed forms, each entry
    with its rounding bound (derived in the module docstring).  ``tol`` is
    the tolerance to which ``verify`` holds the quadrature route against
    the table; it is stamped into the table's version."""
    if n < 5:
        raise ConfigError("dimension must be at least 5")
    if not (1e-12 <= tol <= 1e-4):
        raise ConfigError("tolerance must lie in [1e-12, 1e-4]")
    if n > N_MAX:
        raise ToleranceNotMet(f"the constants' rounding bounds are certified for dimensions "
                              f"up to {N_MAX}, got {n}")
    key = (n, tol)
    if key in _CACHE:
        return _CACHE[key]

    cp = float((n * (n - 2)) ** (n / 2.0))
    s_n = 0.5 * cp * math.pi ** (n / 2.0) * math.gamma(n / 2.0) / math.gamma(n)
    c7 = (n - 2) / n * cp * math.pi ** ((n - 1) / 2.0) * math.gamma((n - 1) / 2.0) / math.gamma(n)
    # name: (value, roundings in units of u, power of pi)
    entries = {
        "c0": (float((n * (n - 2)) ** ((n - 2) / 4.0)), 2, 0.0),
        "s_n": (s_n, 47, n / 2.0),
        "c2": (cp * math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0), 26, n / 2.0),
        "c3": (c7 / 4.0, 49, (n - 1) / 2.0),
        "c4": ((n - 1) * c7 / 4.0, 50, (n - 1) / 2.0),
        "c5": ((n - 2) * s_n / (2 * n * n), 49, n / 2.0),
        "c6": (s_n / n, 48, n / 2.0),
        "c7": (c7, 49, (n - 1) / 2.0),
        "c9": (s_n / (2 * n), 48, n / 2.0),
    }
    values, errors = {}, {}
    for name, (value, roundings, power) in entries.items():
        rel = roundings * _U + power * _PI_REL
        values[name] = value
        errors[name] = abs(value) * rel / (1.0 - rel)
    table = ConstantsTable(n=n, values=values, errors=errors, tol=tol)
    _CACHE[key] = table
    return table


def save_report(table: ConstantsTable, json_path, text_path=None):
    with open(json_path, "w") as fh:
        json.dump(table.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if text_path is not None:
        with open(text_path, "w") as fh:
            fh.write(table.report_text())
