"""Critical points of the curvature candidate and their classification.

Two searches run separately: the field K on the closed upper hemisphere
and its boundary trace K_1 on the equator sphere.  For the degree-2 family
both are exact: the critical points of x -> b.x + x.Q.x on a sphere follow
from one symmetric eigendecomposition and a one-dimensional secular
equation, so the root list is complete by construction (and checked by the
Poincare-Hopf count on the equator).  Roots are classified by the exact
signs of the Laplacian and the outward normal derivative:

    interior points with vanishing gradient and negative Laplacian,
    boundary points with positive normal derivative,
    boundary points with vanishing normal derivative and negative Laplacian

make up the admissible set that the census enumerates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousSign, DegenerateCriticalPoint
from .fields import ScalarField
from .geometry import BoundarySpherePoint, SpherePoint, tangent_basis

DEGENERACY_FLOOR = 1e-8
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class CriticalPointRecord:
    location: SpherePoint
    kind: str                  # "interior_of_K" | "boundary_of_K1"
    morse_index: int
    value: float
    laplacian: float
    normal_derivative: float | None
    nondegenerate: bool
    classification: str        # "K_in_minus" | "K_b_plus" | "K_b_0_minus" | "other"
    hessian_eigenvalues: tuple = field(default=())

    @property
    def is_boundary(self) -> bool:
        return self.kind == "boundary_of_K1"

    def is_local_max(self) -> bool:
        dim = len(self.hessian_eigenvalues)
        return self.morse_index == dim

    def iota(self, n: int) -> int:
        """Index weight entering the alternating sums."""
        if self.is_boundary:
            return n - 1 - self.morse_index
        return n - self.morse_index

    def to_json(self) -> dict:
        return {
            "location": [float(c) for c in self.location.coords],
            "kind": self.kind,
            "morse_index": self.morse_index,
            "value": self.value,
            "laplacian": self.laplacian,
            "normal_derivative": self.normal_derivative,
            "nondegenerate": self.nondegenerate,
            "classification": self.classification,
            "hessian_eigenvalues": [float(v) for v in self.hessian_eigenvalues],
        }

    @staticmethod
    def from_json(doc: dict) -> "CriticalPointRecord":
        coords = np.asarray(doc["location"], dtype=float)
        loc = BoundarySpherePoint(coords) if doc["kind"] == "boundary_of_K1" else SpherePoint(coords)
        return CriticalPointRecord(
            location=loc, kind=doc["kind"], morse_index=int(doc["morse_index"]),
            value=float(doc["value"]), laplacian=float(doc["laplacian"]),
            normal_derivative=(None if doc["normal_derivative"] is None
                               else float(doc["normal_derivative"])),
            nondegenerate=bool(doc["nondegenerate"]),
            classification=doc["classification"],
            hessian_eigenvalues=tuple(doc["hessian_eigenvalues"]),
        )


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def _bisect(g, a: float, b: float) -> float:
    """Sign change of a monotone g between a (where g <= 0) and b (where
    g > 0), in either order, to adjacent floats.  Only points strictly
    between a and b are evaluated, so either may be a pole."""
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return mid
        if g(mid) <= 0.0:
            a = mid
        else:
            b = mid


def _sphere_critical_points(b: np.ndarray, Q: np.ndarray, height_floor: float | None = None):
    """Every critical point of x -> b.x + x.Q.x on the unit sphere of R^d.

    The Lagrange condition b + 2Qx = 2 mu x reads (mu - w_i) y_i = c_i in
    the eigenbasis Q = V diag(w) V^T, with y = V^T x and c = V^T b / 2
    (the constrained eigenvalue problem of Gander, Golub & von Matt, Linear
    Algebra Appl. 114/115, 1989).  Eigenvalues equal to rounding form one
    cluster g with weight s_g = |c_g|^2.  The roots are

    * secular: f(mu) = sum_g s_g / (mu - w_g)^2 = 1 over the clusters with
      s_g > 0; one root lies beyond each outer pole, and f is convex between
      consecutive poles, so it has 0 or 2 roots there;
    * eigenvector branches: for a cluster with c_g = 0, mu = w_g and the
      cluster part of y has length sqrt(1 - |y|^2) when that is real; a
      cluster of dimension >= 2 then carries a continuum of critical points.

    With ``height_floor`` only points whose last coordinate exceeds it are
    returned, and only a continuum reaching above it raises.
    """
    w, V = np.linalg.eigh(Q)
    c = V.T @ b / 2.0
    tol = 1e-12 * max(float(np.abs(w).max()), float(np.linalg.norm(c)))
    labels = np.concatenate([[0], np.cumsum(np.diff(w) > tol)])
    poles = np.bincount(labels, w) / np.bincount(labels)
    weights = np.bincount(labels, c * c)
    active = weights > tol * tol
    live = active[labels]

    def lift(mu):
        y = np.zeros_like(c)
        y[live] = c[live] / (mu - poles[labels[live]])
        return y

    p = [float(v) for v in poles[active]]
    s = [float(v) for v in weights[active]]

    def f(mu):
        return sum(sk / (mu - pk) ** 2 for sk, pk in zip(s, p)) - 1.0

    def df(mu):
        return -2.0 * sum(sk / (mu - pk) ** 3 for sk, pk in zip(s, p))

    mus = []
    if p:
        reach = 2.0 * np.sqrt(sum(s))
        mus = [_bisect(f, p[0] - reach, p[0]), _bisect(f, p[-1] + reach, p[-1])]
        for lo, hi in zip(p[:-1], p[1:]):
            m = _bisect(df, lo, hi)
            if f(m) <= 0.0:
                mus += [_bisect(f, m, lo), _bisect(f, m, hi)]
    ys = [lift(mu) for mu in mus]
    for g in np.flatnonzero(~active):
        y = lift(poles[g])
        r2 = 1.0 - float(y @ y)
        if r2 <= 0.0:
            continue
        members = np.flatnonzero(labels == g)
        if len(members) >= 2:
            # highest point of the sphere V y + sqrt(r2) * span(V[:, members])
            top = (V @ y)[-1] + np.sqrt(r2) * np.linalg.norm(V[-1, members])
            if height_floor is None or top > height_floor:
                raise DegenerateCriticalPoint(
                    "tangent gradient vanishes on a continuum; the field has no "
                    "isolated critical points")
            continue
        for sign in (1.0, -1.0):
            ys.append(y.copy())
            ys[-1][members[0]] = sign * np.sqrt(r2)
    xs = [V @ (y / np.linalg.norm(y)) for y in ys]
    return [x for x in xs if height_floor is None or x[-1] > height_floor]


def find_critical_points(K: ScalarField, seeds_per_dim: int = 10, seed: int = 2024):
    """Locate and classify all critical points of K and of its boundary trace.

    Boundary-located roots of the full field coincide with roots of the
    trace having vanishing normal derivative, so the equator search owns
    every boundary record; the hemisphere search keeps interior roots only.
    Both are exact enumerations, so ``seeds_per_dim`` (validated to be at
    least 8) and ``seed`` no longer affect the result.  Raises
    :class:`DegenerateCriticalPoint` when a Hessian eigenvalue sits below the
    nondegeneracy floor, when the critical set is a continuum, or when the
    trace roots fail the Poincare-Hopf count on the equator sphere.
    """
    if seeds_per_dim < 8:
        raise ValueError("seeds_per_dim must be at least 8")
    n = K.n
    b, Q = K.linear, K.quadratic
    roots = [(v, False) for v in _sphere_critical_points(b, Q, height_floor=1e-9)]
    roots += [(np.append(z, 0.0), True) for z in _sphere_critical_points(b[:n], Q[:n, :n])]
    records = []
    for v, on_equator in roots:
        if on_equator:
            pt = BoundarySpherePoint(v)
            hess = K.boundary_hessian(pt, tangent_basis(v, within_equator=True))
            nu = K.normal_derivative(pt)
        else:
            pt = SpherePoint(v)
            hess = K.tangent_hessian(pt, tangent_basis(v))
            nu = None
        evals = np.linalg.eigvalsh(hess)
        if np.min(np.abs(evals)) < DEGENERACY_FLOOR:
            where = "boundary" if on_equator else "interior"
            raise DegenerateCriticalPoint(f"degenerate {where} critical point at {v}")
        lap = K.laplace_beltrami(pt)
        records.append(CriticalPointRecord(
            location=pt, kind="boundary_of_K1" if on_equator else "interior_of_K",
            morse_index=int(np.sum(evals < 0)), value=K.value(pt), laplacian=lap,
            normal_derivative=nu, nondegenerate=True,
            classification=(_classify_boundary(nu, lap) if on_equator
                            else "K_in_minus" if lap < 0 else "other"),
            hessian_eigenvalues=tuple(float(x) for x in evals),
        ))
    if poincare_hopf_boundary(records, n) != 1 + (-1) ** (n - 1):
        raise DegenerateCriticalPoint(
            "trace critical points fail the Poincare-Hopf count on the equator sphere")
    records.sort(key=lambda r: tuple(np.round(r.location.coords, 9)))
    return records


def _classify_boundary(nu: float, lap: float, zero_tol: float = ZERO_TOL) -> str:
    if abs(nu) < zero_tol:
        return "K_b_0_minus" if lap < 0 else "other"
    if zero_tol <= abs(nu) < 10.0 * zero_tol:
        raise AmbiguousSign(f"normal derivative {nu} inside the dead band")
    return "K_b_plus" if nu > 0 else "other"


def classify(records, zero_tol: float = ZERO_TOL) -> dict:
    """Partition records into the admissible families."""
    out = {"K_in_minus": [], "K_b_plus": [], "K_b_0_minus": [], "other": []}
    for r in records:
        if r.is_boundary:
            label = _classify_boundary(r.normal_derivative, r.laplacian, zero_tol)
        else:
            label = "K_in_minus" if r.laplacian < 0 else "other"
        out[label].append(r)
    out["K_infinity"] = out["K_in_minus"] + out["K_b_plus"] + out["K_b_0_minus"]
    return out


# ---------------------------------------------------------------------------
# Assumption report
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    h1: bool
    h2: bool
    h3: bool
    h3_branches: dict
    violations: list

    def all_hold(self) -> bool:
        return self.h1 and self.h2 and self.h3

    def to_json(self) -> dict:
        return {
            "H1": self.h1, "H2": self.h2, "H3": self.h3,
            "H3_branches": {str(k): v for k, v in self.h3_branches.items()},
            "violations": list(self.violations),
        }


def check_assumptions(records, K: ScalarField, ball_radius: float = 0.05,
                      samples: int = 200, seed: int = 99) -> AssumptionReport:
    """Nondegeneracy and sign conditions at the located critical points.

    H1: every critical point of the full field (including boundary-located
        ones) is nondegenerate with nonvanishing Laplacian.
    H2: trace critical points are nondegenerate and the non-maxima carry a
        nonpositive normal derivative.
    H3: at boundary points with vanishing normal derivative, either the
        product (dK/dnu)(a) * lap K(z) stays nonpositive on a sampled
        equatorial ball (branch i), or the ratio (dK/dnu)(a)/d(a, z) decays
        along shrinking radii (branch ii).
    """
    n = K.n
    violations = []
    h1 = True
    for r in records:
        if r.kind == "interior_of_K":
            if not r.nondegenerate or abs(r.laplacian) < ZERO_TOL:
                h1 = False
                violations.append(f"H1: degenerate or harmonic interior point at {r.location.coords}")
        elif abs(r.normal_derivative) < ZERO_TOL:
            # boundary-located critical point of the full field
            basis = tangent_basis(r.location.coords)
            evals = np.linalg.eigvalsh(K.tangent_hessian(r.location, basis))
            if np.min(np.abs(evals)) < DEGENERACY_FLOOR or abs(r.laplacian) < ZERO_TOL:
                h1 = False
                violations.append(f"H1: boundary-located field critical point degenerate at {r.location.coords}")

    h2 = True
    for r in records:
        if not r.is_boundary:
            continue
        if not r.nondegenerate:
            h2 = False
            violations.append(f"H2: degenerate trace critical point at {r.location.coords}")
        if not r.is_local_max() and r.normal_derivative > ZERO_TOL:
            h2 = False
            violations.append(
                f"H2: non-maximum with positive normal derivative at {r.location.coords}")

    h3 = True
    branches = {}
    rng = np.random.default_rng(seed)
    for r in records:
        if not r.is_boundary or abs(r.normal_derivative) >= ZERO_TOL:
            continue
        if abs(r.laplacian) < ZERO_TOL:
            h3 = False
            violations.append(f"H3: vanishing Laplacian at {r.location.coords}")
            continue
        z = r.location.coords
        basis = tangent_basis(z, within_equator=True)
        branch_i = True
        ratio_chain = []
        # halve the radius until the chain can certify the 1% decay required
        # of the vanishing-ratio branch (a linearly decaying ratio needs a
        # radius span above one hundred)
        radii = [ball_radius / 2**k for k in range(8)]
        for radius in radii:
            worst = 0.0
            for _ in range(samples):
                u = rng.standard_normal(len(basis))
                u /= np.linalg.norm(u)
                a = np.cos(radius) * z + np.sin(radius) * (u @ basis)
                a /= np.linalg.norm(a)
                nu = K.normal_derivative(a)
                if nu * r.laplacian > 1e-12:
                    branch_i = False
                worst = max(worst, abs(nu) / radius)
            ratio_chain.append(worst)
        branch_ii = ratio_chain[-1] <= max(0.01 * ratio_chain[0], 1e-12)
        branches[tuple(np.round(z, 6))] = {
            "branch_i": branch_i, "branch_ii": branch_ii, "ratios": ratio_chain}
        if not (branch_i or branch_ii):
            h3 = False
            violations.append(f"H3: both branches fail at {z}")

    return AssumptionReport(h1=h1, h2=h2, h3=h3, h3_branches=branches, violations=violations)


def poincare_hopf_boundary(records, n: int) -> int:
    """Alternating index sum over the trace critical points; equals the Euler
    characteristic of the equator sphere, 1 + (-1)^{n-1}."""
    return int(sum((-1) ** r.morse_index for r in records if r.is_boundary))


def hemisphere_index_tally(records) -> int:
    """Reported (not asserted) alternating sum over the full-field critical
    points located in the open hemisphere."""
    return int(sum((-1) ** r.morse_index for r in records if not r.is_boundary))


def save_records(records, path):
    with open(path, "w") as fh:
        json.dump([r.to_json() for r in records], fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_records(path):
    with open(path) as fh:
        return [CriticalPointRecord.from_json(doc) for doc in json.load(fh)]
