"""Critical points of the curvature candidate and their classification.

Two searches run separately: the field K on the closed upper hemisphere
and its boundary trace K_1 on the equator sphere.  For the degree-2 family
both are exact (:func:`hemiflow.fields.sphere_critical_points`): the
critical points of x -> b.x + x.Q.x on a sphere follow from one symmetric
eigendecomposition and a secular equation whose roots are the real
eigenvalues of one 2k x 2k matrix (k distinct eigenvalues of Q), polished
by Newton steps, with sign tests fixing the count between each two poles.
Each field enumerates each sphere once (:attr:`ScalarField.sphere_roots`),
and ``ScalarField.min_max`` reads the same result.  The root list is
complete by construction (and checked by the Poincare-Hopf count on the
equator).  The roots of both searches are classified in one batched pass,
the trace's Hessians being a block of the sphere's (:func:`_records`), by
the exact signs of the Laplacian and the outward normal derivative:

    interior points with vanishing gradient and negative Laplacian,
    boundary points with positive normal derivative,
    boundary points with vanishing normal derivative and negative Laplacian

make up the admissible set that the census enumerates.  A normal derivative
below ``ZERO_TOL`` counts as zero.  Above it, the sign class is refused
(:class:`AmbiguousSign`) only while ``ZERO_TOL`` lies within the error of
dK/dnu (:func:`_normal_derivative_error`), and never from ``DEAD_BAND *
ZERO_TOL`` up.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import AmbiguousSign, DegenerateCriticalPoint
from .fields import ScalarField
from .geometry import BoundarySpherePoint, SpherePoint
from .record import FrozenRecord, Record, set_field

DEGENERACY_FLOOR = 1e-8
ZERO_TOL = 1e-9
DEAD_BAND = 10.0  # |dK/dnu| from DEAD_BAND * ZERO_TOL up has a certain sign class
INTERIOR_HEIGHT = 1e-9  # hemisphere roots at or below this height belong to the trace
H3_BALL_RADIUS = 0.05  # largest equatorial radius of the H3 sphere chain


class CriticalPointRecord(FrozenRecord):
    location: SpherePoint
    kind: str                  # "interior_of_K" | "boundary_of_K1"
    morse_index: int
    value: float
    laplacian: float
    normal_derivative: float | None
    classification: str        # "K_in_minus" | "K_b_plus" | "K_b_0_minus" | "other"
    hessian_eigenvalues: tuple = ()

    def __init__(self, location, kind, morse_index, value, laplacian, normal_derivative,
                 classification, hessian_eigenvalues=hessian_eigenvalues):
        set_field(self, "location", location)
        set_field(self, "kind", kind)
        set_field(self, "morse_index", morse_index)
        set_field(self, "value", value)
        set_field(self, "laplacian", laplacian)
        set_field(self, "normal_derivative", normal_derivative)
        set_field(self, "classification", classification)
        set_field(self, "hessian_eigenvalues", hessian_eigenvalues)

    @property
    def is_boundary(self) -> bool:
        return self.kind == "boundary_of_K1"

    @property
    def normal_sign(self) -> int | None:
        """Sign of dK/dnu against ``ZERO_TOL`` (-1, 0 or +1); None inside."""
        nu = self.normal_derivative
        return None if nu is None else 0 if abs(nu) < ZERO_TOL else 1 if nu > 0 else -1

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
            # a degenerate root raises before its record is built
            "nondegenerate": True,
            "classification": self.classification,
            "hessian_eigenvalues": [float(v) for v in self.hessian_eigenvalues],
        }


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def find_critical_points(K: ScalarField, seeds_per_dim: int = 10, seed: int = 2024):
    """Locate and classify all critical points of K and of its boundary trace.

    Boundary-located roots of the full field coincide with roots of the
    trace having vanishing normal derivative, so the equator search owns
    every boundary record; the hemisphere search keeps interior roots only.
    Both are exact enumerations, read off ``K.sphere_roots``, so
    ``seeds_per_dim`` (validated to be at least 8) and ``seed`` do not
    affect the result; only the benchmark workloads still pass them.  The
    interior roots and then the trace roots, written into one batch, are
    classified in one pass (:func:`_records`): one sphere Hessian, value and
    Laplacian call for all of them, whose records are sorted by coordinates.
    Raises :class:`DegenerateCriticalPoint` when a Hessian eigenvalue sits
    below the nondegeneracy floor, when a continuum of critical points
    reaches above ``INTERIOR_HEIGHT`` or lies on the trace, or when the
    trace roots fail the Poincare-Hopf count on the equator sphere, and
    :class:`AmbiguousSign` when the sign class of a trace root is not
    certain (:func:`_classify_boundary`).
    """
    if seeds_per_dim < 8:
        raise ValueError("seeds_per_dim must be at least 8")
    n = K.n
    hemisphere, equator = K.sphere_roots
    if len(equator.tops) or np.any(hemisphere.tops[:, -1] > INTERIOR_HEIGHT):
        raise DegenerateCriticalPoint(
            "tangent gradient vanishes on a continuum; the field has no "
            "isolated critical points")
    inner = hemisphere.points[hemisphere.points[:, -1] > INTERIOR_HEIGHT]
    z = equator.points
    trace = np.concatenate([z, np.zeros((len(z), 1))], axis=1)
    xs = np.concatenate([inner, trace])
    records = _records(K, xs, len(inner))
    if poincare_hopf_boundary(records, n) != 1 + (-1) ** (n - 1):
        raise DegenerateCriticalPoint(
            "trace critical points fail the Poincare-Hopf count on the equator sphere")
    keys = np.round(xs, 9).tolist()
    return [records[i] for i in sorted(range(len(records)), key=keys.__getitem__)]


def _records(K: ScalarField, xs: np.ndarray, k1: int) -> list:
    """Classify the roots xs (k, n+1), the k1 interior roots of K and then
    the trace roots (last coordinate zero), from one batched Hessian,
    eigenvalue, value, Laplacian and normal-derivative pass; the records
    come out in the order of xs, and each error is raised at its root.

    One sphere Hessian serves both kinds.  At a trace root z, z_{n+1} = 0,
    so the last row of the default :func:`hemiflow.geometry.tangent_basis` is
    e_{n+1}, and the basis less that row is the trace's default basis, row
    for row the same bits.  The equator is totally geodesic and
    <dK(z), z> = <dK_1(z), z>, so on its tangent vectors both Hessians read
    X.2Q.Y - <dK(z), z> X.Y, and the leading (n-1) block of the sphere
    Hessian is the matrix of ``ScalarField.boundary_hessian``, entry for
    entry the same products.
    """
    hess = K.tangent_hessian(xs)
    evals = (np.linalg.eigvalsh(hess[:k1]).tolist()
             + np.linalg.eigvalsh(hess[k1:, :-1, :-1]).tolist())
    values = K.value(xs).tolist()
    laps = K.laplace_beltrami(xs).tolist()
    trace = xs[k1:]
    nus = K.normal_derivative(trace)
    size = np.abs(nus)
    # an error bound is needed only inside the dead band
    near = (ZERO_TOL <= size) & (size < DEAD_BAND * ZERO_TOL)
    errors = np.zeros(len(trace))
    if near.any():
        errors[near] = _normal_derivative_error(K, trace[near], np.array(evals[k1:])[near])
    nus = [None] * k1 + nus.tolist()
    errors = [None] * k1 + errors.tolist()
    records = []
    for i, (v, value, lap, nu, error, ev) in enumerate(zip(xs, values, laps, nus, errors, evals)):
        inside = i < k1
        if min(map(abs, ev)) < DEGENERACY_FLOOR:
            where = "interior" if inside else "boundary"
            raise DegenerateCriticalPoint(f"degenerate {where} critical point at {v.tolist()}")
        records.append(CriticalPointRecord(
            location=SpherePoint(v) if inside else BoundarySpherePoint(v),
            kind="interior_of_K" if inside else "boundary_of_K1",
            morse_index=len([e for e in ev if e < 0]), value=value, laplacian=lap,
            normal_derivative=nu,
            classification=(("K_in_minus" if lap < 0 else "other") if inside
                            else _classify_boundary(nu, lap, error)),
            hessian_eigenvalues=tuple(ev),
        ))
    return records


def _normal_derivative_error(K: ScalarField, zs: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """A bound on the error of dK/dnu at computed trace roots zs (k, n+1),
    whose boundary Hessians have eigenvalues evals (k, n-1).

    On the equator dK/dnu(z) = c + w.z, c = -b_{n+1}, w = -2 Q[n+1, :], is
    affine, so its evaluation rounds by at most gamma_{n+2} (|c| + |w|.|z|),
    gamma_m = m u / (1 - m u).  The computed root z misses the exact one by
    about one Newton step, |grad K_1(z)| / min |lambda|, over which dK/dnu
    moves at the rate |w_T|, w projected on the tangent space of the equator
    sphere at z.
    """
    n = K.n
    u = np.finfo(float).eps / 2.0
    gamma = (n + 2) * u / (1.0 - (n + 2) * u)
    w = -2.0 * K.quadratic[-1, :n]
    z = zs[:, :n]
    rounding = gamma * (abs(K.linear[-1]) + np.abs(z) @ np.abs(w))
    g = K.ambient_gradient(zs)[:, :n]
    # a degenerate root raises before its sign class is asked for
    floor = np.maximum(np.min(np.abs(evals), axis=1), DEGENERACY_FLOOR)
    step = np.linalg.norm(_equator_tangent(g, z), axis=1) / floor
    return rounding + np.linalg.norm(_equator_tangent(w, z), axis=1) * step


def _equator_tangent(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """w - (w.z) z: the part of w tangent to the equator sphere at z, in R^n."""
    return w - np.vecdot(w, z, keepdims=True) * z


def _classify_boundary(nu: float, lap: float, error: float = np.inf) -> str:
    """Sign class of a trace root with normal derivative nu and Laplacian lap.

    |nu| < ZERO_TOL counts as zero.  Otherwise the class needs |nu| - error >=
    ZERO_TOL, with ``error`` a bound on the error of nu; without one the whole
    dead band [ZERO_TOL, DEAD_BAND * ZERO_TOL) is ambiguous, and from its top
    up the sign is taken as it is.
    """
    if abs(nu) < ZERO_TOL:
        return "K_b_0_minus" if lap < 0 else "other"
    if abs(nu) < min(DEAD_BAND * ZERO_TOL, ZERO_TOL + error):
        raise AmbiguousSign(f"normal derivative {nu} inside the dead band (error bound {error:.3g})")
    return "K_b_plus" if nu > 0 else "other"


def classify(records) -> dict:
    """Partition records into the admissible families by their stored
    classification."""
    out = {"K_in_minus": [], "K_b_plus": [], "K_b_0_minus": [], "other": []}
    for r in records:
        out[r.classification].append(r)
    out["K_infinity"] = out["K_in_minus"] + out["K_b_plus"] + out["K_b_0_minus"]
    return out


# ---------------------------------------------------------------------------
# Assumption report
# ---------------------------------------------------------------------------

class AssumptionReport(Record):
    h1: bool
    h2: bool
    h3: bool
    h3_branches: dict
    violations: list

    def __init__(self, h1, h2, h3, h3_branches, violations):
        self.h1 = h1
        self.h2 = h2
        self.h3 = h3
        self.h3_branches = h3_branches
        self.violations = violations

    def to_json(self) -> dict:
        return {
            "H1": self.h1, "H2": self.h2, "H3": self.h3,
            "H3_branches": {str(k): v for k, v in self.h3_branches.items()},
            "violations": list(self.violations),
        }


def check_assumptions(records, K: ScalarField) -> AssumptionReport:
    """Nondegeneracy and sign conditions at the located critical points.

    H1: every critical point of the full field (including boundary-located
        ones) is nondegenerate with nonvanishing Laplacian.
    H2: trace critical points are nondegenerate and the non-maxima carry a
        nonpositive normal derivative.
    H3: at boundary points z with vanishing normal derivative, either the
        product (dK/dnu)(a) * lap K(z) stays nonpositive on the equatorial
        geodesic spheres about z (branch i), or the ratio
        sup |dK/dnu(a)| / d(a, z) decays along shrinking radii (branch ii).

    Every record is nondegenerate (``find_critical_points`` raises on a
    degenerate root); only the boundary-located points of the full field
    get their tangent Hessian, in the default basis, checked here.

    Both suprema over a sphere are exact.  On the equator dK/dnu(a) = c + w.a
    with c = -b_{n+1} and w = -2 Q[n+1, :].  The sphere of radius rho about z
    inside the equator is a = cos(rho) z + sin(rho) u over the unit tangents u
    at z, so with w_T the part of w tangent there (:func:`_equator_tangent`) and
    mid = c + cos(rho) w.z, dK/dnu(a) ranges over mid + sin(rho) [-|w_T|, |w_T|]:

        sup lap * dK/dnu = lap * mid + |lap| sin(rho) |w_T|,
        sup |dK/dnu|     = |mid| + sin(rho) |w_T|,

    attained at u = +-w_T / |w_T|.
    """
    violations = []
    h1 = True
    for r in records:
        if r.kind == "interior_of_K":
            if abs(r.laplacian) < ZERO_TOL:
                h1 = False
                violations.append("H1: degenerate or harmonic interior point at "
                                  f"{r.location.coords.tolist()}")
        elif r.normal_sign == 0:
            # boundary-located critical point of the full field
            evals = np.linalg.eigvalsh(K.tangent_hessian(r.location))
            if np.min(np.abs(evals)) < DEGENERACY_FLOOR or abs(r.laplacian) < ZERO_TOL:
                h1 = False
                violations.append("H1: boundary-located field critical point degenerate at "
                                  f"{r.location.coords.tolist()}")

    h2 = True
    for r in records:
        if not r.is_boundary:
            continue
        if not r.is_local_max() and r.normal_sign > 0:
            h2 = False
            violations.append(
                f"H2: non-maximum with positive normal derivative at {r.location.coords.tolist()}")

    h3 = True
    branches = {}
    c, w = -K.linear[-1], -2.0 * K.quadratic[-1]
    # halve the radius until the chain can certify the 1% decay required of
    # the vanishing-ratio branch (a linearly decaying ratio needs a radius
    # span above one hundred)
    radii = H3_BALL_RADIUS / 2.0 ** np.arange(8)
    for r in records:
        if r.normal_sign != 0:
            continue
        if abs(r.laplacian) < ZERO_TOL:
            h3 = False
            violations.append(f"H3: vanishing Laplacian at {r.location.coords.tolist()}")
            continue
        z = r.location.coords
        mid = c + np.cos(radii) * (w @ z)
        spread = np.sin(radii) * np.linalg.norm(_equator_tangent(w[:-1], z[:-1]))
        branch_i = bool(np.all(r.laplacian * mid + abs(r.laplacian) * spread <= 1e-12))
        ratio_chain = ((np.abs(mid) + spread) / radii).tolist()
        branch_ii = ratio_chain[-1] <= max(0.01 * ratio_chain[0], 1e-12)
        branches[tuple(np.round(z, 6))] = {
            "branch_i": branch_i, "branch_ii": branch_ii, "ratios": ratio_chain}
        if not (branch_i or branch_ii):
            h3 = False
            violations.append(f"H3: both branches fail at {z.tolist()}")

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
