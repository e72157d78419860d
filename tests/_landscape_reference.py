"""The landscape op in the form it had before its array passes were trimmed:
an oracle for ``hemiflow.fields``, ``hemiflow.landscape`` and ``hemiflow.census``.

``secular_roots`` scores every candidate with all three moment sums and
builds the root stage's candidates with ``broadcast_to`` and
``column_stack``; ``sphere_critical_points`` normalises its rows with
``unit_rows`` also when there are none, and ``min_max`` pads and
concatenates the trace rows.  ``find_critical_points`` classifies the
hemisphere's and the trace's roots in two passes, the trace's through
``boundary_hessian``.  ``census_report`` recomputes each point's
level term, iota and JSON coordinates for every entry that holds it, and
``entry_level`` reads the records themselves.  The library must agree with
all of them bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from hemiflow.census import (CensusEntry, a1_boundary_set, admissible_boundary, counting_A,
                             counting_B, existence_check, level_bands)
from hemiflow.errors import DegenerateCriticalPoint, NonPositiveField
from hemiflow.fields import SphereRoots
from hemiflow.geometry import BoundarySpherePoint, SpherePoint
from hemiflow.landscape import (DEAD_BAND, DEGENERACY_FLOOR, INTERIOR_HEIGHT, ZERO_TOL,
                                CriticalPointRecord, _classify_boundary,
                                _normal_derivative_error, classify, poincare_hopf_boundary)


def secular_roots(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    k = len(p)
    pencil = np.diag(np.concatenate([p, p]))
    pencil[:k, k:] = -np.eye(k)
    pencil[k:, :k] = -np.sqrt(np.outer(s, s))
    seeds = np.sort(np.linalg.eigvals(pencil).real)

    def moments(mu):  # f, and -f'/2 and f''/6
        inv = 1.0 / (mu[..., None] - p)
        inv2 = inv * inv
        return inv2 @ s - 1.0, (inv2 * inv) @ s, (inv2 * inv2) @ s

    def pick(cand, lo, hi, score):
        cand = np.where((lo[:, None] < cand) & (cand < hi[:, None]), cand, (lo + hi)[:, None] / 2)
        return cand[np.arange(len(lo)), np.argmin(score(moments(cand)[0]), axis=1)]

    lo, hi = p[:-1], p[1:]
    m = start = pick(0.5 * (seeds[1:] + seeds[:-1]), lo, hi, np.asarray)
    first, f3, f4 = moments(m)
    for _ in range(2):
        new = m + f3 / (3.0 * f4)
        m = np.where((lo < new) & (new < hi), new, m)
        fm, f3, f4 = moments(m)
    m, fm = np.where(fm < first, m, start), np.minimum(fm, first)
    two = fm <= 0.0
    reach = 2.0 * np.sqrt(s.sum())
    half = np.sqrt(-fm[two] / (3.0 * f4[two]))
    lo = np.concatenate([[p[0] - reach], lo[two], m[two], [p[-1]]])
    hi = np.concatenate([[p[0]], m[two], hi[two], [p[-1] + reach]])
    model = np.concatenate([[p[0]], m[two] - half, m[two] + half, [p[-1]]])
    mu = pick(np.column_stack([np.broadcast_to(seeds, (len(lo), 2 * k)), model]), lo, hi, np.abs)
    for _ in range(2):
        f, f3, _ = moments(mu)
        new = mu + f / (2.0 * f3)
        mu = np.where((lo < new) & (new < hi), new, mu)
    return mu


def sphere_critical_points(b: np.ndarray, Q: np.ndarray) -> SphereRoots:
    w, V = np.linalg.eigh(Q)
    c = V.T @ b / 2.0
    tol = 1e-12 * max(float(np.abs(w).max()), float(np.linalg.norm(c)))
    labels = np.concatenate([[0], np.cumsum(np.diff(w) > tol)])
    poles = np.bincount(labels, w) / np.bincount(labels)
    weights = np.bincount(labels, c * c)
    active = weights > tol * tol
    live = active[labels]

    def lift(mu):
        y = np.zeros((len(mu), len(c)))
        y[:, live] = c[live] / (mu[:, None] - poles[labels[live]])
        return y

    def unit_rows(ys):
        y = np.concatenate(ys) if ys else np.zeros((0, len(c)))
        x = (y / np.linalg.norm(y, axis=1, keepdims=True)) @ V.T
        x.flags.writeable = False
        return x

    ys = [lift(secular_roots(poles[active], weights[active]))] if active.any() else []
    tops = []
    for g in np.flatnonzero(~active):
        y = lift(poles[g:g + 1])
        r2 = 1.0 - float(np.sum(y * y))
        if r2 <= 0.0:
            continue
        members = np.flatnonzero(labels == g)
        if len(members) >= 2:
            up = V[-1, members]
            y[0, members] = np.sqrt(r2) * (up / np.linalg.norm(up) if up.any()
                                           else np.eye(len(members))[0])
            tops.append(y)
        else:
            y = np.repeat(y, 2, axis=0)
            y[:, members[0]] = [np.sqrt(r2), -np.sqrt(r2)]
            ys.append(y)
    return SphereRoots(unit_rows(ys), unit_rows(tops))


def sphere_roots(K) -> tuple:
    n, b, q = K.n, K.linear, K.quadratic
    return sphere_critical_points(b, q), sphere_critical_points(b[:n], q[:n, :n])


def min_max(K, roots) -> tuple:
    hemisphere, trace = roots
    upper = np.concatenate([hemisphere.points, hemisphere.tops])
    pts = [upper[upper[:, -1] > 0.0],
           np.pad(np.concatenate([trace.points, trace.tops]), ((0, 0), (0, 1)))]
    vals = K.value(np.concatenate(pts))
    kmin, kmax = float(vals.min()), float(vals.max())
    if kmin <= 0.0:
        raise NonPositiveField(f"field takes values <= 0 (minimum {kmin})")
    return kmin, kmax


def find_critical_points(K) -> list:
    n = K.n
    hemisphere, equator = K.sphere_roots
    if len(equator.tops) or np.any(hemisphere.tops[:, -1] > INTERIOR_HEIGHT):
        raise DegenerateCriticalPoint(
            "tangent gradient vanishes on a continuum; the field has no "
            "isolated critical points")
    inner = hemisphere.points[hemisphere.points[:, -1] > INTERIOR_HEIGHT]
    z = equator.points
    trace = np.concatenate([z, np.zeros((len(z), 1))], axis=1)
    records = sphere_records(K, inner, False) + sphere_records(K, trace, True)
    if poincare_hopf_boundary(records, n) != 1 + (-1) ** (n - 1):
        raise DegenerateCriticalPoint(
            "trace critical points fail the Poincare-Hopf count on the equator sphere")
    keys = np.round(np.concatenate([inner, trace]), 9).tolist()
    return [records[i] for i in sorted(range(len(records)), key=keys.__getitem__)]


def sphere_records(K, xs: np.ndarray, on_equator: bool) -> list:
    hess = K.boundary_hessian(xs) if on_equator else K.tangent_hessian(xs)
    evals = np.linalg.eigvalsh(hess)
    degenerate = np.min(np.abs(evals), axis=1) < DEGENERACY_FLOOR
    indices = np.sum(evals < 0, axis=1).tolist()
    values = K.value(xs).tolist()
    laps = K.laplace_beltrami(xs).tolist()
    if on_equator:
        nus = K.normal_derivative(xs)
        size = np.abs(nus)
        near = (ZERO_TOL <= size) & (size < DEAD_BAND * ZERO_TOL)
        errors = np.zeros(len(xs))
        if near.any():
            errors[near] = _normal_derivative_error(K, xs[near], evals[near])
        nus, errors = nus.tolist(), errors.tolist()
    else:
        nus = errors = [None] * len(xs)
    point = BoundarySpherePoint if on_equator else SpherePoint
    records = []
    for v, bad, index, value, lap, nu, error, ev in zip(xs, degenerate, indices, values, laps,
                                                        nus, errors, evals.tolist()):
        if bad:
            where = "boundary" if on_equator else "interior"
            raise DegenerateCriticalPoint(f"degenerate {where} critical point at {v.tolist()}")
        records.append(CriticalPointRecord(
            location=point(v), kind="boundary_of_K1" if on_equator else "interior_of_K",
            morse_index=index, value=value, laplacian=lap, normal_derivative=nu,
            classification=(_classify_boundary(nu, lap, error) if on_equator
                            else "K_in_minus" if lap < 0 else "other"),
            hessian_eigenvalues=tuple(ev),
        ))
    return records


def entry_level(boundary, interior, s_n: float, n: int) -> float:
    qsum = sum(r.value ** (-(n - 2) / 2.0) for r in boundary)
    qsum += 2.0 * sum(r.value ** (-(n - 2) / 2.0) for r in interior)
    return s_n ** (2.0 / n) * qsum ** (2.0 / n)


def enumerate_census(records, mass_max: int, s_n: float, n: int) -> list:
    bnd = admissible_boundary(records)
    inn = [r for r in records if r.classification == "K_in_minus"]
    entries = []
    for q in range(0, min(len(bnd), mass_max) + 1):
        for p in range(0, (mass_max - q) // 2 + 1):
            if q + p < 1 or p > len(inn):
                continue
            for zs in itertools.combinations(bnd, q):
                for ys in itertools.combinations(inn, p):
                    index = len(zs) + len(ys) - 1 + sum(r.iota(n) for r in (*zs, *ys))
                    entries.append(CensusEntry(boundary_points=zs, interior_points=ys,
                                               level=entry_level(zs, ys, s_n, n), index=index))
    entries.sort(key=lambda e: (e.level, e.mass, e.index))
    return entries


def census_report(records, report, k_min, k_max, s_n, n, mass_max=4) -> dict:
    census = enumerate_census(records, mass_max, s_n, n)
    bands, plain, deform = level_bands(k_min, k_max, s_n, n, mass_max)
    verdict, table = existence_check(records, report, k_min, k_max, n)
    bset = a1_boundary_set(records)
    a_vals = counting_A([r.iota(n) for r in bset])
    b_vals = counting_B([r.iota(n) for r in classify(records)["K_in_minus"]])
    admissible = admissible_boundary(records)
    return {
        "census": [{
            "boundary_points": [list(map(float, r.location.coords)) for r in e.boundary_points],
            "interior_points": [list(map(float, r.location.coords)) for r in e.interior_points],
            "level": e.level, "index": e.index, "mass": e.mass,
        } for e in census],
        "bands": [{"mass": b.mass, "lo": b.lo, "hi": b.hi} for b in bands],
        "bands_plain_disjoint": plain,
        "bands_deformation_disjoint": deform,
        "A": list(a_vals),
        "B": list(b_vals),
        "a1_set_size": len(bset),
        "admissible_boundary_size": len(admissible),
        "sign_set_minus_admissible": len(bset) - len(admissible),
        "verdict": verdict.to_json(),
        "theorems": {k: v.to_json() for k, v in table.items()},
    }
