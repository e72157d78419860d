"""Census of asymptotic critical collections, energy bands, counting
formulas, and the combinatorial existence tests.

An entry of the census is a choice of q distinct admissible boundary points
(local maxima of the trace with positive normal derivative, or points with
vanishing normal derivative and negative Laplacian) together with p
distinct interior points with negative Laplacian.  Its limiting energy and
index are

    level = s_n^{2/n} (sum K(z)^{-(n-2)/2} + 2 sum K(y)^{-(n-2)/2})^{2/n}
    index = q+p-1 + sum (n-1 - morse(trace, z)) + sum (n - morse(K, y)),

and the relative homology across the level is rank one exactly in degree
``index``.  The three existence tests compare alternating index sums
against the Euler characteristic of contractible sublevels under pinching
bounds of the form ((k+1)/k)^{1/(n-2)}.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .record import FrozenRecord, Record, set_field

if TYPE_CHECKING:
    from .landscape import AssumptionReport


# ---------------------------------------------------------------------------
# Level bands
# ---------------------------------------------------------------------------

class LevelBand(FrozenRecord):
    mass: int
    lo: float   # (mass s_n)^{2/n} / K_max^{(n-2)/n}
    hi: float   # (mass s_n)^{2/n} / K_min^{(n-2)/n}

    def __init__(self, mass, lo, hi):
        set_field(self, "mass", mass)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)


def level_bands(k_min: float, k_max: float, s_n: float, n: int, ell_max: int):
    """Energy bands per total mass, with the two disjointness reports.

    ``plain_disjoint``: hi(l) < lo(l+1); ``deformation_disjoint``: the
    stronger condition hi(l) * (K_max/K_min)^{(n-2)/n} < lo(l+1) used by the
    retraction argument, equivalent to pinch < ((l+1)/l)^{1/(n-2)}.
    """
    bands = []
    for ell in range(1, ell_max + 1):
        base = (ell * s_n) ** (2.0 / n)
        bands.append(LevelBand(ell, base / k_max ** ((n - 2) / n), base / k_min ** ((n - 2) / n)))
    pinch = k_max / k_min
    plain, deform = [], []
    for ell in range(1, ell_max):
        plain.append(bands[ell - 1].hi < bands[ell].lo)
        deform.append(bands[ell - 1].hi * pinch ** ((n - 2.0) / n) < bands[ell].lo)
    return bands, plain, deform


def pinch_threshold(k: int, n: int) -> float:
    """((k+1)/k)^{1/(n-2)}, the pinching gate that keeps bands 1..k+1 apart."""
    return ((k + 1.0) / k) ** (1.0 / (n - 2))


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

class CensusEntry(FrozenRecord):
    boundary_points: tuple
    interior_points: tuple
    level: float
    index: int

    def __init__(self, boundary_points, interior_points, level, index):
        set_field(self, "boundary_points", boundary_points)
        set_field(self, "interior_points", interior_points)
        set_field(self, "level", level)
        set_field(self, "index", index)

    @property
    def mass(self) -> int:
        return len(self.boundary_points) + 2 * len(self.interior_points)

    @property
    def q(self) -> int:
        return len(self.boundary_points)

    @property
    def p(self) -> int:
        return len(self.interior_points)

    def to_json(self) -> dict:
        return {
            "boundary_points": [r.location.coords.tolist() for r in self.boundary_points],
            "interior_points": [r.location.coords.tolist() for r in self.interior_points],
            "level": self.level, "index": self.index, "mass": self.mass,
        }


def admissible_boundary(records) -> list:
    """Boundary points that can carry a simple asymptotic profile: local
    maxima of the trace with positive normal derivative, or vanishing normal
    derivative with negative Laplacian."""
    out = []
    for r in records:
        if not r.is_boundary:
            continue
        if r.classification == "K_b_0_minus":
            out.append(r)
        elif r.classification == "K_b_plus" and r.is_local_max():
            out.append(r)
    return out


def a1_boundary_set(records) -> list:
    """The full sign-condition set entering the first alternating sum (no
    local-maximum restriction)."""
    return [r for r in records if r.is_boundary and r.classification in ("K_b_plus", "K_b_0_minus")]


def level_terms(records, n: int) -> list:
    """Each record's share K^{-(n-2)/2} of an entry's level."""
    return [r.value ** (-(n - 2) / 2.0) for r in records]


def entry_level(boundary_terms, interior_terms, s_n: float, n: int) -> float:
    """The level of an entry from its points' :func:`level_terms`."""
    qsum = sum(boundary_terms)
    qsum += 2.0 * sum(interior_terms)
    return s_n ** (2.0 / n) * qsum ** (2.0 / n)


def entry_index(boundary_iotas, interior_iotas) -> int:
    """The index of an entry from its points' ``iota``."""
    return len(boundary_iotas) + len(interior_iotas) - 1 + sum(boundary_iotas) + sum(interior_iotas)


def enumerate_census(records, mass_max: int, s_n: float, n: int) -> list:
    """All admissible collections of total mass q + 2p <= mass_max, sorted by level."""
    bnd = admissible_boundary(records)
    inn = [r for r in records if r.classification == "K_in_minus"]
    return _census(bnd, inn, mass_max, s_n, n)


def _census(bnd, inn, mass_max, s_n, n) -> list:
    """``enumerate_census`` over the admissible boundary points ``bnd`` and
    interior points ``inn``: each point's level term and iota are computed
    once, not once per entry."""
    def points(records):
        return list(zip(records, level_terms(records, n), [r.iota(n) for r in records]))

    none = ((), (), ())
    bnd, inn = points(bnd), points(inn)
    entries = []
    for q in range(0, min(len(bnd), mass_max) + 1):
        for p in range(0, min((mass_max - q) // 2, len(inn)) + 1):
            if q + p < 1:
                continue
            for zs in itertools.combinations(bnd, q):
                z_points, z_terms, z_iotas = zip(*zs) if q else none
                for ys in itertools.combinations(inn, p):
                    y_points, y_terms, y_iotas = zip(*ys) if p else none
                    entries.append(CensusEntry(z_points, y_points,
                                               entry_level(z_terms, y_terms, s_n, n),
                                               entry_index(z_iotas, y_iotas)))
    entries.sort(key=lambda e: (e.level, e.mass, e.index))
    return entries


# ---------------------------------------------------------------------------
# Counting formulas
# ---------------------------------------------------------------------------

def _alternating_sums(indices, depth: int) -> tuple:
    """Sums over the subsets of sizes 1..depth of the product of (-1)^{iota}:
    the coefficients of t^1..t^depth in (1 + t)^even (1 - t)^odd."""
    odd = sum(int(i) % 2 for i in indices)
    even = len(indices) - odd
    # the first coefficients of (1 + t)^even and (1 - t)^odd, by the exact
    # integer recurrence c_k = c_{k-1} (m - k + 1) / k, then their product
    plus, minus = [1], [1]
    for k in range(1, depth + 1):
        plus.append(plus[-1] * (even - k + 1) // k)
        minus.append(minus[-1] * (k - 1 - odd) // k)
    return tuple(sum(plus[j] * minus[k - j] for j in range(k + 1)) for k in range(1, depth + 1))


def counting_A(indices):
    """Alternating subset sums of sizes 1..4 over (-1)^{iota}."""
    return _alternating_sums(indices, 4)


def counting_B(indices):
    """Alternating subset sums of sizes 1..2."""
    return _alternating_sums(indices, 2)


def counting_A_closed_forms(k: int):
    """(A2, A3, A4) predicted when A1 = 1 with k+1 even and k odd entries."""
    return -k, -k, k * (k - 1) // 2


def counting_B_closed_form(k: int, r: int) -> int:
    """B2 predicted when B1 = -k with r even and r+k odd entries."""
    return -r + k * (k - 1) // 2


# ---------------------------------------------------------------------------
# Existence verdicts
# ---------------------------------------------------------------------------

class ExistenceVerdict(Record):
    theorem: str
    hypotheses: dict
    conclusion: str   # "solution_exists" | "inconclusive"

    def __init__(self, theorem, hypotheses, conclusion):
        self.theorem = theorem
        self.hypotheses = hypotheses
        self.conclusion = conclusion

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "hypotheses": self.hypotheses,
                "conclusion": self.conclusion}


def _verdict(theorem, checks) -> ExistenceVerdict:
    ok = all(v["holds"] for v in checks.values())
    return ExistenceVerdict(theorem=theorem, hypotheses=checks,
                            conclusion="solution_exists" if ok else "inconclusive")


def existence_check(records, report: AssumptionReport, k_min: float, k_max: float, n: int):
    """Evaluate the three combinatorial existence tests.

    T1_1: assumptions + pinch < (5/4)^{1/(n-2)} + at least two admissible points.
    T1_2: trace nondegeneracy + the flat-trace condition + pinch < 2^{1/(n-2)}
          + first alternating sum != 1.
    T1_3: assumptions + pinch < (3/2)^{1/(n-2)} + first sum == 1 + interior
          alternating sum != -k where the boundary set has 2k+1 points.

    Returns (verdict, table): the first conclusive test (weakest pinch
    first), else an ``auto`` verdict holding all three, and the full table.
    """
    return _existence(records, report, k_min, k_max, n)[:2]


def _existence(records, report, k_min, k_max, n):
    """(verdict, table, A1 set, A, B, interior): ``existence_check`` with
    the A1 boundary set, the alternating sums it reads and the interior
    points with negative Laplacian, which ``census_report`` reads too, so
    that the records are classified once per call."""
    from .landscape import classify
    families = classify(records)
    bset = a1_boundary_set(records)
    interior = families["K_in_minus"]
    a_vals = counting_A([r.iota(n) for r in bset])
    b_vals = counting_B([r.iota(n) for r in interior])
    pinch = k_max / k_min
    a1, b1 = a_vals[0], b_vals[0]
    n_inf = len(families["K_infinity"])

    t12 = _verdict("T1_2", {
        # find_critical_points refuses a degenerate trace root
        "trace_nondegenerate": {"holds": True, "value": True},
        "H3": {"holds": report.h3, "value": report.h3},
        "pinch_below_threshold": {
            "holds": pinch < pinch_threshold(1, n),
            "value": pinch, "threshold": pinch_threshold(1, n)},
        "A1_not_one": {"holds": a1 != 1, "value": a1},
    })

    count_b = len(bset)
    k_par = (count_b - 1) // 2 if count_b % 2 == 1 else None
    t13 = _verdict("T1_3", {
        "H1": {"holds": report.h1, "value": report.h1},
        "H2": {"holds": report.h2, "value": report.h2},
        "H3": {"holds": report.h3, "value": report.h3},
        "pinch_below_threshold": {
            "holds": pinch < pinch_threshold(2, n),
            "value": pinch, "threshold": pinch_threshold(2, n)},
        "A1_equals_one": {"holds": a1 == 1, "value": a1},
        "B1_not_minus_k": {
            "holds": (k_par is not None and b1 != -k_par),
            "value": b1, "k": k_par},
    })

    t11 = _verdict("T1_1", {
        "H1": {"holds": report.h1, "value": report.h1},
        "H2": {"holds": report.h2, "value": report.h2},
        "H3": {"holds": report.h3, "value": report.h3},
        "pinch_below_threshold": {
            "holds": pinch < pinch_threshold(4, n),
            "value": pinch, "threshold": pinch_threshold(4, n)},
        "at_least_two_admissible": {"holds": n_inf >= 2, "value": n_inf},
    })

    table = {"T1_1": t11, "T1_2": t12, "T1_3": t13}
    verdict = next((table[name] for name in ("T1_2", "T1_3", "T1_1")
                    if table[name].conclusion == "solution_exists"), None)
    if verdict is None:
        verdict = ExistenceVerdict(theorem="auto", conclusion="inconclusive",
                                   hypotheses={k: v.to_json() for k, v in table.items()})
    return verdict, table, bset, a_vals, b_vals, interior


def census_report(records, report, k_min, k_max, s_n, n, mass_max=4) -> dict:
    """Machine-readable bundle: census, bands, counts, verdicts."""
    verdict, table, bset, a_vals, b_vals, interior = _existence(records, report, k_min, k_max, n)
    admissible = admissible_boundary(records)
    census = _census(admissible, interior, mass_max, s_n, n)
    bands, plain, deform = level_bands(k_min, k_max, s_n, n, mass_max)
    return {
        "census": [e.to_json() for e in census],
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
