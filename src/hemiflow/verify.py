"""Umbrella oracle suites behind the ``verify`` CLI command.

Each suite returns (passed, detail) and is deliberately built on the
independent routes in :mod:`hemiflow.oracles`.
"""

from __future__ import annotations

import numpy as np

from . import census as census_mod
from . import constants as constants_mod
from . import oracles
from .bubbles import _interaction_terms


def _suite_counting(cfg) -> tuple:
    checked = 0
    for length in range(1, 13):
        for odd in range(0, length + 1):
            idx = [2] * (length - odd) + [1] * odd
            a1, a2, a3, a4 = census_mod.counting_A(idx)
            for depth, val in ((1, a1), (2, a2), (3, a3), (4, a4)):
                if val != oracles.brute_force_alternating_sums(idx, depth):
                    return False, f"subset sum mismatch at {length=} {odd=} {depth=}"
            if a1 == 1:
                k = odd
                if length != 2 * k + 1 or (a2, a3, a4) != census_mod.counting_A_closed_forms(k):
                    return False, f"closed form mismatch at {length=} {odd=}"
            b1, b2 = census_mod.counting_B(idx)
            if b1 <= 0 and length == 2 * ((length + b1) // 2) - b1:
                k = -b1
                r = (length - k) // 2
                if b2 != census_mod.counting_B_closed_form(k, r):
                    return False, f"pair sum mismatch at {length=} {odd=}"
            checked += 1
    return True, f"{checked} parity profiles, subset sums exact"


def _suite_constants(cfg) -> tuple:
    n = cfg.n
    tol = cfg.quadrature_tol
    worst = 0.0
    for dim in sorted({n, 5, 6, 7}):
        table = constants_mod.compute_constants(dim, tol)
        for key, ref in oracles.radial_gauss_constants(dim).items():
            rel = abs(table.values[key] - ref) / max(abs(ref), 1e-300)
            worst = max(worst, rel)
            if rel > tol:
                return False, f"{key} at n={dim}: relative error {rel}"
    rng = np.random.default_rng(cfg.seed)
    radii = rng.uniform(0.3, 3.0, 100)
    res, rhs = oracles.flat_bubble_pde_residual(n, radii)
    # each radius's relative residual against its stencil bound: the
    # profile's scale c0 grows with n, so an absolute bound fails at n >= 6
    for r, res_r, rhs_r in zip(radii, res, rhs):
        rel = res_r / abs(rhs_r)
        bound = oracles.flat_bubble_pde_bound(n, r)
        if not rel <= bound:
            return False, (f"profile equation residual {rel:.2e} relative at r = {r:.3f} "
                           f"exceeds its stencil bound {bound:.2e}")
    return True, f"closed forms within {worst:.2e}, equation residual {max(res):.2e}"


def _suite_interaction(cfg) -> tuple:
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)
    count = 10_000
    pts = rng.standard_normal((2, count, n + 1))
    pts[..., -1] = np.abs(pts[..., -1])
    u, v = pts / np.linalg.norm(pts, axis=2, keepdims=True)
    # exp of uniform(0, 6) is already a rate >= 1
    li, lj = np.exp(rng.uniform(0.0, 6.0, (2, count)))
    cos_d = np.einsum("ki,ki->k", u, v)
    eps, di, dj = _interaction_terms(li, lj, 1.0 - cos_d, n)
    viol_sum = int(np.count_nonzero(-(di + dj) < -1e-12 * eps))
    d = np.arccos(np.clip(cos_d, -1, 1))
    viol_rate = int(np.count_nonzero((li * d >= 2.0) & (-di < 0.1 * eps)))
    ok = viol_sum == 0 and viol_rate == 0
    return ok, f"violations: sum-inequality {viol_sum}, rate-inequality {viol_rate}"


def available_suites() -> dict:
    return {
        "counting": _suite_counting,
        "constants": _suite_constants,
        "interaction": _suite_interaction,
    }
