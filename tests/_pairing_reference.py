"""The array form of the gradient pairing and a frozen copy of the bars: an
oracle for the column-wise float evaluation of ``ReducedModel._pairing``,
``ReducedModel.grad_a`` and the model's bar ledger.

``pairing`` evaluates the pairing expression once over numpy arrays holding
every move as a column; ``rate_and_point`` stacks the rate direction and the
n+1 ambient axes of bubble i as a (5, n+2) move array, with the pair shifts
as (n+2, m-1) arrays, and projects the ambient covector as ``grad_a`` does.
``weight_pairing`` is the closed-form weight pairing as a routine of its
own.  ``rel_bar`` and ``rate_point_bar`` are the energy's relative bar and
the rate/point bar as the model computed them before its bar terms were
kept once per assembly: each recomputes its cubic remainder, tails and pair
slop (``pair_slop``, from the assembly's pair tables) itself, and walks the
pairs its own way.  All read the same ``Assembly`` as the model (its
frames, pair tables, ``vbar`` and ``budgets``), so their results must agree
with the model's bit for bit: numpy's float64 + - * / round each element
exactly as Python floats do.  ``residue_coupling`` sums bubble i's eps row
with np.sum on each call, as the model did before it stored the row sums.
"""

from __future__ import annotations

import math

import numpy as np

from hemiflow.intervals import Bar
from hemiflow.model import INTERACTION_BAR_COEFF, REM3_COEFF, SEP_DISTANCE


def pairing(model, asm, i, moves, deps, dh_mut):
    """dJ per unit move of bubble i, for k moves stacked as columns:
    ``moves`` (5, k), ``deps`` and ``dh_mut`` (k, m-1); the result is (k,)."""
    n = model.n
    f = asm.frames[i]
    mu = f.rate
    pw = 2.0 * n / (n - 2)
    grad_dC, hess_dC_n, dh, dloglam, dCn_domain = moves

    if f.boundary:
        dT = (model.s_n * grad_dC
              + model.cp_xn * (hess_dC_n - f.g_n * dloglam) / mu
              - model.cp_i2h * f.kt_lap * dloglam / (n * mu * mu))
        dnum_own = 0.0
    else:
        dH = (2.0 - n) * (2.0 * f.height) ** (1 - n) * 2.0 * dh
        dHmu = (dH - (n - 2) * f.h_self * dloglam) / mu ** (n - 2)
        dT = (2.0 * model.s_n * grad_dC
              + model.cp_i2h * (-2.0 * f.kt_lap * dloglam) / (n * mu * mu)
              + (2.0 * n / (n - 2)) * model.c2 * (grad_dC * f.h_self / mu ** (n - 2)
                                                  + f.kt_val * dHmu))
        dnum_own = model.c2 * f.alpha**2 * dHmu

    dnum = dnum_own + f.alpha**2 * 2.0 * mu * model.c4 * dCn_domain
    dden = f.alpha**pw * dT
    dden += f.alpha**pw * pw * mu * (f.kt_val * model.c4 + n * model.c5 * f.g_n / mu) * dCn_domain

    for j, fj in enumerate(asm.frames):
        if j == i:
            continue
        jj = j if j < i else j - 1
        de = deps[..., jj] + dh_mut[..., jj]
        w = asm.w_mat[i, j]
        dnum += 2.0 * f.alpha * fj.alpha * model.c2 * w * de
        dden += (pw * model.c2 * w
                 * (f.alpha ** ((n + 2) / (n - 2)) * f.k_val * fj.alpha
                    + fj.alpha ** ((n + 2) / (n - 2)) * fj.k_val * f.alpha) * de)

    return asm.j_center * (dnum / asm.num - (n - 2) / n * dden / asm.den)


def residue_coupling(asm, i):
    """|grad K|/lam + 1/lam^2 + sum_j eps_ij, the row summed by np.sum."""
    f = asm.frames[i]
    return f.grad_norm / f.param.lam + 1.0 / f.param.lam**2 + float(np.sum(asm.eps_mat[i]))


def weight_pairing(model, asm, i, coupling):
    """Pairing of the gradient with the i-th profile direction; ``coupling``
    is bubble i's residue coupling."""
    n = model.n
    f = asm.frames[i]
    w_i = f.mult * model.s_n + (0.0 if f.boundary else model.c2 * f.h_self / f.rate ** (n - 2))
    dnum = 2.0 * f.alpha * w_i
    dden = (2.0 * n / (n - 2)) * f.alpha ** ((n + 2) / (n - 2)) * model._t_value(f)
    center = asm.j_center * (dnum / asm.num - (n - 2) / n * dden / asm.den)
    bar_terms = coupling
    if not f.boundary:
        bar_terms += image_distance(f) ** (2 - n)
    bar = 2.0 * asm.j_center * f.mult * model.s_n / asm.n_qty * bar_terms
    return Bar(float(center), abs(bar))


def rate_and_point(model, cfg, i, asm):
    """(rate pairing, (point vector, bar)) of bubble i, from one array-form
    pairing over the rate direction and the n+1 ambient axes."""
    n = model.n
    f = asm.frames[i]
    a = f.param.a.coords
    lam = f.param.lam
    others = np.arange(cfg.size) != i
    # column 0: the rate direction; columns 1..: the ambient axes
    # e_0..e_n; rows as the pairing reads them
    s = f.dh_dloglam
    moves = np.empty((5, n + 2))
    moves[:, 0] = (f.g_n * s, f.h_nn * s, s, f.dl_dloglam, 0.0)
    axes = moves[:, 1:]
    axes[0] = f.move_g
    axes[1] = f.move_w
    axes[3] = f.move_l
    deps = np.vstack((asm.eps_dloglam[i, others], asm.eps_da[i, others].T / lam))
    dh_mut = np.zeros_like(deps)
    if f.boundary:
        # tangential moves keep the center on the chart boundary; the
        # vertical displacement is handled by the domain-variation term
        axes[2] = 0.0
        axes[4] = f.move_v
    else:
        axes[0] += f.g_n * f.move_v
        axes[1] += f.h_nn * f.move_v
        axes[2] = f.move_v
        axes[4] = 0.0
        dh_mut[0] = -(n - 2) / 2.0 * asm.hmut_mat[i, others] * f.dl_dloglam
    axes /= lam
    dJ = pairing(model, asm, i, moves, deps, dh_mut) / f.alpha
    g = dJ[1:]
    vec = g - (a @ g) * a
    bar = abs(rate_point_bar(model, asm, i, residue_coupling(asm, i)))
    return Bar(float(dJ[0]), bar), (vec, float(bar / lam))


def image_distance(f):
    """2 mu C_n, the scaled distance from the chart center to its mirror image."""
    return 2.0 * f.rate * max(f.height, 1e-300)


def cubic_remainder(model, f):
    return REM3_COEFF * model.m3 * model.cp_i3h / f.rate**3


def pair_slop(model, asm, i, j):
    """The next-order interaction slop of the pair (i, j), eps_ij > 0."""
    n = model.n
    e = float(asm.eps_mat[i, j])
    le, e_pow = math.log(1.0 / e), e ** (n / (n - 2.0))
    grad_norms = asm.frames[i].grad_norm + asm.frames[j].grad_norm
    return (6.0 * e_pow * le + e * float(asm.dist_mat[i, j]) * grad_norms
            + float(asm.hmut_mat[i, j]) * e ** (1.0 / (n - 2.0)))


def rel_bar(model, cfg, asm):
    """The energy's relative bar: each interacting pair's slop, with the
    image correction of a mixed pair's interior member, then each frame's
    cubic remainder, chart tail and image-charge error, then vbar^2, all
    times the crowding penalty."""
    n = model.n
    pw = 2.0 * n / (n - 2)
    rel = 0.0
    for i, j, _, e, _ in cfg.pairs:
        if e <= 0.0:
            continue
        fi, fj = asm.frames[i], asm.frames[j]
        slop = pair_slop(model, asm, i, j)
        if fi.boundary != fj.boundary:
            slop += e * image_distance(fj if fi.boundary else fi) ** (2 - n)
        rel += INTERACTION_BAR_COEFF * fi.alpha * fj.alpha * model.c2 * slop / asm.n_qty
    for f in asm.frames:
        rel += f.alpha**pw * f.mult * cubic_remainder(model, f) / asm.den
        if not f.boundary:
            ld = image_distance(f)
            rel += f.alpha**pw * f.mult * f.kt_val * model.s_n * ld ** (-n) / asm.den
            rel += f.alpha**pw * f.mult * f.kt_val * model.c2 * ld ** (1 - n) / asm.den
    rel += asm.vbar**2
    m = cfg.size
    min_d = float(asm.dist_mat[np.triu_indices(m, 1)].min()) if m > 1 else math.inf
    if min_d < SEP_DISTANCE:
        rel *= 1.0 + SEP_DISTANCE / max(min_d, 1e-12)
    return float(rel)


def rate_point_bar(model, asm, i, coupling):
    """Bubble i's rate bar (its point bar is this over lam_i): the cubic
    remainder, the interior tail, each interacting pair's slop with the
    budgeted drift 3 H_ij of the mutual regular part, the coupling to the
    residue budget and the remainder aggregate."""
    n = model.n
    f = asm.frames[i]
    mu = f.rate
    pw = 2.0 * n / (n - 2)
    bar = 2.0 * asm.j_center * f.alpha ** (pw - 1.0) / asm.den * cubic_remainder(model, f)
    if not f.boundary:
        ld = image_distance(f)
        tail = model.s_n * f.kt_val * (n * ld ** (-n) + ld ** (1 - n)) \
            + model.c2 * f.kt_val * ld ** (2 - n) / max(mu * f.height, 1.0)
        bar += 2.0 * asm.j_center * f.alpha ** (pw - 1.0) * tail / asm.den
    slop = 0.0
    for j, fj in enumerate(asm.frames):
        if j != i and asm.eps_mat[i, j] > 0.0:
            slop += fj.alpha * model.c2 * (pair_slop(model, asm, i, j)
                                           + 3.0 * float(asm.hmut_mat[i, j]))
    bar += 2.0 * asm.j_center / asm.n_qty * slop
    bar += 2.0 * asm.j_center / asm.n_qty * model.s_n * asm.vbar * coupling
    r1, r1b = asm.budgets
    bar += 2.0 * asm.j_center / asm.n_qty * (r1b if f.boundary else r1)
    return float(bar)
