"""The array form of the gradient pairing: an oracle for the column-wise
float evaluation of ``ReducedModel._pairing`` and ``ReducedModel.grad_a``.

``pairing`` evaluates the pairing expression once over numpy arrays holding
every move as a column; ``rate_and_point`` stacks the rate direction and the
n+1 ambient axes of bubble i as a (5, n+2) move array, with the pair shifts
as (n+2, m-1) arrays, and projects the ambient covector as ``grad_a`` does.
Both read the same ``Assembly`` as the model, so their results must agree
with the model's bit for bit: numpy's float64 + - * / round each element
exactly as Python floats do.  ``residue_coupling`` sums bubble i's eps row
with np.sum on each call, as the model did before it stored the row sums.
"""

from __future__ import annotations

import numpy as np

from hemiflow.intervals import Bar


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


def rate_and_point(model, cfg, i, asm, include_normal=True):
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
    if f.boundary and not include_normal:
        vec[-1] = 0.0
    bar = abs(model._grad_bar_common(asm, i, residue_coupling(asm, i)))
    return Bar(float(dJ[0]), bar), (vec, float(bar / lam))
