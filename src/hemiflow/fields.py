"""Curvature candidates: ambient polynomials of degree <= 2 on the hemisphere.

A field is K(x) = kappa0 + b.x + x.Q.x restricted to the sphere.  Keeping the
family polynomial makes every derived quantity exact: tangent gradients and
Hessians, Laplace-Beltrami values, boundary normal derivatives, and the
pullback of K to the half-space chart are all closed-form, so no numerical
differentiation enters the core.  The critical points of K on the sphere and
of its trace K_1 on the equator are an exact enumeration
(:func:`sphere_critical_points`), run once per field on first use
(:attr:`ScalarField.sphere_roots`) and read by both the extrema
(:meth:`ScalarField.min_max`) and the landscape
(:func:`hemiflow.landscape.find_critical_points`).  A field's coefficient
arrays are read-only, so the kept enumeration cannot go stale.

Conventions
-----------
* The outward normal at the equator is nu = -e_{n+1}, so
  dK/dnu(z) = -dK/dx_{n+1}(z) (the ambient partial is already tangent there).
* K_1 denotes the restriction of K to the equator sphere S^{n-1}.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import parse_monomial
from .errors import ConfigError, NonPositiveField
from .geometry import SpherePoint, tangent_basis
from .record import FrozenRecord, set_field

class ScalarField(FrozenRecord):
    """Positive curvature candidate on the closed upper hemisphere."""

    n: int
    kappa0: float
    linear: np.ndarray     # b, shape (n+1,)
    quadratic: np.ndarray  # Q symmetric, shape (n+1, n+1)

    def __init__(self, n, kappa0, terms=()):
        if n < 5:
            raise ConfigError("dimension must be at least 5")
        if not np.isfinite(kappa0):
            raise ConfigError(f"constant term must be finite, got {kappa0}")
        if kappa0 <= 0:
            raise ConfigError("constant term must be positive")
        dim = n + 1
        b = np.zeros(dim)
        q = np.zeros((dim, dim))
        for monomial, coeff in terms:
            if not np.isfinite(coeff):
                raise ConfigError(f"coefficient of {monomial!r} must be finite, got {coeff}")
            idx = parse_monomial(monomial, dim) if isinstance(monomial, str) else tuple(monomial)
            if len(idx) == 1:
                b[idx[0]] += coeff
            else:
                i, j = idx
                q[i, j] += coeff / 2.0
                q[j, i] += coeff / 2.0
        b.flags.writeable = False
        q.flags.writeable = False
        set_field(self, "n", int(n))
        set_field(self, "kappa0", float(kappa0))
        set_field(self, "linear", b)
        set_field(self, "quadratic", q)
        if self.positivity_lower_bound() <= 0.0:
            self.min_max()  # raises NonPositiveField

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and self.kappa0 == other.kappa0
                and bool(np.array_equal(self.linear, other.linear))
                and bool(np.array_equal(self.quadratic, other.quadratic)))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which array_equal counts as equal
        return hash((self.n, self.kappa0, (self.linear + 0.0).tobytes(),
                     (self.quadratic + 0.0).tobytes()))

    # -- construction helpers ------------------------------------------------

    def replace(self, **changes):
        """Refused: the constructor takes monomial terms, not the fields."""
        raise TypeError("ScalarField.replace is not supported; build a changed field "
                        "with ScalarField(n, kappa0, terms) or from an edited to_config()")

    @staticmethod
    def from_config(cfg: dict) -> "ScalarField":
        """A field specification, ``to_config``'s form (``config.read_field``)."""
        from .config import read_field
        return read_field(cfg)

    def to_config(self) -> dict:
        terms = []
        dim = self.n + 1
        for i in range(dim):
            if self.linear[i] != 0.0:
                terms.append({"monomial": f"x{i+1}", "coeff": float(self.linear[i])})
        for i in range(dim):
            for j in range(i, dim):
                c = self.quadratic[i, j] * (1.0 if i == j else 2.0)
                if c != 0.0:
                    mono = f"x{i+1}^2" if i == j else f"x{i+1}*x{j+1}"
                    terms.append({"monomial": mono, "coeff": float(c)})
        return {"dimension": self.n, "kappa0": self.kappa0, "terms": terms}

    def positivity_lower_bound(self) -> float:
        """Conservative bound kappa0 - sum |coeff| * max|monomial| over the sphere."""
        total = float(np.sum(np.abs(self.linear)))
        dim = self.n + 1
        for i in range(dim):
            for j in range(i, dim):
                c = self.quadratic[i, j] * (1.0 if i == j else 2.0)
                if c != 0.0:
                    total += abs(c) * (1.0 if i == j else 0.5)
        return self.kappa0 - total

    # -- pointwise calculus (exact) -----------------------------------------

    def value(self, p):
        """K at one point (n+1,), giving a float, or at a batch (k, n+1),
        giving (k,); each row of a batch gets the same bits as its
        single-point call."""
        v = np.asarray(p.coords if isinstance(p, SpherePoint) else p, dtype=float)
        val = (self.kappa0 + np.vecdot(self.linear, v)
               + np.vecdot(np.vecmat(v, self.quadratic), v))
        return float(val) if v.ndim == 1 else val

    def ambient_gradient(self, v) -> np.ndarray:
        return self.linear + 2.0 * np.matvec(self.quadratic, np.asarray(v, dtype=float))

    def tangent_gradient(self, p) -> np.ndarray:
        """Gradient of K on the sphere, as an ambient vector tangent at p.

        ``p`` is one point (n+1,) or a batch (k, n+1), giving (k, n+1); each
        row of a batch gets the same bits as its single-point call.
        """
        v = np.asarray(p.coords if isinstance(p, SpherePoint) else p, dtype=float)
        g = self.ambient_gradient(v)
        return g - v * np.vecdot(g, v, keepdims=True)

    def tangent_hessian(self, p, basis=None) -> np.ndarray:
        """Riemannian Hessian of K on S^n in an orthonormal tangent basis.

        Hess(X, Y) = X . D^2K . Y - <dK(p), p> <X, Y> (geodesics curve back
        toward the origin with acceleration -p).  ``p`` is one point (n+1,)
        with an (n, n+1) basis or a batch (k, n+1) with bases (k, n, n+1), by
        default :func:`tangent_basis`, giving (k, n, n), each row with the
        bits of its single-point call.
        """
        v = np.asarray(p.coords if isinstance(p, SpherePoint) else p, dtype=float)
        return self._hessian(v, tangent_basis(v) if basis is None else basis)

    def laplace_beltrami(self, p):
        """Laplace-Beltrami value on S^n; for K = x_k this is -n x_k.

        ``p`` is one point (n+1,), giving a float, or a batch (k, n+1), giving
        (k,); each row of a batch gets the same bits as its single-point call.
        """
        v = np.asarray(p.coords if isinstance(p, SpherePoint) else p, dtype=float)
        amb = 2.0 * self.quadratic
        lap = (np.trace(amb) - np.vecdot(np.vecmat(v, amb), v)
               - self.n * np.vecdot(self.ambient_gradient(v), v))
        return float(lap) if v.ndim == 1 else lap

    def normal_derivative(self, z):
        """dK/dnu at boundary points, outward normal nu = -e_{n+1}.

        ``z`` is one point (n+1,), giving a float, or a batch (k, n+1), giving
        (k,); each row of a batch gets the same bits as its single-point call.
        """
        v = np.asarray(z.coords if isinstance(z, SpherePoint) else z, dtype=float)
        nu = -(self.linear[-1] + 2.0 * np.einsum("...i,i->...", v, self.quadratic[-1]))
        return float(nu) if v.ndim == 1 else nu

    # -- restriction to the equator sphere ----------------------------------

    def boundary_gradient(self, z) -> np.ndarray:
        """Gradient of K_1 on the equator sphere, ambient representation."""
        v = np.asarray(z.coords if isinstance(z, SpherePoint) else z, dtype=float)
        g = self.ambient_gradient(v)
        g = g - np.dot(g, v) * v
        g[-1] = 0.0
        return g

    def boundary_hessian(self, z, basis=None) -> np.ndarray:
        """Riemannian Hessian of K_1 on the equator S^{n-1}: as
        :meth:`tangent_hessian`, with bases (n-1, n+1) or (k, n-1, n+1), by
        default :func:`tangent_basis` within the equator."""
        v = np.asarray(z.coords if isinstance(z, SpherePoint) else z, dtype=float)
        return self._hessian(v, tangent_basis(v, within_equator=True) if basis is None else basis)

    def _hessian(self, v, basis):
        # the ambient Hessian 2Q in the basis, less the radial term <dK(v), v>
        radial = np.vecdot(self.ambient_gradient(v), v)
        restricted = basis @ (2.0 * self.quadratic) @ np.swapaxes(basis, -1, -2)
        return restricted - radial[..., None, None] * np.eye(basis.shape[-2])

    # -- chart pullback (exact rational calculus) ----------------------------

    def chart_data(self, chart, x):
        """Value, gradient, Hessian of the pullback K o chart^{-1} at chart points.

        ``chart`` is one chart or a stack of m chart rotations (m, n+1, n+1).
        For one chart, ``x`` is one point (n,), giving (float, (n,), (n, n)),
        or a batch (k, n), giving arrays (k,), (k, n), (k, n, n) whose row i
        belongs to x[i].  For a stack, ``x`` is (m, k, n), chart j's points in
        row j, giving (m, k), (m, k, n), (m, k, n, n); each chart's block gets
        the same bits as its one-chart call.  The pullback through
        p(x) = ((1-|x|^2), 2x)/d, d = 1+|x|^2 (composed with the chart
        rotation) is rational.  With dK(p) = (g_0, g_v) and c = g_0 + g_v.x,
        sum_a g_a d^2 p_a = -4c/d^2 I - 4(g_v x^T + x g_v^T)/d^2 + 16c/d^3 x x^T.
        """
        x = np.asarray(x, dtype=float)
        rot = chart if isinstance(chart, np.ndarray) else chart.rotation
        stacked = rot.ndim == 3
        # one chart is a stack of one: xs is (m, k, n) either way
        rots = rot if stacked else rot[None]
        xs = x if stacked else x.reshape(1, -1, x.shape[-1])
        nn = xs.shape[-1]
        eye = np.eye(nn)
        s = np.einsum("mki,mki->mk", xs, xs)
        d = (1.0 + s)[..., None, None]
        d2 = d * d
        p = np.concatenate(((1.0 - s)[..., None], 2.0 * xs), axis=-1) / d[..., 0]
        xx = xs[..., :, None] * xs[..., None, :]
        # dp/dx: row alpha of jac[j, k] is the gradient of p_alpha at x[j, k].
        jac = np.empty(xs.shape[:2] + (nn + 1, nn))
        jac[..., 0, :] = -4.0 * xs / d2[..., 0]
        jac[..., 1:, :] = 2.0 * eye / d - 4.0 * xx / d2
        # rotate the field coefficients instead of the points
        rots_t = np.swapaxes(rots, 1, 2)
        b = np.matvec(rots_t, self.linear)
        q = rots_t @ self.quadratic @ rots
        qp = p @ q
        value = self.kappa0 + np.matvec(p, b) + np.einsum("mka,mka->mk", qp, p)
        g = b[:, None, :] + 2.0 * qp
        grad = np.einsum("mkai,mka->mki", jac, g)
        c = (g[..., 0] + np.einsum("mki,mki->mk", g[..., 1:], xs))[..., None, None]
        gx = g[..., 1:, None] * xs[..., None, :]
        hess = np.swapaxes(jac, -1, -2) @ (2.0 * q)[:, None] @ jac
        hess += (-4.0 * c / d2) * eye - 4.0 * (gx + np.swapaxes(gx, -1, -2)) / d2 \
            + 16.0 * c / d**3 * xx
        if stacked:
            return value, grad, hess
        if x.ndim == 1:
            return float(value[0, 0]), grad[0, 0], hess[0, 0]
        return value[0], grad[0], hess[0]

    # -- critical points and global extrema -----------------------------------

    @cached_property
    def sphere_roots(self) -> tuple[SphereRoots, SphereRoots]:
        """(hemisphere, trace): the :class:`SphereRoots` of K on S^n and of
        its trace K_1 on the equator S^{n-1}, the latter in the coordinates
        of R^n.  Each sphere is enumerated once per field, on first use, and
        :meth:`min_max` and :func:`hemiflow.landscape.find_critical_points`
        apply their own rules to the same result."""
        n, b, q = self.n, self.linear, self.quadratic
        return sphere_critical_points(b, q), sphere_critical_points(b[:n], q[:n, :n])

    def min_max(self, grid_density: int = 12):
        """Exact extrema over the closed upper hemisphere: K at its critical
        points above the equator and at those of the trace K_1, in one batch,
        read off :attr:`sphere_roots` (a continuum adds its highest point, K
        being constant on it).  ``grid_density`` is validated (at least 10)
        but unused; only the benchmark workloads still pass it."""
        if grid_density < 10:
            raise ConfigError("grid_density must be at least 10")
        hemisphere, trace = self.sphere_roots
        # the roots above the equator, then the trace roots with a zero last
        # coordinate, written into one batch
        rows = [r[r[:, -1] > 0.0] for r in (hemisphere.points, hemisphere.tops) if len(r)]
        rows += [r for r in (trace.points, trace.tops) if len(r)]
        pts = np.zeros((sum(map(len, rows)), self.n + 1))
        at = 0
        for r in rows:
            pts[at:at + len(r), :r.shape[1]] = r
            at += len(r)
        vals = self.value(pts)
        kmin, kmax = float(vals.min()), float(vals.max())
        if kmin <= 0.0:
            raise NonPositiveField(f"field takes values <= 0 (minimum {kmin})")
        return kmin, kmax


class SphereRoots(NamedTuple):
    """The critical points of x -> b.x + x.Q.x on one unit sphere, as
    read-only arrays with one unit point per row."""

    points: np.ndarray  # the isolated critical points, at every height
    tops: np.ndarray    # the highest point of each continuum of critical points


def _secular_roots(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Every root of f(mu) = sum_g s_g / (mu - p_g)^2 - 1, poles p ascending.

    The eigenvalues of [[diag(p), -I], [-r r^T, diag(p)]], r = sqrt(s), solve
    (diag(p) - mu)^2 u = r (r.u), i.e. f(mu) = 0; their real parts seed the
    roots.  Signs of f decide the counts: one root lies beyond each outer
    pole, and f is convex between consecutive poles, so a gap holds two roots
    when f <= 0 at its minimiser and none otherwise.  The minimiser starts at
    the best midpoint of consecutive seeds and takes Newton steps on f', kept
    where they lower f; each root starts at the best seed in its bracket (or
    the quadratic model of f about the minimiser) and takes Newton steps on f.
    """
    k = len(p)
    pencil = np.diag(np.concatenate([p, p]))
    pencil[:k, k:] = -np.eye(k)
    pencil[k:, :k] = -np.sqrt(np.outer(s, s))
    seeds = np.sort(np.linalg.eigvals(pencil).real)

    def moments(mu, count=3):  # the first count of f, -f'/2 and f''/6
        inv = 1.0 / (mu[..., None] - p)
        inv2 = inv * inv
        out = [inv2 @ s - 1.0]
        if count > 1:
            out.append((inv2 * inv) @ s)
        if count > 2:
            out.append((inv2 * inv2) @ s)
        return out

    def pick(cand, lo, hi, score):
        # per bracket, the candidate inside with the least score of f, else the middle
        cand = np.where((lo[:, None] < cand) & (cand < hi[:, None]), cand, (lo + hi)[:, None] / 2)
        return cand[np.arange(len(lo)), np.argmin(score(moments(cand, 1)[0]), axis=1)]

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
    cand = np.empty((len(lo), 2 * k + 1))
    cand[:, :-1] = seeds
    cand[:, -1] = model
    mu = pick(cand, lo, hi, np.abs)
    for _ in range(2):
        f, f3 = moments(mu, 2)
        new = mu + f / (2.0 * f3)
        mu = np.where((lo < new) & (new < hi), new, mu)
    return mu


def sphere_critical_points(b: np.ndarray, Q: np.ndarray) -> SphereRoots:
    """Every critical point of x -> b.x + x.Q.x on the unit sphere of R^d.

    The Lagrange condition b + 2Qx = 2 mu x reads (mu - w_i) y_i = c_i in
    the eigenbasis Q = V diag(w) V^T, with y = V^T x and c = V^T b / 2
    (the constrained eigenvalue problem of Gander, Golub & von Matt, Linear
    Algebra Appl. 114/115, 1989).  Eigenvalues equal to rounding form one
    cluster g with weight s_g = |c_g|^2.  The roots are

    * secular: f(mu) = sum_g s_g / (mu - w_g)^2 = 1 over the clusters with
      s_g > 0 (:func:`_secular_roots`);
    * eigenvector branches: for a cluster with c_g = 0, mu = w_g and the
      cluster part of y has length sqrt(1 - |y|^2) when that is real; a
      cluster of dimension >= 2 then carries a continuum of critical points,
      on which the polynomial is constant, and adds its highest point (the
      greatest last coordinate) to ``tops``.

    No point is filtered by height and nothing raises: each caller decides
    what a continuum or a point below the equator means for it.
    """
    w, V = np.linalg.eigh(Q)
    c = V.T @ b / 2.0
    tol = 1e-12 * max(float(np.abs(w).max()), math.sqrt(c @ c))
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
        if not ys:  # most fields have no continuum
            x = np.zeros((0, len(c)))
        else:
            y = ys[0] if len(ys) == 1 else np.concatenate(ys)
            x = (y / np.linalg.norm(y, axis=1, keepdims=True)) @ V.T
        x.flags.writeable = False
        return x

    ys = [lift(_secular_roots(poles[active], weights[active]))] if active.any() else []
    tops = []
    for g in np.flatnonzero(~active):
        y = lift(poles[g:g + 1])
        r2 = 1.0 - float(np.sum(y * y))
        if r2 <= 0.0:
            continue
        members = np.flatnonzero(labels == g)
        if len(members) >= 2:
            # highest point of the sphere V y + sqrt(r2) * span(V[:, members])
            up = V[-1, members]
            y[0, members] = np.sqrt(r2) * (up / np.linalg.norm(up) if up.any()
                                           else np.eye(len(members))[0])
            tops.append(y)
        else:
            y = np.repeat(y, 2, axis=0)
            y[:, members[0]] = [np.sqrt(r2), -np.sqrt(r2)]
            ys.append(y)
    return SphereRoots(unit_rows(ys), unit_rows(tops))
