"""Newton fits of the Poisson likelihood of polarization counts, on Python floats.

Setting k of a settings tuple expects mu_k = a_k . x counts from the Stokes
vector x = (S0, S1, S2, S3) of the coherence matrix G, which is PSD exactly
when S0 >= |S|.  tomography._fit scales the counts n to a total near 1 and
calls these fits for the optimum inside the cone (interior_newton) and on
its boundary (boundary_newton); kkt_residual certifies either.  Each step
is scalar arithmetic over the settings with one small numpy
eigen-decomposition.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

import numpy as np


class SettingRows(NamedTuple):
    """The Stokes rows of a settings tuple as Python floats, for the Newton
    fits: the rows a_k, their four columns, the columns of a_i a_j for
    i <= j (the last six are those with i, j >= 1), the column sums, the
    rows of the pseudo-inverse, which maps counts to the least-squares
    Stokes vector, and each setting's a_0 and pass direction a_vec / a_0."""

    rows: tuple
    columns: tuple
    outer: tuple
    sigma: tuple
    inverse: tuple
    passes: tuple


_NEWTON_STEPS = 100
_RESTARTS = 2           # boundary fits restarted from a failing certificate
_DECREMENT_TOL = 1e-28  # squared Newton decrement at which a fit stops
INTERIOR_KKT = 1e-9    # largest certificate an interior fit is accepted with


def dot(a, x) -> float:
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2] + a[3] * x[3]


def _dot3(a, x) -> float:
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2]


def _symmetric_index(dim: int) -> list:
    """Where entry (i, j) of a symmetric matrix sits in its upper triangle,
    read row by row."""
    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    return [[upper.index((min(i, j), max(i, j))) for j in range(dim)] for i in range(dim)]


_SYMMETRIC = {3: _symmetric_index(3), 4: _symmetric_index(4)}


def _derivatives(columns, outer, first, second) -> tuple[list, list] | None:
    """sum_k first_k v_k and sum_k second_k v_k v_k^T, from the columns of
    the v_k and of their products v_i v_j, i <= j; None if an entry is
    beyond float range (a weight that overflowed)."""
    grad = [sum(map(mul, first, col)) for col in columns]
    flat = [sum(map(mul, second, col)) for col in outer]
    if not math.isfinite(sum(flat)):
        return None
    return grad, [[flat[k] for k in row] for row in _SYMMETRIC[len(columns)]]


def _eigen(hess) -> tuple[list, list]:
    """Ascending eigenvalues and the unit eigenvectors of a symmetric matrix."""
    vals, vecs = np.linalg.eigh(hess)
    return vals.tolist(), vecs.T.tolist()


def interior_newton(data: SettingRows, n) -> tuple[list, int]:
    """Minimize sum(mu - n log mu) over x by damped Newton from the
    unpolarized state.  The step uses the Hessian's nonzero eigenvalues, so
    it has minimum norm where a few positive counts leave the Hessian
    singular.  Steps are halved until the objective's change, computed
    without cancellation (inf off its domain), is below a quarter of the
    squared Newton decrement."""
    rows, sigma = data.rows, data.sigma
    x = [sum(n) / sigma[0], 0.0, 0.0, 0.0]

    def decrease(d0, d1, d2, d3):
        m0, m1, m2, m3 = x0 + d0, x1 + d1, x2 + d2, x3 + d3
        change = sigma[0] * d0 + sigma[1] * d1 + sigma[2] * d2 + sigma[3] * d3
        for (a0, a1, a2, a3), c, mu in zip(rows, n, mus):
            if c > 0.0:
                dmu = a0 * d0 + a1 * d1 + a2 * d2 + a3 * d3
                if not (dmu > -mu and a0 * m0 + a1 * m1 + a2 * m2 + a3 * m3 > 0.0):
                    return math.inf
                change -= c * math.log1p(dmu / mu)
        return change

    for steps in range(1, _NEWTON_STEPS + 1):
        x0, x1, x2, x3 = x
        mus = [a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3 for a0, a1, a2, a3 in rows]
        w = [c / mu if c > 0.0 else 0.0 for c, mu in zip(n, mus)]
        derivatives = _derivatives(data.columns, data.outer, [-wk for wk in w],
                                   [wk / mu for wk, mu in zip(w, mus)])
        if derivatives is None:
            break
        grad, hess = derivatives
        g0, g1, g2, g3 = (gi + si for gi, si in zip(grad, sigma))
        vals, vecs = _eigen(hess)
        floor = 1e-15 * max(abs(vals[0]), abs(vals[-1]))
        s0 = s1 = s2 = s3 = 0.0
        for lam, (v0, v1, v2, v3) in zip(vals, vecs):
            if abs(lam) > floor:
                coef = -(v0 * g0 + v1 * g1 + v2 * g2 + v3 * g3) / abs(lam)
                s0, s1, s2, s3 = s0 + coef * v0, s1 + coef * v1, s2 + coef * v2, s3 + coef * v3
        decrement = -(g0 * s0 + g1 * s1 + g2 * s2 + g3 * s3)
        if not decrement > _DECREMENT_TOL:
            break
        t = 1.0
        while not decrease(t * s0, t * s1, t * s2, t * s3) <= -0.25 * t * decrement:
            t *= 0.5
            if t < 1e-12:
                return x, steps
        x = [x0 + t * s0, x1 + t * s1, x2 + t * s2, x3 + t * s3]
    return x, steps


def _sphere_step(vals, grad, u, reg) -> tuple[list, float]:
    """Minimize the model g.d + d.H d / 2 + reg |d|^2 / 2 over the steps d
    that keep u + d on the unit sphere, in H's eigenbasis: H = diag(vals),
    ascending.  The minimizer is d = -(H + reg + lam)^-1 (g + lam u), where
    the multiplier lam of |u + d| = 1 is the root of the secular equation
    |w(lam)| = 1, w = u + d, on lam > -vals[0] - reg (Moré & Sorensen 1983).
    Newton on 1 - 1 / |w| finds it, with bisection as the safeguard.  It is
    carried as delta = vals[0] + reg + lam, so the lowest term keeps its
    precision near the hard case.  Returns u + d and the model's value
    -(g + lam u).(H + reg + lam)^-1 (g + lam u) / 2, a sum of terms of one
    sign."""
    l0, l1, l2 = vals
    g1, g2 = l1 - l0, l2 - l0
    b0, b1, b2 = ((lam + reg) * ui - gi for lam, ui, gi in zip(vals, u, grad))
    # |w| >= 1 at lo, where one term alone is 1, and |w| <= 1 at hi
    lo = max(0.0, abs(b0), abs(b1) - g1, abs(b2) - g2)
    hi = math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    delta, hard = lo, False
    if lo == 0.0:  # b0 = 0 and |b_i| <= gap_i: the hard case if |w(0)| <= 1
        w1, w2 = (b1 / g1 if b1 else 0.0), (b2 / g2 if b2 else 0.0)
        hard = w1 * w1 + w2 * w2 <= 1.0
        w0 = math.copysign(math.sqrt(1.0 - w1 * w1 - w2 * w2), u[0]) if hard else 0.0
    for _ in range(0 if hard else 100):
        w0 = b0 / delta if b0 else 0.0
        w1 = b1 / (g1 + delta) if b1 else 0.0
        w2 = b2 / (g2 + delta) if b2 else 0.0
        norm2 = w0 * w0 + w1 * w1 + w2 * w2
        norm = math.sqrt(norm2)
        lo, hi = (delta, hi) if norm > 1.0 else (lo, delta)
        if abs(norm - 1.0) <= 1e-15:
            break
        slope = ((w0 * w0 / delta if w0 else 0.0) + (w1 * w1 / (g1 + delta) if w1 else 0.0)
                 + (w2 * w2 / (g2 + delta) if w2 else 0.0))
        after = delta + (norm - 1.0) * norm2 / slope
        if not lo < after < hi:
            after = 0.5 * (lo + hi)
            if after == delta:
                break
        delta = after
    lam = delta - l0 - reg
    model = -0.5 * sum((gi + lam * ui) * (gi + lam * ui) / (gap + delta)
                       for gi, ui, gap in zip(grad, u, (0.0, g1, g2)) if gap + delta > 0.0)
    return [w0, w1, w2], model


def _tangential(hess, u) -> list:
    """P H P, P = I - u u^T: the part of a 3x3 Hessian along the sphere at u."""
    hu = [_dot3(row, u) for row in hess]
    uhu = _dot3(hu, u)
    return [[hess[i][j] - hu[i] * u[j] - u[i] * hu[j] + uhu * u[i] * u[j] for j in range(3)]
            for i in range(3)]


def _nll(n, mu) -> float:
    return math.fsum(mu) - math.fsum(c * math.log(m) for c, m in zip(n, mu) if c > 0.0)


def boundary_newton(data: SettingRows, n, u) -> tuple[tuple, list, int]:
    """Best pure G from the Bloch direction u, by _sphere_newton.  h need
    not be convex on the sphere, and the fit can end at a local minimum that
    fails the certificate.  At a pure optimum s0 (1, u) the certificate's
    gradient y has y_vec = -y0 u, so the fit then starts again from -y_vec,
    up to _RESTARTS times, and keeps the likelier end.  Returns G's
    entries, the expected counts and the steps of all starts."""
    entries, mu, steps = _sphere_newton(data, n, u)
    for _ in range(_RESTARTS):
        y = _dual(data, n, mu)
        if y is None or kkt_residual(data, n, mu, entries[0] + entries[1]) <= INTERIOR_KKT:
            break
        again, mu_again, more = _sphere_newton(data, n, [-y[1], -y[2], -y[3]])
        steps += more
        if not _nll(n, mu_again) < _nll(n, mu):
            break
        entries, mu = again, mu_again
    return entries, mu, steps


def _sphere_newton(data: SettingRows, n, u) -> tuple[tuple, list, int]:
    """Best pure G, with Stokes vector s0 (1, u) for a unit Bloch vector u.
    With c_k = a_k . (1, u), s0 = N / sum c is closed form and leaves
    h(u) = N log sum c - sum n log c.  The c_k are linear in u, so each step
    minimizes h's second-order model in R^3 over the unit sphere, within a
    trust radius: where the model's minimum lies farther, the step carries
    reg |d|^2 / 2, the multiplier of the radius, raised until it fits.  A
    step is taken when h falls by at least a quarter of the model's fall,
    and the radius shrinks when it does not.  Where a few counts far larger
    than the rest make a narrow curved valley, a line search along a tangent
    direction would crawl; the model on the sphere follows the valley.
    Where the model's minimum over the sphere lies beyond the trust radius,
    as it does on the far side where N log sum c curves down off the
    sphere, the step first uses the Hessian's tangential part, which gives
    the same second-order model along the sphere, and only then the
    multiplier.
    Every c_k is taken as a_0 |u + s_k|^2 / 2, s_k the setting's pass
    direction, which keeps its precision where u nears -s_k.  Returns G's
    entries (gxx, gyy, Re gxy, Im gxy), every setting's expected count and
    the steps."""
    total, sigma, columns, outer = sum(n), data.sigma[1:], data.columns[1:], data.outer[4:]

    def offsets(u):
        return [(u[0] + s[0], u[1] + s[1], u[2] + s[2]) for _, s in data.passes]

    def pure_fit(u):
        s0 = total / (data.sigma[0] + _dot3(sigma, u))
        mu = [0.5 * s0 * a0 * _dot3(e, e) for (a0, _), e in zip(data.passes, offsets(u))]
        hh, vv = (u[0] + 1.0, u[1], u[2]), (u[0] - 1.0, u[1], u[2])
        return (0.25 * s0 * _dot3(hh, hh), 0.25 * s0 * _dot3(vv, vv),
                0.5 * s0 * u[1], -0.5 * s0 * u[2]), mu

    def decrease(d):
        shift = _dot3(sigma, d) / csum
        if not shift > -1.0:
            return math.inf
        change, dd = total * math.log1p(shift), _dot3(d, d)
        for (a0, _), count, e, ck in zip(data.passes, n, es, c):
            if count > 0.0:
                dc = 0.5 * a0 * (dd + 2.0 * _dot3(d, e))
                if not dc > -ck:
                    return math.inf
                change -= count * math.log1p(dc / ck)
        return change

    norm = math.sqrt(_dot3(u, u))
    u = [ui / norm for ui in u] if norm > 0.0 else [1.0, 0.0, 0.0]
    # a start opposite a setting that counted puts its c_k at zero: turn it
    # 2e-3 rad about the axis u is least along
    if not all(_dot3(e, e) > 0.0 for e, count in zip(offsets(u), n) if count > 0.0):
        i = min(range(3), key=lambda k: abs(u[k]))
        turn = [0.0, 0.0, 0.0]
        turn[i - 1], turn[i - 2] = u[i - 2], -u[i - 1]
        u = [ui + 2e-3 * ti / math.sqrt(_dot3(turn, turn)) for ui, ti in zip(u, turn)]
        norm = math.sqrt(_dot3(u, u))
        u = [ui / norm for ui in u]
    radius = 1.0
    for steps in range(1, _NEWTON_STEPS + 1):
        es = offsets(u)
        c = [0.5 * a0 * _dot3(e, e) for (a0, _), e in zip(data.passes, es)]
        csum = data.sigma[0] + _dot3(sigma, u)
        w = [count / ck if count > 0.0 else 0.0 for count, ck in zip(n, c)]
        derivatives = _derivatives(columns, outer, [-wk for wk in w],
                                   [wk / ck if wk else 0.0 for wk, ck in zip(w, c)])
        if derivatives is None:
            break
        grad, hess = derivatives
        # N log sum c adds N sigma / sum c to the gradient and a rank-one term
        # to the Hessian
        scale = total / csum
        grad = [gi + scale * si for gi, si in zip(grad, sigma)]
        hess = [[hij - scale * si * sj / csum for hij, sj in zip(row, sigma)]
                for row, si in zip(hess, sigma)]
        vals, vecs = _eigen(hess)
        radial = _dot3(grad, u)
        tangent = math.sqrt(sum((gi - radial * ui) * (gi - radial * ui)
                                for gi, ui in zip(grad, u)))
        g_basis, u_basis = [_dot3(q, grad) for q in vecs], [_dot3(q, u) for q in vecs]
        reg, projected = 0.0, False
        for _ in range(100):
            w_basis, model = _sphere_step(vals, g_basis, u_basis, reg)
            if not -2.0 * model > _DECREMENT_TOL:
                return (*pure_fit(u), steps)
            d = [_dot3(w_basis, (vecs[0][i], vecs[1][i], vecs[2][i])) - u[i] for i in range(3)]
            # the step to (u + d) / |u + d|, |u + d|^2 - 1 taken without cancellation
            excess = 2.0 * _dot3(u, d) + _dot3(d, d)
            norm = math.sqrt(1.0 + excess)
            d = [(di - ui * excess / (1.0 + norm)) / norm for di, ui in zip(d, u)]
            length = math.sqrt(_dot3(d, d))
            if length > radius:  # the model's minimum lies beyond where it is trusted
                if not projected:
                    projected = True
                    vals, vecs = _eigen(_tangential(hess, u))
                    g_basis, u_basis = [_dot3(q, grad) for q in vecs], [_dot3(q, u) for q in vecs]
                else:
                    reg = max(2.0 * reg, tangent / radius)
                continue
            if not length:  # a step below float resolution
                return (*pure_fit(u), steps)
            change = decrease(d)
            if change <= 0.25 * model:
                if change <= 0.75 * model:
                    radius = max(radius, 2.0 * length)
                u = [ui + di for ui, di in zip(u, d)]
                break
            radius = 0.25 * length
        else:
            break
    return (*pure_fit(u), steps)


def kkt_residual(data: SettingRows, n, mu, trace) -> float:
    """Conic KKT residual per count of a fit with expected counts mu = a x.
    x is optimal when the gradient y = A^T (1 - n / mu) lies in the
    self-dual cone and x . y = sum mu - N = 0; the negative log-likelihood's
    excess over its minimum is at most trace max(|y_vec| - y0, 0) + |x . y|."""
    y = _dual(data, n, mu)
    if y is None:
        return math.inf
    total = sum(n)
    gap = trace * max(math.hypot(y[1], y[2], y[3]) - y[0], 0.0) + abs(sum(mu) - total)
    return gap / total


def _dual(data: SettingRows, n, mu) -> list | None:
    """y = A^T (1 - n / mu), None where a setting that counted expects none."""
    if not all(m > 0.0 for c, m in zip(n, mu) if c > 0.0):
        return None
    ratios = [c / m if c > 0.0 else 0.0 for c, m in zip(n, mu)]
    return [s - sum(map(mul, ratios, col)) for s, col in zip(data.sigma, data.columns)]
