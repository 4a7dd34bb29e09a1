"""The Newton fit of the Poisson likelihood of polarization counts, on Python floats.

Setting k of a settings tuple expects mu_k = a_k . x counts from the Stokes
vector x = (S0, S1, S2, S3) of the coherence matrix G, which is PSD exactly
when S0 >= |S|.  tomography._fit scales the counts n to a total near 1 and
calls ball_newton for the optimum over the Bloch ball, x = s0 (1, v) with
|v| <= 1, whether it is mixed (inside) or pure (on the sphere);
kkt_residual certifies it.  Each step is scalar arithmetic over the
settings with one small numpy eigen-decomposition.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

import numpy as np


class SettingRows(NamedTuple):
    """The Stokes rows of a settings tuple as Python floats, for the Newton
    fit: the rows a_k, their four columns, the columns of a_i a_j for
    1 <= i <= j, the column sums, the rows of the pseudo-inverse, which maps
    counts to the least-squares Stokes vector, and each setting's a_0 and
    pass direction a_vec / a_0."""

    rows: tuple
    columns: tuple
    outer: tuple
    sigma: tuple
    inverse: tuple
    passes: tuple


_NEWTON_STEPS = 100
_DECREMENT_TOL = 1e-28  # squared Newton decrement at which a fit stops
_SPHERE_KKT = 1e-9      # certificate of a pure point above which a fit may leave the sphere


def dot(a, x) -> float:
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2] + a[3] * x[3]


def _dot3(a, x) -> float:
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2]


# where entry (i, j) of a symmetric 3x3 matrix sits in its upper triangle,
# read row by row
_SYMMETRIC = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


def _derivatives(columns, outer, first, second) -> tuple[list, list] | None:
    """sum_k first_k v_k and sum_k second_k v_k v_k^T, from the columns of
    the v_k and of their products v_i v_j, i <= j; None if an entry is
    beyond float range (a weight that overflowed)."""
    grad = [sum(map(mul, first, col)) for col in columns]
    flat = [sum(map(mul, second, col)) for col in outer]
    if not math.isfinite(sum(flat)):
        return None
    return grad, [[flat[k] for k in row] for row in _SYMMETRIC]


def _eigen(hess) -> tuple[list, list]:
    """Ascending eigenvalues and the unit eigenvectors of a symmetric matrix."""
    vals, vecs = np.linalg.eigh(hess)
    return vals.tolist(), vecs.T.tolist()


def _sphere_step(vals, grad, u, reg, gap) -> tuple[list, float]:
    """Minimize the model g.d + d.H d / 2 + reg |d|^2 / 2 over the steps d
    that put u + d on the unit sphere, in H's eigenbasis: H = diag(vals),
    ascending, and |u|^2 = 1 - gap.  The minimizer is
    d = -(H + reg + lam)^-1 (g + lam u), where the multiplier lam of
    |u + d| = 1 is the root of the secular equation |w(lam)| = 1, w = u + d,
    on lam > -vals[0] - reg (Moré & Sorensen 1983).  Newton on 1 - 1 / |w|
    finds it, with bisection as the safeguard.  It is carried as
    delta = vals[0] + reg + lam, so the lowest term keeps its precision near
    the hard case.  Returns u + d and the model's value
    -(g + lam u).(H + reg + lam)^-1 (g + lam u) / 2 - lam gap / 2."""
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
        # the sum below can round an ulp under 0 where the test above holds
        w0 = math.copysign(math.sqrt(max(0.0, 1.0 - w1 * w1 - w2 * w2)), u[0]) if hard else 0.0
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
    model = -0.5 * sum((gi + lam * ui) * (gi + lam * ui) / (gap_i + delta)
                       for gi, ui, gap_i in zip(grad, u, (0.0, g1, g2)) if gap_i + delta > 0.0)
    return [w0, w1, w2], model - 0.5 * lam * gap


def _tangential(hess, u) -> list:
    """P H P, P = I - u u^T: the part of a 3x3 Hessian along the sphere at u."""
    hu = [_dot3(row, u) for row in hess]
    uhu = _dot3(hu, u)
    return [[hess[i][j] - hu[i] * u[j] - u[i] * hu[j] + uhu * u[i] * u[j] for j in range(3)]
            for i in range(3)]


def ball_newton(data: SettingRows, n, u=None) -> tuple[tuple, list, int, bool]:
    """Best G, with Stokes vector s0 (1, v) for a Bloch vector |v| <= 1.
    With c_k = a_k . (1, v), s0 = N / sum c is closed form and leaves
    h(v) = N log sum c - sum n log c.  The perspective map x -> x_vec / x0
    keeps the likelihood's convex sublevel sets convex, so h is quasiconvex
    on the ball and each of its KKT points is the optimum; a point u of the
    sphere is one when its tangential gradient and its certificate
    2 max(grad h . u, 0) / N vanish.
    The c_k are linear in v, so each step minimizes h's second-order model
    over the ball within a trust radius.  Where the model is convex up to
    rounding and its minimum-norm minimizer lies in the ball, the step goes
    there, so a direction no count sees stays put; else it ends on the
    sphere, by _sphere_step.  Where the step is longer than the radius, it
    carries reg |d|^2 / 2, the multiplier of the radius, raised until it
    fits; a step that keeps to the sphere first uses the Hessian's
    tangential part, which gives the same second-order model along the
    sphere, since on the far side N log sum c curves down off it.  A step
    is taken when h falls by at least a quarter of the model's fall, and
    the radius shrinks when it does not.  A narrow curved valley on the
    sphere, which a few counts far larger than the rest make, is straight
    in this model.
    The fit starts from v = 0, or on the sphere from the direction u.  On
    the sphere alone h can have local minima, so a step from the sphere may
    go inside wherever the certificate there exceeds _SPHERE_KKT.  The fit
    stops after a step whose gain is below h's rounding if the gradient
    along the steps allowed did not then fall.  Near the sphere the
    rounding of v can leave an interior fit just outside its optimum, where
    2 grad h . v / N exceeds _SPHERE_KKT; it then ends a rounding step
    further in, where the certificate holds.
    On the sphere c_k is a_0 |u + s_k|^2 / 2, s_k the setting's pass
    direction, which keeps its precision where u nears -s_k; inside it is
    a_0 (1 + s_k . v).  Returns G's entries (gxx, gyy, Re gxy, Im gxy),
    every setting's expected count, the steps and whether G is pure."""
    total, sigma, columns = sum(n), data.sigma[1:], data.columns[1:]

    def offsets(v):
        return [(v[0] + s[0], v[1] + s[1], v[2] + s[2]) for _, s in data.passes]

    def weights(v, pure):
        if pure:
            return [0.5 * a0 * _dot3(e, e) for (a0, _), e in zip(data.passes, offsets(v))]
        return [a0 * (1.0 + _dot3(s, v)) for a0, s in data.passes]

    def fitted(v, pure):
        s0 = total / sum(weights(v, pure))
        if pure:
            hh, vv = (v[0] + 1.0, v[1], v[2]), (v[0] - 1.0, v[1], v[2])
            gxx, gyy = 0.25 * s0 * _dot3(hh, hh), 0.25 * s0 * _dot3(vv, vv)
        else:
            gxx, gyy = 0.5 * s0 * (1.0 + v[0]), 0.5 * s0 * (1.0 - v[0])
        return (gxx, gyy, 0.5 * s0 * v[1], -0.5 * s0 * v[2]), [s0 * ck for ck in weights(v, pure)]

    def decrease(d, spherical):
        dd = _dot3(d, d)
        dcs = [0.5 * a0 * (dd + 2.0 * _dot3(d, e)) if spherical else a0 * _dot3(s, d)
               for (a0, s), e in zip(data.passes, es)]
        shift = sum(dcs) / csum
        if not shift > -1.0:
            return math.inf
        change = total * math.log1p(shift)
        for count, dc, ck in zip(n, dcs, c):
            if count > 0.0:
                if not dc > -ck:
                    return math.inf
                change -= count * math.log1p(dc / ck)
        return change

    pure, v = u is not None, [0.0, 0.0, 0.0]
    if pure:
        norm = math.sqrt(_dot3(u, u))
        v = [ui / norm for ui in u] if norm > 0.0 else [1.0, 0.0, 0.0]
        # a start opposite a setting that counted puts its c_k at zero: turn
        # it 2e-3 rad about the axis it is least along
        if not all(_dot3(e, e) > 0.0 for e, count in zip(offsets(v), n) if count > 0.0):
            i = min(range(3), key=lambda k: abs(v[k]))
            turn = [0.0, 0.0, 0.0]
            turn[i - 1], turn[i - 2] = v[i - 2], -v[i - 1]
            v = [vi + 2e-3 * ti / math.sqrt(_dot3(turn, turn)) for vi, ti in zip(v, turn)]
            norm = math.sqrt(_dot3(v, v))
            v = [vi / norm for vi in v]
    radius, steady = 1.0, math.inf
    for steps in range(1, _NEWTON_STEPS + 1):
        es, c = offsets(v), weights(v, pure)
        csum = sum(c)  # sigma . (1, v), without its cancellation where c_k are small
        w = [count / ck if count > 0.0 else 0.0 for count, ck in zip(n, c)]
        derivatives = _derivatives(columns, data.outer, [-wk for wk in w],
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
        radial = _dot3(grad, v)
        failing = 2.0 * radial > _SPHERE_KKT * total
        inside = not pure or failing
        slope = math.sqrt(sum((gi - (0.0 if inside else radial) * vi) ** 2
                              for gi, vi in zip(grad, v)))
        g_basis, v_basis = [_dot3(q, grad) for q in vecs], [_dot3(q, v) for q in vecs]
        floor = 1e-15 * max(abs(vals[0]), abs(vals[-1]))
        gap = 0.0 if pure else 1.0 - _dot3(v, v)
        reg, projected, moved = 0.0, False, False
        for _ in range(100 if slope < steady else 0):
            onto = True
            if inside and vals[0] + reg >= -floor:
                # the model's minimum-norm minimizer, eigenvalues at rounding
                # level taken as zero
                coef = [-gi / (lam + reg) if abs(lam + reg) > floor else 0.0
                        for lam, gi in zip(vals, g_basis)]
                d = [_dot3(coef, (vecs[0][i], vecs[1][i], vecs[2][i])) for i in range(3)]
                after = [vi + di for vi, di in zip(v, d)]
                onto, model = not _dot3(after, after) < 1.0, 0.5 * _dot3(coef, g_basis)
            if onto:
                w_basis, model = _sphere_step(vals, g_basis, v_basis, reg, gap)
                d = [_dot3(w_basis, (vecs[0][i], vecs[1][i], vecs[2][i])) - v[i] for i in range(3)]
                # the step to (v + d) / |v + d|, |v + d|^2 - 1 taken without cancellation
                excess = 2.0 * _dot3(v, d) + _dot3(d, d) - gap
                norm = math.sqrt(1.0 + excess)
                d = [(di - vi * excess / (1.0 + norm)) / norm for di, vi in zip(d, v)]
            if not -2.0 * model > _DECREMENT_TOL:
                break
            length = math.sqrt(_dot3(d, d))
            if length > radius:  # the model's minimum lies beyond where it is trusted
                if not (inside or projected):
                    projected = True
                    vals, vecs = _eigen(_tangential(hess, v))
                    g_basis, v_basis = [_dot3(q, grad) for q in vecs], [_dot3(q, v) for q in vecs]
                else:
                    reg = max(2.0 * reg, slope / radius)
                continue
            if not length:  # a step below float resolution
                break
            change = decrease(d, pure and onto)
            if change <= 0.25 * model:
                if change <= 0.75 * model:
                    radius = max(radius, 2.0 * length)
                v, pure, moved = [vi + di for vi, di in zip(v, d)], onto, True
                steady = slope if -model < 2.0**-53 * total else math.inf
                break
            radius = 0.25 * length
        if not moved:
            if not pure and failing:  # just outside the optimum, by v's rounding
                v = [vi * (1.0 - 2.0**-52) for vi in v]
            break
    return (*fitted(v, pure), steps, pure)


def kkt_residual(data: SettingRows, n, mu, trace) -> float:
    """A bound per count on the excess of the negative log-likelihood of a fit
    with expected counts mu = a x over its minimum, the smaller of two.  The
    conic KKT bound: x is optimal when y = A^T (1 - n / mu) lies in the
    self-dual cone and x . y = sum mu - N = 0, and the excess is at most
    trace max(|y_vec| - y0, 0) + |x . y|.  The saturated gap: no fit beats
    mu = n, so the excess is at most half the Poisson deviance, which is
    quadratic in mu's error where the conic bound is linear in it."""
    if any(c > 0.0 and not m > 0.0 for c, m in zip(n, mu)):  # a counted setting expects none
        return math.inf
    total = sum(n)
    ratios = [c / m if c > 0.0 else 0.0 for c, m in zip(n, mu)]
    y = [s - sum(map(mul, ratios, col)) for s, col in zip(data.sigma, data.columns)]
    conic = trace * max(math.hypot(y[1], y[2], y[3]) - y[0], 0.0) + abs(sum(mu) - total)
    return min(conic, sum(map(_deviance_term, n, mu))) / total


def _deviance_term(c, m) -> float:
    """n (r - 1 - log r) with r = mu / n, or |mu| where n = 0, which counts a
    rounding-level negative mu as far off as it is.  Near r = 1, where the
    terms cancel, log r is log1p(r - 1)."""
    if c == 0.0:
        return abs(m)
    d = (m - c) / c
    return c * (d - (math.log1p(d) if abs(d) < 0.5 else math.log(m) - math.log(c)))
