"""The Newton fit of the Poisson likelihood of polarization counts, on Python floats.

Setting k of a settings tuple expects mu_k = a_k . x counts from the Stokes
vector x = (S0, S1, S2, S3) of the coherence matrix G, which is PSD exactly
when S0 >= |S|.  tomography._fit_values scales the counts n to a total near 1;
where neither the four-setting inversion nor the closed form on three
antipodal pairs applies, it calls ball_newton for the optimum over the Bloch
ball, x = s0 (1, v) with |v| <= 1, mixed (inside) or pure (on the sphere).
kkt_residual certifies every path.  Each step is scalar arithmetic over the
settings with one small LAPACK eigen-decomposition.
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
    counts to the least-squares Stokes vector, each setting's a_0 and pass
    direction a_vec / a_0, and for three antipodal pairs with one a_0 on the
    Stokes axes the (plus, minus) settings of each axis, else ()."""

    rows: tuple
    columns: tuple
    outer: tuple
    sigma: tuple
    inverse: tuple
    passes: tuple
    pairs: tuple


_NEWTON_STEPS = 100
_DECREMENT_TOL = 1e-28  # squared Newton decrement at which a fit stops
_STOP_DECREMENT = 1e-30  # an estimate of it at which a fit stops at once, 100x below
_SPHERE_KKT = 1e-9      # certificate of a pure point above which a fit may leave the sphere


def dot(a, x) -> float:
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2] + a[3] * x[3]


def _dot3(a, x) -> float:
    return a[0] * x[0] + a[1] * x[1] + a[2] * x[2]


# the LAPACK routine behind np.linalg.eigh, whose wrapper costs twice the 3x3
# decomposition and alone turns a NaN into LinAlgError, so the matrices passed
# must be finite; a private numpy name, so np.linalg.eigh where it is gone
_EIGH = getattr(getattr(np.linalg, "_umath_linalg", None), "eigh_lo", np.linalg.eigh)


def _eigen(hess) -> tuple[list, list, list]:
    """Ascending eigenvalues of a symmetric 3x3 matrix listed row by row, read
    from its lower triangle, its unit eigenvectors and their matrix's rows."""
    vals, vecs = _EIGH(np.array(hess).reshape(3, 3))
    return vals.tolist(), vecs.T.tolist(), vecs.tolist()


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
    b0, b1, b2 = ((l0 + reg) * u[0] - grad[0], (l1 + reg) * u[1] - grad[1],
                  (l2 + reg) * u[2] - grad[2])
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
        d1, d2 = g1 + delta, g2 + delta
        w0 = b0 / delta if b0 else 0.0
        w1 = b1 / d1 if b1 else 0.0
        w2 = b2 / d2 if b2 else 0.0
        norm2 = w0 * w0 + w1 * w1 + w2 * w2
        norm = math.sqrt(norm2)
        lo, hi = (delta, hi) if norm > 1.0 else (lo, delta)
        if abs(norm - 1.0) <= 1e-15:
            break
        slope = ((w0 * w0 / delta if w0 else 0.0) + (w1 * w1 / d1 if w1 else 0.0)
                 + (w2 * w2 / d2 if w2 else 0.0))
        after = delta + (norm - 1.0) * norm2 / slope
        if not lo < after < hi:
            after = 0.5 * (lo + hi)
            if after == delta:
                break
        delta = after
    lam = delta - l0 - reg
    model = -0.5 * sum([(gi + lam * ui) * (gi + lam * ui) / (gap_i + delta)
                        for gi, ui, gap_i in zip(grad, u, (0.0, g1, g2)) if gap_i + delta > 0.0])
    return [w0, w1, w2], model - 0.5 * lam * gap


def _tangential(hess, u) -> list:
    """P H P, P = I - u u^T: the part of a 3x3 Hessian (by rows) along the sphere at u."""
    hu = [_dot3(hess[i:i + 3], u) for i in (0, 3, 6)]
    uhu = _dot3(hu, u)
    return [hess[3 * i + j] - hu[i] * u[j] - u[i] * hu[j] + uhu * u[i] * u[j]
            for i in range(3) for j in range(3)]


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
    stops where the model's decrement is at most _DECREMENT_TOL; after a
    step it first estimates that as g . (H + lam)^-1 g, g the new gradient
    along the steps allowed, lam its multiplier on the sphere and H the last
    Hessian, and stops without a model where the estimate is at most
    _STOP_DECREMENT, 100 times lower (steps count models).  It also stops
    after a step whose gain is below h's rounding if the gradient along the
    steps allowed did not then fall.
    Near the sphere the rounding of v can leave an interior fit just outside
    its optimum, where 2 grad h . v / N exceeds _SPHERE_KKT; it then ends a
    rounding step further in, where the certificate holds.
    On the sphere c_k is a_0 |u + s_k|^2 / 2, s_k the setting's pass
    direction, which keeps its precision where u nears -s_k; inside it is
    a_0 (1 + s_k . v).  Returns G's entries (gxx, gyy, Re gxy, Im gxy),
    every setting's expected count, the steps and whether G is pure."""
    total, sigma, columns, passes = sum(n), data.sigma[1:], data.columns[1:], data.passes

    def weights(v, pure):  # the offsets v + s_k on the sphere, and the c_k
        if pure:
            es = [(v[0] + s[0], v[1] + s[1], v[2] + s[2]) for _, s in passes]
            return es, [0.5 * a0 * (e[0] * e[0] + e[1] * e[1] + e[2] * e[2])
                        for (a0, _), e in zip(passes, es)]
        return None, [a0 * (1.0 + (s[0] * v[0] + s[1] * v[1] + s[2] * v[2])) for a0, s in passes]

    def fitted(v, pure, c):
        c = c or weights(v, pure)[1]
        s0 = total / sum(c)
        if pure:
            hh, vv = (v[0] + 1.0, v[1], v[2]), (v[0] - 1.0, v[1], v[2])
            gxx, gyy = 0.25 * s0 * _dot3(hh, hh), 0.25 * s0 * _dot3(vv, vv)
        else:
            gxx, gyy = 0.5 * s0 * (1.0 + v[0]), 0.5 * s0 * (1.0 - v[0])
        return (gxx, gyy, 0.5 * s0 * v[1], -0.5 * s0 * v[2]), [s0 * ck for ck in c]

    def decrease(d, spherical):
        d0, d1, d2 = d
        dd = d0 * d0 + d1 * d1 + d2 * d2
        dcs = ([0.5 * a0 * (dd + 2.0 * (d0 * e[0] + d1 * e[1] + d2 * e[2]))
                for (a0, _), e in zip(passes, es)]
               if spherical else [a0 * (s[0] * d0 + s[1] * d1 + s[2] * d2) for a0, s in passes])
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
        if not all(_dot3(e, e) > 0.0 for e, count in zip(weights(v, True)[0], n) if count > 0.0):
            i = min(range(3), key=lambda k: abs(v[k]))
            turn = [0.0, 0.0, 0.0]
            turn[i - 1], turn[i - 2] = v[i - 2], -v[i - 1]
            v = [vi + 2e-3 * ti / math.sqrt(_dot3(turn, turn)) for vi, ti in zip(v, turn)]
            norm = math.sqrt(_dot3(v, v))
            v = [vi / norm for vi in v]
    radius, steady = 1.0, math.inf
    for steps in range(1, _NEWTON_STEPS + 1):
        (es, c), (v0, v1, v2) = weights(v, pure), v
        csum = sum(c)  # sigma . (1, v), without its cancellation where c_k are small
        # N log sum c adds N sigma / sum c to the gradient and a rank-one term
        # to the Hessian
        scale = total / csum
        first = [-count / ck if count > 0.0 else -0.0 for count, ck in zip(n, c)]
        grad = [sum(map(mul, first, col)) + scale * si for col, si in zip(columns, sigma)]
        radial = grad[0] * v0 + grad[1] * v1 + grad[2] * v2
        failing = 2.0 * radial > _SPHERE_KKT * total
        inside = not pure or failing
        held = 0.0 if inside else radial  # on the sphere, the multiplier of |v| = 1
        along = [gi - held * vi for gi, vi in zip(grad, v)]
        slope = math.sqrt(sum([ai ** 2 for ai in along]))
        # after a step, the decrement estimated with the Hessian of the step before,
        # unless that step used its tangential part, which drops the sphere's curvature
        if steps > 1 and (not slope < steady or not projected and vals[0] > held and sum(
                [_dot3(q, along) ** 2 / (lam - held) for lam, q in zip(vals, vecs)])
                <= _STOP_DECREMENT):
            steps, moved = steps - 1, False  # the step ended at the optimum: no model
        else:
            second = [count / ck / ck if count > 0.0 else 0.0 for count, ck in zip(n, c)]
            h00, h01, h02, h11, h12, h22 = [sum(map(mul, second, col)) for col in data.outer]
            (s0, s1, s2), t0, t1, t2 = sigma, scale * sigma[0], scale * sigma[1], scale * sigma[2]
            hess = [h00 - t0 * s0 / csum, h01 - t0 * s1 / csum, h02 - t0 * s2 / csum,
                    h01 - t1 * s0 / csum, h11 - t1 * s1 / csum, h12 - t1 * s2 / csum,
                    h02 - t2 * s0 / csum, h12 - t2 * s1 / csum, h22 - t2 * s2 / csum]
            if not math.isfinite(sum(hess)):  # a weight that overflowed
                break
            vals, vecs, cols = _eigen(hess)
            g_basis = [q[0] * grad[0] + q[1] * grad[1] + q[2] * grad[2] for q in vecs]
            v_basis = [q[0] * v0 + q[1] * v1 + q[2] * v2 for q in vecs]
            floor = 1e-15 * max(abs(vals[0]), abs(vals[-1]))
            gap = 0.0 if pure else 1.0 - (v0 * v0 + v1 * v1 + v2 * v2)
            reg, projected, moved = 0.0, False, False
            for _ in range(100 if slope < steady else 0):
                onto = True
                if inside and vals[0] + reg >= -floor:
                    # the model's minimum-norm minimizer, eigenvalues at
                    # rounding level taken as zero
                    coef = [-gi / (lam + reg) if abs(lam + reg) > floor else 0.0
                            for lam, gi in zip(vals, g_basis)]
                    d = [_dot3(coef, q) for q in cols]
                    after = [vi + di for vi, di in zip(v, d)]
                    onto, model = not _dot3(after, after) < 1.0, 0.5 * _dot3(coef, g_basis)
                if onto:
                    (w0, w1, w2), model = _sphere_step(vals, g_basis, v_basis, reg, gap)
                    d0, d1, d2 = d = [w0 * q[0] + w1 * q[1] + w2 * q[2] - vi
                                      for q, vi in zip(cols, v)]
                    # the step to (v + d) / |v + d|, |v + d|^2 - 1 taken
                    # without cancellation
                    excess = 2.0 * (v0 * d0 + v1 * d1 + v2 * d2) + _dot3(d, d) - gap
                    norm = math.sqrt(1.0 + excess)
                    d = [(di - vi * excess / (1.0 + norm)) / norm for di, vi in zip(d, v)]
                if not -2.0 * model > _DECREMENT_TOL:
                    break
                length = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
                if length > radius:  # the model's minimum lies beyond where it is trusted
                    if not (inside or projected):
                        projected, tangent = True, _tangential(hess, v)
                        if not math.isfinite(sum(tangent)):  # an entry that overflowed
                            break
                        vals, vecs, cols = _eigen(tangent)
                        g_basis, v_basis = ([_dot3(q, x) for q in vecs] for x in (grad, v))
                    else:
                        reg = max(2.0 * reg, slope / radius)
                    continue
                if not length:  # a step below float resolution
                    break
                change = decrease(d, pure and onto)
                if change <= 0.25 * model:
                    if change <= 0.75 * model:
                        radius = max(radius, 2.0 * length)
                    v, pure, moved, c = [vi + di for vi, di in zip(v, d)], onto, True, None
                    steady = slope if -model < 2.0**-53 * total else math.inf
                    break
                radius = 0.25 * length
        if not moved:
            if not pure and failing:  # just outside the optimum, by v's rounding
                v, c = [vi * (1.0 - 2.0**-52) for vi in v], None
            break
    return (*fitted(v, pure, c), steps, pure)


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
