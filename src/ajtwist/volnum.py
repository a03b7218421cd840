"""Hyperbolic volume numerics for twist knots.

Three ingredients.  jhat evaluates the two-index Jones sum of K_p at
q = exp(2*pi*i/n); the sum truncates at k <= n - 1 because the plain
Pochhammer (q)_k vanishes there, and the inner terms whose denominator
Pochhammer hits the vanishing factor 1 - q^n are combined by explicit
simple-pole cancellation, with an integer certificate that the poles do
cancel.  dilog and bloch_wigner provide the principal-branch
dilogarithm and its imaginary-part combination D(z).  saddle_solve
clears the two growth equations of the summand to polynomials in
(x, y), eliminates x by resultant, certifies every root of the reduced
eliminant, and scores each solution with

    3 D(x0) - D(x0 y0) - D(x0 / y0).

optimistic_volume picks the maximal score, and kashaev_scan tabulates
2*pi*log|jhat(n)|/n over a range of n.

All numerics run at the requested precision plus 32 guard bits and are
deterministic for fixed inputs.  Named knots evaluate through their
twist parameter; that changes the sum by a unit of modulus one, so
magnitudes, volumes and scans are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .apoly import saddle_constraint
from .jones import KnotId
from .laurent import LaurentPoly, InexactDivision

GUARD_BITS = 32


class CertificationError(ArithmeticError):
    """An exactness or residual certificate failed."""


# ---------------------------------------------------------------------------
# the Jones sum at a root of unity


def jhat(knot, n, prec=128):
    """The two-index Jones sum of a twist knot at q = exp(2*pi*i/n).

    Truncated at k <= n - 1.  Inner terms whose denominator Pochhammer
    contains the vanishing factor 1 - q^n are summed by simple-pole
    cancellation; the cancellation itself is certified in integer
    arithmetic and CertificationError is raised if it fails.  No
    division by a vanishing Pochhammer can occur after the truncation.
    """
    if not isinstance(knot, KnotId):
        knot = KnotId.twist_knot(knot)
    if n < 2:
        raise ValueError("need n >= 2, got %d" % n)
    p = knot.twist_parameter()
    with mp.workprec(prec + GUARD_BITS):
        if p == -1:
            # every cleared inner sum is 1, leaving the running products
            # |(q)_k|^2 = prod_{j<=k} 4 sin^2(pi j / n)
            total = mp.mpf(0)
            prod = mp.mpf(1)
            for k in range(n):
                if k:
                    sk = 2 * mp.sinpi(mp.mpf(k) / n)
                    prod = prod * (sk * sk)
                total = total + prod
            return mp.mpc(total)
        return _jhat_pole_cancel(p, n)


def _jhat_pole_cancel(p, n):
    """Generic-p evaluator at the current working precision.

    The summand at (k, l), with the inverted-base Pochhammer folded
    into the plain base, is

        (-1)^l q^F (1 - q^(2l+1)) (q)_k^3 / ((q)_{k+l+1} (q)_{k-l})

    with F = k + l(l+1)p + l(l-1)/2; signs chosen so the k-sum
    telescopes at roots of unity.  For k + l + 1 >= n the denominator
    vanishes simply, the residues across the l-range cancel (certified
    by _residue_certificate), and the finite part is assembled from
    log-derivative prefix arrays, O(1) per term after O(n) setup.
    """
    w = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
    v = [1 - w[j % n] for j in range(2 * n)]
    poch = [mp.mpc(1)] * n
    for m in range(1, n):
        poch[m] = poch[m - 1] * v[m]
    pskip = [mp.mpc(1)] * (2 * n)
    for m in range(1, 2 * n):
        pskip[m] = pskip[m - 1] if m == n else pskip[m - 1] * v[m]
    lam = [None] * (2 * n)
    for j in range(1, 2 * n):
        if j != n:
            lam[j] = -j * w[(j - 1) % n] / v[j]
    logd = [mp.mpc(0)] * n
    for m in range(1, n):
        logd[m] = logd[m - 1] + lam[m]
    logdskip = [mp.mpc(0)] * (2 * n)
    for m in range(1, 2 * n):
        logdskip[m] = logdskip[m - 1] if m == n else logdskip[m - 1] + lam[m]
    invw = w[n - 1]

    total = mp.mpc(0)
    for k in range(n):
        poch3 = poch[k] ** 3
        kterm = mp.mpc(0)
        l0 = n - 1 - k
        for l in range(0, min(k, l0 - 1) + 1):
            f = k + l * (l + 1) * p + l * (l - 1) // 2
            t = (w[f % n] * v[(2 * l + 1) % n] * poch3
                 / (poch[k + l + 1] * poch[k - l]))
            kterm += -t if l % 2 else t
        l0 = max(0, l0)
        if l0 <= k:
            _residue_certificate(p, n, k, l0)
            dsum = mp.mpc(0)
            for l in range(l0, k + 1):
                f = k + l * (l + 1) * p + l * (l - 1) // 2
                j2 = 2 * l + 1
                base = w[f % n] * poch3 / (pskip[k + l + 1] * poch[k - l])
                if l % 2:
                    base = -base
                if j2 == n:
                    # numerator carries the vanishing factor itself;
                    # the ratio against 1 - q^n is exactly 1
                    kterm += base
                    continue
                nl = base * v[j2 % n]
                dsum += nl * (f * invw + lam[j2] + 3 * logd[k]
                              - logd[k - l] - logdskip[k + l + 1])
            kterm += -dsum * w[1] / n
        total += kterm
    return total


@lru_cache(maxsize=None)
def _residue_certificate(p, n, k, l0):
    """Integer proof that the level-k pole residues cancel.

    Clearing the common nonvanishing Pochhammer content from the
    residues at q = exp(2*pi*i/n) leaves, for each singular l,

        (-1)^l q^F (1 - q^(2l+1))
            prod_{j=k-l+1}^{k-l0} (1 - q^j)
            prod_{j=k+l+2}^{2k+1} (1 - q^j)

    and the sum over l must vanish at every primitive n-th root of
    unity.  Exponents are folded modulo n (q^n == 1 there) and the
    accumulated coefficient vector is reduced modulo the n-th
    cyclotomic polynomial; a nonzero remainder is a genuine failure.
    """
    acc = [0] * n
    for l in range(l0, k + 1):
        f = k + l * (l + 1) * p + l * (l - 1) // 2
        cur = [0] * n
        cur[f % n] = -1 if l % 2 else 1
        js = [2 * l + 1]
        js.extend(range(k - l + 1, k - l0 + 1))
        js.extend(range(k + l + 2, 2 * k + 2))
        for j in js:
            cur = [cur[i] - cur[(i - j) % n] for i in range(n)]
        for i in range(n):
            acc[i] += cur[i]
    if not any(acc):
        return
    _, rem = _polydivmod(acc, _cyclotomic(n))
    if any(rem):
        raise CertificationError(
            "pole residues fail to cancel at n = %d, k = %d, p = %d"
            % (n, k, p))


@lru_cache(maxsize=None)
def _cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _polydivmod(poly, _cyclotomic(d))
            if any(rem):
                raise ArithmeticError("inexact integer polynomial division")
    return tuple(poly)


def _polydivmod(num, den):
    """Quotient and remainder of dense ascending integer polynomials.

    den must be monic, so every step stays integral.
    """
    num = list(num)
    dn = len(den) - 1
    quo = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if not c:
            continue
        quo[i - dn] = c
        for t in range(dn + 1):
            num[i - dn + t] -= c * den[t]
    return quo, num[:dn]


# ---------------------------------------------------------------------------
# dilogarithm and the Bloch-Wigner combination


def dilog(z, prec=128):
    """Principal-branch dilogarithm.

    Power series on |z| <= 1/2 (geometric tail, each term at most half
    the previous); inversion onto the series for |z| >= 2; reflection
    onto the series for |1 - z| <= 1/2; otherwise the expansion in
    w = -log(1 - z), whose modulus on the remaining annulus stays below
    3.34 < 2*pi.  On the real ray z > 1 the branch is taken from below,
    arg(1 - z) = -pi, so the Bloch-Wigner combination vanishes there.
    """
    with mp.workprec(prec + GUARD_BITS):
        return _dilog(mp.mpc(z))


def _dilog(z):
    if z == 0:
        return mp.mpc(0)
    if z == 1:
        return mp.mpc(mp.pi ** 2 / 6)
    if mp.im(z) == 0 and mp.re(z) > 1:
        x = mp.re(z)
        log1z = mp.mpc(mp.log(x - 1), -mp.pi)
        return mp.pi ** 2 / 6 - _dilog(mp.mpc(1 - x)) - mp.log(x) * log1z
    a = abs(z)
    if a <= 0.5:
        return _dilog_series(z)
    if a >= 2:
        lz = mp.log(-z)
        return -_dilog_series(1 / z) - mp.pi ** 2 / 6 - lz * lz / 2
    if abs(1 - z) <= 0.5:
        return (mp.pi ** 2 / 6 - _dilog_series(1 - z)
                - mp.log(z) * mp.log(1 - z))
    return _dilog_bernoulli(z)


def _dilog_series(z):
    tol = mp.ldexp(1, -(mp.mp.prec + 8))
    total = mp.mpc(0)
    zk = mp.mpc(1)
    for k in range(1, 4 * mp.mp.prec + 80):
        zk = zk * z
        term = zk / (k * k)
        total += term
        if abs(term) <= tol:
            return total
    raise CertificationError("dilogarithm series failed to converge")


def _dilog_bernoulli(z):
    w = -mp.log(1 - z)
    total = w - w * w / 4
    w2 = w * w
    wp = w
    tol = mp.ldexp(1, -(mp.mp.prec + 8))
    for m in range(1, 2 * mp.mp.prec + 60):
        wp = wp * w2
        term = mp.bernoulli(2 * m) * wp / mp.factorial(2 * m + 1)
        total += term
        if abs(term) <= tol:
            return total
    raise CertificationError("dilogarithm expansion failed to converge")


def bloch_wigner(z, prec=128):
    """D(z) = Im(Li_2(z)) + log|z| arg(1 - z), principal branch.

    Zero on the real line away from the poles of the definition: both
    summands vanish for real z < 1, and the from-below branch makes the
    two halves cancel for real z > 1.
    """
    with mp.workprec(prec + GUARD_BITS):
        z = mp.mpc(z)
        if z == 0 or z == 1:
            raise ValueError("Bloch-Wigner D is defined away from 0 and 1")
        return _bloch_wigner(z)


def _bloch_wigner(z):
    if mp.im(z) == 0:
        return mp.mpf(0)
    return mp.im(_dilog(z)) + mp.log(abs(z)) * mp.arg(1 - z)


# ---------------------------------------------------------------------------
# saddle solutions and volumes


@dataclass(frozen=True)
class SaddleSolution:
    """One certified root of the cleared growth equations."""

    x0: mp.mpc
    y0: mp.mpc
    volume_candidate: mp.mpf
    residuals: tuple


def _growth_polys(p):
    """The two cleared growth equations as polynomials in x and y.

    The first is knot independent: y (1 - x)^3 - (1 - x y)(y - x).
    The second is the l-direction constraint shared with the
    A-polynomial construction.
    """
    x = LaurentPoly.var("x")
    y = LaurentPoly.var("y")
    one = LaurentPoly.const(1)
    p1 = y * (one - x) ** 3 - (one - x * y) * (y - x)
    return p1, saddle_constraint(p)


def _bareiss_det(mat):
    """Fraction-free determinant of a square matrix of LaurentPolys."""
    mat = [row[:] for row in mat]
    size = len(mat)
    sign = 1
    prev = LaurentPoly.const(1)
    for c in range(size - 1):
        if not mat[c][c]:
            for i in range(c + 1, size):
                if mat[i][c]:
                    mat[c], mat[i] = mat[i], mat[c]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        for i in range(c + 1, size):
            for j in range(c + 1, size):
                num = mat[c][c] * mat[i][j] - mat[i][c] * mat[c][j]
                mat[i][j] = num.exact_divide(prev)
            mat[i][c] = LaurentPoly.zero()
        prev = mat[c][c]
    det = mat[size - 1][size - 1]
    return -det if sign < 0 else det


def _sylvester_resultant_x(f, g):
    """Resultant of f and g with respect to x, by Sylvester determinant."""
    fc = f.coefficients_in("x")
    gc = g.coefficients_in("x")
    m = max(fc)
    n = max(gc)
    if min(fc) < 0 or min(gc) < 0:
        raise ValueError("negative x-exponents have no Sylvester matrix")
    zero = LaurentPoly.zero()
    frow = [fc.get(m - j, zero) for j in range(m + 1)]
    grow = [gc.get(n - j, zero) for j in range(n + 1)]
    mat = []
    for i in range(n):
        mat.append([zero] * i + frow + [zero] * (n - 1 - i))
    for i in range(m):
        mat.append([zero] * i + grow + [zero] * (m - 1 - i))
    return _bareiss_det(mat)


def reduced_eliminant(p):
    """Univariate polynomial in y cutting out the candidate saddle values.

    The x-resultant of the two growth equations, with every factor of
    y, y - 1 and y + 1 stripped; those roots sit on degenerate loci, so
    nothing a solution could use is lost.  The leading coefficient is
    normalized positive.
    """
    if p == 0:
        raise ValueError("p = 0 is not a twist knot")
    p1, p2 = _growth_polys(p)
    res = _sylvester_resultant_x(p1, p2)
    if not res:
        raise ArithmeticError("growth equations share a component")
    lo, _ = res.var_range("y")
    if lo:
        res = res.exact_divide(LaurentPoly.monomial(1, y=lo))
    y = LaurentPoly.var("y")
    one = LaurentPoly.const(1)
    for factor in (y - one, y + one):
        while True:
            try:
                res = res.exact_divide(factor)
            except InexactDivision:
                break
    if res.variables() not in ((), ("y",)):
        raise ArithmeticError("eliminant kept a variable besides y")
    if res.leading()[1] < 0:
        res = -res
    return res


def _dense_y_coeffs(poly):
    """Descending dense integer coefficient list of a polynomial in y."""
    cof = poly.univariate_coefficients("y")
    return [cof.get(e, 0) for e in range(max(cof), -1, -1)]


def saddle_solve(p, prec=128):
    """All certified solutions of the growth system for K_p.

    Roots of the reduced eliminant come from simultaneous iteration,
    x is recovered from the x-linear constraint, the pair is polished
    by a Newton step on the full system, and both residuals must drop
    below 2^(-prec/2) or CertificationError reports the failures.
    Roots on the degenerate loci x = 1, y = 0, x y = 1, y = x are
    discarded.  Solutions are sorted by y for determinism.
    """
    if p == 0:
        raise ValueError("p = 0 is not a twist knot")
    with mp.workprec(prec + GUARD_BITS):
        coeffs = _dense_y_coeffs(reduced_eliminant(p))
        roots = mp.polyroots([mp.mpf(c) for c in coeffs],
                             maxsteps=200, extraprec=prec)
        p1, p2 = _growth_polys(p)
        d1x, d1y = p1.derivative("x"), p1.derivative("y")
        d2x, d2y = p2.derivative("x"), p2.derivative("y")
        c2 = p2.coefficients_in("x")
        xnum, xden = -c2[0], c2[1]

        thresh = mp.ldexp(1, -(prec // 2))
        sols = []
        failures = []
        for y0 in sorted((mp.mpc(r) for r in roots),
                         key=lambda r: (mp.re(r), mp.im(r))):
            x0 = (xnum.eval_complex({"y": y0})
                  / xden.eval_complex({"y": y0}))
            for _ in range(6):
                at = {"x": x0, "y": y0}
                f1 = p1.eval_complex(at)
                f2 = p2.eval_complex(at)
                if abs(f1) + abs(f2) < mp.ldexp(1, -(mp.mp.prec - 4)):
                    break
                a, b = d1x.eval_complex(at), d1y.eval_complex(at)
                c, d = d2x.eval_complex(at), d2y.eval_complex(at)
                det = a * d - b * c
                if not det:
                    break
                x0 -= (f1 * d - f2 * b) / det
                y0 -= (a * f2 - c * f1) / det
            at = {"x": x0, "y": y0}
            r1, r2 = abs(p1.eval_complex(at)), abs(p2.eval_complex(at))
            if r1 > thresh or r2 > thresh:
                failures.append((y0, r1, r2))
                continue
            if (abs(x0 - 1) < thresh or abs(y0) < thresh
                    or abs(x0 * y0 - 1) < thresh or abs(y0 - x0) < thresh):
                continue
            vol = (3 * _bloch_wigner(mp.mpc(x0))
                   - _bloch_wigner(mp.mpc(x0 * y0))
                   - _bloch_wigner(mp.mpc(x0 / y0)))
            sols.append(SaddleSolution(x0, y0, vol, (r1, r2)))
        if failures:
            raise CertificationError(
                "uncertified saddle residuals at p = %d: %s" % (p, ", ".join(
                    "y = %s (%.3g, %.3g)" % (mp.nstr(y, 8), r1, r2)
                    for y, r1, r2 in failures)))
        return sols


def optimistic_volume(p, prec=128):
    """Maximal volume candidate over all saddle solutions, plus the list.

    p must pick a hyperbolic twist knot (not 0, not 1), as for
    kashaev_scan: at p = 1 every candidate is precision noise around 0.
    """
    if p in (0, 1):
        raise ValueError("p = %d is not hyperbolic" % p)
    sols = saddle_solve(p, prec)
    if not sols:
        raise ValueError("no saddle solutions at p = %d" % p)
    return max(s.volume_candidate for s in sols), sols


def kashaev_scan(p, n_range, prec=128):
    """Table of (n, 2*pi*log|jhat(n)|/n), ascending in n.

    p must pick a hyperbolic twist knot (not 0, not 1).  A vanishing
    |jhat(n)| is recorded as None rather than raised.  For p = -1 (the
    figure-eight knot) the entries decrease to Vol(4_1) from above,
    following Vol + 2*pi*((3/2)*log n - (1/4)*log 3)/n + O(1/n^2)
    (Andersen-Hansen).
    """
    if p in (0, 1):
        raise ValueError("p = %d is not hyperbolic" % p)
    ns = sorted(set(int(n) for n in n_range))
    if ns and ns[0] < 3:
        raise ValueError("scan needs n >= 3")
    knot = KnotId.twist_knot(p)
    table = []
    for n in ns:
        mag = abs(jhat(knot, n, prec))
        if mag == 0:
            table.append((n, None))
            continue
        with mp.workprec(prec + GUARD_BITS):
            table.append((n, 2 * mp.pi * mp.log(mag) / n))
    return table
