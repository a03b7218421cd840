"""Hyperbolic volume numerics for twist knots.

Three ingredients.  jhat evaluates the two-index Jones sum of K_p at
q = exp(2*pi*i/n); the sum truncates at k <= n - 1 because the plain
Pochhammer (q)_k vanishes there, and the inner terms whose denominator
Pochhammer hits the vanishing factor 1 - q^n are combined by explicit
simple-pole cancellation, with an integer certificate that the poles do
cancel.  dilog and bloch_wigner provide the principal-branch
dilogarithm and its imaginary-part combination D(z).  saddle_solve
takes the two growth equations in (x, y) from apoly (quad_a's
quadratic at m = 1, and saddle_constraint), eliminates x by putting the
root of the second, which is linear in x, into the first, which is
quadratic (that is their resultant), finds every root of the reduced
eliminant with mpmath's polyroots, started from double-precision roots
so that it needs only a few sweeps at full precision, certifies each
root, and scores each solution with

    3 D(x0) - D(x0 y0) - D(x0 / y0).

optimistic_volume picks the maximal score, and kashaev_scan tabulates
2*pi*log|jhat(n)|/n over a range of n.

All numerics run at the requested precision plus 32 guard bits and are
deterministic for fixed inputs.  jhat's double sum runs on Python ints
instead: in fixed point, with a width that grows with n so that its
cancellation costs none of those bits, and its residue certificate in
the packed ring Z/(2^(nW) - 1).  The certificate needs no cyclotomic
polynomial: Phi_n divides the folded residue sum S exactly when
S prod (1 - q^(n/r)) == 0 modulo q^n - 1, r over the primes dividing n
(Chinese remainder theorem), and W is wide enough that the packed
product is 0 only when that vector is.  Named knots evaluate through
their twist parameter; that changes the sum by a unit of modulus one,
so magnitudes, volumes and scans are unaffected.
"""

import cmath
from collections import namedtuple
import math
from itertools import accumulate

import mpmath as mp
from mpmath.libmp import NoConvergence

from .apoly import clear_at_root, linear_root, quad_a, saddle_constraint
from .jones import KnotId
from .laurent import CertificationError, LaurentPoly
from .qseries import to_dense

GUARD_BITS = 32


# ---------------------------------------------------------------------------
# the Jones sum at a root of unity


def jhat(knot, n, prec=128):
    """The two-index Jones sum of a twist knot at q = exp(2*pi*i/n).

    Truncated at k <= n - 1.  Inner terms whose denominator Pochhammer
    contains the vanishing factor 1 - q^n are summed by simple-pole
    cancellation; the cancellation itself is certified in integer
    arithmetic and CertificationError is raised if it fails.  No
    division by a vanishing Pochhammer can occur after the truncation.
    The sum runs in fixed point, prec + 32 + 2B + 16 bits wide with B
    about 0.233 n (_jhat_pole_cancel); at every hyperbolic K_p tested
    with n <= 200 it was good to about prec + 32 bits relative.  p = -1
    takes a closed-form product.
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
    """Generic-p evaluator, to the current working precision.

    The summand at (k, l), with the inverted-base Pochhammer folded
    into the plain base, is

        (-1)^l q^F (1 - q^(2l+1)) (q)_k^3 / ((q)_{k+l+1} (q)_{k-l})

    with F = k + l(l+1)p + l(l-1)/2; signs chosen so the k-sum
    telescopes at roots of unity.  For k + l + 1 >= n the denominator
    vanishes simply, the residues across the l-range cancel (certified
    once per level by _residue_certificate), and the finite part is
    assembled from log-derivative prefix arrays, O(1) per term after
    O(n) setup.  q^k and (q)_k^3 multiply each level's sum once, and
    the factor (-1)^l q^(F-k) (1 - q^(2l+1)) is tabulated once per l,
    so a regular term takes two complex products and a singular one
    three.  The exponents F - k are typed once, in one table that the
    finite part and the certificate both read.

    The sum runs in fixed point on Python ints: a complex value is a
    pair of ints over 2^g.  Only the roots of unity come from mpmath,
    rounded from expjpi at g + 16 bits, and the sum becomes an mpc once,
    at the end.  No table needs a division by a Pochhammer:
    prod_{j<n} (1 - q^j) = n gives 1/(q)_m = conj((q)_{n-1-m}) / n, and
    1/(1 - q^j) = 1/2 + i Im(q^j) / (2 Re(1 - q^j)).

    Width rule: g = prec + 2B + 16, where prec is the working precision
    and B the bit size of the largest |(q)_m|, about 0.233 n.  A
    fixed-point (q)_m is good to about 2^-g absolutely, so B bits go to
    its smallest entries, near 2^-B, and B more to the cancellation in
    the double sum.  Against the same sum at 1200 bits, the loss at
    p = 2, whose volume is the smallest of the generic p, measured 34,
    48 and 68 bits at n = 100, 150 and 200, inside the 70, 94 and 117
    bits added; the result is then good to the working precision.  At
    p = 1, where |jhat| grows only polynomially, the loss is larger
    (59 bits at n = 60) and so is the error.
    """
    # B from prefix sums of log2 |1 - q^j| = log2 (2 sin(pi j / n))
    top = max(accumulate(math.log2(2 * math.sin(math.pi * j / n))
                         for j in range(1, n)))
    g = mp.mp.prec + 2 * math.ceil(max(top, 0)) + 16
    one = 1 << g
    wr, wi = [0] * n, [0] * n
    with mp.workprec(g + 16):
        for j in range(n // 2 + 1):
            z = mp.expjpi(mp.mpf(2 * j) / n)
            wr[j] = wr[-j] = int(mp.nint(mp.ldexp(z.real, g)))
            wi[j] = int(mp.nint(mp.ldexp(z.imag, g)))
            wi[-j] = -wi[j]
    vr = [one - x for x in wr]
    vi = [-x for x in wi]
    # (q)_m; 1/(q)_m for m < n, and 1/(q)_(n+m) without its factor 1 - q^n
    pr, pi = [one] * n, [0] * n
    for m in range(1, n):
        pr[m], pi[m] = _fmul(pr[m - 1], pi[m - 1], vr[m], vi[m], g)
    ipr = [x // n for x in reversed(pr)]
    ipi = [-x // n for x in reversed(pi)]
    jr = [x // n for x in ipr]
    ji = [x // n for x in ipi]
    # lam[j] = -j q^(j-1) / (1 - q^j), and its prefix sums, which skip
    # j = n: logd[m] for m < n, logdskip[m] for m > n
    lr, li = [0] * (2 * n), [0] * (2 * n)
    for j in range(1, n):
        mr, mi = _fmul(-wr[j - 1], -wi[j - 1], one >> 1,
                       (wi[j] << g) // (2 * vr[j]), g)
        lr[j], li[j] = j * mr, j * mi
        lr[n + j], li[n + j] = (n + j) * mr, (n + j) * mi
    dr, di = list(accumulate(lr)), list(accumulate(li))
    # per l: the exponent F - k, unreduced since e multiplies by it,
    # s = (-1)^l q^(F-k), c = s (1 - q^(2l+1)), and the l-part of the
    # log-derivative, e = (F - k) / q + lam[2l+1]
    fs = [l * (l + 1) * p + l * (l - 1) // 2 for l in range(n)]
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % d for d in range(2, r))]
    sl, cl, el = [None] * n, [None] * n, [None] * n
    for l, fl in enumerate(fs):
        a, b = wr[fl % n], wi[fl % n]
        if l % 2:
            a, b = -a, -b
        j2 = 2 * l + 1
        sl[l] = a, b
        cl[l] = _fmul(a, b, vr[j2 % n], vi[j2 % n], g)
        el[l] = fl * wr[1] + lr[j2], -fl * wi[1] + li[j2]

    tr = ti = 0
    hr, hi = one, 0                     # q^k
    for k in range(n):
        if k:
            hr, hi = _fmul(hr, hi, wr[1], wi[1], g)
        ar = ai = 0                     # the level's sum over 2^2g
        for l in range(min(k, n - 2 - k) + 1):
            a, b, c, d = ipr[k + l + 1], ipi[k + l + 1], ipr[k - l], ipi[k - l]
            xr, xi = (a * c - b * d) >> g, (a * d + b * c) >> g
            c, d = cl[l]
            ar += xr * c - xi * d
            ai += xr * d + xi * c
        l0 = max(0, n - 1 - k)
        if l0 <= k:
            _residue_certificate(n, k, l0, fs, primes)
            ckr, cki = k * wr[1] + 3 * dr[k], -k * wi[1] + 3 * di[k]
            er = ei = 0
            for l in range(l0, k + 1):
                m = k + l + 1 - n
                a, b, c, d = jr[m], ji[m], ipr[k - l], ipi[k - l]
                xr, xi = (a * c - b * d) >> g, (a * d + b * c) >> g
                if 2 * l + 1 == n:
                    # numerator carries the vanishing factor itself;
                    # the ratio against 1 - q^n is exactly 1
                    c, d = sl[l]
                    ar += xr * c - xi * d
                    ai += xr * d + xi * c
                    continue
                c, d = cl[l]
                yr, yi = (xr * c - xi * d) >> g, (xr * d + xi * c) >> g
                c, d = el[l]
                c += ckr - dr[k - l] - dr[k + l + 1]
                d += cki - di[k - l] - di[k + l + 1]
                er += yr * c - yi * d
                ei += yr * d + yi * c
            er, ei = er >> g, ei >> g
            ar -= (er * wr[1] - ei * wi[1]) // n
            ai -= (er * wi[1] + ei * wr[1]) // n
        a, b = pr[k], pi[k]
        c, d = _fmul(a, b, a, b, g)
        c, d = _fmul(*_fmul(a, b, c, d, g), hr, hi, g)
        ar, ai = ar >> g, ai >> g
        tr += c * ar - d * ai
        ti += c * ai + d * ar
    return mp.mpc(mp.ldexp(tr, -2 * g), mp.ldexp(ti, -2 * g))


def _fmul(a, b, c, d, g):
    """(a + bi)(c + di) for fixed-point ints over 2^g."""
    return (a * c - b * d) >> g, (a * d + b * c) >> g


def _residue_certificate(n, k, l0, fs, primes):
    """Integer proof that the level-k pole residues cancel.

    fs[l] is the exponent F - k of _jhat_pole_cancel's summand, the
    table its finite part reads, and primes lists the primes dividing
    n.  Clearing the common nonvanishing Pochhammer content from the
    residues at q = exp(2*pi*i/n) leaves, for each singular l,

        c_l A_l B_l,    c_l = (-1)^l q^F (1 - q^(2l+1)),
        A_l = prod_{j=k-l+1}^{k-l0} (1 - q^j),
        B_l = prod_{j=k+l+2}^{2k+1} (1 - q^j),

    and their sum S must vanish at every primitive n-th root of unity:
    the n-th cyclotomic polynomial Phi_n must divide S.  Exponents are
    folded modulo n (q^n == 1 there), so S lives in Z[q]/(q^n - 1), and
    so does the test.  Let T = prod (1 - q^(n/r)) over the distinct
    primes r dividing n.  Over Q, q^n - 1 is the squarefree product of
    the Phi_d with d | n, so by the Chinese remainder theorem
    S T == 0 modulo q^n - 1 exactly when every Phi_d divides S T.  For
    d < n some r has d | n/r, so Phi_d divides 1 - q^(n/r) and so T;
    T is nonzero at the primitive n-th roots.  Hence S T == 0 exactly
    when Phi_n divides S, over Q and, Phi_n being monic, over Z.

    S comes packed at q = 2^W from _residue_sum, and each factor of T
    is one more binomial step.  S T is a signed sum of s = k - l0 + 1
    products of s + omega binomials, omega the number of primes r, so
    every folded coefficient is below s 2^(s + omega) < 2^(W - 2) for
    W = s + omega + bitlen(s) + 2.  Packed, such a vector is an integer
    of modulus below (2^(nW) - 1) / 2, zero only if every coefficient
    is, so S T == 0 exactly when its residue is 0 or 2^(nW) - 1.
    """
    span = k - l0 + 1
    width = span + len(primes) + span.bit_length() + 2
    nbits = n * width
    mod = (1 << nbits) - 1
    acc = _residue_sum(n, k, l0, fs, width)
    for r in primes:
        acc = _times_binomial(acc, n // r * width, nbits, mod)
    if acc not in (0, mod):
        raise CertificationError(
            "pole residues fail to cancel at n = %d, k = %d" % (n, k))


def _residue_sum(n, k, l0, fs, width):
    """Sum over l = l0..k of c_l A_l B_l in Z[q]/(q^n - 1), packed.

    Z[q]/(q^n - 1) evaluated at q = 2^W, W = width, is the ring
    Z/(2^(nW) - 1), in which q^j is a rotation by jW bits and
    (1 - q^j) one rotation and one subtraction (_times_binomial).  With
    A_l = A_{l-1} (1 - q^(k-l+1)) and
    S_l = S_{l-1} (1 - q^(k+l+1)) + c_l A_l, S_k is the sum; c_l has
    the exponent F = k + fs[l] (_residue_certificate).  Each
    step after the first costs three binomial multiplications.  The
    result is S_k(2^W) reduced into [0, 2^(nW) - 1].
    """
    nbits = n * width
    mod = (1 << nbits) - 1
    acc, a = 0, 1
    for l in range(l0, k + 1):
        if l > l0:
            a = _times_binomial(a, (k - l + 1) % n * width, nbits, mod)
            acc = _times_binomial(acc, (k + l + 1) % n * width, nbits, mod)
        f = (k + fs[l]) % n
        term = _times_binomial(a, (2 * l + 1) % n * width, nbits, mod)
        term = ((term << f * width) & mod) | (term >> (nbits - f * width))
        acc = acc - term if l % 2 else acc + term - mod
        if acc < 0:
            acc += mod
    return acc


def _times_binomial(x, s, nbits, mod):
    """x (1 - q^j) in Z/(2^nbits - 1), for s = W (j mod n) < nbits."""
    x -= ((x << s) & mod) | (x >> (nbits - s))
    return x + mod if x < 0 else x


# ---------------------------------------------------------------------------
# dilogarithm and the Bloch-Wigner combination


def dilog(z, prec=128):
    """Principal-branch dilogarithm.

    |z| > 1 is mapped into the unit disk by inversion, and then
    Re z > 1/2 onto Re z < 1/2 by reflection, which keeps |z| <= 1;
    the rest is the expansion in w = -log(1 - z) (_dilog_bernoulli).
    On the real ray z > 1 the branch is taken from below,
    arg(1 - z) = -pi, so the Bloch-Wigner combination vanishes there.
    The error is absolute, about 2^-(prec + 32); near z = 0, where
    1 - z rounds, it is not relative.
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
    if abs(z) > 1:
        lz = mp.log(-z)
        return -_dilog(1 / z) - mp.pi ** 2 / 6 - lz * lz / 2
    if mp.re(z) > 0.5:
        return (mp.pi ** 2 / 6 - _dilog_bernoulli(1 - z)
                - mp.log(z) * mp.log(1 - z))
    return _dilog_bernoulli(z)


def _dilog_bernoulli(z):
    """Li_2(z) = w - w^2/4 + sum B_2m w^(2m+1) / (2m+1)!, w = -log(1 - z).

    _dilog calls it only on |z| <= 1, Re z <= 1/2.  There 1 - z lies in
    the disk |1 - z| <= 2 with Re(1 - z) >= 1/2, so |log|1 - z|| <= log 2
    and |arg(1 - z)| <= pi/3, and |w| <= (log^2 2 + pi^2/9)^(1/2) < 1.26.
    With |B_2m| = 2 (2m)! zeta(2m) / (2 pi)^2m, the m-th term is
    2 zeta(2m) |w| r^2m / (2m+1) <= 1.4 r^2m, r = |w| / (2 pi) < 1/5, and
    each is at most r^2 < 1/25 of the one before.  So the term count is
    fixed before the loop: the last term is under 2^-(prec + 8), and the
    tail after it below 1/24 of that.  1/(2m+1)! is carried as a ratio.
    """
    w = -mp.log(1 - z)
    total = w - w * w / 4
    r = abs(complex(w)) / (2 * math.pi)
    if not r < 0.2:
        raise CertificationError("dilogarithm expansion failed to converge")
    # w is 0 where 1 - z rounds to 1
    terms = math.ceil((mp.mp.prec + 9) / -math.log2(r * r)) if r else 0
    w2 = w * w
    wp = w
    inv = mp.mpf(1)
    for m in range(1, terms + 1):
        wp = wp * w2
        inv = inv / ((2 * m) * (2 * m + 1))
        total += wp * (mp.bernoulli(2 * m) * inv)
    return total


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


class SaddleSolution(namedtuple("SaddleSolution",
                                "x0 y0 volume_candidate residuals")):
    """One certified root of the cleared growth equations.

    x0 and y0 are mpc, volume_candidate an mpf, residuals a pair.
    """

    __slots__ = ()


def _growth_polys(p):
    """The two cleared growth equations as polynomials in x and y.

    The first is apoly's y^2 - (a/m^2) y + 1 at m = 1, a = quad_a(),
    which is the k-step quotient at q = 1 set equal to 1 and cleared,
    with the factor x divided out (D scores 0 on x = 0): knot
    independent, 1 - 3 y + y^2 + 2 x y - x^2 y.  The second is the
    l-direction constraint shared with the A-polynomial construction.
    """
    y = LaurentPoly.var("y")
    return (y * y - quad_a().substitute_monomials(m=1) * y + 1,
            saddle_constraint(p))


def reduced_eliminant(p):
    """Univariate polynomial in y cutting out the candidate saddle values.

    The x-resultant of the two growth equations, with every factor of
    y, y - 1 and y + 1 stripped; those roots sit on degenerate loci, so
    nothing a solution could use is lost.  The second equation is
    den x - num (linear_root refuses it otherwise) and the first, f, has
    x-degree 2 (clear_at_root refuses one outside 0..2), so the
    resultant is Res_x(f, den x - num) = sum_j f_j num^j den^(2 - j),
    the clearing of f at x = num/den.  f has its factor x divided out,
    so no root comes from x = 0.  The leading coefficient is normalized
    positive.
    """
    p1, p2 = _growth_polys(p)
    res = clear_at_root(p1, linear_root(p2, "l-step at q = 1"), 2, p)
    if not res:
        raise ArithmeticError("growth equations share a component")
    lo, _ = res.var_range("y")
    if lo:
        res = res.exact_divide(LaurentPoly.monomial(1, y=lo))
    y = LaurentPoly.var("y")
    for factor in (y - 1, y + 1):
        res, _ = res.divide_out(factor)
    if res.variables() not in ((), ("y",)):
        raise ArithmeticError("eliminant kept a variable besides y")
    if res.leading()[1] < 0:
        res = -res
    return res


def _float_start(coeffs):
    """Starting points for polyroots, or None for its own defaults.

    The roots of the descending integer coefficients coeffs, to about
    1e-12, from _durand_kerner in Python complex.  They are used only
    when there are deg of them, all finite and pairwise distinct; a
    coefficient ratio too large for a float, or an overflow on the way,
    gives None.
    """
    deg = len(coeffs) - 1
    try:
        roots = _durand_kerner(coeffs)
    except (OverflowError, ZeroDivisionError):
        return None
    if (len(roots) != deg or not all(map(cmath.isfinite, roots))
            or len(set(roots)) != deg):
        return None
    return [mp.mpc(z) for z in roots]


def _durand_kerner(coeffs):
    """Approximate roots of descending integer coeffs in complex floats.

    The iteration polyroots runs, from its start points (0.4 + 0.9i)^k,
    each root updated in place, for at most 60 sweeps; it stops once
    every correction is below 1e-12 relative to its root.
    """
    monic = [c / coeffs[0] for c in coeffs[1:]]
    roots = [(0.4 + 0.9j) ** k for k in range(len(monic))]
    for _ in range(60):
        worst = 0.0
        for i, z in enumerate(roots):
            val = 1.0
            for c in monic:
                val = val * z + c
            for j, r in enumerate(roots):
                if j != i:
                    val /= z - r
            roots[i] = z - val
            worst = max(worst, abs(val) / max(1.0, abs(z)))
        if worst < 1e-12:
            break
    return roots


def saddle_solve(p, prec=128):
    """All certified solutions of the growth system for K_p.

    Roots of the reduced eliminant come from mpmath's polyroots
    (Durand-Kerner, maxsteps=200, extraprec=prec).  Its start is the
    same iteration run first in Python complex (_float_start), which
    brings it close enough to converge quadratically from the first
    sweep; the start changes only the speed.  polyroots' own test is
    unchanged: every correction must fall below eps at the working
    precision, and a solve that does not converge raises
    CertificationError.  x0 = num(y0)/den(y0) is the root of the
    constraint, which linear_root refuses unless it is linear in x; it
    gets no further polish, and both residuals at (x0, y0) must be below
    2^(-prec/2) or CertificationError reports the failures.
    The eliminant has no roots from x = 0 (see _growth_polys); roots on
    the degenerate loci x = 1, y = 0, x y = 1, y = x are discarded.
    Solutions are sorted by y for determinism.
    """
    with mp.workprec(prec + GUARD_BITS):
        # reduced_eliminant strips every factor of y, so its lowest
        # y-exponent is 0 and the dense list needs no padding
        coeffs = to_dense(reduced_eliminant(p), "y")[1][::-1]
        try:
            roots = mp.polyroots([mp.mpf(c) for c in coeffs],
                                 maxsteps=200, extraprec=prec,
                                 roots_init=_float_start(coeffs))
        except NoConvergence:
            raise CertificationError(
                "eliminant roots did not converge at p = %d" % p) from None
        p1, p2 = _growth_polys(p)
        xnum, xden = linear_root(p2, "l-step at q = 1")

        thresh = mp.ldexp(1, -(prec // 2))
        sols = []
        failures = []
        for y0 in sorted((mp.mpc(r) for r in roots),
                         key=lambda r: (mp.re(r), mp.im(r))):
            x0 = (xnum.eval_complex({"y": y0})
                  / xden.eval_complex({"y": y0}))
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
    No certified solution raises CertificationError.
    """
    if p in (0, 1):
        raise ValueError("p = %d is not hyperbolic" % p)
    sols = saddle_solve(p, prec)
    if not sols:
        raise CertificationError("no saddle solutions at p = %d" % p)
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
