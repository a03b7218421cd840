"""Hyperbolic volume numerics for twist knots.

Two halves.  The Kashaev half runs on Python ints from start to finish.
jhat evaluates the two-index Jones sum of K_p at q = exp(2*pi*i/n); the
sum truncates at k <= n - 1 because the plain Pochhammer (q)_k vanishes
there, and the inner terms whose denominator Pochhammer hits the
vanishing factor 1 - q^n are combined by explicit simple-pole
cancellation, with an integer certificate that the poles do cancel.
kashaev_scan tabulates 2*pi*log|jhat(n)|/n over a range of n.  The sum
runs in fixed point, with a width that grows with n so that its
cancellation costs none of the requested bits; the roots of unity come
from a cos and sin series with pi from Machin's formula, and the
logarithm from an atanh series, all on ints.  The residue certificate
runs in the packed ring Z/(2^(nW) - 1).  It needs no cyclotomic
polynomial: Phi_n divides the folded residue sum S exactly when
S prod (1 - q^(n/r)) == 0 modulo q^n - 1, r over the primes dividing n
(Chinese remainder theorem), and W is wide enough that the packed
product is 0 only when that vector is.  jhat takes the twist
parameter p alone; a named knot's sum differs from K_p's by a unit of
modulus one there, so its magnitudes and scans are K_p's.

The volume half runs on mpmath.  dilog is the principal-branch
dilogarithm, and bloch_wigner reads it for the combination D(z).
saddle_solve takes the two growth equations in (x, y) from apoly
(quad_a's quadratic at m = 1, and saddle_constraint), eliminates x by
putting the root of the second, which is linear in x, into the first,
which is quadratic (that is their resultant), finds every root of the
reduced eliminant with mpmath's polyroots, started from
double-precision roots so that it needs only a few sweeps at full
precision, certifies each root, and scores each solution with

    3 D(x0) - D(x0 y0) - D(x0 / y0).

optimistic_volume picks the maximal score.  mpmath, apoly and qseries
are imported in the volume half only, so the kashaev command loads
none of them, nor jones.  All numerics run at the requested precision
plus 32 guard bits and are deterministic for fixed inputs.
"""

import cmath
from collections import namedtuple
import math
from itertools import accumulate

from .laurent import CertificationError, LaurentPoly

GUARD_BITS = 32


# ---------------------------------------------------------------------------
# fixed-point constants and series on Python ints


def _odd_series(z, w, alternate):
    """sum of (-1)^i z^(2i+1) / (2i+1) (alternate) or z^(2i+1) / (2i+1).

    atan or atanh of z / 2^w, over 2^w, for 0 <= z <= 2^w / 3.  Each
    term is truncated once, z^2 once, and every term is at most 1/9 of
    the one before, so the result is within w + 3 units of the exact
    series at z.
    """
    z2 = z * z >> w
    total = term = z
    k = 1
    while term:
        term = term * z2 >> w
        k += 2
        total += -(term // k) if alternate and k % 4 == 3 else term // k
    return total


def _fixed_constant(bits, series):
    """series(w) over 2^w, rounded to bits, w = bits + bitlen(bits) + 10.

    For a series within 20 (w + 4) units of its constant, the guard
    bits leave under 0.04 units at bits, so the result is within one
    unit of 2^bits times the constant, for bits >= 16.
    """
    guard = bits.bit_length() + 10
    return (series(bits + guard) + (1 << (guard - 1))) >> guard


def _pi_fixed(bits):
    """pi over 2^bits, within one unit: pi = 16 atan(1/5) - 4 atan(1/239).

    Each atan is within w + 4 units: w + 3 from _odd_series, and one
    from truncating 2^w / x.
    """
    return _fixed_constant(bits, lambda w: (
        16 * _odd_series((1 << w) // 5, w, True)
        - 4 * _odd_series((1 << w) // 239, w, True)))


def _ln2_fixed(bits):
    """log 2 over 2^bits, within one unit: log 2 = 2 atanh(1/3)."""
    return _fixed_constant(
        bits, lambda w: 2 * _odd_series((1 << w) // 3, w, False))


def _roots_of_unity(n, g):
    """Re and Im of q^j, q = exp(2*pi*i/n), over 2^g, for j < n.

    q itself is the cos and sin series at the angle 2 pi / n, and q^j
    for j <= n/2 the running product, both at w = g + bitlen(n) + 24
    bits; the rest are conjugates.  Each entry is rounded to nearest at
    g bits.  The angle is within 2 units of 2^-w (pi from _pi_fixed),
    each series term within 2.7, and at most w/2 + 9 terms are nonzero,
    so q is within 2w units for w >= 50; each product adds at most that
    error and sqrt(2) units more, so q^j for j <= n/2 < 2^(bitlen(n)-1)
    is within (w + 1) 2^bitlen(n) units.  Every rounded entry is thus
    within 1/2 + (w + 1) 2^-24 units of 2^-g of the exact value.
    """
    w = g + n.bit_length() + 24
    one = 1 << w
    theta = 2 * _pi_fixed(w) // n
    cs = [one, 0]                       # cos, sin
    term, k = one, 0
    while term:
        k += 1
        term = term * theta >> w
        term //= k
        cs[k % 2] += -term if k % 4 > 1 else term
    cr, ci = cs
    shift = w - g
    half = 1 << (shift - 1)
    wr, wi = [0] * n, [0] * n
    zr, zi = one, 0
    for j in range(n // 2 + 1):
        if j:
            zr, zi = _fmul(zr, zi, cr, ci, w)
        wr[j] = wr[-j] = (zr + half) >> shift
        wi[j] = (zi + half) >> shift
        wi[-j] = -wi[j]
    return wr, wi


# ---------------------------------------------------------------------------
# the Jones sum at a root of unity


def jhat(p, n, prec=128):
    """The two-index Jones sum of K_p at q = exp(2*pi*i/n).

    Returns its exact fixed-point value as ints (re, im, scale), the
    number (re + i im) / 2^scale.  Truncated at k <= n - 1.  Inner
    terms whose denominator Pochhammer contains the vanishing factor
    1 - q^n are summed by simple-pole cancellation; the cancellation
    itself is certified in integer arithmetic and CertificationError is
    raised if it fails.  No division by a vanishing Pochhammer can occur
    after the truncation.  The sum runs in fixed point, g = prec + 32 +
    2B + 16 bits wide with B about 0.233 n (_jhat_pole_cancel); at every
    hyperbolic K_p tested with n <= 200 it was good to about prec + 32
    bits relative.  p = -1 takes a closed-form product over the same
    table of roots of unity, and its value is exactly real.
    """
    if n < 2:
        raise ValueError("need n >= 2, got %d" % n)
    g = _width(n, prec + GUARD_BITS)
    wr, wi = _roots_of_unity(n, g)
    if p == -1:
        # every cleared inner sum is 1, leaving the running products
        # |(q)_k|^2 = prod_{j<=k} |1 - q^j|^2 = prod_{j<=k} 2 (1 - Re q^j)
        total = prod = one = 1 << g
        for j in range(1, n):
            prod = prod * 2 * (one - wr[j]) >> g
            total += prod
        return total, 0, g
    return _jhat_pole_cancel(p, n, g, wr, wi)


def _width(n, bits):
    """The fixed-point width g = bits + 2B + 16 of jhat's sum.

    B is the bit size of the largest |(q)_m|, from prefix sums of
    log2 |1 - q^j| = log2 (2 sin(pi j / n)); see _jhat_pole_cancel.
    """
    top = max(accumulate(math.log2(2 * math.sin(math.pi * j / n))
                         for j in range(1, n)))
    return bits + 2 * math.ceil(max(top, 0)) + 16


def _jhat_pole_cancel(p, n, g, wr, wi):
    """Generic-p evaluator: (re, im, 2g) as jhat returns it.

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
    pair of ints over 2^g, and wr, wi are the roots of unity from
    _roots_of_unity at g bits.  No table needs a division by a
    Pochhammer: prod_{j<n} (1 - q^j) = n gives
    1/(q)_m = conj((q)_{n-1-m}) / n, and
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
    one = 1 << g
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
    return tr, ti, 2 * g


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
# growth rates


def kashaev_scan(p, n_range, prec=128):
    """Table of (n, v_n), ascending in n, v_n = 2*pi*log|jhat(n)|/n.

    Each v_n is an exact dyadic (man, scale), the number man / 2^scale.
    p must pick a hyperbolic twist knot (not 0, not 1).  A vanishing
    |jhat(n)| is recorded as None rather than raised.  For p = -1 (the
    figure-eight knot) the entries decrease to Vol(4_1) from above,
    following Vol + 2*pi*((3/2)*log n - (1/4)*log 3)/n + O(1/n^2)
    (Andersen-Hansen).  |jhat(n)| is read at 53 bits (_mag53), and v_n
    is good to about prec + 32 bits relative for that magnitude
    (_log_rate).
    """
    if p in (0, 1):
        raise ValueError("p = %d is not hyperbolic" % p)
    ns = sorted(set(int(n) for n in n_range))
    if ns and ns[0] < 3:
        raise ValueError("scan needs n >= 3")
    bits = prec + GUARD_BITS
    table = []
    for n in ns:
        mag = _mag53(*jhat(p, n, prec), bits)
        table.append((n, None if mag is None else _log_rate(*mag, n, bits)))
    return table


def _nearest(m, e, bits):
    """m 2^e rounded to nearest at bits bits, ties to even, as (m', e').

    m > 0.  A carry can leave m' = 2^bits.
    """
    drop = m.bit_length() - bits
    if drop <= 0:
        return m, e
    r = m >> drop
    rest, half = m - (r << drop), 1 << (drop - 1)
    if rest > half or (rest == half and r & 1):
        r += 1
    return r, e + drop


def _mag53(re, im, scale, bits):
    """|(re + i im) / 2^scale| as (m, e), the number m 2^e, or None at 0.

    This is the magnitude the printed growth rates have always read:
    mpmath's abs of the sum as an mpc at its default 53 bits, not at
    the working precision.  The parts are rounded to nearest at bits,
    the sum of their squares is truncated to 57 bits, and the square
    root is rounded to nearest at 53 bits; a part that is 0 skips the
    57-bit step.  The printed values thus keep about 16 correct digits
    of 20.  perfbench/reference.json records those digits, so this
    step stays until the reference is re-recorded (ROADMAP item 1).
    """
    parts = [_nearest(abs(x), -scale, bits) for x in (re, im) if x]
    if not parts:
        return None
    if len(parts) == 1:
        return _nearest(*parts[0], 53)
    (a, ea), (b, eb) = parts
    lo = min(ea, eb)
    s = (a * a << 2 * (ea - lo)) + (b * b << 2 * (eb - lo))
    drop = max(s.bit_length() - 57, 0)
    s, e = s >> drop, 2 * lo + drop
    if e % 2:
        s, e = s << 1, e - 1
    # isqrt to at least 56 bits; a nonzero remainder becomes a sticky
    # bit below the rounding position
    shift = max(0, 112 - s.bit_length()) // 2 + 1
    s <<= 2 * shift
    r = math.isqrt(s)
    return _nearest(2 * r + (r * r != s), e // 2 - shift - 1, 53)


def _log_rate(m, e, n, bits):
    """2 pi log(m 2^e) / n over 2^w, as (man, w), w = bits + 80; m > 0.

    m 2^e = x 2^c with x in (1/sqrt 2, sqrt 2], and
    log x = 2 atanh(z), z = (x - 1)/(x + 1), |z| < 0.18, so the log is
    2 atanh(z) + c log 2 (_odd_series, _ln2_fixed), within 2 w + 9 +
    |c| units of 2^-w.  Times 2 pi / n (_pi_fixed), the result is within
    (13 w + 8 |c| + 60) / n + 1 units.  A 53-bit m 2^e other than 1 has
    |log| >= 2^-54, so the result is then within 2^-bits relative while
    13 w + 8 |c| + n + 60 < 2^28; at m 2^e = 1 it is exactly 0.
    """
    w = bits + 80
    d = 1 << (m.bit_length() - 1)       # m / d in [1, 2)
    if m * m > 2 * d * d:
        d <<= 1
    z = (abs(m - d) << w) // (m + d)
    log = 2 * _odd_series(z, w, False)
    if m < d:
        log = -log
    log += (e + d.bit_length() - 1) * _ln2_fixed(w)
    return (2 * _pi_fixed(w) * log >> w) // n, w


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
    import mpmath as mp
    with mp.workprec(prec + GUARD_BITS):
        return _dilog(mp.mpc(z))


def _dilog(z):
    import mpmath as mp
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
    import mpmath as mp
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
    import mpmath as mp
    with mp.workprec(prec + GUARD_BITS):
        z = mp.mpc(z)
        if z == 0 or z == 1:
            raise ValueError("Bloch-Wigner D is defined away from 0 and 1")
        if mp.im(z) == 0:
            return mp.mpf(0)
        return mp.im(dilog(z, prec)) + mp.log(abs(z)) * mp.arg(1 - z)


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
    from .apoly import quad_a, saddle_constraint
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
    from .apoly import clear_at_root, linear_root
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
    import mpmath as mp
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
    import mpmath as mp
    from mpmath.libmp import NoConvergence
    from .apoly import linear_root
    from .qseries import to_dense
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
            vol = (3 * bloch_wigner(x0, prec) - bloch_wigner(x0 * y0, prec)
                   - bloch_wigner(x0 / y0, prec))
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
