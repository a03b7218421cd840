"""Reference implementations that the tests check the library against.

Nothing here runs under the command line.  Each oracle takes the slow,
obvious route and shares no code with the kernel it checks: rational
functions in a canonical form and substitution through them, Pochhammer
products multiplied out one binomial at a time, QFactors values expanded
term by term or evaluated at a rational point, shift quotients
expanded in (q, N, x, y) with x = q^k and y = q^l, and cyclotomic
polynomials built and divided by integer long division.
serialize_recurrence, the .rec writer, lives here too: only tests write
fixtures.
"""
from collections import Counter
from fractions import Fraction
from functools import lru_cache
import math

import mpmath as mp

from ajtwist.jones import NegativeIndex, summand_factors
from ajtwist.laurent import VAR_INDEX, VARS, InexactDivision, LaurentPoly
from ajtwist.qrec import _coeffs_at, _point_parts

ONE = LaurentPoly.const(1)


def _divide_content(poly, g):
    out = {}
    for e, c in poly.terms.items():
        quo, rem = divmod(c, g)
        if rem:
            raise InexactDivision("content %d does not divide %d" % (g, c))
        out[e] = quo
    return LaurentPoly(out)


class RatFunc:
    """Quotient of LaurentPolys in a canonical form.

    Canonicalization does three cheap things and no polynomial gcd: the
    joint per-variable minimum exponent of numerator and denominator is
    shifted to zero, the joint integer content is divided out, and the
    sign is fixed so the denominator's leading coefficient is positive.
    Equality is decided by cross multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if isinstance(den, int):
            den = LaurentPoly.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = LaurentPoly.zero(), ONE
            return
        shift = [-min(num.var_range(v)[0], den.var_range(v)[0])
                 for v in VARS]
        num = num.shift_exponents(shift)
        den = den.shift_exponents(shift)
        g = math.gcd(*num.terms.values(), *den.terms.values())
        if den.leading()[1] < 0:
            g = -g
        self.num = _divide_content(num, g)
        self.den = _divide_content(den, g)

    @classmethod
    def const(cls, c):
        return cls(c)

    @classmethod
    def zero(cls):
        return cls(0)

    def __bool__(self):
        return bool(self.num)

    def as_poly(self):
        """Exact polynomial form, or raise InexactDivision."""
        return self.num.exact_divide(self.den)

    @staticmethod
    def _lift(other):
        if isinstance(other, (int, LaurentPoly)):
            return RatFunc(other)
        return other if isinstance(other, RatFunc) else None

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        # no gcds are taken, so the form of a sum depends on this path
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        if n < 0:
            if not self.num:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** -n, self.num ** -n)
        return RatFunc(self.num ** n, self.den ** n)

    def substitute(self, **bindings):
        bot = substitute(self.den, **bindings)
        if not bot:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return substitute(self.num, **bindings) / bot

    def substitute_monomials(self, **bindings):
        bot = self.den.substitute_monomials(**bindings)
        if not bot:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RatFunc(self.num.substitute_monomials(**bindings), bot)

    def eval_fraction(self, bindings):
        bot = self.den.eval_fraction(bindings)
        if not bot:
            raise ZeroDivisionError("denominator evaluates to zero")
        return self.num.eval_fraction(bindings) / bot

    def __repr__(self):
        return "RatFunc((%s)/(%s))" % (self.num.text(), self.den.text())


def substitute(poly, **bindings):
    """poly with variables replaced by ints, LaurentPolys or RatFuncs.

    Returns a RatFunc; all bindings apply at once.  A negative exponent
    of a substituted variable inverts its value.  The terms are summed
    in canonical order, which fixes the form of the result.
    """
    vals = {VAR_INDEX[name]: RatFunc._lift(val)
            for name, val in bindings.items()}
    powers = {}
    total = RatFunc.zero()
    for e, c in poly.sorted_terms():
        rest = list(e)
        term = RatFunc(c)
        for i, val in vals.items():
            a, rest[i] = rest[i], 0
            if a:
                if (i, a) not in powers:
                    powers[i, a] = val ** a
                term = term * powers[i, a]
        total = total + term * LaurentPoly({tuple(rest): 1})
    return total


# q-Pochhammer products, multiplied out one binomial at a time

def binom_product(js):
    """prod (1 - q^j) over the multiset js."""
    out = ONE
    for j in js.elements():
        out = out * (ONE - LaurentPoly.monomial(1, q=j))
    return out


def qpoch(n):
    """(q)_n = (1-q)(1-q^2)...(1-q^n)."""
    if n < 0:
        raise NegativeIndex("(q)_n with n = %d" % n)
    return binom_product(Counter(range(1, n + 1)))


def inv_qpoch(n):
    """(q^-1)_n = (1-q^-1)(1-q^-2)...(1-q^-n)."""
    if n < 0:
        raise NegativeIndex("(q^-1)_n with n = %d" % n)
    return binom_product(Counter(range(-n, 0)))


# QFactors values

def times_binom(qf, j):
    """qf * (1 - q^j), a new value: 1 - q^-j = -q^-j (1 - q^j), and
    1 - q^0 makes it zero."""
    if j == 0:
        return qf._replace(sign=0)
    if j < 0:
        return times_binom(qf._replace(sign=-qf.sign, qpow=qf.qpow + j), -j)
    return qf._replace(num=qf.num + Counter({j: 1}))


def div_binom(qf, j):
    """qf / (1 - q^j), a new value: 1 / (1 - q^-j) = -q^j / (1 - q^j)."""
    if j == 0:
        raise ZeroDivisionError("division by (1 - q^0)")
    if j < 0:
        return div_binom(qf._replace(sign=-qf.sign, qpow=qf.qpow - j), -j)
    return qf._replace(den=qf.den + Counter({j: 1}))


def qfactors_ratfunc(qf):
    """qf as a RatFunc, with its (1 - q^j) products expanded."""
    if qf.zero:
        return RatFunc.zero()
    top = LaurentPoly.monomial(qf.sign, q=qf.qpow) * binom_product(qf.num)
    return RatFunc(top, binom_product(qf.den))


def qfactors_at(qf, t):
    """Exact value of qf at q = t for an integer or Fraction t."""
    if qf.zero:
        return Fraction(0)
    t = Fraction(t)
    val = qf.sign * t ** qf.qpow
    for j, mult in qf.num.items():
        val *= (1 - t ** j) ** mult
    for j, mult in qf.den.items():
        val /= (1 - t ** j) ** mult
    return val


def factors_equal(a, b):
    """Exact value equality of two QFactors.

    Equal factor multisets, once each value's shared num and den factors
    cancel, decide it at once.  Unequal ones can still be equal values
    (the (1 - q^j) are not coprime), so those are expanded.
    """
    if a.zero or b.zero:
        return a.zero and b.zero
    if (a.sign == b.sign and a.qpow == b.qpow
            and a.num - a.den == b.num - b.den
            and a.den - a.num == b.den - b.num):
        return True
    return qfactors_ratfunc(a) == qfactors_ratfunc(b)


def residual_at(spec, n, k, l, base=2):
    """Exact residual value of a kfree relation at one interior point.

    A nonzero value at any rational base already proves the relation
    broken there; the zero direction is check_kfree's job.
    """
    parts = _point_parts(spec, _coeffs_at(spec, n), n, k, l, "interior")
    assert parts is not None, "point is not interior"
    t = Fraction(base)
    return sum(sum(c * t ** (lo + i) for i, c in enumerate(coeffs))
               * qfactors_at(f, t) for (lo, coeffs), f in parts)


# the .rec fixture writer: parse_recurrence reads back what it writes

def _coeff_text(poly):
    # the serialized form is always the explicit triple c*q^a*N^b, in
    # descending (q, N) order
    if set(poly.variables()) - {"q", "N"}:
        raise ValueError("coefficient uses a variable other than q and N")
    return " + ".join(
        "%d*q^%d*N^%d" % (c, a, b)
        for a, rest in sorted(poly.coefficients_in("q").items(), reverse=True)
        for b, c in sorted(rest.univariate_coefficients("N").items(),
                           reverse=True))


def serialize_recurrence(spec):
    lines = ["recurrence %s kind=%s knot=%s"
             % (spec.name, spec.kind, spec.knot.label())]
    for t in spec.terms:
        shift = "(%s)" % ",".join(str(x) for x in t.shift)
        lines.append("term shift=%s num= %s den= %s"
                     % (shift, _coeff_text(t.num), _coeff_text(t.den)))
    return "\n".join(lines) + "\n"


# shift quotients

def _qnxy(coeff, exps):
    """coeff times the monomial of exponents (a, b, c, d) on (q, N, x, y)."""
    a, b, c, d = exps
    return LaurentPoly.monomial(coeff, q=a, N=b, x=c, y=d)


def ratio_polys(ratio):
    """(numerator, denominator) of a ShiftRatio, expanded in (q, N, x, y).

    x and y stand for the ratio's K = q^k and L2 = q^l.
    """
    def times_binoms(out, binoms):
        for b in binoms:
            out = out * (ONE - _qnxy(1, b))
        return out

    return (times_binoms(_qnxy(ratio.sign, ratio.mono), ratio.num),
            times_binoms(ONE, ratio.den))


def ratio_ratfunc(ratio):
    return RatFunc(*ratio_polys(ratio))


def ratio_holds(ratio, knot, point, shifted):
    """Whether den * F(shifted) = num * F(point) for knot's summand F.

    ratio's binomials are taken at the exponents of point.  None when
    F(shifted) is not evaluable.
    """
    n, k, l = point
    try:
        lhs = summand_factors(knot, *shifted)
    except NegativeIndex:
        return None
    rhs = summand_factors(knot, n, k, l)
    for aa, bb, cc, dd in ratio.den:
        lhs = times_binom(lhs, aa + bb * n + cc * k + dd * l)
    rhs = rhs._replace(sign=ratio.sign * rhs.sign, qpow=rhs.qpow + sum(
        a * x for a, x in zip(ratio.mono, (1, n, k, l))))
    for aa, bb, cc, dd in ratio.num:
        rhs = times_binom(rhs, aa + bb * n + cc * k + dd * l)
    return factors_equal(lhs, rhs)


# the Jones sum at a root of unity

def as_mp(value):
    """jhat's (re, im, scale) as an mpc, kashaev_scan's (man, scale) as an mpf.

    The number is (re + i im) / 2^scale or man / 2^scale, and the
    conversion keeps every bit of it, whatever the working precision.
    """
    *parts, scale = value
    exact = [mp.ldexp(x, -scale) for x in parts]
    if len(exact) == 1:
        return exact[0]
    with mp.workprec(max(abs(x).bit_length() for x in parts) + 1):
        return mp.mpc(*exact)


def jhat_per_term(p, n):
    """volnum._jhat_pole_cancel with one division per term.

    The same summand and the same simple-pole cancellation, at the
    current working precision, but every term divides (q)_k^3 by its
    own two Pochhammers instead of reading tabulated inverses.  The
    residue certificate is left out: it never changes the value.
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


# dense integer polynomials, coefficients ascending

@lru_cache(maxsize=None)
def cyclotomic(n):
    """Coefficients of the n-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = polydivmod(poly, cyclotomic(d))
            if any(rem):
                raise ArithmeticError("inexact integer polynomial division")
    return tuple(poly)


def polydivmod(num, den):
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
