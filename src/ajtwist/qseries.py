"""q-Pochhammer products and a factored value type.

The polynomial builders return LaurentPolys.  QFactors is the workhorse
for summand evaluation at integer lattice points: it keeps a value of the
shape

    sign * q^e * prod (1 - q^j) / prod (1 - q^j)      (j >= 1)

as multisets of indices instead of expanding anything.  This module
owns the clearing of a sum of such values over its union denominator
(clear_denominators) for both consumers: is_zero_sum checks the cleared
sum against zero with an exact one-point integer certificate, which is
how the recurrence checks stay both exact and fast, and
jones.assemble_sum expands it into a Laurent polynomial.  Every
expanded product of (1 - q^j) factors, jones.sigma_basis included, goes
through times_binoms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
import operator

from .laurent import LaurentPoly, RatFunc


class NegativeIndex(ValueError):
    """A Pochhammer with negative index appeared in a numerator."""


def qpoch(n):
    """(q)_n = (1-q)(1-q^2)...(1-q^n)."""
    if n < 0:
        raise NegativeIndex("(q)_n with n = %d" % n)
    out = LaurentPoly.const(1)
    one = LaurentPoly.const(1)
    for i in range(1, n + 1):
        out = out * (one - LaurentPoly.monomial(1, q=i))
    return out


def inv_qpoch(n):
    """(q^-1)_n = (1-q^-1)(1-q^-2)...(1-q^-n)."""
    if n < 0:
        raise NegativeIndex("(q^-1)_n with n = %d" % n)
    out = LaurentPoly.const(1)
    one = LaurentPoly.const(1)
    for i in range(1, n + 1):
        out = out * (one - LaurentPoly.monomial(1, q=-i))
    return out


def qpoch_base(a, k):
    """(a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)) for a LaurentPoly a."""
    if k < 0:
        raise NegativeIndex("(a;q)_k with k = %d" % k)
    out = LaurentPoly.const(1)
    one = LaurentPoly.const(1)
    q = LaurentPoly.var("q")
    aq = a
    for _ in range(k):
        out = out * (one - aq)
        aq = aq * q
    return out


@dataclass
class QFactors:
    """sign * q^qpow * prod num / prod den with (1-q^j) factors, j >= 1."""

    zero: bool = False
    sign: int = 1
    qpow: int = 0
    num: Counter = field(default_factory=Counter)
    den: Counter = field(default_factory=Counter)

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def make_zero(cls):
        return cls(zero=True, sign=0)

    def copy(self):
        return QFactors(self.zero, self.sign, self.qpow,
                        Counter(self.num), Counter(self.den))

    def times_qpow(self, e):
        self.qpow += e
        return self

    def times_sign(self, s):
        if s == -1:
            self.sign = -self.sign
        elif s != 1:
            raise ValueError("sign must be +1 or -1")
        return self

    def times_binom(self, j):
        """Multiply by (1 - q^j).  j may be any integer.

        (1 - q^0) = 0 sets the zero flag; (1 - q^-j) is normalized to
        -q^-j (1 - q^j).
        """
        if j == 0:
            self.zero = True
            return self
        if j < 0:
            self.sign = -self.sign
            self.qpow += j
            j = -j
        self.num[j] += 1
        return self

    def div_binom(self, j):
        if j == 0:
            raise ZeroDivisionError("division by (1 - q^0)")
        if j < 0:
            self.sign = -self.sign
            self.qpow -= j
            j = -j
        self.den[j] += 1
        return self

    def times_poch(self, n, inverted_base=False):
        """Multiply by (q)_n, or (q^-1)_n when inverted_base.

        A negative n raises NegativeIndex; the callers treat that as a
        point where the closed formula is not evaluable.
        """
        if n < 0:
            raise NegativeIndex("numerator Pochhammer with index %d" % n)
        if inverted_base:
            # (q^-1)_n = (-1)^n q^(-n(n+1)/2) (q)_n
            if n % 2:
                self.sign = -self.sign
            self.qpow -= n * (n + 1) // 2
        for j in range(1, n + 1):
            self.num[j] += 1
        return self

    def div_poch(self, n, inverted_base=False):
        """Divide by (q)_n, or (q^-1)_n when inverted_base.

        Division by a Pochhammer with negative index is the conventional
        zero (the reciprocal vanishes), so the whole value becomes 0.
        """
        if n < 0:
            self.zero = True
            return self
        if inverted_base:
            if n % 2:
                self.sign = -self.sign
            self.qpow += n * (n + 1) // 2
        for j in range(1, n + 1):
            self.den[j] += 1
        return self

    def cancel(self):
        common = self.num & self.den
        if common:
            self.num -= common
            self.den -= common
        return self

    def to_ratfunc(self):
        if self.zero:
            return RatFunc.zero()
        top = times_binoms(LaurentPoly.monomial(self.sign, q=self.qpow),
                           self.num)
        return RatFunc(top, times_binoms(LaurentPoly.const(1), self.den))

    def to_poly(self):
        return self.to_ratfunc().as_poly()

    def eval_fraction(self, t):
        """Exact value at q = t for an integer or Fraction t."""
        if self.zero:
            return Fraction(0)
        t = Fraction(t)
        val = Fraction(self.sign) * t ** self.qpow
        for j, mult in sorted(self.num.items()):
            val *= (1 - t ** j) ** mult
        for j, mult in sorted(self.den.items()):
            val /= (1 - t ** j) ** mult
        return val

    def equals(self, other):
        """Exact value equality.

        The fast path compares canceled factor multisets; when the
        multisets disagree the values can still match (indices are not
        coprime as polynomials), so fall back to expanding.
        """
        a = self.copy().cancel()
        b = other.copy().cancel()
        if a.zero or b.zero:
            return a.zero and b.zero
        if (a.sign == b.sign and a.qpow == b.qpow
                and a.num == b.num and a.den == b.den):
            return True
        return a.to_ratfunc() == b.to_ratfunc()

    def __mul__(self, other):
        if not isinstance(other, QFactors):
            return NotImplemented
        if self.zero or other.zero:
            return QFactors.make_zero()
        return QFactors(False, self.sign * other.sign,
                        self.qpow + other.qpow,
                        self.num + other.num, self.den + other.den)


def times_binoms(poly, js):
    """poly * prod (1 - q^j) over the multiset js, expanded."""
    one = LaurentPoly.const(1)
    for j in sorted(js.elements()):
        poly = poly * (one - LaurentPoly.monomial(1, q=j))
    return poly


def clear_denominators(qfs):
    """Clear a sum of nonzero QFactors over its union denominator.

    Returns (den_all, common, rests).  den_all is the union (largest
    multiplicity) of the den multisets.  Each den_i is contained in
    den_all, so prod_{den_all} (1 - q^j) * qf_i is sign_i q^qpow_i times
    the product over the multiset num_i + (den_all - den_i).  common is
    the intersection of those multisets over all i, and rests[i] is
    part i's multiset with common removed.  So for any coefficients c_i,

        D * sum_i c_i qf_i = C * sum_i c_i sign_i q^qpow_i prod_{rests[i]}

    with D and C the (1 - q^j) products over den_all and common.
    """
    den_all = Counter()
    for qf in qfs:
        den_all |= qf.den
    rests = [qf.num + (den_all - qf.den) for qf in qfs]
    # start from a copy: with one part, reduce would hand back rests[0]
    # itself and the subtraction below would empty common as well
    common = reduce(operator.and_, rests, Counter(rests[0]))
    for rest in rests:
        rest -= common
    return den_all, common, rests


def certificate_base(l1_bound):
    """Smallest power of two t with t >= 2*l1_bound + 2.

    For an integer Laurent polynomial R with coefficient 1-norm <= B,
    the balanced base-t digit expansion of t^shift * R(t) is unique once
    t >= 2B + 2, so R(t) = 0 forces R = 0.
    """
    t = 4
    need = 2 * l1_bound + 2
    while t < need:
        t <<= 1
    return t


def is_zero_sum(parts):
    """Exact zero test for S = sum_i poly_i(q) * qf_i.

    parts is a list of (LaurentPoly in q alone, QFactors) pairs.  Returns
    (is_zero, base), where base = 2^b is the point the certificate
    evaluated at.  Parts with a zero poly or a zero QFactors are dropped
    first.

    Clearing and dividing out.  clear_denominators gives the union
    denominator product D, the common factor C and the multisets rest_i
    with D * S = C * R, where

        R = sum_i sign_i q^qpow_i poly_i prod_{j in rest_i} (1 - q^j).

    D and C are nonzero in the integral domain Z[q, 1/q], so S = 0
    exactly when R = 0.

    The bound.  The coefficient 1-norm is submultiplicative and
    (1 - q^j) has 1-norm 2, so every coefficient of R lies in [-B, B]
    with B = sum_i l1(poly_i) * 2^|rest_i|.

    The evaluation.  t = certificate_base(B) >= 2B + 2.  With lo the
    smallest exponent of any q^qpow_i poly_i, t^-lo R(t) is an integer
    whose balanced base-t digits are exactly the coefficients of R, since
    each lies strictly inside (-t/2, t/2).  That expansion is unique, so
    t^-lo R(t) = 0 forces every coefficient of R to vanish.  The shift by
    lo leaves only nonnegative powers of t = 2^b, so everything is plain
    int arithmetic: c * t^(a - lo) is c << b*(a - lo), and (1 - t^j)^m is
    (1 - (1 << b*j)) ** m.
    """
    live = [(poly, qf) for poly, qf in parts if poly and not qf.zero]
    if not live:
        return True, certificate_base(0)
    _, _, rests = clear_denominators([qf for _, qf in live])
    terms = []
    bound = 0
    for (poly, qf), rest in zip(live, rests):
        coeffs = {a + qf.qpow: qf.sign * c
                  for a, c in poly.univariate_coefficients("q").items()}
        bound += sum(map(abs, coeffs.values())) << sum(rest.values())
        terms.append((coeffs, rest))
    t = certificate_base(bound)
    b = t.bit_length() - 1
    lo = min(min(coeffs) for coeffs, _ in terms)
    total = 0
    for coeffs, rest in terms:
        val = sum(c << b * (a - lo) for a, c in coeffs.items())
        for j, m in rest.items():
            val *= (1 - (1 << b * j)) ** m
        total += val
    return total == 0, t
