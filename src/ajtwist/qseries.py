"""A factored value type for q-Pochhammer products, and a dense q kernel.

QFactors is the workhorse for summand evaluation at integer lattice
points: it keeps a value of the shape

    sign * q^e * prod (1 - q^j) / prod (1 - q^j)      (j >= 1)

as multisets of indices instead of expanding anything.

Every value in q alone that gets expanded, the colored Jones sums and
their cyclotomic coefficients included, is held densely:
(lo, [c_lo, c_lo+1, ...]) is sum_i c_i q^(lo + i), trimmed so that both
end coefficients are nonzero, with (0, []) for zero.  to_dense is the
one converter from a LaurentPoly in a single variable (q unless named)
to the dense form, to_dense_qn reads one in q and N at N = q^n, and
from_dense converts back to q; dense_times_binoms and
dense_divide_binoms multiply and exactly divide by a product of
(1 - q^j).

Sums are expanded in one step, by Kronecker substitution: each value is
packed as the integer it takes at a power of two wide enough for the
sum's coefficient bound, the sum is formed in int arithmetic, and its
balanced digits are the coefficients.  cleared_sum does this for a sum
of values times QFactors, cleared over its union denominator
(clear_denominators), and it is behind every q-only sum:
jones.assemble_sum divides its result back out, for both colored Jones
routes, and is_zero_sum, its exact zero test on the same dense parts,
is how the recurrence checks stay both exact and fast.
"""

from collections import Counter
from functools import reduce
from itertools import accumulate
import operator

from .laurent import NV, InexactDivision, LaurentPoly


class NegativeIndex(ValueError):
    """A Pochhammer with negative index appeared in a numerator."""


class QFactors:
    """sign * q^qpow * prod num / prod den with (1-q^j) factors, j >= 1.

    num and den are Counters of the indices j.
    """

    __slots__ = ("zero", "sign", "qpow", "num", "den")

    def __init__(self, zero=False, sign=1, qpow=0, num=None, den=None):
        self.zero = zero
        self.sign = sign
        self.qpow = qpow
        self.num = Counter() if num is None else num
        self.den = Counter() if den is None else den

    def __repr__(self):
        return ("QFactors(zero=%r, sign=%r, qpow=%r, num=%r, den=%r)"
                % (self.zero, self.sign, self.qpow, self.num, self.den))

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def make_zero(cls):
        return cls(zero=True, sign=0)

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

    def times_poch(self, n, inverted_base=False):
        """Multiply by (q)_n, or (q^-1)_n when inverted_base.

        A negative n raises NegativeIndex; the callers treat that as a
        point where the closed formula is not evaluable.
        """
        if n < 0:
            raise NegativeIndex("numerator Pochhammer with index %d" % n)
        return self._poch(self.num, 1, n, inverted_base)

    def div_poch(self, n, inverted_base=False):
        """Divide by (q)_n, or (q^-1)_n when inverted_base.

        Division by a Pochhammer with negative index is the conventional
        zero (the reciprocal vanishes), so the whole value becomes 0.
        """
        if n < 0:
            self.zero = True
            return self
        return self._poch(self.den, -1, n, inverted_base)

    def _poch(self, side, power, n, inverted_base):
        """(q)_n or (q^-1)_n, n >= 0, to the power +-1 on side."""
        if inverted_base:
            # (q^-1)_n = (-1)^n q^(-n(n+1)/2) (q)_n
            if n % 2:
                self.sign = -self.sign
            self.qpow -= power * (n * (n + 1) // 2)
        side.update(range(1, n + 1))
        return self


# the dense kernel

DENSE_ZERO = (0, [])

# q and N are the first two of laurent.VARS, so a q-only exponent tuple
# is (e,) + _NOT_Q, and one in q and N is (a, b) + _NOT_QN
_NOT_Q = (0,) * (NV - 1)
_NOT_QN = _NOT_Q[1:]


def _trimmed(lo, coeffs):
    start, end = 0, len(coeffs)
    while start < end and not coeffs[start]:
        start += 1
    if start == end:
        return DENSE_ZERO
    while not coeffs[end - 1]:
        end -= 1
    return lo + start, coeffs[start:end]


def _dense(coeffs):
    """The dense list of {exponent: coefficient}, untrimmed."""
    if not coeffs:
        return DENSE_ZERO
    lo = min(coeffs)
    out = [0] * (max(coeffs) - lo + 1)
    for a, c in coeffs.items():
        out[a - lo] = c
    return lo, out


def to_dense(poly, var="q"):
    """The dense form of a LaurentPoly in var alone."""
    return _dense(poly.univariate_coefficients(var))


def to_dense_qn(poly, n):
    """The dense form in q of a LaurentPoly in q and N, at N = q^n.

    Each term c q^a N^b adds c at q^(a + n b); terms that meet there may
    cancel, so the result is trimmed.
    """
    folded = {}
    for e, c in poly.terms.items():
        if e[2:] != _NOT_QN:
            raise ValueError("not a polynomial in q and N alone")
        a = e[0] + n * e[1]
        folded[a] = folded.get(a, 0) + c
    return _trimmed(*_dense(folded))


def from_dense(value):
    """The LaurentPoly in q of a dense value."""
    lo, coeffs = value
    return LaurentPoly({(lo + i,) + _NOT_Q: c
                        for i, c in enumerate(coeffs) if c})


def dense_times_binoms(value, js):
    """value * prod (1 - q^j) over the multiset js, all j >= 1.

    One pass per factor: out[i + j] -= c[i].  The end coefficients of
    the product are c_lo and -c_hi, so the result stays trimmed.
    """
    lo, coeffs = value
    if not coeffs:
        return DENSE_ZERO
    for j in js.elements():
        pad = [0] * j
        coeffs = [x - y for x, y in zip(coeffs + pad, pad + coeffs)]
    return lo, coeffs


def dense_divide_binoms(value, js):
    """value / prod (1 - q^j) over the multiset js, all j >= 1.

    Raises InexactDivision unless the quotient is a Laurent polynomial.
    Per factor, a = b (1 - q^j) gives b_i = a_i + b_(i-j): each residue
    class i mod j of b is a running sum of a's.  The quotient is j
    shorter than a, and the top j coefficients of a must then cancel,
    a_i + b_(i-j) = 0, with b_(i-j) = 0 below index 0.
    """
    lo, coeffs = value
    for j in js.elements():
        if not coeffs:
            return DENSE_ZERO
        n = len(coeffs) - j
        if n <= 0:
            # a nonzero multiple of (1 - q^j) has at least j + 1 terms
            raise InexactDivision("not divisible by 1 - q^%d" % j)
        quot = coeffs[:n]
        for r in range(min(j, n)):
            quot[r::j] = accumulate(quot[r::j])
        # for j > n, the b_(i-j) below index 0 are zero; a slice
        # quot[n - j:] would wrap around to the end of the list
        below = quot[n - j:] if n >= j else [0] * (j - n) + quot
        if any(x + y for x, y in zip(coeffs[n:], below)):
            raise InexactDivision("not divisible by 1 - q^%d" % j)
        coeffs = quot
    return lo, coeffs


# The Kronecker codec: a dense value is packed as the integer it takes at
# q = 2^(8 width), its coefficients the balanced digits, each inside
# (-h, h) with h = 2^(8 width - 1).  Adding h to every digit makes it a
# nonnegative byte string; _offset is what that adds to the integer.


def _width(bound):
    """The smallest byte width w with 2^(8w - 1) > bound."""
    return (bound.bit_length() + 8) // 8


def _offset(width, size):
    half = (1 << (8 * width - 1)).to_bytes(width, "little")
    return int.from_bytes(half * size, "little")


def _pack(coeffs, width):
    """sum_i c_i 2^(8 width i), each |c_i| < 2^(8 width - 1)."""
    half = 1 << (8 * width - 1)
    raw = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _offset(width, len(coeffs))


def _unpack(n, width, lo):
    """The dense value at offset lo whose coefficients are the balanced
    base-2^(8 width) digits of n.

    With d_k the top nonzero digit, |n| lies between 2^(8 width k - 1)
    and 2^(8 width (k + 1) - 1), so the bit length of |n| gives k.
    """
    if not n:
        return DENSE_ZERO
    size = abs(n).bit_length() // (8 * width) + 1
    half = 1 << (8 * width - 1)
    raw = (n + _offset(width, size)).to_bytes(width * size, "little")
    return _trimmed(lo, [int.from_bytes(raw[i:i + width], "little") - half
                         for i in range(0, width * size, width)])


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


def cleared_sum(parts):
    """The cleared residual R of S = sum_i v_i * qf_i, expanded.

    parts is a list of (dense value v_i, QFactors qf_i) pairs; those
    with an empty value or a zero QFactors are dropped first.  Returns
    (R, base, den_all, common): R dense, base the power of two it was
    evaluated at, and den_all and common as clear_denominators gives
    them (empty when no part is left).

    Clearing and dividing out.  clear_denominators gives the union
    denominator product D, the common factor C and the multisets rest_i
    with D * S = C * R, where

        R = sum_i sign_i q^qpow_i v_i prod_{j in rest_i} (1 - q^j).

    D and C are nonzero in the integral domain Z[q, 1/q], so S = 0
    exactly when R = 0.

    The bound.  The coefficient 1-norm is submultiplicative and
    (1 - q^j) has 1-norm 2, so every coefficient of R lies in [-B, B]
    with B = sum_i l1(v_i) * 2^|rest_i|.

    The evaluation.  base = 2^(8 w), w = _width(B), so base/2 > B and
    base >= 2B + 2.  With lo the smallest exponent of any q^qpow_i v_i,
    base^-lo R(base) is an integer whose balanced base digits are
    exactly the coefficients of R, since each lies strictly inside
    (-base/2, base/2).  That expansion is unique, so the integer is 0
    exactly when R = 0, and otherwise _unpack reads R off its bytes.
    The shift by lo leaves only nonnegative powers of base, so
    everything is plain int arithmetic: v_i packs with _pack, q^a is a
    shift by 8w*a bits, and a factor (1 - q^j) is val -= val << 8w*j.
    """
    live = [(v, qf) for v, qf in parts if v[1] and not qf.zero]
    if not live:
        return DENSE_ZERO, 1 << 8 * _width(0), Counter(), Counter()
    den_all, common, rests = clear_denominators([qf for _, qf in live])
    width = _width(sum(sum(map(abs, v[1])) << sum(rest.values())
                       for (v, _), rest in zip(live, rests)))
    bits = 8 * width
    lo = min(v[0] + qf.qpow for v, qf in live)
    total = 0
    for (v, qf), rest in zip(live, rests):
        val = (qf.sign * _pack(v[1], width)) << bits * (v[0] + qf.qpow - lo)
        for j in rest.elements():
            val -= val << bits * j
        total += val
    return _unpack(total, width, lo), 1 << bits, den_all, common


def is_zero_sum(parts):
    """Exact zero test for S = sum_i v_i * qf_i.

    parts is a list of (dense value v_i, QFactors qf_i) pairs, as for
    cleared_sum.  Returns (is_zero, base), where base, a power of two at
    least 2B + 2, is the point the certificate evaluated at.
    """
    residual, base, _, _ = cleared_sum(parts)
    return not residual[1], base
