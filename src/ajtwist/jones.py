"""Colored Jones values for twist knots, in two presentations.

The cyclotomic route writes J(n) as a sum of coefficient polynomials
against the product basis sigma_k(n); the double-sum route evaluates the
rearranged two-index sum directly.  Both are exact LaurentPolys in q.
Masbaum's quantum integers {i} = s^i - s^-i, with q = s^2, are never
computed: the cyclotomic sum reads sigma_k(n) off the shared SIGMA block
below, in factored form, and sigma_basis, which expands that block in q,
shows in its docstring that this is their product.

Sign conventions.  The cyclotomic coefficients come in two flavors,
selected by the convention argument:

  printed   the coefficient sum as displayed, with C(p, 0) = -1;
  habiro    (-1)^(k+1) times printed, which makes the cyclotomic route
            agree with the double sum termwise in k (unit +1) and
            reproduces the classical normalization J(unknot) = 1 at n = 2
            for the trefoil and figure eight values.

The two flavors do NOT differ by a single global unit, since the sign
alternates inside the k-sum.  The named double sums (5_2, 6_1) have
their own presentations, a constant unit away from their twist-knot
ones: their value at color 1, which named_form_unit returns.

One description per summand.  Each double-sum summand is the block
sigma_k(n) (SIGMA) times a level part c(k, l), stored once per knot as
data in LEVEL_PARTS.  summand_factors, masbaum_coeff and shift_ratio all
read that data, so every knot, 6_1 included, has closed-form shift
quotients in (q, N, K, L2) = (q, q^n, q^k, q^l).  A quotient
F(shifted) / F = num / den is the annihilator pair den * F(shifted) =
num * F.  ShiftRatio keeps both sides factored; only apoly expands them,
at q = 1, and the A-polynomial construction and volnum's growth
equations are read off those q = 1 quotients.
"""

from collections import namedtuple
import math

from .laurent import LaurentPoly
from .qseries import (QFactors, cleared_sum, dense_divide_binoms,
                      dense_times_binoms, from_dense, to_dense)


# the summand description

NUM, DEN = 1, -1


class ProductForm(namedtuple("ProductForm", "qexp2 pochs parity binoms",
                             defaults=((0, 0, 0, 0), ()))):
    """(-1)^parity q^(qexp2/2) prod (q^base)_index^side prod (1 - q^index).

    parity and each index are affine forms (c0, cn, ck, cl), worth
    c0 + cn*n + ck*k + cl*l at (n, k, l); as exponents on (q, N, K, L2)
    the tuple is q^index, the form ShiftRatio binomials take.  qexp2 is
    the doubled q-exponent (so k(k+3)/2 stays integral): (coefficient,
    monomial) pairs over n, k, l and the twist parameter p.  pochs are
    (side, base, index): (q^base)_index, base 1 or -1, on side NUM or
    DEN.  binoms are the indices of numerator factors (1 - q^index).
    """

    __slots__ = ()

    def __mul__(self, other):
        return ProductForm(
            self.qexp2 + other.qexp2, self.pochs + other.pochs,
            tuple(a + b for a, b in zip(self.parity, other.parity)),
            self.binoms + other.binoms)


# sigma_k(n) = q^(nk) (q^-1)_(n+k) (q^-1)_(n-1) / ((q^-1)_n (q^-1)_(n-k-1)),
# the block every summand shares and the cyclotomic sum's basis, in both
# taken factored; sigma_basis expands it
SIGMA = ProductForm(
    qexp2=((2, "nk"),),
    pochs=((NUM, -1, (0, 1, 1, 0)), (NUM, -1, (-1, 1, 0, 0)),
           (DEN, -1, (0, 1, 0, 0)), (DEN, -1, (-1, 1, -1, 0))))

# The level part c(k, l) of each summand sigma_k(n) c(k, l), keyed by
# knot, with the twist knot each named knot is (5_2 = K_2, 6_1 = K_-2).
LEVEL_PARTS = {
    # (-1)^(k+l) q^(k(k+3)/2 + p l(l+1) + l(l-1)/2) (1 - q^(2l+1))
    #   * (q)_k / ((q)_(k+l+1) (q)_(k-l))
    "K_p": (None, ProductForm(
        parity=(0, 0, 1, 1),
        qexp2=((1, "kk"), (3, "k"), (2, "pll"), (2, "pl"), (1, "ll"),
               (-1, "l")),
        pochs=((NUM, 1, (0, 0, 1, 0)), (DEN, 1, (1, 0, 1, 1)),
               (DEN, 1, (0, 0, 1, -1))),
        binoms=((1, 0, 0, 2),))),
    # (-1)^(k+1) q^((3k^2+5k)/2 - l(k+1)) (q^-1)_k / ((q^-1)_l (q^-1)_(k-l))
    "5_2": (2, ProductForm(
        parity=(1, 0, 1, 0),
        qexp2=((3, "kk"), (5, "k"), (-2, "kl"), (-2, "l")),
        pochs=((NUM, -1, (0, 0, 1, 0)), (DEN, -1, (0, 0, 0, 1)),
               (DEN, -1, (0, 0, 1, -1))))),
    # q^(-k^2 - k + l(k+1)) (q)_k / ((q)_l (q)_(k-l))
    "6_1": (-2, ProductForm(
        qexp2=((-2, "kk"), (-2, "k"), (2, "kl"), (2, "l")),
        pochs=((NUM, 1, (0, 0, 1, 0)), (DEN, 1, (0, 0, 0, 1)),
               (DEN, 1, (0, 0, 1, -1))))),
}

NAMED_KNOTS = tuple(name for name, (twist, _) in LEVEL_PARTS.items()
                    if twist is not None)

_SUMMAND_FORMS = {key: SIGMA * level
                  for key, (_, level) in LEVEL_PARTS.items()}

_UNIT_POINTS = ((1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))


class KnotId(namedtuple("KnotId", "twist name")):
    """A twist knot K_p, or one of the named knots 5_2 and 6_1."""

    __slots__ = ()

    def __new__(cls, twist=None, name=None):
        if (twist is None) == (name is None):
            raise ValueError("exactly one of twist, name must be given")
        if name is not None and name not in NAMED_KNOTS:
            raise ValueError("unknown knot name %r" % name)
        return super().__new__(cls, twist, name)

    @classmethod
    def twist_knot(cls, p):
        return cls(twist=p)

    @classmethod
    def named(cls, name):
        return cls(name=name)

    @property
    def is_named(self):
        return self.name is not None

    def twist_parameter(self):
        """The twist parameter, with 5_2 = K_2 and 6_1 = K_-2."""
        if self.twist is not None:
            return self.twist
        return LEVEL_PARTS[self.name][0]

    def label(self):
        return self.name if self.name else "K_%d" % self.twist


def _at(index, x):
    c0, cn, ck, cl = index
    one, n, k, l = x
    return c0 * one + cn * n + ck * k + cl * l


def _qexp(form, p, x):
    """The q-exponent of form at x = (1, n, k, l)."""
    vals = {"p": p, "n": x[1], "k": x[2], "l": x[3]}
    return sum(c * math.prod(vals[v] for v in mono)
               for c, mono in form.qexp2) // 2


def _factors(form, p, x):
    """QFactors of form at x = (1, n, k, l)."""
    f = QFactors.one()
    f.times_sign(-1 if _at(form.parity, x) % 2 else 1)
    f.times_qpow(_qexp(form, p, x))
    for side, base, index in form.pochs:
        poch = f.times_poch if side == NUM else f.div_poch
        poch(_at(index, x), inverted_base=base < 0)
    for index in form.binoms:
        f.times_binom(_at(index, x))
    return f


def summand_factors(knot, n, k, l):
    """Double-sum summand sigma_k(n) c(k, l) of knot at a point, as QFactors.

    Raises NegativeIndex when a numerator Pochhammer index is negative
    (the closed formula is not evaluable there).  A negative denominator
    index gives the conventional zero.
    """
    return _factors(_SUMMAND_FORMS[knot.name or "K_p"],
                    knot.twist_parameter(), (1, n, k, l))


# assembly of sums of factored values into a polynomial


def assemble_sum(parts):
    """Exact LaurentPoly value of S = sum_i v_i * qf_i.

    parts is a list of (dense value v_i, QFactors qf_i) pairs, as for
    qseries.cleared_sum.  The sum is expanded cleared over its union
    denominator (D * S = C * R, see cleared_sum), the factors C and D
    share are canceled, and the rest is divided out, raising
    InexactDivision if the sum is not a Laurent polynomial.  The
    quotient C' * R / D' is unique, so the cancellation does not change
    the result.  All of it runs on dense values; a sum that cancels to
    zero is the empty value, which divides to zero.
    """
    residual, _, den_all, common = cleared_sum(parts)
    shared = common & den_all
    return from_dense(dense_divide_binoms(
        dense_times_binoms(residual, common - shared), den_all - shared))


# cyclotomic route


def masbaum_coeff(p, k, convention="printed"):
    """Cyclotomic coefficient of K_p at level k, an exact LaurentPoly in q.

    The habiro flavor is the sum of the level parts c(k, l) over l; the
    printed one negates it at even k.
    """
    if k < 0:
        raise ValueError("level k must be nonnegative")
    if convention not in ("printed", "habiro"):
        raise ValueError("convention must be printed or habiro")
    level = LEVEL_PARTS["K_p"][1]
    c = assemble_sum([((0, [1]), _factors(level, p, (1, 0, k, l)))
                      for l in range(k + 1)])
    if convention == "printed" and k % 2 == 0:
        c = -c
    return c


def sigma_basis(k, n):
    """Product basis element sigma_k(n), the SIGMA block at level k.

    Expanded, it is q^(-kn) prod (1 - q^i) over i in [n-k, n+k] but n:
    Masbaum's product of quantum integers {i} = s^i - s^-i over the
    same range, with q = s^2, since each {i} is -s^-i (1 - q^i) and the
    2k prefactors multiply to q^(-kn).  Vanishes for k >= n (the range
    then contains i = 0).  No command expands it: colored_jones passes
    the block to assemble_sum factored."""
    if k < 0:
        raise ValueError("level k must be nonnegative")
    if k >= n:
        return LaurentPoly.zero()
    return assemble_sum([((0, [1]), _factors(SIGMA, 0, (1, n, k, 0)))])


def colored_jones(p, n, convention="printed"):
    """Colored Jones of K_p at color n via the cyclotomic sum.

    One assemble_sum over the parts (c_k, sigma_k(n)), each c_k dense
    and each sigma_k(n) the SIGMA block as QFactors.
    """
    if isinstance(p, KnotId):
        if p.is_named:
            raise TypeError("named knots have no cyclotomic route here; "
                            "use colored_jones_multisum")
        p = p.twist
    if n < 1:
        raise ValueError("color n must be >= 1")
    return assemble_sum([(to_dense(masbaum_coeff(p, k, convention)),
                          _factors(SIGMA, 0, (1, n, k, 0)))
                         for k in range(n)])


def colored_jones_multisum(knot, n):
    """Colored Jones at color n via the double sum."""
    if not isinstance(knot, KnotId):
        knot = KnotId.twist_knot(knot)
    if n < 1:
        raise ValueError("color n must be >= 1")
    return assemble_sum([((0, [1]), summand_factors(knot, n, k, l))
                         for k in range(n) for l in range(k + 1)])


# shift structure of the double-sum summand


class ShiftRatio(namedtuple("ShiftRatio", "sign mono num den")):
    """sign * monomial * prod (1 - q^a N^b K^c L2^d) / prod (...).

    Binomials are 4-tuples (a, b, c, d) of exponents on (q, N, K, L2).
    The monomial is a tuple of (variable, exponent) pairs.
    """

    __slots__ = ()


def shift_ratio(knot, shift):
    """ShiftRatio F(n + dn, k + dk, l + dl) / F(n, k, l) of knot's summand.

    Read off the summand description: a Pochhammer whose index moves by
    d contributes a run of |d| binomials, the parity change gives the
    sign, and the q-exponent change, affine in (n, k, l) because the
    exponent is quadratic, gives the monomial.
    """
    form = _SUMMAND_FORMS[knot.name or "K_p"]
    p = knot.twist_parameter()
    d = (0,) + tuple(shift)
    # the exponent change at the origin and at the three unit points
    steps = [_qexp(form, p, tuple(a + b for a, b in zip(x, d)))
             - _qexp(form, p, x) for x in _UNIT_POINTS]
    mono = [steps[0]] + [e - steps[0] for e in steps[1:]]
    num, den = [], []
    for side, base, index in form.pochs:
        m = _at(index, d)
        # (x)_(i+m) / (x)_i gains the factors (1 - x^(i+j)) for
        # 0 < j <= m, or loses those with m < j <= 0
        c0, cn, ck, cl = index
        run = [(base * (c0 + j), base * cn, base * ck, base * cl)
               for j in (range(1, m + 1) if m > 0 else range(m + 1, 1))]
        (num if (m > 0) == (side == NUM) else den).extend(run)
    for index in form.binoms:
        m = _at(index, d)
        if m:
            num.append((index[0] + m,) + index[1:])
            den.append(index)
    return ShiftRatio(
        sign=-1 if _at(form.parity, d) % 2 else 1,
        mono=tuple((v, e) for v, e in zip(("q", "N", "K", "L2"), mono) if e),
        num=tuple(num), den=tuple(den))


# units between presentations


def named_form_unit(name):
    """The named double sum at color 1, which must be a unit monomial.

    Dividing the named sum by it gives value 1 at color 1, the
    normalization of the twist-parameter sums; any other value at color
    1 raises ArithmeticError.
    """
    unit = colored_jones_multisum(KnotId.named(name), 1)
    if len(unit) != 1 or abs(unit.leading()[1]) != 1:
        raise ArithmeticError("%s sum at color 1 is not a unit: %s"
                              % (name, unit.text()))
    return unit
