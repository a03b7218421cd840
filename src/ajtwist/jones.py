"""Colored Jones values for twist knots, in two presentations.

The cyclotomic route writes J(n) as a sum of coefficient polynomials
against the product basis sigma_k(n); the double-sum route evaluates the
rearranged two-index sum directly.  Both are exact LaurentPolys in q:
Masbaum's quantum integers {i} = s^i - s^-i, with q = s^2, enter only
through sigma_basis, which is written in q.

Sign conventions.  The cyclotomic coefficients come in two flavors,
selected by the convention argument:

  printed   the coefficient sum as displayed, with C(p, 0) = -1;
  habiro    (-1)^(k+1) times printed, which makes the cyclotomic route
            agree with the double sum termwise in k (unit +1) and
            reproduces the classical normalization J(unknot) = 1 at n = 2
            for the trefoil and figure eight values.

The two flavors do NOT differ by a single global unit, since the sign
alternates inside the k-sum; sign_convention_report records the facts.

Self-contained summand shift machinery: the three one-step shift
quotients of the double-sum summand are small closed-form rational
functions in (q, N, K, L2) = (q, q^n, q^k, q^l), and the annihilator
pairs returned here are their (denominator, numerator) pairs.  Today
only the tests consume them; no recurrence certification uses them yet.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .laurent import LaurentPoly, RatFunc, unit_ratio
from .qseries import (QFactors, NegativeIndex, clear_denominators,
                      times_binoms)


@dataclass(frozen=True)
class KnotId:
    """A twist knot K_p, or one of the named knots 5_2 and 6_1."""

    twist: int | None = None
    name: str | None = None

    def __post_init__(self):
        if (self.twist is None) == (self.name is None):
            raise ValueError("exactly one of twist, name must be given")
        if self.name is not None and self.name not in ("5_2", "6_1"):
            raise ValueError("unknown knot name %r" % self.name)

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
        return 2 if self.name == "5_2" else -2

    def label(self):
        return self.name if self.name else "K_%d" % self.twist


# summands as factored values


def twist_summand_factors(p, n, k, l):
    """Double-sum summand for K_p at an integer point, as QFactors.

    Raises NegativeIndex when a numerator Pochhammer index is negative
    (the closed formula is not evaluable there).  A negative denominator
    index gives the conventional zero.
    """
    f = QFactors.one()
    if (k + l) % 2 == 0:
        # (-1)^(k+1) * (-1)^l * (-1 from flipping q^(2l+1)-1)
        f.times_sign(1)
    else:
        f.times_sign(-1)
    f.times_qpow(k * (k + 3) // 2 + n * k + l * (l + 1) * p
                 + l * (l - 1) // 2)
    f.times_poch(n + k, inverted_base=True)
    f.times_poch(n - 1, inverted_base=True)
    f.div_poch(n, inverted_base=True)
    f.div_poch(n - k - 1, inverted_base=True)
    f.times_binom(2 * l + 1)
    f.times_poch(k)
    f.div_poch(k + l + 1)
    f.div_poch(k - l)
    return f


def fivetwo_summand_factors(n, k, l):
    """Summand of the 5_2 double sum at an integer point, as QFactors."""
    f = QFactors.one()
    if k % 2 == 0:
        f.times_sign(-1)
    f.times_qpow((3 * k * k + 5 * k) // 2 + n * k - l * (k + 1))
    f.times_poch(n + k, inverted_base=True)
    f.times_poch(n - 1, inverted_base=True)
    f.times_poch(k, inverted_base=True)
    f.div_poch(n, inverted_base=True)
    f.div_poch(n - k - 1, inverted_base=True)
    f.div_poch(l, inverted_base=True)
    f.div_poch(k - l, inverted_base=True)
    return f


def sixone_summand_factors(n, k, l):
    """Summand of the 6_1 double sum at an integer point, as QFactors.

    The inner binomial block uses plain-base Pochhammers, matching the
    displayed form of this sum (unlike the 5_2 one, which is all in the
    inverted base).
    """
    f = QFactors.one()
    f.times_qpow(-k * k - k + n * k + l * (k + 1))
    f.times_poch(n + k, inverted_base=True)
    f.times_poch(n - 1, inverted_base=True)
    f.times_poch(k)
    f.div_poch(n, inverted_base=True)
    f.div_poch(n - k - 1, inverted_base=True)
    f.div_poch(l)
    f.div_poch(k - l)
    return f


def summand_family(knot):
    if knot.is_named:
        if knot.name == "5_2":
            return lambda n, k, l: fivetwo_summand_factors(n, k, l)
        return lambda n, k, l: sixone_summand_factors(n, k, l)
    p = knot.twist
    return lambda n, k, l: twist_summand_factors(p, n, k, l)


def summand_F(knot, n, k, l):
    """Summand value as a RatFunc, clamped to zero outside the support
    box {n >= 1, 0 <= l <= k <= n-1}."""
    if n < 1 or l < 0 or k < l or k > n - 1:
        return RatFunc.zero()
    return summand_family(knot)(n, k, l).to_ratfunc()


# assembly of sums of factored values into a polynomial


def assemble_sum(terms):
    """Exact LaurentPoly value of a sum of QFactors.

    Clears the sum over its union denominator (D * S = C * R, see
    qseries.clear_denominators), cancels the factors C and D share, and
    divides out, raising InexactDivision if the sum is not a Laurent
    polynomial.  The quotient C' * R / D' is unique, so the cancellation
    does not change the result.
    """
    live = [t for t in terms if not t.zero]
    if not live:
        return LaurentPoly.zero()
    den_all, common, rests = clear_denominators(live)
    shared = common & den_all
    total = LaurentPoly.zero()
    for t, rest in zip(live, rests):
        total = total + times_binoms(LaurentPoly.monomial(t.sign, q=t.qpow),
                                     rest)
    return times_binoms(total, common - shared).exact_divide(
        times_binoms(LaurentPoly.const(1), den_all - shared))


# cyclotomic route


def masbaum_coeff(p, k, convention="printed"):
    """Cyclotomic coefficient of K_p at level k, an exact LaurentPoly in q."""
    if k < 0:
        raise ValueError("level k must be nonnegative")
    if convention not in ("printed", "habiro"):
        raise ValueError("convention must be printed or habiro")
    terms = []
    base = k * (k + 3) // 2
    for l in range(k + 1):
        f = QFactors.one()
        # (-1)^l from the sum, -1 from writing q^(2l+1)-1 as -(1-q^(2l+1))
        if l % 2 == 0:
            f.times_sign(-1)
        f.times_qpow(base + l * (l + 1) * p + l * (l - 1) // 2)
        f.times_binom(2 * l + 1)
        f.times_poch(k)
        f.div_poch(k + l + 1)
        f.div_poch(k - l)
        terms.append(f)
    c = assemble_sum(terms)
    if convention == "habiro" and k % 2 == 0:
        c = -c
    return c


def sigma_basis(k, n):
    """Product basis element q^(-kn) prod (1 - q^i), i in [n-k, n+k] but n.

    This is Masbaum's product of quantum integers {i} = s^i - s^-i over
    the same range, with q = s^2: each {i} is -s^-i (1 - q^i), and the
    2k prefactors multiply to q^(-kn).  Vanishes for k >= n (the range
    then contains i = 0)."""
    if k < 0:
        raise ValueError("level k must be nonnegative")
    span = Counter(range(n - k, n + k + 1))
    del span[n]
    return times_binoms(LaurentPoly.monomial(1, q=-k * n), span)


def colored_jones(p, n, convention="printed"):
    """Colored Jones of K_p at color n via the cyclotomic sum."""
    if isinstance(p, KnotId):
        if p.is_named:
            raise TypeError("named knots have no cyclotomic route here; "
                            "use colored_jones_multisum")
        p = p.twist
    if n < 1:
        raise ValueError("color n must be >= 1")
    total = LaurentPoly.zero()
    for k in range(n):
        total = total + masbaum_coeff(p, k, convention) * sigma_basis(k, n)
    return total


def colored_jones_multisum(knot, n):
    """Colored Jones at color n via the double sum."""
    if not isinstance(knot, KnotId):
        knot = KnotId.twist_knot(knot)
    if n < 1:
        raise ValueError("color n must be >= 1")
    fam = summand_family(knot)
    terms = []
    for k in range(n):
        for l in range(k + 1):
            terms.append(fam(n, k, l))
    return assemble_sum(terms)


# shift structure of the double-sum summand


@dataclass(frozen=True)
class ShiftRatio:
    """sign * monomial * prod (1 - q^a N^b K^c L2^d) / prod (...).

    Binomials are 4-tuples (a, b, c, d) of exponents on (q, N, K, L2).
    The monomial is a dict of variable exponents.
    """

    sign: int
    mono: tuple
    num: tuple
    den: tuple

    def to_ratfunc(self):
        return RatFunc(self._product(self.num, True), self._product(self.den))

    def _product(self, binoms, signed=False):
        coeff = self.sign if signed else 1
        out = LaurentPoly.monomial(coeff, **dict(self.mono)) if signed \
            else LaurentPoly.const(1)
        one = LaurentPoly.const(1)
        for a, b, c, d in binoms:
            out = out * (one - LaurentPoly.monomial(1, q=a, N=b, K=c, L2=d))
        return out

    def numerator_poly(self):
        return self._product(self.num, True)

    def denominator_poly(self):
        return self._product(self.den)

    def value_at(self, n, k, l):
        """QFactors value at (N, K, L2) = (q^n, q^k, q^l)."""
        f = QFactors(sign=self.sign)
        e = 0
        for name, a in self.mono:
            e += a * {"q": 1, "N": n, "K": k, "L2": l}[name]
        f.times_qpow(e)
        for a, b, c, d in self.num:
            f.times_binom(a + b * n + c * k + d * l)
        for a, b, c, d in self.den:
            f.div_binom(a + b * n + c * k + d * l)
        return f


@dataclass(frozen=True)
class SummandSpec:
    """Shift quotients of a double-sum summand in the three directions."""

    knot: KnotId
    n_step: ShiftRatio
    k_step: ShiftRatio
    l_step: ShiftRatio

    @property
    def f0(self):
        return self.n_step.to_ratfunc()

    @property
    def f1(self):
        return self.k_step.to_ratfunc()

    @property
    def f2(self):
        return self.l_step.to_ratfunc()


_N_STEP = ShiftRatio(
    sign=1,
    mono=(("K", 1),),
    num=((-1, -1, -1, 0), (0, -1, 0, 0)),
    den=((-1, -1, 0, 0), (0, -1, 1, 0)),
)


def shift_ratios(p):
    """Closed-form one-step shift quotients for the K_p summand."""
    # the second numerator binomial steps with k; writing it unstepped
    # (1 - K) would wrongly annihilate every k >= 1 summand
    k_step = ShiftRatio(
        sign=-1,
        mono=(("q", 2), ("K", 1), ("N", 1)),
        num=((-1, -1, -1, 0), (1, -1, 1, 0), (1, 0, 1, 0)),
        den=((2, 0, 1, 1), (1, 0, 1, -1)),
    )
    l_step = ShiftRatio(
        sign=-1,
        mono=(("q", 2 * p), ("L2", 2 * p + 1)),
        num=((3, 0, 0, 2), (0, 0, 1, -1)),
        den=((1, 0, 0, 2), (2, 0, 1, 1)),
    )
    return SummandSpec(KnotId.twist_knot(p), _N_STEP, k_step, l_step)


def fivetwo_shift_ratios():
    """Shift quotients of the 5_2 double-sum summand.

    The n-direction quotient coincides with the twist-knot one; the k and
    l quotients are read off the summand by telescoping its Pochhammers.
    """
    k_step = ShiftRatio(
        sign=-1,
        mono=(("q", 4), ("K", 3), ("N", 1), ("L2", -1)),
        num=((-1, -1, -1, 0), (1, -1, 1, 0), (-1, 0, -1, 0)),
        den=((-1, 0, -1, 1),),
    )
    l_step = ShiftRatio(
        sign=1,
        mono=(("q", -1), ("K", -1)),
        num=((0, 0, -1, 1),),
        den=((-1, 0, 0, -1),),
    )
    return SummandSpec(KnotId.named("5_2"), _N_STEP, k_step, l_step)


def annihilator_generators(knot):
    """Shift annihilator pairs (B, A, direction) with B*F(shifted) = A*F.

    Each pair is the (denominator, numerator) of the corresponding shift
    quotient, expanded to LaurentPolys in (q, N, K, L2).
    """
    spec = summand_spec(knot)
    return [
        (spec.n_step.denominator_poly(), spec.n_step.numerator_poly(), "n"),
        (spec.k_step.denominator_poly(), spec.k_step.numerator_poly(), "k"),
        (spec.l_step.denominator_poly(), spec.l_step.numerator_poly(), "l"),
    ]


def summand_spec(knot):
    if not isinstance(knot, KnotId):
        knot = KnotId.twist_knot(knot)
    if knot.is_named:
        if knot.name != "5_2":
            raise ValueError("no shift spec shipped for %s" % knot.label())
        return fivetwo_shift_ratios()
    return shift_ratios(knot.twist)


# units and convention bookkeeping


def named_form_unit(name, n_max=8):
    """Constant unit between a named double sum and its twist-knot one.

    Checks every color n <= n_max, insists the unit does not move, and
    returns it as a monomial LaurentPoly.
    """
    knot = KnotId.named(name)
    ref = KnotId.twist_knot(knot.twist_parameter())
    unit = None
    for n in range(1, n_max + 1):
        a = colored_jones_multisum(knot, n)
        b = colored_jones_multisum(ref, n)
        u = unit_ratio(a, b)
        if u is None:
            raise ArithmeticError(
                "%s sum is not a unit multiple of %s at n = %d"
                % (name, ref.label(), n))
        if unit is None:
            unit = u
        elif unit != u:
            raise ArithmeticError(
                "unit between %s and %s moved at n = %d: %s vs %s"
                % (name, ref.label(), n, u.text(), unit.text()))
    return unit


def sign_convention_report(p_values=(-2, -1, 1, 2), n_max=4):
    """Computed facts about the two cyclotomic sign conventions."""
    classical = {
        # mirror trefoil (p = 1, n = 2) and figure eight (p = -1, n = 2)
        (1, 2): LaurentPoly.monomial(1, q=1) + LaurentPoly.monomial(1, q=3)
        - LaurentPoly.monomial(1, q=4),
        (-1, 2): LaurentPoly.monomial(1, q=2) - LaurentPoly.monomial(1, q=1)
        + 1 - LaurentPoly.monomial(1, q=-1) + LaurentPoly.monomial(1, q=-2),
    }
    report = {
        "printed_at_color_one": colored_jones(1, 1).text(),
        "habiro_matches_multisum": True,
        "printed_matches_multisum_up_to_unit": True,
        "habiro_reproduces_classical_values": True,
        "per_knot": {},
    }
    for p in p_values:
        for n in range(1, n_max + 1):
            ms = colored_jones_multisum(KnotId.twist_knot(p), n)
            hab = colored_jones(p, n, "habiro")
            pr = colored_jones(p, n, "printed")
            if hab != ms:
                report["habiro_matches_multisum"] = False
            if unit_ratio(pr, ms) is None:
                report["printed_matches_multisum_up_to_unit"] = False
            if (p, n) in classical and ms != classical[(p, n)]:
                report["habiro_reproduces_classical_values"] = False
        report["per_knot"]["K_%d" % p] = {
            "habiro_equals_multisum": hab == ms,
        }
    return report
