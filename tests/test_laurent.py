import random
from fractions import Fraction

import pytest

from ajtwist.apoly import a_polynomial
from ajtwist.laurent import (LaurentPoly, InexactDivision, PolyParseError,
                             parse_poly, VARS)
from oracles import RatFunc, substitute


def mono(c=1, **e):
    return LaurentPoly.monomial(c, **e)


Q = LaurentPoly.var("q")
M = LaurentPoly.var("m")
X = LaurentPoly.var("x")
L = LaurentPoly.var("l")
ONE = LaurentPoly.const(1)


class TestBasics:
    def test_zero_and_const(self):
        assert not LaurentPoly.zero()
        assert LaurentPoly.const(0) == LaurentPoly.zero()
        assert LaurentPoly.const(1) == 1

    def test_addition_cancels(self):
        assert (Q - Q) == 0
        assert (Q + 2 - Q - 2) == 0

    def test_brace_square(self):
        br = mono(1, q=1) - mono(1, q=-1)
        sq = br * br
        assert sq == mono(1, q=2) - 2 + mono(1, q=-2)

    def test_product_of_binomials(self):
        assert (ONE + Q) * (ONE - Q) == ONE - Q ** 2

    def test_negative_monomial_power(self):
        # a negative exponent is refused, a unit monomial's too: its
        # inverse is written with monomial()
        for base in (mono(1, q=2), mono(-1, m=1), ONE + Q, mono(2, q=1)):
            for n in (-1, -3):
                with pytest.raises(ValueError, match="negative exponent"):
                    base ** n

    def test_leading_and_ranges(self):
        # canonical order compares exponent tuples positionally, so the
        # term with the higher l exponent wins over the higher m exponent
        p = mono(3, m=2, l=1) + mono(-1, m=5)
        e, c = p.leading()
        assert c == 3 and e[VARS.index("m")] == 2
        assert p.var_range("m") == (2, 5)
        assert p.var_range("x") == (0, 0)

    def test_univariate_coefficients(self):
        p = 3 * mono(q=-2) - Q + 5
        assert p.univariate_coefficients("q") == {-2: 3, 1: -1, 0: 5}
        assert (M ** 2 - 4).univariate_coefficients("m") == {2: 1, 0: -4}
        assert LaurentPoly.zero().univariate_coefficients("q") == {}
        with pytest.raises(ValueError):
            (Q + M).univariate_coefficients("q")


class TestExactDivide:
    def test_simple(self):
        assert (ONE - Q ** 2).exact_divide(ONE - Q) == ONE + Q
        assert (M ** 4 - 1).exact_divide(M ** 2 + 1) == M ** 2 - 1

    def test_laurent_divisor(self):
        p = mono(1, q=1) - mono(1, q=-1)
        d = mono(1, q=-1)
        assert p.exact_divide(d) == Q ** 2 - 1

    def test_inexact_raises(self):
        with pytest.raises(InexactDivision):
            (ONE - Q ** 2).exact_divide(ONE + Q ** 2)
        with pytest.raises(InexactDivision):
            (Q + 1).exact_divide(LaurentPoly.const(2))

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q.exact_divide(LaurentPoly.zero())

    def test_randomized_product_roundtrip(self):
        rng = random.Random(20260817)
        names = ("q", "N", "m", "l")
        for _ in range(400):
            a = _random_poly(rng, names)
            b = _random_poly(rng, names)
            if not b:
                continue
            ab = a * b
            assert ab.exact_divide(b) == a


class TestDivideOut:
    def test_abelian_factor_of_a_polynomial(self):
        a2 = a_polynomial(2)
        abelian = ONE + L * M ** 2
        assert (abelian ** 3 * a2).divide_out(abelian) == (a2, 3)
        assert a2.divide_out(abelian) == (a2, 0)

    def test_eliminant_factors(self):
        y = LaurentPoly.var("y")
        e = parse_poly("y^4 - 3*y^3 + 5*y^2 - 3*y + 1")
        poly = (y - 1) ** 2 * (y + 1) * e
        assert poly.divide_out(y - 1) == ((y + 1) * e, 2)
        assert poly.divide_out(y + 1) == ((y - 1) ** 2 * e, 1)

    def test_zero(self):
        assert LaurentPoly.zero().divide_out(ONE + Q) == (0, 0)

    @pytest.mark.parametrize("factor", [
        LaurentPoly.zero(), ONE, -Q, mono(2, q=1, m=-1)],
        ids=["zero", "one", "unit", "monomial"])
    def test_monomial_or_zero_is_refused(self, factor):
        # division by a unit never fails, so the loop would never end
        with pytest.raises(ValueError, match="two or more terms"):
            (ONE + Q).divide_out(factor)


def _random_poly(rng, names, max_terms=4, max_exp=3, max_coeff=6):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        exps = {nm: rng.randint(-max_exp, max_exp) for nm in names
                if rng.random() < 0.6}
        c = rng.randint(-max_coeff, max_coeff)
        p = p + LaurentPoly.monomial(c, **exps)
    return p


class TestSubstitution:
    def test_meridian_example(self):
        xhat = RatFunc(L * M ** 2 + 1, M ** 2 + L)
        b = M ** 4 - X * M ** 2 + 1
        assert substitute(b, x=xhat) == RatFunc(M ** 6 + L, M ** 2 + L)

    def test_substitute_is_a_homomorphism(self):
        rng = random.Random(7)
        names = ("q", "m")
        binding = {"m": RatFunc(Q + 1, Q - 2), "q": RatFunc(LaurentPoly.var("l"))}
        for _ in range(40):
            a = _random_poly(rng, names, max_exp=2)
            b = _random_poly(rng, names, max_exp=2)
            lhs = substitute(a * b, **binding)
            rhs = substitute(a, **binding) * substitute(b, **binding)
            assert lhs == rhs
            assert substitute(a + b, **binding) == \
                substitute(a, **binding) + substitute(b, **binding)

    def test_substitute_monomials_q_to_one(self):
        p = mono(3, q=5, N=2) + mono(-1, q=-2, N=1)
        r = p.substitute_monomials(q=1, N=M ** 2)
        assert r == mono(3, m=4) + mono(-1, m=2)

    @pytest.mark.parametrize("value", [0, 2, M + 1, 2 * M],
                             ids=["zero", "two", "m+1", "2m"])
    def test_substitute_monomials_refuses_non_units(self, value):
        with pytest.raises(ValueError, match="not a unit monomial"):
            parse_poly("q + 5").substitute_monomials(q=value)

    def test_eval_fraction(self):
        p = Q ** 2 - 1
        assert p.eval_fraction({"q": 3}) == 8
        assert p.eval_fraction({"q": Fraction(1, 2)}) == Fraction(-3, 4)

    def test_eval_complex_deterministic(self):
        p = Q ** 3 - 2 * Q + 5
        v1 = p.eval_complex({"q": 0.25 + 0.5j})
        v2 = p.eval_complex({"q": 0.25 + 0.5j})
        assert v1 == v2


class TestRatFunc:
    # the rational-function oracle the other suites compare against
    def test_canonical_min_shift(self):
        r = RatFunc(mono(2, q=-3) + mono(2, q=-2), mono(4, q=-1))
        # common monomial factors and integer content are removed
        assert r.num == Q + 1
        assert r.den == 2 * Q ** 2

    def test_denominator_sign(self):
        r = RatFunc(Q, -ONE + Q)
        assert r.den.leading()[1] > 0
        r2 = RatFunc(Q, ONE - Q)
        assert r2.den.leading()[1] > 0
        assert r2.num == -Q

    def test_zero(self):
        r = RatFunc(LaurentPoly.zero(), Q + 1)
        assert not r
        assert r.den == 1

    def test_cross_multiplied_equality(self):
        a = RatFunc(ONE - Q ** 2, ONE - Q)
        b = RatFunc(ONE + Q)
        assert a == b
        assert RatFunc(Q, Q ** 2) == RatFunc(ONE, Q)

    def test_arithmetic(self):
        half = RatFunc(ONE, Q)
        assert half + half == RatFunc(2 * ONE, Q)
        assert half * Q == 1
        assert (half - half) == RatFunc.zero()
        assert RatFunc(Q) / RatFunc(Q ** 2) == RatFunc(ONE, Q)

    def test_pow_negative(self):
        r = RatFunc(Q + 1, Q)
        assert r ** -2 == RatFunc(Q ** 2, (Q + 1) ** 2)

    def test_as_poly(self):
        assert RatFunc(ONE - Q ** 2, ONE - Q).as_poly() == ONE + Q
        with pytest.raises(InexactDivision):
            RatFunc(ONE, ONE - Q).as_poly()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE, LaurentPoly.zero())
        with pytest.raises(ZeroDivisionError):
            RatFunc(ONE) / RatFunc.zero()


class TestTextAndJson:
    def test_text_form(self):
        assert (L + M ** 6).text() == "l + m^6"
        assert (M ** 6 + L).text() == "l + m^6"
        assert LaurentPoly.zero().text() == "0"
        assert (-X).text() == "-x"
        assert (2 * Q - 3).text() == "2*q - 3"

    def test_parse_roundtrip(self):
        cases = [
            "-3*q^12*N^4 + q*N - 7 + q^-2",
            "l + m^6",
            "0",
            "-x",
            "q^2 - 2 + q^-2",
            "5",
        ]
        for c in cases:
            p = parse_poly(c)
            assert parse_poly(p.text()) == p

    def test_parse_paren_exponent(self):
        assert parse_poly("q^(-2)") == mono(1, q=-2)

    def test_parse_errors(self):
        # a term ends at +, - or the end; a * takes a factor after it;
        # one sign joins two terms, and a term may add one minus
        for text, pos in (("z + 1", 0), ("q^", 2), ("q +", 3), ("3 q", 2),
                          ("2 3", 2), ("q*", 2), ("2*-q", 2),
                          ("1 + + 1", 4), ("1 1", 2), ("q^(-2", 2)):
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.pos == pos, text
        # K and L2 name positions of a shift quotient, not variables
        for text, pos in (("K", 0), ("L2", 0), ("K^2*q", 0),
                          ("q - 2*L2", 6), ("N*K", 2)):
            with pytest.raises(PolyParseError) as err:
                parse_poly(text)
            assert err.value.reason.startswith("unknown variable"), text
            assert err.value.pos == pos, text

    def test_variable_universe(self):
        assert VARS == ("q", "N", "l", "m", "x", "y")


class TestRingProperties:
    def test_seeded_ring_axioms(self):
        rng = random.Random(99)
        names = ("q", "N", "x", "l")
        for _ in range(300):
            a = _random_poly(rng, names)
            b = _random_poly(rng, names)
            c = _random_poly(rng, names)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a + (b + c) == (a + b) + c

    def test_eval_respects_ring_ops(self):
        rng = random.Random(5)
        names = ("q", "m")
        pt = {"q": Fraction(7, 3), "m": Fraction(-2, 5)}
        for _ in range(100):
            a = _random_poly(rng, names)
            b = _random_poly(rng, names)
            assert (a * b).eval_fraction(pt) == \
                a.eval_fraction(pt) * b.eval_fraction(pt)
            assert (a + b).eval_fraction(pt) == \
                a.eval_fraction(pt) + b.eval_fraction(pt)
