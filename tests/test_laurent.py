import random
from fractions import Fraction

import pytest

from ajtwist.laurent import (LaurentPoly, RatFunc, InexactDivision,
                             PolyParseError, parse_poly, VARS)


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
        assert LaurentPoly.const(5).const_value() == 5
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
        assert mono(1, q=2) ** -3 == mono(1, q=-6)
        assert mono(-1, m=1) ** -1 == mono(-1, m=-1)
        with pytest.raises(InexactDivision):
            (ONE + Q) ** -1
        with pytest.raises(InexactDivision):
            mono(2, q=1) ** -1

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
        assert b.substitute(x=xhat) == RatFunc(M ** 6 + L, M ** 2 + L)

    def test_substitute_is_a_homomorphism(self):
        rng = random.Random(7)
        names = ("q", "m")
        binding = {"m": RatFunc(Q + 1, Q - 2), "q": RatFunc(LaurentPoly.var("l"))}
        for _ in range(40):
            a = _random_poly(rng, names, max_exp=2)
            b = _random_poly(rng, names, max_exp=2)
            lhs = (a * b).substitute(**binding)
            rhs = a.substitute(**binding) * b.substitute(**binding)
            assert lhs == rhs
            assert (a + b).substitute(**binding) == \
                a.substitute(**binding) + b.substitute(**binding)

    def test_substitute_monomials_q_to_one(self):
        p = mono(3, q=5, N=2) + mono(-1, q=-2, N=1)
        r = p.substitute_monomials(q=1, N=M ** 2)
        assert r == mono(3, m=4) + mono(-1, m=2)

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
        with pytest.raises(PolyParseError):
            parse_poly("z + 1")
        with pytest.raises(PolyParseError):
            parse_poly("q^")
        with pytest.raises(PolyParseError):
            parse_poly("q +")


class TestRingProperties:
    def test_seeded_ring_axioms(self):
        rng = random.Random(99)
        names = ("q", "N", "K", "l")
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
