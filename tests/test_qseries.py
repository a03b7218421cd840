from collections import Counter
from fractions import Fraction
import math
import random

import pytest

from ajtwist.jones import DEN, NUM, NegativeIndex, ProductForm, _factors
from ajtwist.laurent import LaurentPoly, parse_poly
from ajtwist.qseries import QFactors, is_zero_sum, to_dense, to_dense_qn
from oracles import (RatFunc, div_binom, factors_equal, inv_qpoch, qfactors_at,
                     qfactors_ratfunc, qpoch)


Q = LaurentPoly.var("q")
ONE = LaurentPoly.const(1)


class TestBuilders:
    def test_qpoch(self):
        assert qpoch(0) == 1
        assert qpoch(1) == ONE - Q
        assert qpoch(2) == ONE - Q - Q ** 2 + Q ** 3
        with pytest.raises(NegativeIndex):
            qpoch(-1)

    def test_inv_qpoch_identity(self):
        # (q^-1)_n = (-1)^n q^(-n(n+1)/2) (q)_n
        for n in range(6):
            sign = -1 if n % 2 else 1
            expect = LaurentPoly.monomial(sign, q=-n * (n + 1) // 2) * qpoch(n)
            assert inv_qpoch(n) == expect


def constant_form(pochs=(), binoms=(), qexp=0, parity=0):
    """_factors of a ProductForm whose indices are the constants given:
    pochs are (side, base, index), binoms the indices of (1 - q^j)."""
    form = ProductForm(
        qexp2=((2 * qexp, ""),),
        pochs=tuple((side, base, (i, 0, 0, 0)) for side, base, i in pochs),
        parity=(parity, 0, 0, 0),
        binoms=tuple((j, 0, 0, 0) for j in binoms))
    return _factors(form, 0, (1, 0, 0, 0))


def poch_at(base, i, t):
    """(t^base; t^base)_i at a rational t, one factor at a time."""
    return math.prod((1 - t ** (base * m) for m in range(1, i + 1)),
                     start=Fraction(1))


class TestQFactors:
    # jones._factors reads a ProductForm's Pochhammers and binomials
    # into (1 - q^j) products; these forms have one Pochhammer or none
    def test_one_and_zero(self):
        assert constant_form() == QFactors(1, 0, Counter(), Counter())
        assert qfactors_ratfunc(constant_form()) == 1
        zero = constant_form([(DEN, 1, -1)])
        assert zero == QFactors(0, 0, Counter(), Counter()) and zero.zero
        assert qfactors_ratfunc(zero) == RatFunc.zero()

    def test_binom_normalization(self):
        # (1 - q^-3) = -q^-3 (1 - q^3)
        f = constant_form(binoms=[-3])
        assert f == QFactors(-1, -3, Counter({3: 1}), Counter())
        assert qfactors_ratfunc(f) == \
            RatFunc(ONE - LaurentPoly.monomial(1, q=-3))
        assert constant_form(binoms=[0]).zero

    def test_poch_roundtrip(self):
        f = constant_form([(NUM, 1, 4)])
        assert qfactors_ratfunc(f).as_poly() == qpoch(4)
        g = constant_form([(NUM, -1, 3)])
        assert qfactors_ratfunc(g) == RatFunc(inv_qpoch(3))
        h = constant_form([(DEN, -1, 3)])
        assert qfactors_ratfunc(h) == RatFunc(ONE, inv_qpoch(3))

    def test_div_poch_negative_is_zero(self):
        for base in (1, -1):
            f = constant_form([(DEN, base, -2)], binoms=[2], qexp=3)
            assert f == QFactors(0, 0, Counter(), Counter())

    def test_times_poch_negative_raises(self):
        for base in (1, -1):
            with pytest.raises(NegativeIndex):
                constant_form([(NUM, base, -1)])

    def test_ratio_value(self):
        # (q)_5 / ((q)_2 (q)_3) is the Gaussian binomial [5 choose 2]
        f = constant_form([(NUM, 1, 5), (DEN, 1, 2), (DEN, 1, 3)])
        gauss = qfactors_ratfunc(f).as_poly()
        # q-binomial via explicit product
        expect = qpoch(5).exact_divide(qpoch(2) * qpoch(3))
        assert gauss == expect
        assert gauss.eval_fraction({"q": 1}) == 10

    def test_eval_fraction_matches_expansion(self):
        # the form evaluated at q = t factor by factor, against the
        # QFactors read off it, evaluated and expanded
        rng = random.Random(11)
        for _ in range(200):
            side, base = rng.choice([NUM, DEN]), rng.choice([1, -1])
            i = rng.randint(0 if side == NUM else -2, 5)
            binoms = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))]
            qexp, parity = rng.randint(-4, 4), rng.randint(0, 1)
            f = constant_form([(side, base, i)], binoms, qexp, parity)
            t = Fraction(rng.choice([2, 3, 5, 7]))
            want = Fraction(0)
            if i >= 0:
                want = ((-1) ** parity * t ** qexp
                        * poch_at(base, i, t) ** side
                        * math.prod(1 - t ** j for j in binoms))
            assert f.zero == (not want)
            assert qfactors_at(f, t) == want
            assert qfactors_ratfunc(f).eval_fraction({"q": t}) == want

    def test_equals_fast_and_slow(self):
        a = constant_form([(NUM, 1, 2)])
        b = constant_form([(NUM, 1, 2)])
        assert factors_equal(a, b)
        # different construction paths normalize to one representation
        c = div_binom(constant_form(binoms=[2]), 1)
        d = div_binom(constant_form(binoms=[-2]), -1)
        assert factors_equal(c, d._replace(qpow=d.qpow + 1))
        # unequal values take the expansion fallback and disagree
        e = div_binom(constant_form(binoms=[3]), 1)
        assert not factors_equal(c, e)
        assert not factors_equal(c, constant_form(binoms=[0]))


def poch(n):
    """(q)_n as QFactors."""
    return QFactors(1, 0, Counter(range(1, n + 1)), Counter())


def zero_test(parts):
    """is_zero_sum on (q-poly, QFactors) parts, each poly made dense."""
    return is_zero_sum([(to_dense(poly), qf) for poly, qf in parts])


class TestZeroCertificate:
    def test_telescoping_sum_is_zero(self):
        # (q)_{n+1} - (q)_n + q^{n+1} (q)_n = 0
        n = 5
        parts = [
            (ONE, poch(n + 1)),
            (-ONE, poch(n)),
            (LaurentPoly.monomial(1, q=n + 1), poch(n)),
        ]
        ok, base = zero_test(parts)
        assert ok

    def test_single_sign_flip_is_detected(self):
        n = 5
        parts = [
            (ONE, poch(n + 1)),
            (ONE, poch(n)),
            (LaurentPoly.monomial(1, q=n + 1), poch(n)),
        ]
        ok, _ = zero_test(parts)
        assert not ok

    def test_with_denominators(self):
        # 1/(q)_2 - 1/(q)_2 = 0, and (1-q^3)/(q)_3 - 1/(q)_2 = 0
        parts = [(ONE, QFactors(1, 0, Counter(), Counter({1: 1, 2: 1}))),
                 (-ONE, QFactors(1, 0, Counter({3: 1}),
                                 Counter({1: 1, 2: 1, 3: 1})))]
        ok, _ = zero_test(parts)
        assert ok

    def test_randomized_agreement_with_expansion(self):
        rng = random.Random(2026)
        for _ in range(60):
            parts = []
            sym = RatFunc.zero()
            for _ in range(rng.randint(1, 4)):
                num = Counter(rng.randint(1, 5)
                              for _ in range(rng.randint(0, 3)))
                den = Counter()
                if rng.random() < 0.4:
                    den = poch(rng.randint(0, 3)).num
                f = QFactors(1, rng.randint(-3, 3), num, den)
                p = LaurentPoly.monomial(rng.randint(-3, 3), q=rng.randint(0, 2))
                parts.append((p, f))
                sym = sym + RatFunc(p) * qfactors_ratfunc(f)
            # make it exactly zero half the time by appending the negation
            if rng.random() < 0.5:
                neg = [(-p, f) for p, f in parts]
                parts += neg
                sym = RatFunc.zero()
            ok, _ = zero_test(parts)
            assert ok == (not sym)


class TestDenseAtN:
    # to_dense_qn reads a coefficient in q and N = q^n as a dense q value
    def test_folds_n_into_q(self):
        assert to_dense_qn(parse_poly("q^2*N - 3 + N^(-1)"), 2) == \
            (-2, [1, 0, -3, 0, 0, 0, 1])
        assert to_dense_qn(parse_poly("5"), 7) == (0, [5])

    def test_meeting_terms_cancel_and_trim(self):
        assert to_dense_qn(parse_poly("q^3 - N"), 3) == (0, [])
        assert to_dense_qn(parse_poly("q^3 - N + q*N"), 3) == (4, [1])
        # both ends cancel
        assert to_dense_qn(parse_poly("q^-2 - N^-1 + q - N^2 + q^4"), 2) == \
            (1, [1])
        assert to_dense_qn(parse_poly("q^5 + q^2*N - 2*N^2"), -1) == \
            (-2, [-2, 0, 0, 1, 0, 0, 0, 1])

    def test_refuses_other_variables(self):
        for text in ("q*m", "N*x", "l"):
            with pytest.raises(ValueError):
                to_dense_qn(parse_poly(text), 3)

    def test_agrees_with_evaluation(self):
        rng = random.Random(36)
        t = Fraction(3, 2)
        for _ in range(200):
            poly = LaurentPoly.zero()
            for _ in range(rng.randint(0, 6)):
                poly = poly + LaurentPoly.monomial(
                    rng.randint(-3, 3), q=rng.randint(-4, 4),
                    N=rng.randint(-2, 2))
            n = rng.randint(-3, 3)
            lo, coeffs = to_dense_qn(poly, n)
            assert not coeffs or (coeffs[0] and coeffs[-1])
            assert sum(c * t ** (lo + i) for i, c in enumerate(coeffs)) == \
                poly.eval_fraction({"q": t, "N": t ** n})
