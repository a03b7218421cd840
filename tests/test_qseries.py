import random
from fractions import Fraction

import pytest

from ajtwist.laurent import LaurentPoly
from ajtwist.qseries import QFactors, NegativeIndex, is_zero_sum, to_dense
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


class TestQFactors:
    def test_one_and_zero(self):
        assert qfactors_ratfunc(QFactors.one()) == 1
        assert qfactors_ratfunc(QFactors.make_zero()) == RatFunc.zero()

    def test_binom_normalization(self):
        # (1 - q^-3) = -q^-3 (1 - q^3)
        f = QFactors.one().times_binom(-3)
        assert qfactors_ratfunc(f) == \
            RatFunc(ONE - LaurentPoly.monomial(1, q=-3))
        g = QFactors.one().times_binom(0)
        assert g.zero

    def test_poch_roundtrip(self):
        f = QFactors.one().times_poch(4)
        assert qfactors_ratfunc(f).as_poly() == qpoch(4)
        g = QFactors.one().times_poch(3, inverted_base=True)
        assert qfactors_ratfunc(g) == RatFunc(inv_qpoch(3))
        h = QFactors.one().div_poch(3, inverted_base=True)
        assert qfactors_ratfunc(h) == RatFunc(ONE, inv_qpoch(3))

    def test_div_poch_negative_is_zero(self):
        f = QFactors.one().div_poch(-2)
        assert f.zero

    def test_times_poch_negative_raises(self):
        with pytest.raises(NegativeIndex):
            QFactors.one().times_poch(-1)

    def test_ratio_value(self):
        # (q)_5 / ((q)_2 (q)_3) is the Gaussian binomial [5 choose 2]
        f = QFactors.one().times_poch(5).div_poch(2).div_poch(3)
        gauss = qfactors_ratfunc(f).as_poly()
        # q-binomial via explicit product
        expect = qpoch(5).exact_divide(qpoch(2) * qpoch(3))
        assert gauss == expect
        assert gauss.eval_fraction({"q": 1}) == 10

    def test_eval_fraction_matches_expansion(self):
        rng = random.Random(11)
        for _ in range(50):
            f = QFactors.one()
            for _ in range(rng.randint(0, 4)):
                f.times_binom(rng.randint(-5, 5))
            for _ in range(rng.randint(0, 3)):
                div_binom(f, rng.choice([1, 2, 3, 4, 5, -1, -2]))
            f.times_qpow(rng.randint(-4, 4))
            if rng.random() < 0.5:
                f.times_sign(-1)
            t = Fraction(rng.choice([2, 3, 5, 7]))
            if f.zero:
                assert qfactors_at(f, t) == 0
                continue
            r = qfactors_ratfunc(f)
            assert qfactors_at(f, t) == r.eval_fraction({"q": t})

    def test_equals_fast_and_slow(self):
        a = QFactors.one().times_poch(2)
        b = QFactors.one().times_poch(2)
        assert factors_equal(a, b)
        # different construction paths normalize to one representation
        c = div_binom(QFactors.one().times_binom(2), 1)
        d = div_binom(QFactors.one().times_binom(-2), -1).times_qpow(1)
        assert factors_equal(c, d)
        # unequal values take the expansion fallback and disagree
        e = div_binom(QFactors.one().times_binom(3), 1)
        assert not factors_equal(c, e)
        assert not factors_equal(c, QFactors.make_zero())


def zero_test(parts):
    """is_zero_sum on (q-poly, QFactors) parts, each poly made dense."""
    return is_zero_sum([(to_dense(poly), qf) for poly, qf in parts])


class TestZeroCertificate:
    def test_telescoping_sum_is_zero(self):
        # (q)_{n+1} - (q)_n + q^{n+1} (q)_n = 0
        n = 5
        parts = [
            (ONE, QFactors.one().times_poch(n + 1)),
            (-ONE, QFactors.one().times_poch(n)),
            (LaurentPoly.monomial(1, q=n + 1), QFactors.one().times_poch(n)),
        ]
        ok, base = zero_test(parts)
        assert ok

    def test_single_sign_flip_is_detected(self):
        n = 5
        parts = [
            (ONE, QFactors.one().times_poch(n + 1)),
            (ONE, QFactors.one().times_poch(n)),
            (LaurentPoly.monomial(1, q=n + 1), QFactors.one().times_poch(n)),
        ]
        ok, _ = zero_test(parts)
        assert not ok

    def test_with_denominators(self):
        # 1/(q)_2 - 1/(q)_2 = 0, and (1-q^3)/(q)_3 - 1/(q)_2 = 0
        parts = [(ONE, QFactors.one().div_poch(2)),
                 (-ONE, QFactors.one().times_binom(3).div_poch(3))]
        ok, _ = zero_test(parts)
        assert ok

    def test_randomized_agreement_with_expansion(self):
        rng = random.Random(2026)
        for _ in range(60):
            parts = []
            sym = RatFunc.zero()
            for _ in range(rng.randint(1, 4)):
                f = QFactors.one()
                for _ in range(rng.randint(0, 3)):
                    f.times_binom(rng.randint(1, 5))
                if rng.random() < 0.4:
                    f.div_poch(rng.randint(0, 3))
                f.times_qpow(rng.randint(-3, 3))
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
