import random
from fractions import Fraction

import pytest

from ajtwist.laurent import LaurentPoly, RatFunc
from ajtwist.qseries import (qpoch, inv_qpoch, qpoch_base, QFactors,
                             NegativeIndex, certificate_base, is_zero_sum)


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

    def test_qpoch_base(self):
        a = LaurentPoly.monomial(1, q=1)
        assert qpoch_base(a, 3) == qpoch(3)
        n = LaurentPoly.var("N")
        assert qpoch_base(n, 1) == ONE - n


class TestQFactors:
    def test_one_and_zero(self):
        assert QFactors.one().to_ratfunc() == 1
        assert QFactors.make_zero().to_ratfunc() == RatFunc.zero()

    def test_binom_normalization(self):
        # (1 - q^-3) = -q^-3 (1 - q^3)
        f = QFactors.one().times_binom(-3)
        assert f.to_ratfunc() == RatFunc(ONE - LaurentPoly.monomial(1, q=-3))
        g = QFactors.one().times_binom(0)
        assert g.zero

    def test_poch_roundtrip(self):
        f = QFactors.one().times_poch(4)
        assert f.to_poly() == qpoch(4)
        g = QFactors.one().times_poch(3, inverted_base=True)
        assert g.to_ratfunc() == RatFunc(inv_qpoch(3))

    def test_div_poch_negative_is_zero(self):
        f = QFactors.one().div_poch(-2)
        assert f.zero

    def test_times_poch_negative_raises(self):
        with pytest.raises(NegativeIndex):
            QFactors.one().times_poch(-1)

    def test_ratio_value(self):
        # (q)_5 / ((q)_2 (q)_3) is the Gaussian binomial [5 choose 2]
        f = QFactors.one().times_poch(5).div_poch(2).div_poch(3)
        gauss = f.to_poly()
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
                f.div_binom(rng.choice([1, 2, 3, 4, 5, -1, -2]))
            f.times_qpow(rng.randint(-4, 4))
            if rng.random() < 0.5:
                f.times_sign(-1)
            t = Fraction(rng.choice([2, 3, 5, 7]))
            if f.zero:
                assert f.eval_fraction(t) == 0
                continue
            r = f.to_ratfunc()
            assert f.eval_fraction(t) == r.eval_fraction({"q": t})

    def test_equals_fast_and_slow(self):
        a = QFactors.one().times_poch(2)
        b = QFactors.one().times_poch(2)
        assert a.equals(b)
        # different construction paths normalize to one representation
        c = QFactors.one().times_binom(2).div_binom(1)
        d = QFactors.one().times_binom(-2).div_binom(-1).times_qpow(1)
        assert c.equals(d)
        # unequal values take the expansion fallback and disagree
        e = QFactors.one().times_binom(3).div_binom(1)
        assert not c.equals(e)
        assert not c.equals(QFactors.make_zero())

    def test_mul(self):
        a = QFactors.one().times_poch(2).times_qpow(3)
        b = QFactors(sign=-1).div_poch(4)
        ab = a * b
        assert ab.sign == -1 and ab.qpow == 3
        assert ab.to_ratfunc() == RatFunc(
            LaurentPoly.monomial(-1, q=3) * qpoch(2), qpoch(4))


class TestZeroCertificate:
    def test_base_is_power_of_two(self):
        for b in (0, 1, 5, 100, 10 ** 6):
            t = certificate_base(b)
            assert t >= 2 * b + 2
            assert t & (t - 1) == 0

    def test_telescoping_sum_is_zero(self):
        # (q)_{n+1} - (q)_n + q^{n+1} (q)_n = 0
        n = 5
        parts = [
            (ONE, QFactors.one().times_poch(n + 1)),
            (-ONE, QFactors.one().times_poch(n)),
            (LaurentPoly.monomial(1, q=n + 1), QFactors.one().times_poch(n)),
        ]
        ok, base = is_zero_sum(parts)
        assert ok

    def test_single_sign_flip_is_detected(self):
        n = 5
        parts = [
            (ONE, QFactors.one().times_poch(n + 1)),
            (ONE, QFactors.one().times_poch(n)),
            (LaurentPoly.monomial(1, q=n + 1), QFactors.one().times_poch(n)),
        ]
        ok, _ = is_zero_sum(parts)
        assert not ok

    def test_with_denominators(self):
        # 1/(q)_2 - 1/(q)_2 = 0, and (1-q^3)/(q)_3 - 1/(q)_2 = 0
        parts = [(ONE, QFactors.one().div_poch(2)),
                 (-ONE, QFactors.one().times_binom(3).div_poch(3))]
        ok, _ = is_zero_sum(parts)
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
                sym = sym + RatFunc(p) * f.to_ratfunc()
            # make it exactly zero half the time by appending the negation
            if rng.random() < 0.5:
                neg = [(-p, f) for p, f in parts]
                parts += neg
                sym = RatFunc.zero()
            ok, _ = is_zero_sum(parts)
            assert ok == (not sym)
