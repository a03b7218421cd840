import hashlib

import pytest

from ajtwist.laurent import LaurentPoly, RatFunc
from ajtwist.qseries import QFactors, NegativeIndex
from ajtwist.jones import (KnotId, masbaum_coeff, sigma_basis, colored_jones,
                           colored_jones_multisum, summand_F, summand_family,
                           summand_spec, shift_ratios, fivetwo_shift_ratios,
                           annihilator_generators, named_form_unit, unit_ratio,
                           sign_convention_report)


def qmono(c=1, **e):
    return LaurentPoly.monomial(c, **e)


class TestKnotId:
    def test_constructors(self):
        assert KnotId.twist_knot(2).twist_parameter() == 2
        assert KnotId.named("5_2").twist_parameter() == 2
        assert KnotId.named("6_1").twist_parameter() == -2
        assert KnotId.named("6_1").label() == "6_1"
        assert KnotId.twist_knot(-3).label() == "K_-3"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            KnotId()
        with pytest.raises(ValueError):
            KnotId(twist=1, name="5_2")
        with pytest.raises(ValueError):
            KnotId.named("4_1")


class TestMasbaumCoeff:
    def test_level_zero_is_minus_one(self):
        for p in range(-4, 5):
            assert masbaum_coeff(p, 0) == LaurentPoly.const(-1)

    def test_level_one(self):
        assert masbaum_coeff(1, 1) == qmono(-1, q=2)
        assert masbaum_coeff(0, 1) == 0

    def test_unknot_coefficients_vanish(self):
        for k in range(1, 6):
            assert masbaum_coeff(0, k) == 0

    def test_figure_eight_habiro_coefficients_are_one(self):
        for k in range(9):
            assert masbaum_coeff(-1, k, "habiro") == 1

    def test_habiro_is_signed_printed(self):
        for p in (-2, 1, 3):
            for k in range(5):
                sign = -1 if k % 2 == 0 else 1
                assert masbaum_coeff(p, k, "habiro") == \
                    sign * masbaum_coeff(p, k, "printed")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            masbaum_coeff(1, -1)
        with pytest.raises(ValueError):
            masbaum_coeff(1, 1, "other")


class TestSigmaBasis:
    def test_small_values(self):
        assert sigma_basis(0, 3) == 1
        # sigma_1(2) = {1}{3} = (s - s^-1)(s^3 - s^-3) with q = s^2
        b = qmono(1, q=2) - qmono(1, q=1) - qmono(1, q=-1) + qmono(1, q=-2)
        assert sigma_basis(1, 2) == b

    def test_vanishes_at_and_past_the_color(self):
        for n in (1, 2, 3, 5):
            assert sigma_basis(n, n) == 0
            assert sigma_basis(n + 1, n) == 0

    def test_pochhammer_form(self):
        # sigma_k(n) = q^{nk} (q^-1)_{n+k} (q^-1)_{n-1}
        #              / ((q^-1)_n (q^-1)_{n-k-1})
        from ajtwist.qseries import inv_qpoch
        for n in range(1, 6):
            for k in range(0, n):
                top = qmono(1, q=n * k) * inv_qpoch(n + k) * inv_qpoch(n - 1)
                bot = inv_qpoch(n) * inv_qpoch(n - k - 1)
                assert sigma_basis(k, n) == top.exact_divide(bot)


class TestColoredJones:
    def test_color_one_printed(self):
        for p in range(-3, 4):
            assert colored_jones(p, 1) == LaurentPoly.const(-1)

    def test_unknot_all_colors(self):
        for n in range(1, 8):
            assert colored_jones(0, n) == LaurentPoly.const(-1)
            assert colored_jones_multisum(0, n) == LaurentPoly.const(1)

    def test_trefoil_mirror_color_two(self):
        # classical Jones polynomial values, habiro normalization
        expect = qmono(1, q=1) + qmono(1, q=3) - qmono(1, q=4)
        assert colored_jones_multisum(1, 2) == expect
        assert colored_jones(1, 2, "habiro") == expect
        assert colored_jones(1, 2, "printed") == expect - 2

    def test_figure_eight_color_two(self):
        expect = (qmono(1, q=2) - qmono(1, q=1) + 1 - qmono(1, q=-1)
                  + qmono(1, q=-2))
        assert colored_jones_multisum(-1, 2) == expect

    def test_figure_eight_palindromic(self):
        # amphichiral knot: J(n) is invariant under q -> 1/q
        for n in (2, 3, 4, 5):
            j = colored_jones_multisum(-1, n)
            flipped = LaurentPoly({tuple(-a for a in e): c
                                   for e, c in j.terms.items()})
            assert j == flipped

    def test_habiro_equals_multisum(self):
        for p in (-3, -1, 2):
            for n in (1, 2, 3, 5):
                assert colored_jones(p, n, "habiro") == \
                    colored_jones_multisum(p, n), (p, n)

    def test_truncation_is_sound(self):
        # terms with k >= n contribute nothing
        p, n = 2, 4
        j = colored_jones(p, n)
        extra = sum((masbaum_coeff(p, k) * sigma_basis(k, n)
                     for k in (n, n + 1)), LaurentPoly.zero())
        assert extra == 0
        assert j + extra == j

    def test_rejects_bad_color(self):
        with pytest.raises(ValueError):
            colored_jones(1, 0)
        with pytest.raises(ValueError):
            colored_jones_multisum(1, -2)

    def test_named_knots_go_through_multisum(self):
        with pytest.raises(TypeError):
            colored_jones(KnotId.named("5_2"), 2)
        assert colored_jones_multisum(KnotId.named("5_2"), 1) == \
            LaurentPoly.const(-1)
        assert colored_jones_multisum(KnotId.named("6_1"), 1) == \
            LaurentPoly.const(1)


class TestSummandF:
    def test_support_clamp(self):
        knot = KnotId.twist_knot(2)
        assert summand_F(knot, 0, 0, 0) == RatFunc.zero()
        assert summand_F(knot, 3, 3, 0) == RatFunc.zero()
        assert summand_F(knot, 3, 1, 2) == RatFunc.zero()
        assert summand_F(knot, 3, 1, -1) == RatFunc.zero()

    def test_base_point(self):
        # F(1, 0, 0) = 1 for every twist parameter
        for p in (-2, -1, 1, 2):
            assert summand_F(KnotId.twist_knot(p), 1, 0, 0) == 1
        assert summand_F(KnotId.named("5_2"), 1, 0, 0) == -1
        assert summand_F(KnotId.named("6_1"), 1, 0, 0) == 1

    def test_sums_to_multisum(self):
        knot = KnotId.twist_knot(-2)
        for n in (1, 2, 3):
            total = RatFunc.zero()
            for k in range(n):
                for l in range(k + 1):
                    total = total + summand_F(knot, n, k, l)
            assert total == RatFunc(colored_jones_multisum(knot, n))

    def test_values_are_rational_not_polynomial(self):
        v = summand_F(KnotId.twist_knot(2), 4, 2, 1)
        assert isinstance(v, RatFunc)


def _pair_holds(ratio, fam, point, shifted):
    n, k, l = point
    try:
        f1 = fam(*shifted)
    except NegativeIndex:
        return None
    f0 = fam(n, k, l)
    b = QFactors()
    for aa, bb, cc, dd in ratio.den:
        b.times_binom(aa + bb * n + cc * k + dd * l)
    a = QFactors(sign=ratio.sign)
    a.times_qpow(sum(x * {"q": 1, "N": n, "K": k, "L2": l}[nm]
                     for nm, x in ratio.mono))
    for aa, bb, cc, dd in ratio.num:
        a.times_binom(aa + bb * n + cc * k + dd * l)
    return (b * f1).equals(a * f0)


class TestShiftRatios:
    def test_n_step_closed_form(self):
        spec = shift_ratios(2)
        q1 = LaurentPoly.monomial(1, q=-1)
        N = LaurentPoly.var("N")
        K = LaurentPoly.var("K")
        num = K * (1 - q1 * N ** -1 * K ** -1) * (1 - N ** -1)
        den = (1 - q1 * N ** -1) * (1 - N ** -1 * K)
        assert spec.f0 == RatFunc(num, den)

    def test_l_step_sign_is_carried(self):
        # the numerator of the l quotient is negative: dropping its sign
        # breaks annihilation
        spec = shift_ratios(1)
        B, A, label = annihilator_generators(1)[2]
        assert label == "l"
        assert RatFunc(A, B) == spec.f2
        fam = summand_family(KnotId.twist_knot(1))
        point, shifted = (4, 2, 1), (4, 2, 2)
        assert _pair_holds(spec.l_step, fam, point, shifted)
        flipped = type(spec.l_step)(sign=-spec.l_step.sign,
                                    mono=spec.l_step.mono,
                                    num=spec.l_step.num, den=spec.l_step.den)
        assert _pair_holds(flipped, fam, point, shifted) is False

    def test_k_step_requires_shifted_binomial(self):
        # the third numerator binomial of the k quotient steps with k;
        # the unstepped variant annihilates nothing
        spec = shift_ratios(1)
        assert (1, 0, 1, 0) in spec.k_step.num
        broken = type(spec.k_step)(sign=spec.k_step.sign,
                                   mono=spec.k_step.mono,
                                   num=((-1, -1, -1, 0), (1, -1, 1, 0),
                                        (0, 0, 1, 0)),
                                   den=spec.k_step.den)
        fam = summand_family(KnotId.twist_knot(1))
        assert _pair_holds(spec.k_step, fam, (3, 1, 0), (3, 2, 0))
        assert _pair_holds(broken, fam, (3, 1, 0), (3, 2, 0)) is False

    def test_all_pairs_on_grid(self):
        cases = [(shift_ratios(p), KnotId.twist_knot(p)) for p in (-2, 1)]
        cases.append((fivetwo_shift_ratios(), KnotId.named("5_2")))
        for spec, knot in cases:
            fam = summand_family(knot)
            checked = 0
            for n in range(1, 8):
                for k in range(n):
                    for l in range(k + 1):
                        for ratio, shifted in (
                                (spec.n_step, (n + 1, k, l)),
                                (spec.k_step, (n, k + 1, l)),
                                (spec.l_step, (n, k, l + 1))):
                            r = _pair_holds(ratio, fam, (n, k, l), shifted)
                            if r is not None:
                                assert r, (knot.label(), n, k, l, shifted)
                                checked += 1
            assert checked >= 200


class TestAnnihilatorGenerators:
    def test_pairs_are_ratio_num_den(self):
        for p in (-2, 1, 3):
            spec = shift_ratios(p)
            gens = annihilator_generators(p)
            for (bpoly, apoly, _), rf in zip(gens, (spec.f0, spec.f1,
                                                    spec.f2)):
                assert RatFunc(apoly, bpoly) == rf

    def test_l_step_example_point(self):
        # B*F(n,k,l+1) - A*F(n,k,l) at (6,4,2) for the 5_2 summand
        B, A, _ = annihilator_generators(KnotId.named("5_2"))[2]
        fam = summand_family(KnotId.named("5_2"))
        n, k, l = 6, 4, 2
        point = {"N": LaurentPoly.monomial(1, q=n),
                 "K": LaurentPoly.monomial(1, q=k),
                 "L2": LaurentPoly.monomial(1, q=l)}
        bval = RatFunc(B.substitute_monomials(**point))
        aval = RatFunc(A.substitute_monomials(**point))
        lhs = bval * fam(n, k, l + 1).to_ratfunc()
        rhs = aval * fam(n, k, l).to_ratfunc()
        assert lhs == rhs

    def test_sixone_has_no_pairs(self):
        with pytest.raises(ValueError):
            annihilator_generators(KnotId.named("6_1"))


class TestNamedFormUnits:
    def test_units(self):
        assert named_form_unit("5_2", 6) == LaurentPoly.const(-1)
        assert named_form_unit("6_1", 6) == LaurentPoly.const(1)


class TestUnitRatio:
    def test_finds_monomial_units(self):
        a = LaurentPoly.var("q") + 1
        u = LaurentPoly.monomial(-1, q=3)
        assert unit_ratio(a * u, a) == u
        assert unit_ratio(a, a * u) == LaurentPoly.monomial(-1, q=-3)

    def test_rejects_non_units(self):
        a = LaurentPoly.var("q") + 1
        assert unit_ratio(a, a + 1) is None
        assert unit_ratio(2 * a, a) is None
        assert unit_ratio(a, LaurentPoly.zero()) is None


class TestSignConventionReport:
    def test_report_facts(self):
        rep = sign_convention_report(p_values=(-1, 1), n_max=3)
        assert rep["printed_at_color_one"] == "-1"
        assert rep["habiro_matches_multisum"] is True
        assert rep["habiro_reproduces_classical_values"] is True
        # the printed convention is NOT a unit multiple of the double sum
        assert rep["printed_matches_multisum_up_to_unit"] is False


class TestGoldenDigest:
    # sha256 over the text of the polynomials below, one per line; a
    # change to any printed colored Jones polynomial changes it
    DIGEST = ("11a14a624e32f310837a2eda3357cb2a"
              "cfed160ca8757b4b24292154800b01e9")

    def test_text_is_unchanged(self):
        polys = [colored_jones(p, n, "habiro")
                 for p in range(-3, 4) for n in range(1, 11)]
        polys += [colored_jones_multisum(KnotId.named(name), n)
                  for name in ("5_2", "6_1") for n in range(1, 9)]
        text = "".join(poly.text() + "\n" for poly in polys)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
