from collections import Counter
import hashlib
import re

import pytest

from ajtwist import apoly, jones
from ajtwist.laurent import InexactDivision, LaurentPoly, unit_ratio
from ajtwist.jones import (DEN, NUM, KnotId, NegativeIndex, ProductForm,
                           masbaum_coeff, sigma_basis, colored_jones,
                           colored_jones_multisum, summand_factors,
                           shift_ratio, named_form_unit)
from oracles import (RatFunc, inv_qpoch, qfactors_ratfunc, qpoch,
                     ratio_holds, ratio_polys, ratio_ratfunc)


def qmono(c=1, **e):
    return LaurentPoly.monomial(c, **e)


# the one-step shifts (dn, dk, dl) of the summand
N_STEP, K_STEP, L_STEP = STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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

    def test_parse_reads_label(self):
        knots = [KnotId.twist_knot(p) for p in range(-30, 31)]
        knots += [KnotId.named("5_2"), KnotId.named("6_1")]
        for knot in knots:
            assert KnotId.parse(knot.label()) == knot

    @pytest.mark.parametrize("token", ["K_", "K_+3", "K_3.0", "k_3", "8_1"])
    def test_parse_refuses(self, token):
        with pytest.raises(ValueError,
                           match=re.escape("unknown knot %r" % token)):
            KnotId.parse(token)


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
        for n in range(1, 6):
            for k in range(0, n):
                top = qmono(1, q=n * k) * inv_qpoch(n + k) * inv_qpoch(n - 1)
                bot = inv_qpoch(n) * inv_qpoch(n - k - 1)
                assert sigma_basis(k, n) == top.exact_divide(bot)

    def test_reads_sigma(self, monkeypatch):
        # sigma_basis and the cyclotomic sum both read the SIGMA block,
        # so one more factor (1 - q^(k+1)) on it must show in each
        before = {(k, n): sigma_basis(k, n)
                  for n in range(1, 5) for k in range(n)}
        monkeypatch.setattr(jones, "SIGMA", jones.SIGMA._replace(
            binoms=jones.SIGMA.binoms + ((1, 0, 1, 0),)))
        for (k, n), value in before.items():
            assert sigma_basis(k, n) == value * (1 - qmono(1, q=k + 1))
        for p in (-2, 1, 3):
            for n in range(1, 5):
                assert colored_jones(p, n) == sum(
                    (masbaum_coeff(p, k) * sigma_basis(k, n)
                     for k in range(n)), LaurentPoly.zero()), (p, n)


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

    def test_never_expands_sigma_basis(self, monkeypatch):
        # the sum takes each sigma_k(n) factored, from SIGMA
        want = {(p, n): colored_jones(p, n)
                for p in (-2, 1, 3) for n in (1, 4, 6)}

        def refuse(k, n):
            raise AssertionError("sigma_basis expanded")

        monkeypatch.setattr(jones, "sigma_basis", refuse)
        for (p, n), value in want.items():
            assert colored_jones(p, n) == value

    def test_truncation_is_sound(self):
        # terms with k >= n contribute nothing
        p, n = 2, 4
        j = colored_jones(p, n)
        extra = sum((masbaum_coeff(p, k) * sigma_basis(k, n)
                     for k in (n, n + 1)), LaurentPoly.zero())
        assert extra == 0
        assert j + extra == j

    def test_q_degree_window(self):
        # ROADMAP item 25, first stage: the exact q-span of J(n), whose
        # second differences are the Jones slopes {4p + 2, 0} for p >= 1
        # and {4, 4p} for p <= -1
        for p in (1, 2, 3, 4, -1, -2, -3, -4):
            for n in range(1, 13):
                if p >= 1:
                    want = (n - 1,
                            ((2 * p + 1) * n * n - (2 * p - 1) * n - 2) // 2)
                else:
                    want = (p * (n * n - n), n * n - n)
                got = colored_jones(p, n, "habiro").var_range("q")
                assert got == want, (p, n)

    def test_rejects_bad_color(self):
        with pytest.raises(ValueError):
            colored_jones(1, 0)
        with pytest.raises(ValueError):
            colored_jones_multisum(1, -2)

    def test_named_knots_go_through_multisum(self):
        # the cyclotomic route takes a twist parameter only; a named
        # knot's double sum is its color-1 unit times the cyclotomic
        # sum at its twist parameter, as the jones command prints it
        for name, unit in (("5_2", -1), ("6_1", 1)):
            knot = KnotId.named(name)
            assert colored_jones_multisum(knot, 1) == LaurentPoly.const(unit)
            for n in range(1, 6):
                assert colored_jones_multisum(knot, n) == unit * colored_jones(
                    knot.twist_parameter(), n, "habiro"), (name, n)


def printed_summand(knot, n, k, l):
    """The summand sigma_k(n) c(k, l) as printed in the comments on
    jones.SIGMA and jones.LEVEL_PARTS: (parity, q-exponent, numerator
    and denominator Pochhammers as (base, index) pairs, indices of the
    binomials (1 - q^j))."""
    p = knot.twist_parameter()
    sigma = (0, n * k, [(-1, n + k), (-1, n - 1)],
             [(-1, n), (-1, n - k - 1)], [])
    if knot.name is None:
        level = (k + l, k * (k + 3) // 2 + p * l * (l + 1) + l * (l - 1) // 2,
                 [(1, k)], [(1, k + l + 1), (1, k - l)], [2 * l + 1])
    elif knot.name == "5_2":
        level = (k + 1, (3 * k * k + 5 * k) // 2 - l * (k + 1),
                 [(-1, k)], [(-1, l), (-1, k - l)], [])
    else:
        level = (0, -k * k - k + l * (k + 1),
                 [(1, k)], [(1, l), (1, k - l)], [])
    return tuple(a + b for a, b in zip(sigma, level))


class TestSummandF:
    def test_matches_printed_closed_forms(self):
        # NegativeIndex exactly where a printed numerator index is
        # negative, else zero where a denominator index is, else the
        # printed value, each Pochhammer expanded by the oracles
        expanded = {}

        def pochs(pairs):
            out = LaurentPoly.const(1)
            for base, i in pairs:
                if (base, i) not in expanded:
                    expanded[base, i] = qpoch(i) if base > 0 else inv_qpoch(i)
                out = out * expanded[base, i]
            return out

        knots = [KnotId.twist_knot(p) for p in (1, -1, 2, -2, 3, -3)]
        knots += [KnotId.named("5_2"), KnotId.named("6_1")]
        seen = Counter()
        for knot in knots:
            for n in range(-1, 7):
                for k in range(-2, 8):
                    for l in range(-2, 8):
                        parity, e, num, den, binoms = printed_summand(
                            knot, n, k, l)
                        if any(i < 0 for _, i in num):
                            with pytest.raises(NegativeIndex):
                                summand_factors(knot, n, k, l)
                            seen["raises"] += 1
                            continue
                        f = summand_factors(knot, n, k, l)
                        if any(i < 0 for _, i in den):
                            assert f.zero, (knot, n, k, l)
                            seen["zero"] += 1
                            continue
                        top = qmono(-1 if parity % 2 else 1, q=e) * pochs(num)
                        for j in binoms:
                            top = top * (1 - qmono(q=j))
                        assert qfactors_ratfunc(f) == \
                            RatFunc(top, pochs(den)), (knot, n, k, l)
                        seen["value"] += 1
        # each K_p has 92 points with a value, 5_2 and 6_1 have 56 each
        assert seen == {"raises": 2560, "zero": 3176, "value": 664}

    def test_negative_numerator_wins_in_any_order(self):
        # a negative denominator index listed first does not hide a
        # negative numerator index listed after it
        for pochs in (((DEN, 1, (-1, 0, 0, 0)), (NUM, 1, (-1, 0, 0, 0))),
                      ((NUM, -1, (-1, 0, 0, 0)), (DEN, -1, (-1, 0, 0, 0)))):
            with pytest.raises(NegativeIndex):
                jones._factors(ProductForm(qexp2=(), pochs=pochs), 0,
                               (1, 0, 0, 0))
        zero = ProductForm(qexp2=(), pochs=((DEN, 1, (-1, 0, 0, 0)),
                                            (NUM, 1, (0, 0, 0, 0))))
        assert jones._factors(zero, 0, (1, 0, 0, 0)).zero

    def test_base_point(self):
        # F(1, 0, 0) = 1 for every twist parameter
        knots = [KnotId.twist_knot(p) for p in (-2, -1, 1, 2)]
        knots += [KnotId.named("5_2"), KnotId.named("6_1")]
        values = [qfactors_ratfunc(summand_factors(knot, 1, 0, 0))
                  for knot in knots]
        assert values == [1, 1, 1, 1, -1, 1]

    def test_sums_to_multisum(self):
        knot = KnotId.twist_knot(-2)
        for n in (1, 2, 3):
            total = RatFunc.zero()
            for k in range(n):
                for l in range(k + 1):
                    total = total + qfactors_ratfunc(
                        summand_factors(knot, n, k, l))
            assert total == RatFunc(colored_jones_multisum(knot, n))

    def test_values_are_rational_not_polynomial(self):
        v = qfactors_ratfunc(summand_factors(KnotId.twist_knot(2), 4, 2, 1))
        with pytest.raises(InexactDivision):
            v.as_poly()


class TestShiftRatios:
    def test_n_step_closed_form(self):
        n_step = shift_ratio(KnotId.twist_knot(2), N_STEP)
        q1 = LaurentPoly.monomial(1, q=-1)
        # ratio_ratfunc writes K = q^k as x
        K = LaurentPoly.var("x")
        n1 = LaurentPoly.monomial(1, N=-1)
        k1 = LaurentPoly.monomial(1, x=-1)
        num = K * (1 - q1 * n1 * k1) * (1 - n1)
        den = (1 - q1 * n1) * (1 - n1 * K)
        assert ratio_ratfunc(n_step) == RatFunc(num, den)

    def test_l_step_sign_is_carried(self):
        # the numerator of the l quotient is negative: dropping its sign
        # breaks annihilation
        knot = KnotId.twist_knot(1)
        l_step = shift_ratio(knot, L_STEP)
        point, shifted = (4, 2, 1), (4, 2, 2)
        assert ratio_holds(l_step, knot, point, shifted)
        flipped = l_step._replace(sign=-l_step.sign)
        assert ratio_holds(flipped, knot, point, shifted) is False

    def test_k_step_requires_shifted_binomial(self):
        # the third numerator binomial of the k quotient steps with k;
        # the unstepped variant annihilates nothing
        knot = KnotId.twist_knot(1)
        k_step = shift_ratio(knot, K_STEP)
        assert (1, 0, 1, 0) in k_step.num
        broken = k_step._replace(num=((-1, -1, -1, 0), (1, -1, 1, 0),
                                      (0, 0, 1, 0)))
        assert ratio_holds(k_step, knot, (3, 1, 0), (3, 2, 0))
        assert ratio_holds(broken, knot, (3, 1, 0), (3, 2, 0)) is False

    def test_all_pairs_on_grid(self):
        cases = [KnotId.twist_knot(p) for p in (-2, 1)]
        cases.append(KnotId.named("5_2"))
        cases.append(KnotId.named("6_1"))
        for knot in cases:
            ratios = [(shift_ratio(knot, d), d) for d in STEPS]
            checked = 0
            for n in range(1, 8):
                for k in range(n):
                    for l in range(k + 1):
                        for ratio, d in ratios:
                            shifted = (n + d[0], k + d[1], l + d[2])
                            r = ratio_holds(ratio, knot, (n, k, l), shifted)
                            if r is not None:
                                assert r, (knot.label(), n, k, l, shifted)
                                checked += 1
            assert checked >= 200

    def test_two_steps_are_products_of_one_steps(self):
        # F(k+2)/F(k) = f1 * f1(K -> qK), F(n+1, k+1)/F = f0 * f1(N -> qN),
        # with K = q^k written x
        qk = LaurentPoly.monomial(1, q=1, x=1)
        qn = LaurentPoly.monomial(1, q=1, N=1)
        for knot in (KnotId.twist_knot(-2), KnotId.twist_knot(1),
                     KnotId.named("5_2"), KnotId.named("6_1")):
            f0 = ratio_ratfunc(shift_ratio(knot, N_STEP))
            f1 = ratio_ratfunc(shift_ratio(knot, K_STEP))
            assert ratio_ratfunc(shift_ratio(knot, (0, 2, 0))) == \
                f1 * f1.substitute_monomials(x=qk), knot.label()
            assert ratio_ratfunc(shift_ratio(knot, (1, 1, 0))) == \
                f0 * f1.substitute_monomials(N=qn), knot.label()


# The one-step shift quotients as shipped in closed form before they were
# derived from the summand description: (sign, monomial, numerator
# binomials, denominator binomials), the monomial and each binomial an
# exponent tuple on (q, N, K, L2).
GOLDEN_N_STEP = (1, (0, 0, 1, 0),
                 ((-1, -1, -1, 0), (0, -1, 0, 0)),
                 ((-1, -1, 0, 0), (0, -1, 1, 0)))
GOLDEN_TWIST_K_STEP = (-1, (2, 1, 1, 0),
                       ((-1, -1, -1, 0), (1, -1, 1, 0), (1, 0, 1, 0)),
                       ((2, 0, 1, 1), (1, 0, 1, -1)))
GOLDEN_TWIST_L_MONO = {
    -6: (-12, 0, 0, -11), -5: (-10, 0, 0, -9), -4: (-8, 0, 0, -7),
    -3: (-6, 0, 0, -5), -2: (-4, 0, 0, -3), -1: (-2, 0, 0, -1),
    0: (0, 0, 0, 1), 1: (2, 0, 0, 3), 2: (4, 0, 0, 5), 3: (6, 0, 0, 7),
    4: (8, 0, 0, 9), 5: (10, 0, 0, 11), 6: (12, 0, 0, 13),
}
GOLDEN_TWIST_L_BINOMS = (((3, 0, 0, 2), (0, 0, 1, -1)),
                         ((1, 0, 0, 2), (2, 0, 1, 1)))
GOLDEN_FIVETWO = (
    GOLDEN_N_STEP,
    (-1, (4, 1, 3, -1),
     ((-1, -1, -1, 0), (1, -1, 1, 0), (-1, 0, -1, 0)),
     ((-1, 0, -1, 1),)),
    (1, (-1, 0, -1, 0),
     ((0, 0, -1, 1),),
     ((-1, 0, 0, -1),)),
)


def _multisets(sign, mono, num, den):
    return (sign, mono, Counter(num), Counter(den))


class TestGoldenShiftTuples:
    def _check(self, knot, golden):
        for d, want in zip(STEPS, golden):
            ratio = shift_ratio(knot, d)
            got = _multisets(ratio.sign, ratio.mono, ratio.num, ratio.den)
            assert got == _multisets(*want), (knot.label(), want)

    def test_twist_knots(self):
        for p, l_mono in GOLDEN_TWIST_L_MONO.items():
            golden = (GOLDEN_N_STEP, GOLDEN_TWIST_K_STEP,
                      (-1, l_mono) + GOLDEN_TWIST_L_BINOMS)
            self._check(KnotId.twist_knot(p), golden)

    def test_fivetwo(self):
        self._check(KnotId.named("5_2"), GOLDEN_FIVETWO)


def _divides(b, poly):
    try:
        poly.exact_divide(b)
    except InexactDivision:
        return False
    return True


class TestAtQ1:
    # apoly._at_q1 is the one reader of a shift quotient at q = 1; it
    # sends N, K, L2 to m^2, x, y
    def test_twist_l_step_cancels_its_spectator(self):
        # (1 - q^3 L2^2) over (1 - q L2^2) both become (1 - y^2)
        step = shift_ratio(KnotId.twist_knot(2), L_STEP)
        assert (3, 0, 0, 2) in step.num and (1, 0, 0, 2) in step.den
        x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
        assert apoly._at_q1(step) == (x * y ** 4 - y ** 5, 1 - x * y)

    def test_no_binomial_left_on_both_sides(self):
        knots = [KnotId.twist_knot(p) for p in range(-4, 5)]
        knots += [KnotId.named("5_2"), KnotId.named("6_1")]
        for knot in knots:
            for step in (shift_ratio(knot, d) for d in STEPS):
                num, den = apoly._at_q1(step)
                assert num and den
                assert set(num.variables() + den.variables()) <= \
                    {"m", "x", "y"}
                for b in set(step.num + step.den):
                    binom = 1 - qmono(m=2 * b[1], x=b[2], y=b[3])
                    assert not (_divides(binom, num)
                                and _divides(binom, den)), (knot, b)


class TestAnnihilatorGenerators:
    # a shift quotient num / den, expanded, is the annihilator pair
    # den * F(shifted) = num * F
    def test_l_step_example_point(self):
        # B*F(n,k,l+1) - A*F(n,k,l) at (6,4,2) for the 5_2 summand
        knot = KnotId.named("5_2")
        A, B = ratio_polys(shift_ratio(knot, L_STEP))
        n, k, l = 6, 4, 2
        point = {"N": LaurentPoly.monomial(1, q=n),
                 "x": LaurentPoly.monomial(1, q=k),
                 "y": LaurentPoly.monomial(1, q=l)}
        bval = RatFunc(B.substitute_monomials(**point))
        aval = RatFunc(A.substitute_monomials(**point))
        lhs = bval * qfactors_ratfunc(summand_factors(knot, n, k, l + 1))
        rhs = aval * qfactors_ratfunc(summand_factors(knot, n, k, l))
        assert lhs == rhs

    def test_sixone_pairs_hold_at_a_point(self):
        # B*F(shifted) = A*F at (6, 3, 1) in each direction, 6_1 summand
        knot = KnotId.named("6_1")
        n, k, l = 6, 3, 1
        point = {"N": LaurentPoly.monomial(1, q=n),
                 "x": LaurentPoly.monomial(1, q=k),
                 "y": LaurentPoly.monomial(1, q=l)}
        f0 = qfactors_ratfunc(summand_factors(knot, n, k, l))
        for d in STEPS:
            shifted = (n + d[0], k + d[1], l + d[2])
            A, B = ratio_polys(shift_ratio(knot, d))
            f1 = qfactors_ratfunc(summand_factors(knot, *shifted))
            assert f1 != f0
            assert RatFunc(B.substitute_monomials(**point)) * f1 == \
                RatFunc(A.substitute_monomials(**point)) * f0, shifted


class TestNamedFormUnits:
    def test_units(self):
        # the unit is the named sum at color 1, and ties the named sum
        # to its twist knot's at every color
        for name, want in (("5_2", -1), ("6_1", 1)):
            u = named_form_unit(name)
            assert u == LaurentPoly.const(want)
            named = KnotId.named(name)
            twist = KnotId.twist_knot(named.twist_parameter())
            for n in range(1, 9):
                assert colored_jones_multisum(named, n) == \
                    u * colored_jones_multisum(twist, n), (name, n)


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

    # the same over the colors the benchmark requests, the printed
    # convention included, and the named double sums at n = 10
    WORKLOAD_DIGEST = ("864639a64f44699c0c47035e5f33c2e3"
                       "2a4031cf9b8c811c9b37e0d977f21e58")

    def test_workload_sizes_are_unchanged(self):
        polys = [colored_jones(p, n, "habiro")
                 for p, n in ((1, 16), (-1, 16), (3, 11), (-3, 11),
                              (4, 10), (-4, 10), (-2, 20))]
        polys += [colored_jones(p, 11, "printed") for p in (2, -3)]
        polys += [colored_jones_multisum(KnotId.named(name), 10)
                  for name in ("5_2", "6_1")]
        text = "".join(poly.text() + "\n" for poly in polys)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == self.WORKLOAD_DIGEST
