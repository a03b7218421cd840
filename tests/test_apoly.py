from fractions import Fraction
import hashlib

import pytest

from ajtwist.laurent import LaurentPoly, RatFunc, parse_poly
from ajtwist.apoly import (quad_a, quad_b, cd_coefficients, a_polynomial,
                           solve_meridian_x, h_polynomial, QuadQuotient,
                           h_via_reduction, b_polynomial, recursion_residual,
                           boundary_residual, verify_aj, reciprocity_report)
from ajtwist.jones import shift_ratios


M2L = parse_poly("m^2 + l")
FIG8 = parse_poly("-l + l*m^2 + m^4 + 2*l*m^4 + l^2*m^4 + l*m^6 - l*m^8")
FIVETWO = parse_poly("-l^2 + l^3 + 2*l^2*m^2 + l*m^4 + 2*l^2*m^4 - l*m^6"
                     " - l^2*m^8 + 2*l*m^10 + l^2*m^10 + 2*l*m^12 + m^14"
                     " - l*m^14")


class TestCD:
    def test_point_values(self):
        c, d = cd_coefficients()
        one = {"l": Fraction(1), "m": Fraction(1)}
        assert c.eval_fraction(one) == 8
        assert d.eval_fraction(one) == 16

    def test_c_is_cleared_a(self):
        c, _ = cd_coefficients()
        ax = RatFunc(quad_a()).substitute(x=solve_meridian_x())
        assert ax * RatFunc(M2L) ** 2 == RatFunc(c)

    def test_d_factored_form(self):
        _, d = cd_coefficients()
        assert d == parse_poly("m^4") * M2L ** 4


class TestAPolynomial:
    def test_base_cases(self):
        assert a_polynomial(1).text() == "l + m^6"
        assert a_polynomial(0) == 1
        assert a_polynomial(-1) == FIG8
        assert a_polynomial(2) == FIVETWO

    def test_one_recursion_step(self):
        c, d = cd_coefficients()
        assert a_polynomial(3) == c * FIVETWO - d * a_polynomial(1)
        assert a_polynomial(-2) == c * FIG8 - d

    def test_l_degree(self):
        for p in range(1, 7):
            assert a_polynomial(p).degree("l") == 2 * p - 1
        for p in range(-1, -7, -1):
            assert a_polynomial(p).degree("l") == -2 * p

    def test_variables(self):
        assert set(a_polynomial(4).variables()) <= {"l", "m"}
        lo, _ = a_polynomial(-4).var_range("m")
        assert lo >= 0


class TestMeridianX:
    def test_degenerate_points(self):
        x = solve_meridian_x()
        one = RatFunc.const(1)
        assert x.substitute(l=1) == one
        assert x.substitute(m=1) == one

    def test_n_ratio_forces_it(self):
        # q = 1, N = m^2 in the n-direction ratio, then x at its coupled
        # value, collapses to the longitude eigenvalue l
        f0 = shift_ratios(2).f0
        m2 = LaurentPoly.monomial(1, m=2)
        got = f0.substitute(q=1, N=m2, K=solve_meridian_x())
        assert got == RatFunc(LaurentPoly.var("l"))

    def test_k_ratio_forces_quadratic(self):
        # with x generic the k-direction ratio minus 1 clears to a
        # monomial multiple of the defining quadratic m^2 y^2 - a y + m^2
        f1 = shift_ratios(2).f1
        m2 = LaurentPoly.monomial(1, m=2)
        got = f1.substitute(q=1, N=m2, K=LaurentPoly.var("x"),
                            L2=LaurentPoly.var("y"))
        rel = (parse_poly("m^2") * (LaurentPoly.var("y") ** 2 + 1)
               - quad_a() * LaurentPoly.var("y"))
        q = (RatFunc.const(1) - got).num.exact_divide(rel)
        assert q.is_monomial()

    def test_l_ratio_gives_constraint(self):
        # the l-direction ratio at q = 1 is -y^(2p+1)(1 - x/y)/(1 - xy);
        # its =1 constraint clears to the reduction source polynomial.
        # RatFunc takes no polynomial gcds, so the specialized ratio
        # still carries the spectator factor (1 - y^2) on both sides.
        p = 2
        f2 = shift_ratios(p).f2
        m2 = LaurentPoly.monomial(1, m=2)
        got = f2.substitute(q=1, N=m2, K=LaurentPoly.var("x"),
                            L2=LaurentPoly.var("y"))
        want = parse_poly("y^5 - x*y^4 - x*y + 1")
        quotient = (RatFunc.const(1) - got).num.exact_divide(want)
        assert quotient == parse_poly("1 - y^2")


class TestHPolynomial:
    def test_seeds(self):
        assert h_polynomial(0) == 1
        assert h_polynomial(1) == quad_b().exact_divide(parse_poly("m^2"))
        want = parse_poly("x^2*m^2 + x*m^2 - x*m^4 - x + m^2")
        assert h_polynomial(-1) == want.exact_divide(parse_poly("m^2"))

    def test_three_term_shape_both_directions(self):
        step = quad_a().exact_divide(parse_poly("m^2"))
        for p in (2, 3, 4):
            assert h_polynomial(p) == \
                step * h_polynomial(p - 1) - h_polynomial(p - 2)
        for p in (-1, -2, -3):
            assert h_polynomial(p) == \
                step * h_polynomial(p + 1) - h_polynomial(p + 2)

    def test_x_degree(self):
        for p in range(1, 6):
            assert h_polynomial(p).degree("x") == 2 * p - 1
        for p in range(0, -6, -1):
            assert h_polynomial(p).degree("x") == -2 * p

    def test_integral_laurent_in_m(self):
        h = h_polynomial(4)
        assert set(h.variables()) <= {"m", "x"}


class TestQuadQuotient:
    def test_y_squared_folds(self):
        y = QuadQuotient.y()
        y2 = y * y
        assert y2.alpha == RatFunc(quad_a(), parse_poly("m^2"))
        assert y2.beta == RatFunc.const(-1)

    def test_y_inverse(self):
        prod = QuadQuotient.y() * QuadQuotient.y_inverse()
        assert prod.alpha == RatFunc.zero()
        assert prod.beta == RatFunc.const(1)

    def test_relation_reduces_to_zero(self):
        rel = (parse_poly("m^2") * (LaurentPoly.var("y") ** 2 + 1)
               - quad_a() * LaurentPoly.var("y"))
        assert QuadQuotient.reduce(rel).is_zero()
        assert QuadQuotient.reduce(rel * parse_poly("y^3 - x*y + m^2")) \
            .is_zero()

    def test_reduce_handles_negative_powers(self):
        got = QuadQuotient.reduce(LaurentPoly.monomial(1, y=-1))
        assert got == QuadQuotient.y_inverse()


class TestHViaReduction:
    def test_matches_tower(self):
        for p in list(range(-5, 0)) + list(range(1, 6)):
            assert h_via_reduction(p) == h_polynomial(p), p

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            h_via_reduction(0)


class TestBPolynomial:
    def test_base_cases(self):
        assert b_polynomial(0) == 1
        hand = (M2L * parse_poly("m^4 + 1")
                - parse_poly("m^2") * parse_poly("l*m^2 + 1"))
        assert b_polynomial(1) == hand
        assert b_polynomial(1) == parse_poly("l + m^6")
        assert b_polynomial(-1) == FIG8

    def test_pure_polynomial_output(self):
        for p in (-3, 2, 4):
            b = b_polynomial(p)
            assert set(b.variables()) <= {"l", "m"}
            assert b.var_range("l")[0] >= 0
            assert b.var_range("m")[0] >= 0


class TestRecursionLaw:
    def test_clean_range(self):
        for p in range(3, 7):
            assert recursion_residual(p) == 0, p
        for p in range(-2, -7, -1):
            assert recursion_residual(p) == 0, p

    def test_seam_defect_is_pinned(self):
        # at p = 2 the plain law fails by exactly one clearing factor
        r = recursion_residual(2)
        assert r != 0
        assert r == parse_poly("m^4") * M2L ** 3 * parse_poly("m^2 + l - 1")
        assert boundary_residual() == 0

    def test_rejects_inner_p(self):
        for p in (-1, 0, 1):
            with pytest.raises(ValueError):
                recursion_residual(p)


class TestVerifyAj:
    def test_full_sweep(self):
        for p in range(-6, 7):
            rep = verify_aj(p)
            assert rep.equal, (p, rep.unit, rep.diff[:2])
            assert rep.unit == 1
            assert rep.diff == []

    def test_json_shape(self):
        d = verify_aj(1).to_json_dict()
        assert d == {"p": 1, "equal": True, "unit": "1", "diff": []}


class TestReciprocity:
    def test_holds_on_sweep(self):
        for p in range(-4, 5):
            rep = reciprocity_report(a_polynomial(p))
            assert rep["palindromic"], p
            assert rep["sign"] == 1

    def test_detects_violation(self):
        broken = parse_poly("l^2 + l*m^2 + m^6")
        assert reciprocity_report(broken)["palindromic"] is False


class TestGoldenDigest:
    # sha256 over the text of the A-, B- and H-polynomials for p in
    # -6..6, one per line; a change to any printed polynomial or to the
    # multivariate text form changes it
    DIGEST = ("2379a781bb86db3a06a3c2fdc090756f"
              "6298437ef8b4325af34532020f8a40fe")

    def test_text_is_unchanged(self):
        text = "".join(build(p).text() + "\n"
                       for build in (a_polynomial, b_polynomial, h_polynomial)
                       for p in range(-6, 7))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
