from fractions import Fraction
import hashlib

import pytest

from ajtwist.laurent import VARS, LaurentPoly, parse_poly
from ajtwist import apoly, jones
from ajtwist.apoly import (quad_a, quad_b, cd_coefficients, a_polynomial,
                           solve_meridian_x, h_polynomial, quad_reduce,
                           h_via_reduction, b_polynomial, verify_aj,
                           compare_aj, saddle_constraint, linear_root)
from ajtwist.jones import NUM, KnotId, shift_ratio
from oracles import RatFunc, ratio_ratfunc, substitute


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
        ax = substitute(quad_a(), x=RatFunc(*solve_meridian_x()))
        assert ax * RatFunc(M2L) ** 2 == RatFunc(c)

    def test_d_factored_form(self):
        _, d = cd_coefficients()
        assert d == parse_poly("m^4") * M2L ** 4


class TestGoldenForms:
    # the constructive route's inputs as literals, so that deriving them
    # from the shift quotients cannot move them
    def test_quad_a(self):
        assert quad_a() == parse_poly("m^4 - x*m^4 + x^2*m^2 + m^2 + 1 - x")

    def test_meridian_x(self):
        assert solve_meridian_x() == (parse_poly("l*m^2 + 1"),
                                      parse_poly("m^2 + l"))

    def test_saddle_constraint(self):
        for p in range(1, 36):
            assert saddle_constraint(p) == parse_poly(
                "y^%d + 1 - x*y^%d - x*y" % (2 * p + 1, 2 * p)), p
            assert saddle_constraint(-p) == parse_poly(
                "y + y^%d - x - x*y^%d" % (2 * p, 2 * p + 1)), -p
        with pytest.raises(ValueError):
            saddle_constraint(0)


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
        x = RatFunc(*solve_meridian_x())
        one = RatFunc.const(1)
        assert x.substitute(l=1) == one
        assert x.substitute(m=1) == one

    def test_n_ratio_forces_it(self):
        # q = 1, N = m^2 in the n-direction ratio, then x at its coupled
        # value, collapses to the longitude eigenvalue l (ratio_ratfunc
        # already writes K, L2 as x, y)
        f0 = ratio_ratfunc(shift_ratio(KnotId.twist_knot(2), (1, 0, 0)))
        m2 = LaurentPoly.monomial(1, m=2)
        got = f0.substitute(q=1, N=m2, x=RatFunc(*solve_meridian_x()))
        assert got == RatFunc(LaurentPoly.var("l"))

    def test_k_ratio_forces_quadratic(self):
        # with x generic the k-direction ratio minus 1 clears to a
        # monomial multiple of the defining quadratic m^2 y^2 - a y + m^2
        f1 = ratio_ratfunc(shift_ratio(KnotId.twist_knot(2), (0, 1, 0)))
        m2 = LaurentPoly.monomial(1, m=2)
        got = f1.substitute(q=1, N=m2)
        rel = (parse_poly("m^2") * (LaurentPoly.var("y") ** 2 + 1)
               - quad_a() * LaurentPoly.var("y"))
        q = (RatFunc.const(1) - got).num.exact_divide(rel)
        assert len(q) == 1

    def test_l_ratio_gives_constraint(self):
        # the l-direction ratio at q = 1 is -y^(2p+1)(1 - x/y)/(1 - xy);
        # its =1 constraint clears to the reduction source polynomial.
        # RatFunc takes no polynomial gcds, so the specialized ratio
        # still carries the spectator factor (1 - y^2) on both sides.
        p = 2
        f2 = ratio_ratfunc(shift_ratio(KnotId.twist_knot(p), (0, 0, 1)))
        m2 = LaurentPoly.monomial(1, m=2)
        got = f2.substitute(q=1, N=m2)
        want = parse_poly("y^5 - x*y^4 - x*y + 1")
        quotient = (RatFunc.const(1) - got).num.exact_divide(want)
        assert quotient == parse_poly("1 - y^2")


class TestLinearRoot:
    # every x eliminated by substitution goes through this reader
    @pytest.mark.parametrize("poly", ["x^2 + x + 1", "l + m", "x^-1 + x"])
    def test_refuses_other_shapes(self, poly):
        with pytest.raises(ArithmeticError, match="^it is not linear in x$"):
            linear_root(parse_poly(poly), "it")

    def test_quadratic_n_step_is_refused(self, monkeypatch):
        step = apoly._step_at_q1

        def bent(p, dirn):
            num, den = step(p, dirn)
            return num + LaurentPoly.var("x", 2), den

        monkeypatch.setattr(apoly, "_step_at_q1", bent)
        with pytest.raises(ArithmeticError,
                           match="^n-step at q = 1 is not linear in x$"):
            solve_meridian_x()


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
    # reduction into the quotient algebra y^2 = (a/m^2) y - 1
    T = quad_a().exact_divide(parse_poly("m^2"))
    Y = LaurentPoly.var("y")

    def test_y_squared_folds(self):
        assert quad_reduce(self.Y ** 2) == (self.T, -1)

    def test_y_inverse(self):
        # y * (a/m^2 - y) is 1 in the algebra
        assert quad_reduce(self.Y * (self.T - self.Y)) == (0, 1)

    def test_relation_reduces_to_zero(self):
        rel = self.Y ** 2 - self.T * self.Y + 1
        for cofactor in ("1", "y^3 - x*y + m^2", "y^-4 + x"):
            assert quad_reduce(rel * parse_poly(cofactor)) == (0, 0)

    def test_reduce_handles_negative_powers(self):
        assert quad_reduce(LaurentPoly.monomial(1, y=-1)) == (-1, self.T)


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


def b_by_powers(p, h):
    # the plain assembly sum_j cof_j m^(2|p|) num^j den^(deg - j), each
    # power raised afresh, as an oracle for the Horner form
    deg = 2 * p - 1 if p > 0 else 2 * abs(p)
    num, den = solve_meridian_x()
    clear = LaurentPoly.monomial(1, m=2 * abs(p))
    out = LaurentPoly.zero()
    for j, cof in h.coefficients_in("x").items():
        out += cof * clear * num ** j * den ** (deg - j)
    return out


class TestBAssembly:
    # b_polynomial assembles in Horner form; these pin it to the plain
    # sum and to its guards on the x-degrees of h
    def patch_h(self, monkeypatch, h):
        monkeypatch.setattr(apoly, "h_polynomial", lambda p: h)

    def test_matches_plain_sum(self):
        # p = 0 has deg 0 and p = 1 a single Horner step
        for p in range(-8, 9):
            assert b_polynomial(p) == b_by_powers(p, h_polynomial(p)), p

    @pytest.mark.parametrize("p, extra, j", [
        (2, "x^4*m^2", 4),   # deg is 3: a loop over 0..deg would drop it
        (2, "x^-1", -1),
        (0, "x", 1),         # deg is 0: any x-term is outside
    ])
    def test_x_degree_outside_window_raises(self, monkeypatch, p, extra, j):
        self.patch_h(monkeypatch, h_polynomial(p) + parse_poly(extra))
        with pytest.raises(ArithmeticError, match="x-degree %d " % j):
            b_polynomial(p)

    def test_missing_top_coefficient(self, monkeypatch):
        # no x^deg term: the accumulator is still zero after the first
        # step, and the lower terms must keep their full den powers
        h = h_polynomial(3)
        cofs = h.coefficients_in("x")
        top = cofs.pop(5)
        assert top and set(cofs) == {0, 1, 2, 3, 4}
        h = h - top * LaurentPoly.var("x", 5)
        self.patch_h(monkeypatch, h)
        assert b_polynomial(3) == b_by_powers(3, h)

    def test_negative_exponent_after_clearing_raises(self, monkeypatch):
        # an m-order below -|p| survives the m^(2|p|) factor
        self.patch_h(monkeypatch, parse_poly("m^-3"))
        with pytest.raises(ArithmeticError, match="negative m-exponent"):
            b_polynomial(1)

    def test_product_cost(self, monkeypatch):
        # term pairs over every product in b_polynomial(19), counted as
        # the benchmark's trace counts them; raising num^j and
        # den^(deg - j) afresh for each j took 382,227
        mul = LaurentPoly.__mul__
        pairs = [0]

        def counted(a, b):
            pairs[0] += len(a.terms) * (
                len(b.terms) if isinstance(b, LaurentPoly) else 1)
            return mul(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
        b_polynomial(19)
        assert 0 < pairs[0] <= 382227 // 2


class TestBSympyOracle:
    # x = (l m^2 + 1)/(m^2 + l) substituted into h_p and cleared in
    # sympy's field Q(l, m), independent of the LaurentPoly kernel and
    # of the assembly
    def test_matches_substitution(self):
        sp = pytest.importorskip("sympy")
        field, l, m = sp.field("l,m", sp.ZZ)
        env = {"l": l, "m": m, "x": (l * m ** 2 + 1) / (m ** 2 + l)}

        def value(poly):
            out = field(0)
            for e, c in poly.terms.items():
                term = field(c)
                for v, k in zip(VARS, e):
                    if k:
                        term *= env[v] ** k
                out += term
            return out

        for p in (-3, -2, 2, 3, 5):
            deg = 2 * p - 1 if p > 0 else 2 * abs(p)
            want = (value(h_polynomial(p)) * m ** (2 * abs(p))
                    * (m ** 2 + l) ** deg)
            assert want.denom == 1, p
            assert value(b_polynomial(p)) == want, p


class TestRecursionLaw:
    def test_seam_defect_is_pinned(self):
        # at p = 2 the plain law fails by exactly one clearing factor
        c, d = cd_coefficients()
        r = b_polynomial(2) - (c * b_polynomial(1) - d * b_polynomial(0))
        assert r == parse_poly("m^4") * M2L ** 3 * parse_poly("m^2 + l - 1")


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


class TestVerifyAjByLaw:
    # verify_aj certifies p outside -1..2 by the three-term law from the
    # seeds; the direct comparison is its oracle, and each check of the
    # law is pinned by a mutation that only that check catches
    def test_matches_direct_comparison(self):
        for p in range(-20, 21):
            rep = verify_aj(p)
            assert rep.by_law == (p not in range(-1, 3)), p
            assert rep.to_json_dict() == compare_aj(p).to_json_dict(), p

    @pytest.mark.parametrize("dc, dd", [("l*m^2", "0"), ("0", "l^4*m^2")],
                             ids=["c", "d"])
    def test_wrong_multiplier_is_not_equal(self, monkeypatch, dc, dd):
        c, d = cd_coefficients()
        wrong = (c + parse_poly(dc), d + parse_poly(dd))
        monkeypatch.setattr(apoly, "cd_coefficients", lambda: wrong)
        for p in (5, -4):
            rep = verify_aj(p)
            assert not rep.equal and not rep.by_law, p

    def test_cubic_quad_a_is_refused(self, monkeypatch):
        # the tower then leaves b_polynomial's clearing window; the law
        # must not vouch for it, so p's own comparison refuses it
        cubic = quad_a() + parse_poly("x^3")
        monkeypatch.setattr(apoly, "quad_a", lambda: cubic)
        for p in (5, -4):
            with pytest.raises(ArithmeticError,
                               match="clearing window at p = %d$" % p):
                verify_aj(p)

    def test_wrong_seed_breaks_its_side_only(self, monkeypatch):
        seeds = apoly._initial_a_polynomials()
        seeds[2] += parse_poly("l^2*m^2")
        monkeypatch.setattr(apoly, "_initial_a_polynomials",
                            lambda: dict(seeds))
        rep = verify_aj(7)
        assert not rep.equal and not rep.by_law
        rep = verify_aj(-7)
        assert rep.equal and rep.by_law


class TestChainReadsSummand:
    # the constructive route is read off the summand description, so a
    # wrong summand must break it
    FORM = jones._SUMMAND_FORMS["K_p"]

    def mutate(self, monkeypatch, **changes):
        monkeypatch.setitem(jones._SUMMAND_FORMS, "K_p",
                            self.FORM._replace(**changes))

    def test_level_pochhammer_breaks_verify_aj(self, monkeypatch):
        # the level part's numerator (q)_k becomes (q)_(2k)
        level = (NUM, 1, (0, 0, 1, 0))
        assert level in self.FORM.pochs
        self.mutate(monkeypatch, pochs=tuple(
            (NUM, 1, (0, 0, 2, 0)) if poch == level else poch
            for poch in self.FORM.pochs))
        try:
            rep = verify_aj(2)
        except ArithmeticError:
            return
        assert not rep.equal

    def test_twist_shift_breaks_reduction(self, monkeypatch):
        # p l(l+1) gains l(l+1): the l-step is that of K_(p+1)
        self.mutate(monkeypatch,
                    qexp2=self.FORM.qexp2 + ((2, "ll"), (2, "l")))
        with pytest.raises(ArithmeticError):
            h_via_reduction(2)


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


class TestWorkloadBDigest:
    # sha256 over the text of B(p) at the p the verify-aj benchmark
    # reaches, one per line; the -6..6 digest above does not reach the
    # Horner loop's long runs
    DIGEST = ("650776dca50563174aedb9183154e79a"
              "1c0aafd47212d01e82a4aa76fcb33815")

    def test_text_is_unchanged(self):
        text = "".join(b_polynomial(p).text() + "\n"
                       for p in (-30, -19, -17, -15, -13, -11,
                                 11, 13, 15, 17, 19, 30))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
