"""Recurrence fixtures: grammar, grid certification, q = 1 shadow."""

from collections import Counter
import hashlib

import pytest

from ajtwist.laurent import LaurentPoly, InexactDivision, parse_poly
from ajtwist import qrec
from ajtwist.apoly import a_polynomial
from ajtwist.qrec import (RecurrenceTerm, RecurrenceSpec,
                          RecurrenceParseError, parse_recurrence,
                          load_recurrence, fixture_path, check_kfree,
                          specialize_q1, compare_with_apoly)
from oracles import residual_at, serialize_recurrence

KFREE = load_recurrence("fivetwo_kfree")
FIVETWO = load_recurrence("fivetwo_inhom")
SIXONE = load_recurrence("sixone_inhom")
FIVETWO_TERMS = {t.shift: t for t in FIVETWO.terms}

ABELIAN = parse_poly("1 + l*m^2")

TOY = """# toy two-term sequence relation
recurrence toy kind=inhom knot=K_2
term shift=(0) num= 1*q^0*N^1 + -1*q^0*N^0 den= 1*q^0*N^0
term shift=(1) num= 1*q^0*N^0 + -1*q^0*N^1 den= 1*q^0*N^0
"""


def flip_leading(spec, idx, where="num"):
    t = spec.terms[idx]
    poly = getattr(t, where)
    e, c = poly.leading()
    mutated = poly + LaurentPoly({e: -2 * c})
    terms = list(spec.terms)
    if where == "num":
        terms[idx] = RecurrenceTerm(t.shift, mutated, t.den)
    else:
        terms[idx] = RecurrenceTerm(t.shift, t.num, mutated)
    return RecurrenceSpec(spec.name, spec.kind, spec.knot, tuple(terms))


class TestGrammar:
    def test_toy_parses(self):
        spec = parse_recurrence(TOY)
        assert spec.name == "toy"
        assert spec.kind == "inhom"
        assert spec.knot.twist_parameter() == 2
        assert [t.shift for t in spec.terms] == [(0,), (1,)]

    def test_round_trip_is_identity(self):
        spec = parse_recurrence(TOY)
        assert parse_recurrence(serialize_recurrence(spec)) == spec

    def test_shipped_fixtures_round_trip(self):
        for spec in (KFREE, FIVETWO, SIXONE):
            text = serialize_recurrence(spec)
            again = parse_recurrence(text)
            assert again == spec
            # the serialized form itself is stable
            assert serialize_recurrence(again) == text

    @pytest.mark.parametrize("name, digest", [
        ("fivetwo_kfree", "a5e4e05f6a03d6ba73c610ee61290998"
                           "2cbc94e7374e28948037883c231676d1"),
        ("fivetwo_inhom", "c7441da054444a672ae554c8bd46614d"
                           "394a1093e85746668502e9a47f678342"),
        ("sixone_inhom", "742d410618702f5d822043e3a946ef57"
                          "1523291d96a5dc9b6801b7c2af65f9c0"),
    ])
    def test_serialized_fixture_digest(self, name, digest):
        # sha256 of the serialized shipped fixture; a change to the
        # serializer or to the term order changes it
        text = serialize_recurrence(load_recurrence(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_term_lookup(self):
        assert FIVETWO_TERMS[(0,)].num == parse_poly("q^9*N^7")
        assert (9,) not in FIVETWO_TERMS

    def test_fixture_path_resolves_bare_names(self):
        p = fixture_path("fivetwo_kfree")
        assert p.endswith("fivetwo_kfree.rec")
        assert fixture_path(p) == p

    def test_omitted_exponents_default(self):
        spec = parse_recurrence("recurrence t kind=inhom knot=5_2\n"
                                "term shift=(0) num= 2 den= 1\n"
                                "term shift=(1) num= q*N den= -1*q^-2\n")
        assert spec.terms[0].num == LaurentPoly.const(2)
        assert spec.terms[1].num == parse_poly("q*N")
        assert spec.terms[1].den == parse_poly("-q^(-2)")

    @pytest.mark.parametrize("text,fragment", [
        ("", "no recurrence header"),
        ("recurrence x kind=inhom knot=5_2\n", "at least two terms"),
        ("recurrence x kind=sum knot=5_2\n", "kfree or inhom"),
        ("recurrence x kind=inhom knot=8_1\n", "unknown knot"),
        ("recurrence x kind=inhom knot=K_+3\n",
         "unknown knot 'K_+3' (line 1, column 25)"),
        ("recurrence x knot=5_2\n", "missing kind"),
        ("recurrence x kind=inhom\n", "missing knot"),
        ("recurrence x kind=inhom knot=5_2 extra=1\n", "unknown field"),
        ("recurrence x kind=kfree knot=5_2 kind=inhom\n",
         "duplicate field 'kind' (line 1, column 34)"),
        ("term shift=(0) num= 1 den= 1\n", "before recurrence header"),
        ("recurrence x kind=inhom knot=5_2\nrecurrence y kind=inhom "
         "knot=5_2\n", "second recurrence header"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0,0,0) num= 1 "
         "den= 1\n", "1 shift offsets"),
        ("recurrence x kind=kfree knot=5_2\nterm shift=(0) num= 1 den= 1\n",
         "3 shift offsets"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= 1\n",
         "needs den="),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= den= 1\n",
         "empty num"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= 1*x^2 "
         "den= 1\n", "polynomials in q and N"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= 1 + + 1 "
         "den= 1\n", "expected a factor in num"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= 1 1 "
         "den= 1\n", "expected + or - after a term in num"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=[0] num= 1 den= 1\n",
         "malformed shift"),
        ("recurrence x kind=inhom knot=5_2\n"
         "term shift=(0) num= 1 den= 1\nterm shift=(0) num= 1 den= 1\n",
         "duplicate shift"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(RecurrenceParseError) as err:
            parse_recurrence(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        bad = "recurrence x kind=inhom knot=5_2\nterm shift=(0) num= w den= 1"
        with pytest.raises(RecurrenceParseError) as err:
            parse_recurrence(bad)
        assert err.value.line == 2
        assert err.value.col == 21  # "term shift=(0) num= " is 20 wide

    def test_alien_variable_is_refused_at_its_column(self):
        bad = ("recurrence x kind=inhom knot=5_2\n"
               "term shift=(0) num= 1*x^2 den= 1\n")
        with pytest.raises(RecurrenceParseError) as err:
            parse_recurrence(bad)
        assert (err.value.line, err.value.col) == (2, 23)
        assert "'x'" in str(err.value)
        assert "q and N" in str(err.value)

    def test_comments_and_blanks_ignored(self):
        text = "\n# leading comment\n" + TOY + "\n   # trailing\n"
        assert parse_recurrence(text) == parse_recurrence(TOY)

    def test_serializer_rejects_alien_variables(self):
        term = RecurrenceTerm((0,), parse_poly("x + 1"), LaurentPoly.const(1))
        spec = RecurrenceSpec("bad", "inhom", FIVETWO.knot, (term, term))
        with pytest.raises(ValueError):
            serialize_recurrence(spec)


class TestKfreeCertification:
    def test_interior_grid_is_exactly_zero(self):
        rep = check_kfree(KFREE, (6, 12), mode="interior")
        assert rep.ok
        assert rep.failures == []
        # n >= 6 and k >= 2 leave n(n+1)/2 - 3 points per color
        assert rep.points == sum(n * (n + 1) // 2 - 3 for n in range(6, 13))
        assert rep.points == 308

    def test_full_mode_reports_the_boundary_seam(self):
        rep = check_kfree(KFREE, (1, 6), mode="full")
        assert rep.points == sum(n * (n + 1) // 2 for n in range(1, 7))
        assert not rep.ok
        # with out-of-support values clamped to literal zero the relation
        # fails exactly on the k = 0 line, one point per color
        assert rep.failures == [(n, 0, 0) for n in range(1, 7)]

    def test_empty_interior_grid_is_reported(self):
        rep = check_kfree(KFREE, (1, 3), mode="interior")
        assert rep.points == 0
        assert rep.ok
        # all 1 + 3 + 6 points are skipped; cli refuses the empty check
        assert (rep.skipped, rep.failures) == (10, [])

    @pytest.mark.parametrize("n_range, mode", [
        ((6, 12), "interior"), ((1, 3), "interior"), ((1, 6), "full")])
    def test_points_and_skipped_cover_the_grid(self, n_range, mode):
        rep = check_kfree(KFREE, n_range, mode=mode)
        grid = sum(n * (n + 1) // 2 for n in range(n_range[0],
                                                   n_range[1] + 1))
        assert rep.points + rep.skipped == grid
        if mode == "full":
            assert rep.skipped == 0

    def test_denominators_are_folded(self):
        # one term's num and den times the same polynomial, nonzero at
        # every N = q^n, is the same relation; its den alone is not
        g = parse_poly("1 - 2*q*N + N^2")
        t = KFREE.terms[3]

        def with_term(num, den):
            terms = list(KFREE.terms)
            terms[3] = RecurrenceTerm(t.shift, num, den)
            return KFREE._replace(terms=tuple(terms))

        want = check_kfree(KFREE, (6, 8))
        assert want.ok and want.points and want.skipped
        both = check_kfree(with_term(t.num * g, t.den * g), (6, 8))
        assert (both.points, both.skipped, both.ok) == \
            (want.points, want.skipped, True)
        den_only = check_kfree(with_term(t.num, t.den * g), (6, 8))
        assert (den_only.points, den_only.skipped) == \
            (want.points, want.skipped)
        assert not den_only.ok and den_only.failures

    def test_vanishing_denominator_is_refused(self):
        terms = list(KFREE.terms)
        t = terms[2]
        terms[2] = RecurrenceTerm(t.shift, t.num, parse_poly("q^7 - N"))
        with pytest.raises(ZeroDivisionError):
            check_kfree(KFREE._replace(terms=tuple(terms)), (6, 8))

    def test_each_coefficient_is_converted_once(self, monkeypatch):
        # the parser builds each coefficient in one LaurentPoly call, and
        # check_kfree turns each coefficient, numerator and denominator,
        # into its dense q form once per n, not again at every (k, l)
        calls = Counter()
        convert = qrec.to_dense_qn
        add = LaurentPoly.__add__

        def counted_convert(poly, n):
            calls[n] += 1
            return convert(poly, n)

        def counted_add(poly, other):
            calls["+"] += 1
            return add(poly, other)

        monkeypatch.setattr(qrec, "to_dense_qn", counted_convert)
        monkeypatch.setattr(LaurentPoly, "__add__", counted_add)
        spec = load_recurrence("fivetwo_kfree")
        assert calls["+"] == 0
        rep = check_kfree(spec, (6, 9))
        assert rep.ok and rep.points == 118
        assert calls == {n: 2 * len(spec.terms) for n in range(6, 10)}

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            check_kfree(FIVETWO, (6, 8))
        with pytest.raises(ValueError):
            check_kfree(KFREE, (6, 8), mode="everything")


class TestSpecializeQ1:
    def test_toy_telescopes(self):
        got = specialize_q1(parse_recurrence(TOY))
        assert got == (parse_poly("l") - 1) * (1 - parse_poly("m^2"))

    def test_fivetwo_equals_apoly_times_abelian_squared(self):
        got = specialize_q1(FIVETWO)
        assert got == a_polynomial(2) * ABELIAN * ABELIAN

    def test_sixone_equals_apoly_times_abelian(self):
        got = specialize_q1(SIXONE)
        assert got == a_polynomial(-2) * ABELIAN

    def test_order_independence(self):
        want = specialize_q1(FIVETWO)
        rev = RecurrenceSpec(FIVETWO.name, FIVETWO.kind, FIVETWO.knot,
                             tuple(reversed(FIVETWO.terms)))
        assert specialize_q1(rev) == want
        mix = RecurrenceSpec(FIVETWO.name, FIVETWO.kind, FIVETWO.knot,
                             tuple(FIVETWO.terms[i] for i in
                                   (3, 0, 5, 1, 4, 2)))
        assert specialize_q1(mix) == want

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            specialize_q1(KFREE)

    def test_shift3_denominator_sign_regression(self):
        # the shipped shift-3 denominator starts (-1 + N); with the sign
        # flipped to (1 + N) the specialized term keeps a pole at
        # m^2 = -1, the sum stops being a polynomial, and the failure
        # must surface as an exact remainder confined to l^3
        t = FIVETWO_TERMS[(3,)]
        den = t.den.exact_divide(parse_poly("-1 + N")) * parse_poly("1 + N")
        terms = tuple(RecurrenceTerm(x.shift, x.num, den)
                      if x.shift == (3,) else x for x in FIVETWO.terms)
        broken = RecurrenceSpec(FIVETWO.name, FIVETWO.kind, FIVETWO.knot,
                                terms)
        with pytest.raises(InexactDivision) as err:
            specialize_q1(broken)
        msg = str(err.value)
        assert "remainder" in msg
        assert "l^3" in msg
        assert "l^2:" not in msg and "l^4" not in msg

    def test_two_broken_shifts_each_report_a_remainder(self):
        # the same sign flip as above, at shifts 1 and 3: each failing
        # shift gets its own l^i piece, in ascending i, and the shifts
        # that still divide exactly stay out of the message
        flip = {}
        for shift in ((1,), (3,)):
            t = FIVETWO_TERMS[shift]
            flip[shift] = (t.den.exact_divide(parse_poly("-1 + N"))
                           * parse_poly("1 + N"))
        terms = tuple(RecurrenceTerm(x.shift, x.num, flip[x.shift])
                      if x.shift in flip else x for x in FIVETWO.terms)
        broken = RecurrenceSpec(FIVETWO.name, FIVETWO.kind, FIVETWO.knot,
                                terms)
        with pytest.raises(InexactDivision) as err:
            specialize_q1(broken)
        msg = str(err.value)
        assert "remainder" in msg
        assert "l^1:" in msg and "l^3:" in msg
        assert msg.index("l^1:") < msg.index("l^3:")
        for i in (0, 2, 4, 5):
            assert "l^%d" % i not in msg

    def test_vanishing_denominator_is_an_error(self):
        spec = parse_recurrence(
            "recurrence z kind=inhom knot=5_2\n"
            "term shift=(0) num= 1 den= 1 + -1*q^2\n"
            "term shift=(1) num= 1 den= 1\n")
        with pytest.raises(ZeroDivisionError):
            specialize_q1(spec)


class TestCompareWithApoly:
    def test_round_trip_with_abelian_square(self):
        probe = a_polynomial(2) * ABELIAN * ABELIAN
        rep = compare_with_apoly(probe, 2)
        assert rep.equal
        assert rep.abelian_power == 2
        assert rep.unit == LaurentPoly.const(1)
        assert rep.diff == []

    def test_unit_is_recovered(self):
        probe = (a_polynomial(-2) * ABELIAN
                 * LaurentPoly.monomial(-1, m=4, l=1))
        rep = compare_with_apoly(probe, -2)
        assert rep.equal
        assert rep.abelian_power == 1
        assert rep.unit == LaurentPoly.monomial(-1, m=4, l=1)

    def test_no_abelian_factor_means_power_zero(self):
        rep = compare_with_apoly(a_polynomial(1), 1)
        assert rep.equal
        assert rep.abelian_power == 0

    def test_mismatch_emits_full_diff(self):
        probe = a_polynomial(2) + parse_poly("l*m^4")
        rep = compare_with_apoly(probe, 2)
        assert not rep.equal
        assert rep.unit is None
        assert rep.p == 2
        # the probe doubled A(2)'s l*m^4 coefficient and nothing else;
        # each row is (term, computed, expected)
        assert rep.diff == [("l*m^4", 2, 1)]

    def test_specialized_fixtures_take_the_happy_path(self):
        r5 = compare_with_apoly(specialize_q1(FIVETWO), 2)
        assert (r5.equal, r5.abelian_power, r5.unit) == \
            (True, 2, LaurentPoly.const(1))
        r6 = compare_with_apoly(specialize_q1(SIXONE), -2)
        assert (r6.equal, r6.abelian_power, r6.unit) == \
            (True, 1, LaurentPoly.const(1))


class TestMutationSensitivity:
    # (11, 3, 2) places every shifted argument strictly inside the
    # support box, so each term contributes a nonzero value and a single
    # sign flip anywhere must move the residual off zero
    POINT = (11, 3, 2)

    def test_unmutated_residual_vanishes_at_witness_point(self):
        assert residual_at(KFREE, *self.POINT) == 0

    def test_kfree_detects_every_leading_sign_flip(self):
        for idx in range(len(KFREE.terms)):
            mutated = flip_leading(KFREE, idx)
            assert residual_at(mutated, *self.POINT) != 0, \
                "flip in term %d went unnoticed" % idx

    def test_kfree_detects_interior_monomial_flip(self):
        t = KFREE.terms[5]
        mid = sorted(t.num.terms)[len(t.num.terms) // 2]
        num = t.num + LaurentPoly({mid: -2 * t.num.terms[mid]})
        terms = list(KFREE.terms)
        terms[5] = RecurrenceTerm(t.shift, num, t.den)
        mutated = RecurrenceSpec(KFREE.name, KFREE.kind, KFREE.knot,
                                 tuple(terms))
        assert residual_at(mutated, *self.POINT) != 0

    def test_kfree_detects_denominator_flip(self):
        mutated = flip_leading(KFREE, 3, where="den")
        assert residual_at(mutated, *self.POINT) != 0

    @pytest.mark.parametrize("spec,p", [(FIVETWO, 2), (SIXONE, -2)],
                             ids=["5_2", "6_1"])
    def test_inhom_detects_every_leading_sign_flip(self, spec, p):
        for idx in range(len(spec.terms)):
            mutated = flip_leading(spec, idx)
            try:
                rep = compare_with_apoly(specialize_q1(mutated), p)
            except InexactDivision:
                continue
            assert not rep.equal, "flip in term %d went unnoticed" % idx

    def test_inhom_detects_denominator_flip(self):
        mutated = flip_leading(FIVETWO, 1, where="den")
        with pytest.raises(InexactDivision):
            specialize_q1(mutated)
