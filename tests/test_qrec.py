"""Recurrence fixtures: grammar, grid certification, q = 1 shadow."""

from fractions import Fraction
import hashlib

import pytest

from ajtwist.laurent import LaurentPoly, InexactDivision, parse_poly
from ajtwist.apoly import a_polynomial
from ajtwist.jones import summand_family
from ajtwist.qrec import (RecurrenceTerm, RecurrenceSpec,
                          RecurrenceParseError, parse_recurrence,
                          serialize_recurrence, load_recurrence,
                          fixture_path, check_kfree, specialize_q1,
                          compare_with_apoly, _coeffs_at, _point_parts)

KFREE = load_recurrence("fivetwo_kfree")
FIVETWO = load_recurrence("fivetwo_inhom")
SIXONE = load_recurrence("sixone_inhom")

ABELIAN = parse_poly("1 + l*m^2")

TOY = """# toy two-term sequence relation
recurrence toy kind=inhom knot=K_2
term shift=(0) num= 1*q^0*N^1 + -1*q^0*N^0 den= 1*q^0*N^0
term shift=(1) num= 1*q^0*N^0 + -1*q^0*N^1 den= 1*q^0*N^0
"""


def residual_at(spec, n, k, l, base=2):
    """Exact residual value of a kfree relation at one interior point.

    A nonzero value at any rational base already proves the relation
    broken there; the zero direction is check_kfree's job.
    """
    fam = summand_family(spec.knot)
    parts = _point_parts(spec, fam, _coeffs_at(spec, n), n, k, l, "interior")
    assert parts is not None, "point is not interior"
    t = Fraction(base)
    return sum(p.eval_fraction({"q": t}) * f.eval_fraction(t)
               for p, f in parts)


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
        assert FIVETWO.term_by_shift((0,)).num == parse_poly("q^9*N^7")
        with pytest.raises(KeyError):
            FIVETWO.term_by_shift((9,))

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
        ("recurrence x knot=5_2\n", "missing kind"),
        ("recurrence x kind=inhom\n", "missing knot"),
        ("recurrence x kind=inhom knot=5_2 extra=1\n", "unknown field"),
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
         "den= 1\n", "bad monomial factor"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= 1 + + 1 "
         "den= 1\n", "misplaced '+'"),
        ("recurrence x kind=inhom knot=5_2\nterm shift=(0) num= 1 1 "
         "den= 1\n", "missing '+'"),
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
        assert err.value.col is not None

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
        assert [(f[0], f[1], f[2]) for f in rep.failures] == \
            [(n, 0, 0) for n in range(1, 7)]

    def test_empty_interior_grid_is_reported(self):
        rep = check_kfree(KFREE, (1, 3), mode="interior")
        assert rep.points == 0
        assert rep.ok
        assert "no interior grid points" in rep.note

    @pytest.mark.parametrize("n_range, mode", [
        ((6, 12), "interior"), ((1, 3), "interior"), ((1, 6), "full")])
    def test_points_and_skipped_cover_the_grid(self, n_range, mode):
        rep = check_kfree(KFREE, n_range, mode=mode)
        grid = sum(n * (n + 1) // 2 for n in range(n_range[0],
                                                   n_range[1] + 1))
        assert rep.points + rep.skipped == grid
        if mode == "full":
            assert rep.skipped == 0

    def test_report_json_shape(self):
        rep = check_kfree(KFREE, (6, 6), mode="interior")
        d = rep.to_json_dict()
        assert d["ok"] is True
        assert d["points"] == 18
        assert d["skipped"] == 3
        assert d["n_range"] == [6, 6]
        assert d["failures"] == []

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
        t = FIVETWO.term_by_shift((3,))
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
            t = FIVETWO.term_by_shift(shift)
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
        assert rep.diff
        row = rep.diff[0]
        assert set(row) == {"term", "computed", "expected"}
        d = rep.to_json_dict()
        assert d["equal"] is False
        assert d["unit"] is None
        assert d["p"] == 2

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
