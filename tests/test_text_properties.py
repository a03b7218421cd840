"""Property tests for the two text forms: LaurentPoly.text with
parse_poly, and serialize_recurrence with parse_recurrence.

Each printed form must parse back to the value it was printed from, and
a .rec coefficient may be spelled either way.
"""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ajtwist.jones import KnotId
from ajtwist.laurent import VARS, LaurentPoly, parse_poly
from ajtwist.qrec import RecurrenceSpec, RecurrenceTerm, parse_recurrence
from oracles import serialize_recurrence

SETTINGS = settings(max_examples=200, deadline=None)

coeffs = st.integers(-60, 60).filter(bool)


def polys(names, max_terms=5, min_terms=0):
    monomial = st.builds(
        lambda c, exps: LaurentPoly.monomial(c, **exps),
        coeffs, st.dictionaries(st.sampled_from(names), st.integers(-4, 4)))
    return st.lists(monomial, min_size=min_terms, max_size=max_terms).map(
        lambda ms: sum(ms, LaurentPoly.zero()))


@SETTINGS
@given(polys(VARS))
def test_parse_inverts_text(p):
    assert parse_poly(p.text()) == p


knots = st.one_of(st.integers(-9, 9).map(KnotId.twist_knot),
                  st.sampled_from(("5_2", "6_1")).map(KnotId.named))
coefficients = polys(("q", "N"), max_terms=4, min_terms=1).filter(bool)
names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(("kfree", "inhom")))
    width = 3 if kind == "kfree" else 1
    shifts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * width),
                           min_size=2, max_size=4, unique=True))
    terms = tuple(RecurrenceTerm(s, draw(coefficients), draw(coefficients))
                  for s in shifts)
    return RecurrenceSpec(draw(names), kind, draw(knots), terms)


@SETTINGS
@given(specs())
def test_parse_inverts_serialize(spec):
    assert parse_recurrence(serialize_recurrence(spec)) == spec


def text_spelling(spec):
    """spec as .rec text with each coefficient printed by text(): bare q
    and N, omitted factors, - between terms."""
    lines = ["recurrence %s kind=%s knot=%s"
             % (spec.name, spec.kind, spec.knot.label())]
    for t in spec.terms:
        lines.append("term shift=(%s) num= %s den= %s"
                     % (",".join(map(str, t.shift)), t.num.text(),
                        t.den.text()))
    return "\n".join(lines) + "\n"


@SETTINGS
@given(specs())
def test_both_spellings_read_the_same(spec):
    assert (parse_recurrence(text_spelling(spec))
            == parse_recurrence(serialize_recurrence(spec)) == spec)
