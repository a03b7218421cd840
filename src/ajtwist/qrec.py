"""Recurrence fixtures and their certification.

Large machine-generated recurrences live in .rec files (see GRAMMAR
below) rather than in code, so a transcription slip is a one-line diff
instead of a buried constant.  Two kinds are supported:

  kfree   a relation among shifted copies of the double-sum summand
          F(n, k, l), with coefficients polynomial in q and q^n.
          check_kfree certifies that the relation annihilates the
          summand on an exact integer grid.

  inhom   a relation among shifted colored Jones values J(n + i) with
          rational-in-(q, q^n) coefficients and an unprinted right hand
          side.  Only its q = 1 shadow is certifiable: specialize_q1
          sends q to 1, q^n to m^2, J(n + i) to l^i, divides each
          coefficient's numerator by its own denominator exactly (the
          shifts are distinct, so the shadow is a polynomial exactly
          when every such division is), and compare_with_apoly divides
          out 1 + m^2 l and holds the rest against A(p).

check_kfree and compare_with_apoly return named tuples of facts
(CheckReport, CompareReport); cli renders them.

GRAMMAR (UTF-8, line oriented, # comments):

    recurrence <name> kind=<kfree|inhom> knot=<K_p|5_2|6_1>
    term shift=(i[,jk,jl]) num= <poly> den= <poly>

Each <poly> is laurent.parse_poly text in q and N = q^n, fully expanded,
never a factored product: "-q^2*N + 3 - q^(-1)".  The fixture writer
the tests keep (tests/oracles.py) spells every monomial c*q^a*N^b.
"""

from collections import namedtuple
from itertools import islice
import os
import re
import sys

from . import _bind_on_lookup
from .laurent import (LaurentPoly, InexactDivision, PolyParseError,
                      coefficient_diff, parse_poly, unit_ratio)
from .qseries import (QFactors, NegativeIndex, is_zero_sum, to_dense,
                      to_dense_qn)
from .jones import KnotId, NAMED_KNOTS, summand_factors

# a_polynomial is bound on first lookup, so that rec-check never loads
# apoly; compare_with_apoly calls it as _qrec.a_polynomial, so a patch on
# qrec.a_polynomial still reaches it
_qrec = sys.modules[__name__]
__getattr__ = _bind_on_lookup(globals())


class RecurrenceParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = " (line %d%s)" % (line,
                                      "" if col is None else ", column %d"
                                      % col)
        super().__init__(message + where)


class RecurrenceTerm(namedtuple("RecurrenceTerm", "shift num den")):
    """One summand of a recurrence: coefficient times a shifted value.

    shift is (i,) for sequence recurrences and (i, jk, jl) for summand
    ones; num/den hold the coefficient as Laurent polynomials in (q, N).
    """

    __slots__ = ()


class RecurrenceSpec(namedtuple("RecurrenceSpec", "name kind knot terms")):
    """A parsed .rec file: its header fields and a tuple of terms."""

    __slots__ = ()


_DEN = re.compile(r"(?<!\S)den=(?!\S)")
# a letter other than q and N, and the rest of its word
_ALIEN = re.compile(r"[A-MO-Za-pr-z]\w*")


def _coefficient(line, start, end, lineno, what):
    """line[start:end] read by parse_poly, as a polynomial in q and N."""
    text = line[start:end]
    if not text.strip():
        raise RecurrenceParseError("empty %s" % what, lineno)
    alien = _ALIEN.search(text)
    if alien:
        raise RecurrenceParseError(
            "variable %r in %s; coefficients are polynomials in q and N"
            % (alien.group(), what), lineno, start + alien.start() + 1)
    try:
        return parse_poly(text)
    except PolyParseError as err:
        raise RecurrenceParseError("%s in %s" % (err.reason, what), lineno,
                                   start + err.pos + 1) from None


def _parse_knot(token, lineno, col):
    if token in NAMED_KNOTS:
        return KnotId.named(token)
    m = re.fullmatch(r"K_(-?\d+)", token)
    if m:
        return KnotId.twist_knot(int(m.group(1)))
    raise RecurrenceParseError("unknown knot %r" % token, lineno, col)


def parse_recurrence(text):
    spec_name = None
    kind = None
    knot = None
    terms = []
    nshift = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        # a term line is read as tokens only up to num=
        words = re.finditer(r"\S+", line)
        tokens = [(m.group(0), m.start() + 1) for m in islice(words, 3)]
        head, col0 = tokens[0]
        if head == "recurrence":
            tokens += [(m.group(0), m.start() + 1) for m in words]
            if spec_name is not None:
                raise RecurrenceParseError("second recurrence header",
                                           lineno, col0)
            fields = {}
            if len(tokens) < 2 or "=" in tokens[1][0]:
                raise RecurrenceParseError("recurrence needs a name",
                                           lineno, col0)
            spec_name = tokens[1][0]
            for tok, col in tokens[2:]:
                if "=" not in tok:
                    raise RecurrenceParseError("expected key=value, got %r"
                                               % tok, lineno, col)
                key, val = tok.split("=", 1)
                fields[key] = (val, col)
            try:
                kindval, kcol = fields.pop("kind")
            except KeyError:
                raise RecurrenceParseError("missing kind=", lineno) from None
            if kindval not in ("kfree", "inhom"):
                raise RecurrenceParseError("kind must be kfree or inhom",
                                           lineno, kcol)
            kind = kindval
            try:
                knotval, ncol = fields.pop("knot")
            except KeyError:
                raise RecurrenceParseError("missing knot=", lineno) from None
            knot = _parse_knot(knotval, lineno, ncol)
            if fields:
                k = sorted(fields)[0]
                raise RecurrenceParseError("unknown field %r" % k, lineno,
                                           fields[k][1])
            nshift = 3 if kind == "kfree" else 1
            continue
        if head != "term":
            raise RecurrenceParseError("expected 'term' or 'recurrence', "
                                       "got %r" % head, lineno, col0)
        if spec_name is None:
            raise RecurrenceParseError("term before recurrence header",
                                       lineno, col0)
        if len(tokens) < 2 or not tokens[1][0].startswith("shift="):
            raise RecurrenceParseError("term needs shift=(...)", lineno)
        sval, scol = tokens[1][0][len("shift="):], tokens[1][1]
        m = re.fullmatch(r"\((-?\d+(?:,-?\d+)*)\)", sval)
        if m is None:
            raise RecurrenceParseError("malformed shift %r" % sval,
                                       lineno, scol)
        shift = tuple(int(x) for x in m.group(1).split(","))
        if len(shift) != nshift:
            raise RecurrenceParseError(
                "kind %s needs %d shift offsets, got %d"
                % (kind, nshift, len(shift)), lineno, scol)
        if len(tokens) < 3 or tokens[2][0] != "num=":
            raise RecurrenceParseError("term needs num=", lineno)
        start = tokens[2][1] + 3   # just past num=
        mark = _DEN.search(line, start)
        if mark is None:
            raise RecurrenceParseError("term needs den=", lineno)
        num = _coefficient(line, start, mark.start(), lineno, "num")
        den = _coefficient(line, mark.end(), len(line), lineno, "den")
        if not den:
            raise RecurrenceParseError("zero denominator", lineno)
        if any(t.shift == shift for t in terms):
            raise RecurrenceParseError("duplicate shift %r" % (shift,),
                                       lineno, scol)
        terms.append(RecurrenceTerm(shift, num, den))
    if spec_name is None:
        raise RecurrenceParseError("no recurrence header found")
    if len(terms) < 2:
        raise RecurrenceParseError("need at least two terms")
    return RecurrenceSpec(spec_name, kind, knot, tuple(terms))


def fixture_path(name):
    """Absolute path of a shipped fixture; accepts bare names."""
    if os.sep in name or os.path.exists(name):
        return name
    if not name.endswith(".rec"):
        name += ".rec"
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def load_recurrence(path):
    with open(fixture_path(path), encoding="utf-8") as fh:
        return parse_recurrence(fh.read())


class CheckReport(namedtuple("CheckReport", "name mode n_lo n_hi points "
                                            "skipped failures")):
    """Outcome of a grid certification run: the points checked and
    skipped, and failures, the (n, k, l) whose residual is nonzero."""

    __slots__ = ()

    @property
    def ok(self):
        return not self.failures


def check_kfree(spec, n_range, mode="interior"):
    """Certify that a kfree recurrence annihilates its summand.

    Every (n, k, l) with n in n_range, 0 <= l <= k <= n-1 is visited.
    interior mode keeps only points where each shifted argument is
    formula-evaluable (no factor with a negative index in a numerator
    position; a negative index in a denominator is the conventional
    zero) and skips the rest, counting them in the report's skipped.
    full mode instead treats every out-of-support shifted argument as
    literal zero.

    The residual at each point is a sum of coefficient-times-product
    values; it is proven zero, or not, by one exact evaluation at an
    integer base large enough that no cancellation can hide (see
    qseries.is_zero_sum).  Nonzero residuals are reported, never raised.
    """
    if spec.kind != "kfree":
        raise ValueError("check_kfree wants a kfree spec, got %s" % spec.kind)
    if mode not in ("interior", "full"):
        raise ValueError("mode must be interior or full")
    n_lo, n_hi = n_range
    points = skipped = 0
    failures = []
    for n in range(n_lo, n_hi + 1):
        coeff_cache = _coeffs_at(spec, n)
        for k in range(n):
            for l in range(k + 1):
                parts = _point_parts(spec, coeff_cache, n, k, l, mode)
                if parts is None:
                    skipped += 1
                    continue
                points += 1
                zero, _ = is_zero_sum(parts)
                if not zero:
                    failures.append((n, k, l))
    return CheckReport(spec.name, mode, n_lo, n_hi, points, skipped,
                       failures)


def _point_parts(spec, coeffs, n, k, l, mode):
    """(dense coefficient, summand QFactors) pairs at one grid point.

    None marks a point that interior mode skips."""
    parts = []
    for t in spec.terms:
        i, jk, jl = t.shift
        try:
            f = summand_factors(spec.knot, n + i, k + jk, l + jl)
        except NegativeIndex:
            if mode == "interior":
                return None
            f = QFactors.make_zero()
        if mode == "full" and not _in_support(n + i, k + jk, l + jl):
            f = QFactors.make_zero()
        parts.append((coeffs[t.shift], f))
    return parts


def _in_support(n, k, l):
    return n >= 1 and 0 <= l <= k <= n - 1


def _coeffs_at(spec, n):
    """Dense coefficients in q at N = q^n, denominators cleared.

    Kfree fixtures ship with den = 1; a nontrivial denominator is folded
    into every other term's numerator in (q, N), so the zero test still
    runs on polynomials.  N = q^n is a ring map, so folding before it is
    folding after it.  Each coefficient is converted once here, for
    every (k, l) at this n.
    """
    out = {}
    for t in spec.terms:
        if not to_dense_qn(t.den, n)[1]:
            raise ZeroDivisionError("denominator of shift %r vanishes at "
                                    "n = %d" % (t.shift, n))
        num = t.num
        for u in spec.terms:
            if u is not t and u.den != 1:
                num = num * u.den
        out[t.shift] = to_dense_qn(num, n)
    return out


def specialize_q1(spec):
    """q = 1 shadow of a sequence recurrence, as a polynomial in (l, m).

    Each coefficient is specialized with q -> 1 and q^n -> m^2 and
    attached to l^i for its shift i.  The shifts are distinct, so the
    l^i coefficient of the shadow is num_i / den_i alone, and the shadow
    is a polynomial exactly when each of those quotients is exact.  That
    exactness is the point: it certifies the claim that the specialized
    denominators cancel.
    """
    if spec.kind != "inhom":
        raise ValueError("specialize_q1 wants an inhom spec, got %s"
                         % spec.kind)
    m2 = LaurentPoly.monomial(1, m=2)
    total = LaurentPoly.zero()
    failures = []
    for t in sorted(spec.terms, key=lambda term: term.shift):
        num = t.num.substitute_monomials(q=1, N=m2)
        den = t.den.substitute_monomials(q=1, N=m2)
        if not den:
            raise ZeroDivisionError("denominator of shift %r vanishes at "
                                    "q = 1" % (t.shift,))
        try:
            quo = num.exact_divide(den)
        except InexactDivision:
            failures.append("l^%d: %s" % (t.shift[0],
                                          _m_remainder_text(num, den)))
            continue
        total += LaurentPoly.monomial(1, l=t.shift[0]) * quo
    if failures:
        raise InexactDivision(
            "q=1 coefficient is not divisible by its denominator; "
            "remainder %s" % "; ".join(failures))
    return total


def _m_remainder_text(num, den):
    """Remainder of num by den over the rationals, both in m alone."""
    # only a failed specialize_q1 needs fractions, so it loads here
    from fractions import Fraction
    _, dcofs = to_dense(den, "m")
    nlo, ncofs = to_dense(num, "m")
    ncofs = [Fraction(c) for c in ncofs]
    while len(ncofs) >= len(dcofs):
        q = ncofs[-1] / dcofs[-1]
        off = len(ncofs) - len(dcofs)
        for j, c in enumerate(dcofs):
            ncofs[off + j] -= q * c
        ncofs.pop()
    txt = " + ".join("%s*m^%d" % (c, nlo + j)
                     for j, c in enumerate(ncofs) if c)
    return txt or "0 (content mismatch)"


class CompareReport(namedtuple("CompareReport",
                               "p abelian_power equal unit diff")):
    """Specialized recurrence vs the recursively built A-polynomial.

    abelian_power is how often 1 + m^2 l divided out; unit is the
    monomial mapping the rest onto A(p), or None if there is none, and
    diff is then the coefficient_diff of the two, each normalized.
    """

    __slots__ = ()


def compare_with_apoly(poly, p):
    """Strip abelian factors from poly and diff it against a_polynomial(p).

    The specialized recurrence carries the extra factor (1 + m^2 l) to
    some power; divide it out as often as it goes, then ask whether a
    single monomial unit +-l^a m^b maps the rest onto the A-polynomial.
    When not, the report carries the exact coefficient diff of the
    min-exponent-normalized polynomials.
    """
    stripped, power = poly.divide_out(
        LaurentPoly.const(1) + LaurentPoly.monomial(1, l=1, m=2))
    target = _qrec.a_polynomial(p)
    u = unit_ratio(stripped, target)
    if u is not None:
        return CompareReport(p, power, True, u, [])
    return CompareReport(p, power, False, None, coefficient_diff(
        _normalize_for_diff(stripped), _normalize_for_diff(target)))


def _normalize_for_diff(p):
    if not p:
        return p
    p = p * LaurentPoly.monomial(1, l=-p.var_range("l")[0],
                                 m=-p.var_range("m")[0])
    if p.leading()[1] < 0:
        p = -p
    return p
