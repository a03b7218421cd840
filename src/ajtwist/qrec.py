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
          when every such division is), and compare_with_apoly holds
          the result against the recursively built A-polynomial.

GRAMMAR (UTF-8, line oriented, # comments):

    recurrence <name> kind=<kfree|inhom> knot=<K_p|5_2|6_1>
    term shift=(i[,jk,jl]) num= <c>*q^<a>*N^<b> [+ ...] den= [...]

Coefficients are stored fully expanded, one monomial at a time, never
as factored products; N stands for q^n.  Exponents are signed decimal
integers and may be omitted when zero (a bare q or N means power one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
import os
import re

from .laurent import LaurentPoly, RatFunc, InexactDivision, unit_ratio
from .qseries import QFactors, NegativeIndex, is_zero_sum
from .jones import KnotId, summand_family
from .apoly import a_polynomial


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


@dataclass(frozen=True)
class RecurrenceTerm:
    """One summand of a recurrence: coefficient times a shifted value.

    shift is (i,) for sequence recurrences and (i, jk, jl) for summand
    ones; num/den hold the coefficient as Laurent polynomials in (q, N).
    """

    shift: tuple
    num: LaurentPoly
    den: LaurentPoly

    def coeff(self):
        return RatFunc(self.num, self.den)


@dataclass(frozen=True)
class RecurrenceSpec:
    name: str
    kind: str
    knot: KnotId
    terms: tuple

    def term_by_shift(self, shift):
        for t in self.terms:
            if t.shift == tuple(shift):
                return t
        raise KeyError("no term with shift %r" % (shift,))


_MONO_RE = re.compile(r"(-?\d+)|([qN])(?:\^(-?\d+))?")


def _parse_monomials(tokens, lineno, what):
    """Tokens like '3*q^2*N^-1' joined by '+' into one LaurentPoly."""
    total = LaurentPoly.zero()
    expect_mono = True
    got_any = False
    for tok, col in tokens:
        if tok == "+":
            if expect_mono:
                raise RecurrenceParseError("misplaced '+' in %s" % what,
                                           lineno, col)
            expect_mono = True
            continue
        if not expect_mono:
            raise RecurrenceParseError("missing '+' before %r in %s"
                                       % (tok, what), lineno, col)
        coeff = 1
        qexp = 0
        nexp = 0
        pos = 0
        for part in tok.split("*"):
            m = _MONO_RE.fullmatch(part)
            if m is None:
                raise RecurrenceParseError(
                    "bad monomial factor %r in %s" % (part, what),
                    lineno, col + pos)
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            elif m.group(2) == "q":
                qexp += 1 if m.group(3) is None else int(m.group(3))
            else:
                nexp += 1 if m.group(3) is None else int(m.group(3))
            pos += len(part) + 1
        total += LaurentPoly.monomial(coeff, q=qexp, N=nexp)
        expect_mono = False
        got_any = True
    if not got_any or expect_mono:
        raise RecurrenceParseError("empty %s" % what, lineno)
    return total


def _parse_knot(token, lineno, col):
    if token in ("5_2", "6_1"):
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
        tokens = [(m.group(0), m.start() + 1)
                  for m in re.finditer(r"\S+", line)]
        head, col0 = tokens[0]
        if head == "recurrence":
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
        rest = tokens[2:]
        if not rest or rest[0][0] != "num=":
            raise RecurrenceParseError("term needs num=", lineno)
        try:
            split = [t[0] for t in rest].index("den=")
        except ValueError:
            raise RecurrenceParseError("term needs den=", lineno) from None
        num = _parse_monomials(rest[1:split], lineno, "num")
        den = _parse_monomials(rest[split + 1:], lineno, "den")
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


def _coeff_text(poly):
    # the serialized form is always the explicit triple c*q^a*N^b, in
    # descending (q, N) order
    if set(poly.variables()) - {"q", "N"}:
        raise ValueError("coefficient uses a variable other than q and N")
    return " + ".join(
        "%d*q^%d*N^%d" % (c, a, b)
        for a, rest in sorted(poly.coefficients_in("q").items(), reverse=True)
        for b, c in sorted(rest.univariate_coefficients("N").items(),
                           reverse=True))


def serialize_recurrence(spec):
    knot = spec.knot.label() if not spec.knot.is_named else spec.knot.name
    lines = ["recurrence %s kind=%s knot=%s" % (spec.name, spec.kind, knot)]
    for t in spec.terms:
        shift = "(%s)" % ",".join(str(x) for x in t.shift)
        lines.append("term shift=%s num= %s den= %s"
                     % (shift, _coeff_text(t.num), _coeff_text(t.den)))
    return "\n".join(lines) + "\n"


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


@dataclass
class CheckReport:
    """Outcome of a grid certification run."""

    name: str
    mode: str
    n_lo: int
    n_hi: int
    points: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)
    note: str = ""

    @property
    def ok(self):
        return not self.failures

    def to_json_dict(self):
        return {"name": self.name, "mode": self.mode,
                "n_range": [self.n_lo, self.n_hi], "points": self.points,
                "skipped": self.skipped, "ok": self.ok, "note": self.note,
                "failures": [list(f) for f in self.failures]}


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
    fam = summand_family(spec.knot)
    n_lo, n_hi = n_range
    rep = CheckReport(spec.name, mode, n_lo, n_hi)
    for n in range(n_lo, n_hi + 1):
        coeff_cache = _coeffs_at(spec, n)
        for k in range(n):
            for l in range(k + 1):
                parts = _point_parts(spec, fam, coeff_cache, n, k, l, mode)
                if parts is None:
                    rep.skipped += 1
                    continue
                rep.points += 1
                zero, _ = is_zero_sum(parts)
                if not zero:
                    rep.failures.append((n, k, l, "nonzero residual"))
    if rep.points == 0:
        rep.note = ("no %s grid points in n range [%d, %d]"
                    % (mode, n_lo, n_hi))
    return rep


def _point_parts(spec, fam, coeffs, n, k, l, mode):
    """(coefficient poly, summand QFactors) pairs at one grid point.

    None marks a point that interior mode skips."""
    parts = []
    for t in spec.terms:
        i, jk, jl = t.shift
        try:
            f = fam(n + i, k + jk, l + jl)
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
    """Coefficient q-polynomials at N = q^n, denominators cleared.

    Kfree fixtures ship with den = 1; a nontrivial denominator is folded
    into every other term so the zero test still runs on polynomials.
    """
    qn = LaurentPoly.monomial(1, q=n)
    nums = []
    dens = []
    for t in spec.terms:
        nums.append(t.num.substitute_monomials(N=qn))
        den = t.den.substitute_monomials(N=qn)
        if not den:
            raise ZeroDivisionError("denominator of shift %r vanishes at "
                                    "n = %d" % (t.shift, n))
        dens.append(den)
    trivial = all(d.is_const() and d.const_value() == 1 for d in dens)
    out = {}
    for i, t in enumerate(spec.terms):
        poly = nums[i]
        if not trivial:
            for j, d in enumerate(dens):
                if j != i:
                    poly = poly * d
        out[t.shift] = poly
    return out


def _m_coeff_list(p):
    """LaurentPoly in m alone -> (min exponent, dense coefficient list)."""
    if not p:
        return 0, []
    lo, hi = p.var_range("m")
    out = [0] * (hi - lo + 1)
    for a, c in p.univariate_coefficients("m").items():
        out[a - lo] = c
    return lo, out


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
    _, dcofs = _m_coeff_list(den)
    nlo, ncofs = _m_coeff_list(num)
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


@dataclass
class CompareReport:
    """Specialized recurrence vs the recursively built A-polynomial."""

    p: int
    abelian_power: int
    equal: bool
    unit: LaurentPoly | None
    diff: list = field(default_factory=list)

    def to_json_dict(self):
        return {"p": self.p, "abelian_power": self.abelian_power,
                "equal": self.equal,
                "unit": None if self.unit is None else self.unit.text(),
                "diff": list(self.diff)}


def compare_with_apoly(poly, p):
    """Strip abelian factors from poly and diff it against a_polynomial(p).

    The specialized recurrence carries the extra factor (1 + m^2 l) to
    some power; divide it out as often as it goes, then ask whether a
    single monomial unit +-l^a m^b maps the rest onto the A-polynomial.
    When not, the report carries the exact coefficient diff of the
    min-exponent-normalized polynomials.
    """
    abelian = LaurentPoly.const(1) + LaurentPoly.monomial(1, l=1, m=2)
    power = 0
    stripped = poly
    while True:
        try:
            candidate = stripped.exact_divide(abelian)
        except InexactDivision:
            break
        stripped = candidate
        power += 1
    target = a_polynomial(p)
    u = unit_ratio(stripped, target)
    if u is not None:
        return CompareReport(p, power, True, u)
    a = _normalize_for_diff(stripped)
    b = _normalize_for_diff(target)
    diff = []
    for e in sorted(set(a.terms) | set(b.terms), reverse=True):
        ca = a.terms.get(e, 0)
        cb = b.terms.get(e, 0)
        if ca != cb:
            diff.append({"term": LaurentPoly({e: 1}).text(),
                         "computed": ca, "expected": cb})
    return CompareReport(p, power, False, None, diff)


def _normalize_for_diff(p):
    if not p:
        return p
    p = p * LaurentPoly.monomial(1, l=-p.var_range("l")[0],
                                 m=-p.var_range("m")[0])
    if p.leading()[1] < 0:
        p = -p
    return p
