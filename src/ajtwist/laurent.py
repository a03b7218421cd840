"""Exact Laurent polynomial arithmetic over a fixed variable universe.

Everything downstream (knot polynomial sums, recurrence certification,
specializations) runs on the one type defined here: LaurentPoly, a
sparse integer-coefficient Laurent polynomial.  Where a quotient is
needed, the callers keep the numerator and denominator as a pair.

The variable universe is fixed once:

    q, N, K, L2, l, m, x, y

Every value the package computes lies in Z[q, 1/q], so the quantum
parameter q is stored as itself.  Monomials are exponent 8-tuples in the
order above, and the canonical term order is plain tuple comparison on
those 8-tuples, largest first.  The one serialized form is text(); parse_poly
reads it back, and reads the coefficients of qrec's .rec fixtures.
"""

import re

VARS = ("q", "N", "K", "L2", "l", "m", "x", "y")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
NV = len(VARS)
_ZEROS = (0,) * NV


class InexactDivision(ArithmeticError):
    """Raised when a division that must be exact is not."""


class CertificationError(ArithmeticError):
    """An exactness or residual certificate failed."""


class PolyParseError(ValueError):
    """parse_poly refused its text: reason at 0-based position pos."""

    def __init__(self, reason, pos):
        self.reason = reason
        self.pos = pos
        super().__init__("%s (at position %d)" % (reason, pos))


def _exp_tuple(**exps):
    e = [0] * NV
    for name, a in exps.items():
        try:
            e[VAR_INDEX[name]] += a
        except KeyError:
            raise KeyError("unknown variable %r" % name) from None
    return tuple(e)


class LaurentPoly:
    """Sparse Laurent polynomial with int coefficients.

    terms maps exponent 8-tuples to nonzero ints.  Instances are treated
    as immutable; all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if not c:
                    continue
                nc = merged.get(e, 0) + c
                if nc:
                    merged[e] = nc
                elif e in merged:
                    del merged[e]
        self.terms = merged

    # construction helpers

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({_ZEROS: c}) if c else cls()

    @classmethod
    def monomial(cls, coeff=1, **exps):
        if not coeff:
            return cls()
        return cls({_exp_tuple(**exps): coeff})

    @classmethod
    def var(cls, name, power=1):
        return cls.monomial(1, **{name: power})

    # predicates and views

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        return NotImplemented

    # arithmetic

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self.terms) < len(other.terms):
            self, other = other, self
        t = dict(self.terms)
        for e, c in other.terms.items():
            nc = t.get(e, 0) + c
            if nc:
                t[e] = nc
            elif e in t:
                del t[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = t
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            r = LaurentPoly.__new__(LaurentPoly)
            r.terms = {e: c * other for e, c in self.terms.items()}
            return r
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        t = {}
        for e2, c2 in b.items():
            if e2 == _ZEROS:
                for e1, c1 in a.items():
                    nc = t.get(e1, 0) + c1 * c2
                    if nc:
                        t[e1] = nc
                    elif e1 in t:
                        del t[e1]
                continue
            for e1, c1 in a.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2],
                     e1[3] + e2[3], e1[4] + e2[4], e1[5] + e2[5],
                     e1[6] + e2[6], e1[7] + e2[7])
                nc = t.get(e, 0) + c1 * c2
                if nc:
                    t[e] = nc
                elif e in t:
                    del t[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = t
        return r

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self.terms) != 1:
                raise InexactDivision(
                    "negative power of a non-monomial")
            (e, c), = self.terms.items()
            if c not in (1, -1):
                raise InexactDivision(
                    "negative power needs a unit coefficient, got %d" % c)
            ce = c if n % 2 else 1
            return LaurentPoly({tuple(n * a for a in e): ce})
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    # structure

    def var_range(self, name):
        """(min, max) exponent of a variable over all terms; (0, 0) if zero."""
        i = VAR_INDEX[name]
        if not self.terms:
            return (0, 0)
        lo = hi = None
        for e in self.terms:
            a = e[i]
            if lo is None or a < lo:
                lo = a
            if hi is None or a > hi:
                hi = a
        return (lo, hi)

    def leading(self):
        """(exponent tuple, coefficient) of the largest term in tuple order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def shift_exponents(self, vec):
        """Multiply by the monomial with exponent tuple vec."""
        if not any(vec):
            return self
        t = {tuple(a + b for a, b in zip(e, vec)): c
             for e, c in self.terms.items()}
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    def cleared(self):
        """self times the least monomial that leaves no negative exponent."""
        return self.shift_exponents(
            [-min(0, self.var_range(v)[0]) for v in VARS])

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ec: ec[0], reverse=True)

    def variables(self):
        used = [False] * NV
        for e in self.terms:
            for i, a in enumerate(e):
                if a:
                    used[i] = True
        return tuple(VARS[i] for i in range(NV) if used[i])

    def degree(self, name):
        return self.var_range(name)[1]

    def coefficients_in(self, name):
        """Split into {exponent of name: cofactor poly without name}."""
        i = VAR_INDEX[name]
        buckets = {}
        for e, c in self.terms.items():
            a = e[i]
            rest = e[:i] + (0,) + e[i + 1:]
            buckets.setdefault(a, {})[rest] = c
        out = {}
        for a, t in buckets.items():
            p = LaurentPoly.__new__(LaurentPoly)
            p.terms = t
            out[a] = p
        return out

    def univariate_coefficients(self, name):
        """{exponent of name: int coefficient} of a polynomial in name alone.

        Any other variable raises ValueError.
        """
        i = VAR_INDEX[name]
        others = _ZEROS[1:]
        out = {}
        for e, c in self.terms.items():
            if e[:i] + e[i + 1:] != others:
                raise ValueError("not a polynomial in %s alone" % name)
            out[e[i]] = c
        return out

    # division

    def exact_divide(self, divisor):
        """Exact quotient self / divisor, or raise InexactDivision.

        Greedy elimination of the remainder's lex-leading term.  The
        quotient exponents are confined, per variable, to the window
        [min(self) - min(divisor), max(self) - max(divisor)] since min and
        max exponents add under multiplication.  Any step outside that
        window, or any non-integral coefficient quotient, proves the
        division inexact; the window also forces termination, which plain
        Laurent lex order would not.
        """
        if isinstance(divisor, int):
            divisor = LaurentPoly.const(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return LaurentPoly()
        lo = []
        hi = []
        for v in VARS:
            alo, ahi = self.var_range(v)
            blo, bhi = divisor.var_range(v)
            wl, wh = alo - blo, ahi - bhi
            if wl > wh:
                raise InexactDivision("no exponent window for %s" % v)
            lo.append(wl)
            hi.append(wh)
        eb, cb = divisor.leading()
        rem = dict(self.terms)
        quo = {}
        db = divisor.terms
        while rem:
            er = max(rem)
            cr = rem[er]
            e = tuple(a - b for a, b in zip(er, eb))
            for i in range(NV):
                if not lo[i] <= e[i] <= hi[i]:
                    raise InexactDivision("leading term not reducible")
            cq, r = divmod(cr, cb)
            if r:
                raise InexactDivision("coefficient %d not divisible by %d"
                                      % (cr, cb))
            quo[e] = cq
            for ed, cd in db.items():
                key = tuple(a + b for a, b in zip(e, ed))
                nc = rem.get(key, 0) - cq * cd
                if nc:
                    rem[key] = nc
                elif key in rem:
                    del rem[key]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = quo
        return out

    def divide_out(self, factor):
        """(quotient, k) with self = factor^k * quotient and k maximal.

        A monomial factor raises ValueError: exact division by a unit
        never fails, so the loop would not end.  Zero gives (0, 0).
        """
        if len(factor.terms) < 2:
            raise ValueError("divide_out needs a factor of two or more terms")
        quo, k = self, 0
        while quo:
            try:
                quo, k = quo.exact_divide(factor), k + 1
            except InexactDivision:
                break
        return quo, k

    # substitution and evaluation

    def substitute_monomials(self, **bindings):
        """Exact substitution of a unit monomial for each named variable.

        A value is 1, -1 or a monomial with coefficient +-1; any other
        raises ValueError.  Returns a LaurentPoly.
        """
        maps = {}
        for name, val in bindings.items():
            if isinstance(val, int):
                val = LaurentPoly.const(val)
            terms = list(val.terms.items())
            if len(terms) != 1 or terms[0][1] not in (1, -1):
                raise ValueError("value for %s is not a unit monomial" % name)
            maps[VAR_INDEX[name]] = terms[0]
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            for i, (ev, cv) in maps.items():
                a = ne[i]
                ne[i] = 0
                if a % 2 and cv == -1:
                    c = -c
                for j, b in enumerate(ev):
                    if b:
                        ne[j] += a * b
            key = tuple(ne)
            nc = out.get(key, 0) + c
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    def eval_fraction(self, bindings):
        """Exact evaluation with Fraction/int values for every used variable."""
        from fractions import Fraction
        return Fraction(self.eval_complex(
            {v: Fraction(x) for v, x in bindings.items()}))

    def eval_complex(self, bindings):
        """Numeric evaluation; values may be complex or mpmath numbers.

        Terms are accumulated in descending canonical order so repeated
        runs produce bit-identical results.
        """
        vals = {VAR_INDEX[name]: v for name, v in bindings.items()}
        total = 0
        for e, c in self.sorted_terms():
            term = c
            for i, a in enumerate(e):
                if not a:
                    continue
                if i not in vals:
                    raise KeyError("no value for %s" % VARS[i])
                term = term * vals[i] ** a
            total = total + term
        return total

    # rendering

    def text(self):
        if not self.terms:
            return "0"
        out = []
        for e, c in self.sorted_terms():
            body = "*".join(name if a == 1 else "%s^%d" % (name, a)
                            for name, a in zip(VARS, e) if a)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
            if not out:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append(("+ " if c > 0 else "- ") + body)
        return " ".join(out)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return "LaurentPoly(%s)" % self.text()


# One term: a sign, required after the first term, an optional minus,
# then factors joined by *.  A factor is an integer or a variable with an
# optional exponent e, -e or (-e).  A term ends only at a sign or at the
# end of the text, so the matches of _TERM tile any text it can read.
# The patterns are compiled on first use, through re's own cache: most
# commands import this module and never read text.
_EXP = r"(?:-?\s*\d+|\(\s*-?\s*\d+\s*\))"
_FACTOR = r"(?:\d+|(?:%s)(?!\w)(?:\s*\^\s*%s)?)" % ("|".join(VARS), _EXP)
_TERM = (r"\s*([-+]?)\s*(-?)\s*(%s(?:\s*\*\s*%s)*)\s*(?=[-+]|$)"
         % (_FACTOR, _FACTOR))


def parse_poly(text):
    """Parse a polynomial in the text form produced by LaurentPoly.text().

    Terms are joined by + or -, and a term may carry one more minus of
    its own: "-3*q^12*N^4 + q*N - 7 + -q^(-2)".  Whitespace may stand
    between tokens.  Time is linear in the length of the text.
    """
    text = text.rstrip()
    # split gives [gap, sep, neg, body] per term, then the tail; every
    # gap is empty exactly when the terms tile the text
    parts = re.split(_TERM, text)
    if any(parts[::4]):
        raise _refusal(text)
    pairs = []
    for sep, neg, body in zip(parts[1::4], parts[2::4], parts[3::4]):
        coeff = -1 if (sep == "-") != (neg == "-") else 1
        e = [0] * NV
        # whitespace inside a term that _TERM matched separates nothing
        for factor in "".join(body.split()).split("*"):
            name, caret, a = factor.partition("^")
            if name.isdigit():
                coeff *= int(name)
            else:
                e[VAR_INDEX[name]] += int(a.strip("()")) if caret else 1
        pairs.append((tuple(e), coeff))
    return LaurentPoly(pairs)


def _refusal(text):
    """The PolyParseError for the first term of text that _TERM refuses."""
    pos = 0
    while (m := re.compile(_TERM).match(text, pos)):
        pos = m.end()
    # past the signs and every factor that a * closes
    pos = re.compile(r"\s*[-+]?\s*-?\s*(?:%s\s*\*\s*)*"
                     % _FACTOR).match(text, pos).end()
    name = re.compile(r"[A-Za-z]\w*").match(text, pos)
    if name and name.group() not in VAR_INDEX:
        return PolyParseError("unknown variable %r" % name.group(), pos)
    bad = re.compile(r"[A-Za-z]\w*\s*\^(?!\s*%s)\s*" % _EXP).match(text, pos)
    if bad:
        return PolyParseError("expected integer exponent", bad.end())
    factor = re.compile(_FACTOR + r"\s*").match(text, pos)
    if factor is None:
        return PolyParseError("expected a factor", pos)
    return PolyParseError("expected + or - after a term", factor.end())


def unit_ratio(a, b):
    """The monomial u with coefficient +-1 and a == u * b, or None."""
    if not b:
        return None
    if not a:
        return None
    ea, ca = a.leading()
    eb, cb = b.leading()
    if abs(ca) != abs(cb):
        return None
    sign = 1 if ca * cb > 0 else -1
    u = LaurentPoly({tuple(x - y for x, y in zip(ea, eb)): sign})
    return u if a == b * u else None


def coefficient_diff(a, b):
    """(term text, coefficient in a, coefficient in b) for each monomial
    where a and b differ, largest term first."""
    return [(LaurentPoly({e: 1}).text(), a.terms.get(e, 0), b.terms.get(e, 0))
            for e in sorted(set(a.terms) | set(b.terms), reverse=True)
            if a.terms.get(e, 0) != b.terms.get(e, 0)]

