"""Exact Laurent polynomial arithmetic over a fixed variable universe.

Everything downstream (knot polynomial sums, recurrence certification,
specializations) runs on two types defined here: LaurentPoly, a sparse
integer-coefficient Laurent polynomial, and RatFunc, a quotient of two
LaurentPolys kept in a canonical form.

The variable universe is fixed once:

    q, N, K, L2, l, m, x, y

Every value the package computes lies in Z[q, 1/q], so the quantum
parameter q is stored as itself.  Monomials are exponent 8-tuples in the
order above, and the canonical term order is plain tuple comparison on
those 8-tuples, largest first.  The one serialized form is text(), which
parse_poly reads back.
"""

from __future__ import annotations

from fractions import Fraction
import math
import re

VARS = ("q", "N", "K", "L2", "l", "m", "x", "y")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}
NV = len(VARS)
_ZEROS = (0,) * NV


class InexactDivision(ArithmeticError):
    """Raised when a division that must be exact is not."""


class PolyParseError(ValueError):
    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = "%s (at position %d)" % (message, pos)
        super().__init__(message)


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

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZEROS in self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def const_value(self):
        if not self.terms:
            return 0
        if self.is_const():
            return self.terms[_ZEROS]
        raise ValueError("not a constant")

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

    def content(self):
        if not self.terms:
            return 0
        return math.gcd(*self.terms.values())

    def divide_content(self, g):
        if g in (1, -1):
            return self * g if g == -1 else self
        t = {}
        for e, c in self.terms.items():
            q, r = divmod(c, g)
            if r:
                raise InexactDivision("content %d does not divide %d" % (g, c))
            t[e] = q
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

    def shift_exponents(self, vec):
        """Multiply by the monomial with exponent tuple vec."""
        if not any(vec):
            return self
        t = {tuple(a + b for a, b in zip(e, vec)): c
             for e, c in self.terms.items()}
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
        return out

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

    def derivative(self, name):
        """Formal partial derivative."""
        i = VAR_INDEX[name]
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                t[ne] = c * e[i]
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = t
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

    # substitution and evaluation

    def substitute(self, **bindings):
        """Replace variables by values (int, LaurentPoly or RatFunc).

        Returns a RatFunc.  All bindings are applied simultaneously.
        Negative exponents of a substituted variable need the value to be
        invertible, which RatFunc arithmetic gives.  No reduction beyond
        RatFunc canonicalization is attempted, so compare results with ==
        rather than expecting a particular denominator.
        """
        vals = {}
        for name, val in bindings.items():
            if not isinstance(val, RatFunc):
                val = RatFunc(val if isinstance(val, LaurentPoly)
                              else LaurentPoly.const(val))
            vals[VAR_INDEX[name]] = val
        total = RatFunc.zero()
        powers = {}
        for e, c in self.sorted_terms():
            rest = list(e)
            factor = RatFunc.const(c)
            for i, val in vals.items():
                a = rest[i]
                rest[i] = 0
                if not a:
                    continue
                key = (i, a)
                if key not in powers:
                    powers[key] = val ** a
                factor = factor * powers[key]
            total = total + factor * RatFunc(LaurentPoly({tuple(rest): 1}))
        return total

    def substitute_monomials(self, **bindings):
        """Exact substitution where every value is a monomial (or 0, 1, -1).

        Returns a LaurentPoly.  A value with |coefficient| != 1 is accepted
        only where the substituted exponents are nonnegative.
        """
        maps = {}
        for name, val in bindings.items():
            if isinstance(val, int):
                val = LaurentPoly.const(val)
            if len(val.terms) > 1:
                raise ValueError("value for %s is not a monomial" % name)
            maps[VAR_INDEX[name]] = val
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            cc = c
            for i, val in maps.items():
                a = ne[i]
                ne[i] = 0
                if not val.terms:
                    if a > 0:
                        cc = 0
                        break
                    raise ZeroDivisionError("0 raised to a negative power")
                (ev, cv), = val.terms.items()
                if cv in (1, -1):
                    if a % 2 and cv == -1:
                        cc = -cc
                elif a >= 0:
                    cc *= cv ** a
                else:
                    raise InexactDivision(
                        "negative power of coefficient %d" % cv)
                for j, b in enumerate(ev):
                    if b:
                        ne[j] += a * b
            if not cc:
                continue
            key = tuple(ne)
            nc = out.get(key, 0) + cc
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = out
        return r

    def eval_fraction(self, bindings):
        """Exact evaluation with Fraction/int values for every used variable."""
        vals = {VAR_INDEX[name]: Fraction(v) for name, v in bindings.items()}
        total = Fraction(0)
        for e, c in self.terms.items():
            term = Fraction(c)
            for i, a in enumerate(e):
                if not a:
                    continue
                if i not in vals:
                    raise KeyError("no value for %s" % VARS[i])
                term *= vals[i] ** a
            total += term
        return total

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


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|(\^)|(\*)|(\+)|(-)"
                    r"|(\()|(\)))")


def parse_poly(text):
    """Parse a polynomial in the text form produced by LaurentPoly.text().

    Accepts signed integer coefficients, * products and ^ exponents with
    an optional sign or parenthesized sign.  Example:
    "-3*q^12*N^4 + q*N - 7".
    """
    text = text.rstrip()
    pos = 0
    n = len(text)
    tokens = []
    while pos < n:
        mm = _TOKEN.match(text, pos)
        if not mm:
            raise PolyParseError("unexpected character %r" % text[pos], pos)
        grp = mm.lastindex
        tokens.append((grp, mm.group(grp), mm.start(grp)))
        pos = mm.end()
    tokens.append((0, "", n))

    result = LaurentPoly()
    i = 0

    def peek():
        return tokens[i]

    def parse_exponent():
        nonlocal i
        kind, val, p = peek()
        neg = False
        if kind == 7:  # (
            i += 1
            kind, val, p = peek()
            if kind == 6:
                neg = True
                i += 1
                kind, val, p = peek()
            if kind != 1:
                raise PolyParseError("expected integer exponent", p)
            i += 1
            kind2, _, p2 = peek()
            if kind2 != 8:
                raise PolyParseError("expected closing parenthesis", p2)
            i += 1
            return -int(val) if neg else int(val)
        if kind == 6:
            neg = True
            i += 1
            kind, val, p = peek()
        if kind != 1:
            raise PolyParseError("expected integer exponent", p)
        i += 1
        return -int(val) if neg else int(val)

    while True:
        kind, val, p = peek()
        if kind == 0:
            break
        sign = 1
        while kind in (5, 6):
            if kind == 6:
                sign = -sign
            i += 1
            kind, val, p = peek()
        if kind == 0:
            raise PolyParseError("dangling sign", p)
        coeff = sign
        exps = {}
        expect_factor = True
        first = True
        while True:
            kind, val, p = peek()
            if kind == 1 and expect_factor:
                coeff *= int(val)
                i += 1
            elif kind == 2 and expect_factor:
                if val not in VAR_INDEX:
                    raise PolyParseError("unknown variable %r" % val, p)
                i += 1
                kind2, _, _ = peek()
                a = 1
                if kind2 == 3:
                    i += 1
                    a = parse_exponent()
                exps[val] = exps.get(val, 0) + a
            elif first:
                raise PolyParseError("expected a term", p)
            else:
                break
            first = False
            kind, val, p = peek()
            if kind == 4:
                i += 1
                expect_factor = True
            else:
                break
        result = result + LaurentPoly.monomial(coeff, **exps)
    return result


class RatFunc:
    """Quotient of LaurentPolys in a canonical form.

    Canonicalization does three cheap things and no polynomial gcd: the
    joint per-variable minimum exponent of numerator and denominator is
    shifted to zero, the joint integer content is divided out, and the
    sign is fixed so the denominator's leading coefficient is positive.
    Equality is decided by cross multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.const(1)
        elif isinstance(den, int):
            den = LaurentPoly.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.const(1)
            return
        shift = []
        for v in VARS:
            a = min(num.var_range(v)[0], den.var_range(v)[0])
            shift.append(-a)
        if any(shift):
            num = num.shift_exponents(shift)
            den = den.shift_exponents(shift)
        g = math.gcd(num.content(), den.content())
        if den.leading()[1] < 0:
            g = -g
        if g != 1:
            num = num.divide_content(g)
            den = den.divide_content(g)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(LaurentPoly.const(c))

    @classmethod
    def zero(cls):
        return cls(LaurentPoly.zero())

    def __bool__(self):
        return bool(self.num)

    def is_poly(self):
        return self.den == LaurentPoly.const(1)

    def as_poly(self):
        """Exact polynomial form, or raise InexactDivision."""
        return self.num.exact_divide(self.den)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFunc is unhashable")

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return RatFunc.const(1)
        if n < 0:
            if not self.num:
                raise ZeroDivisionError("negative power of zero")
            base = RatFunc(self.den, self.num)
            n = -n
        else:
            base = self
        result = RatFunc.const(1)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, **bindings):
        top = self.num.substitute(**bindings)
        bot = self.den.substitute(**bindings)
        if not bot.num:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return top / bot

    def substitute_monomials(self, **bindings):
        top = self.num.substitute_monomials(**bindings)
        bot = self.den.substitute_monomials(**bindings)
        if not bot:
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RatFunc(top, bot)

    def eval_fraction(self, bindings):
        bot = self.den.eval_fraction(bindings)
        if not bot:
            raise ZeroDivisionError("denominator evaluates to zero")
        return self.num.eval_fraction(bindings) / bot

    def eval_complex(self, bindings):
        return self.num.eval_complex(bindings) / self.den.eval_complex(bindings)

    def text(self):
        if self.is_poly():
            return self.num.text()
        return "(%s)/(%s)" % (self.num.text(), self.den.text())

    def __str__(self):
        return self.text()

    def __repr__(self):
        return "RatFunc(%s)" % self.text()


def poly(**exps):
    """Shorthand monomial constructor used heavily in tests."""
    return LaurentPoly.monomial(1, **exps)


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


Q = LaurentPoly.var("q")
ONE = LaurentPoly.const(1)
