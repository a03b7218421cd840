"""A-polynomials of twist knots, built two independent ways.

The recursive route starts from four explicitly known polynomials
A(-1), A(0), A(1), A(2) in (l, m) and extends to every twist parameter
with the three-term law

    A(p) = c * A(p-1) - d * A(p-2)        (run backward for p < 0)

whose multipliers c, d come from cd_coefficients().  Its data is printed
here and is the independent reference.

The constructive route starts from the summand of the double sum: its
shift quotients (jones.shift_ratio) at q = 1, with N = m^2, K = x and
L2 = y (_at_q1, the package's one reader of the summand at q = 1).

  k-step   numerator minus denominator is x (y + 1/y - a/m^2), which
           gives the rank-2 algebra y^2 = (a / m^2) * y - 1 (quad_a);
  n-step   set equal to l, it pins the coupling value
           x = (l*m^2 + 1) / (m^2 + l) (solve_meridian_x);
  l-step   cleared, it is saddle_constraint(p), which reduces in that
           algebra to (1 - x) y^|p| h_p (h_via_reduction).

A tower of Laurent polynomials h_p(m, x) in the same three-term shape
is built from a, the coupling value is substituted and denominators are
cleared.  The result b_polynomial(p) is again a polynomial in (l, m).
verify_aj certifies that the two routes agree: at the seeds p = -1..2
coefficient by coefficient (compare_aj), and at every other p by
induction, since b_polynomial obeys the same three-term law with the
same c, d; that takes four exact checks whose cost does not grow with
|p|.  verify_aj reads only the k- and n-steps, which do not depend on
p; the l-step meets the tower in h_via_reduction.  Its AjReport is a
named tuple of facts; cli renders it.

Everything here is exact integer arithmetic; nothing is numeric.
"""

from collections import Counter, namedtuple

from .jones import KnotId, shift_ratio
from .laurent import LaurentPoly, coefficient_diff, unit_ratio


def _mono(c=1, **e):
    return LaurentPoly.monomial(c, **e)


_M2 = _mono(m=2)
_X = LaurentPoly.var("x")
_Y = LaurentPoly.var("y")
_L = LaurentPoly.var("l")


def _at_q1(ratio):
    """(numerator, denominator) of a shift_ratio at q = 1, in (m, x, y).

    Every binomial and the monomial lose their q-exponent, binomials
    that then coincide on both sides cancel, and the exponents (n, k,
    l2) left on (N, K, L2) become m^(2n) x^k y^l2.
    """
    num = Counter(b[1:] for b in ratio.num)
    den = Counter(b[1:] for b in ratio.den)
    _, n, k, l2 = ratio.mono
    sides = [_mono(ratio.sign, m=2 * n, x=k, y=l2), LaurentPoly.const(1)]
    for i, binoms in enumerate((num - den, den - num)):
        for n, k, l2 in binoms.elements():
            sides[i] = sides[i] * (1 - _mono(m=2 * n, x=k, y=l2))
    return tuple(sides)


def _step_at_q1(p, step):
    """K_p's summand quotient for one (dn, dk, dl) step, at q = 1."""
    return _at_q1(shift_ratio(KnotId.twist_knot(p), step))


def quad_a():
    """The y^1 multiplier (times m^2) of the defining quadratic.

    Read off the k-step quotient at q = 1, whose numerator minus
    denominator must be x (y + 1/y - a/m^2); any other shape raises
    ArithmeticError.
    """
    num, den = _step_at_q1(1, (0, 1, 0))
    parts = (num - den).coefficients_in("y")
    if set(parts) != {-1, 0, 1} or parts[1] != _X or parts[-1] != _X:
        raise ArithmeticError("k-step at q = 1 is not x (y + 1/y) plus "
                              "a part free of y")
    return -(_M2 * parts[0]).exact_divide(_X)


def quad_b():
    """m^2 times the first tower element h_1."""
    return _mono(m=4) - _mono(1, x=1, m=2) + 1


def cd_coefficients():
    """The pair (c, d) of three-term multipliers, as printed data.

    That c equals quad_a() with the coupling value substituted and the
    denominator cleared by (m^2 + l)^2, and d equals m^4 (m^2 + l)^4,
    is asserted in the test suite rather than used as the definition.
    """
    c = (-_L + _mono(l=2) + _mono(2, l=1, m=2) + _mono(m=4)
         + _mono(2, l=1, m=4) + _mono(1, l=2, m=4) + _mono(2, l=1, m=6)
         + _mono(m=8) - _mono(1, l=1, m=8))
    d = _mono(m=4) * (_L + _M2) ** 4
    return c, d


def _initial_a_polynomials():
    a2 = (-_mono(1, l=2) + _mono(1, l=3) + _mono(2, l=2, m=2)
          + _mono(1, l=1, m=4) + _mono(2, l=2, m=4) - _mono(1, l=1, m=6)
          - _mono(1, l=2, m=8) + _mono(2, l=1, m=10) + _mono(1, l=2, m=10)
          + _mono(2, l=1, m=12) + _mono(m=14) - _mono(1, l=1, m=14))
    a1 = _L + _mono(m=6)
    a0 = LaurentPoly.const(1)
    am1 = (-_L + _mono(1, l=1, m=2) + _mono(m=4) + _mono(2, l=1, m=4)
           + _mono(1, l=2, m=4) + _mono(1, l=1, m=6) - _mono(1, l=1, m=8))
    return {2: a2, 1: a1, 0: a0, -1: am1}


def a_polynomial(p):
    """A-polynomial of the twist knot with parameter p, in (l, m).

    The four base cases are returned verbatim; anything past them is the
    three-term law with (c, d) = cd_coefficients(), run by _run_law.
    """
    base = _initial_a_polynomials()
    if p in base:
        return base[p]
    return _run_law(base, *cd_coefficients(), p)


def _run_law(seeds, c, d, p):
    """x(p) = c x(p-1) - d x(p-2), run from the two seeds nearest p.

    seeds maps consecutive integers to values and p lies outside them.
    Below the seeds the same law runs mirrored, x(p) = c x(p+1) -
    d x(p+2), which only needs the two lowest seeds swapped.
    """
    step = 1 if p > max(seeds) else -1
    edge = max(seeds) if step > 0 else min(seeds)
    older, newer = seeds[edge - step], seeds[edge]
    for _ in range(edge + step, p + step, step):
        older, newer = newer, c * newer - d * older
    return newer


def solve_meridian_x():
    """Coupling value of x forced by the n-direction ratio at q = 1.

    The n-step quotient at q = 1, N = m^2, K = x, set equal to l and
    cleared, is linear in x and pins it to (l*m^2 + 1) / (m^2 + l),
    returned as the pair (l*m^2 + 1, m^2 + l); this single value is what
    turns the (m, x) tower into polynomials in (l, m).
    """
    num, den = _step_at_q1(1, (1, 0, 0))
    return linear_root((num - _L * den).cleared(), "n-step at q = 1")


def linear_root(poly, what):
    """(num, den) with poly = den*x - num; ArithmeticError if not linear."""
    cofs = poly.coefficients_in("x")
    if set(cofs) != {0, 1}:
        raise ArithmeticError("%s is not linear in x" % what)
    return -cofs[0], cofs[1]


def clear_at_root(poly, root, deg, p):
    """den^deg poly(num/den), root = (num, den), with no fraction.

    With deg = deg_x poly it is (-1)^deg Res_x(poly, den*x - num).
    Horner in homogeneous form, acc = acc * num + cof_j * den^(deg - j)
    for j = deg, ..., 0, leaves sum_j cof_j num^j den^(deg - j) with one
    product by num and one by den per x-degree; raising num^j and
    den^(deg - j) afresh per j costs about three times the term pairs
    at p = 19 in b_polynomial.  An x-degree outside 0..deg raises
    ArithmeticError before the loop, so none is dropped unseen.
    """
    num, den = root
    cofs = poly.coefficients_in("x")
    for j in cofs:
        if j < 0 or j > deg:
            raise ArithmeticError("x-degree %d outside the clearing "
                                  "window at p = %d" % (j, p))
    out, den_power = LaurentPoly.zero(), LaurentPoly.const(1)
    for j in range(deg, -1, -1):
        out = out * num
        if j in cofs:
            out += cofs[j] * den_power
        if j:
            den_power = den_power * den
    return out


def h_polynomial(p):
    """Tower element h_p(m, x); negative m-exponents are expected.

    h_0 = 1 and h_1 = (m^4 - x*m^2 + 1)/m^2 seed the same three-term
    law as the A-polynomials (_run_law) but with multipliers a/m^2
    and 1:

        h_p = (a / m^2) h_{p-1} - h_{p-2}
    """
    seeds = {0: LaurentPoly.const(1), 1: quad_b().exact_divide(_M2)}
    if p in seeds:
        return seeds[p]
    return _run_law(seeds, quad_a().exact_divide(_M2), 1, p)


def quad_reduce(poly):
    """Reduce a LaurentPoly in (m, x, y) modulo y^2 = (a/m^2) y - 1.

    Returns the pair (alpha, beta) of LaurentPolys in (m, x) with
    poly = alpha*y + beta in that algebra.  a/m^2 is a Laurent
    polynomial and y is a unit there, 1/y = a/m^2 - y, so no fraction
    ever forms.
    """
    t = quad_a().exact_divide(_M2)
    cofs = poly.coefficients_in("y")
    # y^j as (alpha_j, beta_j), walked up and down from y^0
    powers = {0: (LaurentPoly.zero(), LaurentPoly.const(1))}
    for j in range(1, max(cofs, default=0) + 1):
        a, b = powers[j - 1]
        powers[j] = (a * t + b, -a)
    for j in range(-1, min(cofs, default=0) - 1, -1):
        a, b = powers[j + 1]
        powers[j] = (-b, a + b * t)
    alpha = beta = LaurentPoly.zero()
    for j, cof in cofs.items():
        a, b = powers[j]
        alpha += cof * a
        beta += cof * b
    return alpha, beta


def saddle_constraint(p):
    """Cleared vanishing condition on the l-direction summand ratio.

    The l-step quotient of K_p at q = 1, K = x, L2 = y, set equal to 1:
    minus its numerator minus denominator, cleared.  For p > 0 this is
    y^(2p+1) + 1 - x*y^(2p) - x*y; for p < 0 it is
    y + y^(2|p|) - x - x*y^(2|p|+1).  The quotient-ring reconstruction
    below and the saddle-point numerics both start from this polynomial.
    """
    if p == 0:
        raise ValueError("p = 0 has no saddle constraint")
    num, den = _step_at_q1(p, (0, 0, 1))
    return -(num - den).cleared()


def h_via_reduction(p):
    """Certify h_p against the l-step by quotient-ring reduction.

    saddle_constraint(p) is exactly divisible by (y + 1); the cofactor,
    reduced to the degree-<=1 class, must land on (1 - x) * [y^|p|] *
    h_p with h_p = h_polynomial(p), which is returned.  Any mismatch
    raises ArithmeticError, since it would mean the tower and the
    quotient algebra disagree.
    """
    got = quad_reduce(saddle_constraint(p).exact_divide(_Y + 1))
    h = h_polynomial(p)
    want = tuple(c * (1 - _X) * h for c in quad_reduce(_mono(1, y=abs(p))))
    if got != want:
        raise ArithmeticError("reduction and tower disagree at p = %d" % p)
    return h


def b_polynomial(p):
    """Cleared-denominator form of h_p at the coupling value of x.

    deg_x h_p is 2p - 1 for p > 0 and 2|p| for p <= 0, and the m-order
    is bounded by |p| below, so clearing x = (l m^2 + 1)/(m^2 + l) with
    that degree (clear_at_root) and m^(2|p|) lands in Z[l, m].
    """
    deg = 2 * p - 1 if p > 0 else 2 * abs(p)
    out = (clear_at_root(h_polynomial(p), solve_meridian_x(), deg, p)
           * _mono(1, m=2 * abs(p)))
    for v in out.variables():
        if v not in ("l", "m"):
            raise ArithmeticError("unexpected variable %s" % v)
        if out.var_range(v)[0] < 0:
            raise ArithmeticError("negative %s-exponent survived "
                                  "clearing at p = %d" % (v, p))
    return out


class AjReport(namedtuple("AjReport", "p equal unit diff by_law")):
    """Outcome of one constructed-vs-recursive comparison at p.

    unit is the monomial u with B(p) = u A(p), or None if there is none;
    diff is then coefficient_diff(B(p), A(p)), and empty otherwise.
    by_law says the agreement was certified by verify_aj's three-term
    induction rather than by comparing the two polynomials at p.
    """

    __slots__ = ()


# the p at which verify_aj always compares directly: the law's seeds
_SEEDS = range(-1, 3)


def _law_holds(p):
    """Checks (i)-(iv) of verify_aj's induction, on p's side of the seam."""
    a = quad_a()
    if not set(a.coefficients_in("x")) <= {0, 1, 2}:
        return False
    root = solve_meridian_x()
    c, d = cd_coefficients()
    if clear_at_root(a, root, 2, p) != c:
        return False
    if _mono(m=4) * root[1] ** 4 != d:
        return False
    return all(a_polynomial(s) == b_polynomial(s)
               for s in ((1, 2) if p > 0 else (0, -1)))


def verify_aj(p):
    """Certify that the two routes to the A-polynomial agree at p.

    At the seeds p = -1..2, and wherever a check below fails, this is
    compare_aj(p).  Every other p is certified by induction, without
    building A(p) or B(p), by four exact checks:

      (i)   every x-exponent of quad_a() lies in 0..2;
      (ii)  sum_j a_j num^j den^(2 - j) == c, with a_j the x-coefficients
            of quad_a(), (num, den) = solve_meridian_x() and
            (c, d) = cd_coefficients(), by clear_at_root;
      (iii) m^4 den^4 == d;
      (iv)  a_polynomial(s) == b_polynomial(s) at the two seeds on p's
            side: s = 1, 2 for p >= 3 and s = 0, -1 for p <= -2.

    The induction.  With X = num/den and t = quad_a()/m^2, h_polynomial
    has _run_law run h_p = t h_(p-1) - h_(p-2) upward and
    h_p = t h_(p+1) - h_(p+2) downward.  deg(p) = 2p - 1 for p > 0 and
    2|p| for p <= 0, so on either side deg(p) steps by 2 and |p| by 1.
    By (i) and (ii), c = den^2 quad_a(X) = m^2 den^2 t(X), and by (iii)
    d = m^4 den^4, so

        b(p) = m^(2|p|) den^deg(p) h_p(X)

    obeys b(p) = c b(p-1) - d b(p-2) for p >= 3, and
    b(p) = c b(p+1) - d b(p+2) for p <= -2: the law a_polynomial has
    _run_law run, from the same two seeds, which (iv) shows equal.  So
    b(p) = A(p) on each side, for every p.  b_polynomial(p) computes
    b(p) unless one of its checks raises, and none can: by (i) each step
    of the tower raises the x-degree by at most 2 and keeps it
    nonnegative, so every x-degree of h_p lies in the clearing window
    0..deg(p), and b(p) = A(p) is a polynomial in (l, m).

    Each side has its own seeds because the law fails at p = 2 when run
    from b(1), b(0): deg(0) is 0, not the 2p - 1 = -1 the upward step
    needs (TestRecursionLaw pins the defect).  No check is cached, so a
    change to any input of either route is seen by the next call.
    """
    if p not in _SEEDS and _law_holds(p):
        return AjReport(p, True, LaurentPoly.const(1), [], True)
    return compare_aj(p)


def compare_aj(p):
    """Compare the two routes to the A-polynomial at parameter p directly.

    Exact equality is the expected outcome for every p.  If it fails,
    the comparison retries up to a monomial unit +-l^i m^j (the usual
    ambiguity in how A-polynomials are normalized) and reports the unit;
    failing that too, the report carries the full coefficient diff.
    """
    b = b_polynomial(p)
    a = a_polynomial(p)
    if a == b:
        return AjReport(p, True, LaurentPoly.const(1), [], False)
    u = unit_ratio(b, a)
    if u is not None:
        return AjReport(p, False, u, [], False)
    return AjReport(p, False, None, coefficient_diff(b, a), False)
