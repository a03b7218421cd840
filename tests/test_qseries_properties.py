"""Property tests for the exact zero certificate in qseries.is_zero_sum,
for the clearing and expansion in jones.assemble_sum, and for the dense
q kernel under both.

The oracle is RatFunc arithmetic (oracles.py) on the fully expanded
parts, which
shares no code with the certificate's integer evaluation; the dense
kernel is checked against the sparse LaurentPoly multiply and
exact_divide.
"""
from collections import Counter
from copy import deepcopy

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from ajtwist.jones import assemble_sum
from ajtwist.laurent import InexactDivision, LaurentPoly
from ajtwist.qseries import (QFactors, cleared_sum, dense_divide_binoms,
                             dense_times_binoms, from_dense, is_zero_sum,
                             to_dense)
from oracles import RatFunc, binom_product, div_binom, qfactors_ratfunc

SETTINGS = settings(max_examples=150, deadline=None)
ONE = LaurentPoly.const(1)

signs = st.sampled_from((1, -1))
small_multisets = st.lists(st.integers(1, 6), max_size=3).map(Counter)
shared_multisets = st.lists(st.integers(1, 6), max_size=5).map(Counter)


def _poly(coeffs):
    out = LaurentPoly.zero()
    for a, c in coeffs.items():
        out = out + LaurentPoly.monomial(c, q=a)
    return out


# q-polynomials with negative exponents; a zero coefficient may leave
# the polynomial empty
q_polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3),
                          max_size=4).map(_poly)
nonzero_q_polys = st.dictionaries(st.integers(-4, 4),
                                  st.integers(1, 3) | st.integers(-3, -1),
                                  min_size=1, max_size=4).map(_poly)


@st.composite
def qfactors(draw, shared=(Counter(), Counter())):
    """A nonzero QFactors; den-only values come from an empty num draw."""
    return QFactors(sign=draw(signs), qpow=draw(st.integers(-8, 8)),
                    num=draw(small_multisets) + shared[0],
                    den=draw(small_multisets) + shared[1])


@st.composite
def part_lists(draw, shared=False):
    """Up to four parts, some zero; with shared=True every nonzero part
    also carries one common num and den multiset."""
    common = ((draw(shared_multisets), draw(shared_multisets)) if shared
              else (Counter(), Counter()))
    factor = qfactors(common) | st.builds(QFactors.make_zero)
    return draw(st.lists(st.tuples(q_polys, factor), min_size=1,
                         max_size=4))


any_parts = part_lists() | part_lists(shared=True)


@st.composite
def rewritten(draw, part):
    """The same value poly * qf, written with other factors."""
    poly, qf = part
    f = deepcopy(qf)
    for _ in range(draw(st.integers(0, 3))):
        move = draw(st.sampled_from(("qpow", "sign", "pair", "expand")))
        if move == "qpow":
            k = draw(st.integers(-3, 3))
            poly = poly * LaurentPoly.monomial(1, q=k)
            f.times_qpow(-k)
        elif move == "sign":
            poly = -poly
            f.times_sign(-1)
        elif move == "pair":
            j = draw(st.integers(1, 6))
            f.num[j] += 1
            f.den[j] += 1
        else:
            # negative j takes the (1 - q^-j) normalization in div_binom
            j = draw(st.integers(-6, 6).filter(bool))
            poly = poly * (ONE - LaurentPoly.monomial(1, q=j))
            div_binom(f, j)
    return poly, f


@st.composite
def zero_sums(draw):
    """parts minus a rewritten copy of them, in shuffled order."""
    parts = draw(any_parts)
    copies = [draw(rewritten(pt)) for pt in parts]
    return draw(st.permutations(parts + negated(copies)))


def expanded(parts):
    total = RatFunc.zero()
    for poly, qf in parts:
        total = total + RatFunc(poly) * qfactors_ratfunc(qf)
    return total


def negated(parts):
    return [(-poly, qf) for poly, qf in parts]


def dense(parts):
    """The parts with each poly in the dense form that is_zero_sum and
    assemble_sum take."""
    return [(to_dense(poly), qf) for poly, qf in parts]


@SETTINGS
@given(any_parts | zero_sums(), st.data())
def test_agrees_with_expansion(parts, data):
    # with a one-factor change to one part, a zero sum usually is not
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(parts) - 1))
        poly, qf = parts[i]
        qf = deepcopy(qf).times_binom(data.draw(st.integers(1, 6)))
        parts = parts[:i] + [(poly, qf)] + parts[i + 1:]
    ok, base = is_zero_sum(dense(parts))
    assert ok == (not expanded(parts))
    assert base >= 4 and base & (base - 1) == 0


@SETTINGS
@given(any_parts | zero_sums())
# R = (1 - q)^10 + (1 - q^2) has the coefficient C(10, 5) = 252, which
# only the 2^|rest_i| factor of the bound makes room for
@example([(ONE, QFactors(num=Counter({1: 10}))),
          (ONE, QFactors(num=Counter({2: 1})))])
def test_base_bounds_the_reduced_residual(parts):
    # the docstring's residual R = D * S / C, expanded independently;
    # R(base) = 0 forces R = 0 only when base >= 2 * l1(R) + 2
    live = [(poly, qf) for poly, qf in parts if poly and not qf.zero]
    den_all = Counter()
    for _, qf in live:
        den_all |= qf.den
    common = None
    for _, qf in live:
        cleared = qf.num + (den_all - qf.den)
        common = cleared if common is None else common & cleared
    scale = RatFunc(binom_product(den_all), binom_product(common or Counter()))
    residual = (expanded(parts) * scale).as_poly()
    l1 = sum(abs(c) for c in residual.terms.values())
    assert is_zero_sum(dense(parts))[1] >= 2 * l1 + 2
    assert from_dense(cleared_sum(dense(parts))[0]) == residual


@SETTINGS
@given(zero_sums())
def test_zero_sums_are_zero(parts):
    assert is_zero_sum(dense(parts))[0]


@SETTINGS
@given(zero_sums(), nonzero_q_polys, qfactors(), st.data())
def test_never_calls_a_nonzero_sum_zero(zero, poly, qf, data):
    # zero + one nonzero part is that part; zero with one nonzero part
    # negated is minus twice that part
    at = data.draw(st.integers(0, len(zero)))
    added = zero[:at] + [(poly, qf)] + zero[at:]
    assert expanded(added)
    assert not is_zero_sum(dense(added))[0]
    live = [i for i, (p, f) in enumerate(zero) if p and not f.zero]
    if live:
        i = data.draw(st.sampled_from(live))
        flipped = zero[:i] + negated(zero[i:i + 1]) + zero[i + 1:]
        assert expanded(flipped)
        assert not is_zero_sum(dense(flipped))[0]


@SETTINGS
@given(shared_multisets, shared_multisets, st.integers(1, 6),
       st.integers(-8, 8), st.integers(0, 2))
def test_shared_factor_identity_and_sign_flip(num, den, n, qpow, flip):
    # (q)_{n+1} - (q)_n + q^{n+1} (q)_n = 0, times a common factor
    # q^qpow * prod num / prod den that every part carries
    def part(coeff, q_exp, poch):
        f = QFactors(qpow=qpow, num=Counter(num), den=Counter(den))
        return LaurentPoly.monomial(coeff, q=q_exp), f.times_poch(poch)

    parts = [part(1, 0, n + 1), part(-1, 0, n), part(1, n + 1, n)]
    assert is_zero_sum(dense(parts))[0]
    poly, qf = parts[flip]
    parts[flip] = (-poly, qf)
    assert not is_zero_sum(dense(parts))[0]


# interior gaps come from the sparse exponent draw, single terms and the
# empty value from its size; some coefficients exceed 2^64
wide_coeffs = (st.integers(-3, 3).filter(bool)
               | st.integers(-2 ** 70, 2 ** 70).filter(bool))
dense_polys = st.dictionaries(st.integers(-6, 12), wide_coeffs,
                              max_size=8).map(_poly)
binom_indices = st.lists(st.integers(1, 7), max_size=4).map(Counter)
any_qfactors = qfactors() | st.builds(QFactors.make_zero)


@st.composite
def polynomial_sums(draw):
    """Parts whose sum is a Laurent polynomial.

    Each nonzero part starts as a polynomial (den within num) and may be
    split as v qf / (1 - q^j) - v q^j qf / (1 - q^j), two parts that are
    not polynomials; a shared pair adds one (1 - q^j) to every num and
    den, so the common factor meets the union denominator."""
    pair = draw(small_multisets)
    out = []
    for poly, qf in draw(st.lists(st.tuples(dense_polys, any_qfactors),
                                  max_size=4)):
        if qf.zero:
            out.append((poly, qf))
            continue
        qf.num += qf.den + pair
        qf.den += pair
        if draw(st.booleans()):
            j = draw(st.integers(1, 6))
            out.append((poly, div_binom(deepcopy(qf), j)))
            qf = div_binom(qf, j).times_qpow(j).times_sign(-1)
        out.append((poly, qf))
    return draw(st.permutations(out))


@st.composite
def canceling_parts(draw):
    """Parts next to their negations, in shuffled order: a zero sum."""
    parts = draw(st.lists(st.tuples(dense_polys, any_qfactors), max_size=3))
    return draw(st.permutations(parts + negated(parts)))


# empty lists, single parts, zero parts, unit values and non-polynomial
# sums all come from the plain lists
wide_part_lists = st.lists(
    st.tuples(dense_polys | st.just(ONE), any_qfactors), max_size=4)


@SETTINGS
@given(wide_part_lists | polynomial_sums() | canceling_parts())
@example([])
@example([(ONE, QFactors.make_zero())])
@example([(LaurentPoly.zero(), QFactors.one())])
@example([(ONE, div_binom(QFactors.one(), 1))])
@example([(ONE, QFactors(num=Counter({1: 1}), den=Counter({1: 1})))])
@example([(ONE, QFactors(num=Counter({1: 1}), den=Counter({2: 1}))),
          (ONE, QFactors(sign=-1, num=Counter({1: 1}),
                         den=Counter({2: 1})))])
# a coefficient beyond 2^64, times a binomial
@example([(_poly({-3: 2 ** 70, 2: 1}),
           QFactors(sign=-1, qpow=5, num=Counter({4: 1})))])
# each part stays below 2^7 but the sum does not: the width must come
# from the summed bound, not from the largest part
@example([(_poly({0: 127}), QFactors.one()),
          (_poly({0: 127}), QFactors.one())])
# a canceling pair of wide non-polynomial parts divides to zero
@example([(_poly({0: 2 ** 70, 2: 1}), QFactors(den=Counter({1: 1}))),
          (_poly({0: -(2 ** 70), 2: -1}), QFactors(den=Counter({1: 1})))])
def test_assemble_sum_agrees_with_expansion(parts):
    try:
        want = expanded(parts).as_poly()
    except InexactDivision:
        with pytest.raises(InexactDivision):
            assemble_sum(dense(parts))
        return
    assert assemble_sum(dense(parts)) == want


# the dense kernel, against the sparse LaurentPoly arithmetic


@SETTINGS
@given(dense_polys, binom_indices)
def test_dense_binoms_match_sparse_and_divide_back(a, js):
    assert from_dense(to_dense(a)) == a
    prod = dense_times_binoms(to_dense(a), js)
    assert from_dense(prod) == a * binom_product(js)
    assert from_dense(dense_divide_binoms(prod, js)) == a


@SETTINGS
@given(dense_polys, st.integers(1, 7))
# (1 + q) / (1 - q^2): the dividend is no longer than the divisor
@example(_poly({0: 1, 1: 1}), 2)
# (1 - q - q^2) / (1 - q^2): j < len < 2j, where the cancellation check
# must read zeros below index 0 and not wrap to the end of the quotient
@example(_poly({0: 1, 1: -1, 2: -1}), 2)
@example(ONE, 3)
@example(LaurentPoly.zero(), 2)
def test_dense_division_matches_exact_divide(a, j):
    js = Counter({j: 1})
    try:
        want = a.exact_divide(binom_product(js))
    except InexactDivision:
        with pytest.raises(InexactDivision):
            dense_divide_binoms(to_dense(a), js)
        return
    assert from_dense(dense_divide_binoms(to_dense(a), js)) == want
