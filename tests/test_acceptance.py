"""Ship gate: twelve end-to-end checks, one verdict line each.

Every check here is the binding form of a shipped claim.  A failure in
this file means the artifact must not ship; the verdict lines are the
audit trail.  Tolerances are pinned next to their asserts.
"""
import random
import time

import mpmath as mp

from ajtwist.apoly import (a_polynomial, b_polynomial, cd_coefficients,
                           verify_aj)
from ajtwist.jones import (KnotId, colored_jones, colored_jones_multisum,
                           named_form_unit, summand_family, summand_spec)
from ajtwist.laurent import LaurentPoly, RatFunc, parse_poly
from ajtwist.qrec import (RecurrenceSpec, RecurrenceTerm, _coeffs_at,
                          _point_parts, check_kfree, compare_with_apoly,
                          load_recurrence, specialize_q1)
from ajtwist.qseries import NegativeIndex, QFactors
from ajtwist.volnum import (bloch_wigner, dilog, jhat, kashaev_scan,
                            optimistic_volume)

FIG8 = parse_poly("-l + l*m^2 + m^4 + 2*l*m^4 + l^2*m^4 + l*m^6 - l*m^8")
FIVETWO = parse_poly("-l^2 + l^3 + 2*l^2*m^2 + l*m^4 + 2*l^2*m^4 - l*m^6"
                     " - l^2*m^8 + 2*l*m^10 + l^2*m^10 + 2*l*m^12 + m^14"
                     " - l*m^14")
ONE = LaurentPoly.const(1)


def test_criterion_01_aj_certification():
    t0 = time.time()
    reports = [verify_aj(p) for p in range(-6, 7)]
    assert len(reports) == 13
    for rep in reports:
        assert rep.equal and rep.unit == ONE, "p = %d differs" % rep.p
    took = time.time() - t0
    assert took < 10
    print("criterion 1: PASS - constructed B equals recursive A exactly "
          "(unit 1) for all 13 parameters in [-6, 6], %.1f s" % took)


def test_criterion_02_printed_reproduction():
    t0 = time.time()
    assert a_polynomial(1) == parse_poly("l + m^6")
    assert a_polynomial(0) == ONE
    assert a_polynomial(-1) == FIG8
    assert a_polynomial(2) == FIVETWO
    assert b_polynomial(1) == parse_poly("l + m^6")
    assert b_polynomial(0) == ONE
    assert b_polynomial(-1) == FIG8
    took = time.time() - t0
    assert took < 1
    print("criterion 2: PASS - all four initial A-polynomials verbatim; "
          "b at 1, 0, -1 lands on l + m^6, 1, and the figure-eight "
          "polynomial, %.2f s" % took)


def test_criterion_03_two_step_law():
    t0 = time.time()
    c, d = cd_coefficients()
    m2l = parse_poly("m^2 + l")
    b = {p: b_polynomial(p) for p in range(-6, 7)}
    for p in range(3, 7):
        assert b[p] == c * b[p - 1] - d * b[p - 2], p
    for p in range(-6, -1):
        assert b[p] == c * b[p + 1] - d * b[p + 2], p
    # the seam: with p <= 0 normalization on b[0], the plain law is off
    # by one (m^2 + l) factor on the d side at p = 2; pin the corrected
    # boundary AND the failure of the plain form so neither can drift
    assert b[2] == c * b[1] - d.exact_divide(m2l) * b[0]
    assert m2l * b[2] == c * (m2l * b[1]) - d * b[0]
    assert b[2] != c * b[1] - d * b[0]
    took = time.time() - t0
    assert took < 5
    print("criterion 3: PASS with note - two-step law verbatim for "
          "p in [3, 6] and mirrored for p in [-6, -2]; at the p = 2 seam "
          "the d coefficient carries one less (m^2 + l) factor (boundary "
          "normalization), and the uncorrected form is pinned false, "
          "%.1f s" % took)


def test_criterion_04_jones_consistency():
    t0 = time.time()
    for p in range(-3, 4):
        for n in range(1, 9):
            # the recorded global unit between the two forms is +1
            assert colored_jones(p, n, "habiro") == \
                colored_jones_multisum(p, n), (p, n)
    assert named_form_unit("5_2", n_max=8) == LaurentPoly.const(-1)
    assert named_form_unit("6_1", n_max=8) == ONE
    took = time.time() - t0
    assert took < 30
    print("criterion 4: PASS - cyclotomic sum equals double sum (unit +1) "
          "for p in [-3, 3], n <= 8; named-form units recorded as -1 "
          "(5_2) and +1 (6_1), %.1f s" % took)


def _ratio_pair_holds(ratio, fam, point, shifted):
    n, k, l = point
    try:
        f1 = fam(*shifted)
    except NegativeIndex:
        return None
    f0 = fam(n, k, l)
    den = QFactors()
    for aa, bb, cc, dd in ratio.den:
        den.times_binom(aa + bb * n + cc * k + dd * l)
    num = QFactors(sign=ratio.sign)
    num.times_qpow(sum(x * {"q": 1, "N": n, "K": k, "L2": l}[nm]
                       for nm, x in ratio.mono))
    for aa, bb, cc, dd in ratio.num:
        num.times_binom(aa + bb * n + cc * k + dd * l)
    return (den * f1).equals(num * f0)


def test_criterion_05_ratio_identities():
    t0 = time.time()
    counts = {}
    for p in (-2, -1, 1, 2):
        knot = KnotId.twist_knot(p)
        spec = summand_spec(knot)
        fam = summand_family(knot)
        checked = 0
        for n in range(1, 8):
            for k in range(n):
                for l in range(k + 1):
                    for ratio, shifted in (
                            (spec.n_step, (n + 1, k, l)),
                            (spec.k_step, (n, k + 1, l)),
                            (spec.l_step, (n, k, l + 1))):
                        held = _ratio_pair_holds(ratio, fam, (n, k, l),
                                                 shifted)
                        if held is not None:
                            assert held, (p, n, k, l, shifted)
                            checked += 1
        assert checked >= 200, (p, checked)
        counts[p] = checked
    took = time.time() - t0
    assert took < 30
    print("criterion 5: PASS - closed-form shift quotients annihilate "
          "the summand exactly at %s in-support points for p = -2, -1, "
          "1, 2, %.1f s" % (sorted(counts.values()), took))


def test_criterion_06_kfree_zero_residual():
    t0 = time.time()
    rep = check_kfree(load_recurrence("fivetwo_kfree"), (6, 12),
                      mode="interior")
    assert rep.ok
    assert rep.points == 308
    took = time.time() - t0
    assert took < 60
    print("criterion 6: PASS - the 16-term k-free relation has exact "
          "zero residual at all 308 interior points, 6 <= n <= 12, "
          "%.1f s" % took)


def test_criterion_07_q1_specialization():
    t0 = time.time()
    r5 = compare_with_apoly(specialize_q1(load_recurrence("fivetwo_inhom")),
                            2)
    assert (r5.equal, r5.abelian_power, r5.unit) == (True, 2, ONE)
    r6 = compare_with_apoly(specialize_q1(load_recurrence("sixone_inhom")),
                            -2)
    assert (r6.equal, r6.abelian_power, r6.unit) == (True, 1, ONE)
    took = time.time() - t0
    assert took < 10
    print("criterion 7: PASS - q = 1 shadows land on (1 + m^2 l)^2 * A_2 "
          "and (1 + m^2 l) * A_{-2} exactly, units 1, %.1f s" % took)
    # the source displays of the inner factors deviate from the computed
    # (criteria-1-to-3-certified) ones in exactly these coefficients;
    # printed here so the record travels with every acceptance run
    five_l2 = a_polynomial(2).coefficients_in("l")[2]
    six = a_polynomial(-2).coefficients_in("l")
    print("  display-variant deltas, for the record:")
    print("    5_2 inner l^2: computed %s; display carries the opposite "
          "sign" % five_l2.text())
    print("    6_1 inner l^1: computed %s; display has 2*m^14 for m^14"
          % six[1].text())
    print("    6_1 inner l^3: computed %s; display shows "
          "-2*m^14 + 3*m^12 + 3*m^10 + m^4 + m^2 - 1" % six[3].text())


def test_criterion_08_optimistic_volumes():
    targets = {-1: "2.029883212819", 2: "2.828122088331",
               -2: "3.163963228883"}
    with mp.workprec(192):
        lines = []
        for p, digits in targets.items():
            t0 = time.time()
            vol, _ = optimistic_volume(p, prec=128)
            took = time.time() - t0
            assert abs(vol - mp.mpf(digits)) < mp.mpf(10) ** -6, p
            assert took < 60
            lines.append("p = %d: %s (%.1f s)" % (p, mp.nstr(vol, 13), took))
    print("criterion 8: PASS - optimistic volumes within 1e-6 of their "
          "pinned values; " + "; ".join(lines))


def test_criterion_09_dilog_kernel():
    t0 = time.time()
    tol = mp.mpf(10) ** -12
    with mp.workprec(192):
        assert abs(dilog(1, 128) - mp.pi ** 2 / 6) < tol
        assert abs(mp.im(dilog(mp.mpc(0, 1), 128)) - mp.catalan) < tol
        hexval = bloch_wigner(mp.expjpi(mp.mpf(1) / 3), 128)
        assert abs(hexval - mp.mpf("1.014941606409")) < tol
    took = time.time() - t0
    assert took < 1
    print("criterion 9: PASS - dilog(1) = pi^2/6, Im dilog(i) = Catalan, "
          "D(exp(i pi/3)) = 1.014941606409, all to 1e-12, %.2f s" % took)


def test_criterion_10_jhat_cross_check():
    t0 = time.time()
    tol = mp.mpf(10) ** -25
    worst = mp.mpf(0)
    with mp.workprec(200):
        for p in (-2, -1, 1, 2):
            for n in range(3, 13):
                got = jhat(p, n, prec=128)
                poly = colored_jones(p, n, convention="habiro")
                want = poly.eval_complex({"q": mp.expjpi(mp.mpf(2) / n)})
                worst = max(worst, abs(got - want))
        assert worst < tol
    took = time.time() - t0
    assert took < 30
    print("criterion 10: PASS - summand evaluator matches the exact "
          "polynomial at the root of unity; worst deviation %s over the "
          "40-point grid (tolerance 1e-25), %.1f s" % (mp.nstr(worst, 3),
                                                       took))


def test_criterion_11_kashaev_scan():
    # The figure-eight growth rate v_n = 2 pi log|jhat(n)| / n falls to
    # the volume from above (Andersen-Hansen):
    #   v_n = Vol + 2 pi ((3/2) log n - (1/4) log 3) / n + O(1/n^2),
    # with a correction positive for every n >= 2.  Over n in {10..200}:
    # strictly decreasing, every value above Vol, v_200 > 0.8 Vol, and
    # v_200 within 1e-3 of the large-n form.
    t0 = time.time()
    rows = kashaev_scan(-1, range(10, 201), prec=128)
    vols = [v for _, v in rows]
    assert all(v is not None for v in vols)
    took = time.time() - t0
    assert took < 300
    with mp.workprec(160):
        vol = mp.mpf("2.029883212819307250042405108549")
        v10, v200 = vols[0], vols[-1]
        predicted = vol + 2 * mp.pi * (mp.mpf(3) / 2 * mp.log(200)
                                       - mp.log(3) / 4) / 200
        residual = v200 - predicted
        assert all(a > b for a, b in zip(vols, vols[1:])), \
            "v_n is not strictly decreasing on {10..200}"
        assert all(v > vol for v in vols), \
            "some v_n on {10..200} is at or below Vol(4_1)"
        assert v200 > mp.mpf("0.8") * mp.mpf("2.029883")
        assert abs(residual) < mp.mpf(10) ** -3
    print("criterion 11: PASS with note - v_n strictly decreasing and "
          "above Vol(4_1) on n in {10..200} (v_10 = %s, v_200 = %s); "
          "v_200 minus the Andersen-Hansen form Vol + 2 pi ((3/2) log n "
          "- (1/4) log 3)/n = %s; the original wording (strictly "
          "increasing, bounded above by 2.0299) had the direction wrong, "
          "and the check asserts approach from above, %.1f s"
          % (mp.nstr(v10, 6), mp.nstr(v200, 6), mp.nstr(residual, 3),
             took))


def _random_poly(rng, names, max_terms=4, max_exp=3, max_coeff=6):
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        exps = {nm: rng.randint(-max_exp, max_exp) for nm in names
                if rng.random() < 0.6}
        p = p + LaurentPoly.monomial(rng.randint(-max_coeff, max_coeff),
                                     **exps)
    return p


def _flip_leading(spec, idx, where="num"):
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


def _residual_at(spec, n, k, l, base=2):
    from fractions import Fraction
    fam = summand_family(spec.knot)
    parts = _point_parts(spec, fam, _coeffs_at(spec, n), n, k, l,
                         "interior")
    assert parts is not None
    t = Fraction(base)
    return sum(p.eval_fraction({"q": t}) * f.eval_fraction(t)
               for p, f in parts)


def test_criterion_12_property_suites():
    t0 = time.time()
    rng = random.Random(20260817)
    names = ("q", "N", "l", "m")
    cases = 0
    for _ in range(2200):
        a = _random_poly(rng, names)
        b = _random_poly(rng, names)
        c = _random_poly(rng, names)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        cases += 4
    for _ in range(600):
        a = _random_poly(rng, names)
        assert parse_poly(a.text()) == a
        cases += 1
    binding = {"q": RatFunc(ONE),
               "N": RatFunc(parse_poly("m^2 + l"), parse_poly("m^2"))}
    for _ in range(400):
        a = _random_poly(rng, names, max_exp=2)
        b = _random_poly(rng, names, max_exp=2)
        assert (a * b).substitute(**binding) == \
            a.substitute(**binding) * b.substitute(**binding)
        assert (a + b).substitute(**binding) == \
            a.substitute(**binding) + b.substitute(**binding)
        cases += 2

    kfree = load_recurrence("fivetwo_kfree")
    point = (11, 3, 2)
    assert _residual_at(kfree, *point) == 0
    cases += 1
    for idx in range(len(kfree.terms)):
        assert _residual_at(_flip_leading(kfree, idx), *point) != 0, idx
        cases += 1
    assert _residual_at(_flip_leading(kfree, 3, where="den"), *point) != 0
    cases += 1

    assert cases >= 10000
    took = time.time() - t0
    assert took < 60
    print("criterion 12: PASS - %d randomized ring/canonicalization/"
          "substitution cases plus %d-term mutation sensitivity, %.1f s"
          % (cases, len(kfree.terms), took))
