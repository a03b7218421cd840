"""Numerical layer: dilogarithms, saddle volumes, root-of-unity sums.

Oracles are independent of the implementation wherever one exists:
mpmath's polylog / clsin / catalan for the dilogarithm family, the exact
colored Jones polynomial evaluated at s = exp(i*pi/n) for jhat, and the
eliminant degree plus residual re-checks for the saddle solver.
"""
import random

import mpmath as mp
from mpmath.libmp import NoConvergence
import pytest

from ajtwist import apoly, volnum
from ajtwist.jones import KnotId, colored_jones, colored_jones_multisum
from ajtwist.laurent import LaurentPoly, parse_poly
from ajtwist.qseries import to_dense
from ajtwist.volnum import (CertificationError, bloch_wigner, dilog, jhat,
                            kashaev_scan, optimistic_volume,
                            reduced_eliminant, saddle_solve)
from oracles import as_mp, cyclotomic, jhat_per_term, polydivmod

FIG8_VOL = "2.029883212819307250042405108549"


def random_disk_points(count, seed, rmin=0.05, rmax=0.95):
    # points in the unit disk staying away from 0, 1 and the real axis
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        r = rng.uniform(rmin, rmax)
        t = rng.uniform(0.03, 0.97)
        if rng.random() < 0.5:
            t = -t
        pts.append((r, t))
    return pts


class TestDilog:
    def test_zero(self):
        assert dilog(0, 128) == 0

    def test_one_is_zeta_two(self):
        with mp.workprec(192):
            got = dilog(1, 128)
            assert abs(got - mp.pi ** 2 / 6) < mp.ldexp(1, -125)
            assert mp.im(got) == 0

    def test_imag_at_i_is_catalan(self):
        # oracle: the defining alternating series of Catalan's constant,
        # self-checked against mpmath's builtin before use
        with mp.workprec(200):
            cat = mp.nsum(lambda k: mp.mpf(-1) ** k / (2 * k + 1) ** 2,
                          [0, mp.inf])
            assert abs(cat - mp.catalan) < mp.mpf(10) ** -40
            got = dilog(mp.mpc(0, 1), 128)
            assert abs(mp.im(got) - cat) < mp.mpf(10) ** -12
            assert abs(mp.re(got) + mp.pi ** 2 / 48) < mp.mpf(10) ** -12

    def test_matches_mpmath_off_axis(self):
        # one representative per evaluation regime (the expansion on
        # |z| <= 1, Re z <= 1/2; reflection on |z| <= 1, Re z > 1/2;
        # inversion on |z| > 1, followed by either), plus points on and
        # 2^-30 to either side of the seams |z| = 1 and Re z = 1/2, and
        # real points in (1/2, 1) and below -1
        pts = [mp.mpc("0.3", "0.1"), mp.mpc("-0.45", "0.2"),
               mp.mpc("0.49", "-0.1"), mp.mpc("0.52", "0.02"),
               mp.mpc("1.3", "0.4"), mp.mpc("0.8", "-0.6"),
               mp.mpc("1.1", "0.001"), mp.mpc("1.1", "-0.001"),
               mp.mpc("-1.7", "0.3"), mp.mpc("2.4", "1.9"),
               mp.mpc("-3.0", "-2.5"), mp.mpc("40.0", "0.7"),
               mp.mpc("0.01", "1.99"), mp.mpc("-0.8", "0.0"),
               mp.mpc("0.5", "0.3"), mp.mpc("0.5", "-0.8"),
               mp.mpc("0.75", "0"), mp.mpc("0.999", "0"),
               mp.mpc("-1.5", "0"), mp.mpc("-40", "0")]
        eps = mp.ldexp(1, -30)
        with mp.workprec(200):
            for t in ("0.2", "0.5", "0.9", "-0.3", "-0.75"):
                z = mp.expjpi(mp.mpf(t))
                pts += [z, z * (1 - eps), z * (1 + eps)]
            for im in ("0.3", "-0.8", "0.05"):
                pts += [mp.mpc(mp.mpf("0.5") + d, im) for d in (-eps, eps)]
            for z in pts:
                got = dilog(z, 128)
                want = mp.polylog(2, z)
                assert abs(got - want) < mp.mpf(10) ** -30, z

    def test_expansion_sees_only_its_bounded_region(self, monkeypatch):
        # _dilog_bernoulli's term-ratio bound assumes |z| <= 1 and
        # Re z <= 1/2; every other point must be mapped there first
        seen = []
        real = volnum._dilog_bernoulli

        def record(z):
            seen.append(z)
            return real(z)

        monkeypatch.setattr(volnum, "_dilog_bernoulli", record)
        rng = random.Random(20261019)
        pts = [mp.mpc(0, "1.5")]
        for _ in range(200):
            r = mp.mpf(10) ** mp.mpf(rng.uniform(-2, 2))
            pts.append(r * mp.expjpi(mp.mpf(rng.uniform(-1, 1))))
        for z in pts:
            dilog(z, 128)
        for z in seen:
            assert abs(z) <= 1 and mp.re(z) <= 0.5, z
        assert len(seen) == len(pts)

    def test_real_cut_from_below(self):
        # on (1, inf) the continuation is taken from the lower half
        # plane: Im = +pi*log(x); mpmath picks the other side, so only
        # real parts and the imaginary magnitude can be compared
        with mp.workprec(200):
            for x in (mp.mpf("1.2"), mp.mpf("2.5"), mp.mpf(17)):
                got = dilog(x, 128)
                want = mp.polylog(2, x)
                assert abs(mp.re(got) - mp.re(want)) < mp.mpf(10) ** -30
                assert abs(mp.im(got) - mp.pi * mp.log(x)) < mp.mpf(10) ** -30

    def test_five_point_identity(self):
        # Li2(z) + Li2(1-z) + log(z)log(1-z) = pi^2/6 away from the cuts
        tol = mp.mpf(10) ** mp.mpf("-35.8")
        with mp.workprec(200):
            for r, t in random_disk_points(100, seed=20260817):
                z = r * mp.expjpi(mp.mpf(t))
                lhs = (dilog(z, 128) + dilog(1 - z, 128)
                       + mp.log(z) * mp.log(1 - z))
                assert abs(lhs - mp.pi ** 2 / 6) < tol, z


class TestBlochWigner:
    def test_vanishes_on_real_line(self):
        for x in ("0.37", "7.3", "-2.2", "0.999"):
            assert bloch_wigner(mp.mpf(x), 128) == 0

    def test_rejected_at_poles(self):
        with pytest.raises(ValueError):
            bloch_wigner(0, 128)
        with pytest.raises(ValueError):
            bloch_wigner(1, 128)

    def test_conjugation_antisymmetry(self):
        tol = mp.mpf(10) ** mp.mpf("-35.8")
        with mp.workprec(200):
            for r, t in random_disk_points(20, seed=7):
                z = r * mp.expjpi(mp.mpf(t))
                assert abs(bloch_wigner(mp.conj(z), 128)
                           + bloch_wigner(z, 128)) < tol

    def test_inversion_antisymmetry(self):
        tol = mp.mpf(10) ** mp.mpf("-35.8")
        with mp.workprec(200):
            for r, t in random_disk_points(20, seed=11):
                z = r * mp.expjpi(mp.mpf(t))
                assert abs(bloch_wigner(1 / z, 128)
                           + bloch_wigner(z, 128)) < tol

    def test_hexagonal_point(self):
        # D(exp(i*pi/3)) is the maximum of D on the unit circle; the
        # oracle is the Clausen function, which is its Fourier series
        with mp.workprec(200):
            z = mp.expjpi(mp.mpf(1) / 3)
            got = bloch_wigner(z, 128)
            assert abs(got - mp.mpf("1.014941606409653625021202554275"
                                    )) < mp.mpf(10) ** -12
            assert abs(got - mp.clsin(2, mp.pi / 3)) < mp.mpf(10) ** -35


def jones_at_root_of_unity(p, n, prec):
    poly = colored_jones(p, n, convention="habiro")
    with mp.workprec(prec + 64):
        q = mp.expjpi(mp.mpf(2) / n)
        return poly.eval_complex({"q": q})


class TestJhat:
    def test_matches_exact_polynomial(self):
        # the summand evaluator never constructs the polynomial, so the
        # exact expansion is a genuinely independent cross-check
        tol = mp.mpf(10) ** -25
        with mp.workprec(200):
            for p in (-2, -1, 1, 2):
                for n in range(3, 13):
                    got = as_mp(jhat(p, n, prec=128))
                    want = jones_at_root_of_unity(p, n, 192)
                    assert abs(got - want) < tol, (p, n)

    def test_fig8_values_are_real(self):
        # the closed form's imaginary part is exactly 0
        for n in range(2, 13):
            assert jhat(-1, n, prec=128)[1] == 0

    def test_pole_cancel_path_agrees_with_product(self):
        # p = -1 takes a closed-form product shortcut; force the generous
        # route through the same numbers
        with mp.workprec(200):
            for n in range(3, 13):
                fast = as_mp(jhat(-1, n, prec=128))
                slow = as_mp(pole_cancel(-1, n, prec=128))
                assert abs(fast - slow) < mp.mpf(10) ** -30, n

    def test_precision_refinement(self):
        with mp.workprec(300):
            for p, n in ((2, 9), (-2, 7), (-1, 12), (1, 5)):
                lo = as_mp(jhat(p, n, prec=128))
                hi = as_mp(jhat(p, n, prec=256))
                assert abs(lo - hi) < mp.ldexp(1, -100), (p, n)

    def test_named_knot_route(self):
        # jhat takes the twist parameter alone; a named knot reaches it
        # through KnotId.twist_parameter, and its own double sum at
        # q = exp(2 pi i / n) has the same magnitude as K_p's
        with mp.workprec(200):
            for name in ("5_2", "6_1"):
                knot = KnotId.named(name)
                for n in range(3, 9):
                    poly = colored_jones_multisum(knot, n)
                    want = abs(poly.eval_complex(
                        {"q": mp.expjpi(mp.mpf(2) / n)}))
                    got = abs(as_mp(jhat(knot.twist_parameter(), n)))
                    assert abs(got - want) < mp.mpf(10) ** -30, (name, n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            jhat(2, 1)
        with pytest.raises(ValueError):
            jhat(-1, 0)

    def test_residue_certificate_rejects_wrong_window(self):
        # shifting the singular window start by one breaks the exact
        # cancellation, and the integer certificate must catch it; the
        # large-n cases run the recurrence over 20 to 46 rows
        for p, n, k, l0 in ((1, 5, 3, 2), (2, 7, 4, 3), (-2, 6, 4, 2),
                            (3, 41, 30, 11), (2, 52, 40, 12),
                            (-5, 55, 50, 5)):
            tables = level_tables(p, n)
            with pytest.raises(CertificationError):
                volnum._residue_certificate(n, k, l0, *tables)
            volnum._residue_certificate(n, k, n - 1 - k, *tables)

    def test_pole_cancel_matches_exact_polynomial_at_larger_n(self):
        # singular windows of up to 16 to 21 rows, past the |p| <= 2, n <= 12
        # reach of test_matches_exact_polynomial; observed error <= 3e-41
        tol = mp.mpf(10) ** -38
        with mp.workprec(200):
            for p, n in ((2, 16), (-2, 21), (3, 16), (-3, 20), (5, 16)):
                got = as_mp(jhat(p, n, prec=128))
                want = jones_at_root_of_unity(p, n, 200)
                assert abs(got - want) < tol, (p, n)

    def test_inverse_tables_match_per_term_division(self):
        # the tabulated Pochhammer inverses round differently from one
        # division per term; against a 400-bit value of the per-term
        # form, the tables must be within 2^-prec
        prec = 128
        for p, n in ((2, 20), (-3, 31), (5, 52), (-2, 55), (2, 100)):
            with mp.workprec(400):
                new = as_mp(pole_cancel(p, n, prec))
                ref = jhat_per_term(p, n)
                err_new = abs(new - ref) / abs(ref)
                assert err_new <= mp.ldexp(1, -prec), (p, n)

    def test_width_covers_the_cancellation_at_large_n(self):
        # the sum cancels about 0.34 n bits at p = 2; with a fixed 32
        # guard bits, jhat(2, 150) was good to only 2^-105.2 relative.
        # The growing width keeps the guard bits too (2^-161.7 here),
        # so 2^-(prec + 24) leaves room for the last rounding only
        prec = 128
        got = as_mp(jhat(2, 150, prec=prec))
        with mp.workprec(480):
            ref = jhat_per_term(2, 150)
            assert abs(got - ref) / abs(ref) <= mp.ldexp(1, -(prec + 24))

    def test_finite_part_takes_no_mpc_products_per_term(self, monkeypatch):
        # the double sum runs on ints; an mpc sum takes Theta(n^2)
        # products (3,975 at n = 40), and the roots of unity come from
        # an integer series, so none are taken at all
        calls = []
        mul, rmul = mp.mpc.__mul__, mp.mpc.__rmul__

        def counted(real):
            def wrapper(a, b):
                calls.append(1)
                return real(a, b)
            return wrapper

        monkeypatch.setattr(mp.mpc, "__mul__", counted(mul))
        monkeypatch.setattr(mp.mpc, "__rmul__", counted(rmul))
        n = 40
        got = pole_cancel(3, n)
        monkeypatch.undo()
        assert calls == []
        with mp.workprec(160):
            assert abs(as_mp(got) - as_mp(jhat(3, n, prec=128))) \
                < mp.ldexp(1, -120)


def pole_cancel(p, n, prec=128):
    """_jhat_pole_cancel at jhat's width and roots of unity, for any p.

    jhat itself sends p = -1 to its closed-form product instead.
    """
    g = volnum._width(n, prec + volnum.GUARD_BITS)
    return volnum._jhat_pole_cancel(p, n, g, *volnum._roots_of_unity(n, g))


def level_tables(p, n):
    """The per-level exponents F - k of K_p's summand, and n's primes.

    The two tables _jhat_pole_cancel builds once per call and hands to
    its residue certificate.
    """
    fs = [l * (l + 1) * p + l * (l - 1) // 2 for l in range(n)]
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % d for d in range(2, r))]
    return fs, primes


def residue_terms(n, k, l0):
    """Per-l folded products (1 - q^(2l+1)) A_l B_l, each built whole.

    The oracle for volnum._residue_sum: every l multiplies its full
    factor list again, with no running product shared between rows.
    The sign and the monomial q^F are left to the caller, so one list
    serves every p.
    """
    rows = []
    for l in range(l0, k + 1):
        cur = [1] + [0] * (n - 1)
        js = [2 * l + 1]
        js.extend(range(k - l + 1, k - l0 + 1))
        js.extend(range(k + l + 2, 2 * k + 2))
        for j in js:
            cur = [cur[i] - cur[(i - j) % n] for i in range(n)]
        rows.append(cur)
    return rows


def residue_sum_oracle(p, n, k, l0, rows):
    acc = [0] * n
    for l, row in zip(range(l0, k + 1), rows):
        f = k + l * (l + 1) * p + l * (l - 1) // 2
        sign = -1 if l % 2 else 1
        for i in range(n):
            acc[(i + f) % n] += sign * row[i]
    return acc


class TestResidueSum:
    def test_matches_per_row_products(self):
        # the packed sum against the oracle vector packed at the same
        # width W; every oracle coefficient is below 2^(W - 2), where
        # packing modulo 2^(nW) - 1 is injective
        ps = (2, -2, 3, -3, 4, -4, 5, -5, 7, -1)
        for n in list(range(3, 41)) + [52, 55]:
            for k in range(n):
                l0 = max(0, n - 1 - k)
                if l0 > k:
                    continue
                rows = residue_terms(n, k, l0)
                span = k - l0 + 1
                width = span + span.bit_length() + 2
                mod = (1 << n * width) - 1
                for p in ps:
                    want = residue_sum_oracle(p, n, k, l0, rows)
                    assert max(map(abs, want)) < 1 << (width - 2)
                    want = sum(c << (i * width) for i, c in enumerate(want))
                    fs, _ = level_tables(p, n)
                    got = volnum._residue_sum(n, k, l0, fs, width)
                    assert got % mod == want % mod, (p, n, k)

    def test_binomial_products_are_linear_in_the_window(self, monkeypatch):
        # two running products take three packed binomial steps per row
        # after the first; rebuilding every row whole takes
        # Theta((k - l0)^2)
        calls = []
        real = volnum._times_binomial

        def counted(x, s, nbits, mod):
            calls.append(s)
            return real(x, s, nbits, mod)

        monkeypatch.setattr(volnum, "_times_binomial", counted)
        p, n, k = 3, 55, 40
        l0 = n - 1 - k
        volnum._residue_sum(n, k, l0, level_tables(p, n)[0], 32)
        assert 0 < len(calls) <= 3 * (k - l0) + 1

    def test_certificate_verdict_matches_cyclotomic_division(self):
        # _residue_certificate raises exactly when the oracle sum leaves
        # a remainder on division by Phi_n; windows shifted by one give
        # both verdicts at every n
        ps = (2, -2, 3, -3, 5, -1)
        levels = {n: range(n // 2, n) for n in range(3, 41)}
        levels.update({n: (n // 2, 3 * n // 4, n - 2) for n in (42, 60, 64)})
        for n, ks in levels.items():
            verdicts = set()
            for k in ks:
                for l0 in range(n - 2 - k, n + 1 - k):
                    if not 0 <= l0 <= k:
                        continue
                    rows = residue_terms(n, k, l0)
                    for p in ps:
                        _, rem = polydivmod(
                            residue_sum_oracle(p, n, k, l0, rows),
                            cyclotomic(n))
                        args = (n, k, l0, *level_tables(p, n))
                        if any(rem):
                            with pytest.raises(CertificationError):
                                volnum._residue_certificate(*args)
                        else:
                            volnum._residue_certificate(*args)
                        verdicts.add(any(rem))
            assert verdicts == {False, True}, n


class TestCyclotomic:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(1, 121):
            want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
            assert cyclotomic(n) == tuple(int(c) for c in
                                          reversed(want)), n


class TestGrowthPolys:
    def test_first_equation_is_pinned(self):
        x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
        want = y * (1 - x) ** 3 - (1 - x * y) * (y - x)
        for p in list(range(-6, 0)) + list(range(1, 7)):
            assert x * volnum._growth_polys(p)[0] == want, p


class TestSaddle:
    def test_fig8_eliminant(self):
        want = parse_poly("1*y^4 + -3*y^3 + 5*y^2 + -3*y + 1")
        assert reduced_eliminant(-1) == want

    def test_eliminant_matches_sympy_resultant(self):
        # oracle: the hand-typed first equation with its factor x
        # divided out and saddle_constraint's documented form; the
        # eliminant keeps no root of p2(0, y), where x = 0 would sit
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        f1 = 1 - 3 * y + y ** 2 + 2 * x * y - x ** 2 * y
        for p in [p for p in range(-12, 13) if p]:
            a = 2 * abs(p)
            if p > 0:
                f2 = y ** (a + 1) + 1 - x * y ** a - x * y
            else:
                f2 = y + y ** a - x - x * y ** (a + 1)
            res = sympy.Poly(sympy.resultant(f1, f2, x), y)
            for factor in (y, y - 1, y + 1):
                div = sympy.Poly(factor, y)
                while res.rem(div).is_zero:
                    res = res.quo(div)
            if res.LC() < 0:
                res = -res
            want = {m[0]: int(c) for m, c in res.terms()}
            assert reduced_eliminant(p).coefficients_in("y") == want, p
            at_x0 = sympy.Poly(f2.subs(x, 0), y)
            assert sympy.gcd(res, at_x0).degree() == 0, p

    def test_nonlinear_constraint_is_refused(self, monkeypatch):
        # x is eliminated through the constraint's root, which would
        # silently drop an x^2 term; both readers of that root refuse it
        sound = reduced_eliminant(2)
        bent = apoly.saddle_constraint(2) + parse_poly("x^2*y")
        monkeypatch.setattr(apoly, "saddle_constraint", lambda p: bent)
        for solve in (reduced_eliminant, saddle_solve):
            with pytest.raises(ArithmeticError, match="not linear in x"):
                solve(2)
        # saddle_solve's own x0, behind a sound eliminant
        monkeypatch.setattr(volnum, "reduced_eliminant", lambda p: sound)
        with pytest.raises(ArithmeticError, match="not linear in x"):
            saddle_solve(2)

    def test_cubic_first_equation_is_refused(self, monkeypatch):
        # clearing at the root assumes the k-step equation has x-degree
        # at most 2, where it equals the resultant
        growth = volnum._growth_polys

        def bent(p):
            p1, p2 = growth(p)
            return p1 + parse_poly("x^3*y"), p2

        monkeypatch.setattr(volnum, "_growth_polys", bent)
        with pytest.raises(ArithmeticError,
                           match="x-degree 3 outside the clearing window"):
            reduced_eliminant(2)

    def test_solution_count_matches_degree(self):
        for p in (-3, -2, -1, 1, 2, 3):
            deg = max(reduced_eliminant(p).coefficients_in("y"))
            assert len(saddle_solve(p, 128)) == deg, p

    def test_residuals_recheck(self):
        # re-evaluate both defining polynomials at higher precision,
        # independently of the residuals the solver reported
        for p in (-2, -1, 2):
            p1, p2 = volnum._growth_polys(p)
            with mp.workprec(224):
                for sol in saddle_solve(p, 128):
                    b = {"x": sol.x0, "y": sol.y0}
                    assert abs(p1.eval_complex(b)) < mp.ldexp(1, -64)
                    assert abs(p2.eval_complex(b)) < mp.ldexp(1, -64)

    def test_solutions_avoid_degenerate_loci(self):
        with mp.workprec(160):
            for p in (-2, -1, 2):
                for sol in saddle_solve(p, 128):
                    assert abs(sol.x0) > mp.mpf(10) ** -8
                    assert abs(sol.y0 - 1) > mp.mpf(10) ** -8
                    assert abs(sol.x0 * sol.y0 - 1) > mp.mpf(10) ** -8
                    assert abs(sol.y0 - sol.x0) > mp.mpf(10) ** -8

    def test_volume_targets(self):
        targets = {-1: "2.029883212819", 2: "2.828122088331",
                   -2: "3.163963228883"}
        with mp.workprec(160):
            for p, digits in targets.items():
                vol, sols = optimistic_volume(p, prec=128)
                assert abs(vol - mp.mpf(digits)) < mp.mpf(10) ** -6, p
                assert sols

    def test_fig8_volume_is_hexagonal_dilog(self):
        # the top solution sits at the hexagonal point, so the volume is
        # 2 D(exp(i*pi/3)) on the nose
        with mp.workprec(200):
            vol, _ = optimistic_volume(-1, prec=128)
            want = 2 * bloch_wigner(mp.expjpi(mp.mpf(1) / 3), 128)
            assert abs(vol - want) < mp.mpf(10) ** -30

    def test_fig8_contains_geometric_point(self):
        with mp.workprec(160):
            tgt = mp.expjpi(mp.mpf(1) / 3)
            best = min(abs(s.x0 - tgt) for s in saddle_solve(-1, 128))
            assert best < mp.mpf(10) ** -30

    def test_torus_knot_volume_vanishes(self):
        # p = 1 (the trefoil) and p = 0 (the unknot) are not hyperbolic;
        # their volume is 0, and the saddle candidates at p = 1 are only
        # precision noise around it, so both are refused
        for p in (0, 1):
            with pytest.raises(ValueError, match="not hyperbolic"):
                optimistic_volume(p, prec=128)

    def test_precision_refinement(self):
        with mp.workprec(320):
            for p in (-1, 2):
                lo, _ = optimistic_volume(p, prec=128)
                hi, _ = optimistic_volume(p, prec=256)
                assert abs(lo - hi) < mp.ldexp(1, -64), p

    def test_deterministic(self):
        assert saddle_solve(-2, 128) == saddle_solve(-2, 128)

    def test_float_start_only_changes_speed(self, monkeypatch):
        # starting polyroots from its own default points instead must
        # give the same solutions, to the last bit
        want = {p: saddle_solve(p, 128) for p in (2, -2, 3, -3)}
        calls = []

        def default_points(coeffs):
            calls.append(len(coeffs) - 1)
            return [(0.4 + 0.9j) ** k for k in range(len(coeffs) - 1)]

        monkeypatch.setattr(volnum, "_durand_kerner", default_points)
        for p, sols in want.items():
            assert saddle_solve(p, 128) == sols, p
        assert len(calls) == 4

    def test_unusable_start_is_not_passed(self, monkeypatch):
        # a float start that overflowed, or that repeats a point, leaves
        # polyroots on its own start points, with the same solutions
        want = saddle_solve(2, 128)
        real_dk, real_roots = volnum._durand_kerner, mp.polyroots
        seen = []

        def spy(coeffs, **kw):
            seen.append(kw.get("roots_init"))
            return real_roots(coeffs, **kw)

        monkeypatch.setattr(mp, "polyroots", spy)
        for broken in (lambda c: [z * 1e300 * 1e300 for z in real_dk(c)],
                       lambda c: [0.5j] * (len(c) - 1),
                       lambda c: real_dk(c)[1:]):
            monkeypatch.setattr(volnum, "_durand_kerner", broken)
            assert saddle_solve(2, 128) == want
        assert seen == [None] * 3

    def test_float_start_rule(self):
        # reduced_eliminant strips every factor of y, so its dense
        # form starts at y^0 and reversed is polyroots' descending list
        lo, asc = to_dense(reduced_eliminant(2), "y")
        assert lo == 0
        coeffs = asc[::-1]
        start = volnum._float_start(coeffs)
        assert len(start) == len(coeffs) - 1
        assert all(isinstance(z, mp.mpc) for z in start)
        # a coefficient ratio past the float range overflows at once
        assert volnum._float_start([1, 0, -(10 ** 400)]) is None

    def test_nonconvergence_is_certification_error(self, monkeypatch):
        def stuck(coeffs, **kw):
            raise NoConvergence("Didn't converge in maxsteps=200 steps.")

        monkeypatch.setattr(mp, "polyroots", stuck)
        with pytest.raises(CertificationError,
                           match="did not converge at p = -3"):
            saddle_solve(-3, 128)

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            saddle_solve(0, 128)
        with pytest.raises(ValueError):
            optimistic_volume(0, 128)


class TestIntegerKernels:
    # the Kashaev half's integer steps against mpmath, within the bounds
    # their docstrings state
    @pytest.mark.parametrize("bits", [16, 64, 160, 300, 1000])
    def test_pi_and_log2_within_one_unit(self, bits):
        with mp.workprec(bits + 100):
            assert abs(volnum._pi_fixed(bits) - mp.ldexp(mp.pi, bits)) < 1
            assert abs(volnum._ln2_fixed(bits) - mp.ldexp(mp.ln2, bits)) < 1

    @pytest.mark.parametrize("n, g", [(2, 100), (3, 100), (7, 160),
                                      (40, 200), (55, 300), (150, 260)])
    def test_roots_of_unity_within_stated_bound(self, n, g):
        # within 1/2 + (w + 1) 2^-24 units, and on these cases equal to
        # the table mpmath's expjpi gave, rounded to nearest
        wr, wi = volnum._roots_of_unity(n, g)
        w = g + n.bit_length() + 24
        with mp.workprec(g + 100):
            bound = mp.mpf(1) / 2 + mp.ldexp(w + 1, -24)
            for j in range(n):
                q = mp.expjpi(mp.mpf(2 * j) / n)
                re, im = mp.ldexp(q.real, g), mp.ldexp(q.imag, g)
                assert abs(wr[j] - re) <= bound, (n, j)
                assert abs(wi[j] - im) <= bound, (n, j)
                assert (wr[j], wi[j]) == (int(mp.nint(re)),
                                          int(mp.nint(im))), (n, j)

    def test_log_rate_within_stated_bound(self):
        rng = random.Random(53)
        bits = 160
        near_one = [((1 << 52) + 1, -52, 7), ((1 << 53) - 1, -53, 40),
                    ((1 << 52) + 3, -51, 3)]
        cases = near_one + [(rng.getrandbits(53) | 1 << 52,
                             rng.randint(-300, 200), rng.randint(3, 200))
                            for _ in range(200)]
        for m, e, n in cases:
            v, w = volnum._log_rate(m, e, n, bits)
            c = abs(e + m.bit_length()) + 1
            with mp.workprec(w + 64):
                exact = 2 * mp.pi * mp.log(mp.ldexp(m, e)) / n
                err = abs(v - mp.ldexp(exact, w))
                assert err <= mp.mpf(13 * w + 8 * c + 60) / n + 1, (m, e, n)
                assert err < abs(mp.ldexp(exact, w - bits)), (m, e, n)
        assert volnum._log_rate(1 << 52, -52, 7, bits)[0] == 0

    def test_mag53_matches_mpmath_abs(self):
        # abs of the mpc whose parts are rounded at bits, taken at
        # mpmath's default 53 bits; one part 0 skips the 57-bit sum
        rng = random.Random(57)

        def part():
            x = rng.getrandbits(rng.randint(1, 600))
            return -x if rng.random() < 0.5 else x

        cases = [(part(), 0) for _ in range(150)]
        cases += [(0, part()) for _ in range(50)]
        cases += [(part(), part()) for _ in range(400)]
        for re, im in cases:
            if not (re or im):
                continue
            bits, scale = rng.choice([96, 160, 288]), rng.randint(0, 600)
            m, e = volnum._mag53(re, im, scale, bits)
            with mp.workprec(bits):
                z = mp.mpc(mp.ldexp(re, -scale), mp.ldexp(im, -scale))
            with mp.workprec(53):
                assert mp.ldexp(m, e) == abs(z), (re, im, scale, bits)
        assert volnum._mag53(0, 0, 10, 96) is None


class TestKashaev:
    def test_rejects_nonhyperbolic(self):
        with pytest.raises(ValueError):
            kashaev_scan(0, range(10, 20))
        with pytest.raises(ValueError):
            kashaev_scan(1, range(10, 20))

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            kashaev_scan(-1, [2, 5])

    def test_reversal_determinism(self):
        fwd = kashaev_scan(-1, range(10, 21), prec=128)
        rev = kashaev_scan(-1, range(20, 9, -1), prec=128)
        assert fwd == rev

    def test_fig8_window_decreases_toward_volume(self):
        # v_n approaches the volume from above: strictly decreasing and
        # one-sidedly bounded below by it over the whole window
        rows = kashaev_scan(-1, range(10, 61), prec=128)
        assert all(v is not None for _, v in rows)
        vols = [as_mp(v) for _, v in rows]
        with mp.workprec(160):
            floor = mp.mpf(FIG8_VOL)
            assert all(v > floor for v in vols)
            assert all(a > b for a, b in zip(vols, vols[1:]))

    def test_fig8_tail_matches_asymptotic(self):
        # growth rate Vol + 2*pi*((3/2)log n - (1/4)log 3)/n + O(1/n^2)
        with mp.workprec(160):
            ((n, v),) = kashaev_scan(-1, [200], prec=128)
            v = as_mp(v)
            pred = (mp.mpf(FIG8_VOL)
                    + 2 * mp.pi * (mp.mpf(3) / 2 * mp.log(n)
                                   - mp.log(3) / 4) / n)
            assert abs(v - pred) < mp.mpf(10) ** -3

    @pytest.mark.parametrize("p", [2, -2])
    def test_extrapolated_rate_meets_the_volume(self, p):
        # ROADMAP item 15: the two numeric routes share no code.  Fit
        # g(n) - 3 pi log(n) / n = V + a/n + b/n^2 + c/n^3 through four
        # colors; V lands within 1e-6 of the saddle volume (about 5e-8
        # off at both p), and g(n) falls strictly toward it from above.
        # An extrapolated number is no certificate, so it stays a test
        ns = [60, 80, 100, 120]
        with mp.workprec(160):
            g = [as_mp(v) for _, v in kashaev_scan(p, ns)]
            rows = [[mp.mpf(1) / n ** j for j in range(4)] for n in ns]
            rhs = [gn - 3 * mp.pi * mp.log(n) / n for gn, n in zip(g, ns)]
            fit = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))[0]
            vol, _ = optimistic_volume(p)
            assert abs(fit - vol) < mp.mpf(10) ** -6
            assert all(a > b for a, b in zip(g, g[1:]))
            assert g[-1] > vol

    def test_undefined_magnitude_recorded_as_none(self, monkeypatch):
        real = volnum.jhat

        def fake(p, n, prec=128):
            if n == 13:
                return 0, 0, 0
            return real(p, n, prec=prec)

        monkeypatch.setattr(volnum, "jhat", fake)
        rows = kashaev_scan(-1, range(12, 15), prec=128)
        table = dict(rows)
        assert table[13] is None
        assert table[12] is not None and table[14] is not None
