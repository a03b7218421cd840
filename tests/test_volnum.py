"""Numerical layer: dilogarithms, saddle volumes, root-of-unity sums.

Oracles are independent of the implementation wherever one exists:
mpmath's polylog / clsin / catalan for the dilogarithm family, the exact
colored Jones polynomial evaluated at s = exp(i*pi/n) for jhat, and the
eliminant degree plus residual re-checks for the saddle solver.
"""
import random

import mpmath as mp
import pytest

from ajtwist import volnum
from ajtwist.jones import KnotId, colored_jones
from ajtwist.laurent import parse_poly
from ajtwist.volnum import (CertificationError, bloch_wigner, dilog, jhat,
                            kashaev_scan, optimistic_volume,
                            reduced_eliminant, saddle_solve)

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
        # one representative per evaluation regime, plus straddling points
        pts = [mp.mpc("0.3", "0.1"), mp.mpc("-0.45", "0.2"),
               mp.mpc("0.49", "-0.1"), mp.mpc("0.52", "0.02"),
               mp.mpc("1.3", "0.4"), mp.mpc("0.8", "-0.6"),
               mp.mpc("1.1", "0.001"), mp.mpc("1.1", "-0.001"),
               mp.mpc("-1.7", "0.3"), mp.mpc("2.4", "1.9"),
               mp.mpc("-3.0", "-2.5"), mp.mpc("40.0", "0.7"),
               mp.mpc("0.01", "1.99"), mp.mpc("-0.8", "0.0")]
        with mp.workprec(200):
            for z in pts:
                got = dilog(z, 128)
                want = mp.polylog(2, z)
                assert abs(got - want) < mp.mpf(10) ** -30, z

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
                    got = jhat(p, n, prec=128)
                    want = jones_at_root_of_unity(p, n, 192)
                    assert abs(got - want) < tol, (p, n)

    def test_fig8_values_are_real(self):
        with mp.workprec(160):
            for n in range(2, 13):
                assert abs(mp.im(jhat(-1, n, prec=128))) < mp.mpf(10) ** -25

    def test_pole_cancel_path_agrees_with_product(self):
        # p = -1 takes a closed-form product shortcut; force the generous
        # route through the same numbers
        with mp.workprec(200):
            for n in range(3, 13):
                fast = jhat(-1, n, prec=128)
                with mp.workprec(128 + 32):
                    slow = volnum._jhat_pole_cancel(-1, n)
                assert abs(fast - slow) < mp.mpf(10) ** -30, n

    def test_precision_refinement(self):
        with mp.workprec(300):
            for p, n in ((2, 9), (-2, 7), (-1, 12), (1, 5)):
                lo = jhat(p, n, prec=128)
                hi = jhat(p, n, prec=256)
                assert abs(lo - hi) < mp.ldexp(1, -100), (p, n)

    def test_named_knot_route(self):
        assert jhat(KnotId.named("5_2"), 6) == jhat(2, 6)
        assert jhat(KnotId.named("6_1"), 6) == jhat(-2, 6)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            jhat(2, 1)
        with pytest.raises(ValueError):
            jhat(-1, 0)

    def test_residue_certificate_rejects_wrong_window(self):
        # shifting the singular window start by one breaks the exact
        # cancellation, and the integer certificate must catch it
        for args in ((1, 5, 3, 2), (2, 7, 4, 3), (-2, 6, 4, 2)):
            with pytest.raises(CertificationError):
                volnum._residue_certificate.__wrapped__(*args)


class TestSaddle:
    def test_fig8_eliminant(self):
        want = parse_poly("1*y^4 + -3*y^3 + 5*y^2 + -3*y + 1")
        assert reduced_eliminant(-1) == want

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

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            saddle_solve(0, 128)
        with pytest.raises(ValueError):
            optimistic_volume(0, 128)


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
        vols = [v for _, v in rows]
        assert all(v is not None for v in vols)
        with mp.workprec(160):
            floor = mp.mpf(FIG8_VOL)
            assert all(v > floor for v in vols)
            assert all(a > b for a, b in zip(vols, vols[1:]))

    def test_fig8_tail_matches_asymptotic(self):
        # growth rate Vol + 2*pi*((3/2)log n - (1/4)log 3)/n + O(1/n^2)
        with mp.workprec(160):
            ((n, v),) = kashaev_scan(-1, [200], prec=128)
            pred = (mp.mpf(FIG8_VOL)
                    + 2 * mp.pi * (mp.mpf(3) / 2 * mp.log(n)
                                   - mp.log(3) / 4) / n)
            assert abs(v - pred) < mp.mpf(10) ** -3

    def test_undefined_magnitude_recorded_as_none(self, monkeypatch):
        real = volnum.jhat

        def fake(knot, n, prec=128):
            if n == 13:
                return mp.mpc(0)
            return real(knot, n, prec=prec)

        monkeypatch.setattr(volnum, "jhat", fake)
        rows = kashaev_scan(-1, range(12, 15), prec=128)
        table = dict(rows)
        assert table[13] is None
        assert table[12] is not None and table[14] is not None
