"""End-to-end runs of the command line front end, in process."""
import hashlib
import importlib.util
import json
import os
from pathlib import Path
import random
import subprocess
import sys

import mpmath as mp
from mpmath.libmp import NoConvergence
import pytest

from ajtwist import apoly, cli, jones, volnum
from ajtwist.apoly import a_polynomial, h_polynomial
from ajtwist.jones import NUM, colored_jones
from ajtwist.laurent import InexactDivision, parse_poly
from ajtwist.volnum import CertificationError, kashaev_scan
from oracles import as_mp

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["volume", "--bogus"],
        ["jones", "--p", "2", "--n", "0"],
        ["jones", "--p", "-1", "--knot", "5_2", "--n", "2"],
        ["jones", "--n", "2"],
        ["volume", "--p", "2", "--prec", "32"],
        ["volume", "--p", "0"],
        ["volume", "--p", "1"],
        ["kashaev", "--p", "1", "--n-min", "10", "--n-max", "20"],
        ["kashaev", "--p", "-1", "--n-min", "20", "--n-max", "10"],
        ["verify-aj", "--p-min", "3", "--p-max", "1"],
        ["rec-check", "--fixture", "no_such_fixture",
         "--n-min", "6", "--n-max", "8"],
    ])
    def test_exit_two(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 2


# sha256 of the parser's text: stdout of each --help, stderr of the two
# bad top-level calls.  The command table must rebuild argparse's text
# exactly, whether a request builds one subparser or all nine.
# argparse wraps help to the terminal width, hence COLUMNS.
PARSER_TEXT = [
    (["--help"],
     "4413c18abeebb7de43d797122712201924e15a36e86e4ce61438467ea7b5636d"),
    (["jones", "--help"],
     "ea301db036dae790b30734143d6f7e1f73c7d99b94cbaa9d3569876ac38d3e4f"),
    (["apoly", "--help"],
     "c24ab3666fe1b53efef4cf5955f26b4501192da8f3eb8b060321f757991aac61"),
    (["bpoly", "--help"],
     "72da4939bd84252313a6aee9094c1ad698ac61afcb2f812ad01c2da35ec65a64"),
    (["hpoly", "--help"],
     "1ad5c9bcade23bc821e6d22952fb6f8240a0b628afd906c373b90ff3decc5b32"),
    (["verify-aj", "--help"],
     "14ffc638c7e9f8fbc847c4a9a7b02a23b9e09647511dac4688aa17e7fef31149"),
    (["rec-check", "--help"],
     "3bb98f117f178ec41a324026495a22aaabf8007810b2d313df00e4712418a9e6"),
    (["rec-q1", "--help"],
     "4baa2d334fc6f20fc5af3d6358ae814b8a4026c70f83b5a28f1a7d5359f75809"),
    (["volume", "--help"],
     "5e14285016056f0a6fd3412296deb0b1958695b9041b99fcdf470680a82d60f0"),
    (["kashaev", "--help"],
     "dcfa30f0ce89bf44195902d619b8ae6dd452856d4c3e7e758236875e8a3f2391"),
    ([], "89b5aac18bb8e5c55604a103a74b9d326edc5c2d6c15c543785f0ea490398966"),
    (["frobnicate"],
     "1de93c3c23e3407b20d886e629e667dc2b18d7c9856e9212222eaa0c550b18fa"),
]


@pytest.mark.parametrize("argv, digest", PARSER_TEXT,
                         ids=[" ".join(a) or "none" for a, _ in PARSER_TEXT])
def test_parser_text(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    help_asked = "--help" in argv
    assert code == (0 if help_asked else 2)
    text = out if help_asked else err
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# a name each command calls through cli, and a cheap request of it
COMMAND_CALLS = {
    "jones": ("colored_jones", ["--p", "2", "--n", "3"]),
    "apoly": ("a_polynomial", ["--p", "1"]),
    "bpoly": ("b_polynomial", ["--p", "1"]),
    "hpoly": ("h_polynomial", ["--p", "2", "--out", "json"]),
    "verify-aj": ("verify_aj", ["--p-min", "0", "--p-max", "1"]),
    "rec-check": ("check_kfree", ["--fixture", "fivetwo_kfree",
                                  "--n-min", "6", "--n-max", "6"]),
    "rec-q1": ("specialize_q1", ["--fixture", "fivetwo_inhom",
                                 "--compare-p", "2"]),
    "volume": ("optimistic_volume", ["--p", "-1"]),
    "kashaev": ("kashaev_scan", ["--p", "-1", "--n-min", "10",
                                 "--n-max", "11", "--out", "json"]),
}


def test_command_calls_cover_the_table():
    assert list(COMMAND_CALLS) == list(cli.COMMANDS)


def _mutate_summand(monkeypatch):
    # TestChainReadsSummand's mutation: the level part's numerator
    # (q)_k becomes (q)_(2k), so the k-step at q = 1 loses its shape
    form = jones._SUMMAND_FORMS["K_p"]
    level = (NUM, 1, (0, 0, 1, 0))
    monkeypatch.setitem(jones._SUMMAND_FORMS, "K_p", form._replace(
        pochs=tuple((NUM, 1, (0, 0, 2, 0)) if poch == level else poch
                    for poch in form.pochs)))


def _non_unit_color_one(monkeypatch):
    # every double sum doubled: named_form_unit then reads -2 at color 1
    real = jones.colored_jones_multisum
    monkeypatch.setattr(jones, "colored_jones_multisum",
                        lambda knot, n: 2 * real(knot, n))


def _inexact_a_polynomial(monkeypatch):
    def fail(p):
        raise InexactDivision("forced")
    monkeypatch.setattr(cli, "a_polynomial", fail)


class TestExitCodes:
    # main maps every command's exceptions to one exit code each
    @pytest.mark.parametrize("exc, code, prefix", [
        pytest.param(exc, code, prefix, id=exc.__name__)
        for exc, code, prefix in [
            (cli.UsageError, 2, "error: "),
            (ValueError, 2, "error: "),
            (OSError, 2, "error: "),
            (CertificationError, 3, "not certified: "),
            (ZeroDivisionError, 3, "not certified: "),
            (ArithmeticError, 3, "not certified: ")]])
    @pytest.mark.parametrize("command", list(COMMAND_CALLS))
    def test_exception_maps_to_exit_code(self, capsys, monkeypatch,
                                         command, exc, code, prefix):
        name, argv = COMMAND_CALLS[command]

        def fail(*args, **kwargs):
            raise exc("forced")
        monkeypatch.setattr(cli, name, fail)
        assert run(capsys, command, *argv) == (code, "", prefix + "forced\n")

    # an ArithmeticError raised deep in the library, of any class
    @pytest.mark.parametrize("setup, argv", [
        (_mutate_summand, ["volume", "--p", "2"]),
        (_inexact_a_polynomial, ["apoly", "--p", "1"]),
        (_non_unit_color_one, ["jones", "--knot", "5_2", "--form",
                               "multisum", "--habiro-normalize", "--n", "3"])],
        ids=["mutated-summand", "inexact-division", "non-unit-color-1"])
    def test_library_arithmetic_error(self, capsys, monkeypatch, setup, argv):
        setup(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("not certified: ")


class TestJones:
    def test_text_is_printed_convention(self, capsys):
        code, out, _ = run(capsys, "jones", "--p", "2", "--n", "3")
        assert code == 0
        assert out.strip() == colored_jones(2, 3, "printed").text()

    def test_habiro_normalize(self, capsys):
        _, out, _ = run(capsys, "jones", "--p", "-1", "--n", "4",
                        "--habiro-normalize")
        assert out.strip() == colored_jones(-1, 4, "habiro").text()

    def test_multisum_agrees_with_habiro(self, capsys):
        _, out, _ = run(capsys, "jones", "--p", "-2", "--n", "3",
                        "--form", "multisum")
        assert out.strip() == colored_jones(-2, 3, "habiro").text()

    def test_named_multisum_unit(self, capsys):
        # 5_2's double sum carries a constant unit of -1
        _, raw, _ = run(capsys, "jones", "--knot", "5_2", "--n", "3",
                        "--form", "multisum")
        _, fixed, _ = run(capsys, "jones", "--knot", "5_2", "--n", "3",
                          "--form", "multisum", "--habiro-normalize")
        want = colored_jones(2, 3, "habiro")
        assert parse_poly(raw.strip()) == -want
        assert parse_poly(fixed.strip()) == want

    def test_named_masbaum_route(self, capsys):
        _, a, _ = run(capsys, "jones", "--knot", "6_1", "--n", "4")
        _, b, _ = run(capsys, "jones", "--p", "-2", "--n", "4")
        assert a == b

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "jones", "--p", "1", "--n", "3",
                           "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["knot"] == "K_1"
        assert payload["n"] == 3
        assert payload["form"] == "masbaum"
        assert parse_poly(payload["polynomial"]) == colored_jones(1, 3)


class TestPolynomialCommands:
    def test_apoly_base_case(self, capsys):
        code, out, _ = run(capsys, "apoly", "--p", "1", "--out", "text")
        assert code == 0
        assert out.strip() == "l + m^6"

    def test_bpoly_matches_apoly_here(self, capsys):
        _, out, _ = run(capsys, "bpoly", "--p", "1")
        assert out.strip() == "l + m^6"

    def test_hpoly_json(self, capsys):
        _, out, _ = run(capsys, "hpoly", "--p", "2", "--out", "json")
        payload = json.loads(out)
        assert payload["kind"] == "h"
        assert parse_poly(payload["polynomial"]) == h_polynomial(2)

    def test_text_json_same_polynomial(self, capsys):
        _, text, _ = run(capsys, "apoly", "--p", "-2", "--out", "text")
        _, blob, _ = run(capsys, "apoly", "--p", "-2", "--out", "json")
        a = parse_poly(text.strip())
        b = parse_poly(json.loads(blob)["polynomial"])
        assert a == b == a_polynomial(-2)


class TestVerifyAj:
    def test_thirteen_equal_lines(self, capsys):
        code, out, _ = run(capsys, "verify-aj", "--p-min", "-6",
                           "--p-max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        assert all("equal" in line for line in lines)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify-aj", "--p-min", "-2",
                           "--p-max", "2", "--out", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["p"] for r in reports] == [-2, -1, 0, 1, 2]
        for r in reports:
            assert set(r) == {"p", "equal", "unit", "diff"}
            assert r["equal"] is True
            assert r["unit"] == "1"
            assert r["diff"] == []

    def test_stderr_names_how_each_p_was_certified(self, capsys):
        code, out, err = run(capsys, "verify-aj", "--p-min", "-4",
                             "--p-max", "5")
        assert code == 0
        assert out == "".join("p = %d: equal\n" % p for p in range(-4, 6))
        assert err == ("p certified by the three-term law from its seeds: "
                       "-4..-2, 3..5; p compared directly: -1..2\n")
        _, _, err = run(capsys, "verify-aj", "--p-min", "7", "--p-max", "7")
        assert err == ("p certified by the three-term law from its seeds: "
                       "7; p compared directly: none\n")

    # sha256 of stdout with the recursive route broken on purpose: p = 0
    # still agrees, p = 1 is off by the unit -1 and p = 2 by two
    # coefficients, so every report line and diff row is pinned
    @pytest.mark.parametrize("out, digest", [
        ("text", "74f1a80197145151aa51723c271c2241"
                 "b3aaf8c058eaff5c581f5ff83d492906"),
        ("json", "05aa875684d914c7978ad78a3c9cacb9"
                 "d033a2d5a669f14ac62840e6aefe3346"),
    ])
    def test_mismatch_output_digest(self, capsys, monkeypatch, out, digest):
        def broken(p):
            if p == 1:
                return -a_polynomial(p)
            if p == 2:
                return a_polynomial(p) + parse_poly("3*l*m^2 - l^2*m^2")
            return a_polynomial(p)

        monkeypatch.setattr(apoly, "a_polynomial", broken)
        code, text, _ = run(capsys, "verify-aj", "--p-min", "0",
                            "--p-max", "2", "--out", out)
        assert code == 1
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # sha256 of stdout over p in -25..25, which holds every window the
    # benchmark's aj-family workload asks for
    @pytest.mark.parametrize("out, digest", [
        ("text", "37074438a0973495a14fb0feda64e350"
                 "aed6fd84ca70e1635e684dd8e4e806e3"),
        ("json", "b566816289b858c3a24f4fae0b23972b"
                 "9afb3cccf9ac431d046fe09698df9e0e"),
    ])
    def test_wide_window_digest(self, capsys, out, digest):
        code, text, _ = run(capsys, "verify-aj", "--p-min", "-25",
                            "--p-max", "25", "--out", out)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRecCheck:
    def test_kfree_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "rec-check", "--fixture",
                           "fivetwo_kfree", "--n-min", "6", "--n-max", "8")
        assert code == 0
        assert "all residuals zero" in out
        assert "76 points" in out

    def test_skipped_points_go_to_stderr(self, capsys):
        code, out, err = run(capsys, "rec-check", "--fixture",
                             "fivetwo_kfree", "--n-min", "6", "--n-max", "8")
        assert code == 0
        # three of the 21 + 28 + 36 points per color are not interior
        assert "skipped 9 of 85 grid points" in err
        assert "skipped" not in out
        assert out.splitlines()[0] == \
            "fixture fivetwo_kfree: mode interior, n in [6, 8], 76 points"

    def test_empty_grid_is_not_certified(self, capsys):
        code, out, err = run(capsys, "rec-check", "--fixture",
                             "fivetwo_kfree", "--n-min", "1", "--n-max", "3")
        assert code == 3
        assert out.splitlines() == [
            "fixture fivetwo_kfree: mode interior, n in [1, 3], 0 points",
            "no grid points checked"]
        assert "no interior grid points" in err

    def test_wrong_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rec-check", "--fixture",
                           "fivetwo_inhom", "--n-min", "6", "--n-max", "8")
        assert code == 2
        assert "kfree" in err

    def test_vanishing_denominator_is_not_certified(self, capsys, tmp_path):
        # 1 - q^-6 N is zero at n = 6
        fixture = tmp_path / "vanish.rec"
        fixture.write_text(
            "recurrence vanish kind=kfree knot=5_2\n"
            "term shift=(0,0,0) num= 1 den= 1 + -1*q^-6*N^1\n"
            "term shift=(1,0,0) num= 1 den= 1\n")
        code, out, err = run(capsys, "rec-check", "--fixture", str(fixture),
                             "--n-min", "5", "--n-max", "7")
        assert code == 3
        assert out == ""
        assert err.startswith("not certified: ")
        assert "n = 6" in err

    def test_malformed_fixture_is_usage_error(self, capsys, tmp_path):
        fixture = tmp_path / "bad.rec"
        fixture.write_text(
            "recurrence bad kind=kfree knot=5_2\n"
            "term shift=(0,0,0) num= 1 + + q den= 1\n"
            "term shift=(1,0,0) num= 1 den= 1\n")
        code, out, err = run(capsys, "rec-check", "--fixture", str(fixture),
                             "--n-min", "6", "--n-max", "6")
        assert code == 2
        assert out == ""
        # the second + is the 29th character of line 2
        assert err == "error: expected a factor in num (line 2, column 29)\n"

    # sha256 of json [rc, stdout, stderr]: the interior run certifies
    # every residual zero, the full run lists the nonzero ones
    @pytest.mark.parametrize("argv, digest", [
        (["--n-min", "6", "--n-max", "9"],
         "4f3a62bd78fa22ed179c708c0d27abbf"
         "ef1bea2fe6417f635b6b45c7f4cc254e"),
        (["--n-min", "1", "--n-max", "6", "--mode", "full"],
         "688bb4ed1a0a137c2dc80cdadb703cfa"
         "5246edf880509e2acd235ead94775042"),
    ], ids=["interior", "full"])
    def test_golden_output(self, capsys, argv, digest):
        result = run(capsys, "rec-check", "--fixture", "fivetwo_kfree",
                     *argv)
        assert result[0] == (1 if "full" in argv else 0)
        text = json.dumps(result)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRecQ1:
    def test_fivetwo_agrees_at_two(self, capsys):
        code, out, _ = run(capsys, "rec-q1", "--fixture", "fivetwo_inhom",
                           "--compare-p", "2")
        assert code == 0
        assert "abelian factor power: 2" in out
        assert "equal up to unit 1" in out

    def test_sixone_agrees_at_minus_two(self, capsys):
        code, out, _ = run(capsys, "rec-q1", "--fixture", "sixone_inhom",
                           "--compare-p", "-2")
        assert code == 0
        assert "equal up to unit" in out

    def test_wrong_p_fails_with_diff(self, capsys):
        code, out, _ = run(capsys, "rec-q1", "--fixture", "fivetwo_inhom",
                           "--compare-p", "3")
        assert code == 1
        assert "DIFFERS" in out

    # sha256 of stdout for the mismatch above, with its 36 diff rows
    @pytest.mark.parametrize("out, digest", [
        ("text", "2432d4407bb705de3e2acce0dd1c1d3d"
                 "3d6f5513f774b38cc907c475652d5406"),
        ("json", "697576beffa8ce3ce68fa56eff187b67"
                 "ff55e7442eb78a7f59e1c9a8a2a2be9a"),
    ])
    def test_mismatch_output_digest(self, capsys, out, digest):
        code, text, _ = run(capsys, "rec-q1", "--fixture", "fivetwo_inhom",
                            "--compare-p", "3", "--out", out)
        assert code == 1
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_json_report(self, capsys):
        _, out, _ = run(capsys, "rec-q1", "--fixture", "sixone_inhom",
                        "--compare-p", "-2", "--out", "json")
        payload = json.loads(out)
        assert payload["fixture"] == "sixone_inhom"
        assert payload["equal"] is True
        assert payload["abelian_power"] == 1

    def test_vanishing_denominator_is_not_certified(self, capsys, tmp_path):
        # 1 - q^2 is zero at q = 1
        fixture = tmp_path / "vanish.rec"
        fixture.write_text(
            "recurrence vanish kind=inhom knot=5_2\n"
            "term shift=(0) num= 1 den= 1 + -1*q^2\n"
            "term shift=(1) num= 1 den= 1\n")
        code, out, err = run(capsys, "rec-q1", "--fixture", str(fixture),
                             "--compare-p", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("not certified: ")
        assert "q = 1" in err

    @pytest.mark.parametrize("out", ["text", "json"])
    def test_inexact_cancellation_fails(self, capsys, monkeypatch, out):
        # exit 1 with the reason on stderr, and no report in either format
        def inexact(spec):
            raise InexactDivision("remainder 1")
        monkeypatch.setattr(cli, "specialize_q1", inexact)
        assert run(capsys, "rec-q1", "--fixture", "fivetwo_inhom",
                   "--compare-p", "2", "--out", out) == (
            1, "", "q = 1 cancellation failed: remainder 1\n")

    def test_zero_shadow_differs(self, capsys, tmp_path):
        # q - 1 and q^2 - 1 both vanish at q = 1, so the shadow is 0,
        # which no power of (1 + m^2 l) divides down to A
        fixture = tmp_path / "zero.rec"
        fixture.write_text(
            "recurrence zero kind=inhom knot=5_2\n"
            "term shift=(0) num= q - 1 den= 1\n"
            "term shift=(1) num= q^2 - 1 den= 1\n")
        code, out, _ = run(capsys, "rec-q1", "--fixture", str(fixture),
                           "--compare-p", "2")
        assert code == 1
        assert out.splitlines()[1:3] == ["abelian factor power: 0",
                                         "DIFFERS (12 coefficient mismatches)"]


class TestVolume:
    def test_fig8_value(self, capsys):
        code, out, _ = run(capsys, "volume", "--p", "-1")
        assert code == 0
        assert out.startswith("volume = 2.0298832128193072")

    def test_all_solutions_line_count(self, capsys):
        _, out, _ = run(capsys, "volume", "--p", "-1", "--all-solutions")
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("volume = ")

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "volume", "--p", "2", "--all-solutions")
        _, second, _ = run(capsys, "volume", "--p", "2", "--all-solutions")
        assert first == second

    def test_noncertification_exit(self, capsys, monkeypatch):
        def broken(p, prec=128):
            raise CertificationError("forced")
        monkeypatch.setattr(cli, "optimistic_volume", broken)
        code, _, err = run(capsys, "volume", "--p", "2")
        assert code == 3
        assert "not certified" in err

    # sha256 of stdout with every saddle solution listed, over the twist
    # parameters the benchmark's volume-scan workload asks for: each
    # line prints 20 digits of x0, y0 and the candidate, so a change in
    # the root finder that moves any solution shows here; no line has
    # x0 = 0, since the eliminant has no roots from that locus
    @pytest.mark.parametrize("p, digest", [
        (2, "9339015b984d6bcf502e1602e52f0b01"
            "3be7c32a9d2929bedc09ea159de4efe4"),
        (-2, "ab02ea3f25847fabf51bce78ee69af03"
             "4a4378032f56ab6003daf113f7a72cc8"),
        (3, "5c39304f82243ea2cd30c42e2723ad0e"
            "5620ea24fc610c37f1131fc1c6cd03bb"),
        (-3, "d4b333ad3efc5b8519aea3fd7df3c950"
             "abe11bbd7175c6cfa9c7b61ebcf07d12"),
        (4, "2cdbbd4fd91c6c99dbf8969a3b642ac8"
            "8084725a9c65b65ebf41232704934eec"),
        (-4, "a4a1939d2a75925e4289225f460109e3"
             "c2c2e00b69028280c9c5f479ac9d5de8"),
        (5, "6799fd79381fc3030746eda1a5d31588"
            "5f3a994e412bbab08a26200de2879237"),
    ])
    def test_all_solutions_digest(self, capsys, p, digest):
        code, out, _ = run(capsys, "volume", "--p", str(p),
                           "--all-solutions")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_root_nonconvergence_exit(self, capsys, monkeypatch):
        # a root solve that does not converge is a refusal, not a crash
        def stuck(coeffs, **kw):
            raise NoConvergence("Didn't converge in maxsteps=200 steps.")

        monkeypatch.setattr(mp, "polyroots", stuck)
        code, out, err = run(capsys, "volume", "--p", "2")
        assert (code, out) == (3, "")
        assert err == ("not certified: eliminant roots did not converge "
                       "at p = 2\n")


class TestKashaev:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "kashaev", "--p", "-1",
                           "--n-min", "10", "--n-max", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,v_n"
        assert len(lines) == 4
        rows = kashaev_scan(-1, range(10, 13), prec=128)
        for line, (n, v) in zip(lines[1:], rows):
            assert line == "%d,%s" % (n, mp.nstr(as_mp(v), 20))

    def test_json_matches_csv_values(self, capsys):
        _, csv_out, _ = run(capsys, "kashaev", "--p", "2",
                            "--n-min", "8", "--n-max", "9")
        _, json_out, _ = run(capsys, "kashaev", "--p", "2",
                             "--n-min", "8", "--n-max", "9",
                             "--out", "json")
        payload = json.loads(json_out)
        csv_rows = [line.split(",") for line in
                    csv_out.strip().splitlines()[1:]]
        assert [r["v_n"] for r in payload["rows"]] == \
            [cells[1] for cells in csv_rows]

    def test_undefined_rows(self, capsys, monkeypatch):
        def fake(p, ns, prec=128):
            return [(10, (2, 0)), (11, None)]
        monkeypatch.setattr(cli, "kashaev_scan", fake)
        _, csv_out, _ = run(capsys, "kashaev", "--p", "-1",
                            "--n-min", "10", "--n-max", "11")
        assert csv_out.strip().splitlines()[2] == "11,undefined"
        _, json_out, _ = run(capsys, "kashaev", "--p", "-1",
                             "--n-min", "10", "--n-max", "11",
                             "--out", "json")
        assert json.loads(json_out)["rows"][1]["v_n"] is None

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "kashaev", "--p", "-2",
                          "--n-min", "6", "--n-max", "8")
        _, second, _ = run(capsys, "kashaev", "--p", "-2",
                           "--n-min", "6", "--n-max", "8")
        assert first == second

    # sha256 of stdout for one window of the benchmark's volume-scan
    # workload on each side of p, both past the singular-window onset
    @pytest.mark.parametrize("p, n_min, n_max, digest", [
        (3, 48, 49, "084f535214fa89a5c7f5699581385523"
                    "080af92cbc460515128924c12a7b3502"),
        (-5, 44, 46, "80da6e31a01e4ed919a5c7370c14aaf3"
                     "fd9c8b0cf627a01cda5379b47ab1a476"),
    ])
    def test_window_digest(self, capsys, p, n_min, n_max, digest):
        code, out, _ = run(capsys, "kashaev", "--p", str(p), "--n-min",
                           str(n_min), "--n-max", str(n_max))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of stdout past the benchmark's keys: the closed-form p = -1
    # route over its whole range, and both precision extremes.  The
    # magnitude is read at 53 bits (volnum._mag53), so --prec 64 and 256
    # print the same bytes
    @pytest.mark.parametrize("argv, digest", [
        (["--p", "-1", "--n-min", "3", "--n-max", "60"],
         "b823ea8dcbe7fab60de3152814f5f011"
         "8770d5d6430b21f6402402502e38f851"),
        (["--p", "2", "--n-min", "3", "--n-max", "40", "--prec", "64"],
         "ba5da241913c5c051c8d7eb900d371ba"
         "d6659d508da488a5429379ec10bd664b"),
        (["--p", "2", "--n-min", "3", "--n-max", "40", "--prec", "256"],
         "ba5da241913c5c051c8d7eb900d371ba"
         "d6659d508da488a5429379ec10bd664b"),
        (["--p", "-3", "--n-min", "3", "--n-max", "40", "--prec", "64"],
         "204301d2e1bd7bbc732886b39a67cd65"
         "63129e33fd08b2a55cc913e7c02b5542"),
        (["--p", "-3", "--n-min", "3", "--n-max", "40", "--prec", "256"],
         "204301d2e1bd7bbc732886b39a67cd65"
         "63129e33fd08b2a55cc913e7c02b5542"),
    ], ids=["fig8", "p2-prec64", "p2-prec256", "p-3-prec64",
            "p-3-prec256"])
    def test_wide_window_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, "kashaev", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.xfail(strict=True, reason=(
        "|jhat| is read at 53 bits (volnum._mag53), so only about 16 of "
        "the 20 printed digits are correct; perfbench/reference.json "
        "records those digits (ROADMAP item 1)"))
    def test_prints_twenty_correct_digits(self, capsys):
        # the value at 160 bits; at 53 bits the tail reads ...03254
        code, out, _ = run(capsys, "kashaev", "--p", "3",
                           "--n-min", "40", "--n-max", "40")
        assert (code, out) == (0, "n,v_n\n40,4.0671959455126703179\n")


class TestNstr20:
    # cli._nstr20 prints kashaev's dyadics on ints; mpmath's nstr(x, 20)
    # on the same exact value is the oracle
    @staticmethod
    def oracle(man, scale):
        return mp.nstr(mp.ldexp(man, -scale), 20)

    def test_random_dyadics(self):
        rng = random.Random(20)
        for _ in range(3000):
            man = rng.getrandbits(rng.randint(1, 300))
            if rng.random() < 0.5:
                man = -man
            scale = rng.randint(-120, 420)
            assert cli._nstr20(man, scale) == self.oracle(man, scale), \
                (man, scale)

    def test_zero(self):
        assert cli._nstr20(0, 17) == self.oracle(0, 17) == "0.0"

    @staticmethod
    def dyadic(value):
        """The 400-bit binary value nearest to a decimal string."""
        with mp.workprec(400):
            sign, man, exp, _ = mp.mpf(value)._mpf_
        return -man if sign else man, -exp

    @pytest.mark.parametrize("value, printed", [
        ("9.999999999999999999951", "10.0"),
        ("9.999999999999999999949", "9.9999999999999999999"),
        ("-99999.999999999999999951", "-100000.0"),
        ("0.99999999999999999999951", "1.0"),
    ])
    def test_carry_at_the_twenty_first_digit(self, value, printed):
        # a 5 in the 21st digit carries through every 9 before it
        man, scale = self.dyadic(value)
        assert cli._nstr20(man, scale) == self.oracle(man, scale) == printed

    @pytest.mark.parametrize("value", ["1e-6", "9.99e-6", "1e-5",
                                       "1.5e-5", "9.9999e19", "1e20",
                                       "123456789012345678901", "-1e-6",
                                       "-1.25e19", "1", "0.5"])
    def test_notation_boundaries(self, value):
        # fixed notation exactly when -6 < exponent < 20
        man, scale = self.dyadic(value)
        assert cli._nstr20(man, scale) == self.oracle(man, scale)


class TestOutFile:
    def test_writes_file_not_stdout(self, capsys, tmp_path):
        target = tmp_path / "vol.txt"
        code, out, _ = run(capsys, "volume", "--p", "-1",
                           "--out-file", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("volume = 2.02988")

    @pytest.mark.parametrize("command", list(COMMAND_CALLS))
    def test_same_bytes_as_stdout(self, capsys, tmp_path, command):
        argv = [command] + COMMAND_CALLS[command][1]
        printed = run(capsys, *argv)
        target = tmp_path / "result"
        code, out, err = run(capsys, *argv, "--out-file", str(target))
        assert (code, out, err) == (printed[0], "", printed[2])
        assert target.read_bytes() == printed[1].encode()

    @pytest.mark.parametrize("command", list(COMMAND_CALLS))
    def test_unwritable_path_is_usage_error(self, capsys, tmp_path,
                                            command):
        argv = [command] + COMMAND_CALLS[command][1]
        code, out, err = run(capsys, *argv, "--out-file",
                             str(tmp_path / "no_dir" / "x"))
        assert (code, out) == (2, "")
        # after any note the command wrote before it returned
        assert err.splitlines()[-1].startswith("error: ")


class TestTracedRunner:
    # perfbench/traced.py wraps each layer where its callers look it up,
    # so a refactor that moves a lookup would silently drop that span
    @pytest.mark.parametrize("argv, focus", [
        (["jones", "--p", "2", "--n", "6", "--habiro-normalize"],
         {"jones.assemble_sum"}),
        (["jones", "--knot", "5_2", "--form", "multisum", "--n", "6"],
         {"jones.assemble_sum"}),
        (["rec-check", "--fixture", "fivetwo_kfree",
          "--n-min", "6", "--n-max", "6"], {"qseries.is_zero_sum"}),
        # three residuals of this grid are nonzero, so the trace runs the
        # decode path of qseries.cleared_sum
        (["rec-check", "--fixture", "fivetwo_kfree",
          "--n-min", "1", "--n-max", "3", "--mode", "full"],
         {"qseries.is_zero_sum"}),
        (["rec-q1", "--fixture", "fivetwo_inhom", "--compare-p", "2"],
         {"apoly.a_polynomial"}),
        (["verify-aj", "--p-min", "-2", "--p-max", "2"],
         {"apoly.a_polynomial"}),
        (["verify-aj", "--p-min", "11", "--p-max", "11"],
         {"apoly.a_polynomial"}),
        (["kashaev", "--p", "2", "--n-min", "10", "--n-max", "11"],
         {"volnum.jhat"}),
        # the eliminant (with its degree count), polyroots and complex
        # evaluation are wrapped for volume alone
        (["volume", "--p", "2"],
         {"volnum.saddle_solve", "volnum.reduced_eliminant",
          "mpmath.polyroots", "laurent.eval_complex"}),
    ], ids=["jones", "jones-multisum", "rec-check", "rec-check-full",
            "rec-q1", "verify-aj", "verify-aj-law", "kashaev", "volume"])
    def test_matches_cli_and_reaches_focus(self, capsys, argv, focus):
        code, out, _ = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), "0",
             *argv],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert (result["rc"], result["stdout"]) == (code, out)
        assert focus <= {span[0] for span in result["spans"]}


def test_benchmark_requests_print_their_reference_bytes(capsys):
    # the benchmark gate compares only each request's certified part, to
    # a tolerance; every request it can draw must also print exactly the
    # stdout whose sha256 perfbench/reference.json records.  perfbench is
    # not a package, so its workloads module is loaded from its path
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = workloads.load_reference()
    assert set(reference) == {key for name in workloads.WORKLOADS
                              for key in workloads.key_space(name)}
    changed = []
    for key, entry in sorted(reference.items()):
        code, out, _ = run(capsys, *key.split())
        if code != 0 or workloads.digest(out) != entry["sha256"]:
            changed.append(key)
    assert changed == []
