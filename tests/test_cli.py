"""End-to-end runs of the command line front end, in process."""
import json

import mpmath as mp
import pytest

from ajtwist import cli
from ajtwist.apoly import a_polynomial, h_polynomial
from ajtwist.jones import colored_jones
from ajtwist.laurent import parse_poly
from ajtwist.volnum import CertificationError, kashaev_scan


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
            assert line == "%d,%s" % (n, mp.nstr(v, 20))

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
            return [(10, mp.mpf(2)), (11, None)]
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


class TestOutFile:
    def test_writes_file_not_stdout(self, capsys, tmp_path):
        target = tmp_path / "vol.txt"
        code, out, _ = run(capsys, "volume", "--p", "-1",
                           "--out-file", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("volume = 2.02988")
