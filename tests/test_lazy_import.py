"""What each command imports, and the lazily bound names behind it.

``ajtwist`` and ``ajtwist.cli`` import apoly, qrec, volnum and mpmath
on first lookup, and ``qrec`` imports apoly the same way, so a command
loads only the layers it runs.  These tests pin that footprint in a
fresh interpreter, and check that every lazily bound name still
resolves and can still be patched where its command looks it up.
"""
import ast
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

import ajtwist
from ajtwist import apoly, cli, laurent, qrec, volnum

ROOT = Path(__file__).resolve().parents[1]

# Runs one command with its stdout swallowed and prints, as a Python
# literal, its exit code and every module loaded by the end; it imports
# no json itself, so a command that loads json shows.  An empty argv
# only imports.
PROBE = """\
import contextlib, io, sys
from ajtwist.cli import main
rc = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(sys.argv[1:])
print(repr({"rc": rc, "modules": sorted(sys.modules)}))
"""

HEAVY = {"mpmath", "ajtwist.volnum", "ajtwist.qrec"}
APOLY = {"ajtwist.apoly"}
# fractions loads decimal and numbers; a command that prints text and
# evaluates no Fraction needs none of them
NUMERIC = {"fractions", "decimal", "numbers", "json"}
# dataclasses loads inspect; together they cost every request about
# 10 ms, and no command needs either
SLOW = {"dataclasses", "inspect"}


def probe(code, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


class TestImportFootprint:
    @pytest.mark.parametrize("argv, absent", [
        ([], HEAVY | APOLY | SLOW),
        (["jones", "--p", "2", "--n", "3"], HEAVY | APOLY | NUMERIC | SLOW),
        (["apoly", "--p", "2"], HEAVY | NUMERIC | SLOW),
        (["apoly", "--p", "1"], HEAVY | NUMERIC | SLOW),
        (["verify-aj", "--p-min", "1", "--p-max", "2"],
         HEAVY | NUMERIC | SLOW),
        (["verify-aj", "--p-min", "-3", "--p-max", "3"],
         HEAVY | NUMERIC | SLOW),
        (["rec-check", "--fixture", "fivetwo_kfree",
          "--n-min", "6", "--n-max", "6"],
         {"mpmath", "ajtwist.volnum"} | APOLY | NUMERIC | SLOW),
        (["rec-q1", "--fixture", "fivetwo_inhom", "--compare-p", "2"],
         {"mpmath", "ajtwist.volnum"} | NUMERIC | SLOW),
        (["volume", "--p", "2"], SLOW),
        # the Kashaev half of volnum runs on ints and needs no apoly
        (["kashaev", "--p", "2", "--n-min", "10", "--n-max", "10"],
         {"mpmath"} | APOLY | NUMERIC | SLOW),
    ], ids=["import-cli", "jones", "apoly", "apoly-setup", "verify-aj",
            "verify-aj-law", "rec-check", "rec-q1", "volume", "kashaev"])
    def test_command_leaves_out(self, argv, absent):
        out = probe(PROBE, *argv)
        assert out["rc"] == 0
        assert absent.isdisjoint(out["modules"])

    @pytest.mark.parametrize("argv, present", [
        (["rec-q1", "--fixture", "fivetwo_inhom", "--compare-p", "2"],
         {"ajtwist.qrec"}),
        (["volume", "--p", "2"], {"mpmath", "ajtwist.volnum"} | APOLY),
        (["kashaev", "--p", "2", "--n-min", "10", "--n-max", "10"],
         {"ajtwist.volnum"}),
        (["apoly", "--p", "1", "--out", "json"], {"json"}),
    ], ids=["rec-q1", "volume", "kashaev", "apoly-json"])
    def test_command_loads_what_it_runs(self, argv, present):
        # the probe sees a module the command does load
        out = probe(PROBE, *argv)
        assert out["rc"] == 0
        assert present <= set(out["modules"])

    def test_bare_package_loads_no_submodule(self):
        out = probe("import sys, ajtwist\n"
                    "print(repr({'modules': sorted(sys.modules)}))")
        assert [m for m in out["modules"] if m.startswith("ajtwist.")] == []
        assert "mpmath" not in out["modules"]

    def test_volnum_alone_loads_neither_jones_nor_qseries(self):
        # jhat takes the twist parameter, and only the volume half reads
        # dense coefficients, importing qseries when it runs
        out = probe("import sys, ajtwist.volnum\n"
                    "print(repr({'modules': sorted(sys.modules)}))")
        assert {"ajtwist.jones", "ajtwist.qseries",
                "mpmath"}.isdisjoint(out["modules"])


class _Reached(Exception):
    """Raised by a patched name to show that the command called it."""


# every name on cli that perfbench/traced.py wraps, plus the other lazily
# bound ones; each with the module that defines it and a command that
# calls it
REC_CHECK = ["rec-check", "--fixture", "fivetwo_kfree",
             "--n-min", "6", "--n-max", "6"]
REC_Q1 = ["rec-q1", "--fixture", "fivetwo_inhom", "--compare-p", "2"]
PATCH_CASES = {
    "check_kfree": (qrec, REC_CHECK),
    "load_recurrence": (qrec, REC_CHECK),
    "specialize_q1": (qrec, REC_Q1),
    "compare_with_apoly": (qrec, REC_Q1),
    "verify_aj": (apoly, ["verify-aj", "--p-min", "1", "--p-max", "1"]),
    "a_polynomial": (apoly, ["apoly", "--p", "2"]),
    "b_polynomial": (apoly, ["bpoly", "--p", "2"]),
    "h_polynomial": (apoly, ["hpoly", "--p", "2"]),
    "kashaev_scan": (volnum, ["kashaev", "--p", "2",
                              "--n-min", "10", "--n-max", "10"]),
    "optimistic_volume": (volnum, ["volume", "--p", "2"]),
}


def cli_lookups():
    """The names cli's handlers look up as _cli.NAME, read off cli.py.

    getattr(_cli, kind + SUFFIX) stands for every package name that
    ends in SUFFIX.
    """
    names = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_cli"):
            names.add(node.attr)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "getattr"
              and ast.unparse(node.args[0]) == "_cli"):
            suffix = node.args[1].right.value
            names.update(n for n in ajtwist._HOME if n.endswith(suffix))
    return names


CLI_LOOKUPS = cli_lookups()


class TestLazyCliNames:
    def test_cases_cover_traced_runner(self):
        traced = (ROOT / "perfbench" / "traced.py").read_text()
        wrapped = set(re.findall(r'\(cli, "(\w+)"\)', traced))
        assert wrapped and wrapped <= set(PATCH_CASES)
        assert {"verify_aj", "a_polynomial"} <= CLI_LOOKUPS
        assert CLI_LOOKUPS <= set(PATCH_CASES)

    @pytest.mark.parametrize("name", sorted(PATCH_CASES))
    def test_patch_reaches_command(self, monkeypatch, name):
        home, argv = PATCH_CASES[name]
        if name in CLI_LOOKUPS:
            # as on a cli where nothing has looked the name up yet
            monkeypatch.delitem(vars(cli), name, raising=False)
        assert getattr(cli, name) is getattr(home, name)

        def fake(*args, **kwargs):
            raise _Reached(name)
        monkeypatch.setattr(cli, name, fake)
        with pytest.raises(_Reached, match=name):
            cli.main(argv)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nope"):
            cli.nope


class TestTracedRunner:
    # perfbench/traced.py wraps each traced layer by name, on the module
    # where its callers look it up; a name that moved or went away
    # breaks only the benchmark's traced run, so install it here
    def test_install_finds_every_wrapped_name(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from traced import Recorder, install\ninstall(Recorder(0))"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src"), str(ROOT / "perfbench")])),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestLazyQrecName:
    # compare_with_apoly calls a_polynomial through qrec, where
    # perfbench/traced.py wraps it, and rec-check never looks it up
    def test_patch_reaches_rec_q1(self, monkeypatch):
        monkeypatch.delitem(vars(qrec), "a_polynomial", raising=False)
        assert qrec.a_polynomial is apoly.a_polynomial

        def fake(*args, **kwargs):
            raise _Reached("a_polynomial")
        monkeypatch.setattr(qrec, "a_polynomial", fake)
        with pytest.raises(_Reached, match="a_polynomial"):
            cli.main(REC_Q1)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nope"):
            qrec.nope


class TestCertificationError:
    def test_one_class(self):
        assert ajtwist.CertificationError is laurent.CertificationError
        assert volnum.CertificationError is laurent.CertificationError
        # cli binds the package's names
        assert cli.CertificationError is laurent.CertificationError

    def test_forced_volume_exits_three(self, capsys, monkeypatch):
        def broken(p, prec=128):
            raise ajtwist.CertificationError("forced")
        monkeypatch.setattr(cli, "optimistic_volume", broken)
        assert cli.main(["volume", "--p", "2"]) == 3
        assert "not certified: forced" in capsys.readouterr().err


class TestPackageSurface:
    @pytest.mark.parametrize("name", ajtwist.__all__)
    def test_public_name_resolves(self, name):
        assert getattr(ajtwist, name) is not None

    def test_star_import(self):
        ns = {}
        exec("from ajtwist import *", ns)
        assert set(ajtwist.__all__) <= set(ns)
        assert ns["optimistic_volume"] is volnum.optimistic_volume

    def test_dir_lists_unloaded_names(self):
        assert set(ajtwist.__all__) <= set(dir(ajtwist))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="'nope'"):
            ajtwist.nope
        assert not hasattr(ajtwist, "nope")
