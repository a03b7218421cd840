"""Command line front end; every library operation as one subcommand.

COMMANDS is the whole command line: per subcommand its help text,
handler, arguments and --out choices; every subcommand also takes
--out-file.  A handler returns (exit code, text, JSON value) and writes
only its own notes to stderr.  main alone writes the result, to stdout
or --out-file, as the text or, under --out json, the JSON value; it
also maps exceptions to exit codes, once for every command.  A request
builds the parser of its own subcommand only.  cli is the one module
that knows an output format: the library returns named tuples of
facts, and the handlers here render them, the coefficient diffs of
verify-aj and rec-q1 through one helper (_comparison) that takes the
two column labels.

Results go to stdout, diagnostics to stderr, and nothing is written to
disk unless --out-file says so.  Identical invocations produce byte
identical output.  Exit codes: 0 success or verified, 1 a verification
ran and failed (the diff is in the output), 2 usage error (UsageError,
ValueError, OSError: "error: ..."), 3 a certificate or an exact step
could not be established (any ArithmeticError: CertificationError,
InexactDivision, ZeroDivisionError: "not certified: ...").  rec-check
exits 3 when its n range holds no grid points to check, rather than
passing vacuously, and always says on stderr how many grid points it
skipped; a fixture denominator that vanishes where a command must
evaluate it is a ZeroDivisionError, so exit 3.  volume, like kashaev,
refuses the non-hyperbolic p = 0 and p = 1 as a usage error.
verify-aj says on stderr which p it certified by the three-term law
from the seeds and which it compared directly.

The commands call jones, apoly, qrec and volnum names as _cli.NAME,
bound on first lookup from the package's _HOME table, so a command
loads only the layers it runs and a patch on ``cli.NAME`` still reaches
it: jones and rec-check never load apoly, kashaev loads neither apoly
nor mpmath, and kashaev and apoly --p load neither jones nor qseries.
"""
import argparse
import math
import sys

from . import _bind_on_lookup
from .laurent import InexactDivision

_cli = sys.modules[__name__]
__getattr__ = _bind_on_lookup(globals())


class UsageError(Exception):
    """Bad argument values that argparse's grammar cannot see."""


def _check_prec(args):
    if args.prec < 64:
        raise UsageError("precision must be at least 64 bits")
    return args.prec


def _cmd_jones(args):
    from .jones import KnotId
    knot = (KnotId.named(args.knot) if args.knot is not None
            else KnotId.twist_knot(args.p))
    if args.form == "masbaum":
        conv = "habiro" if args.habiro_normalize else "printed"
        poly = _cli.colored_jones(knot.twist_parameter(), args.n, conv)
    else:
        poly = _cli.colored_jones_multisum(knot, args.n)
        if args.habiro_normalize and knot.name:
            # a named double sum sits a constant unit, its value at
            # color 1, away from the already normalized twist-parameter one
            poly = poly.exact_divide(_cli.named_form_unit(knot.name))
    text = poly.text()
    return 0, text, {"knot": knot.label(), "n": args.n, "form": args.form,
                     "habiro_normalize": bool(args.habiro_normalize),
                     "polynomial": text}


def _cmd_poly(args):
    kind = args.command[0]
    text = getattr(_cli, kind + "_polynomial")(args.p).text()
    return 0, text, {"p": args.p, "kind": kind, "polynomial": text}


def _p_runs(ps):
    """Ascending integers as runs of consecutive ones: "-9..-2, 3, 5..7"."""
    runs = []
    for p in ps:
        if runs and p == runs[-1][1] + 1:
            runs[-1][1] = p
        else:
            runs.append([p, p])
    return ", ".join(str(a) if a == b else "%d..%d" % (a, b)
                     for a, b in runs) or "none"


def _comparison(rep, first, second):
    """An AjReport's or CompareReport's diff as text lines, and its
    equal, unit and diff as JSON fields; each (term, a, b) row of the
    diff shows a under the label first and b under second."""
    lines = ["DIFFERS (%d coefficient mismatches)" % len(rep.diff)]
    lines += ["  %s: %s %s, %s %s" % (term, first, a, second, b)
              for term, a, b in rep.diff]
    return lines, {
        "equal": rep.equal,
        "unit": None if rep.unit is None else rep.unit.text(),
        "diff": [{"term": term, first: a, second: b}
                 for term, a, b in rep.diff]}


def _cmd_verify_aj(args):
    if args.p_min > args.p_max:
        raise UsageError("empty p range")
    reports = [_cli.verify_aj(p) for p in range(args.p_min, args.p_max + 1)]
    print("p certified by the three-term law from its seeds: %s; "
          "p compared directly: %s"
          % (_p_runs(r.p for r in reports if r.by_law),
             _p_runs(r.p for r in reports if not r.by_law)),
          file=sys.stderr)
    lines, value = [], []
    for r in reports:
        verdict, fields = _comparison(r, "constructed", "recursive")
        value.append({"p": r.p, **fields})
        if r.equal:
            verdict = ["equal"]
        elif r.unit is not None:
            verdict = ["differs by unit %s" % r.unit.text()]
        lines += ["p = %d: %s" % (r.p, verdict[0]), *verdict[1:]]
    return 0 if all(r.equal for r in reports) else 1, "\n".join(lines), value


def _cmd_rec_check(args):
    if args.n_min > args.n_max:
        raise UsageError("empty n range")
    spec = _cli.load_recurrence(args.fixture)
    rep = _cli.check_kfree(spec, (args.n_min, args.n_max), mode=args.mode)
    lines = ["fixture %s: mode %s, n in [%d, %d], %d points"
             % (rep.name, rep.mode, rep.n_lo, rep.n_hi, rep.points)]
    print("skipped %d of %d grid points"
          % (rep.skipped, rep.points + rep.skipped), file=sys.stderr)
    if rep.points == 0:
        print("no %s grid points in n range [%d, %d]"
              % (rep.mode, rep.n_lo, rep.n_hi), file=sys.stderr)
        lines.append("no grid points checked")
        code = 3
    elif rep.ok:
        lines.append("all residuals zero")
        code = 0
    else:
        lines.append("FAILURES:")
        lines += ["  n = %d, k = %d, l = %d: nonzero residual" % f
                  for f in rep.failures]
        code = 1
    return code, "\n".join(lines), None


def _cmd_rec_q1(args):
    spec = _cli.load_recurrence(args.fixture)
    try:
        shadow = _cli.specialize_q1(spec)
    except InexactDivision as exc:
        print("q = 1 cancellation failed: %s" % exc, file=sys.stderr)
        return 1, None, None
    rep = _cli.compare_with_apoly(shadow, args.compare_p)
    diff, fields = _comparison(rep, "computed", "expected")
    lines = ["fixture %s: q = 1 shadow vs A-polynomial at p = %d"
             % (spec.name, rep.p),
             "abelian factor power: %d" % rep.abelian_power]
    lines += ["equal up to unit %s" % rep.unit.text()] if rep.equal else diff
    return (0 if rep.equal else 1, "\n".join(lines),
            {"fixture": spec.name, "p": rep.p,
             "abelian_power": rep.abelian_power, **fields})


def _cmd_volume(args):
    import mpmath as mp
    prec = _check_prec(args)
    vol, sols = _cli.optimistic_volume(args.p, prec=prec)
    lines = ["volume = %s" % mp.nstr(vol, 20)]
    if args.all_solutions:
        for s in sols:
            lines.append("x0 = %s  y0 = %s  volume = %s"
                         % (mp.nstr(s.x0, 20), mp.nstr(s.y0, 20),
                            mp.nstr(s.volume_candidate, 20)))
    return 0, "\n".join(lines), None


def _nstr20(man, scale):
    """man / 2^scale to 20 significant digits, as mpmath's nstr(x, 20).

    mpmath's rule, on ints, for 2^-3500 < |x| < 2^3500: with
    2^(e2-1) <= |x| < 2^e2, e2 = bitlen(man) - scale, f = max(86 - e2, 0)
    bits and d = int(f / log2(10) + 0.5) digits, the digit string is
    floor(floor(|x| 2^f) 10^d / 2^f), at least 2^83, so over 20 digits
    long.  It is rounded half up at its 21st digit, which can carry
    9.99... to 10.0, and stripped of trailing zeros.  Fixed notation is
    used when the exponent of the leading digit lies in
    -6 < exponent < 20, else d.ddd...e+E or d.ddd...e-E.
    """
    if not man:
        return "0.0"
    sign = "-" if man < 0 else ""
    man = abs(man)
    log2_10 = math.log(10, 2)
    fixprec = max(int(23 * log2_10) + 10 - man.bit_length() + scale, 0)
    fixdps = int(fixprec / log2_10 + 0.5)
    shift = fixprec - scale
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    if digits[20] in "56789":
        digits = str(int(digits[:20]) + 1)
        if len(digits) > 20:
            digits, exponent = digits[:20], exponent + 1
    else:
        digits = digits[:20]
    split = 1
    if -6 < exponent < 20:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    if exponent == 0:
        return sign + digits
    return "%s%se%+d" % (sign, digits, exponent)


def _cmd_kashaev(args):
    prec = _check_prec(args)
    if args.n_min > args.n_max:
        raise UsageError("empty n range")
    rows = _cli.kashaev_scan(args.p, range(args.n_min, args.n_max + 1),
                             prec=prec)
    rows = [(n, None if v is None else _nstr20(*v)) for n, v in rows]
    text = "\n".join(["n,v_n"] + ["%d,%s" % (n, v or "undefined")
                                   for n, v in rows])
    return 0, text, {"p": args.p, "prec": prec,
                     "rows": [{"n": n, "v_n": v} for n, v in rows]}


def _jones_arguments():
    from .jones import NAMED_KNOTS
    return [
        [("--p", {"type": int, "help": "twist parameter"}),
         ("--knot", {"choices": NAMED_KNOTS,
                     "help": "named knot instead of a twist parameter"})],
        ("--n", {"type": int, "required": True, "help": "color"}),
        ("--form", {"choices": ("masbaum", "multisum"),
                    "default": "masbaum"}),
        ("--habiro-normalize", {
            "action": "store_true",
            "help": "use the sign convention with value 1 at color 1"})]


# The command line, one row per subcommand: (help, handler, --out
# choices with the default first or None for no --out, arguments).  An
# argument is (flag, add_argument keywords); a list of them is one
# required either-or group.  A function in place of the arguments
# builds them with the subcommand's parser: jones's --knot choices come
# from jones, which kashaev and apoly never load.
_P = ("--p", {"type": int, "required": True})
_FIXTURE = ("--fixture", {"required": True,
                          "help": "fixture name or path to a .rec file"})
_PREC = ("--prec", {"type": int, "default": 128, "help": "bits, >= 64"})
_N_MIN = ("--n-min", {"type": int, "required": True})
_N_MAX = ("--n-max", {"type": int, "required": True})
_TEXT_JSON = ("text", "json")
COMMANDS = {
    "jones": ("colored Jones polynomial", _cmd_jones, _TEXT_JSON,
              _jones_arguments),
    "apoly": ("A-polynomial at parameter p", _cmd_poly, _TEXT_JSON, [_P]),
    "bpoly": ("B-polynomial at parameter p", _cmd_poly, _TEXT_JSON, [_P]),
    "hpoly": ("H-polynomial at parameter p", _cmd_poly, _TEXT_JSON, [_P]),
    "verify-aj": ("compare constructed and recursive A-polynomials",
                  _cmd_verify_aj, _TEXT_JSON, [
                      ("--p-min", {"type": int, "default": -6}),
                      ("--p-max", {"type": int, "default": 6})]),
    "rec-check": ("certify a k-free recurrence on a summand grid",
                  _cmd_rec_check, None, [
                      _FIXTURE, _N_MIN, _N_MAX,
                      ("--mode", {"choices": ("interior", "full"),
                                  "default": "interior"})]),
    "rec-q1": ("q = 1 shadow of a recurrence vs the A-polynomial",
               _cmd_rec_q1, _TEXT_JSON, [
                   _FIXTURE,
                   ("--compare-p", {"type": int, "required": True})]),
    "volume": ("optimistic volume at parameter p", _cmd_volume, None, [
        _P, _PREC,
        ("--all-solutions", {"action": "store_true",
                             "help": "also list every saddle candidate"})]),
    "kashaev": ("growth rates of the root-of-unity evaluations",
                _cmd_kashaev, ("csv", "json"), [_P, _N_MIN, _N_MAX, _PREC]),
}


def _parser(argv):
    """The parser, with only argv's subcommand when argv names one."""
    top = argparse.ArgumentParser(
        prog="ajtwist",
        description="Exact twist-knot computations: colored Jones sums, "
                    "A-polynomials, recurrence checks, volumes.")
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="command")
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        help_text, run, outs, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for arg in arguments() if callable(arguments) else arguments:
            if isinstance(arg, list):
                group = sp.add_mutually_exclusive_group(required=True)
                for flag, keywords in arg:
                    group.add_argument(flag, **keywords)
            else:
                sp.add_argument(arg[0], **arg[1])
        if outs:
            sp.add_argument("--out", choices=outs, default=outs[0],
                            help="output format (default %(default)s)")
        sp.add_argument("--out-file", metavar="PATH",
                        help="write the result here instead of stdout")
        sp.set_defaults(run=run)
    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        code, text, value = args.run(args)
        if text is None:
            return code
        if getattr(args, "out", None) == "json":
            import json
            text = json.dumps(value, indent=2)
        if args.out_file:
            with open(args.out_file, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")
        return code
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("not certified: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
