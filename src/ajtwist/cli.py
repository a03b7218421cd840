"""Command line front end; every library operation as one subcommand.

Results go to stdout, diagnostics to stderr, and nothing is written to
disk unless --out-file says so.  Identical invocations produce byte
identical output.  Exit codes: 0 success or verified, 1 a verification
ran and failed (the diff is in the output), 2 usage error, 3 a
numerical certificate could not be established.  rec-check exits 3
when its n range holds no grid points to check, rather than passing
vacuously, and always says on stderr how many grid points it skipped;
rec-check and rec-q1 also exit 3 when a fixture denominator vanishes at
a point they must evaluate.  volume, like kashaev, refuses the
non-hyperbolic p = 0 and p = 1 as a usage error.  verify-aj says on
stderr which p it certified by the three-term law from the seeds and
which it compared directly.

The apoly, qrec and volnum names in _LAZY are imported on first lookup
and the commands call them through this module, so a command loads only
the layers it runs and a patch on ``cli.NAME`` still reaches it: jones
and rec-check never load apoly.
"""
import argparse
from importlib import import_module
import sys

from .jones import (NAMED_KNOTS, KnotId, colored_jones,
                    colored_jones_multisum, named_form_unit)
from .laurent import CertificationError, InexactDivision

# names the package resolves on first lookup
_LAZY = frozenset(("a_polynomial", "b_polynomial", "check_kfree",
                   "compare_with_apoly", "h_polynomial", "kashaev_scan",
                   "load_recurrence", "optimistic_volume", "specialize_q1",
                   "verify_aj"))
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module(__package__), name)
    globals()[name] = value
    return value


class UsageError(Exception):
    """Bad argument values that argparse's grammar cannot see."""


def _emit(args, text):
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out_file", None):
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    import json
    return json.dumps(obj, indent=2)


def _check_prec(args):
    if args.prec < 64:
        raise UsageError("precision must be at least 64 bits")
    return args.prec


def _selected_knot(args):
    if args.knot is not None:
        return KnotId.named(args.knot)
    return KnotId.twist_knot(args.p)


def _cmd_jones(args):
    if args.n < 1:
        raise UsageError("color n must be >= 1")
    knot = _selected_knot(args)
    if args.form == "masbaum":
        conv = "habiro" if args.habiro_normalize else "printed"
        poly = colored_jones(knot.twist_parameter(), args.n, conv)
    else:
        poly = colored_jones_multisum(knot, args.n)
        if args.habiro_normalize and knot.is_named:
            # the named double sums sit a constant unit away from the
            # already normalized twist-parameter ones
            poly = poly.exact_divide(named_form_unit(knot.name))
    if args.out == "json":
        _emit(args, _json_text({
            "knot": knot.label(),
            "n": args.n,
            "form": args.form,
            "habiro_normalize": bool(args.habiro_normalize),
            "polynomial": poly.text(),
        }))
    else:
        _emit(args, poly.text())
    return 0


def _poly_command(kind):
    def run(args):
        poly = getattr(_cli, kind + "_polynomial")(args.p)
        if args.out == "json":
            _emit(args, _json_text({
                "p": args.p, "kind": kind, "polynomial": poly.text(),
            }))
        else:
            _emit(args, poly.text())
        return 0
    return run


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


def _cmd_verify_aj(args):
    if args.p_min > args.p_max:
        raise UsageError("empty p range")
    reports = [_cli.verify_aj(p) for p in range(args.p_min, args.p_max + 1)]
    print("p certified by the three-term law from its seeds: %s; "
          "p compared directly: %s"
          % (_p_runs(r.p for r in reports if r.by_law),
             _p_runs(r.p for r in reports if not r.by_law)),
          file=sys.stderr)
    if args.out == "json":
        _emit(args, _json_text([r.to_json_dict() for r in reports]))
    else:
        lines = []
        for r in reports:
            if r.equal:
                lines.append("p = %d: equal" % r.p)
            elif r.unit is not None:
                lines.append("p = %d: differs by unit %s"
                             % (r.p, r.unit.text()))
            else:
                lines.append("p = %d: DIFFERS (%d coefficient mismatches)"
                             % (r.p, len(r.diff)))
                for d in r.diff:
                    lines.append("  %s: constructed %s, recursive %s"
                                 % (d["term"], d["constructed"],
                                    d["recursive"]))
        _emit(args, "\n".join(lines))
    return 0 if all(r.equal for r in reports) else 1


def _cmd_rec_check(args):
    if args.n_min > args.n_max:
        raise UsageError("empty n range")
    spec = _cli.load_recurrence(args.fixture)
    try:
        rep = _cli.check_kfree(spec, (args.n_min, args.n_max),
                               mode=args.mode)
    except ZeroDivisionError as exc:
        print("not certified: %s" % exc, file=sys.stderr)
        return 3
    lines = ["fixture %s: mode %s, n in [%d, %d], %d points"
             % (rep.name, rep.mode, rep.n_lo, rep.n_hi, rep.points)]
    print("skipped %d of %d grid points"
          % (rep.skipped, rep.points + rep.skipped), file=sys.stderr)
    if rep.note:
        print(rep.note, file=sys.stderr)
    if rep.points == 0:
        lines.append("no grid points checked")
        _emit(args, "\n".join(lines))
        return 3
    if rep.ok:
        lines.append("all residuals zero")
    else:
        lines.append("FAILURES:")
        for n, k, l, why in rep.failures:
            lines.append("  n = %d, k = %d, l = %d: %s" % (n, k, l, why))
    _emit(args, "\n".join(lines))
    return 0 if rep.ok else 1


def _cmd_rec_q1(args):
    spec = _cli.load_recurrence(args.fixture)
    try:
        shadow = _cli.specialize_q1(spec)
    except InexactDivision as exc:
        print("q = 1 cancellation failed: %s" % exc, file=sys.stderr)
        return 1
    except ZeroDivisionError as exc:
        print("not certified: %s" % exc, file=sys.stderr)
        return 3
    rep = _cli.compare_with_apoly(shadow, args.compare_p)
    if args.out == "json":
        out = {"fixture": spec.name}
        out.update(rep.to_json_dict())
        _emit(args, _json_text(out))
    else:
        lines = ["fixture %s: q = 1 shadow vs A-polynomial at p = %d"
                 % (spec.name, rep.p),
                 "abelian factor power: %d" % rep.abelian_power]
        if rep.equal:
            lines.append("equal up to unit %s" % rep.unit.text())
        else:
            lines.append("DIFFERS (%d coefficient mismatches)"
                         % len(rep.diff))
            for d in rep.diff:
                lines.append("  %s: computed %s, expected %s"
                             % (d["term"], d["computed"], d["expected"]))
        _emit(args, "\n".join(lines))
    return 0 if rep.equal else 1


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
    _emit(args, "\n".join(lines))
    return 0


def _cmd_kashaev(args):
    import mpmath as mp
    prec = _check_prec(args)
    if args.n_min > args.n_max:
        raise UsageError("empty n range")
    rows = _cli.kashaev_scan(args.p, range(args.n_min, args.n_max + 1),
                             prec=prec)
    if args.out == "json":
        _emit(args, _json_text({
            "p": args.p,
            "prec": prec,
            "rows": [{"n": n, "v_n": None if v is None else mp.nstr(v, 20)}
                     for n, v in rows],
        }))
    else:
        lines = ["n,v_n"]
        for n, v in rows:
            lines.append("%d,%s"
                         % (n, "undefined" if v is None else mp.nstr(v, 20)))
        _emit(args, "\n".join(lines))
    return 0


def _add_out(sp, choices=("text", "json"), default="text"):
    sp.add_argument("--out", choices=choices, default=default,
                    help="output format (default %(default)s)")
    sp.add_argument("--out-file", metavar="PATH",
                    help="write the result here instead of stdout")


def _add_knot_selector(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=int, help="twist parameter")
    group.add_argument("--knot", choices=NAMED_KNOTS,
                       help="named knot instead of a twist parameter")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="ajtwist",
        description="Exact twist-knot computations: colored Jones sums, "
                    "A-polynomials, recurrence checks, volumes.")
    sub = top.add_subparsers(dest="command", required=True,
                             metavar="command")

    sp = sub.add_parser("jones", help="colored Jones polynomial")
    _add_knot_selector(sp)
    sp.add_argument("--n", type=int, required=True, help="color")
    sp.add_argument("--form", choices=("masbaum", "multisum"),
                    default="masbaum")
    sp.add_argument("--habiro-normalize", action="store_true",
                    help="use the sign convention with value 1 at color 1")
    _add_out(sp)
    sp.set_defaults(func=_cmd_jones)

    for kind in "abh":
        sp = sub.add_parser(kind + "poly",
                            help="%s-polynomial at parameter p" % kind.upper())
        sp.add_argument("--p", type=int, required=True)
        _add_out(sp)
        sp.set_defaults(func=_poly_command(kind))

    sp = sub.add_parser("verify-aj",
                        help="compare constructed and recursive A-polynomials")
    sp.add_argument("--p-min", type=int, default=-6)
    sp.add_argument("--p-max", type=int, default=6)
    _add_out(sp)
    sp.set_defaults(func=_cmd_verify_aj)

    sp = sub.add_parser("rec-check",
                        help="certify a k-free recurrence on a summand grid")
    sp.add_argument("--fixture", required=True,
                    help="fixture name or path to a .rec file")
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--mode", choices=("interior", "full"),
                    default="interior")
    sp.add_argument("--out-file", metavar="PATH",
                    help="write the result here instead of stdout")
    sp.set_defaults(func=_cmd_rec_check)

    sp = sub.add_parser("rec-q1",
                        help="q = 1 shadow of a recurrence vs the A-polynomial")
    sp.add_argument("--fixture", required=True,
                    help="fixture name or path to a .rec file")
    sp.add_argument("--compare-p", type=int, required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_rec_q1)

    sp = sub.add_parser("volume", help="optimistic volume at parameter p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--prec", type=int, default=128, help="bits, >= 64")
    sp.add_argument("--all-solutions", action="store_true",
                    help="also list every saddle candidate")
    sp.add_argument("--out-file", metavar="PATH",
                    help="write the result here instead of stdout")
    sp.set_defaults(func=_cmd_volume)

    sp = sub.add_parser("kashaev",
                        help="growth rates of the root-of-unity evaluations")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--prec", type=int, default=128, help="bits, >= 64")
    _add_out(sp, choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_kashaev)

    return top


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CertificationError as exc:
        print("not certified: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
