"""Workload key spaces, the seeded request generator and the output gate.

A workload is a list of strata.  Each stratum is ``(count, variants)``:
the generated list holds ``count`` requests drawn from ``variants``,
which are CLI argument strings of near-equal cost.  The
counts of a workload add up to ``LIST_LENGTH``, so every seed yields a
list with the same cost profile; the seed picks the variants (signs,
knot names, windows of equal cost) and the order.  That keeps the
end-to-end figures of two seeds comparable while the inputs differ.

The costs quoted per stratum are single requests on a 2-core x86-64
machine (CPython 3.11.7, pure-Python mpmath), interpreter start
included.  A list costs 10-13 s, so a 30 s run measures each request
two or three times; costlier requests are left out (see README.md).
"""
import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

LIST_LENGTH = 30

# The request that does no real work: interpreter start, import ajtwist,
# argument parsing and one table lookup.
SETUP_ARGS = "apoly --p 1"
SETUP_STDOUT = "l + m^6\n"

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _jones(ps, n):
    return ["jones --p %d --n %d --habiro-normalize" % (p, n) for p in ps]


def _multisum(n):
    return ["jones --knot %s --form multisum --n %d" % (k, n)
            for k in ("5_2", "6_1")]


def _rec(*windows):
    return ["rec-check --fixture fivetwo_kfree --n-min %d --n-max %d" % w
            for w in windows]


def _aj(*windows):
    return ["verify-aj --p-min %d --p-max %d" % w for w in windows]


def _kashaev(ps, windows):
    return ["kashaev --p %d --n-min %d --n-max %d" % (p, a, b)
            for p in ps for a, b in windows]


def _volume(ps):
    return ["volume --p %d" % p for p in ps]


def _pm(*values):
    return [s * v for v in values for s in (1, -1)]


WORKLOADS = {
    # q-only assemble_sum -> LaurentPoly multiply and exact_divide: the
    # path ROADMAP item 4 replaces.  Never reaches is_zero_sum, apoly or
    # mpmath.
    "jones-color": [
        (2, _multisum(8)),                  # 0.20 s
        (3, _jones(_pm(2), 9)),             # 0.24 s
        (2, _jones(_pm(1), 12)),            # 0.27 s
        (3, _jones(_pm(2), 10)),            # 0.30 s
        (2, _jones(_pm(3), 9)),             # 0.32 s
        (2, _multisum(9)),                  # 0.33 s
        (2, _jones(_pm(1), 14)),            # 0.36 s
        (2, _multisum(10)),                 # 0.40 s
        (3, _jones(_pm(2), 11)),            # 0.41 s
        (3, _jones(_pm(3), 10)),            # 0.45 s
        (2, _jones(_pm(4), 10)),            # 0.50 s
        (2, _jones(_pm(1), 16)),            # 0.54 s
        (2, _jones(_pm(3), 11)),            # 0.62 s
    ],
    # Fraction evaluation inside qseries.is_zero_sum (ROADMAP item 2a),
    # plus the two q = 1 shadow checks.  Bypasses assemble_sum and
    # polynomial multiplication.
    "rec-grid": [
        (3, ["rec-q1 --fixture fivetwo_inhom --compare-p 2"]),   # 0.15 s
        (3, ["rec-q1 --fixture sixone_inhom --compare-p -2"]),   # 0.16 s
        (6, _rec((6, 6), (7, 7))),          # 0.28 s
        (6, _rec((6, 7))),                  # 0.45 s
        (6, _rec((8, 8))),                  # 0.50 s
        (3, _rec((7, 8))),                  # 0.80 s
        (3, _rec((9, 9))),                  # 0.85 s
    ],
    # Sparse multivariate products in (l, m) under apoly: the same
    # laurent layer as jones-color, used the other way, so it guards a
    # q-only kernel against slowing the multivariate one.
    "aj-family": [
        (4, _aj(*[(p, p) for p in _pm(11)])),                   # 0.22 s
        (4, _aj(*[(p, p) for p in _pm(12)])),                   # 0.23 s
        (4, _aj(*[(p, p) for p in _pm(13)])),                   # 0.24 s
        (4, _aj(*[(p, p) for p in _pm(14)])),                   # 0.26 s
        (2, _aj((11, 13), (-13, -11))),                         # 0.45 s
        (4, _aj(*[(p, p) for p in _pm(15)])),                   # 0.35 s
        (4, _aj(*[(p, p) for p in _pm(17)])),                   # 0.44 s
        (4, _aj(*[(p, p) for p in _pm(19)])),                   # 0.60 s
    ],
    # The integer residue certificate and mpmath finite part of jhat
    # (ROADMAP item 2b) through kashaev, and polyroots/Newton through
    # volume.  Only hyperbolic twist knots.  P = -5 is left out of
    # volume: it costs twice P = 5.
    "volume-scan": [
        (3, _volume(_pm(2))),                                   # 0.25 s
        (3, _volume(_pm(3))),                                   # 0.40 s
        (3, _volume(_pm(4))),                                   # 0.60 s
        (2, _volume([5])),                                      # 0.80 s
        (3, _kashaev(_pm(2, 3, 4, 5), [(20, 22)])),             # 0.22 s
        (5, _kashaev(_pm(2, 3, 4, 5), [(30, 32)])),             # 0.30 s
        (3, _kashaev(_pm(2, 3, 4, 5), [(40, 42)])),             # 0.45 s
        (2, _kashaev(_pm(2, 3, 4, 5), [(44, 46)])),             # 0.50 s
        (2, _kashaev(_pm(2, 3, 4, 5), [(48, 49)])),             # 0.48 s
        (4, _kashaev(_pm(2, 3, 4, 5), [(52, 52), (55, 55)])),   # 0.40 s
    ],
}

# The layer each workload was chosen for: the traced run should spend
# most of the in-process time (cli.main) inside these spans.
FOCUS = {
    "jones-color": ("jones.assemble_sum",),
    "rec-grid": ("qseries.is_zero_sum",),
    "aj-family": ("laurent.mul",),
    "volume-scan": ("volnum.jhat", "mpmath.polyroots"),
}


def requests(workload, seed):
    """The workload's request list for this seed, as argument lists.

    Each stratum deals its variants like cards from a reshuffled deck,
    so a variant never appears twice before every other one has.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    out = []
    for count, variants in WORKLOADS[workload]:
        deck = []
        while len(deck) < count:
            deck += rng.sample(variants, len(variants))
        out += deck[:count]
    rng.shuffle(out)
    return [r.split() for r in out]


def trace_subset(workload, reqs):
    """One request of each stratum, the first of its stratum in the list.

    The traced run visits only these, so that its counts repeat exactly
    for one seed and every layer of the workload is reached.
    """
    picked = []
    for _, variants in WORKLOADS[workload]:
        options = {tuple(v.split()) for v in variants}
        picked.append(next(i for i, r in enumerate(reqs)
                           if tuple(r) in options))
    return [reqs[i] for i in sorted(picked)]


def key_space(workload):
    """Every request the generator can draw for a workload."""
    return sorted({v for _, variants in WORKLOADS[workload]
                   for v in variants})


# ---------------------------------------------------------------------------
# certified content of a request's stdout


def certified(argv, stdout):
    """The part of a request's stdout that the program certifies."""
    lines = stdout.splitlines()
    cmd = argv[0]
    if cmd == "jones":
        return {"polynomial": stdout.strip()}
    if cmd == "rec-check":
        m = re.search(r", (\d+) points$", lines[0])
        return {"points": int(m.group(1)), "verdict": lines[1]}
    if cmd == "verify-aj":
        return {"verdicts": [ln.split(": ", 1) for ln in lines
                             if ln.startswith("p = ")]}
    if cmd == "rec-q1":
        m = re.fullmatch(r"equal up to unit (.*)", lines[2])
        if m is None:
            return {"verdict": lines[2], "unit": None}
        return {"verdict": "equal", "unit": m.group(1)}
    if cmd == "volume":
        return {"volume": lines[0].split(" = ", 1)[1]}
    if cmd == "kashaev":
        return {"rows": [ln.split(",") for ln in lines[1:]]}
    raise ValueError("no certified content for %r" % (argv,))


def _close(a, b, prec):
    """Numbers printed by volume/kashaev agree to the certified 2^-(prec/2),
    relative to the reference value once it exceeds 1."""
    if a == b:
        return True
    if "undefined" in (a, b):
        return False
    fa, fb = Fraction(a), Fraction(b)
    return abs(fa - fb) <= Fraction(1, 2 ** (prec // 2)) * max(1, abs(fb))


def matches(argv, got, want):
    """Does certified content ``got`` agree with the reference ``want``?"""
    cmd = argv[0]
    if cmd == "rec-check" and got["points"] == 0:
        return False
    prec = int(argv[argv.index("--prec") + 1]) if "--prec" in argv else 128
    if cmd == "volume":
        return _close(got["volume"], want["volume"], prec)
    if cmd == "kashaev":
        return (len(got["rows"]) == len(want["rows"]) and all(
            gn == wn and _close(gv, wv, prec)
            for (gn, gv), (wn, wv) in zip(got["rows"], want["rows"])))
    return got == want


def digest(stdout):
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(reference, argv, rc, stdout):
    """Return (ok, digest_changed) for one completed request."""
    entry = reference.get(" ".join(argv))
    if rc != 0 or entry is None:
        return False, False
    try:
        ok = matches(argv, certified(argv, stdout), entry["certified"])
    except (ValueError, IndexError, AttributeError):
        # output the parser cannot read is a wrong answer
        return False, False
    return ok, digest(stdout) != entry["sha256"]
