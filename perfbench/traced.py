"""Traced runner: one ajtwist request, with a span around each layer.

Usage: python3 perfbench/traced.py REQUEST_ID ARGS...

Wraps the public names of each layer in the namespace where their
callers look them up, runs ``ajtwist.cli.main(ARGS)`` with its stdout
captured, and prints one JSON object::

    {"rc": ..., "stdout": ..., "spans": [...], "counts": {...}}

A span is ``[name, start, end, parent, request_id]``; ``parent`` is the
index of the enclosing span in ``spans``, or -1.  Spans are kept in
memory and written out only when the request has finished.  Counts are
recorded at the same boundaries: a name ending in ``_max`` keeps the
largest value seen, every other count is a sum.
"""
import contextlib
import io
import json
import sys
from time import perf_counter

# Per-layer metrics, in the order BENCHMARK.json lists them:
# (name, unit, better).  Span names give NAME.calls and NAME.self_s;
# the rest are counts recorded by the wrappers below.
LAYER_METRICS = [
    ("cli.main.self_s", "s", "lower"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.self_s", "s", "lower"),
    ("laurent.mul.term_pairs", "count", "lower"),
    ("laurent.exact_divide.calls", "count", "lower"),
    ("laurent.exact_divide.self_s", "s", "lower"),
    ("laurent.exact_divide.term_pairs", "count", "lower"),
    ("laurent.eval_fraction.calls", "count", "lower"),
    ("laurent.eval_fraction.self_s", "s", "lower"),
    ("laurent.eval_complex.calls", "count", "lower"),
    ("laurent.eval_complex.self_s", "s", "lower"),
    ("jones.assemble_sum.calls", "count", "lower"),
    ("jones.assemble_sum.self_s", "s", "lower"),
    ("jones.assemble_sum.terms_in", "count", "lower"),
    ("jones.sigma_basis.self_s", "s", "lower"),
    ("qseries.is_zero_sum.calls", "count", "lower"),
    ("qseries.is_zero_sum.self_s", "s", "lower"),
    ("qseries.is_zero_sum.cert_bits_max", "count", "lower"),
    ("qseries.is_zero_sum.nonzero", "count", "lower"),
    ("qrec.check_kfree.self_s", "s", "lower"),
    ("qrec.check_kfree.points", "count", "higher"),
    ("qrec.check_kfree.skipped", "count", "lower"),
    ("qrec.specialize_q1.self_s", "s", "lower"),
    ("qrec.compare_with_apoly.self_s", "s", "lower"),
    ("apoly.verify_aj.self_s", "s", "lower"),
    ("apoly.b_polynomial.self_s", "s", "lower"),
    ("apoly.h_polynomial.self_s", "s", "lower"),
    ("apoly.a_polynomial.self_s", "s", "lower"),
    ("apoly.a_polynomial.out_terms", "count", "lower"),
    ("volnum.jhat.calls", "count", "lower"),
    ("volnum.jhat.self_s", "s", "lower"),
    ("volnum.kashaev_scan.self_s", "s", "lower"),
    ("volnum.saddle_solve.self_s", "s", "lower"),
    ("volnum.reduced_eliminant.self_s", "s", "lower"),
    ("volnum.reduced_eliminant.degree", "count", "lower"),
    ("mpmath.polyroots.self_s", "s", "lower"),
    ("trace.req_per_s_untraced", "1/s", "higher"),
    ("trace.req_per_s_traced", "1/s", "higher"),
]


def merge_counts(total, counts):
    for key, value in counts.items():
        if key.endswith("_max"):
            total[key] = max(total.get(key, value), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def self_times(spans):
    """{name: [calls, inclusive seconds, self seconds]} for one request.

    Self time is a span's duration minus the durations of its direct
    children; children of one span run one after another, so they never
    overlap.
    """
    out = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _, _), inner in zip(spans, child):
        agg = out.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - inner
    return out


class Recorder:
    """Spans and counts of one request, held in memory."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self.counts = {}
        self._open = []

    def wrap(self, name, fn, count=None):
        spans, open_spans, rid = self.spans, self._open, self.request_id

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            open_spans.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[idx] = [name, start, end,
                              open_spans[-1] if open_spans else -1, rid]
            if count is not None:
                merge_counts(self.counts, {
                    name + "." + k: v for k, v in count(args, out).items()})
            return out
        return traced


def _grid_size(n_lo, n_hi):
    # points (n, k, l) with 0 <= l <= k <= n - 1
    return sum(n * (n + 1) // 2 for n in range(n_lo, n_hi + 1))


def install(rec):
    """Wrap every traced name where its callers look it up."""
    import mpmath
    from ajtwist import apoly, cli, jones, laurent, qrec, volnum

    poly = laurent.LaurentPoly

    def terms(x):
        return len(x.terms) if isinstance(x, poly) else 1

    table = [
        ("laurent.mul", [(poly, "__mul__"), (poly, "__rmul__")],
         lambda a, out: {"term_pairs": terms(a[0]) * terms(a[1])}),
        ("laurent.exact_divide", [(poly, "exact_divide")],
         lambda a, out: {"term_pairs": terms(out) * terms(a[1])}),
        ("laurent.eval_fraction", [(poly, "eval_fraction")], None),
        ("laurent.eval_complex", [(poly, "eval_complex")], None),
        ("jones.assemble_sum", [(jones, "assemble_sum")],
         lambda a, out: {"terms_in": len(a[0])}),
        ("jones.sigma_basis", [(jones, "sigma_basis")], None),
        ("qseries.is_zero_sum", [(qrec, "is_zero_sum")],
         lambda a, out: {
             "cert_bits_max": out[1].bit_length() - 1,
             "nonzero": sum(1 for p, qf in a[0] if p and not qf.zero)}),
        ("qrec.check_kfree", [(cli, "check_kfree")],
         lambda a, out: {
             "points": out.points,
             "skipped": _grid_size(out.n_lo, out.n_hi) - out.points}),
        ("qrec.specialize_q1", [(cli, "specialize_q1")], None),
        ("qrec.compare_with_apoly", [(cli, "compare_with_apoly")], None),
        ("apoly.verify_aj", [(cli, "verify_aj")], None),
        ("apoly.b_polynomial", [(apoly, "b_polynomial"),
                                (cli, "b_polynomial")], None),
        ("apoly.h_polynomial", [(apoly, "h_polynomial"),
                                (cli, "h_polynomial")], None),
        ("apoly.a_polynomial", [(apoly, "a_polynomial"),
                                (cli, "a_polynomial"),
                                (qrec, "a_polynomial")],
         lambda a, out: {"out_terms": len(out)}),
        ("volnum.jhat", [(volnum, "jhat")], None),
        ("volnum.kashaev_scan", [(cli, "kashaev_scan")], None),
        ("volnum.saddle_solve", [(volnum, "saddle_solve")], None),
        ("volnum.reduced_eliminant", [(volnum, "reduced_eliminant")],
         lambda a, out: {"degree": out.degree("y")}),
        ("mpmath.polyroots", [(mpmath, "polyroots")], None),
    ]
    for name, places, count in table:
        for owner, attr in places:
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count))
    return rec.wrap("cli.main", cli.main)


def main():
    rec = Recorder(int(sys.argv[1]))
    cli_main = install(rec)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli_main(sys.argv[2:])
    json.dump({"rc": rc, "stdout": captured.getvalue(), "spans": rec.spans,
               "counts": rec.counts}, sys.stdout)


if __name__ == "__main__":
    main()
