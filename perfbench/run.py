"""End-to-end benchmark of the ajtwist command line, measured from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's seeded request list as a closed loop:
each request is a fresh interpreter running the ``ajtwist`` entry point
on ``src/``, exactly as an installed ``ajtwist`` invocation would, so no
cache carries over between requests.  The list is run in order, again
and again, until S seconds have passed and every request has run at
least once; every run is one latency sample.  Every output is checked
against reference.json.

With --trace 0 the run reports the end-to-end metrics; with --trace 1
it runs one request per stratum of the list untraced and then through
perfbench/traced.py, and reports per-layer metrics.  Report lines go
first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import traced
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ENTRY = "import sys; from ajtwist.cli import main; sys.exit(main())"
WARMUP_PROBES = 2
SETUP_PROBES = 9
TAIL_BEYOND = 10
# A run must end within 180 s, so past this it stops even if some
# listed request has not completed yet.
HARD_STOP_S = 150


class Tally:
    """attempted / failed / digest-changed counts of one run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = self.failed = self.digest_changed = 0

    def record(self, argv, rc, stdout):
        ok, changed = workloads.check(self.reference, argv, rc, stdout)
        self.attempted += 1
        self.failed += not ok
        self.digest_changed += changed
        if not ok:
            print("FAILED (rc %s): %s" % (rc, " ".join(argv)),
                  file=sys.stderr)
        return ok


def spawn(cmd):
    """Run one child to completion; return (seconds, rc, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def request_cmd(argv):
    return [sys.executable, "-c", ENTRY, *argv]


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    _, _, backend = spawn([sys.executable, "-c",
                           "import mpmath.libmp as m; print(m.BACKEND)"])
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "mpmath_backend": backend.strip() or "unknown"}


def probe(tally):
    argv = workloads.SETUP_ARGS.split()
    secs, rc, out = spawn(request_cmd(argv))
    tally.attempted += 1
    if rc != 0 or out != workloads.SETUP_STDOUT:
        tally.failed += 1
        print("FAILED set-up probe (rc %s)" % rc, file=sys.stderr)
    return secs


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload, seed, seconds, tally):
    reqs = workloads.requests(workload, seed)
    for _ in range(WARMUP_PROBES):
        probe(tally)
    setup = [probe(tally) for _ in range(SETUP_PROBES)]

    latencies = []
    correct = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds
                                      and len(latencies) >= len(reqs)):
            break
        argv = reqs[len(latencies) % len(reqs)]
        secs, rc, out = spawn(request_cmd(argv))
        latencies.append(secs)
        correct += tally.record(argv, rc, out)
    elapsed = time.perf_counter() - start

    tail_s, tail_pct = tail(latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print("%d runs over a list of %d requests in %.1f s "
          "(closed loop, 1 client)" % (len(latencies), len(reqs), elapsed))
    print("req_tail_s is p%.1f of %d runs (%d beyond it)"
          % (tail_pct, len(latencies), TAIL_BEYOND))
    print("setup_s is the median of %d runs of '%s'"
          % (len(setup), workloads.SETUP_ARGS))
    print("fail_ratio %d/%d; stdout digest changed on %d runs"
          % (tally.failed, tally.attempted, tally.digest_changed))
    return {
        "req_per_s": (correct / elapsed, "1/s"),
        "req_p50_s": (statistics.median(latencies), "s"),
        "req_tail_s": (tail_s, "s"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted,
                     "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(workload, seed, tally):
    reqs = workloads.trace_subset(workload, workloads.requests(workload, seed))
    untraced = 0.0
    for argv in reqs:
        secs, rc, out = spawn(request_cmd(argv))
        untraced += secs
        tally.record(argv, rc, out)

    layers, counts, traced_s = {}, {}, 0.0
    for rid, argv in enumerate(reqs):
        secs, rc, out = spawn([sys.executable, str(HERE / "traced.py"),
                               str(rid), *argv])
        traced_s += secs
        try:
            result = json.loads(out)
        except ValueError:
            tally.record(argv, rc or 1, "")
            continue
        tally.record(argv, result["rc"], result["stdout"])
        for name, agg in traced.self_times(result["spans"]).items():
            total = layers.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                total[k] += agg[k]
        traced.merge_counts(counts, result["counts"])

    values = dict(counts)
    for name, (calls, _, self_s) in layers.items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    values["trace.req_per_s_untraced"] = len(reqs) / untraced
    values["trace.req_per_s_traced"] = len(reqs) / traced_s

    in_process = layers.get("cli.main", [0, 0.0])[1]
    focus = sum(layers.get(n, [0, 0.0])[1] for n in workloads.FOCUS[workload])
    print("%d traced requests, one per stratum; tracing overhead %.2fx"
          % (len(reqs), traced_s / untraced))
    print("in-process time %.2f s, of which %s (inclusive) %.0f%%"
          % (in_process, " + ".join(workloads.FOCUS[workload]),
             100.0 * focus / in_process if in_process else 0.0))
    metrics = {name: (values.get(name, 0), unit)
               for name, unit, _ in traced.LAYER_METRICS}
    return metrics, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ajtwist" / "cli.py").is_file():
        sys.exit("error: no ajtwist source under %s" % SRC)
    tally = Tally(workloads.load_reference())

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    print("environment: %s" % json.dumps(environment()))
    if args.trace:
        metrics, _ = per_layer(args.workload, args.seed, tally)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally)
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
