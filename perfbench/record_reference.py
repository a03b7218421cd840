"""Record reference.json: the certified content and stdout digest of every
request the workloads can draw.

Usage, from the root of a checkout of the commit that defines the
reference:

    python3 perfbench/record_reference.py

Prints each request's wall time, which is how the strata of
workloads.py were balanced.  Refuses to record a request that exits
with a nonzero code.
"""
import json
import sys

import run
import workloads


def main():
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        for key in workloads.key_space(name):
            argv = key.split()
            secs, rc, out = run.spawn(run.request_cmd(argv))
            if rc != 0:
                sys.exit("error: rc %d for %s" % (rc, key))
            reference[key] = {"certified": workloads.certified(argv, out),
                              "sha256": workloads.digest(out)}
            print("%-12s %6.3f s  %s" % (name, secs, key), flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
