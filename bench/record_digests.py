"""Record what one pass of each workload prints, as a SHA-256 per seed.

    python3 bench/record_digests.py --seeds 0-29 [--workload NAME ...]

Runs one untimed pass per (workload, seed) and merges the digests into
bench/digests.json, which timed and traced runs compare every pass with.
The seed is a variant seed (see `workloads.variant_seeds`): the run seed
on most workloads, the verify seed on verify-all, where run seeds 0-29 use
verify seeds 0-119.
A pass whose own checks fail is not recorded.  Record only at a commit
whose outputs are known to be right: the digests pin them byte for byte."""

import argparse
import json
import os
import sys

import run
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-29", help="inclusive range, e.g. 0-29")
    ap.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    sys.path.insert(0, run.SRC)
    path = os.path.join(run.HERE, "digests.json")
    with open(path) as fh:
        digests = json.load(fh)
    for name in args.workload:
        for seed in range(int(lo), int(hi or lo) + 1):
            res = run.run_pass(workloads.WORKLOADS[name](run.fresh_import(), seed))
            if res.failed:
                print("%s seed %d: %d ops failed; not recorded" % (name, seed, res.failed))
                return 1
            digests.setdefault(name, {})[str(seed)] = res.digest
            print("%s seed %d: %s" % (name, seed, res.digest), flush=True)
            with open(path, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
