"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

Runs `bench/run.py` in a child process per seed, one after another, and
prints for every metric its median, its quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the distance between
the quartiles as a share of the median.  `--out` also merges the figures,
with the environment they were taken in, into a JSON file such as
bench/baseline.json."""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise RuntimeError("seed %d failed (exit %d):\n%s" % (seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    src_lines = 0
    for path in glob.glob(os.path.join(os.path.dirname(HERE), "src", "colorinv", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "src_lines": src_lines}


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        if not runs[-1]["correct"]:
            print("seed %d: %d of %d checks failed" % (seed, runs[-1]["failed"],
                                                      runs[-1]["attempted"]))
    summary = summarize(runs)
    for name, s in summary.items():
        print("%-26s median %14.6f %-5s  q1 %14.6f  q3 %14.6f  spread %.4f"
              % (name, s["median"], s["unit"], s["q1"], s["q3"], s["spread"]))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["environment"] = environment()
        mode = "traced" if args.trace else "timed"
        doc.setdefault("workloads", {}).setdefault(args.workload, {})[mode] = {
            "seeds": args.seeds, "seconds": args.seconds, "metrics": summary}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
