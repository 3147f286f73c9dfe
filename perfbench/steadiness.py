#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
        [--baseline perfbench/runs/set-a.json] [--out FILE]

Each run is the BENCHMARK.json command on one of its workloads, with its
own seed (`seed-base`, `seed-base + 1`, ...); every workload is run. For
every end-to-end metric the script prints the median, the
quartiles (Python's `statistics.quantiles(values, n=4)`) and the spread
`(q3 - q1) / median`, and flags a spread above a third of the metric's
bound (`setup_s` is exempt: only its median is compared). With
`--baseline`, it also checks that each median is not worse than the
baseline's median by more than the bound. `--out` also records each
run's `#` summary line (rounds kept, steal ticks, uncorrected figures).
The exit status is 1 if any run fails or reports wrong output, or if a
check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong output")
    summary = next((l for l in lines if l.startswith("# ")), "")
    return result, summary


def worse_by(metric, value, base):
    """Share by which `value` is worse than `base` (negative: better)."""
    if metric["better"] == "lower":
        return (value - base) / base
    return (base - value) / base


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--baseline", default="")
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    baseline = {}
    if opts.baseline:
        with open(opts.baseline) as f:
            baseline = json.load(f)["workloads"]

    ok = True
    report = {"runs": opts.runs, "seed_base": opts.seed_base, "workloads": {},
              "summaries": {}}
    for w in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        summaries = []
        for k in range(opts.runs):
            res, summary = run_once(bench["command"], w, opts.seed_base + k,
                                    bench["run_seconds"])
            summaries.append(summary)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        rows = {}
        print(f"== {w} ({opts.runs} runs, seeds {opts.seed_base}.."
              f"{opts.seed_base + opts.runs - 1})")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flags = []
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flags.append("SPREAD>bound/3")
                ok = False
            base = baseline.get(w, {}).get(m["name"])
            drift = None
            if base is not None:
                drift = worse_by(m, med, base["median"])
                if drift > m["bound"]:
                    flags.append("MEDIAN-WORSE-THAN-BOUND")
                    ok = False
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": v}
            print(f"  {m['name']:<12} median {med:>14.6f} {m['unit']:<6} "
                  f"q1 {q1:>14.6f} q3 {q3:>14.6f} spread {spread:7.4f} "
                  f"(bound {m['bound']})"
                  + (f" vs baseline {drift:+.4f}" if drift is not None else "")
                  + (" " + " ".join(flags) if flags else ""))
        report["workloads"][w] = rows
        report["summaries"][w] = summaries
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
