#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the workload set twice, interleaved (run i of set A, then run i of
set B, for every workload), each run with its own seed, and prints for
every end-to-end metric and workload each set's median and quartiles, the
spread (interquartile range over median), and whether the two sets agree
within the metric's bound: each set's spread within the bound, and the
two medians apart by no more than the bound (|B - A| / A). The failed
share of operations must be the same in both sets. Every run lasts
BENCHMARK.json's run_seconds.

    python3 perfbench/steady.py [--workloads eta-point,rush-hour]
                                [--json out.json] [--logs DIR]

Run it from the root of the repository. Quartiles are those of
statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# Runs per set, each with its own seed.
RUNS = 10


def run_once(cmd, workload, seed, seconds, logs):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if logs:
        with open(os.path.join(logs, f"{workload}-{seed}.log"), "w") as f:
            f.write(p.stderr)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--json", default=None, help="also write raw results here")
    ap.add_argument("--logs", default=None,
                    help="directory for each run's standard error (its windows)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.logs:
        os.makedirs(args.logs, exist_ok=True)

    # results[set][workload] = list of run results
    results = {s: {w: [] for w in workloads} for s in ("A", "B")}
    for i in range(RUNS):
        for s, base in (("A", 1000), ("B", 2000)):
            for w in workloads:
                seed = base + i
                r = run_once(cmd, w, seed, seconds, args.logs)
                results[s][w].append(r)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                print(f"[{s}{i}] {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} {vals}",
                      flush=True)

    ok = True
    print()
    print("| workload | metric | bound | A q1 | A median | A q3 | A spread "
          "| B q1 | B median | B q3 | B spread | agree |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, m in metrics.items():
            row = [w, name, f"{m['bound']}"]
            a = [r["metrics"][name]["value"] for r in results["A"][w]]
            b = [r["metrics"][name]["value"] for r in results["B"][w]]
            sa, sb = summary(a), summary(b)
            spread_a = (sa[2] - sa[0]) / sa[1]
            spread_b = (sb[2] - sb[0]) / sb[1]
            apart = abs(sb[1] - sa[1]) / sa[1]
            agree = (apart <= m["bound"] and spread_a <= m["bound"]
                     and spread_b <= m["bound"])
            ok = ok and agree
            for s, spread in ((sa, spread_a), (sb, spread_b)):
                row += [f"{s[0]:.4g}", f"{s[1]:.4g}", f"{s[2]:.4g}", f"{spread:.3f}"]
            row.append("yes" if agree else "NO")
            print("| " + " | ".join(row) + " |")
        fa = [r["failed"] / r["attempted"] for r in results["A"][w]]
        fb = [r["failed"] / r["attempted"] for r in results["B"][w]]
        same = sum(r["failed"] for r in results["A"][w]) * sum(r["attempted"] for r in results["B"][w]) \
            == sum(r["failed"] for r in results["B"][w]) * sum(r["attempted"] for r in results["A"][w])
        wrong = not all(r["correct"] for s in "AB" for r in results[s][w])
        print(f"{w}: failed share A {statistics.mean(fa):.6g} B {statistics.mean(fb):.6g}"
              f" {'same' if same else 'DIFFERENT'}; all correct: {not wrong}")
        ok = ok and same and not wrong
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
