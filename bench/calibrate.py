#!/usr/bin/env python3
"""Measures how steady the benchmark is on one commit.

Runs every workload of BENCHMARK.json `--runs` times per set, each run with
another seed, for `--sets` sets, the way the driver does. Per workload and
end-to-end metric it prints each set's median and the spread between its
first and third quartile as a share of the median, the difference between
the first two sets' medians, and the bound from BENCHMARK.json. The unbounded
diagnostics every run prints per slice (commit_p99_ms, cpu_us_per_msg, and
outage_ms on crash-open) get rows too, so that the table shows why they carry
no bound. The table in README.md is this script's output.

    python3 bench/calibrate.py [--runs 10] [--sets 2] [--workloads a,b] > table.md
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
manifest = json.load(open(os.path.join(root, "BENCHMARK.json")))


def run(workload, seed, seconds):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    values = {name: m["value"] for name, m in res["metrics"].items()}
    for name, slices in re.findall(r"^per slice (\S+) +\[(.*)\] \(not bounded\)$", out, re.M):
        values[name] = statistics.median(float(x) for x in slices.split())
    for median in re.findall(r"outage_ms median (\S+) of", out):
        values["outage_ms"] = float(median)
    return values


def machine_time():
    """Total and stolen jiffies of the machine so far (0, 0 without /proc)."""
    try:
        fields = [int(x) for x in open("/proc/stat").readline().split()[1:9]]
    except OSError:
        return 0, 0
    return sum(fields), fields[7]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    args = ap.parse_args()

    metrics = manifest["end_to_end"] + [
        {"name": n, "better": "lower", "bound": None} for n in ("commit_p99_ms", "cpu_us_per_msg", "outage_ms")]
    seed = 1
    print("| workload | metric | " + " | ".join(f"set {s + 1} median (spread)" for s in range(args.sets))
          + " | set 2 vs 1 | bound |")
    print("|---|---|" + "---|" * (args.sets + 2))
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            runs = []
            total0, steal0 = machine_time()
            for _ in range(args.runs):
                runs.append(run(workload, seed, args.seconds))
                seed += 1
                print(f"{workload} seed {seed - 1}: {runs[-1]}", file=sys.stderr)
            total1, steal1 = machine_time()
            print(f"{workload}: hypervisor stole {100 * (steal1 - steal0) / max(total1 - total0, 1):.1f}% "
                  "of the machine during this set", file=sys.stderr)
            sets.append(runs)
        for m in metrics:
            if m["name"] not in sets[0][0]:
                continue
            cells, medians = [], []
            for runs in sets:
                values = [r[m["name"]] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians.append(med)
                cells.append(f"{med:.4g} ({100 * (q3 - q1) / med:.1f}%)")
            worse = "—"
            if len(medians) > 1:
                diff = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    diff = -diff
                worse = f"{100 * diff:+.1f}%"
            bound = "none" if m["bound"] is None else f"{100 * m['bound']:.0f}%"
            print(f"| {workload} | {m['name']} | " + " | ".join(cells) + f" | {worse} | {bound} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
