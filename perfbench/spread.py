"""Seed sweep for the perfbench benchmark.

Runs the command in BENCHMARK.json with `--trace 0` for `run_seconds`
on each workload, once for each of ten seeds, and reports for every
end-to-end metric the median of the runs and the distance between the
first and third quartile as a share of the median: the spread that each
metric's bound in BENCHMARK.json limits. Writes the table, with the
commit, core count, build profile and run count, to perfbench/results.md
and exits non-zero if any spread exceeds its bound.

    python3 perfbench/spread.py

Run it from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys
import time

SEEDS = range(1, 11)
OUT = "perfbench/results.md"


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stdout[-3000:]}")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    lines = [
        f"commit {commit()}, nproc {os.cpu_count()}, profile release, "
        f"{len(SEEDS)} runs per workload (seeds {SEEDS[0]}-{SEEDS[-1]}), "
        f"--seconds {seconds} --trace 0",
        "",
    ]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in SEEDS:
            start = time.time()
            result = run_once(bench["command"], workload, seed, seconds)
            print(f"{workload} seed {seed}: {time.time() - start:.1f}s", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        lines += [f"## {workload}", "",
                  "| metric | median | spread | bound |", "|---|---|---|---|"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, sp = spread(values[name])
            ok = ok and sp <= bound
            lines.append(f"| `{name}` | {med:.6g} | {sp:.4f} | {bound:g} |")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    with open(OUT, "w") as f:
        f.write("# perfbench results\n\n" + text)
    if not ok:
        sys.exit("a spread exceeds its bound")


if __name__ == "__main__":
    main()
