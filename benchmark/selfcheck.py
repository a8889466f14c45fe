#!/usr/bin/env python3
"""Runs the benchmark against itself, the way its acceptance is judged.

Two sets of runs of the same code, back to back: in each set every workload
of BENCHMARK.json runs N times (default 10), each time with another seed,
through the command BENCHMARK.json names. For every workload/metric pair it
prints both medians, their relative difference in the metric's worse
direction, the quartile spread of each set (the distance between the first
and third quartile of statistics.quantiles(values, n=4) as a share of the
median) and the bound. It fails if a second median is worse than the first
by more than the bound, if a spread other than setup_s's exceeds its bound,
or if any operation failed.

    python3 benchmark/selfcheck.py [N] [--seconds S] [--smoke]

Run it from the repository root on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, extra):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"] + extra
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="?", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    extra = ["--smoke"] if args.smoke else []
    runs = args.runs
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    started = time.time()
    # values[set][workload][metric] = one value per run
    values = [{}, {}]
    failed = 0
    for which in (0, 1):
        for w in (w["name"] for w in bench["workloads"]):
            per = {m["name"]: [] for m in metrics}
            for k in range(runs):
                seed = 1 + k + 1000 * which
                result = run_once(bench["command"], w, seed, seconds, extra)
                failed += result["failed"] + (not result["correct"])
                for name in per:
                    per[name].append(result["metrics"][name]["value"])
            values[which][w] = per
            print(f"set {which + 1} {w}: {runs} runs done, "
                  f"{time.time() - started:.0f} s elapsed", file=sys.stderr)

    bad = []
    head = ("workload", "metric", "median 1", "median 2", "worse by",
            "spread 1", "spread 2", "bound")
    print("{:<20} {:<13} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}".format(*head))
    for w in values[0]:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a, b = values[0][w][name], values[1][w][name]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            print(f"{w:<20} {name:<13} {ma:>14.6g} {mb:>14.6g} {worse:>+9.2%} "
                  f"{sa:>9.2%} {sb:>9.2%} {bound:>6.0%}")
            if worse > bound:
                bad.append(f"{w}/{name}: second median worse by {worse:.2%}")
            if name != "setup_s" and max(sa, sb) > bound:
                bad.append(f"{w}/{name}: spread {max(sa, sb):.2%} over {bound:.0%}")
    if failed:
        bad.append(f"{failed} operations or output checks failed")
    print(f"total {time.time() - started:.0f} s")
    for line in bad:
        print("FAIL", line)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
