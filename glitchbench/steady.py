#!/usr/bin/env python3
"""Steadiness self-check: two sets of benchmark runs back to back.

Run from the root of a checkout:

    python3 glitchbench/steady.py --runs 10

Each of the two sets runs `run.py` `--runs` times on every workload of
`BENCHMARK.json`, each run with its own seed (set 1 from seed 1, set 2
from seed 1001). For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (quartile distance over the median) against a
third of the metric's bound, the sample count behind every median and
tail, and how much worse the second set's median is than the first's,
against the bound. A `job_tail_s` with fewer than ten samples beyond it is
flagged. Exits nonzero if any run fails or any check is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"run failed: {workload} seed {seed}\n{done.stderr[-2000:]}")
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return json.loads(lines[-1]), detail


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="per run; defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    for set_index in range(SETS):
        results = {}
        for workload in workloads:
            runs = []
            for i in range(args.runs):
                seed = 1 + 1000 * set_index + i
                result, detail = run_once(workload, seed, seconds)
                runs.append((result, detail))
                print(f"set {set_index + 1} {workload} seed {seed}: correct="
                      f"{result['correct']} jobs={detail['jobs']} "
                      f"tail=p{detail['tail_percentile']} ({detail['tail_beyond']} beyond)",
                      flush=True)
            results[workload] = runs
        sets.append(results)

    flagged = False
    for workload in workloads:
        print(f"\n== {workload}")
        for set_index, results in enumerate(sets):
            runs = results[workload]
            jobs = [d["jobs"] for _, d in runs]
            beyond = [d["tail_beyond"] for _, d in runs]
            setups = [d["setup_samples"] for _, d in runs]
            bad = [r for r, _ in runs if not r["correct"]]
            print(f"set {set_index + 1}: {len(runs)} runs; samples per job_p50_s median "
                  f"{min(jobs)}..{max(jobs)}; job_tail_s at p{runs[0][1]['tail_percentile']}"
                  f" with {min(beyond)}..{max(beyond)} samples beyond; "
                  f"setup_s median of {min(setups)}..{max(setups)} set-ups")
            if bad or min(beyond) < 10:
                flagged = True
                print("  FLAG: " + ("incorrect runs " if bad else "")
                      + ("job_tail_s has fewer than 10 samples beyond it" if min(beyond) < 10
                         else ""))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r, _ in results[workload]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                rows.append((q1, med, q3, spread))
            first, second = rows[0][1], rows[1][1]
            if metric["better"] == "lower":
                worse = (second - first) / first if first else 0.0
            else:
                worse = (first - second) / first if first else 0.0
            noisy = [s for *_, s in rows if s > bound / 3]
            regress = worse > bound
            flagged |= bool(noisy) or regress
            print(f"  {name:18} " + "  ".join(
                f"set{i + 1} median {m:.6g} [q1 {a:.6g}, q3 {b:.6g}] spread {s * 100:.2f}%"
                for i, (a, m, b, s) in enumerate(rows))
                + f"  | 2nd worse by {worse * 100:+.2f}% (bound {bound * 100:.0f}%, "
                f"spread target < {bound / 3 * 100:.1f}%)"
                + ("  NOISY" if noisy else "") + ("  REGRESSED" if regress else ""))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
