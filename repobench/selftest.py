#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 repobench/selftest.py

Runs every workload listed in BENCHMARK.json at the shrunken --small shapes,
timed and traced, under two seeds, and checks that:
  * each run exits 0 with correct=true, attempted >= 1 and failed == 0;
  * the timed run emits exactly the end_to_end metric names and the traced
    run exactly the per_layer names, each with the unit BENCHMARK.json
    declares;
  * the second seed changes the generated inputs (fingerprint input_digest)
    but not the names;
  * every open leg reports its generator lateness and hot swaps: at least
    one where the workload serves two model versions (fits_timed false),
    none elsewhere;
  * the traced run's Chrome trace reads back as JSON with spans.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)


def check(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--small"],
        cwd=ROOT, capture_output=True, text=True)
    check(proc.returncode == 0,
          f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
          f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    fingerprint = next(json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("fingerprint "))
    return result, fingerprint, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            digests = set()
            for seed in SEEDS:
                result, fingerprint, lines = run(workload, seed, trace)
                where = f"{workload} seed {seed} trace {trace}"
                check(result["correct"] is True, f"{where}: correct is false")
                check(result["attempted"] >= 1 and result["failed"] == 0,
                      f"{where}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                check(got == expected[trace],
                      f"{where}: metric names/units differ from BENCHMARK.json:"
                      f" missing {sorted(set(expected[trace]) - set(got))},"
                      f" extra {sorted(set(got) - set(expected[trace]))},"
                      f" units {[(n, u, expected[trace].get(n)) for n, u in got.items() if expected[trace].get(n) != u]}")
                check(fingerprint["workload"] == workload
                      and fingerprint["seed"] == seed,
                      f"{where}: fingerprint names the wrong run")
                legs = [line for line in lines if "generator lateness" in line]
                check(legs, f"{where}: no generator lateness reported")
                for line in legs:
                    swaps = int(re.search(r"(\d+) hot swaps", line).group(1))
                    check(swaps >= 1 if not fingerprint["fits_timed"]
                          else swaps == 0,
                          f"{where}: {swaps} hot swaps in '{line}'")
                if trace:
                    path = os.path.join(ROOT, ".bench_build", "traces",
                                        f"{workload}-seed{seed}.json")
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    check(len(events) > 0, f"{where}: empty trace")
                digests.add(fingerprint["input_digest"])
            check(len(digests) == len(SEEDS),
                  f"{workload} trace {trace}: seeds {SEEDS} gave equal inputs")
        print(f"selftest: {workload} ok")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
