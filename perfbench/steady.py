"""Steadiness of the benchmark: repeat runs, report spread per metric.

Runs ``perfbench/run.py`` once per seed for each workload, one run at a
time, and prints for every metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the relative
spread ``(q3 - q1) / median`` next to the bound ``BENCHMARK.json`` sets;
a spread under a third of its bound is marked ``ok``.  It also prints
each workload's share of failed operations::

    python3 perfbench/steady.py --runs 10 --first-seed 1 --json set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

``--compare`` checks two saved sets against each other: for every
end-to-end metric, how far the second median moved from the first, in
the metric's worse direction, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("run failed (%d): %s\n%s" % (done.returncode, command, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
    }


def collect(args) -> Dict[str, object]:
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results: Dict[str, object] = {"seconds": args.seconds, "trace": args.trace,
                                  "workloads": {}}
    for workload in workloads:
        runs = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            result = one_run(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print("%s seed=%d failed=%d/%d" % (
                workload, seed, result["failed"], result["attempted"]), flush=True)
        metrics = {
            name: summarise([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        results["workloads"][workload] = {
            "runs": runs,
            "metrics": metrics,
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
        }
    return results


def report(results: Dict[str, object]) -> None:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    for workload, entry in results["workloads"].items():
        print("\n%s  (failed share per run: %s)" % (workload, entry["failed_share"]))
        print("%-26s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, stats in entry["metrics"].items():
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print("%-26s %14.6g %14.6g %14.6g %7.2f%% %6s %s" % (
                name, stats["median"], stats["q1"], stats["q3"],
                100 * stats["spread"], bound if bound is not None else "-", mark))


def compare(first_path: str, second_path: str) -> int:
    spec = load_spec()
    with open(first_path) as handle:
        first = json.load(handle)
    with open(second_path) as handle:
        second = json.load(handle)
    worst = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in first["workloads"]:
            a = first["workloads"][workload]["metrics"][name]["median"]
            b = second["workloads"][workload]["metrics"][name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            worst |= verdict != "ok"
            print("%-24s %-24s %14.6g %14.6g %+7.2f%% %s" % (
                workload, name, a, b, 100 * worse, verdict))
    for workload in first["workloads"]:
        shares = (first["workloads"][workload]["failed_share"],
                  second["workloads"][workload]["failed_share"])
        print("%-24s failed share %s vs %s" % (workload, shares[0], shares[1]))
        worst |= shares[0] != shares[1]
    return 1 if worst else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to repeat (default: all; may repeat)")
    parser.add_argument("--json", help="save the runs and summaries here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    results = collect(args)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
