"""Run every workload on two sets of ten seeds and check that the sets agree.

Usage, from the root of a checkout:

    python3 bench/steadiness.py [--write bench/baseline.json]

It runs the benchmark command of BENCHMARK.json once per seed, workload and
set (seeds 1-10, then 11-20), with tracing off.  For every end-to-end metric
of every workload it prints the median of each set, the spread of each set
(the distance between the quartiles of ``statistics.quantiles(values, n=4)``
as a share of the median) and how much worse the second median is than the
first, next to the metric's bound.  The raw timings of each run, before the
calibration scaling, are summarised the same way.  ``--write`` stores all of
it, every run's values included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))
# Raw (unscaled) timings from each run's info line, named after the metric.
RAW = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")


def quartiles(values, bound=None, unit=None):
    q1, median, q3 = statistics.quantiles(values, n=4)
    row = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else None, "values": values}
    if unit is not None:
        row.update(unit=unit, bound=bound)
    return row


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    raw = dict(info["raw"], setup_s=statistics.median(info["setup_raw_s"]))
    return result, raw, info["worker_cpus"]


def run_set(spec, seeds):
    table = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, workload, seed))
            result = runs[-1][0]
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  file=sys.stderr, flush=True)
        table[workload] = {
            "all_correct": all(r["correct"] for r, _, _ in runs),
            "attempted": [r["attempted"] for r, _, _ in runs],
            "failed": [r["failed"] for r, _, _ in runs],
            "worker_cpus": [cpus for _, _, cpus in runs],
            "metrics": {
                m["name"]: quartiles([r["metrics"][m["name"]]["value"] for r, _, _ in runs],
                                     m["bound"], m["unit"])
                for m in spec["end_to_end"]
            },
            "raw": {name: quartiles([raw[name] for _, raw, _ in runs]) for name in RAW},
        }
    return table


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write")
    args = parser.parse_args(argv)

    sets = [{"seeds": seeds, "workloads": run_set(spec, seeds)} for seeds in SEED_SETS]
    agreement = {}
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (s["workloads"][workload] for s in sets)
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = first["metrics"][name], second["metrics"][name]
            worse = worse_by(metric, a["median"], b["median"])
            rows[name] = {"worse_by": worse, "bound": metric["bound"],
                          "within": worse <= metric["bound"]}
            print("%-14s %-14s median %-11.5g %-11.5g spread %.4f %.4f  worse by %+.4f  "
                  "bound %s" % (workload, name, a["median"], b["median"], a["spread"],
                                b["spread"], worse, metric["bound"]))
        for name in RAW:
            a, b = first["raw"][name], second["raw"][name]
            print("%-14s raw %-10s median %-11.5g %-11.5g spread %.4f %.4f" % (
                workload, name, a["median"], b["median"], a["spread"], b["spread"]))
        agreement[workload] = rows
    if args.write:
        record = {"python": platform.python_version(), "nproc": os.cpu_count(),
                  "run_seconds": spec["run_seconds"], "sets": sets, "agreement": agreement}
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
