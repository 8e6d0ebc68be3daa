"""quadmdt benchmark: one workload, its end-to-end or per-layer metrics, checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mdt_sweep --seed 1 --seconds 20 --trace 0

Workloads: mdt_sweep, check_oneshot, corr_algebra, cli_mix (see README.md in
this directory).  ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` runs the workload once untraced and once
traced and prints the per-layer metrics.  The last stdout line is the
result object; the line before it records what was measured (the quadmdt
file, the commit, Python, the CPU count and the one CPU the worker is pinned
to).  The library is imported from
this checkout's ``src/`` only; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import calibration

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPEAT = 5
RUN_LIMIT_S = 170.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "quadmdt", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def setup_seconds(worker_argv):
    """Time from spawning a fresh interpreter until set-up has finished.

    Returns the raw times and the times at reference speed, each probe
    scaled by the calibration kernel time it measures after set-up.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEAT):
        t0 = perf_counter()
        proc = subprocess.Popen(worker_argv + ["--probe"], cwd=ROOT, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, text=True)
        ready = proc.stdout.readline()
        raw.append(perf_counter() - t0)
        kernel_s = float(proc.stdout.readline())
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or ready.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        scaled.append(raw[-1] * calibration.NOMINAL_S / kernel_s)
    return raw, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mdt_sweep", "check_oneshot", "corr_algebra", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap ops per workload, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quadmdt", "__init__.py")):
        sys.stderr.write("no src/quadmdt in %s: nothing to measure\n" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    begin = perf_counter()
    worker = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    setup_raw, setup = ([], []) if args.trace else setup_seconds(worker)
    proc = subprocess.run(worker, cwd=ROOT, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL,
                          timeout=max(10.0, RUN_LIMIT_S - (perf_counter() - begin)))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write("worker exited with %d\n" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(raw["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.stderr.write("metrics not measured: %s\n" % ", ".join(missing))
        return 1

    unexpected = raw["failed"] - raw["known_failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quadmdt_file": raw["quadmdt_file"],
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "worker_cpus": raw["worker_cpus"],
        "known_failed": raw["known_failed"],
        "failed_keys": raw["failed_keys"],
        "problems": raw["problems"],
        "setup_raw_s": setup_raw,
        "setup_scaled_s": setup,
        **raw["info"],
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": unexpected == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
