"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted with its unit, that per-layer self times add up
to the traced wall time, that the traced run leaves no wrapper on any
quadmdt attribute, that the correctness gate fails on a corrupted
reference answer and counts only documented failures as known, that the
frozen input pools still match what the library derives, and that the
benchmark refuses to run without ``src/``.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import worker

ROOT, BENCH = worker.ROOT, worker.BENCH
LAYER_TIMES = ("profile.self_s", "mdt.self_s", "chow.self_s", "corr.self_s", "cli.main.self_s",
               "trace.outside_s")


def check(condition, message):
    if not condition:
        raise SystemExit("FAIL: " + message)
    print("ok:", message)


def run_benchmark(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(workload, trace)
            check(proc.returncode == 0, "%s trace %d exits 0%s" % (
                workload, trace, "" if proc.returncode == 0 else ": " + proc.stderr[-300:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace %d prints exactly the four result keys" % (workload, trace))
            check(result["correct"] and result["attempted"] >= 1,
                  "%s trace %d is correct" % (workload, trace))
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            named = {m["name"]: m["unit"] for m in spec[key]}
            check(emitted == named, "%s trace %d emits every %s metric with its unit"
                  % (workload, trace, key))
            if trace:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                total = sum(values[name] for name in LAYER_TIMES)
                check(abs(total - values["trace.wall_s"]) <= 1e-6 * max(1.0, total),
                      "%s: layer self times plus outside time equal the traced wall time"
                      % workload)


def check_unwrapped():
    import tracer as tracing

    def snapshot():
        state = {}
        for module in tracing.quadmdt_modules():
            for name, value in vars(module).items():
                state[(module.__name__, name)] = id(value)
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        state[(module.__name__, name, attr)] = id(raw)
        return state

    import workloads  # noqa: F401  (loads every quadmdt module)

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        check(len(tracing.leftover_wrappers()) >= 20, "install wraps the traced attributes")
    finally:
        tracer.uninstall()
    check(tracing.leftover_wrappers() == [], "no wrapper is left after uninstall")
    check(snapshot() == before, "every quadmdt attribute is the original object again")


def check_gate():
    import workloads

    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 3, ROOT, tiny=True)
        op = workload.ops[0]
        answer = worker.call(op)
        good = worker.Gate(workload, reference[name], workloads.KNOWN_DEFECTS)
        check(good.judge(op, answer), "%s: the stored reference accepts %s" % (name, op.key))
        corrupted = dict(reference[name])
        corrupted[op.key] = "corrupted"
        bad = worker.Gate(workload, corrupted, workloads.KNOWN_DEFECTS)
        check(not bad.judge(op, answer) and bad.failed == 1,
              "%s: a corrupted reference answer fails the gate" % name)
        check(workloads.drift(name) == [], "%s: the frozen input pools match the library" % name)

    oneshot = workloads.make("check_oneshot", 3, ROOT)
    for key, defect in workloads.KNOWN_DEFECTS.items():
        if key not in workloads.PROBES:
            continue
        op = next(op for op in oneshot.ops if op.key == key)
        gate = worker.Gate(oneshot, reference["check_oneshot"], workloads.KNOWN_DEFECTS)
        documented = {"KeyError": KeyError(), "ValueError": ValueError()}[defect.fails_as["raised"]]
        gate.judge(op, documented)
        gate.judge(op, RuntimeError())
        check(gate.failed == 2 and gate.known_failed == 1,
              "%s: only the documented failure counts as known" % key)

    saved = workloads.library_pools
    workloads.library_pools = lambda name: dict(saved(name), **{"r<=6": []})
    try:
        check(workloads.drift("mdt_sweep") != [], "a changed library-derived pool is reported")
    finally:
        workloads.library_pools = saved


def check_refuses_without_source():
    scratch = os.path.join(ROOT, ".bench_out", "selftest-no-src")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH, os.path.join(scratch, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark("check_oneshot", 0, cwd=scratch)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    worker.import_checked()
    check_unwrapped()
    check_gate()
    check_refuses_without_source()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
