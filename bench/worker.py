"""Run one workload in a fresh interpreter and print its raw results as JSON.

Started by ``run.py``; not meant to be run by hand.  ``--probe`` stops right
after set-up (import plus input generation) and prints ``ready``, so the
parent can time set-up from a fresh interpreter.  Otherwise the last stdout
line is a JSON object with the counts, the problems found and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import calibration
import tracer as tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def import_checked():
    """Import quadmdt from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, SRC)
    import quadmdt

    where = os.path.dirname(os.path.realpath(quadmdt.__file__))
    if where != os.path.realpath(os.path.join(SRC, "quadmdt")):
        raise SystemExit("quadmdt imported from %s, not from %s" % (where, SRC))
    return quadmdt.__file__


def answer_record(workload, op, answer):
    """The value compared with the reference; ``answer`` may be a raised exception."""
    if isinstance(answer, Exception):
        return {"raised": type(answer).__name__}
    return workload.record(op, answer)


class Gate:
    """Compares every answer with the stored reference and runs the checks."""

    def __init__(self, workload, reference: dict, known_defects: dict):
        self.workload = workload
        self.reference = reference
        self.known_defects = known_defects
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.problems = []
        self.failed_keys = Counter()
        self._seen = set()
        self._bad = set()

    def judge(self, op, answer) -> bool:
        """``answer`` is what the op returned, or the exception it raised."""
        self.attempted += 1
        record = answer_record(self.workload, op, answer)
        ok = record == self.reference.get(op.key)
        if op.key not in self._seen and not isinstance(answer, Exception):
            self._seen.add(op.key)
            problems = self.workload.check(op, answer)
            if problems:
                self.problems += problems
                self._bad.add(op.key)
        if ok and op.key not in self._bad:
            return True
        self.failed += 1
        self.failed_keys[op.key] += 1
        defect = self.known_defects.get(op.key)
        if (defect is not None and op.key not in self._bad and isinstance(record, dict)
                and defect.fails_as.items() <= record.items()):
            self.known_failed += 1
        return False


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def call(op):
    try:
        return op.fn(*op.args)
    except Exception as exc:  # a failed op is counted by the gate, not fatal
        return exc


def timed_passes(ops, gate, seconds, clock):
    """Whole passes over the op list until the next one would overrun ``seconds``.

    Returns raw and reference-speed latencies, and per-pass op rates.
    """
    raw, scaled, rates, raw_rates = [], [], [], []
    begin = perf_counter()
    while True:
        first = len(raw)
        for op in ops:
            t0 = perf_counter()
            answer = call(op)
            elapsed = perf_counter() - t0
            raw.append(elapsed)
            scaled.append(elapsed * clock.scale())
            gate.judge(op, answer)
            clock.tick()
        busy = sum(raw[first:])
        rates.append(len(ops) / sum(scaled[first:]))
        raw_rates.append(len(ops) / busy)
        if perf_counter() - begin + busy > seconds:
            return raw, scaled, rates, raw_rates


def one_pass(ops, gate, tracer=None):
    begin = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        gate.judge(op, call(op))
    return perf_counter() - begin


def latency_stats(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    # highest percentile, at most p90, with at least ten samples beyond it
    p_tail = min(0.9, max(0.5, 1.0 - 10.0 / n))
    return statistics.median(ordered) * 1e3, percentile(ordered, p_tail) * 1e3, p_tail


def end_to_end(workload, gate, seconds, child_rss):
    clock = calibration.Clock()
    raw, scaled, rates, raw_rates = timed_passes(workload.ops, gate, seconds, clock)
    p50, p_high, p_tail = latency_stats(scaled)
    raw_p50, raw_p_high, _ = latency_stats(raw)
    who = resource.RUSAGE_CHILDREN if child_rss else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": p50,
        "op_p90_ms": p_high,
        "correct_ratio": 1.0 - gate.failed / gate.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    kernel_ms = [t * 1e3 for t in clock.samples]
    info = {
        "samples": len(raw),
        "passes": len(rates),
        "ops_per_pass": len(workload.ops),
        "tail_percentile": p_tail,
        "raw": {"ops_per_s": statistics.median(raw_rates), "op_p50_ms": raw_p50,
                "op_p90_ms": raw_p_high},
        "kernel_ms": {"median": statistics.median(kernel_ms), "min": min(kernel_ms),
                      "max": max(kernel_ms), "samples": len(kernel_ms)},
    }
    return metrics, info


def spawn_ms(argv, env, repeat=7):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        subprocess.run([sys.executable] + argv, env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer(args, workloads, workload, gate):
    from quadmdt.mdt import RuleSet

    metrics = {"cli.python_start_ms": 0.0, "cli.import_ms": 0.0, "cli.stdout_bytes": 0}
    if args.workload == "cli_mix":
        env = workloads.cli_env(ROOT)
        start_ms = spawn_ms(["-c", "pass"], env)
        metrics["cli.python_start_ms"] = start_ms
        metrics["cli.import_ms"] = spawn_ms(["-c", "import quadmdt.cli"], env) - start_ms
    # A first pass runs the gate's one-off checks, so that the untraced and
    # traced passes below time the same work.
    for op in workload.ops:
        answer = call(op)
        gate.judge(op, answer)
        if args.workload == "cli_mix":
            metrics["cli.stdout_bytes"] += len(answer[1])
    untraced_s = one_pass(workload.ops, gate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_ops = [op._replace(fn=tracer.rebind(op.fn)) for op in workload.ops]
        traced_s = one_pass(traced_ops, gate, tracer)
    finally:
        tracer.uninstall()
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        gate.problems.append("wrappers left installed: %s" % ", ".join(leftovers))
    tracer.write(os.path.join(ROOT, ".bench_out", "spans-%s.bin" % args.workload))

    summary = tracer.summary()
    calls, self_s, counts = summary["calls"], summary["self_s"], tracer.counts
    for name in ("profile.QuadricProfile", "profile.excellent_pairs", "profile.alternating_2adic",
                 "mdt.enumerate_mdt", "mdt.check_partition", "mdt.MdtPartition",
                 "mdt.vpn_connections", "chow.mul", "chow.steenrod", "corr.compose"):
        metrics[name + ".calls"] = calls[name]
        metrics[name + ".self_s"] = self_s[name]
    for name in ("profile.pattern_enumerate", "profile.i1_admissible_set", "mdt.render",
                 "corr.reduce", "cli.main"):
        metrics[name + ".self_s"] = self_s[name]
    for name in ("profile.kernel", "mdt.forced_connections", "chow.mul_factor"):
        metrics[name + ".calls"] = counts[name]
    metrics["mdt.enumerate_mdt.search_space"] = sum(
        workloads.bell(workloads.atom_count(p, r or RuleSet.proven()))
        for p, r in tracer.enumerated
    )
    metrics["mdt.enumerate_mdt.survivors"] = tracer.survivors
    metrics["mdt.check_partition.accept_ratio"] = (
        tracer.accepted / calls["mdt.check_partition"] if calls["mdt.check_partition"] else 0.0
    )
    metrics["corr.compose.term_pairs"] = tracer.term_pairs
    metrics["corr.compose.out_terms"] = tracer.out_terms
    for layer in ("profile", "mdt", "chow", "corr"):
        metrics[layer + ".self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.outside_s"] = traced_s - summary["top_s"]
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    info = {"spans": summary["spans"], "untraced_s": untraced_s}
    return metrics, info


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # One CPU for the worker and its children: the calibration kernel then
    # measures the speed of the core the ops run on.  The CPU is recorded
    # with the result.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    quadmdt_file = import_checked()
    import workloads

    inprocess = args.trace == 1 and args.workload == "cli_mix"
    workload = workloads.make(args.workload, args.seed, ROOT, args.tiny, inprocess)
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload]
    if args.probe:
        print("ready", flush=True)
        print(statistics.median(calibration.kernel_seconds() for _ in range(11)))
        return 0

    if args.workload == "cli_mix":
        child = subprocess.run(
            [sys.executable, "-c", "import quadmdt; print(quadmdt.__file__)"],
            env=workloads.cli_env(ROOT), cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if os.path.realpath(child) != os.path.realpath(quadmdt_file):
            raise SystemExit("CLI children import quadmdt from %s" % child)

    if not args.tiny and set(workload.universe()) != set(reference):
        raise SystemExit("inputs.json and reference.json disagree on the %s inputs; "
                         "regenerate both with make_reference.py" % args.workload)
    gate = Gate(workload, reference, workloads.KNOWN_DEFECTS)
    gate.problems += workloads.drift(args.workload)
    if args.trace:
        metrics, info = per_layer(args, workloads, workload, gate)
    else:
        metrics, info = end_to_end(workload, gate, args.seconds, args.workload == "cli_mix")
    result = {
        "quadmdt_file": quadmdt_file,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "known_failed": gate.known_failed,
        "failed_keys": dict(gate.failed_keys),
        "problems": gate.problems,
        "metrics": metrics,
        "worker_cpus": sorted(os.sched_getaffinity(0)),
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
