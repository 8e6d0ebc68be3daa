"""Regenerate inputs.json and reference.json: the frozen input pools and the
expected answer for every input any seed can draw.

Usage, from the root of a checkout:

    python3 bench/make_reference.py

The input pools that are derived from the library (``library_pools`` in
workloads.py) are frozen first.  Answers come from running the checkout's own
library once per input, except where the op cannot give them at this commit:
the CLI error paths keep the exit code the documentation fixes, and the
checker probes keep "must not raise" plus their proven-rules reports.  The
script reports each such disagreement.  Regenerate only when an input or the
documented behaviour changes on purpose, never to make a failing run pass.
"""

from __future__ import annotations

import json
import os
import sys

import worker

PATH = os.path.join(worker.BENCH, "reference.json")


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=0, sort_keys=True)
        handle.write("\n")


def main() -> int:
    worker.import_checked()
    import workloads

    dump({name: workloads.library_pools(name) for name in workloads.WORKLOADS}, workloads.INPUTS)
    problems = []
    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 0, worker.ROOT)
        table = {}
        for key in workload.universe():
            op = workload.op(key)
            answer = worker.call(op)
            if not isinstance(answer, Exception):
                problems += workload.check(op, answer)
            got = worker.answer_record(workload, op, answer)
            table[key] = workload.expected(op) or got
            if table[key] != got:
                print("%s %s: current code gives %s, reference keeps %s"
                      % (name, key, got, table[key]), file=sys.stderr)
        reference[name] = table
        print("%s: %d reference answers" % (name, len(table)), file=sys.stderr)
    if problems:
        print("not written; independent checks failed:\n" + "\n".join(problems), file=sys.stderr)
        return 1
    dump(reference, PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
