"""Span tracing of the library from outside, by wrapping module and class attributes.

``Tracer.install`` replaces each traced public function or constructor with
a wrapper in every ``quadmdt`` module that holds it, so internal calls such as
``enumerate_mdt`` -> ``check_partition`` are caught too.  A span wrapper
records one span per call (name, start, end, parent span, op id) in flat
arrays; a count wrapper only counts calls, for functions so hot that a span
per call would swamp the measurement.  ``uninstall`` puts every original
back.  Self time of a span is its duration minus the durations of its child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

MARK = "__bench_wrapper__"

# (module, attribute path, span name, kind).  Spans carry self time; counts
# only count.  Names group into layers by their first component.
TARGETS = (
    ("profile", "QuadricProfile.__init__", "profile.QuadricProfile", "span"),
    ("profile", "QuadricProfile.from_json_dict", "profile.from_json_dict", "span"),
    ("profile", "QuadricProfile.kernel", "profile.kernel", "count"),
    ("profile", "excellent_pairs", "profile.excellent_pairs", "span"),
    ("profile", "alternating_2adic", "profile.alternating_2adic", "span"),
    ("profile", "pattern_enumerate", "profile.pattern_enumerate", "span"),
    ("profile", "i1_admissible_set", "profile.i1_admissible_set", "span"),
    ("profile", "strongly_excellent_profile", "profile.strongly_excellent_profile", "span"),
    ("mdt", "enumerate_mdt", "mdt.enumerate_mdt", "span"),
    ("mdt", "check_partition", "mdt.check_partition", "span"),
    ("mdt", "MdtPartition.__init__", "mdt.MdtPartition", "span"),
    ("mdt", "MdtPartition.from_json_dict", "mdt.MdtPartition.from_json_dict", "span"),
    ("mdt", "forced_connections", "mdt.forced_connections", "count"),
    ("mdt", "vpn_connections", "mdt.vpn_connections", "span"),
    ("mdt", "shell_diagram", "mdt.shell_diagram", "span"),
    ("mdt", "render_ascii", "mdt.render", "span"),
    ("mdt", "render_svg", "mdt.render", "span"),
    ("mdt", "mdt_height_one", "mdt.closed_form", "span"),
    ("mdt", "mdt_pfister_neighbour", "mdt.closed_form", "span"),
    ("mdt", "mdt_strongly_excellent", "mdt.closed_form", "span"),
    ("chow", "mul", "chow.mul", "span"),
    ("chow", "mul_factor", "chow.mul_factor", "count"),
    ("chow", "steenrod", "chow.steenrod", "span"),
    ("chow", "cycle_from_text", "chow.cycle_from_text", "span"),
    ("corr", "compose", "corr.compose", "span"),
    ("corr", "reduce_f", "corr.reduce", "span"),
    ("corr", "reduce_g", "corr.reduce", "span"),
    ("corr", "diagonal_class", "corr.diagonal_class", "span"),
    ("cli", "main", "cli.main", "span"),
)

def quadmdt_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "quadmdt"]


def leftover_wrappers() -> list:
    """Names of every quadmdt module or class attribute that is still a wrapper."""
    found = []
    for module in quadmdt_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, MARK, False):
                found.append("%s.%s" % (module.__name__, name))
            if isinstance(value, type) and value.__module__.startswith("quadmdt"):
                for attr, raw in list(vars(value).items()):
                    if getattr(getattr(raw, "__func__", raw), MARK, False):
                        found.append("%s.%s.%s" % (module.__name__, name, attr))
    return sorted(set(found))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.survivors = 0
        self.accepted = 0
        self.term_pairs = 0
        self.out_terms = 0
        self.enumerated = []  # (profile, rules) of every enumerate_mdt call
        self.op_id = -1
        self._stack = []
        self._undo = []
        self._wrapper_of = {}
        # counts taken from a traced call's arguments and result
        self._after = {
            "mdt.enumerate_mdt": self._enumerated,
            "mdt.check_partition": self._checked,
            "corr.compose": self._composed,
        }

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_ids, parents, op_ids = self.name_id, self.parent, self.op_ids
        starts, ends, stack = self.start, self.end, self._stack
        after = self._after.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerated(self, args, result):
        self.enumerated.append((args[0], args[1] if len(args) > 1 else None))
        self.survivors += len(result)

    def _checked(self, args, result):
        if not result:
            self.accepted += 1

    def _composed(self, args, result):
        self.term_pairs += len(args[0].cycle.support) * len(args[1].cycle.support)
        self.out_terms += len(result.cycle.support)

    # -- install / uninstall -------------------------------------------------------

    def install(self):
        import quadmdt.cli  # noqa: F401  (every layer module is loaded)

        modules = quadmdt_modules()
        try:
            for module_name, path, name, kind in TARGETS:
                make = self._span if kind == "span" else self._count
                module = sys.modules["quadmdt." + module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(make(name, raw.__func__))
                    else:
                        new = make(name, raw)
                    self._undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                original = getattr(module, path)
                wrapper = make(name, original)
                self._wrapper_of[id(original)] = wrapper
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._wrapper_of.clear()

    def rebind(self, fn):
        """The installed wrapper of a function the caller captured before install."""
        return self._wrapper_of.get(id(fn), fn)

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self time; plus the top-level covered time."""
        n = len(self.name_id)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        top = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return {"calls": calls, "self_s": self_s, "top_s": top, "spans": n}

    def write(self, path: str):
        """Write the spans: a JSON header line, then the raw arrays in field order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = [("name_id", self.name_id), ("parent", self.parent), ("op", self.op_ids),
                  ("start", self.start), ("end", self.end)]
        header = {
            "names": self.names,
            "count": len(self.name_id),
            "fields": [[name, arr.typecode, arr.itemsize] for name, arr in fields],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, arr in fields:
                arr.tofile(handle)
