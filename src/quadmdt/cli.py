"""Command-line frontend.

Subcommands: pattern-enum, mdt-solve, diagram, steenrod, compose,
i1-bounds, excellent-pairs, check.  JSON in, JSON out (cycle-valued
commands use the text notation where noted); every error path emits a
machine-readable JSON object on stderr.

Exit codes: 0 success, 2 validation error, 3 enumeration bound exceeded.

Structured inputs (profiles, partitions, correspondences) may be given
inline as JSON, as @FILE, or as "-" for stdin.

Each command imports the layers it uses (mdt, chow, corr) in its body:
every CLI request is its own process, which compiles and runs each module
it imports, so a profile-only request should not pay for the others.  The
mdt commands import mdt only once their profile JSON has parsed, so a
malformed profile exits 2 without loading it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from .errors import BoundExceeded, QuadmdtError
from .profile import (
    QuadricProfile,
    _check_i1_args,
    _count_patterns,
    _iter_patterns,
    excellent_pairs,
    i1_admissible_set,
    profile_json_fields,
)


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return value


def _load_json(value: str):
    return json.loads(_read_source(value))


def _parse_i1_rules(text):
    if text is None:
        return None
    return frozenset(token.strip() for token in text.split(",") if token.strip())


def _parse_mdt_rules(text):
    from .mdt import RuleSet

    rules = RuleSet.proven()
    if text is None:
        return rules
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "proven":
            continue
        rules = rules.enable(token)  # unknown ids raise ValueError
    return rules


def _emit(args, chunks):
    """Write the strings ``chunks`` to the --output file, or to stdout."""
    # joined a batch at a time: a JSON document is never held as one string,
    # nor written chunk by chunk as json.dump does (twice as slow to stdout)
    chunks, stdout = iter(chunks), contextlib.nullcontext(sys.stdout)
    with open(args.output, "w", encoding="utf-8") if args.output else stdout as handle:
        while batch := "".join(itertools.islice(chunks, 8192)):
            handle.write(batch)


def _emit_json(args, obj):
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    _emit(args, itertools.chain(chunks, "\n"))


def _profiles_from_json(data):
    if isinstance(data, list):
        return tuple(QuadricProfile.from_json_dict(entry) for entry in data)
    return (QuadricProfile.from_json_dict(data),)


# the step table behind every listing and count makes O(r^2) admissible-set
# tests before the first pattern: about 0.15 s at r = 1000, 25 min at 10^5
_MAX_PATTERN_R = 1000
# a listing is built whole as one JSON list; 10^6 patterns admits r = 26,
# s = 0 (793,973) and refuses r = 27 (1,268,254)
_MAX_PATTERN_LISTING = 10**6
# i1-bounds and excellent-pairs scan range(r): i1-bounds -r 10^7 takes
# 2.4 s.  steenrod reads its squares as submasks and scans nothing, but
# keeps the same bound on every factor.  Malformed input still exits 2.
_MAX_SCAN_R = 10**5


def _check_scan_r(command: str, r: int):
    if r > _MAX_SCAN_R:
        raise BoundExceeded("%s r = %d exceeds %d" % (command, r, _MAX_SCAN_R))


def cmd_pattern_enum(args) -> int:
    rules = _check_i1_args(args.r, args.s, _parse_i1_rules(args.rules))
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be >= 0, got %d" % args.limit)
    if args.r > _MAX_PATTERN_R:
        raise BoundExceeded("pattern-enum r = %d exceeds %d" % (args.r, _MAX_PATTERN_R))
    # the count is O(r^2) tests, so every request reads it before listing
    count = _count_patterns(args.r, args.s, rules)
    if args.limit is not None and count > args.limit:
        raise BoundExceeded("more than %d patterns (--limit)" % args.limit)
    if args.count:
        _emit_json(args, count)
        return 0
    if count > _MAX_PATTERN_LISTING:
        raise BoundExceeded(
            "%d patterns exceed the listing bound %d (use --count)"
            % (count, _MAX_PATTERN_LISTING)
        )
    # json writes the pattern tuples as arrays: no list copy of each
    _emit_json(args, list(_iter_patterns(args.r, args.s, rules)))
    return 0


def cmd_i1_bounds(args) -> int:
    rules = _check_i1_args(args.r, args.s, _parse_i1_rules(args.rules))
    _check_scan_r("i1-bounds", args.r)
    values = i1_admissible_set(args.r, args.s, rules)
    _emit_json(args, sorted(values))
    return 0


def cmd_excellent_pairs(args) -> int:
    profile = QuadricProfile.from_json_dict(_load_json(args.profile))
    _check_scan_r("excellent-pairs", profile.r)
    _emit_json(args, [[p.a, p.b] for p in excellent_pairs(profile)])
    return 0


def cmd_mdt_solve(args) -> int:
    profile = QuadricProfile.from_json_dict(_load_json(args.profile))
    from . import mdt

    rules = _parse_mdt_rules(args.rules)
    if args.max_r < 0:
        raise ValueError("--max-r must be >= 0, got %d" % args.max_r)
    payload = {"semantics": mdt.SEMANTICS_NOTE}
    if args.count:
        payload["count"] = mdt._count_mdt(profile, rules, max_r=args.max_r)
    else:
        partitions = mdt.enumerate_mdt(profile, rules, max_r=args.max_r)
        payload["partitions"] = [p.to_json_dict() for p in partitions]
    _emit_json(args, payload)
    return 0


def cmd_check(args) -> int:
    profile = QuadricProfile.from_json_dict(_load_json(args.profile))
    from . import mdt

    partition = mdt.MdtPartition.from_json_dict(_load_json(args.partition), profile)
    rules = _parse_mdt_rules(args.rules)
    violations = mdt.check_partition(profile, partition, rules)
    _emit_json(args, [v.to_json_dict() for v in violations])
    return 0


def cmd_diagram(args) -> int:
    # Diagram shape only needs (r, pattern); the i_1-bound validation is
    # deliberately skipped so classical illustration patterns render.
    fields = profile_json_fields(_load_json(args.profile), required=("r", "pattern"))
    from . import mdt

    shape = mdt.ShellPattern(r=fields["r"], pattern=fields["pattern"])
    diagram = mdt.shell_diagram(shape)
    if args.format == "svg":
        _emit(args, (mdt.render_svg(diagram),))
    else:
        _emit(args, (mdt.render_ascii(diagram),))
    return 0


def cmd_steenrod(args) -> int:
    from . import chow

    context = _profiles_from_json(_load_json(args.profile))
    cycle = chow.cycle_from_text(_read_source(args.cycle), context)
    if args.j < 0:
        raise ValueError("j must be >= 0")
    _check_scan_r("steenrod", max((p.r for p in context), default=0))
    _emit(args, (chow.cycle_to_text(chow.steenrod(args.j, cycle)), "\n"))
    return 0


def cmd_compose(args) -> int:
    from . import corr

    f = corr.Correspondence.from_json_dict(_load_json(args.f))
    g = corr.Correspondence.from_json_dict(_load_json(args.g))
    _emit_json(args, corr.compose(f, g).to_json_dict())
    return 0


def _add_common(parser, rules=False):
    if rules:
        parser.add_argument("--rules", help="comma-separated rule selection")
    parser.add_argument("--output", help="write the result to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadmdt",
        description="Mod-2 cycle calculus and MDT partition engine for quadrics "
        "in characteristic 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pattern-enum", help="enumerate splitting patterns for a type")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--count", action="store_true", help="only output the count")
    p.add_argument("--limit", type=int, help="exit 3 if there are more than N patterns")
    _add_common(p, rules=True)
    p.set_defaults(func=cmd_pattern_enum)

    p = sub.add_parser("i1-bounds", help="admissible first higher isotropy indices")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    _add_common(p, rules=True)
    p.set_defaults(func=cmd_i1_bounds)

    p = sub.add_parser("excellent-pairs", help="excellent pairs of a profile")
    p.add_argument("profile", help="profile JSON (inline, @FILE or -)")
    _add_common(p)
    p.set_defaults(func=cmd_excellent_pairs)

    p = sub.add_parser("mdt-solve", help="enumerate partitions passing the rules")
    p.add_argument("profile", help="profile JSON (inline, @FILE or -)")
    p.add_argument("--count", action="store_true", help="only output the count")
    p.add_argument("--max-r", type=int, default=8, help="enumeration bound on r")
    _add_common(p, rules=True)
    p.set_defaults(func=cmd_mdt_solve)

    p = sub.add_parser("check", help="run the rule checker on one partition")
    p.add_argument("profile", help="profile JSON (inline, @FILE or -)")
    p.add_argument("partition", help="partition JSON (inline, @FILE or -)")
    _add_common(p, rules=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diagram", help="render the shell pyramid diagram")
    p.add_argument("profile", help="profile JSON (inline, @FILE or -)")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    _add_common(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("steenrod", help="apply a Steenrod operation to a cycle")
    p.add_argument("-j", type=int, required=True)
    p.add_argument("cycle", help="cycle in text notation, e.g. 'h0*l2 + h1*l1'")
    p.add_argument("--profile", required=True, help="profile JSON or list of profiles")
    _add_common(p)
    p.set_defaults(func=cmd_steenrod)

    p = sub.add_parser("compose", help="compose two correspondences")
    p.add_argument("f", help="correspondence JSON (inline, @FILE or -)")
    p.add_argument("g", help="correspondence JSON (inline, @FILE or -)")
    _add_common(p)
    p.set_defaults(func=cmd_compose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        _error(exc)
        return 3
    except (QuadmdtError, ValueError, KeyError, OSError) as exc:
        _error(exc)
        return 2


def _error(exc):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
