"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

Every workload draws its inputs from a fixed universe of items.  An item is
rebuilt from its key alone (through a string-seeded RNG), so the reference
answers stored in ``reference.json`` cover every input that any run seed can
draw; the run seed only chooses which items run and in what order.  Items
are drawn per stratum of similar cost, so the work in one pass barely
depends on the seed.  Strata that are derived from the library (the sweep's
profiles by atom count, the strongly excellent profiles) are frozen in
``inputs.json``, so the keys a seed draws never depend on the code under
test; ``drift`` reports when the library no longer derives the same pools.

A workload object exposes:

* ``ops``: the op list of one pass, as ``Op(key, fn, args)``; the timed
  region is exactly ``fn(*args)``;
* ``record(op, answer)``: the JSON value compared with the reference;
* ``check(op, answer)``: independent checks, run outside the timed region
  on the first answer of each key; returns a list of problems.

The workloads only import the library; the caller must have put the
checkout's ``src/`` first on ``sys.path`` and verified the import.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import namedtuple

from quadmdt import chow, cli, corr, mdt
from quadmdt import profile as qprofile
from quadmdt.chow import Cycle, FactorSymbol
from quadmdt.corr import Correspondence
from quadmdt.errors import QuadmdtError
from quadmdt.mdt import MdtPartition, RuleSet
from quadmdt.profile import QuadricProfile

Op = namedtuple("Op", "key fn args")
Defect = namedtuple("Defect", "fails_as why")

# Failures that the benchmark expects on purpose: the request stays in the
# mix so the defect shows in ``failed`` until the program is fixed.  A
# failure counts as known only if its record holds every item of
# ``fails_as``; any other failure of the same input is a new one.
KNOWN_DEFECTS = {
    "cli:malformed:dim-float": Defect(
        {"exit": 0},
        "ROADMAP item 5: a non-integer \"dim\" must exit 2; "
        "from_json_dict truncates 6.5 to 6 and exits 0",
    ),
    "probe:vpn:13/4/5/0.1.2.3.4": Defect(
        {"raised": "KeyError"},
        "check_partition raises KeyError when R-VPN is asserted on a profile with r + s > 2^n",
    ),
    "probe:vishik:10/5/0/0.1.2.3.4.5": Defect(
        {"raised": "ValueError"},
        "check_partition raises ValueError when R-VISHIK is asserted and "
        "dim - 2 j_{t-1} - j_t < 1 for some t < h",
    ),
}

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def random_pattern(rng, r: int, s: int) -> list:
    """Random splitting pattern whose every step obeys the 2-adic i_1 bound."""
    pattern = [0]
    while pattern[-1] < r:
        rem = r - pattern[-1]
        steps = [i for i in range(1, rem + 1) if i <= 1 << qprofile.v2(2 * rem + s - i)]
        pattern.append(pattern[-1] + rng.choice(steps))
    return pattern


def random_profile(rng, r: int, s_max: int = 8) -> QuadricProfile:
    s = rng.randrange(s_max + 1)
    return QuadricProfile(2 * r + s, r, s, tuple(random_pattern(rng, r, s)))


def profile_key(p: QuadricProfile) -> str:
    return "%d/%d/%d/%s" % (p.dim, p.r, p.s, ".".join(map(str, p.pattern)))


def profile_from_key(key: str) -> QuadricProfile:
    dim, r, s, pattern = key.split("/")
    return QuadricProfile(int(dim), int(r), int(s), tuple(map(int, pattern.split("."))))


def atom_count(profile: QuadricProfile, rules: RuleSet) -> int:
    """Atoms left after merging every pair the enabled rules force together.

    Mirrors the enumerator's documented up-front propagation, through the
    public ``forced_connections``, ``vpn_connections`` and ``excellent_pairs``.
    """
    pairs = []
    if "R-DUAL" in rules.enabled:
        pairs += mdt.forced_connections(profile)
    if "R-EXC" in rules.enabled and (profile.s <= 1 or "R-EXC" in rules.assumed):
        pairs += [(mdt.lo(p.a), mdt.up(p.b)) for p in qprofile.excellent_pairs(profile)]
    if "R-VPN" in rules.enabled:
        pairs += mdt.vpn_connections(profile, assumed="R-VPN" in rules.assumed)
    parent = {sym: sym for sym in mdt.lambda_set(profile)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(sym) for sym in parent})


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def sweep_profiles(r: int):
    """Every profile of the ROADMAP sweep with this r (s <= 8, proven patterns)."""
    return [
        QuadricProfile(2 * r + s, r, s, pattern)
        for s in range(9)
        for pattern in qprofile.pattern_enumerate(r, s)
    ]


def partition_json(blocks) -> dict:
    return {"blocks": [[{"kind": sym.kind, "i": sym.index} for sym in b] for b in blocks]}


def random_partition(rng, profile: QuadricProfile, respect_dual: bool) -> dict:
    """Random partition of Lambda(X); with ``respect_dual`` it groups R-DUAL pairs."""
    if respect_dual:
        units = [list(pair) for pair in mdt.forced_connections(profile)]
    else:
        units = [[sym] for sym in mdt.lambda_set(profile)]
    rng.shuffle(units)
    blocks = {}
    n_blocks = rng.randint(1, len(units))
    for unit in units:
        blocks.setdefault(rng.randrange(n_blocks), []).extend(unit)
    return partition_json(blocks.values())


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.tiny = tiny
        self.frozen = frozen_pools(self.name)
        self.ops = [self.op(key) for key in self.select(seed)]

    def op(self, key: str) -> Op:
        raise NotImplementedError

    def strata(self):
        """List of (count, keys): ``count`` keys are drawn from each stratum."""
        raise NotImplementedError

    def select(self, seed: int) -> list:
        rng = random.Random("%s:%d" % (self.name, seed))
        keys = []
        for count, pool in self.strata():
            keys += rng.sample(sorted(pool), count)
        rng.shuffle(keys)
        return keys

    def universe(self) -> list:
        return list(dict.fromkeys(k for _, pool in self.strata() for k in pool))

    def expected(self, op):
        """Reference value that a plain run of the op at this commit cannot give:
        fixed by the documentation, or computed from the part of the op that
        works."""
        return None

    def check(self, op, answer) -> list:
        return []


# -- mdt_sweep -------------------------------------------------------------------

R7_STRATA = {5: 1, 6: 1, 7: 2}  # atom count -> profiles drawn from r = 7
R8_FIXED = (
    "16/8/0/0.8",  # the worst case of the full sweep
    "19/8/3/0.1.2.3.4.5.6.7.8",  # no pruning: all 4140 candidates survive
    "16/8/0/0.2.6.7.8",  # no surviving partition
)


class MdtSweep(Workload):
    """One op is one ``enumerate_mdt(profile)`` under the proven rules."""

    name = "mdt_sweep"

    def __init__(self, seed: int, tiny: bool = False):
        self.rules = RuleSet.proven()
        self._strongly_excellent = None
        super().__init__(seed, tiny)

    def op(self, key):
        return Op(key, mdt.enumerate_mdt, (profile_from_key(key), self.rules))

    def strata(self):
        full = self.frozen["r<=6"]
        if self.tiny:
            full = [k for k in full if int(k.split("/")[1]) <= 3]
            return [(len(full), full)]
        out = [(len(full), full)]
        out += [(count, self.frozen["r7:atoms%d" % a]) for a, count in sorted(R7_STRATA.items())]
        out.append((len(R8_FIXED), list(R8_FIXED)))
        return out

    def record(self, op, answer):
        return {"n": len(answer), "sha256": digest([p.to_json_dict() for p in answer])}

    def check(self, op, answer):
        profile, rules = op.args
        problems = []
        for part in answer:
            if mdt.check_partition(profile, part, rules):
                problems.append("%s: survivor %s has violations" % (op.key, part))
                break
        if self._strongly_excellent is None:
            self._strongly_excellent = {}
            for spec in _strongly_excellent_specs(1, 8):
                n_list, s = _parse_se(spec)
                prof, part = mdt.mdt_strongly_excellent(n_list, s)
                self._strongly_excellent[profile_key(prof)] = part
        closed = []
        if profile.height == 1:
            closed.append(("height-one", mdt.mdt_height_one(profile)))
        if pfister_r_equals_m(profile):
            closed.append(("pfister", mdt.mdt_pfister_neighbour(profile)))
        if op.key in self._strongly_excellent:
            closed.append(("strongly-excellent", self._strongly_excellent[op.key]))
        for name, part in closed:
            if part not in answer and mdt.check_partition(profile, part, rules):
                problems.append("%s: %s partition excluded" % (op.key, name))
        return problems


def _pfister_n(profile: QuadricProfile) -> int:
    # dim = 2^n + m with 1 <= m <= 2^n
    return (profile.dim - 1).bit_length() - 1


def vpn_eligible(profile: QuadricProfile) -> bool:
    """r + s <= 2^n: the numerology of a (virtual) Pfister neighbour allows it."""
    return profile.r + profile.s <= 1 << _pfister_n(profile)


def pfister_r_equals_m(profile: QuadricProfile) -> bool:
    """A Pfister neighbour whose complementary form is trivial (r = m, height 1)."""
    m = profile.dim - (1 << _pfister_n(profile))
    return profile.r == m and vpn_eligible(profile) and profile.height == 1


# -- check_oneshot ---------------------------------------------------------------

ONESHOT_R = tuple(range(4, 25, 2))
ONESHOT_POOL = 16
ONESHOT_DRAW = 12  # most of each pool per pass keeps the cost of a pass nearly seed-free


def _strongly_excellent_specs(r_min, r_max):
    specs = []
    for size in (2, 3):
        for n_list in itertools.combinations(range(6, 0, -1), size):
            for s in range(9):
                try:
                    prof, _ = qprofile.strongly_excellent_profile(n_list, s)
                except QuadmdtError:
                    continue
                if r_min <= prof.r <= r_max:
                    specs.append("se:%s:%d" % (".".join(map(str, n_list)), s))
    return specs


def _parse_se(spec):
    _, n_text, s = spec.split(":")
    return tuple(map(int, n_text.split("."))), int(s)


def _height_one_specs(r_values):
    # r + s a power of two >= r: height one and a Pfister neighbour with r = m.
    specs = []
    for r in r_values:
        top = 1 << (r - 1).bit_length()
        for total in (top, 2 * top):
            if total - r <= 8:
                specs.append("h1:%d:%d" % (r, total - r))
    return specs


# Two asserted rules make check_partition raise instead of reporting a
# violation: R-VPN on a profile with r + s > 2^n (KeyError on a symbol
# outside Lambda(X)), and R-VISHIK when dim - 2 j_{t-1} - j_t < 1 for some
# t < h (ValueError from alternating_2adic).  The main strata assert each
# rule only where it is defined; one probe per defect and pass keeps the
# defects in view.
PROBES = {
    "probe:vpn:13/4/5/0.1.2.3.4": "R-VPN",
    "probe:vishik:10/5/0/0.1.2.3.4.5": "R-VISHIK",
}


def vishik_defined(profile: QuadricProfile) -> bool:
    p = profile.pattern
    return all(profile.dim - 2 * p[t - 1] - p[t] >= 1 for t in range(1, profile.height))


class CheckOneshot(Workload):
    """One op handles one profile once, from JSON to violation reports."""

    name = "check_oneshot"

    def op(self, key):
        item = self.item(key)
        profile = QuadricProfile.from_json_dict(item["profile"])
        wide = ["R-EXC"]
        if vpn_eligible(profile) or PROBES.get(key) == "R-VPN":
            wide.append("R-VPN")
        if vishik_defined(profile) or PROBES.get(key) == "R-VISHIK":
            wide.append("R-VISHIK")
        return Op(key, oneshot, (item, (RuleSet.proven(), RuleSet.proven().enable(*wide))))

    def strata(self):
        r_values = (4,) if self.tiny else ONESHOT_R
        out = [
            (1 if self.tiny else ONESHOT_DRAW, ["r%d:%d" % (r, k) for k in range(ONESHOT_POOL)])
            for r in r_values
        ]
        if not self.tiny:
            height_one = _height_one_specs(range(4, 25, 2))
            strongly_excellent = self.frozen["strongly_excellent"]
            out.append((len(height_one), height_one))
            out.append((len(strongly_excellent) // 2, strongly_excellent))
            out += [(1, [key]) for key in PROBES]
        return out

    def item(self, key: str) -> dict:
        rng = random.Random("check_oneshot:" + key)
        kind, rest = key.split(":", 1)
        n_list = None
        if kind == "se":
            n_list, s = _parse_se(key)
            profile, _ = qprofile.strongly_excellent_profile(n_list, s)
        elif kind == "h1":
            r, s = map(int, rest.split(":"))
            profile = QuadricProfile(2 * r + s, r, s, (0, r))
        elif kind == "probe":
            profile = profile_from_key(rest.split(":")[1])
        else:
            profile = random_profile(rng, int(kind[1:]))
        return {
            "profile": profile.to_json_dict(),
            "partitions": [
                random_partition(rng, profile, respect_dual=False),
                random_partition(rng, profile, respect_dual=True),
                random_partition(rng, profile, respect_dual=True),
            ],
            "height_one": profile.height == 1,
            "pfister": pfister_r_equals_m(profile),
            "n_list": n_list,
        }

    def record(self, op, answer):
        if op.key in PROBES:
            # No reference exists yet for the reports under the asserted rule:
            # the probe must not raise, and its proven-rules reports must match.
            pairs, i1, closed, reports = answer
            return {"raised": None, "proven": oneshot_digest((pairs, i1, closed, reports[:1]))}
        return oneshot_digest(answer)

    def expected(self, op):
        if op.key not in PROBES:
            return None
        item, rule_sets = op.args
        return {"raised": None, "proven": oneshot_digest(oneshot(item, rule_sets[:1]))}

    def check(self, op, answer):
        _, _, closed, reports = answer
        if any(reports[0][len(reports[0]) - len(closed):]):
            return ["%s: closed-form partition violates a proven rule" % op.key]
        return []


def oneshot_digest(answer) -> str:
    pairs, i1, closed, reports = answer
    return digest(
        {
            "pairs": [[p.a, p.b, p.k] for p in pairs],
            "i1": sorted(i1),
            "closed": [part.to_json_dict() for part in closed],
            "reports": [[[v.to_json_dict() for v in vs] for vs in rep] for rep in reports],
        }
    )


def oneshot(item, rule_sets):
    profile = QuadricProfile.from_json_dict(item["profile"])
    pairs = qprofile.excellent_pairs(profile)
    i1 = qprofile.i1_admissible_set(profile.r, profile.s)
    partitions = [MdtPartition.from_json_dict(d, profile) for d in item["partitions"]]
    closed = []
    if item["height_one"]:
        closed.append(mdt.mdt_height_one(profile))
    if item["pfister"]:
        closed.append(mdt.mdt_pfister_neighbour(profile))
    if item["n_list"]:
        closed.append(mdt.mdt_strongly_excellent(item["n_list"], profile.s)[1])
    reports = [
        [mdt.check_partition(profile, part, rules) for part in partitions + closed]
        for rules in rule_sets
    ]
    return pairs, i1, closed, reports


# -- corr_algebra ----------------------------------------------------------------

CORR_POOL = 8
DENSITY = 0.3


def _basis(context):
    return list(chow.basis_tuples(context))


def _random_cycle(rng, context) -> Cycle:
    """A fixed share of the basis, so inputs of one stratum cost about the same."""
    basis = _basis(context)
    return Cycle.of_basis(context, *rng.sample(basis, round(DENSITY * len(basis))))


class CorrAlgebra(Workload):
    """One op is one call of compose, steenrod, mul, reduce_f or reduce_g."""

    name = "corr_algebra"

    def strata(self):
        def pool(prefix):
            return ["%s:%d" % (prefix, k) for k in range(CORR_POOL)]

        if self.tiny:
            return [(1, pool("dense:8")), (1, pool("steenrod:2")), (1, pool("reduce_f"))]
        # The three mul:5 ops, of nearly equal cost, sit at the middle rank of
        # the pass, so the median latency does not hop between op kinds.
        return [
            (1, pool("reduce_f")), (1, pool("reduce_g")),
            (2, pool("steenrod:2")), (2, pool("steenrod:3")), (2, pool("dense:8")),
            (3, pool("mul:5")),
            (1, pool("mul:6")), (2, pool("dense:12")), (2, pool("dense:16")),
            (1, pool("diag:120")), (1, pool("diag:160")), (1, pool("diag:200")),
        ]

    def op(self, key: str) -> Op:
        rng = random.Random("corr_algebra:" + key)
        kind = key.split(":")[0]
        if kind == "diag":
            d = corr.diagonal_class(random_profile(rng, int(key.split(":")[1])))
            return Op(key, corr.compose, (d, d))
        if kind == "dense":
            p = random_profile(rng, int(key.split(":")[1]))
            f = Correspondence(_random_cycle(rng, (p, p)), 1)
            g = Correspondence(_random_cycle(rng, (p, p)), 1)
            return Op(key, corr.compose, (f, g))
        if kind == "steenrod":
            arity = int(key.split(":")[1])
            p = random_profile(rng, 7 if arity == 2 else 5)
            return Op(key, chow.steenrod, (3, _random_cycle(rng, (p,) * arity)))
        if kind == "mul":
            r = int(key.split(":")[1])
            context = (random_profile(rng, r), random_profile(rng, r))
            full = Cycle.of_basis(context, *_basis(context))
            return Op(key, chow.mul, (full, full))
        p = random_profile(rng, rng.randint(12, 16))
        while p.height < 2:
            p = random_profile(rng, p.r)
        t = rng.randrange(p.height)
        if kind == "reduce_f":
            return Op(key, corr.reduce_f, (p, t, _random_cycle(rng, (p, p))))
        kernel = p.kernel(t)
        return Op(key, corr.reduce_g, (p, t, _random_cycle(rng, (kernel, kernel))))

    def record(self, op, answer):
        return digest(answer.to_json_dict())

    def check(self, op, answer):
        if op.fn is not corr.compose:
            return []
        f = op.args[0]
        diag = corr.diagonal_class(f.cycle.context[0])
        if not corr.compose(diag, f) == f == corr.compose(f, diag):
            return ["%s: the diagonal class is not a two-sided identity" % op.key]
        if op.key.startswith("diag:") and answer != f:
            return ["%s: diagonal o diagonal differs from the diagonal" % op.key]
        return []


# -- cli_mix ---------------------------------------------------------------------

CLI_POOL = 6
EMPTY_SHA = hashlib.sha256(b"").hexdigest()

Request = namedtuple("Request", "argv stdin expect_exit")

# Fixed requests.  Error exit codes come from the README (2 validation error,
# 3 enumeration bound exceeded) and ROADMAP item 5, not from a run.
_P6 = '{"dim": 6, "r": 2, "s": 2, "pattern": [0, 2]}'
CLI_FIXED = {
    "cli:mdt-solve-count-r6": Request(
        ["mdt-solve", '{"dim": 16, "r": 6, "s": 4, "pattern": [0, 1, 2, 3, 4, 5, 6]}', "--count"],
        None,
        0,
    ),
    "cli:mdt-solve-r9-bound": Request(
        ["mdt-solve", '{"dim": 19, "r": 9, "s": 1, "pattern": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]}'],
        None,
        3,
    ),
    "cli:excellent-pairs-stdin": Request(
        ["excellent-pairs", "-"], '{"dim": 10, "r": 3, "s": 4, "pattern": [0, 1, 3]}', 0
    ),
    "cli:malformed:json": Request(["mdt-solve", '{"dim": 6, "r": 2,'], None, 2),
    "cli:malformed:missing-key": Request(
        ["excellent-pairs", '{"dim": 6, "r": 2, "s": 2}'], None, 2
    ),
    "cli:malformed:pattern": Request(
        ["check", '{"dim": 6, "r": 2, "s": 2, "pattern": [0, 2, 1]}', '{"blocks": []}'],
        None,
        2,
    ),
    "cli:malformed:rule-id": Request(["mdt-solve", _P6, "--rules", "R-NOPE"], None, 2),
    "cli:malformed:dim-float": Request(
        ["excellent-pairs", '{"dim": 6.5, "r": 2, "s": 2, "pattern": [0, 2]}'], None, 2
    ),
}

CLI_SUBCOMMANDS = (
    "pattern-enum",
    "i1-bounds",
    "excellent-pairs",
    "mdt-solve",
    "check",
    "diagram",
    "steenrod",
    "compose",
)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "))


def cli_request(key: str) -> Request:
    if key in CLI_FIXED:
        return CLI_FIXED[key]
    rng = random.Random("cli_mix:" + key)
    cmd = key.split(":")[1]
    if cmd in ("pattern-enum", "i1-bounds"):
        r_max = 6 if cmd == "pattern-enum" else 12
        argv = [cmd, "-r", str(rng.randint(1, r_max)), "-s", str(rng.randrange(7))]
        if rng.random() < 0.5:
            argv += ["--rules", "base,singular,conjectural"]
    elif cmd == "excellent-pairs":
        argv = [cmd, _dumps(random_profile(rng, rng.randint(2, 10)).to_json_dict())]
    elif cmd == "mdt-solve":
        argv = [cmd, _dumps(random_profile(rng, rng.randint(2, 4)).to_json_dict())]
        if rng.random() < 0.5:
            argv += ["--rules", "R-EXC"]
    elif cmd == "check":
        p = random_profile(rng, rng.randint(2, 5))
        argv = [cmd, _dumps(p.to_json_dict()), _dumps(random_partition(rng, p, True))]
    elif cmd == "diagram":
        r = rng.randint(4, 12)
        pattern = sorted(rng.sample(range(1, r), rng.randint(0, min(3, r - 1)))) + [r]
        argv = [cmd, _dumps({"r": r, "pattern": [0] + pattern})]
        argv += ["--format", rng.choice(("ascii", "svg"))]
    elif cmd == "steenrod":
        arity = rng.randint(1, 2)
        ps = [random_profile(rng, rng.randint(3, 6)) for _ in range(arity)]
        cycle = _random_cycle(rng, tuple(ps)) or Cycle.of_basis(
            tuple(ps), tuple(FactorSymbol("h", 0) for _ in ps)
        )
        argv = [cmd, "-j", str(rng.randint(0, 4)), chow.cycle_to_text(cycle)]
        argv += ["--profile", _dumps([p.to_json_dict() for p in ps])]
    else:  # compose
        p = random_profile(rng, rng.randint(2, 3))
        f, g = (Correspondence(_random_cycle(rng, (p, p)), 1) for _ in range(2))
        argv = [cmd, _dumps(f.to_json_dict()), _dumps(g.to_json_dict())]
    return Request(argv, None, 0)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli_subprocess(argv, stdin, env, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "quadmdt.cli"] + argv,
        input=stdin.encode() if stdin is not None else None,
        stdin=None if stdin is not None else subprocess.DEVNULL,
        capture_output=True,
        env=env,
        cwd=cwd,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, err
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue().encode(), err.getvalue().encode()


def is_error_object(stderr: bytes) -> bool:
    try:
        payload = json.loads(stderr.decode().strip().splitlines()[-1])
        error = payload["error"]
        return isinstance(error["type"], str) and isinstance(error["message"], str)
    except (ValueError, IndexError, KeyError, TypeError):
        return False


class CliMix(Workload):
    """One op is one ``python -m quadmdt.cli`` request (in-process when traced)."""

    name = "cli_mix"

    def __init__(self, seed: int, root: str, tiny: bool = False, inprocess: bool = False):
        self.root = root
        self.env = cli_env(root)
        self.inprocess = inprocess
        super().__init__(seed, tiny)

    def op(self, key):
        req = cli_request(key)
        if self.inprocess:
            return Op(key, run_cli_inprocess, (req.argv, req.stdin))
        return Op(key, run_cli_subprocess, (req.argv, req.stdin, self.env, self.root))

    def strata(self):
        def pool(cmd):
            return ["cli:%s:%d" % (cmd, k) for k in range(CLI_POOL)]

        if self.tiny:
            return [(1, pool("i1-bounds")), (1, ["cli:malformed:json"])]
        fixed = list(CLI_FIXED)
        return [(2, pool(cmd)) for cmd in CLI_SUBCOMMANDS] + [(len(fixed), fixed)]

    def record(self, op, answer):
        code, out, err = answer
        rec = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
        if code == 0 and err:
            rec["stderr"] = "unexpected output on success"
        if code != 0 and not is_error_object(err):
            rec["stderr"] = "no JSON error object"
        return rec

    def expected(self, op):
        req = cli_request(op.key)
        if req.expect_exit != 0:
            return {"exit": req.expect_exit, "stdout_sha256": EMPTY_SHA}
        return None


WORKLOADS = ("mdt_sweep", "check_oneshot", "corr_algebra", "cli_mix")


def library_pools(name: str) -> dict:
    """The input pools of a workload that are derived from the library, sorted.

    ``make_reference.py`` freezes them in ``inputs.json``; runs draw from the
    frozen copy.
    """
    if name == "mdt_sweep":
        rules = RuleSet.proven()
        pools = {"r<=6": [profile_key(p) for r in range(1, 7) for p in sweep_profiles(r)]}
        for p in sweep_profiles(7):
            atoms = atom_count(p, rules)
            if atoms in R7_STRATA:
                pools.setdefault("r7:atoms%d" % atoms, []).append(profile_key(p))
    elif name == "check_oneshot":
        pools = {"strongly_excellent": _strongly_excellent_specs(4, 24)}
    else:
        pools = {}
    return {k: sorted(v) for k, v in pools.items()}


def frozen_pools(name: str) -> dict:
    with open(INPUTS, encoding="utf-8") as handle:
        return json.load(handle)[name]


def drift(name: str) -> list:
    """Problems if the library now derives other input pools than the frozen ones."""
    now, frozen = library_pools(name), frozen_pools(name)
    return [
        "%s: the library derives another %s pool than inputs.json holds" % (name, pool)
        for pool in sorted(set(now) | set(frozen))
        if now.get(pool) != frozen.get(pool)
    ]


def make(name: str, seed: int, root: str, tiny: bool = False, inprocess: bool = False):
    if name == "mdt_sweep":
        return MdtSweep(seed, tiny)
    if name == "check_oneshot":
        return CheckOneshot(seed, tiny)
    if name == "corr_algebra":
        return CorrAlgebra(seed, tiny)
    if name == "cli_mix":
        return CliMix(seed, root, tiny, inprocess)
    raise ValueError("unknown workload %r" % (name,))
