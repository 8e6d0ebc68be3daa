"""Lambda symbols, MDT partitions, the rule library, and the enumerator.

Lambda(X) consists of 2r formal symbols: i_lo for 0 <= i < r and i^up for
d_X - r < i <= d_X, indexing the diagonal idempotents h^i x l_i and
l_{d_X-i} x h^{d_X-i}.  A candidate MDT is a partition of Lambda(X); the
checker evaluates a configurable library of necessary conditions against
it, and the enumerator lists every partition that no enabled condition
excludes.

The engine computes "partitions not excluded by the selected necessary
conditions given (dim, type, pattern)" -- it does not decide which of
them is the MDT of an actual form.

Rule identifiers and provenance:

  R-PARITY    proven        blocks of odd size only occur for isotropic forms
  R-DUAL      proven        splitting-pattern connections must be co-blocked
  R-ENDPOINT  proven        b(L) = a(L) + d_X + 1 - j_{t-1} - j_t per block
  R-SHIFT     proven        blocks based in a shell form a full shift orbit
  R-UPPER     proven        structure of the block containing 0_lo
  R-KARPENKO  proven        2-adic divisibility inside the upper block
  R-EXC       proven s<=1   excellent pairs co-blocked (conjectural for s>=2)
  R-VPN       proven*       virtual-Pfister-neighbour connections; applied
                            automatically when the discrete data forces
                            VPN-ness (maximal splitting, m=1, or m=2 with 2
                            in the pattern) at any tower level; enabling the
                            rule explicitly asserts the form itself is a VPN,
                            which is reported as violated when r + s > 2^n
  R-VISHIK    off           interpretation-sensitive reading of the
                            stable-birational connection theorem; a shell
                            with dim - 2 j_{t-1} - j_t < 1 requires nothing

The library is one ordered table, RULES, with one row per rule: its id,
provenance, summary and check.  The checker runs the enabled rows in that
order.  The default ("proven") set enables the first eight in their
automatic scope.  Enabling R-EXC / R-VPN / R-VISHIK by name widens them to
their asserted, unconditional form.  R-DUAL, R-EXC and R-VPN are connection
rules: their scopes are stated once, as a table of symbol pairs per profile
that the enumerator merges up front and the rows' checks report when split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .chow import Cycle, h, l
from .corr import Correspondence
from .errors import (
    ArityMismatch,
    BoundExceeded,
    NotHeightOne,
    NotNeighbourEligible,
    OutOfWindow,
)
from .profile import (
    QuadricProfile,
    alternating_2adic,
    check_pattern,
    excellent_pairs,
    json_int,
    pfister_neighbour_invariants,
    pfister_split,
    strongly_excellent_profile,
    v2,
)

LO = "lo"
UP = "up"


@dataclass(frozen=True)
class Rule:
    """One necessary condition: a row of the rule table.

    ``check(profile, partition, rules, pairs)`` returns the witnesses of
    every way the partition breaks the rule; ``pairs`` are the symbol pairs
    the rule forces into one block (empty unless it is a connection rule).
    """

    id: str
    provenance: str  # "proven" | "conjectural" | "interpretation-sensitive"
    summary: str
    check: Callable


SEMANTICS_NOTE = (
    "partitions not excluded by the selected necessary conditions "
    "given (dim, type, pattern); not a realizability statement"
)


@dataclass(frozen=True, order=True)
class LambdaSymbol:
    """Formal symbol i_lo or i^up; shifts act by adding to the index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (LO, UP):
            raise ValueError("kind must be 'lo' or 'up'")

    def shift(self, j: int) -> "LambdaSymbol":
        return LambdaSymbol(self.kind, self.index + j)

    def __str__(self):
        return "%d_lo" % self.index if self.kind == LO else "%d^up" % self.index


def lo(i: int) -> LambdaSymbol:
    return LambdaSymbol(LO, i)


def up(i: int) -> LambdaSymbol:
    return LambdaSymbol(UP, i)


def lambda_set(profile: QuadricProfile) -> tuple:
    """The 2r symbols of Lambda(X), lower ones first."""
    return tuple(lo(i) for i in range(profile.r)) + tuple(
        up(i) for i in range(profile.d_x - profile.r + 1, profile.d_x + 1)
    )


def alpha_cycle(sym: LambdaSymbol, profile: QuadricProfile) -> Correspondence:
    """Diagonal idempotent attached to a lambda symbol."""
    d_x = profile.d_x
    if sym.kind == LO:
        if not 0 <= sym.index < profile.r:
            raise OutOfWindow("%s outside [0, %d)" % (sym, profile.r))
        pair = (h(sym.index), l(sym.index))
    else:
        if not d_x - profile.r < sym.index <= d_x:
            raise OutOfWindow(
                "%s outside (%d, %d]" % (sym, d_x - profile.r, d_x)
            )
        pair = (l(d_x - sym.index), h(d_x - sym.index))
    return Correspondence(Cycle.of_basis((profile, profile), pair), 1)


def forced_connections(profile: QuadricProfile) -> tuple:
    """Symbol pairs connected by the splitting pattern.

    For each shell t and 0 <= i < i_t this pairs (j_{t-1} + i)_lo with
    (d_X - (j_t - 1 - i))^up.  The range is inclusive of i = i_t - 1:
    stopping one short would leave width-1 shells without connections,
    contradicting the worked low-dimensional cases.
    """
    pairs = []
    p = profile.pattern
    for t in range(1, profile.height + 1):
        for i in range(p[t] - p[t - 1]):
            pairs.append(
                (lo(p[t - 1] + i), up(profile.d_x - (p[t] - 1 - i)))
            )
    return tuple(pairs)


@dataclass(frozen=True)
class MdtPartition:
    """Partition of Lambda(X) into blocks, canonically ordered."""

    blocks: tuple
    r: int
    d_x: int

    def __post_init__(self):
        blocks = tuple(
            tuple(sorted(block)) for block in self.blocks
        )
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)
        seen = set()
        for block in blocks:
            if not block:
                raise ArityMismatch("empty block")
            for sym in block:
                if sym in seen:
                    raise ArityMismatch("symbol %s appears twice" % sym)
                seen.add(sym)
                if sym.kind == LO and not 0 <= sym.index < self.r:
                    raise ArityMismatch("%s outside the lo window" % sym)
                if sym.kind == UP and not self.d_x - self.r < sym.index <= self.d_x:
                    raise ArityMismatch("%s outside the up window" % sym)
        expected = set(
            [lo(i) for i in range(self.r)]
            + [up(i) for i in range(self.d_x - self.r + 1, self.d_x + 1)]
        )
        if seen != expected:
            raise ArityMismatch("blocks do not cover Lambda(X) exactly")

    @classmethod
    def of(cls, profile: QuadricProfile, blocks) -> "MdtPartition":
        return cls(blocks=tuple(tuple(b) for b in blocks), r=profile.r, d_x=profile.d_x)

    def block_of(self, sym: LambdaSymbol) -> tuple:
        for block in self.blocks:
            if sym in block:
                return block
        raise KeyError(sym)

    def co_blocked(self, a: LambdaSymbol, b: LambdaSymbol) -> bool:
        return self.block_of(a) is self.block_of(b)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [
                [{"kind": sym.kind, "i": sym.index} for sym in block]
                for block in self.blocks
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict, profile: QuadricProfile) -> "MdtPartition":
        try:
            blocks = [
                tuple(LambdaSymbol(entry["kind"], json_int(entry["i"])) for entry in block)
                for block in data["blocks"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ArityMismatch("malformed partition JSON: %s" % exc) from exc
        return cls.of(profile, blocks)

    def __str__(self):
        return " | ".join(
            "{" + ", ".join(str(sym) for sym in block) + "}" for block in self.blocks
        )


def _block_a(block):
    los = [sym.index for sym in block if sym.kind == LO]
    return min(los) if los else None


def _block_b(block):
    ups = [sym.index for sym in block if sym.kind == UP]
    return max(ups) if ups else None


def _shift_block(block, j):
    return tuple(sorted(sym.shift(j) for sym in block))


def _blocks_by_a(partition) -> dict:
    """Blocks that hold a lower symbol, keyed by their smallest lower index a."""
    by_a = {_block_a(block): block for block in partition.blocks}
    by_a.pop(None, None)  # one-sided upper blocks have no a
    return by_a


# -- rule set ------------------------------------------------------------------


@dataclass(frozen=True)
class RuleSet:
    """Enabled rule ids and their scope.

    ``assumed`` widens R-EXC / R-VPN / R-VISHIK beyond their automatic
    (profile-forced) scope: R-EXC then checks excellent pairs for every s,
    R-VPN asserts the form itself is a virtual Pfister neighbour.
    """

    enabled: frozenset = field(default_factory=lambda: PROVEN_RULE_IDS)
    assumed: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for rule in self.enabled | self.assumed:
            if rule not in RULE_IDS:
                raise ValueError("unknown rule id %r" % (rule,))

    @classmethod
    def proven(cls) -> "RuleSet":
        return cls()

    def enable(self, *rule_ids: str) -> "RuleSet":
        """Opt in to extra rules; scoped rules become unconditional."""
        extra = frozenset(rule_ids)
        return RuleSet(
            enabled=self.enabled | extra,
            assumed=self.assumed | (extra & {"R-EXC", "R-VPN", "R-VISHIK"}),
        )


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: str

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "witness": self.witness}


def vpn_connections(profile: QuadricProfile, assumed: bool = False) -> tuple:
    """Connections contributed by the virtual-Pfister-neighbour lemma.

    Automatic scope walks the splitting tower: whenever the t-th kernel is
    provably a VPN, its connections i_lo -- (2^n + i - 1)^up transport to
    Lambda(X) shifted by j_t.  With ``assumed`` the connections for the
    form itself are added whenever r + s <= 2^n (equivalently m <= r);
    otherwise the form cannot be a neighbour and its pairs would leave
    Lambda(X).
    """
    pairs = []
    for t in range(profile.height):
        kernel = profile.kernel(t)
        n, m = pfister_split(kernel.dim)
        # forced VPN: maximal splitting, m = 1, or m = 2 with 2 in the pattern
        forced = kernel.steps[0] == m or m == 1 or (m == 2 and 2 in kernel.pattern)
        if not (forced or (assumed and t == 0 and m <= kernel.r)):
            continue
        w = profile.pattern[t]
        for i in range(m):
            pairs.append((lo(i + w), up((1 << n) + i - 1 + w)))
    # dedupe, preserving order
    seen = set()
    out = []
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            out.append(pair)
    return tuple(out)


def _connection_rules(profile: QuadricProfile, rules: RuleSet) -> dict:
    """Enabled connection rule id -> the symbol pairs it forces into one block.

    The one statement of R-DUAL, R-EXC and R-VPN and their scopes: the
    enumerator merges every pair, the checker reports every split pair.
    """
    table = {}
    if "R-DUAL" in rules.enabled:
        table["R-DUAL"] = forced_connections(profile)
    if "R-EXC" in rules.enabled and (profile.s <= 1 or "R-EXC" in rules.assumed):
        table["R-EXC"] = tuple((lo(p.a), up(p.b)) for p in excellent_pairs(profile))
    if "R-VPN" in rules.enabled:
        table["R-VPN"] = vpn_connections(profile, assumed="R-VPN" in rules.assumed)
    return table


def _split_pairs(witness, pairs, partition):
    """Witnesses of a connection rule: one per pair the partition splits."""
    return [witness % (a, b) for a, b in pairs if not partition.co_blocked(a, b)]


def _check_dual(profile, partition, rules, pairs):
    return _split_pairs("%s and %s must be co-blocked", pairs, partition)


def _check_exc(profile, partition, rules, pairs):
    return _split_pairs("excellent pair %s, %s split", pairs, partition)


def _check_vpn(profile, partition, rules, pairs):
    """Asserted, the form must be a neighbour with m in its pattern; then the split pairs."""
    out = []
    if "R-VPN" in rules.assumed:
        try:
            m = pfister_neighbour_invariants(profile.dim, profile.s).m
        except NotNeighbourEligible as exc:
            out.append(str(exc))
        else:
            if m not in profile.pattern:
                out.append(
                    "m = %d not in the splitting pattern %s" % (m, list(profile.pattern))
                )
    return out + _split_pairs("%s and %s must be co-blocked", pairs, partition)


def _fmt_block(block) -> str:
    return ", ".join(str(sym) for sym in block)


def _check_parity(profile, partition, rules, pairs):
    return [
        "odd block {%s}" % _fmt_block(block)
        for block in partition.blocks
        if len(block) % 2
    ]


def _check_endpoint(profile, partition, rules, pairs):
    out = []
    p = profile.pattern
    for block in partition.blocks:
        a, b = _block_a(block), _block_b(block)
        if a is None or b is None:
            out.append("one-sided block {%s} has no endpoint pair" % _fmt_block(block))
            continue
        t = profile.shell_of(a)
        expected = a + profile.d_x + 1 - p[t - 1] - p[t]
        if b != expected:
            out.append("block {%s}: b = %d, expected %d" % (_fmt_block(block), b, expected))
    return out


def _check_shift(profile, partition, rules, pairs):
    out = []
    p = profile.pattern
    by_a = _blocks_by_a(partition)
    for t in range(1, profile.height + 1):
        lo_bound, hi_bound = p[t - 1], p[t]
        members = {a: blk for a, blk in by_a.items() if lo_bound <= a < hi_bound}
        if not members:
            continue
        step = hi_bound - lo_bound
        base = members.get(lo_bound)
        if base is None:
            out.append(
                "shell %d has blocks based at %s but none at j_%d = %d"
                % (t, sorted(members), t - 1, lo_bound)
            )
            continue
        for k in range(1, step):
            expected = _shift_block(base, k)
            actual = members.get(lo_bound + k)
            if actual is None or tuple(actual) != expected:
                out.append(
                    "shell %d: block at a = %d must be the base block "
                    "shifted by %d" % (t, lo_bound + k, k)
                )
        # part (2): lo members of the base block respect the shell widths
        for sym in base:
            if sym.kind != LO:
                continue
            t2 = profile.shell_of(sym.index)
            if sym.index + step > p[t2]:
                out.append(
                    "base block of shell %d contains %s with %d + %d > j_%d = %d"
                    % (t, sym, sym.index, step, t2, p[t2])
                )
    return out


def _check_interior_jt(profile, mn):
    """The upper block's smallest positive lower index mn must be some j_t, 0 < t < h."""
    if mn in profile.pattern[1:-1]:
        return []
    return ["smallest positive lower index %d is not some j_t, t < h" % mn]


def _check_upper(profile, partition, rules, pairs):
    out = []
    upper = partition.block_of(lo(0))
    b = _block_b(upper)
    expected_b = profile.izhboldin_dim - 1
    if b != expected_b:
        out.append("upper block has b = %s, expected Izh - 1 = %d" % (b, expected_b))
    los = sorted(sym.index for sym in upper if sym.kind == LO)
    if len(upper) != 2:
        if len(los) < 2:
            out.append("upper block of size > 2 needs >= 2 lower symbols")
        else:
            out.extend(_check_interior_jt(profile, los[1]))
    if profile.height >= 2:
        j1, j2 = profile.pattern[1], profile.pattern[2]
        inside = [i for i in los if j1 <= i < j2]
        if inside:
            i1, i2 = profile.steps[0], profile.steps[1]
            if i2 % i1:
                out.append("i_1 = %d does not divide i_2 = %d" % (i1, i2))
            expected = list(range(i1, j2 - i1 + 1, i1))
            if inside != expected:
                out.append(
                    "lower indices %s in [j_1, j_2) must be %s" % (inside, expected)
                )
    return out


def _check_karpenko(profile, partition, rules, pairs):
    out = []
    upper = partition.block_of(lo(0))
    if len(upper) <= 2:
        return out
    i1 = profile.steps[0]
    v = (i1 - 1).bit_length()  # smallest v with i1 <= 2^v
    positives = sorted(
        sym.index for sym in upper if sym.kind == LO and sym.index > 0
    )
    for i in positives:
        if i % (1 << v):
            out.append("lower index %d in the upper block not divisible by 2^%d" % (i, v))
    if not positives:
        return out
    mn = positives[0]
    missing = _check_interior_jt(profile, mn)
    if missing:
        return out + missing
    t = profile.pattern.index(mn)
    i_next = profile.steps[t]
    if v2(i_next) < v2(i1):
        out.append("v2(i_%d) = %d < v2(i_1) = %d" % (t + 1, v2(i_next), v2(i1)))
    # second theorem; v2(0) counts as +infinity
    gap = mn - i1
    if (gap == 0 or v2(gap) >= v2(i1) + 2) and v2(i_next) > v2(i1) + 1:
        out.append(
            "v2(i_%d) = %d exceeds v2(i_1) + 1 = %d" % (t + 1, v2(i_next), v2(i1) + 1)
        )
    return out


def _check_vishik(profile, partition, rules, pairs):
    out = []
    p = profile.pattern
    by_a = _blocks_by_a(partition)
    for t in range(1, profile.height):
        base = by_a.get(p[t - 1])
        if base is None:
            continue
        m_val = profile.dim - 2 * p[t - 1] - p[t]
        if m_val < 1:  # no expansion, so the shell requires no positions
            continue
        exp = alternating_2adic(m_val)
        tail = 0
        tails = []
        # suffix alternating sums T_k = 2^{n_k} - 2^{n_{k+1}} + ...
        for n_k in reversed(exp.n):
            tail = (1 << n_k) - tail
            tails.append(tail)
        tails.reverse()
        for k in range(1, exp.j + 1):
            pos = (m_val - tails[k - 1]) // 2 + p[t - 1]
            if not 0 <= pos < profile.r:
                continue
            if lo(pos) not in base:
                out.append(
                    "block at a = j_%d must contain %s (k = %d)" % (t - 1, lo(pos), k)
                )
    return out


# -- the rule table and the checker ----------------------------------------------


RULES = {
    rule.id: rule
    for rule in (
        Rule("R-PARITY", "proven", "blocks have even cardinality", _check_parity),
        Rule("R-DUAL", "proven", "splitting-pattern connections co-blocked", _check_dual),
        Rule(
            "R-ENDPOINT", "proven", "b(L) determined by a(L) and the shell", _check_endpoint
        ),
        Rule("R-SHIFT", "proven", "shell blocks form a full shift orbit", _check_shift),
        Rule("R-UPPER", "proven", "structure of the block containing 0_lo", _check_upper),
        Rule(
            "R-KARPENKO", "proven", "2-adic bounds inside the upper block", _check_karpenko
        ),
        Rule(
            "R-EXC",
            "conjectural",
            "excellent pairs co-blocked (proven, and auto-applied, for s <= 1)",
            _check_exc,
        ),
        Rule(
            "R-VPN",
            "proven",
            "virtual-Pfister-neighbour connections (auto-applied when forced)",
            _check_vpn,
        ),
        Rule(
            "R-VISHIK",
            "interpretation-sensitive",
            "expansion-determined lower positions in shell-based blocks",
            _check_vishik,
        ),
    )
}

RULE_IDS = tuple(RULES)

PROVEN_RULE_IDS = frozenset(RULE_IDS) - {"R-VISHIK"}


def check_partition(profile: QuadricProfile, partition: MdtPartition, rules=None):
    """Evaluate every enabled necessary condition; return the violations.

    The violations come in RULE_IDS order, each rule's in its check's order.
    """
    if rules is None:
        rules = RuleSet.proven()
    if partition.r != profile.r or partition.d_x != profile.d_x:
        raise ArityMismatch(
            "partition is over (r=%d, d_X=%d), profile needs (r=%d, d_X=%d)"
            % (partition.r, partition.d_x, profile.r, profile.d_x)
        )
    return _violations(profile, partition, rules, _connection_rules(profile, rules))


def _violations(profile, partition, rules, connections):
    """check_partition's body, given the profile's connection table."""
    return tuple(
        Violation(rule.id, witness)
        for rule in RULES.values()
        if rule.id in rules.enabled
        for witness in rule.check(profile, partition, rules, connections.get(rule.id, ()))
    )


# -- enumerator ----------------------------------------------------------------


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1 :]
        yield [[first]] + smaller


def enumerate_mdt(profile: QuadricProfile, rules=None, max_r: int = 8) -> tuple:
    """All partitions of Lambda(X) passing every enabled rule.

    The connection table (R-DUAL, scoped R-EXC/R-VPN) is built once: its
    pairs are propagated up front as union-find merges, the surviving atoms
    are partitioned exhaustively, and each candidate runs through the
    checker's body with that same table, so the output agrees with
    check_partition by construction.  The result is
    canonically sorted and independent of evaluation order (the search is
    embarrassingly parallel; this implementation is sequential).
    """
    if rules is None:
        rules = RuleSet.proven()
    if profile.r > max_r:
        raise BoundExceeded(
            "r = %d exceeds the enumeration bound %d" % (profile.r, max_r)
        )
    symbols = lambda_set(profile)
    parent = {sym: sym for sym in symbols}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    connections = _connection_rules(profile, rules)
    for pairs in connections.values():
        for a, b in pairs:
            union(a, b)
    atoms = {}
    for sym in symbols:
        atoms.setdefault(find(sym), []).append(sym)
    atom_list = sorted(atoms.values(), key=lambda a: min(a))
    # Bell(10) candidate partitions is the practical ceiling; rule sets
    # without R-DUAL leave 2r single-symbol atoms and hit this early.
    if len(atom_list) > 10:
        raise BoundExceeded(
            "%d unconstrained atoms exceed the search bound" % len(atom_list)
        )
    results = []
    for grouping in _set_partitions(atom_list):
        blocks = [tuple(itertools.chain.from_iterable(group)) for group in grouping]
        partition = MdtPartition.of(profile, blocks)
        if not _violations(profile, partition, rules, connections):
            results.append(partition)
    return tuple(sorted(results, key=lambda part: part.blocks))


# -- closed-form generators ----------------------------------------------------


def mdt_height_one(profile: QuadricProfile) -> MdtPartition:
    """The unique MDT of a nondefective height-1 form: r binary blocks."""
    if profile.height != 1:
        raise NotHeightOne("profile has height %d" % profile.height)
    base = profile.r + profile.s - 1
    blocks = [(lo(i), up(base + i)) for i in range(profile.r)]
    return MdtPartition.of(profile, blocks)


def mdt_pfister_neighbour(profile: QuadricProfile, inner=None) -> MdtPartition:
    """Assemble the MDT of a Pfister neighbour from its complementary form.

    With dim = 2^n + m: the first m blocks are {i_lo, (2^n - 1 + i)^up};
    the rest is the complementary form's partition shifted by m.  The
    complementary profile has type (r - m, s); pass its partition as
    ``inner`` (omit it when r = m).
    """
    inv = pfister_neighbour_invariants(profile.dim, profile.s)
    n, m = inv.n, inv.m
    blocks = [(lo(i), up((1 << n) - 1 + i)) for i in range(m)]
    if profile.r == m:
        if inner:
            raise ArityMismatch("r = m: no complementary partition expected")
    else:
        if inner is None:
            raise ArityMismatch("r > m: need the complementary form's partition")
        if inner.r != profile.r - m or inner.d_x != profile.d_x - 2 * m:
            raise ArityMismatch(
                "inner partition is over (r=%d, d_X=%d); expected (r=%d, d_X=%d)"
                % (inner.r, inner.d_x, profile.r - m, profile.d_x - 2 * m)
            )
        for block in inner.blocks:
            blocks.append(_shift_block(block, m))
    return MdtPartition.of(profile, blocks)


def mdt_strongly_excellent(n_list, s: int):
    """Closed-form MDT of a strongly excellent form.

    Returns (profile, partition); the blocks are
    {0_lo, (2^{n_{i+1}-1} - 1)^up}[m_1 + ... + m_i + j].
    """
    prof, _ = strongly_excellent_profile(n_list, s)
    n_list = tuple(int(n) for n in n_list)
    blocks = []
    # the pattern's steps are the m_i, so its entries are the running offsets
    for n_i, offset, m_i in zip(n_list, prof.pattern, prof.steps):
        top = (1 << (n_i - 1)) - 1
        for j in range(m_i):
            blocks.append((lo(offset + j), up(top + offset + j)))
    partition = MdtPartition.of(prof, blocks)
    return prof, partition


def mdt_isotropic_lift(w: int, inner: MdtPartition, inner_profile: QuadricProfile) -> MdtPartition:
    """MDT of an isotropic form with Witt index w over the given anisotropic part.

    Adds w lower and w upper singletons and shifts the inner blocks by w.
    The result lives over the lifted symbol set (r + w, d_X + 2w); it is
    not a QuadricProfile partition since profiles model anisotropic forms.
    """
    if w < 1:
        raise ValueError("Witt index w must be >= 1")
    if inner.r != inner_profile.r or inner.d_x != inner_profile.d_x:
        raise ArityMismatch("inner partition does not match the inner profile")
    r = inner_profile.r + w
    d_x = inner_profile.d_x + 2 * w
    blocks = [(lo(i),) for i in range(w)]
    blocks += [(up(d_x - i),) for i in range(w)]
    blocks += [_shift_block(block, w) for block in inner.blocks]
    return MdtPartition(blocks=tuple(blocks), r=r, d_x=d_x)


# -- shell diagrams ------------------------------------------------------------


@dataclass(frozen=True)
class ShellPattern:
    """Bare (r, pattern) data for diagram rendering.

    Diagram shape is pure pattern combinatorics; it is deliberately not
    subject to the i_1-bound validation of QuadricProfile, because the
    classical illustration pattern {2, 8, 12} (steps 2, 6, 4) is not
    attainable by any actual splitting tower yet is the canonical picture.
    """

    r: int
    pattern: tuple

    def __post_init__(self):
        object.__setattr__(self, "pattern", tuple(self.pattern))
        check_pattern(self.r, self.pattern)


@dataclass(frozen=True)
class ShellNode:
    """One node of the pyramid diagram: h^i x l_{i+j} (left) or mirrored."""

    i: int
    row: int
    side: str  # "left" or "right"
    shell: int  # 1-based internal shell index; rendered label is shell - 1


@dataclass(frozen=True)
class ShellDiagram:
    r: int
    pattern: tuple
    nodes: tuple

    @property
    def max_row(self) -> int:
        return max((node.row for node in self.nodes), default=0)

    def base_widths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.pattern, self.pattern[1:]))


def shell_diagram(shape) -> ShellDiagram:
    """Arrange the essential pairs h^i x l_{i+j} into shells.

    ``shape`` is a QuadricProfile or a ShellPattern.  A node (i, j) with
    j >= 1 exists iff j_{t-1} <= i < j_t - j for some shell t; row 0
    holds all 2r nodes.
    """
    nodes = []
    p = tuple(shape.pattern)
    for t in range(1, len(p)):
        width = p[t] - p[t - 1]
        for j in range(width):
            for i in range(p[t - 1], p[t] - j):
                for side in ("left", "right"):
                    nodes.append(ShellNode(i=i, row=j, side=side, shell=t))
    return ShellDiagram(r=shape.r, pattern=p, nodes=tuple(nodes))


_GAP = 3


def _column(diagram: ShellDiagram, node: ShellNode) -> int:
    if node.side == "left":
        return node.i
    return 2 * diagram.r + _GAP - 1 - node.i


def render_ascii(diagram: ShellDiagram) -> str:
    """Deterministic ASCII rendering, shells labeled 0..h-1 beneath the bases."""
    r = diagram.r
    width = 2 * r + _GAP
    rows = []
    for j in range(diagram.max_row, -1, -1):
        line = [" "] * width
        for node in diagram.nodes:
            if node.row == j:
                line[_column(diagram, node)] = "*"
        rows.append("".join(line).rstrip())
    label = [" "] * width
    p = diagram.pattern
    for t in range(1, len(p)):
        text = str(t - 1)
        left_center = (p[t - 1] + p[t] - 1) // 2
        right_center = (
            (2 * r + _GAP - p[t]) + (2 * r + _GAP - 1 - p[t - 1])
        ) // 2
        for center in (left_center, right_center):
            for offset, ch in enumerate(text):
                pos = center + offset
                if 0 <= pos < width:
                    label[pos] = ch
    rows.append("".join(label).rstrip())
    return "\n".join(rows) + "\n"


def render_svg(diagram: ShellDiagram) -> str:
    """Deterministic SVG rendering of the pyramid diagram."""
    scale = 20
    width = (2 * diagram.r + _GAP + 1) * scale
    height = (diagram.max_row + 3) * scale
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    for node in sorted(diagram.nodes, key=lambda n: (n.row, _column(diagram, n))):
        cx = (_column(diagram, node) + 1) * scale
        cy = (diagram.max_row - node.row + 1) * scale
        parts.append('<circle cx="%d" cy="%d" r="6" fill="black"/>' % (cx, cy))
    p = diagram.pattern
    label_y = (diagram.max_row + 2) * scale
    for t in range(1, len(p)):
        left_cx = (p[t - 1] + p[t] - 1) * scale // 2 + scale
        right_cx = (
            (2 * diagram.r + _GAP - p[t]) + (2 * diagram.r + _GAP - 1 - p[t - 1])
        ) * scale // 2 + scale
        for cx in (left_cx, right_cx):
            parts.append(
                '<text x="%d" y="%d" font-size="12" text-anchor="middle">%d</text>'
                % (cx, label_y, t - 1)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
