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
provenance, summary, check and scope.  The checker runs the enabled rows in
that order.  The default ("proven") set enables the first eight in their
automatic scope.  Enabling R-EXC / R-VPN by name widens them to their
asserted, unconditional form; R-VISHIK has no automatic scope to widen, so
enabling it only turns it on.  R-DUAL, R-EXC and R-VPN are connection rules:
their scopes are stated once, as a table of symbol pairs per profile that
the enumerator merges up front and the rows' checks report when split.

The rows work on one compiled form per profile, which _compile builds
once and keeps in the profile's memo (_per_profile), so that it lives
exactly as long as the profile and serves every rule set: Lambda(X)
encoded as the integers 0..2r-1 in lambda_set order (so integer order is
symbol order) with each code's symbol and text, R-EXC's pairs, the
witnesses an asserted R-VPN reports on every partition (its numerology),
the upper-block rows' other constants (the [j_1, j_2) data and 2^v), and
all that it reads off the splitting tower in one pass over the shells
[j_{t-1}, j_t): each lower code's shell and partner (its R-DUAL pair,
whose upper symbol is the b that R-ENDPOINT requires; the first,
partner[0], holds (Izh - 1)^up, the b of the upper block), R-VPN's pairs
under both of its scopes from each kernel, of Witt index j_{t-1}, and, keyed
by the shell's start j_{t-1}, R-KARPENKO's 2-adic witnesses and R-VISHIK's
positions; so no row recomputes profile data per candidate, and each
connection pair is built once per profile.  A rule set only selects from
it (_scope, kept nowhere): the enabled rows, and per connection rule in
scope its pairs and witnesses.  The listing's search, walked once into its
state graph (_state_graph: the live states with their edges in bottom-up
order, and the blocks, named, of each option on an edge), is the one
entry per (profile, RuleSet) pair in the same memo, so a listing of the
profile object again under the same rules builds no table and walks
nothing: only a flat fold over the graph and the survivors are made on
every call.  The graph is walked from a table of the same options over
the codes (_code_table), which is kept nowhere: the count builds one on
every call and names no symbol.  Lambda(X) itself, its symbols, their
texts and codes, is one table per (r, d_X), shared by every profile.
The checker calls each enabled row once per candidate, with the one view
of it that the row's scope reads: a connection row (R-DUAL, R-EXC, R-VPN)
reads which block each symbol is in and the rule set's connection table,
every other row the blocks.  A per-block row walks the candidate's blocks
itself and yields its witnesses block by block:
R-PARITY and R-ENDPOINT read every block, R-UPPER and R-KARPENKO only the
first, the upper block (first symbol 0_lo), and R-VISHIK the blocks based
at some j_{t-1}; R-UPPER runs its four clauses in turn.  Each row's check
yields its witnesses as templates with their arguments, and only
check_partition formats them, row by row.  The enumerator searches block
by block instead of testing whole candidates: a block is complete when it
is chosen, so it forms only the unions of atoms that can open a block,
each judged once, up to its first witness, by the per-block rows and
R-UPPER clauses that the other enabled rules do not imply, a base block's
shifts by the base block (the comments beside _code_table say which and
why).  R-SHIFT is read whole by the checker (_check_shift) and block by
block by the search (_code_table), which places a base block together
with its shifts; no pass runs over complete candidates.  The state graph
and the count (_count_mdt, behind mdt-solve --count) are built by one
walk of the search (_walk), memoised on the set of atoms not yet placed,
the only traversal of a search table.  It tries blocks in order, so the
fold over the graph makes the survivors in canonical order: they are
built as MdtPartitions canonical by construction, with no re-validation,
and the count builds none.
"""

# annotations are never evaluated, so the Correspondence that alpha_cycle
# returns is imported only when it is called
from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .errors import (
    ArityMismatch,
    BoundExceeded,
    NotHeightOne,
    NotNeighbourEligible,
    OutOfWindow,
)
from .profile import (
    QuadricProfile,
    _ENTRY_KEYS,
    _Record,
    _check_int,
    _per_profile,
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


class Rule(_Record):
    """One necessary condition: a row of the rule table.

    ``check`` yields the witness of every way a candidate breaks the rule,
    as a (template, arguments) pair that check_partition formats, reading
    ``compiled``, the one compiled form of the profile over integer symbols
    (_Compiled).  What else it reads depends on ``scope``:

    - "block": ``check(compiled, blocks)`` reads the candidate's blocks,
      ascending int tuples in canonical order, and yields its witnesses
      block by block; a candidate breaks the rule where any of its blocks
      does.  The enumerator judges one block by the same check, passing
      ``(block,)``, and R-UPPER's clause by clause (_UPPER_CLAUSES, each
      called as the row is);
    - "partition": ``check(compiled, blocks)`` reads the whole candidate's
      blocks.  The one such rule, R-SHIFT, is read whole by the checker and
      block by block by the enumerator, which places a base block with its
      shifts (_code_table);
    - "connection": ``check(compiled, (block_of, connections))`` reads each
      symbol's block position, block_of[k], for a rule whose symbol pairs
      the enumerator merges into atoms before it places any block;
      ``connections[id]``, the rule set's entry for a rule in scope
      (_scope), holds the witnesses it reports on every partition and its
      pairs.

    ``provenance`` is "proven", "conjectural" or "interpretation-sensitive".
    """

    __slots__ = ("id", "provenance", "summary", "check", "scope")


SEMANTICS_NOTE = (
    "partitions not excluded by the selected necessary conditions "
    "given (dim, type, pattern); not a realizability statement"
)


class LambdaSymbol(namedtuple("LambdaSymbol", "kind index")):
    """Formal symbol i_lo or i^up, the tuple (kind, index); shifts add to the index."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int):
        if kind not in (LO, UP):
            raise ValueError("kind must be 'lo' or 'up'")
        _check_int("index", index)
        return super().__new__(cls, kind, index)

    def shift(self, j: int) -> "LambdaSymbol":
        return LambdaSymbol(self.kind, self.index + _check_int("j", j))

    def __str__(self):
        return "%d_lo" % self.index if self.kind == LO else "%d^up" % self.index


# symbols are immutable, so each is built once and shared: the connection
# tables, the witnesses and the survivors of every compiled rule set name the
# same few symbols over and over
@functools.lru_cache(maxsize=4096)
def lo(i: int) -> LambdaSymbol:
    return LambdaSymbol(LO, i)


@functools.lru_cache(maxsize=4096)
def up(i: int) -> LambdaSymbol:
    return LambdaSymbol(UP, i)


# Lambda(X) as one table: its 2r symbols, lower ones first, their set, each
# code's text ("3_lo", "17^up") and each symbol's code
_LambdaTable = namedtuple("_LambdaTable", "symbols window names codes")


# Lambda(X) depends on (r, d_X) alone, which many profiles share
@functools.lru_cache(maxsize=64)
def _lambda(r: int, d_x: int) -> _LambdaTable:
    symbols = tuple(map(lo, range(r))) + tuple(map(up, range(d_x - r + 1, d_x + 1)))
    names, codes = tuple(map(str, symbols)), dict(zip(symbols, range(2 * r)))
    return _LambdaTable(symbols, frozenset(symbols), names, codes)


def lambda_set(profile: QuadricProfile) -> tuple:
    """The 2r symbols of Lambda(X), lower ones first."""
    return _lambda(profile.r, profile.d_x).symbols


def alpha_cycle(sym: LambdaSymbol, profile: QuadricProfile) -> Correspondence:
    """Diagonal idempotent attached to a lambda symbol."""
    # the only use of chow and corr here: importing them in the body spares
    # every caller of the rules and the enumerator from loading them
    from .chow import Cycle, h, l
    from .corr import Correspondence

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
    contradicting the worked low-dimensional cases.  With a = j_{t-1} + i
    the partner is the b that R-ENDPOINT requires of a block based at a:
    these are R-DUAL's pairs, which the checker and the search read as the
    compiled form's ``partner``, named.
    """
    c = _compile(profile)
    return tuple([(c.symbols[a], c.symbols[b]) for a, b in c.partner])


class MdtPartition(_Record):
    """Partition of Lambda(X) into blocks, canonically ordered."""

    __slots__ = ("blocks", "r", "d_x")

    def __init__(self, blocks: tuple, r: int, d_x: int):
        _check_int("r", r)
        _check_int("d_x", d_x)
        blocks = [tuple(block) for block in blocks]
        if not all(blocks):
            raise ArityMismatch("empty block")
        symbols = [sym for block in blocks for sym in block]
        for sym in symbols:
            # a plain (kind, index) tuple equals its symbol, so test the type
            if not isinstance(sym, LambdaSymbol):
                raise ArityMismatch("block entry %r is not a LambdaSymbol" % (sym,))
        # by first symbol only: blocks sharing one keep their order for _reject
        blocks = tuple(sorted(map(tuple, map(sorted, blocks)), key=operator.itemgetter(0)))
        super().__init__(blocks, r, d_x)
        # 2r distinct symbols inside both windows are exactly Lambda(X)
        if len(symbols) != 2 * r or set(symbols) != _lambda(r, d_x).window:
            self._reject(blocks)

    def _reject(self, blocks):
        """Raise the error for the first symbol, in canonical order, that
        repeats or leaves its window, else for a short cover.  The windows
        are tested by their bounds, so the cost does not grow with r."""
        seen, r, d_x = set(), self.r, self.d_x
        for block in blocks:
            for sym in block:
                if sym in seen:
                    raise ArityMismatch("symbol %s appears twice" % (sym,))
                seen.add(sym)
                i = sym.index
                if not (0 <= i < r if sym.kind == LO else d_x - r < i <= d_x):
                    raise ArityMismatch("%s outside the %s window" % (sym, sym.kind))
        raise ArityMismatch("blocks do not cover Lambda(X) exactly")

    @classmethod
    def _canonical(cls, blocks: tuple, r: int, d_x: int) -> "MdtPartition":
        """A partition built unvalidated from blocks that already cover
        Lambda(X) exactly as sorted symbol tuples in block order.  Only
        enumerate_mdt calls it, whose search builds its survivors that way;
        every other path validates in __init__."""
        part = object.__new__(cls)
        _SET_BLOCKS(part, blocks)
        _SET_R(part, r)
        _SET_D_X(part, d_x)
        return part

    @classmethod
    def of(cls, profile: QuadricProfile, blocks) -> "MdtPartition":
        return cls(blocks, profile.r, profile.d_x)

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
            unknown = set(data) - {"blocks"}
            blocks = []
            for block in data["blocks"]:
                # each block's keys are read before its symbols, so a
                # non-iterable entry fails before an earlier entry's fields
                for entry in block:
                    if type(entry) is not dict or entry.keys() != _ENTRY_KEYS:
                        unknown.update(set(entry) - _ENTRY_KEYS)
                blocks.append(tuple([_json_symbol(entry) for entry in block]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ArityMismatch("malformed partition JSON: %s" % exc) from exc
        if unknown:
            raise ArityMismatch("malformed partition JSON: unknown keys %s" % sorted(unknown))
        return cls.of(profile, blocks)

    def __str__(self):
        return " | ".join(
            "{" + ", ".join(str(sym) for sym in block) + "}" for block in self.blocks
        )


def _json_symbol(entry) -> LambdaSymbol:
    """The symbol of a partition JSON entry, from the lo/up caches; its fields
    are read and checked in LambdaSymbol(entry["kind"], json_int(entry["i"]))'s
    order, with its errors."""
    kind, index = entry["kind"], json_int(entry["i"])
    if kind == LO:
        return lo(index)
    if kind == UP:
        return up(index)
    return LambdaSymbol(kind, index)  # raises: kind is neither


# The slots' own setters, for _canonical: one survivor costs about 0.1 us
# less than through _set, which first checks the class's __setattr__ chain.
_SET_BLOCKS, _SET_R, _SET_D_X = MdtPartition._setters


# -- rule set ------------------------------------------------------------------


class RuleSet(_Record):
    """Enabled rule ids and their scope.

    ``enabled`` defaults to the proven rules.  ``assumed`` widens R-EXC /
    R-VPN beyond their automatic (profile-forced) scope: R-EXC then checks
    excellent pairs for every s, R-VPN asserts the form itself is a virtual
    Pfister neighbour.  Each field is stored as a frozenset of the ids given;
    ``assumed`` may name only enabled R-EXC / R-VPN.
    """

    __slots__ = ("enabled", "assumed")

    def __init__(self, enabled: frozenset = None, assumed: frozenset = frozenset()):
        if enabled is None:
            enabled = PROVEN_RULE_IDS
        if isinstance(enabled, str) or isinstance(assumed, str):
            raise ValueError("rule ids must be given as a collection, not one string")
        enabled, assumed = frozenset(enabled), frozenset(assumed)
        for rule in enabled | assumed:
            if rule not in RULE_IDS:
                raise ValueError("unknown rule id %r" % (rule,))
        if not assumed <= enabled & {"R-EXC", "R-VPN"}:
            raise ValueError(
                "assumed %s: only enabled R-EXC / R-VPN can be assumed" % sorted(assumed)
            )
        super().__init__(enabled, assumed)

    @classmethod
    def proven(cls) -> "RuleSet":
        return cls()

    def enable(self, *rule_ids: str) -> "RuleSet":
        """Opt in to extra rules; scoped rules become unconditional."""
        extra = frozenset(rule_ids)
        return RuleSet(
            enabled=self.enabled | extra,
            assumed=self.assumed | (extra & {"R-EXC", "R-VPN"}),
        )


class Violation(_Record):
    __slots__ = ("rule", "witness")

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "witness": self.witness}


# The slots' own setters, for check_partition, which reports many violations
# per call
_SET_RULE, _SET_WITNESS = Violation._setters


def vpn_connections(profile: QuadricProfile, assumed: bool = False) -> tuple:
    """Connections contributed by the virtual-Pfister-neighbour lemma.

    Automatic scope walks the splitting tower: whenever the t-th kernel is
    provably a VPN, its connections i_lo -- (2^n + i - 1)^up transport to
    Lambda(X) shifted by j_t.  With ``assumed`` the connections for the
    form itself are added whenever r + s <= 2^n (equivalently m <= r);
    otherwise the form cannot be a neighbour and its pairs would leave
    Lambda(X).  These are the pairs of the compiled form's ``vpn`` entry
    for the scope, named.
    """
    c = _compile(profile)
    return tuple([(c.symbols[a], c.symbols[b]) for a, b in c.vpn[bool(assumed)][1]])


# -- the compiled form -----------------------------------------------------------


class _Compiled:
    """A profile over the integer symbols 0..2r-1, shared by every rule set.

    Code k is lambda_set(profile)[k], so integer order is LambdaSymbol
    order: k < r is k_lo, and k >= r is an upper symbol.  _compile sets
    every attribute once, and no attribute depends on a rule set: each
    connection rule's pairs are here under every scope, as [a, b] codes,
    and a rule set only selects among them (_scope).  The symbols, names
    and codes are Lambda(X)'s table (_lambda); partner is R-DUAL's pairs,
    the same object as the rule's connection pairs.  The upper-block rows'
    profile-only data (partner[0], interior, karpenko, between) is read by
    the checker and the search alike, and computed here only.  Everything
    read off the splitting tower (shell, partner, R-VPN's kernel levels,
    interior and vishik) is built in one pass over the shells t = 1..h,
    [j_{t-1}, j_t), and a table per shell is keyed by its start j_{t-1}.
    """

    __slots__ = (
        "r",
        "up_offset",  # symbol i^up is i + up_offset
        "pattern",
        "shell",  # lower index -> its shell t
        "partner",  # lower code a -> R-DUAL's [a, code of the b that R-ENDPOINT requires]
        "excellent",  # R-EXC's pairs: excellent_pairs as codes
        "vpn",  # R-VPN's (witnesses on every partition, pairs): [False] automatic, [True] asserted
        # per shell t, keyed by its start j_{t-1}: for 1 < t <= h, R-KARPENKO's
        # witnesses when j_{t-1} is the upper block's smallest positive lower index
        "interior",
        "karpenko",  # (2^v - 1, v), 2^v the least power of 2 >= i_1
        "between",  # (j_1, j_2, witness if i_1 does not divide i_2, indices R-UPPER wants there)
        # per shell t < h that R-VISHIK constrains, keyed by its start j_{t-1}:
        # (t, ((position, k), ...)), the lower positions its base block must hold
        "vishik",
        "symbols",  # code -> its LambdaSymbol
        "names",  # code -> its symbol's text
        "codes",  # LambdaSymbol -> its code
    )


def _vpn_assertion(profile: QuadricProfile) -> tuple:
    """Asserted, the form must be a neighbour with m in its pattern: the
    witnesses, as (template, arguments), that it fails to be."""
    try:
        m = pfister_neighbour_invariants(profile.dim, profile.s).m
    except NotNeighbourEligible as exc:
        return (("%s", (str(exc),)),)
    if m not in profile.pattern:
        return (("m = %d not in the splitting pattern %s", (m, list(profile.pattern))),)
    return ()


# QuadricProfile is frozen, so one compiled form serves every check and
# every search of a profile under any rule set: callers check many partitions
# of one profile, or one partition under several rule sets.  It is kept in the
# profile's memo (_per_profile), so it lives as long as the profile.
@_per_profile
def _compile(profile: QuadricProfile) -> _Compiled:
    c = _Compiled()
    c.r = r = profile.r
    c.up_offset = off = 2 * r - 1 - profile.d_x
    c.pattern = p = profile.pattern
    # 2-lists: fresh 2-tuples raised the peak memory of check_oneshot, which
    # compiles every profile it checks, by 0.6-0.8 MB (of ~30)
    c.shell, c.partner, c.interior, c.vishik = shell, partner, interior, vishik = [], [], {}, {}
    auto, asserted = {}, {}  # R-VPN's (lower code, upper code) -> None: deduped, in order
    h, v1 = len(p) - 1, v2(p[1])
    for t in range(1, h + 1):  # shell t is [w, j) = [j_{t-1}, j_t), of width i_t
        w, j = p[t - 1], p[t]
        shell += [t] * (j - w)
        # a in shell t pairs with (a + d_X + 1 - w - j)^up, code a + 2r - w - j:
        # shell t's partners fill (d_X - j, d_X - w]
        partner += [[a, a + 2 * r - w - j] for a in range(w, j)]
        n, m = pfister_split(profile.dim - 2 * w)  # the kernel of Witt index w is 2^n + m
        # forced VPN: maximal splitting, m = 1, or m = 2 with 2 in the kernel's
        # pattern, which is p[t - 1:] shifted down by w; asserted, the form too if m <= r
        forced = j - w == m or m == 1 or (m == 2 and w + 2 in p)
        if forced or (t == 1 and m <= r):
            level = dict.fromkeys([(i + w, (1 << n) + i - 1 + w + off) for i in range(m)])
            asserted.update(level)
            if forced:
                auto.update(level)
        if t > 1:  # R-KARPENKO's bounds on v2(i_t), read when w = j_{t-1} is the
            # upper block's smallest positive lower index
            vn, gap = v2(j - w), w - p[1]  # v2(i_t), and j_{t-1} - i_1
            interior[w] = ()
            if vn < v1:
                interior[w] = (("v2(i_%d) = %d < v2(i_1) = %d", (t, vn, v1)),)
            # second theorem; v2(0) counts as +infinity
            elif vn > v1 + 1 and (gap == 0 or v2(gap) >= v1 + 2):
                interior[w] = (("v2(i_%d) = %d exceeds v2(i_1) + 1 = %d", (t, vn, v1 + 1)),)
        # R-VISHIK, t < h: the k-th lower position (1 <= k <= its j) that the
        # block based at w must hold is w + m_1 + ... + m_{k-1} in the expansion
        # of dim - 2w - j, the left end of its k-th excellent window shifted to
        # the shell; dim - 2w - j < 1 has no expansion and requires none
        if t < h and (rest := profile.dim - 2 * w - j) >= 1:
            exp = alternating_2adic(rest)
            positions = zip(itertools.accumulate(exp.m, initial=w), range(1, exp.j + 1))
            vishik[w] = (t, tuple([(pos, k) for pos, k in positions if pos < r]))
    c.excellent = [[pair.a, pair.b + off] for pair in excellent_pairs(profile)]
    c.vpn = ((), list(map(list, auto))), (_vpn_assertion(profile), list(map(list, asserted)))
    v = (p[1] - 1).bit_length()
    c.karpenko = (1 << v) - 1, v
    j1, j2 = p[1], p[min(2, len(p) - 1)]  # at h = 1 the window [j_1, j_1) is empty
    indivisible = (("i_1 = %d does not divide i_2 = %d", (j1, j2 - j1)),) if (j2 - j1) % j1 else ()
    c.between = j1, j2, indivisible, list(range(j1, j2 - j1 + 1, j1))
    c.symbols, _, c.names, c.codes = _lambda(r, profile.d_x)
    return c


def _scope(profile: QuadricProfile, rules: RuleSet) -> tuple:
    """What ``rules`` decides for the profile: (the enabled RULES rows in
    table order, connection rule id in scope -> (the witnesses it reports on
    every partition, its pairs as [a, b] int codes)), selected afresh on
    every call from the compiled form, which holds every scope's pairs.

    The one statement of the scopes of R-DUAL, R-EXC and R-VPN: the
    enumerator merges every pair of these rules, the checker reports every
    split pair.  R-VPN's pairs follow its assumed scope, and only asserted
    R-VPN has witnesses (_vpn_assertion); R-EXC's scope decides only whether
    it applies, not its pairs.
    """
    c, enabled, table = _compile(profile), rules.enabled, {}
    if "R-DUAL" in enabled:
        table["R-DUAL"] = (), c.partner
    if "R-EXC" in enabled and (profile.s <= 1 or "R-EXC" in rules.assumed):
        table["R-EXC"] = (), c.excellent
    if "R-VPN" in enabled:
        table["R-VPN"] = c.vpn["R-VPN" in rules.assumed]
    return tuple([rule for rule in RULES.values() if rule.id in enabled]), table


# -- the rule rows ---------------------------------------------------------------
#
# Each check reads the compiled form and one view of the candidate: a
# connection row ``(block_of, connections)``, where block_of[k] is the
# position of symbol k's block and connections the rule set's table
# (_scope), every other row ``blocks``, the candidate's blocks as ascending
# int tuples in canonical order (the search passes one block as
# ``(block,)``).  A lower symbol sorts before every upper one, so a block's
# a is its first symbol when that is lower, and its b its last symbol when
# that is upper; 0_lo's block is the upper block, the one whose first
# symbol is 0, and so the first block of a candidate.  A check yields each
# witness as its text's template and arguments, a block's as its text: the
# search drops a union at its first witness, and check_partition fills them
# in.  Under R-DUAL and R-SHIFT the search runs no row that writes a block's
# text.


def _fmt(c, block) -> str:
    return ", ".join(map(c.names.__getitem__, block))


def _split_pairs(c, rule_id, template, view):
    """Witnesses of a connection rule: those it reports on every partition,
    then one per pair the candidate splits; none out of scope."""
    (block_of, connections), names = view, c.names
    witnesses, pairs = connections.get(rule_id, ((), ()))
    yield from witnesses
    for a, b in pairs:
        if block_of[a] != block_of[b]:
            yield template, (names[a], names[b])


def _check_dual(c, view):
    yield from _split_pairs(c, "R-DUAL", "%s and %s must be co-blocked", view)


def _check_exc(c, view):
    yield from _split_pairs(c, "R-EXC", "excellent pair %s, %s split", view)


def _check_vpn(c, view):
    yield from _split_pairs(c, "R-VPN", "%s and %s must be co-blocked", view)


def _check_parity(c, blocks):
    for block in blocks:
        if len(block) % 2:
            yield "odd block {%s}", (_fmt(c, block),)


def _check_endpoint(c, blocks):
    r, off, partner = c.r, c.up_offset, c.partner  # i^up is code i + off
    for block in blocks:
        a, top = block[0], block[-1]
        if a >= r or top < r:
            yield "one-sided block {%s} has no endpoint pair", (_fmt(c, block),)
        elif top != (expected := partner[a][1]):  # codes; the text reads indices
            yield "block {%s}: b = %d, expected %d", (_fmt(c, block), top - off, expected - off)


def _check_shift(c, blocks):
    r, p = c.r, c.pattern
    based = {block[0]: block for block in blocks}  # each block at its first symbol
    for t in range(1, len(p)):
        lo_bound, hi_bound = p[t - 1], p[t]
        base = based.get(lo_bound)
        if base is None:
            members = [a for a in range(lo_bound, hi_bound) if a in based]
            if members:
                yield (
                    "shell %d has blocks based at %s but none at j_%d = %d",
                    (t, members, t - 1, lo_bound),
                )
            continue
        step = hi_bound - lo_bound
        lowers = [k for k in base if k < r]
        size = len(base)
        for k in range(1, step):
            # the block based at j_{t-1} + k must be the base block shifted
            # by k; a lower symbol shifted to r or beyond leaves Lambda(X)
            other = based.get(lo_bound + k)
            if other is not None and len(other) == size and lowers[-1] + k < r:
                for x, y in zip(base, other):
                    if x + k != y:
                        break
                else:
                    continue
            yield (
                "shell %d: block at a = %d must be the base block shifted by %d",
                (t, lo_bound + k, k),
            )
        # part (2): lo members of the base block respect the shell widths
        for i in lowers:
            t2 = c.shell[i]
            if i + step > p[t2]:
                yield (
                    "base block of shell %d contains %s with %d + %d > j_%d = %d",
                    (t, c.names[i], i, step, t2, p[t2]),
                )


# the upper block's smallest positive lower index must be some j_t, 0 < t < h
_NOT_INTERIOR_JT = "smallest positive lower index %d is not some j_t, t < h"


# R-UPPER's clauses, each reading the upper block, blocks[0]; the search runs
# only those that the other enabled rules do not imply (see the comments
# beside the R-SHIFT block)
def _upper_b(c, blocks):
    # R-ENDPOINT's b at a = 0, d_X + 1 - j_1, is Izh - 1 = dim - j_1 - 1; compared
    # as codes, where a one-sided upper block ends below r, so below the partner
    if (top := blocks[0][-1]) != (expected := c.partner[0][1]):
        b = top - c.up_offset if top >= c.r else None
        yield "upper block has b = %s, expected Izh - 1 = %d", (b, expected - c.up_offset)


def _upper_size(c, blocks):
    block = blocks[0]  # ascending from 0_lo: a second lower symbol is block[1]
    if len(block) != 2 and (len(block) == 1 or block[1] >= c.r):
        yield "upper block of size > 2 needs >= 2 lower symbols", ()


def _upper_interior(c, blocks):
    block = blocks[0]
    if len(block) > 2 and block[1] < c.r and block[1] not in c.interior:
        yield _NOT_INTERIOR_JT, (block[1],)


def _upper_between(c, blocks):
    j1, j2, indivisible, expected = c.between
    inside = [k for k in blocks[0] if j1 <= k < j2]  # j_2 <= r: lower symbols
    if inside:
        yield from indivisible
        if inside != expected:
            yield "lower indices %s in [j_1, j_2) must be %s", (inside, expected)


_UPPER_CLAUSES = (_upper_b, _upper_size, _upper_interior, _upper_between)


def _check_upper(c, blocks):
    if not blocks[0][0]:  # a candidate's first block holds 0_lo: the upper block
        for clause in _UPPER_CLAUSES:
            yield from clause(c, blocks)


def _check_karpenko(c, blocks):
    block = blocks[0]  # a candidate's first block holds 0_lo
    if block[0] or len(block) <= 2:  # not the upper block, or a pair
        return
    r, (mask, v) = c.r, c.karpenko
    for i in block[1:]:  # the positive lower indices, in order
        if i >= r:
            break
        if i & mask:
            yield "lower index %d in the upper block not divisible by 2^%d", (i, v)
    if block[1] < r:  # the 2-adic bounds of the smallest, else that it is no j_t
        yield from c.interior.get(block[1], ((_NOT_INTERIOR_JT, (block[1],)),))


def _check_vishik(c, blocks):
    vishik = c.vishik
    for block in blocks:
        shell = vishik.get(block[0])
        if shell is None:  # not based at a j_{t-1} that R-VISHIK constrains
            continue
        t, positions = shell
        for pos, k in positions:
            if pos not in block:
                yield (
                    "block at a = j_%d must contain %s (k = %d)",
                    (t - 1, c.names[pos], k),
                )


# -- the rule table and the checker ----------------------------------------------


RULES = {
    rule.id: rule
    for rule in (
        Rule("R-PARITY", "proven", "blocks have even cardinality", _check_parity, "block"),
        Rule(
            "R-DUAL", "proven", "splitting-pattern connections co-blocked", _check_dual,
            "connection",
        ),
        Rule(
            "R-ENDPOINT", "proven", "b(L) determined by a(L) and the shell", _check_endpoint,
            "block",
        ),
        Rule(
            "R-SHIFT", "proven", "shell blocks form a full shift orbit", _check_shift,
            "partition",
        ),
        Rule(
            "R-UPPER", "proven", "structure of the block containing 0_lo", _check_upper,
            "block",
        ),
        Rule(
            "R-KARPENKO", "proven", "2-adic bounds inside the upper block", _check_karpenko,
            "block",
        ),
        Rule(
            "R-EXC",
            "conjectural",
            "excellent pairs co-blocked (proven, and auto-applied, for s <= 1)",
            _check_exc,
            "connection",
        ),
        Rule(
            "R-VPN",
            "proven",
            "virtual-Pfister-neighbour connections (auto-applied when forced)",
            _check_vpn,
            "connection",
        ),
        Rule(
            "R-VISHIK",
            "interpretation-sensitive",
            "expansion-determined lower positions in shell-based blocks",
            _check_vishik,
            "block",
        ),
    )
}

RULE_IDS = tuple(RULES)

PROVEN_RULE_IDS = frozenset(RULE_IDS) - {"R-VISHIK"}


def _check_rule_set(rules) -> RuleSet:
    """The rules to apply, the proven ones for None; rules that are not a
    RuleSet are rejected before they reach a cache."""
    if rules is None:
        return RuleSet.proven()
    if type(rules) is not RuleSet:
        raise TypeError("rules must be a RuleSet, not %s" % type(rules).__name__)
    return rules


def check_partition(profile: QuadricProfile, partition: MdtPartition, rules=None):
    """Evaluate every enabled necessary condition; return the violations.

    The violations come in RULE_IDS order; a per-block rule's come block by
    block in canonical order, each in its check's order.
    """
    rules = _check_rule_set(rules)
    if type(partition) is not MdtPartition:
        raise TypeError("partition must be an MdtPartition, not %s" % type(partition).__name__)
    if partition.r != profile.r or partition.d_x != profile.d_x:
        raise ArityMismatch(
            "partition is over (r=%d, d_X=%d), profile needs (r=%d, d_X=%d)"
            % (partition.r, partition.d_x, profile.r, profile.d_x)
        )
    c, (rows, connections) = _compile(profile), _scope(profile, rules)
    codes = c.codes
    blocks = tuple([tuple(map(codes.__getitem__, block)) for block in partition.blocks])
    block_of = [0] * (2 * profile.r)
    for position, block in enumerate(blocks):
        for k in block:
            block_of[k] = position
    views = {"block": blocks, "partition": blocks, "connection": (block_of, connections)}
    violations = []
    append, new = violations.append, object.__new__
    for rule in rows:
        for template, args in rule.check(c, views[rule.scope]):
            violation = new(Violation)
            _SET_RULE(violation, rule.id)
            _SET_WITNESS(violation, template % args)
            append(violation)
    return tuple(violations)


# -- enumerator ----------------------------------------------------------------


def _passes(c, checks, block) -> bool:
    """No per-block check yields a witness on the block; stops at the first."""
    blocks = (block,)
    for check in checks:
        for _ in check(c, blocks):
            return False
    return True


# R-SHIFT as the search reads it.  _check_shift reads a whole candidate; the
# search places blocks lowest atom first and reads the same rule per shell t,
# with j = j_{t-1} and width i_t = j_t - j.  A shell with no block based in
# it is unconstrained; one with such blocks needs a base block B, the block
# based at j, and then R-SHIFT holds for the shell exactly when
#   - part (2) holds for B's lower symbols: i + i_t <= j_{t'} for i in shell
#     t'; as j_{t'} <= r, no lower symbol is shifted out of the window, and
#   - for 0 < k < i_t the block based at j + k is B shifted by k: a union of
#     atoms that passes the per-block rows and is disjoint from B and from the
#     other shifts.  So j + k lies outside B and is the lowest symbol of its
#     atom, and every atom of the shifts is still unplaced when B is placed.
# The only symbols between j and j_t are the j + k, so the shifts are the
# next i_t - 1 blocks opened, and B's option places the whole orbit at once.
# A block based at j + k (0 < k < i_t) is then never opened on its own: were
# its atom still unplaced, the block of j would not be based at j, and the
# shell would have blocks but no base.  Shells of width 1 constrain nothing.
# So the search's state is the set of unplaced atoms alone, and only an
# atom whose lowest symbol is some j_{t-1} or upper opens a block.
#
# The search judges B alone, never its shifts: each shift passes the
# per-block rows when B does.  R-UPPER and R-KARPENKO read only the block of
# 0_lo, which no shift holds, so the rows in question are R-PARITY,
# R-ENDPOINT and R-VISHIK.  B shifted by 0 < k < i_t
#   - has B's size, so R-PARITY holds of it as of B;
#   - starts at j + k, still a lower symbol of shell t, and ends at B's last
#     symbol plus k, upper as that one is.  R-ENDPOINT asks of B that its
#     last symbol be partner[j]'s upper one, and partners are consecutive
#     within a shell (partner[j + k][1] = partner[j][1] + k), so the shift
#     ends at partner[j + k]'s upper symbol, as R-ENDPOINT asks of it;
#   - is based at j + k, strictly inside shell t and so at no j_{t'-1},
#     where R-VISHIK constrains nothing.
# A new per-block row must be invariant under these shifts in the same way,
# or the search must judge each shift by it again.
#
# The rows the search need not run.  R-DUAL pairs each lower symbol a of
# shell t with its partner, (d_X + 1 - j_{t-1} - j_t + a)^up, the upper
# symbol of partner[a]: shell t's partners fill (d_X - j_t, d_X - j_{t-1}],
# so over all shells they run through the r upper symbols once each.
#   - R-PARITY follows from R-DUAL.  The pairs are a perfect matching of
#     Lambda(X), so every atom, and every union of atoms, has even size.
#   - R-ENDPOINT follows from R-DUAL and R-SHIFT.  Every atom holds a pair,
#     so a block's first symbol a is lower and its last one upper: the
#     "one-sided" witness cannot occur.  The block's upper symbols are the
#     partners of its lower ones, which are all >= a.  Partners grow with
#     the index inside a shell and fall from one shell to the next, so the
#     last symbol is a's partner exactly when no other lower symbol of the
#     block lies in a's shell t.  No atom is upper alone, so the search opens
#     blocks at j = j_{t-1} only, and part (2) gives i + i_t <= j_t for each
#     lower i >= j of the base block in shell t: i = j.  Its shift by
#     0 < k < i_t moves a lower i of shell t' > t to i + k < j_{t'}, still in
#     shell t', so j + k is the shift's one lower symbol in shell t; and as a
#     union of atoms, the shift's upper symbols are the partners of its lower
#     ones.  A shell of width 1 holds one lower symbol.
# Without R-DUAL a block may be odd, and without R-SHIFT a block may hold
# two lower symbols of one shell, so then the row runs.
#
# R-UPPER's clauses read the upper block U, the block of 0_lo, which only
# atom 0 opens; three of the four are implied.
#   - The b clause is R-ENDPOINT's test on U.  0 lies in shell 1, so
#     partner[0] holds (d_X + 1 - j_1)^up, and d_X + 1 - j_1 = dim - j_1 - 1
#     = Izh - 1 is the b both require; U is one-sided exactly when it has
#     no upper symbol, where the clause reads b = None.  So the clause fires
#     on U exactly when R-ENDPOINT does, and it need not run where
#     R-ENDPOINT need not: under R-DUAL and R-SHIFT.
#   - "size > 2 needs 2 lower symbols" follows from R-DUAL.  U is a union of
#     atoms, and each pair matches a lower symbol with an upper one, so
#     |U| is twice the number of U's lower symbols; |U| != 2 gives |U| >= 4
#     and at least 2 lower symbols.
#   - The interior clause follows from R-KARPENKO.  It fires when |U| != 2
#     and U's second lower symbol U[1], its smallest positive lower index,
#     is no j_t with 0 < t < h.  Then U holds two lower symbols and |U| > 2,
#     so R-KARPENKO reads U, and unless its divisibility test already
#     yields, it makes the same _NOT_INTERIOR_JT test on the same U[1].  So
#     any union the clause rejects, R-KARPENKO rejects; the checker reports
#     that witness twice, once per rule.  R-DUAL is not needed here.
#   - The [j_1, j_2) clause (i_1 divides i_2, and U's lower indices in
#     [j_1, j_2) are i_1, 2 i_1, ...) has no such argument and always runs.
# The checker runs every row and every clause.


def _code_table(profile: QuadricProfile, rules: RuleSet) -> list:
    """The block search's options under the rules, built afresh on each call:
    per atom, in block order, (blocks, mask) for each option it opens.

    The profile is compiled once (_compile), and the rules select from it
    (_scope).  The pairs of the connection rules (R-DUAL, scoped
    R-EXC/R-VPN) are merged up front by union-find into atoms, so no
    candidate splits one; a connection rule that reports witnesses on every
    partition (an asserted R-VPN that fails its numerology) excludes every
    partition, so then no atom has an option.
    Only the unions of atoms that can open a block are formed (see the
    comments above), and each is judged once, up to its first witness, by
    the per-block rows and R-UPPER clauses that are not implied; an opener
    with none of them to run judges none, and a base block's shifts are
    judged by it (the comments above).  An option, a base block with
    its shifts, is listed under its opening atom, with its blocks as code
    tuples, in the order of its base block.  Raises BoundExceeded, before
    it forms any union, when the atoms are more than 10.
    """
    c, (rows, connections) = _compile(profile), _scope(profile, rules)
    n = 2 * profile.r
    r, p, shell = c.r, c.pattern, c.shell
    parent = list(range(n))  # union-find: a code's root is the least code of its atom
    for _, pairs in connections.values():
        for a, b in pairs:
            while a != parent[a]:
                a = parent[a]
            while b != parent[b]:
                b = parent[b]
            parent[max(a, b)] = min(a, b)
    atoms = {}  # root -> its atom's codes, in order; so atom 0 holds 0_lo
    room = [n] * n  # R-SHIFT part (2) per root: the widest shift its atom allows
    for k in range(n):
        parent[k] = root = parent[parent[k]]  # parent[k] <= k, whose root is set
        atoms.setdefault(root, []).append(k)
        if k < r and p[shell[k]] - k < room[root]:
            room[root] = p[shell[k]] - k
    atom_list = list(map(tuple, atoms.values()))
    # 2^10 unions of atoms and up to Bell(10) complete candidates are the
    # practical ceiling; rule sets without R-DUAL leave 2r single-symbol
    # atoms and hit this early.
    if len(atom_list) > 10:
        raise BoundExceeded("%d unconstrained atoms exceed the search bound" % len(atom_list))
    # witnesses reported on every partition: no atom opens a block
    if any(witnesses for witnesses, _ in connections.values()):
        return [()] * len(atom_list)
    opened_by = [[] for _ in atom_list]
    shift, dual = "R-SHIFT" in rules.enabled, "R-DUAL" in rules.enabled
    implied = {  # the rows and R-UPPER's clauses not run: see the comments above
        _check_parity: dual, _check_endpoint: dual and shift, _upper_b: dual and shift,
        _upper_size: dual, _upper_interior: "R-KARPENKO" in rules.enabled,
    }
    upper_checks = [  # the per-block rows' checks, R-UPPER's clause by clause
        check for rule in rows if rule.scope == "block"
        for check in (_UPPER_CLAUSES if rule.check is _check_upper else (rule.check,))
        if not implied.get(check)
    ]
    # R-UPPER and R-KARPENKO read the upper block alone, the one of 0_lo
    checks = [check for check in upper_checks if check not in _UPPER_CLAUSES + (_check_karpenko,)]
    atom_of = None  # only the shifts of a base block read it, and a shell of width 1 has none
    if shift and len(p) <= r:
        atom_of = {k: index for index, atom in enumerate(atom_list) for k in atom}
    for low, opener in enumerate(atom_list):
        width, a = 1, opener[0]
        if shift and a < r:
            j = p[shell[a] - 1]
            if a != j:  # placed with the base block at j
                continue
            width = p[shell[a]] - j
        unions = [(1 << low, opener)] if width <= room[a] else []
        for index in range(low + 1, len(atom_list)):
            atom = atom_list[index]
            if width <= room[atom[0]]:
                unions += [(mask | 1 << index, members + atom) for mask, members in unions]
        run = checks if a else upper_checks
        options = opened_by[low]
        for mask, members in unions:
            block = tuple(sorted(members))
            if run and not _passes(c, run, block):
                continue
            orbit = (block,)
            for k in range(1, width):
                shifted = tuple([x + k for x in block])
                if shifted[-1] >= n:
                    break
                ids = set(map(atom_of.__getitem__, shifted))
                held = sum([1 << i for i in ids])
                # exactly a union of atoms, disjoint from the orbit so far
                if sum([len(atom_list[i]) for i in ids]) != len(shifted) or held & mask:
                    break
                orbit += (shifted,)
                mask |= held
            else:
                options.append((orbit, mask))
        options.sort()  # by base block, which no two options share
    return opened_by


def _search_rules(profile: QuadricProfile, rules, max_r: int) -> RuleSet:
    """The normalised RuleSet a search of the profile runs under, with None
    read as RuleSet.proven(), checked on every call before any table is read
    or built: TypeError when the rules are not a RuleSet or max_r is not an
    int, and BoundExceeded when r > max_r."""
    rules = _check_rule_set(rules)
    if profile.r > _check_int("max_r", max_r):
        raise BoundExceeded("r = %d exceeds the enumeration bound %d" % (profile.r, max_r))
    return rules


def _walk(opened_by, leaf, join):
    """The block search as one fold over its states, memoised: the value of
    the first state, every atom free.  The one traversal of a search table:
    the count's sum and the build of the listing's state graph
    (_state_graph) differ only in the table's heads and in ``join``.

    A state is the mask of the atoms not yet placed.  The options open at a
    state depend on it alone (a base block is placed with its whole orbit),
    so each state's value is computed once, after the value of every state
    it leaves: ``join`` of the list of (head, value of the state the option
    leaves) over the options of its lowest free atom that fit, in block
    order, where an option is a (head, mask) pair of the table.  The empty
    state's value is ``leaf``.
    """
    memo = {0: leaf}

    def value(free):
        pairs, outside = [], ~free  # an option fits when no bit of its mask is outside
        for head, mask in opened_by[(free & -free).bit_length() - 1]:
            if not mask & outside:
                rest = free ^ mask  # the state this option leaves, valued once
                pairs.append((head, memo[rest] if rest in memo else value(rest)))
        return memo.setdefault(free, join(pairs))

    top = value((1 << len(opened_by)) - 1)
    del value  # it refers to itself through its cell: break the cycle
    return top


@_per_profile
def _state_graph(profile: QuadricProfile, rules: RuleSet) -> tuple:
    """The listing's search, walked once: (orbits, graph), the one search
    table kept in the profile's memo per rule set, all tuples.

    ``graph`` holds the live states of the search in bottom-up order, each
    as its edges, one per option that fits it and leaves a live state, in
    block order.  State 0 is the empty state, every atom placed, which has
    one completion and no node; graph[k - 1] is state k, and each edge
    points to an earlier state.  A state is live when it has an edge, so
    the walk (_walk) drops every dead state, one with no completion, with
    the edges to it; the first state, every atom free, is the last node,
    and the graph is empty exactly when it is dead.  An edge is one int,
    rest << shift | o, where rest is the state the option leaves, o the
    option's index in _code_table's order and shift is
    len(orbits).bit_length(): a pair per edge would be one more object
    per edge kept as long as the profile.  ``orbits[o]`` is option o's
    blocks named as LambdaSymbols when an edge reads it, else None: only
    those are named.  A build that raises keeps nothing."""
    options, table, graph = [], [], []  # every option, and per atom its (index, mask) pairs
    for opened in _code_table(profile, rules):
        table.append([(index, mask) for index, (_, mask) in enumerate(opened, len(options))])
        options += opened
    shift = len(options).bit_length()

    def join(pairs):  # a state's node and index, None for a dead state
        if edges := tuple([rest << shift | o for o, rest in pairs if rest is not None]):
            graph.append(edges)
            return len(graph)
        return None

    _walk(table, 0, join)
    symbols, orbits, low = _compile(profile).symbols, [None] * len(options), (1 << shift) - 1
    for o in {edge & low for edges in graph for edge in edges}:
        orbits[o] = tuple([tuple([symbols[k] for k in block]) for block in options[o][0]])
    return tuple(orbits), tuple(graph)


def enumerate_mdt(profile: QuadricProfile, rules=None, max_r: int = 8) -> tuple:
    """All partitions of Lambda(X) passing every enabled rule, canonically
    ordered.

    The search places whole blocks from the search table's options: the
    lowest unplaced atom opens a block, a passing union of it and other
    unplaced atoms, and R-SHIFT is decided as blocks are placed (a base
    block comes with its shifts, and no other block based in a shell of
    width above 1 is opened).  So every complete candidate passes every
    rule.  The search's state graph is the profile's memo entry for the
    rules (_state_graph), built by one walk (_walk) on the first listing of
    the profile object under them and read by every later one; max_r and
    the rules are checked on every call (_search_rules).  Each call folds
    the graph bottom-up in one flat loop, with no fit test and no
    recursion: a state's completions are, edge by edge, the edge's orbit
    followed by each completion of the state it leaves, and the survivors
    are the first state's, the graph's last node; the graph is empty when
    nothing survives.  The options are tried in block order, so the
    survivors come out in canonical order, the order of their sorted
    blocks, with no sort: they are built canonical by construction, with
    no re-validation.
    """
    orbits, graph = _state_graph(profile, _search_rules(profile, rules, max_r))
    if not graph:  # the first state is dead
        return ()
    shift = len(orbits).bit_length()  # an edge is rest << shift | orbit index
    low, completions = (1 << shift) - 1, [((),)]
    append = completions.append
    for edges in graph:
        append([
            head + tail
            for edge in edges for head in [orbits[edge & low]]
            for tail in completions[edge >> shift]
        ])
    survivors = completions.pop()
    completions.clear()  # the other states' completions, freed before the partitions are made
    canonical, r, d_x = MdtPartition._canonical, profile.r, profile.d_x
    return tuple([canonical(blocks, r, d_x) for blocks in survivors])


def _count_mdt(profile: QuadricProfile, rules=None, max_r: int = 8) -> int:
    """len(enumerate_mdt(profile, rules, max_r)), building no partition:
    the memoised walk (_walk) that builds the listing's state graph, over a
    code table (_code_table), which names no symbol, each state's value the
    number of its completions.  The table is built on every call and kept
    nowhere, not even when the profile object was listed under the same
    rules."""
    table = _code_table(profile, _search_rules(profile, rules, max_r))
    return _walk(table, 1, lambda pairs: sum([count for _, count in pairs]))


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
    ``inner`` (omit it when r = m).  A neighbour has first Witt index
    i_1 = m, so a profile whose pattern has j_1 != m is NotNeighbourEligible.
    """
    inv = pfister_neighbour_invariants(profile.dim, profile.s)
    n, m = inv.n, inv.m
    if profile.pattern[1] != m:
        raise NotNeighbourEligible(
            "i_1 = %d, but a neighbour of dim 2^%d + %d has i_1 = %d"
            % (profile.pattern[1], n, m, m)
        )
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
        blocks += [[sym.shift(m) for sym in block] for block in inner.blocks]
    return MdtPartition.of(profile, blocks)


def mdt_strongly_excellent(n_list, s: int):
    """Closed-form MDT of a strongly excellent form.

    Returns (profile, partition); the blocks are
    {0_lo, (2^{n_{i+1}-1} - 1)^up}[m_1 + ... + m_i + j].
    """
    n_list = tuple(n_list)  # read once: n_list may be an iterator
    prof, _ = strongly_excellent_profile(n_list, s)
    blocks = []
    # the pattern's steps are the m_i, so its entries are the running offsets
    for n_i, offset, m_i in zip(n_list, prof.pattern, prof.steps):
        top = (1 << (n_i - 1)) - 1
        for j in range(m_i):
            blocks.append((lo(offset + j), up(top + offset + j)))
    return prof, MdtPartition.of(prof, blocks)


def mdt_isotropic_lift(w: int, inner: MdtPartition, inner_profile: QuadricProfile) -> MdtPartition:
    """MDT of an isotropic form with Witt index w over the given anisotropic part.

    Adds w lower and w upper singletons and shifts the inner blocks by w.
    The result lives over the lifted symbol set (r + w, d_X + 2w); it is
    not a QuadricProfile partition since profiles model anisotropic forms.
    """
    if _check_int("w", w) < 1:
        raise ValueError("Witt index w must be >= 1")
    if inner.r != inner_profile.r or inner.d_x != inner_profile.d_x:
        raise ArityMismatch("inner partition does not match the inner profile")
    r = inner_profile.r + w
    d_x = inner_profile.d_x + 2 * w
    blocks = [(lo(i),) for i in range(w)]
    blocks += [(up(d_x - i),) for i in range(w)]
    blocks += [[sym.shift(w) for sym in block] for block in inner.blocks]
    return MdtPartition(blocks=tuple(blocks), r=r, d_x=d_x)


# -- shell diagrams ------------------------------------------------------------


class ShellPattern(_Record):
    """Bare (r, pattern) data for diagram rendering.

    Diagram shape is pure pattern combinatorics; it is deliberately not
    subject to the i_1-bound validation of QuadricProfile, because the
    classical illustration pattern {2, 8, 12} (steps 2, 6, 4) is not
    attainable by any actual splitting tower yet is the canonical picture.
    """

    __slots__ = ("r", "pattern")

    def __init__(self, r: int, pattern: tuple):
        pattern = tuple(pattern)
        check_pattern(r, pattern)
        _Record.__init__(self, r, pattern)


class ShellDiagram(_Record):
    __slots__ = ("r", "pattern")

    __init__ = ShellPattern.__init__  # the same checks: the renderers read both fields

    @property
    def max_row(self) -> int:
        return max(self.base_widths()) - 1

    def base_widths(self) -> tuple:
        return tuple(b - a for a, b in zip(self.pattern, self.pattern[1:]))


_MAX_DIAGRAM_R = 1000  # the SVG of one shell of width 1000 is about 50 MB


def shell_diagram(shape) -> ShellDiagram:
    """The shell pyramid of the essential pairs h^i x l_{i+j}.

    ``shape`` is a QuadricProfile or a ShellPattern.  A node (i, j)
    exists iff j_{t-1} <= i < j_t - j for some shell t, so the diagram is
    just (r, pattern) and the renderers read the nodes off the pattern.
    Raises BoundExceeded when r > _MAX_DIAGRAM_R.
    """
    if shape.r > _MAX_DIAGRAM_R:
        raise BoundExceeded("diagram r = %d exceeds %d" % (shape.r, _MAX_DIAGRAM_R))
    return ShellDiagram(r=shape.r, pattern=tuple(shape.pattern))


_GAP = 3


def _row_columns(diagram: ShellDiagram, j: int) -> list:
    """Ascending columns of row j's nodes: i on the left, 2r + _GAP - 1 - i
    on the right."""
    p = diagram.pattern
    left = [i for a, b in zip(p, p[1:]) for i in range(a, b - j)]
    mirror = 2 * diagram.r + _GAP - 1
    return left + [mirror - i for i in reversed(left)]


def _label_centers(diagram: ShellDiagram, t: int, scale: int) -> tuple:
    """Shell t's label centres at ``scale``: the midpoint of its base on the
    left and of the mirrored base on the right, rounded down."""
    p = diagram.pattern
    left = p[t - 1] + p[t] - 1  # twice the left midpoint
    right = 2 * (2 * diagram.r + _GAP - 1) - left
    return left * scale // 2, right * scale // 2


def render_ascii(diagram: ShellDiagram) -> str:
    """Deterministic ASCII rendering, top row first, shells labeled 0..h-1
    beneath the bases; O(r^2)."""
    width = 2 * diagram.r + _GAP
    rows = []
    for j in range(diagram.max_row, -1, -1):
        line = [" "] * width
        for col in _row_columns(diagram, j):
            line[col] = "*"
        rows.append("".join(line).rstrip())
    label = [" "] * width
    for t in range(1, len(diagram.pattern)):
        text = str(t - 1)
        for center in _label_centers(diagram, t, 1):
            label[center : center + len(text)] = text  # never past the last column
    rows.append("".join(label).rstrip())
    return "\n".join(rows) + "\n"


def render_svg(diagram: ShellDiagram) -> str:
    """Deterministic SVG rendering: row 0 first, each row in column order,
    then the shell labels; O(r^2)."""
    scale = 20
    max_row = diagram.max_row
    width = (2 * diagram.r + _GAP + 1) * scale
    height = (max_row + 3) * scale
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    for j in range(max_row + 1):
        cy = (max_row - j + 1) * scale
        for col in _row_columns(diagram, j):
            cx = (col + 1) * scale
            parts.append('<circle cx="%d" cy="%d" r="6" fill="black"/>' % (cx, cy))
    label_y = (max_row + 2) * scale
    for t in range(1, len(diagram.pattern)):
        for cx in _label_centers(diagram, t, scale):
            parts.append(
                '<text x="%d" y="%d" font-size="12" text-anchor="middle">%d</text>'
                % (cx + scale, label_y, t - 1)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
