"""Tests for lambda symbols, the rule checker, the enumerator and generators."""

import gc
import hashlib
import json
import pathlib
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from quadmdt import mdt
from quadmdt.chow import Cycle, h, l
from quadmdt.corr import compose
from quadmdt.errors import (
    ArityMismatch,
    BoundExceeded,
    ConstraintViolated,
    NotHeightOne,
    NotNeighbourEligible,
    OutOfWindow,
)
from quadmdt.mdt import (
    _GAP,
    PROVEN_RULE_IDS,
    RULE_IDS,
    LambdaSymbol,
    MdtPartition,
    RuleSet,
    ShellPattern,
    Violation,
    alpha_cycle,
    check_partition,
    enumerate_mdt,
    forced_connections,
    lambda_set,
    lo,
    mdt_height_one,
    mdt_isotropic_lift,
    mdt_pfister_neighbour,
    mdt_strongly_excellent,
    render_ascii,
    render_svg,
    shell_diagram,
    up,
    vpn_connections,
)
from quadmdt.profile import (
    QuadricProfile,
    alternating_2adic,
    excellent_pairs,
    mk_profile,
    pattern_enumerate,
    pfister_split,
    v2,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def prof(dim, r, s, pattern=None):
    if pattern is None:
        pattern = [0] + list(range(1, r + 1))
    return mk_profile(dim, r, s, pattern)


P22 = prof(6, 2, 2, [0, 2])


# -- lambda symbols and idempotents ------------------------------------------------


def test_lambda_set_examples():
    assert lambda_set(P22) == (lo(0), lo(1), up(3), up(4))
    p1 = prof(5, 1, 3)
    assert lambda_set(p1) == (lo(0), up(3))
    for r, s in [(3, 0), (4, 2)]:
        p = prof(2 * r + s, r, s)
        assert len(lambda_set(p)) == 2 * r


def test_lambda_symbol_validates():
    for kind in ("mid", "LO", "h"):
        with pytest.raises(ValueError):
            LambdaSymbol(kind, 0)
    assert repr(lo(0)) == "LambdaSymbol(kind='lo', index=0)"
    assert (str(lo(3)), str(up(3))) == ("3_lo", "3^up")
    assert up(3).shift(2) == up(5)


def test_lambda_symbols_order_as_kind_index():
    # hash, equality and order are the (kind, index) tuple's, so every lower
    # symbol sorts before every upper one
    symbols = {
        sym
        for r in range(1, 5)
        for s in range(5)
        for pattern in pattern_enumerate(r, s)
        for sym in lambda_set(mk_profile(2 * r + s, r, s, pattern))
    }
    ordered = sorted(symbols, key=lambda sym: (sym.kind, sym.index))
    assert sorted(symbols) == ordered
    assert ordered[:4] == [lo(0), lo(1), lo(2), lo(3)]
    for a in ordered:
        key_a = (a.kind, a.index)
        assert a == key_a and hash(a) == hash(key_a)
        for b in ordered:
            key_b = (b.kind, b.index)
            assert (a == b, a < b, a <= b) == (key_a == key_b, key_a < key_b, key_a <= key_b)


def test_alpha_cycle_definitions():
    p = prof(8, 3, 2)
    assert alpha_cycle(lo(0), p).cycle == Cycle.of_basis((p, p), (h(0), l(0)))
    assert alpha_cycle(up(p.d_x), p).cycle == Cycle.of_basis((p, p), (l(0), h(0)))
    with pytest.raises(OutOfWindow):
        alpha_cycle(lo(3), p)
    with pytest.raises(OutOfWindow):
        alpha_cycle(up(2), p)


@pytest.mark.parametrize(
    "r,s,pattern",
    [(2, 2, [0, 2]), (3, 2, None), (4, 0, [0, 4]), (4, 1, None), (3, 0, [0, 1, 3])],
)
def test_alpha_cycles_idempotent_and_orthogonal(r, s, pattern):
    p = prof(2 * r + s, r, s, pattern)
    exceptional = p.s == 0 and p.dim % 4 == 2
    symbols = lambda_set(p)
    for a in symbols:
        ca = alpha_cycle(a, p)
        assert compose(ca, ca).cycle == ca.cycle
        for b in symbols:
            if a == b:
                continue
            cb = alpha_cycle(b, p)
            product = compose(ca, cb)
            # The one exception to orthogonality: composing the lower
            # middle-dimensional idempotent into the upper one hits the
            # exceptional product l_{r-1} l_{r-1} = l_0.
            is_exceptional_pair = exceptional and (a, b) == (
                lo(p.r - 1),
                up(p.d_x - (p.r - 1)),
            )
            if is_exceptional_pair:
                assert product.cycle == Cycle.of_basis(
                    (p, p), (h(p.r - 1), h(p.r - 1))
                )
            else:
                assert not product, (str(a), str(b))


def test_exceptional_pair_exists_for_hyperbolic_like_dims():
    # dim = 6, s = 0: the pair (2_lo, 2^up) composes to h^2 x h^2
    p = prof(6, 3, 0, [0, 1, 3])
    out = compose(alpha_cycle(lo(2), p), alpha_cycle(up(2), p))
    assert out.cycle == Cycle.of_basis((p, p), (h(2), h(2)))


# -- forced connections -------------------------------------------------------------


def test_forced_connections_examples():
    assert forced_connections(prof(5, 2, 1)) == ((lo(0), up(3)), (lo(1), up(2)))
    assert forced_connections(prof(7, 2, 3)) == ((lo(0), up(5)), (lo(1), up(4)))
    assert forced_connections(P22) == ((lo(0), up(3)), (lo(1), up(4)))


def test_forced_connections_cover_lambda():
    for r, s in [(3, 0), (4, 2), (5, 1)]:
        for pattern in pattern_enumerate(r, s):
            p = prof(2 * r + s, r, s, pattern)
            pairs = forced_connections(p)
            los = {a for a, _ in pairs}
            ups = {b for _, b in pairs}
            assert los == set(lambda_set(p)[: p.r])
            assert ups == set(lambda_set(p)[p.r :])
            # 0_lo's partner is the b that R-UPPER requires, Izh - 1
            assert pairs[0] == (lo(0), up(p.izhboldin_dim - 1))


def test_vpn_connections_gating():
    # dim 6 type (2,2): m = 2 in every pattern since r = 2
    assert vpn_connections(prof(6, 2, 2, [0, 1, 2])) == ((lo(0), up(3)), (lo(1), up(4)))
    # dim 8 type (3,2): the form itself is not forced, but kernel 1 is (2,2)
    assert vpn_connections(prof(8, 3, 2, [0, 1, 2, 3])) == (
        (lo(1), up(4)),
        (lo(2), up(5)),
    )
    # dim 10 type (3,4) pattern [0,1,3]: nothing is forced
    assert vpn_connections(prof(10, 3, 4, [0, 1, 3])) == ()
    # ... unless the caller asserts VPN-ness
    assert vpn_connections(prof(10, 3, 4, [0, 1, 3]), assumed=True) == (
        (lo(0), up(7)),
        (lo(1), up(8)),
    )
    # r + s > 2^n: no neighbour, so no pairs (they would leave Lambda(X))
    assert vpn_connections(prof(4, 1, 2, [0, 1]), assumed=True) == ()


# -- the checker ---------------------------------------------------------------------


def blocks(profile, *groups):
    return MdtPartition.of(profile, [tuple(g) for g in groups])


def test_check_height_one_clean():
    part = blocks(P22, [lo(0), up(3)], [lo(1), up(4)])
    assert check_partition(P22, part) == ()


def test_check_dual_violation():
    part = blocks(P22, [lo(0), lo(1)], [up(3), up(4)])
    rules = {v.rule for v in check_partition(P22, part)}
    assert "R-DUAL" in rules


def test_check_parity_violation_on_singleton():
    part = blocks(P22, [lo(0)], [lo(1), up(3), up(4)])
    rules = [v.rule for v in check_partition(P22, part)]
    assert "R-PARITY" in rules
    # a partition that breaks several rules is reported in RULE_IDS order
    assert len(set(rules)) > 2
    assert rules == sorted(rules, key=RULE_IDS.index)


def test_check_endpoint_violation():
    # merge everything: b of the 0-block becomes 4, expected 3
    part = blocks(P22, [lo(0), lo(1), up(3), up(4)])
    rules = {v.rule for v in check_partition(P22, part)}
    assert "R-ENDPOINT" in rules


def test_check_shift_orbit_violation():
    p = prof(8, 3, 2, [0, 1, 3])  # duals: 0-6, 1-4, 2-5
    # pair shell-2 blocks inconsistently: {1,5}, {2,4} instead of {1,4},{2,5}
    part = blocks(p, [lo(0), up(6)], [lo(1), up(5)], [lo(2), up(4)])
    rules = {v.rule for v in check_partition(p, part)}
    assert "R-SHIFT" in rules or "R-DUAL" in rules


def test_check_arity_mismatch():
    part = blocks(P22, [lo(0), up(3)], [lo(1), up(4)])
    other = prof(8, 3, 2)
    with pytest.raises(ArityMismatch):
        check_partition(other, part)


def test_partition_validation(monkeypatch):
    with pytest.raises(ArityMismatch):
        blocks(P22, [lo(0), up(3)])  # missing symbols
    with pytest.raises(ArityMismatch):
        blocks(P22, [lo(0), lo(0), up(3)], [lo(1), up(4)])  # duplicate
    with pytest.raises(ArityMismatch):
        blocks(P22, [lo(0), lo(2), up(3)], [lo(1), up(4)])  # out of window
    with pytest.raises(ArityMismatch):
        blocks(P22, [lo(0), up(3)], [lo(1), up(4)], [])  # empty block
    # a few symbols over r = 2^20 are rejected by the windows' bounds, with
    # no table of Lambda(X)'s 2r symbols
    def refuse(*args):
        raise AssertionError("Lambda(X) table built")

    monkeypatch.setattr(mdt, "_lambda", refuse)
    r = 1 << 20
    d_x = 2 * r - 2
    for groups, message in [
        (((lo(0), up(d_x)),), "blocks do not cover Lambda(X) exactly"),
        (((lo(0), lo(0)),), "symbol 0_lo appears twice"),
        (((lo(0), lo(r)),), "%d_lo outside the lo window" % r),
        (((lo(0), up(d_x - r)),), "%d^up outside the up window" % (d_x - r)),
    ]:
        with pytest.raises(ArityMismatch) as exc:
            MdtPartition(groups, r, d_x)
        assert str(exc.value) == message


def test_partition_rejects_non_symbol_entries():
    # a plain (kind, index) tuple equals its symbol, yet is not one
    for entry in (("lo", 1), 1, None, "1_lo"):
        for build in (
            lambda: blocks(P22, [lo(0), up(3)], [entry, up(4)]),
            lambda: MdtPartition(((lo(0), up(3)), (up(4), entry)), 2, 4),
        ):
            with pytest.raises(ArityMismatch, match="is not a LambdaSymbol"):
                build()
    assert blocks(P22, [lo(0), up(3)], [lo(1), up(4)]) == MdtPartition(
        ((up(4), lo(1)), (lo(0), up(3))), 2, 4
    )


def _reference_blocks(blocks, r, d_x):
    """MdtPartition's validation through sorted symbols and a set of them:
    the canonical blocks, or the ArityMismatch it raises."""
    blocks = tuple(tuple(sorted(block)) for block in blocks)
    if not all(blocks):
        raise ArityMismatch("empty block")
    blocks = tuple(sorted(blocks, key=lambda b: b[0]))
    seen = set()
    for block in blocks:
        for sym in block:
            if sym in seen:
                raise ArityMismatch("symbol %s appears twice" % (sym,))
            seen.add(sym)
            if sym.kind == "lo" and not 0 <= sym.index < r:
                raise ArityMismatch("%s outside the lo window" % (sym,))
            if sym.kind == "up" and not d_x - r < sym.index <= d_x:
                raise ArityMismatch("%s outside the up window" % (sym,))
    if len(seen) != 2 * r:
        raise ArityMismatch("blocks do not cover Lambda(X) exactly")
    return blocks


@st.composite
def symbol_blocks(draw):
    """Blocks of symbols over a random (r, d_X): a shuffled partition of
    Lambda(X), maybe with symbols dropped, repeated or from outside the
    windows, and maybe with empty blocks."""
    r = draw(st.integers(0, 5))
    d_x = 2 * r + draw(st.integers(0, 4)) - 2
    window = [lo(i) for i in range(r)] + [up(i) for i in range(d_x - r + 1, d_x + 1)]
    symbols = draw(st.permutations(window))
    if draw(st.booleans()):
        symbols = symbols[: draw(st.integers(0, len(symbols)))]  # missing symbols
    nearby = [lo(-1), lo(r), up(d_x - r), up(d_x + 1)] + window
    symbols += draw(st.lists(st.sampled_from(nearby), max_size=3))  # repeats, outsiders
    labels = draw(st.lists(st.integers(0, 5), min_size=len(symbols), max_size=len(symbols)))
    groups = [[] for _ in range(6)]
    for sym, label in zip(symbols, labels):
        groups[label].append(sym)
    if not draw(st.booleans()):
        groups = [g for g in groups if g]  # no empty blocks
    return tuple(tuple(g) for g in groups), r, d_x


@given(symbol_blocks())
# two blocks with one first symbol: their given order decides the error
@example((((lo(0), up(9)), (lo(0), up(3))), 2, 4))
@example((((lo(0), up(3)), (lo(0), up(9))), 2, 4))
def test_partition_validation_matches_reference(case):
    groups, r, d_x = case
    try:
        expected = _reference_blocks(groups, r, d_x)
    except ArityMismatch as exc:
        with pytest.raises(ArityMismatch) as got:
            MdtPartition(groups, r, d_x)
        assert str(got.value) == str(exc)
    else:
        assert MdtPartition(groups, r, d_x).blocks == expected


# one pattern per witness format of the rule table
WITNESS_FORMATS = (
    r"\d+_lo and \d+\^up must be co-blocked",
    r"excellent pair \d+_lo, \d+\^up split",
    r"r \+ s = \d+ exceeds 2\^n = \d+",
    r"m = \d+ not in the splitting pattern \[[\d, ]+\]",
    r"odd block \{.*\}",
    r"one-sided block \{.*\} has no endpoint pair",
    r"block \{.*\}: b = \d+, expected \d+",
    r"shell \d+ has blocks based at \[.*\] but none at j_\d+ = \d+",
    r"shell \d+: block at a = \d+ must be the base block shifted by \d+",
    r"base block of shell \d+ contains \d+_lo with \d+ \+ \d+ > j_\d+ = \d+",
    r"smallest positive lower index \d+ is not some j_t, t < h",
    r"upper block has b = \d+, expected Izh - 1 = \d+",
    r"upper block has b = None, expected Izh - 1 = \d+",
    r"upper block of size > 2 needs >= 2 lower symbols",
    r"i_1 = \d+ does not divide i_2 = \d+",
    r"lower indices \[.*\] in \[j_1, j_2\) must be \[.*\]",
    r"lower index \d+ in the upper block not divisible by 2\^\d+",
    r"v2\(i_\d+\) = \d+ < v2\(i_1\) = \d+",
    r"v2\(i_\d+\) = \d+ exceeds v2\(i_1\) \+ 1 = \d+",
    r"block at a = j_\d+ must contain \d+_lo \(k = \d+\)",
)


def _check_golden_reports(name):
    """Check every record of a golden report file; return the witness
    formats its reports use."""
    records = json.loads((GOLDEN / name).read_text())
    hit = set()
    for record in records:
        profile = QuadricProfile.from_json_dict(record["profile"])
        part = MdtPartition.of(
            profile,
            [[LambdaSymbol(kind, i) for kind, i in block] for block in record["blocks"]],
        )
        rules = RuleSet.proven().enable(*record["enable"])
        report = [[v.rule, v.witness] for v in check_partition(profile, part, rules)]
        assert report == record["report"], (record["profile"], record["blocks"])
        for _, witness in report:
            matched = [f for f in WITNESS_FORMATS if re.fullmatch(f, witness)]
            assert matched, witness
            hit.update(matched)
    return hit


def test_check_reports_golden():
    # full (rule, witness) reports for seeded partitions of r <= 8 profiles
    # under five rule sets, recorded before the rule rows moved to integer
    # symbols: the file pins every witness's text and order
    assert _check_golden_reports("check_reports.json") == set(WITNESS_FORMATS)


def test_check_reports_wide_golden():
    # the same for seeded partitions of r = 9..24 profiles, recorded before
    # the checker read symbol names from a table: it pins two-digit names
    # such as 17^up and 12_lo in every witness format but the second
    # Karpenko theorem's
    karpenko_second = r"v2\(i_\d+\) = \d+ exceeds v2\(i_1\) \+ 1 = \d+"
    hit = _check_golden_reports("check_reports_wide.json")
    assert hit == set(WITNESS_FORMATS) - {karpenko_second}


# -- the rows' call shapes against their old readings ------------------------------


def _random_profile(rng, r):
    """A profile of type (r, s <= 8) whose pattern takes random admissible
    steps (each within its kernel's 2-adic bound)."""
    s = rng.randrange(9)
    dim = 2 * r + s
    pattern = [0]
    while pattern[-1] < r:
        kernel = dim - 2 * pattern[-1]
        steps = [i for i in range(1, r - pattern[-1] + 1) if i <= 1 << v2(kernel - i)]
        pattern.append(pattern[-1] + rng.choice(steps))
    return mk_profile(dim, r, s, pattern)


# profiles with wide shells: one of width 24, and 8 then 16
WIDE_SHELLS = [mk_profile(56, 24, 8, [0, 24]), mk_profile(48, 24, 0, [0, 8, 24])]


def _tuple_shift_witnesses(c, block_of, blocks):
    """R-SHIFT as it read each shift by building the shifted tuple: the
    oracle of _check_shift, which compares in place."""
    r, p = c.r, c.pattern
    based = {block[0]: block for block in blocks}
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
        for k in range(1, step):
            shifted = tuple(x + k for x in base)
            if lowers[-1] + k >= r or based.get(lo_bound + k) != shifted:
                yield (
                    "shell %d: block at a = %d must be the base block shifted by %d",
                    (t, lo_bound + k, k),
                )
        for i in lowers:
            t2 = c.shell[i]
            if i + step > p[t2]:
                yield (
                    "base block of shell %d contains %s with %d + %d > j_%d = %d",
                    (t, c.names[i], i, step, t2, p[t2]),
                )


def _shift_candidate(rng, c):
    """Canonical int blocks of a candidate built to meet R-SHIFT's cases: a
    base block in some shells, with its shifts kept, damaged or dropped, and
    the other symbols grouped at random."""
    r, p = c.r, c.pattern
    free = set(range(2 * r))
    blocks = []
    for t in range(1, len(p)):
        j, width = p[t - 1], p[t] - p[t - 1]
        if j not in free or rng.random() < 0.3:
            continue
        los = sorted(free & set(range(j + 1, r)))
        ups = sorted(free & set(range(r, 2 * r)))
        base = {j, *rng.sample(los, min(len(los), rng.randrange(3)))}
        base |= set(rng.sample(ups, min(len(ups), rng.randrange(1, 4))))
        free -= base
        blocks.append(base)
        for k in range(1, width):
            shifted = {x + k for x in base}
            if not shifted <= free or rng.random() < 0.1:
                continue
            if rng.random() < 0.15:  # damaged: one symbol dropped or swapped
                shifted.discard(rng.choice(sorted(shifted - {j + k}) or [j + k]))
                if free - shifted and rng.random() < 0.5:
                    shifted.add(rng.choice(sorted(free - shifted)))
            shifted &= free
            if shifted:
                free -= shifted
                blocks.append(shifted)
    rest = sorted(free)
    groups = {}
    for k in rest:
        groups.setdefault(rng.randrange(max(1, len(rest) // 2)), set()).add(k)
    blocks += groups.values()
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def _block_of(blocks, n):
    block_of = [0] * n
    for position, block in enumerate(blocks):
        for k in block:
            block_of[k] = position
    return block_of


def test_check_shift_matches_tuple_reading():
    # the in-place comparison against the shifted tuples, on shell widths up
    # to 24; the counts show each case occurs: a full orbit, a shift that
    # leaves the window, a shell with blocks but no base
    rng = random.Random(11)
    profiles = WIDE_SHELLS * 20
    profiles += [_random_profile(rng, rng.randrange(1, 25)) for _ in range(300)]
    seen = {"orbit": 0, "leaves": 0, "no base": 0, "width": 0}
    for profile in profiles:
        c = mdt._compile(profile)
        for _ in range(4):
            blocks = _shift_candidate(rng, c)
            block_of = _block_of(blocks, 2 * c.r)
            expected = list(_tuple_shift_witnesses(c, block_of, blocks))
            assert list(mdt._check_shift(c, blocks)) == expected, (profile, blocks)
            texts = [template % args for template, args in expected]
            seen["no base"] += any("but none at" in text for text in texts)
            for t in range(1, len(c.pattern)):
                j, width = c.pattern[t - 1], c.pattern[t] - c.pattern[t - 1]
                base = blocks[block_of[j]]
                if width == 1 or base[0] != j:
                    continue
                seen["width"] = max(seen["width"], width)
                lowers = [k for k in base if k < c.r]
                seen["leaves"] += lowers[-1] + width - 1 >= c.r
                seen["orbit"] += not any("shell %d:" % t in text for text in texts)
    assert seen["width"] == 24
    assert min(seen.values()) >= 10, seen


def test_block_rows_walk_the_blocks():
    # a per-block row called once over all the blocks yields the witnesses
    # of its calls over each block alone, in block order
    rng = random.Random(3)
    rows = [rule for rule in mdt.RULES.values() if rule.scope == "block"]
    assert {rule.id for rule in rows} == {
        "R-PARITY", "R-ENDPOINT", "R-UPPER", "R-KARPENKO", "R-VISHIK"
    }
    profiles = SWEEP_R7 + [_random_profile(rng, rng.randrange(8, 25)) for _ in range(60)]
    witnesses = 0
    for profile in profiles:
        c = mdt._compile(profile)  # R-VISHIK's positions too, whatever the rule set
        for _ in range(3):
            blocks = _shift_candidate(rng, c)
            for rule in rows:
                whole = [template % args for template, args in rule.check(c, blocks)]
                alone = [
                    template % args
                    for block in blocks
                    for template, args in rule.check(c, (block,))
                ]
                assert whole == alone, (rule.id, profile, blocks)
                witnesses += len(whole)
    assert witnesses > 1000


def _literal_forced_connections(profile):
    """(j_{t-1} + i)_lo -- (d_X - (j_t - 1 - i))^up for 0 <= i < i_t, shell
    by shell, as the splitting pattern states them."""
    p = profile.pattern
    return [
        (lo(p[t - 1] + i), up(profile.d_x - (p[t] - 1 - i)))
        for t in range(1, len(p))
        for i in range(p[t] - p[t - 1])
    ]


def _literal_vpn_connections(profile, assumed):
    """The VPN lemma's pairs, walking the splitting tower: kernel t, of Witt
    index w = j_t and dimension 2^n + m, is a VPN when forced (maximal
    splitting, m = 1, or m = 2 with 2 in its pattern) or, for the form
    itself, when assumed and m <= r; its pairs i_lo -- (2^n + i - 1)^up,
    0 <= i < m, shifted by w.  Deduped, in order of first appearance."""
    pairs = []
    p = profile.pattern
    for t in range(profile.height):
        w = p[t]
        n, m = pfister_split(profile.dim - 2 * w)
        kernel_pattern = [j - w for j in p[t:]]
        forced = kernel_pattern[1] == m or m == 1 or (m == 2 and 2 in kernel_pattern)
        if forced or (assumed and t == 0 and m <= profile.r):
            for i in range(m):
                pair = (lo(i + w), up((1 << n) + i - 1 + w))
                if pair not in pairs:
                    pairs.append(pair)
    return pairs


def _scope_pairs(profile, rules):
    """Connection rule id in scope -> its pairs, as the rule set's entry
    holds them."""
    return {rule_id: pairs for rule_id, (_, pairs) in mdt._scope(profile, rules)[1].items()}


def test_connection_pair_codes_match_public_pairs():
    # the compiled form builds each connection rule's pairs as integer codes
    # without symbols, and the public pair lists name them: both must match
    # the literal statements of the rules, under both scope flags, on every
    # r <= 8, s <= 8 profile and random r <= 24; R-EXC is out of the proven
    # set's scope exactly when s >= 2
    rng = random.Random(5)
    profiles = [
        mk_profile(2 * r + s, r, s, pattern)
        for r in range(1, 9)
        for s in range(9)
        for pattern in pattern_enumerate(r, s)
    ]
    assert len(profiles) == 585
    profiles += [_random_profile(rng, rng.randrange(9, 25)) for _ in range(200)]
    profiles += WIDE_SHELLS
    # every connection rule in scope, with R-VPN's scope flag off and on
    in_scope = (RuleSet(assumed=frozenset({"R-EXC"})), RuleSet.proven().enable("R-EXC", "R-VPN"))
    pairs_seen = {rule_id: 0 for rule_id in ("R-DUAL", "R-EXC", "R-VPN")}
    for profile in profiles:
        code = {sym: k for k, sym in enumerate(lambda_set(profile))}
        proven = _scope_pairs(profile, RuleSet.proven())
        assert ("R-EXC" in proven) == (profile.s <= 1), profile
        dual = _literal_forced_connections(profile)
        assert list(forced_connections(profile)) == dual
        exc = [(lo(p.a), up(p.b)) for p in excellent_pairs(profile)]
        for rules in in_scope:
            vpn = _literal_vpn_connections(profile, "R-VPN" in rules.assumed)
            assert list(vpn_connections(profile, "R-VPN" in rules.assumed)) == vpn
            public = {"R-DUAL": dual, "R-EXC": exc, "R-VPN": vpn}
            connections = _scope_pairs(profile, rules)
            assert connections.keys() == public.keys(), profile
            for rule_id, pairs in public.items():
                expected = [[code[a], code[b]] for a, b in pairs]
                assert connections[rule_id] == expected, (rule_id, rules, profile)
                pairs_seen[rule_id] += len(expected)
    assert min(pairs_seen.values()) > 1000, pairs_seen


@st.composite
def random_partitions(draw):
    """A random partition of Lambda(X) for a random profile with r <= 6."""
    r = draw(st.integers(min_value=1, max_value=6))
    s = draw(st.integers(min_value=0, max_value=6))
    pattern = draw(st.sampled_from(pattern_enumerate(r, s)))
    p = prof(2 * r + s, r, s, pattern)
    symbols = lambda_set(p)
    n = len(symbols)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for sym, label in zip(symbols, labels):
        blocks.setdefault(label, []).append(sym)
    return p, MdtPartition.of(p, blocks.values())


@given(random_partitions())
def test_partition_json_round_trip_random(case):
    p, part = case
    text = json.dumps(part.to_json_dict(), sort_keys=True)
    back = MdtPartition.from_json_dict(json.loads(text), p)
    assert back == part
    assert json.dumps(back.to_json_dict(), sort_keys=True) == text


def test_partition_json_round_trip():
    part = blocks(P22, [lo(0), up(3)], [lo(1), up(4)])
    data = part.to_json_dict()
    assert MdtPartition.from_json_dict(data, P22) == part


# malformed partition blocks and their exact errors: each entry is read
# field by field, kind before index, with json_int before the kind check
MALFORMED_BLOCKS = [
    ([[{"kind": "mid", "i": 1.5}]], "malformed partition JSON: 1.5 is not an integer"),
    ([[{"kind": ["lo"], "i": 0}]], "malformed partition JSON: kind must be 'lo' or 'up'"),
    (
        [[["lo", 0]]],
        "malformed partition JSON: list indices must be integers or slices, not str",
    ),
    ([[{"kind": "lo", "x": 1}]], "malformed partition JSON: 'i'"),
    ([[{"kind": "lo", "i": True}]], "malformed partition JSON: True is not an integer"),
    ([[{"kind": "lo", "i": 0, "x": 2}]], "malformed partition JSON: unknown keys ['x']"),
    ([[{"kind": "lo", "i": -1}]], "-1_lo outside the lo window"),
    ([[{"kind": "lo", "i": 0}, 5]], "malformed partition JSON: 'int' object is not iterable"),
]


def test_partition_json_errors():
    for data, message in MALFORMED_BLOCKS:
        with pytest.raises(ArityMismatch) as exc:
            MdtPartition.from_json_dict({"blocks": data}, P22)
        assert str(exc.value) == message, data


def _tuple_from_json_dict(data, profile):
    """MdtPartition.from_json_dict as it read every entry's keys into a set:
    the decoder's oracle, with the same errors."""
    try:
        unknown = set(data) - {"blocks"}
        blocks = []
        for block in data["blocks"]:
            for entry in block:
                unknown.update(set(entry) - {"kind", "i"})
            blocks.append(tuple([mdt._json_symbol(entry) for entry in block]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArityMismatch("malformed partition JSON: %s" % exc) from exc
    if unknown:
        raise ArityMismatch("malformed partition JSON: unknown keys %s" % sorted(unknown))
    return MdtPartition.of(profile, blocks)


def _decoded(decode, data, profile):
    """The partition a decoder returns, or the type and text of its error."""
    try:
        return decode(data, profile)
    except Exception as exc:  # any error: the two readings must raise alike
        return type(exc), str(exc)


LO0, UP3 = {"kind": "lo", "i": 0}, {"kind": "up", "i": 3}
LO1, UP4 = {"kind": "lo", "i": 1}, {"kind": "up", "i": 4}

# partition JSON over P22, malformed in each way an entry or the object can be
DECODER_CASES = [
    {"blocks": [[LO0, UP3], [LO1, UP4]]},
    {"blocks": [[UP4, LO1], [UP3, LO0]]},
    {"blocks": [[LO0, UP3], [LO1, ["up", 4]]]},  # an entry that is a list
    {"blocks": [[LO0, UP3], [LO1, "4^up"]]},  # a string
    {"blocks": [[LO0, UP3], [LO1, 4]]},  # an int
    {"blocks": [[LO0, UP3], [LO1, None]]},
    {"blocks": [[LO0, UP3], [LO1, [["up"]]]]},  # unhashable members
    {"blocks": [[LO0, UP3], [LO1, ("kind", "i")]]},  # a tuple of the keys
    {"blocks": [[LO0, UP3], [LO1, dict(UP4, x=1)]]},  # an extra key
    {"blocks": [[dict(LO0, x=1), UP3], [dict(LO1, y=2), dict(UP4, x=1)]]},
    {"blocks": [[LO0, UP3], [LO1, UP4]], "extra": 1},  # an extra top-level key
    {"blocks": [[LO0, UP3], [LO1, {"kind": "up"}]]},  # a missing "i"
    {"blocks": [[LO0, UP3], [LO1, {"i": 4}]]},  # a missing "kind"
    {"blocks": [[LO0, UP3], [LO1, {"kind": "up", "i": True}]]},  # a bool index
    {"blocks": [[LO0, UP3], [LO1, {"kind": "up", "i": 4.0}]]},  # a float index
    {"blocks": [[LO0, UP3], [LO1, {"kind": "mid", "i": 4}]]},  # an unknown kind
    {"blocks": [[LO0, UP3], [LO1, {"kind": ["up"], "i": 4}]]},
    # a bad field, then an entry whose keys cannot be read, in one block
    {"blocks": [[LO0, UP3], [{"kind": "mid", "i": 1}, 4]]},
    {"blocks": [[LO0, UP3], [dict(LO1, x=1), {"kind": "up", "i": 4.5}]]},
    {"blocks": [[LO0, UP3], [dict(LO1, x=1)], [{"kind": "up", "i": 4.5}]]},
    {"blocks": [[LO0, UP3], [{"kind": "lo", "i": 9}, UP4]]},  # outside the window
    {"blocks": [[LO0, UP3]]},
    {"blocks": [[LO0, UP3], LO1]},  # a block that is an entry
    {"blocks": [[LO0, UP3], 5]},
    {"blocks": 5},
    {"blocks": None},
    {},
    [],
    "blocks",
    5,
]


def test_partition_decoder_matches_set_reading():
    # the one comparison of each entry's keys against the set reading: the
    # same partition, or the same error type and message
    for data in DECODER_CASES:
        expected = _decoded(_tuple_from_json_dict, data, P22)
        assert _decoded(MdtPartition.from_json_dict, data, P22) == expected, data
    rng = random.Random(7)
    for profile in SWEEP_R7[::7]:
        symbols = list(lambda_set(profile))
        rng.shuffle(symbols)
        cut = sorted(rng.sample(range(1, len(symbols)), rng.randrange(len(symbols))))
        groups = [symbols[a:b] for a, b in zip([0] + cut, cut + [len(symbols)])]
        data = {"blocks": [[{"kind": s.kind, "i": s.index} for s in g] for g in groups]}
        assert MdtPartition.from_json_dict(data, profile) == _tuple_from_json_dict(data, profile)


# -- enumerator ----------------------------------------------------------------------


def _raw_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _raw_set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1 :]
        yield [[first]] + smaller


def _partitions(atoms):
    """Every partition of the atoms, as tuples of blocks of their symbols.

    One restricted-growth string g per partition (Knuth, TAOCP 4A 7.2.1.5,
    Algorithm H): atom i goes to block g[i], where g[0] = 0 and g[i] is at
    most 1 + max(g[:i]).
    """
    m = len(atoms)
    g = [0] * m
    bound = [1] * m  # bound[i] = 1 + max(g[:i])
    while True:
        blocks = [[] for _ in range(max(bound[-1], g[-1] + 1))]
        for atom, block in zip(atoms, g):
            blocks[block] += atom
        yield tuple(tuple(block) for block in blocks)
        i = m - 1
        while i > 0 and g[i] == bound[i]:
            i -= 1
        if i == 0:
            return
        g[i] += 1
        for j in range(i + 1, m):
            g[j] = 0
            bound[j] = max(bound[i], g[i] + 1)


def _leaf_pass_enumerate(profile, rules):
    """The block search before R-SHIFT was decided as blocks are placed.

    Every union of atoms that passes the per-block rows may open a block;
    a block based at j_{t-1} + d (0 < d < i_t) may only be the block based
    at j_{t-1} shifted by d; every complete candidate then runs the whole
    R-SHIFT row, and the survivors are sorted at the end.
    """
    c, (rows, connections) = mdt._compile(profile), mdt._scope(profile, rules)
    parent = list(range(2 * profile.r))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _, pairs in connections.values():
        for a, b in pairs:
            parent[find(a)] = find(b)
    atoms = {}
    for k in range(2 * profile.r):
        atoms.setdefault(find(k), []).append(k)
    atom_list = sorted(map(tuple, atoms.values()))
    if any(witnesses for witnesses, _ in connections.values()):
        return ()

    def passes(scope, *candidate):
        return not any(
            any(True for _ in rule.check(c, *candidate))
            for rule in rows
            if rule.scope == scope
        )

    opened_by = [[] for _ in atom_list]
    mask_of = {}
    for mask in range(1, 1 << len(atom_list)):
        block = tuple(sorted(k for i, atom in enumerate(atom_list) if mask >> i & 1 for k in atom))
        if passes("block", (block,)):
            low = (mask & -mask).bit_length() - 1
            opened_by[low].append((mask, block))
            mask_of[block] = mask
    shift_base = [None] * len(atom_list)
    if "R-SHIFT" in rules.enabled:
        for i, atom in enumerate(atom_list):
            a = atom[0]
            if a < c.r and a != c.pattern[c.shell[a] - 1]:
                shift_base[i] = c.pattern[c.shell[a] - 1]
    block_of = [0] * (2 * profile.r)
    chosen = []
    survivors = []

    def place(free):
        if not free:
            if passes("partition", tuple(chosen)):
                survivors.append(tuple(chosen))
            return
        low = (free & -free).bit_length() - 1
        options = opened_by[low]
        j = shift_base[low]
        if j is not None:
            base = chosen[block_of[j]]
            if base[0] != j:
                return
            shifted = tuple(k + atom_list[low][0] - j for k in base)
            options = [(mask_of[shifted], shifted)] if shifted in mask_of else ()
        for mask, block in options:
            if mask & free == mask:
                for k in block:
                    block_of[k] = len(chosen)
                chosen.append(block)
                place(free ^ mask)
                chosen.pop()

    place((1 << len(atom_list)) - 1)
    symbols = lambda_set(profile)
    return tuple(
        MdtPartition.of(profile, [[symbols[k] for k in block] for block in blocks])
        for blocks in sorted(survivors)
    )


@pytest.mark.parametrize(
    "dim,r,s,pattern,rules",
    [
        (6, 2, 2, [0, 2], None),
        (6, 2, 2, [0, 1, 2], None),
        (4, 2, 0, [0, 1, 2], None),
        (6, 3, 0, [0, 1, 3], None),
        (8, 3, 2, [0, 1, 3], None),
        (10, 3, 4, [0, 1, 3], None),
        (10, 3, 4, [0, 1, 3], RuleSet.proven().enable("R-EXC")),
        (7, 3, 1, [0, 1, 2, 3], None),
        (8, 3, 2, [0, 1, 2, 3], RuleSet.proven().enable("R-VISHIK")),
        (4, 1, 2, [0, 1], RuleSet.proven().enable("R-VPN")),  # r + s > 2^n
        (10, 3, 4, [0, 1, 3], RuleSet.proven().enable("R-EXC", "R-VPN")),
    ],
)
def test_enumerator_matches_raw_filter(dim, r, s, pattern, rules):
    # independent check of the atom optimization: filter ALL partitions
    profile = mk_profile(dim, r, s, pattern)
    symbols = list(lambda_set(profile))
    expected = []
    for grouping in _raw_set_partitions(symbols):
        part = MdtPartition.of(profile, [tuple(g) for g in grouping])
        if not check_partition(profile, part, rules):
            expected.append(part)
    expected.sort(key=lambda part: part.blocks)
    got = list(enumerate_mdt(profile, rules))
    assert got == expected


def _atoms(profile, rules):
    """Lambda(X) merged along the pairs of the enabled connection rules,
    read from the public pair lists."""
    pairs = []
    if "R-DUAL" in rules.enabled:
        pairs += forced_connections(profile)
    if "R-EXC" in rules.enabled and (profile.s <= 1 or "R-EXC" in rules.assumed):
        pairs += [(lo(p.a), up(p.b)) for p in excellent_pairs(profile)]
    if "R-VPN" in rules.enabled:
        pairs += vpn_connections(profile, assumed="R-VPN" in rules.assumed)
    atom_of = {sym: (sym,) for sym in lambda_set(profile)}
    for a, b in pairs:
        if atom_of[a] is not atom_of[b]:
            merged = atom_of[a] + atom_of[b]
            for sym in merged:
                atom_of[sym] = merged
    return list({id(atom): atom for atom in atom_of.values()}.values())


# the worst case of the r <= 8 sweep, one where every candidate survives
# (Bell(8) = 4140), and one with no surviving partition
R8_FIXED = [
    mk_profile(16, 8, 0, [0, 8]),
    mk_profile(19, 8, 3, list(range(9))),
    mk_profile(16, 8, 0, [0, 2, 6, 7, 8]),
]

ATOM_ORACLE_PROFILES = [
    mk_profile(2 * r + s, r, s, pattern)
    for r in range(1, 5)
    for s in range(9)
    for pattern in pattern_enumerate(r, s)
] + R8_FIXED


@pytest.mark.parametrize("extra", [(), ("R-EXC",)])
def test_enumerator_matches_atom_oracle(extra):
    # every partition of the atoms, filtered through the public checker
    rules = RuleSet.proven().enable(*extra)
    for profile in ATOM_ORACLE_PROFILES:
        expected = []
        for grouping in _raw_set_partitions(_atoms(profile, rules)):
            part = MdtPartition.of(profile, [sum(group, ()) for group in grouping])
            if not check_partition(profile, part, rules):
                expected.append(part)
        expected.sort(key=lambda part: part.blocks)
        assert list(enumerate_mdt(profile, rules)) == expected, str(profile)


GENERATE_AND_TEST_PROFILES = [
    mk_profile(2 * r + s, r, s, pattern)
    for r in range(1, 6)
    for s in range(9)
    for pattern in pattern_enumerate(r, s)
]


@pytest.mark.parametrize(
    "rules",
    [
        RuleSet.proven(),
        RuleSet.proven().enable("R-EXC"),
        RuleSet.proven().enable("R-VPN"),
        RuleSet.proven().enable("R-VISHIK"),
        # under the proven rules R-UPPER excludes nothing the other rows keep
        # on any r <= 8 profile; next to R-DUAL alone both upper-block rows do
        RuleSet(enabled=frozenset({"R-DUAL", "R-UPPER", "R-KARPENKO"})),
    ],
    ids=["proven", "R-EXC", "R-VPN", "R-VISHIK", "upper-block"],
)
def test_enumerator_matches_generate_and_test(rules):
    # the block search against every atom partition (Algorithm H) filtered
    # through the public checker; the asserted R-VPN empties many answers,
    # and R-VISHIK adds a per-block row
    empty = 0
    for profile in GENERATE_AND_TEST_PROFILES:
        expected = []
        for grouping in _partitions(_atoms(profile, rules)):
            part = MdtPartition.of(profile, grouping)
            if not check_partition(profile, part, rules):
                expected.append(part)
        expected.sort(key=lambda part: part.blocks)
        got = list(enumerate_mdt(profile, rules))
        assert got == expected, str(profile)
        empty += not got
    if "R-VPN" in rules.assumed:
        assert empty


ORACLE_RULE_SETS = [
    RuleSet.proven(),
    RuleSet.proven().enable("R-EXC"),
    RuleSet.proven().enable("R-VPN"),
    RuleSet.proven().enable("R-VISHIK"),
    RuleSet.proven().enable("R-EXC", "R-VPN", "R-VISHIK"),
]
ORACLE_RULE_IDS = ["proven", "R-EXC", "R-VPN", "R-VISHIK", "all-three"]

SWEEP_R7 = [
    mk_profile(2 * r + s, r, s, pattern)
    for r in range(1, 8)
    for s in range(9)
    for pattern in pattern_enumerate(r, s)
]


# the search skips R-PARITY under R-DUAL, and R-ENDPOINT under R-DUAL and
# R-SHIFT; of R-UPPER's clauses it skips the b clause under R-DUAL and R-SHIFT,
# "size > 2" under R-DUAL and the interior clause under R-KARPENKO: without its
# premise each must still run, and each then excludes partitions on its own
# (test_implied_rows_run_without_their_premise)
WITHOUT_SHIFT = RuleSet(PROVEN_RULE_IDS - {"R-SHIFT"})
WITHOUT_DUAL = RuleSet(PROVEN_RULE_IDS - {"R-DUAL"})
WITHOUT_KARPENKO = RuleSet(PROVEN_RULE_IDS - {"R-KARPENKO"})


# (rules, max_r): the five oracle rule sets and the premise-off ones, each
# searched on the sweep profiles with r <= max_r
SEARCH_CASES = (
    [(rules, 7) for rules in ORACLE_RULE_SETS]
    # without R-DUAL few symbols merge: r > 4 nears the 10-atom bound
    + [(WITHOUT_SHIFT, 7), (WITHOUT_DUAL, 4), (WITHOUT_KARPENKO, 7)]
    # R-PARITY, R-ENDPOINT and R-VISHIK all run on the unions, and the search
    # judges a base block's shifts by the base block alone
    + [(WITHOUT_DUAL.enable("R-VISHIK"), 4)]
)
SEARCH_CASE_IDS = ORACLE_RULE_IDS + [
    "no-R-SHIFT", "no-R-DUAL", "no-R-KARPENKO", "no-R-DUAL-R-VISHIK"
]


@pytest.mark.parametrize("rules,max_r", SEARCH_CASES, ids=SEARCH_CASE_IDS)
def test_enumerator_matches_leaf_pass(rules, max_r):
    # R-SHIFT decided as blocks are placed against the whole row run on
    # every complete candidate, on every sweep profile with r <= max_r; the
    # leaf pass runs every per-block row on every block.  Equality of the
    # tuples also pins the order, which the search reaches unsorted.  The
    # per-call walk (_walk_listing) that the fold over the memo's state graph
    # replaced lists the same; and so does a fresh profile object, whose first
    # listing builds the graph and whose second reads it
    assert len(SWEEP_R7) == 349
    for profile in SWEEP_R7:
        if profile.r <= max_r:
            expected = _leaf_pass_enumerate(profile, rules)
            assert enumerate_mdt(profile, rules) == expected, str(profile)
            assert _walk_listing(profile, rules) == expected, str(profile)
            fresh = QuadricProfile(profile.dim, profile.r, profile.s, profile.pattern)
            assert enumerate_mdt(fresh, rules) == expected, str(profile)
            assert enumerate_mdt(fresh, rules) == expected, str(profile)
            assert enumerate_mdt(profile, rules) == expected, str(profile)


def _walk_listing(profile, rules):
    """The listing as every call made it before the state graph: the walk
    (_walk) over the per-atom options, their blocks named, with the
    concatenation join, each completion made a partition by _canonical."""
    symbols = lambda_set(profile)
    named = [
        [
            (tuple(tuple(symbols[k] for k in block) for block in orbit), mask)
            for orbit, mask in options
        ]
        for options in mdt._code_table(profile, rules)
    ]
    completions = mdt._walk(
        named, ((),), lambda pairs: [head + tail for head, tails in pairs for tail in tails]
    )
    return tuple(MdtPartition._canonical(blocks, profile.r, profile.d_x) for blocks in completions)


@pytest.mark.parametrize("rules,max_r", SEARCH_CASES, ids=SEARCH_CASE_IDS)
def test_state_graph_is_bottom_up_and_sums_to_the_count(rules, max_r):
    # every edge is an exact int, rest << shift | o, that points to an
    # earlier state and reads a named option; every node has an edge, so
    # each state in the graph has a completion (no dead state is kept); the
    # options no edge reads are not named; and the completions summed over
    # the graph are the count, zero exactly when the graph is empty
    for profile in [p for p in SWEEP_R7 if p.r <= max_r] + (R8_FIXED if max_r == 7 else []):
        orbits, graph = mdt._state_graph(profile, rules)
        assert len(orbits) == sum(map(len, mdt._code_table(profile, rules))), str(profile)
        shift = len(orbits).bit_length()
        completions, read = [1], set()  # state 0, every atom placed
        for state, edges in enumerate(graph, 1):
            assert type(edges) is tuple and edges, str(profile)
            for edge in edges:
                assert type(edge) is int, str(profile)
                o, rest = edge & ((1 << shift) - 1), edge >> shift
                assert 0 <= o < len(orbits) and 0 <= rest < state, str(profile)
                assert type(orbits[o]) is tuple and orbits[o], str(profile)
                read.add(o)
            completions.append(sum(completions[edge >> shift] for edge in edges))
        assert {o for o, orbit in enumerate(orbits) if orbit is not None} == read, str(profile)
        assert (completions[-1] if graph else 0) == mdt._count_mdt(profile, rules), str(profile)


@pytest.mark.parametrize(
    "rules,row,profile,counts",
    [
        (WITHOUT_SHIFT, "R-ENDPOINT", prof(7, 3, 1, [0, 3]), (1, 2)),
        (WITHOUT_DUAL, "R-PARITY", prof(11, 3, 5, [0, 1, 2, 3]), (5, 6)),
        # R-UPPER's clauses, each dropped from the row.  R-ENDPOINT repeats the
        # b clause, and under R-DUAL the interior clause rejects every upper
        # block the b clause rejects, so the b clause alone excludes a
        # partition only without R-DUAL and R-ENDPOINT (none at r <= 7 with
        # R-DUAL on)
        (
            RuleSet(PROVEN_RULE_IDS - {"R-DUAL", "R-ENDPOINT"}), "_upper_b",
            prof(6, 2, 2, [0, 1, 2]), (1, 2),
        ),
        (WITHOUT_DUAL, "_upper_size", prof(12, 4, 4, [0, 1, 2, 4]), (8, 9)),
        (WITHOUT_KARPENKO, "_upper_interior", prof(12, 4, 4, [0, 1, 2, 4]), (6, 7)),
    ],
    ids=["R-ENDPOINT", "R-PARITY", "R-UPPER-b", "R-UPPER-size", "R-UPPER-interior"],
)
def test_implied_rows_run_without_their_premise(monkeypatch, rules, row, profile, counts):
    # the row or clause alone excludes a partition here, in the search and in
    # the oracle: the search runs it, as its premise is off
    enumerators = (enumerate_mdt, _leaf_pass_enumerate)
    assert [len(enumerate_(profile, rules)) for enumerate_ in enumerators] == [counts[0]] * 2
    if row in RULE_IDS:
        rules = RuleSet(rules.enabled - {row})
    else:  # the checker and the search read R-UPPER's clauses from one tuple
        clauses = tuple(clause for clause in mdt._UPPER_CLAUSES if clause.__name__ != row)
        monkeypatch.setattr(mdt, "_UPPER_CLAUSES", clauses)
        # the search's table stays in the memo of the profile object it was
        # built for: a fresh equal profile builds it again without the clause
        profile = QuadricProfile(profile.dim, profile.r, profile.s, profile.pattern)
    assert [len(enumerate_(profile, rules)) for enumerate_ in enumerators] == [counts[1]] * 2


@pytest.mark.parametrize("rules", ORACLE_RULE_SETS, ids=ORACLE_RULE_IDS)
def test_implied_rows_exclude_nothing(monkeypatch, rules):
    # the arguments beside the R-SHIFT comment in mdt.py, checked apart from
    # the search: under R-DUAL, R-SHIFT and R-KARPENKO, R-PARITY, R-ENDPOINT
    # and R-UPPER's b, "size > 2" and interior clauses exclude no partition
    # that the other rows keep
    assert {"R-DUAL", "R-SHIFT", "R-KARPENKO", "R-PARITY", "R-ENDPOINT"} <= rules.enabled
    expected = [_leaf_pass_enumerate(profile, rules) for profile in SWEEP_R7]
    dropped = RuleSet(rules.enabled - {"R-PARITY", "R-ENDPOINT"}, rules.assumed)
    monkeypatch.setattr(mdt, "_UPPER_CLAUSES", (mdt._upper_between,))
    for profile, survivors in zip(SWEEP_R7, expected):
        assert _leaf_pass_enumerate(profile, dropped) == survivors, str(profile)


@pytest.mark.parametrize("rules", ORACLE_RULE_SETS, ids=ORACLE_RULE_IDS)
def test_survivors_match_validating_constructor(rules):
    # survivors skip the validation of MdtPartition's constructor: each must
    # be the partition that the validating path builds from its blocks
    for profile in SWEEP_R7 + R8_FIXED:
        for part in enumerate_mdt(profile, rules):
            validated = MdtPartition.of(profile, part.blocks)
            assert part == validated, str(profile)
            assert hash(part) == hash(validated)
            assert part.to_json_dict() == validated.to_json_dict()


@pytest.mark.parametrize(
    "profile,max_r",
    [(profile, 8) for profile in R8_FIXED] + [(prof(21, 9, 3), 9)],  # Bell(9) = 21147
    ids=["r8-shells", "r8-maximal", "r8-empty", "r9-maximal"],
)
def test_listing_order_and_count_above_r7(profile, max_r):
    # the leaf-pass oracle stops at r = 7: here the listing's canonical order
    # is pinned as strictly increasing blocks, and its length against the count
    listed = [part.blocks for part in enumerate_mdt(profile, max_r=max_r)]
    assert all(a < b for a, b in zip(listed, listed[1:]))
    assert len(listed) == mdt._count_mdt(profile, max_r=max_r)
    if max_r == 9:
        assert len(listed) == 21147


@pytest.mark.parametrize("rules", ORACLE_RULE_SETS, ids=ORACLE_RULE_IDS)
def test_count_matches_listing(rules):
    for profile in SWEEP_R7 + R8_FIXED:
        assert mdt._count_mdt(profile, rules) == len(enumerate_mdt(profile, rules)), str(
            profile
        )


def test_golden_counts_r9():
    # the r = 9 row of the golden counts (s <= 8, proven rules); the file
    # says how its rows for r = 10..12 were counted
    row = json.loads((GOLDEN / "mdt_counts.json").read_text())["rows"]["9"]
    counts = [
        mdt._count_mdt(QuadricProfile(18 + s, 9, s, pattern), None, max_r=9)
        for s in range(9)
        for pattern in pattern_enumerate(9, s)
    ]
    assert (len(counts), sum(counts), counts.count(0)) == (
        row["profiles"], row["total"], row["empty"]
    )


def test_golden_headline_listing():
    # the headline sweep (r <= 8, s <= 8, proven rules) listed on fresh
    # profile objects, against the golden file's counts and digest
    row = json.loads((GOLDEN / "mdt_counts.json").read_text())["rows"]["<=8"]
    digest, sizes = hashlib.sha256(), []
    for r in range(1, 9):
        for s in range(9):
            for pattern in pattern_enumerate(r, s):
                listing = enumerate_mdt(QuadricProfile(2 * r + s, r, s, pattern))
                text = json.dumps([part.to_json_dict() for part in listing], separators=(",", ":"))
                digest.update(text.encode() + b"\n")
                sizes.append(len(listing))
    assert (len(sizes), sum(sizes), sizes.count(0), digest.hexdigest()) == (
        row["profiles"], row["total"], row["empty"], row["listing_sha256"]
    )


def test_check_reports_independent_of_rule_set_order():
    # the compiled forms of one profile share each connection rule's pairs
    # per scope flag: the five rule sets checked forward and in reverse,
    # each run on a fresh equal profile whose memo starts empty, must give
    # the same reports
    rng = random.Random(15)
    for profile in SWEEP_R7 + R8_FIXED:
        parts = []
        for units in ([[sym] for sym in lambda_set(profile)], forced_connections(profile)) * 2:
            units = list(units)
            rng.shuffle(units)
            groups = {}
            for unit in units:
                groups.setdefault(rng.randrange(len(units)), []).extend(unit)
            parts.append(MdtPartition.of(profile, groups.values()))
        reports = []
        for order in (ORACLE_RULE_SETS, ORACLE_RULE_SETS[::-1]):
            fresh = QuadricProfile(profile.dim, profile.r, profile.s, profile.pattern)
            reports.append(
                {rules: [check_partition(fresh, part, rules) for part in parts] for rules in order}
            )
        assert reports[0] == reports[1], str(profile)


def test_rule_sets_share_pair_codes():
    # one list of a connection rule's pairs per profile and scope flag, read
    # by every rule set that puts the rule in that scope; R-DUAL's is also
    # the compiled form's partner table, read by R-ENDPOINT and R-UPPER under
    # every rule set, with or without R-DUAL
    wide = RuleSet.proven().enable("R-EXC", "R-VPN", "R-VISHIK")
    for profile in SWEEP_R7:
        proven = _scope_pairs(profile, RuleSet.proven())
        widened = _scope_pairs(profile, wide)
        assert widened["R-DUAL"] is proven["R-DUAL"], str(profile)
        singles = MdtPartition.of(profile, [[x] for x in lambda_set(profile)])
        for rules in (RuleSet.proven(), wide, RuleSet(enabled=frozenset({"R-ENDPOINT"}))):
            check_partition(profile, singles, rules)
            assert mdt._compile(profile).partner is proven["R-DUAL"], str(profile)
        if profile.s <= 1:
            assert widened["R-EXC"] is proven["R-EXC"], str(profile)
        assert widened["R-VPN"] is not proven["R-VPN"], str(profile)


def test_shift_search_matches_leaf_pass_alone():
    # R-SHIFT alone, over single-symbol atoms: no other row hides a shell
    # whose base block breaks part (2), or whose lower symbol j_{t-1} sits in
    # an earlier block while j_{t-1} + k opens one
    rules = RuleSet(enabled=frozenset({"R-SHIFT"}))
    for profile in SWEEP_R7:
        if profile.r <= 3:
            expected = _leaf_pass_enumerate(profile, rules)
            assert enumerate_mdt(profile, rules) == expected, str(profile)


def test_enumerate_shift_base_needs_unplaced_shifts():
    # shell [2, 4) has width 2: the base block at 2 needs the atom of 3_lo
    # unplaced, and 3_lo in the upper block must reject it
    p = prof(10, 4, 2, [0, 1, 2, 4])
    assert enumerate_mdt(p) == (
        blocks(p, [lo(0), lo(1), lo(2), lo(3), up(5), up(6), up(7), up(8)]),
        blocks(p, [lo(0), lo(1), up(7), up(8)], [lo(2), up(5)], [lo(3), up(6)]),
    )
    absorbed = blocks(p, [lo(0), lo(1), lo(3), up(6), up(7), up(8)], [lo(2), up(5)])
    assert [v.rule for v in check_partition(p, absorbed)] == ["R-SHIFT"]


def test_enumerate_maximal_splitting_lists_all_bell():
    # shells of width 1: R-SHIFT is vacuous and each of the 8 dual pairs is
    # an atom that every union of atoms accepts, so all Bell(8) partitions
    # survive, in canonical order with no sort
    p = mk_profile(19, 8, 3, list(range(9)))
    out = enumerate_mdt(p)
    assert len(out) == 4140
    assert list(out) == sorted(out, key=lambda part: part.blocks)


def test_enumerate_formats_no_witness(monkeypatch):
    # the search reads only whether a row yields: under R-DUAL and R-SHIFT,
    # which every oracle rule set enables, it runs no row that writes a
    # block's text, so no witness text is built for a union it drops
    expected = {
        (profile, rules): enumerate_mdt(profile, rules)
        for rules in ORACLE_RULE_SETS
        for profile in GENERATE_AND_TEST_PROFILES
    }

    def refuse(*args):
        raise AssertionError("witness text formatted during the search")

    monkeypatch.setattr(mdt, "_fmt", refuse)
    # the pass above left every (r, d_X) table of these profiles cached
    monkeypatch.setattr(mdt.LambdaSymbol, "__str__", refuse)
    for (profile, rules), answer in expected.items():
        # a fresh equal profile has an empty memo, so the form compiles again
        fresh = QuadricProfile(profile.dim, profile.r, profile.s, profile.pattern)
        assert enumerate_mdt(fresh, rules) == answer


def test_enumerate_height_one_unique():
    out = enumerate_mdt(P22)
    assert out == (mdt_height_one(P22),)


def test_enumerate_pfister_blocks():
    for k in (2, 3):
        p = prof(1 << (k + 1), 1 << k, 0, [0, 1 << k])
        out = enumerate_mdt(p)
        assert len(out) == 1
        assert out[0] == MdtPartition.of(
            p, [(lo(i), up((1 << k) - 1 + i)) for i in range(1 << k)]
        )


def test_enumerate_open_case_dim10():
    p = prof(10, 3, 4, [0, 1, 3])
    proven = enumerate_mdt(p)
    # proven rules must NOT force the excellent pair (1, 8) ...
    assert any(not part.co_blocked(lo(1), up(8)) for part in proven)
    # ... yet must leave at least one partition realizing it
    assert any(part.co_blocked(lo(1), up(8)) for part in proven)
    conjectural = enumerate_mdt(p, RuleSet.proven().enable("R-EXC"))
    assert conjectural
    assert all(part.co_blocked(lo(1), up(8)) for part in conjectural)
    assert all(part.co_blocked(lo(0), up(7)) for part in conjectural)
    assert (len(proven), len(conjectural)) == (2, 1)
    # at s = 1 the proven set applies R-EXC by itself: naming it adds nothing
    p = prof(7, 3, 1, [0, 1, 2, 3])
    assert mdt._count_mdt(p, RuleSet(PROVEN_RULE_IDS - {"R-EXC"})) == 5
    assert mdt._count_mdt(p) == 2
    assert mdt._count_mdt(p, RuleSet.proven().enable("R-EXC")) == 2


def test_enumerator_matches_raw_filter_r4():
    # one Bell(8)-sized cross-check with nontrivial shells
    profile = mk_profile(10, 4, 2, [0, 2, 4])
    expected = []
    for grouping in _raw_set_partitions(list(lambda_set(profile))):
        part = MdtPartition.of(profile, [tuple(g) for g in grouping])
        if not check_partition(profile, part):
            expected.append(part)
    expected.sort(key=lambda part: part.blocks)
    assert list(enumerate_mdt(profile)) == expected


def test_enumerate_results_pass_checker():
    for r, s in [(2, 2), (3, 0), (3, 2), (4, 0), (5, 0), (5, 2)]:
        for pattern in pattern_enumerate(r, s):
            p = prof(2 * r + s, r, s, pattern)
            for part in enumerate_mdt(p):
                assert check_partition(p, part) == ()


# the memo entries of the search, keyed on the profile and rule set
SEARCH_TABLES = ("_state_graph",)


def test_enumerate_bound_exceeded():
    p = prof(18, 9, 0, [0] + list(range(1, 10)))
    with pytest.raises(BoundExceeded):
        enumerate_mdt(p)
    assert enumerate_mdt(p, max_r=9)  # raising the bound works
    # max_r is checked on every call, not kept with the memo's table
    with pytest.raises(BoundExceeded):
        enumerate_mdt(p)
    # more than 10 atoms: the build raises and leaves no table in the memo,
    # only the compiled form it read
    wide = prof(25, 11, 3)
    with pytest.raises(BoundExceeded):
        enumerate_mdt(wide, max_r=11)
    assert [key[0].__name__ for key in wide._memo] == ["_compile"]


def test_count_bound_exceeded():
    # the count keeps the listing's bounds: r above max_r, and more than 10
    # atoms (maximal splitting at r = 11, s = 3 leaves the 11 dual pairs)
    p = prof(21, 9, 3)
    with pytest.raises(BoundExceeded):
        mdt._count_mdt(p)
    assert mdt._count_mdt(p, max_r=9) == 21147  # Bell(9)
    with pytest.raises(BoundExceeded):  # max_r is checked again
        mdt._count_mdt(p)
    wide = prof(25, 11, 3)
    with pytest.raises(BoundExceeded):
        mdt._count_mdt(wide, max_r=11)
    assert [key[0].__name__ for key in wide._memo] == ["_compile"]  # and no table


def test_search_table_read_from_the_memo(monkeypatch):
    # once listed, a profile object's state graph is read from its memo:
    # listing it again judges no union and walks no state, and a fresh equal
    # profile, whose memo is empty, builds its own
    p = prof(10, 4, 2, [0, 1, 2, 4])
    listed = enumerate_mdt(p, RuleSet.proven())
    assert mdt._count_mdt(p, RuleSet.proven()) == len(listed) == 2

    def refuse(*args):
        raise AssertionError("a union judged again")

    def refuse_walk(*args):
        raise AssertionError("the search walked again")

    monkeypatch.setattr(mdt, "_passes", refuse)
    monkeypatch.setattr(mdt, "_walk", refuse_walk)
    assert enumerate_mdt(p) == listed  # None reads the proven rules' entry
    with pytest.raises(AssertionError, match="judged again"):
        enumerate_mdt(QuadricProfile(p.dim, p.r, p.s, p.pattern))


def test_count_keeps_no_search_table():
    # the memo keeps one search table per rule set, the listing's: a count
    # builds its own table and keeps none, before or after a listing
    p = prof(19, 8, 3)
    rule_sets = [RuleSet.proven(), RuleSet.proven().enable("R-EXC")]

    def tables():  # the memo's search tables, by builder and rule set
        kept = [(key[0].__name__, key[1]) for key in p._memo if len(key) == 2]
        return sorted([key for key in kept if key[0] in ("_code_table", "_state_graph")], key=repr)

    counts = [mdt._count_mdt(p, rules) for rules in rule_sets]
    assert tables() == []
    listings = [enumerate_mdt(p, rules) for rules in rule_sets]
    listed = sorted([("_state_graph", rules) for rules in rule_sets], key=repr)
    assert tables() == listed
    again = [mdt._count_mdt(p, rules) for rules in rule_sets]
    assert again == counts == [len(listing) for listing in listings] and counts[0] == 4140
    assert tables() == listed


def test_count_and_listing_leave_no_cyclic_garbage():
    # the walk's fold refers to itself through its closure; once the walk
    # breaks that cycle, a count's code table and a listing's walk table are
    # freed as soon as the call returns, not at the next collection
    p = QuadricProfile(16, 6, 4, (0, 1, 2, 3, 4, 5, 6))
    gc.collect()
    gc.disable()
    try:
        assert mdt._count_mdt(p) > 0
        assert gc.collect() == 0
        assert enumerate_mdt(p)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("max_r", [None, 8.5, True, "8"], ids=["None", "float", "bool", "str"])
@pytest.mark.parametrize("search", [enumerate_mdt, mdt._count_mdt], ids=["listing", "count"])
def test_max_r_must_be_an_int(search, max_r):
    # 8.5 used to run as a bound and True as 1; None and "8" failed in ">"
    with pytest.raises(TypeError) as exc:
        search(P22, None, max_r)
    assert str(exc.value) == "max_r must be an int, not %s" % type(max_r).__name__


def test_one_compiled_form_per_profile():
    # checks and listings under five rule sets share the profile's one
    # compiled form, which holds every connection rule's pairs; a rule set
    # only selects from it, and its one memoised entry is the listing's state
    # graph
    profile = QuadricProfile(13, 4, 5, (0, 1, 2, 3, 4))
    part = MdtPartition.of(profile, [[x] for x in lambda_set(profile)])
    for rules in NOT_RULE_SETS:  # refused before the memo is touched
        with pytest.raises(TypeError):
            check_partition(profile, part, rules)
        with pytest.raises(TypeError):
            enumerate_mdt(profile, rules)
    assert profile._memo == {}
    compiled, tables = [], []
    for rules in ORACLE_RULE_SETS:
        check_partition(profile, part, rules)
        enumerate_mdt(profile, rules)
        compiled.append(mdt._compile(profile))
        tables.append(mdt._state_graph(profile, rules))
    memo = profile._memo
    assert [value for value in memo.values() if type(value) is mdt._Compiled] == [
        mdt._compile(profile)
    ]
    # per rule set: the listing's state graph, and no code table
    assert not [key for key in memo if key[0].__name__ == "_code_table"]
    assert sorted([key[0].__name__ for key in memo]) == ["_compile"] + ["_state_graph"] * 5
    for build in SEARCH_TABLES:
        keyed = {key[1]: value for key, value in memo.items() if key[0].__name__ == build}
        assert sorted(keyed, key=repr) == sorted(ORACLE_RULE_SETS, key=repr), build
        for rules in ORACLE_RULE_SETS:
            assert getattr(mdt, build)(profile, rules) is keyed[rules], build
    for rules, form, table in zip(ORACLE_RULE_SETS, compiled, tables):
        assert form is compiled[0] is mdt._compile(profile)
        assert mdt._state_graph(profile, rules) is table
    # asserted R-VPN fails its numerology here (r + s = 9 > 8): its entry
    # reports that on every partition, and the search opens no block
    witnesses, _ = mdt._scope(profile, RuleSet.proven().enable("R-VPN"))[1]["R-VPN"]
    assert [template % args for template, args in witnesses] == ["r + s = 9 exceeds 2^n = 8"]
    assert enumerate_mdt(profile, RuleSet.proven().enable("R-VPN")) == ()


def test_listing_again_reads_no_lambda_table():
    # the compiled form names the options, so a second listing of the same
    # profile object builds or looks up no Lambda(X) table
    profile = QuadricProfile(19, 8, 3, (0, 1, 2, 3, 4, 7, 8))
    listed = enumerate_mdt(profile)
    before = mdt._lambda.cache_info()
    assert enumerate_mdt(profile) == listed
    after = mdt._lambda.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_rule_set_unknown_id():
    with pytest.raises(ValueError):
        RuleSet.proven().enable("R-NOPE")
    with pytest.raises(ValueError):
        RuleSet(enabled=frozenset({"R-BOGUS"}))


def test_rule_set_normalises_fields():
    # any collection of ids is stored as a frozenset, so the memo entries
    # keyed on the rule set can hash it, and equal selections compare equal
    p = prof(6, 2, 2, [0, 2])
    for enabled in ({"R-DUAL", "R-SHIFT"}, ["R-DUAL", "R-SHIFT"], ("R-SHIFT", "R-DUAL")):
        rules = RuleSet(enabled=enabled)
        assert rules == RuleSet(frozenset({"R-DUAL", "R-SHIFT"}))
        assert type(rules.enabled) is frozenset and type(rules.assumed) is frozenset
        assert enumerate_mdt(p, rules) == enumerate_mdt(p, RuleSet(frozenset(enabled)))
        assert check_partition(p, mdt_height_one(p), rules) == ()
    rules = RuleSet(["R-DUAL", "R-EXC"], ["R-EXC"])
    assert rules == RuleSet(frozenset({"R-DUAL"})).enable("R-EXC")
    assert type(rules.assumed) is frozenset


def test_rule_set_rejects_malformed_fields():
    # a string would be read as its characters
    for enabled, assumed in (("R-DUAL", ()), (["R-DUAL"], "R-EXC")):
        with pytest.raises(ValueError, match="not one string"):
            RuleSet(enabled, assumed)
    # only an enabled R-EXC / R-VPN can be assumed: anything else would act as
    # the rule set without it but compare unequal to it and get its own entry
    for enabled, assumed in (
        ({"R-DUAL"}, {"R-EXC"}),
        ({"R-DUAL", "R-VPN"}, {"R-EXC"}),
        ({"R-DUAL", "R-SHIFT"}, {"R-SHIFT"}),
    ):
        with pytest.raises(ValueError, match="can be assumed"):
            RuleSet(frozenset(enabled), frozenset(assumed))
    with pytest.raises(ValueError, match="unknown rule id"):
        RuleSet(["R-DUAL"], ["R-BOGUS"])


# a rule selection that is not a RuleSet, as a caller might pass one
NOT_RULE_SETS = [["R-DUAL"], "R-DUAL", frozenset({"R-DUAL"}), PROVEN_RULE_IDS]
ENTRY_POINTS = {
    "check_partition": lambda rules: check_partition(
        P22, blocks(P22, [lo(0), up(3)], [lo(1), up(4)]), rules
    ),
    "enumerate_mdt": lambda rules: enumerate_mdt(P22, rules),
    "_count_mdt": lambda rules: mdt._count_mdt(P22, rules),
}


@pytest.mark.parametrize("rules", NOT_RULE_SETS, ids=["list", "str", "frozenset", "ids"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rules_must_be_a_rule_set(entry, rules):
    # a list used to fail hashing in the cache and a string or frozenset on
    # a missing attribute; each is a TypeError naming the expected type
    with pytest.raises(TypeError) as exc:
        ENTRY_POINTS[entry](rules)
    assert str(exc.value) == "rules must be a RuleSet, not %s" % type(rules).__name__


@pytest.mark.parametrize(
    "partition",
    [
        ((lo(0), up(3)), (lo(1), up(4))),
        blocks(P22, [lo(0), up(3)], [lo(1), up(4)]).to_json_dict(),
        None,
    ],
    ids=["blocks", "json", "none"],
)
def test_partition_must_be_an_mdt_partition(partition):
    with pytest.raises(TypeError) as exc:
        check_partition(P22, partition)
    assert str(exc.value) == (
        "partition must be an MdtPartition, not %s" % type(partition).__name__
    )


def test_vishik_rule_behaviour():
    p = prof(8, 4, 0, [0, 2, 4])
    vishik = RuleSet.proven().enable("R-VISHIK")
    # R-VISHIK has no automatic scope, so enabling it widens nothing
    assert vishik.assumed == frozenset()
    # the true MDT (two orbit blocks) passes
    for part in enumerate_mdt(p, vishik):
        assert check_partition(p, part, vishik) == ()
    # the finest dual-pair partition misses 2_lo in the upper block
    finest = blocks(
        p, [lo(0), up(5)], [lo(1), up(6)], [lo(2), up(3)], [lo(3), up(4)]
    )
    rules_hit = {v.rule for v in check_partition(p, finest, vishik)}
    assert "R-VISHIK" in rules_hit
    # dim - 2 j_3 - j_4 = 0 has no expansion: that shell requires no positions
    q = prof(10, 5, 0)
    report = check_partition(q, MdtPartition.of(q, forced_connections(q)), vishik)
    assert not any("j_3" in v.witness for v in report)


def test_vishik_positions_match_remainder_formula():
    # oracle: the k-th position is (m_val - T_k) / 2 + j_{t-1}, with the
    # suffix alternating sums T_k = 2^{n_k} - 2^{n_{k+1}} + ... summed literally
    checked = 0
    for r in range(1, 11):
        for s in range(9):
            for pattern in pattern_enumerate(r, s):
                p = prof(2 * r + s, r, s, pattern)
                expected = {}
                for t in range(1, p.height):
                    m_val = p.dim - 2 * pattern[t - 1] - pattern[t]
                    if m_val < 1:
                        continue
                    n = alternating_2adic(m_val).n
                    positions = []
                    for k in range(1, len(n) + 1):
                        tail = sum((-1) ** (u - k + 1) * (1 << n[u]) for u in range(k - 1, len(n)))
                        pos = (m_val - tail) // 2 + pattern[t - 1]
                        if 0 <= pos < r:
                            positions.append((pos, k))
                    expected[pattern[t - 1]] = (t, tuple(positions))
                assert mdt._compile(p).vishik == expected
                checked += 1
    assert checked > 1000


# -- closed-form generators ------------------------------------------------------------


def test_mdt_height_one_examples():
    assert mdt_height_one(P22) == blocks(P22, [lo(0), up(3)], [lo(1), up(4)])
    p1 = prof(5, 1, 3)
    assert mdt_height_one(p1) == blocks(p1, [lo(0), up(3)])
    with pytest.raises(NotHeightOne):
        mdt_height_one(prof(8, 3, 2, [0, 1, 3]))


def test_height_one_inside_enumeration():
    for dim, r, s in [(5, 1, 3), (7, 3, 1), (6, 2, 2), (8, 4, 0)]:
        p = prof(dim, r, s, [0, r])
        assert mdt_height_one(p) in enumerate_mdt(p)


def test_vpn_assumed_contradicts_pattern():
    # asserting VPN-ness on a profile whose pattern lacks m is contradictory:
    # every partition then carries the "m not in pattern" violation
    p = prof(10, 3, 4, [0, 1, 3])
    rules = RuleSet.proven().enable("R-VPN")
    assert enumerate_mdt(p, rules) == ()
    assert mdt._count_mdt(p, rules) == 0
    part = enumerate_mdt(p)[0]
    assert any(v.rule == "R-VPN" for v in check_partition(p, part, rules))
    # asserting it where r + s > 2^n is reported, not a crash
    q = prof(4, 1, 2)
    assert check_partition(q, mdt_height_one(q), rules) == (
        Violation("R-VPN", "r + s = 3 exceeds 2^n = 2"),
    )


def test_mdt_pfister_neighbour_pure():
    p = prof(8, 4, 0, [0, 4])  # a 3-fold general Pfister profile: r = m = 4
    part = mdt_pfister_neighbour(p)
    assert part == mdt_height_one(p)
    with pytest.raises(ArityMismatch):
        mdt_pfister_neighbour(p, mdt_height_one(P22))


def test_mdt_pfister_neighbour_assembled():
    # dim 10 = 2^3 + 2, type (4,2): complementary form is the (2,2) profile
    p = prof(10, 4, 2, [0, 2, 4])
    part = mdt_pfister_neighbour(p, mdt_height_one(P22))
    assert part == blocks(
        p, [lo(0), up(7)], [lo(1), up(8)], [lo(2), up(5)], [lo(3), up(6)]
    )
    # cross-check: the assembled partition is among the enumerated ones
    assert part in enumerate_mdt(p)
    assert check_partition(p, part) == ()


def test_mdt_pfister_neighbour_errors():
    with pytest.raises(NotNeighbourEligible):
        mdt_pfister_neighbour(prof(12, 3, 6, [0, 1, 3]))  # r + s > 2^n
    with pytest.raises(NotNeighbourEligible, match="i_1 = 1"):
        mdt_pfister_neighbour(prof(4, 2, 0, [0, 1, 2]))  # dim 4 = 2^1 + 2
    p = prof(10, 4, 2, [0, 2, 4])
    with pytest.raises(ArityMismatch):
        mdt_pfister_neighbour(p)  # r > m needs the inner partition
    inner_wrong = mdt_height_one(prof(5, 1, 3))
    with pytest.raises(ArityMismatch):
        mdt_pfister_neighbour(p, inner_wrong)


def test_mdt_pfister_neighbour_passes_checker_on_sweep():
    # without inner (r = m) on every r <= 8, s <= 8 profile: each partition
    # returned passes the proven checker, and the 16 that do are all kept
    returned = []
    for r in range(1, 9):
        for s in range(9):
            for pattern in pattern_enumerate(r, s):
                p = mk_profile(2 * r + s, r, s, pattern)
                try:
                    part = mdt_pfister_neighbour(p)
                except (NotNeighbourEligible, ArityMismatch):
                    continue
                assert check_partition(p, part) == (), str(p)
                returned.append(p)
    assert len(returned) == 16


def test_mdt_strongly_excellent_example():
    p, part = mdt_strongly_excellent([4, 2], 1)
    expected = [(lo(i), up(7 + i)) for i in range(5)] + [(lo(5), up(6))]
    assert part == MdtPartition.of(p, expected)
    assert check_partition(p, part) == ()


def test_mdt_strongly_excellent_reads_n_list_once():
    # a generator gives what its list gives: the exponents are read once
    for n_list, s in [([4, 2], 0), ([4, 2], 1), ([3, 1], 0)]:
        assert mdt_strongly_excellent(iter(n_list), s) == mdt_strongly_excellent(n_list, s)
    assert len(mdt_strongly_excellent((n for n in [4, 2]), 0)[1].blocks) == 6


def test_mdt_strongly_excellent_rejects_non_int_exponents():
    # read once and never coerced: (3.7, 1) is not the form of (3, 1)
    for n_list in ([3.7, 1], ["3", 1], iter([3, True])):
        with pytest.raises(ConstraintViolated, match="must be ints"):
            mdt_strongly_excellent(n_list, 0)


def test_mdt_strongly_excellent_pfister():
    for k in (2, 3):
        p, part = mdt_strongly_excellent([k + 1], 0)
        assert part == mdt_height_one(p)


def test_mdt_strongly_excellent_small_inside_enumeration():
    p, part = mdt_strongly_excellent([3, 1], 0)  # dim 6, r = 3
    assert part in enumerate_mdt(p)


def test_generators_unique_under_proven_rules():
    # in these cases the closed form is the only partition left standing
    inner = mdt_height_one(prof(4, 1, 2, [0, 1]))
    p = prof(12, 5, 2, [0, 4, 5])
    assert enumerate_mdt(p) == (mdt_pfister_neighbour(p, inner),)
    for n_list, s in [([4, 2], 1), ([4, 2], 0)]:
        sx_profile, sx = mdt_strongly_excellent(n_list, s)
        assert enumerate_mdt(sx_profile) == (sx,)


def test_mdt_isotropic_lift():
    inner = mdt_height_one(P22)
    lifted = mdt_isotropic_lift(1, inner, P22)
    assert lifted.r == 3 and lifted.d_x == 6
    assert lifted.blocks == (
        (lo(0),),
        (lo(1), up(4)),
        (lo(2), up(5)),
        (up(6),),
    )
    singletons = [b for b in lifted.blocks if len(b) == 1]
    assert len(singletons) == 2
    with pytest.raises(ValueError):
        mdt_isotropic_lift(0, inner, P22)


def test_mdt_isotropic_lift_singleton_count():
    inner = mdt_height_one(prof(8, 4, 0, [0, 4]))
    for w in (1, 2, 3):
        lifted = mdt_isotropic_lift(w, inner, prof(8, 4, 0, [0, 4]))
        assert sum(1 for b in lifted.blocks if len(b) == 1) == 2 * w


@pytest.mark.parametrize(
    "call, error, args",
    [
        (lambda: mdt_height_one(P22).block_of(lo(2)), KeyError, (lo(2),)),
        (
            lambda: mdt_isotropic_lift(1, mdt_height_one(P22), prof(8, 4, 0, [0, 4])),
            ArityMismatch,
            ("inner partition does not match the inner profile",),
        ),
    ],
    ids=["block-of-outsider", "lift-mismatched-inner"],
)
def test_bad_operands_raise(call, error, args):
    with pytest.raises(error) as exc:
        call()
    assert exc.value.args == args


@pytest.mark.parametrize(
    "value, text",
    [(mdt_height_one(P22), "{0_lo, 3^up} | {1_lo, 4^up}"), (P22, "(6, (2,2), [0, 2])")],
    ids=["partition", "profile"],
)
def test_str_forms(value, text):
    assert str(value) == text


# -- shell diagrams -------------------------------------------------------------------


def _oracle_nodes(diagram):
    """Every node (i, row, side, shell) of the pyramid, one shell at a time:
    (i, j) with j_{t-1} <= i < j_t - j, drawn on the left and on the right."""
    p = diagram.pattern
    nodes = []
    for t in range(1, len(p)):
        for j in range(p[t] - p[t - 1]):
            for i in range(p[t - 1], p[t] - j):
                for side in ("left", "right"):
                    nodes.append((i, j, side, t))
    return nodes


def _oracle_column(diagram, i, side):
    if side == "left":
        return i
    return 2 * diagram.r + _GAP - 1 - i


def _oracle_ascii(diagram):
    """The ASCII text as rendered by one scan over every node per row."""
    nodes = _oracle_nodes(diagram)
    max_row = max(row for _, row, _, _ in nodes)
    r = diagram.r
    width = 2 * r + _GAP
    rows = []
    for j in range(max_row, -1, -1):
        line = [" "] * width
        for i, row, side, _ in nodes:
            if row == j:
                line[_oracle_column(diagram, i, side)] = "*"
        rows.append("".join(line).rstrip())
    label = [" "] * width
    p = diagram.pattern
    for t in range(1, len(p)):
        left_center = (p[t - 1] + p[t] - 1) // 2
        right_center = ((2 * r + _GAP - p[t]) + (2 * r + _GAP - 1 - p[t - 1])) // 2
        for center in (left_center, right_center):
            for offset, ch in enumerate(str(t - 1)):
                if 0 <= center + offset < width:
                    label[center + offset] = ch
    rows.append("".join(label).rstrip())
    return "\n".join(rows) + "\n"


def _oracle_svg(diagram):
    """The SVG as rendered from the sorted node list."""
    nodes = _oracle_nodes(diagram)
    max_row = max(row for _, row, _, _ in nodes)
    scale = 20
    width = (2 * diagram.r + _GAP + 1) * scale
    height = (max_row + 3) * scale
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    for i, row, side, _ in sorted(
        nodes, key=lambda n: (n[1], _oracle_column(diagram, n[0], n[2]))
    ):
        cx = (_oracle_column(diagram, i, side) + 1) * scale
        cy = (max_row - row + 1) * scale
        parts.append('<circle cx="%d" cy="%d" r="6" fill="black"/>' % (cx, cy))
    p = diagram.pattern
    label_y = (max_row + 2) * scale
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


def test_shell_diagram_structure():
    d = shell_diagram(ShellPattern(12, [0, 2, 8, 12]))
    assert d.base_widths() == (2, 6, 4)
    assert sum(1 for n in _oracle_nodes(d) if n[1] == 0) == 24
    assert {n[3] for n in _oracle_nodes(d)} == {1, 2, 3}
    rows = render_ascii(d).splitlines()
    assert rows[-2].count("*") == 24  # row 0, drawn just above the labels
    assert d.max_row == 5  # tallest pyramid has base width 6
    assert len(rows) == d.max_row + 2


def test_shell_diagram_height_one():
    d = shell_diagram(P22)
    assert d.base_widths() == (2,)
    assert sum(1 for n in _oracle_nodes(d) if n[1] == 0) == 4
    assert render_ascii(d).splitlines()[-2].count("*") == 4


def test_shell_diagram_golden():
    diagram = shell_diagram(ShellPattern(12, [0, 2, 8, 12]))
    assert render_ascii(diagram) == (GOLDEN / "shell_r12.txt").read_text()
    assert render_svg(diagram) == (GOLDEN / "shell_r12.svg").read_text()


def test_render_ascii_matches_row_scan():
    rng = random.Random(2026)
    for r in range(1, 41):
        for _ in range(3):
            inner = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
            diagram = shell_diagram(ShellPattern(r, [0] + inner + [r]))
            assert render_ascii(diagram) == _oracle_ascii(diagram), (r, diagram.pattern)
            assert render_svg(diagram) == _oracle_svg(diagram), (r, diagram.pattern)


def test_render_deterministic():
    shape = ShellPattern(12, [0, 2, 8, 12])
    assert render_svg(shell_diagram(shape)) == render_svg(shell_diagram(shape))
    assert render_ascii(shell_diagram(shape)) == render_ascii(shell_diagram(shape))


def test_shell_diagram_accepts_profiles():
    d = shell_diagram(prof(8, 3, 2, [0, 1, 3]))
    assert d.base_widths() == (1, 2)
    label_row = render_ascii(d).splitlines()[-1]
    assert "0" in label_row and "1" in label_row


# -- structural invariants over enumerated outputs ---------------------------------------


def test_enumerated_partitions_structure():
    for r, s in [(2, 2), (3, 2), (4, 0), (4, 2)]:
        for pattern in pattern_enumerate(r, s):
            p = prof(2 * r + s, r, s, pattern)
            pairs = [(lo(e.a), up(e.b)) for e in excellent_pairs(p)]
            for part in enumerate_mdt(p):
                for block in part.blocks:
                    assert len(block) % 2 == 0
                zero_block = part.block_of(lo(0))
                ups = [sym.index for sym in zero_block if sym.kind == "up"]
                assert max(ups) == p.izhboldin_dim - 1
                # shift orbits: blocks based in a shell come in full orbits
                by_a = {}
                for block in part.blocks:
                    los = [sym.index for sym in block if sym.kind == "lo"]
                    if los:
                        by_a[min(los)] = block
                for t in range(1, p.height + 1):
                    lo_b, hi_b = p.pattern[t - 1], p.pattern[t]
                    members = {a for a in by_a if lo_b <= a < hi_b}
                    if members:
                        assert members == set(range(lo_b, hi_b))
