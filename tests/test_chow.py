"""Tests for the cycle ring: multiplication table, Steenrod operations, notation."""

import gc
import json
import math
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from quadmdt import chow, corr
from quadmdt.chow import (
    Cycle,
    FactorSymbol,
    basis_tuples,
    binom_mod2,
    cycle_from_text,
    cycle_to_text,
    degree,
    external_product,
    h,
    identity_cycle,
    l,
    mul,
    mul_factor,
    point_cycle,
    steenrod,
    steenrod_factor,
)
from quadmdt.errors import BoundExceeded, ContextMismatch
from quadmdt.profile import QuadricProfile, mk_profile, pattern_enumerate


def prof(dim, r, s):
    return mk_profile(dim, r, s, [0] + list(range(1, r + 1)))


P632 = prof(8, 3, 2)  # dim 8, r = 3
P630 = prof(6, 3, 0)  # dim 6, r = 3: the exceptional l*l case


def single(profile, sym):
    return Cycle.of_basis((profile,), (sym,))


# r <= 5, s <= 2; includes the exceptional s = 0, odd-r profiles.
SMALL_PROFILES = [prof(2 * r + s, r, s) for r in range(1, 6) for s in range(3)]


def factor_basis(profile):
    indices = range(profile.r)
    return [h(i) for i in indices] + [l(i) for i in indices]


def factor_symbols(profile):
    return st.sampled_from(factor_basis(profile))


def contexts(min_arity, max_arity):
    profiles = st.sampled_from(SMALL_PROFILES)
    return st.lists(profiles, min_size=min_arity, max_size=max_arity).map(tuple)


def terms_over(context):
    return st.lists(st.tuples(*map(factor_symbols, context)), max_size=10)


@st.composite
def cycles(draw, min_arity=1, max_arity=3):
    """A random cycle over a random context of small profiles."""
    context = draw(contexts(min_arity, max_arity))
    return Cycle.of_basis(context, *draw(terms_over(context)))


@st.composite
def cycle_pairs(draw):
    """Two random cycles over one random context of arity 0-3."""
    context = draw(contexts(0, 3))
    a, b = (Cycle.of_basis(context, *draw(terms_over(context))) for _ in range(2))
    return a, b


def every_profile(r_max, s_max):
    """Every profile with r <= r_max, s <= s_max, over all its patterns."""
    for r in range(1, r_max + 1):
        for s in range(s_max + 1):
            for pattern in pattern_enumerate(r, s):
                yield mk_profile(2 * r + s, r, s, list(pattern))


# -- symbols ------------------------------------------------------------------------


def test_factor_symbol_validates():
    for kind, index in (("x", 0), ("H", 0), ("h", -1), ("l", -2)):
        with pytest.raises(ValueError):
            FactorSymbol(kind, index)
    assert repr(h(0)) == "FactorSymbol(kind='h', index=0)"
    assert str(l(12)) == "l12"


def test_factor_symbols_order_as_kind_index():
    # hash, equality and order are the (kind, index) tuple's
    symbols = sorted(
        {sym for p in every_profile(4, 4) for sym in factor_basis(p)},
        key=lambda sym: (sym.kind, sym.index),
    )
    assert len(symbols) == 8
    assert sorted(reversed(symbols)) == symbols
    for a in symbols:
        key_a = (a.kind, a.index)
        assert a == key_a and hash(a) == hash(key_a)
        assert a == FactorSymbol(a.kind, a.index)
        for b in symbols:
            key_b = (b.kind, b.index)
            assert (a == b, a < b, a <= b) == (key_a == key_b, key_a < key_b, key_a <= key_b)


# -- multiplication table ----------------------------------------------------------


def test_table_h_times_h():
    assert mul_factor(h(1), h(1), P632) == h(2)
    assert mul_factor(h(2), h(1), P632) is None


def test_table_h_times_l():
    assert mul_factor(h(2), l(2), P632) == l(0)
    assert mul_factor(l(2), h(2), P632) == l(0)
    assert mul_factor(h(2), l(1), P632) is None


def test_table_l_times_l_exceptional():
    assert mul_factor(l(2), l(2), P630) == l(0)  # dim 6 == 2 mod 4, middle index
    assert mul_factor(l(2), l(2), P632) is None  # dim 8, s = 2
    assert mul_factor(l(1), l(2), P630) is None


def test_mul_componentwise_example():
    ctx = (P632, P632)
    a = Cycle.of_basis(ctx, (h(0), l(1)))
    b = Cycle.of_basis(ctx, (h(1), h(0)))
    assert mul(a, b) == Cycle.of_basis(ctx, (h(1), l(1)))


def test_mul_identity_and_f2_sum():
    ctx = (P632,)
    x = Cycle.of_basis(ctx, (h(1),), (l(2),))
    assert mul(x, identity_cycle(ctx)) == x
    a = Cycle.of_basis(ctx, (h(1),), (h(2),))
    b = single(P632, h(1))
    # h1*h1 = h2 and h2*h1 = 0
    assert mul(a, b) == single(P632, h(2))


def test_mul_context_mismatch():
    with pytest.raises(ContextMismatch):
        mul(single(P632, h(0)), single(P630, h(0)))


def _mul_pairwise(a, b):
    """The bilinear law term by term: every term of a against every term of b."""
    support = set()
    for ea in a.support:
        for eb in b.support:
            out = []
            for sa, sb, prof_t in zip(ea, eb, a.context):
                prod = mul_factor(sa, sb, prof_t)
                if prod is None:
                    break
                out.append(prod)
            else:
                support.symmetric_difference_update({tuple(out)})
    return Cycle(a.context, frozenset(support))


def full(context):
    """The sum of every basis tuple of the context."""
    return Cycle.of_basis(context, *basis_tuples(context))


# P630 holds the exceptional l2 * l2 = l0; the full basis pairs every symbol.
FULL = full((P630, P632))
# alone, its l2 * h2 and l2 * l2 are both l0 and cancel in one last-factor sum
FULL_630 = full((P630,))
UNIT_0, ZERO_0 = identity_cycle(()), Cycle.zero(())
# dim 82 = 2 (mod 4), s = 0: l40 * l40 = l0, and a mask has 82 bits
P82 = prof(82, 41, 0)


# sparse, P82 at the head: l40 l40 and l40 h40 are both l0 and cancel in one
# sum above the last factor
SPARSE_82 = (
    Cycle.of_basis((P82, P632), (l(40), h(0)), (h(3), l(1)), (l(40), l(2)), (h(40), h(1))),
    Cycle.of_basis((P82, P632), (l(40), h(0)), (h(40), h(0)), (l(7), l(2)), (h(0), h(2))),
)
# and P82 in the middle, where l40 l40 = l0 feeds a level below
SPARSE_82_MIDDLE = (
    Cycle.of_basis((P632, P82, P630), (h(1), l(40), l(2)), (h(1), h(2), h(0))),
    Cycle.of_basis((P632, P82, P630), (l(2), l(40), h(0)), (h(0), h(40), l(2)), (h(0), l(38), h(1))),
)


def seeded_dense(seed, context=(P630, P632, P630)):
    """Half the basis of the context, drawn with a fixed seed."""
    basis = list(basis_tuples(context))
    return Cycle.of_basis(context, *random.Random(seed).sample(basis, len(basis) // 2))


@given(cycle_pairs())
@example((FULL, FULL))
@example((UNIT_0, UNIT_0))
@example((UNIT_0, ZERO_0))
@example((ZERO_0, ZERO_0))
@example((FULL_630, FULL_630))
@example((seeded_dense(1), seeded_dense(2)))
@example((full((P82,)), full((P82,))))
@example((seeded_dense(3, (P82,)), seeded_dense(4, (P82,))))
# the exceptional factor last: l2 * h2 and l2 * l2 cancel inside one mask
@example((full((P632, P630)), full((P632, P630))))
@example((full((P632, prof(2, 1, 0))), full((P632, prof(2, 1, 0)))))  # last r = 1
@example(SPARSE_82)
@example(SPARSE_82_MIDDLE)
def test_mul_matches_pairwise_oracle(pair):
    a, b = pair
    assert mul(a, b) == _mul_pairwise(a, b)


@given(cycle_pairs(), st.integers(0, 6))
@example((FULL, FULL), 3)
def test_results_match_validating_constructor(pair, j):
    # sums, products and squares build their results unvalidated: each must
    # be the cycle that the validating constructor builds from its parts
    a, b = pair
    for result in (a + b, mul(a, b), steenrod(j, a), steenrod(j, a * b)):
        assert type(result.context) is tuple and type(result.support) is frozenset
        assert result == Cycle(result.context, result.support)


def test_factor_partners_match_mul_factor_scan():
    # mul reads the table in closed form above the last factor: the product
    # of two single terms with their symbols at the first factor is the scan's
    for p in every_profile(6, 4):
        context, basis = (p, p), factor_basis(p)
        for sym in basis:
            for b in basis:
                prod = mul_factor(sym, b, p)
                expected = Cycle.of_basis(context, *([(prod, h(0))] if prod is not None else []))
                got = mul(Cycle.of_basis(context, (sym, h(0))), Cycle.of_basis(context, (b, h(0))))
                assert got == expected, (p, sym, b)


def test_mask_product_matches_mul_factor_scan():
    # the last factor's mask product, in both orders: on every symbol pair,
    # and on each symbol against the whole basis, the F2 sum of the scan
    for p in every_profile(6, 4):
        basis = factor_basis(p)
        product, mask = chow._mask_product(p), {b: chow._mask_tree([(b,)], p.r) for b in basis}
        whole = chow._mask_tree([(b,) for b in basis], p.r)
        for sym in basis:
            scan = [(b, mul_factor(sym, b, p)) for b in basis]
            odd = set()
            for b, prod in scan:
                expected = [] if prod is None else [prod]
                for got in (product(mask[sym], mask[b]), product(mask[b], mask[sym])):
                    assert list(chow._symbols(got, p.r)) == expected, (p, sym, b)
                odd ^= set(expected)
            for got in (product(mask[sym], whole), product(whole, mask[sym])):
                assert set(chow._symbols(got, p.r)) == odd, (p, sym)


# -- ring axioms on small instances --------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_ring_axioms_single_factor(r, s):
    p = prof(2 * r + s, r, s)
    ctx = (p,)
    elements = [Cycle.of_basis(ctx, e) for e in basis_tuples(ctx)]
    one = identity_cycle(ctx)
    for a in elements:
        assert mul(a, one) == a
        for b in elements:
            assert mul(a, b) == mul(b, a)
            for c in elements:
                assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_ring_axioms_two_factors():
    # two-factor contexts, including a mixed one
    q = prof(5, 2, 1)
    for ctx in [(q, q), (q, prof(4, 1, 2))]:
        elements = [Cycle.of_basis(ctx, e) for e in basis_tuples(ctx)]
        one = identity_cycle(ctx)
        for a in elements:
            assert mul(a, one) == a
            for b in elements:
                assert mul(a, b) == mul(b, a)
                for c in elements:
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_grading_mul_adds_codimension():
    for r, s in [(2, 0), (3, 1), (3, 2)]:
        p = prof(2 * r + s, r, s)
        ctx = (p,)
        for ea in basis_tuples(ctx):
            for eb in basis_tuples(ctx):
                a, b = Cycle.of_basis(ctx, ea), Cycle.of_basis(ctx, eb)
                out = mul(a, b)
                if out:
                    assert out.dimension() == a.dimension() + b.dimension() - p.d_x


# -- degree -------------------------------------------------------------------------


def test_degree_examples():
    ctx2 = (P632, P632)
    assert degree(point_cycle(ctx2)) == 1
    assert degree(single(P632, h(1))) == 0
    mixed = Cycle.of_basis((P632,), (l(0),), (l(1),))
    assert degree(mixed) == 1


def test_unit_and_point_read_context_once():
    # a generator context gives what its tuple gives
    ctx = (P632, P632)
    assert identity_cycle(iter(ctx)) == identity_cycle(ctx)
    assert point_cycle(p for p in ctx) == point_cycle(ctx)
    assert identity_cycle(iter(ctx)).arity == 2


# -- external products ----------------------------------------------------------------


def test_external_product_examples():
    a = single(P632, h(0))
    b = single(P632, l(2))
    ab = external_product(a, b)
    assert ab == Cycle.of_basis((P632, P632), (h(0), l(2)))
    c = Cycle.of_basis((P632,), (h(0),), (h(1),))
    cb = external_product(c, point_cycle((P632,)))
    assert cb == Cycle.of_basis((P632, P632), (h(0), l(0)), (h(1), l(0)))
    assert not external_product(Cycle.zero((P632,)), b)


# -- Steenrod operations ----------------------------------------------------------------


def test_steenrod_identity_at_zero():
    ctx = (P632, P632)
    for e in list(basis_tuples(ctx))[:20]:
        c = Cycle.of_basis(ctx, e)
        assert steenrod(0, c) == c


def test_steenrod_examples_dim8():
    assert steenrod(1, single(P632, h(1))) == single(P632, h(2))
    assert not steenrod(1, single(P632, l(1)))  # C(6,1) is even


def test_steenrod_raises_codimension():
    for r, s in [(3, 0), (3, 2), (4, 1)]:
        p = prof(2 * r + s, r, s)
        ctx = (p,)
        for e in basis_tuples(ctx):
            c = Cycle.of_basis(ctx, e)
            for j in range(1, 2 * r):
                out = steenrod(j, c)
                if out:
                    assert out.dimension() == c.dimension() - j


def test_cartan_formula_exhaustive():
    for r in (1, 2, 3, 4):
        for s in (0, 1, 2):
            p = prof(2 * r + s, r, s)
            ctx = (p,)
            elements = [Cycle.of_basis(ctx, e) for e in basis_tuples(ctx)]
            for a in elements:
                for b in elements:
                    for j in range(2 * r + 1):
                        lhs = steenrod(j, mul(a, b))
                        rhs = Cycle.zero(ctx)
                        for j1 in range(j + 1):
                            rhs = rhs + mul(steenrod(j1, a), steenrod(j - j1, b))
                        assert lhs == rhs, (p, str(a), str(b), j)


def test_steenrod_multifactor_matches_cartan_split():
    # S^j(a x b) = sum S^{j1}(a) x S^{j2}(b)
    p = P632
    for ea in basis_tuples((p,)):
        for eb in basis_tuples((p,)):
            a, b = Cycle.of_basis((p,), ea), Cycle.of_basis((p,), eb)
            for j in range(4):
                lhs = steenrod(j, external_product(a, b))
                rhs = Cycle.zero((p, p))
                for j1 in range(j + 1):
                    rhs = rhs + external_product(steenrod(j1, a), steenrod(j - j1, b))
                assert lhs == rhs


def _compositions_uncapped(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions_uncapped(total - head, parts - 1):
            yield (head,) + rest


def _steenrod_uncapped(j, c):
    """S^j summed over every composition of j, with no cap on the parts."""
    support = set()
    for elt in c.support:
        for split in _compositions_uncapped(j, c.arity):
            out = []
            for jt, sym, prof_t in zip(split, elt, c.context):
                res = steenrod_factor(jt, sym, prof_t)
                if res is None:
                    break
                out.append(res)
            else:
                support.symmetric_difference_update({tuple(out)})
    return Cycle(c.context, frozenset(support))


@given(cycles(min_arity=0), st.integers(min_value=0, max_value=16))
# equal r, different dim: S^1 l1 is l0 over dim 5 and 0 over dim 4, so the
# two factors must not share their squares
@example(Cycle.of_basis((prof(5, 2, 1), prof(4, 2, 0)), (l(1), l(1))), 1)
def test_steenrod_matches_uncapped_oracle(c, j):
    assert steenrod(j, c) == _steenrod_uncapped(j, c)


def test_factor_squares_match_steenrod_factor_scan():
    # The scan runs well past r - 1: no square beyond the cap may be missed.
    # S^j (sym x h0) = S^j sym x h0, and the second factor's cap leaves room
    # for every j of the scan, so steenrod lists sym's squares past its cap.
    room = prof(68, 34, 0)
    for p in every_profile(6, 4):
        context = (p, room)
        for sym in factor_basis(p):
            term = Cycle.of_basis(context, (sym, h(0)))
            for j in range(2 * p.dim + 2):
                res = steenrod_factor(j, sym, p)
                expected = Cycle.of_basis(context, *([(res, h(0))] if res is not None else []))
                assert steenrod(j, term) == expected, (p, sym, j)


def test_steenrod_zero_beyond_part_caps():
    # Every part at its cap r - 1 keeps l1*l1*l2 alive (C(3,1), C(3,1), C(6,2)
    # are odd), so the bound sum(r - 1) is attained; one more kills everything.
    p, q = prof(5, 2, 1), prof(9, 3, 3)
    ctx = (p, p, q)
    full = Cycle.of_basis(ctx, *basis_tuples(ctx))
    top = sum(x.r - 1 for x in ctx)
    assert steenrod(top, full) == _steenrod_uncapped(top, full)
    assert (l(0), l(0), l(0)) in steenrod(top, full).support
    assert _steenrod_uncapped(top + 1, full) == Cycle.zero(ctx)
    for j in (top + 1, 10**6):
        assert steenrod(j, full) == Cycle.zero(ctx)
    p622 = prof(6, 2, 2)
    ctx = (p622, p622, p622)
    assert steenrod(10**6, cycle_from_text("h0*h0*h0", ctx)) == Cycle.zero(ctx)


def test_steenrod_frontier_bound(monkeypatch):
    # S^30 of h63^4 at r = 128: levels of 31, 496, 5,456 and 5,456 entries,
    # all 5,456 summands distinct
    p = prof(256, 128, 0)
    ctx = (p,) * 4
    c = cycle_from_text("h63*h63*h63*h63", ctx)
    monkeypatch.setattr(chow, "_MAX_FRONTIER", 5456)
    assert len(steenrod(30, c).support) == 5456
    monkeypatch.setattr(chow, "_MAX_FRONTIER", 5455)
    with pytest.raises(BoundExceeded):
        steenrod(30, c)


def _sparse(rng, context, n):
    """n terms, each symbol h or l with its index drawn uniformly below r."""
    return Cycle.of_basis(
        context,
        *(tuple(rng.choice((h, l))(rng.randrange(p.r)) for p in context) for _ in range(n)),
    )


@pytest.mark.parametrize("op", ["mul", "steenrod"])
def test_mul_and_steenrod_cost_follows_the_support_not_r(op):
    # a fresh profile at r = 20,000: a table over the 2r symbols of a factor
    # would take seconds, the closed forms follow the support
    r = 20_000
    p, rng = QuadricProfile(2 * r, r, 0, tuple(range(r + 1))), random.Random(36)
    if op == "mul":
        args, call, oracle = (_sparse(rng, (p, p), 200), _sparse(rng, (p, p), 2)), mul, _mul_pairwise
    else:
        args, call, oracle = (3, _sparse(rng, (p, p), 50)), steenrod, _steenrod_uncapped
    start = time.perf_counter()
    out = call(*args)
    assert time.perf_counter() - start < 0.1
    assert out == oracle(*args)


def test_mul_steenrod_and_compose_leave_no_cyclic_garbage():
    # no op keeps a table in the profile's memo or a closure that refers to
    # itself, so once a call on a fresh profile returns and the profile is
    # dropped, everything is freed at once, not at the next collection
    calls = {
        "mul over X": lambda p: mul(full((p,)), full((p,))),
        "mul over X^2": lambda p: mul(full((p, p)), full((p, p))),
        "steenrod": lambda p: steenrod(3, full((p, p))),
        "compose": lambda p: corr.compose(corr.diagonal_class(p), corr.diagonal_class(p)),
    }
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            p = prof(10, 5, 0)
            assert call(p) and p._memo == {}, name
            del p
            assert gc.collect() == 0, name
    finally:
        gc.enable()


# -- binomials mod 2 -----------------------------------------------------------------


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_lucas_matches_pascal(n, k):
    assert binom_mod2(n, k) == math.comb(n, k) % 2 if k <= n else binom_mod2(n, k) == 0


def test_lucas_exhaustive_small():
    for n in range(65):
        for k in range(65):
            expected = math.comb(n, k) % 2 if k <= n else 0
            assert binom_mod2(n, k) == expected


# -- homogeneity flags ----------------------------------------------------------------


def test_mixed_cycles_flagged():
    c = Cycle.of_basis((P632,), (h(0),), (h(1),))
    assert c.dimension() is None
    assert not c.is_homogeneous()
    assert Cycle.zero((P632,)).is_homogeneous()
    assert single(P632, l(2)).dimension() == 2
    assert single(P632, h(1)).dimension() == P632.d_x - 1


def test_index_bounds_enforced():
    with pytest.raises(ContextMismatch):
        single(P632, h(3))
    with pytest.raises(ContextMismatch):
        Cycle.of_basis((P632, P632), (h(0),))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: Cycle.of_basis((P632,), (h(1),)) + Cycle.of_basis((P632, P632), (h(1), h(0))),
            ContextMismatch,
            "cannot add cycles over different contexts",
        ),
        (lambda: steenrod(-1, Cycle.of_basis((P632,), (h(1),))), ValueError, "j must be >= 0"),
    ],
    ids=["add-across-contexts", "negative-j"],
)
def test_bad_operands_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [("h", 0), 0, "h0"])
def test_non_symbol_entry_rejected(entry):
    # a plain (kind, index) tuple equals its symbol, but is not one
    with pytest.raises(ContextMismatch, match="is not a FactorSymbol"):
        Cycle.of_basis((P632,), (entry,))
    with pytest.raises(ContextMismatch, match="is not a FactorSymbol"):
        Cycle((P632,), frozenset({(entry,)}))


# -- text and JSON round trips ----------------------------------------------------------


def test_text_notation_round_trip():
    ctx = (P632, P632)
    c = Cycle.of_basis(ctx, (h(0), l(2)), (h(1), l(1)))
    text = cycle_to_text(c)
    assert text == "h0*l2 + h1*l1"
    assert cycle_from_text(text, ctx) == c
    assert cycle_from_text("0", ctx) == Cycle.zero(ctx)
    assert cycle_to_text(Cycle.zero(ctx)) == "0"


def test_text_notation_errors():
    with pytest.raises(ValueError):
        cycle_from_text("h0", (P632, P632))
    with pytest.raises(ValueError):
        cycle_from_text("x3", (P632,))


def test_cycle_json_round_trip():
    ctx = (P632, P630)
    c = Cycle.of_basis(ctx, (h(1), l(0)), (l(2), h(2)))
    data = c.to_json_dict()
    assert data["support"][0][0]["kind"] in ("H", "L")
    assert Cycle.from_json_dict(data) == c


def test_cycle_json_rejects_unknown_keys():
    # only context and support at the top level, kind and i in an entry; a
    # cycle has no split, which a correspondence adds
    data = Cycle.of_basis((P632, P630), (h(1), l(0))).to_json_dict()
    entry = dict(data["support"][0][0], x=1)
    for key, bad in (
        ("extra", dict(data, extra=5)),
        ("split", dict(data, split=1)),
        ("x", dict(data, support=[[entry, data["support"][0][1]]])),
    ):
        with pytest.raises(ContextMismatch, match=r"unknown keys \['%s'\]" % key):
            Cycle.from_json_dict(bad)


@given(cycles())
def test_cycle_json_round_trip_random(c):
    data = json.loads(json.dumps(c.to_json_dict()))
    assert Cycle.from_json_dict(data) == c


@given(cycles())
def test_text_notation_round_trip_random(c):
    assert cycle_from_text(cycle_to_text(c), c.context) == c
