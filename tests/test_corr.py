"""Tests for composition, derivatives, essential parts and isotropic reduction."""

import itertools
import json
import random
import time

import pytest
from hypothesis import example, given, strategies as st

from quadmdt.chow import Cycle, FactorSymbol, basis_tuples, h, l, mul_factor
from quadmdt.corr import (
    Correspondence,
    cap,
    compose,
    contains,
    derivative,
    diagonal_class,
    diagonal_mult,
    essential,
    reduce_f,
    reduce_g,
    transpose,
)
from quadmdt.errors import ContextMismatch, DegreeUnderflow, InvalidLevel
from quadmdt.mdt import alpha_cycle, lambda_set
from quadmdt.profile import QuadricProfile, mk_profile, pattern_enumerate


def prof(dim, r, s, pattern=None):
    if pattern is None:
        pattern = [0] + list(range(1, r + 1))
    return mk_profile(dim, r, s, pattern)


def corr2(profile, *elements):
    return Correspondence(Cycle.of_basis((profile, profile), *elements), 1)


def basis_corrs(profile):
    ctx = (profile, profile)
    return [Correspondence(Cycle.of_basis(ctx, e), 1) for e in basis_tuples(ctx)]


# r <= 3, s <= 2; includes the exceptional s = 0, odd-r profiles (2,1,0) and (6,3,0).
SMALL_PROFILES = [prof(2 * r + s, r, s) for r in range(1, 4) for s in range(3)]


def factor_basis(profile):
    return [h(i) for i in range(profile.r)] + [l(i) for i in range(profile.r)]


def contexts(min_size, max_size):
    profiles = st.sampled_from(SMALL_PROFILES)
    return st.lists(profiles, min_size=min_size, max_size=max_size).map(tuple)


def symbols(context):
    return st.tuples(*(st.sampled_from(factor_basis(p)) for p in context))


def terms(context, max_size=8):
    return st.lists(symbols(context), max_size=max_size)


def _middle_degree(mid_f, mid_g, middle) -> int:
    # deg of the product of two basis tuples: 1 iff every factor product is l_0.
    for sa, sb, p in zip(mid_f, mid_g, middle):
        prod = mul_factor(sa, sb, p)
        if prod is None or prod != l(0):
            return 0
    return 1


def _compose_pairwise(f, g):
    """The bilinear law term by term: every f-term against every g-term."""
    middle = f.right_context
    context = f.left_context + g.right_context
    support = set()
    for ef in f.cycle.support:
        left, mid_f = ef[: f.split], ef[f.split :]
        for eg in g.cycle.support:
            mid_g, right = eg[: g.split], eg[g.split :]
            if _middle_degree(mid_f, mid_g, middle):
                support.symmetric_difference_update({left + right})
    return Correspondence(Cycle(context, frozenset(support)), f.split)


def _scan_partners(sym, profile):
    return [b for b in factor_basis(profile) if mul_factor(sym, b, profile) == l(0)]


# -- composition -----------------------------------------------------------------


def test_compose_spec_examples():
    p = prof(5, 2, 1)
    # middle product l1 * h1 = l0, degree 1
    f = corr2(p, (h(0), l(1)))
    g = corr2(p, (h(1), l(1)))
    assert compose(f, g).cycle == Cycle.of_basis((p, p), (h(0), l(1)))
    # middle product l1 * h0 = l1, degree 0
    f2 = corr2(p, (h(0), l(1)))
    g2 = corr2(p, (h(0), h(0)))
    assert not compose(f2, g2)


def test_partners_match_mul_factor_scan():
    # compose reads the partners in closed form: a single middle symbol of f
    # meets a single one of g with degree 1 exactly on the scanned partners
    for r in range(1, 7):
        for s in range(5):
            for pattern in pattern_enumerate(r, s):
                p = prof(2 * r + s, r, s, pattern)
                for sym in factor_basis(p):
                    f = Correspondence(Cycle.of_basis((p,), (sym,)), 0)
                    partners = [
                        b
                        for b in factor_basis(p)
                        if compose(f, Correspondence(Cycle.of_basis((p,), (b,)), 1))
                    ]
                    assert partners == _scan_partners(sym, p), (p, sym)


@st.composite
def composable_pairs(draw):
    left = draw(contexts(0, 2))
    middle = draw(contexts(0, 3))
    right = draw(contexts(0, 2))
    f_terms = draw(terms(left + middle))
    g_terms = draw(terms(middle + right))
    # Random middles rarely pair with degree 1, so give some f-terms a g-term
    # whose middle is dual to theirs.
    paired = []
    if f_terms:
        paired = draw(st.lists(st.sampled_from(f_terms), min_size=1, max_size=4))
    for ef in paired:
        mid = tuple(
            draw(st.sampled_from(_scan_partners(sym, p)))
            for sym, p in zip(ef[len(left) :], middle)
        )
        g_terms.append(mid + draw(symbols(right)))
    f = Correspondence(Cycle.of_basis(left + middle, *f_terms), len(left))
    g = Correspondence(Cycle.of_basis(middle + right, *g_terms), len(middle))
    return f, g


# dim 82 = 2 (mod 4), s = 0: l_40 l_40 = l_0, so l_40 has the partners h^40
# and l_40, here at the head of a sparse middle of two factors.  The middle
# l40 x h1 of f meets both h40 x l1 and l40 x l1 of g, whose equal rights
# cancel; l40 x l0 meets only l40 x h0.
P82 = prof(82, 41, 0)
P52 = prof(5, 2, 1)
SPARSE_82 = (
    Correspondence(
        Cycle.of_basis((P52, P82, P52), (h(0), l(40), h(1)), (l(1), l(40), l(0)), (h(1), h(3), h(0))),
        1,
    ),
    Correspondence(
        Cycle.of_basis(
            (P82, P52, P52),
            (h(40), l(1), h(1)), (l(40), l(1), h(1)), (l(40), h(0), l(1)), (l(3), l(0), h(0)),
        ),
        2,
    ),
)


@given(composable_pairs())
@example(SPARSE_82)
def test_compose_matches_pairwise_oracle(pair):
    f, g = pair
    assert compose(f, g) == _compose_pairwise(f, g)


# dim 10, s = 0: l_4 l_4 = l_0, so l_4 has the two partners h^4 and l_4
EXCEPTIONAL = mk_profile(10, 5, 0, [0, 1, 2, 3, 4, 5])


def _dense_corr(rng, context, split):
    basis = list(basis_tuples(context))
    return Correspondence(Cycle.of_basis(context, *rng.sample(basis, round(0.3 * len(basis)))), split)


@pytest.mark.parametrize(
    "profile, blocks",
    [(prof(2 * r + s, r, s), (1, 1, 1)) for r, s in [(3, 0), (4, 1), (5, 2), (6, 3)]]
    + [(EXCEPTIONAL, blocks) for blocks in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]],
)
def test_compose_matches_pairwise_oracle_dense(profile, blocks):
    # 30 % of the basis on each side: every left tuple of f has many terms, so
    # the rows of compose sum many overlapping sets, whose common terms cancel
    rng = random.Random("compose-dense:%d:%d:%s" % (profile.dim, profile.r, blocks))
    left, middle, right = ((profile,) * k for k in blocks)
    f = _dense_corr(rng, left + middle, len(left))
    g = _dense_corr(rng, middle + right, len(middle))
    assert compose(f, g) == _compose_pairwise(f, g)


@given(st.data())
def test_correspondence_json_round_trip(data):
    context = data.draw(contexts(1, 3))
    x = Correspondence(
        Cycle.of_basis(context, *data.draw(terms(context))),
        data.draw(st.integers(0, len(context))),
    )
    assert Correspondence.from_json_dict(json.loads(json.dumps(x.to_json_dict()))) == x


def test_compose_middle_mismatch():
    p, q = prof(5, 2, 1), prof(7, 3, 1)
    with pytest.raises(ContextMismatch):
        compose(corr2(p, (h(0), l(0))), corr2(q, (h(0), l(0))))


P832, P51 = prof(8, 3, 2), prof(5, 2, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: Correspondence(Cycle.of_basis((P832, P832), (h(0), l(0))), 3),
            ContextMismatch,
            "split 3 outside [0, 2]",
        ),
        (
            lambda: corr2(P832, (h(0), l(0))) + Correspondence(corr2(P832, (h(0), l(0))).cycle, 2),
            ContextMismatch,
            "cannot add correspondences with different splits",
        ),
        (
            lambda: derivative(-1, 0, diagonal_class(P832)),
            ValueError,
            "derivative orders must be >= 0",
        ),
        (
            lambda: derivative(0, 0, Correspondence(Cycle.of_basis((P832, P51), (h(0), h(0))), 1)),
            ContextMismatch,
            "derivative expects a correspondence over X^2",
        ),
        (
            lambda: cap(corr2(P832, (h(0), l(0))), corr2(P51, (h(0), l(0)))),
            ContextMismatch,
            "cap requires a common context",
        ),
        (
            lambda: contains(corr2(P832, (h(0), l(0))), corr2(P51, (h(0), l(0)))),
            ContextMismatch,
            "containment requires a common context",
        ),
        (
            lambda: diagonal_mult(Cycle.of_basis((P832, P51), (h(0), h(0)))),
            ContextMismatch,
            "diagonal_mult needs two equal factor blocks",
        ),
    ],
    ids=[
        "split-outside", "add-across-splits", "negative-order", "derivative-not-X2",
        "cap-across-contexts", "contains-across-contexts", "diagonal-mult-unequal-halves",
    ],
)
def test_bad_operands_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "value, text",
    [
        (Cycle.of_basis((P832, P832), (h(1), l(0)), (l(1), h(0))), "h1*l0 + l1*h0"),
        (corr2(P832, (h(1), l(0)), (l(1), h(0))), "h1*l0 + l1*h0 | split=1"),
    ],
    ids=["cycle", "correspondence"],
)
def test_str_is_the_cycle_text(value, text):
    assert str(value) == text


@pytest.mark.parametrize("r,s", [(1, 0), (1, 2), (2, 1), (3, 0), (3, 2)])
def test_diagonal_is_two_sided_identity(r, s):
    p = prof(2 * r + s, r, s)
    diag = diagonal_class(p)
    for x in basis_corrs(p):
        assert compose(x, diag).cycle == x.cycle
        assert compose(diag, x).cycle == x.cycle


def test_diagonal_exceptional_term():
    # s = 0, dim == 2 (mod 4): the diagonal needs the h^{r-1} x h^{r-1} term
    assert len(diagonal_class(prof(6, 3, 0)).cycle.support) == 7
    assert len(diagonal_class(prof(8, 4, 0)).cycle.support) == 8
    assert len(diagonal_class(prof(4, 1, 2)).cycle.support) == 2


def test_compose_associative_exhaustive_small():
    for r, s in [(1, 1), (2, 0), (2, 2)]:
        p = prof(2 * r + s, r, s)
        elements = basis_corrs(p)
        for f, g, k in itertools.product(elements, repeat=3):
            lhs = compose(compose(f, g), k)
            rhs = compose(f, compose(g, k))
            assert lhs.cycle == rhs.cycle


def test_compose_bilinear():
    p = prof(6, 2, 2)
    a, b = corr2(p, (h(0), l(1))), corr2(p, (l(0), h(1)))
    c = corr2(p, (h(1), l(1)))
    lhs = compose(a + b, c)
    rhs = compose(a, c) + compose(b, c)
    assert lhs.cycle == rhs.cycle


# -- transpose -------------------------------------------------------------------


def test_transpose_examples():
    p = prof(8, 3, 2)
    f = corr2(p, (h(1), l(2)))
    assert transpose(f).cycle == Cycle.of_basis((p, p), (l(2), h(1)))
    assert transpose(transpose(f)).cycle == f.cycle
    diag = diagonal_class(p)
    assert transpose(diag).cycle == diag.cycle


def test_transpose_antihomomorphism():
    p = prof(6, 2, 2)
    for f in basis_corrs(p):
        for g in basis_corrs(p):
            lhs = transpose(compose(f, g))
            rhs = compose(transpose(g), transpose(f))
            assert lhs.cycle == rhs.cycle


def test_transpose_mixed_blocks():
    p, q = prof(5, 2, 1), prof(7, 3, 1)
    f = Correspondence(Cycle.of_basis((p, q), (h(1), l(2))), 1)
    ft = transpose(f)
    assert ft.cycle.context == (q, p)
    assert ft.split == 1


# -- derivative operators ----------------------------------------------------------


def test_derivative_examples():
    p = prof(8, 3, 2)
    f = corr2(p, (h(0), l(1)))
    out = derivative(1, 0, f)
    assert out.cycle == Cycle.of_basis((p, p), (h(1), l(1)))
    assert derivative(0, 0, f).cycle == f.cycle


def test_derivative_factorizes_and_commutes():
    p = prof(8, 3, 2)
    ctx = (p, p)
    for e in basis_tuples(ctx):
        f = Correspondence(Cycle.of_basis(ctx, e), 1)
        j = f.cycle.dimension() - p.d_x
        if j < 0:
            continue
        for k1 in range(min(j, 3) + 1):
            for k2 in range(min(j - k1, 3) + 1):
                combined = derivative(k1, k2, f)
                split_a = derivative(k1, 0, derivative(0, k2, f))
                split_b = derivative(0, k2, derivative(k1, 0, f))
                assert combined.cycle == split_a.cycle == split_b.cycle


def test_derivative_degree_underflow():
    p = prof(8, 3, 2)
    f = corr2(p, (h(0), l(1)))  # dimension d_X + 1
    with pytest.raises(DegreeUnderflow):
        derivative(1, 1, f)
    mixed = corr2(p, (h(0), l(1)), (h(0), l(0)))
    with pytest.raises(DegreeUnderflow):
        derivative(1, 0, mixed)


# -- essential / cap / containment ---------------------------------------------------


def test_essential_examples():
    p = prof(8, 3, 2)
    x = corr2(p, (h(1), h(2)), (h(0), l(1)))
    ess = essential(x)
    assert ess.cycle == Cycle.of_basis((p, p), (h(0), l(1)))
    assert essential(ess).cycle == ess.cycle


def test_cap_and_contains():
    p = prof(8, 3, 2)
    a = corr2(p, (h(0), l(1)), (h(1), l(2)))
    b = corr2(p, (h(1), l(2)), (l(0), h(0)))
    capped = cap(a, b)
    assert capped.cycle == Cycle.of_basis((p, p), (h(1), l(2)))
    assert cap(a, a).cycle == a.cycle
    assert not cap(a, corr2(p, (l(0), l(0)))).cycle
    assert contains(a, capped)
    assert not contains(capped, a)


def test_cap_matches_derivative_formula():
    # For homogeneous essential alpha, beta of dimension d_X + j (away from
    # the exceptional element): alpha cap beta = ess(compose(alpha, D^{j,0} beta)).
    for r, s in [(2, 1), (3, 2), (3, 1)]:
        p = prof(2 * r + s, r, s)
        ctx = (p, p)
        ess_basis = [
            e
            for e in basis_tuples(ctx)
            if any(sym.kind == "l" for sym in e)
        ]
        by_dim = {}
        for e in ess_basis:
            c = Cycle.of_basis(ctx, e)
            by_dim.setdefault(c.dimension(), []).append(e)
        for dim_val, elements in by_dim.items():
            j = dim_val - p.d_x
            if j < 0:
                continue
            pool = [
                Cycle.of_basis(ctx, *combo)
                for size in (1, 2)
                for combo in itertools.combinations(elements, size)
            ]
            for ca in pool:
                alpha = Correspondence(ca, 1)
                for cb in pool:
                    beta = Correspondence(cb, 1)
                    expected = cap(alpha, beta)
                    got = essential(compose(alpha, derivative(j, 0, beta)))
                    assert got.cycle == expected.cycle, (p, str(ca), str(cb))


# -- diagonal multiplication ---------------------------------------------------------


def test_diagonal_mult_examples():
    p = prof(8, 3, 2)
    c = Cycle.of_basis((p, p), (h(1), l(1)))
    assert diagonal_mult(c) == Cycle.of_basis((p,), (l(0),))
    ident = Cycle.of_basis((p, p), (h(0), h(0)))
    assert diagonal_mult(ident) == Cycle.of_basis((p,), (h(0),))
    with pytest.raises(ContextMismatch):
        diagonal_mult(Cycle.of_basis((p,), (h(0),)))


def test_diagonal_mult_alpha_cycles():
    for r, s, pattern in [(2, 2, [0, 2]), (3, 2, None), (4, 0, [0, 4])]:
        p = prof(2 * r + s, r, s, pattern)
        for sym in lambda_set(p):
            alpha = alpha_cycle(sym, p)
            assert diagonal_mult(alpha.cycle) == Cycle.of_basis((p,), (l(0),))


def test_diagonal_mult_four_factors():
    p = prof(6, 2, 2, [0, 2])
    c = Cycle.of_basis((p, p, p, p), (h(0), l(1), h(0), h(1)))
    out = diagonal_mult(c)
    assert out == Cycle.of_basis((p, p), (h(0), l(0)))


# -- isotropic reduction ----------------------------------------------------------------


def _reduce_f_per_symbol(profile, t, x):
    """reduce_f as a new FactorSymbol per symbol of every term."""
    c = x.cycle if isinstance(x, Correspondence) else x
    w = profile.pattern[t]
    kernel = profile.kernel(t)
    support = set()
    for elt in c.support:
        if all(sym.index >= w for sym in elt):
            support.add(tuple(FactorSymbol(sym.kind, sym.index - w) for sym in elt))
    return Cycle(tuple(kernel for _ in c.context), frozenset(support))


def _reduce_g_per_symbol(profile, t, x):
    """reduce_g as a new FactorSymbol per symbol of every term."""
    c = x.cycle if isinstance(x, Correspondence) else x
    w = profile.pattern[t]
    support = {
        tuple(FactorSymbol(sym.kind, sym.index + w) for sym in elt)
        for elt in c.support
    }
    return Cycle(tuple(profile for _ in c.context), frozenset(support))


def _random_cycle(rng, context, most=60):
    basis = list(basis_tuples(context))
    return Cycle.of_basis(context, *rng.sample(basis, rng.randint(0, min(most, len(basis)))))


def test_reduce_matches_per_symbol_oracle():
    rng = random.Random("reduce-oracle")
    checked = 0
    for r in range(1, 6):
        for s in range(5):
            for pattern in pattern_enumerate(r, s):
                p = prof(2 * r + s, r, s, pattern)
                for t in range(p.height):
                    kernel = p.kernel(t)
                    arity = rng.randint(1, 3)
                    x = _random_cycle(rng, (p,) * arity)
                    y = _random_cycle(rng, (kernel,) * arity)
                    assert reduce_f(p, t, x) == _reduce_f_per_symbol(p, t, x), (p, t)
                    assert reduce_g(p, t, y) == _reduce_g_per_symbol(p, t, y), (p, t)
                    split = rng.randint(0, arity)
                    xc, yc = Correspondence(x, split), Correspondence(y, split)
                    assert reduce_f(p, t, xc).cycle == _reduce_f_per_symbol(p, t, xc)
                    assert reduce_g(p, t, yc).cycle == _reduce_g_per_symbol(p, t, yc)
                    checked += 1
    assert checked > 200


def test_reduce_cost_follows_the_support_not_r():
    # a table of symbols over range(r) would take seconds at r = 2^20
    p = QuadricProfile(2**21, 2**20, 0, (0, 2**20))
    x = Cycle.of_basis((p, p), (h(2**20 - 1), l(2**19)))
    start = time.perf_counter()
    out = reduce_f(p, 0, x)
    assert time.perf_counter() - start < 0.1
    assert out == x


def test_compose_cost_follows_the_support_not_r():
    # a fresh profile at r = 20,000: the partners are read per symbol of the
    # support, so the cost follows the support
    r = 20_000
    p, rng = QuadricProfile(2 * r, r, 0, tuple(range(r + 1))), random.Random(36)

    def sparse(n):
        terms = [(rng.choice((h, l))(rng.randrange(r)), rng.choice((h, l))(rng.randrange(r))) for _ in range(n)]
        return Cycle.of_basis((p, p), *terms)

    f, g = Correspondence(sparse(200), 1), Correspondence(sparse(200), 1)
    # give half of f's middles a partner in g, so that rows meet
    partners = {((l if b.kind == "h" else h)(b.index), h(0)) for _, b in sorted(f.cycle.support)[::2]}
    g = g + Correspondence(Cycle.of_basis((p, p), *partners), 1)
    start = time.perf_counter()
    out = compose(f, g)
    assert time.perf_counter() - start < 0.1
    assert out and out == _compose_pairwise(f, g)


def test_reduce_f_shifts_down():
    p = prof(12, 5, 2, [0, 2, 4, 5])
    x = Cycle.of_basis((p, p), (l(3), h(2)))
    out = reduce_f(p, 1, x)
    kernel = p.kernel(1)
    assert out == Cycle.of_basis((kernel, kernel), (l(1), h(0)))


def test_reduce_f_kills_low_indices():
    p = prof(12, 5, 2, [0, 2, 4, 5])
    x = Cycle.of_basis((p, p), (h(1), l(0)))
    assert not reduce_f(p, 1, x)


def test_reduce_round_trip_all_levels():
    for r, s in [(3, 0), (3, 2), (4, 1)]:
        for pattern in pattern_enumerate(r, s):
            p = prof(2 * r + s, r, s, pattern)
            for t in range(p.height):
                kernel = p.kernel(t)
                for e in basis_tuples((kernel, kernel)):
                    y = Cycle.of_basis((kernel, kernel), e)
                    assert reduce_f(p, t, reduce_g(p, t, y)) == y


def test_reduce_f_surjective_small():
    p = prof(10, 4, 2, [0, 1, 2, 4])
    kernel = p.kernel(1)
    targets = {frozenset(Cycle.of_basis((kernel,), e).support) for e in basis_tuples((kernel,))}
    images = set()
    for e in basis_tuples((p,)):
        out = reduce_f(p, 1, Cycle.of_basis((p,), e))
        if out:
            images.add(frozenset(out.support))
    assert targets <= images


def test_reduce_invalid_level():
    p = prof(6, 2, 2, [0, 2])
    x = Cycle.of_basis((p, p), (h(0), l(0)))
    with pytest.raises(InvalidLevel):
        reduce_f(p, 1, x)  # height 1: only level 0 exists
    with pytest.raises(InvalidLevel):
        reduce_g(p, -1, x)


def test_reduce_on_correspondences():
    p = prof(12, 5, 2, [0, 2, 4, 5])
    f = Correspondence(Cycle.of_basis((p, p), (l(3), h(2))), 1)
    out = reduce_f(p, 1, f)
    assert isinstance(out, Correspondence)
    assert out.split == 1


def test_reduction_correspondence_realizes_reduce_maps():
    # For s >= 1 the connecting correspondence reproduces the reduction maps
    # exactly: f = alpha_*, g = alpha^* on every basis element.
    from quadmdt.corr import reduction_correspondence

    for r, s, pattern in [(3, 1, None), (4, 2, [0, 2, 3, 4]), (5, 2, [0, 2, 4, 5])]:
        p = prof(2 * r + s, r, s, pattern)
        for t in range(p.height):
            alpha = reduction_correspondence(p, t)
            kernel = p.kernel(t)
            for e in basis_tuples((p,)):
                x = Cycle.of_basis((p,), e)
                via_alpha = compose(Correspondence(x, 0), alpha).cycle
                assert via_alpha == reduce_f(p, t, x)
            for e in basis_tuples((kernel,)):
                y = Cycle.of_basis((kernel,), e)
                via_alpha = compose(alpha, Correspondence(y, 1)).cycle
                assert via_alpha == reduce_g(p, t, y)


def test_degree_pairing_matches_composition():
    # On complementary-dimension basis classes, the degree of the product is
    # exactly the scalar the composition law attaches to the middle factor.
    from quadmdt.chow import degree, mul

    for r, s in [(2, 1), (3, 0), (3, 2)]:
        p = prof(2 * r + s, r, s)
        for ea in basis_tuples((p,)):
            for eb in basis_tuples((p,)):
                a, b = Cycle.of_basis((p,), ea), Cycle.of_basis((p,), eb)
                pairing = degree(mul(a, b))
                f = Correspondence(Cycle.of_basis((p, p), (h(0),) + ea), 1)
                g = Correspondence(Cycle.of_basis((p, p), eb + (h(0),)), 1)
                composed = compose(f, g)
                assert bool(composed) == bool(pairing)
                if a.dimension() + b.dimension() != p.d_x:
                    assert pairing == 0


@given(st.data())
def test_results_match_validating_constructor(data):
    # every operation here builds its result unvalidated: each result must be
    # the cycle that the validating constructor builds from its parts
    left, middle, right = (data.draw(contexts(0, 2)) for _ in range(3))
    f = Correspondence(Cycle.of_basis(left + middle, *data.draw(terms(left + middle))), len(left))
    g = Correspondence(Cycle.of_basis(middle + right, *data.draw(terms(middle + right))), len(middle))
    other = Cycle.of_basis(left + middle, *data.draw(terms(left + middle)))
    p = data.draw(st.sampled_from(SMALL_PROFILES))
    t = data.draw(st.integers(0, p.height - 1))
    arity = data.draw(st.integers(1, 2))
    x = Cycle.of_basis((p,) * arity, *data.draw(terms((p,) * arity)))
    kernel = p.kernel(t)
    y = Cycle.of_basis((kernel,) * arity, *data.draw(terms((kernel,) * arity)))
    results = [
        compose(f, g).cycle,
        compose(f, transpose(f)).cycle,
        transpose(f).cycle,
        essential(f).cycle,
        cap(f.cycle, other),
        diagonal_mult(Cycle.of_basis(left + left, *data.draw(terms(left + left)))),
        reduce_f(p, t, x),
        reduce_g(p, t, y),
    ]
    for result in results:
        assert type(result.context) is tuple and type(result.support) is frozenset
        assert result == Cycle(result.context, result.support)
