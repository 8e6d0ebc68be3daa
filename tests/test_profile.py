"""Tests for profile invariants, i1 filters, expansions and excellent pairs."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from quadmdt.errors import (
    ConstraintViolated,
    DimMismatch,
    NotNeighbourEligible,
    PatternInvalid,
    StepViolatesI1Bound,
)
from quadmdt.profile import (
    QuadricProfile,
    _count_patterns,
    _iter_patterns,
    alternating_2adic,
    excellent_pairs,
    i1_admissible_set,
    i1_max_by_theorem,
    izhboldin_dim,
    mk_profile,
    pattern_enumerate,
    pfister_neighbour_invariants,
    strongly_excellent_profile,
    v2,
)


# -- construction ---------------------------------------------------------------


def test_mk_profile_valid_height_one():
    p = mk_profile(6, 2, 2, [0, 2])
    assert p.height == 1
    assert p.d_x == 4
    assert p.steps == (2,)


def test_mk_profile_valid_height_two():
    p = mk_profile(7, 2, 3, [0, 1, 2])
    assert p.height == 2
    assert p.steps == (1, 1)


def test_mk_profile_step_violates_bound():
    # i_1 = 3 but v2(12 - 3) = 0, so the bound is 1
    with pytest.raises(StepViolatesI1Bound):
        mk_profile(12, 3, 6, [0, 3])


def test_mk_profile_dim_mismatch():
    with pytest.raises(DimMismatch):
        mk_profile(7, 2, 2, [0, 2])
    with pytest.raises(DimMismatch):
        mk_profile(2, 0, 2, [0, 0])


@pytest.mark.parametrize("pattern", [[1, 2], [0, 1], [0, 2, 1, 3], [0], [0, 3, 3]])
def test_mk_profile_pattern_invalid(pattern):
    with pytest.raises(PatternInvalid):
        mk_profile(6, 3, 0, pattern)


def test_kernel_profiles():
    p = mk_profile(12, 5, 2, [0, 2, 4, 5])
    k1 = p.kernel(1)
    assert (k1.dim, k1.r, k1.s, k1.pattern) == (8, 3, 2, (0, 2, 3))
    assert p.kernel(0) == p
    with pytest.raises(ValueError):
        p.kernel(3)


def test_shell_of():
    p = mk_profile(12, 5, 2, [0, 2, 4, 5])
    assert [p.shell_of(i) for i in range(5)] == [1, 1, 2, 2, 3]


def test_profile_json_round_trip():
    p = mk_profile(10, 3, 4, [0, 1, 3])
    assert QuadricProfile.from_json_dict(p.to_json_dict()) == p


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8), st.data())
def test_profile_json_round_trip_random(r, s, data):
    pattern = data.draw(st.sampled_from(pattern_enumerate(r, s)))
    text = json.dumps(mk_profile(2 * r + s, r, s, pattern).to_json_dict(), sort_keys=True)
    p = QuadricProfile.from_json_dict(json.loads(text))
    assert (p.dim, p.r, p.s, p.pattern) == (2 * r + s, r, s, pattern)
    assert json.dumps(p.to_json_dict(), sort_keys=True) == text


# -- izhboldin dimension ---------------------------------------------------------


def test_izhboldin_examples():
    assert izhboldin_dim(mk_profile(6, 2, 2, [0, 2])) == 4
    assert izhboldin_dim(mk_profile(12, 3, 6, [0, 1, 3])) == 11
    assert izhboldin_dim(mk_profile(16, 8, 0, [0, 8])) == 8


# -- the i1 theorem bound ---------------------------------------------------------


def test_i1_max_examples():
    assert i1_max_by_theorem(12) == 4
    assert i1_max_by_theorem(9) == 1
    for n in range(1, 7):
        assert i1_max_by_theorem(2 ** (n + 1)) == 2**n


def test_i1_max_brute_force():
    # the scan of the bound i <= 2^{v2(dim - i)} over every 1 <= i < dim
    for dim in range(2, 1100):
        best = max(i for i in range(1, dim) if i <= 2 ** v2(dim - i))
        assert i1_max_by_theorem(dim) == best
    with pytest.raises(ValueError):
        i1_max_by_theorem(1)


def test_i1_admissible_examples():
    assert i1_admissible_set(3, 2) == {1}
    assert i1_admissible_set(4, 0, {"base"}) == {1, 2, 4}
    assert i1_admissible_set(3, 6, {"base", "singular", "conjectural"}) == {1}


def test_i1_admissible_base_matches_theorem():
    # nondegenerate case: base filter = theorem bound intersected with [1, r]
    for r in range(1, 12):
        expected = {
            i for i in range(1, r + 1) if i <= 2 ** v2(2 * r - i)
        }
        assert i1_admissible_set(r, 0, {"base"}) == expected


def test_i1_admissible_conjectural_keeps_open_case():
    # the (3,4)/dim-10 case stays open even conjecturally
    assert 2 in i1_admissible_set(3, 4, {"base", "singular", "conjectural"})


def test_i1_admissible_rejects_unknown_rule():
    with pytest.raises(ValueError):
        i1_admissible_set(2, 2, {"base", "mystery"})


def test_i1_rules_reject_one_string():
    # a string is a collection of its letters: "base" must not be read as
    # the rules a, b, e, s
    for call in (i1_admissible_set, pattern_enumerate, _count_patterns):
        with pytest.raises(ValueError, match="collection, not one string"):
            call(4, 0, "base")
    assert i1_admissible_set(4, 0, ("base",)) == i1_admissible_set(4, 0, {"base"})


def test_i1_args_reject_non_int_types():
    # r and s must be exact ints: a bool is not read as 0 or 1, and a float
    # or a string is refused by name, not left to fail inside range or &
    for call in (i1_admissible_set, pattern_enumerate, _count_patterns, _iter_patterns):
        for r, s, name in ((True, 0, "r"), (4.0, 0, "r"), ("4", 0, "r"), (4, False, "s"), (2, 1.0, "s")):
            with pytest.raises(TypeError, match="^%s must be an int, not " % name):
                call(r, s)


def test_profile_fields_and_indices_reject_non_int_types():
    # a float or bool field is refused by name, not accepted as an equal int
    # nor left to fail inside &; ShellPattern and ShellDiagram share the
    # pattern check, on which the renderers rely
    from quadmdt.mdt import ShellDiagram, ShellPattern

    profile = QuadricProfile(8, 4, 0, (0, 2, 4))
    for call, name, kind in (
        (lambda: QuadricProfile(6, 2.0, 2, (0, 2)), "r", "float"),
        (lambda: QuadricProfile(3, 1, 1, (0, True)), "pattern entry", "bool"),
        (lambda: QuadricProfile(6, 2, "2", (0, 2)), "s", "str"),
        (lambda: mk_profile(6.0, 2, 2, [0, 2]), "dim", "float"),
        (lambda: ShellPattern(4.0, (0, 2, 4.0)), "r", "float"),
        (lambda: ShellPattern(4, (0, 2, 4.0)), "pattern entry", "float"),
        (lambda: ShellDiagram(True, (0, 2, 4)), "r", "bool"),
        (lambda: ShellDiagram(4.0, (0, 2, 4)), "r", "float"),
        (lambda: ShellDiagram(4, (0, 2, True)), "pattern entry", "bool"),
        (lambda: profile.shell_of(1.0), "i", "float"),
        (lambda: profile.kernel(True), "t", "bool"),
    ):
        with pytest.raises(TypeError, match="^%s must be an int, not %s$" % (name, kind)):
            call()
    assert profile.shell_of(1) == 1 and profile.kernel(1) == QuadricProfile(4, 2, 0, (0, 2))
    with pytest.raises(PatternInvalid):
        ShellDiagram(4, (0, 2, 5))


@pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_int_parameters_reject_non_int_types(bad):
    # each answered, read True as 1, or failed bare inside < or range
    from quadmdt.chow import Cycle, FactorSymbol, h, steenrod
    from quadmdt.corr import derivative, diagonal_class, reduce_f, reduction_correspondence
    from quadmdt.mdt import LambdaSymbol, lo, mdt_height_one, mdt_isotropic_lift

    profile, tower = QuadricProfile(6, 2, 2, (0, 2)), QuadricProfile(8, 3, 2, (0, 1, 2, 3))
    cycle, inner = Cycle.of_basis((tower,), (h(1),)), mdt_height_one(profile)
    diagonal = diagonal_class(profile)
    kind = type(bad).__name__
    for call, name in (
        (lambda: alternating_2adic(bad), "value"),
        (lambda: pfister_neighbour_invariants(bad, 0), "dim"),
        (lambda: pfister_neighbour_invariants(8, bad), "s"),
        (lambda: i1_max_by_theorem(bad), "dim"),
        (lambda: mdt_isotropic_lift(bad, inner, profile), "w"),
        (lambda: steenrod(bad, cycle), "j"),
        (lambda: derivative(bad, 0, diagonal), "k1"),
        (lambda: derivative(0, bad, diagonal), "k2"),
        (lambda: reduction_correspondence(tower, bad), "t"),
        (lambda: reduce_f(tower, bad, cycle), "t"),
        (lambda: LambdaSymbol("lo", bad), "index"),
        (lambda: FactorSymbol("h", bad), "index"),
        (lambda: h(bad), "index"),  # h(1) is cached: a non-int still misses
        (lambda: lo(bad), "index"),
    ):
        with pytest.raises(TypeError, match="^%s must be an int, not %s$" % (name, kind)):
            call()
    assert steenrod(1, cycle) == Cycle.of_basis((tower,), (h(2),))
    assert mdt_isotropic_lift(1, inner, profile).r == 3
    assert derivative(0, 0, diagonal) == diagonal
    assert reduction_correspondence(tower, 1).cycle.context == (tower, tower.kernel(1))
    assert LambdaSymbol("lo", 1) == lo(1) and FactorSymbol("h", 1) == h(1)


def test_one_is_always_admissible():
    for r in range(1, 10):
        for s in range(0, 9):
            assert 1 in i1_admissible_set(r, s)


# -- alternating 2-adic expansions -----------------------------------------------


def _oracle_expansions(value, max_exp=11):
    """Brute force: all decreasing exponent tuples with last gap > 1."""
    found = []
    for k in range(1, max_exp + 1):
        for combo in itertools.combinations(range(max_exp), k):
            ns = tuple(sorted(combo, reverse=True))
            if k >= 2 and ns[-2] <= ns[-1] + 1:
                continue
            total = sum((-1) ** idx * (1 << n) for idx, n in enumerate(ns))
            if total == value:
                found.append(ns)
    return found


def test_alternating_examples():
    assert alternating_2adic(12).n == (4, 2)
    assert alternating_2adic(12).m == (4, 2)
    assert alternating_2adic(10).n == (4, 3, 1)
    assert alternating_2adic(10).m == (2, 2, 1)
    for k in range(1, 8):
        exp = alternating_2adic(1 << k)
        assert exp.n == (k,)
        assert exp.m == (1 << (k - 1),)


def test_alternating_oracle_exhaustive():
    for value in range(1, 513):
        oracle = _oracle_expansions(value)
        assert len(oracle) == 1, "expansion of %d not unique?" % value
        exp = alternating_2adic(value)
        assert exp.n == oracle[0]
        # alternating sum round-trips
        assert sum((-1) ** i * (1 << n) for i, n in enumerate(exp.n)) == value
        # m_k = 2^{n_k - 1} - 2^{n_{k+1}} + 2^{n_{k+2}} - ..., summed literally
        for k in range(1, exp.j_prime + 1):
            literal = (1 << (exp.n[k - 1] - 1)) + sum(
                (-1) ** (u - k + 1) * (1 << exp.n[u]) for u in range(k, exp.j)
            )
            assert exp.m[k - 1] == literal


def test_alternating_m_sums():
    for value in range(2, 513, 2):
        exp = alternating_2adic(value)
        assert all(m > 0 for m in exp.m)
        assert sum(exp.m) == value // 2
        assert exp.j_prime == exp.j


def test_alternating_odd_j_prime():
    for value in range(1, 200, 2):
        exp = alternating_2adic(value)
        assert exp.j_prime == exp.j - 1
        assert exp.n[-1] == 0
        assert len(exp.m) == exp.j_prime


@given(st.integers(min_value=1, max_value=1 << 16))
def test_alternating_round_trip(value):
    exp = alternating_2adic(value)
    assert sum((-1) ** i * (1 << n) for i, n in enumerate(exp.n)) == value
    assert all(a > b for a, b in zip(exp.n, exp.n[1:]))
    if exp.j >= 2:
        assert exp.n[-2] > exp.n[-1] + 1


# -- excellent pairs --------------------------------------------------------------


def _oracle_pairs(dim, r):
    """Evaluate the definition literally over every (a, b, k) triple."""
    exp = alternating_2adic(dim)
    d_x = dim - 2
    prefix = [0]
    for m in exp.m:
        prefix.append(prefix[-1] + m)
    pairs = set()
    for a in range(r):
        for b in range(d_x - r + 1, d_x + 1):
            for k in range(1, exp.j_prime + 1):
                if b - a != (1 << (exp.n[k - 1] - 1)) - 1:
                    continue
                if prefix[k - 1] <= a < prefix[k] and prefix[k - 1] <= d_x - b < prefix[k]:
                    pairs.add((a, b))
    return pairs


def _profile_for(dim, r):
    s = dim - 2 * r
    return mk_profile(dim, r, s, [0] + list(range(1, r + 1)))


def test_excellent_pairs_examples():
    assert {(p.a, p.b) for p in excellent_pairs(_profile_for(10, 3))} == {(0, 7), (1, 8)}
    assert {(p.a, p.b) for p in excellent_pairs(_profile_for(7, 2))} == {(1, 4)}
    assert {(p.a, p.b) for p in excellent_pairs(_profile_for(5, 1))} == {(0, 3)}


def test_excellent_pairs_pfister():
    for k in (2, 3, 4):
        prof = mk_profile(1 << (k + 1), 1 << k, 0, [0, 1 << k])
        got = {(p.a, p.b) for p in excellent_pairs(prof)}
        assert got == {(i, (1 << k) - 1 + i) for i in range(1 << k)}


def test_excellent_pairs_window_property():
    for dim in range(2, 80):
        for r in range(1, dim // 2 + 1):
            prof = _profile_for(dim, r)
            for p in excellent_pairs(prof):
                diff = p.b - p.a + 1
                assert diff & (diff - 1) == 0  # power of two
                assert 0 <= p.a < r
                assert 0 <= prof.d_x - p.b < r


def test_excellent_pairs_oracle_small():
    for dim in range(2, 81):
        for r in range(1, dim // 2 + 1):
            got = [(p.a, p.b) for p in excellent_pairs(_profile_for(dim, r))]
            assert got == sorted(_oracle_pairs(dim, r)), (dim, r)


# -- strongly excellent forms ------------------------------------------------------


def test_strongly_excellent_main_example():
    prof, dims = strongly_excellent_profile([4, 2], 1)
    assert (prof.dim, prof.r, prof.s) == (13, 6, 1)
    assert prof.pattern == (0, 5, 6)
    assert dims == (13, 3, 1)


def test_strongly_excellent_pfister():
    for k in range(1, 6):
        prof, dims = strongly_excellent_profile([k + 1], 0)
        assert (prof.dim, prof.r, prof.pattern) == (1 << (k + 1), 1 << k, (0, 1 << k))
        assert dims == (1 << (k + 1), 0)


def test_strongly_excellent_trivial_ql_gap():
    prof, dims = strongly_excellent_profile([3, 1], 0)
    assert (prof.dim, prof.pattern) == (6, (0, 2, 3))
    assert dims == (6, 2, 0)
    # 2^3 > 2 * 2^2 fails: adjacent exponents with s = 0
    with pytest.raises(ConstraintViolated):
        strongly_excellent_profile([3, 2], 0)


def test_strongly_excellent_ql_too_big():
    # need s < 2^(n_h - 1)
    with pytest.raises(ConstraintViolated):
        strongly_excellent_profile([4, 2], 2)
    prof, _ = strongly_excellent_profile([4, 3], 2)
    assert prof.s == 2


def test_strongly_excellent_kernel_dims_decrease():
    cases = [([5, 3], 1), ([6, 4, 2], 1), ([5, 4, 2], 0), ([7, 3], 3), ([4], 3)]
    for n_list, s in cases:
        _, dims = strongly_excellent_profile(n_list, s)
        assert all(a > b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == s
    # every accepted exponent list with n <= 11, h <= 4: dims[i] is the
    # literal signed sum 2^{n_i} - 2^{n_{i+1}} + ... + (-1)^{h-i} s
    accepted = 0
    for h in range(1, 5):
        for combo in itertools.combinations(range(11, 0, -1), h):
            for s in range(9):
                try:
                    _, dims = strongly_excellent_profile(combo, s)
                except ConstraintViolated:
                    continue
                accepted += 1
                literal = [
                    sum((-1) ** (u - i) * (1 << combo[u]) for u in range(i, h))
                    + (-1) ** (h - i) * s
                    for i in range(h)
                ]
                assert dims == tuple(literal) + (s,)
                assert all(a > b for a, b in zip(dims, dims[1:]))
    assert accepted > 0


def test_strongly_excellent_rejects_bad_input():
    with pytest.raises(ConstraintViolated):
        strongly_excellent_profile([2, 3], 0)  # not decreasing
    with pytest.raises(ConstraintViolated):
        strongly_excellent_profile([], 0)


@pytest.mark.parametrize(
    "n_list,s",
    [([3.7], 0), (["3"], 0), ([True], 0), ([3.0, 1], 0), ([4, 2], 1.0), ([4, 2], "1"), ([3], True)],
)
def test_strongly_excellent_rejects_non_int_data(n_list, s):
    # never coerced: 3.7 and "3" are not the exponent 3, nor True the exponent 1
    with pytest.raises(ConstraintViolated, match="must be ints"):
        strongly_excellent_profile(n_list, s)
    with pytest.raises(ConstraintViolated, match="must be ints"):
        strongly_excellent_profile(iter(n_list), s)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: v2(0), ValueError, "v2 requires a positive integer, got 0"),
        (lambda: alternating_2adic(0), ValueError, "value must be >= 1"),
        (lambda: mk_profile(12, 5, 2, [0, 2, 4, 5]).shell_of(5), ValueError, "index 5 outside [0, r)"),
        (lambda: strongly_excellent_profile((3,), -1), ConstraintViolated, "s must be >= 0"),
        (lambda: strongly_excellent_profile((3, 0), 0), ConstraintViolated, "exponents must be >= 1"),
        (
            lambda: QuadricProfile.from_json_dict({"dim": 6, "r": 2, "s": 2}),
            PatternInvalid,
            "malformed profile JSON: missing keys ['pattern']",
        ),
    ],
    ids=["v2-zero", "expansion-zero", "shell-of-r", "negative-s", "zero-exponent", "no-pattern"],
)
def test_out_of_range_arguments_raise(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_strongly_excellent_only_gap_conditions_refuse():
    # every strictly decreasing exponent list from 1..11 with h <= 5, and
    # s < 40: the two gap conditions are the only refusals, and an accepted
    # list's kernel dimensions are dim - 2 j_t along its pattern, so the
    # tower is valid and its pattern ends at r
    gap_messages = ("quasilinear part too large", "last two exponents need a gap > 1")
    accepted = refused = 0
    for h in range(1, 6):
        for combo in itertools.combinations(range(11, 0, -1), h):
            for s in range(40):
                try:
                    prof, dims = strongly_excellent_profile(combo, s)
                except ConstraintViolated as exc:
                    assert any(m in str(exc) for m in gap_messages), (combo, s, exc)
                    refused += 1
                    continue
                accepted += 1
                assert dims == tuple(prof.dim - 2 * j for j in prof.pattern), (combo, s)
                assert (prof.r, prof.s, prof.height) == (prof.pattern[-1], s, h)
    assert (accepted, refused) == (5101, 35819)


# -- pattern enumeration -----------------------------------------------------------


def test_pattern_enumerate_examples():
    assert pattern_enumerate(2, 2) == ((0, 1, 2), (0, 2))
    for s in (0, 1, 5):
        assert pattern_enumerate(1, s) == ((0, 1),)
    assert pattern_enumerate(3, 2, {"base", "singular"}) == ((0, 1, 2, 3), (0, 1, 3))


def test_pattern_enumerate_base_admits_more_than_singular():
    base_only = set(pattern_enumerate(3, 2, {"base"}))
    assert (0, 2, 3) in base_only  # killed by the singular theorem


def test_pattern_enumerate_extremes_present():
    for r in range(1, 7):
        for s in (0, 1, 2, 4):
            patterns = pattern_enumerate(r, s)
            assert list(patterns) == sorted(set(patterns))
            assert tuple(range(r + 1)) in patterns
            top = max(i1_admissible_set(r, s))
            assert any(p[1] == top for p in patterns)


def test_iter_patterns_checks_arguments_before_iterating():
    # the bad type is reported by the call itself, not by the first next()
    for r, s, rules in ((0, 2, None), (2, -1, None), (2, 2, {"nope"})):
        with pytest.raises(ValueError):
            _iter_patterns(r, s, rules)
    assert tuple(_iter_patterns(5, 3)) == pattern_enumerate(5, 3)
    # the walk keeps its own stack: a pattern far longer than the recursion
    # limit is reached
    assert next(_iter_patterns(3000, 0)) == tuple(range(3001))


def test_count_patterns_matches_listing():
    names = ("base", "singular", "conjectural")
    subsets = [set(c) for k in range(4) for c in itertools.combinations(names, k)]
    for rules in subsets:
        for r in range(1, 15):
            for s in range(9):
                assert _count_patterns(r, s, rules) == len(pattern_enumerate(r, s, rules))
    for r, s, rules in ((0, 2, None), (2, -1, None), (2, 2, {"nope"})):
        with pytest.raises(ValueError):
            _count_patterns(r, s, rules)


def test_pattern_enumerate_all_steps_valid_profiles():
    for r in range(1, 6):
        for s in (0, 1, 2, 3):
            for pattern in pattern_enumerate(r, s):
                mk_profile(2 * r + s, r, s, pattern)  # must not raise


# -- Pfister neighbour invariants ----------------------------------------------------


def test_pfister_neighbour_examples():
    inv = pfister_neighbour_invariants(6, 2)
    assert (inv.n, inv.m, inv.complementary_dim, inv.close_neighbour) == (2, 2, 2, True)
    with pytest.raises(NotNeighbourEligible):
        pfister_neighbour_invariants(12, 6)
    for n in range(1, 6):
        inv = pfister_neighbour_invariants(1 << (n + 1), 0)
        assert (inv.m, inv.complementary_dim, inv.close_neighbour) == (1 << n, 0, True)
