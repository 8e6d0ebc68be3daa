"""Discrete invariants of quadratic forms in characteristic 2.

A profile records the data (dim, type (r, s), nondefective splitting
pattern) of an anisotropic nondefective nonquasilinear quadratic form.
No field arithmetic happens here: everything downstream (the cycle ring,
the MDT engine) is driven by these integers alone.

Conventions:
  * dim = 2r + s, r >= 1; the quasilinear part has dimension s.
  * pattern = (j_0, ..., j_h) with j_0 = 0 < j_1 < ... < j_h = r; the
    steps i_t = j_t - j_{t-1} are the higher Witt indices, h is the
    nondefective height.
  * d_X = dim - 2 is the dimension of the projective quadric.

Isotropic forms are not modelled as profiles; they enter through the
lift operation in the mdt module.
"""

from __future__ import annotations

import operator

from .errors import (
    ConstraintViolated,
    DimMismatch,
    NotNeighbourEligible,
    PatternInvalid,
    StepViolatesI1Bound,
)

I1_BASE = "base"
I1_SINGULAR = "singular"
I1_CONJECTURAL = "conjectural"
I1_RULE_NAMES = (I1_BASE, I1_SINGULAR, I1_CONJECTURAL)

# Proven filters only; the conjectural one is strictly opt-in.
DEFAULT_I1_RULES = frozenset({I1_BASE, I1_SINGULAR})


def v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    if n <= 0:
        raise ValueError("v2 requires a positive integer, got %r" % (n,))
    return (n & -n).bit_length() - 1


def _check_i1_args(r: int, s: int, rules) -> frozenset:
    for name, value, least in (("r", r, 1), ("s", s, 0)):
        if _check_int(name, value) < least:
            raise ValueError("%s must be >= %d" % (name, least))
    if rules is None:
        return DEFAULT_I1_RULES
    if isinstance(rules, str):  # frozenset would read its letters as rule names
        raise ValueError("i1 rules must be given as a collection, not one string")
    rules = frozenset(rules)
    unknown = rules - frozenset(I1_RULE_NAMES)
    if unknown:
        raise ValueError("unknown i1 rule(s): %s" % ", ".join(sorted(unknown)))
    return rules


def check_pattern(r: int, pattern: tuple) -> None:
    """Raise PatternInvalid unless 0 = j_0 < j_1 < ... < j_h = r with h >= 1,
    and TypeError first when r or an entry is not an exact int."""
    _check_int("r", r)
    for j in pattern:
        _check_int("pattern entry", j)
    if len(pattern) < 2 or pattern[0] != 0 or pattern[-1] != r:
        raise PatternInvalid("pattern must run from 0 to r, got %r" % (pattern,))
    if any(a >= b for a, b in zip(pattern, pattern[1:])):
        raise PatternInvalid("pattern must be strictly increasing, got %r" % (pattern,))


def pfister_split(dim: int) -> tuple:
    """(n, m) with dim = 2^n + m and 1 <= m <= 2^n."""
    n = (dim - 1).bit_length() - 1
    return n, dim - (1 << n)


_PROFILE_KEYS = ("dim", "r", "s", "pattern")
_ENTRY_KEYS = frozenset(("kind", "i"))  # the keys of a symbol in partition and cycle JSON


def json_int(value) -> int:
    """An exact JSON integer; anything else (6.5, true, "6") raises TypeError."""
    # bool is a subclass of int, so test the exact type
    if type(value) is not int:
        raise TypeError("%r is not an integer" % (value,))
    return value


def _check_int(name: str, value) -> int:
    """value, when it is an exact int; anything else (1.0, True, "1") raises
    TypeError naming the argument."""
    if type(value) is not int:  # bool is a subclass of int, so test the exact type
        raise TypeError("%s must be an int, not %s" % (name, type(value).__name__))
    return value


def profile_json_fields(data, required=_PROFILE_KEYS) -> dict:
    """The fields of a profile JSON object: exact integers and a pattern tuple.

    Keys other than dim, r, s and pattern, a missing ``required`` key, and
    any value that is not an exact integer raise PatternInvalid.
    """
    if not isinstance(data, dict):
        raise PatternInvalid("malformed profile JSON: %r is not an object" % (data,))
    unknown = sorted(set(data) - set(_PROFILE_KEYS))
    if unknown:
        raise PatternInvalid("malformed profile JSON: unknown keys %s" % unknown)
    missing = [key for key in required if key not in data]
    if missing:
        raise PatternInvalid("malformed profile JSON: missing keys %s" % missing)
    try:
        return {
            key: tuple(json_int(j) for j in value) if key == "pattern" else json_int(value)
            for key, value in data.items()
        }
    except TypeError as exc:
        raise PatternInvalid("malformed profile JSON: %s" % exc) from exc


# sets a field of a record: the base's own __setattr__ refuses every write
_set = object.__setattr__


class _Record:
    """Base of the immutable value classes of every layer.

    A subclass lists its fields in ``__slots__`` (two or more).  The base
    constructor takes them by position or name, in ``__slots__`` order, and
    sets each once through its slot's own setter (``_setters``); a missing,
    extra, unknown or doubled field raises TypeError.  A plain record needs
    no ``__init__``; one that validates its fields checks them in its own
    ``__init__``, then passes them to the base's.  The base gives the
    record behaviour: equality only between instances of the same class,
    field by field; a hash of the field tuple, computed on first use and
    kept in a slot; the repr ``Name(field=value, ...)``; AttributeError on
    assignment or deletion; and pickling and copying through the
    constructor, which validates again.

    The second private slot, ``_memo``, holds the tables derived from a
    record (_per_profile); only QuadricProfile sets it, to an empty dict.
    It is not a field: equality, hash and repr never read it, and a pickled
    or copied record starts with an empty memo.
    """

    __slots__ = ("_hash", "_memo")

    def __init_subclass__(cls):
        # the field values in __slots__ order, one tuple gathered in C
        cls._values = staticmethod(operator.attrgetter(*cls.__slots__))
        # each field's slot setter, in the same order
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *values, **named):
        setters = self._setters
        if named or len(values) != len(setters):  # names are bound off the hot positional path
            fields = self.__slots__
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
            if named or len(values) != len(fields):
                raise TypeError(
                    "%s takes the fields %s, by position or name"
                    % (type(self).__qualname__, ", ".join(fields))
                )
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._values(self)))
            return self._hash

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % item for item in zip(self.__slots__, self._values(self))),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), self._values(self)


def _per_profile(build):
    """build(profile, *args), kept in the profile's memo under (build, *args):
    each table is built once per profile and lives exactly as long as it."""

    def cached(profile, *args):
        memo, key = profile._memo, (build, *args)
        if (value := memo.get(key)) is None:  # no table is None
            value = memo[key] = build(profile, *args)
        return value

    return cached


def _i1_bound(dim: int, i: int) -> int:
    """Karpenko's 2-adic bound 2^{v2(dim - i)} on a first higher isotropy index i."""
    return 1 << v2(dim - i)


class QuadricProfile(_Record):
    """Anisotropic nondefective nonquasilinear form of type (r, s)."""

    __slots__ = ("dim", "r", "s", "pattern")

    def __init__(self, dim: int, r: int, s: int, pattern: tuple):
        # before any comparison, which a str would fail without naming it
        for name, value in (("dim", dim), ("r", r), ("s", s)):
            _check_int(name, value)
        p = tuple(pattern)
        if r < 1 or s < 0 or dim != 2 * r + s:
            raise DimMismatch(
                "need dim = 2r + s with r >= 1, got dim=%d r=%d s=%d" % (dim, r, s)
            )
        check_pattern(r, p)
        # Each step must obey the 2-adic bound applied to its kernel form
        # (of dimension dim - 2 j_{t-1}): i_t <= 2^{v2(kernel dim - i_t)}.
        for t in range(1, len(p)):
            step = p[t] - p[t - 1]
            kernel_dim = dim - 2 * p[t - 1]
            bound = _i1_bound(kernel_dim, step)
            if step > bound:
                raise StepViolatesI1Bound(
                    "step i_%d = %d exceeds bound %d for kernel dimension %d"
                    % (t, step, bound, kernel_dim)
                )
        super().__init__(dim, r, s, p)
        _set(self, "_memo", {})

    @property
    def d_x(self) -> int:
        """Dimension of the projective quadric."""
        return self.dim - 2

    @property
    def height(self) -> int:
        """Nondefective height h."""
        return len(self.pattern) - 1

    @property
    def steps(self) -> tuple:
        """Higher Witt indices (i_1, ..., i_h)."""
        return tuple(b - a for a, b in zip(self.pattern, self.pattern[1:]))

    @property
    def izhboldin_dim(self) -> int:
        return self.dim - self.pattern[1]

    def kernel(self, t: int) -> "QuadricProfile":
        """Profile of the t-th anisotropic kernel form, 0 <= t < height."""
        if not 0 <= _check_int("t", t) < self.height:
            raise ValueError("kernel level %d out of range [0, %d)" % (t, self.height))
        w = self.pattern[t]
        return QuadricProfile(
            dim=self.dim - 2 * w,
            r=self.r - w,
            s=self.s,
            pattern=tuple(j - w for j in self.pattern[t:]),
        )

    def shell_of(self, i: int) -> int:
        """1-based shell index t with j_{t-1} <= i < j_t, for 0 <= i < r."""
        if not 0 <= _check_int("i", i) < self.r:
            raise ValueError("index %d outside [0, r)" % i)
        for t in range(1, len(self.pattern)):
            if i < self.pattern[t]:
                return t
        raise AssertionError("unreachable")

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "r": self.r, "s": self.s, "pattern": list(self.pattern)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuadricProfile":
        return cls(**profile_json_fields(data))

    def __str__(self):
        return "(%d, (%d,%d), %s)" % (self.dim, self.r, self.s, list(self.pattern))


def mk_profile(dim: int, r: int, s: int, pattern) -> QuadricProfile:
    """Validated profile constructor, the same as QuadricProfile(dim, r, s, pattern)."""
    return QuadricProfile(dim, r, s, pattern)


def izhboldin_dim(profile: QuadricProfile) -> int:
    """dim - i_1; a stable birational invariant of the quadric."""
    return profile.izhboldin_dim


def i1_max_by_theorem(dim: int) -> int:
    """Largest i < dim with i <= 2^{v2(dim - i)}: the m of dim = 2^n + m,
    1 <= m <= 2^n.  i = m passes, as dim - m = 2^n; an i > m fails, as
    2^{v2(dim - i)} = 2^{v2(i - m)} <= i - m."""
    if _check_int("dim", dim) < 2:
        raise ValueError("dim must be >= 2")
    return pfister_split(dim)[1]


def _i1_slack_ok(r: int, s: int, i: int, u: int) -> bool:
    """i <= r - x 2^u <= 2^u - s, where x 2^u < r <= (x + 1) 2^u."""
    slack = r - (((r - 1) >> u) << u)
    return i <= slack <= (1 << u) - s


def _i1_singular_ok(r: int, s: int, i: int) -> bool:
    # Consequence of the i_1 >= s theorem: with u = v2(Izh) an actual form
    # must pass the slack test (which, as i >= 1, implies s < 2^u).  Values
    # of i that would contradict this cannot occur, so they are filtered out.
    return i < s or _i1_slack_ok(r, s, i, v2(2 * r + s - i))


def _i1_conjectural_ok(r: int, s: int, i: int) -> bool:
    # Two implications of the excellent-connections conjecture:
    # (a) writing dim = 2^n + m with 1 <= m <= 2^n: r < m forces i_1 <= m - r;
    # (b) if s < 2^u + i_1 then i_1 <= r - x 2^u <= 2^u - s.
    dim = 2 * r + s
    _, m = pfister_split(dim)
    if r < m and i > m - r:
        return False
    u = v2(dim - i)
    return s >= (1 << u) + i or _i1_slack_ok(r, s, i, u)


def i1_admissible_set(r: int, s: int, rules=None) -> frozenset:
    """Values of i_1 not excluded by the selected filters for type (r, s).

    ``base`` is the plain 2-adic bound (plus i <= r), ``singular`` the
    theorem that applies when i_1 >= s, ``conjectural`` the implications
    of the excellent-connections conjecture.  Output is a "not excluded"
    set; realizability is a separate question.
    """
    rules = _check_i1_args(r, s, rules)
    dim = 2 * r + s
    out = set()
    for i in range(1, r + 1):
        if I1_BASE in rules and i > _i1_bound(dim, i):
            continue
        if I1_SINGULAR in rules and not _i1_singular_ok(r, s, i):
            continue
        if I1_CONJECTURAL in rules and not _i1_conjectural_ok(r, s, i):
            continue
        out.add(i)
    return frozenset(out)


def pattern_enumerate(r: int, s: int, rules=None) -> tuple:
    """All splitting patterns whose every step passes the selected filters.

    Each step i_t is tested against the admissible set of the current
    kernel type (r - j_{t-1}, s).  Output patterns are canonical tuples
    (0, ..., r), sorted; they are "not excluded", not necessarily realized.
    """
    return tuple(_iter_patterns(r, s, rules))


def _step_table(r: int, s: int, rules=None) -> list:
    """Entry rem <= r: the sorted steps i1_admissible_set(rem, s, rules).

    Whether a step is admissible depends only on the r still to place (and
    s and the rules), so each set is computed once per listing or count.
    """
    rules = _check_i1_args(r, s, rules)
    return [()] + [tuple(sorted(i1_admissible_set(rem, s, rules))) for rem in range(1, r + 1)]


def _iter_patterns(r: int, s: int, rules=None):
    """The patterns of pattern_enumerate one at a time, in the same order.

    The arguments are checked at once; the patterns come from the returned
    generator.  It walks the tree of step choices with an explicit stack
    (one step iterator per placed j_t), so a pattern of any length can be
    reached.  Steps are chosen in ascending order at every level, and two
    patterns first differ at the first step where they differ, at which the
    smaller step gives the smaller running sum; so the patterns come out
    sorted.
    """
    table = _step_table(r, s, rules)

    def walk():
        pattern, stack = [0], [iter(table[r])]
        while stack:
            i = next(stack[-1], None)
            if i is None:
                stack.pop()
                pattern.pop()
            elif pattern[-1] + i == r:
                yield tuple(pattern) + (r,)
            else:
                pattern.append(pattern[-1] + i)
                stack.append(iter(table[r - pattern[-1]]))

    return walk()


def _count_patterns(r: int, s: int, rules=None) -> int:
    """len(pattern_enumerate(r, s, rules)), without listing the patterns.

    count(0) = 1 and count(rem) is the sum of count(rem - i) over the
    admissible steps i of _step_table: O(r^2) tests.
    """
    table = _step_table(r, s, rules)
    counts = [1]
    for rem in range(1, r + 1):
        counts.append(sum(counts[rem - i] for i in table[rem]))
    return counts[r]


class AlternatingExpansion(_Record):
    """The unique expansion value = 2^{n_1} - 2^{n_2} + ... +- 2^{n_j}.

    The exponents strictly decrease and the final gap exceeds 1
    (n_{j-1} > n_j + 1), which pins the expansion down uniquely.
    ``m`` holds m_i = 2^{n_i - 1} - 2^{n_{i+1}} + ... for 1 <= i <= j';
    for odd values the formal m_j would be the half-integer 2^{-1} and is
    not stored (it is never consulted: excellent pairs use k <= j' only).
    ``j`` is the number of exponents; ``j_prime`` is j for even values and
    j - 1 for odd ones.
    """

    __slots__ = ("value", "n", "m", "j", "j_prime")


def alternating_2adic(value: int) -> AlternatingExpansion:
    """Compute the alternating 2-adic expansion of a positive integer.

    One loop walks the remainders T_1 = value, T_{k+1} = 2^{n_k} - T_k,
    where n_k is the smallest exponent with 2^{n_k} >= T_k, and reads
    m_k = 2^{n_k - 1} - T_{k+1} off them.
    """
    if _check_int("value", value) < 1:
        raise ValueError("value must be >= 1")
    n = []
    m = []
    rem = value
    while rem:
        k = (rem - 1).bit_length()  # smallest k with 2^k >= rem
        n.append(k)
        rem = (1 << k) - rem
        if k:  # n_k = 0 only ends an odd value, whose m_j is not stored
            m.append((1 << (k - 1)) - rem)
    return AlternatingExpansion(value, tuple(n), tuple(m), len(n), len(m))


class ExcellentPair(_Record):
    """Index pair (a, b) excellent for the profile, witnessed by k."""

    __slots__ = ("a", "b", "k")


def excellent_pairs(profile: QuadricProfile) -> tuple:
    """All excellent pairs of the profile, sorted by (a, b).

    A pair (a, b) with 0 <= a < r and 0 <= d_X - b < r is excellent when
    some 1 <= k <= j' has b - a = 2^{n_k - 1} - 1 and both a and d_X - b
    lie in [m_1 + ... + m_{k-1}, m_1 + ... + m_k).
    """
    exp = alternating_2adic(profile.dim)
    d_x = profile.d_x
    r = profile.r
    pairs = []
    prefix = 0
    for k in range(1, exp.j_prime + 1):
        m_k = exp.m[k - 1]
        width = (1 << (exp.n[k - 1] - 1)) - 1
        for a in range(prefix, min(prefix + m_k, r)):
            b = a + width
            cob = d_x - b
            if 0 <= cob < r and prefix <= cob < prefix + m_k:
                pairs.append(ExcellentPair(a, b, k))
        prefix += m_k
    # already sorted: every m_k >= 1, so the windows ascend and are disjoint,
    # and each a has at most one b
    return tuple(pairs)


def strongly_excellent_profile(n_list, s: int):
    """Profile and kernel dimensions of a strongly excellent form.

    ``n_list`` holds the exponents n_1 > n_2 > ... > n_h of the ambient
    Pfister forms along the tower; the form has dimension
    2^{n_1} - 2^{n_2} + ... + (-1)^{h-1} 2^{n_h} + (-1)^h s.

    Gap conditions: for s >= 1 the last exponent must satisfy
    s < 2^{n_h - 1} (i.e. n_h > log2(s) + 1); for s = 0 and h >= 2 the
    form tower degenerates unless n_{h-1} > n_h + 1.  The exponents and s
    must be ints: anything else raises ConstraintViolated.

    Returns (profile, kernel_dims) where kernel_dims lists the dimensions
    of the successive anisotropic kernels, ending with the quasilinear
    part of dimension s.
    """
    n_list = tuple(n_list)
    for value in n_list + (s,):
        if type(value) is not int:
            raise ConstraintViolated("exponents and s must be ints, got %r" % (value,))
    h = len(n_list)
    if h < 1:
        raise ConstraintViolated("need at least one exponent")
    if s < 0:
        raise ConstraintViolated("s must be >= 0")
    if any(n < 1 for n in n_list):
        raise ConstraintViolated("exponents must be >= 1")
    if any(a <= b for a, b in zip(n_list, n_list[1:])):
        raise ConstraintViolated("exponents must strictly decrease")
    if s >= 1 and s >= 1 << (n_list[-1] - 1):
        raise ConstraintViolated(
            "quasilinear part too large: need s < 2^(n_h - 1) = %d" % (1 << (n_list[-1] - 1))
        )
    if s == 0 and h >= 2 and n_list[-2] <= n_list[-1] + 1:
        raise ConstraintViolated(
            "with trivial quasilinear part the last two exponents need a gap > 1"
        )

    # dims[h] = s and dims[i] = 2^{n_i} - dims[i + 1]
    dims = [s]
    for n in reversed(n_list):
        dims.append((1 << n) - dims[-1])
    dims.reverse()
    # m_i = dims[i] - 2^{n_i - 1}, so dims[i] - dims[i + 1] = 2 m_i: the
    # descending exponents and the gap conditions make every m_i >= 1, so the
    # dims decrease and r = (dim - s) / 2 = m_1 + ... + m_h ends the pattern
    pattern = [0]
    for i in range(h):
        pattern.append(pattern[-1] + dims[i] - (1 << (n_list[i] - 1)))
    prof = QuadricProfile(dim=dims[0], r=pattern[-1], s=s, pattern=tuple(pattern))
    return prof, tuple(dims)


class PfisterNeighbourInvariants(_Record):
    __slots__ = ("n", "m", "complementary_dim", "close_neighbour")


def pfister_neighbour_invariants(dim: int, s: int) -> PfisterNeighbourInvariants:
    """Numerology of a would-be Pfister neighbour of the given dimension.

    n is fixed by 2^n < dim <= 2^{n+1}; a neighbour must satisfy
    r + s <= 2^n, else NotNeighbourEligible.  The neighbour is close
    (nondefective height 1) exactly when dim = 2^{n+1} - s.
    """
    if _check_int("dim", dim) < 2:
        raise ValueError("dim must be >= 2")
    if _check_int("s", s) < 0 or (dim - s) % 2 or dim - s < 2:
        raise ValueError("no type (r, s) with r >= 1 matches dim=%d s=%d" % (dim, s))
    r = (dim - s) // 2
    n, m = pfister_split(dim)
    if r + s > 1 << n:
        raise NotNeighbourEligible(
            "r + s = %d exceeds 2^n = %d" % (r + s, 1 << n)
        )
    return PfisterNeighbourInvariants(
        n=n,
        m=m,
        complementary_dim=(1 << (n + 1)) - dim,
        close_neighbour=dim == (1 << (n + 1)) - s,
    )
