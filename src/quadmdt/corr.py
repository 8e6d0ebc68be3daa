"""Correspondence calculus on products of quadrics.

A correspondence is a cycle over a context split into a left and a right
block of factors.  Composition follows the bilinear law

    (b' x c) o (a x b) = deg(b b') a x c

evaluated entirely inside R: deg(b b') is 1 exactly when the product of
the two middle tuples is the all-l_0 tuple, i.e. when every middle factor
of b' is a partner of the matching factor of b -- a symbol whose product
with it is l_0 under the multiplication table.  Such a product pairs equal
indices, so the partners are read in closed form: h^i and l_i are
partners, and l_e is also its own partner where l_e l_e = l_0 (e =
(dim - 2)/2 on a factor with dim == 2 (mod 4), chow._exceptional).  So
the relation is symmetric, and the dual of a middle tuple swaps h^i and
l_i factor by factor, with a second choice at each exceptional l_e.
compose is an F2 product by rows: the dual row of a middle b is the sum
of the right sets of g's middles that are duals of b, and the row of a
left a is the sum of the dual rows of f's middles under a.  Every sum is
a symmetric difference of sets, never a union, no term of f meets a term
of g on its own, and no table is kept: the cost follows the supports.
This makes composition total on mixed-degree cycles.

Isotropic reduction (reduce_f / reduce_g) shifts every index down/up by
the Witt index of the chosen splitting-tower level, through a table of the
symbols in the support.  Both h- and l-symbols shift the same way: that is
the only convention under which f o g = id and the idempotent-transport
identities hold (derived multiplicatively in the tests).
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from . import chow
from .chow import Cycle, h, l
from .errors import ContextMismatch, DegreeUnderflow, InvalidLevel
from .profile import QuadricProfile, _Record, _check_int, json_int

_CORRESPONDENCE_KEYS = frozenset(("context", "support", "split"))  # its JSON's top-level keys


class Correspondence(_Record):
    """Cycle over a split context (left factors | right factors)."""

    __slots__ = ("cycle", "split")

    def __init__(self, cycle: Cycle, split: int):
        if not 0 <= _check_int("split", split) <= cycle.arity:
            raise ContextMismatch("split %d outside [0, %d]" % (split, cycle.arity))
        super().__init__(cycle, split)

    @property
    def left_context(self) -> tuple:
        return self.cycle.context[: self.split]

    @property
    def right_context(self) -> tuple:
        return self.cycle.context[self.split :]

    def __add__(self, other: "Correspondence") -> "Correspondence":
        if self.split != other.split:
            raise ContextMismatch("cannot add correspondences with different splits")
        return Correspondence(self.cycle + other.cycle, self.split)

    def __bool__(self):
        return bool(self.cycle)

    def to_json_dict(self) -> dict:
        data = self.cycle.to_json_dict()
        data["split"] = self.split
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Correspondence":
        cycle = Cycle._from_json(data, _CORRESPONDENCE_KEYS)
        try:
            split = json_int(data["split"])
        except (KeyError, TypeError) as exc:
            raise ContextMismatch("malformed correspondence JSON: %s" % exc) from exc
        return cls(cycle, split)

    def __str__(self):
        return "%s | split=%d" % (self.cycle, self.split)


def compose(f: Correspondence, g: Correspondence) -> Correspondence:
    """Composite correspondence "f then g": Corr(X,Y) x Corr(Y,Z) -> Corr(X,Z).

    A pair of terms a x b of f and b' x c of g contributes a x c exactly when
    deg(b b') = 1, that is when b is a tuple of factorwise partners of b'
    (deg(b b') = deg(b' b)).  So the product runs by rows, each an F2 sum
    of sets: g is indexed once as middle -> set of rights; each distinct
    middle b' of g adds its set into the dual row of each of its duals b
    (h^i and l_i swapped factor by factor, with l_e also kept where l_e l_e
    = l_0: at most 2^k for k middle factors, the empty tuple when the
    middle is empty); each term a x b of f adds the dual row of b into the
    row of a; and each term a x c of the result is built once, from the
    rows.
    """
    middle = f.right_context
    if middle != g.left_context:
        raise ContextMismatch("middle contexts do not match")
    context = f.left_context + g.right_context
    rights = defaultdict(set)
    for eg in g.cycle.support:
        rights[eg[: g.split]].add(eg[g.split :])
    exceptional = [chow._exceptional(prof) for prof in middle]
    # a dual row may be g's own set, so it is never changed in place: a
    # second sum into it makes a new set
    duals = {}
    for mid, row in rights.items():
        for dual in itertools.product(*map(_partner_symbols, mid, exceptional)):
            duals[dual] = duals[dual] ^ row if dual in duals else row
    rows = defaultdict(set)
    for ef in f.cycle.support:
        if (row := duals.get(ef[f.split :])) is not None:
            rows[ef[: f.split]] ^= row
    support = frozenset(left + right for left, row in rows.items() for right in row)
    return Correspondence(Cycle._trusted(context, support), f.split)


def _partner_symbols(sym, e: int) -> tuple:
    """The symbols b with sym b = l_0 on a factor whose exceptional index is
    e (chow._exceptional): h^i and l_i are partners, and l_e is also its
    own."""
    kind, i = sym
    if kind == chow.H:
        return (l(i),)
    return (h(i), sym) if i == e else (h(i),)


def diagonal_class(profile: QuadricProfile) -> Correspondence:
    """Class of the diagonal in R_{X^2}; the identity for composition.

    Sum of h^i x l_i + l_i x h^i over 0 <= i < r, plus the extra term
    h^{r-1} x h^{r-1} in the exceptional case s = 0, dim == 2 (mod 4)
    (there the two rulings of middle-dimensional planes both contribute
    and their cross terms survive mod 2).
    """
    context = (profile, profile)
    elements = []
    for i in range(profile.r):
        elements.append((h(i), l(i)))
        elements.append((l(i), h(i)))
    if profile.s == 0 and profile.dim % 4 == 2:
        elements.append((h(profile.r - 1), h(profile.r - 1)))
    return Correspondence(Cycle.of_basis(context, *elements), 1)


def transpose(f: Correspondence) -> Correspondence:
    """Swap the left and right factor blocks."""
    context = f.right_context + f.left_context
    support = {elt[f.split :] + elt[: f.split] for elt in f.cycle.support}
    return Correspondence(
        Cycle._trusted(context, frozenset(support)), len(f.right_context)
    )


def derivative(k1: int, k2: int, f: Correspondence) -> Correspondence:
    """D^{k1,k2}: multiplication by h^{k1} x h^{k2} on a homogeneous input.

    The input must live over X^2 in dimension d_X + j with k1 + k2 <= j.
    """
    if min(_check_int("k1", k1), _check_int("k2", k2)) < 0:
        raise ValueError("derivative orders must be >= 0")
    if f.cycle.arity != 2 or f.cycle.context[0] != f.cycle.context[1]:
        raise ContextMismatch("derivative expects a correspondence over X^2")
    profile = f.cycle.context[0]
    if not f.cycle.is_homogeneous():
        raise DegreeUnderflow("derivative requires a homogeneous input")
    if f.cycle.support:
        j = f.cycle.dimension() - profile.d_x
        if k1 + k2 > j:
            raise DegreeUnderflow(
                "D^{%d,%d} drops below the diagonal grading (j = %d)" % (k1, k2, j)
            )
    if k1 >= profile.r or k2 >= profile.r:
        # h^k vanishes for k >= r, so the operator is identically zero
        return Correspondence(Cycle.zero(f.cycle.context), f.split)
    multiplier = Cycle.of_basis(f.cycle.context, (h(k1), h(k2)))
    return Correspondence(chow.mul(f.cycle, multiplier), f.split)


def _as_cycle(x):
    return x.cycle if isinstance(x, Correspondence) else x


def _like(template, cycle: Cycle):
    if isinstance(template, Correspondence):
        return Correspondence(cycle, template.split)
    return cycle


def essential(x):
    """Drop every all-h basis tuple from the support."""
    c = _as_cycle(x)
    support = frozenset(
        elt for elt in c.support if any(sym.kind == chow.L for sym in elt)
    )
    return _like(x, Cycle._trusted(c.context, support))


def cap(a, b):
    """Sum of the standard basis elements involved in both arguments."""
    ca, cb = _as_cycle(a), _as_cycle(b)
    if ca.context != cb.context:
        raise ContextMismatch("cap requires a common context")
    return _like(a, Cycle._trusted(ca.context, ca.support & cb.support))


def contains(outer, inner) -> bool:
    """True when inner is a sub-sum of outer (inner cap outer == inner)."""
    co, ci = _as_cycle(outer), _as_cycle(inner)
    if co.context != ci.context:
        raise ContextMismatch("containment requires a common context")
    return ci.support <= co.support


def diagonal_mult(c: Cycle) -> Cycle:
    """Multiply the two halves of each basis tuple: R_{X^{2m}} -> R_{X^m}."""
    arity = c.arity
    if arity % 2:
        raise ContextMismatch("diagonal_mult needs an even number of factors")
    m = arity // 2
    if c.context[:m] != c.context[m:]:
        raise ContextMismatch("diagonal_mult needs two equal factor blocks")
    half = c.context[:m]
    products = (tuple(map(chow.mul_factor, elt[:m], elt[m:], half)) for elt in c.support)
    return Cycle._trusted(half, chow._odd_terms(out for out in products if None not in out))


def _check_level(profile: QuadricProfile, t: int):
    if not 0 <= _check_int("t", t) < profile.height:
        raise InvalidLevel(
            "tower level %d outside [0, %d)" % (t, profile.height)
        )


def reduction_correspondence(profile: QuadricProfile, t: int) -> Correspondence:
    """The rational correspondence connecting X with its t-th kernel.

    This is the canonical representative sum((h^{i+w} x l_i) + (l_{i+w} x h^i))
    with w = j_t.  Composing with it reproduces reduce_f / reduce_g on the
    nose when s >= 1; for s = 0 the middle-dimensional orientation ambiguity
    (the representative is only pinned down up to h^{r-1} x h^{r-1-w}) leaks
    exceptional h-terms into the exchange, which is why the reduction maps
    themselves are implemented as plain index shifts.
    """
    _check_level(profile, t)
    w = profile.pattern[t]
    kernel = profile.kernel(t)
    elements = []
    for i in range(profile.r - w):
        elements.append((h(i + w), l(i)))
        elements.append((l(i + w), h(i)))
    return Correspondence(Cycle.of_basis((profile, kernel), *elements), 1)


def _uniform_context(x, profile):
    c = _as_cycle(x)
    if any(p != profile for p in c.context):
        raise ContextMismatch("reduction expects all factors equal to the profile")
    return c


def _shift(c: Cycle, w: int) -> frozenset:
    """The support of c with every index moved by w, less the terms in which
    a symbol would get a negative index.  Each symbol that occurs is shifted
    once, so the cost follows the support, not r."""
    table = {
        sym: (h if sym.kind == chow.H else l)(sym.index + w)
        for sym in set().union(*c.support)
        if sym.index + w >= 0
    }
    return frozenset(
        out for elt in c.support if None not in (out := tuple(map(table.get, elt)))
    )


def reduce_f(profile: QuadricProfile, t: int, x):
    """Isotropic reduction f_t: shift every index down by j_t, killing small
    ones, through a table of the symbols in the support (_shift)."""
    _check_level(profile, t)
    c = _uniform_context(x, profile)
    kernel = profile.kernel(t)
    support = _shift(c, -profile.pattern[t])
    return _like(x, Cycle._trusted(tuple(kernel for _ in c.context), support))


def reduce_g(profile: QuadricProfile, t: int, x):
    """Section g_t of f_t: shift every index up by j_t (input over the
    kernel), through a table of the symbols in the support (_shift)."""
    _check_level(profile, t)
    kernel = profile.kernel(t)
    c = _uniform_context(x, kernel)
    support = _shift(c, profile.pattern[t])
    return _like(x, Cycle._trusted(tuple(profile for _ in c.context), support))
