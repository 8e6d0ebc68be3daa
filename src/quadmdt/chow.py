"""The graded F2-algebra R_X for a product of quadrics.

Basis symbols per factor: h(i) is the class of a codimension-i plane
section, l(i) the class of an i-dimensional linear subspace, 0 <= i < r.
A cycle is an F2-linear combination of basis tuples (one symbol per
factor), stored as a frozenset since all coefficients are 0 or 1.

The single-factor multiplication table:

    h^i h^j = h^{i+j}   if i + j < r, else 0
    h^i l_j = l_{j-i}   if i <= j, else 0
    l_i l_j = l_0       if dim == 2 (mod 4) and i = j = (dim - 2)/2, else 0

and the Steenrod operations

    S^j h^i = C(i, j) h^{i+j}            if j < r - i, else 0
    S^j l_i = C(dim - i - 1, j) l_{i-j}  if j <= i, else 0

with binomials mod 2, extended to products by the Cartan-type sum over
compositions of j.  S^{j_t} vanishes on a factor once j_t >= r, so only
compositions with every part at most r - 1 contribute.

mul, steenrod and corr.compose read these laws in closed form, on the
symbols of their inputs only, so their cost follows the support and not r,
and none of them keeps a table.  mul indexes both supports as prefix
trees, one level per factor, and multiplies them node by node from the
roots.  Above the last factor it pairs every child symbol of one node with
every child of the other, computes the product from the table above, and
adds up the products of the subtrees below each pair as F2 sums of sets.
At the last factor a node is a bit mask over the factor's symbols, and two
nodes multiply as F2 polynomials truncated by the table above: shifts of
ints, summed by XOR.  steenrod walks the tree of its input factor by
factor through the nonzero squares S^{j_t} of each symbol only, carrying
the part of j still to be spent; by Lucas' theorem those squares are the
submasks j_t of i (for h^i) or of dim - i - 1 (for l_i) within the caps
above, listed once per call for each symbol of the support.  mul_factor
and steenrod_factor stay the statement of each law, and the tests check
every closed form against them.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections import Counter, namedtuple

from .errors import BoundExceeded, ContextMismatch
from .profile import QuadricProfile, _ENTRY_KEYS, _Record, _check_int, json_int

H = "h"
L = "l"


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas' theorem: odd iff the bits of k sit inside n."""
    if k < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


class FactorSymbol(namedtuple("FactorSymbol", "kind index")):
    """One basis symbol of a single factor: the tuple (kind 'h' or 'l', index)."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int):
        if kind not in (H, L):
            raise ValueError("kind must be 'h' or 'l', got %r" % (kind,))
        if _check_int("index", index) < 0:
            raise ValueError("index must be >= 0")
        return super().__new__(cls, kind, index)

    def dim_in(self, profile: QuadricProfile) -> int:
        """Dimension of the class: l_i has dimension i, h^i codimension i."""
        return self.index if self.kind == L else profile.d_x - self.index

    def __str__(self):
        return "%s%d" % (self.kind, self.index)


# symbols are immutable, so each is built once and shared: every product,
# Steenrod square and composition names the same few symbols over and over
@functools.lru_cache(maxsize=4096)
def h(i: int) -> FactorSymbol:
    return FactorSymbol(H, i)


@functools.lru_cache(maxsize=4096)
def l(i: int) -> FactorSymbol:
    return FactorSymbol(L, i)


class Cycle(_Record):
    """F2 combination of standard basis tuples over a fixed product context."""

    __slots__ = ("context", "support")

    def __init__(self, context: tuple, support: frozenset):
        context = tuple(context)
        support = frozenset(support)
        arity = len(context)
        for elt in support:
            if len(elt) != arity:
                raise ContextMismatch(
                    "basis tuple arity %d does not match context arity %d"
                    % (len(elt), arity)
                )
            for sym, prof in zip(elt, context):
                # a plain (kind, index) tuple equals its symbol, so test the type
                if not isinstance(sym, FactorSymbol):
                    raise ContextMismatch(
                        "basis entry %r is not a FactorSymbol" % (sym,)
                    )
                if not 0 <= sym.index < prof.r:
                    raise ContextMismatch(
                        "symbol %s outside index range [0, %d)" % (sym, prof.r)
                    )
        super().__init__(context, support)

    @classmethod
    def _trusted(cls, context: tuple, support: frozenset) -> "Cycle":
        """A cycle built unvalidated from a context tuple and a frozenset of
        basis tuples that are valid over it.  Only the operations whose
        result terms are valid by construction call it; every other path
        validates in __init__."""
        cycle = object.__new__(cls)
        _SET_CONTEXT(cycle, context)
        _SET_SUPPORT(cycle, support)
        return cycle

    @classmethod
    def zero(cls, context) -> "Cycle":
        return cls(tuple(context), frozenset())

    @classmethod
    def of_basis(cls, context, *elements) -> "Cycle":
        """Cycle with the given basis tuples (F2: duplicates cancel)."""
        return cls(tuple(context), _odd_terms(map(tuple, elements)))

    def __bool__(self):
        return bool(self.support)

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.context != other.context:
            raise ContextMismatch("cannot add cycles over different contexts")
        return Cycle._trusted(self.context, self.support ^ other.support)

    def __mul__(self, other: "Cycle") -> "Cycle":
        return mul(self, other)

    @property
    def arity(self) -> int:
        return len(self.context)

    def dimension(self):
        """Common dimension of all support tuples, or None if mixed/zero."""
        dims = {
            sum(sym.dim_in(prof) for sym, prof in zip(elt, self.context))
            for elt in self.support
        }
        if len(dims) == 1:
            return dims.pop()
        return None

    def is_homogeneous(self) -> bool:
        return not self.support or self.dimension() is not None

    def sorted_support(self) -> tuple:
        return tuple(sorted(self.support))

    def to_json_dict(self) -> dict:
        return {
            "context": [p.to_json_dict() for p in self.context],
            "support": [
                [{"kind": sym.kind.upper(), "i": sym.index} for sym in elt]
                for elt in self.sorted_support()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cycle":
        return cls._from_json(data, _CYCLE_KEYS)

    @classmethod
    def _from_json(cls, data: dict, keys: frozenset) -> "Cycle":
        """The cycle of a JSON object whose top-level keys are among ``keys``.
        Any other key, there or in a support entry, raises ContextMismatch
        once the rest of the object has parsed."""
        try:
            context = tuple(QuadricProfile.from_json_dict(p) for p in data["context"])
            support = [
                tuple(
                    FactorSymbol(entry["kind"].lower(), json_int(entry["i"]))
                    for entry in elt
                )
                for elt in data["support"]
            ]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ContextMismatch("malformed cycle JSON: %s" % exc) from exc
        unknown = set(data) - keys
        for elt in data["support"]:
            for entry in elt:
                unknown |= entry.keys() - _ENTRY_KEYS
        if unknown:
            raise ContextMismatch("malformed cycle JSON: unknown keys %s" % sorted(unknown))
        return cls.of_basis(context, *support)

    def __str__(self):
        return cycle_to_text(self)


_CYCLE_KEYS = frozenset(("context", "support"))  # the top-level keys of cycle JSON

# The slots' own setters, for _trusted
_SET_CONTEXT, _SET_SUPPORT = Cycle._setters


def identity_cycle(context) -> Cycle:
    """The unit of R_X: the all-h^0 tuple."""
    context = tuple(context)  # read once: context may be an iterator
    return Cycle.of_basis(context, (h(0),) * len(context))


def point_cycle(context) -> Cycle:
    """Class of a rational point: the all-l_0 tuple."""
    context = tuple(context)  # read once: context may be an iterator
    return Cycle.of_basis(context, (l(0),) * len(context))


def basis_tuples(context):
    """Iterate the standard basis of R_X in sorted order."""
    return itertools.product(*(_factor_basis(p) for p in context))


def _factor_basis(profile: QuadricProfile) -> list:
    return [h(i) for i in range(profile.r)] + [l(i) for i in range(profile.r)]


def mul_factor(a: FactorSymbol, b: FactorSymbol, profile: QuadricProfile):
    """Product of two single-factor symbols; None encodes 0."""
    if a.kind == L and b.kind == H:
        a, b = b, a
    if a.kind == H and b.kind == H:
        i = a.index + b.index
        return h(i) if i < profile.r else None
    if a.kind == H and b.kind == L:
        return l(b.index - a.index) if a.index <= b.index else None
    # l * l: nonzero only in the exceptional middle-dimensional case.
    if profile.dim % 4 == 2 and a.index == b.index == (profile.dim - 2) // 2:
        return l(0)
    return None


def mul(a: Cycle, b: Cycle) -> Cycle:
    """Bilinear componentwise product in R_X.

    The bilinear law sums the factorwise product over every pair of terms.
    A pair contributes exactly when every factor product is nonzero, so
    both supports are indexed as prefix trees, one level per factor
    (_mask_tree), and multiplied node by node from the roots.  At a pair of
    nodes above the last factor, every child of a's node meets every child
    of b's node, and their product p is read from mul_factor's table in
    closed form, kind by kind: h^i h^j = h^{i+j} below r, h^i l_j = l_{j-i}
    for j >= i, and l_e l_e = l_0 at the exceptional index (_exceptional).
    The subtrees below each pair with p nonzero multiply to a set of tails,
    and the F2 sum of the tail sets of all pairs with one product p, a
    symmetric difference of sets, gives the terms (p,) + tail.  Two masks
    of the last factor multiply in a few shifts and XORs per set bit
    (_mask_product), the F2 sum of their symbols' products, and only the
    masks of the result are decoded back to symbols.  Every sum is an F2
    sum, never a union: over dim == 2 (mod 4) and s = 0, l_m h^m and
    l_m l_m are both l_0 and cancel.
    """
    if a.context != b.context:
        raise ContextMismatch("cannot multiply cycles over different contexts")
    if not a.context:
        # over the empty product the only basis tuple is the unit ()
        return Cycle._trusted((), a.support & b.support)
    if not (a.support and b.support):
        return Cycle._trusted(a.context, frozenset())
    *heads, last = a.context
    laws, r, product = [(p.r, _exceptional(p)) for p in heads], last.r, _mask_product(last)

    def level(node_a, node_b, depth):
        rank, e = laws[depth]
        (a_h, a_l), (b_h, b_l) = node_a, node_b
        pairs = []  # each kind is paired only when a holds it: nodes are often tiny
        if a_h:
            pairs += [(h(i + j), x, y) for i, x in a_h.items() for j, y in b_h.items() if i + j < rank]
            pairs += [(l(j - i), x, y) for i, x in a_h.items() for j, y in b_l.items() if j >= i]
        if a_l:
            pairs += [(l(i - j), x, y) for i, x in a_l.items() for j, y in b_h.items() if j <= i]
            if e in a_l and e in b_l:
                pairs.append((l(0), a_l[e], b_l[e]))
        inner, acc = depth + 1 < len(laws), {}
        for prod, child_a, child_b in pairs:
            # a fresh set or a mask, so acc may own and update it
            sub = level(child_a, child_b, depth + 1) if inner else product(child_a, child_b)
            if prod in acc:
                acc[prod] ^= sub
            else:
                acc[prod] = sub
        if inner:
            return {(prod,) + tail for prod, sub in acc.items() for tail in sub}
        return {(prod, sym) for prod, mask in acc.items() for sym in _symbols(mask, r)}

    tree_a, tree_b = _mask_tree(a.support, r), _mask_tree(b.support, r)
    if laws:
        support = level(tree_a, tree_b, 0)
    else:
        support = [(sym,) for sym in _symbols(product(tree_a, tree_b), r)]
    del level  # it refers to itself through its cell: break the cycle
    return Cycle._trusted(a.context, frozenset(support))


def _exceptional(profile: QuadricProfile) -> int:
    """The index e with l_e l_e = l_0: (dim - 2)/2 when dim == 2 (mod 4),
    else r.  An e >= r is the index of no symbol, and then every l l is 0."""
    return (profile.dim - 2) // 2 if profile.dim % 4 == 2 else profile.r


def _mask_tree(support, r: int):
    """The prefix tree of a nonempty support, one level per factor.  A node
    above the last factor is the pair (h children, l children) of dicts,
    each keyed by the child's index.  A node of the last factor, of rank r,
    is a bit mask over its symbols: h^i is bit i and l_i bit r + i.  The
    masks are summed per head first, so each head is placed once.  For one
    factor, the tree is that mask."""
    masks = {}
    for elt in support:
        kind, index = elt[-1]
        bit, head = 1 << (index + r if kind == L else index), elt[:-1]
        masks[head] = masks[head] | bit if head in masks else bit
    if () in masks:
        return masks[()]
    root = ({}, {})
    for head, mask in masks.items():
        node = root
        for kind, index in head[:-1]:
            children = node[kind == L]
            node = children[index] if index in children else children.setdefault(index, ({}, {}))
        kind, index = head[-1]
        node[kind == L][index] = mask
    return root


def _symbols(mask: int, r: int):
    """The symbols of a mask over a factor of rank r (_mask_tree), one per
    set bit, highest bit first."""
    while mask:
        k = mask.bit_length() - 1
        yield h(k) if k < r else l(k - r)
        mask ^= 1 << k


def _mask_product(profile: QuadricProfile):
    """The product of two masks over the profile (_mask_tree): mul_factor
    on every pair of their symbols, summed over F2, which XOR is.

    Each h^i of either mask shifts the other's l part down by i (h^i l_j =
    l_{j-i}, and nothing below l_0 is kept), and each h^i of the first
    shifts the second's h part up by i (h^i h^j = h^{i+j}), cut at r once
    at the end.  The one nonzero l l is a bit test: l_e l_e = l_0."""
    r = profile.r
    low = (1 << r) - 1
    # a shift by r or more leaves no l bit, so an e >= r tests none
    e = _exceptional(profile)

    def product(a: int, b: int) -> int:
        a_h, a_l, b_h, b_l = a & low, a >> r, b & low, b >> r
        c_h, c_l = 0, a_l >> e & b_l >> e & 1
        while a_h:
            i = a_h.bit_length() - 1
            c_h ^= b_h << i
            c_l ^= b_l >> i
            a_h ^= 1 << i
        while b_h:
            i = b_h.bit_length() - 1
            c_l ^= a_l >> i
            b_h ^= 1 << i
        return c_h & low | c_l << r

    return product


def _prefix_tree(support) -> dict:
    """Nested dicts keyed by symbol, one level per factor."""
    tree = {}
    for elt in support:
        node = tree
        for sym in elt:
            node = node.setdefault(sym, {})
    return tree


# The Steenrod walk chains one generator per factor, so a term is summed as
# soon as its last factor is reached and no level is ever held in full.  A
# level is a function so that it binds its own table: a generator
# expression in the loop would look the loop variable up only when it runs.
#
# A request of a few hundred bytes can have a Cartan sum of 10^7 terms, so
# each level, the last one (the summands) too, is cut at _MAX_FRONTIER
# entries with BoundExceeded.  The largest level of any test or benchmark
# input has 332 entries; the six-factor S^30 of h63^6 at r = 128 has 324,632.
_MAX_FRONTIER = 10**5


def _square_level(frontier, squares, rest):
    level = (
        (child, left - jt, out + (res,))
        for node, left, out in frontier
        for sym, child in node.items()
        for jt, res in squares[sym]
        if 0 <= left - jt <= rest
    )
    yield from itertools.islice(level, _MAX_FRONTIER)
    if next(level, None) is not None:
        raise BoundExceeded("a Steenrod level has more than %d terms" % _MAX_FRONTIER)


def _odd_terms(terms) -> frozenset:
    """The F2 sum of basis tuples: those that occur an odd number of times."""
    return frozenset(elt for elt, n in Counter(terms).items() if n & 1)


def degree(c: Cycle) -> int:
    """Degree homomorphism to F2: the coefficient of the all-l_0 tuple."""
    point = tuple(l(0) for _ in c.context)
    return 1 if point in c.support else 0


def external_product(a: Cycle, b: Cycle) -> Cycle:
    """Concatenate factor tuples; contexts concatenate as well."""
    context = a.context + b.context
    support = {ea + eb for ea in a.support for eb in b.support}
    return Cycle(context, frozenset(support))


def steenrod_factor(j: int, sym: FactorSymbol, profile: QuadricProfile):
    if sym.kind == H:
        if j < profile.r - sym.index and binom_mod2(sym.index, j):
            return h(sym.index + j)
        return None
    if j <= sym.index and binom_mod2(profile.dim - sym.index - 1, j):
        return l(sym.index - j)
    return None


def _squares(j: int, sym: FactorSymbol, profile: QuadricProfile) -> list:
    """[(jt, S^jt sym), ...] over the jt <= j with S^jt sym nonzero, jt
    ascending, in closed form.  By Lucas, C(n, jt) is odd exactly when the
    bits of jt lie inside n, so jt runs over the submasks of n = i below
    r - i for h^i, and of n = dim - i - 1 up to i for l_i, in ascending
    order until the cap: the cost follows the output, not r."""
    kind, i = sym
    n, cap = (i, profile.r - 1 - i) if kind == H else (profile.dim - i - 1, i)
    out, jt, cap = [(0, sym)], 0, min(j, cap)
    while (jt := ((jt | ~n) + 1) & n) and jt <= cap:  # the next submask of n
        out.append((jt, h(i + jt) if kind == H else l(i - jt)))
    return out


def steenrod(j: int, c: Cycle) -> Cycle:
    """Cohomological-type Steenrod operation S^j on R_X.

    On products it is the Cartan sum over all compositions j = j_1 + ... +
    j_m of the factorwise squares S^{j_t}.  A composition contributes
    exactly when every S^{j_t} is nonzero on its factor, so the support is
    indexed once as a prefix tree and walked factor by factor through the
    nonzero squares of each symbol only, carrying the part of j still to
    be spent.  S^{j_t} vanishes once j_t >= r, so each part is capped at
    r - 1, and a branch is cut once the remainder is negative or exceeds
    the sum of the remaining factors' caps.  The squares of each symbol
    are listed once per call, in closed form (_squares).  The branches that
    finish with nothing left are exactly the contributing compositions,
    each reached once; the result is 0 at once when j exceeds the sum of
    all the caps.
    Raises BoundExceeded when a level of the walk passes _MAX_FRONTIER
    entries.
    """
    if _check_int("j", j) < 0:
        raise ValueError("j must be >= 0")
    # room[t]: the caps of factors t, t + 1, ... summed
    room = [0] * (c.arity + 1)
    for t in range(c.arity - 1, -1, -1):
        room[t] = room[t + 1] + c.context[t].r - 1
    if not c.support or j > room[0]:
        return Cycle._trusted(c.context, frozenset())
    tree = _prefix_tree(c.support)
    frontier, nodes, rows = [(tree, j, ())], [tree], {}
    for prof, rest in zip(c.context, room[1:]):
        # the squares of the symbols at this factor, listed once per call
        # and shared by equal factors
        squares = rows.setdefault(prof, {})
        for sym in set().union(*nodes).difference(squares):
            squares[sym] = _squares(j, sym, prof)
        frontier = _square_level(frontier, squares, rest)
        nodes = [child for node in nodes for child in node.values()]
    return Cycle._trusted(c.context, _odd_terms(out for _, _, out in frontier))


# -- text notation ("h0*l2 + h1*l1") ------------------------------------------

_TERM_RE = re.compile(r"^([hl])([0-9]+)$")  # not \d, which also matches non-ASCII digits


def cycle_to_text(c: Cycle) -> str:
    if not c.support:
        return "0"
    return " + ".join(
        "*".join(str(sym) for sym in elt) for elt in c.sorted_support()
    )


def cycle_from_text(text: str, context) -> Cycle:
    """Parse the CLI text notation against a context; raises ValueError."""
    context = tuple(context)
    text = text.strip()
    if text == "0":
        return Cycle.zero(context)
    support = []
    for term in text.split("+"):
        factors = [f.strip() for f in term.strip().split("*")]
        if len(factors) != len(context):
            raise ValueError(
                "term %r has %d factors, context has %d"
                % (term.strip(), len(factors), len(context))
            )
        syms = []
        for factor in factors:
            match = _TERM_RE.match(factor)
            if not match:
                raise ValueError("bad factor %r (expected e.g. 'h0' or 'l2')" % factor)
            syms.append(FactorSymbol(match.group(1), int(match.group(2))))
        support.append(tuple(syms))
    return Cycle.of_basis(context, *support)
