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
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .errors import ContextMismatch
from .profile import QuadricProfile, json_int

H = "h"
L = "l"


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas' theorem: odd iff the bits of k sit inside n."""
    if k < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


@dataclass(frozen=True, order=True)
class FactorSymbol:
    """One basis symbol of a single factor: kind 'h' or 'l' plus index."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (H, L):
            raise ValueError("kind must be 'h' or 'l', got %r" % (self.kind,))
        if self.index < 0:
            raise ValueError("index must be >= 0")

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


@dataclass(frozen=True)
class Cycle:
    """F2 combination of standard basis tuples over a fixed product context."""

    context: tuple
    support: frozenset

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        object.__setattr__(self, "support", frozenset(self.support))
        arity = len(self.context)
        for elt in self.support:
            if len(elt) != arity:
                raise ContextMismatch(
                    "basis tuple arity %d does not match context arity %d"
                    % (len(elt), arity)
                )
            for sym, prof in zip(elt, self.context):
                if not 0 <= sym.index < prof.r:
                    raise ContextMismatch(
                        "symbol %s outside index range [0, %d)" % (sym, prof.r)
                    )

    @classmethod
    def zero(cls, context) -> "Cycle":
        return cls(tuple(context), frozenset())

    @classmethod
    def of_basis(cls, context, *elements) -> "Cycle":
        """Cycle with the given basis tuples (F2: duplicates cancel)."""
        support = set()
        for elt in elements:
            elt = tuple(elt)
            support.symmetric_difference_update({elt})
        return cls(tuple(context), frozenset(support))

    def __bool__(self):
        return bool(self.support)

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.context != other.context:
            raise ContextMismatch("cannot add cycles over different contexts")
        return Cycle(self.context, self.support ^ other.support)

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
        return cls.of_basis(context, *support)

    def __str__(self):
        return cycle_to_text(self)


def identity_cycle(context) -> Cycle:
    """The unit of R_X: the all-h^0 tuple."""
    return Cycle.of_basis(context, tuple(h(0) for _ in context))


def point_cycle(context) -> Cycle:
    """Class of a rational point: the all-l_0 tuple."""
    return Cycle.of_basis(context, tuple(l(0) for _ in context))


def basis_tuples(context):
    """Iterate the standard basis of R_X in sorted order."""
    per_factor = [
        [h(i) for i in range(p.r)] + [l(i) for i in range(p.r)] for p in context
    ]
    return itertools.product(*per_factor)


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
    """Bilinear componentwise product in R_X."""
    if a.context != b.context:
        raise ContextMismatch("cannot multiply cycles over different contexts")
    support = set()
    for ea in a.support:
        for eb in b.support:
            out = []
            for sa, sb, prof in zip(ea, eb, a.context):
                prod = mul_factor(sa, sb, prof)
                if prod is None:
                    break
                out.append(prod)
            else:
                support.symmetric_difference_update({tuple(out)})
    return Cycle(a.context, frozenset(support))


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


def steenrod(j: int, c: Cycle) -> Cycle:
    """Cohomological-type Steenrod operation S^j on R_X.

    On products it distributes over all compositions j = j_1 + ... + j_m;
    a part j_t >= r kills its factor, so the parts are capped at r - 1 and
    the result is 0 once j exceeds the sum of the caps.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    support = set()
    caps = tuple(prof.r - 1 for prof in c.context)
    for elt in c.support:
        for split in _compositions(j, caps):
            out = []
            for jt, sym, prof in zip(split, elt, c.context):
                res = steenrod_factor(jt, sym, prof)
                if res is None:
                    break
                out.append(res)
            else:
                support.symmetric_difference_update({tuple(out)})
    return Cycle(c.context, frozenset(support))


def _compositions(total: int, caps: tuple):
    """Compositions of total with part t in [0, caps[t]]; none if total > sum(caps)."""
    if not caps:
        if total == 0:
            yield ()
        return
    rest_max = sum(caps[1:])
    for head in range(max(0, total - rest_max), min(total, caps[0]) + 1):
        for rest in _compositions(total - head, caps[1:]):
            yield (head,) + rest


# -- text notation ("h0*l2 + h1*l1") ------------------------------------------

_TERM_RE = re.compile(r"^([hl])(\d+)$")


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
