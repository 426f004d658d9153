"""SL2(K) with exact decompositions, filtration membership, and its tree.

Tree points are pairs (g, y): the point g·p_y where p_y = y·å∨ in the
standard apartment, so walls sit at 2y + k = 0.  Point equality is DEFINED by
the four-valuation predicate obtained by formally conjugating the SL2(O)
fixator of 0 by the diagonal translation to y; operations emit canonical
representatives with y in (1/2)Z but accept any rational y.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import roots
from .record import Record
from .valued import Field, ValuedScalar


class NotInBigCell(ValueError):
    pass


class SL2Elt(Record):
    __slots__ = ("a", "b", "c", "d")
    a: ValuedScalar
    b: ValuedScalar
    c: ValuedScalar
    d: ValuedScalar

    def __post_init__(self):
        if not (self.a * self.d - self.b * self.c).is_one():
            raise ValueError("determinant must be 1")

    @classmethod
    def _trusted(cls, a, b, c, d) -> "SL2Elt":
        """Build without the det check, for products and inverses of
        elements that passed it: exact arithmetic keeps det 1."""
        g = object.__new__(cls)
        object.__setattr__(g, "a", a)
        object.__setattr__(g, "b", b)
        object.__setattr__(g, "c", c)
        object.__setattr__(g, "d", d)
        return g

    @property
    def field(self) -> Field:
        return self.a.field

    def __mul__(self, other: "SL2Elt") -> "SL2Elt":
        return SL2Elt._trusted(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Elt":
        return SL2Elt._trusted(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def identity(field: Field) -> SL2Elt:
    one, zero = field.one(), field.zero()
    return SL2Elt(one, zero, zero, one)


def x_plus(c: ValuedScalar) -> SL2Elt:
    f = c.field
    return SL2Elt(f.one(), c, f.zero(), f.one())


def x_minus(c: ValuedScalar) -> SL2Elt:
    f = c.field
    return SL2Elt(f.one(), f.zero(), c, f.one())


def diag_torus(f: ValuedScalar) -> SL2Elt:
    """diag(f, f^{-1})."""
    z = f.field.zero()
    return SL2Elt(f, z, z, f.inv())


def weyl_w(field: Field) -> SL2Elt:
    one, zero = field.one(), field.zero()
    return SL2Elt(zero, -one, one, zero)


def upt_decompose(g: SL2Elt):
    """The unique (b, c, δ) with g = x_+(b)·x_-(c)·diag(δ, δ^{-1}).

    Reading off the product ((1+bc)δ, bδ^{-1}; cδ, δ^{-1}) gives δ = g22^{-1},
    c = g21·g22, b = g12·g22^{-1}; requires the big cell g22 ≠ 0.
    """
    if g.d.is_zero():
        raise NotInBigCell("g22 = 0")
    delta = g.d.inv()
    return (g.b * delta, g.c * g.d, delta)


def compose_upt(b: ValuedScalar, c: ValuedScalar, delta: ValuedScalar) -> SL2Elt:
    return x_plus(b) * x_minus(c) * diag_torus(delta)


def birkhoff_decompose(g: SL2Elt):
    """(β, n, γ) with g = x_+(β)·n·x_-(γ), n the monomial of the Birkhoff cell.

    Big cell: n = diag(g22^{-1}, g22), β = g12/g22, γ = g21/g22.  Antidiagonal
    cell: n = (0, g12; −g12^{-1}, 0) with the canonical tie-break γ = 0 and
    β = −g11·g12.
    """
    f = g.field
    if not g.d.is_zero():
        return (g.b / g.d, diag_torus(g.d.inv()), g.c / g.d)
    n = SL2Elt(f.zero(), g.b, -g.b.inv(), f.zero())
    return (-(g.a * g.b), n, f.zero())


# ---------------------------------------------------------------------------
# Subgroup specifications and membership.

# Argument kinds of a subgroup spec: a filtration level n >= 1, or an
# apartment coordinate y (any rational).  A kind whose argument kind is None
# takes none.
LEVEL = "level"
RATIONAL = "rational"


_RATIONAL_TEXT = re.compile(r"\s*[+-]?(\d+(/\d+|\.\d*)?|\.\d+)\s*")


def parse_rational(text: str) -> Fraction:
    """An integer, a/b or a finite decimal as a Fraction: ZeroDivisionError
    for b = 0, ValueError for any other text.  Fraction(text) alone also takes
    an exponent and builds 10^e for it, work that grows with e; here an
    exponent is refused like any other bad text."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a rational (an integer, a/b or a finite decimal): {text!r}")
    return Fraction(text)


class SubgroupSpec(Record):
    """A subgroup kind and its argument, checked on construction against the
    family's KINDS table: kind -> (argument kind, predicate).  A predicate
    maps (g, arg) to the conditions g violates, empty iff g is a member."""
    __slots__ = ("kind", "arg")
    kind: str
    arg: int | Fraction | str | None

    GROUP = ""
    KINDS = {}

    def __init__(self, kind: str, arg=None):
        super().__init__(kind, arg)

    def __post_init__(self):
        kind, arg = self.kind, self.arg
        if kind not in self.KINDS:
            raise ValueError(f"spec {kind!r} does not apply to {self.GROUP} elements")
        want = self.KINDS[kind][0]
        if want == LEVEL:
            if not isinstance(arg, int) or arg < 1:
                raise ValueError(f"spec {kind!r} needs a level, e.g. {kind}:2")
        elif want == RATIONAL:
            try:
                object.__setattr__(self, "arg",
                                   parse_rational(arg) if isinstance(arg, str) else Fraction(arg))
            except ZeroDivisionError:
                raise ValueError(f"spec {kind!r} has a zero denominator") from None
            except (TypeError, ValueError):
                raise ValueError(f"spec {kind!r} needs a rational, e.g. {kind}:1/2") from None
        elif arg is not None:
            raise ValueError(f"spec {kind!r} takes no argument")


# vlambda:n is x_+(ω ≥ n·⟨α, λ⟩)·x_-(ω ≥ n·⟨−α, −λ⟩)·T_{VLAMBDA_TORUS·n},
# λ = å∨ the coroot of roots.a1_system(); both pairings are ⟨α, λ⟩.
_A1 = roots.a1_system()
VLAMBDA_TORUS = 4


def vlambda_levels(n: int) -> tuple[int, int, int]:
    """The least ω(b), ω(c) and ω(δ − 1) of x_+(b)·x_-(c)·diag(δ) in vlambda:n."""
    level = n * roots.eval_pairing(_A1.simple_roots[0], _A1.simple_coroots[0])
    return level, level, VLAMBDA_TORUS * n


def _upt_violations(g: SL2Elt, levels) -> list[str]:
    """Why g is not x_+(b)·x_-(c)·diag(δ) with ω(b), ω(c), ω(δ − 1) ≥ levels."""
    try:
        b, c, delta = upt_decompose(g)
    except NotInBigCell:
        return ["not in the big cell"]
    return [f"ω({name}) = {e.valuation()} < {level}"
            for name, e, level in zip(("b", "c", "δ-1"), (b, c, delta - 1), levels)
            if e.valuation() < level]


def _kerpi(g: SL2Elt, n: int) -> list[str]:
    out = []
    for name, e, target in (("a", g.a, 1), ("b", g.b, 0), ("c", g.c, 0), ("d", g.d, 1)):
        v = (e - target if target else e).valuation()
        if v < n:
            out.append(f"ω({name}{'-1' if target else ''}) = {v} < {n}")
    return out


def _diagonal(g: SL2Elt, n: int | None) -> list[str]:
    """tn:n (ω(δ − 1) ≥ n) or, for n None, tnunits (ω(δ) = 0) on diag(δ, δ^{-1})."""
    if not (g.b.is_zero() and g.c.is_zero()):
        return ["not diagonal"]
    if n is None:
        return [f"ω(δ) = {g.a.valuation()} != 0"] if g.a.valuation() != 0 else []
    return [f"ω(δ-1) = {(g.a - 1).valuation()} < {n}"] if (g.a - 1).valuation() < n else []


def _fixpoint(g: SL2Elt, y: Fraction) -> list[str]:
    bounds = (("a", g.a, 0), ("d", g.d, 0), ("b", g.b, -2 * y), ("c", g.c, 2 * y))
    return [f"ω({name}) = {e.valuation()} < {bound}"
            for name, e, bound in bounds if e.valuation() < bound]


def _bigcello(g: SL2Elt, _) -> list[str]:
    try:
        b, c, delta = upt_decompose(g)
    except NotInBigCell:
        return ["not in the big cell"]
    out = [f"ω({name}) = {e.valuation()} < 0" for name, e in (("b", b), ("c", c))
           if e.valuation() < 0]
    if delta.valuation() != 0:
        out.append(f"ω(δ) = {delta.valuation()} != 0")
    return out


class SL2SubgroupSpec(SubgroupSpec):
    __slots__ = ()
    GROUP = "SL2"
    KINDS = {
        "kerpi": (LEVEL, _kerpi),
        "tn": (LEVEL, _diagonal),
        "tnunits": (None, _diagonal),
        "vlambda": (LEVEL, lambda g, n: _upt_violations(g, vlambda_levels(n))),
        "fixpoint": (RATIONAL, _fixpoint),
        "bigcello": (None, _bigcello),
    }

    def violations(self, g: SL2Elt) -> list[str]:
        return sl2_violations(g, self)


def sl2_violations(g: SL2Elt, spec: SL2SubgroupSpec) -> list[str]:
    """Empty list iff g belongs to the described subgroup."""
    return spec.KINDS[spec.kind][1](g, spec.arg)


def sl2_member(g: SL2Elt, spec: SL2SubgroupSpec) -> bool:
    return not sl2_violations(g, spec)


def kerpi_product_member(g: SL2Elt, n: int) -> bool:
    """ker π_n via the product form x_+(ϖ^n O)·x_-(ϖ^n O)·diag(1+ϖ^n O),
    independent of the entry-congruence route in sl2_member."""
    return not _upt_violations(g, (n, n, n))


# ---------------------------------------------------------------------------
# The rank-one masure: the Bruhat-Tits tree.

class TreePoint(Record):
    __slots__ = ("g", "y")
    g: SL2Elt
    y: Fraction

    @staticmethod
    def make(g: SL2Elt, y) -> "TreePoint":
        return TreePoint(g, Fraction(y))


def apartment_point(field: Field, y) -> TreePoint:
    return TreePoint.make(identity(field), y)


def tree_point_equal(p: TreePoint, q: TreePoint) -> bool:
    """Defined equivalence: h = g_P^{-1} g_Q maps p_{y_Q} to p_{y_P}."""
    return maps_apartment_point(p.g.inverse() * q.g, p.y, q.y)


def maps_apartment_point(h: SL2Elt, yp, yq) -> bool:
    """Whether h maps p_{yq} to p_{yp}.

    Conjugating the SL2(O) fixator of 0 by the formal diagonal translation
    gives the four valuation conditions below (exact for half-integral y,
    extension-by-formula for other rationals).
    """
    return (h.a.valuation() >= yq - yp
            and h.b.valuation() >= -(yp + yq)
            and h.c.valuation() >= yp + yq
            and h.d.valuation() >= yp - yq)


def tree_act(g: SL2Elt, p: TreePoint) -> TreePoint:
    return TreePoint(g * p.g, p.y)


def tree_retract(p: TreePoint) -> Fraction:
    """Apartment coordinate of the retraction of p centred at +∞.

    y' is the unique value admitting c0 with (x_+(c0), y') equal to p; with
    bottom row (c, d) of g the conditions force y' ≤ min(ω(c) − y, ω(d) + y),
    and taking c0 = b/d (resp. a/c) attains the bound, so the minimum is it.
    """
    # c and d are not both 0, and ω(0) = INFINITY leaves the other bound
    return Fraction(min(p.g.c.valuation() - p.y, p.g.d.valuation() + p.y))


def fixed_interval(g: SL2Elt):
    """{y : g fixes p_y}: None (empty), or (lo, hi) with None for ±∞.

    Empty iff ω(a) < 0 or ω(d) < 0; otherwise [−ω(b)/2, ω(c)/2], where a
    vanishing b (resp. c) unbounds the left (right) end.  (None, None) is the
    whole apartment, e.g. any diagonal with unit entries, in particular −I.
    """
    if g.a.valuation() < 0 or g.d.valuation() < 0:
        return None
    lo = None if g.b.is_zero() else -Fraction(g.b.valuation()) / 2
    hi = None if g.c.is_zero() else Fraction(g.c.valuation()) / 2
    return (lo, hi)
