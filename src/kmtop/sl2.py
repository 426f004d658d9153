"""SL2(K) with exact decompositions, filtration membership, and its tree.

Tree points are pairs (g, y): the point g·p_y where p_y = y·å∨ in the standard
apartment, so walls sit at 2y + k = 0.  Point equality, TreePoint's ==, is
DEFINED by the one apartment predicate ``apartment_violations`` (at y_p = y_q,
the ``fixpoint:y`` spec): four valuation bounds from formally conjugating the
SL2(O) fixator of 0 by the diagonal translation to y.  Operations emit
canonical representatives with y in (1/2)Z but accept any rational y.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import roots
from .record import Record
from .valued import Field, ValuedScalar, check_digits, exact_fraction, exact_str, nonzero


class NotInBigCell(ValueError):
    pass


def _dot(a0, b0, a1, b1):
    """a0·b0 + a1·b1 over ValuedScalar or LaurentPoly entries, without the
    products that have a zero factor: the generators x_±, tori and w each
    have two zero or unit entries, so 2×2 products of them skip most terms
    (as Gustavson's sparse product skips zero entries).  A sum with a zero
    term is the other term, so dropping it changes no canonical result."""
    if a0.is_zero() or b0.is_zero():
        return a1 * b1
    if a1.is_zero() or b1.is_zero():
        return a0 * b0
    return a0 * b0 + a1 * b1


class SL2Elt(Record):
    """[[a, b], [c, d]] of det 1 over K (ValuedScalar entries) or K[u, u^{-1}]
    (LaurentPoly entries): the code asks only *, -, is_zero() and is_one().

    ``SL2Elt(a, b, c, d)`` checks entries from outside: all four are
    scalars, some of them ints coerced through the field of the others, or
    all four are of one other type with a field (Laurent polynomials, whose
    type AffElt checks), of one field, with det 1.  The
    generators below, products and inverses are built from such entries and
    have det 1 by their shape or by exact arithmetic, so they build through
    ``_trusted``, which skips the check."""
    __slots__ = ("a", "b", "c", "d")
    a: ValuedScalar
    b: ValuedScalar
    c: ValuedScalar
    d: ValuedScalar

    def __post_init__(self):
        entries = self.entries()
        kinds = {type(e) for e in entries}
        if kinds - {int} == {ValuedScalar}:
            field = next(e.field for e in entries if type(e) is ValuedScalar)
            for set_entry, e in zip(self._setters, entries):
                set_entry(self, field.scalar(e))
        elif len(kinds) == 1 and all(isinstance(getattr(e, "field", None), Field)
                                     for e in entries):
            for e in entries:
                self.a.field.check_same(e.field)
        else:
            names = ", ".join(type(e).__name__ for e in entries)
            raise TypeError(f"SL2Elt needs scalars (ints coerced) or Laurent polynomials, "
                            f"got {names}")
        if not (self.a * self.d - self.b * self.c).is_one():
            raise ValueError("determinant must be 1")

    @staticmethod
    def _trusted(a, b, c, d) -> "SL2Elt":
        """Build without the checks, setting the four fields in place: one
        is built per product."""
        g = _new(SL2Elt)
        _set_a(g, a)
        _set_b(g, b)
        _set_c(g, c)
        _set_d(g, d)
        return g

    @property
    def field(self) -> Field:
        return self.a.field

    def __mul__(self, other: "SL2Elt") -> "SL2Elt":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return SL2Elt._trusted(_dot(a, e, b, g), _dot(a, f, b, h),
                               _dot(c, e, d, g), _dot(c, f, d, h))

    def inverse(self) -> "SL2Elt":
        return SL2Elt._trusted(self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return self.a.is_one() and self.d.is_one() and self.b.is_zero() and self.c.is_zero()

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


_new = object.__new__
_set_a, _set_b, _set_c, _set_d = SL2Elt._setters


def identity(field: Field) -> SL2Elt:
    one, zero = field.one(), field.zero()
    return SL2Elt._trusted(one, zero, zero, one)


def x_plus(field: Field, c) -> SL2Elt:
    return SL2Elt._trusted(field.one(), field.scalar(c), field.zero(), field.one())


def x_minus(field: Field, c) -> SL2Elt:
    return SL2Elt._trusted(field.one(), field.zero(), field.scalar(c), field.one())


def diag_torus(field: Field, f) -> SL2Elt:
    """diag(f, f^{-1}) for f ≠ 0."""
    f = nonzero(field.scalar(f), "diag")
    z = field.zero()
    return SL2Elt._trusted(f, z, z, f.inv())


def weyl_w(field: Field) -> SL2Elt:
    one, zero = field.one(), field.zero()
    return SL2Elt._trusted(zero, -one, one, zero)


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
    return x_plus(delta.field, b) * x_minus(delta.field, c) * diag_torus(delta.field, delta)


def birkhoff_decompose(g: SL2Elt):
    """(β, n, γ) with g = x_+(β)·n·x_-(γ), n the monomial of the Birkhoff cell.

    Big cell: n = diag(g22^{-1}, g22), β = g12/g22, γ = g21/g22.  Antidiagonal
    cell: n = (0, g12; −g12^{-1}, 0) with the canonical tie-break γ = 0 and
    β = −g11·g12.
    """
    f = g.field
    if not g.d.is_zero():
        return (g.b / g.d, diag_torus(f, g.d.inv()), g.c / g.d)
    n = SL2Elt._trusted(f.zero(), g.b, -g.b.inv(), f.zero())     # det g12·g12^{-1} = 1
    return (-(g.a * g.b), n, f.zero())


# ---------------------------------------------------------------------------
# Subgroup specifications and membership.

# Argument kinds of a subgroup spec: a filtration level n >= 1, or an
# apartment coordinate y (any rational).  A kind whose argument kind is None
# takes none.
LEVEL = "level"
RATIONAL = "rational"


_RATIONAL_TEXT = re.compile(r"\s*[+-]?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)\s*")


def parse_rational(text: str) -> Fraction:
    """An integer, a/b or a finite decimal as a Fraction: ZeroDivisionError
    for b = 0, ValueError for any other text.  Fraction(text) alone also takes
    an exponent and builds 10^e for it, work that grows with e; here an
    exponent is refused like any other bad text."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a rational (an integer, a/b or a finite decimal): {text!r}")
    return Fraction(check_digits(text))


class SubgroupSpec(Record):
    """A subgroup kind and its argument, checked on construction against the
    family's KINDS table: kind -> (argument kind, predicate).  A predicate
    maps (g, arg) to the conditions g violates, empty iff g is a member;
    violations(g) runs it, and g in spec is the one membership question."""
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
            if type(arg) is not int or arg < 1:     # a bool is no level
                raise ValueError(f"spec {kind!r} needs a level, e.g. {kind}:2")
        elif want == RATIONAL:
            try:
                _set_arg(self, parse_rational(arg) if isinstance(arg, str) else exact_fraction(arg))
            except ZeroDivisionError:
                raise ValueError(f"spec {kind!r} has a zero denominator") from None
            except (TypeError, ValueError):
                raise ValueError(f"spec {kind!r} needs a rational, e.g. {kind}:1/2") from None
        elif arg is not None:
            raise ValueError(f"spec {kind!r} takes no argument")

    def __contains__(self, g) -> bool:
        return not self.violations(g)


# vlambda:n is x_+(ω ≥ n·⟨α, λ⟩)·x_-(ω ≥ n·⟨−α, −λ⟩)·T_{VLAMBDA_TORUS·n},
# λ = å∨ the coroot of roots.A1; both pairings are ⟨α, λ⟩.
VLAMBDA_TORUS = 4


def vlambda_levels(n: int) -> tuple[int, int, int]:
    """The least ω(b), ω(c) and ω(δ − 1) of x_+(b)·x_-(c)·diag(δ) in vlambda:n."""
    level = n * roots.eval_pairing(roots.A1.simple_roots[0], roots.A1.simple_coroots[0])
    return level, level, VLAMBDA_TORUS * n


def bound_violations(bounds) -> list[str]:
    """"ω(name) = v < bound" for each (name, v, bound) with the valuation v
    below the bound, in order: the one wording of a failed bound on a named
    valuation (affine.entry_violations words those on matrix coefficients).
    Callers pass ω(x), or for a name x-1 ω(x − 1), which valuation_from_one
    reads without building x − 1; only the product-form oracle
    kerpi_product_member builds δ − 1, and it reads no violations."""
    return [f"ω({name}) = {v} < {exact_str(bound)}"
            for name, v, bound in bounds if v < bound]


def _big_cell(g: SL2Elt, levels) -> list[str]:
    """Why g is not x_+(b)·x_-(c)·diag(δ) with ω(b), ω(c) and ω(δ − 1) at
    least levels, or, for a last level None, ω(δ) = 0: vlambda:n and
    bigcello.  The valuations are read from g's entries with no factor built:
    upt_decompose gives b = g12·g22^{-1}, c = g21·g22 and δ = g22^{-1}, and
    δ − 1 = (1 − g22)·g22^{-1}, so with w = ω(g22) ω is ω(g12) − w,
    ω(g21) + w, ω(g22 − 1) − w and −w."""
    d = g.d
    if d.is_zero():
        return ["not in the big cell"]
    w = d.valuation()
    level_b, level_c, level_delta = levels
    out = bound_violations((("b", g.b.valuation() - w, level_b),
                            ("c", g.c.valuation() + w, level_c)))
    if level_delta is None:
        if w != 0:
            out.append(f"ω(δ) = {-w} != 0")
    else:
        out.extend(bound_violations((("δ-1", d.valuation_from_one() - w, level_delta),)))
    return out


def _kerpi(g: SL2Elt, n: int) -> list[str]:
    return bound_violations((("a-1", g.a.valuation_from_one(), n), ("b", g.b.valuation(), n),
                             ("c", g.c.valuation(), n), ("d-1", g.d.valuation_from_one(), n)))


def _diagonal(g: SL2Elt, n: int | None) -> list[str]:
    """tn:n (ω(δ − 1) ≥ n) or, for n None, tnunits (ω(δ) = 0) on diag(δ, δ^{-1})."""
    if not (g.b.is_zero() and g.c.is_zero()):
        return ["not diagonal"]
    if n is None:
        return [f"ω(δ) = {g.a.valuation()} != 0"] if g.a.valuation() != 0 else []
    return bound_violations((("δ-1", g.a.valuation_from_one(), n),))


class SL2SubgroupSpec(SubgroupSpec):
    __slots__ = ()
    GROUP = "SL2"
    KINDS = {
        "kerpi": (LEVEL, _kerpi),
        "tn": (LEVEL, _diagonal),
        "tnunits": (None, _diagonal),
        "vlambda": (LEVEL, lambda g, n: _big_cell(g, vlambda_levels(n))),
        "fixpoint": (RATIONAL, lambda g, y: apartment_violations(g, y, y)),
        "bigcello": (None, lambda g, _: _big_cell(g, (0, 0, None))),
    }

    def violations(self, g: SL2Elt) -> list[str]:
        return sl2_violations(g, self)


def sl2_violations(g: SL2Elt, spec: SL2SubgroupSpec) -> list[str]:
    """Empty list iff g belongs to the described subgroup."""
    return spec.KINDS[spec.kind][1](g, spec.arg)


def kerpi_product_member(g: SL2Elt, n: int) -> bool:
    """ker π_n via the product form x_+(ϖ^n O)·x_-(ϖ^n O)·diag(1+ϖ^n O): whether
    ω(b), ω(c) and ω(δ − 1) reach n, with b, c, δ and δ − 1 built, so it
    shares no valuation read with _kerpi or _big_cell."""
    try:
        b, c, delta = upt_decompose(g)
    except NotInBigCell:
        return False
    return min(b.valuation(), c.valuation(), (delta - 1).valuation()) >= n


# ---------------------------------------------------------------------------
# The rank-one masure: the Bruhat-Tits tree.

class TreePoint(Record):
    __slots__ = ("g", "y")
    g: SL2Elt
    y: Fraction

    def __post_init__(self):
        g = self.g
        if type(g) is not SL2Elt or any(type(e) is not ValuedScalar for e in g.entries()):
            raise TypeError(f"a tree point needs an SL2Elt over K, got {type(g).__name__}")
        if type(self.y) is not Fraction:
            _set_y(self, exact_fraction(self.y))

    def __eq__(self, other):    # tree_point_equal; points over two fields differ
        return (self.g.field == other.g.field and tree_point_equal(self, other)
                if other.__class__ is TreePoint else NotImplemented)

    __hash__ = None     # no hash agrees with == without a canonical representative

    def __str__(self):
        return f"point({self.g}, {self.y})"


_set_arg, _set_y = SubgroupSpec._setters[1], TreePoint._setters[1]


def apartment_point(field: Field, y) -> TreePoint:
    return TreePoint(identity(field), y)


def apartment_violations(h: SL2Elt, yp, yq) -> list[str]:
    """Why h does not map p_{yq} to p_{yp}: empty iff it does.

    Conjugating the SL2(O) fixator of 0 by the formal diagonal translation
    gives these four valuation bounds (exact for half-integral y,
    extension-by-formula for other rationals).
    """
    return bound_violations((("a", h.a.valuation(), yq - yp),
                             ("d", h.d.valuation(), yp - yq),
                             ("b", h.b.valuation(), -(yp + yq)),
                             ("c", h.c.valuation(), yp + yq)))


def tree_point_equal(p: TreePoint, q: TreePoint) -> bool:
    """Defined equivalence: h = g_P^{-1} g_Q maps p_{y_Q} to p_{y_P}."""
    return not apartment_violations(p.g.inverse() * q.g, p.y, q.y)


def tree_act(g: SL2Elt, p: TreePoint) -> TreePoint:
    return TreePoint(g * p.g, p.y)


def tree_retract(p: TreePoint) -> Fraction:
    """Apartment coordinate of the retraction of p centred at +∞.

    y' is the unique value admitting c0 with (x_+(c0), y') equal to p; with
    bottom row (c, d) of g the conditions force y' ≤ min(ω(c) − y, ω(d) + y),
    and taking c0 = b/d (resp. a/c) attains the bound, so the minimum is it.
    A zero entry (ω = ∞) bounds nothing and is skipped, so y stays exact.
    """
    return Fraction(min(e.valuation() + sign * p.y
                        for e, sign in ((p.g.c, -1), (p.g.d, 1)) if not e.is_zero()))


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
