"""The affine Kac-Moody group G = SL2(K[u,u^{-1}]) ⋊ K* with exact arithmetic.

Semidirect law: (M, z)·(M1, z1) = (M·M1[u ← z·u], z·z1), M an sl2.SL2Elt
over K[u, u^{-1}].

Congruence caveat: ker π_n for this group is not independently computable
here; following the source theory's own unproven assumption we ADOPT the
coefficient-wise description (M ≡ I mod ϖ^n, ω(z−1) ≥ n) as the definition.
Every ker-π_n-dependent predicate and suite inherits this caveat.

H_n is ker π_n intersected with matrices whose coefficient at exponent j has
ω ≥ n·|j| (the ring O[ϖ^n u, ϖ^n u^{-1}] that the equivalence proof actually
manipulates).  Its membership test is one bound n·max(1, |j|) on each
coefficient of M − I: off the diagonal and at j ≠ 0 that coefficient is one
of M, and a diagonal one at j = 0 has ω ≥ n ≥ 1, so 1 + it has ω ≥ 0.
"""

from __future__ import annotations

from math import factorial

from . import roots
from .record import Record
from .sl2 import LEVEL, SL2Elt, SubgroupSpec, bound_violations
from .valued import INFINITY, Field, ValuedScalar, exact_int, exact_str, nonzero


class NotTorus(ValueError):
    pass


class LaurentPoly(Record):
    """Element of K[u, u^{-1}]: a finite map int exponent -> nonzero
    coefficient.  ``LaurentPoly(field, coeffs)`` coerces each coefficient by
    ``field.scalar`` and drops the zero ones; ``_trusted`` takes them as is."""

    __slots__ = ("field", "coeffs")
    field: Field
    coeffs: dict[int, ValuedScalar]

    def __post_init__(self):
        scalar = self.field.scalar
        coeffs = {exact_int(k): scalar(v) for k, v in self.coeffs.items()}
        _set_coeffs(self, {k: v for k, v in coeffs.items() if not v.is_zero()})

    @staticmethod
    def _trusted(field: Field, coeffs: dict[int, ValuedScalar]) -> "LaurentPoly":
        """Build without the checks, for coefficients known nonzero: == and
        hash compare the dicts, so a zero coefficient must never be kept."""
        p = _new(LaurentPoly)
        _set_field(p, field)
        _set_coeffs(p, coeffs)
        return p

    @staticmethod
    def monomial(field: Field, k: int, s: ValuedScalar) -> "LaurentPoly":
        return LaurentPoly._trusted(field, {} if s.is_zero() else {k: s})

    @staticmethod
    def zero(field: Field) -> "LaurentPoly":
        return LaurentPoly._trusted(field, {})

    @staticmethod
    def one(field: Field) -> "LaurentPoly":
        return LaurentPoly._trusted(field, {0: field.one()})

    # LaurentPoly is never mutated, so a sum with 0 or a product with 0 or 1
    # is an operand itself
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            if s is None:
                out[k] = v
            else:
                s = s + v
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return LaurentPoly._trusted(self.field, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.field, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.coeffs, other.coeffs
        if not a or other.is_one():
            return self
        if not b or self.is_one():
            return other
        if len(a) == 1 or len(b) == 1:
            # a monomial c·u^j shifts the other operand's exponents apart and
            # scales its nonzero coefficients by c ≠ 0: nothing to merge or drop
            mono, rest = (a, b) if len(a) == 1 else (b, a)
            ((j, c),) = mono.items()
            return LaurentPoly._trusted(self.field, {k + j: v * c for k, v in rest.items()})
        out: dict[int, ValuedScalar] = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = k1 + k2
                prod = v1 * v2
                s = out.get(k)
                out[k] = prod if s is None else s + prod
        return LaurentPoly._trusted(self.field, {k: v for k, v in out.items() if not v.is_zero()})

    def substitute_scale(self, z: ValuedScalar) -> "LaurentPoly":
        """u ← z·u for z ≠ 0, 1 (_subst skips z = 1): the exponent-k
        coefficient is multiplied by z^k ≠ 0, and the constant one is kept."""
        if not self.coeffs:
            return self
        return LaurentPoly._trusted(self.field,
                                    {k: v * z ** k if k else v for k, v in self.coeffs.items()})

    def __hash__(self):     # a dict has no hash
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and 0 in self.coeffs and self.coeffs[0].is_one()

    def get(self, k: int) -> ValuedScalar:
        return self.coeffs.get(k, self.field.zero())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            cs = str(c)
            if "/" in cs or "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            else:
                power = "u" if k == 1 else f"u^{k}"
                parts.append(power if c.is_one() else f"{cs}*{power}")
        return " + ".join(parts)


def _subst(m: SL2Elt, z: ValuedScalar) -> SL2Elt:
    """m[u ← z·u], z ≠ 0: a ring map, so the determinant stays 1."""
    return m if z.is_one() else SL2Elt._trusted(*(e.substitute_scale(z) for e in m.entries()))


class AffElt(Record):
    __slots__ = ("m", "z")
    m: SL2Elt
    z: ValuedScalar

    def __post_init__(self):
        m = self.m
        if type(m) is not SL2Elt or any(type(e) is not LaurentPoly for e in m.entries()):
            raise TypeError(f"AffElt needs an SL2Elt over K[u, u^-1], got {type(m).__name__}")
        z = m.field.scalar(self.z)     # FieldMismatch for another field's z
        if z.is_zero():
            raise ValueError("semidirect scalar must be nonzero")
        _set_z(self, z)

    @staticmethod
    def _trusted(m: SL2Elt, z: ValuedScalar) -> "AffElt":
        """Build without the checks of z, setting the two fields in place:
        one is built per product."""
        g = _new(AffElt)
        _set_m(g, m)
        _set_z(g, z)
        return g

    @property
    def field(self) -> Field:
        return self.z.field

    def __mul__(self, other: "AffElt") -> "AffElt":
        # a unit z on either side: the product's z is the other one, unmultiplied
        z, z1 = self.z, other.z
        if z.is_one():
            return AffElt._trusted(self.m * other.m, z1)
        return AffElt._trusted(self.m * _subst(other.m, z), z if z1.is_one() else z * z1)

    def inverse(self) -> "AffElt":
        zi = self.z.inv()
        return AffElt._trusted(_subst(self.m.inverse(), zi), zi)

    def conj(self, h: "AffElt") -> "AffElt":
        return self * h * self.inverse()

    def is_identity(self) -> bool:
        return self.z.is_one() and self.m.is_identity()

    def __str__(self):
        return f"({self.m}, {self.z})"


_new = object.__new__
_set_field, _set_coeffs = LaurentPoly._setters
_set_m, _set_z = AffElt._setters


def conj_bound(g: AffElt, n: int) -> int:
    """An m with g·H_m·g⁻¹ ⊆ H_n, not always the least: n·(1 + 2d) + |ω(z)|
    + 2a, with d the largest |u-exponent| of M = g.m, a = max(0, −min ω) over
    M's coefficients and z = g.z.

    Proof.  Let h = (I + N, z_h) ∈ H_m, A = adj(M) and A' = A[u ← z_h·u].
    Then g·h·g⁻¹ = (M·(I + N)[u ← z·u]·A', z_h), and as M·A = I its matrix
    less I is M·N[u ← z·u]·A' + M·(A' − A).  The u^k coefficient of
    N[u ← z·u] has ω ≥ m·max(1, |k|) − |k|·|ω(z)|.  M and A' (z_h is a unit)
    each move exponents by at most d and lower ω by at most a, so at u^j,
    |j| ≤ |k| + 2d, the first term has ω ≥ (m − |ω(z)| − 2a)·max(1, |k|)
    = n·(1 + 2d)·max(1, |k|) ≥ n·max(1, |j|).  The u^j coefficient of A' − A
    is A_j·(z_h^j − 1), of ω ≥ m − a, so at every |j| ≤ 2d the second term
    has ω ≥ m − 2a ≥ n·max(1, |j|).  Last, ω(z_h − 1) ≥ m ≥ n.
    """
    coeffs = [(k, c) for e in g.m.entries() for k, c in e.coeffs.items()]
    d = max(abs(k) for k, _ in coeffs)
    a = max(0, -min(c.valuation() for _, c in coeffs))
    return exact_int(n) * (1 + 2 * d) + abs(g.z.valuation()) + 2 * a


def aff_x_plus(field: Field, k: int, y) -> AffElt:
    """x_{å+kδ}(y) = ((1, u^k y; 0, 1), 1)."""
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    e = LaurentPoly.monomial(field, exact_int(k), field.scalar(y))
    return AffElt._trusted(SL2Elt._trusted(one, e, zero, one), field.one())


def aff_x_minus(field: Field, k: int, y) -> AffElt:
    """x_{−å+kδ}(y) = ((1, 0; u^k y, 1), 1)."""
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    e = LaurentPoly.monomial(field, exact_int(k), field.scalar(y))
    return AffElt._trusted(SL2Elt._trusted(one, zero, e, one), field.one())


def aff_torus(field: Field, f, z) -> AffElt:
    """(diag(f, f^{-1}), z) for f, z ≠ 0, built through the checked AffElt."""
    f, z = nonzero(field.scalar(f), "torus"), nonzero(field.scalar(z), "torus")
    zero = LaurentPoly.zero(field)
    return AffElt(SL2Elt._trusted(LaurentPoly.monomial(field, 0, f), zero, zero,
                                  LaurentPoly.monomial(field, 0, f.inv())), z)


def aff_t_mu(field: Field, ell: int, n: int) -> AffElt:
    """t_μ for μ = ell·å∨ + n·d: (diag(ϖ^{-ell}, ϖ^{ell}), ϖ^{-n})."""
    return aff_torus(field, field.pi_power(-exact_int(ell)), field.pi_power(-exact_int(n)))


def aff_s1(field: Field) -> AffElt:
    """r̃_1 = x_{α1}(1)·x_{−α1}(−1)·x_{α1}(1) = ((0, 1; −1, 0), 1)."""
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    return AffElt._trusted(SL2Elt._trusted(zero, one, -one, zero), field.one())


def aff_s0(field: Field) -> AffElt:
    """r̃_0 for α0 = δ − å: x_{α0}(1)·x_{−α0}(−1)·x_{α0}(1) = ((0, −u^{-1}; u, 0), 1)."""
    one, zero = field.one(), LaurentPoly.zero(field)
    return AffElt._trusted(SL2Elt._trusted(zero, LaurentPoly.monomial(field, -1, -one),
                                           LaurentPoly.monomial(field, 1, one), zero), one)


def torus_parts(g: AffElt) -> tuple[ValuedScalar, ValuedScalar]:
    """(f, z) for a torus element (diag(f, f^{-1}), z); NotTorus otherwise.
    With b = c = 0, det 1 makes a a unit of K[u, u^{-1}], a monomial f·u^k,
    and d = f^{-1}·u^{-k}: so a constant a is the one check left."""
    m = g.m
    if not (m.b.is_zero() and m.c.is_zero()):
        raise NotTorus("not a torus element: off-diagonal entries present")
    f = m.a.coeffs.get(0)
    if f is None:
        raise NotTorus("not a torus element: diagonal is not a constant pair (f, 1/f)")
    return f, g.z


def eval_char(beta, g: AffElt) -> ValuedScalar:
    """β(t) = f^{β₀}·z^{β₁} on a torus t = (diag(f, f^{-1}), z), β in the dual
    coordinates of roots.AFFINE_SL2."""
    f, z = torus_parts(g)
    return f ** beta[0] * z ** beta[1]


def entry_root(r: int, c: int, k: int) -> tuple[int, int]:
    """The root β = (c − r)·å + k·δ of the u^k coefficient of entry (r, c):
    conjugating by a torus t multiplies it by eval_char(β, t), ϖ^{−⟨β, μ⟩} on t_μ."""
    return (2 * (c - r), k)


# The coweights λ = å∨ + 3d of vform and λ' = å∨ + d of the h2n-in-v shift,
# in the (å∨, d) basis of aff_t_mu.  A bound they put on a coefficient at
# level n is its root's pairing with n·λ; vform's torus lies in T_{VFORM_TORUS·n}.
LAMBDA = (1, 3)
LAMBDA_PRIME = (1, 1)
VFORM_TORUS = 2


def nu_translation(g: AffElt):
    """Translation vector ν(t) in the (å∨, d) basis: χ(ν(t)) = −ω(χ(t))."""
    f, z = torus_parts(g)
    return (-f.valuation(), -z.valuation())


def fix_level(g: AffElt, i: int):
    """ω(α_i(t) − 1) (i = 0, 1): the torus t fixes x_{α_i}(ϖ^{-n})·0 iff n is
    at most this level."""
    return eval_char(roots.AFFINE_SL2.simple_roots[i], g).valuation_from_one()


# ---------------------------------------------------------------------------
# Subgroup membership.

def deviation(m: SL2Elt):
    """(r, c, k, ω) for each nonzero coefficient of m − I, ω its valuation,
    entry by entry in row order and by increasing exponent within an entry.
    Read in place, with no coefficient built: only a diagonal entry's u^0
    coefficient c0 differs from m's, by −1, and its ω is c0's
    valuation_from_one, or ω(−1) = 0 when m has no u^0 term there."""
    for (r, c), e in zip(((0, 0), (0, 1), (1, 0), (1, 1)), m.entries()):
        coeffs = e.coeffs
        if r != c:
            for k in sorted(coeffs):
                yield r, c, k, coeffs[k].valuation()
            continue
        for k in sorted(coeffs.keys() | {0}):
            if k:
                yield r, c, k, coeffs[k].valuation()
                continue
            c0 = coeffs.get(0)
            if c0 is None:
                yield r, c, 0, 0
            elif (v := c0.valuation_from_one()) != INFINITY:     # 1 − 1 = 0 is left out
                yield r, c, 0, v


def entry_violations(m: SL2Elt, bound, prefix: str = ""):
    """"{prefix}(r,c) u^k: ω = v < b" for each coefficient of m − I whose
    valuation v is below b = bound(r, c, k), in deviation's order, r and c
    1-based: the one wording of a failed bound on a matrix coefficient."""
    for r, c, k, v in deviation(m):
        if v < (b := bound(r, c, k)):
            yield f"{prefix}({r + 1},{c + 1}) u^{k}: ω = {v} < {exact_str(b)}"


def _congruence(g: AffElt, n: int, bound) -> list[str]:
    """ω ≥ bound(r, c, k) on each coefficient of m − I and ω(z − 1) ≥ n:
    ker π_n bounds every coefficient by n, H_n the one at u^k by n·max(1, |k|)."""
    return [*entry_violations(g.m, bound, "entry "),
            *bound_violations((("z-1", g.z.valuation_from_one(), n),))]


def _center(g: AffElt) -> list[str]:
    """center and centero: f^2 = 1 and z = 1.  centero's ω(f) = 0 adds
    nothing, since f^2 = 1 forces f = ±1."""
    f, z = torus_parts(g)
    out = []
    if not (f * f).is_one():
        out.append("f^2 != 1")
    if not z.is_one():
        out.append("z != 1")
    return out


class AffSubgroupSpec(SubgroupSpec):
    __slots__ = ()
    GROUP = "affine"
    # vform is looked up when called, so a wrapped vform_violations is the one run
    KINDS = {
        "kerpi": (LEVEL, lambda g, n: _congruence(g, n, lambda r, c, k: n)),
        "hn": (LEVEL, lambda g, n: _congruence(g, n, lambda r, c, k: n * max(1, abs(k)))),
        "tn": (LEVEL, lambda g, n: bound_violations((f"{name}-1", e.valuation_from_one(), n)
                                                    for name, e in zip("fz", torus_parts(g)))),
        "tnphi": (LEVEL, lambda g, n: bound_violations((f"α{i}(t)-1", fix_level(g, i), n)
                                                       for i in (0, 1))),
        "center": (None, lambda g, _: _center(g)),
        "centero": (None, lambda g, _: _center(g)),
        "vform": (LEVEL, lambda g, n: vform_violations(g, n)),
    }

    def violations(self, g: AffElt) -> list[str]:
        return aff_violations(g, self)


def aff_violations(g: AffElt, spec: AffSubgroupSpec) -> list[str]:
    """Empty list iff g belongs to the described subgroup; a torus kind on a
    non-torus element answers with the one reason it is not a torus."""
    try:
        return spec.KINDS[spec.kind][1](g, spec.arg)
    except NotTorus as exc:
        return [str(exc)]


# ---------------------------------------------------------------------------
# V-form: sufficient-pattern membership for the λ-segment filtration sets,
# λ = LAMBDA.  g must factor as u_+ · u_- · t with u_± in the t_{∓nλ}-shifted
# unit-at-0 patterns and t in T_{VFORM_TORUS·n}.  The factorization
# M = A·B·diag(f,f^{-1}) (A polynomial in u with A(0) upper-unitriangular, B
# polynomial in u^{-1} with B(∞) lower-unitriangular) is unique when it
# exists.  It is found by row reduction: x_±(c·u^k), k ≥ 0, lowers the larger
# row degree of M until both are 0 and what is left lies in K[u^{-1}].  Each
# step lowers the sum of the row degrees, which starts at most 2N (N the
# largest u-exponent of M) and never falls below deg det = 0, so at most 2N
# steps run.  Each factor is then checked coefficient-wise.

def _birkhoff(m: SL2Elt):
    """(A, C) with m = A·C, A ∈ SL2(K[u]) with A(0) upper unitriangular and
    C = B·diag(f, f^{-1}) ∈ SL2(K[u^{-1}]) with C(∞) lower triangular; None
    when m has no such factorization.

    Row operations E reduce m to R = E·m in SL2(K[u^{-1}]).  A tie in row
    degree reduces the top row, so every k = 0 step is an x_+ and E(0) is
    upper unitriangular; A = E^{-1}·x_+(s) and C = x_+(−s)·R for the one s
    that makes C(∞) lower triangular.
    """
    field = m.field
    rows = [[m.a, m.b], [m.c, m.d]]
    while True:
        deg = [max(k for e in row for k in e.coeffs) for row in rows]
        hi = 0 if deg[0] >= deg[1] else 1
        lo = 1 - hi
        if deg[hi] <= 0:
            break           # both 0: the row degrees sum to at least deg det = 0
        lead_hi = [e.get(deg[hi]) for e in rows[hi]]
        lead_lo = [e.get(deg[lo]) for e in rows[lo]]
        if not (lead_hi[0] * lead_lo[1] - lead_hi[1] * lead_lo[0]).is_zero():
            return None     # reduced with row degrees (d, −d), d > 0: outside the big cell
        j = 0 if not lead_lo[0].is_zero() else 1
        c = LaurentPoly.monomial(field, deg[hi] - deg[lo], lead_hi[j] * lead_lo[j].inv())
        rows[hi] = [a - c * b for a, b in zip(rows[hi], rows[lo])]
    r22 = rows[1][1].get(0)
    if r22.is_zero():
        return None         # every candidate C(∞) = x_+(·)·R(∞) has (2,2) entry 0
    s = LaurentPoly.monomial(field, 0, rows[0][1].get(0) * r22.inv())
    C = SL2Elt._trusted(*(a - s * b for a, b in zip(*rows)), *rows[1])
    return m * C.inverse(), C


def vform_violations(g: AffElt, n: int) -> list[str]:
    level = VFORM_TORUS * n
    if out := bound_violations((("z-1", g.z.valuation_from_one(), level),)):
        return out
    factors = _birkhoff(g.m)
    if factors is None:
        return ["no polynomial factorization"]
    A, C = factors
    f = C.a.get(0)
    zero = LaurentPoly.zero(g.field)
    B = C * SL2Elt._trusted(LaurentPoly.monomial(g.field, 0, f.inv()), zero, zero,
                            LaurentPoly.monomial(g.field, 0, f))
    out = [f"torus factor: {line}"
           for line in bound_violations((("f-1", f.valuation_from_one(), level),))]
    # u_+ = A ∈ t_{-μ}·U0^{pm+}·t_{μ} and its mirror u_- = B ∈ t_{μ}·U0^{nm-}·t_{-μ},
    # μ = n·λ: ω ≥ ⟨β, ±μ⟩ at the root β.  Their exponent conditions, ±k ≥ 0
    # at the root ±å and ≥ 1 elsewhere, hold by construction: _birkhoff's
    # A ∈ SL2(K[u]) has A(0) upper unitriangular, and B ∈ SL2(K[u^{-1}]) has
    # B(∞) lower.
    mu = tuple(n * x for x in LAMBDA)
    for name, factor, sign in (("u_+", A, 1), ("u_-", B, -1)):
        out.extend(entry_violations(
            factor, lambda r, c, k: sign * roots.eval_pairing(entry_root(r, c, k), mu),
            f"{name} entry "))
    return out


# ---------------------------------------------------------------------------
# Kac-Peterson strictness witness.

# Largest depth kp_witness accepts: a root adds one line of CLI output, so the
# limit bounds a call's output to about 350 kB.
MAX_DEPTH = 10000


def kp_witness(n: int, depth: int):
    """Roots β[i] of the alternating word r1 r0 r1 ... and the least index
    where n·ht(β[i]) < ht(β[i])!, witnessing escape from the colimit open set.

    As a01 = a10 = −2, r1(α0) = α0 + 2α1 and r0(α1) = 2α0 + α1, so
    consecutive roots differ by δ = α0 + α1: β[i] = α1 + (i−1)δ, which is
    (i−1, i) in (α0, α1) coordinates, of height 2i − 1.

    Returns ([(beta, height), ...], index or None), indices 1-based.
    """
    if min(exact_int(n), exact_int(depth)) < 1:
        raise ValueError("n and depth must be >= 1")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the limit of {MAX_DEPTH}")
    betas = [((i - 1, i), 2 * i - 1) for i in range(1, depth + 1)]
    witness = next((i for i, (_, ht) in enumerate(betas, 1) if n * ht < factorial(ht)), None)
    return betas, witness
