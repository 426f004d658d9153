"""The affine Kac-Moody group G = SL2(K[u,u^{-1}]) ⋊ K* with exact arithmetic.

Semidirect law: (M, z)·(M1, z1) = (M·M1[u ← z·u], z·z1).

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
from .sl2 import LEVEL, SubgroupSpec
from .valued import Field, ValuedScalar


class NotTorus(ValueError):
    pass


class LaurentPoly:
    """Element of K[u, u^{-1}]: a finite map exponent -> nonzero coefficient."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: dict[int, ValuedScalar] | None = None):
        self.field = field
        self.coeffs = {int(k): v for k, v in coeffs.items() if not v.is_zero()} if coeffs else {}

    @staticmethod
    def const(s: ValuedScalar) -> "LaurentPoly":
        return LaurentPoly(s.field, {0: s})

    @staticmethod
    def monomial(field: Field, k: int, s: ValuedScalar) -> "LaurentPoly":
        return LaurentPoly(field, {k: s})

    @staticmethod
    def zero(field: Field) -> "LaurentPoly":
        return LaurentPoly(field, {})

    @staticmethod
    def one(field: Field) -> "LaurentPoly":
        return LaurentPoly(field, {0: field.one()})

    # LaurentPoly is never mutated, so a sum with 0 or a product with 1 is
    # the other operand itself
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return LaurentPoly(self.field, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.field, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.is_one():
            return self
        if self.is_one():
            return other
        out: dict[int, ValuedScalar] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                prod = v1 * v2
                s = out.get(k)
                out[k] = prod if s is None else s + prod
        return LaurentPoly(self.field, out)

    def substitute_scale(self, z: ValuedScalar) -> "LaurentPoly":
        """u ← z·u: the exponent-k coefficient is multiplied by z^k."""
        if not self.coeffs or z.is_one():
            return self
        return LaurentPoly(self.field, {k: v * z ** k for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and 0 in self.coeffs and self.coeffs[0].is_one()

    def get(self, k: int) -> ValuedScalar:
        return self.coeffs.get(k, self.field.zero())

    def constant_value(self) -> ValuedScalar | None:
        """The scalar if this is a constant polynomial, else None."""
        if not self.coeffs:
            return self.field.zero()
        if len(self.coeffs) == 1 and 0 in self.coeffs:
            return self.coeffs[0]
        return None

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


Matrix = tuple[tuple[LaurentPoly, LaurentPoly], tuple[LaurentPoly, LaurentPoly]]


def _mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(
        tuple(m1[r][0] * m2[0][c] + m1[r][1] * m2[1][c] for c in range(2))
        for r in range(2))


def _mat_det(m: Matrix) -> LaurentPoly:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _mat_subst(m: Matrix, z: ValuedScalar) -> Matrix:
    return tuple(tuple(e.substitute_scale(z) for e in row) for row in m)


class AffElt(Record):
    __slots__ = ("m", "z")
    m: Matrix
    z: ValuedScalar

    def __post_init__(self):
        if self.z.is_zero():
            raise ValueError("semidirect scalar must be nonzero")
        if not _mat_det(self.m).is_one():
            raise ValueError("determinant must be 1")

    @classmethod
    def _trusted(cls, m: Matrix, z: ValuedScalar) -> "AffElt":
        """Build without the z != 0 and det checks, for products and inverses
        of elements that passed them: the semidirect law keeps both."""
        g = object.__new__(cls)
        object.__setattr__(g, "m", m)
        object.__setattr__(g, "z", z)
        return g

    @property
    def field(self) -> Field:
        return self.z.field

    def __mul__(self, other: "AffElt") -> "AffElt":
        return AffElt._trusted(_mat_mul(self.m, _mat_subst(other.m, self.z)), self.z * other.z)

    def inverse(self) -> "AffElt":
        adj = ((self.m[1][1], -self.m[0][1]), (-self.m[1][0], self.m[0][0]))
        zi = self.z.inv()
        return AffElt._trusted(_mat_subst(adj, zi), zi)

    def conj(self, h: "AffElt") -> "AffElt":
        return self * h * self.inverse()

    def is_identity(self) -> bool:
        return (self.z.is_one() and self.m[0][0].is_one() and self.m[1][1].is_one()
                and self.m[0][1].is_zero() and self.m[1][0].is_zero())

    def __str__(self):
        return (f"([[{self.m[0][0]}, {self.m[0][1]}], "
                f"[{self.m[1][0]}, {self.m[1][1]}]], {self.z})")


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
    coeffs = [(k, c) for row in g.m for e in row for k, c in e.coeffs.items()]
    d = max(abs(k) for k, _ in coeffs)
    a = max(0, -min(c.valuation() for _, c in coeffs))
    return n * (1 + 2 * d) + abs(g.z.valuation()) + 2 * a


def aff_x_plus(field: Field, k: int, y: ValuedScalar) -> AffElt:
    """x_{å+kδ}(y) = ((1, u^k y; 0, 1), 1)."""
    one = LaurentPoly.one(field)
    zero = LaurentPoly.zero(field)
    return AffElt(((one, LaurentPoly.monomial(field, k, y)), (zero, one)), field.one())


def aff_x_minus(field: Field, k: int, y: ValuedScalar) -> AffElt:
    """x_{−å+kδ}(y) = ((1, 0; u^k y, 1), 1)."""
    one = LaurentPoly.one(field)
    zero = LaurentPoly.zero(field)
    return AffElt(((one, zero), (LaurentPoly.monomial(field, k, y), one)), field.one())


def aff_torus(f: ValuedScalar, z: ValuedScalar) -> AffElt:
    field = f.field
    zero = LaurentPoly.zero(field)
    return AffElt(((LaurentPoly.const(f), zero), (zero, LaurentPoly.const(f.inv()))), z)


def aff_t_mu(field: Field, ell: int, n: int) -> AffElt:
    """t_μ for μ = ell·å∨ + n·d: (diag(ϖ^{-ell}, ϖ^{ell}), ϖ^{-n})."""
    return aff_torus(field.pi_power(-ell), field.pi_power(-n))


def aff_s1(field: Field) -> AffElt:
    """r̃_1 = x_{α1}(1)·x_{−α1}(−1)·x_{α1}(1) = ((0, 1; −1, 0), 1)."""
    one = field.one()
    return aff_x_plus(field, 0, one) * aff_x_minus(field, 0, -one) * aff_x_plus(field, 0, one)


def aff_s0(field: Field) -> AffElt:
    """r̃_0 for α0 = δ − å: x_{α0}(1)·x_{−α0}(−1)·x_{α0}(1) = ((0, −u^{-1}; u, 0), 1)."""
    one = field.one()
    return aff_x_minus(field, 1, one) * aff_x_plus(field, -1, -one) * aff_x_minus(field, 1, one)


def torus_parts(g: AffElt) -> tuple[ValuedScalar, ValuedScalar]:
    """(f, z) for a torus element (diag(f, f^{-1}), z); NotTorus otherwise."""
    if not (g.m[0][1].is_zero() and g.m[1][0].is_zero()):
        raise NotTorus("not a torus element: off-diagonal entries present")
    f = g.m[0][0].constant_value()
    finv = g.m[1][1].constant_value()
    if f is None or finv is None or f.is_zero() or not (f * finv).is_one():
        raise NotTorus("not a torus element: diagonal is not a constant pair (f, 1/f)")
    return f, g.z


def eval_char(beta, g: AffElt) -> ValuedScalar:
    """β(t) = f^{β₀}·z^{β₁} on a torus t = (diag(f, f^{-1}), z), β in the dual
    coordinates of roots.affine_sl2_system()."""
    f, z = torus_parts(g)
    return f ** beta[0] * z ** beta[1]


def entry_root(r: int, c: int, k: int) -> tuple[int, int]:
    """The root β = (c − r)·å + k·δ of the u^k coefficient of entry (r, c):
    conjugating by a torus t multiplies that coefficient by eval_char(β, t)."""
    return (2 * (c - r), k)


# The coweights λ = å∨ + 3d of vform and λ' = å∨ + d of the h2n-in-v shift,
# in the (å∨, d) basis of aff_t_mu.  A bound they put on a coefficient at
# level n is its root's pairing with n·λ; vform's torus lies in T_{VFORM_TORUS·n}.
LAMBDA = (1, 3)
LAMBDA_PRIME = (1, 1)
VFORM_TORUS = 2
_SIMPLE_ROOTS = roots.affine_sl2_system().simple_roots


def nu_translation(g: AffElt):
    """Translation vector ν(t) in the (å∨, d) basis: χ(ν(t)) = −ω(χ(t))."""
    f, z = torus_parts(g)
    return (-f.valuation(), -z.valuation())


def fixes_test_point(g: AffElt, i: int, n: int) -> bool:
    """ω(α_i(t) − 1) ≥ n (i = 0, 1): whether the torus t fixes x_{α_i}(ϖ^{-n})·0."""
    return (eval_char(_SIMPLE_ROOTS[i], g) - 1).valuation() >= n


# ---------------------------------------------------------------------------
# Subgroup membership.

def deviation(m: Matrix):
    """(r, c, k, coefficient) for each nonzero coefficient of m − I, entry by
    entry in row order and by increasing exponent within an entry."""
    one = LaurentPoly.one(m[0][0].field)
    for r in range(2):
        for c in range(2):
            dev = m[r][c] - one if r == c else m[r][c]
            for k, coeff in sorted(dev.coeffs.items()):
                yield r, c, k, coeff


def _congruence(g: AffElt, n: int, ring: bool) -> list[str]:
    """ker π_n: ω ≥ n on each coefficient of m − I and ω(z − 1) ≥ n.  H_n
    (ring) raises the bound at u^k to n·|k|, one bound per coefficient."""
    out = []
    for r, c, k, coeff in deviation(g.m):
        bound = n * max(1, abs(k)) if ring else n
        v = coeff.valuation()
        if v < bound:
            out.append(f"entry ({r + 1},{c + 1}) u^{k}: ω = {v} < {bound}")
    v = (g.z - 1).valuation()
    if v < n:
        out.append(f"ω(z-1) = {v} < {n}")
    return out


def _center(g: AffElt, integral: bool) -> list[str]:
    """center, or with integral centero: f^2 = 1 and z = 1 (and ω(f) = 0)."""
    f, z = torus_parts(g)
    out = []
    if not (f * f).is_one():
        out.append("f^2 != 1")
    if not z.is_one():
        out.append("z != 1")
    if integral and f.valuation() != 0:
        out.append("ω(f) != 0")
    return out


class AffSubgroupSpec(SubgroupSpec):
    __slots__ = ()
    GROUP = "affine"
    # vform is looked up when called, so a wrapped vform_violations is the one run
    KINDS = {
        "kerpi": (LEVEL, lambda g, n: _congruence(g, n, False)),
        "hn": (LEVEL, lambda g, n: _congruence(g, n, True)),
        "tn": (LEVEL, lambda g, n: [f"ω({name}-1) = {(e - 1).valuation()} < {n}"
                                    for name, e in zip("fz", torus_parts(g))
                                    if (e - 1).valuation() < n]),
        "tnphi": (LEVEL, lambda g, n: [f"ω(α{i}(t)-1) < {n}" for i in (0, 1)
                                       if not fixes_test_point(g, i, n)]),
        "center": (None, lambda g, _: _center(g, False)),
        "centero": (None, lambda g, _: _center(g, True)),
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


def aff_member(g: AffElt, spec: AffSubgroupSpec) -> bool:
    return not aff_violations(g, spec)


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
# steps run.  Each factor is then checked entry-wise.

def _pattern_violations(a: Matrix, mu, sign: int) -> list[str]:
    """Entry conditions of u_+ ∈ t_{-μ}·U0^{pm+}·t_{μ} (sign 1) or of its
    mirror u_- ∈ t_{μ}·U0^{nm-}·t_{-μ} (sign −1), μ = n·λ: sign·k ≥ 0 at the
    root sign·å, sign·k ≥ 1 elsewhere, and ω ≥ ⟨β, sign·μ⟩ at the root β."""
    name, beyond = ("u_+", "<") if sign > 0 else ("u_-", ">")
    out = []
    for r, c, k, coeff in deviation(a):
        lowest = 0 if c - r == sign else 1
        bound = sign * roots.eval_pairing(entry_root(r, c, k), mu)
        if sign * k < lowest:
            out.append(f"{name} entry ({r + 1},{c + 1}) has exponent {k} "
                       f"{beyond} {sign * lowest}")
        elif coeff.valuation() < bound:
            out.append(f"{name} entry ({r + 1},{c + 1}) u^{k}: ω < {bound}")
    return out


def _birkhoff(m: Matrix):
    """(A, C) with m = A·C, A ∈ SL2(K[u]) with A(0) upper unitriangular and
    C = B·diag(f, f^{-1}) ∈ SL2(K[u^{-1}]) with C(∞) lower triangular; None
    when m has no such factorization.

    Row operations E reduce m to R = E·m in SL2(K[u^{-1}]).  A tie in row
    degree reduces the top row, so every k = 0 step is an x_+ and E(0) is
    upper unitriangular; A = E^{-1}·x_+(s) and C = x_+(−s)·R for the one s
    that makes C(∞) lower triangular.
    """
    field = m[0][0].field
    rows = [list(m[0]), list(m[1])]
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
    s = LaurentPoly.const(rows[0][1].get(0) * r22.inv())
    C: Matrix = (tuple(a - s * b for a, b in zip(*rows)), tuple(rows[1]))
    return _mat_mul(m, ((C[1][1], -C[0][1]), (-C[1][0], C[0][0]))), C


def vform_violations(g: AffElt, n: int) -> list[str]:
    level = VFORM_TORUS * n
    if (g.z - 1).valuation() < level:
        return [f"ω(z-1) = {(g.z - 1).valuation()} < {level}"]
    factors = _birkhoff(g.m)
    if factors is None:
        return ["no polynomial factorization"]
    A, C = factors
    f = C[0][0].get(0)
    zero = LaurentPoly.zero(g.field)
    B = _mat_mul(C, ((LaurentPoly.const(f.inv()), zero), (zero, LaurentPoly.const(f))))
    out = []
    if (f - 1).valuation() < level:
        out.append(f"torus factor: ω(f-1) = {(f - 1).valuation()} < {level}")
    mu = tuple(n * x for x in LAMBDA)
    out.extend(_pattern_violations(A, mu, 1))
    out.extend(_pattern_violations(B, mu, -1))
    return out


# ---------------------------------------------------------------------------
# Kac-Peterson strictness witness.

# Largest depth kp_witness accepts: a letter costs about 3 µs and adds one
# line of CLI output, so the limit bounds a call to about 30 ms and 350 kB.
MAX_DEPTH = 10000


def kp_witness(n: int, depth: int):
    """Roots β[i] of the alternating word r1 r0 r1 ... and the least index
    where n·ht(β[i]) < ht(β[i])!, witnessing escape from the colimit open set.

    Returns ([(beta, height), ...], index or None), indices 1-based.
    """
    if n < 1 or depth < 1:
        raise ValueError("n and depth must be >= 1")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the limit of {MAX_DEPTH}")
    system = roots.affine_sl2_system()
    simple = ((1, 0), (0, 1))
    # r(α_j) for each letter r; the action on Q-coordinates is linear, so
    # (w·r)(α_j) = Σ_k r(α_j)_k · w(α_k) steps the prefix w one letter on.
    reflected = [[roots.co_reflect(system, r, a) for a in simple] for r in (0, 1)]
    images = simple          # w(α_0), w(α_1) for the prefix w read so far
    betas = []
    witness = None
    for i in range(1, depth + 1):
        letter = i % 2           # r1 r0 r1 ...
        beta = images[letter]
        ht = roots.height(beta)
        betas.append((beta, ht))
        if witness is None and n * ht < factorial(ht):
            witness = i
        images = tuple(
            tuple(sum(c * img[m] for c, img in zip(r_a, images)) for m in range(2))
            for r_a in reflected[letter])
    return betas, witness
