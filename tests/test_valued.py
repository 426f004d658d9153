import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmtop.valued import (
    INFINITY,
    DivisionByZero,
    FieldMismatch,
    PAdicField,
    RationalFunctionField,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _pneg,
    parse_field,
)

F3 = PAdicField(3)
F2T = RationalFunctionField(2)


def test_field_validation():
    with pytest.raises(ValueError):
        PAdicField(4)
    with pytest.raises(ValueError):
        RationalFunctionField(6)
    # prime powers are rejected
    with pytest.raises(ValueError, match="prime q"):
        RationalFunctionField(4)
    assert parse_field("p:3") == F3
    assert parse_field("fq:2") == F2T
    with pytest.raises(ValueError):
        parse_field("x:3")


def _list_sample_unit(field, rng):
    """PAdicField.sample_unit drawn with rng.choice over explicit lists."""
    p = field.p
    num = rng.choice([k for k in range(1, 4 * p) if k % p] + [-1, -2])
    while num % p == 0:
        num = rng.randrange(1, 4 * p)
    den = rng.choice([k for k in range(1, 2 * p + 1) if k % p])
    return field.scalar(Fraction(num, den))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 101])
def test_sample_unit_matches_list_sampler(p):
    field = PAdicField(p)
    for seed in range(2000):
        rng, ref = random.Random(seed), random.Random(seed)
        assert field.sample_unit(rng) == _list_sample_unit(field, ref)
        assert rng.getstate() == ref.getstate()


def test_arith_examples():
    assert (F3.one() + F3.scalar(-1)).is_zero()
    assert F3.scalar(Fraction(2, 3)) * F3.scalar(Fraction(9, 4)) == Fraction(3, 2)
    t = F2T.uniformizer()
    assert (t / (F2T.one() + t)).inv() == (F2T.one() + t) / t


def test_arith_errors():
    with pytest.raises(DivisionByZero):
        F3.zero().inv()
    with pytest.raises(DivisionByZero):
        F3.one() / F3.zero()
    with pytest.raises(FieldMismatch):
        F3.one() + PAdicField(5).one()
    with pytest.raises(FieldMismatch):
        F3.one() * F2T.one()


def test_valuation_examples():
    assert F3.zero().valuation() == INFINITY
    assert F3.scalar(Fraction(18, 5)).valuation() == 2
    t = F2T.uniformizer()
    assert (t ** 3 / (F2T.one() + t)).valuation() == 3
    assert F3.scalar(Fraction(1, 3)).valuation() == -1


def test_ring_predicates():
    assert (F3.scalar(10) - 1).valuation() >= 2        # ω(9) = 2
    assert F3.one().valuation() >= 0
    assert not F3.scalar(Fraction(1, 3)).valuation() >= 1
    assert F3.scalar(2).valuation() == 0
    t = F2T.uniformizer()
    assert (F2T.one() + t ** 2 - 1).valuation() >= 2


def _random_scalar(rng, field, allow_zero=True):
    if allow_zero and rng.random() < 0.1:
        return field.zero()
    v = rng.randint(-4, 5)
    if isinstance(field, PAdicField):
        p = field.p
        num = rng.choice([k for k in range(1, 20) if k % p])
        den = rng.choice([k for k in range(1, 10) if k % p])
        unit = field.scalar(Fraction(rng.choice([num, -num]), den))
    else:
        q = field.q
        num = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(2)]
        den = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(1)]
        unit = field.ratio(num, den)
    return unit * field.pi_power(v)


@pytest.mark.parametrize("field", [F3, F2T], ids=["p3", "f2t"])
def test_ultrametric_and_multiplicativity(field):
    rng = random.Random(42)
    for _ in range(1000):
        x = _random_scalar(rng, field)
        y = _random_scalar(rng, field)
        vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)
        if not x.is_zero() and not y.is_zero():
            assert (x * y).valuation() == vx + vy


def test_canonical_idempotence():
    # building the same value along different routes lands on one raw form
    a = F2T.ratio((0, 2, 4), (1, 2))          # coefficients get reduced mod 2
    b = F2T.ratio((0, 0, 0), (1,))
    assert a == b == F2T.zero()
    c = F2T.ratio((1, 1), (0, 1))             # (1+t)/t already canonical
    d = (F2T.one() + F2T.uniformizer()) / F2T.uniformizer()
    assert c == d and c.raw == d.raw
    x = F3.scalar(Fraction(14, 4))
    assert x.raw == Fraction(7, 2)


def test_formatting_is_stable():
    assert str(F3.scalar(Fraction(-3, 2))) == "-3/2"
    t = F2T.uniformizer()
    assert str((F2T.one() + t * t) / t) == "(1+t^2)/t"
    assert str(F2T.zero()) == "0"
    assert math.isinf(INFINITY)


def test_hash_agrees_with_equality():
    # p-adic scalars equal to a Python number hash like it
    assert F3.scalar(1) == 1 and hash(F3.scalar(1)) == hash(1)
    assert len({F3.scalar(1), 1}) == 1
    half = F3.scalar(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {F3.scalar(Fraction(6, 4)): "x"}[Fraction(3, 2)] == "x"
    # F_q(t) scalars equal no Python number: ints are reduced mod q, so
    # 1 and 4 would both have to equal one() in F_3(t)
    f3t = RationalFunctionField(3)
    assert f3t.scalar(1) == f3t.scalar(4)
    assert f3t.scalar(1) != 1 and f3t.scalar(1) != 4
    assert len({f3t.one(), 1}) == 2
    assert f3t.one() + 1 == f3t.scalar(2)       # ints still coerce in arithmetic


def test_scalar_rejects_floats_and_strings():
    for bad in (0.1, 1.0, "1/3", None):
        with pytest.raises(TypeError):
            F3.scalar(bad)
        with pytest.raises(TypeError):
            F2T.scalar(bad)
    with pytest.raises(TypeError):
        F3.one() + 0.5
    assert F3.scalar(True) == 1                  # bool is an int
    with pytest.raises(FieldMismatch):
        F3.scalar(PAdicField(5).one())


# --- property tests: the field axioms and the valuation ------------------------

FIELDS = ["p:2", "p:3", "fq:2", "fq:3"]
PROPERTY = settings(deadline=None, max_examples=60)


def scalars(field):
    """Ratios of small integers (p-adic) or small polynomials (F_q(t)) times ϖ^v,
    v in [-5, 5], built through the public API; zero included."""
    if field.uniformizer_name == "p":
        base = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 300)).map(field.scalar)
    else:
        coeffs = st.lists(st.integers(0, field.q - 1), max_size=4)
        base = st.builds(field.ratio, coeffs, coeffs.map(lambda c: c if any(c) else c + [1]))
    return st.builds(lambda x, v: x * field.pi_power(v), base, st.integers(-5, 5))


def _draw(data, spec, n, nonzero=False):
    field = parse_field(spec)
    strategy = scalars(field)
    if nonzero:
        strategy = strategy.filter(lambda x: not x.is_zero())
    return field, [data.draw(strategy) for _ in range(n)]


@pytest.mark.parametrize("spec", FIELDS)
@PROPERTY
@given(data=st.data())
def test_field_axioms(spec, data):
    field, (x, y, z) = _draw(data, spec, 3)
    zero, one = field.zero(), field.one()
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert (x + (-x)).is_zero() and x - y == x + (-y)
    assert x ** 1 == x and x ** 2 == x * x and x ** 3 == x * x * x and (x ** 0).is_one()
    if not x.is_zero():
        assert (x * x.inv()).is_one() and x / x == one
        assert x.inv().inv() == x
        assert x ** -2 == x.inv() * x.inv()
        assert (x * y) / x == y


@pytest.mark.parametrize("spec", FIELDS)
@PROPERTY
@given(data=st.data())
def test_valuation_properties(spec, data):
    field, (x, y) = _draw(data, spec, 2)
    vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
    assert (vx == INFINITY) == x.is_zero()
    assert vs >= min(vx, vy)                     # ultrametric inequality
    if vx != vy:
        assert vs == min(vx, vy)
    assert (x * y).valuation() == vx + vy        # ∞ absorbs a zero factor
    assert (-x).valuation() == vx
    if not x.is_zero():
        assert x.inv().valuation() == -vx
    assert field.uniformizer().valuation() == 1


@pytest.mark.parametrize("spec", FIELDS)
@PROPERTY
@given(data=st.data())
def test_inverse_and_hash_properties(spec, data):
    field, (x, y) = _draw(data, spec, 2, nonzero=True)
    assert (x * y).inv() == x.inv() * y.inv()
    assert (-x).inv() == -(x.inv())
    assert x.inv() * x == field.one()
    with pytest.raises(DivisionByZero):
        field.zero().inv()
    with pytest.raises(DivisionByZero):
        field.zero() ** -1
    route = (x * y) / y                           # the same value, built another way
    assert route == x and hash(route) == hash(x)


@pytest.mark.parametrize("q", [2, 3, 5])
@PROPERTY
@given(data=st.data())
def test_fq_inverse_of_a_reduced_fraction_needs_no_gcd(q, data):
    """_inv only swaps and makes the denominator monic; the full reduction of
    den/num agrees."""
    field = RationalFunctionField(q)
    x = data.draw(scalars(field).filter(lambda s: not s.is_zero()))
    num, den = x.raw
    assert field._inv(x.raw) == field._canonical(den, num)


# --- F_q(t) against an independent oracle --------------------------------------

def _sympy_rational_functions(q):
    """(to_sympy, canonical): a raw F_q(t) value as an element of sympy's
    field("t", GF(q)), and a sympy element as a raw value."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field as sympy_field

    K, t = sympy_field("t", sympy.GF(q))

    def to_sympy(raw):
        num, den = raw
        return (sum((c * t ** i for i, c in enumerate(num)), K(0))
                / sum((c * t ** i for i, c in enumerate(den)), K(0)))

    def coeffs(poly, scale):
        # low-to-high coefficients in [0, q), times scale
        out = [0] * (poly.degree() + 1) if poly else []
        for (i,), c in poly.terms():
            out[i] = int(c) * scale % q
        return tuple(out)

    def canonical(e):
        # sympy cancels the gcd; make the denominator monic to compare
        lead_inv = pow(int(e.denom.LC) % q, -1, q)
        return coeffs(e.numer, lead_inv), coeffs(e.denom, lead_inv)

    return to_sympy, canonical


@pytest.mark.parametrize("q", [2, 3])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_fq_matches_sympy_rational_functions(q, data):
    to_sympy_raw, canonical = _sympy_rational_functions(q)
    F = RationalFunctionField(q)

    def to_sympy(x):
        return to_sympy_raw(x.raw)

    def order_at_zero(e):
        if not e.numer:
            return INFINITY
        return min(i for (i,), _ in e.numer.terms()) - min(i for (i,), _ in e.denom.terms())

    x, y = data.draw(scalars(F)), data.draw(scalars(F))
    ex, ey = to_sympy(x), to_sympy(y)
    assert canonical(ex) == x.raw
    assert (x + y).raw == canonical(ex + ey)
    assert (x - y).raw == canonical(ex - ey)
    assert (x * y).raw == canonical(ex * ey)
    assert x.valuation() == order_at_zero(ex)
    if not y.is_zero():
        assert y.inv().raw == canonical(ey ** -1)
        assert (x / y).raw == canonical(ex / ey)


@pytest.mark.parametrize("q", [2, 3])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_fq_polynomial_fast_path(q, data):
    """_add/_mul of two polynomials skip _canonical; they must equal it applied
    to the general formula, and sympy's arithmetic mod q."""
    F = RationalFunctionField(q)
    poly = st.lists(st.integers(0, q - 1), max_size=6).map(lambda c: F.ratio(c).raw)
    a = data.draw(poly)
    b = data.draw(st.one_of(poly, st.just(F._neg(a))))      # includes a + b = 0
    (n1, one), (n2, _) = a, b
    assert one == (1,) and a == F._canonical(*a)
    assert F._add(a, b) == F._canonical(_padd(_pmul(n1, one, q), _pmul(n2, one, q), q),
                                        _pmul(one, one, q))
    assert F._mul(a, b) == F._canonical(_pmul(n1, n2, q), _pmul(one, one, q))

    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_poly(n):
        return sympy.Poly(list(reversed(n)) or [0], t, modulus=q)

    def raw(p):
        # sympy's symmetric residues, low-to-high in [0, q)
        return F.ratio(reversed([int(c) for c in p.all_coeffs()])).raw

    assert F._add(a, b) == raw(to_poly(n1) + to_poly(n2))
    assert F._mul(a, b) == raw(to_poly(n1) * to_poly(n2))


# --- F_q(t) sums and products by cross-gcds ------------------------------------

def _assert_canonical(raw, q):
    num, den = raw
    assert all(0 <= c < q for c in num + den)
    assert den and den[-1] == 1                        # monic denominator
    if not num:
        assert den == (1,)                             # zero is ((), (1,))
    else:
        assert num[-1] != 0 and _pgcd(num, den, q) == (1,)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq_cross_gcd_sums_and_products(q, monkeypatch):
    """_add cancels only a factor of g = gcd(d1, d2), by one more gcd with the
    new numerator; _mul cancels n1 against d2 and n2 against d1, and takes a
    constant c/1 as a unit with no gcd.  Operands are built to share factors
    (denominators r·s and r·t, each numerator a multiple of the other
    operand's denominator piece, and sums that cancel).  One explicit example
    per branch makes every branch run whatever the random draws; each result
    equals _canonical of the general formula and sympy's field("t", GF(q))."""
    from kmtop import valued

    to_sympy, sympy_canonical = _sympy_rational_functions(q)
    F = RationalFunctionField(q)
    gcds = []

    def recording_gcd(a, b, p):
        g = _pgcd(a, b, p)
        gcds.append((a, b, g))
        return g

    monkeypatch.setattr(valued, "_pgcd", recording_gcd)
    fired = set()

    def run(op, a, b):
        gcds.clear()
        out = op(a, b)
        return out, list(gcds)

    # trimmed polynomials of degree at most 2
    polys = st.tuples(st.lists(st.integers(0, q - 1), max_size=2),
                      st.integers(1, q - 1)).map(lambda cl: (*cl[0], cl[1]))
    one, c, t_poly, one_plus_t = (1,), (q - 1,), (0, 1), (1, 1)

    @settings(deadline=None, max_examples=150)
    @given(pieces=st.tuples(*[polys] * 6),
           shape=st.sampled_from(["shared", "cancelling", "negation", "polynomial", "zero"]),
           swap=st.booleans())
    # (1+t)/t and t/(1+t): add with g = 1, mul cancelling both ways
    @example(pieces=(one, t_poly, one_plus_t, one, one, one), shape="shared", swap=False)
    # 1/(1+t) and t/(1+t): add with g = 1+t, whose second gcd cancels
    @example(pieces=(one_plus_t, one, one, one, one, one), shape="cancelling", swap=False)
    # t/(1+t) times 1, and the constant q-1 times t/(1+t)
    @example(pieces=(one_plus_t, one, t_poly, one, one, one), shape="polynomial", swap=False)
    @example(pieces=(one_plus_t, one, t_poly, one, c, one), shape="polynomial", swap=True)
    def check(pieces, shape, swap):
        r, s, t, x, y, z = pieces
        a = F.ratio(_pmul(x, t, q), _pmul(r, s, q)).raw
        if shape == "shared":
            b = F.ratio(_pmul(y, s, q), _pmul(r, t, q)).raw
        elif shape == "cancelling":                    # b = z/s − a, so a + b = z/s
            an, ad = a
            b = F._canonical(_padd(_pmul(z, ad, q), _pneg(_pmul(an, s, q), q), q),
                             _pmul(s, ad, q))
        elif shape == "negation":
            b = F._neg(a)
        else:
            b = F.ratio(y if shape == "polynomial" else ()).raw
        if swap:
            a, b = b, a
        (n1, d1), (n2, d2) = a, b

        total, seen = run(F._add, a, b)
        _assert_canonical(total, q)
        assert total == F._canonical(_padd(_pmul(n1, d2, q), _pmul(n2, d1, q), q),
                                     _pmul(d1, d2, q))
        assert total == sympy_canonical(to_sympy(a) + to_sympy(b))
        if (1,) in (d1, d2):
            assert seen == []                          # g is 1 without a gcd
        else:
            assert seen[0][:2] == (d1, d2) and len(seen) <= 2
            g = seen[0][2]
            fired.add("add: g = 1" if g == (1,) else "add: g != 1")
            if len(seen) == 2 and seen[1][2] != (1,):
                fired.add("add: second gcd cancels")

        product, seen = run(F._mul, a, b)
        _assert_canonical(product, q)
        assert product == F._canonical(_pmul(n1, n2, q), _pmul(d1, d2, q))
        assert product == sympy_canonical(to_sympy(a) * to_sympy(b))
        if (1, (1,)) in ((len(n1), d1), (len(n2), d2)) and not d1 == d2 == (1,):
            assert seen == []                          # a constant c/1 is a unit
            fired.add("mul: constant")
        for num, den, g in seen:
            assert (num, den) in ((n1, d2), (n2, d1))
            if g != (1,):
                fired.add("mul: n1 with d2" if (num, den) == (n1, d2) else "mul: n2 with d1")

    check()
    assert fired == {"add: g = 1", "add: g != 1", "add: second gcd cancels",
                     "mul: n1 with d2", "mul: n2 with d1", "mul: constant"}


# --- the polynomial kernels against schoolbook references and sympy -------------
#
# The schoolbook kernels that _pmul, _pdivmod and _pgcd replaced, word for word
# but for their names: a reduction mod p at every inner step and a trim on
# every result.

def _ptrim_ref(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul_ref(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _ptrim_ref(out)

def _pdivmod_ref(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        coeff = (a[i + len(b) - 1] * inv_lead) % p
        if coeff:
            q[i] = coeff
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - coeff * y) % p
    return _ptrim_ref(q), _ptrim_ref(a)


def _pgcd_ref(a, b, p):
    while b:
        a, b = b, _pdivmod_ref(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((x * inv) % p for x in a)
    return a


def _kernel_polys(p):
    """Nonzero trimmed polynomials over F_p of degree at most 20: constants,
    t-powers c·t^k and dense ones, the shapes the scalar kernel meets."""
    lead = st.integers(1, p - 1)
    return st.one_of(
        lead.map(lambda c: (c,)),
        st.tuples(st.integers(1, 20), lead).map(lambda kc: (0,) * kc[0] + (kc[1],)),
        st.tuples(st.lists(st.integers(0, p - 1), max_size=20), lead)
        .map(lambda cl: (*cl[0], cl[1])))


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_polynomial_kernels_match_schoolbook_and_sympy(p, data):
    """On trimmed operands, _pmul, _pdivmod and _pgcd equal the schoolbook
    kernels they replaced and sympy's arithmetic in GF(p)[t], and every
    result is trimmed (so built to its exact size)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    polys = _kernel_polys(p)
    a = data.draw(st.one_of(st.just(()), polys))
    b = data.draw(polys)

    def to_poly(n):
        return sympy.Poly(list(reversed(n)) or [0], t, modulus=p)

    def raw(poly):
        # sympy's symmetric residues, low-to-high in [0, p), trimmed
        return _ptrim_ref([int(c) % p for c in reversed(poly.all_coeffs())])

    def trimmed(x):
        return isinstance(x, tuple) and (not x or x[-1] != 0) and all(0 <= c < p for c in x)

    product = _pmul(a, b, p)
    assert trimmed(product) and product == _pmul_ref(a, b, p) == _pmul(b, a, p)
    assert product == raw(to_poly(a) * to_poly(b))

    quo, rem = _pdivmod(a, b, p)
    assert trimmed(quo) and trimmed(rem) and len(rem) < len(b)
    assert (quo, rem) == _pdivmod_ref(a, b, p)
    sq, sr = sympy.div(to_poly(a), to_poly(b))
    assert (quo, rem) == (raw(sq), raw(sr))

    g = _pgcd(a, b, p)
    assert trimmed(g) and g[-1] == 1                 # b ≠ 0, so the gcd is monic
    assert g == _pgcd_ref(a, b, p) == _pgcd_ref(b, a, p) == _pgcd(b, a, p)
    assert g == raw(sympy.gcd(to_poly(a), to_poly(b)).monic())
