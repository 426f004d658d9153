import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fq_scalars import fq_ratio
from kmtop.valued import (
    INFINITY,
    DivisionByZero,
    FieldMismatch,
    PAdicField,
    RationalFunctionField,
    _pgcd,
    _pneg,
    _prem,
    _pscale,
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
    # so is a prime that is no int, which would leak into the raw values
    for kind in (PAdicField, RationalFunctionField):
        for prime in (3.0, True, Fraction(3)):
            with pytest.raises(TypeError, match="not an integer"):
                kind(prime)
    assert parse_field("p:3") == F3
    assert parse_field("fq:2") == F2T
    with pytest.raises(ValueError):
        parse_field("x:3")
    # a field is its kind and its prime
    assert PAdicField(3) != RationalFunctionField(3)
    for field in (F3, F2T, RationalFunctionField(3)):
        twin = type(field)(field.char)
        assert twin == field and hash(twin) == hash(field)
        assert parse_field(field.spec_string()) == field


def _list_sample_unit(field, rng):
    """PAdicField.sample_unit drawn with rng.choice over explicit lists."""
    p = field.char
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


def test_field_mismatch_names_both_fields():
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(FieldMismatch, match=r"^mixed fields: p:3 vs fq:2$"):
            op(F3.one(), F2T.one())
    with pytest.raises(FieldMismatch, match=r"^mixed fields: fq:2 vs p:5$"):
        F2T.scalar(PAdicField(5).one())
    # an equal field built apart is the same field; another field's scalar is unequal
    assert F3.one() + PAdicField(3).one() == 2
    assert F3.one() != PAdicField(5).one() and F3.one() != F2T.one()


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
        p = field.char
        num = rng.choice([k for k in range(1, 20) if k % p])
        den = rng.choice([k for k in range(1, 10) if k % p])
        unit = field.scalar(Fraction(rng.choice([num, -num]), den))
    else:
        q = field.char
        num = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(2)]
        den = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(1)]
        unit = fq_ratio(field, num, den)
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
    a = fq_ratio(F2T, (0, 2, 4), (1, 2))          # coefficients get reduced mod 2
    b = fq_ratio(F2T, (0, 0, 0), (1,))
    assert a == b == F2T.zero()
    c = fq_ratio(F2T, (1, 1), (0, 1))             # (1+t)/t already canonical
    d = (F2T.one() + F2T.uniformizer()) / F2T.uniformizer()
    assert c == d and c.raw == d.raw
    x = F3.scalar(Fraction(14, 4))
    assert x.raw == (0, 7, 2)


def test_formatting_is_stable():
    assert str(F3.scalar(Fraction(-3, 2))) == "-3/2"
    t = F2T.uniformizer()
    assert str((F2T.one() + t * t) / t) == "(1+t^2)/t"
    assert str(F2T.zero()) == "0"
    assert math.isinf(INFINITY)


@pytest.mark.parametrize("s", [F3.scalar(Fraction(-3, 2)), F2T.one() + F2T.uniformizer()],
                         ids=["p:3", "fq:2"])
def test_scalars_refuse_setting_and_deleting(s):
    """A scalar is immutable: neither slot can be set or deleted, so none is
    left without a value or with a hash that its value no longer has."""
    raw, field, digest = s.raw, s.field, hash(s)
    for name in ("raw", "field"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(F3.zero(), name))
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s.raw == raw and s.field is field and hash(s) == digest


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
    for bad in (True, False):                    # an int, but no exact number
        with pytest.raises(TypeError):
            F3.scalar(bad)
        with pytest.raises(TypeError):
            F2T.scalar(bad)
    with pytest.raises(FieldMismatch):
        F3.scalar(PAdicField(5).one())


# --- property tests: the field axioms and the valuation ------------------------

FIELDS = ["p:2", "p:3", "fq:2", "fq:3"]
PROPERTY = settings(deadline=None, max_examples=60)


def scalars(field):
    """Ratios of small integers (p-adic) or small polynomials (F_q(t)) times ϖ^v,
    v in [-5, 5], built by field.scalar or fq_ratio and a product; zero included."""
    if field.uniformizer_name == "p":
        base = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 300)).map(field.scalar)
    else:
        coeffs = st.lists(st.integers(0, field.char - 1), max_size=4)
        base = st.builds(lambda n, d: fq_ratio(field, n, d),
                         coeffs, coeffs.map(lambda c: c if any(c) else c + [1]))
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


@pytest.mark.parametrize("spec", FIELDS + ["fq:5"])
@settings(deadline=None, max_examples=100, derandomize=True)
@given(data=st.data())
def test_valuation_from_one_matches_the_subtraction(spec, data):
    """valuation_from_one, read from x's raw, is ω of the built x − 1: on 0,
    1 and −1, on scalars t^v·num/den with v ≠ 0 and den ≠ 1 among them, and
    on 1 + c·ϖ^k·w, w a unit and k ≤ 6, whose F_q(t) num and den agree on
    their low terms and may differ in length.  Kills a scan that stops at
    the shorter of num and den (1 + t^4 gives 1, not 4), 0 for v < 0 and ∞
    for x = 0."""
    field = parse_field(spec)
    one = field.one()
    unit = st.integers(0, 10 ** 6).map(lambda seed: field.sample_unit(random.Random(seed)))
    near_one = st.builds(lambda c, k, w: one + field.scalar(c) * field.pi_power(k) * w,
                         st.integers(1, field.char - 1), st.integers(0, 6), unit)
    drawn = [data.draw(scalars(field)) for _ in range(3)] + [data.draw(near_one) for _ in range(3)]
    for x in (field.zero(), one, -one, one + field.pi_power(4), *drawn):
        assert x.valuation_from_one() == (x - 1).valuation(), x
    assert (one + field.pi_power(4)).valuation_from_one() == 4
    assert field.zero().valuation_from_one() == 0 and one.valuation_from_one() == INFINITY


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


def _fraction_val(x: Fraction, p: int):
    """ω_p of a Fraction, by dividing p out of its numerator and denominator."""
    if not x:
        return INFINITY
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _padic_rationals(p):
    """±p^e·n/d with e in [-60, 60] and n, d up to 10^6, many of them
    multiples of p, and zero: a Fraction, the oracle of the p-adic kernel."""
    ints = st.one_of(st.integers(1, 10 ** 6), st.integers(1, 400).map(lambda n: n * p ** 3))
    signed = st.builds(lambda sign, n, d, e: sign * Fraction(n, d) * Fraction(p) ** e,
                       st.sampled_from((1, -1)), ints, ints, st.integers(-60, 60))
    return st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), signed,
                     st.integers(-10 ** 6, 10 ** 6).map(Fraction))


def _assert_padic_canonical(raw, field):
    """(v, num, den) ints with p dividing neither num nor den, den > 0 and
    gcd 1; zero is ZERO."""
    v, num, den = raw
    assert type(v) is type(num) is type(den) is int
    if not num:
        assert raw == field.ZERO
        return
    p = field.char
    assert num % p and den % p and den > 0 and math.gcd(num, den) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(deadline=None, max_examples=200, derandomize=True)
@given(data=st.data())
def test_padic_kernel_matches_fraction(p, data):
    """Every p-adic operation, read back through ==, hash, str and both
    valuations, gives what Fraction gives, and every raw value it builds is
    canonical."""
    field = PAdicField(p)
    a, b = data.draw(_padic_rationals(p)), data.draw(_padic_rationals(p))
    k = data.draw(st.integers(-12, 12))
    x, y = field.scalar(a), field.scalar(b)
    results = [(x, a), (y, b), (-x, -a), (x + y, a + b), (x - y, a - b), (x * y, a * b)]
    if b:
        results += [(x / y, a / b), (y.inv(), 1 / b)]
    if a or k >= 0:
        results.append((x ** k, a ** k))
    for got, want in results:
        _assert_padic_canonical(got.raw, field)
        assert got == want and want == got and got != want + 1
        assert hash(got) == hash(want)
        if want.denominator == 1:
            assert got == int(want) and hash(got) == hash(int(want))
        assert str(got) == str(want)
        assert got.valuation() == _fraction_val(want, p)
        assert got.valuation_from_one() == _fraction_val(want - 1, p)
        assert got.is_zero() == (want == 0) and got.is_one() == (want == 1)


@pytest.mark.parametrize("q", [2, 3, 5])
@PROPERTY
@given(data=st.data())
def test_fq_inverse_of_a_reduced_fraction_needs_no_gcd(q, data):
    """_inv only swaps and makes the denominator monic; the full reduction of
    den/num agrees."""
    field = RationalFunctionField(q)
    x = data.draw(scalars(field).filter(lambda s: not s.is_zero()))
    num, den = _pair(x.raw)
    assert field._inv(x.raw) == field._canonical(den, num)


# --- F_q(t) against an independent oracle --------------------------------------

def _pair(raw):
    """A raw (v, num, den) as one fraction of polynomials (num, den): t^v
    moves into num, or t^−v into den."""
    v, num, den = raw
    return ((0,) * v + num, den) if v >= 0 else (num, (0,) * -v + den)


def _sympy_rational_functions(q):
    """(to_sympy, canonical): a raw F_q(t) value as an element of sympy's
    field("t", GF(q)), and a sympy element as a raw value."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field as sympy_field

    K, t = sympy_field("t", sympy.GF(q))

    def to_sympy(raw):
        num, den = _pair(raw)
        return (sum((c * t ** i for i, c in enumerate(num)), K(0))
                / sum((c * t ** i for i, c in enumerate(den)), K(0)))

    def coeffs(poly, scale):
        # low-to-high coefficients in [0, q), times scale
        out = [0] * (poly.degree() + 1) if poly else []
        for (i,), c in poly.terms():
            out[i] = int(c) * scale % q
        return tuple(out)

    def canonical(e):
        # sympy cancels the gcd; make the denominator monic and take the
        # powers of t out of both polynomials to compare
        lead_inv = pow(int(e.denom.LC) % q, -1, q)
        num, den = coeffs(e.numer, lead_inv), coeffs(e.denom, lead_inv)
        if not num:
            return (0, (), (1,))
        i = next(k for k, c in enumerate(num) if c)
        j = next(k for k, c in enumerate(den) if c)
        return (i - j, num[i:], den[j:])

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
    assert x.valuation_from_one() == order_at_zero(ex - to_sympy(F.one()))
    if not y.is_zero():
        assert y.inv().raw == canonical(ey ** -1)
        assert (x / y).raw == canonical(ex / ey)


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(deadline=None, max_examples=150, derandomize=True)
@given(data=st.data())
def test_fq_canonical_matches_sympy(q, data):
    """_canonical, the one reduction of a coefficient sequence, on numerators
    and denominators with powers of t (a zero constant term) and trailing
    zeros, given as tuples and as lists: sympy's reduced fraction, with the
    powers of t taken out, so a wrong i or a missed slice shows here."""
    to_sympy, sympy_canonical = _sympy_rational_functions(q)
    F = RationalFunctionField(q)

    def padded(top):
        # t^i·body with trailing zeros; body ends in top
        return st.builds(lambda i, body, end, j: [0] * i + body + end + [0] * j,
                         st.integers(0, 3), st.lists(st.integers(0, q - 1), max_size=3),
                         top, st.integers(0, 2))

    num = data.draw(padded(st.one_of(st.just([]), st.integers(1, q - 1).map(lambda c: [c]))))
    den = data.draw(padded(st.integers(1, q - 1).map(lambda c: [c])))
    as_num, as_den = data.draw(st.sampled_from([tuple, list])), data.draw(st.sampled_from([tuple, list]))
    raw = F._canonical(as_num(num), as_den(den))
    _assert_canonical(raw, q)
    assert raw == sympy_canonical(to_sympy((0, tuple(num), tuple(den))))
    with pytest.raises(DivisionByZero):
        F._canonical(as_num(num), as_den([0] * len(den)))


def _ratio_sample_unit(field, rng):
    """RationalFunctionField.sample_unit as it was before it skipped the
    mod-q pass: the same draws, trimmed, then reduced mod q and canonicalized."""
    q = field.char
    deg = rng.randrange(0, 3)
    num = [rng.randrange(q) for _ in range(deg + 1)]
    num[0] = rng.randrange(1, q)
    if not any(num[1:]):
        num = num[:1]
    den = [1]
    if rng.random() < 0.4:
        den = [rng.randrange(1, q), rng.randrange(q)]
    return fq_ratio(field, num, den)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq_sample_unit_is_ratio_of_its_draws(q):
    """sample_unit hands its draws, already in [0, q), to _canonical with no
    mod-q pass: on a twin rng, fq_ratio of the same draws is the same scalar,
    and both leave the rng in the same state."""
    F = RationalFunctionField(q)
    for seed in range(300):
        rng, twin = random.Random(seed), random.Random(seed)
        assert F.sample_unit(rng).raw == _ratio_sample_unit(F, twin).raw
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("q", [2, 3])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_fq_polynomial_fast_path(q, data):
    """_add/_mul of two polynomials skip _canonical; they must equal it applied
    to the general formula, and sympy's arithmetic mod q."""
    F = RationalFunctionField(q)
    poly = st.lists(st.integers(0, q - 1), max_size=6).map(lambda c: fq_ratio(F, c).raw)
    a = data.draw(poly)
    b = data.draw(st.one_of(poly, st.just(F._neg(a))))      # includes a + b = 0
    (n1, one), (n2, _) = _pair(a), _pair(b)
    assert one == a[2] == (1,) and a == F._canonical(n1, one)
    assert F._add(a, b) == F._canonical(F._rsum(F._rmul(n1, one), F._rmul(n2, one)),
                                        F._rmul(one, one))
    assert F._mul(a, b) == F._canonical(F._rmul(n1, n2), F._rmul(one, one))

    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_poly(n):
        return sympy.Poly(list(reversed(n)) or [0], t, modulus=q)

    def raw(p):
        # sympy's symmetric residues, low-to-high in [0, q)
        return fq_ratio(F, reversed([int(c) for c in p.all_coeffs()])).raw

    assert F._add(a, b) == raw(to_poly(n1) + to_poly(n2))
    assert F._mul(a, b) == raw(to_poly(n1) * to_poly(n2))


# --- F_q(t) sums and products by cross-gcds ------------------------------------

def _assert_canonical(raw, q):
    v, num, den = raw
    assert isinstance(v, int)
    assert all(0 <= c < q for c in num + den)
    assert den and den[-1] == 1 and den[0] != 0       # monic, prime to t
    if not num:
        assert raw == (0, (), (1,))                    # zero is one raw value
    else:
        assert num[-1] != 0 and num[0] != 0 and _pgcd(num, den, q) == (1,)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq_cross_gcd_sums_and_products(q, monkeypatch):
    """_add cancels only a factor of g = gcd(d1, d2), by one more gcd with the
    new numerator, and shifts the operand of higher valuation by the power of
    t between the two; _mul cancels n1 against d2 and n2 against d1, and takes
    c·t^k as a unit times a power of t with no gcd.  No gcd ever sees a
    multiple of t.  Operands are built to share factors (denominators r·s and
    r·t, each numerator a multiple of the other operand's denominator piece,
    sums that cancel, and extra powers of t).  One explicit example per branch
    makes every branch run whatever the random draws; each result equals
    _canonical of the general formula and sympy's field("t", GF(q))."""
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
    one, c, t_poly, one_plus_t, one_t_t2 = (1,), (q - 1,), (0, 1), (1, 1), (1, 1, 1)

    @settings(deadline=None, max_examples=150)
    @given(pieces=st.tuples(*[polys] * 6),
           shape=st.sampled_from(["shared", "cancelling", "negation", "polynomial", "zero"]),
           swap=st.booleans(), shifts=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    # (1+t)/t and t/(1+t): add shifted, mul cancelling n1 with d2
    @example(pieces=(one, t_poly, one_plus_t, one, one, one), shape="shared", swap=False,
             shifts=(0, 0))
    # 1/(1+t) and t/(1+t): add with g = 1+t, whose second gcd cancels
    @example(pieces=(one_plus_t, one, one, one, one, one), shape="cancelling", swap=False,
             shifts=(0, 0))
    # t/(1+t) times 1, and the constant q-1 times t/(1+t)
    @example(pieces=(one_plus_t, one, t_poly, one, one, one), shape="polynomial", swap=False,
             shifts=(0, 0))
    @example(pieces=(one_plus_t, one, t_poly, one, c, one), shape="polynomial", swap=True,
             shifts=(0, 0))
    # (1+t+t^2)/(1+t) and (1+t)/(1+t+t^2) (coprime for q = 2, 3, 5): add with
    # g = 1, mul cancelling both ways
    @example(pieces=(one, one_plus_t, one_t_t2, one, one, one), shape="shared", swap=False,
             shifts=(0, 0))
    # 1/(1+t) and −1: the constant terms cancel, the sum is −t/(1+t)
    @example(pieces=(one_plus_t, one, one, one, c, one), shape="polynomial", swap=False,
             shifts=(0, 0))
    # t/(1+t) and (q-1)·t^2: mul by c·t^k with k != 0
    @example(pieces=(one_plus_t, one, t_poly, one, c, one), shape="polynomial", swap=False,
             shifts=(0, 2))
    # 1/(1+t) and its negation: a zero sum with g = 1+t
    @example(pieces=(one_plus_t, one, one, one, one, one), shape="negation", swap=False,
             shifts=(0, 0))
    def check(pieces, shape, swap, shifts):
        r, s, t, x, y, z = pieces
        ta, tb = (F.pi_power(k).raw for k in shifts)
        a = F._mul(fq_ratio(F, F._rmul(x, t), F._rmul(r, s)).raw, ta)
        if shape == "shared":
            b = F._mul(fq_ratio(F, F._rmul(y, s), F._rmul(r, t)).raw, tb)
        elif shape == "cancelling":                    # b = z/s − a, so a + b = z/s
            an, ad = _pair(a)
            b = F._canonical(F._rsum(F._rmul(z, ad), _pneg(F._rmul(an, s), q)),
                             F._rmul(s, ad))
        elif shape == "negation":
            b = F._neg(a)
        else:
            b = F._mul(fq_ratio(F, y if shape == "polynomial" else ()).raw, tb)
        if swap:
            a, b = b, a
        (v1, n1, d1), (v2, n2, d2) = a, b
        (p1, e1), (p2, e2) = _pair(a), _pair(b)

        total, seen = run(F._add, a, b)
        _assert_canonical(total, q)
        assert total == F._canonical(F._rsum(F._rmul(p1, e2), F._rmul(p2, e1)),
                                     F._rmul(e1, e2))
        assert total == sympy_canonical(to_sympy(a) + to_sympy(b))
        assert all(u[0] and w[0] for u, w, _ in seen)  # t enters no gcd
        if n1 and n2:
            if v1 != v2:
                fired.add("add: shifted")
            elif not total[1]:
                fired.add("add: zero")
            elif total[0] > v1:
                fired.add("add: constant terms cancel")
        if (1,) in (d1, d2):
            assert seen == []                          # g is 1 without a gcd
        else:
            # _add swaps its operands to shift the one of higher valuation
            assert seen[0][:2] in ((d1, d2), (d2, d1)) and len(seen) <= 2
            g = seen[0][2]
            fired.add("add: g = 1" if g == (1,) else "add: g != 1")
            if len(seen) == 2 and seen[1][2] != (1,):
                fired.add("add: second gcd cancels")

        product, seen = run(F._mul, a, b)
        _assert_canonical(product, q)
        assert product == F._canonical(F._rmul(p1, p2), F._rmul(e1, e2))
        assert product == sympy_canonical(to_sympy(a) * to_sympy(b))
        assert all(u[0] and w[0] for u, w, _ in seen)
        units = [v for v, n, d in (a, b) if len(n) == 1 and d == (1,)]
        if units and not d1 == d2 == (1,):
            assert seen == []                          # c·t^k is a unit times t^k
            fired.add("mul: c·t^k")
            if any(units):
                fired.add("mul: c·t^k, k != 0")
        for num, den, g in seen:
            assert (num, den) in ((n1, d2), (n2, d1))
            if g != (1,):
                fired.add("mul: n1 with d2" if (num, den) == (n1, d2) else "mul: n2 with d1")

    check()
    assert fired == {"add: g = 1", "add: g != 1", "add: second gcd cancels",
                     "add: shifted", "add: zero", "add: constant terms cancel",
                     "mul: n1 with d2", "mul: n2 with d1", "mul: c·t^k",
                     "mul: c·t^k, k != 0"}


# --- the t-adic kernel against the (num, den) kernel it replaced ---------------
#
# RationalFunctionField's _canonical, _add, _mul and _inv from before raw values
# kept their power of t apart, word for word but for their names, q passed in
# for self.q, _ptrim_ref for _ptrim, _pdivmod_ref for _pdivmod, and the F_q[t]
# sum and product of F = RationalFunctionField(q) for _padd and _pmul: raw
# values (num, den), reduced with monic denominator, zero ((), (1,)).

def _pair_canonical(num, den, q):
    num = _ptrim_ref(list(num))
    den = _ptrim_ref(list(den))
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return ((), (1,))
    g = _pgcd(num, den, q)
    if len(g) > 1 or g != (1,):
        num = _pdivmod_ref(num, g, q)[0]
        den = _pdivmod_ref(den, g, q)[0]
    lead = den[-1]
    if lead != 1:
        inv = pow(lead, -1, q)
        num = _pscale(num, inv, q)
        den = _pscale(den, inv, q)
    return (num, den)


def _pair_add(a, b, q):
    F = RationalFunctionField(q)
    (n1, d1), (n2, d2) = a, b
    if d1 == d2 == (1,):
        return (F._rsum(n1, n2), (1,))
    g = (1,) if d1 == (1,) or d2 == (1,) else _pgcd(d1, d2, q)
    if g == (1,):
        # a prime factor of d1 divides n1·d2 + n2·d1 iff it divides n1·d2:
        # never, so the sum is reduced (and nonzero, as d1 or d2 is not (1,))
        return (F._rsum(F._rmul(n1, d2), F._rmul(n2, d1)), F._rmul(d1, d2))
    # d1 = g·e1, d2 = g·e2: the sum is (n1·e2 + n2·e1)/(g·e1·e2), and only
    # factors of g can cancel.  A zero sum has d1 = d2 = g = g2: ((), (1,)).
    e1, e2 = _pdivmod_ref(d1, g, q)[0], _pdivmod_ref(d2, g, q)[0]
    num = F._rsum(F._rmul(n1, e2), F._rmul(n2, e1))
    g2 = _pgcd(num, g, q)
    if g2 != (1,):
        num, d2 = _pdivmod_ref(num, g2, q)[0], _pdivmod_ref(d2, g2, q)[0]
    return (num, F._rmul(e1, d2))


def _pair_mul(a, b, q):
    F = RationalFunctionField(q)
    (n1, d1), (n2, d2) = a, b
    if d1 == d2 == (1,):
        return (F._rmul(n1, n2), (1,))
    if not n1 or not n2:
        return ((), (1,))
    # a nonzero constant c/1 is a unit: c·n/d is reduced, d stays monic
    if len(n1) == 1 and d1 == (1,):
        return b if n1[0] == 1 else (_pscale(n2, n1[0], q), d2)
    if len(n2) == 1 and d2 == (1,):
        return a if n2[0] == 1 else (_pscale(n1, n2[0], q), d1)
    # n1/d1 and n2/d2 are reduced, so only n1 with d2 and n2 with d1 can cancel
    if d2 != (1,):
        g = _pgcd(n1, d2, q)
        if g != (1,):
            n1, d2 = _pdivmod_ref(n1, g, q)[0], _pdivmod_ref(d2, g, q)[0]
    if d1 != (1,):
        g = _pgcd(n2, d1, q)
        if g != (1,):
            n2, d1 = _pdivmod_ref(n2, g, q)[0], _pdivmod_ref(d1, g, q)[0]
    return (F._rmul(n1, n2), F._rmul(d1, d2))


def _pair_inv(a, q):
    # a reduced fraction inverts to a reduced one: no gcd, only a monic
    # denominator
    num, den = a
    inv = pow(num[-1], -1, q)
    return (_pscale(den, inv, q), _pscale(num, inv, q))


def _t_adic_operands(q):
    """(num, den) coefficient lists of zero, the constants, and units times
    t^v for v in [−4, 4]: a unit has num and den of degree at most 2 with
    nonzero constant terms, and t^v multiplies num (v > 0) or den (v < 0)."""
    lead = st.integers(1, q - 1)
    poly = st.tuples(lead, st.lists(st.integers(0, q - 1), max_size=2)).map(
        lambda cl: [cl[0], *cl[1]])

    def times_t(unit, v):
        num, den = unit
        return ([0] * v + num, den) if v >= 0 else (num, [0] * -v + den)

    return st.one_of(st.just(([], [1])),
                     lead.map(lambda c: ([c], [1])),
                     st.builds(times_t, st.tuples(poly, poly), st.integers(-4, 4)))


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_fq_t_adic_kernel_matches_pair_kernel_and_sympy(q, data):
    """Every (v, num, den) result of _canonical, _add, _mul and _inv, rebuilt
    as the fraction (t^v·num, den) or (num, t^−v·den), equals the (num, den)
    kernel it replaced and sympy's field("t", GF(q)); and values that are ==
    hash alike whether built by fq_ratio, by parse_element from their text, or
    by arithmetic."""
    from kmtop import exprs

    to_sympy, sympy_canonical = _sympy_rational_functions(q)
    F = RationalFunctionField(q)
    (xn, xd), (yn, yd) = data.draw(_t_adic_operands(q)), data.draw(_t_adic_operands(q))
    x, y = fq_ratio(F, xn, xd), fq_ratio(F, yn, yd)
    a, b = x.raw, y.raw
    pa, pb = _pair_canonical(xn, xd, q), _pair_canonical(yn, yd, q)
    assert _pair(a) == pa and _pair(b) == pb
    assert a == sympy_canonical(to_sympy(a))

    results = [(x + y, _pair_add(pa, pb, q), to_sympy(a) + to_sympy(b)),
               (x * y, _pair_mul(pa, pb, q), to_sympy(a) * to_sympy(b))]
    if not y.is_zero():
        results.append((y.inv(), _pair_inv(pb, q), to_sympy(b) ** -1))
    for value, pair_value, sympy_value in results:
        _assert_canonical(value.raw, q)
        assert _pair(value.raw) == pair_value
        assert value.raw == sympy_canonical(sympy_value)
        assert value.valuation() == (INFINITY if value.is_zero() else value.raw[0])
        routes = (value, fq_ratio(F, *pair_value),
                  exprs.parse_element(f"xp({value})", exprs.SL2, F)[1].b)
        for other in routes:
            assert other == value and hash(other) == hash(value)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq_powers_and_constant_denominators_need_no_gcd(q, monkeypatch):
    """x^k for k in [−6, 6], k ≠ 0, equals |k| − 1 products by _mul of x, or
    of its inverse for k < 0, and sympy's power, and runs no gcd: the powers
    of a reduced fraction's num and den are coprime.  _canonical of a
    fraction whose denominator is a constant times a power of t runs no gcd,
    and every gcd of sample_unit has a denominator of positive degree."""
    from kmtop import valued

    to_sympy, sympy_canonical = _sympy_rational_functions(q)
    F = RationalFunctionField(q)
    gcds = []

    def recording_gcd(a, b, p):
        gcds.append((a, b))
        return _pgcd(a, b, p)

    monkeypatch.setattr(valued, "_pgcd", recording_gcd)

    @settings(deadline=None, max_examples=100)
    @given(operand=_t_adic_operands(q), k=st.integers(-6, 6).filter(bool))
    def check_power(operand, k):
        x = fq_ratio(F, *operand)
        assume(k > 0 or not x.is_zero())
        base = x.raw if k > 0 else F._inv(x.raw)
        repeated = base
        for _ in range(abs(k) - 1):
            repeated = F._mul(repeated, base)
        gcds.clear()
        power = x ** k
        assert gcds == []
        _assert_canonical(power.raw, q)
        assert power.raw == repeated == sympy_canonical(to_sympy(x.raw) ** k)

    @settings(deadline=None, max_examples=100)
    @given(num=st.lists(st.integers(0, q - 1), max_size=4), c=st.integers(1, q - 1),
           v=st.integers(-3, 3))
    def check_constant_denominator(num, c, v):
        num, den = [0] * max(v, 0) + num, [0] * max(-v, 0) + [c]
        gcds.clear()
        raw = F._canonical(num, den)
        assert gcds == []
        assert _pair(raw) == _pair_canonical(num, den, q)

    check_power()
    check_constant_denominator()
    gcds.clear()
    rng = random.Random(f"sample_unit:{q}")
    for _ in range(200):
        F.sample_unit(rng)
    assert gcds and all(len(den) > 1 for _, den in gcds)


# --- the polynomial kernels against schoolbook references and sympy -------------
#
# The schoolbook kernels that _pmul, _pdivmod and _pgcd replaced (now the
# field's _rmul, _prem with the field's _rquo, and _pgcd), word for word but
# for their names: a reduction mod p at every inner step and a trim on every
# result.

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


def _sympy_polys(p):
    """to_poly(n), sympy's Poly over GF(p) of a coefficient tuple; raw(poly),
    the trimmed tuple of a Poly; and trimmed(x), whether x is a kernel result."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_poly(n):
        return sympy.Poly(list(reversed(n)) or [0], t, modulus=p)

    def raw(poly):
        # sympy's symmetric residues, low-to-high in [0, p), trimmed
        return _ptrim_ref([int(c) % p for c in reversed(poly.all_coeffs())])

    def trimmed(x):
        return isinstance(x, tuple) and (not x or x[-1] != 0) and all(0 <= c < p for c in x)

    return sympy, to_poly, raw, trimmed


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_polynomial_kernels_match_schoolbook_and_sympy(p, data):
    """On trimmed operands, _rmul and _pgcd equal the schoolbook kernels they
    replaced and sympy's arithmetic in GF(p)[t], and every result is trimmed
    (so built to its exact size).  test_remainder_and_quotient_kernels checks
    the division kernels."""
    F = RationalFunctionField(p)
    sympy, to_poly, raw, trimmed = _sympy_polys(p)
    polys = _kernel_polys(p)
    a = data.draw(st.one_of(st.just(()), polys))
    b = data.draw(polys)

    product = F._rmul(a, b)
    assert trimmed(product) and product == _pmul_ref(a, b, p) == F._rmul(b, a)
    assert product == raw(to_poly(a) * to_poly(b))

    g = _pgcd(a, b, p)
    assert trimmed(g) and g[-1] == 1                 # b ≠ 0, so the gcd is monic
    assert g == _pgcd_ref(a, b, p) == _pgcd_ref(b, a, p) == _pgcd(b, a, p)
    assert g == raw(sympy.gcd(to_poly(a), to_poly(b)).monic())


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@settings(deadline=None, max_examples=100, derandomize=True)
@given(data=st.data())
def test_remainder_and_quotient_kernels(q, data):
    """_prem equals the schoolbook remainder and sympy's, and _pgcd the
    schoolbook gcd and sympy's, for a linear divisor (whose remainder _prem
    takes as a value at the root), a constant one and a general one, each
    against a zero dividend, a shorter one, an associate, a multiple and a
    general one, and _pgcd's result is monic.  _rquo takes only monic
    divisors, as every caller divides by a _pgcd result: of a multiple m·b
    by the monic associate b of each divisor it is m, as the schoolbook
    quotient and sympy's say, for a constant m (operands of one length, whose
    quotient _rquo takes from the leading coefficients) or any other; and
    _rquo(0, b) is 0.  _rsum equals sympy's sum on operands of unequal length,
    keeping the longer one's leading coefficient, and on operands of one
    length whose sum cancels at the top or to 0."""
    F = RationalFunctionField(q)
    sympy, to_poly, raw, trimmed = _sympy_polys(q)
    polys = _kernel_polys(q)
    lead = st.integers(1, q - 1)
    coeffs = st.integers(0, q - 1)
    linear = data.draw(st.tuples(coeffs, lead))
    constant = (data.draw(lead),)
    for b in (linear, constant, data.draw(polys)):
        shorter = _ptrim_ref(data.draw(st.lists(coeffs, max_size=len(b) - 1)))
        cofactor = data.draw(polys)
        c = data.draw(lead)
        for a in ((), shorter, _pscale(b, c, q), _pmul_ref(b, cofactor, q), data.draw(polys)):
            rem = _prem(a, b, q)
            assert trimmed(rem) and len(rem) < len(b)
            assert rem == _pdivmod_ref(a, b, q)[1] == raw(sympy.rem(to_poly(a), to_poly(b)))
            g = _pgcd(a, b, q)
            assert g[-1] == 1
            assert g == _pgcd_ref(a, b, q) == raw(sympy.gcd(to_poly(a), to_poly(b)).monic())
        b = _pscale(b, pow(b[-1], -1, q), q)
        for m in ((c,), cofactor):
            a = _pmul_ref(b, m, q)
            quo = F._rquo(a, b)
            assert trimmed(quo)
            assert quo == m == _pdivmod_ref(a, b, q)[0] == raw(sympy.quo(to_poly(a), to_poly(b)))
        assert F._rquo((), b) == ()

    u = data.draw(polys)
    longer = u + tuple(data.draw(st.lists(coeffs, max_size=3))) + (data.draw(lead),)
    top_cancels = tuple(data.draw(st.lists(coeffs, min_size=len(u) - 1, max_size=len(u) - 1)))
    top_cancels += ((-u[-1]) % q,)
    for x, y in ((u, longer), (longer, u), (u, top_cancels), (u, _pneg(u, q))):
        total = F._rsum(x, y)
        assert trimmed(total) and total == F._rsum(y, x)
        assert total == raw(to_poly(x) + to_poly(y))
    assert F._rsum(u, longer)[-1] == longer[-1]
    assert F._rsum(u, _pneg(u, q)) == ()
