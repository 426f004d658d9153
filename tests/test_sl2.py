import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmtop import sl2 as S
from kmtop.valued import PAdicField, RationalFunctionField, parse_field

F3 = PAdicField(3)
PI = F3.uniformizer()
ONE = F3.one()
ZERO = F3.zero()


def _minus_i(field):
    return S.SL2Elt(-field.one(), field.zero(), field.zero(), -field.one())


def test_determinant_enforced():
    with pytest.raises(ValueError):
        S.SL2Elt(ONE, ONE, ONE, ONE)


def test_compose_examples():
    a = F3.scalar(Fraction(5, 2))
    b = F3.scalar(7)
    assert S.x_plus(F3, a) * S.x_plus(F3, b) == S.x_plus(F3, a + b)
    w = S.weyl_w(F3)
    assert w.inverse() == S.SL2Elt(ZERO, ONE, -ONE, ZERO)
    g = S.x_plus(F3, PI) * S.x_minus(F3, PI)
    assert g == S.SL2Elt(ONE + PI * PI, PI, PI, ONE)


def _generators(field):
    """x_±(c) with c possibly 0, diag(f) and w: each has two zero or unit
    entries, which the product skips."""
    pi = field.uniformizer()
    scalar = st.builds(lambda c, v: field.scalar(c) * pi ** v,
                       st.integers(-4, 4), st.integers(-2, 2))
    unit = scalar.filter(lambda x: not x.is_zero())
    return st.one_of(scalar.map(lambda c: S.x_plus(field, c)),
                     scalar.map(lambda c: S.x_minus(field, c)),
                     unit.map(lambda f: S.diag_torus(field, f)), st.just(S.weyl_w(field)))


def _naive_product(x, y):
    """The 8-product formula, with no term skipped."""
    return (x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
            x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_products_of_sparse_words_agree_with_the_naive_formula(spec, data):
    field = parse_field(spec)
    word = data.draw(st.lists(_generators(field), min_size=2, max_size=6))
    g = word[0]
    for h in word[1:]:
        gh = g * h
        assert gh.entries() == _naive_product(g, h)
        g = gh


def test_upt_examples():
    assert S.upt_decompose(S.identity(F3)) == (ZERO, ZERO, ONE)
    g = S.SL2Elt(ONE + PI * PI, PI, PI, ONE)
    assert S.upt_decompose(g) == (PI, PI, ONE)
    with pytest.raises(S.NotInBigCell):
        S.upt_decompose(S.weyl_w(F3))


def test_upt_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        b = F3.scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        c = F3.scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
        d = F3.scalar(Fraction(rng.choice([k for k in range(-30, 31) if k]),
                               rng.randint(1, 9)))
        g = S.compose_upt(b, c, d)
        assert S.upt_decompose(g) == (b, c, d)


def test_birkhoff_examples():
    w = S.weyl_w(F3)
    beta, n, gamma = S.birkhoff_decompose(w)
    assert (beta, gamma) == (ZERO, ZERO) and n == w
    g = S.SL2Elt(ONE, ONE, -ONE, ZERO)
    beta, n, gamma = S.birkhoff_decompose(g)
    assert beta == F3.scalar(-1) and gamma == ZERO
    assert n == S.SL2Elt(ZERO, ONE, -ONE, ZERO)
    assert S.x_plus(F3, beta) * n * S.x_minus(F3, gamma) == g
    g = S.SL2Elt(PI, PI, -PI.inv(), ZERO)
    beta, n, gamma = S.birkhoff_decompose(g)
    assert (n.a * n.d - n.b * n.c).is_one() and n.b == PI and n.c == -PI.inv()
    g = S.SL2Elt(ONE + PI * PI, PI, PI, ONE)
    beta, n, gamma = S.birkhoff_decompose(g)
    assert (beta, gamma) == (PI, PI) and n == S.identity(F3)


def test_birkhoff_reconstruction_random():
    rng = random.Random(6)
    for _ in range(200):
        word = rng.randint(1, 5)
        g = S.identity(F3)
        for _ in range(word):
            kind = rng.choice("pmdw")
            if kind == "p":
                g = g * S.x_plus(F3, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            elif kind == "m":
                g = g * S.x_minus(F3, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            elif kind == "d":
                g = g * S.diag_torus(F3, Fraction(rng.choice([1, 2, 3, 9]), rng.choice([1, 2])))
            else:
                g = g * S.weyl_w(F3)
        beta, n, gamma = S.birkhoff_decompose(g)
        assert S.x_plus(F3, beta) * n * S.x_minus(F3, gamma) == g
        # monomial: diagonal or antidiagonal, of det 1 (built unchecked)
        assert (n.b.is_zero() and n.c.is_zero()) or (n.a.is_zero() and n.d.is_zero())
        assert (n.a * n.d - n.b * n.c).is_one()


def test_member_examples():
    assert S.x_plus(F3, PI) in S.SL2SubgroupSpec("kerpi", 1)
    d = S.diag_torus(F3, ONE + PI)
    assert d in S.SL2SubgroupSpec("kerpi", 1)
    assert d not in S.SL2SubgroupSpec("vlambda", 1)
    assert S.weyl_w(F3) in S.SL2SubgroupSpec("fixpoint", 0)
    assert S.weyl_w(F3) not in S.SL2SubgroupSpec("fixpoint", 1)
    assert d in S.SL2SubgroupSpec("tn", 1)
    assert d not in S.SL2SubgroupSpec("tn", 2)
    assert _minus_i(F3) in S.SL2SubgroupSpec("tnunits")
    assert S.diag_torus(F3, PI) not in S.SL2SubgroupSpec("tnunits")
    assert S.x_plus(F3, ONE) * S.x_minus(F3, PI) in S.SL2SubgroupSpec("bigcello")
    assert S.diag_torus(F3, PI) not in S.SL2SubgroupSpec("bigcello")
    assert S.compose_upt(PI ** 2, PI ** 2, ONE + PI ** 4) in S.SL2SubgroupSpec("vlambda", 1)


def test_exact_arguments_take_no_float_and_no_bool():
    """A float would store its binary value (0.1 as 3602879701896397/2^55) and
    a bool would be the level 1, so both are refused, as Field.scalar refuses
    a float; ints and Fractions are taken as they are."""
    g = S.identity(F3)
    for bad in (0.1, 0.5, True):
        with pytest.raises(TypeError, match="not an exact rational"):
            S.TreePoint(g, bad)
        with pytest.raises(ValueError, match="needs a rational"):
            S.SL2SubgroupSpec("fixpoint", bad)
    for bad in (True, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="needs a level"):
            S.SL2SubgroupSpec("kerpi", bad)
    assert S.TreePoint(g, 1).y == 1 and S.TreePoint(g, Fraction(1, 2)).y == Fraction(1, 2)
    assert type(S.TreePoint(g, 1).y) is Fraction
    assert S.SL2SubgroupSpec("fixpoint", Fraction(1, 3)).arg == Fraction(1, 3)
    assert S.SL2SubgroupSpec("fixpoint", "1/3").arg == Fraction(1, 3)
    assert S.SL2SubgroupSpec("kerpi", 2).arg == 2


def test_kerpi_product_form_agreement():
    rng = random.Random(9)
    for n in (1, 2, 3):
        for _ in range(200):
            b = F3.scalar(rng.randint(-40, 40)) * F3.pi_power(rng.randint(0, 4))
            c = F3.scalar(rng.randint(-40, 40)) * F3.pi_power(rng.randint(0, 4))
            d = ONE + F3.scalar(rng.randint(-10, 10)) * F3.pi_power(rng.randint(1, 4))
            g = S.compose_upt(b, c, d)
            assert (g in S.SL2SubgroupSpec("kerpi", n)) == \
                S.kerpi_product_member(g, n)


def _built_violations(g, levels):
    """vlambda's and bigcello's violations from the built factors: b, c and
    δ from upt_decompose, and δ − 1 by subtraction; a last level None asks
    ω(δ) = 0."""
    try:
        b, c, delta = S.upt_decompose(g)
    except S.NotInBigCell:
        return ["not in the big cell"]
    out = S.bound_violations((("b", b.valuation(), levels[0]), ("c", c.valuation(), levels[1])))
    if levels[2] is None:
        return out + ([f"ω(δ) = {delta.valuation()} != 0"] if delta.valuation() != 0 else [])
    return out + S.bound_violations((("δ-1", (delta - 1).valuation(), levels[2]),))


def _big_cell_cases(field):
    """One strategy per case of the big-cell read: words in the generators;
    ω(g22) ≠ 0 (δ of nonzero valuation); g12 = g21 = 0 (b = c = 0); g22 = 1
    (δ = 1); g22 = 0 (x_+(b)·w·diag(f)); and δ near 1, where vlambda's
    ω(δ − 1) bound decides."""
    one, zero, pi = field.one(), field.zero(), field.uniformizer()
    unit = st.integers(0, 10 ** 6).map(lambda seed: field.sample_unit(random.Random(seed)))
    scalar = st.one_of(st.just(zero), st.builds(lambda u, v: u * pi ** v, unit, st.integers(-3, 9)))
    off_unit = st.builds(lambda u, v: u * pi ** v, unit, st.integers(-3, 3).filter(bool))
    near_one = st.builds(lambda u, v: one + u * pi ** v, unit, st.integers(1, 9))
    word = st.lists(_generators(field), min_size=1, max_size=6)
    return (word.map(lambda w: functools.reduce(operator.mul, w)),
            st.builds(S.compose_upt, scalar, scalar, off_unit),
            st.builds(S.compose_upt, st.just(zero), st.just(zero), st.one_of(off_unit, near_one)),
            st.builds(S.compose_upt, scalar, scalar, st.just(one)),
            st.builds(lambda b, f: S.x_plus(field, b) * S.weyl_w(field) * S.diag_torus(field, f),
                      scalar, st.one_of(unit, off_unit)),
            st.builds(S.compose_upt, scalar, scalar, near_one))


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=40, derandomize=True)
@given(data=st.data())
def test_big_cell_reads_the_valuations_of_the_built_factors(spec, data):
    """vlambda:n (n = 1, 2) and bigcello read ω(b), ω(c), ω(δ − 1) and ω(δ)
    from g's entries; each element of every case gives the violations that
    the built factors give, wording and values included.  Kills reading
    ω(c) as ω(g21) − ω(g22) and ω(δ − 1) as ω(g22 − 1)."""
    field = parse_field(spec)
    for case in _big_cell_cases(field):
        g = data.draw(case)
        for n in (1, 2):
            assert (S.SL2SubgroupSpec("vlambda", n).violations(g)
                    == _built_violations(g, S.vlambda_levels(n))), g
        assert S.SL2SubgroupSpec("bigcello").violations(g) == _built_violations(g, (0, 0, None)), g


def test_tree_point_equal_examples():
    i0 = S.apartment_point(F3, 0)
    assert S.tree_point_equal(i0, i0)
    assert S.tree_point_equal(S.TreePoint(S.x_minus(F3, PI), 0), i0)
    trans = S.diag_torus(F3, PI.inv())
    assert S.tree_point_equal(S.TreePoint(trans, 0), S.apartment_point(F3, 1))
    assert not S.tree_point_equal(i0, S.apartment_point(F3, 1))


def test_tree_point_eq_is_the_defined_equality():
    """TreePoint's == is tree_point_equal, not equality of the (g, y) pairs:
    x_+(1) fixes p_0 but moves g.  Points over two fields are unequal, a value
    of another type is left to its own ==, and no hash can agree with this
    equality, so a point has none."""
    p = S.apartment_point(F3, 0)
    q = S.tree_act(S.x_plus(F3, F3.one()), p)
    assert p.g != q.g and S.tree_point_equal(p, q)
    assert p == q and not p != q
    far = S.TreePoint(S.x_minus(F3, PI.inv()), 0)
    assert not S.tree_point_equal(far, p) and far != p
    with pytest.raises(TypeError, match="unhashable"):
        hash(p)
    for spec in ("p:2", "fq:3"):
        other = S.apartment_point(parse_field(spec), 0)
        assert p != other and other != p
    assert p.__eq__((p.g, p.y)) is NotImplemented and p != (p.g, p.y)


def test_tree_act_examples():
    i0 = S.apartment_point(F3, 0)
    assert S.tree_point_equal(S.tree_act(S.identity(F3), i0), i0)
    assert S.tree_point_equal(S.tree_act(S.x_plus(F3, ONE), i0), i0)
    moved = S.tree_act(S.weyl_w(F3), S.apartment_point(F3, 1))
    assert S.tree_point_equal(moved, S.apartment_point(F3, -1))


def _random_sl2(rng, field):
    g = S.identity(field)
    pi = field.uniformizer()
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice("pmdw")
        scalar = field.scalar(rng.randint(-6, 6)) * pi ** rng.randint(-2, 3)
        if kind == "p":
            g = g * S.x_plus(field, scalar)
        elif kind == "m":
            g = g * S.x_minus(field, scalar)
        elif kind == "d":
            f = field.scalar(rng.choice([1, 2, -1])) * pi ** rng.randint(-2, 2)
            g = g * S.diag_torus(field, f)
        else:
            g = g * S.weyl_w(field)
    return g


def test_tree_equal_is_equivalence_and_act_respects():
    rng = random.Random(12)
    for _ in range(150):
        g = _random_sl2(rng, F3)
        y = Fraction(rng.randint(-6, 6), 2)
        p = S.TreePoint(g, y)
        assert S.tree_point_equal(p, p)
        # symmetric pair: perturb by an element fixing p_y
        u = S.x_plus(F3, F3.pi_power(max(0, -int(2 * y)) + rng.randint(0, 2)))
        q = S.TreePoint(g * u, y)
        assert S.tree_point_equal(p, q) == S.tree_point_equal(q, p)
        h = _random_sl2(rng, F3)
        if S.tree_point_equal(p, q):
            assert S.tree_point_equal(S.tree_act(h, p), S.tree_act(h, q))


def test_fixator_compatibility():
    rng = random.Random(13)
    for _ in range(200):
        g = _random_sl2(rng, F3)
        y = Fraction(rng.randint(-6, 6), 2)
        base = S.apartment_point(F3, y)
        geometric = S.tree_point_equal(S.tree_act(g, base), base)
        assert geometric == (g in S.SL2SubgroupSpec("fixpoint", y))


def test_half_apartment_action():
    # x_α(u) with ω(u) ≥ r fixes every point of D(α, r), both signs of α
    rng = random.Random(14)
    for _ in range(150):
        r = rng.randint(-3, 4)
        u = F3.scalar(rng.choice([1, 2, 4, 5])) * F3.pi_power(r + rng.randint(0, 2))
        # D(å, r) in y-coordinates: 2y + r >= 0
        y = Fraction(rng.randint(-8, 8), 2)
        if 2 * y + r >= 0:
            assert S.x_plus(F3, u) in S.SL2SubgroupSpec("fixpoint", y)
        if -2 * y + r >= 0:
            assert S.x_minus(F3, u) in S.SL2SubgroupSpec("fixpoint", y)


def test_retract_examples():
    assert S.tree_retract(S.apartment_point(F3, Fraction(5, 2))) == Fraction(5, 2)
    assert S.tree_retract(S.TreePoint(S.x_minus(F3, PI), 1)) == 0
    assert S.tree_retract(S.TreePoint(S.x_minus(F3, PI), Fraction(1, 4))) == Fraction(1, 4)


def test_retract_is_exact_past_the_float_range():
    """A zero entry of the bottom row bounds nothing, so the coordinate is
    read from the other entry without ω(0) = ∞ entering the arithmetic."""
    third = F3.scalar(Fraction(1, 3))
    for y in (Fraction(10 ** 400 + 1, 2), -Fraction(10 ** 309)):
        for g, want in ((S.x_plus(F3, third), y),              # c = 0
                        (S.diag_torus(F3, third), 1 + y),      # c = 0, ω(d) = 1
                        (S.weyl_w(F3), -y),                # d = 0
                        (S.x_minus(F3, PI), min(1 - y, y))):   # both nonzero
            got = S.tree_retract(S.TreePoint(g, y))
            assert type(got) is Fraction and got == want


def test_retract_u_plus_invariance():
    rng = random.Random(15)
    for _ in range(200):
        g = _random_sl2(rng, F3)
        y = Fraction(rng.randint(-6, 6), 2)
        p = S.TreePoint(g, y)
        c = F3.scalar(rng.randint(-9, 9)) * F3.pi_power(rng.randint(-3, 3))
        assert S.tree_retract(S.tree_act(S.x_plus(F3, c), p)) == S.tree_retract(p)


def test_fixed_interval_examples():
    assert S.fixed_interval(S.x_plus(F3, PI ** 3)) == (Fraction(-3, 2), None)
    assert S.fixed_interval(S.diag_torus(F3, PI)) is None
    assert S.fixed_interval(_minus_i(F3)) == (None, None)
    assert S.fixed_interval(S.diag_torus(F3, F3.scalar(2))) == (None, None)
    assert S.fixed_interval(S.x_minus(F3, PI)) == (None, Fraction(1, 2))
    # interval membership agrees with the fixator predicate
    g = S.x_plus(F3, PI) * S.x_minus(F3, PI ** 2)
    lo, hi = S.fixed_interval(g)
    for twice_y in range(-8, 9):
        y = Fraction(twice_y, 2)
        inside = (lo is None or y >= lo) and (hi is None or y <= hi)
        assert inside == (g in S.SL2SubgroupSpec("fixpoint", y))


def test_works_over_function_field():
    f = RationalFunctionField(2)
    t = f.uniformizer()
    g = S.x_plus(f, t) * S.x_minus(f, t)
    assert S.upt_decompose(g) == (t, t, f.one())
    assert S.tree_retract(S.TreePoint(S.x_minus(f, t), 1)) == 0
