import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmtop import affine as A
from kmtop import harness, roots
from kmtop.valued import PAdicField, RationalFunctionField, parse_field

F3 = PAdicField(3)
PI = F3.uniformizer()
ONE = F3.one()


def lp(field, **coeffs):
    return A.LaurentPoly(field, {int(k): field.scalar(v) for k, v in coeffs.items()})


def test_laurent_basics():
    p = A.LaurentPoly(F3, {1: PI, -2: ONE})
    q = A.LaurentPoly(F3, {1: -PI})
    assert (p + q).coeffs == {-2: ONE}
    assert (p * q).coeffs[2] == -PI * PI
    assert p.substitute_scale(PI).coeffs[1] == PI * PI
    assert p.substitute_scale(PI).coeffs[-2] == PI.inv() ** 2
    assert A.LaurentPoly.one(F3).is_one()
    assert not p.is_zero() and A.LaurentPoly.zero(F3).is_zero()


def test_generator_examples():
    s1 = A.aff_s1(F3)
    assert s1.m[0][0].is_zero() and s1.m[0][1].is_one()
    assert s1.m[1][0].coeffs == {0: -ONE} and s1.z.is_one()
    s0 = A.aff_s0(F3)
    assert s0.m[0][1].coeffs == {-1: -ONE}
    assert s0.m[1][0].coeffs == {1: ONE}
    assert s0.m[0][0].is_zero() and s0.m[1][1].is_zero()
    assert (s0 * s0).m[0][0].coeffs == {0: -ONE}       # square is (-I, 1)
    t = A.aff_t_mu(F3, 1, 0)
    assert t.m[0][0].coeffs == {0: PI.inv()} and t.z.is_one()


def test_semidirect_law_example():
    g = A.aff_torus(ONE, PI) * A.aff_x_plus(F3, 1, ONE)
    assert g.m[0][1].coeffs == {1: PI}
    assert g.z == PI


def test_inverse_and_associativity():
    rng = random.Random(21)
    cfgs = []
    for _ in range(300):
        word = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice("pmts")
            if kind == "p":
                word.append(A.aff_x_plus(F3, rng.randint(-2, 2),
                                         F3.scalar(rng.randint(-6, 6)) * PI ** rng.randint(-1, 2)))
            elif kind == "m":
                word.append(A.aff_x_minus(F3, rng.randint(-2, 2),
                                          F3.scalar(rng.randint(-6, 6)) * PI ** rng.randint(-1, 2)))
            elif kind == "t":
                word.append(A.aff_t_mu(F3, rng.randint(-1, 1), rng.randint(-1, 1)))
            else:
                word.append(A.aff_s0(F3) if rng.random() < 0.5 else A.aff_s1(F3))
        g = word[0]
        for h in word[1:]:
            g = g * h
        cfgs.append(g)
    for g in cfgs:
        assert (g * g.inverse()).is_identity()
        assert A._mat_det(g.m).is_one()
    rng.shuffle(cfgs)
    for g, h, k in zip(cfgs[::3], cfgs[1::3], cfgs[2::3]):
        assert ((g * h) * k).m == (g * (h * k)).m
        assert (g * h).inverse().m == (h.inverse() * g.inverse()).m


def test_char_examples():
    assert A.eval_char(A.ALPHA_1, A.aff_torus(PI, ONE)) == PI ** 2
    assert A.eval_char(A.ALPHA_0, A.aff_torus(ONE, PI)) == PI
    t = A.aff_torus(F3.scalar(Fraction(2, 3)), PI ** 2)
    assert A.eval_char(A.DELTA, t) == PI ** 2
    assert A.eval_char(A.ALPHA_0, t) * A.eval_char(A.ALPHA_1, t) == \
        A.eval_char(A.DELTA, t)
    with pytest.raises(A.NotTorus):
        A.eval_char(A.ALPHA_1, A.aff_x_plus(F3, 0, ONE))


def test_char_conj_consistency():
    rng = random.Random(22)
    for _ in range(100):
        f = F3.scalar(rng.choice([1, 2, 5])) * PI ** rng.randint(-2, 2)
        z = F3.scalar(rng.choice([1, 2, 4])) * PI ** rng.randint(-2, 2)
        t = A.aff_torus(f, z)
        k = rng.randint(-2, 2)
        y = F3.scalar(rng.randint(-5, 5))
        conj = t.conj(A.aff_x_plus(F3, k, y))
        expect = A.aff_x_plus(F3, k, A.eval_char((1, k), t) * y)
        assert conj.m == expect.m and conj.z == expect.z


def test_nu_examples():
    assert A.nu_translation(A.aff_t_mu(F3, 2, 5)) == (2, 5)
    assert A.nu_translation(A.aff_torus(ONE, ONE)) == (0, 0)
    assert A.nu_translation(A.aff_torus(F3.scalar(Fraction(2, 3)), ONE)) == (1, 0)


def test_nu_is_morphism():
    rng = random.Random(23)
    for _ in range(100):
        t1 = A.aff_torus(F3.scalar(rng.choice([1, 2])) * PI ** rng.randint(-2, 2),
                         F3.scalar(rng.choice([1, 4])) * PI ** rng.randint(-2, 2))
        t2 = A.aff_torus(F3.scalar(rng.choice([1, 5])) * PI ** rng.randint(-2, 2),
                         F3.scalar(rng.choice([1, 2])) * PI ** rng.randint(-2, 2))
        x1, y1 = A.nu_translation(t1)
        x2, y2 = A.nu_translation(t2)
        assert A.nu_translation(t1 * t2) == (x1 + x2, y1 + y2)


def test_member_examples():
    assert A.aff_member(A.aff_x_plus(F3, 1, PI), A.AffSubgroupSpec("hn", 1))
    assert not A.aff_member(A.aff_x_plus(F3, 2, PI), A.AffSubgroupSpec("hn", 1))
    minus_i = A.aff_torus(-ONE, ONE)
    assert A.aff_member(minus_i, A.AffSubgroupSpec("centero"))
    assert A.aff_member(minus_i, A.AffSubgroupSpec("center"))
    assert not A.aff_member(minus_i, A.AffSubgroupSpec("kerpi", 1))
    assert A.aff_member(A.aff_x_plus(F3, 0, PI ** 2), A.AffSubgroupSpec("kerpi", 2))
    assert not A.aff_member(A.aff_torus(ONE, ONE + PI), A.AffSubgroupSpec("kerpi", 2))
    assert A.aff_member(A.aff_torus(ONE + PI, ONE + PI), A.AffSubgroupSpec("tn", 1))
    with pytest.raises(A.NotTorus):
        A.aff_member(A.aff_x_plus(F3, 0, ONE), A.AffSubgroupSpec("tn", 1))


def test_tnphi_and_center_relations():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(1, 3)
        f = ONE + F3.scalar(rng.randint(-5, 5)) * PI ** n
        z = ONE + F3.scalar(rng.randint(-5, 5)) * PI ** n
        t = A.aff_torus(f, z)
        assert A.aff_member(t, A.AffSubgroupSpec("tn", n))
        assert A.aff_member(t, A.AffSubgroupSpec("tnphi", n))
    minus_i = A.aff_torus(-ONE, ONE)
    for n in range(1, 8):
        assert A.aff_member(minus_i, A.AffSubgroupSpec("tnphi", n))


def test_fixes_test_point_examples():
    minus_i = A.aff_torus(-ONE, ONE)
    for i in (0, 1):
        for n in (1, 3, 7):
            assert A.fixes_test_point(minus_i, i, n)
    assert A.fixes_test_point(A.aff_torus(ONE + PI ** 2, ONE), 1, 2)
    assert not A.fixes_test_point(A.aff_torus(ONE + PI, ONE), 1, 2)


def test_hn_nesting_and_closure():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 2)
        k = rng.randint(-2, 2)
        c = F3.scalar(rng.choice([1, 2, 4])) * PI ** ((n + 1) * max(1, abs(k)) + rng.randint(0, 2))
        g = A.aff_x_plus(F3, k, c) if rng.random() < 0.5 else A.aff_x_minus(F3, k, c)
        assert A.aff_member(g, A.AffSubgroupSpec("hn", n + 1))
        assert A.aff_member(g, A.AffSubgroupSpec("hn", n))       # H_{n+1} ⊆ H_n
        assert A.aff_member(g, A.AffSubgroupSpec("kerpi", n))


def test_vform_accepts_built_factorizations():
    t_l = A.aff_t_mu(F3, 1, 3)
    u_plus = t_l.inverse() * A.aff_x_plus(F3, 1, F3.scalar(2)) * t_l
    u_plus = u_plus * (t_l.inverse() * A.aff_x_minus(F3, 2, ONE) * t_l)
    u_minus = t_l * A.aff_x_minus(F3, -1, F3.scalar(4)) * t_l.inverse()
    torus = A.aff_torus(ONE + PI ** 2, ONE + PI ** 3)
    g = u_plus * u_minus * torus
    assert A.aff_member(g, A.AffSubgroupSpec("vform", 1))
    assert not A.aff_member(g, A.AffSubgroupSpec("vform", 2))


def test_vform_rejections():
    assert not A.aff_member(A.aff_x_plus(F3, 0, PI.inv()), A.AffSubgroupSpec("vform", 1))
    assert not A.aff_member(A.aff_torus(ONE, ONE + PI), A.AffSubgroupSpec("vform", 1))
    assert not A.aff_member(A.aff_x_plus(F3, 0, PI), A.AffSubgroupSpec("vform", 1))
    assert not A.aff_member(A.aff_s1(F3), A.AffSubgroupSpec("vform", 1))
    assert A.aff_member(A.aff_x_plus(F3, 0, PI ** 2), A.AffSubgroupSpec("vform", 1))


def test_kp_witness():
    betas, witness = A.kp_witness(1, 8)
    assert [h for _, h in betas] == [1, 3, 5, 7, 9, 11, 13, 15]
    assert witness == 2
    assert A.kp_witness(2, 8)[1] == 3
    assert A.kp_witness(1, 1)[1] is None      # depth too small


def test_kp_witness_matches_weyl_word_action():
    """Differential check of the stepped simple-root images against the
    action of each whole prefix word, co-reflected letter by letter with the
    last letter acting first."""
    system = roots.affine_sl2_system()
    word, expected = [], []
    for i in range(60):
        letter = (1, 0)[i % 2]
        beta = ((1, 0), (0, 1))[letter]
        for r in reversed(word):
            beta = roots.co_reflect(system, r, beta)
        expected.append((beta, roots.height(beta)))
        word.append(letter)
    for n in (1, 2, 5):
        witness = next((i for i, (_, ht) in enumerate(expected, 1)
                        if n * ht < math.factorial(ht)), None)
        for depth in range(1, 61):
            want = witness if witness is not None and witness <= depth else None
            assert A.kp_witness(n, depth) == (expected[:depth], want), (n, depth)


def test_function_field_variant():
    f2 = RationalFunctionField(2)
    t = f2.uniformizer()
    g = A.aff_x_plus(f2, 1, t)
    assert A.aff_member(g, A.AffSubgroupSpec("hn", 1))
    assert A.eval_char(A.ALPHA_1, A.aff_torus(t, f2.one())) == t ** 2


# --- the det check sits at the trust boundary ------------------------------------

def test_constructor_rejects_bad_entries():
    one, zero = A.LaurentPoly.one(F3), A.LaurentPoly.zero(F3)
    with pytest.raises(ValueError, match="determinant must be 1"):
        A.AffElt(((one, one), (one, one)), ONE)
    with pytest.raises(ValueError, match="determinant must be 1"):
        A.AffElt(((A.LaurentPoly.const(PI), zero), (zero, one)), ONE)
    with pytest.raises(ValueError, match="semidirect scalar must be nonzero"):
        A.AffElt(((one, zero), (zero, one)), F3.zero())


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
def test_products_inverses_and_conjugates_keep_det_one(spec):
    """Products, inverses and conjugates are built unchecked; recompute the
    invariants they must keep from the entries."""
    cfg = harness.SamplerConfig(field=parse_field(spec), seed=11, trials=1)
    rng = cfg.rng("det")
    affs = ([harness.sample_aff_word(rng, cfg)[1] for _ in range(10)]
            + [harness.sample_aff_hn(rng, cfg, n)[1] for n in (1, 2) for _ in range(5)])
    for g, h in zip(affs, affs[1:] + affs[:1]):
        for x in (g * h, g.inverse(), g.conj(h), (g * h).inverse()):
            assert A._mat_det(x.m).is_one() and not x.z.is_zero()
    sl2s = ([harness.sample_sl2_generic(rng, cfg)[1] for _ in range(10)]
            + [harness.sample_sl2_kerpi(rng, cfg, n)[1] for n in (1, 2) for _ in range(5)])
    for g, h in zip(sl2s, sl2s[1:] + sl2s[:1]):
        for x in (g * h, g.inverse(), g * h * g.inverse(), (g * h).inverse()):
            assert (x.a * x.d - x.b * x.c).is_one()


# --- the semidirect law -----------------------------------------------------------

def _aff_elements(field):
    """Words of up to five generators: one-root elements x_±(k; c), tori,
    translations t(l, n) and the two simple reflections, with small scalars
    times ϖ^v."""
    if field.uniformizer_name == "p":
        base = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)).map(field.scalar)
    else:
        coeffs = st.lists(st.integers(0, field.q - 1), max_size=3)
        base = st.builds(field.ratio, coeffs, coeffs.map(lambda c: c if any(c) else c + [1]))
    scalar = st.builds(lambda x, v: x * field.pi_power(v), base, st.integers(-2, 2))
    unit = scalar.filter(lambda x: not x.is_zero())
    gen = st.one_of(
        st.builds(lambda k, c: A.aff_x_plus(field, k, c), st.integers(-2, 2), scalar),
        st.builds(lambda k, c: A.aff_x_minus(field, k, c), st.integers(-2, 2), scalar),
        st.builds(A.aff_torus, unit, unit),
        st.builds(lambda ell, n: A.aff_t_mu(field, ell, n), st.integers(-2, 2), st.integers(1, 2)),
        st.sampled_from([A.aff_s0(field), A.aff_s1(field)]))

    def product(word):
        g = word[0]
        for h in word[1:]:
            g = g * h
        return g
    return st.lists(gen, min_size=1, max_size=5).map(product)


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_semidirect_law(spec, data):
    field = parse_field(spec)
    g, h, k = (data.draw(_aff_elements(field)) for _ in range(3))
    assert (g * h) * k == g * (h * k)
    assert (g * g.inverse()).is_identity() and (g.inverse() * g).is_identity()
    assert g.conj(h) == g * h * g.inverse()
