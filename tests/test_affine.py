import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fq_scalars import fq_ratio
from kmtop import affine as A
from kmtop import exprs, harness, roots
from kmtop.sl2 import SL2Elt
from kmtop.valued import Field, PAdicField, RationalFunctionField, parse_field

F3 = PAdicField(3)
PI = F3.uniformizer()
ONE = F3.one()


def lp(field, **coeffs):
    return A.LaurentPoly(field, {int(k): field.scalar(v) for k, v in coeffs.items()})


def aff_identity(field):
    one = A.LaurentPoly.one(field)
    zero = A.LaurentPoly.zero(field)
    return A.AffElt(SL2Elt(one, zero, zero, one), field.one())


def _rows(m):
    """The entries of a 2×2 SL2Elt as rows."""
    return ((m.a, m.b), (m.c, m.d))


def test_laurent_basics():
    p = A.LaurentPoly(F3, {1: PI, -2: ONE})
    q = A.LaurentPoly(F3, {1: -PI})
    assert (p + q).coeffs == {-2: ONE}
    assert (p * q).coeffs[2] == -PI * PI
    assert p.substitute_scale(PI).coeffs[1] == PI * PI
    assert p.substitute_scale(PI).coeffs[-2] == PI.inv() ** 2
    assert A.LaurentPoly.one(F3).is_one()
    assert not p.is_zero() and A.LaurentPoly.zero(F3).is_zero()


def test_elements_hash_with_equality():
    """Two parses of one expression are equal, hash alike and dedupe in a
    set; LaurentPoly's hash agrees with its ==."""
    g, h = (exprs.parse_element("xp(1; 3)", exprs.AFFINE, F3)[1] for _ in range(2))
    assert g is not h and g == h and hash(g) == hash(h)
    assert len({g, h, A.aff_s1(F3)}) == 2
    p = A.LaurentPoly(F3, {1: PI, -2: ONE})
    assert hash(p) == hash(A.LaurentPoly(F3, {-2: ONE, 1: PI, 0: F3.zero()}))


def test_generator_examples():
    s1 = A.aff_s1(F3)
    assert s1.m.a.is_zero() and s1.m.b.is_one()
    assert s1.m.c.coeffs == {0: -ONE} and s1.z.is_one()
    s0 = A.aff_s0(F3)
    assert s0.m.b.coeffs == {-1: -ONE}
    assert s0.m.c.coeffs == {1: ONE}
    assert s0.m.a.is_zero() and s0.m.d.is_zero()
    assert (s0 * s0).m.a.coeffs == {0: -ONE}       # square is (-I, 1)
    t = A.aff_t_mu(F3, 1, 0)
    assert t.m.a.coeffs == {0: PI.inv()} and t.z.is_one()


@pytest.mark.parametrize("spec", ["p:2", "p:3", "fq:2", "fq:3"])
def test_weyl_generators_equal_their_defining_products(spec):
    """aff_s1 and aff_s0 are written down; the products that define r̃_1 and
    r̃_0, for α1 = å and α0 = δ − å, are the oracle."""
    field = parse_field(spec)
    one = field.one()
    s1 = A.aff_x_plus(field, 0, one) * A.aff_x_minus(field, 0, -one) * A.aff_x_plus(field, 0, one)
    s0 = (A.aff_x_minus(field, 1, one) * A.aff_x_plus(field, -1, -one)
          * A.aff_x_minus(field, 1, one))
    for built, product in ((A.aff_s1(field), s1), (A.aff_s0(field), s0)):
        assert built == product and str(built) == str(product)


def test_semidirect_law_example():
    g = A.aff_torus(ONE, PI) * A.aff_x_plus(F3, 1, ONE)
    assert g.m.b.coeffs == {1: PI}
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
        assert (g.m.a * g.m.d - g.m.b * g.m.c).is_one()
    rng.shuffle(cfgs)
    for g, h, k in zip(cfgs[::3], cfgs[1::3], cfgs[2::3]):
        assert ((g * h) * k).m == (g * (h * k)).m
        assert (g * h).inverse().m == (h.inverse() * g.inverse()).m


ALPHA_0, ALPHA_1 = roots.AFFINE_SL2.simple_roots     # δ − å and å
DELTA = (0, 1)


def test_char_examples():
    assert (ALPHA_0, ALPHA_1) == ((-2, 1), (2, 0))
    assert A.eval_char(ALPHA_1, A.aff_torus(PI, ONE)) == PI ** 2
    assert A.eval_char(ALPHA_0, A.aff_torus(ONE, PI)) == PI
    t = A.aff_torus(F3.scalar(Fraction(2, 3)), PI ** 2)
    assert A.eval_char(DELTA, t) == PI ** 2
    assert A.eval_char(ALPHA_0, t) * A.eval_char(ALPHA_1, t) == A.eval_char(DELTA, t)
    with pytest.raises(A.NotTorus):
        A.eval_char(ALPHA_1, A.aff_x_plus(F3, 0, ONE))


def test_char_conj_consistency():
    """Conjugating by a torus t multiplies the coefficient whose root is β by
    eval_char(β, t): β = (2, k) for x_+ at u^k, (−2, k) for x_-.  On a
    translation t_μ that factor is ϖ^{−⟨β, μ⟩}, as sample_aff_vform scales
    by: for |k| ≤ 3 and μ in [−4, 4]² on p:3 and fq:3, with the conjugate
    itself checked for |k| ≤ 1 and μ in [−2, 2]²."""
    rng = random.Random(22)
    for _ in range(100):
        f = F3.scalar(rng.choice([1, 2, 5])) * PI ** rng.randint(-2, 2)
        z = F3.scalar(rng.choice([1, 2, 4])) * PI ** rng.randint(-2, 2)
        t = A.aff_torus(f, z)
        k = rng.randint(-2, 2)
        y = F3.scalar(rng.randint(-5, 5))
        for make, (r, c) in ((A.aff_x_plus, (0, 1)), (A.aff_x_minus, (1, 0))):
            beta = A.entry_root(r, c, k)
            assert beta == ((2, k) if make is A.aff_x_plus else (-2, k))
            conj = t.conj(make(F3, k, y))
            expect = make(F3, k, A.eval_char(beta, t) * y)
            assert conj.m == expect.m and conj.z == expect.z
    for field in (F3, parse_field("fq:3")):
        y = field.one() + field.uniformizer()
        for mu in itertools.product(range(-4, 5), repeat=2):
            t = A.aff_t_mu(field, *mu)
            for make, sign in ((A.aff_x_plus, 2), (A.aff_x_minus, -2)):
                for k in range(-3, 4):
                    scale = field.pi_power(-roots.eval_pairing((sign, k), mu))
                    assert A.eval_char((sign, k), t) == scale
                    if abs(k) <= 1 and max(map(abs, mu)) <= 2:
                        assert t.conj(make(field, k, y)) == make(field, k, y * scale)


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
    assert A.aff_x_plus(F3, 1, PI) in A.AffSubgroupSpec("hn", 1)
    assert A.aff_x_plus(F3, 2, PI) not in A.AffSubgroupSpec("hn", 1)
    minus_i = A.aff_torus(-ONE, ONE)
    assert minus_i in A.AffSubgroupSpec("centero")
    assert minus_i in A.AffSubgroupSpec("center")
    assert minus_i not in A.AffSubgroupSpec("kerpi", 1)
    assert A.aff_x_plus(F3, 0, PI ** 2) in A.AffSubgroupSpec("kerpi", 2)
    assert A.aff_torus(ONE, ONE + PI) not in A.AffSubgroupSpec("kerpi", 2)
    assert A.aff_torus(ONE + PI, ONE + PI) in A.AffSubgroupSpec("tn", 1)
    # a torus kind answers a non-torus element with the reason, not a raise
    for kind, arg in (("tn", 1), ("tnphi", 1), ("center", None), ("centero", None)):
        assert A.aff_violations(A.aff_x_plus(F3, 0, ONE), A.AffSubgroupSpec(kind, arg)) == [
            "not a torus element: off-diagonal entries present"]


def test_tnphi_and_center_relations():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(1, 3)
        f = ONE + F3.scalar(rng.randint(-5, 5)) * PI ** n
        z = ONE + F3.scalar(rng.randint(-5, 5)) * PI ** n
        t = A.aff_torus(f, z)
        assert t in A.AffSubgroupSpec("tn", n)
        assert t in A.AffSubgroupSpec("tnphi", n)
    minus_i = A.aff_torus(-ONE, ONE)
    for n in range(1, 8):
        assert minus_i in A.AffSubgroupSpec("tnphi", n)


def test_fixes_test_point_examples():
    minus_i = A.aff_torus(-ONE, ONE)
    assert [A.fix_level(minus_i, i) for i in (0, 1)] == [math.inf, math.inf]
    assert A.fix_level(A.aff_torus(ONE + PI ** 2, ONE), 1) == 2
    assert A.fix_level(A.aff_torus(ONE + PI, ONE), 1) == 1


def test_hn_nesting_and_closure():
    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 2)
        k = rng.randint(-2, 2)
        c = F3.scalar(rng.choice([1, 2, 4])) * PI ** ((n + 1) * max(1, abs(k)) + rng.randint(0, 2))
        g = A.aff_x_plus(F3, k, c) if rng.random() < 0.5 else A.aff_x_minus(F3, k, c)
        assert g in A.AffSubgroupSpec("hn", n + 1)
        assert g in A.AffSubgroupSpec("hn", n)       # H_{n+1} ⊆ H_n
        assert g in A.AffSubgroupSpec("kerpi", n)


def _kerpi_violations(g, n):
    out = [f"entry ({r + 1},{c + 1}) u^{k}: ω = {v} < {n}"
           for r, c, k, v in A.deviation(g.m) if v < n]
    if (g.z - 1).valuation() < n:
        out.append(f"ω(z-1) = {(g.z - 1).valuation()} < {n}")
    return out


def _hn_ring_violations(g, n):
    out = []
    for r, row in enumerate(_rows(g.m)):
        for c, e in enumerate(row):
            for k, coeff in sorted(e.coeffs.items()):
                if coeff.valuation() < n * abs(k):
                    out.append(
                        f"entry ({r + 1},{c + 1}) u^{k}: ω = {coeff.valuation()} < {n * abs(k)}")
    return out


def _entries(violations):
    return [v.partition(":")[0] for v in violations if v.startswith("entry")]


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
def test_one_pass_hn_matches_two_pass_oracle(spec):
    """hn:n is one pass with the bound n·max(1, |k|); the oracle is ker π_n
    followed by the ring bound ω ≥ n·|k| on every coefficient of m."""
    cfg = harness.SamplerConfig(parse_field(spec), 13, 500)
    verdicts = set()
    for i in range(40):
        rng = random.Random(f"{spec}:{i}")
        draws = (harness.sample_aff_word(rng, cfg)[1],
                 harness.sample_aff_hn(rng, cfg, 1 + i % 3)[1],
                 harness.sample_aff_word(rng, cfg)[1] * harness.sample_aff_word(rng, cfg)[1])
        for g in draws:
            for n in (1, 2, 3):
                kerpi = _kerpi_violations(g, n)
                oracle = kerpi + _hn_ring_violations(g, n)
                got = A.aff_violations(g, A.AffSubgroupSpec("hn", n))
                assert (not got) == (not oracle)
                # each coefficient once, and the same coefficients as the oracle
                assert len(set(_entries(got))) == len(_entries(got))
                assert set(_entries(got)) == set(_entries(oracle))
                assert A.aff_violations(g, A.AffSubgroupSpec("kerpi", n)) == kerpi
                verdicts.add(not got)
    assert verdicts == {True, False}


def _subtracted_deviation(m):
    """deviation as it was defined before it read m − I in place: the
    valuations of the coefficients of e − 1, built by subtraction, for a
    diagonal entry e and of e elsewhere."""
    one = A.LaurentPoly.one(m.field)
    return [(r, c, k, coeff.valuation())
            for (r, c), e in zip(((0, 0), (0, 1), (1, 0), (1, 1)), m.entries())
            for k, coeff in sorted((e - one if r == c else e).coeffs.items())]


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
def test_deviation_matches_the_subtraction(spec):
    field = parse_field(spec)
    cfg = harness.SamplerConfig(field, 7, 500)
    one, zero = A.LaurentPoly.one(field), A.LaurentPoly.zero(field)
    u, u_inv = lp(field, **{"1": 1}), lp(field, **{"-1": 1})
    matrices = [
        aff_identity(field).m,
        SL2Elt(u, zero, zero, u_inv),                               # no u^0 on the diagonal
        SL2Elt(lp(field, **{"0": 1, "1": 1}), one, u, one),         # u^0 terms exactly 1
        *(g.m for _, g in harness.conj_generator_list(field)),
    ]
    for i in range(30):
        rng = random.Random(f"deviation:{spec}:{i}")
        n = 1 + i % 2
        matrices += [harness.sample_aff_word(rng, cfg)[1].m, harness.sample_aff_hn(rng, cfg, n)[1].m,
                     harness.sample_aff_vform(rng, cfg, n)[1].m]
    for m in matrices:
        assert list(A.deviation(m)) == _subtracted_deviation(m)
    assert list(A.deviation(matrices[0])) == []
    assert [k for r, c, k, _ in A.deviation(matrices[1]) if r == c] == [0, 1, -1, 0]


def test_vform_accepts_built_factorizations():
    t_l = A.aff_t_mu(F3, 1, 3)
    u_plus = t_l.inverse() * A.aff_x_plus(F3, 1, F3.scalar(2)) * t_l
    u_plus = u_plus * (t_l.inverse() * A.aff_x_minus(F3, 2, ONE) * t_l)
    u_minus = t_l * A.aff_x_minus(F3, -1, F3.scalar(4)) * t_l.inverse()
    torus = A.aff_torus(ONE + PI ** 2, ONE + PI ** 3)
    g = u_plus * u_minus * torus
    assert g in A.AffSubgroupSpec("vform", 1)
    assert g not in A.AffSubgroupSpec("vform", 2)


def test_vform_rejections():
    assert A.aff_x_plus(F3, 0, PI.inv()) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_torus(ONE, ONE + PI) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_plus(F3, 0, PI) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_s1(F3) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_plus(F3, 0, PI ** 2) in A.AffSubgroupSpec("vform", 1)


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
    system = roots.AFFINE_SL2
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
    assert g in A.AffSubgroupSpec("hn", 1)
    assert A.eval_char(ALPHA_1, A.aff_torus(t, f2.one())) == t ** 2


# --- the det check sits at the trust boundary ------------------------------------

def test_constructor_rejects_bad_entries():
    """The det check of an affine element's matrix is SL2Elt's, over
    K[u, u^{-1}]; AffElt checks z ≠ 0."""
    one, zero = A.LaurentPoly.one(F3), A.LaurentPoly.zero(F3)
    with pytest.raises(ValueError, match="determinant must be 1"):
        A.AffElt(SL2Elt(one, one, one, one), ONE)
    with pytest.raises(ValueError, match="determinant must be 1"):
        A.AffElt(SL2Elt(A.LaurentPoly.monomial(F3, 0, PI), zero, zero, one), ONE)
    with pytest.raises(ValueError, match="semidirect scalar must be nonzero"):
        A.AffElt(SL2Elt(one, zero, zero, one), F3.zero())


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
def test_products_inverses_and_conjugates_keep_det_one(spec):
    """Products, inverses and conjugates are built unchecked; recompute the
    invariants they must keep from the entries."""
    cfg = harness.SamplerConfig(parse_field(spec), 11, 1)
    rng = cfg.rng("det")
    affs = ([harness.sample_aff_word(rng, cfg)[1] for _ in range(10)]
            + [harness.sample_aff_hn(rng, cfg, n)[1] for n in (1, 2) for _ in range(5)])
    for g, h in zip(affs, affs[1:] + affs[:1]):
        for x in (g * h, g.inverse(), g.conj(h), (g * h).inverse()):
            assert (x.m.a * x.m.d - x.m.b * x.m.c).is_one() and not x.z.is_zero()
    sl2s = ([harness.sample_sl2_generic(rng, cfg)[1] for _ in range(10)]
            + [harness.sample_sl2_kerpi(rng, cfg, n)[1] for n in (1, 2) for _ in range(5)])
    for g, h in zip(sl2s, sl2s[1:] + sl2s[:1]):
        for x in (g * h, g.inverse(), g * h * g.inverse(), (g * h).inverse()):
            assert (x.a * x.d - x.b * x.c).is_one()


# --- the semidirect law -----------------------------------------------------------

def _scalars(field):
    """Small scalars times ϖ^v, |v| ≤ 2."""
    if field.uniformizer_name == "p":
        base = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)).map(field.scalar)
    else:
        coeffs = st.lists(st.integers(0, field.q - 1), max_size=3)
        base = st.builds(lambda n, d: fq_ratio(field, n, d),
                         coeffs, coeffs.map(lambda c: c if any(c) else c + [1]))
    return st.builds(lambda x, v: x * field.pi_power(v), base, st.integers(-2, 2))


def _aff_elements(field):
    """Words of up to five generators: one-root elements x_±(k; c), tori,
    translations t(l, n) and the two simple reflections, with small scalars
    times ϖ^v."""
    scalar = _scalars(field)
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


# --- products checked by evaluation ---------------------------------------------
# Evaluating at u = u0 ≠ 0 is a ring homomorphism K[u,u^{-1}] → K, so an AffElt
# product g·h evaluates to the plain 4-term 2×2 product of g.m at u0 and h.m
# at g.z·u0.  The oracle multiplies scalars only, and shares no code with the
# product layer's zero-skipping _dot.

def _points(field):
    """Nonzero u0 of several valuations."""
    pi, one = field.uniformizer(), field.one()
    two = field.scalar(2)
    return (one, -one, pi, pi.inv(), two + pi, (one + pi) / (two + pi * pi))


def _evaluate(m, u0):
    return [[sum((c * u0 ** k for k, c in e.coeffs.items()), u0.field.zero()) for e in row]
            for row in _rows(m)]


def _plain(x, y):
    return [[x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in range(2)] for r in range(2)]


def _adjugate(x):
    """The inverse of a det-1 matrix."""
    return [[x[1][1], -x[0][1]], [-x[1][0], x[0][0]]]


def _oracle_elements(field):
    """Words drawn by the harness samplers and the 12 conjugators of
    conj-invariance."""
    cfg = harness.SamplerConfig(field, 0, 1)
    seeds = st.integers(0, 2 ** 32).map(random.Random)
    return st.one_of(
        seeds.map(lambda rng: harness.sample_aff_word(rng, cfg)[1]),
        st.builds(lambda rng, n: harness.sample_aff_hn(rng, cfg, n)[1], seeds, st.integers(1, 3)),
        st.sampled_from([g for _, g in harness.conj_generator_list(field)]))


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_products_inverses_and_conjugates_agree_with_evaluation(spec, data):
    field = parse_field(spec)
    g, h = (data.draw(_oracle_elements(field)) for _ in range(2))
    gh, g_inv, conj = g * h, g.inverse(), g.conj(h)
    assert gh.z == g.z * h.z and g_inv.z == g.z.inv() and conj.z == h.z
    for u0 in _points(field):
        assert _evaluate(gh.m, u0) == _plain(_evaluate(g.m, u0), _evaluate(h.m, g.z * u0))
        # g⁻¹ = (adj(M)[u ← z⁻¹·u], z⁻¹), and g⁻¹ at z·w is adj(M at w)
        assert _evaluate(g_inv.m, u0) == _adjugate(_evaluate(g.m, g.z.inv() * u0))
        assert _evaluate(conj.m, u0) == _plain(
            _plain(_evaluate(g.m, u0), _evaluate(h.m, g.z * u0)),
            _adjugate(_evaluate(g.m, h.z * u0)))


def _laurent(field):
    """Laurent polynomials with up to four terms at exponents in [-3, 3], some
    of them monomials and some zero."""
    return st.dictionaries(st.integers(-3, 3), _scalars(field), max_size=4).map(
        lambda coeffs: A.LaurentPoly(field, coeffs))


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_built_polynomials_hold_no_zero_coefficient(spec, data):
    """Products, sums, negations and substitutions build their results
    without the zero filter; == and hash compare the coefficient dicts, so
    a zero coefficient kept would break both.  p + (q − p) cancels every
    term of q − p that p shares."""
    field = parse_field(spec)
    p, q = data.draw(_laurent(field)), data.draw(_laurent(field))
    z = data.draw(_scalars(field).filter(lambda x: not x.is_zero()))
    g, h = (data.draw(_oracle_elements(field)) for _ in range(2))
    mono = A.LaurentPoly.monomial(field, data.draw(st.integers(-3, 3)), z)
    built = [p * q, p * mono, mono * q, p + q, q - p, p + (q - p), p - p, -p,
             p.substitute_scale(z), p.substitute_scale(z.inv())]
    built += [e for x in (g * h, g.inverse(), g.conj(h)) for e in x.m.entries()]
    for e in built:
        assert all(not c.is_zero() for c in e.coeffs.values())
    assert p + (q - p) == q and hash(p + (q - p)) == hash(q)
    assert (p - p).is_zero()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_function_field_pi_power_is_the_power_of_t(q):
    field = RationalFunctionField(q)
    for n in range(-60, 61):
        assert field.pi_power(n).raw == (field.uniformizer() ** n).raw


# --- the vform factorization -------------------------------------------------------
# The dense solver that row reduction replaced, kept as the differential
# oracle: each row pair of A solved as one exact linear system over K with the
# entry degrees bounded by the largest u-exponent of M.

def _max_exponent(e):
    return max(e.coeffs, default=0)


def _solve_linear(rows, rhs, nvars, field):
    """One exact solution of rows·x = rhs with free variables zeroed, or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(nvars):
        pivot = next((r for r in range(row, len(aug)) if not aug[r][col].is_zero()), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col].inv()
        aug[row] = [e * inv for e in aug[row]]
        for r in range(len(aug)):
            if r != row and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [e - factor * p for e, p in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == len(aug):
            break
    for r in range(row, len(aug)):
        if not aug[r][nvars].is_zero():
            return None
    x = [field.zero()] * nvars
    for r, col in enumerate(pivots):
        x[col] = aug[r][nvars]
    return x


def _birkhoff_row_solve(m, top_row: bool, field: Field):
    """Solve for one row pair of the polynomial factor A.

    For the bottom row: A11 = 1 + Σ a_k u^k, A21 = Σ c_k u^k (k = 1..N) with
    A11·M2j − A21·M1j ∈ K[u^{-1}]; top row mirrors it with A22 (constant 1)
    and A12 (free constant term).  The top row additionally imposes the
    normalization coefficient (A22·M12 − A12·M22)(u^0) = 0, without which the
    system has the spurious one-parameter family A ← A·x_+(q0).  Returns the
    pair (diag_poly, off_poly).
    """
    N = max(0, max(_max_exponent(e) for row in m for e in row))
    if top_row:
        diag_ref, off_ref = (m[0][0], m[0][1]), (m[1][0], m[1][1])
        off_lowest = 0
    else:
        diag_ref, off_ref = (m[1][0], m[1][1]), (m[0][0], m[0][1])
        off_lowest = 1
    n_diag = N                       # unknowns u^1..u^N on the diagonal factor
    n_off = N + 1 - off_lowest       # unknowns u^{off_lowest}..u^N off diagonal
    nvars = n_diag + n_off
    rows, rhs = [], []
    for j in range(2):
        ref_d, ref_o = diag_ref[j], off_ref[j]
        max_e = N + max(_max_exponent(ref_d), _max_exponent(ref_o), 0)
        lowest_e = 0 if (top_row and j == 1) else 1
        for e in range(lowest_e, max_e + 1):
            row = [field.zero()] * nvars
            for k in range(1, N + 1):
                row[k - 1] = ref_d.get(e - k)
            for idx, k in enumerate(range(off_lowest, N + 1)):
                row[n_diag + idx] = -ref_o.get(e - k)
            rows.append(row)
            rhs.append(-ref_d.get(e))   # constant-term-1 contribution moved right
    sol = _solve_linear(rows, rhs, nvars, field)
    if sol is None:
        return None
    diag = {0: field.one()}
    for k in range(1, N + 1):
        diag[k] = sol[k - 1]
    off = {}
    for idx, k in enumerate(range(off_lowest, N + 1)):
        off[k] = sol[n_diag + idx]
    return A.LaurentPoly(field, diag), A.LaurentPoly(field, off)


def _dense_birkhoff(m):
    """(A, C) as the dense solver found them, None where it found no
    factorization, or the message of whichever later check rejected its
    candidate.  It works on rows of entries; only m and the returned A and C
    are SL2Elts."""
    field = m.field
    m = _rows(m)
    bottom = _birkhoff_row_solve(m, False, field)
    top = _birkhoff_row_solve(m, True, field)
    if bottom is None or top is None:
        return None
    a11, a21 = bottom
    a22, a12 = top
    a = ((a11, a12), (a21, a22))
    if not (a11 * a22 - a12 * a21).is_one():
        return "factorization candidate has det != 1"
    c = _plain(_adjugate(a), m)
    if any(_max_exponent(e) > 0 for row in c for e in row if not e.is_zero()):
        return "residual factor is not polynomial in u^{-1}"
    if not c[0][1].get(0).is_zero():
        return "residual factor is not lower triangular at u = ∞"
    if c[0][0].get(0).is_zero():
        return "torus factor vanishes"
    return SL2Elt(*a[0], *a[1]), SL2Elt(*c[0], *c[1])


@pytest.mark.parametrize("spec,count", [("p:3", 300), ("fq:3", 42)])
def test_birkhoff_matches_dense_solver(spec, count):
    """Row reduction and the dense solver agree on every sampled matrix:
    words, products of two words, H_n and vform draws, with z set to 1 so that
    vform_violations reaches the factorization."""
    field = parse_field(spec)
    cfg = harness.SamplerConfig(field, 1, 1)
    rng = cfg.rng("birkhoff")
    draws = (lambda: harness.sample_aff_word(rng, cfg)[1],
             lambda: harness.sample_aff_word(rng, cfg)[1] * harness.sample_aff_word(rng, cfg)[1],
             lambda: harness.sample_aff_hn(rng, cfg, 1)[1],
             lambda: harness.sample_aff_hn(rng, cfg, 2)[1],
             lambda: harness.sample_aff_vform(rng, cfg, 1)[1],
             lambda: harness.sample_aff_vform(rng, cfg, 2)[1])
    outcomes = []
    for i in range(count):
        g = A.AffElt(draws[i % len(draws)]().m, field.one())
        want = _dense_birkhoff(g.m)
        assert A._birkhoff(g.m) == want, (i, str(g))
        assert (A.vform_violations(g, 1) == ["no polynomial factorization"]) == (want is None)
        outcomes.append(want is None)
    assert any(outcomes) and not all(outcomes)


def _unipotent(field, sign):
    """Products of x_+(c·u^k), k ≥ 0, and x_-(c·u^k), k ≥ 1 (sign 1), or of
    their mirrors x_-(c·u^{-k}) and x_+(c·u^{-k}) (sign −1), |k| ≤ 6."""
    near, far = (A.aff_x_plus, A.aff_x_minus) if sign > 0 else (A.aff_x_minus, A.aff_x_plus)
    gen = st.one_of(
        st.builds(lambda k, c: near(field, sign * k, c), st.integers(0, 6), _scalars(field)),
        st.builds(lambda k, c: far(field, sign * k, c), st.integers(1, 6), _scalars(field)))

    def product(word):
        g = aff_identity(field)
        for h in word:
            g = g * h
        return g
    return st.lists(gen, max_size=4).map(product)


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_birkhoff_recovers_built_factors(spec, data):
    """A·B·diag(f, f^{-1}) built from its factors factors back into exactly
    A and B·diag(f, f^{-1})."""
    field = parse_field(spec)
    a, b = data.draw(_unipotent(field, 1)), data.draw(_unipotent(field, -1))
    f = data.draw(_scalars(field).filter(lambda x: not x.is_zero()))
    c = b * A.aff_torus(f, field.one())
    assert A._birkhoff((a * c).m) == (a.m, c.m)


@pytest.mark.parametrize("spec", ["p:3", "fq:3"])
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 3), word=st.booleans())
def test_birkhoff_factors_have_the_pattern_exponents(spec, seed, n, word):
    """On vform draws, and on word draws that factor, _birkhoff's A is in
    SL2(K[u]) with A(0) upper unitriangular and B = C·diag(f^{-1}, f) in
    SL2(K[u^{-1}]) with B(∞) lower unitriangular: every coefficient of A − I
    (sign 1) and of B − I (sign −1) at u^k has sign·k ≥ 0 at the root sign·å
    and sign·k ≥ 1 elsewhere, the exponent conditions that
    vform_violations does not check."""
    field = parse_field(spec)
    cfg = harness.SamplerConfig(field, seed, 1)
    rng = cfg.rng("shape")
    g = (harness.sample_aff_word(rng, cfg) if word else harness.sample_aff_vform(rng, cfg, n))[1]
    factors = A._birkhoff(g.m)
    if factors is None:
        assert word
        return
    a, c = factors
    assert a * c == g.m
    f = c.a.get(0)
    zero = A.LaurentPoly.zero(field)
    b = c * SL2Elt(A.LaurentPoly.monomial(field, 0, f.inv()), zero, zero,
                   A.LaurentPoly.monomial(field, 0, f))
    for m, sign in ((a, 1), (b, -1)):
        for r, col, k, _ in A.deviation(m):
            assert sign * k >= (0 if col - r == sign else 1), (sign, r, col, k)


@settings(deadline=None, max_examples=60)
@given(a=st.integers(-3, 3), b=st.integers(1, 4), sign=st.sampled_from([1, -1]),
       near=st.booleans(), k=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_vform_bounds_follow_lambda(a, b, sign, near, k, seed):
    """At μ = (a, b), b ≥ 1: u_± = t_{∓μ}·x·t_{±μ} for a one-root x with a
    unit coefficient meets the pattern bound at μ exactly, so it fails at a μ'
    that raises the pairing of x's root; and with λ set to μ, every vform
    sampler draw at levels 1 and 2 passes vform."""
    mu = (a, b)
    t = A.aff_t_mu(F3, *mu)
    # u_+: x_+ at u^k, k ≥ 0, or x_- at u^k, k ≥ 1; u_-: their mirrors at u^{-k}
    plus = near == (sign > 0)
    make, (r, c) = (A.aff_x_plus, (0, 1)) if plus else (A.aff_x_minus, (1, 0))
    x = make(F3, sign * (k if near else k + 1), F3.scalar(2))
    u = t.inverse() * x * t if sign > 0 else t * x * t.inverse()

    def pattern(lam):
        """vform:1 of u with λ set to lam: u is its own u_+ (sign 1) or u_-."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(A, "LAMBDA", lam)
            return A.vform_violations(u, 1)
    assert pattern(mu) == []
    raised = (a + sign * (c - r), b)        # ⟨β, raised⟩ = ⟨β, μ⟩ + 2·sign
    [violation] = pattern(raised)
    assert violation.startswith(f"u_{'+' if sign > 0 else '-'} entry ({r + 1},{c + 1}) ")
    cfg = harness.SamplerConfig(F3, seed, 1)
    rng = cfg.rng("lambda")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(A, "LAMBDA", mu)
        for n in (1, 2):
            expr, g = harness.sample_aff_vform(rng, cfg, n)
            assert f"t({-n * a}, {-n * b})" in str(expr)
            assert A.vform_violations(g, n) == [], expr
