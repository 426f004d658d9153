"""Boundary cases: elements one valuation step away from each predicate."""

import random
from fractions import Fraction

from kmtop import affine as A, harness as H, sl2 as S
from kmtop.valued import PAdicField, RationalFunctionField

F3 = PAdicField(3)
PI = F3.uniformizer()
ONE = F3.one()


def test_kerpi_borderline_levels():
    for n in (1, 2, 3):
        g = S.x_plus(PI ** n) * S.x_minus(PI ** n) * S.diag_torus(ONE + PI ** n)
        assert g in S.SL2SubgroupSpec("kerpi", n)
        assert S.kerpi_product_member(g, n)
        assert g not in S.SL2SubgroupSpec("kerpi", n + 1)
        assert not S.kerpi_product_member(g, n + 1)
        # one factor short of the level
        h = S.x_plus(PI ** (n - 1)) * S.x_minus(PI ** n) if n > 1 else S.x_plus(ONE)
        assert (h in S.SL2SubgroupSpec("kerpi", n)) == \
            S.kerpi_product_member(h, n) == False  # noqa: E712


def test_vlambda_borderlines():
    for n in (1, 2):
        good = S.compose_upt(PI ** (2 * n), PI ** (2 * n), ONE + PI ** (4 * n))
        assert good in S.SL2SubgroupSpec("vlambda", n)
        shy_b = S.compose_upt(PI ** (2 * n - 1), PI ** (2 * n), ONE + PI ** (4 * n))
        shy_t = S.compose_upt(PI ** (2 * n), PI ** (2 * n), ONE + PI ** (4 * n - 1))
        assert shy_b not in S.SL2SubgroupSpec("vlambda", n)
        assert shy_t not in S.SL2SubgroupSpec("vlambda", n)


def test_hn_borderlines():
    for n in (1, 2, 3):
        for k in (-3, -1, 0, 2):
            need = n * max(1, abs(k))
            ok = A.aff_x_minus(F3, k, PI ** need)
            shy = A.aff_x_minus(F3, k, PI ** (need - 1))
            assert ok in A.AffSubgroupSpec("hn", n)
            assert shy not in A.AffSubgroupSpec("hn", n)


def test_vform_near_misses():
    # torus factor one level short of T_{2n}
    t_shy = A.aff_torus(ONE + PI, ONE + PI ** 2)
    assert t_shy not in A.AffSubgroupSpec("vform", 1)
    t_ok = A.aff_torus(ONE + PI ** 2, ONE + PI ** 2)
    assert t_ok in A.AffSubgroupSpec("vform", 1)
    # one-root factors at the exact pattern boundary, n = 1
    assert A.aff_x_plus(F3, 1, PI ** 5) in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_plus(F3, 1, PI ** 4) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_minus(F3, 1, PI) in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_minus(F3, 1, ONE) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_minus(F3, 0, PI ** 2) in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_minus(F3, -1, PI ** 4) not in A.AffSubgroupSpec("vform", 1)
    assert A.aff_x_minus(F3, -1, PI ** 5) in A.AffSubgroupSpec("vform", 1)
    # n = 2, written out so that these numbers pin λ = å∨ + 3d: (in, out) pairs
    for make, k, inside, outside in ((A.aff_x_plus, 1, 10, 9), (A.aff_x_minus, 1, 2, 1),
                                     (A.aff_x_minus, 0, 4, 3), (A.aff_x_minus, -1, 10, 9)):
        assert make(F3, k, PI ** inside) in A.AffSubgroupSpec("vform", 2)
        assert make(F3, k, PI ** outside) not in A.AffSubgroupSpec("vform", 2)
    assert A.aff_torus(ONE + PI ** 4, ONE + PI ** 4) in A.AffSubgroupSpec("vform", 2)
    assert A.aff_torus(ONE + PI ** 3, ONE + PI ** 4) not in A.AffSubgroupSpec("vform", 2)


def test_vform_factor_order_matters_only_as_pattern():
    # u_- · u_+ · t with honest levels still factors (the solver reorders it)
    t_l = A.aff_t_mu(F3, 1, 3)
    u_plus = t_l.inverse() * A.aff_x_plus(F3, 0, F3.scalar(2)) * t_l
    u_minus = t_l * A.aff_x_minus(F3, 0, F3.scalar(2)) * t_l.inverse()
    g = u_minus * u_plus * A.aff_torus(ONE + PI ** 2, ONE)
    # reordering changes the element; the predicate answers for the element
    assert isinstance(g in A.AffSubgroupSpec("vform", 1), bool)


def test_conjugation_shift_law_is_sharp():
    # the (2,1) entry of a t_{-nλ'}-conjugate can dip below integrality at
    # exponent -1: the bound 2n·max(1,|k|) + n·k - 2n is attained
    n = 1
    g = A.aff_x_minus(F3, -1, PI ** 2)
    assert g in A.AffSubgroupSpec("hn", 2)
    conj = A.aff_t_mu(F3, -n, -n).conj(g)
    coeff = conj.m.c.get(-1)
    assert coeff.valuation() == -1          # = 2n - n - 2n
    # and the positive-exponent mirror stays integral under this conjugator
    h = A.aff_x_minus(F3, 1, PI ** 2)
    conj2 = A.aff_t_mu(F3, -n, -n).conj(h)
    assert conj2.m.c.get(1).valuation() == 1


def test_h2n_conjugator_pins_lambda_prime():
    # h2n-in-v's conjugator and its bounds both read LAMBDA_PRIME, so only
    # literals pin λ' = å∨ + d: t_{-nλ'}·xp(k; 1)·t_{nλ'} scales the u^k
    # coefficient by ϖ^{⟨å + kδ, nλ'⟩} = 3^{n(2 + k)}, as `mul` prints it
    printed = {(1, -1): "([[1, 3*u^-1], [0, 1]], 1)", (1, 0): "([[1, 9], [0, 1]], 1)",
               (1, 1): "([[1, 27*u], [0, 1]], 1)", (2, -1): "([[1, 9*u^-1], [0, 1]], 1)",
               (2, 0): "([[1, 81], [0, 1]], 1)", (2, 1): "([[1, 729*u], [0, 1]], 1)"}
    for (n, k), text in printed.items():
        ell, d = (n * x for x in A.LAMBDA_PRIME)
        g = A.aff_t_mu(F3, -ell, -d) * A.aff_x_plus(F3, k, ONE) * A.aff_t_mu(F3, ell, d)
        assert str(g) == text


def test_tree_equality_transitive_across_representatives():
    rng = random.Random(31)
    for _ in range(150):
        y = Fraction(rng.randint(-5, 5), 2)
        g = S.identity(F3)
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.4:
                g = g * S.x_plus(F3.scalar(rng.randint(-4, 4)) * PI ** rng.randint(-2, 3))
            elif pick < 0.8:
                g = g * S.x_minus(F3.scalar(rng.randint(-4, 4)) * PI ** rng.randint(-2, 3))
            else:
                g = g * S.weyl_w(F3)
        p = S.TreePoint(g, y)
        # build two other representatives by right-multiplying with fixators of p_y
        stab1 = S.x_plus(F3.pi_power(max(0, -int(2 * y)) + rng.randint(0, 1)))
        stab2 = S.x_minus(F3.pi_power(max(0, int(2 * y)) + rng.randint(0, 1)))
        q = S.TreePoint(g * stab1, y)
        r = S.TreePoint(g * stab2 * stab1, y)
        assert S.tree_point_equal(p, q)
        assert S.tree_point_equal(q, r)
        assert S.tree_point_equal(p, r)     # transitivity
        assert S.tree_retract(p) == S.tree_retract(q) == S.tree_retract(r)


def test_retract_representative_independence_fq():
    f2 = RationalFunctionField(2)
    t = f2.uniformizer()
    p = S.TreePoint(S.x_minus(t) * S.weyl_w(f2), Fraction(3, 2))
    cfg = H.SamplerConfig(f2, 42, 1)
    assert H._retract_oracle(p) == S.tree_retract(p)
    assert cfg.field is f2


def test_retract_hand_computed_cases():
    # (w, y): w reflects the apartment at 0, so the point is p_{-y} in A
    for y in (Fraction(2), Fraction(-3, 2), Fraction(0)):
        p = S.TreePoint(S.weyl_w(F3), y)
        assert S.tree_retract(p) == -y
    # x_-(ϖ^{-1}) moves p_0 off the apartment; folding lands at -1
    assert S.tree_retract(S.TreePoint(S.x_minus(PI.inv()), 0)) == -1
    # x_-(ϖ) fixes p_{1/2}, then diag(ϖ^{-2}, ϖ^2) translates by +2
    g = S.diag_torus(PI.inv() ** 2) * S.x_minus(PI)
    assert S.tree_retract(S.TreePoint(g, Fraction(1, 2))) == Fraction(5, 2)


def test_vform_with_larger_loop_exponents():
    # exercise the factorization solver at degree bounds beyond the samplers
    t_l = A.aff_t_mu(F3, 1, 3)
    u_plus = t_l.inverse() * (A.aff_x_plus(F3, 4, F3.scalar(2))
                              * A.aff_x_minus(F3, 5, ONE)) * t_l
    u_minus = t_l * (A.aff_x_minus(F3, -4, F3.scalar(7))
                     * A.aff_x_plus(F3, -5, ONE)) * t_l.inverse()
    g = u_plus * u_minus * A.aff_torus(ONE + PI ** 3, ONE + PI ** 2)
    assert g in A.AffSubgroupSpec("vform", 1)
    assert g not in A.AffSubgroupSpec("vform", 2)


def test_hn_group_axioms_under_mixed_generators():
    rng = random.Random(33)
    spec = A.AffSubgroupSpec("hn", 2)
    cfg = H.SamplerConfig(F3, 42, 1)
    elems = [H.sample_aff_hn(rng, cfg, 2)[1] for _ in range(40)]
    for g, h in zip(elems[::2], elems[1::2]):
        prod = g * h
        assert prod in spec
        assert prod.inverse() in spec
        assert (prod * prod.inverse()).is_identity()
