import json
from fractions import Fraction

import pytest

from kmtop import affine, exprs, harness as H, sl2
from kmtop.valued import INFINITY, PAdicField, RationalFunctionField

F3 = PAdicField(3)


def small_cfg(trials=40, field=F3, seed=42):
    return H.SamplerConfig(field, seed, trials)


def test_unknown_suite():
    with pytest.raises(H.UnknownSuite):
        H.run_suite("no-such-suite", small_cfg())


def test_config_rejects_nonpositive_trials():
    # a suite with no trials would pass having checked nothing
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            small_cfg(trials=trials)


def test_determinism_identical_reports():
    for name in ("commutation", "hn-closure", "tree-retraction"):
        r1 = H.run_suite(name, small_cfg())
        r2 = H.run_suite(name, small_cfg())
        assert json.dumps(r1.as_dict(), sort_keys=True) == \
            json.dumps(r2.as_dict(), sort_keys=True)
    a = H.run_suite("commutation", small_cfg(seed=1))
    b = H.run_suite("commutation", small_cfg(seed=2))
    assert a.verdict == b.verdict == "pass"


def test_sample_element_determinism_and_self_validation():
    cfg = small_cfg()
    for sampler, n in [(H.sample_sl2_generic, None), (H.sample_sl2_kerpi, 2),
                       (H.sample_aff_word, None), (H.sample_aff_hn, 2),
                       (H.sample_aff_torus, None), (H.sample_aff_vform, 1)]:
        args = () if n is None else (n,)
        e1, g1 = sampler(cfg.rng(f"{sampler.__name__}:{n}:7"), cfg, *args)
        e2, g2 = sampler(cfg.rng(f"{sampler.__name__}:{n}:7"), cfg, *args)
        assert e1 == e2
        if sampler is H.sample_sl2_kerpi:
            assert sl2.sl2_member(g1, sl2.SL2SubgroupSpec("kerpi", n))
        if sampler is H.sample_aff_hn:
            assert affine.aff_member(g1, affine.AffSubgroupSpec("hn", n))
        if sampler is H.sample_aff_vform:
            assert affine.aff_member(g1, affine.AffSubgroupSpec("hn", n))
            assert affine.aff_member(g1, affine.AffSubgroupSpec("vform", n))


def _drawn(name, *args):
    """Twelve draws of the sampler name at args."""
    sampler = getattr(H, name)
    return lambda cfg: [sampler(cfg.rng(f"{name}:{i}"), cfg, *args) for i in range(12)]


# What each element sampler, and conj_generator_list, returns: its target
# grammar and a function from a config to (expression, element) pairs.
REPLAYED = {
    "sample_sl2_generic": (exprs.SL2, _drawn("sample_sl2_generic")),
    "sample_sl2_kerpi": (exprs.SL2, _drawn("sample_sl2_kerpi", 1)),
    "sample_sl2_vlambda": (exprs.SL2, _drawn("sample_sl2_vlambda", 1)),
    "sample_sl2_torus": (exprs.SL2, _drawn("sample_sl2_torus")),
    "sample_tree_point": (exprs.TREEPOINT, _drawn("sample_tree_point")),
    "sample_aff_word": (exprs.AFFINE, _drawn("sample_aff_word")),
    "sample_aff_hn": (exprs.AFFINE, _drawn("sample_aff_hn", 2)),
    "sample_aff_torus": (exprs.AFFINE, _drawn("sample_aff_torus")),
    "sample_aff_vform": (exprs.AFFINE, _drawn("sample_aff_vform", 1)),
    "conj_generator_list": (exprs.AFFINE, lambda cfg: H.conj_generator_list(cfg.field)),
}


def test_replay_covers_every_element_sampler():
    scalar_samplers = {"sample_unit", "sample_scalar", "sample_scalar_min_val"}
    samplers = {name for name in vars(H) if name.startswith("sample_")}
    assert samplers - scalar_samplers == set(REPLAYED) - {"conj_generator_list"}


@pytest.mark.parametrize("name", sorted(REPLAYED))
@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_sample_expressions_replay(field, name):
    # recorded expressions rebuild the recorded element, or point, exactly
    target, draws = REPLAYED[name]
    for expr, g in draws(small_cfg(field=field)):
        _, rebuilt = exprs.parse_element(expr, target, field)
        assert rebuilt == g, expr


@pytest.mark.parametrize("name", sorted(
    n for n in H.all_suite_names() if n != "conj-invariance"))
def test_suites_pass_smoke(name):
    report = H.run_suite(name, small_cfg())
    assert report.verdict == "pass", report.failures[:3]


def test_conj_invariance_smoke():
    report = H.run_suite("conj-invariance", small_cfg(trials=30))
    assert report.verdict == "pass", report.failures[:3]


def test_commutation_on_function_field():
    report = H.run_suite("commutation", small_cfg(field=RationalFunctionField(2)))
    assert report.verdict == "pass"


def test_center_separation_skips_on_p2():
    report = H.run_suite("center-separation", small_cfg(field=PAdicField(2)))
    assert report.verdict == "not-applicable"
    assert "p != 2" in report.skipped
    report = H.run_suite("center-separation", small_cfg(field=RationalFunctionField(2)))
    assert report.verdict == "not-applicable"


def test_retract_oracle_is_independent_and_agrees():
    cfg = small_cfg(trials=60)
    for i in range(60):
        _, p = H.sample_sl2_generic(cfg.rng(f"generic:{i}"), cfg)
        point = sl2.TreePoint.make(p, 0)
        assert H._retract_oracle(point) == sl2.tree_retract(point)


def _per_candidate_retract_oracle(p: sl2.TreePoint):
    """The retraction oracle as it was before it computed h = x_+(-c0)·g once
    per c0: one tree_point_equal, with its own product, per candidate."""
    field = p.g.field
    vals = [v for v in (e.valuation() for e in p.g.entries()) if v != INFINITY]
    width = int(max(abs(v) for v in vals)) + int(abs(p.y)) + 2
    candidates = []
    g = p.g
    c_options = [field.zero()]
    if not g.c.is_zero():
        c_options.append(g.a / g.c)
    if not g.d.is_zero():
        c_options.append(g.b / g.d)
    for twice in range(-2 * width, 2 * width + 1):
        y2 = Fraction(twice, 2)
        for c0 in c_options:
            q = sl2.TreePoint.make(sl2.x_plus(c0), y2)
            if sl2.tree_point_equal(q, p):
                candidates.append(y2)
                break
    if len(candidates) != 1:
        return None
    return candidates[0]


@pytest.mark.parametrize("field", [PAdicField(3), PAdicField(2), RationalFunctionField(3)],
                         ids=["p:3", "p:2", "fq:3"])
def test_retract_oracle_matches_the_per_candidate_scan(field):
    cfg = small_cfg(field=field)
    pi = field.uniformizer()
    points = [sl2.TreePoint.make(sl2.x_minus(pi), 1),         # the suite's closed cases
              sl2.apartment_point(field, Fraction(1, 4)),
              sl2.apartment_point(field, -2)]
    points += [H.sample_tree_point(cfg.rng(f"retract:{i}"), cfg)[1] for i in range(100)]
    for p in points:
        assert H._retract_oracle(p) == _per_candidate_retract_oracle(p)


# conj_bound(g, 1) and conj_bound(g, 2) for each g of conj_generator_list, in
# its order: xp(0; 1), xp(0; 1/ϖ), xp(1; 1), xp(-1; 1), xm(0; 1/ϖ), xm(1; 1),
# xm(-1; 1), s0, s1, t(1, 0), t(0, 1), torus(ϖ; ϖ).
CONJ_BOUNDS = [(1, 2), (3, 4), (3, 6), (3, 6), (3, 4), (3, 6),
               (3, 6), (3, 6), (1, 2), (3, 4), (2, 3), (4, 5)]


@pytest.mark.parametrize("field", [PAdicField(2), F3, RationalFunctionField(3)],
                         ids=["p:2", "p:3", "fq:3"])
def test_conj_bound_of_the_suite_conjugators(field):
    got = [tuple(affine.conj_bound(g, n) for n in (1, 2))
           for _, g in H.conj_generator_list(field)]
    assert got == CONJ_BOUNDS


def _searched_bound(g, n, cfg):
    """The search conj-invariance made before it had conj_bound, without its
    cache: the least m whose cfg.trials samples of H_m, drawn under the
    suite's labels conj:m:i, all conjugate into H_n; m runs up to
    conj_bound(g, n), None past it."""
    g_inv, spec = g.inverse(), affine.AffSubgroupSpec("hn", n)
    for m in range(1, affine.conj_bound(g, n) + 1):
        if all(affine.aff_member(g * H.sample_aff_hn(rng, cfg, m)[1] * g_inv, spec)
               for _, _, rng in H._draws(cfg, "conj", (m,))):
            return m
    return None


@pytest.mark.parametrize("trials", [30, 200])
def test_searched_bound_reaches_conj_bound(trials):
    """A sampled search only ever finds a lower estimate of the least m: at
    most conj_bound on few samples, and equal to it on 200 (seed 42, p:3)."""
    cfg = small_cfg(trials=trials)
    for expr, g in H.conj_generator_list(F3):
        for n in (1, 2):
            m, bound = _searched_bound(g, n, cfg), affine.conj_bound(g, n)
            assert m is not None and m <= bound, (expr, n)
            if trials == 200:
                assert m == bound, (expr, n)


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_conj_bound_holds_for_sampled_conjugators(field):
    """g·h·g⁻¹ ∈ H_n for seeded sample_aff_word conjugators g, n = 1, 2 and
    h ∈ H_m, m = conj_bound(g, n): sampled h, and the elements on H_m's
    bounds, x_±(k; ϖ^(m·max(1,|k|))) for |k| ≤ 2 and torus(1+ϖ^m; 1+ϖ^m)."""
    cfg = small_cfg(field=field)
    one = field.one()
    for i in range(150):
        expr, g = H.sample_aff_word(cfg.rng(f"conjugator:{i}"), cfg)
        g_inv = g.inverse()
        for n in (1, 2):
            m, spec = affine.conj_bound(g, n), affine.AffSubgroupSpec("hn", n)
            edge = [make(field, k, field.pi_power(m * max(1, abs(k))))
                    for make in (affine.aff_x_plus, affine.aff_x_minus) for k in range(-2, 3)]
            edge.append(affine.aff_torus(one + field.pi_power(m), one + field.pi_power(m)))
            sampled = [H.sample_aff_hn(cfg.rng(f"conjugated:{i}:{n}:{j}"), cfg, m)[1]
                       for j in range(3)]
            for h in edge + sampled:
                assert affine.aff_member(h, affine.AffSubgroupSpec("hn", m))
                assert affine.aff_member(g * h * g_inv, spec), (expr, n, str(h))


def _conj_bound_without_2a(bound):
    def mutant(g, n):
        a = max(0, -min(c.valuation() for row in g.m for e in row for c in e.coeffs.values()))
        return bound(g, n) - 2 * a
    return mutant


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("mutant", ["plus-one", "without-2a"])
def test_conj_invariance_fails_under_a_wrong_bound(monkeypatch, field, mutant):
    """m + 1 makes every pair's exactness side fail: no witness in H_m escapes
    H_n.  Dropping 2a lowers m for the four conjugators with a > 0, and a
    sampled conjugate escapes H_n at each of their 8 pairs."""
    bound = affine.conj_bound
    wrong = {"plus-one": lambda g, n: bound(g, n) + 1,
             "without-2a": _conj_bound_without_2a(bound)}[mutant]
    monkeypatch.setattr(affine, "conj_bound", wrong)
    report = H.run_suite("conj-invariance", small_cfg(trials=20, field=field))
    assert report.verdict == "fail" and report.trials == 24
    if mutant == "plus-one":
        assert len(report.failures) == 24
        assert all(f.got.startswith("no witness in H_") for f in report.failures)
    else:
        lowered = [i for i, (_, g) in enumerate(H.conj_generator_list(field))
                   if wrong(g, 1) < bound(g, 1)]
        assert len(lowered) == 4
        assert [f.trial for f in report.failures] == [2 * i + n for i in lowered for n in (1, 2)]
        assert all(f.got.endswith(" not in H_1") or f.got.endswith(" not in H_2")
                   for f in report.failures)


def test_failures_are_replayable():
    # a deliberately wrong expectation exercises the failure payload path
    cfg = small_cfg(trials=5)
    expr, g = H.sample_aff_hn(cfg.rng("hn:1:0"), cfg, 1)
    failure = H.Failure(0, expr, "x", "y")
    report = H.SuiteReport("demo", 1, (failure,), 0.0, "")
    assert report.verdict == "fail"
    payload = report.as_dict()
    _, rebuilt = exprs.parse_element(payload["failures"][0]["inputs"],
                                     exprs.AFFINE, F3)
    assert rebuilt.m == g.m


def test_hausdorff_checks_that_the_escape_level_is_tight(monkeypatch):
    """An H_n predicate that says false for every level passes the escape
    side; the tightness side, g ∈ H_{n_escape − 1} for n_escape ≥ 2, fails."""
    monkeypatch.setattr(affine, "aff_member", lambda g, spec: False)
    report = H.run_suite("hausdorff", small_cfg(trials=200))
    assert report.verdict == "fail" and report.failures
    assert {f.got for f in report.failures} == {"escaped"}
    assert all(f.expected.startswith("inside H_") for f in report.failures)


@pytest.mark.parametrize("field", [PAdicField(3), RationalFunctionField(3)], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("name,value", [("LAMBDA", (1, 4)), ("VFORM_TORUS", 3)],
                         ids=["lambda", "vform-torus"])
def test_v_in_h_census_pins_lambda_and_vform_torus(monkeypatch, field, name, value):
    cfg = small_cfg(trials=2, field=field)
    report = H.run_suite("v-in-h", cfg)
    assert report.verdict == "pass" and report.trials == 4
    monkeypatch.setattr(affine, name, value)
    report = H.run_suite("v-in-h", cfg)
    assert report.verdict == "fail"
    census = report.failures[-1]
    assert census.trial == 4 and census.inputs == "vform census"


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_center_separation_census_pins_the_test_point_level(monkeypatch, field):
    """A fixes_test_point that checks level n − 1 lets torus(1; 1+ϖ) into
    tnphi:2: the census after center-separation's trials fails; (−I, 1) alone
    fixes every level and cannot tell."""
    report = H.run_suite("center-separation", small_cfg(trials=2, field=field))
    assert report.verdict == "pass" and report.trials == 22
    level = affine.fixes_test_point
    monkeypatch.setattr(affine, "fixes_test_point", lambda g, i, n: level(g, i, n - 1))
    report = H.run_suite("center-separation", small_cfg(trials=2, field=field))
    assert report.verdict == "fail" and report.trials == 22
    [census] = report.failures
    assert census.inputs == "tnphi and center census"
    assert census.got == ("torus(1; 4) in tnphi:2" if field is F3 else "torus(1; 1+t) in tnphi:2")


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_center_separation_census_pins_the_center(monkeypatch, field):
    """A center predicate that accepts every torus fails center-separation's
    census: (−I, 1) is central whatever the predicate says, so only the
    census asks for a torus outside the center."""
    monkeypatch.setattr(affine, "_center", lambda g, integral: [])
    report = H.run_suite("center-separation", small_cfg(trials=2, field=field))
    assert report.verdict == "fail" and report.trials == 22
    [census] = report.failures
    assert census.inputs == "tnphi and center census"
    pi, one_plus_pi = ("3", "4") if field is F3 else ("t", "1+t")
    assert census.got == (f"torus({pi}; 1) in center; torus({pi}; 1) in centero; "
                          f"torus(1; {one_plus_pi}) in center; torus(1; {one_plus_pi}) in centero")
