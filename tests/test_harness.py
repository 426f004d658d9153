import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from kmtop import affine, exprs, harness as H, sl2
from kmtop.valued import INFINITY, PAdicField, RationalFunctionField

F3 = PAdicField(3)


def small_cfg(trials=40, field=F3, seed=42):
    return H.SamplerConfig(field, seed, trials)


def test_verify_divides_by_monic_gcds_and_scales_by_z_other_than_1():
    """Over a verify run on fq:3, every divisor _pquo gets is monic, as every
    caller divides by a _pgcd result, and every z that substitute_scale gets
    is not 1, as its one caller takes z = 1 as the identity.  A profiler sees
    each call of the two code objects, whatever name it is made through."""
    from kmtop import cli, valued
    quo, scale = valued._pquo.__code__, affine.LaurentPoly.substitute_scale.__code__
    divisors, scalars = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is quo:
            divisors.append(frame.f_locals["b"])
        elif event == "call" and frame.f_code is scale:
            scalars.append(frame.f_locals["z"])

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            assert cli.main(["verify", "--field", "fq:3", "--trials", "2"]) == 0
        finally:
            sys.setprofile(None)
    assert divisors and all(b[-1] == 1 for b in divisors)
    assert scalars and not any(z.is_one() for z in scalars)


# The failure inputs of verify --suite all --field fq:3 --trials 2 under the
# tree_retract off-by-one, as printed when every sample's text was rendered
# as it was drawn.
RETRACT_OFF_BY_ONE_INPUTS = [
    "point(xm(t), 1)",
    "point(xp(0), 1/4)",
    "point(xp(0), -2)",
    "point(w diag((1+t)/t^3) xm(0) w xp(0) w, 5/2)",
    "point(w diag((1+t)/t^3), 11/2)",
]


def test_verify_reads_omega_of_x_minus_1_in_place_and_renders_only_failures(monkeypatch):
    """A passing verify run on fq:3 builds no x − 1 in the membership
    predicates, which read ω(x − 1) with valuation_from_one (vlambda and
    bigcello read ω(δ − 1) from g22, with no δ built), and renders no
    sample's text.  A failing run prints the same failure inputs as when
    every sample's text was rendered as it was drawn."""
    from kmtop import cli, valued
    subtract = {valued.ValuedScalar.__sub__.__code__}
    from_one, printer = valued.ValuedScalar.valuation_from_one.__code__, exprs.print_expr.__code__
    predicates = {f.__code__ for f in (affine._congruence, affine.deviation, sl2._kerpi,
                                       affine.entry_violations, affine.vform_violations,
                                       sl2._diagonal, sl2._big_cell, affine.fix_level,
                                       H._hausdorff, H._fix_criterion)}
    subtracted, calls = [], {from_one: 0, printer: 0}

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in subtract and frame.f_back.f_code in predicates:
            subtracted.append(frame.f_back.f_code.co_name)
        elif frame.f_code in calls:
            calls[frame.f_code] += 1

    argv = ["--json", "verify", "--suite", "all", "--field", "fq:3", "--trials", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            assert cli.main(argv) == 0
        finally:
            sys.setprofile(None)
    assert subtracted == [] and calls[from_one] > 0 and calls[printer] == 0
    retract = sl2.tree_retract
    monkeypatch.setattr(sl2, "tree_retract", lambda p: retract(p) + 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 3
    inputs = [f["inputs"] for suite in json.loads(out.getvalue())["suites"]
              for f in suite["failures"]]
    assert inputs == RETRACT_OFF_BY_ONE_INPUTS


def test_unknown_suite():
    with pytest.raises(H.UnknownSuite):
        H.run_suite("no-such-suite", small_cfg())


def test_config_rejects_nonpositive_trials():
    # a suite with no trials would pass having checked nothing
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            small_cfg(trials=trials)


def test_config_takes_only_int_seeds_and_trials():
    """A bool would run 1 trial and echo "trials": true, and a float seed
    would seed another stream, so both are refused before the range checks."""
    for bad in (True, 20.0, Fraction(20), "20"):
        with pytest.raises(TypeError, match="not an integer"):
            small_cfg(trials=bad)
        with pytest.raises(TypeError, match="not an integer"):
            small_cfg(seed=bad)
    with pytest.raises(TypeError, match="not an integer"):
        small_cfg(trials=0.5)


def test_config_takes_only_a_field():
    """A spec string would be accepted and every trial would raise on it, a
    config error reported as a failed identity."""
    for bad in ("p:3", None, 3):
        with pytest.raises(TypeError, match="not a Field"):
            H.SamplerConfig(bad, 42, 2)


def test_config_caps_trials():
    assert small_cfg(trials=H.MAX_TRIALS).trials == H.MAX_TRIALS
    with pytest.raises(ValueError, match=f"trials must be at most {H.MAX_TRIALS}"):
        small_cfg(trials=H.MAX_TRIALS + 1)


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
            assert g1 in sl2.SL2SubgroupSpec("kerpi", n)
        if sampler is H.sample_aff_hn:
            assert g1 in affine.AffSubgroupSpec("hn", n)
        if sampler is H.sample_aff_vform:
            assert g1 in affine.AffSubgroupSpec("hn", n)
            assert g1 in affine.AffSubgroupSpec("vform", n)


def _drawn(name, *args):
    """Twelve draws of the sampler name at args."""
    sampler = getattr(H, name)
    return lambda cfg: [sampler(cfg.rng(f"{name}:{i}"), cfg, *args) for i in range(12)]


# What each element sampler, and conj_generator_list, returns: its target
# grammar and a function from a config to (expression, element) pairs, keyed
# by its name, or by name:level for a further level drawn.
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
    # the conjugates' scaling ϖ^⟨β, ±nλ⟩ depends on n
    "sample_aff_vform:2": (exprs.AFFINE, _drawn("sample_aff_vform", 2)),
    "conj_generator_list": (exprs.AFFINE, lambda cfg: H.conj_generator_list(cfg.field)),
}


def test_replay_covers_every_element_sampler():
    scalar_samplers = {"sample_unit", "sample_scalar", "sample_scalar_min_val"}
    samplers = {name for name in vars(H) if name.startswith("sample_")}
    replayed = {name.partition(":")[0] for name in REPLAYED}
    assert samplers - scalar_samplers == replayed - {"conj_generator_list"}


@pytest.mark.parametrize("name", sorted(REPLAYED))
@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_sample_expressions_replay(field, name):
    # a sampled node's text parses back to the node, a lone generator as a
    # one-factor product, and rebuilds the sampled element, or point, exactly:
    # field by field, since a TreePoint's == is the coarser tree_point_equal
    target, draws = REPLAYED[name]
    for node, g in draws(small_cfg(field=field)):
        text = str(node)
        assert text == exprs.print_expr(node)
        parsed, rebuilt = exprs.parse_element(text, target, field)
        assert parsed == (node if isinstance(node, (exprs.Product, exprs.Point))
                          else exprs.Product((node,))), text
        assert type(rebuilt) is type(g) and rebuilt._values() == g._values(), text


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
        point = sl2.TreePoint(p, 0)
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
            q = sl2.TreePoint(sl2.x_plus(c0), y2)
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
    points = [sl2.TreePoint(sl2.x_minus(pi), 1),         # the suite's closed cases
              sl2.apartment_point(field, Fraction(1, 4)),
              sl2.apartment_point(field, -2)]
    points += [H.sample_tree_point(cfg.rng(f"retract:{i}"), cfg)[1] for i in range(100)]
    # y = k/3 and k/4: the scan's interval ends are then not half-integers
    for den in (3, 4):
        for i in range(40):
            rng = cfg.rng(f"retract:{den}:{i}")
            g = H.sample_sl2_generic(rng, cfg)[1]
            points.append(sl2.TreePoint(g, Fraction(rng.randint(-6 * den, 6 * den), den)))
    found = [H._retract_oracle(p) for p in points]
    assert found == [_per_candidate_retract_oracle(p) for p in points]
    # off the half-integers, some scans find one candidate and some none
    assert {y is None for y in found[-80:]} == {True, False}


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
        if all(g * H.sample_aff_hn(rng, cfg, m)[1] * g_inv in spec
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
                assert h in affine.AffSubgroupSpec("hn", m)
                assert g * h * g_inv in spec, (expr, n, str(h))


def _conj_bound_without_2a(bound):
    def mutant(g, n):
        a = max(0, -min(c.valuation() for e in g.m.entries() for c in e.coeffs.values()))
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
    node, g = H.sample_aff_hn(cfg.rng("hn:1:0"), cfg, 1)
    failure = H.Failure(0, str(node), "x", "y")
    report = H.SuiteReport("demo", 1, (failure,), 0.0, "")
    assert report.verdict == "fail"
    payload = report.as_dict()
    _, rebuilt = exprs.parse_element(payload["failures"][0]["inputs"],
                                     exprs.AFFINE, F3)
    assert rebuilt.m == g.m


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_hn_closure_fails_under_an_inverse_that_substitutes_z(monkeypatch, field):
    """An inverse that substitutes u ← z·u for u ← z⁻¹·u keeps g⁻¹ in H_n,
    so only g·g⁻¹ = 1 sees it: 5 of the 20 trials have g·g⁻¹ ≠ 1."""
    def inverse(g):
        return affine.AffElt._trusted(affine._subst(g.m.inverse(), g.z), g.z.inv())

    cfg = small_cfg(trials=20, field=field)
    assert H.run_suite("hn-closure", cfg).verdict == "pass"
    monkeypatch.setattr(affine.AffElt, "inverse", inverse)
    report = H.run_suite("hn-closure", cfg)
    assert report.verdict == "fail" and report.trials == 20 and len(report.failures) == 5
    assert {(f.expected, f.got) for f in report.failures} == {("g·g⁻¹ = 1", "g·g⁻¹ ≠ 1")}


def test_h2n_in_v_failure_prints_the_valuation(monkeypatch):
    """A failed shifted bound reads "(r,c) u^k: ω = v < bound", as every
    failed valuation bound does: xp(0; 1) drawn as an H_2n element has its
    u^0 coefficient scaled by ϖ^2n, below the bound 2n + 2n."""
    cfg = small_cfg(trials=2)
    monkeypatch.setattr(H, "sample_aff_hn", lambda rng, cfg, n: H._made(
        exprs.Gen("xp", (0, cfg.field.one())), exprs.AFFINE, cfg.field))
    report = H.run_suite("h2n-in-v", cfg)
    assert [(f.inputs, f.got) for f in report.failures] == [
        ("n=1: xp(0; 1)", "(1,2) u^0: ω = 2 < 4"), ("n=2: xp(0; 1)", "(1,2) u^0: ω = 4 < 8")]


def test_hausdorff_checks_that_the_escape_level_is_tight(monkeypatch):
    """An H_n predicate that says false for every level passes the escape
    side; the tightness side, g ∈ H_{n_escape − 1} for n_escape ≥ 2, fails."""
    monkeypatch.setattr(affine.AffSubgroupSpec, "__contains__", lambda spec, g: False)
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
@pytest.mark.parametrize("level", [3, 5])
def test_rank1_refinement_census_pins_vlambda_torus(monkeypatch, field, level):
    """vlambda:n with its torus in T_3n is closed too, so only the census
    after the last trial sees VLAMBDA_TORUS = 3: diag(1+ϖ^(4n−1)) gets in.
    At 5, diag(1+ϖ^4n) stays out."""
    report = H.run_suite("rank1-refinement", small_cfg(trials=20, field=field))
    assert report.verdict == "pass" and report.trials == 20
    monkeypatch.setattr(sl2, "VLAMBDA_TORUS", level)
    report = H.run_suite("rank1-refinement", small_cfg(trials=20, field=field))
    assert report.verdict == "fail" and report.trials == 20
    census = report.failures[-1]
    assert census.trial == 20 and census.inputs == "vlambda census"
    pi = field.uniformizer()
    expect = ("{} in vlambda:1; {} in vlambda:2" if level == 3
              else "{} not in vlambda:1; {} not in vlambda:2")
    shift = 1 if level == 3 else 0
    assert census.got == expect.format(*(f"diag({1 + pi ** (4 * n - shift)})" for n in (1, 2)))
    if level == 3:
        assert len(report.failures) == 1


def _inverse_swapping_the_diagonal(g):
    return sl2.SL2Elt._trusted(g.d, g.b, g.c, g.a)


def _inverse_transposing_the_adjugate(g):
    return sl2.SL2Elt._trusted(g.d, -g.c, -g.b, g.a)


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("inverse", [_inverse_swapping_the_diagonal,
                                     _inverse_transposing_the_adjugate], ids=["swap", "transpose"])
def test_a_wrong_sl2_inverse_fails_both_groups(monkeypatch, field, inverse):
    """AffElt.inverse runs through SL2Elt.inverse, so one wrong SL2 inverse
    fails the SL2 suite rank1-refinement in every trial (g·g⁻¹ ≠ 1) and the
    affine suites hn-closure and conj-invariance too."""
    cfg = small_cfg(trials=20, field=field)
    suites = ("rank1-refinement", "hn-closure", "conj-invariance")
    assert [r.verdict for r in H.run_suites(suites, cfg)] == ["pass"] * 3
    monkeypatch.setattr(sl2.SL2Elt, "inverse", inverse)
    failed = {r.suite: (r.verdict, r.trials, len(r.failures)) for r in H.run_suites(suites, cfg)}
    hn_failures = 18 if field is F3 else 19
    assert failed == {"rank1-refinement": ("fail", 20, 20), "hn-closure": ("fail", 20, hn_failures),
                      "conj-invariance": ("fail", 24, 18)}


# Wrong H_n bounds at u^k, each with the suite that fails on it at seed 42,
# trials 20: n·|k| keeps s1, whose u^0 coefficients have ω = 0, in every H_n
# (hausdorff), and one less than n·max(1, |k|) at |k| ≥ 2 keeps the
# conjugates of conj-invariance's witnesses, which reach u^±2, inside H_n.
HN_MUTANTS = {
    "n-abs-k": (lambda n, k: n * abs(k), "hausdorff"),
    "one-low-from-abs-k-2": (lambda n, k: n * max(1, abs(k)) - (abs(k) >= 2), "conj-invariance"),
}


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("mutant", sorted(HN_MUTANTS))
def test_a_wrong_hn_bound_fails_the_verdict(monkeypatch, field, mutant):
    """verify --suite all fails when the hn row of AffSubgroupSpec.KINDS has a
    wrong coefficient bound: every suite that asks H_n reads that row."""
    bound, killer = HN_MUTANTS[mutant]
    monkeypatch.setitem(affine.AffSubgroupSpec.KINDS, "hn", (sl2.LEVEL, lambda g, n: (
        affine._congruence(g, n, lambda r, c, k: bound(n, k)))))
    reports = H.run_suites(H.all_suite_names(), small_cfg(trials=20, field=field))
    assert killer in {r.suite for r in reports if r.verdict == "fail"}


# An hn row with no bound on the entries (1,2) and (2,1) at u^0 passes the
# whole verdict at trials 20.  Only hausdorff's escape level sees it: at
# seed 42, trials 100, it fails in these trials.
HN_OFF_DIAGONAL_U0_KILLS = {
    "p:3": [(27, "xm(0; -9)", "escape by n = 3"),
            (85, "xm(0; -1/5) xp(2; 216) torus(5/2; 1)", "escape by n = 1")],
    "fq:3": [(27, "xm(0; t^2+t^3)", "escape by n = 3")],
}


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_an_hn_skipping_the_off_diagonal_at_u0_fails_only_hausdorff(monkeypatch, field):
    cfg = small_cfg(trials=100, field=field)
    assert H.run_suite("hausdorff", cfg).verdict == "pass"
    hn = affine.AffSubgroupSpec.KINDS["hn"][1]
    monkeypatch.setitem(affine.AffSubgroupSpec.KINDS, "hn", (sl2.LEVEL, lambda g, n: (
        affine._congruence(g, n, lambda r, c, k: -INFINITY if r != c and k == 0
                           else n * max(1, abs(k))))))
    xm = affine.aff_x_minus(field, 0, field.one())     # entry (2,1) at u^0 has ω = 0
    assert hn(xm, 1) and not affine.AffSubgroupSpec.KINDS["hn"][1](xm, 1)
    reports = H.run_suites(H.all_suite_names(), small_cfg(trials=20, field=field))
    assert [r.suite for r in reports if r.verdict != "pass"] == []
    report = H.run_suite("hausdorff", cfg)
    assert report.verdict == "fail"
    assert [(f.trial, f.inputs, f.expected, f.got) for f in report.failures] == [
        (*kill, "still inside") for kill in HN_OFF_DIAGONAL_U0_KILLS[field.spec_string()]]


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_center_separation_census_pins_the_test_point_level(monkeypatch, field):
    """A fix_level one too high lets torus(1; 1+ϖ) into tnphi:2: the census
    after center-separation's trials fails; (−I, 1) alone fixes every level
    and cannot tell."""
    report = H.run_suite("center-separation", small_cfg(trials=2, field=field))
    assert report.verdict == "pass" and report.trials == 22
    level = affine.fix_level
    monkeypatch.setattr(affine, "fix_level", lambda g, i: level(g, i) + 1)
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
    monkeypatch.setattr(affine, "_center", lambda g: [])
    report = H.run_suite("center-separation", small_cfg(trials=2, field=field))
    assert report.verdict == "fail" and report.trials == 22
    [census] = report.failures
    assert census.inputs == "tnphi and center census"
    pi, one_plus_pi = ("3", "4") if field is F3 else ("t", "1+t")
    assert census.got == (f"torus({pi}; 1) in center; torus({pi}; 1) in centero; "
                          f"torus(1; {one_plus_pi}) in center; torus(1; {one_plus_pi}) in centero")


def _diag_inverted(f):
    z = f.field.zero()
    return sl2.SL2Elt(f.inv(), z, z, f)


def _upt_reordered(b, c, delta):
    return sl2.x_minus(c) * sl2.x_plus(b) * sl2.diag_torus(delta)


def _hn_constant_at(level, member):
    """The hn row of AffSubgroupSpec.KINDS with H_level holding every element,
    or none."""
    kind, predicate = affine.AffSubgroupSpec.KINDS["hn"]
    return kind, lambda g, n: predicate(g, n) if n != level else [] if member else ["planted"]


def _census_got(got):
    census = ("coset census", ">= 10 distinct H_2-cosets", got)
    return lambda f: (f.inputs, f.expected, f.got) == census


# A planted fault for each suite whose failure branch no other test takes:
# (suite, fault, failures at seed 42, trials 20 on p:3 and on fq:3, and a
# test that a failure is worded as the suite words it).
SUITE_FAULTS = {
    "commutation/diag-inverted": (
        "commutation", lambda mp: mp.setattr(sl2, "diag_torus", _diag_inverted), (18, 18),
        lambda f: f.inputs.startswith("a=") and f.got.startswith("form1=") and ", form2=" in f.got),
    "uut-uniqueness/x_minus-first": (
        "uut-uniqueness", lambda mp: mp.setattr(sl2, "compose_upt", _upt_reordered), (19, 17),
        lambda f: f.expected == "({})".format(
            f.inputs.replace("b=", "", 1).replace(", c=", ", ").replace(", δ=", ", "))),
    "kerpi-sl2/product-always-true": (
        "kerpi-sl2", lambda mp: mp.setattr(sl2, "kerpi_product_member", lambda g, n: True),
        (28, 28), lambda f: (f.expected, f.got) == ("congruence == product-form",
                                                    "congruence=False, product=True")),
    "fix-criterion/points-always-equal": (
        "fix-criterion", lambda mp: mp.setattr(sl2, "tree_point_equal", lambda p, q: True),
        (30, 49), lambda f: (f.expected, f.got) == ("criterion=False", "geometric=True")),
    "coset-count/h2-holds-all": (
        "coset-count", lambda mp: mp.setitem(affine.AffSubgroupSpec.KINDS, "hn",
                                             _hn_constant_at(2, True)),
        (1, 1), _census_got("1")),
    "coset-count/h1-holds-none": (
        "coset-count", lambda mp: mp.setitem(affine.AffSubgroupSpec.KINDS, "hn",
                                             _hn_constant_at(1, False)),
        (14, 14), lambda f: (f.expected, f.got) == ("in H_1", "outside") or _census_got("0")(f)),
}


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("fault", sorted(SUITE_FAULTS))
def test_a_planted_fault_fails_its_suite(monkeypatch, field, fault):
    """Each suite passes, then fails under its planted fault with its own
    wording: these are the failure branches no other test reaches."""
    suite, plant, counts, worded = SUITE_FAULTS[fault]
    cfg = small_cfg(trials=20, field=field)
    assert H.run_suite(suite, cfg).verdict == "pass"
    plant(monkeypatch)
    report = H.run_suite(suite, cfg)
    assert report.verdict == "fail"
    assert len(report.failures) == counts[field is not F3]
    assert all(worded(f) for f in report.failures), report.failures[:2]


# Decision coverage of the verdict: the (group, kind, answer) triples that no
# subgroup predicate gives during `verify --suite all` at seed 42, trials 20,
# on p:3 and fq:3 alike.  A predicate replaced by the constant it never gives
# passes the verdict there: a kind never asked survives both constants, and
# one never seen answering "member" survives "never a member".  A change that
# closes a gap deletes its row; one that opens a gap fails the test.
DECISION_GAPS = {
    *((group, kind, answer) for group, kind in (("SL2", "tn"), ("SL2", "tnunits"),
                                                ("SL2", "fixpoint"), ("SL2", "bigcello"),
                                                ("affine", "tn"))
      for answer in ("member", "non-member")),
    ("affine", "kerpi", "member"),
    ("affine", "center", "member"),
}


def _answer_counting(spec_cls, kind, seen, monkeypatch):
    """Wrap the KINDS row of kind so that each call adds its answer to seen;
    a predicate that raises (NotTorus) answers "non-member"."""
    arg_kind, predicate = spec_cls.KINDS[kind]

    def counted(g, arg):
        answer = "non-member"
        try:
            violations = predicate(g, arg)
            if not violations:
                answer = "member"
            return violations
        finally:
            seen.add((spec_cls.GROUP, kind, answer))

    monkeypatch.setitem(spec_cls.KINDS, kind, (arg_kind, counted))


@pytest.mark.parametrize("field", [F3, RationalFunctionField(3)], ids=["p:3", "fq:3"])
def test_decision_coverage_gaps_of_the_verdict(monkeypatch, field):
    seen = set()
    every = set()
    for spec_cls in (sl2.SL2SubgroupSpec, affine.AffSubgroupSpec):
        for kind in list(spec_cls.KINDS):
            _answer_counting(spec_cls, kind, seen, monkeypatch)
            every |= {(spec_cls.GROUP, kind, "member"), (spec_cls.GROUP, kind, "non-member")}
    reports = H.run_suites(H.all_suite_names(), small_cfg(trials=20, field=field))
    assert all(r.verdict == "pass" for r in reports)
    assert every - seen == DECISION_GAPS
