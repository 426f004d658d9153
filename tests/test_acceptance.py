"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison is tolerance zero.  Each test
prints a PASS line with its elapsed time (visible under pytest -s); stated
runtime budgets are asserted with a generous hardware margin (4x).
"""

import time
from fractions import Fraction

import pytest

from kmtop import affine, harness as H, roots, sl2
from kmtop.valued import PAdicField, RationalFunctionField

P3 = PAdicField(3)
F2T = RationalFunctionField(2)


def _cfg(trials, field=P3):
    return H.SamplerConfig(field, 42, trials)


def _run(name, cfg):
    report = H.run_suite(name, cfg)
    assert report.verdict == "pass", \
        f"{name}: {[f.as_dict() for f in report.failures[:3]]}"
    return report


def _done(label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < 4 * budget, f"{label}: {elapsed:.1f}s over budget {budget}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_01_commutation_both_fields():
    t0 = time.perf_counter()
    _run("commutation", _cfg(1000, P3))
    _run("commutation", _cfg(1000, F2T))
    _done("1 commutation (p:3 and fq:2, 1000 trials each)", t0, 5)


def test_02_uut_uniqueness():
    t0 = time.perf_counter()
    report = _run("uut-uniqueness", _cfg(1000))
    assert report.trials == 1000
    _done("2 uut-uniqueness (1000 round-trips)", t0, 5)


def test_03_kerpi_sl2():
    t0 = time.perf_counter()
    report = _run("kerpi-sl2", _cfg(1000))       # 500 per direction per n
    assert report.trials == 3000
    _done("3 kerpi-sl2 (n=1,2,3; 500 per direction)", t0, 10)


def test_04_hn_closure():
    t0 = time.perf_counter()
    report = _run("hn-closure", _cfg(2000))      # 1000 products+inverses per n
    assert report.trials == 2000
    _done("4 hn-closure (n=1,2; 1000 each)", t0, 20)


def test_05_v_in_h():
    t0 = time.perf_counter()
    report = _run("v-in-h", _cfg(500))
    assert report.trials == 1000                 # 500 per n for n=1,2
    _done("5 v-in-h (500 samples, n=1,2)", t0, 20)


def test_06_conj_invariance():
    t0 = time.perf_counter()
    report = _run("conj-invariance", _cfg(200))
    assert report.trials == 24                   # 12 generators x n=1,2
    _done("6 conj-invariance (12 generators, m = affine.conj_bound, 200 samples)", t0, 60)


def test_07_center_separation():
    t0 = time.perf_counter()
    minus_i = affine.aff_torus(-P3.one(), P3.one())
    assert minus_i in affine.AffSubgroupSpec("centero")
    for i in (0, 1):
        assert affine.fix_level(minus_i, i) >= 10
    assert minus_i not in affine.AffSubgroupSpec("kerpi", 1)
    _run("center-separation", _cfg(10))
    _done("7 center-separation witness (-I, 1) at p=3", t0, 1)


def test_08_coset_count():
    t0 = time.perf_counter()
    _run("coset-count", _cfg(10))
    # the explicit elements: distinct cosets are collected by the suite;
    # recount here independently
    reps = []
    spec2 = affine.AffSubgroupSpec("hn", 2)
    for k in range(-3, 4):
        for j in range(max(1, abs(k)), 2 * max(1, abs(k))):
            g = affine.aff_x_minus(P3, k, P3.pi_power(j))
            assert g in affine.AffSubgroupSpec("hn", 1)
            if all(r.inverse() * g not in spec2 for r in reps):
                reps.append(g)
    assert len(reps) >= 10
    _done(f"8 coset-count ({len(reps)} distinct H_2-cosets in H_1)", t0, 5)


def test_09_tree_retraction():
    t0 = time.perf_counter()
    report = _run("tree-retraction", _cfg(500))
    assert report.trials == 503                  # 500 random + 3 closed cases
    assert sl2.tree_retract(sl2.TreePoint(sl2.x_minus(P3.uniformizer()), 1)) == 0
    for y in (Fraction(-7, 2), Fraction(0), Fraction(9, 4)):
        assert sl2.tree_retract(sl2.apartment_point(P3, y)) == y
    _done("9 tree-retraction (500 points vs candidate-scan oracle)", t0, 10)


def test_10_fix_criterion():
    t0 = time.perf_counter()
    report = _run("fix-criterion", _cfg(500))
    assert report.trials == 2000                 # 500 tori x n=1..4
    _done("10 fix-criterion (500 tori, n <= 4)", t0, 10)


def test_11_root_enumeration():
    t0 = time.perf_counter()
    aff = roots.AFFINE_SL2
    found = roots.real_roots_up_to_height(aff, 9)
    closed = set()
    for k in range(0, 5):
        closed.add((k, k + 1))                   # å + kδ, ht 2k+1 <= 9
        closed.add((-k, -k - 1))
    for k in range(1, 6):
        closed.add((k, k - 1))                   # -å + kδ, ht 2k-1 <= 9
        closed.add((-k, -(k - 1)))
    assert found == frozenset(closed)
    for h in range(1, 10):
        positives = sum(1 for b in roots.real_roots_up_to_height(aff, h)
                        if any(x > 0 for x in b) and all(x >= 0 for x in b))
        assert positives == 2 * ((h + 1) // 2)   # 2·⌈h/2⌉ per window
    assert roots.real_roots_up_to_height(roots.A1, 9) == \
        frozenset({(1,), (-1,)})
    _done("11 root enumeration (height 9 closed form; A1)", t0, 1)


def test_12_kp_witness():
    t0 = time.perf_counter()
    assert affine.kp_witness(1, 10)[1] == 2
    assert affine.kp_witness(2, 10)[1] == 3
    heights = [h for _, h in affine.kp_witness(1, 6)[0]]
    assert heights == [1, 3, 5, 7, 9, 11]
    _done("12 kp-witness (indices 2 and 3)", t0, 1)
