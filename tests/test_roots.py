import json
import random
from fractions import Fraction

import pytest

from kmtop import roots as R

AFF = R.AFFINE_SL2
A1 = R.A1


def test_validate_km():
    assert R.validate_km([[2]]) == ((2,),)
    assert R.validate_km([[2, -2], [-2, 2]]) == ((2, -2), (-2, 2))
    with pytest.raises(R.NotGCM) as err:
        R.validate_km([[2, -1], [0, 2]])
    assert err.value.axiom == "iii"
    assert err.value.position == (0, 1)
    with pytest.raises(R.NotGCM) as err:
        R.validate_km([[1]])
    assert err.value.axiom == "i"
    with pytest.raises(R.NotGCM) as err:
        R.validate_km([[2, 1], [1, 2]])
    assert err.value.axiom == "ii"


def test_pairing_examples():
    lam = AFF.apartment_vec((1, 3))          # å∨ + 3d
    assert R.eval_pairing(AFF.simple_roots[0], lam) == 1
    assert R.eval_pairing(AFF.simple_roots[1], lam) == 2
    # δ(å∨) = 0
    assert R.eval_pairing((0, 1), AFF.apartment_vec((1, 0))) == 0


def test_reflect_examples():
    acheck = A1.apartment_vec((1,))
    assert R.reflect(A1, 0, acheck) == (-1,)
    assert R.co_reflect(AFF, 1, (1, 0)) == (1, 2)    # r1.α0 = α0 + 2α1
    rng = random.Random(3)
    for _ in range(50):
        v = AFF.apartment_vec((Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
        i = rng.randint(0, 1)
        assert R.reflect(AFF, i, R.reflect(AFF, i, v)) == v


def test_real_roots_small_windows():
    assert R.real_roots_up_to_height(A1, 5) == frozenset({(1,), (-1,)})
    positives = {b for b in R.real_roots_up_to_height(AFF, 3)
                 if any(x > 0 for x in b) and all(x >= 0 for x in b)}
    assert positives == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert (1, 1) not in R.real_roots_up_to_height(AFF, 9)   # δ is imaginary


def _closed_form_affine(max_height):
    """Oracle: Φ = {±å + kδ}; in (α0, α1)-coordinates å+kδ = (k, k+1)."""
    out = set()
    k = 0
    while 2 * k + 1 <= max_height:
        out.add((k, k + 1))
        out.add((-k, -k - 1))
        k += 1
    k = 1
    while 2 * k - 1 <= max_height:
        out.add((k, k - 1))
        out.add((-k, -(k - 1)))
        k += 1
    return frozenset(out)


@pytest.mark.parametrize("h", [1, 2, 3, 5, 9, 12])
def test_real_roots_match_closed_form(h):
    assert R.real_roots_up_to_height(AFF, h) == _closed_form_affine(h)


def test_root_set_invariants():
    found = R.real_roots_up_to_height(AFF, 9)
    for beta in found:
        assert all(x >= 0 for x in beta) or all(x <= 0 for x in beta)
        assert tuple(-x for x in beta) in found
        # Rα ∩ Φ = {±α}: no nontrivial multiples
        for m in (2, 3):
            assert tuple(m * x for x in beta) not in found
    # co_reflect preserves the set on symmetric windows (images inside window)
    for beta in found:
        for i in range(len(AFF.matrix)):
            img = R.co_reflect(AFF, i, beta)
            if abs(R.height(img)) <= 9:
                assert img in found


def test_height():
    assert R.height((1, 2)) == 3
    assert R.height((-1, 0)) == -1
    assert R.height((0, 0)) == 0


def test_tits_classify():
    lam = (1, 3)
    cls = R.tits_classify(AFF, lam, 10)
    assert cls is not None and cls.word == () and cls.zero_set == frozenset()
    # δ(v) < 0 is outside the cone at any bound
    assert R.tits_classify(AFF, (0, -1), 500) is None
    assert R.tits_classify(AFF, (5, -1), 500) is None
    # -å∨ sits on δ = 0 outside ±T: the descent cycles r1, r0 forever
    assert R.tits_classify(AFF, (-1, 0), 500) is None
    # boundary: d has α1(d) = 0 and α0(d) = 1, so the wall set is {1}
    cls = R.tits_classify(AFF, (0, 1), 10)
    assert cls is not None and cls.zero_set == frozenset({1})
    cls = R.tits_classify(AFF, (0, 0), 10)
    assert cls.zero_set == frozenset({0, 1})
    # the budget is exact: (-10, 1) needs 20 reflections
    assert len(R.tits_classify(AFF, (-10, 1), 20).word) == 20
    assert R.tits_classify(AFF, (-10, 1), 19) is None


def _act(word, v):
    """w·v for w = r_{word[0]} r_{word[1]} ...: the last letter acts first."""
    for i in reversed(word):
        v = R.reflect(AFF, i, v)
    return v


def test_tits_classify_roundtrip():
    rng = random.Random(11)
    for _ in range(60):
        word = [rng.randint(0, 1) for _ in range(rng.randint(0, 8))]
        inside = AFF.apartment_vec((rng.randint(1, 3), rng.randint(7, 12)))
        v = _act(word, inside)
        cls = R.tits_classify(AFF, v, 200)
        assert cls is not None
        back = _act(cls.word[::-1], v)      # w^{-1}·v
        vals = [R.eval_pairing(a, back) for a in AFF.simple_roots]
        assert all(val > 0 for i, val in enumerate(vals) if i not in cls.zero_set)
        assert all(vals[i] == 0 for i in cls.zero_set)
        assert _act(cls.word, back) == tuple(v)


def test_fixture_roundtrip(tmp_path):
    data = {
        "cartan": [[2, -2], [-2, 2]],
        "rank": 2,
        "simple_roots": [[-2, 1], [2, 0]],
        "simple_coroots": [[-1, 0], [1, 0]],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    loaded = R.load_system(str(path))
    assert loaded == AFF
    assert R.load_system("a1") == A1
    with pytest.raises(ValueError):
        R.system_from_fixture({**data, "simple_coroots": [[1, 0], [1, 0]]})
    with pytest.raises(ValueError, match="missing field"):
        R.system_from_fixture({"cartan": [[2]], "rank": 1})
    with pytest.raises(ValueError, match="malformed fixture"):
        R.system_from_fixture({**data, "rank": None})


def test_builtin_systems_are_the_checked_constants():
    """--system a1 and affine-sl2 are the constants, built and checked once."""
    assert R.load_system("a1") is R.A1 and R.load_system("affine-sl2") is R.AFFINE_SL2
    assert R.A1.matrix == ((2,),) and AFF.simple_roots == ((-2, 1), (2, 0))


def test_fixture_numbers_are_integers():
    """int() took 2.7 as 2, "2" as 2 and True as 1; a fixture's numbers are
    ints, and an apartment vector is exact, so each of these is refused."""
    data = {"cartan": [[2, -2], [-2, 2]], "rank": 2,
            "simple_roots": [[-2, 1], [2, 0]], "simple_coroots": [[-1, 0], [1, 0]]}
    for bad in (2.7, 2.0, "2", True, float("inf")):
        with pytest.raises(TypeError, match="not an integer"):
            R.validate_km([[bad]])
        for field, value in (("cartan", [[bad, -2], [-2, 2]]), ("rank", bad),
                             ("simple_roots", [[-2, 1], [bad, 0]]),
                             ("simple_coroots", [[-1, 0], [1, bad]])):
            with pytest.raises(ValueError, match="malformed fixture: not an integer"):
                R.system_from_fixture({**data, field: value})
    assert R.system_from_fixture(data) == AFF
    for bad in ((0.1, 1), (True, 1), ("1", 1)):
        with pytest.raises(TypeError, match="not an exact rational"):
            AFF.apartment_vec(bad)
    assert AFF.apartment_vec((Fraction(1, 3), 1)) == (Fraction(1, 3), Fraction(1))


def test_system_checks_its_vectors_at_construction():
    """Counts and lengths are checked before the pairings, so a bad shape is
    a ValueError naming it, never an IndexError or a truncated pairing."""
    km = AFF.matrix
    with pytest.raises(ValueError, match="3 simple roots and 2 coroots for a 2x2"):
        R.RootGenSys(km, 2, AFF.simple_roots + ((0, 0),), AFF.simple_coroots)
    with pytest.raises(ValueError, match="1 simple roots and 1 coroots"):
        R.RootGenSys(km, 2, AFF.simple_roots[:1], AFF.simple_coroots[:1])
    with pytest.raises(ValueError, match="rank = 2 entries"):
        R.RootGenSys(km, 2, ((-2, 1, 0), (2,)), AFF.simple_coroots)
    with pytest.raises(ValueError, match="rank = 2 entries"):
        R.RootGenSys(km, 2, AFF.simple_roots, ((-1, 0), (1, 0, 0)))
