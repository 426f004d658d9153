import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fq_scalars import fq_ratio
from kmtop import affine, sl2
from kmtop import exprs as E
from kmtop.valued import PAdicField, RationalFunctionField, check_digits

F3 = PAdicField(3)
F2T = RationalFunctionField(2)
FQ3 = RationalFunctionField(3)


def test_affine_example():
    _, elt = E.parse_element("xp(1; 1/3) t(1,0)", E.AFFINE, F3)
    assert elt.z.is_one()
    assert elt.m.a.coeffs == {0: F3.scalar(Fraction(1, 3))}
    assert elt.m.b.coeffs == {1: F3.one()}


def test_validation_errors():
    with pytest.raises(E.ValidationError):
        E.parse_element("diag(0)", E.SL2, F3)
    with pytest.raises(E.ValidationError):
        E.parse_element("torus(1; 0)", E.AFFINE, F3)
    with pytest.raises(E.ValidationError):
        E.parse_element("xp(1/t)", E.SL2, F3)   # t only in fq fields


def test_syntax_error_has_position():
    with pytest.raises(E.ExprSyntaxError) as err:
        E.parse_element("point(xm(3/1", E.TREEPOINT, F3)
    assert err.value.position == 12
    with pytest.raises(E.ExprSyntaxError) as err:
        E.parse_element("xp(1; 2) blah", E.AFFINE, F3)
    assert err.value.expected.startswith("one of")
    # integers are ASCII 0-9: other Unicode digits are no token
    for digit in "²٣":
        with pytest.raises(E.ExprSyntaxError) as err:
            E.parse_element(f"xp({digit})", E.SL2, F3)
        assert err.value.position == 3


def _tokenize_by_loop(src: str):
    """The character loop exprs._tokenize replaced, kept as its oracle."""
    toks = []  # (kind, value, pos)
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in E._PUNCT:
            toks.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":       # ASCII only: str.isdigit also takes ² and ٣
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            toks.append(("int", int(check_digits(src[i:j])), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("name", src[i:j], i))
            i = j
            continue
        raise E.ExprSyntaxError(i, f"a token (got {ch!r})")
    toks.append(("end", None, len(src)))
    return toks


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except E.ExprSyntaxError as err:
        return "syntax", err.position, err.expected
    except ValueError as err:
        return "value", str(err)


# Characters at the edges of the token classes: punctuation and ASCII
# digits; spaces str.isspace() takes; letters past ASCII; word characters
# that are no letter (_, ², ½, ٣, Ⅻ, 𝟘); a combining mark, other
# punctuation, NUL and an astral emoji.
_EDGE_CHARS = (E._PUNCT + "0123456789" + "\x0b\x1c\u00a0\u2003\u3000" + "éßΩǅ"
               + "_²½٣Ⅻ𝟘" + "\u0301!.\x00\U0001f600")


@settings(deadline=None, max_examples=400, derandomize=True)
@given(st.text(st.one_of(st.sampled_from(_EDGE_CHARS), st.characters()), max_size=24))
@example("xp(" + "7" * 5000 + ")")
def test_tokenize_matches_the_character_loop(src):
    assert _tokens_or_error(E._tokenize, src) == _tokens_or_error(_tokenize_by_loop, src)


def test_re_space_and_word_are_the_str_predicates():
    """The tokenizer's \\s and \\w classes, on every code point."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [ch for ch in chars if ch.isspace()]
    assert re.findall(r"\w", chars) == [ch for ch in chars if ch.isalnum() or ch == "_"]


def test_scalar_grammar():
    _, g = E.parse_element("xp((1+t^2)/t)", E.SL2, F2T)
    t = F2T.uniformizer()
    assert g.b == (F2T.one() + t * t) / t
    _, g = E.parse_element("xp(-3/2 + 2^-1)", E.SL2, F3)
    assert g.b == F3.scalar(Fraction(-1))
    _, g = E.parse_element("diag(t^-2)", E.SL2, F2T)
    assert g.a == t ** -2


def test_tree_point_parse():
    _, p = E.parse_element("point(xm(3) w, -1/2)", E.TREEPOINT, F3)
    assert p.y == Fraction(-1, 2)
    assert p.g == sl2.x_minus(F3, F3.uniformizer()) * sl2.weyl_w(F3)


def test_parse_auto_targets():
    assert E.parse_auto("xp(1/3)", F3)[0] == E.SL2
    assert E.parse_auto("xp(1; 1/3)", F3)[0] == E.AFFINE
    assert E.parse_auto("s1 s1", F3)[0] == E.AFFINE
    assert E.parse_auto("diag(2) w", F3)[0] == E.SL2
    assert E.parse_auto("point(w, 2)", F3)[0] == E.TREEPOINT
    with pytest.raises(E.ExprSyntaxError):
        E.parse_auto("frob(1)", F3)


def _random_scalar_ast(rng, field):
    if isinstance(field, PAdicField):
        return field.scalar(Fraction(rng.randint(-30, 30),
                                     rng.choice([1, 2, 5, 9])))
    num = [rng.randrange(field.char) for _ in range(rng.randint(1, 3))]
    if not any(num):
        num = [1]
    den = [1] if rng.random() < 0.5 else [1, 1]
    return fq_ratio(field, num, den) * field.pi_power(rng.randint(-2, 2))


def _random_gen(rng, field, target):
    if target == E.SL2:
        kind = rng.choice(["xp", "xm", "diag", "w"])
        if kind == "w":
            return E.Gen("w", ())
        s = _random_scalar_ast(rng, field)
        if kind == "diag" and s.is_zero():
            s = field.one()
        return E.Gen(kind, (s,))
    kind = rng.choice(["xp", "xm", "t", "torus", "s0", "s1"])
    if kind in ("s0", "s1"):
        return E.Gen(kind, ())
    if kind == "t":
        return E.Gen("t", (rng.randint(-3, 3), rng.randint(-3, 3)))
    if kind == "torus":
        f = _random_scalar_ast(rng, field)
        z = _random_scalar_ast(rng, field)
        return E.Gen("torus", (f if not f.is_zero() else field.one(),
                               z if not z.is_zero() else field.one()))
    return E.Gen(kind, (rng.randint(-3, 3), _random_scalar_ast(rng, field)))


@pytest.mark.parametrize("field,target", [
    (F3, E.SL2), (F3, E.AFFINE), (F2T, E.SL2), (F2T, E.AFFINE)],
    ids=["p3-sl2", "p3-aff", "f2t-sl2", "f2t-aff"])
def test_roundtrip_random(field, target):
    rng = random.Random(f"{field.spec_string()}:{target}")
    for _ in range(125):
        ast = E.Product(tuple(_random_gen(rng, field, target)
                              for _ in range(rng.randint(1, 4))))
        printed = E.print_expr(ast)
        reparsed, _ = E.parse_element(printed, target, field)
        assert reparsed == ast, printed


def test_roundtrip_points():
    rng = random.Random(99)
    for _ in range(60):
        ast = E.Point(E.Product(tuple(_random_gen(rng, F3, E.SL2)
                                      for _ in range(rng.randint(1, 3)))),
                      Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4])))
        printed = E.print_expr(ast)
        reparsed = E._Parser(printed, F3).point()
        assert reparsed == ast


def _scalars(field):
    """p-adic a/b, or F_q(t) t^k·num/den with num and den of degree < 4."""
    if isinstance(field, PAdicField):
        return st.fractions(-100, 100, max_denominator=50).map(field.scalar)
    coeffs = st.lists(st.integers(0, field.char - 1), max_size=4)
    return st.builds(lambda num, den, k: fq_ratio(field, num, den) * field.pi_power(k),
                     coeffs, coeffs.filter(any), st.integers(-3, 3))


# Generators whose constructor refuses a zero scalar argument.
_NONZERO_ARGS = {"diag", "torus"}


def _products(field, target):
    """Products of target's generators, in every shape of exprs.GENERATORS,
    with parenthesized products nested among the factors."""
    def gen(name, shape):
        scalar = _scalars(field)
        if name in _NONZERO_ARGS:
            scalar = scalar.filter(lambda s: not s.is_zero())
        args = [st.integers(-5, 5) if ch == "i" else scalar for ch in shape if ch in "is"]
        return st.tuples(*args).map(lambda values: E.Gen(name, values))

    def product(factors):
        return st.lists(factors, min_size=1, max_size=3).map(lambda fs: E.Product(tuple(fs)))

    gens = st.one_of(*(gen(name, shape) for name, (shape, _) in E.GENERATORS[target].items()))
    return product(st.recursive(gens, product, max_leaves=6))


def _nodes(field, target):
    if target == E.TREEPOINT:
        return st.builds(E.Point, _products(field, E.SL2),
                         st.fractions(-20, 20, max_denominator=12))
    return _products(field, target)


@pytest.mark.parametrize("field", [F3, FQ3], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("target", [E.SL2, E.AFFINE, E.TREEPOINT])
@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data())
def test_print_expr_parses_back(field, target, data):
    """parse_element ∘ print_expr is the identity on every node the grammar
    can print: each generator shape, nested products and tree points."""
    node = data.draw(_nodes(field, target))
    assert E.parse_element(E.print_expr(node), target, field)[0] == node


def _checked_rebuild(g):
    """g built again through the public constructors, which check det 1
    (and z ≠ 0 for an affine element)."""
    if isinstance(g, affine.AffElt):
        return affine.AffElt(sl2.SL2Elt(*g.m.entries()), g.z)
    return sl2.SL2Elt(*g.entries())


@pytest.mark.parametrize("field", [F3, FQ3], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("target,name", [(target, name) for target in (E.SL2, E.AFFINE)
                                         for name in E.GENERATORS[target]])
@settings(deadline=None, max_examples=30, derandomize=True)
@given(data=st.data())
def test_generators_pass_the_checked_constructors(field, target, name, data):
    """The generator constructors skip the det-1 check, trusting their
    shape: every element they build, on zero scalars too where the shape
    takes them, passes the checks of the public constructors unchanged."""
    shape, construct = E.GENERATORS[target][name]
    scalar = _scalars(field)
    if name in _NONZERO_ARGS:
        scalar = scalar.filter(lambda s: not s.is_zero())
    else:
        scalar = st.one_of(st.just(field.zero()), scalar)
    args = [data.draw(st.integers(-5, 5) if ch == "i" else scalar) for ch in shape if ch in "is"]
    g = construct(field, *args)
    assert _checked_rebuild(g) == g


@pytest.mark.parametrize("field", [F3, FQ3], ids=["p:3", "fq:3"])
@pytest.mark.parametrize("construct", [sl2.identity, sl2.weyl_w])
def test_identity_and_w_pass_the_checked_constructor(field, construct):
    g = construct(field)
    assert _checked_rebuild(g) == g


def test_parenthesized_products():
    ast, elt = E.parse_element("(xp(1) w) xm(2)", E.SL2, F3)
    assert isinstance(ast.factors[0], E.Product)
    flat, elt2 = E.parse_element("xp(1) w xm(2)", E.SL2, F3)
    assert elt == elt2
    printed = E.print_expr(ast)
    assert E.parse_element(printed, E.SL2, F3)[0] == ast


def test_zero_denominator_rational_rejected():
    with pytest.raises(E.ValidationError, match="zero denominator"):
        E.parse_element("point(xp(1), 1/0)", E.TREEPOINT, F3)
    _, p = E.parse_element("point(xp(1), -1/2)", E.TREEPOINT, F3)
    assert p.y == Fraction(-1, 2)
