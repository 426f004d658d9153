"""Library entry points take exact arguments of their own field, or refuse them.

Every generator constructor is ctor(field, *args), named in exprs.GENERATORS,
and checks its own arguments: a scalar through field.scalar (an int is
coerced, another field's scalar is a FieldMismatch), an integer through
exact_int (a float, a bool, a str or a Fraction is a TypeError), and a zero
where diag or torus needs a nonzero scalar is a ValidationError.  The other
entry points below take their integers the same way, and the checked record
builds their fields; a subgroup spec refuses a level that is no int with a
ValueError, its one error for a bad spec.  No call raises an AttributeError
or returns an element that holds a float or a bool.
"""

import inspect
from fractions import Fraction

import pytest

from kmtop import affine, exprs, harness, sl2
from kmtop.record import Record
from kmtop.valued import Field, FieldMismatch, PAdicField, RationalFunctionField

FIELDS = [PAdicField(3), RationalFunctionField(3)]
OTHER = PAdicField(5)


def _kinds(shape: str) -> str:
    """The argument kinds of a shape, 'i' an integer, 's' a scalar and 'r'
    an exact rational."""
    return "".join(ch for ch in shape if ch in "isr")


# name -> (call(field, *args), shape, valid args): a shape spells the
# arguments as exprs.GENERATORS does, and the valid args are exact
ENTRIES = {
    **{f"{target}.{name}": (ctor, shape, tuple(1 if ch == "i" else 2 for ch in _kinds(shape)))
       for target, table in exprs.GENERATORS.items() for name, (shape, ctor) in table.items()},
    "identity": (sl2.identity, "", ()),
    "pow": (lambda field, k: field.scalar(9) ** k, "i", (2,)),
    "pi_power": (lambda field, n: field.pi_power(n), "i", (-2,)),
    "eval_char": (lambda field, b0, b1: affine.eval_char((b0, b1), affine.aff_t_mu(field, 1, 2)),
                  "i,i", (2, 1)),
    "AffElt": (lambda field, z: affine.AffElt(affine.aff_s1(field).m, z), "s", (2,)),
    "conj_bound": (lambda field, n: affine.conj_bound(affine.aff_x_plus(field, 1, 3), n),
                   "i", (1,)),
    "kp_witness": (lambda field, n, depth: affine.kp_witness(n, depth), "i,i", (2, 3)),
    "SL2Elt": (lambda field, b: sl2.SL2Elt(field.one(), b, 0, field.one()), "s", (2,)),
    "TreePoint": (lambda field, y: sl2.TreePoint(sl2.identity(field), y), "r",
                  (Fraction(1, 2),)),
    "SL2SubgroupSpec": (lambda field, n: sl2.SL2SubgroupSpec("kerpi", n), "i", (2,)),
    "AffSubgroupSpec": (lambda field, n: affine.AffSubgroupSpec("hn", n), "i", (2,)),
    "SamplerConfig": (lambda field, seed, trials: harness.SamplerConfig(field, seed, trials),
                      "i,i", (42, 20)),
}
NONZERO = {"sl2.diag": "diag", "affine.torus": "torus"}
REFUSED_AS = {"SL2SubgroupSpec": ValueError, "AffSubgroupSpec": ValueError}
NOT_INTS = (0.5, True, "1", Fraction(1, 2))
NOT_SCALARS = (0.5, True, "1")        # nor exact rationals


def _inexact(x) -> bool:
    """Whether x holds a value that is neither an int nor a Fraction (a float,
    a bool, a str) anywhere in its records, dicts and tuples; fields and the
    kind name of a subgroup spec excepted."""
    if isinstance(x, Field):
        return False
    if isinstance(x, sl2.SubgroupSpec):
        return _inexact(x.arg)
    if isinstance(x, Record):
        return any(_inexact(getattr(x, name)) for name in x._fields)
    if isinstance(x, dict):
        return any(_inexact(k) or _inexact(v) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return any(map(_inexact, x))
    return x is not None and type(x) not in (int, Fraction)


def test_every_generator_constructor_is_named_and_takes_the_field_first():
    for target, table in exprs.GENERATORS.items():
        module = sl2 if target == exprs.SL2 else affine
        for name, (shape, ctor) in table.items():
            assert getattr(module, ctor.__name__, None) is ctor, (target, name)
            params = list(inspect.signature(ctor).parameters)
            assert params[0] == "field" and len(params) == 1 + len(_kinds(shape)), (target, name)
    assert not hasattr(exprs, "_nonzero")


@pytest.mark.parametrize("field", FIELDS, ids=["p:3", "fq:3"])
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_points_take_exact_arguments_of_their_field(field, name):
    call, shape, valid = ENTRIES[name]
    kinds = _kinds(shape)
    got = call(field, *valid)
    assert not _inexact(got)
    scalars = [field.scalar(v) if ch == "s" else v for ch, v in zip(kinds, valid)]
    assert call(field, *scalars) == got          # an int scalar is coerced
    for i, ch in enumerate(kinds):
        def with_arg(bad):
            return call(field, *valid[:i], bad, *valid[i + 1:])
        refusal = REFUSED_AS.get(name, TypeError)
        for bad in NOT_INTS if ch == "i" else NOT_SCALARS:
            with pytest.raises(refusal) as info:
                with_arg(bad)
            assert info.type is refusal, bad
        if ch == "s":
            with pytest.raises(FieldMismatch, match="mixed fields: .* vs p:5"):
                with_arg(OTHER.one())
            if name in NONZERO:
                text = rf"^zero scalar where nonzero required \({NONZERO[name]}\)$"
                with pytest.raises(exprs.ValidationError, match=text):
                    with_arg(0)


@pytest.mark.parametrize("field", FIELDS, ids=["p:3", "fq:3"])
def test_checked_records_refuse_what_would_fail_later(field):
    """SL2Elt, AffElt and TreePoint refuse, when built, an element that a
    later product, read or == could not use: ints with no scalar to take a
    field from, scalars of two kinds or two fields, and an element of the
    other group."""
    one, other = field.one(), OTHER.one()
    poly_one = affine.LaurentPoly.one(field)
    g = sl2.SL2Elt(one, 0, 0, one)
    assert all(type(e) is type(one) and e.field is field for e in g.entries())
    assert g == sl2.identity(field)
    for entries in ((1, 0, 0, 1), (poly_one, 0, 0, poly_one), (one, 0.5, 0, one),
                    (poly_one, field.zero(), field.zero(), poly_one)):
        with pytest.raises(TypeError) as info:
            sl2.SL2Elt(*entries)
        assert info.type is TypeError, entries
    with pytest.raises(FieldMismatch, match="mixed fields: .* vs p:5"):
        sl2.SL2Elt(one, 0, 0, other)
    zero = affine.LaurentPoly.zero(OTHER)
    with pytest.raises(FieldMismatch, match="mixed fields: .* vs p:5"):
        sl2.SL2Elt(poly_one, affine.LaurentPoly.zero(field), zero, poly_one)
    for m in (1, sl2.identity(field), affine.aff_s0(field)):
        with pytest.raises(TypeError) as info:
            affine.AffElt(m, one)
        assert info.type is TypeError, m
    for g in (1, affine.aff_s0(field), affine.aff_s0(field).m):
        with pytest.raises(TypeError) as info:
            sl2.TreePoint(g, 0)
        assert info.type is TypeError, g
