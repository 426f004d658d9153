"""Library entry points take exact arguments of their own field, or refuse them.

Every generator constructor is ctor(field, *args), named in exprs.GENERATORS,
and checks its own arguments: a scalar through field.scalar (an int is
coerced, another field's scalar is a FieldMismatch), an integer through
exact_int (a float, a bool, a str or a Fraction is a TypeError), and a zero
where diag or torus needs a nonzero scalar is a ValidationError.  The other
entry points below take their integers the same way.  No call raises an
AttributeError or returns an element that holds a float or a bool.
"""

import inspect
from fractions import Fraction

import pytest

from kmtop import affine, exprs, sl2
from kmtop.record import Record
from kmtop.valued import Field, FieldMismatch, PAdicField, RationalFunctionField

FIELDS = [PAdicField(3), RationalFunctionField(3)]
OTHER = PAdicField(5)


def _kinds(shape: str) -> str:
    """The argument kinds of a shape, 'i' an integer and 's' a scalar."""
    return "".join(ch for ch in shape if ch in "is")


# name -> (call(field, *args), shape, valid args): a shape spells the
# arguments as exprs.GENERATORS does, and the valid args are ints
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
}
NONZERO = {"sl2.diag": "diag", "affine.torus": "torus"}
NOT_INTS = (0.5, True, "1", Fraction(1, 2))
NOT_SCALARS = (0.5, True, "1")


def _inexact(x) -> bool:
    """Whether x holds a value that is neither an int nor a Fraction (a float,
    a bool) anywhere in its records, dicts and tuples; fields excepted."""
    if isinstance(x, Field):
        return False
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
        for bad in NOT_INTS if ch == "i" else NOT_SCALARS:
            with pytest.raises(TypeError) as info:
                with_arg(bad)
            assert info.type is TypeError, bad
        if ch == "s":
            with pytest.raises(FieldMismatch, match="mixed fields: .* vs p:5"):
                with_arg(OTHER.one())
            if name in NONZERO:
                text = rf"^zero scalar where nonzero required \({NONZERO[name]}\)$"
                with pytest.raises(exprs.ValidationError, match=text):
                    with_arg(0)
