from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

from kmtop import affine, exprs, harness, roots, sl2
from kmtop.record import Record
from kmtop.valued import parse_field

F3 = parse_field("p:3")


@dataclass(frozen=True)
class _Pair:
    """The frozen dataclass the records replaced, as the reference."""
    kind: str
    args: tuple


class _PairRecord(Record):
    __slots__ = ("kind", "args")


@pytest.mark.parametrize("values", [("xp", (1, Fraction(1, 3))), ("w", ()), ("t", (0, -2))])
def test_record_behaves_as_a_frozen_dataclass(values):
    ref, rec = _Pair(*values), _PairRecord(*values)
    assert hash(rec) == hash(ref)
    assert repr(rec) == repr(ref).replace("_Pair(", "_PairRecord(")
    assert rec == _PairRecord(*values) and rec != _PairRecord("other", ())
    assert rec != ref and rec != values     # equal only to a record of its class
    with pytest.raises(AttributeError):
        rec.kind = "xm"
    with pytest.raises(FrozenInstanceError):
        ref.kind = "xm"
    with pytest.raises(AttributeError):
        del rec.args
    with pytest.raises(AttributeError):
        rec.extra = 1                         # slots: no attribute outside the fields
    with pytest.raises(TypeError):
        _PairRecord("xp")


def test_record_subclasses_share_fields_and_checks():
    g = sl2.x_plus(F3.scalar(3))
    assert sl2.SL2SubgroupSpec("kerpi", 1).violations(g) == []
    assert sl2.SL2SubgroupSpec("kerpi", 1) != affine.AffSubgroupSpec("kerpi", 1)
    assert sl2.SL2SubgroupSpec("bigcello") == sl2.SL2SubgroupSpec("bigcello", None)
    assert sl2.SL2SubgroupSpec("fixpoint", "1/2").arg == Fraction(1, 2)
    with pytest.raises(ValueError, match="needs a level"):
        affine.AffSubgroupSpec("hn")
    with pytest.raises(ValueError, match="determinant must be 1"):
        sl2.SL2Elt(F3.one(), F3.one(), F3.one(), F3.one())
    with pytest.raises(ValueError, match="pairing"):
        roots.RootGenSys(roots.validate_km([[2]]), 1, ((2,),), ((2,),))
    assert repr(exprs.Gen("w", ())) == "Gen(kind='w', args=())"
    assert {exprs.Product((exprs.Gen("w", ()),)), exprs.Product((exprs.Gen("w", ()),))} \
        == {exprs.Product((exprs.Gen("w", ()),))}


def test_trusted_build_sets_the_fields_in_order_without_the_check():
    """SL2Elt._trusted, for products and inverses, sets the fields through
    the slot setters and skips __post_init__."""
    one, zero = F3.one(), F3.zero()
    assert sl2.SL2Elt._trusted(one, zero, zero, one) == sl2.identity(F3)
    assert sl2.SL2Elt._trusted(one, one, one, one).entries() == (one, one, one, one)   # det 0


def _record_classes(cls=Record):
    """Every record class of the package, found by walking the subclasses."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("kmtop."):
            yield sub
        yield from _record_classes(sub)


_W = exprs.Gen("w", ())

# Field values each record class's checked build keeps as they are.
_CHECKED_EXAMPLES = {
    sl2.SL2Elt: (F3.one(), F3.scalar(3), F3.zero(), F3.one()),
    affine.AffElt: (affine.aff_x_plus(F3, 1, F3.scalar(2)).m, F3.scalar(3)),
    sl2.SL2SubgroupSpec: ("fixpoint", Fraction(1, 2)),
    affine.AffSubgroupSpec: ("hn", 2),
    sl2.TreePoint: (sl2.identity(F3), Fraction(1, 2)),
    harness.SamplerConfig: (F3, 42, 20),
    harness.Failure: (3, "n=1: xp(1)", "inside", "outside"),
    harness.SuiteReport: ("hausdorff", 20, (), 0.5, ""),
    roots.RootGenSys: roots.A1._values(),
    roots.TitsClassification: ((1, 0), frozenset({2})),
    exprs.Gen: ("xp", (F3.one(),)),
    exprs.Product: ((_W,),),
    exprs.Point: (exprs.Product((_W,)), Fraction(1, 2)),
}


def test_every_record_class_has_a_checked_example():
    """SubgroupSpec has no kinds, so only its two subclasses build checked.
    Cls(*values) sets each value to its field, in the order of the slots of
    the record bases and then of the class, and refuses one value too many."""
    assert set(_record_classes()) == set(_CHECKED_EXAMPLES) | {sl2.SubgroupSpec}
    for cls, example in _CHECKED_EXAMPLES.items():
        assert cls(*example)._values() == tuple(example)
        with pytest.raises(TypeError):
            cls(*example, object())


# The record classes built once per product, which write out a build that
# skips the check; every other record class is built only by Cls(...).
_TRUSTED = (sl2.SL2Elt, affine.AffElt)


@pytest.mark.parametrize("cls", sorted(_record_classes(), key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_trusted_build_of_every_record_class(cls):
    """Only SL2Elt and AffElt have a build without the check.  It sets each
    value to its field, in the order of the slots, equals the checked build
    on values that pass the check, and refuses a wrong number of values as
    the checked build does."""
    assert not hasattr(Record, "_trusted") and not hasattr(Record, "_set_fields")
    if cls not in _TRUSTED:
        assert not hasattr(cls, "_trusted")
        return
    fields = tuple(name for klass in reversed(cls.__mro__)
                   for name in klass.__dict__.get("__slots__", ()))
    values = tuple(object() for _ in fields)
    rec = cls._trusted(*values)
    assert type(rec) is cls and all(getattr(rec, name) is v for name, v in zip(fields, values))
    for wrong in (values[:-1], values + (object(),)):
        with pytest.raises(TypeError):
            cls._trusted(*wrong)
    example = _CHECKED_EXAMPLES[cls]
    assert cls._trusted(*example) == cls(*example)
