import importlib
import pkgutil
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

import kmtop
from kmtop import affine, cli, exprs, harness, roots, sl2, valued
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
    g = sl2.x_plus(F3, 3)
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
    valued.PAdicField: (3,),
    valued.RationalFunctionField: (2,),
    valued.ValuedScalar: (F3, Fraction(3, 2)),
    affine.LaurentPoly: (F3, {1: F3.scalar(3), -2: F3.one()}),
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
    """SubgroupSpec has no kinds and Field no kind, so only their subclasses
    build checked.  Cls(*values) sets each value to its field, in the order
    of the slots of the record bases and then of the class, and refuses one
    value too many."""
    assert set(_record_classes()) == set(_CHECKED_EXAMPLES) | {sl2.SubgroupSpec, valued.Field}
    for cls, example in _CHECKED_EXAMPLES.items():
        assert cls(*example)._values() == tuple(example)
        with pytest.raises(TypeError):
            cls(*example, object())


# The record classes built once per product, which write out a build that
# skips the check; ValuedScalar's own Cls(...) is unchecked, and every other
# record class is built only by Cls(...).
_TRUSTED = (sl2.SL2Elt, affine.AffElt, affine.LaurentPoly)


@pytest.mark.parametrize("cls", sorted(_record_classes(), key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_trusted_build_of_every_record_class(cls):
    """Only SL2Elt, AffElt and LaurentPoly have a build without the check.
    It sets each value to its field, in the order of the slots, equals the
    checked build on values that pass the check, and refuses a wrong number
    of values as the checked build does."""
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


def test_fields_scalars_and_laurent_polys_are_immutable():
    """A field's prime is its one field, char, and no value can be rebound."""
    field, x = parse_field("fq:3"), F3.scalar(3)
    poly = affine.LaurentPoly(F3, {1: x})
    for obj, name, value in ((field, "char", 5), (x, "raw", Fraction(1)),
                             (poly, "coeffs", {}), (poly, "field", field)):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert field == parse_field("fq:3") and x.raw == (1, 1, 1) and poly.coeffs == {1: x}
    for f in (F3, field):
        assert not hasattr(f, "p") and not hasattr(f, "q")
    assert repr(field) == "RationalFunctionField(char=3)"


def _package_classes():
    """Every class defined in a module of the package."""
    for info in pkgutil.iter_modules(kmtop.__path__):
        module = importlib.import_module(f"kmtop.{info.name}")
        yield from (obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__)


def test_every_value_class_is_a_record():
    """Every class of the package but an exception or a parser is a Record,
    and Record is the one class that defines how attributes are set."""
    classes = set(_package_classes())
    assert {affine.LaurentPoly, valued.Field, valued.ValuedScalar, Record} <= classes
    others = {cls for cls in classes if not issubclass(cls, (Record, Exception))}
    assert others == {exprs._Parser, cli._Parser}
    assert [cls for cls in classes if "__setattr__" in vars(cls)] == [Record]
