from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import pytest

from kmtop import affine, exprs, roots, sl2
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
