"""Immutable value classes without ``dataclasses``.

Fields, scalars, Laurent polynomials, elements, subgroup specs, tree points,
root systems, expression nodes and the harness's configs and reports: every
value class of the package is a record.  A frozen dataclass behaves the
same, but importing ``dataclasses`` loads ``inspect`` and compiles methods
for every class, about 0.5 MB of resident memory in every process that runs
even one command.

A record's invariants are checked once, where its values come from outside:
``Cls(*values)`` runs ``__post_init__``, and refuses a wrong number of values
with TypeError.  ``SL2Elt``, ``AffElt`` and ``LaurentPoly``, built per
product, each add an unchecked ``_trusted`` build.  ``ValuedScalar``, built
per operation, is the one record whose ``Cls(...)`` is unchecked, and
``Field.scalar`` is its checked entry.
"""

from __future__ import annotations


class Record:
    """An immutable value whose fields are the ``__slots__`` of its class
    and of its record bases, in order.

    Built from the field values, positionally; then ``__post_init__`` checks
    them.  Records of one class with equal fields are equal, the hash is that
    of the fields, the repr reads ``Name(field=value, ...)``, and no attribute
    can be set afterwards: the behaviour of a frozen dataclass.  A subclass
    may redefine ``==`` or the hash: a ``TreePoint``'s fields are no canonical
    form, a ``LaurentPoly``'s dict has no hash, and a ``ValuedScalar`` equals
    a number.  A subclass that adds no field declares ``__slots__ = ()``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()    # each field's slot __set__, quicker than object.__setattr__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields += slots
        cls._setters += tuple(cls.__dict__[name].__set__ for name in slots)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values, "
                            f"got {len(values)}")
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record class with invariants overrides this."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
