"""Immutable value records on ``__slots__``.

Hulls and closures are memoized and shared between callers, so a value
must not change once built.  A `Record` subclass lists its fields in
``__slots__``, in constructor order, and sets them once with `set_fields`;
the base class gives equality and hashing over the fields, a
``Name(field=value, ...)`` repr and an ``AttributeError`` on assignment.
"""

from operator import attrgetter

_assign = object.__setattr__


def set_fields(record, *values) -> None:
    """Set the fields of a new record, in ``__slots__`` order."""
    for name, value in zip(record.__slots__, values):
        _assign(record, name, value)


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields as one tuple, also for a record of one field
        get = attrgetter(*cls.__slots__)
        cls._values = get if len(cls.__slots__) > 1 else staticmethod(lambda r: (get(r),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self.__slots__, self._values(self))
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle go through the constructor
        return self.__class__, self._values(self)
