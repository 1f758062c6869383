"""Plain value classes: fields named by __slots__, compared and shown by value.

A subclass lists its fields in `__slots__`, in the order its `__init__`
takes them.  Two instances are equal when they have the same class and
equal fields; the repr is ``Name(field=value, ...)``, and copy and pickle
rebuild an instance by calling the class on its fields.  A `Record` is
mutable and so unhashable.  A `FrozenRecord` refuses assignment and
deletion with AttributeError and hashes by its fields; its `__init__` sets
them through `object.__setattr__`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
