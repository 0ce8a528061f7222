"""Base classes for the package's report and declaration records.

A record class lists its fields in ``__slots__`` and writes its own
``__init__`` that takes them in that order.  :class:`Value` supplies
field-wise equality, a ``repr`` naming every field, and pickling and
copying through the constructor; records compare equal only to records of
the same class, and are unhashable.  :class:`FrozenValue` records are
immutable and hashable: their ``__init__`` stores fields with
``object.__setattr__``.
"""

from __future__ import annotations


class Value:
    """Field-wise ``__eq__``, ``__repr__`` and ``__reduce__`` over ``__slots__``."""

    __slots__ = ()

    def _key(self) -> tuple:
        """The fields that equality (and hashing) compares."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


class FrozenValue(Value):
    """A :class:`Value` whose fields cannot be assigned or deleted."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
