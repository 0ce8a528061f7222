"""Base classes for the package's report and declaration records.

A record class lists its fields in ``__slots__`` and writes no ``__init__``:
:class:`Value`'s constructor binds positional, then keyword arguments to the
fields in ``__slots__`` order, takes a field left out from the class's
``_defaults`` (copying a dict, so that each record gets a fresh one) and
raises ``TypeError`` for a call that does not fit.  Records compare field by
field and only to records of the same class, name every field in their
``repr``, and pickle and copy through the constructor.  :class:`Value` records
are unhashable; :class:`FrozenValue` records are immutable and hashable.
"""

from __future__ import annotations


class Value:
    """Field-wise ``__init__``, ``__eq__``, ``__repr__`` and ``__reduce__``."""

    __slots__ = ()
    _defaults: dict = {}
    _store = staticmethod(setattr)

    def __init__(self, *args, **kwargs):
        names, store = self.__slots__, self._store
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            store(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that does not give every field by position."""
        names, positional = cls.__slots__, cls.__slots__[:len(args)]
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} fields, got {len(args)}")
        bound = {name: d.copy() if type(d) is dict else d for name, d in cls._defaults.items()}
        bound.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in positional:
                problem = "repeated" if name in positional else "unknown"
                raise TypeError(f"{cls.__qualname__}() got {problem} field {name!r}")
            bound[name] = value
        missing = [name for name in names if name not in bound]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing field {missing[0]!r}")
        return [bound[name] for name in names]

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
    _store = staticmethod(object.__setattr__)  # past __setattr__ below

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
