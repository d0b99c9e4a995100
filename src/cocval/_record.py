"""The base of the package's value types, on the standard library alone.

A record is a class whose ``__init__`` checks its arguments and stores
them with ``_store``.  Its fields are the parameters of that
``__init__``, in order.  The base makes a record immutable (assigning
or deleting an attribute raises ``AttributeError``), gives it equality
and a hash over its fields for records of the same type, a repr
``Name(field=value, ...)`` and ``replace``, which builds a changed copy
through ``__init__`` and so runs its checks again.  The class keyword
``hidden`` names fields left out of equality, hash and repr.
"""

from __future__ import annotations

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()  # every parameter of __init__
    _shown: tuple[str, ...] = ()   # those compared, hashed and shown

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._shown = tuple(name for name in cls._fields if name not in hidden)

    def _store(self, *values) -> None:
        # The fields, given in the order of the parameters of __init__.
        # Set one by one, they stay in the object's inline values: CPython
        # 3.11 makes no dict for them until ``vars`` asks for one, and a
        # dict adds 64 bytes to every instance.
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, checked as a new record is."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)
