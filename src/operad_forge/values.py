"""The base of the engine's value classes.

A value class lists its fields in ``__slots__`` and assigns them in its own
``__init__``, like ``trees.PlanarTree``.  ``Value`` gives it the ``repr``
``Name(field=value, ...)`` over the fields named in ``_repr``, and equality
and hashing over the tuple of compared fields that its ``_key()`` returns:
values of one class are equal exactly when those fields are.  A mutable
class sets ``__hash__`` to ``None``.

The methods are written out once here rather than generated when each
class is defined: generating them, and importing the module that does it,
took about half the start-up of every ``operad-forge`` process.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _repr: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
