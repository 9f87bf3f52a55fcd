"""The base of the engine's value classes.

A value class lists its fields in ``__slots__`` and assigns them in its own
``__init__``, like ``trees.PlanarTree``.  ``Value`` gives it the ``repr``
``Name(field=value, ...)`` over the fields named in ``_repr`` (by default
its own slots, ``__dict__`` aside), and equality and hashing over the tuple
of the fields named in ``_compared`` (by default ``_repr``).  A class names
either only where it differs; one with no slots of its own keeps its
parent's.  A mutable class sets ``__hash__`` to ``None``.

Only ``_key``, which returns that tuple, is made per class, as ``lambda
self: (self.a, ...)``, whose attribute reads the interpreter specializes (an
``operator.attrgetter`` is slower).  The other methods are written out once
here: generating them, as ``dataclasses`` did, took about half the start-up
of every ``operad-forge`` process.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _repr: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__
        if "_repr" not in own:
            fields = tuple(s for s in own.get("__slots__", ()) if s != "__dict__")
            if not fields:
                return
            cls._repr = fields
        reads = "".join(f"self.{name}, " for name in own.get("_compared", cls._repr))
        cls._key = eval(f"lambda self: ({reads})")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
