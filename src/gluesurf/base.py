"""What every layer shares: the base of the immutable value types, the
field checks its constructors run, and the one closure routine.

It imports nothing from the package, so a module that needs only these
loads neither the linear algebra nor the group theory.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable

_store = object.__setattr__  # sets a slot past Record.__setattr__


def _int(value, where: str) -> int:
    """``value`` if it is an integer; a bool, float or string is rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{where} must be an integer, not {type(value).__name__}")
    return value


def _typed(value, kind: type | tuple[type, ...], where: str):
    """``value`` if it is a ``kind``; anything else raises TypeError naming ``where``."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        article = "an" if names[0] in "AEIOUaeiou" else "a"
        raise TypeError(f"{where} must be {article} {names}, not {type(value).__name__}")
    return value


class Record:
    """Base of the immutable value types.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` stores them with ``_set``; a slot whose name starts with
    ``_`` is private, and ``"__dict__"`` comes last where a
    ``cached_property`` needs it.  Equality, hashing and the repr are by
    the public fields; assignment and deletion raise ``AttributeError``,
    and copy and pickle work.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the public fields' values, read in C: sets of records hash and compare them
        cls._values = property(attrgetter(*cls._fields))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _store(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore an instance through here, not by assignment
        for part in state:
            for name, value in (part or {}).items():
                _store(self, name, value)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def closure(start: Iterable, successors: Callable) -> set:
    """Everything reachable from ``start`` by repeated ``successors`` steps.

    With the identity as start and multiplication by the generators as
    the step, this is the generated subgroup.
    """
    seen = set(start)
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for x in successors(h):
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return seen
