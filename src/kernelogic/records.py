"""The shared base of the package's frozen records.

A record is a plain class whose ``__slots__`` name its fields in order.
Each record writes only its ``__init__``; this base derives the rest
from ``__slots__`` once, through ``_values``, the tuple of a record's
fields. ``==`` holds only between objects of one class
(``NotImplemented`` otherwise, so a record never equals a tuple), and
the hash is that of ``_values``. The base refuses assignment and
deletion, prints ``Name(field=value, ...)``, and pickles and copies a
record by calling its constructor again. It defines no ordering, so
sorting records raises ``TypeError``.

The derived ``==`` and hash cost 100-300 ns more per call than methods
written out per class. Under cProfile, 5 s of perfbench's
components-wide workload (seed 7), the one that hashes records most,
made 13,136 record hashes and 5,316 comparisons, nearly all of
``Clause``: 33 ms in all, against 15 ms for the written-out methods.
paradox-dense made under 1,000 hashes, and kernel-sparse none.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__ = cls.__slots__
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._values = property(get if len(names) > 1 else lambda record: (get(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values
