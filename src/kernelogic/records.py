"""The shared base of the package's frozen records.

A record is a plain class whose ``__slots__`` name its fields in order.
Its ``__init__`` is its signature, its validation and one call to
``Record.__init__``, which alone stores field values. The base refuses
assignment and deletion, and derives the rest from ``__slots__`` once,
through ``_values``, the tuple of a record's fields. ``==`` holds only
between objects of one class (``NotImplemented`` otherwise, so a
record never equals a tuple), and the hash is that of ``_values``. It
prints ``Name(field=value, ...)``, and pickles and copies a record by
calling its constructor again. It defines no ordering, so sorting
records raises ``TypeError``.

Storing through the base costs 0.5-0.7 us more per record than one
``object.__setattr__`` per field in each constructor: ``Partition3``
takes 1.35 against 0.64 us, ``Clause._unchecked`` 1.09 against
0.62 us (best of 7 runs of 200,000, CPython 3.11, a shared 2-CPU Linux
VM). The derived ``==`` and hash cost 100-300 ns more per call than
methods written out per class: 33 against 15 ms for the 13,136 hashes
and 5,316 comparisons, nearly all of ``Clause``, that 5 s of
perfbench's components-wide workload (seed 7) made under cProfile.
That workload hashes records most; paradox-dense made under 1,000
hashes, and kernel-sparse none.
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

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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
