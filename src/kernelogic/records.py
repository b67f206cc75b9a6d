"""The shared base of the package's frozen records.

A record is a plain class whose ``__slots__`` name its fields in order.
Each record writes its own ``__init__``, ``__eq__`` and ``__hash__``
over those fields, since they run on hot paths: ``==`` holds only
between objects of one class (``NotImplemented`` otherwise, so a record
never equals a tuple), and the hash is that of the tuple of fields.
This base holds the cold parts. It refuses assignment and deletion,
prints ``Name(field=value, ...)``, and pickles and copies a record by
calling its constructor again. It defines no ordering, so sorting
records raises ``TypeError``.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)
