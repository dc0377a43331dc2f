"""Immutable value records without ``dataclasses``.

Every value type of the package (profiles, classes, specs, claims, curve
classes, table rows) derives from :class:`Record`.  ``dataclasses``, with
the ``inspect`` module it imports and the source it generates and compiles
for every decorated class, was a sixth to a quarter of a cold ``tautclass
verify``; ``tests/test_records.py`` checks that the CLI does not import it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value record, in place of a frozen dataclass.

    A subclass names its fields in ``__slots__`` (plus ``"__dict__"`` when
    it needs one, as ``cached_property`` does) and is built from them
    positionally or by keyword.  Records of one class compare and hash by
    their field tuple, never equal a record of another class or a tuple,
    and refuse to set or delete attributes.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: attrgetter  # called as self._key(self): a C getter does not bind

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__dict__.get("__slots__", ())
                            if name != "__dict__")
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if (len(args) + len(kwargs) != len(fields)
                    or values.keys() != set(fields)):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(fields)}")
            args = tuple(values[name] for name in fields)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        # attrgetter of one field gives the value itself, not a 1-tuple
        values = self._key(self)
        return (values,) if len(self._fields) == 1 else values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()
