"""Bases for coxkit's plain record classes.

A record names its fields, in order, in `_fields` and sets them in its
own `__init__`.  `Record` gives it the `==` and `repr` a dataclass
would: two records are equal when they are of the same class and their
fields are, and the repr reads `Name(field=value, ...)`.  A field left
out of `_fields` (`OmegaGraph.table`) is left out of both.  A `Record`
is not hashable, since it defines `==`; a `Frozen` one is, refuses every
assignment with `AttributeError`, and sets its fields with `_set`.

Plain classes keep `import coxkit` from loading `dataclasses` and with
it `inspect`, `ast`, `dis`, `tokenize` and `copy`: about 1 MiB of
resident memory in every process.
"""
from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    def _set(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
