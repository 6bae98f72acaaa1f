"""Frozen value records, the one immutability mechanism of the library.

A Record subclass declares its fields as class annotations, in order, each
with an optional class-level default.  At class creation Record compiles
an __init__ that stores the fields and then calls __post_init__, if the
class has one (it validates and normalises through object.__setattr__),
and _values, the tuple of field values.  Instances compare, hash, print,
pickle and copy by their fields and refuse assignment and deletion;
attributes that __post_init__ sets beside the fields, like support
stats, take no part in that.
"""

from __future__ import annotations


class Record:
    """Base of the immutable value types; _fields and _defaults come from the annotations."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = [n for n in cls.__annotations__ if n not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        params = "".join(f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}" for n in cls._fields)
        stores = "".join(f"\n    _set(self, {n!r}, {n})" for n in cls._fields)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else "\n    pass"
        values = "".join(f"self.{n}, " for n in cls._fields)
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self{params}):{stores}{post}\ndef _values(self):\n    return ({values})", namespace)
        for name in ("__init__", "_values"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values()
