"""Frozen value records, the one immutability mechanism of the library.

A Record subclass declares its fields as class annotations, in order, each
with an optional class-level default.  On the class's first construction
Record compiles an __init__ that writes the fields into the instance dict
and then calls __post_init__, if the class has one (it validates and
normalises in the instance dict), and _values, the tuple of field
values.  Until then the class holds a stand-in __init__ of its own, so a
process compiles only the classes it constructs, and an __init__ rebound
before the first construction stays bound: the stand-in it wraps runs the
compiled one.  Instances compare, hash, print, pickle and copy by their
fields and refuse assignment and deletion; attributes that __post_init__
sets beside the fields, like support stats, take no part in that.
_checked builds an instance from values already checked, without
__post_init__; it compiles the class first, so the value is the same.
"""


def _compile(cls):
    """Compile and return the class's own __init__, and its _values; racing threads compile interchangeable ones."""
    params = "".join(f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}" for n in cls._fields)
    # class bodies mangle __names, so no field is called __d
    stores = "".join(f"\n    __d[{n!r}] = {n}" for n in cls._fields)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    values = "".join(f"self.{n}, " for n in cls._fields)
    namespace = {"__name__": cls.__module__, "_defaults": cls._defaults}
    exec(f"def __init__(self{params}):\n    __d = self.__dict__{stores}{post}\n"
         f"def _values(self):\n    return ({values})", namespace)
    for name in ("__init__", "_values"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    cls._values, cls._init = namespace["_values"], namespace["__init__"]
    return cls._init


def _first_init(self, *args, **kwargs):
    """Each record class's __init__ until its first construction: compile the class's own, then run it."""
    cls = type(self)
    init = cls.__dict__.get("_init") or _compile(cls)
    if cls.__dict__["__init__"] is _first_init:  # else keep what was rebound over the stand-in
        cls.__init__ = init
    init(self, *args, **kwargs)


class Record:
    """Base of the immutable value types; _fields and _defaults come from the annotations."""

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = [n for n in cls.__annotations__ if n not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls.__init__ = _first_init

    @classmethod
    def _checked(cls, **attrs):
        """An instance of attrs, its fields and any attributes beside them, as given: checked, so no __post_init__."""
        if "_values" not in cls.__dict__:
            _compile(cls)
        self = object.__new__(cls)
        self.__dict__.update(attrs)
        return self

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
