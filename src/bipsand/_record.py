"""Frozen records without the dataclasses module.

Importing dataclasses costs a process about 7 ms, most of it inspect, and
each frozen dataclass about 1 ms more while six methods are generated for
it, so every bipsand process would pay about 20 ms before any work.  The
records need only what @dataclass(frozen=True) gives them, which this
decorator gives for the cost of one small exec per class.
"""

_set = object.__setattr__


def record(cls):
    """Make cls a frozen record of the fields annotated in its body, as
    @dataclass(frozen=True) does.

    The fields, in order, are the __init__ parameters: a field with a class
    attribute takes it as its default, and __init__ ends with
    self.__post_init__() when the class has one.  Equality holds between
    instances of the same class with equal field tuples, the hash is the
    field tuple's, and the repr is ClassName(field=value!r, ...).  Setting
    or deleting an attribute raises AttributeError, on a subclass only for
    the fields.  No __slots__: an instance keeps its __dict__, so the
    package can record derived values with object.__setattr__.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_set": _set, "__name__": cls.__module__}
    params = []
    for f in names:
        if f in cls.__dict__:
            ns[f"_dflt_{f}"] = cls.__dict__[f]
            f = f"{f}=_dflt_{f}"
        params.append(f)
    mine = "".join(f"self.{f}," for f in names)
    theirs = "".join(f"other.{f}," for f in names)
    reprs = ", ".join(f"{f}={{self.{f}!r}}" for f in names)
    # generated, so each method names its fields as dataclasses' do: a
    # generic *args __init__ would slow every record the bijections build
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *(f"    _set(self, {f!r}, {f})" for f in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({reprs})'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ])
    exec(source, ns)

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for fn in (ns["__init__"], ns["__repr__"], ns["__eq__"], ns["__hash__"], __setattr__,
               __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = names
    return cls
