"""Value types built from closures, with no generated code.

`record` gives a class whose body annotates its fields the methods that
the standard library's `dataclass` decorator would give it: `__init__`
(fields by position or keyword, trailing class-level defaults, then
`__post_init__` if defined), `__eq__` on the field tuple within one
class, and dataclass's exact `Name(field=value, ...)` repr.  A frozen
record hashes its field tuple and refuses assignment and deletion; a
mutable one is unhashable.  A method the class body defines is kept.

`dataclass` writes each method as source text and `exec`s it, about a
millisecond per frozen class, which made it most of the cost of
`import odolab`; the closures here are plain functions made once.
"""

from operator import attrgetter

_MISSING = object()


def record(cls=None, *, frozen=False):
    """Class decorator; `@record` or `@record(frozen=True)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)
    has_post_init = hasattr(cls, "__post_init__")
    # one attribute at a time, never through `self.__dict__`: asking for the
    # dict makes CPython build one, and every later read of a field slower
    assign = object.__setattr__

    def values(args, kwargs):
        # the field values in order, from a call's arguments and the defaults
        rest = names[len(args) :]
        rest = tuple(kwargs.pop(name) if name in kwargs else defaults.get(name, _MISSING) for name in rest)
        if kwargs or _MISSING in rest or len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(names)}")
        return args + rest

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = values(args, kwargs)
        for name, value in zip(names, args):
            assign(self, name, value)
        if has_post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __repr__(self):
        text = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({text})"

    def __hash__(self):
        return hash(fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:  # a method the class body defines stays
            setattr(cls, name, method)
    return cls
